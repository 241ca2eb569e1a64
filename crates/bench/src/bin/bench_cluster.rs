//! Entity-clustering quality gate + throughput benchmark — the acceptance
//! check for `certa-cluster`.
//!
//! Blocks the DS tables with the standard multi-pass blocker, scores the
//! candidates through a trained DeepMatcher-sim behind the sharded
//! [`CachingMatcher`], thresholds them into a match graph, and resolves
//! entities with **both** clusterers. Hard gates, per clusterer:
//!
//! 1. **pairwise F1** ≥ [`REQUIRED_F1`] against the generator's seeded
//!    truth partition;
//! 2. **cluster F1** (exact-cluster match) ≥ [`REQUIRED_F1`];
//! 3. **determinism** — byte-identical [`Partition`]s across two runs and
//!    across 1/2/8 scoring workers;
//! 4. **counterfactual** — the ψ-mask disconnect edit found for a member of
//!    a multi-record entity must actually split it under re-clustering
//!    ([`verify_disconnect`]).
//!
//! Writes `BENCH_cluster.json`; any gate failure exits non-zero.

use certa_bench::{banner, write_bench_json, CliOptions};
use certa_block::{Blocker, MultiPass};
use certa_cluster::{
    cluster_f1, find_disconnect_edit, pairwise_prf, run_cluster_pipeline, truth_partition,
    verify_disconnect, ClusterConfig, Clusterer, ConnectedComponents, MatchMerge, Partition,
};
use certa_core::BoxedMatcher;
use certa_datagen::{generate, DatasetId};
use certa_models::{train_model, CachingMatcher, ModelKind, TrainConfig};
use certa_serve::Json;
use std::sync::Arc;
use std::time::Instant;

/// Both pairwise and exact-cluster F1 must clear this, per clusterer.
const REQUIRED_F1: f64 = 0.95;
/// Match threshold the graph is built at.
const THRESHOLD: f64 = 0.5;
/// Worker counts the determinism gate sweeps.
const WORKER_SWEEP: [usize; 3] = [1, 2, 8];
/// Donor budget for the counterfactual search.
const MAX_DONORS: usize = 64;

fn main() {
    let opts = CliOptions::from_env();
    banner("cluster — entity resolution quality gate", &opts);

    let t0 = Instant::now();
    let dataset = generate(DatasetId::DS, opts.scale, opts.seed);
    let truth = truth_partition(&dataset);
    let blocker = MultiPass::standard();
    let candidates = blocker.candidates(dataset.left(), dataset.right());
    println!(
        "dataset=DS |U|={} |V|={} candidates={} truth entities={} generated in {:.2}s",
        dataset.left().len(),
        dataset.right().len(),
        candidates.len(),
        truth.len(),
        t0.elapsed().as_secs_f64()
    );

    let kind = ModelKind::DeepMatcher;
    let t = Instant::now();
    let (model, _) = train_model(kind, &dataset, &TrainConfig::for_kind(kind));
    let cache = CachingMatcher::new(Arc::new(model) as BoxedMatcher);
    println!(
        "model={} trained in {:.2}s · threshold={THRESHOLD}",
        kind.paper_name(),
        t.elapsed().as_secs_f64()
    );
    println!();

    // `--workers` absent means one scoring worker per core, as everywhere.
    let workers = certa_core::worker_count(opts.workers.unwrap_or(0));
    let clusterers: [Box<dyn Clusterer>; 2] = [Box::new(ConnectedComponents), Box::new(MatchMerge)];
    let mut rows = Vec::new();
    let mut all_pass = true;
    for clusterer in &clusterers {
        let run = |workers: usize| {
            run_cluster_pipeline(
                &dataset,
                &cache,
                &candidates,
                blocker.name(),
                clusterer.as_ref(),
                &ClusterConfig {
                    threshold: THRESHOLD,
                    workers,
                },
            )
        };
        let t = Instant::now();
        let report = run(workers);
        let cluster_s = t.elapsed().as_secs_f64();
        let pairs_per_s = report.candidates as f64 / cluster_s.max(1e-9);

        let pw = pairwise_prf(&report.partition, &truth);
        let cf1 = cluster_f1(&report.partition, &truth);

        // Gate 3: byte-identical partitions across a re-run and across the
        // scoring-worker sweep.
        let baseline = report.partition.to_bytes();
        let determinism_pass = WORKER_SWEEP
            .iter()
            .all(|&w| run(w).partition.to_bytes() == baseline)
            && run(workers).partition.to_bytes() == baseline;

        // Gate 4: a ψ-mask disconnect edit for some member of a
        // multi-record entity, verified by re-clustering the edited world.
        let counterfactual_pass =
            counterfactual_verifies(&report, clusterer.as_ref(), &cache, &dataset);

        let pairwise_pass = pw.f1 >= REQUIRED_F1;
        let cluster_pass = cf1 >= REQUIRED_F1;
        all_pass &= pairwise_pass && cluster_pass && determinism_pass && counterfactual_pass;
        println!(
            "{:>10}: {} entities ({} multi, largest {}) | {} match edges | {cluster_s:6.2}s on {workers} workers ({pairs_per_s:.0} pairs/s)",
            report.clusterer,
            report.clusters(),
            report.non_singletons(),
            report.largest(),
            report.match_edges.len(),
        );
        println!(
            "            pairwise P/R/F1 {:.4}/{:.4}/{:.4} — {} (≥{REQUIRED_F1} required)",
            pw.precision,
            pw.recall,
            pw.f1,
            if pairwise_pass { "PASS" } else { "FAIL" }
        );
        println!(
            "            cluster F1 {cf1:.4} — {} (≥{REQUIRED_F1} required)",
            if cluster_pass { "PASS" } else { "FAIL" }
        );
        println!(
            "            determinism across runs and workers {WORKER_SWEEP:?}: {}",
            if determinism_pass { "PASS" } else { "FAIL" }
        );
        println!(
            "            counterfactual disconnect verified: {}",
            if counterfactual_pass { "PASS" } else { "FAIL" }
        );
        rows.push((
            report.clusterer.clone(),
            Json::obj([
                ("entities", Json::num(report.clusters() as f64)),
                ("non_singletons", Json::num(report.non_singletons() as f64)),
                ("largest", Json::num(report.largest() as f64)),
                ("match_edges", Json::num(report.match_edges.len() as f64)),
                ("pairwise_precision", Json::Num(pw.precision)),
                ("pairwise_recall", Json::Num(pw.recall)),
                ("pairwise_f1", Json::Num(pw.f1)),
                ("cluster_f1", Json::Num(cf1)),
                ("cluster_seconds", Json::Num(cluster_s)),
                ("pairs_per_second", Json::Num(pairs_per_s)),
                ("pairwise_pass", Json::Bool(pairwise_pass)),
                ("cluster_pass", Json::Bool(cluster_pass)),
                ("determinism_pass", Json::Bool(determinism_pass)),
                ("counterfactual_pass", Json::Bool(counterfactual_pass)),
            ]),
        ));
    }

    let stats = cache.stats();
    println!();
    println!(
        "score cache: {} hits / {} misses ({:.1}% reuse across the gate runs)",
        stats.hits,
        stats.misses,
        100.0 * stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64
    );

    let report_json = Json::obj([
        ("bench", Json::str("cluster")),
        ("dataset", Json::str("DS")),
        ("scale", Json::str(opts.scale.to_string())),
        ("seed", Json::num(opts.seed as f64)),
        ("model", Json::str(kind.paper_name())),
        ("threshold", Json::Num(THRESHOLD)),
        ("candidates", Json::num(candidates.len() as f64)),
        ("truth_entities", Json::num(truth.len() as f64)),
        ("required_f1", Json::Num(REQUIRED_F1)),
        ("cache_hits", Json::num(stats.hits as f64)),
        ("cache_misses", Json::num(stats.misses as f64)),
        ("clusterers", Json::Obj(rows)),
        ("pass", Json::Bool(all_pass)),
    ]);
    match write_bench_json("BENCH_cluster.json", &report_json) {
        Ok(()) => println!("wrote BENCH_cluster.json"),
        Err(e) => {
            eprintln!("FAIL: could not write BENCH_cluster.json: {e}");
            std::process::exit(1);
        }
    }

    if !all_pass {
        eprintln!("FAIL: clustering gate violated (see above)");
        std::process::exit(1);
    }
}

/// Find a member of a multi-record entity whose ψ-mask disconnect edit
/// exists, and check the edit survives re-clustering. Walks the clusters
/// largest-first so the edit targets a real merged entity.
fn counterfactual_verifies(
    report: &certa_cluster::ClusterReport,
    clusterer: &dyn Clusterer,
    cache: &CachingMatcher,
    dataset: &certa_core::Dataset,
) -> bool {
    let partition: &Partition = &report.partition;
    let mut order: Vec<usize> = (0..partition.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(partition.members(i).len()));
    for &i in order.iter().take(16) {
        let members = partition.members(i);
        if members.len() < 2 {
            break;
        }
        for &node in members.iter().take(4) {
            let Some(edit) = find_disconnect_edit(
                dataset,
                &cache,
                &report.scored,
                partition,
                node,
                report.threshold,
                MAX_DONORS,
            ) else {
                continue;
            };
            return verify_disconnect(
                dataset,
                &cache,
                clusterer,
                &report.scored,
                partition,
                report.threshold,
                &edit,
            );
        }
    }
    false
}
