//! `certa-cluster` — run the full datagen → block → score → cluster →
//! explain pipeline and print the resolved entities.
//!
//! ```text
//! certa-cluster --scale default --model rule --clusterer components \
//!     --threshold 0.5 --explain-side L --explain-id 0
//! ```
//!
//! The binary generates the two tables at the requested scale, blocks them
//! with the standard multi-pass blocker, scores the candidates through a
//! [`certa_models::CachingMatcher`]-wrapped model, resolves entities with
//! the selected clusterer, reports pairwise and cluster F1 against the
//! generator's ground truth, and (optionally) explains one record's cluster
//! membership — edge evidence, bridges, per-edge saliency, and the
//! ψ-counterfactual attribute edit that disconnects it.

use certa_block::{Blocker, MultiPass};
use certa_cluster::{
    cluster_f1, explain_membership, pairwise_prf, run_cluster_pipeline_cached, truth_partition,
    ClusterConfig, ClusterNode, Clusterer, ConnectedComponents, MatchMerge,
};
use certa_core::{BoxedMatcher, Dataset, RecordId, Side};
use certa_datagen::{generate, DatasetId, Scale};
use certa_explain::{Certa, CertaConfig};
use certa_models::{train_model, CachingMatcher, ModelKind, RuleMatcher, TrainConfig};
use std::time::Instant;

struct Options {
    dataset: DatasetId,
    scale: Scale,
    seed: u64,
    model: String,
    clusterer: String,
    threshold: f64,
    batch: usize,
    workers: usize,
    top: usize,
    explain_side: Option<Side>,
    explain_id: Option<u32>,
    saliency_top: usize,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            dataset: DatasetId::DS,
            scale: Scale::Default,
            seed: 7,
            model: "rule".to_string(),
            clusterer: "components".to_string(),
            threshold: ClusterConfig::default().threshold,
            batch: 4096,
            workers: 1,
            top: 10,
            explain_side: None,
            explain_id: None,
            saliency_top: 2,
        }
    }
}

const USAGE: &str = "usage: certa-cluster [--dataset ID] \
[--scale smoke|default|paper|xl] [--seed N] \
[--model rule|deeper|deepmatcher|ditto] [--clusterer components|matchmerge] \
[--threshold F] [--batch N] [--workers N] [--top N] \
[--explain-side L|R] [--explain-id N] [--saliency-top N]";

fn parse_options(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
    let mut o = Options::default();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut val = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--dataset" => o.dataset = val("--dataset")?.parse()?,
            "--scale" => o.scale = val("--scale")?.parse()?,
            "--seed" => o.seed = val("--seed")?.parse::<u64>().map_err(|e| e.to_string())?,
            "--model" => o.model = val("--model")?,
            "--clusterer" => o.clusterer = val("--clusterer")?,
            "--threshold" => {
                o.threshold = val("--threshold")?
                    .parse::<f64>()
                    .map_err(|e| e.to_string())?
            }
            "--batch" => {
                o.batch = val("--batch")?
                    .parse::<usize>()
                    .map_err(|e| e.to_string())?
            }
            "--workers" => {
                o.workers = val("--workers")?
                    .parse::<usize>()
                    .map_err(|e| e.to_string())?
            }
            "--top" => o.top = val("--top")?.parse::<usize>().map_err(|e| e.to_string())?,
            "--explain-side" => {
                o.explain_side = Some(match val("--explain-side")?.as_str() {
                    "L" | "l" | "left" => Side::Left,
                    "R" | "r" | "right" => Side::Right,
                    other => return Err(format!("unknown side `{other}` (use L or R)")),
                })
            }
            "--explain-id" => {
                o.explain_id = Some(
                    val("--explain-id")?
                        .parse::<u32>()
                        .map_err(|e| e.to_string())?,
                )
            }
            "--saliency-top" => {
                o.saliency_top = val("--saliency-top")?
                    .parse::<usize>()
                    .map_err(|e| e.to_string())?
            }
            other if other.ends_with("help") || other == "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(o)
}

fn build_clusterer(name: &str) -> Result<Box<dyn Clusterer>, String> {
    match name {
        "components" | "cc" => Ok(Box::new(ConnectedComponents)),
        "matchmerge" | "swoosh" => Ok(Box::new(MatchMerge)),
        other => Err(format!("unknown clusterer `{other}`\n{USAGE}")),
    }
}

fn build_matcher(o: &Options, dataset: &Dataset) -> Result<BoxedMatcher, String> {
    if o.model == "rule" {
        return Ok(std::sync::Arc::new(RuleMatcher::uniform(
            dataset.left().schema().arity(),
        )));
    }
    let kind = ModelKind::from_name(&o.model)?;
    let (model, _report) = train_model(kind, dataset, &TrainConfig::for_kind(kind));
    Ok(std::sync::Arc::new(model))
}

fn main() {
    let opts = match parse_options(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let clusterer = match build_clusterer(&opts.clusterer) {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };

    println!("=== certa-cluster ===");
    println!(
        "dataset={} scale={} seed={} model={} clusterer={} threshold={}",
        opts.dataset, opts.scale, opts.seed, opts.model, opts.clusterer, opts.threshold
    );

    let t0 = Instant::now();
    let dataset = generate(opts.dataset, opts.scale, opts.seed);
    println!(
        "generated |U|={} |V|={} in {:.2}s",
        dataset.left().len(),
        dataset.right().len(),
        t0.elapsed().as_secs_f64()
    );

    let blocker = MultiPass::standard();
    let t1 = Instant::now();
    let candidates = blocker.candidates(dataset.left(), dataset.right());
    let block_secs = t1.elapsed().as_secs_f64();

    let matcher = match build_matcher(&opts, &dataset) {
        Ok(m) => m,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let caching = CachingMatcher::new(matcher);
    let t2 = Instant::now();
    let report = run_cluster_pipeline_cached(
        &dataset,
        &caching,
        &candidates,
        blocker.name(),
        clusterer.as_ref(),
        &ClusterConfig {
            threshold: opts.threshold,
            batch_size: opts.batch,
            workers: opts.workers,
        },
    );
    let cluster_secs = t2.elapsed().as_secs_f64();

    let truth = truth_partition(&dataset);
    let pairwise = pairwise_prf(&report.partition, &truth);
    let exact = cluster_f1(&report.partition, &truth);

    println!();
    println!("blocker       {}", report.blocker);
    println!("candidates    {}", report.candidates);
    println!(
        "match edges   {} (threshold {})",
        report.match_edges.len(),
        report.threshold
    );
    println!(
        "entities      {} clusters ({} non-singleton, largest {})",
        report.clusters(),
        report.non_singletons(),
        report.largest()
    );
    println!(
        "pairwise      P={:.4} R={:.4} F1={:.4}",
        pairwise.precision, pairwise.recall, pairwise.f1
    );
    println!("cluster F1    {exact:.4} (exact-match, vs seeded truth)");
    println!("block time    {block_secs:.2}s");
    if let Some(stats) = report.cache {
        println!(
            "cluster time  {cluster_secs:.2}s ({:.0} pairs/s, cache hit rate {:.2})",
            report.candidates as f64 / cluster_secs.max(1e-9),
            stats.hit_rate()
        );
    }

    println!();
    println!("largest clusters:");
    let mut by_size: Vec<usize> = (0..report.partition.len())
        .filter(|&i| report.partition.members(i).len() > 1)
        .collect();
    by_size.sort_by_key(|&i| {
        (
            std::cmp::Reverse(report.partition.members(i).len()),
            report.partition.representative(i),
        )
    });
    for &i in by_size.iter().take(opts.top) {
        let members: Vec<String> = report
            .partition
            .members(i)
            .iter()
            .map(|n| n.to_string())
            .collect();
        println!("  #{i:<6} [{}]", members.join(", "));
    }

    if let (Some(side), Some(id)) = (opts.explain_side, opts.explain_id) {
        let node = ClusterNode {
            side,
            id: RecordId(id),
        };
        let certa = Certa::new(CertaConfig::default());
        match explain_membership(
            &dataset,
            &caching,
            Some((&certa, opts.saliency_top)),
            &report.scored,
            &report.match_edges,
            &report.partition,
            node,
            opts.threshold,
        ) {
            None => println!("\nno cluster found for {node}"),
            Some(exp) => {
                println!();
                println!(
                    "membership of {node}: cluster #{} with {} members",
                    exp.cluster_index,
                    exp.members.len()
                );
                println!("  incident edges:");
                for e in &exp.incident {
                    println!("    {}  score={:.4}", e.pair, e.score);
                }
                if exp.bridges.is_empty() {
                    println!("  no bridges — no single edge removal splits the cluster");
                } else {
                    println!("  bridges (removal splits the cluster):");
                    for b in &exp.bridges {
                        println!("    {b}");
                    }
                }
                for (pair, expl) in &exp.saliency {
                    println!("  saliency for {pair}:");
                    for (attr, score) in expl.saliency.ranked().into_iter().take(3) {
                        println!("    {:<24} {score:.3}", attr.qualified(&dataset));
                    }
                }
                match &exp.counterfactual {
                    None => println!("  no disconnecting edit found within budget"),
                    Some(edit) => {
                        let attrs: Vec<String> = edit
                            .attrs
                            .iter()
                            .map(|a| dataset.table(node.side).schema().attr_name(*a).to_string())
                            .collect();
                        println!(
                            "  counterfactual: copying [{}] from {} disconnects {node}",
                            attrs.join(", "),
                            edit.donor
                        );
                        for (pair, score) in &edit.scores_after {
                            println!("    {pair}  score drops to {score:.4}");
                        }
                    }
                }
            }
        }
    }
}
