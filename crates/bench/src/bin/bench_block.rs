//! Blocking quality gate + throughput benchmark — the acceptance check for
//! `certa-block`.
//!
//! Runs every blocker (the two classic baselines, LSH and token-containment
//! alone, and the standard multi-pass union) over a generated dataset and
//! reports recall against the generator's ground truth, reduction over the
//! cross product, and wall time. Three hard gates on the standard blocker:
//!
//! 1. **recall** — ≥ [`REQUIRED_RECALL`] of the seeded duplicate pairs must
//!    survive blocking (a pair the blocker drops can never be matched *or*
//!    explained downstream);
//! 2. **reduction** — the candidate list must be ≥ [`REQUIRED_REDUCTION`]×
//!    smaller than `|U| × |V|` at default scale and above (smoke tables are
//!    too small for 100× — [`SMOKE_REDUCTION`] applies there);
//! 3. **determinism** — every blocker's [`RUNS`] runs must produce
//!    byte-identical candidate lists.
//!
//! The surviving candidates then stream through the block → score pipeline
//! behind a fresh [`CachingMatcher`] per run to report end-to-end
//! throughput. Times are medians of [`RUNS`] runs, so one slow run on a
//! shared machine does not move them. Writes `BENCH_block.json`; any gate
//! failure exits non-zero.

use certa_bench::{banner, percentile, write_bench_json, CliOptions};
use certa_block::{
    cross_product, reduction_ratio, run_pipeline_on, Blocker, LshBlocker, LshConfig, MultiPass,
    PipelineConfig, SortedNeighborhood, TokenOverlap, TokenPrefix, TruthRecall,
};
use certa_core::BoxedMatcher;
use certa_datagen::{generate, DatasetId, Scale};
use certa_models::{CachingMatcher, RuleMatcher};
use certa_serve::Json;
use std::sync::Arc;
use std::time::Instant;

/// The standard blocker must recall at least this share of seeded duplicates.
const REQUIRED_RECALL: f64 = 0.95;
/// Required candidate-list shrinkage at default scale and above.
const REQUIRED_REDUCTION: f64 = 100.0;
/// Smoke tables (tens of records) cannot shrink 100×; require this instead.
const SMOKE_REDUCTION: f64 = 20.0;
/// Runs of each blocker and of the scoring pipeline; times are their
/// medians.
const RUNS: usize = 5;

fn main() {
    let opts = CliOptions::from_env();
    banner("block — candidate generation quality gate", &opts);

    let t0 = Instant::now();
    let dataset = generate(DatasetId::DS, opts.scale, opts.seed);
    let cross = cross_product(dataset.left(), dataset.right());
    // The recall of no candidates counts the labeled matches.
    let truth = TruthRecall::of(&dataset, &[]).truth;
    println!(
        "dataset=DS |U|={} |V|={} cross={cross} truth={truth} generated in {:.2}s",
        dataset.left().len(),
        dataset.right().len(),
        t0.elapsed().as_secs_f64()
    );
    println!();

    // Every blocker, side by side; the standard multi-pass union is gated.
    let blockers: Vec<Box<dyn Blocker>> = vec![
        Box::new(SortedNeighborhood::default()),
        Box::new(TokenPrefix::default()),
        Box::new(LshBlocker::new(LshConfig::default()).expect("default LSH config is valid")),
        Box::new(TokenOverlap::default()),
        Box::new(MultiPass::standard()),
    ];
    let gated_index = blockers.len() - 1;

    let required_reduction = if opts.scale == Scale::Smoke {
        SMOKE_REDUCTION
    } else {
        REQUIRED_REDUCTION
    };

    let mut rows = Vec::new();
    let mut gated = None;
    let mut determinism_pass = true;
    for (i, blocker) in blockers.iter().enumerate() {
        let mut seconds = Vec::with_capacity(RUNS);
        let mut lists = Vec::with_capacity(RUNS);
        for _ in 0..RUNS {
            let t = Instant::now();
            lists.push(blocker.candidates(dataset.left(), dataset.right()));
            seconds.push(t.elapsed().as_secs_f64());
        }
        // Gate 3: every run reproduces the candidate list exactly.
        determinism_pass &= lists.windows(2).all(|w| w[0] == w[1]);
        let candidates = lists.swap_remove(0);
        let block_s = percentile(&seconds, 0.5);
        let r = TruthRecall::of(&dataset, &candidates).ratio();
        let reduction = reduction_ratio(cross, candidates.len());
        println!(
            "{:>12}: {:>9} candidates | reduction {reduction:9.1}x | recall {r:.4} | {block_s:7.3}s{}",
            if i == gated_index { "standard" } else { "baseline" },
            candidates.len(),
            if i == gated_index { "  ← gated" } else { "" },
        );
        println!("              {}", blocker.name());
        rows.push((
            blocker.name(),
            Json::obj([
                ("candidates", Json::num(candidates.len() as f64)),
                ("reduction", Json::Num(reduction)),
                ("recall", Json::Num(r)),
                ("block_seconds", Json::Num(block_s)),
                ("gated", Json::Bool(i == gated_index)),
            ]),
        ));
        if i == gated_index {
            gated = Some((candidates, r, reduction));
        }
    }
    let (candidates, gate_recall, gate_reduction) = gated.expect("gated blocker ran");

    // Throughput: the surviving candidates through the score pipeline on
    // the sharded caching path, cold each run.
    let rule: BoxedMatcher = Arc::new(RuleMatcher::uniform(dataset.left().schema().arity()));
    let mut rates = Vec::with_capacity(RUNS);
    let mut report = None;
    for _ in 0..RUNS {
        let matcher = CachingMatcher::new(Arc::clone(&rule));
        let to_score = candidates.clone();
        let t = Instant::now();
        let run = run_pipeline_on(
            to_score,
            blockers[gated_index].name(),
            &dataset,
            &matcher,
            None,
            &PipelineConfig::default(),
        );
        rates.push(run.scored as f64 / t.elapsed().as_secs_f64().max(1e-9));
        report = Some(run);
    }
    let report = report.expect("the pipeline ran");
    let pairs_per_s = percentile(&rates, 0.5);

    let recall_pass = gate_recall >= REQUIRED_RECALL;
    let reduction_pass = gate_reduction >= required_reduction;
    println!();
    println!(
        "recall     : {gate_recall:.4} — {} (≥{REQUIRED_RECALL} required)",
        if recall_pass { "PASS" } else { "FAIL" }
    );
    println!(
        "reduction  : {gate_reduction:.1}x — {} (≥{required_reduction:.0}x required at {})",
        if reduction_pass { "PASS" } else { "FAIL" },
        opts.scale
    );
    println!(
        "determinism: {} ({RUNS} runs of every blocker, byte-identical candidates)",
        if determinism_pass { "PASS" } else { "FAIL" }
    );
    println!(
        "throughput : {} candidates scored at a median {pairs_per_s:.0} pairs/s over {RUNS} runs ({} predicted matches)",
        report.scored, report.predicted_matches
    );

    let report_json = Json::obj([
        ("bench", Json::str("block")),
        ("dataset", Json::str("DS")),
        ("scale", Json::str(opts.scale.to_string())),
        ("seed", Json::num(opts.seed as f64)),
        ("cross_product", Json::num(cross as f64)),
        ("truth_pairs", Json::num(truth as f64)),
        ("required_recall", Json::Num(REQUIRED_RECALL)),
        ("required_reduction", Json::Num(required_reduction)),
        ("recall", Json::Num(gate_recall)),
        ("reduction", Json::Num(gate_reduction)),
        ("recall_pass", Json::Bool(recall_pass)),
        ("reduction_pass", Json::Bool(reduction_pass)),
        ("determinism_pass", Json::Bool(determinism_pass)),
        ("scored_pairs_per_second", Json::Num(pairs_per_s)),
        (
            "predicted_matches",
            Json::num(report.predicted_matches as f64),
        ),
        ("blockers", Json::Obj(rows)),
    ]);
    match write_bench_json("BENCH_block.json", &report_json) {
        Ok(()) => println!("wrote BENCH_block.json"),
        Err(e) => {
            eprintln!("FAIL: could not write BENCH_block.json: {e}");
            std::process::exit(1);
        }
    }

    if !(recall_pass && reduction_pass && determinism_pass) {
        eprintln!("FAIL: blocking gate violated (recall={recall_pass}, reduction={reduction_pass}, determinism={determinism_pass})");
        std::process::exit(1);
    }
}
