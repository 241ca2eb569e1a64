//! Sequential vs batch explanation throughput — the acceptance check for
//! the parallel batch engine.
//!
//! Explains the same sampled test pairs twice over cold caches: once as a
//! sequential loop of `Certa::explain` calls (one worker), once through
//! `Certa::explain_batch` (one worker per core). Verifies the two outputs
//! are **byte-identical** (the engine's determinism guarantee — any mismatch
//! exits non-zero, so a CI smoke run of this binary gates regressions in
//! the parallel path) and reports the throughput ratio. On a ≥4-core runner
//! the batch path is expected to clear 2×; on fewer cores the ratio is
//! reported as informational.

use certa_bench::{banner, percentile, write_bench_json, CliOptions};
use certa_core::{BoxedMatcher, Split};
use certa_datagen::{generate, DatasetId};
use certa_explain::{Certa, CertaExplanation};
use certa_models::{train_zoo, trainer::sample_pairs, CachingMatcher, ModelKind};
use certa_serve::Json;
use std::time::Instant;

fn main() {
    let opts = CliOptions::from_env();
    banner("seq vs batch — parallel batch explanation engine", &opts);
    let cfg = opts.grid();
    let cores = certa_core::worker_count(0);

    let dataset = generate(DatasetId::FZ, cfg.scale, cfg.seed);
    let zoo = train_zoo(&dataset);
    let matcher = zoo.matcher(ModelKind::DeepMatcher);
    let n_pairs = cfg.n_explained.max(8);
    let pairs = sample_pairs(&dataset, Split::Test, n_pairs, cfg.seed ^ 0xBA7C);
    let refs: Vec<_> = pairs
        .iter()
        .map(|lp| dataset.expect_pair(lp.pair))
        .collect();
    let certa_cfg = cfg.certa_config();
    println!(
        "dataset=FZ model=DeepMatcher pairs={} tau={} cores={cores}",
        refs.len(),
        certa_cfg.num_triangles
    );

    // Sequential reference: one worker, cold sharded cache. Each explain
    // call is timed individually — that per-explanation latency is what a
    // serving layer would observe for a single-pair request.
    let seq_matcher: BoxedMatcher = CachingMatcher::new(matcher.clone());
    let seq = Certa::new(certa_cfg.with_workers(1));
    let mut latencies_ms: Vec<f64> = Vec::with_capacity(refs.len());
    let t0 = Instant::now();
    let seq_out: Vec<CertaExplanation> = refs
        .iter()
        .map(|&(u, v)| {
            let t = Instant::now();
            let out = seq.explain(&seq_matcher, &dataset, u, v);
            latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
            out
        })
        .collect();
    let seq_time = t0.elapsed();

    // Batch engine: one worker per core, its own cold sharded cache.
    let batch_matcher: BoxedMatcher = CachingMatcher::new(matcher);
    let batch = Certa::new(certa_cfg);
    let t0 = Instant::now();
    let batch_out = batch.explain_batch(&batch_matcher, &dataset, &refs);
    let batch_time = t0.elapsed();

    if seq_out != batch_out {
        eprintln!("FAIL: explain_batch output differs from the sequential loop");
        std::process::exit(1);
    }
    println!(
        "outputs: byte-identical across {} explanations ✔",
        seq_out.len()
    );

    let seq_s = seq_time.as_secs_f64();
    let batch_s = batch_time.as_secs_f64();
    let speedup = seq_s / batch_s.max(1e-9);
    let (p50, p95) = (
        percentile(&latencies_ms, 0.5),
        percentile(&latencies_ms, 0.95),
    );
    println!(
        "sequential: {seq_s:.3}s ({:.2} pairs/s)",
        refs.len() as f64 / seq_s.max(1e-9)
    );
    println!("latency   : p50 {p50:.2}ms p95 {p95:.2}ms per explanation");
    println!(
        "batch     : {batch_s:.3}s ({:.2} pairs/s)",
        refs.len() as f64 / batch_s.max(1e-9)
    );
    if cores >= 4 && speedup >= 2.0 {
        println!("speedup   : {speedup:.2}x on {cores} cores — PASS (≥2x target)");
    } else {
        println!("speedup   : {speedup:.2}x on {cores} cores (2x target applies to ≥4 cores)");
    }

    // Machine-readable artifact for the perf trajectory.
    let report = Json::obj([
        ("bench", Json::str("seq_vs_batch")),
        ("dataset", Json::str("FZ")),
        ("model", Json::str("DeepMatcher")),
        ("scale", Json::str(cfg.scale.to_string())),
        ("seed", Json::num(cfg.seed as f64)),
        ("tau", Json::num(certa_cfg.num_triangles as f64)),
        ("pairs", Json::num(refs.len() as f64)),
        ("cores", Json::num(cores as f64)),
        ("seq_seconds", Json::Num(seq_s)),
        ("batch_seconds", Json::Num(batch_s)),
        (
            "seq_pairs_per_sec",
            Json::Num(refs.len() as f64 / seq_s.max(1e-9)),
        ),
        (
            "batch_pairs_per_sec",
            Json::Num(refs.len() as f64 / batch_s.max(1e-9)),
        ),
        ("speedup", Json::Num(speedup)),
        ("latency_ms_p50", Json::Num(p50)),
        ("latency_ms_p95", Json::Num(p95)),
    ]);
    match write_bench_json("BENCH_batch.json", &report) {
        Ok(()) => println!("wrote BENCH_batch.json"),
        Err(e) => {
            eprintln!("FAIL: could not write BENCH_batch.json: {e}");
            std::process::exit(1);
        }
    }
}
