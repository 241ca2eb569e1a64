//! Featurizer-memo throughput over a triangle-shaped perturbation workload —
//! the acceptance check for the per-attribute featurization memo.
//!
//! Builds the exact record population CERTA's lattice exploration feeds the
//! matchers: for sampled test pairs `(u, v)` and a handful of support records
//! `w`, every masked perturbation `ψ(u, w, A)` paired against the fixed `v`.
//! Each family's featurizer then runs the whole workload twice — memo **off**
//! (fresh computation per call) and memo **on** (per-value artifacts cached
//! by `ValueId`) — and the two feature matrices are compared **bit for bit**:
//! any divergence exits non-zero, so the CI smoke run of this binary gates
//! the memo's determinism contract on every push.
//!
//! Reports per-family throughput (pairs featurized per second), per-call
//! p50/p95 latency, and the memo speedup, and writes `BENCH_features.json`.
//! The DeepMatcher workload is the headline number: its per-attribute
//! similarity columns are the most expensive artifacts the memo caches.

use certa_bench::{banner, percentile, write_bench_json, CliOptions};
use certa_core::{Record, Split};
use certa_datagen::{generate, DatasetId};
use certa_models::{trainer::sample_pairs, FeatureMemo, Featurizer, FeaturizerKind, ModelKind};
use certa_serve::Json;
use std::time::Instant;

/// Supports drawn per explained pair (two sides of a typical triangle fan).
const SUPPORTS_PER_PAIR: usize = 2;
/// Attribute-mask width cap: 2^6 perturbed copies per (pair, support).
const MAX_MASK_BITS: usize = 6;

fn family_name(kind: FeaturizerKind) -> &'static str {
    match kind {
        FeaturizerKind::DeepEr => ModelKind::DeepEr.paper_name(),
        FeaturizerKind::DeepMatcher => ModelKind::DeepMatcher.paper_name(),
        FeaturizerKind::Ditto => ModelKind::Ditto.paper_name(),
    }
}

/// One timed sweep over the workload. Returns the feature matrix and the
/// per-call latencies in milliseconds.
fn sweep(
    featurizer: &Featurizer,
    workload: &[(Record, &Record)],
    memo: Option<&FeatureMemo>,
) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut features = Vec::with_capacity(workload.len());
    let mut latencies_ms = Vec::with_capacity(workload.len());
    for (perturbed, v) in workload {
        let t = Instant::now();
        features.push(featurizer.features_with(perturbed, v, memo));
        latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    (features, latencies_ms)
}

fn main() {
    let opts = CliOptions::from_env();
    banner("featurize — per-attribute featurization memo", &opts);
    let cfg = opts.grid();

    let dataset = generate(DatasetId::FZ, cfg.scale, cfg.seed);
    let arity = dataset.left().schema().arity();
    let mask_bits = arity.min(MAX_MASK_BITS);
    let pairs = sample_pairs(
        &dataset,
        Split::Test,
        cfg.n_explained.max(4),
        cfg.seed ^ 0xFEA7,
    );

    // The triangle-shaped workload: every masked perturbation of each free
    // record against its fixed pivot. Built once and shared by all families
    // and both memo modes, so every sweep featurizes identical bytes.
    let left_records = dataset.left().records();
    let mut workload: Vec<(Record, &Record)> = Vec::new();
    for (i, lp) in pairs.iter().enumerate() {
        let (u, v) = dataset.expect_pair(lp.pair);
        for s in 0..SUPPORTS_PER_PAIR {
            let w = &left_records[(i * SUPPORTS_PER_PAIR + s + 1) % left_records.len()];
            for mask in 0u32..(1u32 << mask_bits) {
                workload.push((u.with_values_merged(w, |a| mask & (1 << a) != 0), v));
            }
        }
    }
    println!(
        "dataset=FZ pairs={} supports/pair={SUPPORTS_PER_PAIR} masks=2^{mask_bits} → {} featurizations per sweep",
        pairs.len(),
        workload.len()
    );

    let mut families = Vec::new();
    let mut deepmatcher_speedup = 0.0;
    for kind in [
        FeaturizerKind::DeepEr,
        FeaturizerKind::DeepMatcher,
        FeaturizerKind::Ditto,
    ] {
        let featurizer = Featurizer::fit(kind, &dataset);
        let name = family_name(kind);

        let t0 = Instant::now();
        let (off_features, off_lat) = sweep(&featurizer, &workload, None);
        let off_s = t0.elapsed().as_secs_f64();

        let memo = FeatureMemo::new();
        let t0 = Instant::now();
        let (on_features, on_lat) = sweep(&featurizer, &workload, Some(&memo));
        let on_s = t0.elapsed().as_secs_f64();

        // The determinism gate: memoized features must be bit-identical.
        for (i, (off, on)) in off_features.iter().zip(on_features.iter()).enumerate() {
            let same = off.len() == on.len()
                && off
                    .iter()
                    .zip(on.iter())
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            if !same {
                eprintln!("FAIL: {name} feature vector {i} diverged between memo on/off");
                std::process::exit(1);
            }
        }

        let stats = memo.stats();
        let n = workload.len() as f64;
        let speedup = off_s / on_s.max(1e-9);
        if kind == FeaturizerKind::DeepMatcher {
            deepmatcher_speedup = speedup;
        }
        println!(
            "{name:>11}: memo-off {:8.0} pairs/s (p50 {:.4}ms p95 {:.4}ms) | memo-on {:8.0} pairs/s (p50 {:.4}ms p95 {:.4}ms) | {speedup:.2}x, hit-rate {:.1}%",
            n / off_s.max(1e-9),
            percentile(&off_lat, 0.5),
            percentile(&off_lat, 0.95),
            n / on_s.max(1e-9),
            percentile(&on_lat, 0.5),
            percentile(&on_lat, 0.95),
            100.0 * stats.hit_rate(),
        );

        families.push((
            name,
            Json::obj([
                ("memo_off_seconds", Json::Num(off_s)),
                ("memo_on_seconds", Json::Num(on_s)),
                ("memo_off_pairs_per_sec", Json::Num(n / off_s.max(1e-9))),
                ("memo_on_pairs_per_sec", Json::Num(n / on_s.max(1e-9))),
                (
                    "memo_off_latency_ms_p50",
                    Json::Num(percentile(&off_lat, 0.5)),
                ),
                (
                    "memo_off_latency_ms_p95",
                    Json::Num(percentile(&off_lat, 0.95)),
                ),
                (
                    "memo_on_latency_ms_p50",
                    Json::Num(percentile(&on_lat, 0.5)),
                ),
                (
                    "memo_on_latency_ms_p95",
                    Json::Num(percentile(&on_lat, 0.95)),
                ),
                ("speedup", Json::Num(speedup)),
                ("memo_hits", Json::num(stats.hits as f64)),
                ("memo_misses", Json::num(stats.misses as f64)),
                ("memo_hit_rate", Json::Num(stats.hit_rate())),
            ]),
        ));
    }
    println!(
        "outputs: byte-identical across {} featurizations × 3 families ✔",
        workload.len()
    );
    println!("speedup   : DeepMatcher {deepmatcher_speedup:.2}x memo-on vs memo-off");

    let report = Json::obj([
        ("bench", Json::str("featurize")),
        ("dataset", Json::str("FZ")),
        ("scale", Json::str(cfg.scale.to_string())),
        ("seed", Json::num(cfg.seed as f64)),
        ("pairs", Json::num(pairs.len() as f64)),
        ("supports_per_pair", Json::num(SUPPORTS_PER_PAIR as f64)),
        ("mask_bits", Json::num(mask_bits as f64)),
        ("featurizations", Json::num(workload.len() as f64)),
        ("deepmatcher_speedup", Json::Num(deepmatcher_speedup)),
        ("families", Json::obj(families)),
    ]);
    match write_bench_json("BENCH_features.json", &report) {
        Ok(()) => println!("wrote BENCH_features.json"),
        Err(e) => {
            eprintln!("FAIL: could not write BENCH_features.json: {e}");
            std::process::exit(1);
        }
    }
}
