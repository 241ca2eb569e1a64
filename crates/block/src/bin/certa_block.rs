//! `certa-block` — run the block → score → explain pipeline on a datagen
//! dataset and print what happened.
//!
//! ```text
//! certa-block --dataset DS --scale default --blocker lsh --model rule --top 10 --explain 2
//! ```
//!
//! The binary generates the two tables at the requested scale, runs the
//! selected blocker, streams the candidates through a
//! [`certa_models::CachingMatcher`]-wrapped model, and reports recall
//! against the generator's ground truth, the reduction ratio, throughput,
//! and (optionally) CERTA explanations for the top pairs.

use certa_block::{
    run_pipeline_cached, Blocker, LshBlocker, LshConfig, MultiPass, PipelineConfig, Shingle,
    SortedNeighborhood, TokenOverlap, TokenPrefix,
};
use certa_core::hash::FxHashSet;
use certa_core::{BoxedMatcher, Dataset, RecordPair, Split};
use certa_datagen::{generate, DatasetId, Scale};
use certa_explain::{Certa, CertaConfig};
use certa_models::{train_model, CachingMatcher, ModelKind, RuleMatcher, TrainConfig};
use std::time::Instant;

struct Options {
    dataset: DatasetId,
    scale: Scale,
    seed: u64,
    blocker: String,
    num_hashes: usize,
    num_bands: usize,
    threshold: f64,
    qgram: usize,
    window: usize,
    prefix_len: usize,
    max_df: usize,
    min_overlap: usize,
    containment: f64,
    model: String,
    top: usize,
    explain: usize,
    workers: usize,
    batch: usize,
}

impl Default for Options {
    fn default() -> Self {
        let lsh = LshConfig::default();
        Options {
            dataset: DatasetId::DS,
            scale: Scale::Default,
            seed: 7,
            blocker: "lsh".to_string(),
            num_hashes: lsh.num_hashes,
            num_bands: lsh.num_bands,
            threshold: lsh.target_threshold,
            qgram: 3,
            window: SortedNeighborhood::default().window,
            prefix_len: TokenPrefix::default().prefix_len,
            max_df: TokenPrefix::default().max_df,
            min_overlap: TokenOverlap::default().min_overlap,
            containment: TokenOverlap::default().min_containment,
            model: "rule".to_string(),
            top: 10,
            explain: 0,
            workers: 0,
            batch: 4096,
        }
    }
}

const USAGE: &str =
    "usage: certa-block [--dataset ID] [--scale smoke|default|paper|xl] [--seed N] \
[--blocker multi|lsh|token-overlap|sorted-neighborhood|token-prefix] \
[--num-hashes N] [--num-bands N] [--threshold F] [--qgram N] \
[--window N] [--prefix-len N] [--max-df N] [--min-overlap N] [--containment F] \
[--model rule|deeper|deepmatcher|ditto] [--top N] [--explain N] [--workers N] [--batch N]";

fn parse_options(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
    let mut o = Options::default();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut val = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--dataset" => o.dataset = val("--dataset")?.parse()?,
            "--scale" => o.scale = val("--scale")?.parse()?,
            "--seed" => o.seed = val("--seed")?.parse::<u64>().map_err(|e| e.to_string())?,
            "--blocker" => o.blocker = val("--blocker")?,
            "--num-hashes" => {
                o.num_hashes = val("--num-hashes")?
                    .parse::<usize>()
                    .map_err(|e| e.to_string())?
            }
            "--num-bands" => {
                o.num_bands = val("--num-bands")?
                    .parse::<usize>()
                    .map_err(|e| e.to_string())?
            }
            "--threshold" => {
                o.threshold = val("--threshold")?
                    .parse::<f64>()
                    .map_err(|e| e.to_string())?
            }
            "--qgram" => {
                o.qgram = val("--qgram")?
                    .parse::<usize>()
                    .map_err(|e| e.to_string())?
            }
            "--window" => {
                o.window = val("--window")?
                    .parse::<usize>()
                    .map_err(|e| e.to_string())?
            }
            "--prefix-len" => {
                o.prefix_len = val("--prefix-len")?
                    .parse::<usize>()
                    .map_err(|e| e.to_string())?
            }
            "--max-df" => {
                o.max_df = val("--max-df")?
                    .parse::<usize>()
                    .map_err(|e| e.to_string())?
            }
            "--min-overlap" => {
                o.min_overlap = val("--min-overlap")?
                    .parse::<usize>()
                    .map_err(|e| e.to_string())?
            }
            "--containment" => {
                o.containment = val("--containment")?
                    .parse::<f64>()
                    .map_err(|e| e.to_string())?
            }
            "--model" => o.model = val("--model")?,
            "--top" => o.top = val("--top")?.parse::<usize>().map_err(|e| e.to_string())?,
            "--explain" => {
                o.explain = val("--explain")?
                    .parse::<usize>()
                    .map_err(|e| e.to_string())?
            }
            "--workers" => {
                o.workers = val("--workers")?
                    .parse::<usize>()
                    .map_err(|e| e.to_string())?
            }
            "--batch" => {
                o.batch = val("--batch")?
                    .parse::<usize>()
                    .map_err(|e| e.to_string())?
            }
            other if other.ends_with("help") || other == "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(o)
}

fn build_blocker(o: &Options) -> Result<Box<dyn Blocker>, String> {
    match o.blocker.as_str() {
        "lsh" => Ok(Box::new(LshBlocker::new(LshConfig {
            num_hashes: o.num_hashes,
            num_bands: o.num_bands,
            target_threshold: o.threshold,
            shingle: Shingle::TokensAndCharGrams(o.qgram),
            workers: o.workers,
            ..LshConfig::default()
        })?)),
        "sorted-neighborhood" | "sn" => Ok(Box::new(SortedNeighborhood { window: o.window })),
        "token-prefix" | "prefix" => Ok(Box::new(TokenPrefix {
            prefix_len: o.prefix_len,
            max_df: o.max_df,
        })),
        "token-overlap" | "overlap" => Ok(Box::new(TokenOverlap {
            min_overlap: o.min_overlap,
            min_containment: o.containment,
        })),
        "multi" => Ok(Box::new(MultiPass::standard())),
        other => Err(format!("unknown blocker `{other}`\n{USAGE}")),
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

/// Ground-truth matched pairs: the positive-labeled pairs of both splits.
fn truth_pairs(dataset: &Dataset) -> FxHashSet<RecordPair> {
    let mut truth = FxHashSet::default();
    for split in [Split::Train, Split::Test] {
        for lp in dataset.split(split) {
            if lp.label.is_match() {
                truth.insert(lp.pair);
            }
        }
    }
    truth
}

fn main() {
    let opts = match parse_options(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };

    println!("=== certa-block ===");
    println!(
        "dataset={} scale={} seed={} blocker={} model={}",
        opts.dataset, opts.scale, opts.seed, opts.blocker, opts.model
    );

    let t0 = Instant::now();
    let dataset = generate(opts.dataset, opts.scale, opts.seed);
    println!(
        "generated |U|={} |V|={} in {:.2}s",
        dataset.left().len(),
        dataset.right().len(),
        t0.elapsed().as_secs_f64()
    );

    let blocker = match build_blocker(&opts) {
        Ok(b) => b,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let t1 = Instant::now();
    let candidates = blocker.candidates(dataset.left(), dataset.right());
    let block_secs = t1.elapsed().as_secs_f64();

    let truth = truth_pairs(&dataset);
    let recalled = truth
        .iter()
        .filter(|p| {
            candidates
                .binary_search_by_key(&(p.left.0, p.right.0), |c| (c.left.0, c.right.0))
                .is_ok()
        })
        .count();
    let recall = if truth.is_empty() {
        1.0
    } else {
        recalled as f64 / truth.len() as f64
    };

    let matcher = match build_matcher(&opts, &dataset) {
        Ok(m) => m,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let caching = CachingMatcher::new(matcher);
    let certa = (opts.explain > 0).then(|| Certa::new(CertaConfig::default()));
    let t2 = Instant::now();
    let report = run_pipeline_cached(
        candidates,
        blocker.name(),
        &dataset,
        &caching,
        certa.as_ref(),
        &PipelineConfig {
            batch_size: opts.batch,
            top_k: opts.top,
            explain_top: opts.explain,
        },
    );
    let score_secs = t2.elapsed().as_secs_f64();

    println!();
    println!("blocker       {}", report.blocker);
    println!("cross product {}", report.cross_product);
    println!("candidates    {}", report.candidates);
    println!("reduction     {:.1}x", report.reduction);
    println!(
        "recall        {recall:.4} ({recalled}/{} ground-truth pairs)",
        truth.len()
    );
    println!("block time    {block_secs:.2}s");
    println!(
        "score time    {score_secs:.2}s ({:.0} pairs/s, cache hit rate {:.2})",
        report.scored as f64 / score_secs.max(1e-9),
        report.cache.map_or(0.0, |s| s.hit_rate())
    );
    println!("predicted     {} matches", report.predicted_matches);
    println!();
    println!("top pairs:");
    for sp in &report.top {
        println!("  {}  score={:.4}", sp.pair, sp.score);
    }
    for (pair, expl) in &report.explanations {
        println!();
        println!(
            "explanation for {pair} (prediction {} score {:.3}):",
            expl.prediction.label, expl.prediction.score
        );
        for (attr, score) in expl.saliency.ranked() {
            println!("  {:<24} {score:.3}", attr.qualified(&dataset));
        }
        let cf = &expl.counterfactual;
        if cf.found() {
            let golden: Vec<String> = cf
                .golden_set
                .iter()
                .map(|a| a.qualified(&dataset))
                .collect();
            println!(
                "  counterfactual: changing [{}] flips with probability {:.2}",
                golden.join(", "),
                cf.sufficiency
            );
        }
    }
}
