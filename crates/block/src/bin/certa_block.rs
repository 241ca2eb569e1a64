//! `certa-block` — run the block → score → explain pipeline on a datagen
//! dataset and print what happened.
//!
//! ```text
//! certa-block --dataset DS --scale default --blocker lsh --model rule --top 10 --explain 2
//! ```
//!
//! The binary generates the two tables at the requested scale, runs the
//! selected blocker (`--blocker` and its tunables fill a
//! [`certa_block::BlockerSpec`]), streams the candidates through a
//! [`certa_models::CachingMatcher`]-wrapped model (`--model` resolves
//! through [`certa_models::matcher_by_name`]), and reports recall against
//! the generator's ground truth, the reduction ratio, throughput, and
//! (optionally) CERTA explanations for the top pairs.

use certa_block::{run_pipeline_on, BlockerSpec, PipelineConfig, Shingle, TruthRecall};
use certa_datagen::{generate, DatasetId, Scale};
use certa_explain::{Certa, CertaConfig};
use certa_models::{matcher_by_name, CachingMatcher};
use std::time::Instant;

struct Options {
    dataset: DatasetId,
    scale: Scale,
    seed: u64,
    /// The blocker's name and tunables; `--qgram` sets the LSH shingle and
    /// `--workers` the LSH signing threads.
    blocker: BlockerSpec,
    model: String,
    top: usize,
    explain: usize,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            dataset: DatasetId::DS,
            scale: Scale::Default,
            seed: 7,
            blocker: BlockerSpec::named("lsh"),
            model: "rule".to_string(),
            top: 10,
            explain: 0,
        }
    }
}

const USAGE: &str =
    "usage: certa-block [--dataset ID] [--scale smoke|default|paper|xl] [--seed N] \
[--blocker multi|lsh|token-overlap|sorted-neighborhood|token-prefix] \
[--num-hashes N] [--num-bands N] [--threshold F] [--qgram N] \
[--window N] [--prefix-len N] [--max-df N] [--min-overlap N] [--containment F] \
[--model rule|deeper|deepmatcher|ditto] [--top N] [--explain N] [--workers N]";

fn parse_options(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
    let mut o = Options::default();
    let b = &mut o.blocker;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut val = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--dataset" => o.dataset = val("--dataset")?.parse()?,
            "--scale" => o.scale = val("--scale")?.parse()?,
            "--seed" => o.seed = val("--seed")?.parse::<u64>().map_err(|e| e.to_string())?,
            "--blocker" => b.name = val("--blocker")?,
            "--num-hashes" => {
                b.lsh.num_hashes = val("--num-hashes")?
                    .parse::<usize>()
                    .map_err(|e| e.to_string())?
            }
            "--num-bands" => {
                b.lsh.num_bands = val("--num-bands")?
                    .parse::<usize>()
                    .map_err(|e| e.to_string())?
            }
            "--threshold" => {
                b.lsh.target_threshold = val("--threshold")?
                    .parse::<f64>()
                    .map_err(|e| e.to_string())?
            }
            "--qgram" => {
                b.lsh.shingle = Shingle::TokensAndCharGrams(
                    val("--qgram")?
                        .parse::<usize>()
                        .map_err(|e| e.to_string())?,
                )
            }
            "--window" => {
                b.neighborhood.window = val("--window")?
                    .parse::<usize>()
                    .map_err(|e| e.to_string())?
            }
            "--prefix-len" => {
                b.prefix.prefix_len = val("--prefix-len")?
                    .parse::<usize>()
                    .map_err(|e| e.to_string())?
            }
            "--max-df" => {
                b.prefix.max_df = val("--max-df")?
                    .parse::<usize>()
                    .map_err(|e| e.to_string())?
            }
            "--min-overlap" => {
                b.overlap.min_overlap = val("--min-overlap")?
                    .parse::<usize>()
                    .map_err(|e| e.to_string())?
            }
            "--containment" => {
                b.overlap.min_containment = val("--containment")?
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
                b.lsh.workers = val("--workers")?
                    .parse::<usize>()
                    .map_err(|e| e.to_string())?
            }
            other if other.ends_with("help") || other == "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(o)
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
        opts.dataset, opts.scale, opts.seed, opts.blocker.name, opts.model
    );

    let t0 = Instant::now();
    let dataset = generate(opts.dataset, opts.scale, opts.seed);
    println!(
        "generated |U|={} |V|={} in {:.2}s",
        dataset.left().len(),
        dataset.right().len(),
        t0.elapsed().as_secs_f64()
    );

    let blocker = match opts.blocker.build() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let t1 = Instant::now();
    let candidates = blocker.candidates(dataset.left(), dataset.right());
    let block_secs = t1.elapsed().as_secs_f64();

    let recall = TruthRecall::of(&dataset, &candidates);

    let matcher = match matcher_by_name(&opts.model, &dataset) {
        Ok(m) => m,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let caching = CachingMatcher::new(matcher);
    let certa = (opts.explain > 0).then(|| Certa::new(CertaConfig::default()));
    let t2 = Instant::now();
    let (report, cache) = caching.stats_over(|| {
        run_pipeline_on(
            candidates,
            blocker.name(),
            &dataset,
            &caching,
            certa.as_ref(),
            &PipelineConfig {
                top_k: opts.top,
                explain_top: opts.explain,
            },
        )
    });
    let score_secs = t2.elapsed().as_secs_f64();

    println!();
    println!("blocker       {}", report.blocker);
    println!("cross product {}", report.cross_product);
    println!("candidates    {}", report.candidates);
    println!("reduction     {:.1}x", report.reduction);
    println!(
        "recall        {:.4} ({}/{} ground-truth pairs)",
        recall.ratio(),
        recall.kept,
        recall.truth
    );
    println!("block time    {block_secs:.2}s");
    println!(
        "score time    {score_secs:.2}s ({:.0} pairs/s, cache hit rate {:.2})",
        report.scored as f64 / score_secs.max(1e-9),
        cache.hit_rate()
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
