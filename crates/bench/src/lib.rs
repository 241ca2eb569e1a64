//! # certa-bench
//!
//! The experiment harness. Every paper artifact (the introduction's
//! Figures 1–5 and each table and figure of §5) renders from one function
//! in [`artifacts`], and has a binary under `src/bin/` that prints it; the
//! README's "Quick start" lists which binary prints which artifact. All
//! binaries accept:
//!
//! ```text
//! --scale {smoke|default|paper}   dataset sizes + explained-pair counts
//! --seed N                        master RNG seed
//! --tau N                         CERTA triangle budget (default 100)
//! --pairs N                       explained test pairs per (dataset, model)
//! --workers N                     threads for the grid's cell pool and
//!                                 CERTA's pair pool (0 = one per core)
//! ```
//!
//! `cargo run --release -p certa-bench --bin repro_all` renders every
//! artifact in one process, sharing generated datasets, trained models and
//! the two method grids across them: Tables 2–3 read one saliency grid and
//! Tables 4–6 and Figure 10 one counterfactual grid, each cell of which
//! explains its pairs once. The `bench_*` binaries are the performance and
//! correctness gates.

pub mod artifacts;

use certa_datagen::Scale;
use certa_eval::grid::GridConfig;

/// Command-line options shared by all experiment binaries.
#[derive(Debug, Clone)]
pub struct CliOptions {
    /// Dataset / workload scale.
    pub scale: Scale,
    /// Master seed.
    pub seed: u64,
    /// CERTA triangle budget override.
    pub tau: Option<usize>,
    /// Explained-pairs override.
    pub pairs: Option<usize>,
    /// Threads for the grid's cell pool and CERTA's pair pool (`None` =
    /// the grid default of one per core).
    pub workers: Option<usize>,
}

impl Default for CliOptions {
    fn default() -> Self {
        CliOptions {
            scale: Scale::Smoke,
            seed: 7,
            tau: None,
            pairs: None,
            workers: None,
        }
    }
}

impl CliOptions {
    /// Parse from an argument iterator (skips the binary name itself when
    /// given `std::env::args()`).
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<CliOptions, String> {
        let mut opts = CliOptions::default();
        let mut it = args.into_iter().peekable();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--scale" => {
                    let v = it.next().ok_or("--scale needs a value")?;
                    opts.scale = v.parse()?;
                }
                "--seed" => {
                    let v = it.next().ok_or("--seed needs a value")?;
                    opts.seed = v.parse::<u64>().map_err(|e| e.to_string())?;
                }
                "--tau" => {
                    let v = it.next().ok_or("--tau needs a value")?;
                    opts.tau = Some(v.parse::<usize>().map_err(|e| e.to_string())?);
                }
                "--pairs" => {
                    let v = it.next().ok_or("--pairs needs a value")?;
                    opts.pairs = Some(v.parse::<usize>().map_err(|e| e.to_string())?);
                }
                "--workers" => {
                    let v = it.next().ok_or("--workers needs a value")?;
                    opts.workers = Some(v.parse::<usize>().map_err(|e| e.to_string())?);
                }
                other if other.ends_with("help") || other == "-h" => {
                    return Err(USAGE.to_string());
                }
                other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
            }
        }
        Ok(opts)
    }

    /// Parse from the process arguments, exiting with usage on error.
    pub fn from_env() -> CliOptions {
        match Self::parse(std::env::args().skip(1)) {
            Ok(o) => o,
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        }
    }

    /// Build the grid configuration these options select.
    pub fn grid(&self) -> GridConfig {
        let mut cfg = GridConfig::for_scale(self.scale);
        cfg.seed = self.seed;
        if let Some(tau) = self.tau {
            cfg.tau = tau;
        }
        if let Some(pairs) = self.pairs {
            cfg.n_explained = pairs;
        }
        if let Some(workers) = self.workers {
            cfg.workers = workers;
        }
        cfg
    }
}

const USAGE: &str =
    "usage: <bin> [--scale smoke|default|paper] [--seed N] [--tau N] [--pairs N] [--workers N]";

/// Banner printed by every experiment binary.
pub fn banner(what: &str, opts: &CliOptions) {
    println!("=== {what} ===");
    println!(
        "scale={} seed={} tau={} pairs={} workers={}",
        opts.scale,
        opts.seed,
        opts.tau.map_or("default".to_string(), |t| t.to_string()),
        opts.pairs.map_or("default".to_string(), |p| p.to_string()),
        opts.workers.map_or("auto".to_string(), |w| w.to_string()),
    );
    println!();
}

/// Exact percentile over raw samples (nearest-rank; `q` in `[0, 1]`).
/// Returns 0.0 on an empty slice. Used by the latency-reporting bins —
/// unlike the server's bounded-memory histogram, benches keep every sample.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank - 1]
}

/// Write a machine-readable benchmark artifact (`BENCH_*.json`), the
/// format the perf trajectory tracks across PRs.
pub fn write_bench_json(path: &str, value: &certa_serve::Json) -> std::io::Result<()> {
    let body = value
        .serialize()
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    std::fs::write(path, body + "\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<CliOptions, String> {
        CliOptions::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_and_overrides() {
        let d = parse(&[]).unwrap();
        assert_eq!(d.scale, Scale::Smoke);
        assert_eq!(d.seed, 7);
        assert_eq!(d.workers, None);
        let o = parse(&[
            "--scale",
            "default",
            "--seed",
            "42",
            "--tau",
            "20",
            "--pairs",
            "5",
            "--workers",
            "3",
        ])
        .unwrap();
        assert_eq!(o.scale, Scale::Default);
        assert_eq!(o.seed, 42);
        assert_eq!(o.tau, Some(20));
        assert_eq!(o.pairs, Some(5));
        assert_eq!(o.workers, Some(3));
        let g = o.grid();
        assert_eq!(g.tau, 20);
        assert_eq!(g.n_explained, 5);
        assert_eq!(g.seed, 42);
        assert_eq!(g.workers, 3);
        assert_eq!(g.certa_config().workers, 3);
        // Default (`--workers` absent) keeps the grid's auto setting.
        assert_eq!(parse(&[]).unwrap().grid().workers, 0);
    }

    #[test]
    fn rejects_unknown_flags() {
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--scale"]).is_err());
        assert!(parse(&["--scale", "enormous"]).is_err());
        assert!(parse(&["--workers"]).is_err());
        assert!(parse(&["--help"]).is_err());
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 0.5), 3.0);
        assert_eq!(percentile(&xs, 0.9), 5.0);
        assert_eq!(percentile(&xs, 1.0), 5.0);
        assert_eq!(percentile(&[7.5], 0.99), 7.5);
    }
}
