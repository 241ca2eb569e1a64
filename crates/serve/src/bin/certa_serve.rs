//! The `certa-serve` binary: bind, optionally preload models, serve until
//! killed.
//!
//! ```text
//! certa-serve [--host H] [--port P] [--scale smoke|default|paper]
//!             [--seed N] [--tau N] [--http-workers N] [--explain-workers N]
//!             [--queue-depth N] [--max-body-bytes N] [--read-timeout-ms N]
//!             [--max-pipeline N] [--tenant-rps N] [--tenant-burst N]
//!             [--store-dir PATH] [--transfer off|nearest]
//!             [--transfer-floor F] [--preload <dataset>/<model>]...
//! ```
//!
//! `--queue-depth` caps open connections and queued requests (`503` past
//! it); `--read-timeout-ms` reaps idle connections; `--tenant-rps 0`
//! (default) disables per-tenant rate limiting. `--explain-workers` sizes
//! the pair pool of one batch explanation request; a single explanation
//! always runs sequentially.
//!
//! `--preload` resolves (generates + trains) the named entries before the
//! listener opens, so the first real request doesn't pay the training
//! latency — CI's smoke job preloads the model the load generator targets.
//!
//! `--store-dir` points at a `certa-store` directory: preloads and
//! first-touch requests load persisted artifacts when present (and persist
//! freshly trained ones), so a restarted server warm-starts in
//! milliseconds instead of retraining — see the README's "Persistent model
//! store" section.
//!
//! `--transfer nearest` changes what a store *miss* does: instead of
//! always training cold, the server searches the store's repository index
//! for the nearest stored model (by dataset-signature similarity, floor
//! set by `--transfer-floor`) and fine-tunes from its weights — see the
//! README's "Model repository" section.

use certa_serve::{AppState, ServeConfig, Server};
use std::net::TcpListener;
use std::time::Duration;

struct Args {
    host: String,
    port: u16,
    config: ServeConfig,
    preload: Vec<String>,
}

const USAGE: &str = "usage: certa-serve [--host H] [--port P] \
[--scale smoke|default|paper] [--seed N] [--tau N] [--http-workers N] [--explain-workers N] \
[--queue-depth N] [--max-body-bytes N] [--read-timeout-ms N] [--max-pipeline N] \
[--tenant-rps N] [--tenant-burst N] [--store-dir PATH] \
[--transfer off|nearest] [--transfer-floor F] [--preload <dataset>/<model>]...";

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        host: "127.0.0.1".to_string(),
        port: 8642,
        config: ServeConfig::default(),
        preload: Vec::new(),
    };
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--host" => args.host = value("--host")?,
            "--port" => args.port = value("--port")?.parse().map_err(|e| format!("{e}"))?,
            "--scale" => args.config.scale = value("--scale")?.parse()?,
            "--seed" => args.config.seed = value("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--tau" => args.config.tau = value("--tau")?.parse().map_err(|e| format!("{e}"))?,
            "--http-workers" => {
                args.config.http_workers = value("--http-workers")?
                    .parse()
                    .map_err(|e| format!("{e}"))?
            }
            "--explain-workers" => {
                args.config.explain_workers = value("--explain-workers")?
                    .parse()
                    .map_err(|e| format!("{e}"))?
            }
            "--queue-depth" => {
                args.config.queue_depth = value("--queue-depth")?
                    .parse()
                    .map_err(|e| format!("{e}"))?
            }
            "--max-body-bytes" => {
                args.config.max_body_bytes = value("--max-body-bytes")?
                    .parse()
                    .map_err(|e| format!("{e}"))?
            }
            "--read-timeout-ms" => {
                args.config.read_timeout = Duration::from_millis(
                    value("--read-timeout-ms")?
                        .parse()
                        .map_err(|e| format!("{e}"))?,
                )
            }
            "--max-pipeline" => {
                args.config.max_pipeline = value("--max-pipeline")?
                    .parse()
                    .map_err(|e| format!("{e}"))?
            }
            "--tenant-rps" => {
                args.config.tenant_rps =
                    value("--tenant-rps")?.parse().map_err(|e| format!("{e}"))?
            }
            "--tenant-burst" => {
                args.config.tenant_burst = value("--tenant-burst")?
                    .parse()
                    .map_err(|e| format!("{e}"))?
            }
            "--store-dir" => {
                args.config.store_dir = Some(std::path::PathBuf::from(value("--store-dir")?))
            }
            "--transfer" => args.config.transfer = value("--transfer")?.parse()?,
            "--transfer-floor" => {
                args.config.transfer_floor = value("--transfer-floor")?
                    .parse()
                    .map_err(|e| format!("{e}"))?
            }
            "--preload" => args.preload.push(value("--preload")?),
            other if other.ends_with("help") || other == "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let cfg = &args.config;
    eprintln!(
        "certa-serve: scale={} seed={} tau={} http_workers={} queue_depth={}",
        cfg.scale,
        cfg.seed,
        cfg.tau,
        cfg.effective_http_workers(),
        cfg.queue_depth,
    );
    // Preload *before* the listener opens: a health probe must not succeed
    // (and no request can arrive) until every preloaded model is trained —
    // CI's wait-for-/healthz gate relies on this ordering.
    let state = AppState::new(args.config.clone());
    for name in &args.preload {
        let t0 = std::time::Instant::now();
        match state.registry.resolve(name) {
            Ok(entry) => eprintln!(
                "certa-serve: preloaded {} in {:.2?}",
                entry.name,
                t0.elapsed()
            ),
            Err(e) => {
                eprintln!("certa-serve: preload `{name}` failed: {}", e.message);
                std::process::exit(2);
            }
        }
    }
    let bind_to = format!("{}:{}", args.host, args.port);
    let server = TcpListener::bind(&bind_to)
        .and_then(|listener| {
            let addr = listener.local_addr()?;
            Server::start(listener, addr, state)
        })
        .unwrap_or_else(|e| {
            eprintln!("certa-serve: bind {bind_to} failed: {e}");
            std::process::exit(1);
        });
    eprintln!("certa-serve: listening on http://{}", server.addr());
    // Serve until the process is killed (CI backgrounds the binary and
    // `kill`s it after the smoke run; there is no libc in-tree, so POSIX
    // signal hooks are out of reach — the graceful path is exercised
    // programmatically by the tests and the load harness).
    loop {
        std::thread::park();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_and_overrides() {
        let a = parse(&[]).unwrap();
        assert_eq!((a.host.as_str(), a.port), ("127.0.0.1", 8642));
        assert!(a.preload.is_empty());
        let a = parse(&[
            "--port",
            "9000",
            "--scale",
            "smoke",
            "--seed",
            "11",
            "--tau",
            "40",
            "--http-workers",
            "3",
            "--explain-workers",
            "2",
            "--queue-depth",
            "16",
            "--max-body-bytes",
            "1024",
            "--read-timeout-ms",
            "250",
            "--max-pipeline",
            "4",
            "--tenant-rps",
            "10",
            "--tenant-burst",
            "5",
            "--store-dir",
            "/tmp/certa-models",
            "--transfer",
            "nearest",
            "--transfer-floor",
            "0.5",
            "--preload",
            "FZ/DeepMatcher",
            "--preload",
            "AB/Ditto",
        ])
        .unwrap();
        assert_eq!(a.port, 9000);
        assert_eq!(a.config.seed, 11);
        assert_eq!(a.config.tau, 40);
        assert_eq!(a.config.http_workers, 3);
        assert_eq!(a.config.explain_workers, 2);
        assert_eq!(a.config.queue_depth, 16);
        assert_eq!(a.config.max_body_bytes, 1024);
        assert_eq!(a.config.read_timeout, Duration::from_millis(250));
        assert_eq!(a.config.max_pipeline, 4);
        assert_eq!(a.config.tenant_rps, 10);
        assert_eq!(a.config.tenant_burst, 5);
        assert_eq!(
            a.config.store_dir.as_deref(),
            Some(std::path::Path::new("/tmp/certa-models"))
        );
        assert_eq!(a.config.transfer, certa_serve::TransferMode::Nearest);
        assert_eq!(a.config.transfer_floor, 0.5);
        assert_eq!(a.preload, vec!["FZ/DeepMatcher", "AB/Ditto"]);
        let d = parse(&[]).unwrap();
        assert!(d.config.store_dir.is_none());
        assert_eq!(d.config.transfer, certa_serve::TransferMode::Off);
        assert_eq!(d.config.transfer_floor, 0.25);
    }

    #[test]
    fn rejects_bad_flags() {
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--port"]).is_err());
        assert!(parse(&["--port", "zap"]).is_err());
        assert!(parse(&["--mode", "event"]).is_err(), "one serving core");
        assert!(parse(&["--transfer", "furthest"]).is_err());
        assert!(parse(&["--transfer-floor", "tall"]).is_err());
        assert!(parse(&["--help"]).is_err());
    }
}
