//! Load generator + correctness gate for `certa-serve`.
//!
//! Runs a **client-concurrency sweep** against the event-driven server:
//! at each level (1/8/64/256 keep-alive clients; shrunk under `--smoke`)
//! every client sends pipelined-keep-alive requests with realistic think
//! time between them, and every response is verified **byte-for-byte**
//! against the in-process `Certa::explain_batch` output for the same
//! `(scale, seed, τ)` — the serving layer's determinism guarantee,
//! enforced under real concurrency. Each level gates:
//!
//! * zero dropped connections (every connect/request must succeed), and
//! * a p99 latency ceiling.
//!
//! After the sweep, one `/v1/explain_batch` request must match the
//! in-process batch byte for byte, `/healthz` and `/metrics` must answer
//! `200`, and a spawned server must have caught no worker panic.
//!
//! Reports per-level client-side throughput and exact p50/p95/p99 latency
//! (raw samples, not the server's bounded histogram) and writes the
//! machine-readable `BENCH_serve.json` artifact.
//!
//! ```text
//! bench_serve_load [--scale …] [--seed N] [--tau N] [--pairs N] [--workers N]
//!                  [--smoke] [--clients N] [--requests N] [--addr HOST:PORT]
//! ```
//!
//! `--smoke` shrinks the sweep for CI (fewer levels, fewer requests —
//! still asserting byte equality on every response). `--clients N`
//! replaces the sweep with the single level N. `--addr` targets an
//! already-running server, which must have been started with the same
//! `--scale/--seed/--tau` (the expected bytes are recomputed locally).

use certa_bench::{banner, percentile, write_bench_json, CliOptions};
use certa_core::Split;
use certa_explain::CertaExplanation;
use certa_models::trainer::sample_pairs;
use certa_serve::wire::dto;
use certa_serve::{Json, Registry, ServeConfig, Server};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

const MODEL: &str = "FZ/DeepMatcher";

/// Pause between keep-alive requests from one client. Long enough to
/// dominate cached service time (~1 ms), so the sweep measures connection
/// *multiplexing*, not raw CPU (on one core, raw CPU throughput is fixed).
const THINK_MS: u64 = 25;

/// Per-level p99 ceiling. Generous: it catches pathologies (a stalled
/// reactor, a convoying lock), not normal queueing jitter.
const P99_LIMIT_MS: f64 = 2_500.0;

struct LoadArgs {
    opts: CliOptions,
    smoke: bool,
    clients: Option<usize>,
    requests_per_client: usize,
    addr: Option<String>,
}

fn parse_args() -> LoadArgs {
    let mut smoke = false;
    let mut clients: Option<usize> = None;
    let mut requests: Option<usize> = None;
    let mut addr: Option<String> = None;
    let mut rest: Vec<String> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--clients" => clients = it.next().and_then(|v| v.parse().ok()),
            "--requests" => requests = it.next().and_then(|v| v.parse().ok()),
            "--addr" => addr = it.next(),
            other => rest.push(other.to_string()),
        }
    }
    let opts = match CliOptions::parse(rest) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            eprintln!("plus: [--smoke] [--clients N] [--requests N] [--addr HOST:PORT]");
            std::process::exit(2);
        }
    };
    let default_requests = if smoke { 2 } else { 3 };
    LoadArgs {
        opts,
        smoke,
        clients,
        requests_per_client: requests.unwrap_or(default_requests).max(1),
        addr,
    }
}

/// One keep-alive HTTP client connection.
struct Client {
    stream: TcpStream,
}

impl Client {
    fn connect(addr: &str) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(Client { stream })
    }

    fn request(&mut self, method: &str, path: &str, body: &str) -> Result<(u16, Vec<u8>), String> {
        write!(
            self.stream,
            "{method} {path} HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        )
        .map_err(|e| format!("write {path}: {e}"))?;
        let mut head = Vec::new();
        let mut byte = [0u8; 1];
        while !head.ends_with(b"\r\n\r\n") {
            self.stream
                .read_exact(&mut byte)
                .map_err(|e| format!("read head {path}: {e}"))?;
            head.push(byte[0]);
            if head.len() > 64 * 1024 {
                return Err(format!("{path}: unterminated response head"));
            }
        }
        let head = String::from_utf8_lossy(&head).into_owned();
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("{path}: bad status line in {head:?}"))?;
        let len: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("content-length:"))
            .and_then(|v| v.trim().parse().ok())
            .ok_or_else(|| format!("{path}: missing content-length"))?;
        let mut body = vec![0u8; len];
        self.stream
            .read_exact(&mut body)
            .map_err(|e| format!("read body {path}: {e}"))?;
        Ok((status, body))
    }
}

/// One sweep level's client-side measurements.
struct LevelResult {
    clients: usize,
    requests: usize,
    dropped: usize,
    wall_seconds: f64,
    throughput_rps: f64,
    p50: f64,
    p95: f64,
    p99: f64,
}

impl LevelResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("clients", Json::num(self.clients as f64)),
            ("requests", Json::num(self.requests as f64)),
            ("dropped", Json::num(self.dropped as f64)),
            ("wall_seconds", Json::Num(self.wall_seconds)),
            ("throughput_rps", Json::Num(self.throughput_rps)),
            ("latency_ms_p50", Json::Num(self.p50)),
            ("latency_ms_p95", Json::Num(self.p95)),
            ("latency_ms_p99", Json::Num(self.p99)),
        ])
    }
}

/// Hammer `addr` with `clients` keep-alive connections, each sending
/// `requests_per_client` byte-verified requests with think time between
/// them. Every connect or request failure counts as a dropped connection.
fn run_level(
    addr: &str,
    workload: &Arc<Vec<(String, Vec<u8>)>>,
    clients: usize,
    requests_per_client: usize,
) -> LevelResult {
    let t_load = Instant::now();
    let results: Vec<Result<Vec<f64>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|client_id| {
                let workload = Arc::clone(workload);
                let addr = addr.to_string();
                s.spawn(move || -> Result<Vec<f64>, String> {
                    let mut client = Client::connect(&addr)?;
                    let mut latencies_ms = Vec::with_capacity(requests_per_client);
                    for i in 0..requests_per_client {
                        if i > 0 {
                            // Keep-alive think time: the connection stays
                            // open and idle between requests.
                            std::thread::sleep(Duration::from_millis(THINK_MS));
                        }
                        let (body, expected) = &workload[(client_id + i) % workload.len()];
                        let t = Instant::now();
                        let (status, bytes) = client.request("POST", "/v1/explain", body)?;
                        latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
                        if status != 200 {
                            return Err(format!(
                                "client {client_id} req {i}: status {status}: {}",
                                String::from_utf8_lossy(&bytes)
                            ));
                        }
                        if &bytes != expected {
                            return Err(format!(
                                "client {client_id} req {i}: BYTE DIVERGENCE\n  served:   {}\n  expected: {}",
                                String::from_utf8_lossy(&bytes),
                                String::from_utf8_lossy(expected)
                            ));
                        }
                    }
                    Ok(latencies_ms)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = t_load.elapsed().as_secs_f64();

    let mut latencies_ms: Vec<f64> = Vec::new();
    let mut dropped = 0usize;
    for r in results {
        match r {
            Ok(mut l) => latencies_ms.append(&mut l),
            Err(e) => {
                eprintln!("FAIL: {e}");
                dropped += 1;
            }
        }
    }
    let requests = latencies_ms.len();
    LevelResult {
        clients,
        requests,
        dropped,
        wall_seconds: wall,
        throughput_rps: requests as f64 / wall.max(1e-9),
        p50: percentile(&latencies_ms, 0.5),
        p95: percentile(&latencies_ms, 0.95),
        p99: percentile(&latencies_ms, 0.99),
    }
}

fn main() {
    let args = parse_args();
    banner(
        "serve load — serving gate: concurrency sweep + bytes",
        &args.opts,
    );
    let cfg = args.opts.grid();
    let serve_config = ServeConfig {
        scale: cfg.scale,
        seed: cfg.seed,
        tau: cfg.tau,
        ..ServeConfig::default()
    };

    // ---- In-process reference: the registry builds the same world the
    // server builds, and the expected bytes come from the same wire layer.
    eprintln!("[reference] resolving {MODEL} in-process…");
    let t0 = Instant::now();
    let reference = Registry::new(serve_config.clone());
    let entry = match reference.resolve(MODEL) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("FAIL: cannot resolve {MODEL}: {}", e.message);
            std::process::exit(1);
        }
    };
    let n_pairs = cfg.n_explained.max(4);
    let pairs = sample_pairs(&entry.dataset, Split::Test, n_pairs, cfg.seed ^ 0xBA7C);
    let refs: Vec<_> = pairs
        .iter()
        .map(|lp| entry.dataset.expect_pair(lp.pair))
        .collect();
    let matcher = entry.matcher();
    let explanations: Vec<CertaExplanation> =
        entry.certa.explain_batch(&matcher, &entry.dataset, &refs);
    // Per-pair request body and the exact response bytes the server must
    // return for it.
    let workload: Vec<(String, Vec<u8>)> = pairs
        .iter()
        .zip(&explanations)
        .map(|(lp, explanation)| {
            let body = format!(
                r#"{{"model":"{MODEL}","pair":{{"left_id":{},"right_id":{}}}}}"#,
                lp.pair.left.0, lp.pair.right.0
            );
            let expected = Json::obj([
                ("model", Json::str(MODEL)),
                ("explanation", dto::explanation_to_json(explanation)),
            ])
            .serialize()
            .expect("explanations are finite")
            .into_bytes();
            (body, expected)
        })
        .collect();
    let expected_batch: Vec<u8> = {
        let body = Json::obj([
            ("model", Json::str(MODEL)),
            ("count", Json::num(explanations.len() as f64)),
            (
                "explanations",
                Json::Arr(explanations.iter().map(dto::explanation_to_json).collect()),
            ),
        ]);
        body.serialize().expect("finite").into_bytes()
    };
    eprintln!(
        "[reference] {} pairs explained in {:.2?}",
        refs.len(),
        t0.elapsed()
    );

    // ---- Sweep plan.
    let levels: Vec<usize> = match args.clients {
        Some(n) => vec![n.max(1)],
        None if args.smoke => vec![1, 4, 16],
        None => vec![1, 8, 64, 256],
    };

    // ---- Target server: external (--addr) or spawned on loopback.
    let (addr, spawned) = match &args.addr {
        Some(addr) => (addr.clone(), None),
        None => {
            let server = Server::bind(serve_config.clone(), "127.0.0.1:0")
                .unwrap_or_else(|e| panic!("bind loopback: {e}"));
            // Preload so client latencies measure serving, not training.
            server
                .state()
                .registry
                .resolve(MODEL)
                .expect("preload on spawned server");
            (server.addr().to_string(), Some(server))
        }
    };
    let workload = Arc::new(workload);
    let mut failures = 0usize;

    // ---- Sweep: per-level gates.
    let mut sweep: Vec<LevelResult> = Vec::new();
    for &clients in &levels {
        eprintln!(
            "[sweep] {clients} keep-alive clients × {} requests (think {THINK_MS}ms)…",
            args.requests_per_client
        );
        let level = run_level(&addr, &workload, clients, args.requests_per_client);
        println!(
            "level {:>4} clients: {:>8.2} req/s | p50 {:.2}ms p95 {:.2}ms p99 {:.2}ms | dropped {}",
            level.clients, level.throughput_rps, level.p50, level.p95, level.p99, level.dropped
        );
        if level.dropped > 0 {
            eprintln!(
                "FAIL: level {} dropped {} connection(s)",
                level.clients, level.dropped
            );
            failures += 1;
        }
        if level.p99 > P99_LIMIT_MS {
            eprintln!(
                "FAIL: level {} p99 {:.2}ms exceeds {P99_LIMIT_MS}ms",
                level.clients, level.p99
            );
            failures += 1;
        }
        sweep.push(level);
    }

    // ---- Batch endpoint + ops endpoints, once, on a fresh connection.
    let ops_check = (|| -> Result<(), String> {
        let mut client = Client::connect(&addr)?;
        let batch_body = format!(
            r#"{{"model":"{MODEL}","pairs":[{}]}}"#,
            pairs
                .iter()
                .map(|lp| format!(
                    r#"{{"left_id":{},"right_id":{}}}"#,
                    lp.pair.left.0, lp.pair.right.0
                ))
                .collect::<Vec<_>>()
                .join(",")
        );
        let (status, bytes) = client.request("POST", "/v1/explain_batch", &batch_body)?;
        if status != 200 {
            return Err(format!("explain_batch: status {status}"));
        }
        if bytes != expected_batch {
            return Err("explain_batch: BYTE DIVERGENCE from in-process explain_batch".into());
        }
        for path in ["/healthz", "/metrics"] {
            let (status, _) = client.request("GET", path, "")?;
            if status != 200 {
                return Err(format!("{path}: status {status}"));
            }
        }
        Ok(())
    })();
    if let Err(e) = &ops_check {
        eprintln!("FAIL: {e}");
        failures += 1;
    }

    if let Some(server) = spawned {
        let panics = server.state().metrics.worker_panics.get();
        if panics > 0 {
            eprintln!("FAIL: server caught {panics} worker panic(s)");
            failures += 1;
        }
        let overloads = server.state().metrics.overload_rejections.get();
        if overloads > 0 {
            eprintln!("[load] note: {overloads} connection(s) shed with 503");
        }
        server.shutdown();
    }

    // ---- Report.
    let total_requests: usize = sweep.iter().map(|l| l.requests).sum();
    println!(
        "verified  : {total_requests} explain responses byte-identical to in-process explain_batch ✔"
    );

    let report = Json::obj([
        ("bench", Json::str("serve_load")),
        ("model", Json::str(MODEL)),
        ("scale", Json::str(cfg.scale.to_string())),
        ("seed", Json::num(cfg.seed as f64)),
        ("tau", Json::num(cfg.tau as f64)),
        ("smoke", Json::Bool(args.smoke)),
        ("think_ms", Json::num(THINK_MS as f64)),
        (
            "requests_per_client",
            Json::num(args.requests_per_client as f64),
        ),
        ("distinct_pairs", Json::num(workload.len() as f64)),
        ("p99_limit_ms", Json::Num(P99_LIMIT_MS)),
        (
            "levels",
            Json::Arr(sweep.iter().map(LevelResult::to_json).collect()),
        ),
        ("failures", Json::num(failures as f64)),
    ]);
    match write_bench_json("BENCH_serve.json", &report) {
        Ok(()) => println!("wrote BENCH_serve.json"),
        Err(e) => {
            eprintln!("FAIL: could not write BENCH_serve.json: {e}");
            failures += 1;
        }
    }

    if failures > 0 {
        eprintln!("FAIL: {failures} check(s) failed");
        std::process::exit(1);
    }
    println!("serve load: PASS");
}
