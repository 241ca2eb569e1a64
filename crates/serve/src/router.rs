//! Request routing: `(method, path)` → handler → [`Response`].
//!
//! | Method | Path                | Handler                                   |
//! |--------|---------------------|-------------------------------------------|
//! | POST   | `/v1/score`         | score one pair                            |
//! | POST   | `/v1/score_batch`   | score many pairs, each through the cache  |
//! | POST   | `/v1/explain`       | CERTA explanation for one pair            |
//! | POST   | `/v1/explain_batch` | [`Certa::explain_batch`] over many pairs  |
//! | POST   | `/v1/block`         | block → score → explain over the tables   |
//! | POST   | `/v1/cluster`       | block → score → cluster into entities     |
//! | GET    | `/v1/entity`        | cluster membership of one record          |
//! | GET    | `/v1/models`        | resolved registry entries                 |
//! | POST   | `/v1/reload`        | hot-swap entries from the store           |
//! | GET    | `/healthz`          | liveness + uptime                         |
//! | GET    | `/metrics`          | Prometheus-style counters                 |
//!
//! Every failure path returns a structured JSON error document
//! (`{"error":{"code":…,"message":…}}`) with the appropriate status —
//! handlers return `Result<Response, HttpError>` and the single
//! [`handle`] entry point renders either side.
//!
//! [`Certa::explain_batch`]: certa_explain::Certa::explain_batch

use crate::http::{HttpError, Request, Response};
use crate::ops::{Exposition, Route, ServerMetrics};
use crate::state::{ModelEntry, Registry};
use crate::wire::{dto, Json, PairDto};
use certa_core::{worker_count, Matcher, Prediction, Record, Side};
use std::sync::Arc;

/// Route a parsed request. Never panics; never returns a non-JSON error
/// (except `/metrics`, whose body is the plain-text exposition format).
pub fn handle(registry: &Registry, metrics: &ServerMetrics, req: &Request) -> (Route, Response) {
    let (route, result) = dispatch(registry, metrics, req);
    let response = match result {
        Ok(resp) => resp,
        Err(err) => err.to_response(),
    };
    (route, response)
}

fn dispatch(
    registry: &Registry,
    metrics: &ServerMetrics,
    req: &Request,
) -> (Route, Result<Response, HttpError>) {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/v1/score") => (Route::Score, score(registry, req, false)),
        ("POST", "/v1/score_batch") => (Route::ScoreBatch, score(registry, req, true)),
        ("POST", "/v1/explain") => (Route::Explain, explain(registry, req, false)),
        ("POST", "/v1/explain_batch") => (Route::ExplainBatch, explain(registry, req, true)),
        ("POST", "/v1/block") => (Route::Block, block(registry, req)),
        ("POST", "/v1/cluster") => (Route::Cluster, cluster(registry, req)),
        ("GET", "/v1/entity") => (Route::Entity, entity(registry, req)),
        ("GET", "/v1/models") => (Route::Models, models(registry)),
        ("POST", "/v1/reload") => (Route::Reload, reload(registry)),
        ("GET", "/healthz") => (Route::Healthz, healthz(registry)),
        ("GET", "/metrics") => (Route::Metrics, Ok(exposition(registry, metrics))),
        (
            _,
            "/v1/score" | "/v1/score_batch" | "/v1/explain" | "/v1/explain_batch" | "/v1/block"
            | "/v1/cluster" | "/v1/reload",
        ) => (
            Route::Other,
            Err(HttpError {
                status: 405,
                code: "method_not_allowed",
                message: format!("{} {} (use POST)", req.method, req.path),
                keep_alive: true,
            }),
        ),
        (_, "/v1/entity" | "/v1/models" | "/healthz" | "/metrics") => (
            Route::Other,
            Err(HttpError {
                status: 405,
                code: "method_not_allowed",
                message: format!("{} {} (use GET)", req.method, req.path),
                keep_alive: true,
            }),
        ),
        _ => (
            Route::Other,
            Err(HttpError {
                status: 404,
                code: "unknown_route",
                message: format!("no route for {} {}", req.method, req.path),
                keep_alive: true,
            }),
        ),
    }
}

fn parse_body(req: &Request) -> Result<Json, HttpError> {
    let text = std::str::from_utf8(&req.body)
        .map_err(|_| HttpError::bad_request("bad_utf8", "request body is not valid UTF-8"))?;
    Json::parse(text).map_err(|e| HttpError::bad_request("bad_json", e.to_string()))
}

/// Resolve every pair DTO against the entry's tables, preserving order.
fn resolve_pairs<'a>(
    entry: &'a ModelEntry,
    pairs: &'a [PairDto],
) -> Result<Vec<(&'a Record, &'a Record)>, HttpError> {
    pairs
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let u = entry.resolve_record(&p.left, Side::Left, &format!("pairs[{i}].left"))?;
            let v = entry.resolve_record(&p.right, Side::Right, &format!("pairs[{i}].right"))?;
            Ok((u, v))
        })
        .collect()
}

fn score(registry: &Registry, req: &Request, batch: bool) -> Result<Response, HttpError> {
    let body = parse_body(req)?;
    let parsed = decode(&body, batch)?;
    let entry = registry.resolve(&parsed.model)?;
    let pairs = resolve_pairs(&entry, &parsed.pairs)?;
    let scores = entry.matcher().score_batch(&pairs);
    let results: Vec<Json> = scores
        .iter()
        .map(|&s| dto::prediction_to_json(&Prediction::from_score(s)))
        .collect();
    let payload = if batch {
        Json::obj([
            ("model", Json::str(&entry.name)),
            ("count", Json::num(results.len() as f64)),
            ("results", Json::Arr(results)),
        ])
    } else {
        let mut fields = vec![("model".to_string(), Json::str(&entry.name))];
        match results.into_iter().next() {
            Some(Json::Obj(inner)) => fields.extend(inner),
            // `decode(.., batch=false)` yields exactly one pair, and
            // `prediction_to_json` always builds an object.
            _ => {
                return Err(internal_invariant(
                    "single-pair score produced no result object",
                ))
            }
        }
        Json::Obj(fields)
    };
    ok_json(&payload)
}

fn explain(registry: &Registry, req: &Request, batch: bool) -> Result<Response, HttpError> {
    let body = parse_body(req)?;
    let parsed = decode(&body, batch)?;
    let entry = registry.resolve(&parsed.model)?;
    let pairs = resolve_pairs(&entry, &parsed.pairs)?;
    let matcher = entry.matcher();
    let explanations = entry.certa.explain_batch(&matcher, &entry.dataset, &pairs);
    let encoded: Vec<Json> = explanations.iter().map(dto::explanation_to_json).collect();
    let payload = if batch {
        Json::obj([
            ("model", Json::str(&entry.name)),
            ("count", Json::num(encoded.len() as f64)),
            ("explanations", Json::Arr(encoded)),
        ])
    } else {
        Json::obj([
            ("model", Json::str(&entry.name)),
            (
                "explanation",
                encoded
                    .into_iter()
                    .next()
                    .ok_or_else(|| internal_invariant("single-pair explain produced no result"))?,
            ),
        ])
    };
    ok_json(&payload)
}

/// Parsed `/v1/block` request parameters (everything but `model` optional).
struct BlockParams {
    blocker: String,
    num_hashes: usize,
    num_bands: usize,
    target_threshold: f64,
    min_overlap: usize,
    min_containment: f64,
    window: usize,
    prefix_len: usize,
    max_df: usize,
    top: usize,
    explain_top: usize,
}

/// `/v1/block` result-size ceilings: blocking runs over the whole table
/// pair, so the response (not the computation) is what needs bounding.
const BLOCK_MAX_TOP: usize = 1000;
const BLOCK_MAX_EXPLAIN: usize = 16;

impl BlockParams {
    fn from_json(body: &Json) -> Result<BlockParams, HttpError> {
        let usize_field = |name: &'static str, default: usize| -> Result<usize, HttpError> {
            match body.get(name) {
                None => Ok(default),
                Some(Json::Num(n)) if n.fract() == 0.0 && *n >= 0.0 && *n < 1e9 => Ok(*n as usize),
                Some(other) => Err(HttpError::bad_request(
                    "bad_request_body",
                    format!("`{name}` must be a non-negative integer, got {other:?}"),
                )),
            }
        };
        let f64_field = |name: &'static str, default: f64| -> Result<f64, HttpError> {
            match body.get(name) {
                None => Ok(default),
                Some(Json::Num(n)) => Ok(*n),
                Some(other) => Err(HttpError::bad_request(
                    "bad_request_body",
                    format!("`{name}` must be a number, got {other:?}"),
                )),
            }
        };
        let blocker = match body.get("blocker") {
            None => "multi".to_string(),
            Some(Json::Str(s)) => s.clone(),
            Some(other) => {
                return Err(HttpError::bad_request(
                    "bad_request_body",
                    format!("`blocker` must be a string, got {other:?}"),
                ))
            }
        };
        let lsh_defaults = certa_block::LshConfig::default();
        let overlap_defaults = certa_block::TokenOverlap::default();
        let params = BlockParams {
            blocker,
            num_hashes: usize_field("num_hashes", lsh_defaults.num_hashes)?,
            num_bands: usize_field("num_bands", lsh_defaults.num_bands)?,
            target_threshold: f64_field("target_threshold", lsh_defaults.target_threshold)?,
            min_overlap: usize_field("min_overlap", overlap_defaults.min_overlap)?,
            min_containment: f64_field("min_containment", overlap_defaults.min_containment)?,
            window: usize_field("window", certa_block::SortedNeighborhood::default().window)?,
            prefix_len: usize_field("prefix_len", certa_block::TokenPrefix::default().prefix_len)?,
            max_df: usize_field("max_df", certa_block::TokenPrefix::default().max_df)?,
            top: usize_field("top", 10)?,
            explain_top: usize_field("explain_top", 0)?,
        };
        if params.top > BLOCK_MAX_TOP {
            return Err(HttpError::bad_request(
                "bad_request_body",
                format!("`top` must be ≤ {BLOCK_MAX_TOP}, got {}", params.top),
            ));
        }
        if params.explain_top > BLOCK_MAX_EXPLAIN {
            return Err(HttpError::bad_request(
                "bad_request_body",
                format!(
                    "`explain_top` must be ≤ {BLOCK_MAX_EXPLAIN}, got {}",
                    params.explain_top
                ),
            ));
        }
        if !(0.0..=1.0).contains(&params.min_containment) {
            return Err(HttpError::bad_request(
                "bad_request_body",
                format!(
                    "`min_containment` must be in [0, 1], got {}",
                    params.min_containment
                ),
            ));
        }
        Ok(params)
    }

    fn build(&self) -> Result<Box<dyn certa_block::Blocker>, HttpError> {
        let bad_config = |e: String| HttpError::bad_request("bad_blocker_config", e);
        match self.blocker.as_str() {
            "multi" => Ok(Box::new(certa_block::MultiPass::standard())),
            "lsh" => Ok(Box::new(
                certa_block::LshBlocker::new(certa_block::LshConfig {
                    num_hashes: self.num_hashes,
                    num_bands: self.num_bands,
                    target_threshold: self.target_threshold,
                    ..certa_block::LshConfig::default()
                })
                .map_err(bad_config)?,
            )),
            "token-overlap" => Ok(Box::new(certa_block::TokenOverlap {
                min_overlap: self.min_overlap,
                min_containment: self.min_containment,
            })),
            "sorted-neighborhood" => Ok(Box::new(certa_block::SortedNeighborhood {
                window: self.window,
            })),
            "token-prefix" => Ok(Box::new(certa_block::TokenPrefix {
                prefix_len: self.prefix_len,
                max_df: self.max_df,
            })),
            other => Err(HttpError::bad_request(
                "bad_blocker",
                format!(
                    "unknown blocker `{other}` (expected multi, lsh, token-overlap, \
                     sorted-neighborhood, or token-prefix)"
                ),
            )),
        }
    }
}

/// `POST /v1/block`: run candidate generation over the entry's two tables,
/// stream the survivors through the cached matcher, and explain the best
/// few — the full million-record pipeline behind one endpoint.
fn block(registry: &Registry, req: &Request) -> Result<Response, HttpError> {
    let body = parse_body(req)?;
    let model = match body.get("model") {
        Some(Json::Str(s)) => s.clone(),
        _ => {
            return Err(HttpError::bad_request(
                "bad_request_body",
                "`model` (string, \"<dataset>/<model>\") is required",
            ))
        }
    };
    let params = BlockParams::from_json(&body)?;
    let blocker = params.build()?;
    let entry = registry.resolve(&model)?;
    let candidates = blocker.candidates(entry.dataset.left(), entry.dataset.right());
    let counters = &registry.counters;
    counters.block_runs.inc();
    counters.block_candidates.add(candidates.len() as u64);
    let certa = (params.explain_top > 0).then_some(&entry.certa);
    let report = certa_block::run_pipeline_cached(
        candidates,
        blocker.name(),
        &entry.dataset,
        &entry.cache,
        certa,
        &certa_block::PipelineConfig {
            top_k: params.top,
            explain_top: params.explain_top,
            ..certa_block::PipelineConfig::default()
        },
    );
    let top: Vec<Json> = report
        .top
        .iter()
        .map(|sp| {
            Json::obj([
                ("left_id", Json::num(sp.pair.left.0 as f64)),
                ("right_id", Json::num(sp.pair.right.0 as f64)),
                ("score", Json::Num(sp.score)),
            ])
        })
        .collect();
    let explanations: Vec<Json> = report
        .explanations
        .iter()
        .map(|(pair, expl)| {
            Json::obj([
                ("left_id", Json::num(pair.left.0 as f64)),
                ("right_id", Json::num(pair.right.0 as f64)),
                ("explanation", dto::explanation_to_json(expl)),
            ])
        })
        .collect();
    let payload = Json::obj([
        ("model", Json::str(&entry.name)),
        ("blocker", Json::str(report.blocker)),
        ("cross_product", Json::num(report.cross_product as f64)),
        ("candidates", Json::num(report.candidates as f64)),
        ("reduction", Json::Num(report.reduction)),
        (
            "predicted_matches",
            Json::num(report.predicted_matches as f64),
        ),
        ("top", Json::Arr(top)),
        ("explanations", Json::Arr(explanations)),
        (
            "cache",
            match report.cache {
                Some(stats) => Json::obj([
                    ("hits", Json::num(stats.hits as f64)),
                    ("misses", Json::num(stats.misses as f64)),
                    ("hit_rate", Json::Num(stats.hit_rate())),
                ]),
                None => Json::Null,
            },
        ),
    ]);
    ok_json(&payload)
}

/// Parsed `/v1/cluster` request parameters. Blocker selection and tuning
/// ride on [`BlockParams`]; the fields here drive the clustering stage.
struct ClusterParams {
    block: BlockParams,
    clusterer: String,
    threshold: f64,
    /// The resolved scoring worker count: the request's `workers` through
    /// `worker_count` (`0` = one per core), capped at `CLUSTER_MAX_WORKERS`.
    workers: usize,
    batch: usize,
    top: usize,
}

/// `/v1/cluster` ceilings: `top` bounds the per-cluster member lists in the
/// response; `workers` bounds per-request thread fan-out, whether asked for
/// by count or resolved from `0`.
const CLUSTER_MAX_TOP: usize = 100;
const CLUSTER_MAX_WORKERS: usize = 64;

impl ClusterParams {
    fn from_json(body: &Json) -> Result<ClusterParams, HttpError> {
        let defaults = certa_cluster::ClusterConfig::default();
        let block = BlockParams::from_json(body)?;
        let clusterer = match body.get("clusterer") {
            None => "components".to_string(),
            Some(Json::Str(s)) => s.clone(),
            Some(other) => {
                return Err(HttpError::bad_request(
                    "bad_request_body",
                    format!("`clusterer` must be a string, got {other:?}"),
                ))
            }
        };
        let usize_field = |name: &'static str, default: usize| -> Result<usize, HttpError> {
            match body.get(name) {
                None => Ok(default),
                Some(Json::Num(n)) if n.fract() == 0.0 && *n >= 0.0 && *n < 1e9 => Ok(*n as usize),
                Some(other) => Err(HttpError::bad_request(
                    "bad_request_body",
                    format!("`{name}` must be a non-negative integer, got {other:?}"),
                )),
            }
        };
        let threshold = match body.get("threshold") {
            None => defaults.threshold,
            Some(Json::Num(n)) if (0.0..=1.0).contains(n) => *n,
            Some(other) => {
                return Err(HttpError::bad_request(
                    "bad_request_body",
                    format!("`threshold` must be a number in [0, 1], got {other:?}"),
                ))
            }
        };
        let mut params = ClusterParams {
            block,
            clusterer,
            threshold,
            workers: usize_field("workers", defaults.workers)?,
            batch: usize_field("batch", defaults.batch_size)?,
            top: usize_field("top_clusters", 10)?,
        };
        if params.workers > CLUSTER_MAX_WORKERS {
            return Err(HttpError::bad_request(
                "bad_request_body",
                format!(
                    "`workers` must be ≤ {CLUSTER_MAX_WORKERS}, got {}",
                    params.workers
                ),
            ));
        }
        if params.batch == 0 {
            return Err(HttpError::bad_request(
                "bad_request_body",
                "`batch` must be ≥ 1, got 0",
            ));
        }
        if params.top > CLUSTER_MAX_TOP {
            return Err(HttpError::bad_request(
                "bad_request_body",
                format!(
                    "`top_clusters` must be ≤ {CLUSTER_MAX_TOP}, got {}",
                    params.top
                ),
            ));
        }
        params.workers = worker_count(params.workers).min(CLUSTER_MAX_WORKERS);
        Ok(params)
    }

    fn build_clusterer(&self) -> Result<Box<dyn certa_cluster::Clusterer>, HttpError> {
        match self.clusterer.as_str() {
            "components" | "connected-components" | "cc" => {
                Ok(Box::new(certa_cluster::ConnectedComponents))
            }
            "matchmerge" | "match-merge" | "swoosh" => Ok(Box::new(certa_cluster::MatchMerge)),
            other => Err(HttpError::bad_request(
                "bad_clusterer",
                format!("unknown clusterer `{other}` (expected components or matchmerge)"),
            )),
        }
    }
}

/// A side-qualified cluster member as a wire object.
fn node_to_json(node: certa_cluster::ClusterNode) -> Json {
    Json::obj([
        (
            "side",
            Json::str(match node.side {
                Side::Left => "left",
                Side::Right => "right",
            }),
        ),
        ("id", Json::num(node.id.0 as f64)),
    ])
}

/// `POST /v1/cluster`: run candidate generation over the entry's tables,
/// score the survivors through the cached matcher, threshold them into a
/// match graph, and resolve entities — the partition is held (and, with a
/// store, persisted) for `GET /v1/entity` lookups.
fn cluster(registry: &Registry, req: &Request) -> Result<Response, HttpError> {
    let body = parse_body(req)?;
    let model = match body.get("model") {
        Some(Json::Str(s)) => s.clone(),
        _ => {
            return Err(HttpError::bad_request(
                "bad_request_body",
                "`model` (string, \"<dataset>/<model>\") is required",
            ))
        }
    };
    let params = ClusterParams::from_json(&body)?;
    let blocker = params.block.build()?;
    let clusterer = params.build_clusterer()?;
    let entry = registry.resolve(&model)?;
    let candidates = blocker.candidates(entry.dataset.left(), entry.dataset.right());
    let report = certa_cluster::run_cluster_pipeline_cached(
        &entry.dataset,
        &entry.cache,
        &candidates,
        blocker.name().to_string(),
        clusterer.as_ref(),
        &certa_cluster::ClusterConfig {
            threshold: params.threshold,
            batch_size: params.batch,
            workers: params.workers,
        },
    );
    let partition = Arc::new(report.partition.clone());
    registry.record_cluster(
        &entry,
        Arc::clone(&partition),
        &report.clusterer,
        report.threshold,
    );
    // Largest clusters first; representative breaks size ties so the order
    // is total and byte-stable.
    let mut order: Vec<usize> = (0..partition.len()).collect();
    order.sort_by_key(|&i| {
        (
            std::cmp::Reverse(partition.members(i).len()),
            partition.representative(i),
        )
    });
    let top: Vec<Json> = order
        .iter()
        .take(params.top)
        .map(|&i| {
            let members: Vec<Json> = partition
                .members(i)
                .iter()
                .map(|&n| node_to_json(n))
                .collect();
            Json::obj([
                ("representative", node_to_json(partition.representative(i))),
                ("size", Json::num(members.len() as f64)),
                ("members", Json::Arr(members)),
            ])
        })
        .collect();
    let payload = Json::obj([
        ("model", Json::str(&entry.name)),
        ("blocker", Json::str(&report.blocker)),
        ("clusterer", Json::str(&report.clusterer)),
        ("threshold", Json::Num(report.threshold)),
        ("candidates", Json::num(report.candidates as f64)),
        ("match_edges", Json::num(report.match_edges.len() as f64)),
        ("entities", Json::num(report.clusters() as f64)),
        ("non_singletons", Json::num(report.non_singletons() as f64)),
        ("largest", Json::num(report.largest() as f64)),
        ("top", Json::Arr(top)),
        (
            "cache",
            match report.cache {
                Some(stats) => Json::obj([
                    ("hits", Json::num(stats.hits as f64)),
                    ("misses", Json::num(stats.misses as f64)),
                    ("hit_rate", Json::Num(stats.hit_rate())),
                ]),
                None => Json::Null,
            },
        ),
    ]);
    ok_json(&payload)
}

/// `GET /v1/entity?model=<name>&side=<left|right>&id=<n>`: which entity a
/// record resolved into, per the latest `/v1/cluster` run (or a persisted
/// partition on the warm-start path).
fn entity(registry: &Registry, req: &Request) -> Result<Response, HttpError> {
    let lookup = |name: &str| -> Option<&str> {
        req.query
            .split('&')
            .filter_map(|kv| kv.split_once('='))
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v)
    };
    let model = lookup("model").ok_or_else(|| {
        HttpError::bad_request(
            "bad_query",
            "`model` query parameter is required (e.g. /v1/entity?model=FZ/DeepMatcher&side=left&id=0)",
        )
    })?;
    let side = match lookup("side") {
        Some("left" | "l" | "L") => Side::Left,
        Some("right" | "r" | "R") => Side::Right,
        other => {
            return Err(HttpError::bad_request(
                "bad_query",
                format!("`side` must be `left` or `right`, got {other:?}"),
            ))
        }
    };
    let id: u32 = lookup("id").and_then(|v| v.parse().ok()).ok_or_else(|| {
        HttpError::bad_request("bad_query", "`id` must be a non-negative integer")
    })?;
    let entry = registry.resolve(model)?;
    let held = registry.partition_for(&entry).ok_or_else(|| HttpError {
        status: 404,
        code: "no_partition",
        message: format!(
            "no partition for {} — run POST /v1/cluster first",
            entry.name
        ),
        keep_alive: true,
    })?;
    let node = certa_cluster::ClusterNode {
        side,
        id: certa_core::RecordId(id),
    };
    let index = held.partition.cluster_of(node).ok_or_else(|| HttpError {
        status: 404,
        code: "unknown_record",
        message: format!(
            "no record {node} in the partition of {} ({} node(s))",
            entry.name,
            held.partition.node_count()
        ),
        keep_alive: true,
    })?;
    let members: Vec<Json> = held
        .partition
        .members(index)
        .iter()
        .map(|&n| node_to_json(n))
        .collect();
    let payload = Json::obj([
        ("model", Json::str(&entry.name)),
        ("clusterer", Json::str(&held.clusterer)),
        ("threshold", Json::Num(held.threshold)),
        ("record", node_to_json(node)),
        (
            "representative",
            node_to_json(held.partition.representative(index)),
        ),
        ("size", Json::num(members.len() as f64)),
        ("members", Json::Arr(members)),
    ]);
    ok_json(&payload)
}

fn decode(body: &Json, batch: bool) -> Result<crate::wire::PairsRequest, HttpError> {
    let parsed = if batch {
        dto::batch_request_from_json(body)
    } else {
        dto::single_request_from_json(body)
    };
    parsed.map_err(|e| HttpError::bad_request("bad_request_body", e.to_string()))
}

/// A broken internal invariant surfaces as a structured 500, not a panic —
/// the connection (and the worker thread) outlive the failure.
fn internal_invariant(message: &str) -> HttpError {
    HttpError {
        status: 500,
        code: "internal_invariant",
        message: message.to_string(),
        keep_alive: true,
    }
}

fn models(registry: &Registry) -> Result<Response, HttpError> {
    let entries: Vec<Json> = registry
        .loaded()
        .iter()
        .map(|e| {
            let stats = e.cache.stats();
            Json::obj([
                ("name", Json::str(&e.name)),
                ("dataset", Json::str(e.dataset_id.code())),
                ("model", Json::str(e.kind.paper_name())),
                ("left_records", Json::num(e.dataset.left().len() as f64)),
                ("right_records", Json::num(e.dataset.right().len() as f64)),
                ("cache_entries", Json::num(e.cache.len() as f64)),
                ("cache_hits", Json::num(stats.hits as f64)),
                ("cache_misses", Json::num(stats.misses as f64)),
            ])
        })
        .collect();
    let payload = Json::obj([
        ("count", Json::num(entries.len() as f64)),
        ("models", Json::Arr(entries)),
    ]);
    ok_json(&payload)
}

/// `POST /v1/reload`: atomically hot-swap every materialized entry with a
/// fresh resolution from the store (artifacts written since startup — e.g.
/// by `certa-store` or another process — become servable without a
/// restart). In-flight requests keep their old entries; the swap is one
/// map insert per model under a single lock acquisition.
fn reload(registry: &Registry) -> Result<Response, HttpError> {
    let names = registry.reload();
    let payload = Json::obj([
        ("reloaded", Json::num(names.len() as f64)),
        ("models", Json::Arr(names.iter().map(Json::str).collect())),
    ]);
    ok_json(&payload)
}

/// `GET /metrics`: the serving-layer families, then the registry's.
fn exposition(registry: &Registry, metrics: &ServerMetrics) -> Response {
    let mut out = Exposition::default();
    metrics.render(&mut out);
    registry.render(&mut out);
    Response::text(200, out.into_text())
}

fn healthz(registry: &Registry) -> Result<Response, HttpError> {
    let cfg = registry.config();
    let payload = Json::obj([
        ("status", Json::str("ok")),
        ("scale", Json::str(cfg.scale.to_string())),
        ("seed", Json::num(cfg.seed as f64)),
        ("tau", Json::num(cfg.tau as f64)),
        ("models_loaded", Json::num(registry.loaded().len() as f64)),
    ]);
    ok_json(&payload)
}

fn ok_json(payload: &Json) -> Result<Response, HttpError> {
    let body = payload.serialize().map_err(|e| HttpError {
        status: 500,
        code: "serialization_failed",
        message: e.to_string(),
        keep_alive: true,
    })?;
    Ok(Response::json(200, body))
}

/// Convenience used by tests and the load generator: the exact bytes the
/// server returns for `POST /v1/explain` of one resolved pair.
pub fn explain_response_bytes(entry: &Arc<ModelEntry>, u: &Record, v: &Record) -> Vec<u8> {
    let matcher = entry.matcher();
    let explanations = entry
        .certa
        .explain_batch(&matcher, &entry.dataset, &[(u, v)]);
    Json::obj([
        ("model", Json::str(&entry.name)),
        // certa-lint: allow(no-panic-path) — harness-only helper (tests + load generator); the batch is built one line up with exactly one pair
        ("explanation", dto::explanation_to_json(&explanations[0])),
    ])
    .serialize()
    // certa-lint: allow(no-panic-path) — harness-only helper; request traffic goes through ok_json, which maps this failure to a 500
    .expect("explanations contain only finite numbers")
    .into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::ServeConfig;

    fn req(method: &str, path: &str, body: &str) -> Request {
        // Split the target like the HTTP parser does: `Request::path` is
        // always query-stripped by the time it reaches the router.
        let (path, query) = match path.split_once('?') {
            Some((p, q)) => (p, q),
            None => (path, ""),
        };
        Request {
            method: method.to_string(),
            path: path.to_string(),
            query: query.to_string(),
            headers: vec![],
            body: body.as_bytes().to_vec(),
            keep_alive: true,
        }
    }

    fn parse_response(resp: &Response) -> Json {
        Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap()
    }

    fn registry() -> Registry {
        Registry::new(ServeConfig {
            tau: 12,
            ..ServeConfig::default()
        })
    }

    fn go(registry: &Registry, r: &Request) -> (Route, Response) {
        handle(registry, &ServerMetrics::default(), r)
    }

    #[test]
    fn score_single_and_batch_agree() {
        let registry = registry();
        let (route, resp) = go(
            &registry,
            &req(
                "POST",
                "/v1/score",
                r#"{"model":"FZ/DeepMatcher","pair":{"left_id":0,"right_id":0}}"#,
            ),
        );
        assert_eq!(route, Route::Score);
        assert_eq!(
            resp.status,
            200,
            "{:?}",
            String::from_utf8_lossy(&resp.body)
        );
        let single = parse_response(&resp);
        assert_eq!(
            single.get("model").unwrap().as_str(),
            Some("FZ/DeepMatcher")
        );
        let score = single.get("score").unwrap().as_num().unwrap();
        assert!((0.0..=1.0).contains(&score));

        let (_, resp) = go(
            &registry,
            &req(
                "POST",
                "/v1/score_batch",
                r#"{"model":"FZ/DeepMatcher","pairs":[{"left_id":0,"right_id":0},{"left_id":0,"right_id":1}]}"#,
            ),
        );
        assert_eq!(resp.status, 200);
        let batch = parse_response(&resp);
        assert_eq!(batch.get("count"), Some(&Json::Num(2.0)));
        let results = batch.get("results").unwrap().as_arr().unwrap();
        assert_eq!(results[0].get("score").unwrap().as_num(), Some(score));
    }

    #[test]
    fn explain_matches_in_process_bytes() {
        let registry = registry();
        let (route, resp) = go(
            &registry,
            &req(
                "POST",
                "/v1/explain",
                r#"{"model":"FZ/Ditto","pair":{"left_id":0,"right_id":0}}"#,
            ),
        );
        assert_eq!(route, Route::Explain);
        assert_eq!(resp.status, 200);
        let entry = registry.resolve("FZ/Ditto").unwrap();
        let u = entry.dataset.left().expect(certa_core::RecordId(0)).clone();
        let v = entry
            .dataset
            .right()
            .expect(certa_core::RecordId(0))
            .clone();
        let expected = explain_response_bytes(&entry, &u, &v);
        assert_eq!(
            resp.body, expected,
            "served explanation must be byte-identical to the in-process computation"
        );
        // Determinism: a second identical request returns identical bytes.
        let (_, again) = go(
            &registry,
            &req(
                "POST",
                "/v1/explain",
                r#"{"model":"FZ/Ditto","pair":{"left_id":0,"right_id":0}}"#,
            ),
        );
        assert_eq!(again.body, resp.body);
    }

    #[test]
    fn explain_batch_equals_sequence_of_singles() {
        let registry = registry();
        let (_, batch) = go(
            &registry,
            &req(
                "POST",
                "/v1/explain_batch",
                r#"{"model":"FZ/DeepMatcher","pairs":[{"left_id":0,"right_id":0},{"left_id":1,"right_id":2}]}"#,
            ),
        );
        assert_eq!(batch.status, 200);
        let parsed = parse_response(&batch);
        let explanations = parsed.get("explanations").unwrap().as_arr().unwrap();
        assert_eq!(explanations.len(), 2);
        for (i, (l, r)) in [(0u32, 0u32), (1, 2)].iter().enumerate() {
            let (_, single) = go(
                &registry,
                &req(
                    "POST",
                    "/v1/explain",
                    &format!(
                        r#"{{"model":"FZ/DeepMatcher","pair":{{"left_id":{l},"right_id":{r}}}}}"#
                    ),
                ),
            );
            let single = parse_response(&single);
            assert_eq!(
                single.get("explanation").unwrap(),
                &explanations[i],
                "batch element {i} diverges from the single-pair endpoint"
            );
        }
    }

    #[test]
    fn inline_records_are_scored() {
        let registry = registry();
        let entry = registry.resolve("FZ/DeepMatcher").unwrap();
        let arity = entry.dataset.left().schema().arity();
        let values: Vec<String> = (0..arity).map(|i| format!("\"v{i}\"")).collect();
        let body = format!(
            r#"{{"model":"FZ/DeepMatcher","pair":{{"left":{{"id":0,"values":[{}]}},"right_id":0}}}}"#,
            values.join(",")
        );
        let (_, resp) = go(&registry, &req("POST", "/v1/score", &body));
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    }

    #[test]
    fn error_paths_are_structured() {
        let registry = registry();
        let cases: &[(&str, &str, &str, u16, &str)] = &[
            ("POST", "/v1/score", "not json", 400, "bad_json"),
            (
                "POST",
                "/v1/score",
                "{\"model\":7,\"pair\":{}}",
                400,
                "bad_request_body",
            ),
            (
                "POST",
                "/v1/score",
                "{\"model\":\"nope\",\"pair\":{\"left_id\":0,\"right_id\":0}}",
                400,
                "bad_model_name",
            ),
            (
                "POST",
                "/v1/score",
                "{\"model\":\"XX/Ditto\",\"pair\":{\"left_id\":0,\"right_id\":0}}",
                404,
                "unknown_dataset",
            ),
            (
                "POST",
                "/v1/score",
                "{\"model\":\"FZ/Ditto\",\"pair\":{\"left_id\":88888,\"right_id\":0}}",
                404,
                "unknown_record",
            ),
            ("GET", "/v1/score", "", 405, "method_not_allowed"),
            ("POST", "/healthz", "", 405, "method_not_allowed"),
            ("GET", "/nope", "", 404, "unknown_route"),
        ];
        for (method, path, body, status, code) in cases {
            let (_, resp) = go(&registry, &req(method, path, body));
            assert_eq!(resp.status, *status, "{method} {path} {body}");
            let parsed = parse_response(&resp);
            assert_eq!(
                parsed.get("error").unwrap().get("code").unwrap().as_str(),
                Some(*code),
                "{method} {path} {body}"
            );
        }
    }

    #[test]
    fn block_endpoint_runs_the_full_pipeline() {
        let registry = registry();
        let body = r#"{"model":"FZ/DeepMatcher","top":5,"explain_top":1}"#;
        let (route, resp) = go(&registry, &req("POST", "/v1/block", body));
        assert_eq!(route, Route::Block);
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        let parsed = parse_response(&resp);
        assert_eq!(
            parsed.get("model").unwrap().as_str(),
            Some("FZ/DeepMatcher")
        );
        let candidates = parsed.get("candidates").unwrap().as_num().unwrap();
        assert!(candidates > 0.0, "smoke tables contain seeded duplicates");
        assert!(parsed.get("reduction").unwrap().as_num().unwrap() > 1.0);
        let top = parsed.get("top").unwrap().as_arr().unwrap();
        assert!(!top.is_empty() && top.len() <= 5);
        for entry in top {
            let score = entry.get("score").unwrap().as_num().unwrap();
            assert!((0.0..=1.0).contains(&score));
        }
        let explanations = parsed.get("explanations").unwrap().as_arr().unwrap();
        assert_eq!(explanations.len(), 1);
        assert!(explanations[0].get("explanation").is_some());

        // Determinism: the same request returns the same document — except
        // the per-run cache delta, which flips from all-misses to all-hits.
        let (_, again) = go(&registry, &req("POST", "/v1/block", body));
        let again = parse_response(&again);
        for field in ["blocker", "candidates", "reduction", "top", "explanations"] {
            assert_eq!(again.get(field), parsed.get(field), "{field}");
        }
        let cold = parsed.get("cache").unwrap();
        let warm = again.get("cache").unwrap();
        assert!(
            cold.get("misses").unwrap().as_num().unwrap() > 0.0,
            "cold run scores"
        );
        assert_eq!(warm.get("misses"), Some(&Json::Num(0.0)), "{warm:?}");
        assert_eq!(warm.get("hit_rate"), Some(&Json::Num(1.0)));

        // The registry accounted both runs in the /metrics exposition.
        let (_, metrics) = go(&registry, &req("GET", "/metrics", ""));
        let text = String::from_utf8(metrics.body).unwrap();
        assert!(text.contains("certa_serve_block_runs_total 2"));
        assert!(text.contains(&format!(
            "certa_serve_block_candidates_total {}",
            2 * candidates as u64
        )));
    }

    #[test]
    fn block_endpoint_accepts_every_blocker_kind() {
        let registry = registry();
        for blocker in [
            "multi",
            "lsh",
            "token-overlap",
            "sorted-neighborhood",
            "token-prefix",
        ] {
            let body = format!(r#"{{"model":"FZ/DeepMatcher","blocker":"{blocker}","top":3}}"#);
            let (_, resp) = go(&registry, &req("POST", "/v1/block", &body));
            assert_eq!(
                resp.status,
                200,
                "blocker {blocker}: {}",
                String::from_utf8_lossy(&resp.body)
            );
        }
    }

    #[test]
    fn block_endpoint_validates_parameters() {
        let registry = registry();
        let cases: &[(&str, &str)] = &[
            (
                r#"{"model":"FZ/DeepMatcher","blocker":"nope"}"#,
                "bad_blocker",
            ),
            (
                r#"{"model":"FZ/DeepMatcher","blocker":"lsh","num_bands":7}"#,
                "bad_blocker_config",
            ),
            (
                r#"{"model":"FZ/DeepMatcher","blocker":"lsh","target_threshold":0}"#,
                "bad_blocker_config",
            ),
            (
                r#"{"model":"FZ/DeepMatcher","min_containment":2.5}"#,
                "bad_request_body",
            ),
            (
                r#"{"model":"FZ/DeepMatcher","top":5000}"#,
                "bad_request_body",
            ),
            (
                r#"{"model":"FZ/DeepMatcher","explain_top":99}"#,
                "bad_request_body",
            ),
            (
                r#"{"model":"FZ/DeepMatcher","num_hashes":2.5}"#,
                "bad_request_body",
            ),
            (r#"{"top":3}"#, "bad_request_body"),
        ];
        for (body, code) in cases {
            let (_, resp) = go(&registry, &req("POST", "/v1/block", body));
            assert_eq!(resp.status, 400, "{body}");
            let parsed = parse_response(&resp);
            assert_eq!(
                parsed.get("error").unwrap().get("code").unwrap().as_str(),
                Some(*code),
                "{body}"
            );
        }
        let (_, resp) = go(&registry, &req("GET", "/v1/block", ""));
        assert_eq!(resp.status, 405);
    }

    #[test]
    fn cluster_endpoint_resolves_entities_and_serves_lookups() {
        let registry = registry();
        let body = r#"{"model":"FZ/DeepMatcher","threshold":0.5,"top_clusters":3}"#;
        let (route, resp) = go(&registry, &req("POST", "/v1/cluster", body));
        assert_eq!(route, Route::Cluster);
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        let parsed = parse_response(&resp);
        assert_eq!(
            parsed.get("model").unwrap().as_str(),
            Some("FZ/DeepMatcher")
        );
        assert_eq!(
            parsed.get("clusterer").unwrap().as_str(),
            Some("components")
        );
        let entities = parsed.get("entities").unwrap().as_num().unwrap();
        assert!(entities > 0.0);
        let top = parsed.get("top").unwrap().as_arr().unwrap();
        assert!(!top.is_empty() && top.len() <= 3);
        let first = &top[0];
        assert_eq!(
            first.get("size").unwrap().as_num().unwrap() as usize,
            first.get("members").unwrap().as_arr().unwrap().len()
        );
        assert!(parsed.get("cache").unwrap().get("misses").is_some());

        // Determinism: the same request returns the same partition — and
        // the warm run's cache delta shows full score reuse.
        let (_, again) = go(&registry, &req("POST", "/v1/cluster", body));
        let again = parse_response(&again);
        for field in ["clusterer", "threshold", "entities", "largest", "top"] {
            assert_eq!(again.get(field), parsed.get(field), "{field}");
        }
        assert_eq!(
            again.get("cache").unwrap().get("hits"),
            parsed.get("cache").unwrap().get("misses"),
            "warm cluster run rescoring nothing"
        );

        // A member of the largest cluster looks up to that same cluster.
        let member = &first.get("members").unwrap().as_arr().unwrap()[0];
        let side = member.get("side").unwrap().as_str().unwrap().to_string();
        let id = member.get("id").unwrap().as_num().unwrap() as u32;
        let (route, resp) = go(
            &registry,
            &req(
                "GET",
                &format!("/v1/entity?model=FZ/DeepMatcher&side={side}&id={id}"),
                "",
            ),
        );
        assert_eq!(route, Route::Entity);
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        let looked_up = parse_response(&resp);
        assert_eq!(
            looked_up.get("size").unwrap().as_num(),
            first.get("size").unwrap().as_num()
        );
        assert_eq!(
            looked_up.get("representative").unwrap(),
            first.get("representative").unwrap()
        );

        // Both cluster runs and the lookup land in the /metrics exposition.
        let (_, metrics) = go(&registry, &req("GET", "/metrics", ""));
        let text = String::from_utf8(metrics.body).unwrap();
        assert!(text.contains("certa_serve_cluster_runs_total 2"), "{text}");
        assert!(
            text.contains("certa_serve_cluster_entity_lookups_total 1"),
            "{text}"
        );
        assert!(
            text.contains("certa_serve_cluster_partition_entities{model=\"FZ/DeepMatcher\"}"),
            "{text}"
        );
    }

    #[test]
    fn entity_endpoint_validates_and_404s_without_a_partition() {
        let registry = registry();
        let cases: &[(&str, u16, &str)] = &[
            ("/v1/entity", 400, "bad_query"),
            ("/v1/entity?side=left&id=0", 400, "bad_query"),
            ("/v1/entity?model=FZ/Ditto&side=up&id=0", 400, "bad_query"),
            ("/v1/entity?model=FZ/Ditto&side=left&id=x", 400, "bad_query"),
            (
                "/v1/entity?model=FZ/Ditto&side=left&id=0",
                404,
                "no_partition",
            ),
        ];
        for (path, status, code) in cases {
            let (_, resp) = go(&registry, &req("GET", path, ""));
            assert_eq!(resp.status, *status, "{path}");
            let parsed = parse_response(&resp);
            assert_eq!(
                parsed.get("error").unwrap().get("code").unwrap().as_str(),
                Some(*code),
                "{path}"
            );
        }
        // After clustering, an out-of-range id is a structured 404 too.
        let (_, resp) = go(
            &registry,
            &req("POST", "/v1/cluster", r#"{"model":"FZ/Ditto"}"#),
        );
        assert_eq!(resp.status, 200);
        let (_, resp) = go(
            &registry,
            &req("GET", "/v1/entity?model=FZ/Ditto&side=left&id=9999999", ""),
        );
        assert_eq!(resp.status, 404);
        let parsed = parse_response(&resp);
        assert_eq!(
            parsed.get("error").unwrap().get("code").unwrap().as_str(),
            Some("unknown_record")
        );
        // POST on the query route is a 405, like the other GET routes.
        let (_, resp) = go(&registry, &req("POST", "/v1/entity?model=FZ/Ditto", ""));
        assert_eq!(resp.status, 405);
    }

    #[test]
    fn cluster_endpoint_validates_parameters() {
        let registry = registry();
        let cases: &[(&str, &str)] = &[
            (
                r#"{"model":"FZ/Ditto","clusterer":"nope"}"#,
                "bad_clusterer",
            ),
            (
                r#"{"model":"FZ/Ditto","threshold":1.5}"#,
                "bad_request_body",
            ),
            (r#"{"model":"FZ/Ditto","workers":1000}"#, "bad_request_body"),
            (r#"{"model":"FZ/Ditto","batch":0}"#, "bad_request_body"),
            (
                r#"{"model":"FZ/Ditto","top_clusters":500}"#,
                "bad_request_body",
            ),
            (r#"{"model":"FZ/Ditto","blocker":"nope"}"#, "bad_blocker"),
            (r#"{"threshold":0.5}"#, "bad_request_body"),
        ];
        for (body, code) in cases {
            let (_, resp) = go(&registry, &req("POST", "/v1/cluster", body));
            assert_eq!(resp.status, 400, "{body}");
            let parsed = parse_response(&resp);
            assert_eq!(
                parsed.get("error").unwrap().get("code").unwrap().as_str(),
                Some(*code),
                "{body}"
            );
        }
        let (_, resp) = go(&registry, &req("GET", "/v1/cluster", ""));
        assert_eq!(resp.status, 405);
    }

    #[test]
    fn cluster_workers_do_not_change_the_bytes() {
        let registry = registry();
        let one = r#"{"model":"FZ/Ditto","workers":1}"#;
        let (_, a) = go(&registry, &req("POST", "/v1/cluster", one));
        assert_eq!(a.status, 200);
        let a = parse_response(&a);
        for other in [
            r#"{"model":"FZ/Ditto","workers":4,"batch":3}"#,
            r#"{"model":"FZ/Ditto","workers":0,"batch":5}"#,
        ] {
            let (_, b) = go(&registry, &req("POST", "/v1/cluster", other));
            assert_eq!(b.status, 200, "{other}");
            // The cache line differs between a cold and a warm run;
            // everything partition-shaped must not. Compare through the
            // parsed documents.
            let b = parse_response(&b);
            for field in [
                "clusterer",
                "threshold",
                "candidates",
                "match_edges",
                "entities",
                "non_singletons",
                "largest",
                "top",
            ] {
                assert_eq!(a.get(field), b.get(field), "{other}: {field}");
            }
        }
    }

    #[test]
    fn cluster_worker_fan_out_is_bounded_after_resolution() {
        let resolved = |body: &str| {
            let json = Json::parse(body).unwrap();
            ClusterParams::from_json(&json).unwrap().workers
        };
        // `0` resolves to one worker per core, and the ceiling bounds that
        // as it bounds an explicit count.
        let auto = resolved(r#"{"workers":0}"#);
        assert_eq!(auto, worker_count(0).min(CLUSTER_MAX_WORKERS));
        assert!((1..=CLUSTER_MAX_WORKERS).contains(&auto));
        assert_eq!(resolved(r#"{}"#), 1, "the default stays one worker");
        assert_eq!(resolved(r#"{"workers":64}"#), CLUSTER_MAX_WORKERS);
    }

    #[test]
    fn reload_hot_swaps_resolved_entries() {
        let registry = registry();
        let (_, resp) = go(&registry, &req("POST", "/v1/reload", ""));
        assert_eq!(resp.status, 200);
        let parsed = parse_response(&resp);
        assert_eq!(
            parsed.get("reloaded"),
            Some(&Json::Num(0.0)),
            "nothing resolved yet"
        );

        let before = registry.resolve("FZ/Ditto").unwrap();
        let (route, resp) = go(&registry, &req("POST", "/v1/reload", ""));
        assert_eq!(route, Route::Reload);
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        let parsed = parse_response(&resp);
        assert_eq!(parsed.get("reloaded"), Some(&Json::Num(1.0)));
        assert_eq!(
            parsed.get("models").unwrap().as_arr().unwrap()[0].as_str(),
            Some("FZ/Ditto")
        );
        let after = registry.resolve("FZ/Ditto").unwrap();
        assert!(!Arc::ptr_eq(&before, &after), "fresh entry swapped in");
        // The old Arc stays fully usable for in-flight requests, and the
        // re-resolved entry lives in the same deterministic world.
        let u = before.dataset.left().records()[0].clone();
        let v = before.dataset.right().records()[0].clone();
        assert_eq!(
            before.matcher().score(&u, &v).to_bits(),
            after.matcher().score(&u, &v).to_bits(),
            "same (scale, seed) world, same weights"
        );
        let (_, resp) = go(&registry, &req("GET", "/v1/reload", ""));
        assert_eq!(resp.status, 405);
    }

    #[test]
    fn healthz_and_models_report_state() {
        let registry = registry();
        let (_, resp) = go(&registry, &req("GET", "/healthz", ""));
        let health = parse_response(&resp);
        assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(health.get("models_loaded"), Some(&Json::Num(0.0)));
        registry.resolve("FZ/Ditto").unwrap();
        let (_, resp) = go(&registry, &req("GET", "/v1/models", ""));
        let models = parse_response(&resp);
        assert_eq!(models.get("count"), Some(&Json::Num(1.0)));
        let first = &models.get("models").unwrap().as_arr().unwrap()[0];
        assert_eq!(first.get("name").unwrap().as_str(), Some("FZ/Ditto"));
        // /metrics renders the text exposition including the cache lines.
        let (route, resp) = go(&registry, &req("GET", "/metrics", ""));
        assert_eq!(route, Route::Metrics);
        assert_eq!(resp.status, 200);
        assert_eq!(resp.content_type, "text/plain; charset=utf-8");
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains("certa_serve_uptime_seconds"));
        assert!(text.contains("certa_serve_cache_entries{model=\"FZ/Ditto\"}"));
    }
}
