//! # certa-serve
//!
//! A multi-threaded HTTP explanation service over the CERTA reproduction —
//! the serving layer that turns the paper's Algorithm 1 (and the PR-2
//! parallel batch engine behind it) into endpoints with measurable
//! throughput and tail latency. Built entirely on `std::net` plus the
//! workspace's vendored crates: no tokio, no hyper, no serde_json — the
//! build environment has no registry access, and nothing here needs more
//! than an epoll loop, a bounded job queue, and a worker pool.
//!
//! ## Architecture
//!
//! ```text
//!             ┌───────────────────────────────┐  bounded  ┌──────────────┐
//!  clients ──▶│ event loop (epoll [`reactor`])│──▶ jobs ──▶│ worker pool  │
//!             │ nonblocking accept/read/write │           │ CPU only:    │
//!             │ per-conn state machines:      │◀─ done ───│ route→encode │
//!             │  pipeline · rate limit · idle │ wake pipe └──────┬───────┘
//!             └───────────────────────────────┘                  │
//!            ┌─────────────────────────────────────────┬─────────┴─┐
//!            │ [`wire`]  JSON value model + DTOs       │           │
//!            │ [`state`] "<dataset>/<model>" registry  ├─ explain ─┤
//!            │           (datagen + models + sharded   │   batch   │
//!            │            `CachingMatcher` + `Certa`)  │  engine   │
//!            │ [`ops`]   `Counter`s, log2 latency      │           │
//!            │           histogram, `Exposition`       │           │
//!            └─────────────────────────────────────────┴───────────┘
//! ```
//!
//! Sockets never hold threads: the event loop multiplexes every
//! connection over one epoll instance, and the worker pool only ever sees
//! parsed requests, so idle keep-alive connections cannot starve it.
//!
//! * [`wire`] — a zero-dependency JSON wire format: a value model with a
//!   deterministic serializer (insertion-ordered objects, shortest-round-trip
//!   floats, `NaN`/`inf` rejected) and a hardened parser (depth-capped,
//!   never panics), plus DTOs for records, predictions, and both
//!   explanation kinds.
//! * [`state`] — the model registry. `"FZ/DeepMatcher"` lazily generates
//!   the synthetic dataset, trains the matcher family, wraps it in the
//!   sharded [`CachingMatcher`](certa_models::CachingMatcher), and pairs it
//!   with a [`Certa`](certa_explain::Certa) explainer configured from the
//!   server's `(seed, τ)`. With a `--store-dir`, the private `warm` module
//!   loads, transfers and persists models and partitions through
//!   `certa-store` instead.
//! * [`ops`] — the one typed metrics path behind `GET /metrics`: lock-free
//!   [`Counter`]s and a log2 [`LatencyHistogram`], rendered by one
//!   [`Exposition`] that owns the Prometheus text format. [`ServerMetrics`]
//!   and the [`Registry`] (per-model cache and memo, store, transfer, block
//!   and cluster accounting) each append their families through it.
//! * [`reactor`] — the zero-dependency epoll shim (raw `libc` syscalls,
//!   no crates) plus deterministic per-tenant token buckets.
//! * [`http`] / [`router`] / [`server`] — HTTP/1.1 with keep-alive,
//!   request pipelining through one incremental parser, Content-Length
//!   framing; structured JSON errors for every failure (400
//!   malformed, 413 oversized, 429 rate-limited, 503 overloaded, …);
//!   graceful shutdown over a wake pipe.
//!
//! ## Determinism guarantee
//!
//! A served explanation is **byte-identical** to serializing the in-process
//! [`Certa::explain_batch`](certa_explain::Certa::explain_batch) result for
//! the same `(dataset, model, scale, seed, τ)` through this crate's wire
//! format. The server adds no nondeterminism: the registry builds the same
//! world the experiment grid builds, the batch engine guarantees
//! schedule-independent output, and the wire format guarantees one byte
//! string per value. `certa-bench`'s `bench_serve_load` hammers a live
//! server from many client threads and fails on the first divergent byte.
//!
//! ## Quick start
//!
//! ```bash
//! cargo run --release -p certa-serve -- --port 8642 --preload FZ/DeepMatcher
//! curl -s localhost:8642/healthz
//! curl -s localhost:8642/v1/explain -d \
//!   '{"model":"FZ/DeepMatcher","pair":{"left_id":0,"right_id":0}}'
//! ```

pub mod http;
pub mod ops;
pub mod reactor;
pub mod router;
pub mod server;
pub mod state;
mod warm;
pub mod wire;

pub use http::{HttpError, Request, Response};
pub use ops::{Counter, Exposition, Kind, LatencyHistogram, Route, ServerMetrics};
pub use server::{AppState, Server};
pub use state::{ModelEntry, Registry, RegistryCounters, ServeConfig, TransferMode};
pub use wire::{Json, WireError};
