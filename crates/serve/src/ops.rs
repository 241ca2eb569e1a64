//! Operational counters: lock-free request/response accounting and a
//! log2-bucketed latency histogram, rendered through `GET /healthz` and
//! `GET /metrics`.
//!
//! Everything here is atomics — the hot path (one `record` per response)
//! never takes a lock, so ops accounting cannot become the serving
//! bottleneck it is meant to observe.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Number of histogram buckets. Bucket `i` counts latencies in
/// `[2^(i-1), 2^i)` microseconds (bucket 0 is `< 1µs`); bucket 39 tops out
/// above 9 minutes, far beyond any plausible request.
pub const BUCKETS: usize = 40;

/// A log2-bucketed latency histogram over microseconds.
///
/// Quantile queries return the *upper bound* of the bucket containing the
/// requested rank — a ≤2× overestimate by construction, which is the right
/// bias for tail-latency monitoring (never under-reports). Exact
/// percentiles come from the load-generator harness, which keeps raw
/// samples; the server-side histogram is bounded-memory by design.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_micros: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_micros: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Bucket index for a duration.
    fn bucket_of(d: Duration) -> usize {
        let micros = d.as_micros().min(u64::MAX as u128) as u64;
        ((64 - micros.leading_zeros()) as usize).min(BUCKETS - 1)
    }

    /// Upper bound (µs) of bucket `i`.
    fn upper_bound_micros(i: usize) -> u64 {
        1u64 << i
    }

    /// Record one observation.
    pub fn record(&self, d: Duration) {
        let micros = d.as_micros().min(u64::MAX as u128) as u64;
        // certa-lint: allow(no-panic-path) — bucket_of clamps to BUCKETS - 1, so the index is in range by construction
        self.buckets[Self::bucket_of(d)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean latency in microseconds (0 when empty).
    pub fn mean_micros(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum_micros.load(Ordering::Relaxed) as f64 / n as f64
        }
    }

    /// Upper bound (µs) of the bucket holding the `q`-quantile observation
    /// (`q` in `[0, 1]`); 0 when empty.
    pub fn quantile_micros(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return Self::upper_bound_micros(i);
            }
        }
        Self::upper_bound_micros(BUCKETS - 1)
    }

    /// Snapshot of the non-empty buckets as `(upper_bound_micros, count)`.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then_some((Self::upper_bound_micros(i), n))
            })
            .collect()
    }

    /// Total of all recorded latencies, in microseconds (the Prometheus
    /// histogram `_sum` series).
    pub fn sum_micros(&self) -> u64 {
        self.sum_micros.load(Ordering::Relaxed)
    }

    /// Prometheus-style **cumulative** bucket snapshot: for each non-empty
    /// bucket's upper bound, the count of observations `≤` that bound.
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                seen += n;
                out.push((Self::upper_bound_micros(i), seen));
            }
        }
        out
    }
}

/// The routes with dedicated counters (everything else lands in `Other`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `POST /v1/score`
    Score,
    /// `POST /v1/score_batch`
    ScoreBatch,
    /// `POST /v1/explain`
    Explain,
    /// `POST /v1/explain_batch`
    ExplainBatch,
    /// `POST /v1/block`
    Block,
    /// `POST /v1/cluster`
    Cluster,
    /// `GET /v1/entity`
    Entity,
    /// `GET /v1/models`
    Models,
    /// `POST /v1/reload`
    Reload,
    /// `GET /healthz`
    Healthz,
    /// `GET /metrics`
    Metrics,
    /// Anything else (404s, bad methods, …).
    Other,
}

impl Route {
    const ALL: [Route; 12] = [
        Route::Score,
        Route::ScoreBatch,
        Route::Explain,
        Route::ExplainBatch,
        Route::Block,
        Route::Cluster,
        Route::Entity,
        Route::Models,
        Route::Reload,
        Route::Healthz,
        Route::Metrics,
        Route::Other,
    ];

    /// Position in [`Route::ALL`]; the `route_index_matches_all` test pins
    /// the correspondence.
    fn index(self) -> usize {
        match self {
            Route::Score => 0,
            Route::ScoreBatch => 1,
            Route::Explain => 2,
            Route::ExplainBatch => 3,
            Route::Block => 4,
            Route::Cluster => 5,
            Route::Entity => 6,
            Route::Models => 7,
            Route::Reload => 8,
            Route::Healthz => 9,
            Route::Metrics => 10,
            Route::Other => 11,
        }
    }

    /// Metric label for this route.
    pub fn label(self) -> &'static str {
        match self {
            Route::Score => "score",
            Route::ScoreBatch => "score_batch",
            Route::Explain => "explain",
            Route::ExplainBatch => "explain_batch",
            Route::Block => "block",
            Route::Cluster => "cluster",
            Route::Entity => "entity",
            Route::Models => "models",
            Route::Reload => "reload",
            Route::Healthz => "healthz",
            Route::Metrics => "metrics",
            Route::Other => "other",
        }
    }
}

/// All serving-layer counters, shared across workers via `Arc<AppState>`.
#[derive(Debug)]
pub struct ServerMetrics {
    started: Instant,
    connections_accepted: AtomicU64,
    overload_rejections: AtomicU64,
    worker_panics: AtomicU64,
    conn_timeouts: AtomicU64,
    conn_resets: AtomicU64,
    conn_pipeline_overflows: AtomicU64,
    rate_limited: AtomicU64,
    streamed_responses: AtomicU64,
    requests_by_route: [AtomicU64; 12],
    responses_2xx: AtomicU64,
    responses_4xx: AtomicU64,
    responses_5xx: AtomicU64,
    /// Latency of successfully routed API requests (2xx responses).
    pub latency: LatencyHistogram,
}

impl Default for ServerMetrics {
    fn default() -> Self {
        ServerMetrics {
            started: Instant::now(),
            connections_accepted: AtomicU64::new(0),
            overload_rejections: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            conn_timeouts: AtomicU64::new(0),
            conn_resets: AtomicU64::new(0),
            conn_pipeline_overflows: AtomicU64::new(0),
            rate_limited: AtomicU64::new(0),
            streamed_responses: AtomicU64::new(0),
            requests_by_route: Default::default(),
            responses_2xx: AtomicU64::new(0),
            responses_4xx: AtomicU64::new(0),
            responses_5xx: AtomicU64::new(0),
            latency: LatencyHistogram::default(),
        }
    }
}

impl ServerMetrics {
    /// Uptime since construction.
    pub fn uptime(&self) -> Duration {
        self.started.elapsed()
    }

    /// One accepted connection.
    pub fn connection_accepted(&self) {
        self.connections_accepted.fetch_add(1, Ordering::Relaxed);
    }

    /// One connection turned away with `503` because the queue was full.
    pub fn overload_rejected(&self) {
        self.overload_rejections.fetch_add(1, Ordering::Relaxed);
    }

    /// Total `503` overload rejections so far.
    pub fn overload_rejections(&self) -> u64 {
        self.overload_rejections.load(Ordering::Relaxed)
    }

    /// A worker caught a panic while handling a connection.
    pub fn worker_panicked(&self) {
        self.worker_panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Total worker panics caught (0 in a healthy server).
    pub fn worker_panics(&self) -> u64 {
        self.worker_panics.load(Ordering::Relaxed)
    }

    /// One keep-alive connection reaped after idling past the read timeout.
    pub fn conn_timed_out(&self) {
        self.conn_timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Total idle-timeout reaps.
    pub fn conn_timeouts(&self) -> u64 {
        self.conn_timeouts.load(Ordering::Relaxed)
    }

    /// One connection torn down by a transport error (reset, broken pipe,
    /// write failure) rather than an orderly close.
    pub fn conn_reset(&self) {
        self.conn_resets.fetch_add(1, Ordering::Relaxed);
    }

    /// Total transport-error teardowns.
    pub fn conn_resets(&self) -> u64 {
        self.conn_resets.load(Ordering::Relaxed)
    }

    /// One connection hit the per-connection pipelining cap and had its
    /// socket reads paused until responses drained (TCP backpressure).
    pub fn conn_pipeline_overflowed(&self) {
        self.conn_pipeline_overflows.fetch_add(1, Ordering::Relaxed);
    }

    /// Total pipelining-cap backpressure events.
    pub fn conn_pipeline_overflows(&self) -> u64 {
        self.conn_pipeline_overflows.load(Ordering::Relaxed)
    }

    /// One request refused with `429` by per-tenant admission control.
    pub fn rate_limited_rejected(&self) {
        self.rate_limited.fetch_add(1, Ordering::Relaxed);
    }

    /// Total `429` rate-limit rejections.
    pub fn rate_limited(&self) -> u64 {
        self.rate_limited.load(Ordering::Relaxed)
    }

    /// One response streamed with chunked transfer-encoding.
    pub fn response_streamed(&self) {
        self.streamed_responses.fetch_add(1, Ordering::Relaxed);
    }

    /// Total chunked-streamed responses.
    pub fn streamed_responses(&self) -> u64 {
        self.streamed_responses.load(Ordering::Relaxed)
    }

    /// Account one routed request and its response status; `latency` is
    /// recorded for non-error API responses only. Only 4xx and 5xx are
    /// error classes — anything else (2xx today; 1xx/3xx should a handler
    /// ever emit one) counts as success rather than inflating the 5xx
    /// error-rate counter.
    pub fn observe(&self, route: Route, status: u16, latency: Duration) {
        if let Some(counter) = self.requests_by_route.get(route.index()) {
            counter.fetch_add(1, Ordering::Relaxed);
        }
        match status / 100 {
            4 => {
                self.responses_4xx.fetch_add(1, Ordering::Relaxed);
            }
            5 => {
                self.responses_5xx.fetch_add(1, Ordering::Relaxed);
            }
            _ => {
                self.responses_2xx.fetch_add(1, Ordering::Relaxed);
                if !matches!(route, Route::Healthz | Route::Metrics) {
                    self.latency.record(latency);
                }
            }
        }
    }

    /// Total requests observed across routes.
    pub fn requests_total(&self) -> u64 {
        self.requests_by_route
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Responses in the given status class (2, 4, or 5).
    pub fn responses_in_class(&self, class: u16) -> u64 {
        match class {
            2 => self.responses_2xx.load(Ordering::Relaxed),
            4 => self.responses_4xx.load(Ordering::Relaxed),
            _ => self.responses_5xx.load(Ordering::Relaxed),
        }
    }

    /// Render the Prometheus-style text exposition, with per-model cache
    /// lines appended by the caller (the registry owns those).
    pub fn render_prometheus(&self, extra_lines: &str) -> String {
        let mut out = String::with_capacity(2048);
        let p = "certa_serve";
        // certa-lint: allow(no-float-format) — monitoring gauge, not byte-compared wire output; f64 Display is shortest-round-trip
        out.push_str(&format!(
            "# TYPE {p}_uptime_seconds gauge\n{p}_uptime_seconds {}\n",
            self.uptime().as_secs_f64()
        ));
        out.push_str(&format!(
            "# TYPE {p}_connections_accepted_total counter\n{p}_connections_accepted_total {}\n",
            self.connections_accepted.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(
            "# TYPE {p}_overload_rejections_total counter\n{p}_overload_rejections_total {}\n",
            self.overload_rejections()
        ));
        out.push_str(&format!(
            "# TYPE {p}_worker_panics_total counter\n{p}_worker_panics_total {}\n",
            self.worker_panics()
        ));
        // Connection-lifecycle accounting — every abnormal teardown is a
        // counter, so dropped-connection debugging starts at /metrics.
        out.push_str(&format!(
            "# TYPE {p}_conn_timeouts_total counter\n{p}_conn_timeouts_total {}\n",
            self.conn_timeouts()
        ));
        out.push_str(&format!(
            "# TYPE {p}_conn_resets_total counter\n{p}_conn_resets_total {}\n",
            self.conn_resets()
        ));
        out.push_str(&format!(
            "# TYPE {p}_conn_pipeline_overflows_total counter\n{p}_conn_pipeline_overflows_total {}\n",
            self.conn_pipeline_overflows()
        ));
        out.push_str(&format!(
            "# TYPE {p}_rate_limited_total counter\n{p}_rate_limited_total {}\n",
            self.rate_limited()
        ));
        out.push_str(&format!(
            "# TYPE {p}_streamed_responses_total counter\n{p}_streamed_responses_total {}\n",
            self.streamed_responses()
        ));
        out.push_str(&format!("# TYPE {p}_requests_total counter\n"));
        for route in Route::ALL {
            let n = self
                .requests_by_route
                .get(route.index())
                .map_or(0, |c| c.load(Ordering::Relaxed));
            out.push_str(&format!(
                "{p}_requests_total{{route=\"{}\"}} {}\n",
                route.label(),
                n
            ));
        }
        out.push_str(&format!("# TYPE {p}_responses_total counter\n"));
        for (class, n) in [
            ("2xx", self.responses_2xx.load(Ordering::Relaxed)),
            ("4xx", self.responses_4xx.load(Ordering::Relaxed)),
            ("5xx", self.responses_5xx.load(Ordering::Relaxed)),
        ] {
            out.push_str(&format!("{p}_responses_total{{class=\"{class}\"}} {n}\n"));
        }
        // Conformant Prometheus histogram: cumulative buckets ending in
        // `+Inf`, plus `_sum` and `_count` (so `histogram_quantile` and
        // avg-latency queries work on a real Prometheus server).
        out.push_str(&format!("# TYPE {p}_request_latency_micros histogram\n"));
        for (le, cumulative) in self.latency.cumulative_buckets() {
            out.push_str(&format!(
                "{p}_request_latency_micros_bucket{{le=\"{le}\"}} {cumulative}\n"
            ));
        }
        out.push_str(&format!(
            "{p}_request_latency_micros_bucket{{le=\"+Inf\"}} {}\n{p}_request_latency_micros_sum {}\n{p}_request_latency_micros_count {}\n",
            self.latency.count(),
            self.latency.sum_micros(),
            self.latency.count(),
        ));
        // Server-side quantile estimates (bucket upper bounds, ≤2× high) as
        // a separate gauge — quantile labels belong to summaries, not
        // histograms, so they get their own series name.
        out.push_str(&format!(
            "# TYPE {p}_request_latency_quantile_micros gauge\n"
        ));
        for (q, label) in [(0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
            out.push_str(&format!(
                "{p}_request_latency_quantile_micros{{quantile=\"{label}\"}} {}\n",
                self.latency.quantile_micros(q)
            ));
        }
        out.push_str(extra_lines);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_index_matches_all() {
        for (i, route) in Route::ALL.into_iter().enumerate() {
            assert_eq!(route.index(), i, "{:?} out of place in Route::ALL", route);
        }
    }

    #[test]
    fn histogram_buckets_by_log2_micros() {
        let h = LatencyHistogram::default();
        assert_eq!(h.quantile_micros(0.5), 0, "empty histogram");
        h.record(Duration::from_micros(0)); // bucket 0
        h.record(Duration::from_micros(1)); // bucket 1 (le=2)
        h.record(Duration::from_micros(3)); // bucket 2 (le=4)
        h.record(Duration::from_micros(1000)); // le=1024
        assert_eq!(h.count(), 4);
        assert_eq!(h.mean_micros(), 251.0);
        assert_eq!(h.sum_micros(), 1004);
        assert_eq!(
            h.cumulative_buckets(),
            vec![(1, 1), (2, 2), (4, 3), (1024, 4)],
            "Prometheus buckets are cumulative"
        );
        assert_eq!(h.nonzero_buckets(), vec![(1, 1), (2, 1), (4, 1), (1024, 1)]);
        assert_eq!(h.quantile_micros(0.0), 1);
        assert_eq!(h.quantile_micros(0.5), 2);
        assert_eq!(h.quantile_micros(1.0), 1024);
    }

    #[test]
    fn quantiles_never_under_report() {
        let h = LatencyHistogram::default();
        for micros in [10u64, 20, 30, 40, 50, 1000, 2000, 5000, 100_000, 400_000] {
            h.record(Duration::from_micros(micros));
        }
        // Upper-bound semantics: the bucket bound is ≥ the true value.
        assert!(h.quantile_micros(0.5) >= 30);
        assert!(h.quantile_micros(0.99) >= 400_000);
        // And within 2× by construction.
        assert!(h.quantile_micros(0.99) < 2 * 524_288);
    }

    #[test]
    fn huge_durations_saturate_the_top_bucket() {
        let h = LatencyHistogram::default();
        // ~7 days in microseconds lands beyond bucket 39's lower bound …
        h.record(Duration::from_secs(600_000));
        // … and a value that would overflow u64 microseconds saturates.
        h.record(Duration::from_secs(u64::MAX / 1000));
        assert_eq!(h.count(), 2);
        assert_eq!(h.nonzero_buckets(), vec![(1u64 << (BUCKETS - 1), 2)]);
        assert_eq!(h.quantile_micros(1.0), 1u64 << (BUCKETS - 1));
    }

    #[test]
    fn metrics_account_routes_and_classes() {
        let m = ServerMetrics::default();
        m.connection_accepted();
        m.observe(Route::Explain, 200, Duration::from_micros(500));
        m.observe(Route::Score, 200, Duration::from_micros(100));
        m.observe(Route::Healthz, 200, Duration::from_micros(5));
        m.observe(Route::Other, 404, Duration::from_micros(5));
        m.observe(Route::Explain, 500, Duration::from_micros(5));
        m.overload_rejected();
        assert_eq!(m.requests_total(), 5);
        assert_eq!(m.responses_in_class(2), 3);
        assert_eq!(m.responses_in_class(4), 1);
        assert_eq!(m.responses_in_class(5), 1);
        assert_eq!(m.overload_rejections(), 1);
        assert_eq!(
            m.latency.count(),
            2,
            "healthz and errors stay out of the API latency histogram"
        );
        let text = m.render_prometheus("certa_serve_cache_hits_total{model=\"x\"} 3\n");
        assert!(text.contains("certa_serve_requests_total{route=\"explain\"} 2"));
        assert!(text.contains("certa_serve_responses_total{class=\"5xx\"} 1"));
        assert!(text.contains("certa_serve_overload_rejections_total 1"));
        // Conformant histogram: cumulative buckets end in +Inf and _sum /
        // _count are present; quantiles live on their own gauge series.
        assert!(text.contains("certa_serve_request_latency_micros_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("certa_serve_request_latency_micros_sum 600"));
        assert!(text.contains("certa_serve_request_latency_micros_count 2"));
        assert!(text.contains("certa_serve_request_latency_quantile_micros{quantile=\"0.99\"}"));
        assert!(text.ends_with("certa_serve_cache_hits_total{model=\"x\"} 3\n"));
    }

    #[test]
    fn connection_lifecycle_counters_render() {
        let m = ServerMetrics::default();
        m.conn_timed_out();
        m.conn_timed_out();
        m.conn_reset();
        m.conn_pipeline_overflowed();
        m.rate_limited_rejected();
        m.response_streamed();
        assert_eq!(m.conn_timeouts(), 2);
        assert_eq!(m.conn_resets(), 1);
        assert_eq!(m.conn_pipeline_overflows(), 1);
        assert_eq!(m.rate_limited(), 1);
        assert_eq!(m.streamed_responses(), 1);
        let text = m.render_prometheus("");
        assert!(text.contains("certa_serve_conn_timeouts_total 2"));
        assert!(text.contains("certa_serve_conn_resets_total 1"));
        assert!(text.contains("certa_serve_conn_pipeline_overflows_total 1"));
        assert!(text.contains("certa_serve_rate_limited_total 1"));
        assert!(text.contains("certa_serve_streamed_responses_total 1"));
    }

    #[test]
    fn observe_counts_only_4xx_and_5xx_as_errors() {
        let m = ServerMetrics::default();
        m.observe(Route::Metrics, 304, Duration::from_micros(5));
        assert_eq!(m.responses_in_class(2), 1, "3xx is not an error class");
        assert_eq!(m.responses_in_class(5), 0);
    }
}
