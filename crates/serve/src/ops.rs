//! Operational counters and their one renderer: lock-free [`Counter`]s, a
//! log2-bucketed [`LatencyHistogram`], and the [`Exposition`] that turns
//! them into the Prometheus text of `GET /metrics`.
//!
//! Everything here is atomics — the hot path (one `observe` per response)
//! never takes a lock, so ops accounting cannot become the serving
//! bottleneck it is meant to observe. The text format lives only in
//! [`Exposition`] and its [`Sample`] values: the `# TYPE` line, the label
//! syntax and float-to-text conversion each have exactly one
//! implementation.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A monotonically increasing count behind one relaxed atomic.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

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
    buckets: [Counter; BUCKETS],
    count: Counter,
    sum_micros: Counter,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| Counter::default()),
            count: Counter::default(),
            sum_micros: Counter::default(),
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
        self.buckets[Self::bucket_of(d)].inc();
        self.count.inc();
        self.sum_micros.add(micros);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.get()
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
            seen += bucket.get();
            if seen >= rank {
                return Self::upper_bound_micros(i);
            }
        }
        Self::upper_bound_micros(BUCKETS - 1)
    }

    /// Total of all recorded latencies, in microseconds (the Prometheus
    /// histogram `_sum` series).
    pub fn sum_micros(&self) -> u64 {
        self.sum_micros.get()
    }

    /// Prometheus-style **cumulative** bucket snapshot: for each non-empty
    /// bucket's upper bound, the count of observations `≤` that bound.
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.get();
            if n > 0 {
                seen += n;
                out.push((Self::upper_bound_micros(i), seen));
            }
        }
        out
    }
}

/// The Prometheus type of an unlabeled series or a one-label family.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// Only ever goes up (`…_total`).
    Counter,
    /// Can go up and down.
    Gauge,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
        }
    }
}

/// One sample's value: an exact count or a float reading.
#[derive(Debug, Clone, Copy)]
pub enum Sample {
    /// An integer count or size, rendered exactly.
    Int(u64),
    /// A float reading (seconds, similarity, F1).
    Float(f64),
}

impl From<u64> for Sample {
    fn from(n: u64) -> Self {
        Sample::Int(n)
    }
}

impl From<usize> for Sample {
    fn from(n: usize) -> Self {
        Sample::Int(n as u64)
    }
}

impl From<f64> for Sample {
    fn from(x: f64) -> Self {
        Sample::Float(x)
    }
}

impl From<&Counter> for Sample {
    fn from(c: &Counter) -> Self {
        Sample::Int(c.get())
    }
}

impl std::fmt::Display for Sample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Sample::Int(n) => write!(f, "{n}"),
            // The exposition's one float-to-text conversion: monitoring
            // values are not byte-compared wire output, and f64 `Display`
            // is shortest-round-trip without exponent notation.
            Sample::Float(x) => write!(f, "{x}"),
        }
    }
}

/// The Prometheus text exposition, built one family at a time. Each call
/// appends a `# TYPE` line followed by that family's samples, so families
/// render in call order.
#[derive(Debug, Default)]
pub struct Exposition {
    text: String,
}

impl Exposition {
    /// One unlabeled counter or gauge.
    pub fn scalar(&mut self, kind: Kind, name: &str, value: impl Into<Sample>) {
        self.type_line(name, kind.as_str());
        self.sample(name, None, value.into());
    }

    /// A counter or gauge family with one label, one sample per
    /// `(label value, sample)` pair in iteration order. An empty family
    /// renders nothing, not even its `# TYPE` line.
    pub fn family<L: AsRef<str>, V: Into<Sample>>(
        &mut self,
        kind: Kind,
        name: &str,
        label: &str,
        series: impl IntoIterator<Item = (L, V)>,
    ) {
        let mut series = series.into_iter().peekable();
        if series.peek().is_none() {
            return;
        }
        self.type_line(name, kind.as_str());
        for (value, sample) in series {
            self.sample(name, Some((label, value.as_ref())), sample.into());
        }
    }

    /// A log2 latency histogram: cumulative `_bucket` samples for the
    /// non-empty buckets ending in `le="+Inf"`, then `_sum` and `_count`
    /// (so `histogram_quantile` and average-latency queries work on a real
    /// Prometheus server).
    pub fn histogram(&mut self, name: &str, h: &LatencyHistogram) {
        self.type_line(name, "histogram");
        let bucket = format!("{name}_bucket");
        for (le, cumulative) in h.cumulative_buckets() {
            self.sample(&bucket, Some(("le", &le.to_string())), cumulative.into());
        }
        self.sample(&bucket, Some(("le", "+Inf")), h.count().into());
        self.sample(&format!("{name}_sum"), None, h.sum_micros().into());
        self.sample(&format!("{name}_count"), None, h.count().into());
    }

    /// The finished exposition text.
    pub fn into_text(self) -> String {
        self.text
    }

    fn type_line(&mut self, name: &str, kind: &str) {
        let _ = writeln!(self.text, "# TYPE {name} {kind}");
    }

    fn sample(&mut self, name: &str, label: Option<(&str, &str)>, value: Sample) {
        let _ = match label {
            Some((key, v)) => writeln!(self.text, "{name}{{{key}=\"{v}\"}} {value}"),
            None => writeln!(self.text, "{name} {value}"),
        };
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
    /// Every route in declaration order, so `route as usize` indexes it.
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

/// Process start time, the zero of `certa_serve_uptime_seconds`.
#[derive(Debug)]
struct Started(Instant);

impl Default for Started {
    fn default() -> Self {
        Started(Instant::now())
    }
}

/// All serving-layer counters, shared across workers via `Arc<AppState>`.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    started: Started,
    /// Connections accepted.
    pub connections_accepted: Counter,
    /// Connections or requests turned away with `503` because a queue was
    /// full.
    pub overload_rejections: Counter,
    /// Panics a worker caught while handling a request (0 in a healthy
    /// server).
    pub worker_panics: Counter,
    /// Keep-alive connections reaped after idling past the read timeout.
    pub conn_timeouts: Counter,
    /// Connections torn down by a transport error (reset, broken pipe,
    /// write failure) rather than an orderly close.
    pub conn_resets: Counter,
    /// Times a connection hit the per-connection pipelining cap and had its
    /// socket reads paused until responses drained (TCP backpressure).
    pub conn_pipeline_overflows: Counter,
    /// Requests refused with `429` by per-tenant admission control.
    pub rate_limited: Counter,
    requests_by_route: [Counter; 12],
    responses_2xx: Counter,
    responses_4xx: Counter,
    responses_5xx: Counter,
    /// Latency of successfully routed API requests (2xx responses).
    pub latency: LatencyHistogram,
}

impl ServerMetrics {
    /// Uptime since construction.
    pub fn uptime(&self) -> Duration {
        self.started.0.elapsed()
    }

    /// Account one routed request and its response status; `latency` is
    /// recorded for non-error API responses only. Only 4xx and 5xx are
    /// error classes — anything else (2xx today; 1xx/3xx should a handler
    /// ever emit one) counts as success rather than inflating the 5xx
    /// error-rate counter.
    pub fn observe(&self, route: Route, status: u16, latency: Duration) {
        if let Some(counter) = self.requests_by_route.get(route as usize) {
            counter.inc();
        }
        match status / 100 {
            4 => self.responses_4xx.inc(),
            5 => self.responses_5xx.inc(),
            _ => {
                self.responses_2xx.inc();
                if !matches!(route, Route::Healthz | Route::Metrics) {
                    self.latency.record(latency);
                }
            }
        }
    }

    /// Append the serving-layer families: uptime, connection lifecycle,
    /// requests by route, responses by status class and request latency.
    pub fn render(&self, out: &mut Exposition) {
        out.scalar(
            Kind::Gauge,
            "certa_serve_uptime_seconds",
            self.uptime().as_secs_f64(),
        );
        // Connection lifecycle: every abnormal teardown is counted, so
        // dropped-connection debugging starts at /metrics.
        for (name, counter) in [
            (
                "certa_serve_connections_accepted_total",
                &self.connections_accepted,
            ),
            (
                "certa_serve_overload_rejections_total",
                &self.overload_rejections,
            ),
            ("certa_serve_worker_panics_total", &self.worker_panics),
            ("certa_serve_conn_timeouts_total", &self.conn_timeouts),
            ("certa_serve_conn_resets_total", &self.conn_resets),
            (
                "certa_serve_conn_pipeline_overflows_total",
                &self.conn_pipeline_overflows,
            ),
            ("certa_serve_rate_limited_total", &self.rate_limited),
        ] {
            out.scalar(Kind::Counter, name, counter);
        }
        out.family(
            Kind::Counter,
            "certa_serve_requests_total",
            "route",
            Route::ALL
                .iter()
                .zip(&self.requests_by_route)
                .map(|(route, n)| (route.label(), n)),
        );
        out.family(
            Kind::Counter,
            "certa_serve_responses_total",
            "class",
            [
                ("2xx", &self.responses_2xx),
                ("4xx", &self.responses_4xx),
                ("5xx", &self.responses_5xx),
            ],
        );
        out.histogram("certa_serve_request_latency_micros", &self.latency);
        // Server-side quantile estimates (bucket upper bounds, ≤2× high) as
        // a separate gauge — quantile labels belong to summaries, not
        // histograms, so they get their own series name.
        out.family(
            Kind::Gauge,
            "certa_serve_request_latency_quantile_micros",
            "quantile",
            [("0.5", 0.5), ("0.95", 0.95), ("0.99", 0.99)]
                .map(|(label, q)| (label, self.latency.quantile_micros(q))),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exposition(m: &ServerMetrics) -> String {
        let mut out = Exposition::default();
        m.render(&mut out);
        out.into_text()
    }

    #[test]
    fn route_index_matches_all() {
        for (i, route) in Route::ALL.into_iter().enumerate() {
            assert_eq!(route as usize, i, "{:?} out of place in Route::ALL", route);
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
        assert_eq!(h.sum_micros(), 1004);
        assert_eq!(
            h.cumulative_buckets(),
            vec![(1, 1), (2, 2), (4, 3), (1024, 4)],
            "Prometheus buckets are cumulative"
        );
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
        assert_eq!(h.cumulative_buckets(), vec![(1u64 << (BUCKETS - 1), 2)]);
        assert_eq!(h.quantile_micros(1.0), 1u64 << (BUCKETS - 1));
    }

    #[test]
    fn exposition_renders_types_labels_and_values() {
        let mut out = Exposition::default();
        out.scalar(Kind::Counter, "a_total", 3u64);
        out.scalar(Kind::Gauge, "b_seconds", 0.25);
        out.family(Kind::Gauge, "c", "model", [("x/y", 1.0), ("z", 0.5)]);
        out.family(
            Kind::Counter,
            "empty_total",
            "model",
            Vec::<(&str, u64)>::new(),
        );
        let h = LatencyHistogram::default();
        h.record(Duration::from_micros(3));
        out.histogram("d_micros", &h);
        assert_eq!(
            out.into_text(),
            "# TYPE a_total counter\na_total 3\n\
             # TYPE b_seconds gauge\nb_seconds 0.25\n\
             # TYPE c gauge\nc{model=\"x/y\"} 1\nc{model=\"z\"} 0.5\n\
             # TYPE d_micros histogram\n\
             d_micros_bucket{le=\"4\"} 1\nd_micros_bucket{le=\"+Inf\"} 1\n\
             d_micros_sum 3\nd_micros_count 1\n",
            "an empty family renders no lines at all"
        );
    }

    #[test]
    fn metrics_account_routes_and_classes() {
        let m = ServerMetrics::default();
        m.connections_accepted.inc();
        m.observe(Route::Explain, 200, Duration::from_micros(500));
        m.observe(Route::Score, 200, Duration::from_micros(100));
        m.observe(Route::Healthz, 200, Duration::from_micros(5));
        m.observe(Route::Other, 404, Duration::from_micros(5));
        m.observe(Route::Explain, 500, Duration::from_micros(5));
        m.overload_rejections.inc();
        let routed: u64 = m.requests_by_route.iter().map(Counter::get).sum();
        assert_eq!(routed, 5);
        let classes = [&m.responses_2xx, &m.responses_4xx, &m.responses_5xx].map(Counter::get);
        assert_eq!(classes, [3, 1, 1]);
        assert_eq!(
            m.latency.count(),
            2,
            "healthz and errors stay out of the API latency histogram"
        );
        let text = exposition(&m);
        assert!(text.contains("certa_serve_requests_total{route=\"explain\"} 2"));
        assert!(text.contains("certa_serve_responses_total{class=\"5xx\"} 1"));
        assert!(text.contains("certa_serve_overload_rejections_total 1"));
        assert!(text.contains("certa_serve_connections_accepted_total 1"));
        // Conformant histogram: cumulative buckets end in +Inf and _sum /
        // _count are present; quantiles live on their own gauge series.
        assert!(text.contains("certa_serve_request_latency_micros_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("certa_serve_request_latency_micros_sum 600"));
        assert!(text.contains("certa_serve_request_latency_micros_count 2"));
        assert!(text.contains("certa_serve_request_latency_quantile_micros{quantile=\"0.99\"} 512"));
    }

    #[test]
    fn connection_lifecycle_counters_render() {
        let m = ServerMetrics::default();
        m.conn_timeouts.add(2);
        m.conn_resets.inc();
        m.conn_pipeline_overflows.inc();
        m.rate_limited.inc();
        let text = exposition(&m);
        assert!(text.contains("certa_serve_conn_timeouts_total 2"));
        assert!(text.contains("certa_serve_conn_resets_total 1"));
        assert!(text.contains("certa_serve_conn_pipeline_overflows_total 1"));
        assert!(text.contains("certa_serve_rate_limited_total 1"));
    }

    #[test]
    fn observe_counts_only_4xx_and_5xx_as_errors() {
        let m = ServerMetrics::default();
        m.observe(Route::Metrics, 304, Duration::from_micros(5));
        assert_eq!(m.responses_2xx.get(), 1, "3xx is not an error class");
        assert_eq!(m.responses_5xx.get(), 0);
    }
}
