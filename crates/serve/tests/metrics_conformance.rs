//! `/metrics` conformance: every line of the exposition parses, every
//! sample sits under its own family's `# TYPE` line, no family or series
//! appears twice, and re-rendering the same state gives the same bytes.
//! Checked on an empty registry and after traffic that touches every
//! family, including the transfer and partition gauges.

use certa_datagen::{generate, DatasetId, Scale};
use certa_models::{train_model, ModelKind, TrainConfig};
use certa_serve::router::handle;
use certa_serve::{Registry, Request, ServeConfig, ServerMetrics, TransferMode};
use certa_store::ModelStore;
use std::collections::BTreeSet;
use std::time::Duration;

fn req(method: &str, target: &str, body: &str) -> Request {
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    Request {
        method: method.to_string(),
        path: path.to_string(),
        query: query.to_string(),
        headers: vec![],
        body: body.as_bytes().to_vec(),
        keep_alive: true,
    }
}

fn scrape(registry: &Registry, metrics: &ServerMetrics) -> String {
    let (_, resp) = handle(registry, metrics, &req("GET", "/metrics", ""));
    assert_eq!(resp.status, 200);
    String::from_utf8(resp.body).expect("exposition is UTF-8")
}

/// A Prometheus metric or label name: `[a-zA-Z_:][a-zA-Z0-9_:]*`.
fn is_name(s: &str) -> bool {
    let mut chars = s.chars();
    chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Check every conformance rule on one exposition and return its
/// `(families, series)` counts.
fn conform(text: &str) -> (usize, usize) {
    assert!(text.ends_with('\n'), "exposition ends with a newline");
    let mut families: Vec<(&str, &str)> = Vec::new();
    let mut series = BTreeSet::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').expect("`# TYPE <name> <kind>`");
            assert!(is_name(name), "bad family name in `{line}`");
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "bad type in `{line}`"
            );
            assert!(
                families.iter().all(|(seen, _)| *seen != name),
                "family {name} appears twice"
            );
            families.push((name, kind));
            continue;
        }
        let (key, value) = line.rsplit_once(' ').expect("`<series> <number>`");
        assert!(value.parse::<f64>().is_ok(), "bad value in `{line}`");
        let name = match key.split_once('{') {
            Some((name, labels)) => {
                let (label, quoted) = labels
                    .strip_suffix('}')
                    .and_then(|l| l.split_once('='))
                    .expect("`{<label>=\"<value>\"}`");
                assert!(is_name(label), "bad label name in `{line}`");
                let inner = quoted
                    .strip_prefix('"')
                    .and_then(|q| q.strip_suffix('"'))
                    .expect("quoted label value");
                assert!(
                    !inner.contains(['"', '\\', '\n']),
                    "unescaped label value in `{line}`"
                );
                name
            }
            None => key,
        };
        assert!(is_name(name), "bad sample name in `{line}`");
        let (family, kind) = *families.last().expect("sample before any TYPE line");
        let own = if kind == "histogram" {
            ["_bucket", "_sum", "_count"]
                .iter()
                .any(|suffix| name.strip_suffix(suffix) == Some(family))
        } else {
            name == family
        };
        assert!(own, "`{line}` sits under family {family}");
        assert!(series.insert(key), "series {key} appears twice");
    }
    (families.len(), series.len())
}

#[test]
fn metrics_exposition_conforms_before_and_after_traffic() {
    // A signed FZ/DeepMatcher donor at a sibling seed, so the first
    // FZ/DeepMatcher resolution transfers and the transfer gauges render.
    let dir = std::env::temp_dir().join(format!("certa-metrics-conform-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServeConfig {
        tau: 12,
        store_dir: Some(dir.clone()),
        transfer: TransferMode::Nearest,
        ..ServeConfig::default()
    };
    let donor_seed = config.seed + 1;
    let donor_data = generate(DatasetId::FZ, Scale::Smoke, donor_seed);
    let kind = ModelKind::DeepMatcher;
    let (donor, _) = train_model(kind, &donor_data, &TrainConfig::for_kind(kind));
    ModelStore::new(&dir)
        .save_model_signed(
            DatasetId::FZ,
            kind,
            Scale::Smoke,
            donor_seed,
            &donor,
            &donor_data,
        )
        .expect("donor saved");

    let registry = Registry::new(config);
    let metrics = ServerMetrics::default();
    let empty = scrape(&registry, &metrics);
    assert_eq!(conform(&empty), (12, 29), "{empty}");

    let traffic = [
        req(
            "POST",
            "/v1/score",
            r#"{"model":"FZ/DeepMatcher","pair":{"left_id":0,"right_id":0}}"#,
        ),
        req(
            "POST",
            "/v1/explain",
            r#"{"model":"FZ/Ditto","pair":{"left_id":0,"right_id":0}}"#,
        ),
        req(
            "POST",
            "/v1/block",
            r#"{"model":"FZ/DeepMatcher","top":5,"explain_top":1}"#,
        ),
        req(
            "POST",
            "/v1/cluster",
            r#"{"model":"FZ/DeepMatcher","threshold":0.5,"top_clusters":3}"#,
        ),
        req("GET", "/v1/entity?model=FZ/DeepMatcher&side=left&id=0", ""),
        req("GET", "/v1/models", ""),
        req("GET", "/healthz", ""),
        req("GET", "/no/such/route", ""),
        req("GET", "/v1/score", ""),
        req("POST", "/v1/score", "{not json"),
    ];
    // Doubling latencies spread the histogram over one bucket per recorded
    // (2xx, non-healthz) response.
    let statuses: Vec<u16> = traffic
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let (route, resp) = handle(&registry, &metrics, r);
            metrics.observe(route, resp.status, Duration::from_micros(50 << i));
            resp.status
        })
        .collect();
    assert_eq!(
        statuses,
        [200, 200, 200, 200, 200, 200, 200, 404, 405, 400],
        "every request lands where the scenario expects"
    );

    // All 33 families render, the transfer and partition gauges included.
    let full = scrape(&registry, &metrics);
    assert_eq!(conform(&full), (32, 61), "{full}");
    // A second render of the same state gives the same bytes, apart from
    // the wall-clock uptime: the first family's two lines.
    assert!(full.starts_with("# TYPE certa_serve_uptime_seconds gauge\n"));
    let after_uptime = |text: &str| text.splitn(3, '\n').nth(2).map(str::to_owned);
    assert_eq!(
        after_uptime(&scrape(&registry, &metrics)),
        after_uptime(&full)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
