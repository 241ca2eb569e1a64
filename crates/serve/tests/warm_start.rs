//! End-to-end warm start: a registry restarted from a `certa-store`
//! directory must serve **byte-identical** explanations to the registry
//! that trained the models — the serving half of the persistence
//! determinism contract (the codec half lives in
//! `crates/models/tests/store_props.rs`).

use certa_serve::router::handle;
use certa_serve::{Registry, Request, ServeConfig, ServerMetrics};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("certa-warmstart-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn post(path: &str, body: &str) -> Request {
    Request {
        method: "POST".to_string(),
        path: path.to_string(),
        query: String::new(),
        headers: vec![],
        body: body.as_bytes().to_vec(),
        keep_alive: true,
    }
}

#[test]
fn restarted_registry_serves_byte_identical_explanations() {
    let dir = temp_dir("e2e");
    let config = ServeConfig {
        tau: 16,
        store_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let metrics = ServerMetrics::default();
    let requests = [
        post(
            "/v1/explain",
            r#"{"model":"FZ/DeepMatcher","pair":{"left_id":0,"right_id":0}}"#,
        ),
        post(
            "/v1/explain_batch",
            r#"{"model":"FZ/DeepMatcher","pairs":[{"left_id":1,"right_id":2},{"left_id":3,"right_id":1}]}"#,
        ),
        post(
            "/v1/score",
            r#"{"model":"FZ/DeepMatcher","pair":{"left_id":2,"right_id":2}}"#,
        ),
    ];

    // Cold process: trains and persists.
    let cold = Registry::new(config.clone());
    let cold_bodies: Vec<Vec<u8>> = requests
        .iter()
        .map(|req| {
            let (_, resp) = handle(&cold, &metrics, req);
            assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
            resp.body
        })
        .collect();
    assert_eq!(
        cold.counters.store_misses.get(),
        1,
        "cold start trained once"
    );

    // Restarted process: fresh registry over the same store directory.
    let warm = Registry::new(config);
    let warm_bodies: Vec<Vec<u8>> = requests
        .iter()
        .map(|req| {
            let (_, resp) = handle(&warm, &metrics, req);
            assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
            resp.body
        })
        .collect();
    let c = &warm.counters;
    assert_eq!(
        (c.store_hits.get(), c.store_misses.get()),
        (1, 0),
        "warm start must load, not retrain"
    );
    assert!(c.store_load_micros.get() > 0, "load latency was measured");

    for (i, (cold_body, warm_body)) in cold_bodies.iter().zip(&warm_bodies).enumerate() {
        assert_eq!(
            cold_body, warm_body,
            "request {i}: warm-started explanation bytes diverged"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
