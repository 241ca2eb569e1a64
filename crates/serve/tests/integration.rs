//! End-to-end tests: a real `certa-serve` on a loopback port, driven over
//! raw TCP — request framing, keep-alive, the determinism guarantee
//! (served bytes ≡ in-process bytes), structured error responses for
//! malformed/oversized bodies, and ops endpoints.

use certa_serve::router::explain_response_bytes;
use certa_serve::wire::Json;
use certa_serve::{ServeConfig, Server};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::OnceLock;
use std::time::Duration;

/// One server shared by every test in this file (training even a smoke
/// model costs seconds; the tests exercise orthogonal paths of one live
/// instance, each on its own connection).
fn server() -> &'static Server {
    static SERVER: OnceLock<Server> = OnceLock::new();
    SERVER.get_or_init(|| {
        let server = Server::bind(
            ServeConfig {
                tau: 12,
                max_body_bytes: 64 * 1024,
                read_timeout: Duration::from_secs(2),
                ..ServeConfig::default()
            },
            "127.0.0.1:0",
        )
        .expect("bind loopback");
        // Preload so individual tests don't race the first training run.
        server
            .state()
            .registry
            .resolve("FZ/DeepMatcher")
            .expect("preload");
        server
    })
}

struct Reply {
    status: u16,
    headers: String,
    body: Vec<u8>,
}

impl Reply {
    fn json(&self) -> Json {
        Json::parse(std::str::from_utf8(&self.body).expect("utf8 body")).expect("json body")
    }

    fn error_code(&self) -> String {
        self.json()
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(|c| c.as_str())
            .unwrap_or_default()
            .to_string()
    }
}

/// Read one `Content-Length`-framed HTTP response off the stream.
fn read_reply(s: &mut TcpStream) -> Reply {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        s.read_exact(&mut byte).expect("response head");
        head.push(byte[0]);
    }
    let head = String::from_utf8_lossy(&head).into_owned();
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .expect("numeric status");
    let len: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("content-length:"))
        .expect("content-length header")
        .trim()
        .parse()
        .expect("numeric length");
    let mut body = vec![0u8; len];
    s.read_exact(&mut body).expect("response body");
    Reply {
        status,
        headers: head,
        body,
    }
}

fn connect() -> TcpStream {
    let s = TcpStream::connect(server().addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    s
}

fn post(s: &mut TcpStream, path: &str, body: &str) -> Reply {
    write!(
        s,
        "POST {path} HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("write request");
    read_reply(s)
}

fn get(s: &mut TcpStream, path: &str) -> Reply {
    write!(s, "GET {path} HTTP/1.1\r\n\r\n").expect("write request");
    read_reply(s)
}

#[test]
fn served_explanation_is_byte_identical_to_in_process() {
    let mut s = connect();
    let reply = post(
        &mut s,
        "/v1/explain",
        r#"{"model":"FZ/DeepMatcher","pair":{"left_id":0,"right_id":0}}"#,
    );
    assert_eq!(
        reply.status,
        200,
        "{}",
        String::from_utf8_lossy(&reply.body)
    );
    let entry = server().state().registry.resolve("FZ/DeepMatcher").unwrap();
    let u = entry.dataset.left().expect(certa_core::RecordId(0)).clone();
    let v = entry
        .dataset
        .right()
        .expect(certa_core::RecordId(0))
        .clone();
    let expected = explain_response_bytes(&entry, &u, &v);
    assert_eq!(
        reply.body, expected,
        "server wire bytes must equal the in-process computation"
    );
}

#[test]
fn keep_alive_pipelines_score_explain_and_batch_on_one_connection() {
    let mut s = connect();
    let score = post(
        &mut s,
        "/v1/score",
        r#"{"model":"FZ/DeepMatcher","pair":{"left_id":0,"right_id":0}}"#,
    );
    assert_eq!(score.status, 200);
    let single_score = score.json().get("score").unwrap().as_num().unwrap();

    let batch = post(
        &mut s,
        "/v1/score_batch",
        r#"{"model":"FZ/DeepMatcher","pairs":[{"left_id":0,"right_id":0},{"left_id":1,"right_id":1}]}"#,
    );
    assert_eq!(batch.status, 200);
    let results = batch.json();
    let results = results.get("results").unwrap().as_arr().unwrap().to_vec();
    assert_eq!(results.len(), 2);
    assert_eq!(
        results[0].get("score").unwrap().as_num(),
        Some(single_score)
    );

    let explain_batch = post(
        &mut s,
        "/v1/explain_batch",
        r#"{"model":"FZ/DeepMatcher","pairs":[{"left_id":0,"right_id":0}]}"#,
    );
    assert_eq!(explain_batch.status, 200);
    let parsed = explain_batch.json();
    let explanations = parsed.get("explanations").unwrap().as_arr().unwrap();
    assert_eq!(explanations.len(), 1);
    let pred_score = explanations[0]
        .get("prediction")
        .unwrap()
        .get("score")
        .unwrap()
        .as_num();
    assert_eq!(pred_score, Some(single_score));
}

#[test]
fn malformed_bodies_get_structured_400_and_connection_survives() {
    let mut s = connect();
    let bad = post(&mut s, "/v1/explain", "{this is not json");
    assert_eq!(bad.status, 400);
    assert_eq!(bad.error_code(), "bad_json");
    // Same connection still serves (the 400 path keeps it alive).
    let bad_shape = post(&mut s, "/v1/explain", r#"{"model":"FZ/DeepMatcher"}"#);
    assert_eq!(bad_shape.status, 400);
    assert_eq!(bad_shape.error_code(), "bad_request_body");
    let ok = get(&mut s, "/healthz");
    assert_eq!(ok.status, 200);
}

#[test]
fn oversized_body_gets_413_and_closes() {
    let mut s = connect();
    // Don't send the huge body — announce it and expect refusal up front.
    write!(
        s,
        "POST /v1/explain HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
        1024 * 1024
    )
    .unwrap();
    let reply = read_reply(&mut s);
    assert_eq!(reply.status, 413);
    assert_eq!(reply.error_code(), "payload_too_large");
    assert!(reply.headers.contains("connection: close"));
    // The server closes its end; our next read sees EOF.
    let mut rest = Vec::new();
    assert_eq!(s.read_to_end(&mut rest).unwrap_or(0), 0);
}

#[test]
fn unknown_names_get_404_with_codes() {
    let mut s = connect();
    let reply = post(
        &mut s,
        "/v1/explain",
        r#"{"model":"ZZ/DeepMatcher","pair":{"left_id":0,"right_id":0}}"#,
    );
    assert_eq!(
        (reply.status, reply.error_code().as_str()),
        (404, "unknown_dataset")
    );
    let reply = post(
        &mut s,
        "/v1/score",
        r#"{"model":"FZ/DeepMatcher","pair":{"left_id":123456,"right_id":0}}"#,
    );
    assert_eq!(
        (reply.status, reply.error_code().as_str()),
        (404, "unknown_record")
    );
}

#[test]
fn ops_endpoints_report_traffic_and_caches() {
    let mut s = connect();
    // Generate at least one API hit first.
    let _ = post(
        &mut s,
        "/v1/score",
        r#"{"model":"FZ/DeepMatcher","pair":{"left_id":0,"right_id":0}}"#,
    );
    let health = get(&mut s, "/healthz");
    assert_eq!(health.status, 200);
    let health = health.json();
    assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));
    assert!(health.get("models_loaded").unwrap().as_num().unwrap() >= 1.0);

    let metrics = get(&mut s, "/metrics");
    assert_eq!(metrics.status, 200);
    let text = String::from_utf8(metrics.body).unwrap();
    assert!(text.contains("certa_serve_requests_total{route=\"score\"}"));
    assert!(text.contains("certa_serve_request_latency_micros_count"));
    assert!(
        text.contains("certa_serve_cache_hits_total{model=\"FZ/DeepMatcher\"}"),
        "per-model cache stats missing:\n{text}"
    );
    assert!(text.contains("certa_serve_worker_panics_total 0"));
}
