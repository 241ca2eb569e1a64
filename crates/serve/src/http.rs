//! Minimal HTTP/1.1 framing: request parsing with hard limits, response
//! encoding, keep-alive negotiation, and structured JSON errors.
//!
//! Requests are parsed incrementally by [`parse_request`] over a
//! connection's receive buffer: the epoll reactor calls it after every
//! socket read, so no thread ever blocks on a socket waiting for the rest
//! of a request.
//!
//! The grammar subset is deliberate: request line + headers + an optional
//! `Content-Length` body. `Transfer-Encoding: chunked` *requests* are
//! rejected with `501` (no endpoint needs streaming bodies), oversized
//! bodies with `413` *before* reading them, and malformed syntax with `400`
//! — always as a structured JSON error document, never by dropping the
//! connection from a panicking worker. Responses always carry
//! `Content-Length` framing (see [`Response::encode`]).

use crate::wire::Json;
use std::io::{self, Write};

/// Hard cap on the request line + headers section.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Default cap on request bodies (configurable via `ServeConfig`).
pub const DEFAULT_MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercased method token (`GET`, `POST`, …).
    pub method: String,
    /// Path with any query string stripped.
    pub path: String,
    /// Raw query string (without the `?`), empty when the target had none.
    pub query: String,
    /// Lowercased header names with their raw values.
    pub headers: Vec<(String, String)>,
    /// The body (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the connection should be kept open after the response.
    pub keep_alive: bool,
}

impl Request {
    /// First value of a header, by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// An error response to send: status, machine-readable code, message.
///
/// `keep_alive = false` forces connection close (e.g. after a `413` the
/// unread body would poison the stream framing).
#[derive(Debug, Clone, PartialEq)]
pub struct HttpError {
    /// HTTP status code.
    pub status: u16,
    /// Stable machine-readable error code (`"bad_json"`, `"payload_too_large"`, …).
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
    /// Whether the connection may be reused after this error.
    pub keep_alive: bool,
}

impl HttpError {
    /// A `400 Bad Request` that keeps the connection usable.
    pub fn bad_request(code: &'static str, message: impl Into<String>) -> Self {
        HttpError {
            status: 400,
            code,
            message: message.into(),
            keep_alive: true,
        }
    }

    /// An error that also closes the connection.
    pub fn closing(status: u16, code: &'static str, message: impl Into<String>) -> Self {
        HttpError {
            status,
            code,
            message: message.into(),
            keep_alive: false,
        }
    }

    /// Render as a structured JSON error response.
    pub fn to_response(&self) -> Response {
        let body = Json::obj([(
            "error",
            Json::obj([
                ("code", Json::str(self.code)),
                ("message", Json::str(&self.message)),
            ]),
        )])
        .serialize()
        // Error bodies contain no numbers, so serialization cannot hit the
        // non-finite rejection; if that invariant ever breaks, degrade to a
        // fixed body rather than panicking on the error path itself.
        .unwrap_or_else(|_| {
            r#"{"error":{"code":"internal_error","message":"error body serialization failed"}}"#
                .to_string()
        });
        let mut resp = Response::json(self.status, body);
        resp.keep_alive = self.keep_alive;
        resp
    }
}

/// A parsed request head: everything before the body bytes.
struct Head {
    method: String,
    path: String,
    query: String,
    headers: Vec<(String, String)>,
    keep_alive: bool,
    content_length: usize,
}

impl Head {
    fn into_request(self, body: Vec<u8>) -> Request {
        Request {
            method: self.method,
            path: self.path,
            query: self.query,
            headers: self.headers,
            body,
            keep_alive: self.keep_alive,
        }
    }
}

fn head_too_large() -> HttpError {
    HttpError::closing(
        431,
        "headers_too_large",
        format!("request head exceeds {MAX_HEAD_BYTES} bytes"),
    )
}

/// Parse a request head from its lines (request line first, then header
/// lines, no blank terminator).
fn parse_head(lines: &[String], max_body: usize) -> Result<Head, HttpError> {
    // --- request line ---
    let line = lines.first().map(String::as_str).unwrap_or("");
    let mut parts = line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m.to_ascii_uppercase(), t.to_string(), v),
        _ => {
            return Err(HttpError::closing(
                400,
                "bad_request_line",
                format!("malformed request line `{line}`"),
            ));
        }
    };
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        other => {
            return Err(HttpError::closing(
                505,
                "http_version_not_supported",
                format!("unsupported version `{other}`"),
            ));
        }
    };

    // --- headers ---
    let mut headers = Vec::new();
    for line in lines.iter().skip(1) {
        match line.split_once(':') {
            Some((name, value)) => {
                headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
            }
            None => {
                return Err(HttpError::closing(
                    400,
                    "bad_header",
                    format!("malformed header line `{line}`"),
                ));
            }
        }
    }

    let find = |name: &str| {
        headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    };

    // --- keep-alive negotiation ---
    let connection = find("connection").map(str::to_ascii_lowercase);
    let keep_alive = match connection.as_deref() {
        Some("close") => false,
        Some("keep-alive") => true,
        _ => http11, // HTTP/1.1 defaults to persistent, 1.0 to close
    };

    // --- body framing ---
    if find("transfer-encoding").is_some() {
        return Err(HttpError::closing(
            501,
            "transfer_encoding_unsupported",
            "use Content-Length framing",
        ));
    }
    let content_length = match find("content-length") {
        // 411 Length Required; there is no unread body, so the connection
        // stays usable. An explicit `Content-Length: 0` is an empty body.
        None if method == "POST" || method == "PUT" => {
            return Err(HttpError {
                status: 411,
                code: "length_required",
                message: format!("{method} requests need a Content-Length header"),
                keep_alive: true,
            });
        }
        None => 0usize,
        Some(raw) => match raw.parse::<usize>() {
            Ok(n) => n,
            Err(_) => {
                return Err(HttpError::closing(
                    400,
                    "bad_content_length",
                    format!("unparseable Content-Length `{raw}`"),
                ));
            }
        },
    };
    if content_length > max_body {
        // Refuse *before* reading: the unread body poisons stream framing,
        // so the connection must close afterwards.
        return Err(HttpError::closing(
            413,
            "payload_too_large",
            format!("body of {content_length} bytes exceeds the {max_body}-byte limit"),
        ));
    }

    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target, String::new()),
    };
    Ok(Head {
        method,
        path,
        query,
        headers,
        keep_alive,
        content_length,
    })
}

/// Outcome of one [`parse_request`] pass over a receive buffer.
pub enum ParseOutcome {
    /// No complete request yet — keep the buffer and read more bytes.
    /// The buffer is bounded: heads beyond [`MAX_HEAD_BYTES`] and bodies
    /// beyond `max_body` error out instead of accumulating.
    NeedMore,
    /// One complete request occupying the first `consumed` buffer bytes.
    Request {
        /// The parsed request.
        request: Box<Request>,
        /// Bytes to drain from the front of the buffer.
        consumed: usize,
    },
    /// A protocol violation. Drain `consumed` bytes; when
    /// `error.keep_alive` is true (e.g. `411`) the bytes after them may
    /// still parse as further pipelined requests.
    Error {
        /// The structured error to send.
        error: HttpError,
        /// Bytes to drain from the front of the buffer.
        consumed: usize,
    },
}

/// Incrementally parse one request from the front of `buf`.
///
/// Call after every socket read; on [`ParseOutcome::Request`] /
/// [`ParseOutcome::Error`] drain `consumed` bytes and call again (request
/// pipelining: a buffer holding several requests yields them one per call).
pub fn parse_request(buf: &[u8], max_body: usize) -> ParseOutcome {
    // --- split the head: lines up to the first blank line ---
    let mut lines: Vec<String> = Vec::new();
    let mut pos = 0usize;
    let head_end = loop {
        let rest = buf.get(pos..).unwrap_or(&[]);
        let Some(i) = rest.iter().position(|&b| b == b'\n') else {
            if buf.len() > MAX_HEAD_BYTES {
                return ParseOutcome::Error {
                    error: head_too_large(),
                    consumed: buf.len(),
                };
            }
            return ParseOutcome::NeedMore;
        };
        let line = rest.get(..i).unwrap_or(&[]);
        let line = match line.split_last() {
            Some((&b'\r', init)) => init,
            _ => line,
        };
        pos += i + 1;
        if pos > MAX_HEAD_BYTES {
            return ParseOutcome::Error {
                error: head_too_large(),
                consumed: buf.len(),
            };
        }
        // A blank line terminates the head — except as the very first line,
        // where it *is* the (malformed) request line.
        if line.is_empty() && !lines.is_empty() {
            break pos;
        }
        lines.push(String::from_utf8_lossy(line).into_owned());
    };

    let head = match parse_head(&lines, max_body) {
        Ok(head) => head,
        Err(error) => {
            return ParseOutcome::Error {
                error,
                consumed: head_end,
            };
        }
    };
    let total = head_end.saturating_add(head.content_length);
    match buf.get(head_end..total) {
        Some(body) => ParseOutcome::Request {
            request: Box::new(head.into_request(body.to_vec())),
            consumed: total,
        },
        // Body bytes still in flight (content_length ≤ max_body here, so
        // the wait is bounded).
        None => ParseOutcome::NeedMore,
    }
}

/// A response ready to write.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Response body bytes.
    pub body: Vec<u8>,
    /// Whether to keep the connection open (ANDed with the request's wish).
    pub keep_alive: bool,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: body.into(),
            keep_alive: true,
        }
    }

    /// A plain-text response (the `/metrics` exposition format).
    pub fn text(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into(),
            keep_alive: true,
        }
    }

    /// Serialize head + body to wire bytes, with `Content-Length` framing.
    pub fn encode(&self, keep_alive: bool) -> Vec<u8> {
        let connection = if keep_alive { "keep-alive" } else { "close" };
        let mut out = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {connection}\r\n\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len(),
        )
        .into_bytes();
        out.extend_from_slice(&self.body);
        out
    }

    /// Serialize head + body onto a blocking stream.
    pub fn write_to(&self, stream: &mut impl Write, keep_alive: bool) -> io::Result<()> {
        stream.write_all(&self.encode(keep_alive))?;
        stream.flush()
    }
}

/// Canonical reason phrases for the statuses the service emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        411 => "Length Required",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive `parse_request` the way the reactor does: feed the bytes one
    /// at a time and collect every completed request/error.
    fn parse_all(raw: &[u8], max_body: usize) -> (Vec<Request>, Vec<HttpError>, usize) {
        let mut buf: Vec<u8> = Vec::new();
        let (mut requests, mut errors) = (Vec::new(), Vec::new());
        for &b in raw {
            buf.push(b);
            loop {
                match parse_request(&buf, max_body) {
                    ParseOutcome::NeedMore => break,
                    ParseOutcome::Request { request, consumed } => {
                        requests.push(*request);
                        buf.drain(..consumed);
                    }
                    ParseOutcome::Error { error, consumed } => {
                        let recoverable = error.keep_alive;
                        errors.push(error);
                        buf.drain(..consumed.min(buf.len()));
                        if !recoverable {
                            return (requests, errors, buf.len());
                        }
                    }
                }
            }
        }
        (requests, errors, buf.len())
    }

    /// The single request `raw` parses to, consuming every byte.
    fn request(raw: &[u8]) -> Request {
        let (requests, errors, leftover) = parse_all(raw, 1024);
        assert!(errors.is_empty(), "{errors:?}");
        assert_eq!(leftover, 0);
        match <[Request; 1]>::try_from(requests) {
            Ok([r]) => r,
            Err(rs) => panic!("expected one request, got {}", rs.len()),
        }
    }

    /// The single error `raw` parses to.
    fn error(raw: &[u8]) -> HttpError {
        let (requests, errors, _) = parse_all(raw, 1024);
        assert!(requests.is_empty(), "{:?}", String::from_utf8_lossy(raw));
        match <[HttpError; 1]>::try_from(errors) {
            Ok([e]) => e,
            Err(es) => panic!("expected one error, got {es:?}"),
        }
    }

    #[test]
    fn parses_get_with_headers_and_query() {
        let r = request(b"GET /healthz?verbose=1 HTTP/1.1\r\nHost: x\r\nX-Trace: abc\r\n\r\n");
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/healthz");
        assert_eq!(r.query, "verbose=1");
        assert_eq!(r.header("x-trace"), Some("abc"));
        assert!(r.keep_alive, "HTTP/1.1 defaults to keep-alive");
        assert!(r.body.is_empty());
    }

    #[test]
    fn parses_post_with_body() {
        let r = request(b"POST /v1/score HTTP/1.1\r\nContent-Length: 4\r\n\r\n{\"a\"");
        assert_eq!(r.method, "POST");
        assert_eq!(r.body, b"{\"a\"");
    }

    #[test]
    fn explicit_zero_content_length_is_an_empty_body() {
        for method in ["POST", "PUT"] {
            let raw = format!("{method} /v1/reload HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
            let r = request(raw.as_bytes());
            assert_eq!(r.method, method);
            assert_eq!(r.path, "/v1/reload");
            assert!(r.body.is_empty());
        }
    }

    #[test]
    fn keep_alive_negotiation() {
        let r = request(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(!r.keep_alive);
        let r = request(b"GET / HTTP/1.0\r\n\r\n");
        assert!(!r.keep_alive, "HTTP/1.0 defaults to close");
        let r = request(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
        assert!(r.keep_alive);
    }

    #[test]
    fn protocol_violations_are_structured_errors() {
        for (raw, status, code) in [
            (b"GARBAGE\r\n\r\n".as_slice(), 400, "bad_request_line"),
            (b"\r\n\r\n", 400, "bad_request_line"),
            (b"GET / HTTP/2.0\r\n\r\n", 505, "http_version_not_supported"),
            (b"GET / HTTP/1.1\r\nbadheader\r\n\r\n", 400, "bad_header"),
            (
                b"POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
                400,
                "bad_content_length",
            ),
            (
                b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
                501,
                "transfer_encoding_unsupported",
            ),
        ] {
            let e = error(raw);
            assert_eq!((e.status, e.code), (status, code), "{e:?}");
            assert!(!e.keep_alive, "{code} must close the connection");
        }
        let e = error(b"POST /x HTTP/1.1\r\n\r\n");
        assert_eq!((e.status, e.code), (411, "length_required"));
        assert!(e.keep_alive, "no unread body, connection stays usable");
    }

    #[test]
    fn oversized_body_is_413_and_closes() {
        let e = error(b"POST /x HTTP/1.1\r\nContent-Length: 99999\r\n\r\n");
        assert_eq!((e.status, e.code), (413, "payload_too_large"));
        assert!(!e.keep_alive, "unread body must close the connection");
    }

    #[test]
    fn partial_body_needs_more() {
        // Body bytes still in flight: nothing is consumed. A peer that
        // half-closes here gets `400 truncated_request` from the reactor.
        let raw: &[u8] = b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc";
        let (requests, errors, leftover) = parse_all(raw, 1024);
        assert!(requests.is_empty() && errors.is_empty());
        assert_eq!(leftover, raw.len());
        assert!(matches!(parse_request(raw, 1024), ParseOutcome::NeedMore));
    }

    #[test]
    fn oversized_head_is_431() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        raw.extend(format!("x-pad: {}\r\n\r\n", "y".repeat(MAX_HEAD_BYTES)).into_bytes());
        let e = error(&raw);
        assert_eq!((e.status, e.code), (431, "headers_too_large"));
        assert!(!e.keep_alive);
    }

    #[test]
    fn error_response_is_structured_json() {
        let e = HttpError::bad_request("bad_json", "oops: \"quoted\"");
        let resp = e.to_response();
        assert_eq!(resp.status, 400);
        let parsed = Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let err = parsed.get("error").unwrap();
        assert_eq!(err.get("code").unwrap().as_str(), Some("bad_json"));
        assert_eq!(
            err.get("message").unwrap().as_str(),
            Some("oops: \"quoted\"")
        );
    }

    #[test]
    fn incremental_parser_yields_pipelined_requests_in_order() {
        let raw: &[u8] =
            b"GET /healthz HTTP/1.1\r\n\r\nPOST /v1/score HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}GET /metrics HTTP/1.1\r\n\r\n";
        let (reqs, errs, leftover) = parse_all(raw, 1024);
        assert!(errs.is_empty());
        assert_eq!(leftover, 0);
        let paths: Vec<&str> = reqs.iter().map(|r| r.path.as_str()).collect();
        assert_eq!(paths, ["/healthz", "/v1/score", "/metrics"]);
        assert_eq!(reqs[1].body, b"{}");
    }

    #[test]
    fn incremental_parser_recovers_after_keepalive_errors() {
        // 411 keeps the connection usable; the next pipelined request must
        // still parse from the remaining bytes.
        let raw: &[u8] = b"POST /v1/score HTTP/1.1\r\n\r\nGET /healthz HTTP/1.1\r\n\r\n";
        let (reqs, errs, leftover) = parse_all(raw, 1024);
        assert_eq!(leftover, 0);
        assert_eq!(errs.len(), 1);
        assert_eq!((errs[0].status, errs[0].code), (411, "length_required"));
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].path, "/healthz");
    }

    #[test]
    fn incremental_parser_caps_headless_garbage() {
        // No newline at all: the buffer must not grow unboundedly.
        let raw = vec![b'x'; MAX_HEAD_BYTES + 2];
        let ParseOutcome::Error { error, consumed } = parse_request(&raw, 1024) else {
            panic!("oversized headless buffer must error");
        };
        assert_eq!(error.status, 431);
        assert_eq!(consumed, raw.len());
    }

    #[test]
    fn response_head_wire_shape() {
        let mut out = Vec::new();
        Response::json(200, "{}").write_to(&mut out, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 2\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
        let mut out = Vec::new();
        Response::text(503, "overload")
            .write_to(&mut out, false)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("connection: close\r\n"));
    }
}
