//! The dependency-free HTTP/1.1 front end.
//!
//! A hand-rolled server over [`std::net::TcpListener`]: one accept loop,
//! one short-lived thread per connection, one request per connection
//! (`Connection: close`). Bodies and responses are JSON via the
//! `eraser-netlist` JSON layer. Endpoints:
//!
//! | Method & path              | Meaning                                     |
//! |----------------------------|---------------------------------------------|
//! | `GET /healthz`             | liveness probe                              |
//! | `POST /campaigns`          | submit a [`CampaignSpec`]; `202` + status   |
//! | `GET /campaigns`           | list all campaigns                          |
//! | `GET /campaigns/:id`       | status + scheduler progress                 |
//! | `GET /campaigns/:id/result`| the full persisted [`CampaignRecord`]       |
//!
//! Submission returns `400` for a malformed spec (the parser's key-naming
//! message in the `error` field), `503` when the bounded queue is full.
//! `/result` returns `404` for an unknown id and `409` while the campaign
//! is still queued or running.
//!
//! [`CampaignSpec`]: eraser_core::CampaignSpec
//! [`CampaignRecord`]: crate::CampaignRecord

use crate::service::{JobStatus, ServiceHandle, StatusView, SubmitError};
use eraser_core::CampaignSpec;
use eraser_netlist::json::{self, JsonValue};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Largest accepted request body (a campaign spec is tiny; this is pure
/// defense).
const MAX_BODY: usize = 1 << 20;

/// Per-connection socket timeout: a stalled peer frees its thread.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// A running HTTP front end over a [`ServiceHandle`].
pub struct HttpServer {
    addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
    shutdown: Arc<AtomicBool>,
}

impl HttpServer {
    /// Binds `addr` (e.g. `"127.0.0.1:3939"`; port `0` picks one) and
    /// starts serving `service` in background threads.
    ///
    /// # Errors
    ///
    /// The bind failure, as text.
    pub fn bind(addr: &str, service: ServiceHandle) -> Result<HttpServer, String> {
        let listener = TcpListener::bind(addr).map_err(|e| format!("cannot bind `{addr}`: {e}"))?;
        let local = listener
            .local_addr()
            .map_err(|e| format!("cannot resolve bound address: {e}"))?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let accept_thread = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if flag.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let service = service.clone();
                std::thread::spawn(move || handle_connection(stream, &service));
            }
        });
        Ok(HttpServer {
            addr: local,
            accept_thread: Some(accept_thread),
            shutdown,
        })
    }

    /// The bound address — with port `0`, the one the OS picked.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting connections (in-flight requests finish on their
    /// own threads). Also run on drop.
    pub fn shutdown(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // The accept loop only observes the flag on a connection; poke it.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One parsed request.
struct Request {
    method: String,
    path: String,
    body: String,
}

/// Reads one HTTP/1.1 request (start line, headers, `Content-Length`
/// body). `None` on a malformed or oversized request.
fn read_request(stream: &mut impl Read) -> Option<Request> {
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    // Bytes already searched for the terminator: each read rescans only
    // the new bytes plus the three before them, so a header trickled in
    // one byte at a time costs linear, not quadratic, time.
    let mut scanned = 0;
    let header_end = loop {
        if let Some(pos) = find_header_end(&buf[scanned..]) {
            break scanned + pos;
        }
        if buf.len() > MAX_BODY {
            return None;
        }
        scanned = buf.len().saturating_sub(3);
        let n = stream.read(&mut chunk).ok()?;
        if n == 0 {
            return None;
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..header_end]).ok()?;
    let mut lines = head.split("\r\n");
    let mut start = lines.next()?.split(' ');
    let method = start.next()?.to_string();
    let path = start.next()?.to_string();
    let content_length = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse::<usize>().ok())
        .unwrap_or(0);
    if content_length > MAX_BODY {
        return None;
    }
    let body_start = header_end + 4;
    while buf.len() < body_start + content_length {
        let n = stream.read(&mut chunk).ok()?;
        if n == 0 {
            return None;
        }
        buf.extend_from_slice(&chunk[..n]);
    }
    let body = String::from_utf8(buf[body_start..body_start + content_length].to_vec()).ok()?;
    Some(Request { method, path, body })
}

fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn handle_connection(mut stream: TcpStream, service: &ServiceHandle) {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let response = match read_request(&mut stream) {
        Some(req) => route(&req, service),
        None => error_response(400, "malformed request"),
    };
    let _ = stream.write_all(response.as_bytes());
}

/// Formats one complete HTTP response.
fn respond(status: u16, reason: &str, body: &JsonValue) -> String {
    let payload = json::to_string(body);
    format!(
        "HTTP/1.1 {status} {reason}\r\n\
         Content-Type: application/json\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n\r\n{payload}",
        payload.len()
    )
}

fn error_response(status: u16, message: &str) -> String {
    let reason = match status {
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Error",
    };
    respond(
        status,
        reason,
        &JsonValue::Obj(vec![("error".into(), JsonValue::str(message))]),
    )
}

fn status_json(view: &StatusView) -> JsonValue {
    let p = view.progress;
    let mut obj = vec![
        ("id".into(), JsonValue::str(view.id.clone())),
        ("status".into(), JsonValue::str(view.status.name())),
    ];
    if let JobStatus::Failed(msg) = &view.status {
        obj.push(("error".into(), JsonValue::str(msg.clone())));
    }
    obj.push((
        "progress".into(),
        JsonValue::Obj(vec![
            ("groups_total".into(), JsonValue::num(p.groups_total)),
            ("groups_done".into(), JsonValue::num(p.groups_done)),
            ("faults_total".into(), JsonValue::num(p.faults_total)),
            ("faults_done".into(), JsonValue::num(p.faults_done)),
            ("percent".into(), JsonValue::Num(p.percent())),
        ]),
    ));
    JsonValue::Obj(obj)
}

fn route(req: &Request, service: &ServiceHandle) -> String {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => respond(
            200,
            "OK",
            &JsonValue::Obj(vec![("status".into(), JsonValue::str("ok"))]),
        ),
        ("POST", "/campaigns") => match CampaignSpec::from_json(&req.body) {
            Ok(spec) => match service.submit(spec) {
                // A repeat answered from the store is `done` already.
                Ok(id) => {
                    let view = service.status(&id).expect("jobs never leave the job table");
                    respond(202, "Accepted", &status_json(&view))
                }
                Err(e @ SubmitError::QueueFull) | Err(e @ SubmitError::ShuttingDown) => {
                    error_response(503, &e.to_string())
                }
            },
            Err(e) => error_response(400, &e.to_string()),
        },
        ("GET", "/campaigns") => {
            let items = service.list().iter().map(status_json).collect();
            respond(
                200,
                "OK",
                &JsonValue::Obj(vec![("campaigns".into(), JsonValue::Arr(items))]),
            )
        }
        ("GET", path) => {
            let Some(rest) = path.strip_prefix("/campaigns/") else {
                return error_response(404, "no such route");
            };
            if let Some(id) = rest.strip_suffix("/result") {
                match service.result(id) {
                    Err(e) => error_response(500, &e.to_string()),
                    Ok(Some(record)) => respond(200, "OK", &record.to_json_value()),
                    Ok(None) => match service.status(id) {
                        Some(view) => respond(409, "Conflict", &status_json(&view)),
                        None => error_response(404, "unknown campaign"),
                    },
                }
            } else if rest.contains('/') {
                error_response(404, "no such route")
            } else {
                match service.status(rest) {
                    Some(view) => respond(200, "OK", &status_json(&view)),
                    None => error_response(404, "unknown campaign"),
                }
            }
        }
        _ => error_response(405, "method not allowed"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CampaignService, MemStore};

    #[test]
    fn header_end_detection() {
        assert_eq!(find_header_end(b"GET / HTTP/1.1\r\n\r\nbody"), Some(14));
        assert_eq!(find_header_end(b"partial\r\n"), None);
    }

    /// A reader that hands out at most `chunk` bytes per `read`.
    struct Trickle<'a> {
        data: &'a [u8],
        chunk: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let n = self.chunk.min(out.len()).min(self.data.len());
            out[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    #[test]
    fn request_trickled_one_byte_per_read_splits_the_same() {
        let raw = b"POST /campaigns HTTP/1.1\r\nHost: x\r\nContent-Length: 7\r\n\r\n{\"a\":1}";
        for chunk in [1, 2, 3, 4, 5, raw.len()] {
            let req = read_request(&mut Trickle { data: raw, chunk }).unwrap();
            assert_eq!(req.method, "POST", "chunk {chunk}");
            assert_eq!(req.path, "/campaigns", "chunk {chunk}");
            assert_eq!(req.body, "{\"a\":1}", "chunk {chunk}");
        }
    }

    /// `POST /campaigns` answers the status the service reports: `queued`
    /// when no worker is free (a repeat answered from the store says
    /// `done`; `tests/http_e2e.rs`).
    #[test]
    fn accepted_body_reports_the_queued_status() {
        let mut service = CampaignService::new(Box::new(MemStore::new()), 1, 4);
        service.stop_workers();
        let handle = service.handle();
        let post = Request {
            method: "POST".into(),
            path: "/campaigns".into(),
            body: r#"{"design": {"benchmark": "APB"}, "steps": 20}"#.into(),
        };
        let response = route(&post, &handle);
        assert!(
            response.starts_with("HTTP/1.1 202 Accepted\r\n"),
            "{response}"
        );
        assert!(response.contains(r#""status":"queued""#), "{response}");
    }

    #[test]
    fn internal_error_has_its_reason_phrase() {
        assert!(error_response(500, "x").starts_with("HTTP/1.1 500 Internal Server Error\r\n"));
    }
}
