//! An embedded, dependency-free telemetry HTTP endpoint.
//!
//! [`Telemetry`] is a deliberately minimal HTTP/1.1 server over the
//! shared [`Listener`]: GET-only, one request per connection,
//! thread-per-connection with a graceful-shutdown handle that joins every
//! thread it ever spawned. It exists to put the observability surface on a
//! wire for `curl` and Prometheus — it is not a general web server and
//! never parses bodies. It serves one route table:
//!
//! | route      | content                                                |
//! |------------|--------------------------------------------------------|
//! | `/metrics` | Prometheus text exposition                             |
//! | `/traces`  | the flight recorder's span trees, a JSON array         |
//! | `/slowlog` | the slow-query log, a JSON array naming each trace id  |
//! | `/healthz` | health report; 503 when unhealthy                      |
//!
//! Each route has one rendering; a query string is ignored. `/` lists
//! the routes.

use crate::listener::Listener;
use crate::registry::Registry;
use crate::trace::FlightRecorder;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Largest request head (request line + headers) the server reads.
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// Per-connection socket timeout: a stalled client cannot hold a handler
/// thread (and therefore shutdown) hostage for longer than this.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(5);

/// A parsed request line: the method, uppercase as received, and the path
/// without its query string.
struct Request {
    method: String,
    path: String,
}

/// A response: status, content type, body.
struct Response {
    status: u16,
    content_type: &'static str,
    body: String,
}

impl Response {
    /// A `200 text/plain` response.
    fn text(body: impl Into<String>) -> Response {
        Response { status: 200, content_type: "text/plain; charset=utf-8", body: body.into() }
    }

    /// A `200 application/json` response.
    fn json(body: impl Into<String>) -> Response {
        Response { status: 200, content_type: "application/json", body: body.into() }
    }

    /// A plain-text response with an explicit status code.
    fn status(status: u16, body: impl Into<String>) -> Response {
        Response { status, ..Response::text(body) }
    }
}

/// Serves one connection: parse, route, respond, close.
fn handle_connection(mut stream: TcpStream, sources: &TelemetrySources) {
    let _ = stream.set_read_timeout(Some(SOCKET_TIMEOUT));
    let _ = stream.set_write_timeout(Some(SOCKET_TIMEOUT));
    let response = match read_request(&mut stream) {
        Ok(Some(req)) if req.method == "GET" => route(sources, &req.path),
        Ok(Some(_)) => Response::status(405, "only GET is supported\n"),
        Ok(None) => return, // client connected and said nothing (e.g. the shutdown wake-up)
        Err(_) => Response::status(400, "malformed request\n"),
    };
    let _ = write_response(&mut stream, &response);
}

/// Reads and parses the request head. `Ok(None)` when the peer closed
/// without sending anything.
fn read_request(stream: &mut TcpStream) -> std::io::Result<Option<Request>> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        // trass-lint: allow(panic-surface) `n` is the byte count just returned by read(), so n <= chunk.len()
        buf.extend_from_slice(&chunk[..n]);
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.windows(2).any(|w| w == b"\n\n") {
            break;
        }
        if buf.len() > MAX_REQUEST_BYTES {
            return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, "request too large"));
        }
    }
    if buf.is_empty() {
        return Ok(None);
    }
    let head = String::from_utf8_lossy(&buf);
    let line = head.lines().next().unwrap_or_default();
    let mut parts = line.split_whitespace();
    let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
        return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, "bad request line"));
    };
    let path = target.split_once('?').map_or(target, |(path, _)| path);
    Ok(Some(Request { method: method.to_ascii_uppercase(), path: path.to_string() }))
}

fn write_response(stream: &mut TcpStream, r: &Response) -> std::io::Result<()> {
    let reason = match r.status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Unknown",
    };
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        r.status,
        reason,
        r.content_type,
        r.body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(r.body.as_bytes())?;
    stream.flush()
}

/// What the endpoint serves.
pub struct TelemetrySources {
    /// The metric registry behind `/metrics`.
    pub registry: Arc<Registry>,
    /// Flight recorder behind `/traces`.
    pub flight: Arc<FlightRecorder>,
    /// Renders the slow-query log, as JSON, for `/slowlog`.
    pub slowlog: Arc<dyn Fn() -> String + Send + Sync>,
    /// Checks health for `/healthz`: the verdict (`false` answers 503) and
    /// the report text.
    pub health: Arc<dyn Fn() -> (bool, String) + Send + Sync>,
}

impl std::fmt::Debug for TelemetrySources {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetrySources").finish_non_exhaustive()
    }
}

/// A running telemetry endpoint: a [`Listener`] whose connections speak
/// one-shot HTTP to the route table. Shuts down cleanly on
/// [`Telemetry::shutdown`] or drop.
#[derive(Debug)]
pub struct Telemetry {
    listener: Listener,
}

impl Telemetry {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// serves every route described in the module docs.
    pub fn serve(addr: &str, sources: TelemetrySources) -> std::io::Result<Telemetry> {
        let listener = Listener::serve(addr, "trass-telemetry", move |stream, _| {
            handle_connection(stream, &sources)
        })?;
        Ok(Telemetry { listener })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// Stops accepting, waits for in-flight requests, joins every thread.
    pub fn shutdown(mut self) {
        self.listener.shutdown();
    }
}

/// Answers a GET of `path`: the `/` index, a route, or 404.
fn route(sources: &TelemetrySources, path: &str) -> Response {
    if path == "/" {
        return Response::text(index());
    }
    match ROUTES.iter().find(|(route, _)| *route == path) {
        Some((_, serve)) => serve(sources),
        None => Response::status(404, "not found\n"),
    }
}

type Route = fn(&TelemetrySources) -> Response;

/// The route table: every path the endpoint serves besides the `/` index,
/// which lists exactly these.
const ROUTES: [(&str, Route); 4] =
    [("/metrics", metrics), ("/traces", traces), ("/slowlog", slowlog), ("/healthz", health)];

fn index() -> String {
    let mut out = String::from("trass telemetry\n\n");
    for (path, _) in ROUTES {
        out.push_str(path);
        out.push('\n');
    }
    out
}

fn metrics(sources: &TelemetrySources) -> Response {
    Response {
        content_type: "text/plain; version=0.0.4; charset=utf-8",
        ..Response::text(sources.registry.render_prometheus())
    }
}

/// The retained traces, oldest first, each as [`QueryTrace::render_json`]
/// writes it.
///
/// [`QueryTrace::render_json`]: crate::QueryTrace::render_json
fn traces(sources: &TelemetrySources) -> Response {
    let docs: Vec<String> = sources.flight.snapshot().iter().map(|t| t.render_json()).collect();
    Response::json(format!("[{}]", docs.join(",")))
}

fn slowlog(sources: &TelemetrySources) -> Response {
    Response::json((sources.slowlog)())
}

/// `/healthz`: the health report, 503 when unhealthy.
fn health(sources: &TelemetrySources) -> Response {
    let (ok, body) = (sources.health)();
    Response::status(if ok { 200 } else { 503 }, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A raw one-shot HTTP client: sends `GET path` and returns
    /// `(status, body)`.
    fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").as_bytes())
            .expect("send");
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("read");
        let status: u16 = raw
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("bad response: {raw:?}"));
        let body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
        (status, body)
    }

    /// A telemetry endpoint over populated sources: two metric series,
    /// one recorded trace, a slowlog stub and a fixed health report.
    fn fixture(ok: bool, report: &'static str) -> Telemetry {
        use crate::trace::TraceCtx;
        let registry = Registry::new_shared();
        registry.counter("demo_total", &[]).add(5);
        registry.timer("demo_seconds", &[]).record(1_000_000);
        let flight = Arc::new(FlightRecorder::new(4));
        let ctx = TraceCtx::enabled();
        let mut root = ctx.root("threshold");
        root.set_field("eps", 0.01);
        {
            let mut scan = root.child("scan");
            scan.set_duration(Duration::from_millis(1));
            scan.finish();
        }
        root.set_duration(Duration::from_millis(3));
        root.finish();
        flight.push(Arc::new(ctx.finish().expect("trace")));
        Telemetry::serve(
            "127.0.0.1:0",
            TelemetrySources {
                registry,
                flight,
                slowlog: Arc::new(|| "[{\"rank\":1}]".to_string()),
                health: Arc::new(move || (ok, report.to_string())),
            },
        )
        .expect("serve telemetry")
    }

    fn healthy_fixture() -> Telemetry {
        fixture(true, "status: ok\nok   probe self\n")
    }

    #[test]
    fn route_table_is_exactly_what_is_served() {
        let telemetry = healthy_fixture();
        let addr = telemetry.local_addr();
        let (status, index) = http_get(addr, "/");
        assert_eq!(status, 200);
        let listed: Vec<&str> = index.lines().filter(|l| l.starts_with('/')).collect();
        assert_eq!(listed, ["/metrics", "/traces", "/slowlog", "/healthz"], "{index}");
        for path in listed {
            assert_eq!(http_get(addr, path).0, 200, "{path}");
        }
        for cut in ["/vars/history", "/profile", "/profile?weight=wall", "/workload"] {
            assert_eq!(http_get(addr, cut).0, 404, "{cut}");
        }
        let (_, metrics) = http_get(addr, "/metrics");
        assert!(metrics.contains("# TYPE demo_total counter"), "{metrics}");
        assert!(metrics.contains("demo_seconds_bucket"), "{metrics}");
        let (_, health) = http_get(addr, "/healthz");
        assert_eq!(health, "status: ok\nok   probe self\n");
        telemetry.shutdown();
    }

    #[test]
    fn healthz_answers_503_when_unhealthy() {
        let report = "status: unhealthy\nFAIL probe disk: disk full\n";
        let telemetry = fixture(false, report);
        let (status, body) = http_get(telemetry.local_addr(), "/healthz");
        assert_eq!((status, body.as_str()), (503, report));
        telemetry.shutdown();
    }

    #[test]
    fn telemetry_shutdown_is_clean() {
        // The acceptance criterion: shutdown returns (joining the accept
        // thread and every connection thread), and the port is released.
        let telemetry = healthy_fixture();
        let addr = telemetry.local_addr();
        assert_eq!(http_get(addr, "/metrics").0, 200);
        telemetry.shutdown();
        assert!(TcpListener::bind(addr).is_ok(), "port still held after shutdown");
    }

    /// Sends `raw` as the whole request and returns the raw response.
    fn send(addr: SocketAddr, raw: &[u8]) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(raw).expect("send");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        response
    }

    #[test]
    fn non_get_and_malformed_requests_are_refused() {
        let telemetry = healthy_fixture();
        let addr = telemetry.local_addr();
        let post = send(addr, b"POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(post.starts_with("HTTP/1.1 405"), "{post}");
        let nonsense = send(addr, b"nonsense\r\n\r\n");
        assert!(nonsense.starts_with("HTTP/1.1 400"), "{nonsense}");
        telemetry.shutdown();
    }

    #[test]
    fn concurrent_requests_are_all_served() {
        let telemetry = healthy_fixture();
        let addr = telemetry.local_addr();
        let handles: Vec<_> =
            (0..8).map(|_| std::thread::spawn(move || http_get(addr, "/healthz"))).collect();
        for h in handles {
            assert_eq!(h.join().expect("client"), (200, "status: ok\nok   probe self\n".into()));
        }
        telemetry.shutdown();
    }

    /// `/traces` is the recorded trees as a JSON array, each tree as
    /// `render_json` writes it; a query string changes nothing.
    #[test]
    fn traces_route_serves_the_recorded_trees_as_json() {
        let telemetry = healthy_fixture();
        let addr = telemetry.local_addr();
        let (status, json) = http_get(addr, "/traces");
        assert_eq!(status, 200);
        let doc = crate::json::parse(&json).expect("/traces is JSON");
        let crate::json::Value::Array(trees) = &doc else { panic!("{json}") };
        assert_eq!(trees.len(), 1, "{json}");
        assert_eq!(trees[0].get("name").and_then(crate::json::Value::as_str), Some("threshold"));
        assert_eq!(http_get(addr, "/traces?format=json").1, json);
        let (status, slow) = http_get(addr, "/slowlog");
        assert_eq!((status, slow.as_str()), (200, "[{\"rank\":1}]"));
        telemetry.shutdown();
    }
}
