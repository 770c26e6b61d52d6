//! An embedded, dependency-free telemetry HTTP endpoint.
//!
//! [`HttpServer`] is a deliberately minimal HTTP/1.1 server over the
//! shared [`Listener`]: GET-only, one request per connection,
//! thread-per-connection with a graceful-shutdown handle that joins every
//! thread it ever spawned. It exists to put the observability surface on a
//! wire for `curl` and Prometheus — it is not a general web server and
//! never parses bodies.
//!
//! [`Telemetry`] is that server behind the standard route table:
//!
//! | route           | content                                        |
//! |-----------------|------------------------------------------------|
//! | `/metrics`      | Prometheus text exposition                     |
//! | `/metrics.json` | JSON snapshot of the registry                  |
//! | `/traces`       | flight-recorder dump (`?format=json` for JSON) |
//! | `/slowlog`      | the slow-query log (`?format=json` for JSON)   |
//! | `/healthz`      | health report; 503 when unhealthy              |
//! | `/readyz`       | the same report under the readiness path       |
//!
//! `/` lists the routes.

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

/// A parsed request line.
#[derive(Debug, Clone)]
pub struct Request {
    /// HTTP method (`GET`, …), uppercase as received.
    pub method: String,
    /// Path component, without the query string.
    pub path: String,
    /// Raw query string (no leading `?`; empty when absent).
    pub query: String,
}

impl Request {
    /// True when the query string contains `key=value` as one `&`-separated
    /// component (no percent-decoding — telemetry queries are ASCII).
    pub fn query_has(&self, key: &str, value: &str) -> bool {
        self.query.split('&').any(|kv| {
            let mut it = kv.splitn(2, '=');
            it.next() == Some(key) && it.next() == Some(value)
        })
    }
}

/// A response: status, content type, body.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
}

impl Response {
    /// A `200 text/plain` response.
    pub fn text(body: impl Into<String>) -> Response {
        Response { status: 200, content_type: "text/plain; charset=utf-8", body: body.into() }
    }

    /// A `200 application/json` response.
    pub fn json(body: impl Into<String>) -> Response {
        Response { status: 200, content_type: "application/json", body: body.into() }
    }

    /// A plain-text response with an explicit status code.
    pub fn status(status: u16, body: impl Into<String>) -> Response {
        Response { status, ..Response::text(body) }
    }
}

/// The request handler a server routes every request through.
pub type Handler = Arc<dyn Fn(&Request) -> Response + Send + Sync>;

/// A minimal threaded HTTP/1.1 server with graceful shutdown: a
/// [`Listener`] whose connection handler speaks one-shot HTTP.
#[derive(Debug)]
pub struct HttpServer {
    listener: Listener,
}

impl HttpServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts accepting; every request is answered by `handler`.
    pub fn serve(addr: &str, handler: Handler) -> std::io::Result<HttpServer> {
        let listener = Listener::serve(addr, "trass-telemetry", move |stream, _| {
            handle_connection(stream, &handler)
        })?;
        Ok(HttpServer { listener })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// Stops accepting, waits for in-flight requests, joins every thread.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        self.listener.shutdown();
    }
}

/// Serves one connection: parse, route, respond, close.
fn handle_connection(mut stream: TcpStream, handler: &Handler) {
    let _ = stream.set_read_timeout(Some(SOCKET_TIMEOUT));
    let _ = stream.set_write_timeout(Some(SOCKET_TIMEOUT));
    let response = match read_request(&mut stream) {
        Ok(Some(req)) if req.method == "GET" => handler(&req),
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
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    Ok(Some(Request {
        method: method.to_ascii_uppercase(),
        path: path.to_string(),
        query: query.to_string(),
    }))
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
    /// The metric registry behind `/metrics` and `/metrics.json`.
    pub registry: Arc<Registry>,
    /// Flight recorder behind `/traces`.
    pub flight: Arc<FlightRecorder>,
    /// Renders the slow-query log for `/slowlog`; the argument selects
    /// JSON (`true`, for `?format=json`) or text rendering.
    pub slowlog: Arc<dyn Fn(bool) -> String + Send + Sync>,
    /// Checks health for `/healthz` and `/readyz`: the verdict (`false`
    /// answers 503) and the report text.
    pub health: Arc<dyn Fn() -> (bool, String) + Send + Sync>,
}

impl std::fmt::Debug for TelemetrySources {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetrySources").finish_non_exhaustive()
    }
}

/// A running telemetry endpoint: an [`HttpServer`] behind the route table.
/// Shuts down cleanly on [`Telemetry::shutdown`] or drop.
#[derive(Debug)]
pub struct Telemetry {
    server: HttpServer,
}

impl Telemetry {
    /// Binds `addr` and serves every route described in the module docs.
    pub fn serve(addr: &str, sources: TelemetrySources) -> std::io::Result<Telemetry> {
        let handler: Handler = Arc::new(move |req: &Request| {
            if req.path == "/" {
                return Response::text(index());
            }
            match ROUTES.iter().find(|(path, _)| *path == req.path) {
                Some((_, route)) => route(&sources, req),
                None => Response::status(404, "not found\n"),
            }
        });
        Ok(Telemetry { server: HttpServer::serve(addr, handler)? })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Stops the server, joining every thread.
    pub fn shutdown(mut self) {
        self.server.shutdown();
    }
}

type Route = fn(&TelemetrySources, &Request) -> Response;

/// The route table: every path the endpoint serves besides the `/` index,
/// which lists exactly these.
const ROUTES: [(&str, Route); 6] = [
    ("/metrics", metrics),
    ("/metrics.json", metrics_json),
    ("/traces", traces),
    ("/slowlog", slowlog),
    ("/healthz", health),
    ("/readyz", health),
];

fn index() -> String {
    let mut out = String::from("trass telemetry\n\n");
    for (path, _) in ROUTES {
        out.push_str(path);
        out.push('\n');
    }
    out
}

fn metrics(sources: &TelemetrySources, _: &Request) -> Response {
    Response {
        content_type: "text/plain; version=0.0.4; charset=utf-8",
        ..Response::text(sources.registry.render_prometheus())
    }
}

fn metrics_json(sources: &TelemetrySources, _: &Request) -> Response {
    Response::json(sources.registry.render_json())
}

fn traces(sources: &TelemetrySources, req: &Request) -> Response {
    let traces = sources.flight.snapshot();
    if req.query_has("format", "json") {
        let docs: Vec<String> = traces.iter().map(|t| t.render_json()).collect();
        Response::json(format!("[{}]", docs.join(",")))
    } else {
        let mut out = format!("{} retained trace(s)\n\n", traces.len());
        for t in &traces {
            out.push_str(&t.render_text());
            out.push('\n');
        }
        Response::text(out)
    }
}

fn slowlog(sources: &TelemetrySources, req: &Request) -> Response {
    if req.query_has("format", "json") {
        Response::json((sources.slowlog)(true))
    } else {
        Response::text((sources.slowlog)(false))
    }
}

/// `/healthz` and `/readyz`: the health report, 503 when unhealthy.
fn health(sources: &TelemetrySources, _: &Request) -> Response {
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

    fn hello_server() -> HttpServer {
        HttpServer::serve(
            "127.0.0.1:0",
            Arc::new(|req: &Request| match req.path.as_str() {
                "/hello" => Response::text("hi"),
                "/json" => Response::json("{\"a\":1}"),
                _ => Response::status(404, "nope"),
            }),
        )
        .expect("bind")
    }

    #[test]
    fn serves_and_routes_requests() {
        let server = hello_server();
        let addr = server.local_addr();
        assert_eq!(http_get(addr, "/hello"), (200, "hi".to_string()));
        assert_eq!(http_get(addr, "/json").0, 200);
        assert_eq!(http_get(addr, "/missing").0, 404);
    }

    #[test]
    fn non_get_methods_rejected() {
        let server = hello_server();
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream.write_all(b"POST /hello HTTP/1.1\r\nHost: t\r\n\r\n").expect("send");
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("read");
        assert!(raw.starts_with("HTTP/1.1 405"), "{raw}");
    }

    #[test]
    fn malformed_request_answers_400() {
        let server = hello_server();
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream.write_all(b"nonsense\r\n\r\n").expect("send");
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("read");
        assert!(raw.starts_with("HTTP/1.1 400"), "{raw}");
    }

    #[test]
    fn shutdown_joins_and_unbinds() {
        let mut server = hello_server();
        let addr = server.local_addr();
        assert_eq!(http_get(addr, "/hello").0, 200);
        server.shutdown();
        // The listener is gone: a fresh connection must fail (the port was
        // released) or at least never be served. Binding the same port
        // again proves release.
        let rebound = TcpListener::bind(addr);
        assert!(rebound.is_ok(), "port still held after shutdown");
        server.shutdown(); // idempotent
    }

    #[test]
    fn concurrent_requests_are_all_served() {
        let server = Arc::new(hello_server());
        let addr = server.local_addr();
        let mut handles = Vec::new();
        for _ in 0..8 {
            handles.push(std::thread::spawn(move || http_get(addr, "/hello")));
        }
        for h in handles {
            assert_eq!(h.join().expect("client"), (200, "hi".to_string()));
        }
    }

    /// A telemetry endpoint over populated sources: two metric series,
    /// one recorded trace, a two-format slowlog stub and a fixed health
    /// report.
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
                slowlog: Arc::new(|json| {
                    if json {
                        "[{\"rank\":1}]".to_string()
                    } else {
                        "slow queries: none\n".to_string()
                    }
                }),
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
        assert_eq!(
            listed,
            ["/metrics", "/metrics.json", "/traces", "/slowlog", "/healthz", "/readyz"],
            "{index}"
        );
        for path in listed {
            assert_eq!(http_get(addr, path).0, 200, "{path}");
        }
        for cut in ["/vars/history", "/profile", "/profile?weight=wall", "/workload"] {
            assert_eq!(http_get(addr, cut).0, 404, "{cut}");
        }
        let (_, metrics) = http_get(addr, "/metrics");
        assert!(metrics.contains("# TYPE demo_total counter"), "{metrics}");
        assert!(metrics.contains("demo_seconds_bucket"), "{metrics}");
        let (_, json) = http_get(addr, "/metrics.json");
        assert!(json.contains("\"demo_total\""), "{json}");
        let (_, health) = http_get(addr, "/healthz");
        assert_eq!(health, "status: ok\nok   probe self\n");
        assert_eq!(http_get(addr, "/readyz").1, health);
        telemetry.shutdown();
    }

    #[test]
    fn healthz_answers_503_when_unhealthy() {
        let report = "status: unhealthy\nFAIL probe disk: disk full\n";
        let telemetry = fixture(false, report);
        let (status, body) = http_get(telemetry.local_addr(), "/healthz");
        assert_eq!((status, body.as_str()), (503, report));
        let (status, _) = http_get(telemetry.local_addr(), "/readyz");
        assert_eq!(status, 503);
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

    #[test]
    fn traces_routes_render_both_formats() {
        let telemetry = healthy_fixture();
        let addr = telemetry.local_addr();
        let (status, text) = http_get(addr, "/traces");
        assert_eq!(status, 200);
        assert!(text.contains("1 retained trace(s)"), "{text}");
        assert!(text.contains("threshold"), "{text}");
        let (status, json) = http_get(addr, "/traces?format=json");
        assert_eq!(status, 200);
        assert!(json.starts_with('[') && json.ends_with(']'), "{json}");
        assert!(json.contains("\"threshold\""), "{json}");
        telemetry.shutdown();
    }

    #[test]
    fn slowlog_route_renders_both_formats() {
        let telemetry = healthy_fixture();
        let addr = telemetry.local_addr();
        let (status, slow) = http_get(addr, "/slowlog");
        assert_eq!(status, 200);
        assert!(slow.contains("slow queries"), "{slow}");
        let (status, json) = http_get(addr, "/slowlog?format=json");
        assert_eq!(status, 200);
        assert!(json.contains("\"rank\":1"), "{json}");
        telemetry.shutdown();
    }
}
