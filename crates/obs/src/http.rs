//! An embedded, dependency-free telemetry HTTP endpoint.
//!
//! [`HttpServer`] is a deliberately minimal HTTP/1.1 server over the
//! shared [`Listener`]: GET-only, one request per connection,
//! thread-per-connection with a graceful-shutdown handle that joins every
//! thread it ever spawned. It exists to put the observability surface on a
//! wire for `curl` and Prometheus — it is not a general web server and
//! never parses bodies.
//!
//! [`Telemetry`] composes the server with a running
//! [`Collector`](crate::collector) and wires the standard routes:
//!
//! | route           | content                                              |
//! |-----------------|------------------------------------------------------|
//! | `/metrics`      | Prometheus text exposition                           |
//! | `/metrics.json` | JSON snapshot of the registry                        |
//! | `/traces`       | flight-recorder dump (`?format=json` for JSON)       |
//! | `/slowlog`      | the slow-query log (`?format=json` for JSON)         |
//! | `/profile`      | collapsed-stack flame-graph lines folded from the    |
//! |                 | flight recorder (`?weight=wall\|alloc\|cpu`)         |
//! | `/workload`     | per-fingerprint workload summary (`?format=json`)    |
//! | `/vars/history` | collector ring buffers as rate/delta time series     |
//! | `/healthz`      | probes + SLO verdicts; 503 on failure or burn breach |
//! | `/readyz`       | probes only; 503 on failure                          |

use crate::collector::{Collector, CollectorHandle, CollectorOptions};
use crate::health::{HealthRegistry, SloEvaluator, SloObjective, SloStatus};
use crate::json;
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

/// Telemetry endpoint tuning.
#[derive(Debug, Clone)]
pub struct TelemetryOptions {
    /// Bind address; `"127.0.0.1:0"` picks an ephemeral port.
    pub addr: String,
    /// Collector sampling interval.
    pub interval: Duration,
    /// Collector ring capacity (samples per series).
    pub history: usize,
    /// SLO objectives evaluated each collector tick.
    pub objectives: Vec<SloObjective>,
}

impl Default for TelemetryOptions {
    fn default() -> Self {
        TelemetryOptions {
            addr: "127.0.0.1:0".to_string(),
            interval: Duration::from_secs(1),
            history: 120,
            objectives: Vec::new(),
        }
    }
}

/// What the endpoint serves. Only `registry` and `health` are mandatory;
/// routes whose source is absent answer 404.
#[derive(Clone)]
pub struct TelemetrySources {
    /// The metric registry behind `/metrics`, `/metrics.json`, and the
    /// collector.
    pub registry: Arc<Registry>,
    /// Runs before every scrape and collector sample (mirror external
    /// counters into the registry here).
    pub refresh: Option<Arc<dyn Fn() + Send + Sync>>,
    /// Flight recorder behind `/traces` and `/profile`.
    pub flight: Option<Arc<FlightRecorder>>,
    /// Renders the slow-query log for `/slowlog`; the argument selects
    /// JSON (`true`, for `?format=json`) or text rendering.
    pub slowlog: Option<Arc<dyn Fn(bool) -> String + Send + Sync>>,
    /// Workload summary behind `/workload`.
    pub workload: Option<Arc<crate::fingerprint::WorkloadSummary>>,
    /// Probes behind `/healthz` and `/readyz`.
    pub health: Arc<HealthRegistry>,
}

impl std::fmt::Debug for TelemetrySources {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetrySources")
            .field("flight", &self.flight.is_some())
            .field("slowlog", &self.slowlog.is_some())
            .field("workload", &self.workload.is_some())
            .field("probes", &self.health.len())
            .finish()
    }
}

/// A running telemetry endpoint: the HTTP server plus its background
/// collector. Shuts down cleanly on [`Telemetry::shutdown`] or drop.
#[derive(Debug)]
pub struct Telemetry {
    server: HttpServer,
    collector: Arc<Collector>,
    collector_handle: CollectorHandle,
    slo: Arc<SloEvaluator>,
    health: Arc<HealthRegistry>,
}

impl Telemetry {
    /// Binds the endpoint, starts the collector thread, and wires every
    /// route described in the module docs.
    pub fn serve(opts: TelemetryOptions, sources: TelemetrySources) -> std::io::Result<Telemetry> {
        let slo = Arc::new(SloEvaluator::new(&sources.registry, opts.objectives.clone()));
        let collector = Arc::new(Collector::new(
            Arc::clone(&sources.registry),
            sources.refresh.clone(),
            Some(Arc::clone(&slo)),
            CollectorOptions { interval: opts.interval, capacity: opts.history },
        ));
        let collector_handle = collector.start()?;
        let handler = router(sources.clone(), Arc::clone(&collector), Arc::clone(&slo));
        let server = HttpServer::serve(&opts.addr, handler)?;
        Ok(Telemetry { server, collector, collector_handle, slo, health: sources.health })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// The background collector (exposed so tests and deterministic
    /// drivers can step it with `collect_once`).
    pub fn collector(&self) -> &Arc<Collector> {
        &self.collector
    }

    /// The SLO evaluator driving `/healthz`.
    pub fn slo(&self) -> &Arc<SloEvaluator> {
        &self.slo
    }

    /// The probe set behind `/healthz` and `/readyz`.
    pub fn health(&self) -> &Arc<HealthRegistry> {
        &self.health
    }

    /// Stops the collector and the server, joining every thread.
    pub fn shutdown(mut self) {
        self.collector_handle.stop();
        self.server.shutdown();
    }
}

/// Builds the route table.
fn router(sources: TelemetrySources, collector: Arc<Collector>, slo: Arc<SloEvaluator>) -> Handler {
    Arc::new(move |req: &Request| {
        match req.path.as_str() {
            "/" => Response::text(
                "trass telemetry\n\n/metrics\n/metrics.json\n/traces\n/slowlog\n/profile\n/workload\n/vars/history\n/healthz\n/readyz\n",
            ),
            "/metrics" => {
                if let Some(refresh) = &sources.refresh {
                    refresh();
                }
                Response {
                    content_type: "text/plain; version=0.0.4; charset=utf-8",
                    ..Response::text(sources.registry.render_prometheus())
                }
            }
            "/metrics.json" => {
                if let Some(refresh) = &sources.refresh {
                    refresh();
                }
                Response::json(sources.registry.render_json())
            }
            "/traces" => match &sources.flight {
                None => Response::status(404, "no flight recorder attached\n"),
                Some(flight) => {
                    let traces = flight.snapshot();
                    if req.query_has("format", "json") {
                        let docs: Vec<String> =
                            traces.iter().map(|t| t.render_json()).collect();
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
            },
            "/slowlog" => match &sources.slowlog {
                None => Response::status(404, "no slow-query log attached\n"),
                Some(render) => {
                    if req.query_has("format", "json") {
                        Response::json(render(true))
                    } else {
                        Response::text(render(false))
                    }
                }
            },
            "/profile" => match &sources.flight {
                None => Response::status(404, "no flight recorder attached\n"),
                Some(flight) => {
                    let weight = req
                        .query
                        .split('&')
                        .find_map(|kv| kv.strip_prefix("weight="))
                        .unwrap_or("wall");
                    match crate::profile::ProfileWeight::parse(weight) {
                        None => Response::status(
                            400,
                            "unknown weight; use weight=wall|alloc|cpu\n",
                        ),
                        Some(w) => Response::text(crate::profile::render_flight(flight, w)),
                    }
                }
            },
            "/workload" => match &sources.workload {
                None => Response::status(404, "no workload summary attached\n"),
                Some(workload) => {
                    if req.query_has("format", "json") {
                        Response::json(workload.render_json())
                    } else {
                        Response::text(workload.render_text())
                    }
                }
            },
            "/vars/history" => Response::json(collector.render_history()),
            "/healthz" => render_health(&sources.health, Some(&slo)),
            "/readyz" => render_health(&sources.health, None),
            _ => Response::status(404, "not found\n"),
        }
    })
}

/// Renders probe results (and, for `/healthz`, SLO verdicts) as a
/// plain-text report with a 200/503 status.
fn render_health(health: &HealthRegistry, slo: Option<&Arc<SloEvaluator>>) -> Response {
    let mut ok = true;
    let mut body = String::new();
    for report in health.check() {
        match &report.result {
            Ok(()) => body.push_str(&format!("ok   probe {}\n", report.name)),
            Err(reason) => {
                ok = false;
                body.push_str(&format!("FAIL probe {}: {}\n", report.name, reason));
            }
        }
    }
    if let Some(slo) = slo {
        for status in slo.statuses() {
            body.push_str(&render_slo_line(&status));
            if status.breached {
                ok = false;
            }
        }
    }
    if body.is_empty() {
        body.push_str("no probes registered\n");
    }
    body.insert_str(0, if ok { "status: ok\n" } else { "status: unhealthy\n" });
    Response::status(if ok { 200 } else { 503 }, body)
}

fn render_slo_line(s: &SloStatus) -> String {
    format!(
        "{} slo {} fast_burn={:.2} slow_burn={:.2}\n",
        if s.breached { "FAIL" } else { "ok  " },
        // The name is operator-provided free text; keep the line greppable.
        json::string(&s.name),
        s.fast_burn,
        s.slow_burn
    )
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

    fn telemetry_fixture(objectives: Vec<SloObjective>) -> (Arc<Registry>, Telemetry) {
        let registry = Registry::new_shared();
        registry.counter("demo_total", &[]).add(5);
        registry.timer("demo_seconds", &[]).record(1_000_000);
        let health = HealthRegistry::new_shared();
        health.register("self", || Ok(()));
        let telemetry = Telemetry::serve(
            TelemetryOptions {
                interval: Duration::from_millis(3_600_000), // effectively manual
                history: 4,
                objectives,
                ..TelemetryOptions::default()
            },
            TelemetrySources {
                registry: Arc::clone(&registry),
                refresh: None,
                flight: None,
                slowlog: None,
                workload: None,
                health,
            },
        )
        .expect("serve telemetry");
        (registry, telemetry)
    }

    #[test]
    fn telemetry_serves_every_route() {
        let (_registry, telemetry) = telemetry_fixture(Vec::new());
        let addr = telemetry.local_addr();
        let (status, metrics) = http_get(addr, "/metrics");
        assert_eq!(status, 200);
        assert!(metrics.contains("# TYPE demo_total counter"), "{metrics}");
        assert!(metrics.contains("demo_seconds_bucket"), "{metrics}");
        let (status, json) = http_get(addr, "/metrics.json");
        assert_eq!(status, 200);
        assert!(json.contains("\"demo_total\""), "{json}");
        assert_eq!(http_get(addr, "/").0, 200);
        assert_eq!(http_get(addr, "/traces").0, 404, "no flight recorder attached");
        assert_eq!(http_get(addr, "/slowlog").0, 404);
        assert_eq!(http_get(addr, "/profile").0, 404, "no flight recorder attached");
        assert_eq!(http_get(addr, "/workload").0, 404, "no workload summary attached");
        let (status, health) = http_get(addr, "/healthz");
        assert_eq!(status, 200);
        assert!(health.contains("ok   probe self"), "{health}");
        assert_eq!(http_get(addr, "/readyz").0, 200);
        telemetry.collector().collect_once();
        let (status, history) = http_get(addr, "/vars/history");
        assert_eq!(status, 200);
        assert!(history.contains("\"demo_total\""), "{history}");
        telemetry.shutdown();
    }

    #[test]
    fn healthz_fails_on_probe_failure() {
        let registry = Registry::new_shared();
        let health = HealthRegistry::new_shared();
        health.register("disk", || Err("disk full".to_string()));
        let telemetry = Telemetry::serve(
            TelemetryOptions::default(),
            TelemetrySources {
                registry,
                refresh: None,
                flight: None,
                slowlog: None,
                workload: None,
                health,
            },
        )
        .expect("serve");
        let (status, body) = http_get(telemetry.local_addr(), "/healthz");
        assert_eq!(status, 503);
        assert!(body.contains("FAIL probe disk: disk full"), "{body}");
        let (status, _) = http_get(telemetry.local_addr(), "/readyz");
        assert_eq!(status, 503);
        telemetry.shutdown();
    }

    #[test]
    fn healthz_flips_on_slo_breach_and_recovery_is_possible() {
        let mut objective = SloObjective::latency_under("lat", "demo_seconds", 0.5, 0.99);
        objective.fast_window = 2;
        objective.slow_window = 4;
        let (registry, telemetry) = telemetry_fixture(vec![objective]);
        let addr = telemetry.local_addr();
        assert_eq!(http_get(addr, "/healthz").0, 200);
        // Injected latency spike: every sample blows the 500 ms threshold.
        let t = registry.timer("demo_seconds", &[]);
        for _ in 0..5 {
            for _ in 0..10 {
                t.record(2_000_000_000);
            }
            telemetry.collector().collect_once();
        }
        let (status, body) = http_get(addr, "/healthz");
        assert_eq!(status, 503, "{body}");
        assert!(body.contains("FAIL slo \"lat\""), "{body}");
        // /readyz ignores SLOs: the process is still able to serve.
        assert_eq!(http_get(addr, "/readyz").0, 200);
        // The verdict is also a scrapeable gauge.
        let (_, metrics) = http_get(addr, "/metrics");
        assert!(metrics.contains("trass_slo_ok{objective=\"lat\"} 0"), "{metrics}");
        telemetry.shutdown();
    }

    #[test]
    fn telemetry_shutdown_is_clean() {
        // The acceptance criterion: shutdown returns (joining the accept
        // thread, every connection thread, and the collector), and the
        // port is released.
        let (_registry, telemetry) = telemetry_fixture(Vec::new());
        let addr = telemetry.local_addr();
        assert_eq!(http_get(addr, "/metrics").0, 200);
        telemetry.shutdown();
        assert!(TcpListener::bind(addr).is_ok(), "port still held after shutdown");
    }

    /// A telemetry endpoint with every optional source attached: one
    /// recorded trace, a two-format slowlog stub, and a workload summary
    /// with one fingerprint.
    fn full_fixture() -> Telemetry {
        use crate::fingerprint::{QueryFingerprint, WorkloadStats, WorkloadSummary};
        use crate::trace::TraceCtx;
        let registry = Registry::new_shared();
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
        let workload = Arc::new(WorkloadSummary::new(8));
        workload.record(
            &QueryFingerprint::threshold("frechet", 0.01, 100),
            &WorkloadStats {
                latency: Duration::from_millis(3),
                bytes_scanned: 64,
                retrieved: 10,
                candidates: 4,
                results: 2,
                refine_pruned: 0,
                alloc_bytes: 512,
            },
        );
        Telemetry::serve(
            TelemetryOptions::default(),
            TelemetrySources {
                registry,
                refresh: None,
                flight: Some(flight),
                slowlog: Some(Arc::new(|json| {
                    if json {
                        "[{\"rank\":1}]".to_string()
                    } else {
                        "slow queries: none\n".to_string()
                    }
                })),
                workload: Some(workload),
                health: HealthRegistry::new_shared(),
            },
        )
        .expect("serve")
    }

    #[test]
    fn traces_routes_render_both_formats() {
        let telemetry = full_fixture();
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
        let telemetry = full_fixture();
        let addr = telemetry.local_addr();
        let (status, slow) = http_get(addr, "/slowlog");
        assert_eq!(status, 200);
        assert!(slow.contains("slow queries"), "{slow}");
        let (status, json) = http_get(addr, "/slowlog?format=json");
        assert_eq!(status, 200);
        assert!(json.contains("\"rank\":1"), "{json}");
        telemetry.shutdown();
    }

    #[test]
    fn profile_route_folds_the_flight_recorder() {
        let telemetry = full_fixture();
        let addr = telemetry.local_addr();
        for path in ["/profile", "/profile?weight=wall"] {
            let (status, folded) = http_get(addr, path);
            assert_eq!(status, 200);
            assert!(folded.contains("threshold;scan "), "{folded}");
            assert!(folded.lines().all(|l| l.rsplit(' ').next().is_some()), "{folded}");
        }
        // alloc/cpu weights are valid even when span fields are absent —
        // they just fold to empty output.
        assert_eq!(http_get(addr, "/profile?weight=alloc").0, 200);
        assert_eq!(http_get(addr, "/profile?weight=cpu").0, 200);
        assert_eq!(http_get(addr, "/profile?weight=bogus").0, 400);
        telemetry.shutdown();
    }

    #[test]
    fn workload_route_renders_both_formats() {
        let telemetry = full_fixture();
        let addr = telemetry.local_addr();
        let (status, text) = http_get(addr, "/workload");
        assert_eq!(status, 200);
        assert!(text.contains("threshold|frechet"), "{text}");
        let (status, json) = http_get(addr, "/workload?format=json");
        assert_eq!(status, 200);
        assert!(json.contains("\"fingerprint\":\"threshold|frechet"), "{json}");
        assert!(json.contains("\"count\":1"), "{json}");
        telemetry.shutdown();
    }
}
