//! The TCP server: thread-per-connection over a shared store.
//!
//! [`TrassServer::serve`] binds a listener and spawns an accept thread;
//! each connection gets its own thread running a read-loop that peels
//! complete frames off a buffer, executes them against the shared
//! [`TrajectoryStore`], and writes one response frame per request.
//! Connection threads stay cheap because query parallelism lives inside
//! the store (its one `trass-exec` query pool is shared across
//! connections), exactly as the paper's HBase deployment shares region
//! servers across clients.
//!
//! The accept loop and its shutdown are [`trass_obs::Listener`]'s, shared
//! with the telemetry endpoint: a stop flag, a wake-connect to unblock
//! `accept()`, and a join of every thread ever spawned — idempotent, also
//! on drop. Connections poll the stop flag between reads (a 200 ms read
//! timeout), so shutdown latency is bounded by that poll interval plus
//! any in-flight query.
//!
//! Error handling is the protocol's: malformed payloads and unknown
//! opcodes produce error responses and the connection survives (framing
//! is intact); an unsupported version byte or an oversized length prefix
//! produces an error response and then closes the connection, because
//! the rest of the stream cannot be trusted. Nothing here panics on wire
//! input.
//!
//! Metrics (all in the store's registry, scrapeable via telemetry):
//!
//! | series                              | kind      | labels |
//! |-------------------------------------|-----------|--------|
//! | `trass_server_connections_total`    | counter   |        |
//! | `trass_server_active_connections`   | gauge     |        |
//! | `trass_server_requests_total`       | counter   | `op`   |
//! | `trass_server_request_seconds`      | histogram | `op`   |
//! | `trass_server_protocol_errors_total`| counter   |        |

use crate::protocol::{
    self, ErrorCode, FrameHeader, Request, Response, ALL_OPS, DEFAULT_MAX_FRAME_BYTES, HEADER_LEN,
    PROTOCOL_VERSION,
};
use std::collections::HashMap;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, PoisonError};
use std::time::{Duration, Instant};
use trass_core::query;
use trass_core::store::{render_health, ExplainQuery, TrajectoryStore};
use trass_obs::sync::Mutex;
use trass_obs::{Counter, Gauge, Histogram, Listener, StopSignal};
use trass_traj::Trajectory;

/// How often an idle connection checks the stop flag (its read timeout).
const POLL_INTERVAL: Duration = Duration::from_millis(200);

/// Write timeout: a stalled client cannot hold a connection thread (and
/// therefore shutdown) hostage for longer than this.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Server tuning; [`ServerOptions::default`] reads the env knobs.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Bind address. Default: `TRASS_SERVE_ADDR`, else `127.0.0.1:0`
    /// (ephemeral port).
    pub addr: String,
    /// Largest accepted `payload_len`. Default: `TRASS_SERVE_MAX_FRAME`
    /// (bytes, clamped to ≥ 1024), else
    /// [`DEFAULT_MAX_FRAME_BYTES`].
    pub max_frame_bytes: u32,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions { addr: default_serve_addr(), max_frame_bytes: default_max_frame() }
    }
}

/// `TRASS_SERVE_ADDR` when set and non-empty: where the server binds by
/// default and where `trass-client` connects without `--addr`.
pub fn env_serve_addr() -> Option<String> {
    std::env::var("TRASS_SERVE_ADDR").ok().filter(|v| !v.is_empty())
}

/// The `addr` default: [`env_serve_addr`], otherwise loopback on an
/// ephemeral port.
pub fn default_serve_addr() -> String {
    env_serve_addr().unwrap_or_else(|| "127.0.0.1:0".to_string())
}

/// The `max_frame_bytes` default: `TRASS_SERVE_MAX_FRAME` when set to a
/// valid byte count (clamped to ≥ 1024 so a header+minimal request always
/// fits), otherwise [`DEFAULT_MAX_FRAME_BYTES`].
pub fn default_max_frame() -> u32 {
    std::env::var("TRASS_SERVE_MAX_FRAME")
        .ok()
        .and_then(|v| v.parse::<u32>().ok())
        .map(|v| v.max(1024))
        .unwrap_or(DEFAULT_MAX_FRAME_BYTES)
}

/// Pre-resolved per-op metric handles (labels `op=<name>`).
struct OpMetrics {
    requests: Arc<Counter>,
    seconds: Arc<Histogram>,
}

/// State shared between the accept thread, connection threads, and the
/// [`TrassServer`] handle.
struct Shared {
    store: Arc<TrajectoryStore>,
    max_frame: u32,
    started: Instant,
    connections_total: Arc<Counter>,
    active_connections: Arc<Gauge>,
    protocol_errors: Arc<Counter>,
    requests_total: AtomicU64,
    per_op: HashMap<u8, OpMetrics>,
    /// Set when shutdown is requested (wire op or [`TrassServer::shutdown`]);
    /// [`TrassServer::wait`] blocks on it.
    done: Mutex<bool>,
    done_cv: Condvar,
}

impl Shared {
    /// Wakes [`TrassServer::wait`] callers: shutdown has been requested.
    /// Idempotent.
    fn mark_done(&self) {
        let mut done = self.done.lock();
        *done = true;
        drop(done);
        self.done_cv.notify_all();
    }
}

/// A running server; dropping it shuts it down and joins every thread.
pub struct TrassServer {
    shared: Arc<Shared>,
    listener: Listener,
}

impl TrassServer {
    /// Binds `opts.addr` and starts serving `store`.
    pub fn serve(store: Arc<TrajectoryStore>, opts: ServerOptions) -> std::io::Result<TrassServer> {
        let registry = Arc::clone(store.registry());
        let mut per_op = HashMap::new();
        // Pre-register every op's series so the metric surface is visible
        // (and scrapeable) before the first request arrives.
        for op in ALL_OPS {
            let labels = [("op", op.name())];
            per_op.insert(
                op.code(),
                OpMetrics {
                    requests: registry.counter("trass_server_requests_total", &labels),
                    seconds: registry.timer("trass_server_request_seconds", &labels),
                },
            );
        }
        let shared = Arc::new(Shared {
            store,
            max_frame: opts.max_frame_bytes,
            started: Instant::now(),
            connections_total: registry.counter("trass_server_connections_total", &[]),
            active_connections: registry.gauge("trass_server_active_connections", &[]),
            protocol_errors: registry.counter("trass_server_protocol_errors_total", &[]),
            requests_total: AtomicU64::new(0),
            per_op,
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        });
        let conn_shared = Arc::clone(&shared);
        let listener = Listener::serve(&opts.addr, "trass-server", move |stream, stop| {
            handle_connection(stream, &conn_shared, stop)
        })?;
        Ok(TrassServer { shared, listener })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// Blocks until shutdown is requested — by a wire `shutdown` op or by
    /// [`TrassServer::shutdown`] from another thread.
    pub fn wait(&self) {
        let done = self.shared.done.lock();
        let result = self.shared.done_cv.wait_while(done, |d| !*d);
        drop(result.unwrap_or_else(PoisonError::into_inner));
    }

    /// Stops accepting, waits for in-flight requests, joins every thread.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        self.shared.mark_done();
        self.listener.shutdown();
    }
}

impl Drop for TrassServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for TrassServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrassServer").field("addr", &self.local_addr()).finish()
    }
}

/// What to do with the connection after answering a frame.
enum Disposition {
    /// Keep reading frames.
    KeepOpen,
    /// Close: the stream's framing can no longer be trusted, or the
    /// server is shutting down.
    Close,
}

/// One complete scan of the connection buffer.
enum FrameScan {
    /// Not enough bytes for a header or payload yet.
    Need,
    /// A complete frame: its opcode and payload, plus bytes to drain.
    Frame { op: u8, payload: Vec<u8>, consumed: usize },
    /// A header-level violation the connection cannot recover from.
    Fatal { code: ErrorCode, message: String },
}

/// Peels the next frame off `buf` without consuming it.
fn scan_frame(buf: &[u8], max_frame: u32) -> FrameScan {
    let Some(header) = FrameHeader::parse(buf) else { return FrameScan::Need };
    if header.version != PROTOCOL_VERSION {
        return FrameScan::Fatal {
            code: ErrorCode::UnsupportedVersion,
            message: format!(
                "protocol version {} not supported (this server speaks {PROTOCOL_VERSION})",
                header.version
            ),
        };
    }
    if header.payload_len > max_frame {
        return FrameScan::Fatal {
            code: ErrorCode::TooLarge,
            message: format!(
                "frame of {} bytes exceeds the {max_frame}-byte limit",
                header.payload_len
            ),
        };
    }
    let total = HEADER_LEN + header.payload_len as usize;
    let Some(payload) = buf.get(HEADER_LEN..total) else { return FrameScan::Need };
    FrameScan::Frame { op: header.op, payload: payload.to_vec(), consumed: total }
}

fn handle_connection(mut stream: TcpStream, shared: &Arc<Shared>, stop: &StopSignal) {
    shared.connections_total.inc();
    shared.active_connections.add(1);
    serve_connection(&mut stream, shared, stop);
    shared.active_connections.add(-1);
}

fn serve_connection(stream: &mut TcpStream, shared: &Arc<Shared>, stop: &StopSignal) {
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let _ = stream.set_nodelay(true);
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        // Drain every complete frame already buffered.
        loop {
            match scan_frame(&buf, shared.max_frame) {
                FrameScan::Need => break,
                FrameScan::Fatal { code, message } => {
                    shared.protocol_errors.inc();
                    let _ = write_response(stream, &Response::Error { code, message });
                    return;
                }
                FrameScan::Frame { op, payload, consumed } => {
                    buf.drain(..consumed);
                    match handle_frame(stream, shared, stop, op, &payload) {
                        Disposition::KeepOpen => {}
                        Disposition::Close => return,
                    }
                }
            }
        }
        if stop.is_set() {
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return, // EOF (possibly mid-frame: nothing to answer)
            Ok(n) => buf.extend_from_slice(chunk.get(..n).unwrap_or_default()),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                continue; // poll tick: re-check the stop flag
            }
            Err(_) => return,
        }
    }
}

/// Decodes, executes, and answers one frame.
fn handle_frame(
    stream: &mut TcpStream,
    shared: &Arc<Shared>,
    stop: &StopSignal,
    op: u8,
    payload: &[u8],
) -> Disposition {
    let response = match protocol::decode_request(op, payload) {
        Ok(request) => {
            shared.requests_total.fetch_add(1, Ordering::Relaxed);
            let metrics = shared.per_op.get(&request.op().code());
            if let Some(m) = metrics {
                m.requests.inc();
            }
            let started = Instant::now();
            let response = execute(shared, request);
            if let Some(m) = metrics {
                m.seconds.record_duration(started.elapsed());
            }
            response
        }
        Err(e) => {
            shared.protocol_errors.inc();
            Response::Error { code: e.code, message: e.message }
        }
    };
    let shutting_down = matches!(response, Response::ShuttingDown);
    let written = write_response(stream, &response);
    if shutting_down {
        shared.mark_done();
        stop.request();
        return Disposition::Close;
    }
    match written {
        Ok(()) => Disposition::KeepOpen,
        Err(_) => Disposition::Close,
    }
}

fn write_response(stream: &mut TcpStream, response: &Response) -> std::io::Result<()> {
    let bytes = match protocol::encode_response(response) {
        Ok(b) => b,
        Err(e) => {
            // Response too big to frame (e.g. a gigantic trace): degrade
            // to an in-protocol error rather than hanging up silently.
            let fallback = Response::Error { code: e.code, message: e.message };
            protocol::encode_response(&fallback).unwrap_or_default()
        }
    };
    stream.write_all(&bytes)?;
    stream.flush()
}

fn error_response(code: ErrorCode, message: impl Into<String>) -> Response {
    Response::Error { code, message: message.into() }
}

/// Resolves a query reference to a concrete trajectory.
fn resolve_query(shared: &Shared, query: protocol::QueryRef) -> Result<Trajectory, Response> {
    match query {
        protocol::QueryRef::Inline(t) => Ok(t),
        protocol::QueryRef::Stored(tid) => match shared.store.get(tid) {
            Ok(Some(t)) => Ok(t),
            Ok(None) => {
                Err(error_response(ErrorCode::NotFound, format!("trajectory {tid} not found")))
            }
            Err(e) => Err(error_response(ErrorCode::Internal, e.to_string())),
        },
    }
}

/// Executes a decoded request against the shared store.
fn execute(shared: &Arc<Shared>, request: Request) -> Response {
    match request {
        Request::Threshold { query, eps, measure } => {
            let q = match resolve_query(shared, query) {
                Ok(q) => q,
                Err(resp) => return resp,
            };
            match query::threshold_search(&shared.store, &q, eps, measure) {
                Ok(r) => Response::Results(r.results),
                Err(e) => error_response(ErrorCode::Internal, e.to_string()),
            }
        }
        Request::TopK { query, k, measure } => {
            let q = match resolve_query(shared, query) {
                Ok(q) => q,
                Err(resp) => return resp,
            };
            match query::top_k_search(&shared.store, &q, k as usize, measure) {
                Ok(r) => Response::Results(r.results),
                Err(e) => error_response(ErrorCode::Internal, e.to_string()),
            }
        }
        Request::Range { window } => {
            match query::range_search(&shared.store, &protocol::window_mbr(&window)) {
                Ok(r) => Response::Results(r.results),
                Err(e) => error_response(ErrorCode::Internal, e.to_string()),
            }
        }
        Request::Ingest { trajectories } => match shared.store.insert_all(trajectories.iter()) {
            Ok(n) => Response::Ingested(u32::try_from(n).unwrap_or(u32::MAX)),
            Err(e) => error_response(ErrorCode::Internal, e.to_string()),
        },
        Request::Explain { inner } => execute_explain(shared, *inner),
        Request::Health => Response::Health(health_text(shared)),
        Request::Stats => Response::Stats(shared.store.registry().render_json()),
        Request::Shutdown => Response::ShuttingDown,
    }
}

fn execute_explain(shared: &Arc<Shared>, inner: Request) -> Response {
    let explained = match inner {
        Request::Threshold { query, eps, measure } => {
            let q = match resolve_query(shared, query) {
                Ok(q) => q,
                Err(resp) => return resp,
            };
            shared.store.explain(ExplainQuery::Threshold { query: &q, eps, measure })
        }
        Request::TopK { query, k, measure } => {
            let q = match resolve_query(shared, query) {
                Ok(q) => q,
                Err(resp) => return resp,
            };
            shared.store.explain(ExplainQuery::TopK { query: &q, k: k as usize, measure })
        }
        Request::Range { window } => {
            shared.store.explain(ExplainQuery::Range { window: protocol::window_mbr(&window) })
        }
        // decode_request only builds Explain around the three query ops.
        other => {
            return error_response(
                ErrorCode::BadRequest,
                format!("explain cannot wrap op `{}`", other.op().name()),
            )
        }
    };
    match explained {
        Ok(e) => Response::Explained { results: e.result.results, trace: e.trace.render_text() },
        Err(e) => error_response(ErrorCode::Internal, e.to_string()),
    }
}

/// The store's health report, then the server's own counters.
fn health_text(shared: &Shared) -> String {
    format!(
        "{}uptime_seconds: {}\nconnections_total: {}\nrequests_total: {}\n",
        render_health(shared.store.health()).1,
        shared.started.elapsed().as_secs(),
        shared.connections_total.get(),
        shared.requests_total.load(Ordering::Relaxed),
    )
}
