//! Wire protocol v1.
//!
//! Every frame — request or response — is a 6-byte header followed by a
//! payload, all integers little-endian:
//!
//! ```text
//! offset  size  field
//! 0       4     payload_len (u32)   bytes after the header
//! 4       1     version     (u8)    always 1
//! 5       1     op          (u8)    request: opcode; response: status
//! 6       n     payload             op-specific, n == payload_len
//! ```
//!
//! Request opcodes:
//!
//! | op   | name      | payload                                          |
//! |------|-----------|--------------------------------------------------|
//! | 0x01 | threshold | query-ref, `eps: f64`, `measure: u8`             |
//! | 0x02 | topk      | query-ref, `k: u32`, `measure: u8`               |
//! | 0x03 | range     | `min_x, min_y, max_x, max_y: f64`                |
//! | 0x04 | ingest    | `count: u32`, then `count` trajectories          |
//! | 0x05 | explain   | inner opcode (`u8`), then that op's payload      |
//! | 0x06 | health    | empty                                            |
//! | 0x07 | stats     | empty                                            |
//! | 0x0F | shutdown  | empty                                            |
//!
//! A response's `op` byte is a status: `0x00` OK, else an [`ErrorCode`].
//! OK payloads mirror the request (a result set for queries, a count for
//! ingest, text for health/stats); error payloads carry one
//! length-prefixed UTF-8 message.
//!
//! Encodings: a *query-ref* is a tag byte — `0` + `tid: u64` for a
//! stored trajectory, `1` + an inline trajectory. A *trajectory* is
//! `id: u64`, `n_points: u32`, then `n_points` × (`x: f64`, `y: f64`). A
//! *result set* is `n: u32`, then `n` × (`tid: u64`, `distance: f64`).
//! Distances are transported as their IEEE-754 bit patterns, so a client
//! can assert byte-identity against embedded execution. A *string* is
//! `len: u32` + UTF-8 bytes.
//!
//! Decoding is total: every malformed input maps to a [`ProtocolError`]
//! whose [`ErrorCode`] becomes the response status — truncated payloads
//! and trailing garbage are [`ErrorCode::Malformed`], unknown opcodes
//! [`ErrorCode::UnknownOp`], semantic violations (bad measure code, empty
//! inline trajectory, nested explain) [`ErrorCode::BadRequest`]. Nothing
//! in this module panics on wire input.

use std::fmt;
use trass_geo::{Mbr, Point};
use trass_traj::{Measure, Trajectory};

/// The only protocol version this build speaks.
pub const PROTOCOL_VERSION: u8 = 1;
/// Bytes in a frame header.
pub const HEADER_LEN: usize = 6;
/// Response status byte for success.
pub const STATUS_OK: u8 = 0;
/// Default cap on `payload_len` (overridable via `TRASS_SERVE_MAX_FRAME`).
pub const DEFAULT_MAX_FRAME_BYTES: u32 = 16 * 1024 * 1024;

/// Request opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Threshold similarity search.
    Threshold,
    /// Top-k similarity search.
    TopK,
    /// Spatial range query.
    Range,
    /// Insert a batch of trajectories.
    Ingest,
    /// Run a query under EXPLAIN ANALYZE, returning the trace text too.
    Explain,
    /// The store's health report, as `/healthz` serves it.
    Health,
    /// The registry in the Prometheus text format, as `/metrics` serves it.
    Stats,
    /// Ask the server to stop accepting and join its threads.
    Shutdown,
}

/// Every opcode, in wire order (drives metric pre-registration and tests).
pub const ALL_OPS: [Op; 8] = [
    Op::Threshold,
    Op::TopK,
    Op::Range,
    Op::Ingest,
    Op::Explain,
    Op::Health,
    Op::Stats,
    Op::Shutdown,
];

impl Op {
    /// The wire byte.
    pub fn code(self) -> u8 {
        match self {
            Op::Threshold => 0x01,
            Op::TopK => 0x02,
            Op::Range => 0x03,
            Op::Ingest => 0x04,
            Op::Explain => 0x05,
            Op::Health => 0x06,
            Op::Stats => 0x07,
            Op::Shutdown => 0x0F,
        }
    }

    /// Parses a wire byte; `None` for unknown opcodes.
    pub fn from_code(code: u8) -> Option<Op> {
        ALL_OPS.iter().copied().find(|op| op.code() == code)
    }

    /// The label used in metrics and logs.
    pub fn name(self) -> &'static str {
        match self {
            Op::Threshold => "threshold",
            Op::TopK => "topk",
            Op::Range => "range",
            Op::Ingest => "ingest",
            Op::Explain => "explain",
            Op::Health => "health",
            Op::Stats => "stats",
            Op::Shutdown => "shutdown",
        }
    }
}

/// Response status bytes other than [`STATUS_OK`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The payload does not decode under its opcode (truncated, trailing
    /// garbage, bad UTF-8, …). The connection survives: framing is intact.
    Malformed,
    /// The frame's version byte is not [`PROTOCOL_VERSION`]. The server
    /// closes the connection after responding — it cannot trust the rest
    /// of the stream's framing.
    UnsupportedVersion,
    /// The opcode byte names no operation. The connection survives.
    UnknownOp,
    /// The payload decodes but violates a semantic rule (unknown measure
    /// code, empty inline trajectory, nested explain, non-finite point).
    BadRequest,
    /// A stored query reference names a trajectory the store lacks.
    NotFound,
    /// The store returned an error while executing the request.
    Internal,
    /// `payload_len` exceeds the server's frame cap. The server closes
    /// the connection after responding: it will not buffer the payload.
    TooLarge,
}

impl ErrorCode {
    /// The wire status byte.
    pub fn code(self) -> u8 {
        match self {
            ErrorCode::Malformed => 0x01,
            ErrorCode::UnsupportedVersion => 0x02,
            ErrorCode::UnknownOp => 0x03,
            ErrorCode::BadRequest => 0x04,
            ErrorCode::NotFound => 0x05,
            ErrorCode::Internal => 0x06,
            ErrorCode::TooLarge => 0x07,
        }
    }

    /// Parses a status byte; `None` for [`STATUS_OK`] or unknown bytes.
    pub fn from_code(code: u8) -> Option<ErrorCode> {
        [
            ErrorCode::Malformed,
            ErrorCode::UnsupportedVersion,
            ErrorCode::UnknownOp,
            ErrorCode::BadRequest,
            ErrorCode::NotFound,
            ErrorCode::Internal,
            ErrorCode::TooLarge,
        ]
        .iter()
        .copied()
        .find(|e| e.code() == code)
    }

    /// A stable name for logs and client errors.
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::Malformed => "malformed-frame",
            ErrorCode::UnsupportedVersion => "unsupported-version",
            ErrorCode::UnknownOp => "unknown-op",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::NotFound => "not-found",
            ErrorCode::Internal => "internal",
            ErrorCode::TooLarge => "frame-too-large",
        }
    }
}

/// A decoding or encoding failure; `code` becomes the response status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    /// The status byte the server answers with.
    pub code: ErrorCode,
    /// Human-readable context carried in the error payload.
    pub message: String,
}

impl ProtocolError {
    /// A [`ErrorCode::Malformed`] error with decoding context.
    pub fn malformed(context: &str) -> ProtocolError {
        ProtocolError {
            code: ErrorCode::Malformed,
            message: format!("malformed payload: {context}"),
        }
    }

    /// A [`ErrorCode::BadRequest`] error.
    pub fn bad_request(message: impl Into<String>) -> ProtocolError {
        ProtocolError { code: ErrorCode::BadRequest, message: message.into() }
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code.name(), self.message)
    }
}

impl std::error::Error for ProtocolError {}

/// A parsed frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Bytes of payload following the header.
    pub payload_len: u32,
    /// Protocol version byte.
    pub version: u8,
    /// Opcode (requests) or status (responses).
    pub op: u8,
}

impl FrameHeader {
    /// Parses the first [`HEADER_LEN`] bytes; `None` when `buf` is shorter.
    pub fn parse(buf: &[u8]) -> Option<FrameHeader> {
        let b = |i: usize| buf.get(i).copied();
        let payload_len = u32::from_le_bytes([b(0)?, b(1)?, b(2)?, b(3)?]);
        Some(FrameHeader { payload_len, version: b(4)?, op: b(5)? })
    }

    /// Encodes the header.
    pub fn encode(&self) -> [u8; HEADER_LEN] {
        let l = self.payload_len.to_le_bytes();
        [l[0], l[1], l[2], l[3], self.version, self.op]
    }
}

/// How a similarity query names its query trajectory.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryRef {
    /// A trajectory already in the store, by id.
    Stored(u64),
    /// A trajectory shipped inline with the request.
    Inline(Trajectory),
}

/// A decoded request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Threshold similarity search (`f(Q, T) ≤ eps`).
    Threshold {
        /// The query trajectory.
        query: QueryRef,
        /// Similarity threshold in world units.
        eps: f64,
        /// Similarity measure.
        measure: Measure,
    },
    /// Top-k similarity search.
    TopK {
        /// The query trajectory.
        query: QueryRef,
        /// Number of results.
        k: u32,
        /// Similarity measure.
        measure: Measure,
    },
    /// Spatial range query over a window.
    Range {
        /// `[min_x, min_y, max_x, max_y]` in world coordinates.
        window: [f64; 4],
    },
    /// Insert a batch of trajectories.
    Ingest {
        /// The batch; every trajectory is non-empty with finite points.
        trajectories: Vec<Trajectory>,
    },
    /// Run the inner query under EXPLAIN ANALYZE. The inner request is
    /// one of `Threshold` / `TopK` / `Range`; nesting is rejected.
    Explain {
        /// The query to explain.
        inner: Box<Request>,
    },
    /// The store's health report.
    Health,
    /// The registry in the Prometheus text format.
    Stats,
    /// Graceful server shutdown.
    Shutdown,
}

impl Request {
    /// The opcode this request travels under.
    pub fn op(&self) -> Op {
        match self {
            Request::Threshold { .. } => Op::Threshold,
            Request::TopK { .. } => Op::TopK,
            Request::Range { .. } => Op::Range,
            Request::Ingest { .. } => Op::Ingest,
            Request::Explain { .. } => Op::Explain,
            Request::Health => Op::Health,
            Request::Stats => Op::Stats,
            Request::Shutdown => Op::Shutdown,
        }
    }
}

/// A decoded response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Result set of a threshold / top-k / range query. Range results
    /// carry distance `0.0`, mirroring embedded execution.
    Results(Vec<(u64, f64)>),
    /// Number of trajectories ingested.
    Ingested(u32),
    /// An explained query: its result set plus the rendered trace tree.
    Explained {
        /// The query's normal result set.
        results: Vec<(u64, f64)>,
        /// `QueryTrace::render_text()` output.
        trace: String,
    },
    /// The store's health report.
    Health(String),
    /// The registry in the Prometheus text format.
    Stats(String),
    /// Acknowledgement that the server is shutting down.
    ShuttingDown,
    /// An error status with its message.
    Error {
        /// The status byte.
        code: ErrorCode,
        /// The server's message.
        message: String,
    },
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Frames `payload` under `op` (an opcode or a status byte).
pub fn frame(op: u8, payload: &[u8]) -> Result<Vec<u8>, ProtocolError> {
    let payload_len = u32::try_from(payload.len()).map_err(|_| ProtocolError {
        code: ErrorCode::TooLarge,
        message: format!("payload of {} bytes exceeds the u32 frame limit", payload.len()),
    })?;
    let header = FrameHeader { payload_len, version: PROTOCOL_VERSION, op };
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&header.encode());
    out.extend_from_slice(payload);
    Ok(out)
}

/// Encodes a request as a complete frame.
pub fn encode_request(req: &Request) -> Result<Vec<u8>, ProtocolError> {
    let mut payload = Vec::new();
    encode_request_payload(req, &mut payload)?;
    frame(req.op().code(), &payload)
}

fn encode_request_payload(req: &Request, out: &mut Vec<u8>) -> Result<(), ProtocolError> {
    match req {
        Request::Threshold { query, eps, measure } => {
            put_query_ref(out, query);
            out.extend_from_slice(&eps.to_bits().to_le_bytes());
            out.push(measure_code(*measure));
        }
        Request::TopK { query, k, measure } => {
            put_query_ref(out, query);
            out.extend_from_slice(&k.to_le_bytes());
            out.push(measure_code(*measure));
        }
        Request::Range { window } => {
            for v in window {
                out.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
        Request::Ingest { trajectories } => {
            let n = u32::try_from(trajectories.len())
                .map_err(|_| ProtocolError::bad_request("ingest batch exceeds u32 entries"))?;
            out.extend_from_slice(&n.to_le_bytes());
            for t in trajectories {
                put_trajectory(out, t);
            }
        }
        Request::Explain { inner } => {
            match inner.as_ref() {
                Request::Threshold { .. } | Request::TopK { .. } | Request::Range { .. } => {}
                other => {
                    return Err(ProtocolError::bad_request(format!(
                        "explain cannot wrap op `{}`",
                        other.op().name()
                    )))
                }
            }
            out.push(inner.op().code());
            encode_request_payload(inner, out)?;
        }
        Request::Health | Request::Stats | Request::Shutdown => {}
    }
    Ok(())
}

/// Encodes a response as a complete frame. The status byte is
/// [`STATUS_OK`] except for [`Response::Error`].
pub fn encode_response(resp: &Response) -> Result<Vec<u8>, ProtocolError> {
    let mut payload = Vec::new();
    let status = match resp {
        Response::Results(results) => {
            put_results(&mut payload, results)?;
            STATUS_OK
        }
        Response::Ingested(n) => {
            payload.extend_from_slice(&n.to_le_bytes());
            STATUS_OK
        }
        Response::Explained { results, trace } => {
            put_results(&mut payload, results)?;
            put_string(&mut payload, trace)?;
            STATUS_OK
        }
        Response::Health(text) => {
            put_string(&mut payload, text)?;
            STATUS_OK
        }
        Response::Stats(text) => {
            put_string(&mut payload, text)?;
            STATUS_OK
        }
        Response::ShuttingDown => STATUS_OK,
        Response::Error { code, message } => {
            put_string(&mut payload, message)?;
            code.code()
        }
    };
    // `ShuttingDown` and OK result sets share STATUS_OK; the client knows
    // which payload shape to expect from the op it sent.
    frame(status, &payload)
}

fn put_query_ref(out: &mut Vec<u8>, q: &QueryRef) {
    match q {
        QueryRef::Stored(tid) => {
            out.push(0);
            out.extend_from_slice(&tid.to_le_bytes());
        }
        QueryRef::Inline(t) => {
            out.push(1);
            put_trajectory(out, t);
        }
    }
}

fn put_trajectory(out: &mut Vec<u8>, t: &Trajectory) {
    out.extend_from_slice(&t.id.to_le_bytes());
    let n = u32::try_from(t.len()).unwrap_or(u32::MAX);
    out.extend_from_slice(&n.to_le_bytes());
    for p in t.points() {
        out.extend_from_slice(&p.x.to_bits().to_le_bytes());
        out.extend_from_slice(&p.y.to_bits().to_le_bytes());
    }
}

fn put_results(out: &mut Vec<u8>, results: &[(u64, f64)]) -> Result<(), ProtocolError> {
    let n = u32::try_from(results.len()).map_err(|_| ProtocolError {
        code: ErrorCode::TooLarge,
        message: "result set exceeds u32 entries".to_string(),
    })?;
    out.extend_from_slice(&n.to_le_bytes());
    for (tid, d) in results {
        out.extend_from_slice(&tid.to_le_bytes());
        out.extend_from_slice(&d.to_bits().to_le_bytes());
    }
    Ok(())
}

fn put_string(out: &mut Vec<u8>, s: &str) -> Result<(), ProtocolError> {
    let n = u32::try_from(s.len()).map_err(|_| ProtocolError {
        code: ErrorCode::TooLarge,
        message: "string exceeds u32 bytes".to_string(),
    })?;
    out.extend_from_slice(&n.to_le_bytes());
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

fn measure_code(m: Measure) -> u8 {
    match m {
        Measure::Frechet => 0,
        Measure::Hausdorff => 1,
        Measure::Dtw => 2,
    }
}

fn measure_from_code(code: u8) -> Result<Measure, ProtocolError> {
    match code {
        0 => Ok(Measure::Frechet),
        1 => Ok(Measure::Hausdorff),
        2 => Ok(Measure::Dtw),
        other => Err(ProtocolError::bad_request(format!("unknown measure code {other}"))),
    }
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// A checked little-endian payload reader; every read is bounds-checked
/// and a failure carries the field being decoded.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    fn take(&mut self, n: usize, context: &str) -> Result<&'a [u8], ProtocolError> {
        let end = self.pos.checked_add(n).ok_or_else(|| ProtocolError::malformed(context))?;
        let slice = self.buf.get(self.pos..end).ok_or_else(|| ProtocolError::malformed(context))?;
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self, context: &str) -> Result<u8, ProtocolError> {
        Ok(self.take(1, context)?.first().copied().unwrap_or_default())
    }

    fn u32(&mut self, context: &str) -> Result<u32, ProtocolError> {
        let b = self.take(4, context)?;
        let mut a = [0u8; 4];
        a.copy_from_slice(b);
        Ok(u32::from_le_bytes(a))
    }

    fn u64(&mut self, context: &str) -> Result<u64, ProtocolError> {
        let b = self.take(8, context)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    fn f64(&mut self, context: &str) -> Result<f64, ProtocolError> {
        Ok(f64::from_bits(self.u64(context)?))
    }

    fn string(&mut self, context: &str) -> Result<String, ProtocolError> {
        let n = self.u32(context)? as usize;
        let bytes = self.take(n, context)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| ProtocolError::malformed(&format!("{context}: invalid UTF-8")))
    }

    /// Rejects trailing bytes: a frame that decodes but has leftovers was
    /// framed wrong, and silently ignoring the tail would mask it.
    fn expect_end(&self, context: &str) -> Result<(), ProtocolError> {
        if self.remaining() != 0 {
            return Err(ProtocolError::malformed(&format!(
                "{context}: {} trailing byte(s) after payload",
                self.remaining()
            )));
        }
        Ok(())
    }
}

/// Decodes a request payload under its opcode byte.
pub fn decode_request(op: u8, payload: &[u8]) -> Result<Request, ProtocolError> {
    let op = Op::from_code(op).ok_or(ProtocolError {
        code: ErrorCode::UnknownOp,
        message: format!("unknown opcode 0x{op:02X}"),
    })?;
    let mut r = Reader::new(payload);
    let req = decode_request_body(op, &mut r, false)?;
    r.expect_end(op.name())?;
    Ok(req)
}

fn decode_request_body(
    op: Op,
    r: &mut Reader<'_>,
    inside_explain: bool,
) -> Result<Request, ProtocolError> {
    match op {
        Op::Threshold => {
            let query = read_query_ref(r)?;
            let eps = r.f64("threshold.eps")?;
            let measure = measure_from_code(r.u8("threshold.measure")?)?;
            // +∞ is a threshold like any other: every row qualifies.
            if eps.is_nan() || eps < 0.0 {
                return Err(ProtocolError::bad_request(format!(
                    "threshold eps must be non-negative, got {eps}"
                )));
            }
            Ok(Request::Threshold { query, eps, measure })
        }
        Op::TopK => {
            let query = read_query_ref(r)?;
            let k = r.u32("topk.k")?;
            let measure = measure_from_code(r.u8("topk.measure")?)?;
            Ok(Request::TopK { query, k, measure })
        }
        Op::Range => {
            let mut window = [0.0f64; 4];
            for (i, v) in window.iter_mut().enumerate() {
                *v = r.f64(&format!("range.window[{i}]"))?;
                if !v.is_finite() {
                    return Err(ProtocolError::bad_request(
                        "range window coordinates must be finite",
                    ));
                }
            }
            Ok(Request::Range { window })
        }
        Op::Ingest => {
            let n = r.u32("ingest.count")? as usize;
            // Each trajectory is at least 8 + 4 + 16 bytes; reject counts
            // the payload cannot possibly hold before allocating.
            match n.checked_mul(28) {
                Some(need) if need <= r.remaining() => {}
                _ => {
                    return Err(ProtocolError::malformed(
                        "ingest.count larger than the payload can hold",
                    ))
                }
            }
            let mut trajectories = Vec::with_capacity(n);
            for i in 0..n {
                trajectories.push(read_trajectory(r, &format!("ingest[{i}]"))?);
            }
            Ok(Request::Ingest { trajectories })
        }
        Op::Explain => {
            if inside_explain {
                return Err(ProtocolError::bad_request("explain cannot nest"));
            }
            let inner_code = r.u8("explain.inner_op")?;
            let inner_op = Op::from_code(inner_code).ok_or(ProtocolError {
                code: ErrorCode::UnknownOp,
                message: format!("explain wraps unknown opcode 0x{inner_code:02X}"),
            })?;
            match inner_op {
                Op::Threshold | Op::TopK | Op::Range => {}
                other => {
                    return Err(ProtocolError::bad_request(format!(
                        "explain cannot wrap op `{}`",
                        other.name()
                    )))
                }
            }
            let inner = decode_request_body(inner_op, r, true)?;
            Ok(Request::Explain { inner: Box::new(inner) })
        }
        Op::Health => Ok(Request::Health),
        Op::Stats => Ok(Request::Stats),
        Op::Shutdown => Ok(Request::Shutdown),
    }
}

fn read_query_ref(r: &mut Reader<'_>) -> Result<QueryRef, ProtocolError> {
    match r.u8("query_ref.tag")? {
        0 => Ok(QueryRef::Stored(r.u64("query_ref.tid")?)),
        1 => Ok(QueryRef::Inline(read_trajectory(r, "query_ref.inline")?)),
        other => Err(ProtocolError::malformed(&format!("unknown query-ref tag {other}"))),
    }
}

fn read_trajectory(r: &mut Reader<'_>, context: &str) -> Result<Trajectory, ProtocolError> {
    let id = r.u64(context)?;
    let n = r.u32(context)? as usize;
    match n.checked_mul(16) {
        Some(need) if need <= r.remaining() => {}
        _ => {
            return Err(ProtocolError::malformed(&format!(
                "{context}: point count larger than the payload can hold"
            )))
        }
    }
    let mut points = Vec::with_capacity(n);
    for _ in 0..n {
        let x = r.f64(context)?;
        let y = r.f64(context)?;
        points.push(Point::new(x, y));
    }
    Trajectory::try_new(id, points).ok_or_else(|| {
        ProtocolError::bad_request(format!(
            "{context}: trajectory {id} must be non-empty with finite coordinates"
        ))
    })
}

/// Decodes a response payload. `request_op` selects the OK payload shape
/// (the client knows what it asked); `status` is the frame's op byte.
pub fn decode_response(
    request_op: Op,
    status: u8,
    payload: &[u8],
) -> Result<Response, ProtocolError> {
    let mut r = Reader::new(payload);
    if status != STATUS_OK {
        let code = ErrorCode::from_code(status).ok_or_else(|| {
            ProtocolError::malformed(&format!("unknown response status 0x{status:02X}"))
        })?;
        let message = r.string("error.message")?;
        r.expect_end("error")?;
        return Ok(Response::Error { code, message });
    }
    let resp = match request_op {
        Op::Threshold | Op::TopK | Op::Range => Response::Results(read_results(&mut r)?),
        Op::Ingest => Response::Ingested(r.u32("ingested.count")?),
        Op::Explain => {
            let results = read_results(&mut r)?;
            let trace = r.string("explained.trace")?;
            Response::Explained { results, trace }
        }
        Op::Health => Response::Health(r.string("health.text")?),
        Op::Stats => Response::Stats(r.string("stats.text")?),
        Op::Shutdown => Response::ShuttingDown,
    };
    r.expect_end(request_op.name())?;
    Ok(resp)
}

fn read_results(r: &mut Reader<'_>) -> Result<Vec<(u64, f64)>, ProtocolError> {
    let n = r.u32("results.count")? as usize;
    match n.checked_mul(16) {
        Some(need) if need <= r.remaining() => {}
        _ => {
            return Err(ProtocolError::malformed("results.count larger than the payload can hold"))
        }
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let tid = r.u64("results.tid")?;
        let d = r.f64("results.distance")?;
        out.push((tid, d));
    }
    Ok(out)
}

/// Builds the query window [`Mbr`] from a decoded range request.
pub fn window_mbr(window: &[f64; 4]) -> Mbr {
    Mbr::from_corners(Point::new(window[0], window[1]), Point::new(window[2], window[3]))
}
