//! A blocking client for the wire protocol.
//!
//! [`TrassClient`] owns one TCP connection and issues one request at a
//! time (the protocol has no pipelining or request ids — responses come
//! back in order). It is the substrate for the `trass-client` binary,
//! the `repro loadtest` harness, and the e2e tests;
//! [`TrassClient::send_raw`] exists so robustness tests can ship
//! malformed frames and observe the server's error responses.
//!
//! Result distances cross the wire as IEEE-754 bit patterns, so
//! `got.to_bits() == expected.to_bits()` is a meaningful byte-identity
//! assertion against embedded execution.

use crate::protocol::{
    self, ErrorCode, FrameHeader, Op, QueryRef, Request, Response, HEADER_LEN, PROTOCOL_VERSION,
};
use std::fmt;
use std::io::{Read as _, Write as _};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;
use trass_traj::{Measure, Trajectory};

/// Default socket timeout: generous enough for a cold query, small
/// enough that a dead server fails the call instead of hanging it.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// The socket failed.
    Io(std::io::Error),
    /// The server's bytes did not decode as a protocol response.
    Protocol(String),
    /// The server answered with an in-protocol error response.
    Server {
        /// The response status.
        code: ErrorCode,
        /// The server's message.
        message: String,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol: {m}"),
            ClientError::Server { code, message } => {
                write!(f, "server error ({}): {message}", code.name())
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// A raw response frame, for tests probing the server with hand-built
/// (possibly malformed) bytes.
#[derive(Debug, Clone)]
pub struct RawReply {
    /// The response header's version byte.
    pub version: u8,
    /// The response status byte.
    pub status: u8,
    /// The undecoded payload.
    pub payload: Vec<u8>,
}

impl RawReply {
    /// Decodes the payload as the error message the server sent (error
    /// payloads are one length-prefixed string).
    pub fn error_message(&self) -> Option<String> {
        match protocol::decode_response(Op::Health, self.status, &self.payload) {
            Ok(Response::Error { message, .. }) => Some(message),
            _ => None,
        }
    }
}

/// A connected client.
pub struct TrassClient {
    stream: TcpStream,
    max_frame: u32,
}

impl TrassClient {
    /// Connects to `addr` (e.g. `"127.0.0.1:4750"`).
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<TrassClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(CLIENT_TIMEOUT))?;
        stream.set_write_timeout(Some(CLIENT_TIMEOUT))?;
        stream.set_nodelay(true)?;
        Ok(TrassClient { stream, max_frame: protocol::DEFAULT_MAX_FRAME_BYTES })
    }

    /// Sends one request and decodes its response. [`Response::Error`]
    /// becomes [`ClientError::Server`].
    pub fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        let bytes =
            protocol::encode_request(request).map_err(|e| ClientError::Protocol(e.to_string()))?;
        self.stream.write_all(&bytes)?;
        let (header, payload) = self.read_reply()?;
        match protocol::decode_response(request.op(), header.op, &payload) {
            Ok(Response::Error { code, message }) => Err(ClientError::Server { code, message }),
            Ok(resp) => Ok(resp),
            Err(e) => Err(ClientError::Protocol(e.to_string())),
        }
    }

    /// Threshold similarity search.
    pub fn threshold(
        &mut self,
        query: QueryRef,
        eps: f64,
        measure: Measure,
    ) -> Result<Vec<(u64, f64)>, ClientError> {
        match self.call(&Request::Threshold { query, eps, measure })? {
            Response::Results(r) => Ok(r),
            other => Err(unexpected(&other)),
        }
    }

    /// Top-k similarity search.
    pub fn top_k(
        &mut self,
        query: QueryRef,
        k: u32,
        measure: Measure,
    ) -> Result<Vec<(u64, f64)>, ClientError> {
        match self.call(&Request::TopK { query, k, measure })? {
            Response::Results(r) => Ok(r),
            other => Err(unexpected(&other)),
        }
    }

    /// Spatial range query; distances in the result set are `0.0`.
    pub fn range(&mut self, window: [f64; 4]) -> Result<Vec<(u64, f64)>, ClientError> {
        match self.call(&Request::Range { window })? {
            Response::Results(r) => Ok(r),
            other => Err(unexpected(&other)),
        }
    }

    /// Inserts a batch; returns the server's ingested count.
    pub fn ingest(&mut self, trajectories: Vec<Trajectory>) -> Result<u32, ClientError> {
        match self.call(&Request::Ingest { trajectories })? {
            Response::Ingested(n) => Ok(n),
            other => Err(unexpected(&other)),
        }
    }

    /// Runs `inner` (threshold / top-k / range) under EXPLAIN ANALYZE;
    /// returns the result set and the rendered trace.
    pub fn explain(&mut self, inner: Request) -> Result<(Vec<(u64, f64)>, String), ClientError> {
        match self.call(&Request::Explain { inner: Box::new(inner) })? {
            Response::Explained { results, trace } => Ok((results, trace)),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches the store's health report (`/healthz`'s text).
    pub fn health(&mut self) -> Result<String, ClientError> {
        match self.call(&Request::Health)? {
            Response::Health(text) => Ok(text),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches the registry in the Prometheus text format (`/metrics`'s
    /// text).
    pub fn stats(&mut self) -> Result<String, ClientError> {
        match self.call(&Request::Stats)? {
            Response::Stats(text) => Ok(text),
            other => Err(unexpected(&other)),
        }
    }

    /// Asks the server to shut down gracefully.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Ships raw bytes and reads one response frame — the robustness
    /// tests' hook for malformed input. The bytes are sent verbatim; the
    /// reply is returned undecoded.
    pub fn send_raw(&mut self, bytes: &[u8]) -> Result<RawReply, ClientError> {
        self.stream.write_all(bytes)?;
        let (header, payload) = self.read_reply()?;
        Ok(RawReply { version: header.version, status: header.op, payload })
    }

    /// Ships raw bytes without waiting for a reply — for probes whose
    /// point is to abandon the connection mid-frame.
    pub fn send_raw_no_reply(&mut self, bytes: &[u8]) -> Result<(), ClientError> {
        self.stream.write_all(bytes)?;
        self.stream.flush()?;
        Ok(())
    }

    fn read_reply(&mut self) -> Result<(FrameHeader, Vec<u8>), ClientError> {
        let mut head = [0u8; HEADER_LEN];
        self.stream.read_exact(&mut head)?;
        let header = FrameHeader::parse(&head)
            .ok_or_else(|| ClientError::Protocol("short response header".to_string()))?;
        if header.version != PROTOCOL_VERSION {
            return Err(ClientError::Protocol(format!(
                "server answered with protocol version {}",
                header.version
            )));
        }
        if header.payload_len > self.max_frame {
            return Err(ClientError::Protocol(format!(
                "response frame of {} bytes exceeds the {}-byte limit",
                header.payload_len, self.max_frame
            )));
        }
        let mut payload = vec![0u8; header.payload_len as usize];
        self.stream.read_exact(&mut payload)?;
        Ok((header, payload))
    }
}

impl fmt::Debug for TrassClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TrassClient").field("peer", &self.stream.peer_addr().ok()).finish()
    }
}

fn unexpected(resp: &Response) -> ClientError {
    ClientError::Protocol(format!("unexpected response variant: {resp:?}"))
}
