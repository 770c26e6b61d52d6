//! # trass-server — the TraSS network front-end
//!
//! TraSS is designed as a service layer over a key-value store (§I of the
//! paper: "serve millions of users"), but the rest of this workspace is
//! embedded-only. This crate puts the existing query surface on a wire:
//!
//! * [`protocol`] — wire protocol v1: a length-prefixed binary frame
//!   format with a versioned header, opcodes for every store operation
//!   (threshold, top-k, range, ingest, explain, health, stats, shutdown),
//!   and checked decoding that turns malformed input into typed
//!   [`protocol::ProtocolError`]s instead of panics.
//! * [`server`] — [`server::TrassServer`]: a thread-per-connection TCP
//!   server over a shared [`trass_core::store::TrajectoryStore`]. Query
//!   parallelism comes from the store's own `trass-exec` query pool, so
//!   a connection thread is cheap; graceful shutdown mirrors the
//!   telemetry endpoint's join discipline (stop flag, wake-connect, join
//!   every thread ever spawned).
//! * [`client`] — [`client::TrassClient`]: a blocking client used by the
//!   `trass-client` binary, the `repro loadtest` harness, and the e2e
//!   tests. Distances travel as raw IEEE-754 bits, so a wire result can
//!   be asserted byte-identical to embedded execution.
//! * [`cli`] — the flag, measure and window parsers and the result-line
//!   formats the `trass` and `trass-client` binaries share.
//!
//! The server publishes `trass_server_*` metrics into the store's
//! registry (scrapeable through the existing telemetry endpoint):
//! connection and request counters, per-op latency histograms, and a
//! protocol-error counter. Knobs: `TRASS_SERVE_ADDR` (bind address) and
//! `TRASS_SERVE_MAX_FRAME` (frame size limit in bytes).

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::print_stdout, clippy::print_stderr)
)]

pub mod cli;
pub mod client;
pub mod protocol;
pub mod server;

pub use client::{ClientError, RawReply, TrassClient};
pub use protocol::{ErrorCode, Op, ProtocolError, QueryRef, Request, Response};
pub use server::{ServerOptions, TrassServer};
