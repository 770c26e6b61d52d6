//! Observability for TraSS: metrics, latency histograms, query traces, and
//! exporters — with zero external dependencies.
//!
//! The paper's headline claims are I/O reduction and latency (Figs. 9–11,
//! 13, 18); operating the system at production scale additionally needs
//! per-stage latency *distributions* and store-level health counters, not
//! just cumulative totals. This crate provides that layer, shared by every
//! level of the stack:
//!
//! * [`Histogram`] — a log-bucketed (HDR-style) concurrent histogram with
//!   `record` and percentile queries (p50/p90/p99/p999) under relaxed
//!   atomics. The *same* implementation backs production metrics and the
//!   experiment harness's tail-latency numbers (Fig. 18), so the two can
//!   never disagree.
//! * [`Registry`] — named counters, gauges, and duration histograms with
//!   label support (`shard`, `stage`, `measure`, …).
//! * [`STAGE_HISTOGRAM`] — the per-stage wall-time family
//!   (`trass_query_stage_seconds{stage="scan"}`). Its one writer is
//!   `trass-core`'s staged query path, whose single call per stage feeds
//!   the histogram, the stage's [`TraceSpan`] and the per-query stats
//!   from one measured duration.
//! * [`export`] — the registry's one rendering, the Prometheus text
//!   format ([`Registry::render_prometheus`]), behind `/metrics` and the
//!   wire `Stats` op.
//! * [`json`] — the workspace's one JSON writer and parser, behind every
//!   JSON surface here and the experiment rows under `results/`.
//! * [`sync`] — poison-tolerant `Mutex`/`RwLock`, the locking policy of
//!   obs, exec, kv and the server stated once.
//! * [`SlowLog`] — a fixed-capacity top-N-by-latency query log.
//! * [`trace`] — sampled per-query span trees ([`TraceCtx`] /
//!   [`QueryTrace`]) with `EXPLAIN ANALYZE` and JSON renderers, plus a
//!   [`FlightRecorder`] ring buffer of the last N completed traces.
//! * [`http`] — an embedded, dependency-free telemetry endpoint
//!   ([`Telemetry`]) serving `/metrics`, `/traces`,
//!   `/slowlog` and `/healthz` over `std::net`, one rendering each; the
//!   slow-log and health reports are the caller's to render.
//! * [`listener`] — the one thread-per-connection accept/join loop
//!   ([`Listener`]) under both the telemetry endpoint and `trass-server`.
//! * [`alloc`] — the per-thread readings behind EXPLAIN's resource
//!   fields: a counting [`CountingAlloc`] global-allocator wrapper and
//!   per-thread CPU time, marked at span open and finish.
//!
//! Metric name conventions: `trass_query_*` (query pipeline),
//! `trass_kv_*` (store internals), `trass_ingest_*` (write path),
//! `trass_server_*` (wire front-end);
//! duration histograms end in `_seconds` and record nanoseconds internally
//! (scaled at export).

// `deny` rather than `forbid` so the allocator module (the one place that
// must `unsafe impl GlobalAlloc`) can opt out with a scoped allow.
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::print_stdout, clippy::print_stderr)
)]

pub mod alloc;
pub mod export;
pub mod histogram;
pub mod http;
pub mod json;
pub mod listener;
pub mod registry;
pub mod slowlog;
pub mod sync;
pub mod trace;

pub use alloc::{AllocSnapshot, CountingAlloc};
pub use histogram::{Histogram, Percentiles};
pub use http::{Telemetry, TelemetrySources};
pub use listener::{Listener, StopSignal};
pub use registry::{Counter, Gauge, Registry};
pub use slowlog::SlowLog;
pub use trace::{
    FieldValue, FlightRecorder, QueryTrace, SpanRecord, TraceCtx, TraceSampler, TraceSpan,
};

/// The histogram family of per-stage query wall time, labelled `stage`
/// (and `measure` for similarity queries).
pub const STAGE_HISTOGRAM: &str = "trass_query_stage_seconds";

// The unit-test binary installs the counting allocator so alloc-exactness
// tests (alloc.rs, trace.rs) see real readings.
#[cfg(test)]
#[global_allocator]
static TEST_ALLOC: alloc::CountingAlloc = alloc::CountingAlloc::system();
