//! Observability for TraSS: metrics, latency histograms, stage spans, and
//! exporters — with zero external dependencies.
//!
//! The paper's headline claims are I/O reduction and latency (Figs. 9–11,
//! 13, 18); operating the system at production scale additionally needs
//! per-stage latency *distributions* and store-level health counters, not
//! just cumulative totals. This crate provides that layer, shared by every
//! level of the stack:
//!
//! * [`Histogram`] — a log-bucketed (HDR-style) concurrent histogram with
//!   `record` / `merge` / percentile queries (p50/p90/p99/p999) under
//!   relaxed atomics. The *same* implementation backs production metrics
//!   and the benchmark harness's tail-latency numbers (Fig. 18), so the
//!   two can never disagree.
//! * [`Registry`] — named counters, gauges, and histograms with label
//!   support (`shard`, `stage`, `measure`, …).
//! * [`Span`] — an RAII timer feeding per-stage histograms
//!   (`trass_query_stage_seconds{stage="scan"}`), wired through the query
//!   pipeline and the KV store's maintenance paths.
//! * Exporters — Prometheus text format ([`Registry::render_prometheus`])
//!   and JSON ([`Registry::render_json`] / [`Registry::snapshot`]).
//! * [`json`] — the workspace's one JSON writer and parser, behind every
//!   JSON surface here and the experiment rows under `results/`.
//! * [`sync`] — poison-tolerant `Mutex`/`RwLock`, the locking policy of
//!   obs, exec, kv and the server stated once.
//! * [`SlowLog`] — a fixed-capacity top-N-by-latency query log.
//! * [`trace`] — sampled per-query span trees ([`TraceCtx`] /
//!   [`QueryTrace`]) with `EXPLAIN ANALYZE` and JSON renderers, plus a
//!   [`FlightRecorder`] ring buffer of the last N completed traces.
//! * [`http`] — an embedded, dependency-free telemetry endpoint
//!   ([`Telemetry`] / [`HttpServer`]) serving `/metrics`, `/traces`,
//!   `/slowlog`, `/vars/history`, `/healthz`, and `/readyz` over
//!   `std::net`.
//! * [`collector`] — a background thread ([`Collector`]) that samples the
//!   registry on an interval into fixed-size per-series ring buffers, so
//!   the endpoint can serve short-horizon rate/delta time series without
//!   an external TSDB.
//! * [`health`] — liveness/readiness probes ([`HealthRegistry`]) and
//!   multi-window SLO burn-rate evaluation ([`SloEvaluator`]) whose
//!   verdicts drive `/healthz` status codes and `trass_slo_*` gauges.
//! * [`alloc`] — stage-tagged resource accounting: a counting
//!   [`CountingAlloc`](alloc::CountingAlloc) global-allocator wrapper,
//!   thread-local stage tags ([`StageGuard`](alloc::StageGuard)) entered
//!   by stage spans and propagated to pool workers, and per-thread CPU
//!   time, published as `trass_stage_*` metrics.
//! * [`profile`] — folds the flight recorder's span trees into
//!   collapsed-stack (flame-graph) lines weighted by wall time, alloc
//!   bytes, or CPU time, served at `/profile`.
//! * [`fingerprint`] — query-shape fingerprints and the fixed-capacity
//!   [`WorkloadSummary`] aggregating per-shape cost statistics, served at
//!   `/workload`.
//!
//! Metric name conventions: `trass_query_*` (query pipeline),
//! `trass_kv_*` (store internals), `trass_ingest_*` (write path);
//! duration histograms end in `_seconds` and record nanoseconds internally
//! (scaled at export).

// `deny` rather than `forbid` so the allocator module (the one place that
// must `unsafe impl GlobalAlloc`) can opt out with a scoped allow.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod collector;
pub mod export;
pub mod fingerprint;
pub mod health;
pub mod histogram;
pub mod http;
pub mod json;
pub mod profile;
pub mod registry;
pub mod slowlog;
pub mod span;
pub mod sync;
pub mod trace;

pub use alloc::{AllocSnapshot, CountingAlloc, StageGuard};
pub use collector::{Collector, CollectorHandle, CollectorOptions};
pub use export::{MetricSnapshot, MetricValue};
pub use fingerprint::{QueryFingerprint, WorkloadStats, WorkloadSummary, WorkloadTotals};
pub use health::{HealthRegistry, ProbeReport, SloEvaluator, SloObjective, SloSignal, SloStatus};
pub use histogram::{Histogram, Percentiles};
pub use http::{HttpServer, Request, Response, Telemetry, TelemetryOptions, TelemetrySources};
pub use profile::ProfileWeight;
pub use registry::{Counter, Gauge, Registry};
pub use slowlog::SlowLog;
pub use span::{Span, STAGE_HISTOGRAM};
pub use trace::{
    FieldValue, FlightRecorder, QueryTrace, SpanRecord, TraceCtx, TraceSampler, TraceSpan,
};

// The unit-test binary installs the counting allocator so alloc-exactness
// tests (alloc.rs, trace.rs) see real readings.
#[cfg(test)]
#[global_allocator]
static TEST_ALLOC: alloc::CountingAlloc = alloc::CountingAlloc::system();
