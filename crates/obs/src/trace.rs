//! Per-query trace recording: span trees, sampling, and a flight recorder.
//!
//! Aggregate metrics ([`crate::Registry`]) answer "how is the system
//! doing?"; they cannot answer "why was *this* query slow?". A
//! [`TraceCtx`] records one query's execution as a tree of [`SpanRecord`]s
//! — each with a name, labels, typed [`FieldValue`] payloads, and wall
//! time — which renders as an `EXPLAIN ANALYZE`-style tree
//! ([`QueryTrace::render_text`]) or JSON ([`QueryTrace::render_json`]).
//!
//! Cost model: tracing is *sampled*. A disabled [`TraceCtx`] hands out
//! disabled [`TraceSpan`]s whose every method is a no-op behind a single
//! `Option` branch — no allocation, no clock reads — so the hot path pays
//! one branch per would-be span. [`TraceSampler`] decides 1-in-N with a
//! deterministic counter (no RNG): queries 0, N, 2N, … are traced.
//! Explain-style callers force an enabled context instead.
//!
//! Completed traces land in the [`FlightRecorder`], a fixed-capacity ring
//! buffer of the last N traces, so "what just happened?" is answerable
//! after the fact without external collectors.

use crate::sync::Mutex;
use std::cmp::Reverse;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A typed value attached to a span.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned counter-like payload (row counts, byte counts).
    U64(u64),
    /// Floating-point payload (thresholds, distances).
    F64(f64),
    /// Textual payload (verdicts, identifiers).
    Str(String),
    /// Boolean payload (flags, capped markers).
    Bool(bool),
}

impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v}"),
            FieldValue::Str(v) => write!(f, "{v}"),
            FieldValue::Bool(v) => write!(f, "{v}"),
        }
    }
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

/// One completed span: a named, labelled, timed node of the trace tree.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SpanRecord {
    /// Stage name (`"threshold"`, `"pruning"`, `"region-scan"`, …).
    pub name: String,
    /// Identity labels (`("shard", "3")`), in insertion order.
    pub labels: Vec<(String, String)>,
    /// Typed payloads (`("rows_scanned", U64(512))`), in insertion order.
    pub fields: Vec<(String, FieldValue)>,
    /// Start offset from the trace root's start, in nanoseconds.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub duration_ns: u64,
    /// Child spans, ordered by `start_ns`.
    pub children: Vec<SpanRecord>,
}

impl SpanRecord {
    /// The first child with the given name, if any.
    pub fn child(&self, name: &str) -> Option<&SpanRecord> {
        self.children.iter().find(|c| c.name == name)
    }

    /// All children with the given name.
    pub fn children_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanRecord> {
        self.children.iter().filter(move |c| c.name == name)
    }

    /// The value of a `u64` field, if present.
    pub fn field_u64(&self, name: &str) -> Option<u64> {
        self.fields.iter().find_map(|(k, v)| match v {
            FieldValue::U64(n) if k == name => Some(*n),
            _ => None,
        })
    }

    /// The value of a label, if present.
    pub fn label(&self, name: &str) -> Option<&str> {
        self.labels.iter().find_map(|(k, v)| (k == name).then_some(v.as_str()))
    }

    /// Depth-first search for the first descendant (or self) with `name`.
    pub fn find(&self, name: &str) -> Option<&SpanRecord> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }

    /// Total number of spans in this subtree (including self).
    pub fn span_count(&self) -> usize {
        1 + self.children.iter().map(SpanRecord::span_count).sum::<usize>()
    }
}

/// A completed span in flat (pre-assembly) form.
#[derive(Debug)]
struct FlatSpan {
    id: u32,
    parent: u32,
    name: String,
    labels: Vec<(String, String)>,
    fields: Vec<(String, FieldValue)>,
    start_ns: u64,
    duration_ns: u64,
}

/// Sentinel parent id of the root span.
const NO_PARENT: u32 = u32::MAX;

/// Shared state of one enabled trace.
struct TraceInner {
    start: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<FlatSpan>>,
}

impl TraceInner {
    fn new() -> Self {
        TraceInner {
            start: Instant::now(),
            next_id: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn alloc_id(&self) -> u32 {
        self.next_id.fetch_add(1, Ordering::Relaxed) as u32
    }
}

/// A per-query trace recorder. Cheap to clone; a disabled context is a
/// `None` and every operation derived from it is a no-op.
#[derive(Clone)]
pub struct TraceCtx(Option<Arc<TraceInner>>);

impl TraceCtx {
    /// A context that records nothing: the sampled-out fast path.
    pub fn disabled() -> TraceCtx {
        TraceCtx(None)
    }

    /// A context that records every span opened under it.
    pub fn enabled() -> TraceCtx {
        TraceCtx(Some(Arc::new(TraceInner::new())))
    }

    /// Whether spans opened under this context record anything.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Opens the root span. Call once per trace; the root must be finished
    /// (or dropped) before [`TraceCtx::finish`].
    pub fn root(&self, name: &str) -> TraceSpan {
        match &self.0 {
            Some(inner) => TraceSpan::open(Arc::clone(inner), NO_PARENT, name, true),
            None => TraceSpan::disabled(),
        }
    }

    /// Assembles the recorded spans into a [`QueryTrace`]. Returns `None`
    /// for a disabled context or when no root span was recorded.
    pub fn finish(self) -> Option<QueryTrace> {
        let inner = self.0?;
        let flats = std::mem::take(&mut *inner.spans.lock());
        assemble(flats).map(|root| QueryTrace { root })
    }
}

impl fmt::Debug for TraceCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceCtx").field("enabled", &self.is_enabled()).finish()
    }
}

/// Builds the span tree from completed flat spans in one pass: each
/// span's children under it, ordered by `(start_ns, id)` so a parent's
/// children that opened within one nanosecond keep their opening order.
/// A span whose parent never completed goes under the root (best effort;
/// drivers finish spans in LIFO order so this only happens on error
/// paths). `None` when no root span was recorded.
fn assemble(mut flats: Vec<FlatSpan>) -> Option<SpanRecord> {
    let root = flats.swap_remove(flats.iter().position(|s| s.parent == NO_PARENT)?);
    // A child opens under a live parent, so its id is the larger: walking
    // ids downwards completes each child list before its parent takes it.
    flats.sort_unstable_by_key(|s| Reverse(s.id));
    let mut children: HashMap<u32, Vec<(u32, SpanRecord)>> = HashMap::new();
    for span in flats {
        let (id, parent) = (span.id, span.parent);
        let own = children.remove(&id).unwrap_or_default();
        children.entry(parent).or_default().push((id, span.into_record(own)));
    }
    // What is left are the root's children and the orphans.
    Some(root.into_record(children.into_values().flatten().collect()))
}

impl FlatSpan {
    fn into_record(self, mut children: Vec<(u32, SpanRecord)>) -> SpanRecord {
        children.sort_unstable_by_key(|(id, c)| (c.start_ns, *id));
        SpanRecord {
            name: self.name,
            labels: self.labels,
            fields: self.fields,
            start_ns: self.start_ns,
            duration_ns: self.duration_ns,
            children: children.into_iter().map(|(_, c)| c).collect(),
        }
    }
}

/// Live state of one open span.
struct SpanState {
    ctx: Arc<TraceInner>,
    id: u32,
    parent: u32,
    name: String,
    labels: Vec<(String, String)>,
    fields: Vec<(String, FieldValue)>,
    started: Instant,
    start_ns: u64,
    /// Explicit duration override (for attributing time measured
    /// elsewhere, e.g. filter time accumulated across scan threads).
    duration_override: Option<Duration>,
    /// Resource marks taken at open, so closing on the same thread can
    /// self-report alloc/CPU deltas (see [`ResourceMarks::record`]); `None`
    /// once recorded, and for spans whose time was measured elsewhere.
    /// Spans that run on another thread (kv region scans) open without and
    /// take them there ([`TraceSpan::mark_here`]).
    marks: Option<ResourceMarks>,
}

/// A span's opening thread and its allocation and CPU counters there.
struct ResourceMarks {
    opened_on: std::thread::ThreadId,
    alloc: crate::alloc::AllocSnapshot,
    cpu: Option<u64>,
}

impl ResourceMarks {
    fn take() -> ResourceMarks {
        ResourceMarks {
            opened_on: std::thread::current().id(),
            alloc: crate::alloc::thread_alloc_snapshot(),
            cpu: crate::alloc::thread_cpu_ns(),
        }
    }

    /// Appends the deltas since the marks to `fields` when the span closes
    /// on the thread that opened it (per-thread counters are meaningless
    /// across threads) and the caller set no field of the same name.
    fn record(self, fields: &mut Vec<(String, FieldValue)>) {
        if std::thread::current().id() != self.opened_on {
            return;
        }
        let has = |fields: &[(String, FieldValue)], k: &str| fields.iter().any(|(key, _)| key == k);
        if crate::alloc::allocator_installed() && !has(fields, "alloc_bytes") {
            let d = crate::alloc::thread_alloc_snapshot().since(&self.alloc);
            fields.push(("alloc_bytes".to_string(), FieldValue::U64(d.bytes)));
            fields.push(("allocs".to_string(), FieldValue::U64(d.count)));
        }
        if let (Some(mark), false) = (self.cpu, has(fields, "cpu_ns")) {
            if let Some(now) = crate::alloc::thread_cpu_ns() {
                fields.push(("cpu_ns".to_string(), FieldValue::U64(now.saturating_sub(mark))));
            }
        }
    }
}

/// An open span: finishing (or dropping) it appends a [`SpanRecord`] to
/// its trace. A disabled span (from a disabled [`TraceCtx`]) is a no-op
/// and costs one branch per call.
pub struct TraceSpan(Option<SpanState>);

impl TraceSpan {
    /// A span that records nothing — the hot-path stand-in.
    pub fn disabled() -> TraceSpan {
        TraceSpan(None)
    }

    fn open(ctx: Arc<TraceInner>, parent: u32, name: &str, marks: bool) -> TraceSpan {
        let id = ctx.alloc_id();
        let start_ns = ctx.start.elapsed().as_nanos() as u64;
        TraceSpan(Some(SpanState {
            ctx,
            id,
            parent,
            name: name.to_string(),
            labels: Vec::new(),
            fields: Vec::new(),
            started: Instant::now(),
            start_ns,
            duration_override: None,
            marks: marks.then(ResourceMarks::take),
        }))
    }

    /// Whether this span records anything. Callers can gate expensive
    /// payload computation (metric snapshots, formatting) on this.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Opens a child span. Children of a disabled span are disabled.
    pub fn child(&self, name: &str) -> TraceSpan {
        match &self.0 {
            Some(s) => TraceSpan::open(Arc::clone(&s.ctx), s.id, name, true),
            None => TraceSpan::disabled(),
        }
    }

    /// Opens a child for time measured elsewhere (e.g. accumulated across
    /// scan threads), recorded with `duration`. It takes no resource marks:
    /// its own allocation and CPU deltas would measure nothing.
    pub fn attributed_child(&self, name: &str, duration: Duration) -> TraceSpan {
        match &self.0 {
            Some(s) => {
                let mut span = TraceSpan::open(Arc::clone(&s.ctx), s.id, name, false);
                span.set_duration(duration);
                span
            }
            None => TraceSpan::disabled(),
        }
    }

    /// Opens a child that another thread runs. It takes no resource marks
    /// here, where they would count the wrong thread: the thread that runs
    /// it calls [`TraceSpan::mark_here`] before its work.
    pub fn handoff_child(&self, name: &str) -> TraceSpan {
        match &self.0 {
            Some(s) => TraceSpan::open(Arc::clone(&s.ctx), s.id, name, false),
            None => TraceSpan::disabled(),
        }
    }

    /// Takes the span's resource marks on the calling thread, replacing any
    /// taken at open, so finishing it on this thread records this thread's
    /// allocation and CPU deltas.
    pub fn mark_here(&mut self) {
        if let Some(s) = &mut self.0 {
            s.marks = Some(ResourceMarks::take());
        }
    }

    /// Records the span's allocation and CPU deltas now, as if it closed
    /// here; finishing it later adds none. Lets a caller close the marks
    /// before reading a wall time the span should not be charged with.
    pub fn close_marks(&mut self) {
        if let Some(s) = &mut self.0 {
            if let Some(marks) = s.marks.take() {
                marks.record(&mut s.fields);
            }
        }
    }

    /// Attaches an identity label.
    pub fn set_label(&mut self, key: &str, value: &str) {
        if let Some(s) = &mut self.0 {
            s.labels.push((key.to_string(), value.to_string()));
        }
    }

    /// Attaches a typed payload field.
    pub fn set_field(&mut self, key: &str, value: impl Into<FieldValue>) {
        if let Some(s) = &mut self.0 {
            s.fields.push((key.to_string(), value.into()));
        }
    }

    /// Overrides the recorded duration (for time measured out-of-band,
    /// e.g. accumulated across scan threads).
    pub fn set_duration(&mut self, d: Duration) {
        if let Some(s) = &mut self.0 {
            s.duration_override = Some(d);
        }
    }

    /// Ends the span, recording its elapsed wall time, and returns that
    /// elapsed time (zero for disabled spans).
    pub fn finish(mut self) -> Duration {
        match self.0.take() {
            Some(s) => record_state(s),
            None => Duration::ZERO,
        }
    }
}

fn record_state(s: SpanState) -> Duration {
    let elapsed = s.started.elapsed();
    let recorded = s.duration_override.unwrap_or(elapsed);
    let mut fields = s.fields;
    if let Some(marks) = s.marks {
        marks.record(&mut fields);
    }
    let flat = FlatSpan {
        id: s.id,
        parent: s.parent,
        name: s.name,
        labels: s.labels,
        fields,
        start_ns: s.start_ns,
        duration_ns: recorded.as_nanos() as u64,
    };
    s.ctx.spans.lock().push(flat);
    elapsed
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        if let Some(s) = self.0.take() {
            record_state(s);
        }
    }
}

impl fmt::Debug for TraceSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Some(s) => f.debug_struct("TraceSpan").field("name", &s.name).finish(),
            None => f.write_str("TraceSpan(disabled)"),
        }
    }
}

/// A completed per-query trace: the span tree of one query's execution.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryTrace {
    /// The query's root span.
    pub root: SpanRecord,
}

impl QueryTrace {
    /// Depth-first search for the first span with `name`.
    pub fn find(&self, name: &str) -> Option<&SpanRecord> {
        self.root.find(name)
    }

    /// Renders the trace as an indented `EXPLAIN ANALYZE`-style tree:
    /// one line per span with its wall time, percentage of parent time,
    /// labels, and fields.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        render_span(&mut out, &self.root, 0, None);
        out
    }

    /// Renders the trace as a JSON document (no external dependencies):
    /// one object per span, with its name, labels, typed fields, times and
    /// children in order.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        json::write_span(&mut out, &self.root);
        out
    }
}

fn render_span(out: &mut String, s: &SpanRecord, depth: usize, parent_ns: Option<u64>) {
    use std::fmt::Write as _;
    for _ in 0..depth {
        out.push_str("  ");
    }
    let _ = write!(out, "{}", s.name);
    if !s.labels.is_empty() {
        out.push_str(" [");
        for (i, (k, v)) in s.labels.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            let _ = write!(out, "{k}={v}");
        }
        out.push(']');
    }
    let _ = write!(out, "  {}", fmt_duration(s.duration_ns));
    if let Some(parent_ns) = parent_ns {
        if parent_ns > 0 {
            let _ = write!(out, " ({:.1}%)", s.duration_ns as f64 / parent_ns as f64 * 100.0);
        }
    }
    for (k, v) in &s.fields {
        let _ = write!(out, "  {k}={v}");
    }
    out.push('\n');
    for c in &s.children {
        render_span(out, c, depth + 1, Some(s.duration_ns));
    }
}

/// Human-scale duration: picks ns/µs/ms/s.
fn fmt_duration(ns: u64) -> String {
    if ns < 10_000 {
        format!("{ns}ns")
    } else if ns < 10_000_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else if ns < 10_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

/// Deterministic 1-in-N sampling: no RNG, queries `0, N, 2N, …` sample.
#[derive(Debug)]
pub struct TraceSampler {
    every: u64,
    counter: AtomicU64,
}

impl TraceSampler {
    /// Samples one query in `every`. `every == 0` disables sampling
    /// entirely, `every == 1` traces everything.
    pub fn every(every: u64) -> Self {
        TraceSampler { every, counter: AtomicU64::new(0) }
    }

    /// Decides the current query: true for the 1st, N+1th, 2N+1th, ….
    pub fn sample(&self) -> bool {
        if self.every == 0 {
            return false;
        }
        // trass-lint: allow(panic-surface) the sampler early-returns when `every == 0` two lines above
        self.counter.fetch_add(1, Ordering::Relaxed) % self.every == 0
    }

    /// The sampling period (0 = disabled).
    pub fn period(&self) -> u64 {
        self.every
    }
}

/// A fixed-capacity ring buffer of the last N completed traces.
pub struct FlightRecorder {
    traces: Mutex<VecDeque<Arc<QueryTrace>>>,
    capacity: usize,
}

impl FlightRecorder {
    /// Creates a recorder retaining the `capacity` most recent traces.
    pub fn new(capacity: usize) -> Self {
        FlightRecorder { traces: Mutex::new(VecDeque::new()), capacity: capacity.max(1) }
    }

    /// Appends a trace, evicting the oldest past capacity.
    pub fn push(&self, trace: Arc<QueryTrace>) {
        let mut traces = self.traces.lock();
        if traces.len() == self.capacity {
            traces.pop_front();
        }
        traces.push_back(trace);
    }

    /// The retained traces, oldest first.
    pub fn snapshot(&self) -> Vec<Arc<QueryTrace>> {
        self.traces.lock().iter().cloned().collect()
    }

    /// Number of retained traces.
    pub fn len(&self) -> usize {
        self.traces.lock().len()
    }

    /// True when no trace has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum number of retained traces.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Drops every retained trace.
    pub fn clear(&self) {
        self.traces.lock().clear();
    }
}

impl fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("len", &self.len())
            .field("capacity", &self.capacity)
            .finish()
    }
}

/// The trace schema over [`crate::json`]: one object per span, children
/// nested.
mod json {
    use super::{FieldValue, SpanRecord};
    use crate::json::string;
    use std::fmt::Write as _;

    pub(super) fn write_span(out: &mut String, s: &SpanRecord) {
        let _ = write!(out, "{{\"name\":{}", string(&s.name));
        out.push_str(",\"labels\":{");
        for (i, (k, v)) in s.labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{}", string(k), string(v));
        }
        out.push_str("},\"fields\":{");
        for (i, (k, v)) in s.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:", string(k));
            match v {
                FieldValue::U64(n) => {
                    let _ = write!(out, "{n}");
                }
                // Floats always carry a decimal point or exponent so the
                // parser can tell them from integers on the way back in.
                FieldValue::F64(x) if x.fract() == 0.0 && x.is_finite() && x.abs() < 1e15 => {
                    let _ = write!(out, "{x:.1}");
                }
                FieldValue::F64(x) if x.is_finite() => {
                    let _ = write!(out, "{x}");
                }
                FieldValue::F64(_) => out.push_str("null"),
                FieldValue::Str(t) => out.push_str(&string(t)),
                FieldValue::Bool(b) => {
                    let _ = write!(out, "{b}");
                }
            }
        }
        let _ = write!(out, "}},\"start_ns\":{},\"duration_ns\":{}", s.start_ns, s.duration_ns);
        out.push_str(",\"children\":[");
        for (i, c) in s.children.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_span(out, c);
        }
        out.push_str("]}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    fn sleepless_trace() -> QueryTrace {
        let ctx = TraceCtx::enabled();
        let mut root = ctx.root("threshold");
        root.set_label("measure", "frechet");
        root.set_field("eps", 0.002);
        {
            let mut pruning = root.child("pruning");
            pruning.set_field("visited", 42u64);
            pruning.finish();
        }
        {
            let scan = root.child("scan");
            for shard in 0..3 {
                let mut region = scan.child("region-scan");
                region.set_label("shard", &shard.to_string());
                region.set_field("rows_scanned", 10u64 + shard);
                region.finish();
            }
            scan.finish();
        }
        root.finish();
        ctx.finish().expect("enabled trace")
    }

    #[test]
    fn tree_shape_matches_span_nesting() {
        let t = sleepless_trace();
        assert_eq!(t.root.name, "threshold");
        assert_eq!(t.root.children.len(), 2);
        assert_eq!(t.root.children[0].name, "pruning");
        assert_eq!(t.root.children[1].name, "scan");
        assert_eq!(t.root.children[1].children.len(), 3);
        assert_eq!(t.root.span_count(), 6);
        let shards: Vec<&str> = t.root.children[1]
            .children_named("region-scan")
            .map(|s| s.label("shard").unwrap())
            .collect();
        assert_eq!(shards, vec!["0", "1", "2"]);
        assert_eq!(t.find("pruning").unwrap().field_u64("visited"), Some(42));
    }

    #[test]
    fn disabled_ctx_records_nothing() {
        let ctx = TraceCtx::disabled();
        assert!(!ctx.is_enabled());
        let mut root = ctx.root("threshold");
        assert!(!root.is_enabled());
        root.set_field("eps", 1.0);
        let child = root.child("scan");
        assert!(!child.is_enabled());
        child.finish();
        root.finish();
        assert!(ctx.finish().is_none());
    }

    #[test]
    fn cross_thread_children_attach_to_parent() {
        let ctx = TraceCtx::enabled();
        let root = ctx.root("topk");
        std::thread::scope(|s| {
            for i in 0..4 {
                let root = &root;
                s.spawn(move || {
                    let mut c = root.child("region-scan");
                    c.set_label("shard", &i.to_string());
                    c.finish();
                });
            }
        });
        root.finish();
        let t = ctx.finish().unwrap();
        assert_eq!(t.root.children.len(), 4);
        assert!(t.root.children.iter().all(|c| c.name == "region-scan"));
    }

    #[test]
    fn text_rendering_shows_tree_and_percentages() {
        let t = sleepless_trace();
        let text = t.render_text();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("threshold [measure=frechet]"), "{text}");
        assert!(lines[0].contains("eps=0.002"));
        assert!(lines[1].starts_with("  pruning"), "{text}");
        assert!(lines[1].contains("visited=42"));
        // Child lines show a percent-of-parent figure.
        assert!(lines[1].contains('%'), "{text}");
        assert!(lines.iter().any(|l| l.starts_with("    region-scan [shard=2]")), "{text}");
    }

    /// Checks that `v`, a span as [`QueryTrace::render_json`] writes it and
    /// the generic parser reads it back, shows `s`: name, labels, typed
    /// fields, times, and children in order.
    fn assert_renders(v: &Value, s: &SpanRecord) {
        assert_eq!(v.get("name").and_then(Value::as_str), Some(s.name.as_str()));
        let labels: Vec<(String, String)> = v
            .get("labels")
            .and_then(Value::as_object)
            .expect("labels object")
            .iter()
            .map(|(k, v)| (k.clone(), v.as_str().expect("string label").to_string()))
            .collect();
        assert_eq!(labels, s.labels);
        let fields = v.get("fields").and_then(Value::as_object).expect("fields object");
        assert_eq!(fields.len(), s.fields.len(), "fields of {}", s.name);
        for ((key, got), (name, want)) in fields.iter().zip(&s.fields) {
            assert_eq!(key, name);
            let same = match (got, want) {
                (Value::U64(a), FieldValue::U64(b)) => a == b,
                (Value::F64(a), FieldValue::F64(b)) => a.to_bits() == b.to_bits(),
                // The writer's spelling of a non-finite float.
                (Value::Null, FieldValue::F64(b)) => !b.is_finite(),
                (Value::Str(a), FieldValue::Str(b)) => a == b,
                (Value::Bool(a), FieldValue::Bool(b)) => a == b,
                _ => false,
            };
            assert!(same, "field {key}: {got:?} for {want:?}");
        }
        assert_eq!(v.get("start_ns"), Some(&Value::U64(s.start_ns)));
        assert_eq!(v.get("duration_ns"), Some(&Value::U64(s.duration_ns)));
        let Some(Value::Array(children)) = v.get("children") else { panic!("no children array") };
        assert_eq!(children.len(), s.children.len(), "children of {}", s.name);
        children.iter().zip(&s.children).for_each(|(v, s)| assert_renders(v, s));
    }

    fn assert_json_renders(t: &QueryTrace) {
        assert_renders(&crate::json::parse(&t.render_json()).expect("parse"), &t.root);
    }

    #[test]
    fn json_renders_the_span_tree() {
        assert_json_renders(&sleepless_trace());
    }

    #[test]
    fn json_renders_typed_fields_and_escapes() {
        let child = SpanRecord { name: "region-scan".into(), start_ns: 7, ..SpanRecord::default() };
        let mut root = SpanRecord { name: "q \"1\"".into(), ..SpanRecord::default() };
        root.labels = vec![("shard".into(), "a\\b\tc".into())];
        root.fields = vec![
            ("count".into(), FieldValue::U64(u64::MAX)),
            ("eps".into(), FieldValue::F64(0.25)),
            ("whole".into(), FieldValue::F64(2.0)),
            ("nan".into(), FieldValue::F64(f64::NAN)),
            ("verdict".into(), FieldValue::Str("keep \"x\"\n".into())),
            ("capped".into(), FieldValue::Bool(true)),
        ];
        root.children = vec![child.clone(), SpanRecord { name: "refine".into(), ..child }];
        root.duration_ns = 1 << 60;
        assert_json_renders(&QueryTrace { root });
    }

    #[test]
    fn assembly_orders_children_by_start_then_id_and_adopts_orphans() {
        let flat = |id, parent, start_ns| FlatSpan {
            id,
            parent,
            name: format!("s{id}"),
            labels: Vec::new(),
            fields: Vec::new(),
            start_ns,
            duration_ns: 0,
        };
        // Span 4 never completed, so its child 5 goes under the root.
        let flats =
            vec![flat(3, 2, 6), flat(2, 0, 5), flat(0, NO_PARENT, 0), flat(5, 4, 1), flat(1, 0, 5)];
        let root = assemble(flats).expect("a root");
        let names = |s: &SpanRecord| s.children.iter().map(|c| c.name.clone()).collect::<Vec<_>>();
        assert_eq!(names(&root), ["s5", "s1", "s2"]);
        assert_eq!(names(&root.children[2]), ["s3"]);
        assert_eq!(root.span_count(), 5);
        assert!(assemble(vec![flat(1, 0, 0)]).is_none(), "no root, no tree");
    }

    #[test]
    fn sampler_is_deterministic_one_in_n() {
        let s = TraceSampler::every(3);
        let picks: Vec<bool> = (0..9).map(|_| s.sample()).collect();
        assert_eq!(picks, vec![true, false, false, true, false, false, true, false, false]);
        let never = TraceSampler::every(0);
        assert!((0..10).all(|_| !never.sample()));
        let always = TraceSampler::every(1);
        assert!((0..10).all(|_| always.sample()));
    }

    #[test]
    fn flight_recorder_keeps_last_n() {
        let fr = FlightRecorder::new(2);
        assert!(fr.is_empty());
        for name in ["a", "b", "c"] {
            let ctx = TraceCtx::enabled();
            ctx.root(name).finish();
            fr.push(Arc::new(ctx.finish().unwrap()));
        }
        assert_eq!(fr.len(), 2);
        let names: Vec<String> = fr.snapshot().iter().map(|t| t.root.name.clone()).collect();
        assert_eq!(names, vec!["b", "c"]);
        fr.clear();
        assert!(fr.is_empty());
    }

    #[test]
    fn flight_recorder_json_renders_under_concurrent_push() {
        // Writers push fresh traces while readers snapshot and render every
        // retained trace to JSON. Every snapshot must be a consistent set
        // of fully-formed traces — a torn or half-written entry would fail
        // the parse or the comparison with the trace.
        let fr = Arc::new(FlightRecorder::new(8));
        std::thread::scope(|s| {
            for w in 0..2 {
                let fr = Arc::clone(&fr);
                s.spawn(move || {
                    for i in 0..50 {
                        let ctx = TraceCtx::enabled();
                        let mut root = ctx.root("threshold");
                        root.set_field("writer", w as u64);
                        root.set_field("seq", i as u64);
                        let mut scan = root.child("scan");
                        scan.set_field("rows_scanned", (w * 100 + i) as u64);
                        scan.finish();
                        root.finish();
                        fr.push(Arc::new(ctx.finish().expect("enabled trace")));
                    }
                });
            }
            for _ in 0..2 {
                let fr = Arc::clone(&fr);
                s.spawn(move || {
                    for _ in 0..50 {
                        for t in fr.snapshot() {
                            assert_json_renders(&t);
                            assert_eq!(t.root.span_count(), 2);
                        }
                    }
                });
            }
        });
        assert_eq!(fr.len(), 8, "recorder should be full after 100 pushes");
        for t in fr.snapshot() {
            let json = crate::json::parse(&t.render_json()).expect("parse");
            assert_eq!(json.get("name").and_then(Value::as_str), Some("threshold"));
        }
    }

    #[test]
    fn duration_override_wins() {
        let ctx = TraceCtx::enabled();
        let root = ctx.root("q");
        let mut filter = root.child("local-filter");
        filter.set_duration(Duration::from_millis(123));
        filter.finish();
        root.finish();
        let t = ctx.finish().unwrap();
        assert_eq!(t.root.children[0].duration_ns, 123_000_000);
    }

    #[test]
    fn attributed_child_has_its_duration_and_no_resource_fields() {
        let ctx = TraceCtx::enabled();
        let root = ctx.root("q");
        root.attributed_child("local-filter", Duration::from_millis(123)).finish();
        let mut scan = root.child("scan");
        scan.close_marks();
        scan.finish();
        root.finish();
        let t = ctx.finish().unwrap();
        let filter = t.root.child("local-filter").unwrap();
        assert_eq!(filter.duration_ns, 123_000_000);
        assert_eq!(filter.field_u64("cpu_ns"), None);
        // Closed marks are recorded once, not again at finish.
        let scan = t.root.child("scan").unwrap();
        let cpu_fields = scan.fields.iter().filter(|(k, _)| k == "cpu_ns").count();
        assert_eq!(cpu_fields, usize::from(crate::alloc::cpu_supported()));
    }

    #[test]
    fn a_handed_off_span_counts_the_thread_that_marks_it() {
        let ctx = TraceCtx::enabled();
        let root = ctx.root("q");
        let (mut marked, unmarked) = (root.handoff_child("a"), root.handoff_child("b"));
        std::thread::scope(|s| {
            s.spawn(move || {
                marked.mark_here();
                drop(std::hint::black_box(vec![0u8; 4096]));
                marked.finish();
                unmarked.finish();
            });
        });
        root.finish();
        let t = ctx.finish().unwrap();
        let a = t.root.child("a").unwrap();
        assert!(a.field_u64("alloc_bytes").is_some_and(|b| b >= 4096), "{a:?}");
        assert_eq!(a.field_u64("cpu_ns").is_some(), crate::alloc::cpu_supported());
        assert!(t.root.child("b").unwrap().fields.is_empty());
    }

    #[test]
    fn dropped_span_still_records() {
        let ctx = TraceCtx::enabled();
        {
            let root = ctx.root("q");
            let _child = root.child("scan");
            // Both dropped here without explicit finish.
        }
        let t = ctx.finish().unwrap();
        assert_eq!(t.root.name, "q");
        assert_eq!(t.root.children.len(), 1);
    }
}
