//! A registry of named, labeled metrics.
//!
//! The registry is the rendezvous point between instrumentation sites
//! (which create or look up metrics by name + label set) and exporters
//! (which walk every registered metric). Lookup takes a mutex; the returned
//! handles are `Arc`s whose updates are lock-free, so hot paths resolve
//! their handles once and record through them.

use crate::histogram::Histogram;
use crate::sync::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// One registered metric.
#[derive(Debug, Clone)]
pub(crate) enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// Identity of a metric: name plus its sorted label pairs.
pub(crate) type MetricKey = (String, Vec<(String, String)>);

/// A thread-safe registry of counters, gauges and histograms.
///
/// Metrics are identified by `(name, labels)`; requesting the same identity
/// twice returns the same handle. Requesting an existing name with a
/// different metric *kind* panics — that is a programming error, not a
/// runtime condition.
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<HashMap<MetricKey, Metric>>,
}

/// Canonical label form: owned and sorted by key.
fn key_of(name: &str, labels: &[(&str, &str)]) -> MetricKey {
    let mut owned: Vec<(String, String)> =
        labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
    owned.sort();
    (name.to_string(), owned)
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty registry behind an `Arc` (the common shape: shared
    /// by every layer of one deployment).
    pub fn new_shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// Gets or creates a counter.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let key = key_of(name, labels);
        let mut metrics = self.metrics.lock();
        match metrics.entry(key).or_insert_with(|| Metric::Counter(Arc::new(Counter::default()))) {
            Metric::Counter(c) => Arc::clone(c),
            other => panic!("metric {name} already registered as {}", kind_name(other)),
        }
    }

    /// Gets or creates a gauge.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let key = key_of(name, labels);
        let mut metrics = self.metrics.lock();
        match metrics.entry(key).or_insert_with(|| Metric::Gauge(Arc::new(Gauge::default()))) {
            Metric::Gauge(g) => Arc::clone(g),
            other => panic!("metric {name} already registered as {}", kind_name(other)),
        }
    }

    /// Gets or creates a histogram of raw `u64` values (export scale 1.0).
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        self.histogram_scaled(name, labels, 1.0)
    }

    /// Gets or creates a duration histogram: values are recorded in
    /// nanoseconds and exported in seconds (scale `1e-9`). By convention
    /// its name ends in `_seconds`.
    pub fn timer(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        self.histogram_scaled(name, labels, 1e-9)
    }

    fn histogram_scaled(&self, name: &str, labels: &[(&str, &str)], scale: f64) -> Arc<Histogram> {
        let key = key_of(name, labels);
        let mut metrics = self.metrics.lock();
        match metrics
            .entry(key)
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::with_scale(scale))))
        {
            Metric::Histogram(h) => Arc::clone(h),
            other => panic!("metric {name} already registered as {}", kind_name(other)),
        }
    }

    /// Number of registered metrics (all kinds).
    pub fn len(&self) -> usize {
        self.metrics.lock().len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A sorted copy of the current metrics, for exporters.
    pub(crate) fn sorted_entries(&self) -> Vec<(MetricKey, Metric)> {
        let metrics = self.metrics.lock();
        let mut entries: Vec<(MetricKey, Metric)> =
            metrics.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries
    }
}

fn kind_name(m: &Metric) -> &'static str {
    match m {
        Metric::Counter(_) => "counter",
        Metric::Gauge(_) => "gauge",
        Metric::Histogram(_) => "histogram",
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry").field("metrics", &self.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_identity_returns_same_handle() {
        let r = Registry::new();
        let a = r.counter("requests", &[("shard", "1")]);
        let b = r.counter("requests", &[("shard", "1")]);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn label_order_does_not_matter() {
        let r = Registry::new();
        let a = r.counter("c", &[("a", "1"), ("b", "2")]);
        let b = r.counter("c", &[("b", "2"), ("a", "1")]);
        a.inc();
        assert_eq!(b.get(), 1);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn different_labels_are_different_series() {
        let r = Registry::new();
        r.counter("c", &[("shard", "0")]).inc();
        r.counter("c", &[("shard", "1")]).add(5);
        assert_eq!(r.counter("c", &[("shard", "0")]).get(), 1);
        assert_eq!(r.counter("c", &[("shard", "1")]).get(), 5);
        assert_eq!(r.len(), 2);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("x", &[]);
        r.gauge("x", &[]);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let r = Registry::new();
        let g = r.gauge("queue_depth", &[]);
        g.set(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn timer_records_in_nanos_exports_seconds_scale() {
        let r = Registry::new();
        let t = r.timer("op_seconds", &[("op", "scan")]);
        t.record(1_500_000); // 1.5 ms
        assert_eq!(t.count(), 1);
        assert!((t.scale() - 1e-9).abs() < 1e-18);
    }
}
