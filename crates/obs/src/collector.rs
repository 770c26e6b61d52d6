//! Background time-series collection over a [`Registry`].
//!
//! A scrape shows the *current* cumulative state; diagnosing "what changed
//! two minutes ago" needs history. The [`Collector`] snapshots the whole
//! registry on a fixed interval into per-series ring buffers of the last N
//! samples — counters keep their cumulative values (rates are derived as
//! consecutive deltas at render time), gauges keep raw values, and each
//! histogram contributes its cumulative count and its live p99. The rings
//! are rendered as one JSON document by [`Collector::render_history`]
//! (served at `/vars/history`), and every tick also advances the
//! [`SloEvaluator`] so burn-rate windows march in collector time.
//!
//! Everything is bounded: `capacity` samples per series, one ring per
//! series ever seen. Memory is `O(series × capacity)` and does not grow
//! with uptime.

use crate::export::{self, MetricValue};
use crate::health::SloEvaluator;
use crate::json;
use crate::registry::Registry;
use crate::sync::Mutex;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar};
use std::thread::JoinHandle;
use std::time::Duration;

/// Collector tuning.
#[derive(Debug, Clone)]
pub struct CollectorOptions {
    /// Sampling interval of the background thread.
    pub interval: Duration,
    /// Retained samples per series (the ring size).
    pub capacity: usize,
}

impl Default for CollectorOptions {
    fn default() -> Self {
        CollectorOptions { interval: Duration::from_secs(1), capacity: 120 }
    }
}

/// A fixed-capacity ring of samples plus the count of everything ever
/// pushed (so renderers can tell a full ring from a wrapped one).
struct Ring {
    buf: Vec<f64>,
    /// Index the *next* push overwrites once the ring is full.
    head: usize,
    /// Total samples ever pushed (≥ `buf.len()`).
    total: u64,
}

impl Ring {
    fn new() -> Ring {
        Ring { buf: Vec::new(), head: 0, total: 0 }
    }

    fn push(&mut self, capacity: usize, v: f64) {
        self.total += 1;
        if self.buf.len() < capacity {
            self.buf.push(v);
            return;
        }
        self.buf[self.head] = v;
        self.head = (self.head + 1) % self.buf.len();
    }

    fn wrapped(&self) -> bool {
        self.total > self.buf.len() as u64
    }

    /// Retained samples, oldest first.
    fn values(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }
}

/// One tracked series: its ring plus how to interpret the samples.
struct Series {
    /// `"counter"` (cumulative, deltas meaningful) or `"gauge"` (raw).
    kind: &'static str,
    ring: Ring,
}

/// Snapshots a [`Registry`] into per-series history rings; see the module
/// docs. Create with [`Collector::new`], drive with either a background
/// [`Collector::start`] thread or explicit [`Collector::collect_once`]
/// calls (tests and deterministic demos).
pub struct Collector {
    registry: Arc<Registry>,
    /// Called before every snapshot (e.g. to mirror external counters
    /// into the registry, the same refresh a scrape performs).
    refresh: Option<Arc<dyn Fn() + Send + Sync>>,
    slo: Option<Arc<SloEvaluator>>,
    interval: Duration,
    capacity: usize,
    series: Mutex<BTreeMap<String, Series>>,
    ticks: AtomicU64,
}

impl Collector {
    /// Creates a collector over `registry`. `refresh` (if any) runs before
    /// each snapshot; `slo` (if any) is ticked after it.
    pub fn new(
        registry: Arc<Registry>,
        refresh: Option<Arc<dyn Fn() + Send + Sync>>,
        slo: Option<Arc<SloEvaluator>>,
        opts: CollectorOptions,
    ) -> Self {
        Collector {
            registry,
            refresh,
            slo,
            interval: opts.interval,
            capacity: opts.capacity.max(2),
            series: Mutex::new(BTreeMap::new()),
            ticks: AtomicU64::new(0),
        }
    }

    /// The configured sampling interval.
    pub fn interval(&self) -> Duration {
        self.interval
    }

    /// Retained samples per series.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of samples taken so far.
    pub fn ticks(&self) -> u64 {
        self.ticks.load(Ordering::Relaxed)
    }

    /// Takes one sample of every registered metric and advances the SLO
    /// evaluator. Called by the background thread; public so tests and
    /// deterministic drivers can step collection manually.
    pub fn collect_once(&self) {
        if let Some(refresh) = &self.refresh {
            refresh();
        }
        {
            let mut series = self.series.lock();
            for snap in self.registry.snapshot() {
                let key = format!("{}{}", snap.name, export::label_block(&snap.labels, None));
                match snap.value {
                    MetricValue::Counter(v) => {
                        push(&mut series, self.capacity, key, "counter", v as f64);
                    }
                    MetricValue::Gauge(v) => {
                        push(&mut series, self.capacity, key, "gauge", v as f64);
                    }
                    MetricValue::Histogram { count, p99, .. } => {
                        push(
                            &mut series,
                            self.capacity,
                            format!("{key}:count"),
                            "counter",
                            count as f64,
                        );
                        push(&mut series, self.capacity, format!("{key}:p99"), "gauge", p99);
                    }
                }
            }
        }
        self.ticks.fetch_add(1, Ordering::Relaxed);
        if let Some(slo) = &self.slo {
            slo.tick();
        }
    }

    /// Renders every ring as one JSON document:
    ///
    /// ```json
    /// {"interval_ms": 1000, "capacity": 120, "ticks": 7, "series": [
    ///   {"name": "trass_queries{kind=\"threshold\"}", "kind": "counter",
    ///    "total": 7, "wrapped": false, "values": [...], "deltas": [...]},
    ///   ...]}
    /// ```
    ///
    /// Counter series carry `deltas` (consecutive differences, clamped at
    /// zero across resets) — the rate series dashboards want; gauges carry
    /// raw `values` only.
    pub fn render_history(&self) -> String {
        let series = self.series.lock();
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"interval_ms\":{},\"capacity\":{},\"ticks\":{},\"series\":[",
            self.interval.as_millis(),
            self.capacity,
            self.ticks()
        );
        for (i, (name, s)) in series.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let values = s.ring.values();
            let _ = write!(
                out,
                "{{\"name\":{},\"kind\":\"{}\",\"total\":{},\"wrapped\":{},\"values\":[{}]",
                json::string(name),
                s.kind,
                s.ring.total,
                s.ring.wrapped(),
                join_f64(&values),
            );
            if s.kind == "counter" {
                let deltas: Vec<f64> = values.windows(2).map(|w| (w[1] - w[0]).max(0.0)).collect();
                let _ = write!(out, ",\"deltas\":[{}]", join_f64(&deltas));
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Spawns the background sampling thread. Returns the handle that
    /// stops and joins it; dropping the handle without calling
    /// [`CollectorHandle::stop`] also stops the thread.
    pub fn start(self: &Arc<Self>) -> std::io::Result<CollectorHandle> {
        let collector = Arc::clone(self);
        let signal = Arc::new((Mutex::new(false), Condvar::new()));
        let thread_signal = Arc::clone(&signal);
        let handle =
            std::thread::Builder::new().name("trass-collector".into()).spawn(move || {
                let (stop_flag, cv) = &*thread_signal;
                let mut stopped = stop_flag.lock();
                loop {
                    if *stopped {
                        return;
                    }
                    drop(stopped);
                    collector.collect_once();
                    stopped = stop_flag.lock();
                    // Interruptible sleep: a stop() mid-interval wakes us.
                    let interval = collector.interval;
                    let (guard, _) = cv
                        .wait_timeout_while(stopped, interval, |s| !*s)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    stopped = guard;
                }
            })?;
        Ok(CollectorHandle { signal, handle: Some(handle) })
    }
}

fn push(
    series: &mut BTreeMap<String, Series>,
    capacity: usize,
    key: String,
    kind: &'static str,
    v: f64,
) {
    series.entry(key).or_insert_with(|| Series { kind, ring: Ring::new() }).ring.push(capacity, v);
}

fn join_f64(values: &[f64]) -> String {
    values.iter().map(|&v| json::number(v)).collect::<Vec<_>>().join(",")
}

impl std::fmt::Debug for Collector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Collector")
            .field("interval", &self.interval)
            .field("capacity", &self.capacity)
            .field("ticks", &self.ticks())
            .finish()
    }
}

/// Stops and joins a running collector thread.
#[derive(Debug)]
pub struct CollectorHandle {
    signal: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<JoinHandle<()>>,
}

impl CollectorHandle {
    /// Signals the thread to stop and joins it. Idempotent.
    pub fn stop(&mut self) {
        {
            let (stop_flag, cv) = &*self.signal;
            *stop_flag.lock() = true;
            cv.notify_all();
        }
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for CollectorHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collector(capacity: usize) -> (Arc<Registry>, Collector) {
        let registry = Registry::new_shared();
        let c = Collector::new(
            Arc::clone(&registry),
            None,
            None,
            CollectorOptions { interval: Duration::from_millis(10), capacity },
        );
        (registry, c)
    }

    #[test]
    fn samples_every_metric_kind() {
        let (r, c) = collector(8);
        r.counter("reqs", &[("kind", "a")]).add(3);
        r.gauge("depth", &[]).set(-2);
        r.timer("lat_seconds", &[]).record(1_000_000);
        c.collect_once();
        r.counter("reqs", &[("kind", "a")]).add(2);
        c.collect_once();
        let json = c.render_history();
        assert!(json.contains("\"ticks\":2"), "{json}");
        assert!(json.contains(r#""name":"reqs{kind=\"a\"}","kind":"counter","total":2"#), "{json}");
        assert!(json.contains("\"values\":[3,5]"), "{json}");
        assert!(json.contains("\"deltas\":[2]"), "{json}");
        assert!(json.contains(r#""name":"depth","kind":"gauge""#), "{json}");
        assert!(json.contains("\"values\":[-2,-2]"), "{json}");
        assert!(json.contains(r#""name":"lat_seconds:count""#), "{json}");
        assert!(json.contains(r#""name":"lat_seconds:p99""#), "{json}");
    }

    #[test]
    fn ring_wraps_and_keeps_chronological_order() {
        // Satellite: the ring-buffer wraparound contract. Capacity 4,
        // 7 samples: the ring must hold the *last* 4 in order and report
        // wrapped=true with the full total.
        let (r, c) = collector(4);
        let counter = r.counter("n", &[]);
        for i in 1..=7u64 {
            counter.set(i * 10);
            c.collect_once();
        }
        let json = c.render_history();
        assert!(json.contains("\"total\":7"), "{json}");
        assert!(json.contains("\"wrapped\":true"), "{json}");
        assert!(json.contains("\"values\":[40,50,60,70]"), "{json}");
        assert!(json.contains("\"deltas\":[10,10,10]"), "{json}");
    }

    #[test]
    fn unwrapped_ring_reports_wrapped_false() {
        let (r, c) = collector(10);
        r.counter("n", &[]).inc();
        c.collect_once();
        c.collect_once();
        let json = c.render_history();
        assert!(json.contains("\"wrapped\":false"), "{json}");
        assert!(json.contains("\"total\":2"), "{json}");
    }

    #[test]
    fn counter_reset_clamps_delta_to_zero() {
        let (r, c) = collector(8);
        let counter = r.counter("n", &[]);
        counter.set(100);
        c.collect_once();
        counter.set(5); // external reset
        c.collect_once();
        let json = c.render_history();
        assert!(json.contains("\"deltas\":[0]"), "{json}");
    }

    #[test]
    fn refresh_runs_before_each_sample() {
        use std::sync::atomic::AtomicU64;
        let registry = Registry::new_shared();
        let refreshed = Arc::new(AtomicU64::new(0));
        let hook = Arc::clone(&refreshed);
        let reg = Arc::clone(&registry);
        let c = Collector::new(
            Arc::clone(&registry),
            Some(Arc::new(move || {
                let n = hook.fetch_add(1, Ordering::Relaxed) + 1;
                reg.counter("mirrored", &[]).set(n);
            })),
            None,
            CollectorOptions { capacity: 4, ..CollectorOptions::default() },
        );
        c.collect_once();
        c.collect_once();
        assert_eq!(refreshed.load(Ordering::Relaxed), 2);
        assert!(c.render_history().contains("\"values\":[1,2]"));
    }

    #[test]
    fn background_thread_samples_and_stops_cleanly() {
        let registry = Registry::new_shared();
        registry.counter("n", &[]).inc();
        let c = Arc::new(Collector::new(
            Arc::clone(&registry),
            None,
            None,
            CollectorOptions { interval: Duration::from_millis(5), capacity: 64 },
        ));
        let mut handle = c.start().expect("spawn collector");
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while c.ticks() < 3 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(c.ticks() >= 3, "collector thread never ticked");
        handle.stop();
        let after = c.ticks();
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(c.ticks(), after, "thread kept running after stop");
        handle.stop(); // idempotent
    }

    #[test]
    fn slo_evaluator_ticks_with_collection() {
        use crate::health::{SloEvaluator, SloObjective};
        let registry = Registry::new_shared();
        let slo = Arc::new(SloEvaluator::new(
            &registry,
            vec![SloObjective::latency_under("lat", "op_seconds", 0.5, 0.99)],
        ));
        let c = Collector::new(
            Arc::clone(&registry),
            None,
            Some(Arc::clone(&slo)),
            CollectorOptions::default(),
        );
        c.collect_once();
        c.collect_once();
        assert_eq!(slo.statuses().len(), 1);
        // The evaluator's own gauges become series on the next tick.
        c.collect_once();
        assert!(c.render_history().contains("trass_slo_ok"), "{}", c.render_history());
    }
}
