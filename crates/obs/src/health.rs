//! Health probes and SLO burn-rate evaluation.
//!
//! Two layers feed the telemetry endpoint's `/healthz` verdict:
//!
//! * [`HealthRegistry`] — named, pluggable *probes*: cheap closures each
//!   subsystem registers (WAL writable, compaction backlog, pool queue
//!   depth) that answer "is this component currently able to do its job?".
//! * [`SloEvaluator`] — *objectives* over the metric registry, checked
//!   with the standard multi-window burn-rate method: an objective (say,
//!   99 % of queries under 500 ms) implies an error budget (1 %), and the
//!   evaluator alarms only when both a fast window (pages quickly on a
//!   cliff) and a slow window (suppresses blips) are burning budget faster
//!   than their configured factors. Verdicts are re-published into the
//!   registry as `trass_slo_ok{objective=...}` and
//!   `trass_slo_burn_rate_milli{objective=...,window=...}` gauges so the
//!   alarm state itself is scrapeable.
//!
//! The evaluator is sampled by the collector ([`crate::collector`]) on its
//! tick, so "window" here is measured in collector ticks, not wall-clock
//! seconds; with the default 1 s interval the two coincide.

use crate::histogram::Histogram;
use crate::registry::{Counter, Gauge, Registry};
use crate::sync::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

/// A registered probe's outcome: its name and `Ok(())` or the failure
/// reason.
#[derive(Debug, Clone)]
pub struct ProbeReport {
    /// The probe's registered name.
    pub name: String,
    /// `Ok(())` when healthy, `Err(reason)` otherwise.
    pub result: Result<(), String>,
}

type Probe = Box<dyn Fn() -> Result<(), String> + Send + Sync>;

/// A set of named liveness/readiness probes, checked on demand.
///
/// Probes must be cheap and non-blocking — they run inline on every
/// `/healthz` and `/readyz` request.
#[derive(Default)]
pub struct HealthRegistry {
    probes: Mutex<Vec<(String, Probe)>>,
}

impl HealthRegistry {
    /// Creates an empty probe set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty probe set behind an `Arc` (the common shape:
    /// shared between the subsystems registering probes and the endpoint
    /// checking them).
    pub fn new_shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// Registers a probe under `name`. Re-registering a name adds a second
    /// probe with the same name rather than replacing the first.
    pub fn register(
        &self,
        name: &str,
        probe: impl Fn() -> Result<(), String> + Send + Sync + 'static,
    ) {
        self.probes.lock().push((name.to_string(), Box::new(probe)));
    }

    /// Runs every probe, in registration order.
    pub fn check(&self) -> Vec<ProbeReport> {
        let probes = self.probes.lock();
        probes.iter().map(|(name, p)| ProbeReport { name: name.clone(), result: p() }).collect()
    }

    /// True when every probe passes (vacuously true with no probes).
    pub fn healthy(&self) -> bool {
        self.check().iter().all(|r| r.result.is_ok())
    }

    /// Number of registered probes.
    pub fn len(&self) -> usize {
        self.probes.lock().len()
    }

    /// True when no probe is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for HealthRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HealthRegistry").field("probes", &self.len()).finish()
    }
}

/// What an [`SloObjective`] measures: a (good events, total events) pair
/// read cumulatively from the metric registry.
#[derive(Debug, Clone)]
pub enum SloSignal {
    /// Good = samples of a latency histogram at or under a threshold.
    ///
    /// Metrics named `*_seconds` are resolved as timers (nanosecond
    /// recording, 1e-9 export scale); the threshold is converted through
    /// the histogram's own scale, so instrumentation and evaluator can
    /// never disagree on units.
    LatencyUnder {
        /// Histogram metric name.
        metric: String,
        /// The series' label pairs.
        labels: Vec<(String, String)>,
        /// Threshold in *exported* units (seconds for `*_seconds` timers).
        threshold: f64,
    },
    /// Good = `total − errors`, both read from counters.
    ErrorRatio {
        /// Error counter name (unlabeled series).
        errors: String,
        /// Total counter name (unlabeled series).
        total: String,
    },
}

/// One service-level objective checked by the [`SloEvaluator`].
#[derive(Debug, Clone)]
pub struct SloObjective {
    /// Objective name (the `objective` label on the published gauges).
    pub name: String,
    /// What to measure.
    pub signal: SloSignal,
    /// Target good fraction in `[0, 1)`, e.g. `0.99`. The error budget is
    /// `1 − objective`.
    pub objective: f64,
    /// Fast window length in evaluator ticks.
    pub fast_window: usize,
    /// Slow window length in evaluator ticks (≥ `fast_window`).
    pub slow_window: usize,
    /// Burn-rate factor that must be exceeded over the fast window.
    pub fast_burn: f64,
    /// Burn-rate factor that must be exceeded over the slow window.
    pub slow_burn: f64,
}

impl SloObjective {
    /// A latency objective with the standard page-worthy burn factors
    /// (14.4× fast, 6× slow) over 6-tick / 30-tick windows.
    pub fn latency_under(name: &str, metric: &str, threshold: f64, objective: f64) -> Self {
        SloObjective {
            name: name.to_string(),
            signal: SloSignal::LatencyUnder {
                metric: metric.to_string(),
                labels: Vec::new(),
                threshold,
            },
            objective,
            fast_window: 6,
            slow_window: 30,
            fast_burn: 14.4,
            slow_burn: 6.0,
        }
    }

    /// An error-ratio objective over two counters, same windows and burn
    /// factors as [`SloObjective::latency_under`].
    pub fn error_ratio(name: &str, errors: &str, total: &str, objective: f64) -> Self {
        SloObjective {
            name: name.to_string(),
            signal: SloSignal::ErrorRatio { errors: errors.to_string(), total: total.to_string() },
            objective,
            fast_window: 6,
            slow_window: 30,
            fast_burn: 14.4,
            slow_burn: 6.0,
        }
    }
}

/// One objective's verdict after a tick.
#[derive(Debug, Clone)]
pub struct SloStatus {
    /// The objective's name.
    pub name: String,
    /// Burn rate over the fast window (1.0 = burning budget exactly at
    /// the sustainable rate).
    pub fast_burn: f64,
    /// Burn rate over the slow window.
    pub slow_burn: f64,
    /// True when both windows exceed their configured factors.
    pub breached: bool,
}

/// Per-objective evaluator state: resolved gauge handles plus the ring of
/// cumulative `(good, total)` samples the windows are computed over.
struct ObjectiveState {
    spec: SloObjective,
    /// Cumulative samples, oldest front; capped at `slow_window + 1`.
    samples: VecDeque<(u64, u64)>,
    ok_gauge: Arc<Gauge>,
    fast_gauge: Arc<Gauge>,
    slow_gauge: Arc<Gauge>,
    status: SloStatus,
}

/// Signal handles resolved once so ticking is lock-free on the registry.
enum SignalReader {
    Latency { histogram: Arc<Histogram>, threshold_raw: u64 },
    Errors { errors: Arc<Counter>, total: Arc<Counter> },
}

impl SignalReader {
    fn resolve(registry: &Registry, signal: &SloSignal) -> SignalReader {
        match signal {
            SloSignal::LatencyUnder { metric, labels, threshold } => {
                let label_refs: Vec<(&str, &str)> =
                    labels.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
                // `timer` for `_seconds` names so a pre-instrumentation
                // resolve creates the series with the right scale; either
                // way the existing handle's own scale converts the
                // threshold.
                let histogram = if metric.ends_with("_seconds") {
                    registry.timer(metric, &label_refs)
                } else {
                    registry.histogram(metric, &label_refs)
                };
                let scale = histogram.scale();
                let threshold_raw = if scale > 0.0 && threshold.is_finite() && *threshold >= 0.0 {
                    let raw = threshold / scale;
                    if raw >= u64::MAX as f64 {
                        u64::MAX
                    } else {
                        raw as u64
                    }
                } else {
                    u64::MAX
                };
                SignalReader::Latency { histogram, threshold_raw }
            }
            SloSignal::ErrorRatio { errors, total } => SignalReader::Errors {
                errors: registry.counter(errors, &[]),
                total: registry.counter(total, &[]),
            },
        }
    }

    /// Cumulative `(good, total)` right now.
    fn read(&self) -> (u64, u64) {
        match self {
            SignalReader::Latency { histogram, threshold_raw } => {
                let total = histogram.count();
                // Two relaxed reads race with writers; clamp so good ≤ total.
                (histogram.count_at_most(*threshold_raw).min(total), total)
            }
            SignalReader::Errors { errors, total } => {
                let t = total.get();
                (t.saturating_sub(errors.get()), t)
            }
        }
    }
}

/// Evaluates a set of [`SloObjective`]s against a [`Registry`], one
/// cumulative sample per [`SloEvaluator::tick`].
pub struct SloEvaluator {
    objectives: Mutex<Vec<(SignalReader, ObjectiveState)>>,
}

impl SloEvaluator {
    /// Builds an evaluator, resolving every signal's metric handles (and
    /// publishing the initial healthy verdicts) against `registry`.
    pub fn new(registry: &Registry, objectives: Vec<SloObjective>) -> Self {
        let states = objectives
            .into_iter()
            .map(|spec| {
                let reader = SignalReader::resolve(registry, &spec.signal);
                let obj_labels = [("objective", spec.name.as_str())];
                let ok_gauge = registry.gauge("trass_slo_ok", &obj_labels);
                ok_gauge.set(1);
                let fast_gauge = registry.gauge(
                    "trass_slo_burn_rate_milli",
                    &[("objective", spec.name.as_str()), ("window", "fast")],
                );
                let slow_gauge = registry.gauge(
                    "trass_slo_burn_rate_milli",
                    &[("objective", spec.name.as_str()), ("window", "slow")],
                );
                let status = SloStatus {
                    name: spec.name.clone(),
                    fast_burn: 0.0,
                    slow_burn: 0.0,
                    breached: false,
                };
                let state = ObjectiveState {
                    spec,
                    samples: VecDeque::new(),
                    ok_gauge,
                    fast_gauge,
                    slow_gauge,
                    status,
                };
                (reader, state)
            })
            .collect();
        SloEvaluator { objectives: Mutex::new(states) }
    }

    /// Takes one cumulative sample per objective, recomputes both window
    /// burn rates, publishes the gauges, and returns the fresh verdicts.
    pub fn tick(&self) -> Vec<SloStatus> {
        let mut objectives = self.objectives.lock();
        objectives
            .iter_mut()
            .map(|(reader, state)| {
                state.samples.push_back(reader.read());
                while state.samples.len() > state.spec.slow_window + 1 {
                    state.samples.pop_front();
                }
                let fast = burn_over(&state.samples, state.spec.fast_window, state.spec.objective);
                let slow = burn_over(&state.samples, state.spec.slow_window, state.spec.objective);
                let breached = fast >= state.spec.fast_burn && slow >= state.spec.slow_burn;
                state.ok_gauge.set(i64::from(!breached));
                state.fast_gauge.set(burn_milli(fast));
                state.slow_gauge.set(burn_milli(slow));
                state.status = SloStatus {
                    name: state.spec.name.clone(),
                    fast_burn: fast,
                    slow_burn: slow,
                    breached,
                };
                state.status.clone()
            })
            .collect()
    }

    /// The verdicts from the most recent tick (all-healthy before the
    /// first).
    pub fn statuses(&self) -> Vec<SloStatus> {
        self.objectives.lock().iter().map(|(_, s)| s.status.clone()).collect()
    }

    /// True when any objective is currently breached.
    pub fn breached(&self) -> bool {
        self.statuses().iter().any(|s| s.breached)
    }

    /// Number of configured objectives.
    pub fn len(&self) -> usize {
        self.objectives.lock().len()
    }

    /// True when no objective is configured.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for SloEvaluator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SloEvaluator").field("objectives", &self.len()).finish()
    }
}

/// Burn rate over the last `window` ticks of cumulative samples: the bad
/// fraction of the events in that span divided by the error budget. A
/// still-warming ring uses the span it has; a span with no traffic burns
/// nothing.
fn burn_over(samples: &VecDeque<(u64, u64)>, window: usize, objective: f64) -> f64 {
    let Some(&(good_now, total_now)) = samples.back() else { return 0.0 };
    let span = window.min(samples.len() - 1);
    let (good_then, total_then) = samples[samples.len() - 1 - span];
    let total_delta = total_now.saturating_sub(total_then);
    if total_delta == 0 {
        return 0.0;
    }
    let good_delta = good_now.saturating_sub(good_then).min(total_delta);
    let bad_fraction = (total_delta - good_delta) as f64 / total_delta as f64;
    let budget = (1.0 - objective).max(1e-9);
    bad_fraction / budget
}

/// A burn rate as an integer gauge in milli-units, saturating.
fn burn_milli(burn: f64) -> i64 {
    if !burn.is_finite() {
        return i64::MAX;
    }
    let milli = burn * 1e3;
    if milli >= i64::MAX as f64 {
        i64::MAX
    } else {
        milli as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_report_in_registration_order() {
        let h = HealthRegistry::new();
        assert!(h.healthy(), "no probes is healthy");
        h.register("always-ok", || Ok(()));
        h.register("always-bad", || Err("broken".to_string()));
        let reports = h.check();
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].name, "always-ok");
        assert!(reports[0].result.is_ok());
        assert_eq!(reports[1].result.as_ref().unwrap_err(), "broken");
        assert!(!h.healthy());
    }

    #[test]
    fn probes_observe_live_state() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let h = HealthRegistry::new();
        let flag = Arc::new(AtomicBool::new(true));
        let probe_flag = Arc::clone(&flag);
        h.register("flag", move || {
            if probe_flag.load(Ordering::Relaxed) {
                Ok(())
            } else {
                Err("flag down".to_string())
            }
        });
        assert!(h.healthy());
        flag.store(false, Ordering::Relaxed);
        assert!(!h.healthy());
    }

    fn latency_objective(threshold: f64, fast: usize, slow: usize) -> SloObjective {
        SloObjective {
            fast_window: fast,
            slow_window: slow,
            ..SloObjective::latency_under("lat", "op_seconds", threshold, 0.99)
        }
    }

    #[test]
    fn healthy_traffic_never_breaches() {
        let r = Registry::new();
        let t = r.timer("op_seconds", &[]);
        let slo = SloEvaluator::new(&r, vec![latency_objective(0.5, 3, 6)]);
        for _ in 0..10 {
            for _ in 0..20 {
                t.record(1_000_000); // 1 ms — well under 500 ms
            }
            let statuses = slo.tick();
            assert!(!statuses[0].breached, "{statuses:?}");
            assert_eq!(statuses[0].fast_burn, 0.0);
        }
        assert!(!slo.breached());
        assert_eq!(r.gauge("trass_slo_ok", &[("objective", "lat")]).get(), 1);
    }

    #[test]
    fn latency_spike_breaches_and_recovers() {
        let r = Registry::new();
        let t = r.timer("op_seconds", &[]);
        let slo = SloEvaluator::new(&r, vec![latency_objective(0.5, 3, 6)]);
        // Warm up healthy.
        for _ in 0..7 {
            t.record(1_000_000);
            slo.tick();
        }
        // Sustained spike: every sample over threshold. Bad fraction 1.0
        // against a 1 % budget is a 100× burn in both windows.
        let mut breached = false;
        for _ in 0..7 {
            for _ in 0..10 {
                t.record(2_000_000_000); // 2 s
            }
            breached = slo.tick()[0].breached;
        }
        assert!(breached, "sustained spike must breach");
        assert!(slo.breached());
        assert_eq!(r.gauge("trass_slo_ok", &[("objective", "lat")]).get(), 0);
        let fast =
            r.gauge("trass_slo_burn_rate_milli", &[("objective", "lat"), ("window", "fast")]).get();
        assert!(fast > 14_400, "fast burn milli {fast}");
        // Recovery: healthy traffic pushes the spike out of both windows.
        for _ in 0..10 {
            for _ in 0..100 {
                t.record(1_000_000);
            }
            slo.tick();
        }
        assert!(!slo.breached(), "{:?}", slo.statuses());
        assert_eq!(r.gauge("trass_slo_ok", &[("objective", "lat")]).get(), 1);
    }

    #[test]
    fn short_blip_does_not_breach_slow_window() {
        let r = Registry::new();
        let t = r.timer("op_seconds", &[]);
        let slo = SloEvaluator::new(&r, vec![latency_objective(0.5, 1, 20)]);
        // Long healthy history at high volume.
        for _ in 0..21 {
            for _ in 0..100 {
                t.record(1_000_000);
            }
            slo.tick();
        }
        // One bad tick: saturates the fast window but not the slow one.
        for _ in 0..5 {
            t.record(2_000_000_000);
        }
        let s = &slo.tick()[0];
        assert!(s.fast_burn >= 14.4, "blip should light the fast window: {s:?}");
        assert!(s.slow_burn < 6.0, "slow window should absorb a blip: {s:?}");
        assert!(!s.breached);
    }

    #[test]
    fn error_ratio_signal_breaches_on_failures() {
        let r = Registry::new();
        let total = r.counter("req_total", &[]);
        let errors = r.counter("req_errors", &[]);
        let spec = SloObjective {
            fast_window: 2,
            slow_window: 4,
            ..SloObjective::error_ratio("errs", "req_errors", "req_total", 0.999)
        };
        let slo = SloEvaluator::new(&r, vec![spec]);
        for _ in 0..5 {
            total.add(100);
            slo.tick();
        }
        assert!(!slo.breached());
        // Everything failing: burn = 1.0 / 0.001 = 1000×.
        for _ in 0..5 {
            total.add(100);
            errors.add(100);
            assert!(slo.tick()[0].fast_burn > 100.0);
        }
        assert!(slo.breached());
    }

    #[test]
    fn no_traffic_is_not_a_breach() {
        let r = Registry::new();
        let slo = SloEvaluator::new(&r, vec![latency_objective(0.5, 2, 4)]);
        for _ in 0..10 {
            let s = &slo.tick()[0];
            assert_eq!(s.fast_burn, 0.0);
            assert!(!s.breached);
        }
    }

    #[test]
    fn threshold_converts_through_the_timer_scale() {
        let r = Registry::new();
        // Resolve through the evaluator first: the series must still end
        // up with timer scale, so instrumentation recording nanoseconds
        // is judged in seconds.
        let slo = SloEvaluator::new(&r, vec![latency_objective(0.5, 1, 2)]);
        let t = r.timer("op_seconds", &[]);
        assert!((t.scale() - 1e-9).abs() < 1e-18, "evaluator created the wrong scale");
        t.record(400_000_000); // 0.4 s: good
        let s = &slo.tick()[0];
        assert_eq!(s.fast_burn, 0.0, "{s:?}");
    }
}
