//! Intra-query parallel execution for TraSS.
//!
//! The query pipeline (global pruning → region scans → local filtering →
//! refinement) is embarrassingly parallel across both the sharded rowkey
//! space (§IV-E) and the refinement candidate set, but parallel execution
//! only pays off when it leaves the *semantics* of the sequential pipeline
//! untouched. This crate provides the two primitives the pipeline uses to
//! get speed without giving up determinism:
//!
//! * [`ScopedPool`] — a scoped worker pool: tasks borrow from the caller's
//!   stack, workers live exactly as long as one [`ScopedPool::run`] call,
//!   and results come back **in task order** no matter which worker ran
//!   which task. Sequential fallback (`threads == 1`, or a single task) is
//!   byte-identical to a plain loop.
//! * [`TopKBound`] — a shared, atomically readable distance bound fed by a
//!   bounded max-heap of the best results so far. Refine workers read it
//!   with one atomic load and use it to stop measuring candidates that can
//!   no longer make the top-k ("early-exit propagation").
//!
//! Everything here is std-only; observability hooks report into a
//! [`trass_obs::Registry`] when one is attached.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::print_stdout, clippy::print_stderr)
)]

use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trass_obs::sync::Mutex;
use trass_obs::{Counter, Gauge, Registry};

/// Resolves a configured thread count: `0` means "use all available
/// parallelism", anything else is taken literally.
pub fn resolve_threads(configured: usize) -> usize {
    if configured > 0 {
        configured
    } else {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    }
}

/// Registry handles for a pool's instrumentation, resolved once at
/// construction so recording on the hot path is a single atomic op.
struct PoolObs {
    /// Tasks submitted but not yet claimed by a worker.
    queue_depth: Arc<Gauge>,
    /// Total tasks ever submitted to this pool.
    tasks_total: Arc<Counter>,
}

/// The outcome of one [`ScopedPool::run_timed`] call.
#[derive(Debug)]
pub struct PoolRun<R> {
    /// Per-task results, in task order.
    pub results: Vec<R>,
    /// Busy wall-clock time of each worker that participated (length =
    /// number of workers actually spawned; a single entry for the
    /// sequential fallback).
    pub worker_busy: Vec<Duration>,
}

/// A scoped worker pool.
///
/// "Scoped" in the [`std::thread::scope`] sense: workers are spawned for
/// one `run` call, may borrow non-`'static` state from the caller (query
/// objects, filters, trace spans), and are all joined before `run`
/// returns. There is no task queue outliving a call and no shutdown
/// protocol — the pool object itself is just a thread budget plus metric
/// handles, so it is cheap to keep on a store and share across queries.
///
/// # Ordering guarantee
///
/// `run` returns results **indexed by task**, not by completion order.
/// Combined with a deterministic task list this makes the parallel
/// execution observationally identical to the sequential one: callers that
/// concatenate results get the exact byte sequence a `threads = 1` run
/// produces.
///
/// # Panics
///
/// A panicking task propagates its panic to the caller once every worker
/// has finished (via [`std::thread::scope`]'s join-on-exit), never
/// silently dropping sibling results into an inconsistent state.
pub struct ScopedPool {
    threads: usize,
    obs: Option<PoolObs>,
}

impl ScopedPool {
    /// A pool running `threads` workers per call (`0` = available
    /// parallelism), without registry instrumentation.
    pub fn new(threads: usize) -> Self {
        ScopedPool { threads: resolve_threads(threads).max(1), obs: None }
    }

    /// A pool reporting `trass_pool_queue_depth` / `trass_pool_tasks_total`
    /// into `registry`, labelled `pool=<name>` so several pools (scan,
    /// refine) can share one registry.
    pub fn with_registry(threads: usize, registry: &Registry, name: &str) -> Self {
        let labels = [("pool", name)];
        ScopedPool {
            threads: resolve_threads(threads).max(1),
            obs: Some(PoolObs {
                queue_depth: registry.gauge("trass_pool_queue_depth", &labels),
                tasks_total: registry.counter("trass_pool_tasks_total", &labels),
            }),
        }
    }

    /// The number of workers a `run` call may spawn.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Registers a readiness probe named `name` on `health` that fails
    /// when the pool's queue depth exceeds `max_queue` — a saturated pool
    /// means queries are arriving faster than workers drain them, which an
    /// orchestrator should see on `/readyz` before latency degrades.
    ///
    /// No-op for uninstrumented pools (no registry attached): with no
    /// gauge to read there is nothing to probe.
    pub fn register_health_probe(
        &self,
        health: &trass_obs::HealthRegistry,
        name: &str,
        max_queue: i64,
    ) {
        let Some(obs) = &self.obs else { return };
        let depth = Arc::clone(&obs.queue_depth);
        health.register(name, move || {
            let d = depth.get();
            if d > max_queue {
                Err(format!("pool queue depth {d} exceeds {max_queue}"))
            } else {
                Ok(())
            }
        });
    }

    /// Runs `f` over every item, returning results in item order. See
    /// [`ScopedPool::run_timed`] for the full contract.
    pub fn run<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        self.run_timed(items, f).results
    }

    /// Runs `f(index, item)` over every item on up to
    /// `min(threads, items.len())` scoped workers and returns the results
    /// in item order, together with each worker's busy time.
    ///
    /// With one worker (or zero/one items) the items are processed inline
    /// on the calling thread in order — the exact legacy sequential
    /// behavior, with no thread spawned at all.
    pub fn run_timed<T, R, F>(&self, items: Vec<T>, f: F) -> PoolRun<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let n = items.len();
        if let Some(obs) = &self.obs {
            obs.tasks_total.add(n as u64);
        }
        let workers = self.threads.min(n);
        if workers <= 1 {
            let t0 = Instant::now();
            let results = items.into_iter().enumerate().map(|(i, item)| f(i, item)).collect();
            return PoolRun { results, worker_busy: vec![t0.elapsed()] };
        }

        // Each slot is claimed by exactly one worker (the atomic cursor
        // hands out indices), so the mutexes are uncontended — they exist
        // to move values across the scope without unsafe code.
        let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
        let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let busy: Vec<Mutex<Duration>> = (0..workers).map(|_| Mutex::new(Duration::ZERO)).collect();
        let cursor = AtomicUsize::new(0);
        if let Some(obs) = &self.obs {
            obs.queue_depth.add(n as i64);
        }
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let slots = &slots;
                    let results = &results;
                    let busy = &busy;
                    let cursor = &cursor;
                    let f = &f;
                    let obs = &self.obs;
                    scope.spawn(move || {
                        let t0 = Instant::now();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            if let Some(obs) = obs {
                                obs.queue_depth.add(-1);
                            }
                            // The ticket counter hands each index to exactly
                            // one worker.
                            #[allow(clippy::expect_used)]
                            let item = slots[i].lock().take().expect("task claimed twice");
                            let r = f(i, item);
                            *results[i].lock() = Some(r);
                        }
                        *busy[w].lock() = t0.elapsed();
                    })
                })
                .collect();
            // Join explicitly so a task panic reaches the caller with its
            // original payload instead of scope's generic message.
            let panics: Vec<_> = handles.into_iter().filter_map(|h| h.join().err()).collect();
            if let Some(payload) = panics.into_iter().next() {
                std::panic::resume_unwind(payload);
            }
        });
        PoolRun {
            results: results
                .into_iter()
                .map(|slot| {
                    // scope join guarantees every claimed slot was filled.
                    #[allow(clippy::expect_used)]
                    slot.into_inner().expect("worker completed every claimed task")
                })
                .collect(),
            worker_busy: busy.into_iter().map(Mutex::into_inner).collect(),
        }
    }
}

impl std::fmt::Debug for ScopedPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScopedPool")
            .field("threads", &self.threads)
            .field("instrumented", &self.obs.is_some())
            .finish()
    }
}

/// `f64` ordered by `total_cmp` for use in a [`BinaryHeap`].
#[derive(Debug, PartialEq)]
struct OrdF64(f64);

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// A shared top-k distance bound for refine early exit.
///
/// Workers verifying candidates in parallel [`offer`](TopKBound::offer)
/// every exact distance they compute; the bound tracks the k-th best
/// distance seen so far (`+∞` until `k` results exist) behind a bounded
/// max-heap, and mirrors it into an atomic so readers on the hot path pay
/// one load, no lock.
///
/// # Soundness / determinism
///
/// The bound is **monotonically non-increasing** and always ≥ the true
/// k-th best distance of the full candidate set (it is the k-th best of a
/// subset). A candidate skipped because its distance exceeds the bound
/// therefore can never belong to the final top-k, so the *final ranked
/// top-k is identical* for every thread count and interleaving — only the
/// set of also-ran distances that get fully measured varies.
#[derive(Debug)]
pub struct TopKBound {
    k: usize,
    /// Max-heap of the k smallest distances offered so far.
    heap: Mutex<BinaryHeap<OrdF64>>,
    /// Bit pattern of the current bound (`f64::INFINITY` until full).
    bound_bits: AtomicU64,
}

impl TopKBound {
    /// A bound tracking the `k` smallest offered distances. `k == 0`
    /// pins the bound at zero — nothing can qualify.
    pub fn new(k: usize) -> Self {
        let initial = if k == 0 { 0.0 } else { f64::INFINITY };
        TopKBound {
            k,
            heap: Mutex::new(BinaryHeap::new()),
            bound_bits: AtomicU64::new(initial.to_bits()),
        }
    }

    /// The current bound: the k-th smallest distance offered so far, or
    /// `+∞` while fewer than `k` have been offered.
    pub fn current(&self) -> f64 {
        f64::from_bits(self.bound_bits.load(Ordering::Acquire))
    }

    /// The effective refine threshold given the query's `eps`: the tighter
    /// of the two. Refinement prunes and abandons against this value — the
    /// bound is always ≥ the true k-th best distance, so anything skipped
    /// is provably outside both the threshold and the final top-k.
    pub fn effective(&self, eps: f64) -> f64 {
        self.current().min(eps)
    }

    /// Records an exact distance. NaNs are ignored (a NaN distance is a
    /// measure bug, not a result).
    pub fn offer(&self, distance: f64) {
        if self.k == 0 || distance.is_nan() || distance >= self.current() {
            return;
        }
        let mut heap = self.heap.lock();
        heap.push(OrdF64(distance));
        if heap.len() > self.k {
            heap.pop();
        }
        if heap.len() == self.k {
            if let Some(OrdF64(worst)) = heap.peek() {
                // Published under the heap lock; `current` may briefly read
                // a stale (looser) bound, which is always sound.
                self.bound_bits.store(worst.to_bits(), Ordering::Release);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn resolve_threads_zero_means_auto() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn results_come_back_in_task_order() {
        let pool = ScopedPool::new(4);
        let items: Vec<usize> = (0..100).collect();
        let out = pool.run(items, |i, item| {
            assert_eq!(i, item);
            // Stagger completion so late tasks finish first.
            if i % 7 == 0 {
                std::thread::sleep(Duration::from_micros(200));
            }
            item * 2
        });
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_fallback_runs_inline() {
        let pool = ScopedPool::new(1);
        let caller = std::thread::current().id();
        let out = pool.run(vec![1, 2, 3], |_, x| {
            assert_eq!(std::thread::current().id(), caller);
            x + 1
        });
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn single_item_runs_inline_even_with_many_threads() {
        let pool = ScopedPool::new(8);
        let caller = std::thread::current().id();
        let out = pool.run(vec![9], |_, x: i32| {
            assert_eq!(std::thread::current().id(), caller);
            x
        });
        assert_eq!(out, vec![9]);
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let pool = ScopedPool::new(5);
        let ran = AtomicUsize::new(0);
        let out = pool.run((0..1000).collect(), |_, i: usize| {
            ran.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(ran.load(Ordering::Relaxed), 1000);
        assert_eq!(out.len(), 1000);
    }

    #[test]
    fn tasks_may_borrow_caller_state() {
        let pool = ScopedPool::new(4);
        let shared = vec![10u64, 20, 30, 40];
        let out = pool.run((0..4).collect(), |_, i: usize| shared[i]);
        assert_eq!(out, shared);
    }

    #[test]
    fn worker_busy_reported_per_worker() {
        let pool = ScopedPool::new(3);
        let run = pool.run_timed((0..30).collect(), |_, i: usize| i);
        assert_eq!(run.worker_busy.len(), 3);
        let run = ScopedPool::new(1).run_timed(vec![1], |_, x: i32| x);
        assert_eq!(run.worker_busy.len(), 1);
    }

    #[test]
    fn empty_input_is_empty_output() {
        let pool = ScopedPool::new(4);
        let out: Vec<i32> = pool.run(Vec::<i32>::new(), |_, x| x);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "task 3 exploded")]
    fn task_panics_propagate() {
        let pool = ScopedPool::new(4);
        let _ = pool.run((0..8).collect(), |_, i: usize| {
            if i == 3 {
                panic!("task 3 exploded");
            }
            i
        });
    }

    #[test]
    fn registry_instruments_report() {
        let registry = Registry::new();
        let pool = ScopedPool::with_registry(4, &registry, "test");
        let _ = pool.run((0..50).collect(), |_, i: usize| i);
        let labels = [("pool", "test")];
        assert_eq!(registry.counter("trass_pool_tasks_total", &labels).get(), 50);
        // Every submitted task was drained.
        assert_eq!(registry.gauge("trass_pool_queue_depth", &labels).get(), 0);
    }

    #[test]
    fn health_probe_tracks_queue_depth() {
        let registry = Registry::new();
        let pool = ScopedPool::with_registry(2, &registry, "probe-test");
        let health = trass_obs::HealthRegistry::new();
        pool.register_health_probe(&health, "scan-pool", 10);
        assert!(health.healthy(), "idle pool must be healthy");
        // Saturate the gauge directly: the probe reads whatever the pool's
        // queue-depth handle says, it does not re-derive it.
        let depth = registry.gauge("trass_pool_queue_depth", &[("pool", "probe-test")]);
        depth.set(11);
        let reports = health.check();
        assert_eq!(reports.len(), 1);
        let err = reports[0].result.as_ref().expect_err("saturated pool must fail");
        assert!(err.contains("11"), "{err}");
        depth.set(0);
        assert!(health.healthy(), "drained pool must recover");
        // Uninstrumented pools register nothing.
        let bare = ScopedPool::new(2);
        let empty = trass_obs::HealthRegistry::new();
        bare.register_health_probe(&empty, "noop", 1);
        assert!(empty.is_empty());
    }

    #[test]
    fn bound_is_infinite_until_k_offers() {
        let b = TopKBound::new(3);
        assert_eq!(b.current(), f64::INFINITY);
        b.offer(5.0);
        b.offer(1.0);
        assert_eq!(b.current(), f64::INFINITY);
        b.offer(3.0);
        assert_eq!(b.current(), 5.0);
    }

    #[test]
    fn bound_tightens_monotonically() {
        let b = TopKBound::new(2);
        b.offer(10.0);
        b.offer(8.0);
        assert_eq!(b.current(), 10.0);
        b.offer(9.0); // worse than current 2nd best? no: replaces 10
        assert_eq!(b.current(), 9.0);
        b.offer(1.0);
        assert_eq!(b.current(), 8.0);
        b.offer(50.0); // worse than bound: ignored
        assert_eq!(b.current(), 8.0);
    }

    #[test]
    fn zero_k_bound_is_zero() {
        let b = TopKBound::new(0);
        assert_eq!(b.current(), 0.0);
        b.offer(1.0);
        assert_eq!(b.current(), 0.0);
    }

    #[test]
    fn effective_is_the_tighter_of_bound_and_eps() {
        let b = TopKBound::new(1);
        assert_eq!(b.effective(0.5), 0.5, "unfilled bound defers to eps");
        assert_eq!(b.effective(f64::INFINITY), f64::INFINITY);
        b.offer(2.0);
        assert_eq!(b.effective(5.0), 2.0, "tight bound wins");
        assert_eq!(b.effective(1.0), 1.0, "tight eps wins");
    }

    #[test]
    fn nan_offers_are_ignored() {
        let b = TopKBound::new(1);
        b.offer(f64::NAN);
        assert_eq!(b.current(), f64::INFINITY);
        b.offer(2.0);
        assert_eq!(b.current(), 2.0);
    }

    #[test]
    fn concurrent_offers_converge_to_true_kth_best() {
        let b = Arc::new(TopKBound::new(10));
        let pool = ScopedPool::new(8);
        // Distances 1..=1000 in a scrambled deterministic order.
        let distances: Vec<f64> = (0..1000u64).map(|i| ((i * 613) % 1009 + 1) as f64).collect();
        let mut sorted = distances.clone();
        sorted.sort_by(f64::total_cmp);
        pool.run(distances, |_, d| b.offer(d));
        assert_eq!(b.current(), sorted[9]);
    }

    /// Pool output equals a plain sequential map for any input and
    /// thread count.
    #[test]
    fn pool_matches_sequential_map() {
        trass_rng::check(256, |rng| {
            let items: Vec<u32> = (0..rng.len(0, 199)).map(|_| rng.u64() as u32).collect();
            let pool = ScopedPool::new(rng.usize_in(1, 8));
            let expected: Vec<u64> =
                items.iter().enumerate().map(|(i, &x)| (x as u64) * 3 + i as u64).collect();
            let got = pool.run(items, |i, x| (x as u64) * 3 + i as u64);
            assert_eq!(got, expected);
        });
    }
}
