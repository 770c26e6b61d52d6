//! Intra-query parallel execution for TraSS.
//!
//! The query pipeline (global pruning → region scans → local filtering →
//! refinement) is embarrassingly parallel across both the sharded rowkey
//! space (§IV-E) and the refinement candidate set, but parallel execution
//! only pays off when it leaves the *semantics* of the sequential pipeline
//! untouched. This crate provides the two primitives the pipeline uses to
//! get speed without giving up determinism:
//!
//! * [`ScopedPool`] — a fork-join pool whose tasks borrow from the
//!   caller's stack. Its background workers are long-lived: started on the
//!   first run that needs them, parked on a condvar between runs, joined
//!   when the pool drops. A run wakes parked workers instead of spawning
//!   threads, the calling thread works as participant 0, and the run
//!   returns (or unwinds) only once every participant is done. Results
//!   come back **in task order** no matter which participant ran which
//!   task. Sequential fallback (`threads == 1`, a single task, or a pool
//!   already busy with another run) is byte-identical to a plain loop.
//! * [`TopKBound`] — a shared, atomically readable distance bound fed by a
//!   bounded max-heap of the best results so far. Refine workers read it
//!   with one atomic load and use it to stop measuring candidates that can
//!   no longer make the top-k ("early-exit propagation").
//!
//! Everything here is std-only; observability hooks report into a
//! [`trass_obs::Registry`] when one is attached.

// The one unsafe block in trass-exec: `ScopedPool::run_timed` erases the
// lifetime of the job it lends its long-lived workers. Its `SAFETY`
// comment states the invariant that makes the erasure sound.
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::print_stdout, clippy::print_stderr)
)]

use std::any::Any;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use trass_obs::sync::Mutex;
use trass_obs::{Counter, Registry};

/// Resolves a configured thread count: `0` means "use all available
/// parallelism", anything else is taken literally.
pub fn resolve_threads(configured: usize) -> usize {
    if configured > 0 {
        configured
    } else {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    }
}

/// The outcome of one [`ScopedPool::run_timed`] call.
#[derive(Debug)]
pub struct PoolRun<R> {
    /// Per-task results, in task order.
    pub results: Vec<R>,
    /// Busy wall-clock time of each participant, the caller first: length
    /// `min(threads, tasks)` for a parallel run, a single entry for an
    /// inline one. A background participant the caller finished ahead of
    /// (it woke to find every task taken, or not at all) reads zero.
    pub worker_busy: Vec<Duration>,
}

/// One run's work as the background workers see it: seat index → that
/// participant's share. Borrowed from `run_timed`'s frame with its lifetime
/// erased; the `SAFETY` comment there says why that is sound.
type Job = &'static (dyn Fn(usize) + Sync);

/// A caught panic's payload.
type Payload = Box<dyn Any + Send>;

/// What a pool's background workers and its running caller share.
#[derive(Default)]
struct Slate {
    /// The current run's job; `None` between runs.
    job: Option<Job>,
    /// Seats still open in the current run. A woken worker takes one; the
    /// caller closes the rest once its own share is done.
    open: usize,
    /// The seat the next worker takes (the caller holds seat 0).
    next_seat: usize,
    /// Seated workers still running the job.
    active: usize,
    /// The first payload a seated worker panicked with.
    panic: Option<Payload>,
    /// Set by the pool's drop: every worker exits.
    shutdown: bool,
}

/// The state a pool shares with its background workers.
#[derive(Default)]
struct Crew {
    slate: Mutex<Slate>,
    /// Workers park here until a seat opens or the pool shuts down.
    wake: Condvar,
    /// The caller parks here until no seated worker is active.
    idle: Condvar,
}

impl Crew {
    /// A background worker's life: park, take a seat, run the job's share,
    /// report back; until shutdown. Job panics are caught, so the worker
    /// outlives them.
    fn serve(&self) {
        loop {
            let slate = self.slate.lock();
            let mut slate = self
                .wake
                .wait_while(slate, |s| !s.shutdown && (s.open == 0 || s.job.is_none()))
                .unwrap_or_else(PoisonError::into_inner);
            if slate.shutdown {
                return;
            }
            let Some(job) = slate.job else { continue };
            let seat = slate.next_seat;
            slate.open -= 1;
            slate.next_seat += 1;
            slate.active += 1;
            drop(slate);
            let outcome = catch_unwind(AssertUnwindSafe(|| job(seat)));
            let mut slate = self.slate.lock();
            if let Err(payload) = outcome {
                slate.panic.get_or_insert(payload);
            }
            slate.active -= 1;
            if slate.active == 0 {
                self.idle.notify_all();
            }
        }
    }

    /// Opens `seats` seats on `job` and wakes that many workers. The
    /// returned guard is what ends the run.
    fn publish(&self, job: Job, seats: usize) -> Wait<'_> {
        let wait = Wait { crew: Some(self) };
        let mut slate = self.slate.lock();
        slate.job = Some(job);
        slate.open = seats;
        slate.next_seat = 1;
        drop(slate);
        for _ in 0..seats {
            self.wake.notify_one();
        }
        wait
    }

    /// Closes the open seats, waits until no seated worker is active, and
    /// clears the job; returns the first panic a seated worker caught.
    fn retire(&self) -> Option<Payload> {
        let mut slate = self.slate.lock();
        slate.open = 0;
        let mut slate =
            self.idle.wait_while(slate, |s| s.active > 0).unwrap_or_else(PoisonError::into_inner);
        slate.job = None;
        slate.panic.take()
    }
}

/// Ends a published run when dropped — on return and on unwind alike — by
/// [`Crew::retire`]: after it, no worker holds or can take the job.
struct Wait<'c> {
    crew: Option<&'c Crew>,
}

impl Wait<'_> {
    /// Retires the run now and hands back a seated worker's panic.
    fn finish(mut self) -> Option<Payload> {
        self.crew.take().and_then(Crew::retire)
    }
}

impl Drop for Wait<'_> {
    fn drop(&mut self) {
        if let Some(crew) = self.crew.take() {
            drop(crew.retire());
        }
    }
}

/// Runs a closure when dropped, on return and on unwind alike.
struct Defer<F: FnMut()>(F);

impl<F: FnMut()> Drop for Defer<F> {
    fn drop(&mut self) {
        (self.0)()
    }
}

/// A fork-join worker pool whose tasks borrow from the caller.
///
/// Tasks may borrow non-`'static` state from the caller (query objects,
/// filters, trace spans): [`run_timed`](ScopedPool::run_timed) returns only
/// once every participant has finished with them. The pool keeps up to
/// `threads − 1` background workers, named `trass-<pool>-<i>`. They start
/// lazily, only as many as the runs so far have needed, sleep on a condvar
/// between runs, and are joined when the pool drops. A run wakes as many
/// as it can use and works a share itself as participant 0, so a pool is
/// cheap to keep on a store and share across queries.
///
/// One run at a time owns the workers. A run that finds the pool busy —
/// another caller's run, or a task calling back into its own pool — runs
/// inline on its own thread: it never queues and never deadlocks.
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
/// A panicking task propagates its panic, with its original payload, to the
/// caller once every participant has finished, never silently dropping
/// sibling results into an inconsistent state. The pool stays usable.
pub struct ScopedPool {
    threads: usize,
    /// `trass_pool_tasks_total`, when a registry is attached.
    tasks_total: Option<Arc<Counter>>,
    /// Workers are named `trass-<name>-<i>`.
    name: String,
    /// Set while a parallel run owns the crew.
    in_run: AtomicBool,
    crew: Arc<Crew>,
    /// Background workers started so far, at most `threads − 1`.
    crew_threads: Mutex<Vec<JoinHandle<()>>>,
}

impl ScopedPool {
    /// A pool running `threads` participants per call (`0` = available
    /// parallelism), without registry instrumentation. Its workers are
    /// named `trass-pool-<i>`.
    pub fn new(threads: usize) -> Self {
        ScopedPool::build(threads, None, "pool")
    }

    /// A pool counting the tasks it is given into `registry` as
    /// `trass_pool_tasks_total{pool=<name>}`. Its workers are named
    /// `trass-<name>-<i>`.
    pub fn with_registry(threads: usize, registry: &Registry, name: &str) -> Self {
        let tasks_total = registry.counter("trass_pool_tasks_total", &[("pool", name)]);
        ScopedPool::build(threads, Some(tasks_total), name)
    }

    fn build(threads: usize, tasks_total: Option<Arc<Counter>>, name: &str) -> Self {
        ScopedPool {
            threads: resolve_threads(threads).max(1),
            tasks_total,
            name: name.to_string(),
            in_run: AtomicBool::new(false),
            crew: Arc::default(),
            crew_threads: Mutex::default(),
        }
    }

    /// The number of participants (the caller included) a `run` call may
    /// use.
    pub fn threads(&self) -> usize {
        self.threads
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
    /// `min(threads, items.len())` participants — the calling thread and
    /// the pool's parked workers — and returns the results in item order,
    /// together with each participant's busy time.
    ///
    /// With one participant (or zero/one items), or while another run owns
    /// the pool, the items are processed inline on the calling thread in
    /// order — the exact legacy sequential behavior, touching no thread.
    pub fn run_timed<T, R, F>(&self, items: Vec<T>, f: F) -> PoolRun<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let n = items.len();
        if let Some(tasks_total) = &self.tasks_total {
            tasks_total.add(n as u64);
        }
        let wanted = self.threads.min(n);
        // Owns the crew for this run; released last, once the crew is idle.
        let claim = (wanted > 1 && !self.in_run.swap(true, Ordering::Acquire))
            .then(|| Defer(|| self.in_run.store(false, Ordering::Release)));
        let participants = if claim.is_some() { 1 + self.start_workers(wanted - 1) } else { 1 };
        if participants == 1 {
            let t0 = Instant::now();
            let results = items.into_iter().enumerate().map(|(i, item)| f(i, item)).collect();
            return PoolRun { results, worker_busy: vec![t0.elapsed()] };
        }

        // Each slot is claimed by exactly one participant (the atomic
        // cursor hands out indices), so the mutexes are uncontended — they
        // exist to move values across threads without unsafe code.
        let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
        let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let busy: Vec<Mutex<Duration>> =
            (0..participants).map(|_| Mutex::new(Duration::ZERO)).collect();
        let cursor = AtomicUsize::new(0);
        let share = |seat: usize| {
            let t0 = Instant::now();
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                // The ticket counter hands each index to exactly one
                // participant.
                #[allow(clippy::expect_used)]
                let item = slots[i].lock().take().expect("task claimed twice");
                let r = f(i, item);
                *results[i].lock() = Some(r);
            }
            *busy[seat].lock() = t0.elapsed();
        };
        let job: &(dyn Fn(usize) + Sync + '_) = &share;
        // SAFETY: `job` borrows `share` and, through it, this frame's
        // `slots`, `results`, `busy`, `cursor` and `f`. Workers reach it
        // only through `Slate::job`, and only while seated (`Slate::active`
        // counts them). `wait`, declared after everything `job` borrows,
        // is dropped before any of it — on return and on unwind alike —
        // and its drop closes the open seats, waits until no seated worker
        // is active and clears `Slate::job`. So no worker can touch the
        // job once this frame's borrows end. `claim` holds `in_run` until
        // then, so no other run can publish over this one.
        #[allow(unsafe_code)]
        let job = unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync + '_), Job>(job) };
        let wait = self.crew.publish(job, participants - 1);
        share(0);
        if let Some(payload) = wait.finish() {
            resume_unwind(payload);
        }
        PoolRun {
            results: results
                .into_iter()
                .map(|slot| {
                    // The run waited for every participant, and the cursor
                    // ran out only after every task was claimed.
                    #[allow(clippy::expect_used)]
                    slot.into_inner().expect("a participant completed every claimed task")
                })
                .collect(),
            worker_busy: busy.into_iter().map(Mutex::into_inner).collect(),
        }
    }

    /// Starts background workers until `wanted` exist (the caller bounds it
    /// by `threads − 1`) and returns how many there are, up to `wanted`. A
    /// worker the OS refuses to start just leaves the run one short.
    fn start_workers(&self, wanted: usize) -> usize {
        let mut started = self.crew_threads.lock();
        while started.len() < wanted {
            let crew = Arc::clone(&self.crew);
            let name = format!("trass-{}-{}", self.name, started.len() + 1);
            match std::thread::Builder::new().name(name).spawn(move || crew.serve()) {
                Ok(handle) => started.push(handle),
                Err(_) => break,
            }
        }
        started.len().min(wanted)
    }
}

impl Drop for ScopedPool {
    fn drop(&mut self) {
        self.crew.slate.lock().shutdown = true;
        self.crew.wake.notify_all();
        for worker in std::mem::take(&mut self.crew_threads).into_inner() {
            // Workers catch every job panic, so a join cannot fail.
            drop(worker.join());
        }
    }
}

impl std::fmt::Debug for ScopedPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScopedPool")
            .field("name", &self.name)
            .field("threads", &self.threads)
            .field("instrumented", &self.tasks_total.is_some())
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
        assert_eq!(registry.counter("trass_pool_tasks_total", &[("pool", "test")]).get(), 50);
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
        // Miri spawns and schedules threads far slower; fewer cases there.
        trass_rng::check(if cfg!(miri) { 16 } else { 256 }, |rng| {
            let items: Vec<u32> = (0..rng.len(0, 199)).map(|_| rng.u64() as u32).collect();
            let pool = ScopedPool::new(rng.usize_in(1, 8));
            let expected: Vec<u64> =
                items.iter().enumerate().map(|(i, &x)| (x as u64) * 3 + i as u64).collect();
            let got = pool.run(items, |i, x| (x as u64) * 3 + i as u64);
            assert_eq!(got, expected);
        });
    }

    /// Background workers a pool has started so far.
    fn started(pool: &ScopedPool) -> usize {
        pool.crew_threads.lock().len()
    }

    /// Blocks until `flag` is set, for at most ten seconds.
    fn await_flag(flag: &AtomicBool) {
        let t0 = Instant::now();
        while !flag.load(Ordering::Acquire) && t0.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Runs eight tasks on `pool`: the caller's tasks wait until a
    /// background worker has run `on_worker`, so one surely does. Returns
    /// what `on_worker` returned on the first task a worker ran.
    fn on_a_worker<R: Send>(pool: &ScopedPool, on_worker: impl Fn() -> R + Sync) -> R {
        let caller = std::thread::current().id();
        let ran = AtomicBool::new(false);
        let out = pool.run((0..8).collect(), |_, _: usize| {
            if std::thread::current().id() == caller {
                await_flag(&ran);
                return None;
            }
            let first = !ran.swap(true, Ordering::AcqRel);
            first.then(&on_worker)
        });
        #[allow(clippy::expect_used)]
        out.into_iter().flatten().next().expect("a background worker ran a task")
    }

    #[test]
    fn worker_panic_propagates_its_payload_and_the_pool_stays_usable() {
        let pool = ScopedPool::new(2);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            on_a_worker(&pool, || -> () { panic!("worker exploded") })
        }));
        let payload = caught.expect_err("the worker's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"worker exploded"));
        for _ in 0..20 {
            let out = pool.run((0..100).collect(), |i, x: usize| {
                if i % 9 == 0 {
                    std::thread::sleep(Duration::from_micros(100));
                }
                x * 2
            });
            assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
        }
        assert_eq!(on_a_worker(&pool, || 7), 7, "the worker survived its panic");
    }

    #[test]
    fn caller_panic_unwinds_only_after_every_background_task() {
        const N: usize = 8;
        let pool = ScopedPool::new(3);
        let caller = std::thread::current().id();
        let worker_started = AtomicBool::new(false);
        let unwinding = AtomicBool::new(false);
        let caller_task = AtomicUsize::new(usize::MAX);
        // A stack buffer the tasks borrow. The background tasks write it
        // only once the caller has begun to unwind, and after a sleep.
        let writes: [AtomicUsize; N] = Default::default();
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run((0..N).collect(), |i, _: usize| {
                if std::thread::current().id() == caller {
                    await_flag(&worker_started);
                    caller_task.store(i, Ordering::Relaxed);
                    let _mark = Defer(|| unwinding.store(true, Ordering::Release));
                    panic!("caller's share exploded");
                }
                worker_started.store(true, Ordering::Release);
                await_flag(&unwinding);
                std::thread::sleep(Duration::from_millis(5));
                writes[i].store(i + 1, Ordering::Relaxed);
            })
        }));
        assert!(caught.is_err());
        let skipped = caller_task.load(Ordering::Relaxed);
        assert!(skipped < N, "the caller ran a task");
        for (i, w) in writes.iter().enumerate() {
            let expected = if i == skipped { 0 } else { i + 1 };
            assert_eq!(w.load(Ordering::Relaxed), expected, "task {i}");
        }
        // The pool is idle again and usable.
        assert_eq!(pool.run(vec![1, 2, 3], |_, x: i32| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn concurrent_callers_both_get_task_ordered_results() {
        let pool = ScopedPool::new(3);
        std::thread::scope(|s| {
            for offset in [0u64, 1_000_000] {
                let pool = &pool;
                s.spawn(move || {
                    for round in 0..if cfg!(miri) { 5 } else { 50 } {
                        let items: Vec<u64> = (0..64).map(|x| x + offset + round).collect();
                        let expected: Vec<u64> =
                            items.iter().enumerate().map(|(i, x)| x * 3 + i as u64).collect();
                        assert_eq!(pool.run(items, |i, x| x * 3 + i as u64), expected);
                    }
                });
            }
        });
    }

    #[test]
    fn a_task_calling_back_into_its_pool_runs_inline() {
        let pool = ScopedPool::new(2);
        let out = pool.run((0..6).collect(), |_, x: usize| {
            let caller = std::thread::current().id();
            let inner = pool.run((0..4).collect(), |j, y: usize| {
                assert_eq!(std::thread::current().id(), caller);
                x * 10 + y + j
            });
            inner.iter().sum::<usize>()
        });
        let expected: Vec<usize> = (0..6).map(|x| 40 * x + 12).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn inline_runs_start_no_thread_and_parallel_runs_only_what_they_need() {
        let single = ScopedPool::new(1);
        single.run((0..50).collect(), |_, x: usize| x);
        assert_eq!(started(&single), 0);
        let pool = ScopedPool::new(4);
        pool.run(vec![1], |_, x: i32| x);
        pool.run(Vec::<i32>::new(), |_, x| x);
        assert_eq!(started(&pool), 0, "a run of at most one item stays inline");
        pool.run(vec![1, 2], |_, x: i32| x);
        assert_eq!(started(&pool), 1);
        pool.run((0..100).collect(), |_, x: usize| x);
        assert_eq!(started(&pool), 3);
        pool.run(vec![1, 2], |_, x: i32| x);
        assert_eq!(started(&pool), 3, "workers are reused, not respawned");
    }

    #[test]
    fn workers_are_named_after_their_pool() {
        let name = || std::thread::current().name().map(str::to_string);
        assert_eq!(on_a_worker(&ScopedPool::new(2), name).as_deref(), Some("trass-pool-1"));
        let registry = Registry::new();
        let query = ScopedPool::with_registry(2, &registry, "query");
        assert_eq!(on_a_worker(&query, name).as_deref(), Some("trass-query-1"));
    }
}
