//! Stage-tagged allocation and CPU accounting.
//!
//! The query path's stage timers (`trass_query_stage_seconds`) tell us
//! *when* each stage ran; this module tells us what each stage *cost* in
//! resources:
//!
//! * [`CountingAlloc`] — a dependency-free [`GlobalAlloc`] wrapper around
//!   the system allocator that counts bytes and allocation events into
//!   plain thread-local cells (for per-span deltas) and into a global
//!   per-stage table (for `trass_stage_*` metrics). Binaries opt in with
//!   `#[global_allocator]`; when none is installed every reading is zero
//!   and the rest of the crate degrades gracefully.
//! * Stage tags — a small interned table of stage names plus a
//!   thread-local "current stage" index. [`StageGuard`] enters a stage
//!   RAII-style (entered by `trass-core`'s staged query path, propagated
//!   into `trass-exec` pool workers at claim time) and flushes per-thread
//!   CPU-time deltas to the stage that accrued them on every transition.
//! * CPU time — per-thread cumulative CPU nanoseconds read from
//!   `/proc/thread-self/schedstat` (falling back to `stat` utime+stime),
//!   sampled only at stage transitions and span boundaries so the cost is
//!   a handful of procfs reads per query, not per allocation.
//!
//! Everything here must be callable from inside the allocator, so the
//! thread-locals are const-initialised `Cell`s (no lazy init, no `Drop`,
//! hence no recursion into the allocator) and the global table is a fixed
//! array of atomics.

// The one unsafe surface in trass-obs: implementing `GlobalAlloc` requires
// an `unsafe impl`. The wrapper only forwards to `System` and bumps
// counters; it never touches the returned memory.
#![allow(unsafe_code)]

use crate::sync::Mutex;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};

use crate::registry::Registry;

/// Maximum number of distinct stage tags (index 0 is the implicit
/// `other` stage for untagged work). Later registrations fold into
/// `other` rather than failing.
pub const MAX_STAGES: usize = 32;

/// Per-stage cumulative resource counters.
struct StageCell {
    alloc_bytes: AtomicU64,
    allocs: AtomicU64,
    freed_bytes: AtomicU64,
    frees: AtomicU64,
    cpu_ns: AtomicU64,
    bytes_scanned: AtomicU64,
    /// CPU nanoseconds already mirrored into a registry by [`publish`],
    /// so each publish records only the delta into the histogram.
    published_cpu_ns: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const STAGE_CELL_INIT: StageCell = StageCell {
    alloc_bytes: AtomicU64::new(0),
    allocs: AtomicU64::new(0),
    freed_bytes: AtomicU64::new(0),
    frees: AtomicU64::new(0),
    cpu_ns: AtomicU64::new(0),
    bytes_scanned: AtomicU64::new(0),
    published_cpu_ns: AtomicU64::new(0),
};

static STAGES: [StageCell; MAX_STAGES] = [STAGE_CELL_INIT; MAX_STAGES];

/// Interned stage names; index = stage id. Slot 0 is always `other`.
static STAGE_NAMES: Mutex<Vec<String>> = Mutex::new(Vec::new());

/// Set by the first allocation routed through [`CountingAlloc`]; readings
/// are meaningless (always zero) until then.
static INSTALLED: AtomicBool = AtomicBool::new(false);

thread_local! {
    // Const-initialised, no-Drop thread locals: safe to touch from inside
    // the allocator (no lazy registration, no teardown recursion).
    static CUR_STAGE: Cell<usize> = const { Cell::new(0) };
    static T_ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
    static T_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static T_FREED_BYTES: Cell<u64> = const { Cell::new(0) };
    static T_FREES: Cell<u64> = const { Cell::new(0) };
    static CPU_MARK: Cell<u64> = const { Cell::new(0) };
}

/// A counting [`GlobalAlloc`] wrapper around the system allocator.
///
/// Install in a binary with:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: trass_obs::alloc::CountingAlloc = trass_obs::alloc::CountingAlloc::system();
/// ```
pub struct CountingAlloc {
    inner: System,
}

impl CountingAlloc {
    /// A counting wrapper around [`System`]; `const` so it can initialise
    /// a `#[global_allocator]` static.
    pub const fn system() -> Self {
        Self { inner: System }
    }
}

impl std::fmt::Debug for CountingAlloc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CountingAlloc").finish()
    }
}

fn note_alloc(bytes: u64) {
    if !INSTALLED.load(Ordering::Relaxed) {
        INSTALLED.store(true, Ordering::Relaxed);
    }
    // try_with: never panics during thread teardown; worst case the event
    // is attributed to stage `other` without thread-local bookkeeping.
    let _ = T_ALLOC_BYTES.try_with(|c| c.set(c.get().wrapping_add(bytes)));
    let _ = T_ALLOCS.try_with(|c| c.set(c.get() + 1));
    let stage = CUR_STAGE.try_with(Cell::get).unwrap_or(0);
    let cell = &STAGES[stage.min(MAX_STAGES - 1)];
    cell.alloc_bytes.fetch_add(bytes, Ordering::Relaxed);
    cell.allocs.fetch_add(1, Ordering::Relaxed);
}

fn note_free(bytes: u64) {
    let _ = T_FREED_BYTES.try_with(|c| c.set(c.get().wrapping_add(bytes)));
    let _ = T_FREES.try_with(|c| c.set(c.get() + 1));
    let stage = CUR_STAGE.try_with(Cell::get).unwrap_or(0);
    let cell = &STAGES[stage.min(MAX_STAGES - 1)];
    cell.freed_bytes.fetch_add(bytes, Ordering::Relaxed);
    cell.frees.fetch_add(1, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` unchanged; the counting
// side-effects only touch const-initialised thread locals and static
// atomics, neither of which can allocate or fail.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = self.inner.alloc(layout);
        if !p.is_null() {
            note_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = self.inner.alloc_zeroed(layout);
        if !p.is_null() {
            note_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.inner.dealloc(ptr, layout);
        note_free(layout.size() as u64);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = self.inner.realloc(ptr, layout, new_size);
        if !p.is_null() {
            note_free(layout.size() as u64);
            note_alloc(new_size as u64);
        }
        p
    }
}

/// Whether a [`CountingAlloc`] has observed at least one allocation in
/// this process — i.e. whether alloc readings mean anything.
pub fn allocator_installed() -> bool {
    INSTALLED.load(Ordering::Relaxed)
}

/// Interns `name` and returns its stage id. Ids are stable for the
/// process lifetime; when the table is full, returns 0 (`other`).
pub fn stage_id(name: &str) -> usize {
    let mut names = STAGE_NAMES.lock();
    if names.is_empty() {
        names.push("other".to_string());
    }
    if let Some(id) = names.iter().position(|n| n == name) {
        return id;
    }
    if names.len() >= MAX_STAGES {
        return 0;
    }
    names.push(name.to_string());
    names.len() - 1
}

/// The interned name for `id` (`other` for unknown ids).
pub fn stage_name(id: usize) -> String {
    let names = STAGE_NAMES.lock();
    names.get(id).cloned().unwrap_or_else(|| "other".to_string())
}

/// The calling thread's current stage id (0 = `other` when untagged).
pub fn current_stage() -> usize {
    CUR_STAGE.try_with(Cell::get).unwrap_or(0)
}

/// Cumulative per-thread allocation counters at a point in time; subtract
/// two snapshots (taken on the *same* thread) for an interval delta.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Bytes allocated on this thread so far.
    pub bytes: u64,
    /// Allocation events on this thread so far.
    pub count: u64,
    /// Bytes freed on this thread so far.
    pub freed_bytes: u64,
    /// Deallocation events on this thread so far.
    pub frees: u64,
}

impl AllocSnapshot {
    /// The interval delta `self - earlier` (both taken on one thread).
    pub fn since(&self, earlier: &AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            bytes: self.bytes.wrapping_sub(earlier.bytes),
            count: self.count.wrapping_sub(earlier.count),
            freed_bytes: self.freed_bytes.wrapping_sub(earlier.freed_bytes),
            frees: self.frees.wrapping_sub(earlier.frees),
        }
    }
}

/// The calling thread's cumulative allocation counters (all zero when no
/// [`CountingAlloc`] is installed).
pub fn thread_alloc_snapshot() -> AllocSnapshot {
    AllocSnapshot {
        bytes: T_ALLOC_BYTES.try_with(Cell::get).unwrap_or(0),
        count: T_ALLOCS.try_with(Cell::get).unwrap_or(0),
        freed_bytes: T_FREED_BYTES.try_with(Cell::get).unwrap_or(0),
        frees: T_FREES.try_with(Cell::get).unwrap_or(0),
    }
}

// How per-thread CPU time is read; probed once, then cached.
const CPU_UNPROBED: u8 = 0;
const CPU_SCHEDSTAT: u8 = 1;
const CPU_STAT: u8 = 2;
const CPU_NONE: u8 = 3;
static CPU_SOURCE: AtomicU8 = AtomicU8::new(CPU_UNPROBED);

/// Linux's default clock tick rate; `/proc/*/stat` utime/stime are in
/// ticks and std exposes no sysconf, so the fallback assumes the default.
const CLK_TCK: u64 = 100;

#[cfg(target_os = "linux")]
fn read_proc(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

#[cfg(not(target_os = "linux"))]
fn read_proc(_path: &str) -> Option<String> {
    None
}

/// First field of `/proc/thread-self/schedstat`: cumulative on-CPU ns.
fn cpu_from_schedstat() -> Option<u64> {
    let s = read_proc("/proc/thread-self/schedstat")?;
    s.split_whitespace().next()?.parse().ok()
}

/// utime+stime (fields 14/15) of `/proc/thread-self/stat`, converted from
/// clock ticks; coarse (10 ms granularity) but better than nothing.
fn cpu_from_stat() -> Option<u64> {
    let s = read_proc("/proc/thread-self/stat")?;
    // comm may contain spaces; fields restart after the closing paren.
    // trass-lint: allow(panic-surface) fixed-layout /proc/self/stat line; the preceding parse validates the width
    let rest = &s[s.rfind(')')? + 1..];
    let mut it = rest.split_whitespace();
    // rest starts at field 3 (state); utime/stime are fields 14/15.
    let utime: u64 = it.nth(11)?.parse().ok()?;
    let stime: u64 = it.next()?.parse().ok()?;
    // trass-lint: allow(panic-surface) CLK_TCK is a non-zero compile-time constant
    Some((utime + stime) * (1_000_000_000 / CLK_TCK))
}

/// Cumulative CPU nanoseconds consumed by the calling thread, or `None`
/// when no per-thread CPU clock is readable on this platform.
pub fn thread_cpu_ns() -> Option<u64> {
    match CPU_SOURCE.load(Ordering::Relaxed) {
        CPU_SCHEDSTAT => cpu_from_schedstat(),
        CPU_STAT => cpu_from_stat(),
        CPU_NONE => None,
        _ => {
            if let Some(v) = cpu_from_schedstat() {
                CPU_SOURCE.store(CPU_SCHEDSTAT, Ordering::Relaxed);
                Some(v)
            } else if let Some(v) = cpu_from_stat() {
                CPU_SOURCE.store(CPU_STAT, Ordering::Relaxed);
                Some(v)
            } else {
                CPU_SOURCE.store(CPU_NONE, Ordering::Relaxed);
                None
            }
        }
    }
}

/// Whether per-thread CPU time is readable on this platform.
pub fn cpu_supported() -> bool {
    thread_cpu_ns().is_some()
}

/// Charges the calling thread's CPU time since its last flush to `stage`
/// and advances the mark. Called at every stage transition, so each
/// interval lands on the stage that was current while it accrued.
fn flush_cpu(stage: usize) {
    let Some(now) = thread_cpu_ns() else { return };
    let mark = CPU_MARK.try_with(Cell::get).unwrap_or(now);
    if now > mark {
        STAGES[stage.min(MAX_STAGES - 1)].cpu_ns.fetch_add(now - mark, Ordering::Relaxed);
    }
    let _ = CPU_MARK.try_with(|c| c.set(now));
}

/// RAII stage tag: allocation and CPU accounting between `enter` and drop
/// is attributed to the entered stage. Nests (the previous stage is
/// restored on drop) and is entered by the staged query path for pipeline
/// stages and by `trass-exec` pool workers when they claim tasks.
#[derive(Debug)]
pub struct StageGuard {
    prev: usize,
    // Restoring a thread-local on drop only makes sense on the entering
    // thread; !Send keeps the guard there.
    _not_send: PhantomData<*const ()>,
}

impl StageGuard {
    /// Flushes pending CPU time to the outgoing stage, then makes `id`
    /// the calling thread's current stage until the guard drops.
    pub fn enter(id: usize) -> StageGuard {
        let prev = current_stage();
        flush_cpu(prev);
        let _ = CUR_STAGE.try_with(|c| c.set(id.min(MAX_STAGES - 1)));
        StageGuard { prev, _not_send: PhantomData }
    }
}

impl Drop for StageGuard {
    fn drop(&mut self) {
        let stage = current_stage();
        // Restore first: the procfs read inside flush_cpu allocates a
        // little, and that bookkeeping noise belongs to the outer stage,
        // keeping the guarded stage's byte attribution exact.
        let _ = CUR_STAGE.try_with(|c| c.set(self.prev));
        flush_cpu(stage);
    }
}

/// Charges `bytes` of scanned KV data to the calling thread's current
/// stage (the kv layer calls this from scan workers, which inherit the
/// query's stage via the pool's tag propagation).
pub fn charge_bytes_scanned(bytes: u64) {
    if bytes == 0 {
        return;
    }
    STAGES[current_stage().min(MAX_STAGES - 1)].bytes_scanned.fetch_add(bytes, Ordering::Relaxed);
}

/// A read-only copy of one stage's cumulative totals (for tests and
/// ad-hoc inspection; metrics flow through [`publish`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageTotals {
    /// Bytes allocated while the stage was current.
    pub alloc_bytes: u64,
    /// Allocation events while the stage was current.
    pub allocs: u64,
    /// Bytes freed while the stage was current.
    pub freed_bytes: u64,
    /// Deallocation events while the stage was current.
    pub frees: u64,
    /// CPU nanoseconds flushed to the stage.
    pub cpu_ns: u64,
    /// KV bytes scanned charged to the stage.
    pub bytes_scanned: u64,
}

/// Current totals for stage `id`.
pub fn stage_totals(id: usize) -> StageTotals {
    let c = &STAGES[id.min(MAX_STAGES - 1)];
    StageTotals {
        alloc_bytes: c.alloc_bytes.load(Ordering::Relaxed),
        allocs: c.allocs.load(Ordering::Relaxed),
        freed_bytes: c.freed_bytes.load(Ordering::Relaxed),
        frees: c.frees.load(Ordering::Relaxed),
        cpu_ns: c.cpu_ns.load(Ordering::Relaxed),
        bytes_scanned: c.bytes_scanned.load(Ordering::Relaxed),
    }
}

/// Mirrors the per-stage totals into `registry`:
///
/// * `trass_stage_alloc_bytes{stage=…}` / `trass_stage_allocs{stage=…}` /
///   `trass_stage_bytes_scanned{stage=…}` — monotone counters, set to the
///   current totals;
/// * `trass_stage_cpu_seconds{stage=…}` — a duration histogram whose
///   exported `_sum` is the stage's cumulative CPU seconds (each publish
///   records the delta since the last one; with several registries
///   publishing concurrently each sees a share of the deltas).
///
/// Stages with no activity are skipped, so scrape output stays compact.
pub fn publish(registry: &Registry) {
    let names: Vec<String> = {
        let names = STAGE_NAMES.lock();
        names.clone()
    };
    for (id, name) in names.iter().enumerate() {
        let c = &STAGES[id];
        let labels = [("stage", name.as_str())];
        let alloc_bytes = c.alloc_bytes.load(Ordering::Relaxed);
        if alloc_bytes > 0 {
            registry.counter("trass_stage_alloc_bytes", &labels).set(alloc_bytes);
            registry.counter("trass_stage_allocs", &labels).set(c.allocs.load(Ordering::Relaxed));
        }
        let scanned = c.bytes_scanned.load(Ordering::Relaxed);
        if scanned > 0 {
            registry.counter("trass_stage_bytes_scanned", &labels).set(scanned);
        }
        let cpu = c.cpu_ns.load(Ordering::Relaxed);
        let prev = c.published_cpu_ns.swap(cpu, Ordering::Relaxed);
        if cpu > prev {
            registry.timer("trass_stage_cpu_seconds", &labels).record(cpu - prev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_ids_are_stable_and_other_is_zero() {
        let a = stage_id("alloc-test-stable");
        assert_eq!(a, stage_id("alloc-test-stable"));
        assert_ne!(a, 0);
        assert_eq!(stage_name(0), "other");
        assert_eq!(stage_name(a), "alloc-test-stable");
        assert_eq!(stage_name(usize::MAX), "other");
    }

    #[test]
    fn guards_nest_and_restore() {
        let outer = stage_id("alloc-test-outer");
        let inner = stage_id("alloc-test-inner");
        let base = current_stage();
        {
            let _g = StageGuard::enter(outer);
            assert_eq!(current_stage(), outer);
            {
                let _h = StageGuard::enter(inner);
                assert_eq!(current_stage(), inner);
            }
            assert_eq!(current_stage(), outer);
        }
        assert_eq!(current_stage(), base);
    }

    #[test]
    fn thread_deltas_count_alloc_and_free_exactly() {
        // The test binary installs CountingAlloc (see lib.rs), so the
        // thread-local counters move in exact lockstep with allocations.
        let before = thread_alloc_snapshot();
        let v: Vec<u8> = Vec::with_capacity(4096);
        let mid = thread_alloc_snapshot().since(&before);
        assert_eq!(mid.bytes, 4096);
        assert_eq!(mid.count, 1);
        drop(v);
        let after = thread_alloc_snapshot().since(&before);
        assert_eq!(after.freed_bytes, 4096);
        assert_eq!(after.frees, 1);
    }

    #[test]
    fn stage_attribution_is_exact_for_a_private_stage() {
        let stage = stage_id("alloc-test-private");
        let before = stage_totals(stage);
        {
            let _g = StageGuard::enter(stage);
            let v: Vec<u8> = Vec::with_capacity(8192);
            drop(v);
        }
        let d = stage_totals(stage);
        assert_eq!(d.alloc_bytes - before.alloc_bytes, 8192);
        assert_eq!(d.allocs - before.allocs, 1);
        assert_eq!(d.freed_bytes - before.freed_bytes, 8192);
        assert_eq!(d.frees - before.frees, 1);
    }

    #[test]
    fn concurrent_threads_add_and_subtract_accurately() {
        let stage = stage_id("alloc-test-concurrent");
        let before = stage_totals(stage);
        const THREADS: usize = 4;
        const PER_THREAD: u64 = 64 * 1024;
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    let _g = StageGuard::enter(stage);
                    for _ in 0..16 {
                        let v: Vec<u8> = Vec::with_capacity(PER_THREAD as usize / 16);
                        drop(v);
                    }
                });
            }
        });
        let d = stage_totals(stage);
        let total = THREADS as u64 * PER_THREAD;
        assert_eq!(d.alloc_bytes - before.alloc_bytes, total);
        assert_eq!(d.freed_bytes - before.freed_bytes, total);
        assert_eq!(d.allocs - before.allocs, THREADS as u64 * 16);
        assert_eq!(d.frees - before.frees, THREADS as u64 * 16);
    }

    #[test]
    fn cpu_time_flushes_to_the_active_stage() {
        if !cpu_supported() {
            return;
        }
        let stage = stage_id("alloc-test-cpu");
        let before = stage_totals(stage);
        {
            let _g = StageGuard::enter(stage);
            // Burn a visible amount of CPU (~several ms).
            let mut x = 0u64;
            for i in 0..20_000_000u64 {
                x = x.wrapping_mul(31).wrapping_add(i);
            }
            std::hint::black_box(x);
        }
        let after = stage_totals(stage);
        assert!(after.cpu_ns > before.cpu_ns, "spin loop should accrue CPU time");
    }

    #[test]
    fn bytes_scanned_charges_current_stage() {
        let stage = stage_id("alloc-test-scan");
        let before = stage_totals(stage);
        {
            let _g = StageGuard::enter(stage);
            charge_bytes_scanned(12_345);
            charge_bytes_scanned(0);
        }
        assert_eq!(stage_totals(stage).bytes_scanned - before.bytes_scanned, 12_345);
    }

    #[test]
    fn publish_mirrors_totals_into_a_registry() {
        let stage = stage_id("alloc-test-publish");
        {
            let _g = StageGuard::enter(stage);
            let v: Vec<u8> = Vec::with_capacity(1024);
            drop(v);
            charge_bytes_scanned(77);
        }
        let registry = Registry::new();
        publish(&registry);
        let labels = [("stage", "alloc-test-publish")];
        assert!(registry.counter("trass_stage_alloc_bytes", &labels).get() >= 1024);
        assert!(registry.counter("trass_stage_bytes_scanned", &labels).get() >= 77);
    }
}
