//! Per-thread allocation and CPU readings behind EXPLAIN's span marks.
//!
//! The query path's stage timers (`trass_query_stage_seconds`) tell us
//! *when* each stage ran; a traced query's spans additionally report what
//! each stage *cost* in resources, from two per-thread readings taken at
//! span open and finish (see `trace.rs`):
//!
//! * [`CountingAlloc`] — a dependency-free [`GlobalAlloc`] wrapper around
//!   the system allocator that counts allocated bytes and allocation
//!   events into plain thread-local cells, read by [`thread_alloc_snapshot`]. Binaries
//!   opt in with `#[global_allocator]`; when none is installed every
//!   reading is zero and spans omit their alloc fields.
//! * CPU time — [`thread_cpu_ns`], per-thread cumulative CPU nanoseconds
//!   read from the thread CPU clock (`CLOCK_THREAD_CPUTIME_ID`, one
//!   `clock_gettime` call, no file read). Only span boundaries read it.
//!
//! The counting runs inside the allocator, so the thread-locals are
//! const-initialised `Cell`s: no lazy init, no `Drop`, hence no recursion
//! into the allocator.

// The one unsafe surface in trass-obs: implementing `GlobalAlloc` requires
// an `unsafe impl`, and the thread CPU clock is one libc call. The wrapper
// only forwards to `System` and bumps counters; it never touches the
// returned memory.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

/// Set by the first allocation routed through [`CountingAlloc`]; readings
/// are meaningless (always zero) until then.
static INSTALLED: AtomicBool = AtomicBool::new(false);

thread_local! {
    // Const-initialised, no-Drop thread locals: safe to touch from inside
    // the allocator (no lazy registration, no teardown recursion).
    static T_ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
    static T_ALLOCS: Cell<u64> = const { Cell::new(0) };
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
    // goes uncounted.
    let _ = T_ALLOC_BYTES.try_with(|c| c.set(c.get().wrapping_add(bytes)));
    let _ = T_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; the counting
// side-effects only touch const-initialised thread locals and one static
// atomic, neither of which can allocate or fail.
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
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = self.inner.realloc(ptr, layout, new_size);
        if !p.is_null() {
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

/// Cumulative per-thread allocation counters at a point in time; subtract
/// two snapshots (taken on the *same* thread) for an interval delta.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Bytes allocated on this thread so far.
    pub bytes: u64,
    /// Allocation events on this thread so far.
    pub count: u64,
}

impl AllocSnapshot {
    /// The interval delta `self - earlier` (both taken on one thread).
    pub fn since(&self, earlier: &AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            bytes: self.bytes.wrapping_sub(earlier.bytes),
            count: self.count.wrapping_sub(earlier.count),
        }
    }
}

/// The calling thread's cumulative allocation counters (all zero when no
/// [`CountingAlloc`] is installed).
pub fn thread_alloc_snapshot() -> AllocSnapshot {
    AllocSnapshot {
        bytes: T_ALLOC_BYTES.try_with(Cell::get).unwrap_or(0),
        count: T_ALLOCS.try_with(Cell::get).unwrap_or(0),
    }
}

/// Cumulative CPU nanoseconds consumed by the calling thread, from the
/// thread CPU clock (`CLOCK_THREAD_CPUTIME_ID`). The kernel updates it at
/// every read, so a span of a few microseconds reads its own CPU.
#[cfg(target_os = "linux")]
pub fn thread_cpu_ns() -> Option<u64> {
    use std::ffi::{c_int, c_long};
    /// `struct timespec` on Linux: `time_t` is a `long`.
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }
    const CLOCK_THREAD_CPUTIME_ID: c_int = 3;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `timespec` for the call's duration,
    // and `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    let (sec, nsec) = (u64::try_from(ts.tv_sec).ok()?, u64::try_from(ts.tv_nsec).ok()?);
    (rc == 0).then(|| sec * 1_000_000_000 + nsec)
}

/// Cumulative CPU nanoseconds consumed by the calling thread: `None`, as
/// no per-thread CPU clock is read on this platform.
#[cfg(not(target_os = "linux"))]
pub fn thread_cpu_ns() -> Option<u64> {
    None
}

/// Whether per-thread CPU time is readable on this platform.
pub fn cpu_supported() -> bool {
    thread_cpu_ns().is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_deltas_count_allocations_exactly() {
        // The test binary installs CountingAlloc (see lib.rs), so the
        // thread-local counters move in exact lockstep with allocations.
        let before = thread_alloc_snapshot();
        let v: Vec<u8> = Vec::with_capacity(4096);
        let mid = thread_alloc_snapshot().since(&before);
        assert_eq!((mid.bytes, mid.count), (4096, 1));
        drop(v);
        assert_eq!(thread_alloc_snapshot().since(&before), mid, "frees are not counted");
    }

    #[test]
    fn thread_cpu_advances_under_a_spin_loop() {
        let Some(before) = thread_cpu_ns() else { return };
        // Burn a visible amount of CPU (~several ms).
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        let after = thread_cpu_ns().unwrap_or(0);
        assert!(after > before, "spin loop should accrue CPU time");
    }
}
