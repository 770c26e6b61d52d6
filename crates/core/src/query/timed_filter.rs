//! Attributing local-filter time inside the scan.
//!
//! Local filtering runs *inside* the store's scan (as an HBase coprocessor
//! would), so its cost is buried in the scan stage. [`TimedFilter`] wraps
//! any [`ScanFilter`] and accumulates the wall-clock time spent in `check`
//! across every row and every region thread; the query drivers record the
//! total into `trass_query_stage_seconds{stage="local-filter"}`. The rows
//! the scan visits and keeps are counted by the scan itself, in the I/O
//! tally it returns.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use trass_kv::{FilterDecision, ScanFilter};

/// A [`ScanFilter`] decorator measuring time spent in the inner filter.
pub struct TimedFilter<'a> {
    inner: &'a (dyn ScanFilter + 'a),
    nanos: AtomicU64,
}

impl<'a> TimedFilter<'a> {
    /// Wraps `inner`, starting from zero accumulated time.
    pub fn new(inner: &'a (dyn ScanFilter + 'a)) -> Self {
        TimedFilter { inner, nanos: AtomicU64::new(0) }
    }

    /// Total time spent inside the wrapped filter so far. When region
    /// scans run on parallel threads this is CPU-style summed time, not
    /// elapsed wall clock.
    pub fn elapsed(&self) -> Duration {
        Duration::from_nanos(self.nanos.load(Ordering::Relaxed))
    }
}

impl ScanFilter for TimedFilter<'_> {
    fn check(&self, key: &[u8], value: &[u8]) -> FilterDecision {
        let t = Instant::now();
        let decision = self.inner.check(key, value);
        self.nanos.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_decisions_through_and_accumulates() {
        let inner = |key: &[u8], _v: &[u8]| {
            if key.starts_with(b"a") {
                FilterDecision::Keep
            } else {
                FilterDecision::Skip
            }
        };
        let timed = TimedFilter::new(&inner);
        assert_eq!(timed.check(b"abc", b""), FilterDecision::Keep);
        assert_eq!(timed.check(b"xyz", b""), FilterDecision::Skip);
        let after_two = timed.elapsed();
        // The decorator is itself a filter usable behind a trait object,
        // and accumulated time is monotone across checks.
        let as_dyn: &dyn ScanFilter = &timed;
        assert_eq!(as_dyn.check(b"a", b""), FilterDecision::Keep);
        assert!(timed.elapsed() >= after_two);
    }
}
