//! Fixed-capacity slow-query log.
//!
//! Keeps the top-N slowest items seen so far, ranked by a `u64` cost key
//! (total query nanoseconds in practice), each with an attached payload
//! (the query's full stats). The common case — the log is full and the
//! offered item is not slow enough — is decided by one atomic load of the
//! cached minimum key, without taking the mutex; only genuine insertions
//! pay the O(capacity) min rescan.

use crate::sync::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// A bounded keep-the-worst log.
pub struct SlowLog<T> {
    entries: Mutex<Vec<(u64, T)>>,
    capacity: usize,
    /// Cached smallest retained key, valid once `full` is set. Updated
    /// under the `entries` lock; read optimistically before locking.
    min_key: AtomicU64,
    /// Whether the log has reached capacity (and `min_key` is meaningful).
    full: AtomicBool,
}

impl<T: Clone> SlowLog<T> {
    /// Creates a log keeping the `capacity` largest-key items.
    pub fn new(capacity: usize) -> Self {
        SlowLog {
            entries: Mutex::new(Vec::new()),
            capacity: capacity.max(1),
            min_key: AtomicU64::new(0),
            full: AtomicBool::new(false),
        }
    }

    /// Offers an item; it is kept iff it ranks among the top `capacity`
    /// keys seen so far. Ties never evict, so once the log is full an
    /// offer with `key <= min` can be rejected without locking. The
    /// unlocked check is conservative: `min_key` only grows, so a stale
    /// read can admit an item the locked recheck then rejects — never
    /// the reverse.
    pub fn record(&self, key: u64, item: T) {
        if self.full.load(Ordering::Acquire) && key <= self.min_key.load(Ordering::Acquire) {
            return;
        }
        let mut entries = self.entries.lock();
        if entries.len() < self.capacity {
            entries.push((key, item));
            if entries.len() == self.capacity {
                let min = entries.iter().map(|(k, _)| *k).min().unwrap_or(0);
                self.min_key.store(min, Ordering::Release);
                self.full.store(true, Ordering::Release);
            }
            return;
        }
        // Replace the current minimum if this item beats it, then recache
        // the new minimum.
        let Some((min_idx, min_key)) =
            entries.iter().enumerate().map(|(i, (k, _))| (i, *k)).min_by_key(|&(_, k)| k)
        else {
            return; // capacity 0: retain nothing
        };
        if key > min_key {
            entries[min_idx] = (key, item);
            let min = entries.iter().map(|(k, _)| *k).min().unwrap_or(0);
            self.min_key.store(min, Ordering::Release);
        }
    }

    /// The retained items, slowest first.
    pub fn snapshot(&self) -> Vec<(u64, T)> {
        let mut out = self.entries.lock().clone();
        out.sort_by_key(|e| std::cmp::Reverse(e.0));
        out
    }

    /// Number of retained items.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum number of retained items.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Clears the log.
    pub fn clear(&self) {
        let mut entries = self.entries.lock();
        entries.clear();
        self.full.store(false, Ordering::Release);
        self.min_key.store(0, Ordering::Release);
    }
}

impl<T> std::fmt::Debug for SlowLog<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlowLog")
            .field("len", &self.entries.lock().len())
            .field("capacity", &self.capacity)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_the_top_n() {
        let log = SlowLog::new(3);
        for k in [5u64, 1, 9, 3, 7, 2] {
            log.record(k, format!("q{k}"));
        }
        let snap = log.snapshot();
        let keys: Vec<u64> = snap.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![9, 7, 5]);
        assert_eq!(snap[0].1, "q9");
    }

    #[test]
    fn below_capacity_keeps_everything() {
        let log = SlowLog::new(10);
        log.record(1, ());
        log.record(2, ());
        assert_eq!(log.len(), 2);
        assert!(!log.is_empty());
    }

    #[test]
    fn ties_do_not_evict() {
        let log = SlowLog::new(1);
        log.record(5, "first");
        log.record(5, "second");
        assert_eq!(log.snapshot()[0].1, "first");
        log.record(6, "third");
        assert_eq!(log.snapshot()[0].1, "third");
    }

    #[test]
    fn fast_path_rejections_do_not_lose_admissions() {
        // Saturate, then interleave rejected and admitted offers; the
        // cached minimum must track every replacement.
        let log = SlowLog::new(4);
        for k in [10u64, 20, 30, 40] {
            log.record(k, k);
        }
        log.record(5, 5); // below min: fast-path reject
        log.record(10, 10); // tie with min: reject
        log.record(25, 25); // evicts 10; min becomes 20
        log.record(15, 15); // below new min: reject
        log.record(21, 21); // evicts 20; min becomes 21
        let keys: Vec<u64> = log.snapshot().iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![40, 30, 25, 21]);
    }

    #[test]
    fn clear_reopens_the_log() {
        let log = SlowLog::new(2);
        log.record(100, ());
        log.record(200, ());
        log.clear();
        assert!(log.is_empty());
        // After clear, small keys must be admitted again.
        log.record(1, ());
        assert_eq!(log.len(), 1);
    }
}
