//! I/O and scan accounting.
//!
//! The paper's central claims are *I/O reductions* (rows retrieved, bytes
//! scanned), so the store counts everything relevant with relaxed atomics:
//! cheap enough to stay on in production paths, precise enough to
//! regenerate Figures 9–11. A store's counters are the registry's own
//! `trass_kv_*` series, so a scrape reads them where they are counted.

use std::sync::Arc;
use trass_obs::{Counter, Registry};

/// Cumulative I/O counters. Cheap to share (`&IoMetrics`) across scans and
/// threads; all methods use relaxed atomics. `default()` gives zeroed
/// counters registered nowhere: a private tally (compaction's I/O, tests).
#[derive(Debug, Default)]
pub struct IoMetrics {
    blocks_read: Arc<Counter>,
    bytes_read: Arc<Counter>,
    entries_scanned: Arc<Counter>,
    entries_returned: Arc<Counter>,
    range_scans: Arc<Counter>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
}

impl IoMetrics {
    /// The counters `trass_kv_<field>` of `registry` with `labels`, created
    /// on first use and shared with every other holder of the same series.
    pub(crate) fn registered(registry: &Registry, labels: &[(&str, &str)]) -> Self {
        let counter = |name: &str| registry.counter(name, labels);
        IoMetrics {
            blocks_read: counter("trass_kv_blocks_read"),
            bytes_read: counter("trass_kv_bytes_read"),
            entries_scanned: counter("trass_kv_entries_scanned"),
            entries_returned: counter("trass_kv_entries_returned"),
            range_scans: counter("trass_kv_range_scans"),
            cache_hits: counter("trass_kv_cache_hits"),
            cache_misses: counter("trass_kv_cache_misses"),
        }
    }

    pub(crate) fn record_block_read(&self, bytes: usize) {
        self.blocks_read.inc();
        self.bytes_read.add(bytes as u64);
    }

    pub(crate) fn record_entry_scanned(&self) {
        self.entries_scanned.inc();
    }

    pub(crate) fn record_entry_returned(&self) {
        self.entries_returned.inc();
    }

    pub(crate) fn record_range_scan(&self) {
        self.range_scans.inc();
    }

    pub(crate) fn record_cache_hit(&self) {
        self.cache_hits.inc();
    }

    pub(crate) fn record_cache_miss(&self) {
        self.cache_misses.inc();
    }

    /// Takes a point-in-time copy.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            blocks_read: self.blocks_read.get(),
            bytes_read: self.bytes_read.get(),
            entries_scanned: self.entries_scanned.get(),
            entries_returned: self.entries_returned.get(),
            range_scans: self.range_scans.get(),
            cache_hits: self.cache_hits.get(),
            cache_misses: self.cache_misses.get(),
        }
    }
}

/// Plain-data copy of [`IoMetrics`] at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Data blocks fetched.
    pub blocks_read: u64,
    /// Bytes fetched.
    pub bytes_read: u64,
    /// Rows visited by scans.
    pub entries_scanned: u64,
    /// Rows returned to clients.
    pub entries_returned: u64,
    /// Range scans executed.
    pub range_scans: u64,
    /// Block reads served from the cache.
    pub cache_hits: u64,
    /// Cache lookups that fell through to storage.
    pub cache_misses: u64,
}

impl MetricsSnapshot {
    /// Component-wise difference (`self - earlier`), saturating at zero.
    pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            blocks_read: self.blocks_read.saturating_sub(earlier.blocks_read),
            bytes_read: self.bytes_read.saturating_sub(earlier.bytes_read),
            entries_scanned: self.entries_scanned.saturating_sub(earlier.entries_scanned),
            entries_returned: self.entries_returned.saturating_sub(earlier.entries_returned),
            range_scans: self.range_scans.saturating_sub(earlier.range_scans),
            cache_hits: self.cache_hits.saturating_sub(earlier.cache_hits),
            cache_misses: self.cache_misses.saturating_sub(earlier.cache_misses),
        }
    }

    /// Component-wise sum.
    pub fn plus(&self, other: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            blocks_read: self.blocks_read + other.blocks_read,
            bytes_read: self.bytes_read + other.bytes_read,
            entries_scanned: self.entries_scanned + other.entries_scanned,
            entries_returned: self.entries_returned + other.entries_returned,
            range_scans: self.range_scans + other.range_scans,
            cache_hits: self.cache_hits + other.cache_hits,
            cache_misses: self.cache_misses + other.cache_misses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = IoMetrics::default();
        m.record_block_read(100);
        m.record_block_read(50);
        m.record_entry_scanned();
        m.record_entry_returned();
        m.record_range_scan();
        m.record_cache_hit();
        m.record_cache_miss();
        let expected = MetricsSnapshot {
            blocks_read: 2,
            bytes_read: 150,
            entries_scanned: 1,
            entries_returned: 1,
            range_scans: 1,
            cache_hits: 1,
            cache_misses: 1,
        };
        assert_eq!(m.snapshot(), expected);
    }

    #[test]
    fn snapshot_diff_and_sum() {
        let m = IoMetrics::default();
        m.record_block_read(10);
        let s1 = m.snapshot();
        m.record_block_read(20);
        m.record_entry_scanned();
        m.record_cache_miss();
        let s2 = m.snapshot();
        let d = s2.since(&s1);
        assert_eq!(d.blocks_read, 1);
        assert_eq!(d.bytes_read, 20);
        assert_eq!(d.entries_scanned, 1);
        assert_eq!(d.cache_misses, 1);
        assert_eq!(s1.plus(&d), s2);
    }

    #[test]
    fn registered_counters_are_the_registry_series() {
        let r = Registry::new();
        let m = IoMetrics::registered(&r, &[("shard", "3")]);
        m.record_block_read(64);
        m.record_cache_hit();
        m.record_cache_miss();
        assert_eq!(r.counter("trass_kv_blocks_read", &[("shard", "3")]).get(), 1);
        assert_eq!(r.counter("trass_kv_bytes_read", &[("shard", "3")]).get(), 64);
        assert_eq!(r.counter("trass_kv_cache_hits", &[("shard", "3")]).get(), 1);
        assert_eq!(r.counter("trass_kv_cache_misses", &[("shard", "3")]).get(), 1);
        // One registered counter per snapshot field.
        assert_eq!(r.len(), 7);
    }
}
