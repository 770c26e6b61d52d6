//! I/O and scan accounting.
//!
//! The paper's central claims are *I/O reductions* (rows retrieved, bytes
//! scanned), so every store call that touches data counts its own I/O. A
//! scan, a point lookup or a compaction adds rows, blocks, bytes and cache
//! look-ups into a plain [`MetricsSnapshot`] tally that is local to the
//! call: no atomic on the path of a row or a block. When the call ends,
//! whether it succeeded or failed, the tally is added once to the store's
//! `trass_kv_*` registry series ([`IoMetrics`]), so a scrape reads the
//! sum of every call's tally; a scan also returns its tally, which is
//! that scan's exact I/O whatever else runs on the store meanwhile.

use std::sync::Arc;
use trass_obs::{Counter, Registry};

/// A store's cumulative query I/O: its registry's `trass_kv_*` counters,
/// advanced once per call by that call's tally.
#[derive(Debug)]
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

    /// Publishes one call's tally, skipping its zero fields.
    pub(crate) fn add(&self, tally: &MetricsSnapshot) {
        for (counter, n) in [
            (&self.blocks_read, tally.blocks_read),
            (&self.bytes_read, tally.bytes_read),
            (&self.entries_scanned, tally.entries_scanned),
            (&self.entries_returned, tally.entries_returned),
            (&self.range_scans, tally.range_scans),
            (&self.cache_hits, tally.cache_hits),
            (&self.cache_misses, tally.cache_misses),
        ] {
            if n > 0 {
                counter.add(n);
            }
        }
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

/// I/O counts as plain data: one call's tally, or a copy of a store's
/// [`IoMetrics`] at one instant.
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
    fn snapshot_diff_and_sum() {
        let s1 = MetricsSnapshot { blocks_read: 1, bytes_read: 10, ..MetricsSnapshot::default() };
        let d = MetricsSnapshot {
            blocks_read: 1,
            bytes_read: 20,
            entries_scanned: 1,
            cache_misses: 1,
            ..MetricsSnapshot::default()
        };
        let s2 = s1.plus(&d);
        assert_eq!(s2.since(&s1), d);
        assert_eq!(s1.since(&s2), MetricsSnapshot::default(), "saturates at zero");
    }

    #[test]
    fn a_published_tally_lands_in_the_registry_series() {
        let r = Registry::new();
        let m = IoMetrics::registered(&r, &[("shard", "3")]);
        let tally = MetricsSnapshot {
            blocks_read: 1,
            bytes_read: 64,
            entries_scanned: 5,
            entries_returned: 2,
            range_scans: 3,
            cache_hits: 1,
            cache_misses: 1,
        };
        m.add(&tally);
        m.add(&MetricsSnapshot { bytes_read: 6, ..MetricsSnapshot::default() });
        assert_eq!(m.snapshot(), MetricsSnapshot { bytes_read: 70, ..tally });
        assert_eq!(r.counter("trass_kv_blocks_read", &[("shard", "3")]).get(), 1);
        assert_eq!(r.counter("trass_kv_bytes_read", &[("shard", "3")]).get(), 70);
        assert_eq!(r.counter("trass_kv_cache_hits", &[("shard", "3")]).get(), 1);
        assert_eq!(r.counter("trass_kv_cache_misses", &[("shard", "3")]).get(), 1);
        // One registered counter per snapshot field.
        assert_eq!(r.len(), 7);
    }
}
