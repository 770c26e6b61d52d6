//! I/O and scan accounting.
//!
//! The paper's central claims are *I/O reductions* (rows retrieved, bytes
//! scanned), so the store counts everything relevant with relaxed atomics:
//! cheap enough to stay on in production paths, precise enough to
//! regenerate Figures 9–11.

use std::sync::atomic::{AtomicU64, Ordering};

/// Cumulative I/O counters. Cheap to share (`&IoMetrics`) across scans and
/// threads; all methods use relaxed atomics.
#[derive(Debug, Default)]
pub struct IoMetrics {
    blocks_read: AtomicU64,
    bytes_read: AtomicU64,
    entries_scanned: AtomicU64,
    entries_returned: AtomicU64,
    range_scans: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
}

impl IoMetrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn record_block_read(&self, bytes: usize) {
        self.blocks_read.fetch_add(1, Ordering::Relaxed);
        self.bytes_read.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_entry_scanned(&self) {
        self.entries_scanned.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_entry_returned(&self) {
        self.entries_returned.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_range_scan(&self) {
        self.range_scans.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_cache_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_cache_miss(&self) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Data blocks fetched from SSTables.
    pub fn blocks_read(&self) -> u64 {
        self.blocks_read.load(Ordering::Relaxed)
    }

    /// Bytes fetched from SSTables.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read.load(Ordering::Relaxed)
    }

    /// Rows visited by scans (before filter push-down).
    pub fn entries_scanned(&self) -> u64 {
        self.entries_scanned.load(Ordering::Relaxed)
    }

    /// Rows that passed push-down filters and were returned to the client.
    pub fn entries_returned(&self) -> u64 {
        self.entries_returned.load(Ordering::Relaxed)
    }

    /// Number of key-range scans executed.
    pub fn range_scans(&self) -> u64 {
        self.range_scans.load(Ordering::Relaxed)
    }

    /// Block reads served from the block cache.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits.load(Ordering::Relaxed)
    }

    /// Cache lookups that fell through to storage (only counted when a
    /// cache is configured).
    pub fn cache_misses(&self) -> u64 {
        self.cache_misses.load(Ordering::Relaxed)
    }

    /// Takes a point-in-time copy.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            blocks_read: self.blocks_read(),
            bytes_read: self.bytes_read(),
            entries_scanned: self.entries_scanned(),
            entries_returned: self.entries_returned(),
            range_scans: self.range_scans(),
            cache_hits: self.cache_hits(),
            cache_misses: self.cache_misses(),
        }
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        self.blocks_read.store(0, Ordering::Relaxed);
        self.bytes_read.store(0, Ordering::Relaxed);
        self.entries_scanned.store(0, Ordering::Relaxed);
        self.entries_returned.store(0, Ordering::Relaxed);
        self.range_scans.store(0, Ordering::Relaxed);
        self.cache_hits.store(0, Ordering::Relaxed);
        self.cache_misses.store(0, Ordering::Relaxed);
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

    /// Mirrors this snapshot into absolute-valued registry counters named
    /// `trass_kv_<field>` with the given labels, for Prometheus export.
    /// `IoMetrics` counters are monotone, so repeated publishes keep the
    /// mirrored counters monotone too.
    pub fn publish_to(&self, registry: &trass_obs::Registry, labels: &[(&str, &str)]) {
        for (name, v) in [
            ("trass_kv_blocks_read", self.blocks_read),
            ("trass_kv_bytes_read", self.bytes_read),
            ("trass_kv_entries_scanned", self.entries_scanned),
            ("trass_kv_entries_returned", self.entries_returned),
            ("trass_kv_range_scans", self.range_scans),
            ("trass_kv_cache_hits", self.cache_hits),
            ("trass_kv_cache_misses", self.cache_misses),
        ] {
            registry.counter(name, labels).set(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = IoMetrics::new();
        m.record_block_read(100);
        m.record_block_read(50);
        m.record_entry_scanned();
        m.record_entry_returned();
        m.record_range_scan();
        m.record_cache_hit();
        m.record_cache_miss();
        assert_eq!(m.blocks_read(), 2);
        assert_eq!(m.bytes_read(), 150);
        assert_eq!(m.entries_scanned(), 1);
        assert_eq!(m.entries_returned(), 1);
        assert_eq!(m.range_scans(), 1);
        assert_eq!(m.cache_hits(), 1);
        assert_eq!(m.cache_misses(), 1);
    }

    #[test]
    fn snapshot_diff_and_sum() {
        let m = IoMetrics::new();
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
    fn publish_mirrors_every_field() {
        let m = IoMetrics::new();
        m.record_block_read(64);
        m.record_cache_hit();
        m.record_cache_miss();
        let r = trass_obs::Registry::new();
        m.snapshot().publish_to(&r, &[("shard", "3")]);
        assert_eq!(r.counter("trass_kv_blocks_read", &[("shard", "3")]).get(), 1);
        assert_eq!(r.counter("trass_kv_bytes_read", &[("shard", "3")]).get(), 64);
        assert_eq!(r.counter("trass_kv_cache_hits", &[("shard", "3")]).get(), 1);
        assert_eq!(r.counter("trass_kv_cache_misses", &[("shard", "3")]).get(), 1);
        // One mirrored counter per snapshot field.
        assert_eq!(r.len(), 7);
    }

    #[test]
    fn reset_zeroes() {
        let m = IoMetrics::new();
        m.record_block_read(10);
        m.reset();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
    }
}
