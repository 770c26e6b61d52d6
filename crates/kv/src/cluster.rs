//! Sharded multi-region cluster emulation.
//!
//! The paper's deployment spreads trajectories over HBase regions via a
//! hash *shard* prefix in the rowkey (§IV-E):
//! `rowkey = shard + index value + tid`. The [`Cluster`] reproduces that
//! topology as one [`LsmStore`] per shard, routed by the first key byte.
//! Scans over multiple key ranges fan out across the owning regions on
//! the worker pool the cluster is given ([`Cluster::with_pool`]; a TraSS
//! store lends it the one pool its queries also refine on), standing in
//! for the evaluation's five region servers, or run one region after
//! another on the calling thread until one is given. Filter push-down runs
//! inside each region, as a coprocessor would.

use crate::error::{KvError, Result};
use crate::filter::{KeepAll, ScanFilter};
use crate::metrics::MetricsSnapshot;
use crate::store::{LsmStore, StoreOptions};
use crate::types::Bytes;
use crate::types::{Entry, KeyRange};
use std::sync::Arc;
use std::time::Instant;
use trass_exec::ScopedPool;
use trass_obs::{Counter, Histogram, Registry, TraceSpan};

/// Cluster topology and per-region store tuning.
#[derive(Debug, Clone)]
pub struct ClusterOptions {
    /// Number of shards (regions). The first byte of every rowkey must be
    /// in `0..shards`.
    pub shards: u8,
    /// Options applied to each region's store. When `dir` is set, region
    /// `i` stores under `dir/region-<i>`.
    pub store: StoreOptions,
    /// Observability registry shared by every region (each labelled with
    /// its shard). `None` creates a private one, reachable via
    /// [`Cluster::registry`].
    pub registry: Option<Arc<Registry>>,
}

impl Default for ClusterOptions {
    fn default() -> Self {
        ClusterOptions { shards: 8, store: StoreOptions::default(), registry: None }
    }
}

impl ClusterOptions {
    /// In-memory cluster with `shards` regions.
    pub fn in_memory(shards: u8) -> Self {
        ClusterOptions { shards, ..Self::default() }
    }
}

/// A sharded key-value cluster.
pub struct Cluster {
    regions: Vec<Arc<LsmStore>>,
    /// Per-region scan fan-out metrics, parallel to `regions`.
    scan_obs: Vec<RegionScanObs>,
    /// The pool multi-region scans fan out on; one thread (scans inline)
    /// until [`Cluster::with_pool`] lends another.
    pool: Arc<ScopedPool>,
    registry: Arc<Registry>,
    opts: ClusterOptions,
}

/// Fan-out accounting for one region: how many scan requests it served and
/// how long each took, resolved once at open.
struct RegionScanObs {
    scans: Arc<Counter>,
    seconds: Arc<Histogram>,
}

impl Cluster {
    /// Opens a cluster with the given topology.
    pub fn open(opts: ClusterOptions) -> Result<Self> {
        if opts.shards == 0 {
            return Err(KvError::invalid("cluster requires at least one shard"));
        }
        let registry = opts.registry.clone().unwrap_or_else(Registry::new_shared);
        let mut regions = Vec::with_capacity(opts.shards as usize);
        let mut scan_obs = Vec::with_capacity(opts.shards as usize);
        for i in 0..opts.shards {
            let mut store_opts = opts.store.clone();
            if let Some(dir) = &opts.store.dir {
                store_opts.dir = Some(dir.join(format!("region-{i}")));
            }
            store_opts.registry = Some(Arc::clone(&registry));
            store_opts.shard_label = Some(i.to_string());
            regions.push(Arc::new(LsmStore::open(store_opts)?));
            let shard = i.to_string();
            let labels = [("shard", shard.as_str())];
            scan_obs.push(RegionScanObs {
                scans: registry.counter("trass_kv_region_scans", &labels),
                seconds: registry.timer("trass_kv_region_scan_seconds", &labels),
            });
        }
        Ok(Cluster { regions, scan_obs, pool: Arc::new(ScopedPool::new(1)), registry, opts })
    }

    /// This cluster, fanning multi-region scans out on `pool`, one task per
    /// involved region.
    pub fn with_pool(self, pool: Arc<ScopedPool>) -> Self {
        Cluster { pool, ..self }
    }

    /// The registry every region reports into.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Number of shards.
    pub fn shards(&self) -> u8 {
        self.opts.shards
    }

    fn region_of(&self, key: &[u8]) -> Result<&Arc<LsmStore>> {
        let shard = *key.first().ok_or_else(|| KvError::invalid("empty rowkey"))?;
        self.regions
            .get(shard as usize)
            .ok_or_else(|| KvError::invalid(format!("shard {shard} out of range")))
    }

    /// Writes a row; the first key byte selects the shard.
    pub fn put(&self, key: impl Into<Bytes>, value: impl Into<Bytes>) -> Result<()> {
        let key = key.into();
        self.region_of(&key)?.put(key, value.into())
    }

    /// Deletes a row.
    pub fn delete(&self, key: impl Into<Bytes>) -> Result<()> {
        let key = key.into();
        self.region_of(&key)?.delete(key)
    }

    /// Point lookup.
    pub fn get(&self, key: &[u8]) -> Result<Option<Bytes>> {
        self.region_of(key)?.get(key)
    }

    /// Scans a single key range (which must not cross shards — the schema's
    /// shard prefix guarantees this for rowkey ranges).
    pub fn scan(&self, range: KeyRange) -> Result<Vec<Entry>> {
        self.scan_ranges(std::slice::from_ref(&range), &KeepAll)
    }

    /// Scans many key ranges with a push-down filter, fanning out across
    /// the owning regions. Results are concatenated in (shard, key) order.
    pub fn scan_ranges(
        &self,
        ranges: &[KeyRange],
        filter: &(dyn ScanFilter + '_),
    ) -> Result<Vec<Entry>> {
        Ok(self.scan_ranges_traced(ranges, filter, &TraceSpan::disabled())?.0)
    }

    /// [`Cluster::scan_ranges`] returning the rows with the scan's I/O
    /// tally, the sum of the involved regions' own, and recording one
    /// `region-scan` child span per involved shard under `parent`, filled
    /// from that region's tally. With a disabled parent this adds one
    /// branch per shard.
    pub fn scan_ranges_traced(
        &self,
        ranges: &[KeyRange],
        filter: &(dyn ScanFilter + '_),
        parent: &TraceSpan,
    ) -> Result<(Vec<Entry>, MetricsSnapshot)> {
        let per_shard = self.route(ranges);

        // Spans (and the fan-out counters) are opened here on the calling
        // thread, in ascending shard order, so the trace tree and counter
        // sequence are identical whatever the worker interleaving. Workers
        // take the spans' resource marks and fill in the per-region results.
        let tasks: Vec<(usize, Option<TraceSpan>)> = (0..self.regions.len())
            .filter(|&shard| !per_shard[shard].is_empty())
            .map(|shard| {
                self.scan_obs[shard].scans.inc();
                (shard, region_span(parent, shard, &per_shard[shard]))
            })
            .collect();
        // The pool returns results in task order — ascending shard order —
        // so the concatenation below yields the exact byte sequence of a
        // sequential scan. A single involved region, a one-thread pool, or
        // a pool busy with another run scans inline on the calling thread.
        let results = self.pool.run(tasks, |_, (shard, mut span)| {
            if let Some(span) = &mut span {
                span.mark_here();
            }
            let t = Instant::now();
            let r = self.regions[shard].scan_ranges_filtered(&per_shard[shard], filter);
            self.scan_obs[shard].seconds.record_duration(t.elapsed());
            finish_region_span(span, &r);
            r
        });
        let (mut out, mut io) = (Vec::new(), MetricsSnapshot::default());
        for r in results {
            let (rows, region_io) = r?;
            out.extend(rows);
            io = io.plus(&region_io);
        }
        Ok((out, io))
    }

    /// Groups `ranges` by owning shard. Ranges produced by the rowkey schema
    /// start and end under one shard byte and are routed by it; only a
    /// range that crosses shards (administrative scans such as
    /// `KeyRange::all()`) is clipped against every shard's prefix.
    fn route(&self, ranges: &[KeyRange]) -> Vec<Vec<KeyRange>> {
        let mut per_shard: Vec<Vec<KeyRange>> = vec![Vec::new(); self.regions.len()];
        for range in ranges {
            if range.is_empty() {
                continue;
            }
            let end_shard = range.end.as_ref().and_then(|e| e.first());
            match range.start.first() {
                Some(shard) if Some(shard) == end_shard => {
                    if let Some(bucket) = per_shard.get_mut(usize::from(*shard)) {
                        bucket.push(range.clone());
                    }
                }
                _ => {
                    for (shard, bucket) in per_shard.iter_mut().enumerate() {
                        let clipped = range.intersect(&KeyRange::prefix(vec![shard as u8]));
                        if !clipped.is_empty() {
                            bucket.push(clipped);
                        }
                    }
                }
            }
        }
        per_shard
    }

    /// [`LsmStore::visit_resident_keys`] over every region's whole key
    /// space: memory only, the listing a store rebuilds its occupancy from.
    pub fn visit_resident_keys(&self, visit: &mut dyn FnMut(&[u8])) {
        for region in &self.regions {
            region.visit_resident_keys(&KeyRange::all(), visit);
        }
    }

    /// Every region's `trass_kv_*` I/O counters, summed: the tallies of
    /// every scan and point lookup that has ended.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.regions
            .iter()
            .map(|r| r.metrics().snapshot())
            .fold(MetricsSnapshot::default(), |acc, s| acc.plus(&s))
    }

    /// Flushes every region's memtable.
    pub fn flush(&self) -> Result<()> {
        for r in &self.regions {
            r.flush()?;
        }
        Ok(())
    }

    /// Compacts every region.
    pub fn compact(&self) -> Result<()> {
        for r in &self.regions {
            r.compact()?;
        }
        Ok(())
    }

    /// Per-region live-row upper bounds, for skew diagnostics (Fig. 19).
    pub fn region_entry_counts(&self) -> Vec<u64> {
        self.regions.iter().map(|r| r.table_entries() + r.memtable_len() as u64).collect()
    }

    /// Every region's [`LsmStore::health`] (data dir present and
    /// writable, WAL alive, compaction keeping up): the first failing shard
    /// wins and is named in the reason.
    pub fn health(&self) -> std::result::Result<(), String> {
        for (shard, region) in self.regions.iter().enumerate() {
            if let Err(e) = region.health() {
                return Err(format!("shard {shard}: {e}"));
            }
        }
        Ok(())
    }
}

/// Opens a per-region trace span; the worker that runs the scan takes its
/// allocation and CPU marks. `None` (no work at all) when the parent span
/// is disabled.
fn region_span(parent: &TraceSpan, shard: usize, ranges: &[KeyRange]) -> Option<TraceSpan> {
    parent.is_enabled().then(|| {
        let mut span = parent.handoff_child("region-scan");
        span.set_label("shard", &shard.to_string());
        span.set_field("ranges", ranges.len());
        span
    })
}

/// Fills the span opened by [`region_span`] from the region scan's own
/// tally and rows, exact however many other scans ran on the region
/// meanwhile; a failed scan records its error instead.
fn finish_region_span(span: Option<TraceSpan>, result: &Result<(Vec<Entry>, MetricsSnapshot)>) {
    let Some(mut span) = span else { return };
    match result {
        Ok((entries, io)) => {
            span.set_field("rows_scanned", io.entries_scanned);
            span.set_field("rows_returned", entries.len());
            span.set_field("bytes_read", io.bytes_read);
            span.set_field("blocks_read", io.blocks_read);
            span.set_field("cache_hits", io.cache_hits);
            span.set_field("cache_misses", io.cache_misses);
        }
        Err(e) => span.set_field("error", e.to_string()),
    }
    span.finish();
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster").field("shards", &self.opts.shards).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::FilterDecision;

    fn key(shard: u8, rest: &str) -> Vec<u8> {
        let mut k = vec![shard];
        k.extend_from_slice(rest.as_bytes());
        k
    }

    /// A cluster scanning on a pool of the machine's parallelism.
    fn cluster(shards: u8) -> Cluster {
        Cluster::open(ClusterOptions {
            shards,
            store: StoreOptions { memtable_bytes: 1 << 14, ..StoreOptions::in_memory() },
            ..ClusterOptions::default()
        })
        .unwrap()
        .with_pool(Arc::new(ScopedPool::new(0)))
    }

    #[test]
    fn routing_by_first_byte() {
        let c = cluster(4);
        for shard in 0..4u8 {
            for i in 0..25 {
                c.put(key(shard, &format!("k{i:03}")), format!("v{shard}-{i}")).unwrap();
            }
        }
        assert_eq!(c.get(&key(2, "k007")).unwrap().as_deref(), Some(&b"v2-7"[..]));
        let counts = c.region_entry_counts();
        assert_eq!(counts.len(), 4);
        assert!(counts.iter().all(|&n| n == 25), "counts: {counts:?}");
    }

    #[test]
    fn shard_out_of_range_rejected() {
        let c = cluster(2);
        assert!(c.put(key(5, "x"), "v").is_err());
        assert!(c.get(&key(5, "x")).is_err());
        assert!(c.put(Vec::new(), "v").is_err());
    }

    #[test]
    fn multi_range_scan_fans_out() {
        let c = cluster(4);
        for shard in 0..4u8 {
            for i in 0..100 {
                c.put(key(shard, &format!("k{i:03}")), "v").unwrap();
            }
        }
        let ranges = vec![
            KeyRange::new(key(0, "k010"), key(0, "k020")),
            KeyRange::new(key(2, "k050"), key(2, "k055")),
            KeyRange::new(key(3, "k000"), key(3, "k001")),
        ];
        let entries = c.scan_ranges(&ranges, &KeepAll).unwrap();
        assert_eq!(entries.len(), 10 + 5 + 1);
    }

    #[test]
    fn resident_key_listing_covers_every_region_and_source() {
        let c = cluster(3);
        for (shard, n) in [(0u8, 4), (2, 7)] {
            for i in 0..n {
                c.put(key(shard, &format!("k{i:03}")), "v").unwrap();
            }
        }
        c.flush().unwrap();
        c.put(key(2, "k100"), "unflushed").unwrap();
        c.delete(key(0, "k000")).unwrap();
        let mut listed = Vec::new();
        c.visit_resident_keys(&mut |k| listed.push(k.to_vec()));
        listed.sort();
        // The tombstone is listed beside the flushed key it shadows.
        assert_eq!(listed.len(), 13);
        assert_eq!(listed[..2], [key(0, "k000"), key(0, "k000")]);
        assert!(listed.contains(&key(2, "k100")));
    }

    #[test]
    fn filter_pushdown_applies_per_region() {
        let c = cluster(3);
        for shard in 0..3u8 {
            for i in 0..30 {
                c.put(key(shard, &format!("k{i:03}")), format!("{i}")).unwrap();
            }
        }
        let even = |_k: &[u8], v: &[u8]| {
            let i: u32 = std::str::from_utf8(v).unwrap().parse().unwrap();
            if i % 2 == 0 {
                FilterDecision::Keep
            } else {
                FilterDecision::Skip
            }
        };
        let ranges: Vec<KeyRange> = (0..3u8).map(|s| KeyRange::prefix(vec![s])).collect();
        let entries = c.scan_ranges(&ranges, &even).unwrap();
        assert_eq!(entries.len(), 45);
        let m = c.metrics_snapshot();
        assert_eq!(m.entries_scanned, 90);
        assert_eq!(m.entries_returned, 45);
    }

    #[test]
    fn metrics_aggregate_across_regions() {
        let c = cluster(2);
        c.put(key(0, "a"), "1").unwrap();
        c.put(key(1, "b"), "2").unwrap();
        c.flush().unwrap();
        let before = c.metrics_snapshot();
        let _ = c.scan(KeyRange::prefix(vec![0u8])).unwrap();
        let _ = c.scan(KeyRange::prefix(vec![1u8])).unwrap();
        let m = c.metrics_snapshot().since(&before);
        assert_eq!(m.entries_scanned, 2);
        assert!(m.blocks_read >= 2);
    }

    #[test]
    fn scan_fanout_reports_per_region() {
        let c = cluster(4);
        for shard in 0..4u8 {
            for i in 0..50 {
                c.put(key(shard, &format!("k{i:03}")), "v").unwrap();
            }
        }
        // Touch shards 0 and 2 only.
        let ranges = vec![
            KeyRange::new(key(0, "k000"), key(0, "k999")),
            KeyRange::new(key(2, "k000"), key(2, "k999")),
        ];
        let _ = c.scan_ranges(&ranges, &KeepAll).unwrap();
        let r = c.registry();
        assert_eq!(r.counter("trass_kv_region_scans", &[("shard", "0")]).get(), 1);
        assert_eq!(r.counter("trass_kv_region_scans", &[("shard", "1")]).get(), 0);
        assert_eq!(r.counter("trass_kv_region_scans", &[("shard", "2")]).get(), 1);
        assert_eq!(r.timer("trass_kv_region_scan_seconds", &[("shard", "0")]).count(), 1);
        // Per-shard I/O counters live in the same registry.
        assert_eq!(r.counter("trass_kv_entries_scanned", &[("shard", "0")]).get(), 50);
        assert_eq!(r.counter("trass_kv_entries_scanned", &[("shard", "1")]).get(), 0);
        // All regions share one registry and label themselves by shard.
        let text = r.render_prometheus();
        assert!(text.contains("trass_kv_region_scans{shard=\"2\"} 1"));
    }

    #[test]
    fn traced_scan_records_one_span_per_involved_region() {
        use trass_obs::TraceCtx;
        let c = cluster(4);
        for shard in 0..4u8 {
            for i in 0..20 {
                c.put(key(shard, &format!("k{i:03}")), "v").unwrap();
            }
        }
        c.flush().unwrap();
        let ranges = vec![
            KeyRange::new(key(0, "k000"), key(0, "k010")),
            KeyRange::new(key(3, "k000"), key(3, "k005")),
        ];
        let ctx = TraceCtx::enabled();
        let root = ctx.root("scan");
        let (entries, io) = c.scan_ranges_traced(&ranges, &KeepAll, &root).unwrap();
        root.finish();
        let t = ctx.finish().unwrap();
        assert_eq!(entries.len(), 15);
        assert_eq!((io.entries_scanned, io.entries_returned, io.range_scans), (15, 15, 2));
        assert_eq!(io.blocks_read, 2, "one block per region");
        assert_eq!(c.metrics_snapshot(), io, "the regions published what they returned");
        // Parallel fan-out: span start order is nondeterministic, so key
        // the assertions by shard label.
        let mut spans: Vec<_> = t.root.children_named("region-scan").collect();
        spans.sort_by_key(|s| s.label("shard").unwrap().to_string());
        assert_eq!(spans.len(), 2);
        let shards: Vec<&str> = spans.iter().map(|s| s.label("shard").unwrap()).collect();
        assert_eq!(shards, vec!["0", "3"]);
        assert_eq!(spans[0].field_u64("rows_scanned"), Some(10));
        assert_eq!(spans[0].field_u64("rows_returned"), Some(10));
        assert_eq!(spans[1].field_u64("rows_returned"), Some(5));
        // The spans split the returned tally by region.
        for (field, want) in [
            ("rows_scanned", io.entries_scanned),
            ("bytes_read", io.bytes_read),
            ("blocks_read", io.blocks_read),
            ("cache_hits", io.cache_hits),
            ("cache_misses", io.cache_misses),
        ] {
            let sum: u64 = spans.iter().filter_map(|s| s.field_u64(field)).sum();
            assert_eq!(sum, want, "{field}");
        }
    }

    #[test]
    fn single_shard_cluster_works() {
        let c = cluster(1);
        for i in 0..50 {
            c.put(key(0, &format!("k{i:03}")), "v").unwrap();
        }
        assert_eq!(c.scan(KeyRange::all()).unwrap().len(), 50);
    }

    #[test]
    fn zero_shards_rejected() {
        assert!(Cluster::open(ClusterOptions::in_memory(0)).is_err());
    }

    #[test]
    fn health_is_ok_on_a_fresh_in_memory_cluster() {
        assert_eq!(cluster(3).health(), Ok(()));
    }

    #[test]
    fn region_probe_names_the_failing_shard() {
        let dir = std::env::temp_dir().join(format!("trass-cluster-health-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let c = Cluster::open(ClusterOptions {
            shards: 3,
            store: StoreOptions::at_dir(&dir),
            ..ClusterOptions::default()
        })
        .unwrap();
        assert!(c.health().is_ok(), "fresh disk cluster must be healthy");
        // Yank one region's directory: the check must fail and say which
        // shard is broken.
        std::fs::remove_dir_all(dir.join("region-1")).unwrap();
        let err = c.health().expect_err("missing region dir must fail");
        assert!(err.contains("shard 1"), "{err}");
        drop(c);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn disk_cluster_roundtrip() {
        let dir = std::env::temp_dir().join(format!("trass-cluster-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let opts = ClusterOptions {
            shards: 2,
            store: StoreOptions::at_dir(&dir),
            ..ClusterOptions::default()
        };
        {
            let c = Cluster::open(opts.clone()).unwrap();
            c.put(key(0, "x"), "1").unwrap();
            c.put(key(1, "y"), "2").unwrap();
        }
        {
            let c = Cluster::open(opts).unwrap();
            assert_eq!(c.get(&key(0, "x")).unwrap().as_deref(), Some(&b"1"[..]));
            assert_eq!(c.get(&key(1, "y")).unwrap().as_deref(), Some(&b"2"[..]));
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
