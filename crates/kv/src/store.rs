//! The LSM store: write path, read path, flush and compaction.

use crate::cache::BlockCache;
use crate::error::{KvError, Result};
use crate::filter::{FilterDecision, KeepAll, ScanFilter};
use crate::memtable::Memtable;
use crate::merge::{MergeItem, MergeIter};
use crate::metrics::{IoMetrics, MetricsSnapshot};
use crate::sstable::{BlockMemo, SsTable, SsTableBuilder};
use crate::types::Bytes;
use crate::types::{Entry, KeyRange};
use crate::wal::Wal;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use trass_obs::sync::RwLock;
use trass_obs::{Counter, Histogram, Registry};

/// Tuning knobs for an [`LsmStore`].
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Data directory. `None` runs fully in memory: no WAL, SSTables held
    /// as byte buffers (used by tests and hermetic benchmarks).
    pub dir: Option<PathBuf>,
    /// Memtable flush threshold in approximate bytes.
    pub memtable_bytes: usize,
    /// SSTable data-block target size in bytes.
    pub block_size: usize,
    /// Number of SSTables that triggers a full compaction.
    pub compaction_threshold: usize,
    /// fsync the WAL on every write.
    pub sync_writes: bool,
    /// Decoded-block cache capacity in bytes (0 disables the cache).
    pub block_cache_bytes: usize,
    /// Observability registry the store reports into. `None` gives the
    /// store a private registry; a [`Cluster`](crate::Cluster) passes one
    /// shared registry to all its regions.
    pub registry: Option<Arc<Registry>>,
    /// Value of the `shard` label on this store's metrics (set by the
    /// cluster; standalone stores emit unlabelled series).
    pub shard_label: Option<String>,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            dir: None,
            memtable_bytes: 4 << 20,
            block_size: 4096,
            compaction_threshold: 8,
            sync_writes: false,
            block_cache_bytes: 8 << 20,
            registry: None,
            shard_label: None,
        }
    }
}

impl StoreOptions {
    /// In-memory store with default tuning.
    pub fn in_memory() -> Self {
        Self::default()
    }

    /// Disk-backed store rooted at `dir`.
    pub fn at_dir(dir: impl Into<PathBuf>) -> Self {
        StoreOptions { dir: Some(dir.into()), ..Self::default() }
    }
}

struct Inner {
    memtable: Memtable,
    wal: Option<Wal>,
    /// SSTables, oldest first (newest last).
    tables: Vec<Arc<SsTable>>,
    /// File name of each SSTable, parallel to `tables` (empty entries for
    /// in-memory stores).
    file_names: Vec<String>,
    next_table_id: u64,
}

/// An embedded log-structured key-value store.
///
/// Thread-safe: reads take a shared lock, writes an exclusive lock. A scan
/// holds the shared lock while it merges, which pins the memtable and the
/// table list it reads.
pub struct LsmStore {
    opts: StoreOptions,
    inner: RwLock<Inner>,
    metrics: IoMetrics,
    cache: Option<Arc<BlockCache>>,
    registry: Arc<Registry>,
    obs: StoreObs,
}

/// Registry handles for the store's write and maintenance paths, resolved
/// once at open so recording on the hot path is a single atomic add.
struct StoreObs {
    wal_append: Arc<Histogram>,
    flush_seconds: Arc<Histogram>,
    flushes: Arc<Counter>,
    flush_bytes: Arc<Counter>,
    compaction_seconds: Arc<Histogram>,
    compactions: Arc<Counter>,
    compaction_bytes_written: Arc<Counter>,
    compaction_blocks_read: Arc<Counter>,
    compaction_bytes_read: Arc<Counter>,
    compaction_entries_scanned: Arc<Counter>,
}

impl StoreObs {
    fn new(registry: &Registry, labels: &[(&str, &str)]) -> StoreObs {
        StoreObs {
            wal_append: registry.timer("trass_kv_wal_append_seconds", labels),
            flush_seconds: registry.timer("trass_kv_flush_seconds", labels),
            flushes: registry.counter("trass_kv_flushes", labels),
            flush_bytes: registry.counter("trass_kv_flush_bytes", labels),
            compaction_seconds: registry.timer("trass_kv_compaction_seconds", labels),
            compactions: registry.counter("trass_kv_compactions", labels),
            compaction_bytes_written: registry.counter("trass_kv_compaction_bytes_written", labels),
            compaction_blocks_read: registry.counter("trass_kv_compaction_blocks_read", labels),
            compaction_bytes_read: registry.counter("trass_kv_compaction_bytes_read", labels),
            compaction_entries_scanned: registry
                .counter("trass_kv_compaction_entries_scanned", labels),
        }
    }
}

const WAL_FILE: &str = "wal.log";
const MANIFEST_FILE: &str = "MANIFEST";

impl LsmStore {
    /// Opens (or creates) a store, replaying the WAL if one exists.
    pub fn open(opts: StoreOptions) -> Result<Self> {
        let cache = (opts.block_cache_bytes > 0).then(|| BlockCache::new(opts.block_cache_bytes));
        let mut tables = Vec::new();
        let mut file_names: Vec<String> = Vec::new();
        let mut next_table_id = 0u64;
        let mut memtable = Memtable::new();
        let wal = if let Some(dir) = &opts.dir {
            std::fs::create_dir_all(dir)?;
            // Load the manifest's table list, oldest first.
            let manifest = dir.join(MANIFEST_FILE);
            if manifest.exists() {
                let listing = std::fs::read_to_string(&manifest)?;
                for name in listing.lines().filter(|l| !l.is_empty()) {
                    let table = SsTable::open_file(&dir.join(name), cache.clone())?;
                    if let Some(stem) = name.strip_suffix(".sst") {
                        if let Ok(id) = stem.parse::<u64>() {
                            next_table_id = next_table_id.max(id + 1);
                        }
                    }
                    tables.push(table);
                    file_names.push(name.to_string());
                }
            }
            // Replay unflushed writes.
            let wal_path = dir.join(WAL_FILE);
            for (key, value) in Wal::replay(&wal_path)? {
                match value {
                    Some(v) => memtable.put(key, v),
                    None => memtable.delete(key),
                }
            }
            Some(Wal::open_append(&wal_path, opts.sync_writes)?)
        } else {
            None
        };
        let registry = opts.registry.clone().unwrap_or_else(Registry::new_shared);
        let labels: Vec<(&str, &str)> =
            opts.shard_label.as_deref().map(|s| ("shard", s)).into_iter().collect();
        let obs = StoreObs::new(&registry, &labels);
        let metrics = IoMetrics::registered(&registry, &labels);
        Ok(LsmStore {
            opts,
            inner: RwLock::new(Inner { memtable, wal, tables, file_names, next_table_id }),
            metrics,
            cache,
            registry,
            obs,
        })
    }

    /// The shared block cache, when enabled.
    pub fn block_cache(&self) -> Option<&Arc<BlockCache>> {
        self.cache.as_ref()
    }

    /// The store's query I/O counters: its registry's `trass_kv_*` series
    /// (labelled with this store's shard, if any), advanced once per scan
    /// or point lookup, when it ends, by that call's tally.
    pub fn metrics(&self) -> &IoMetrics {
        &self.metrics
    }

    /// The registry this store reports durations and maintenance counters
    /// into (shared with the cluster when opened through one).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Writes a key-value pair.
    pub fn put(&self, key: impl Into<Bytes>, value: impl Into<Bytes>) -> Result<()> {
        let (key, value) = (key.into(), value.into());
        {
            let mut inner = self.inner.write();
            if let Some(wal) = &mut inner.wal {
                let t = Instant::now();
                wal.append_put(&key, &value)?;
                self.obs.wal_append.record_duration(t.elapsed());
            }
            inner.memtable.put(key, value);
        }
        self.maybe_flush()
    }

    /// Deletes a key (writes a tombstone).
    pub fn delete(&self, key: impl Into<Bytes>) -> Result<()> {
        let key = key.into();
        {
            let mut inner = self.inner.write();
            if let Some(wal) = &mut inner.wal {
                let t = Instant::now();
                wal.append_delete(&key)?;
                self.obs.wal_append.record_duration(t.elapsed());
            }
            inner.memtable.delete(key);
        }
        self.maybe_flush()
    }

    /// Point lookup. Its block reads and cache look-ups reach the store's
    /// counters once, when it returns.
    pub fn get(&self, key: &[u8]) -> Result<Option<Bytes>> {
        let inner = self.inner.read();
        if let Some(v) = inner.memtable.get(key) {
            return Ok(v);
        }
        let mut io = MetricsSnapshot::default();
        let found = inner.tables.iter().rev().find_map(|t| t.get(key, &mut io).transpose());
        self.metrics.add(&io);
        Ok(found.transpose()?.flatten())
    }

    /// Range scan returning all live entries in `range`.
    pub fn scan(&self, range: KeyRange) -> Result<Vec<Entry>> {
        Ok(self.scan_ranges_filtered(std::slice::from_ref(&range), &KeepAll)?.0)
    }

    /// Scans `ranges` in the order given under one acquisition of the
    /// store lock and concatenates what each yields; ranges may overlap,
    /// repeat, be unsorted or empty. Rows the filter skips are counted as
    /// scanned but never materialized; `FilterDecision::Stop` ends the
    /// range it fires in. A source joins a range's merge only if it holds
    /// a row of that range — for a table that is a probe of its resident
    /// key directory, so a (range, table) pair without rows costs no
    /// block, no cache look-up and no iterator. Each table's last decoded
    /// block is carried from range to range, so for sorted ranges a block
    /// is looked up in the cache once however many ranges meet in it.
    ///
    /// Returns the rows with the call's I/O tally: ranges, rows visited and
    /// returned, blocks, bytes and cache look-ups. The tally reaches the
    /// store's counters once, when the call ends, whether it failed or not.
    pub fn scan_ranges_filtered(
        &self,
        ranges: &[KeyRange],
        filter: &dyn ScanFilter,
    ) -> Result<(Vec<Entry>, MetricsSnapshot)> {
        // The read guard pins the memtable and the table set for the
        // whole call; writers block meanwhile.
        let inner = self.inner.read();
        let memos: Vec<BlockMemo> = inner.tables.iter().map(|_| BlockMemo::default()).collect();
        let mut io = MetricsSnapshot::default();
        let rows = merge_ranges(&inner, &memos, ranges, filter, &mut io);
        let io = memos.iter().fold(io, |io, memo| io.plus(&memo.io()));
        self.metrics.add(&io);
        Ok((rows?, io))
    }

    /// Calls `visit` with every key the memtable and every table's resident
    /// key directory hold in `range`, tombstones and shadowed versions
    /// included: a key once per source holding it, in no order across
    /// sources, so every live key is among them. Memory only — no block
    /// read, no cache look-up. `visit` runs under the store lock, as a
    /// scan's filter does: it must not call back into the store.
    pub fn visit_resident_keys(&self, range: &KeyRange, visit: &mut dyn FnMut(&[u8])) {
        if range.is_empty() {
            return;
        }
        let inner = self.inner.read();
        inner.memtable.range(range).for_each(|(key, _)| visit(key));
        inner.tables.iter().flat_map(|t| t.keys_in(range)).for_each(visit);
    }

    /// Flushes the memtable if it exceeds the configured threshold, then
    /// compacts if the table count exceeds its threshold.
    fn maybe_flush(&self) -> Result<()> {
        let needs_flush = {
            let inner = self.inner.read();
            inner.memtable.approx_bytes() >= self.opts.memtable_bytes
        };
        if needs_flush {
            self.flush()?;
        }
        let needs_compact = {
            let inner = self.inner.read();
            inner.tables.len() > self.opts.compaction_threshold
        };
        if needs_compact {
            self.compact()?;
        }
        Ok(())
    }

    /// Forces the memtable out to a new SSTable.
    pub fn flush(&self) -> Result<()> {
        let mut inner = self.inner.write();
        if inner.memtable.is_empty() {
            return Ok(());
        }
        let t = Instant::now();
        let mut builder = SsTableBuilder::new(self.opts.block_size);
        for (k, v) in inner.memtable.iter() {
            builder.add(k, v.as_deref());
        }
        let encoded = builder.finish();
        let flushed_bytes = encoded.len() as u64;
        let id = inner.next_table_id;
        inner.next_table_id += 1;
        let (table, name) = self.persist_table(id, encoded)?;
        inner.tables.push(table);
        inner.file_names.push(name);
        if self.opts.dir.is_some() {
            self.write_manifest(&inner.file_names)?;
        }
        inner.memtable.clear();
        if let Some(dir) = &self.opts.dir {
            // WAL content is now durable in the SSTable; retire the old
            // log WITHOUT flushing its buffer (a late buffered write would
            // land inside the fresh, truncated log) and start a new one.
            if let Some(old) = inner.wal.take() {
                old.discard();
            }
            // WAL rotation must be atomic with the memtable clear below;
            // releasing the write guard here would let a put land in
            // neither the old log nor the new one.
            // trass-lint: allow(lock-across-io)
            inner.wal = Some(Wal::create(&dir.join(WAL_FILE), self.opts.sync_writes)?);
        }
        self.obs.flushes.inc();
        self.obs.flush_bytes.add(flushed_bytes);
        self.obs.flush_seconds.record_duration(t.elapsed());
        Ok(())
    }

    /// Merges all SSTables into one, dropping tombstones and shadowed
    /// versions.
    pub fn compact(&self) -> Result<()> {
        let mut inner = self.inner.write();
        if inner.tables.len() <= 1 {
            return Ok(());
        }
        let t = Instant::now();
        // Compaction I/O is tallied in the memos, apart from query I/O, then
        // added to the dedicated `compaction_*` registry counters below.
        let memos: Vec<BlockMemo> = inner.tables.iter().map(|_| BlockMemo::default()).collect();
        let mut sources: Vec<Box<dyn Iterator<Item = Result<MergeItem>> + '_>> = Vec::new();
        for (table, memo) in inner.tables.iter().zip(&memos).rev() {
            // Full compaction swaps the table set atomically; the write
            // guard must span the merge or a concurrent flush could add a
            // table the rewrite would silently drop.
            sources.push(Box::new(
                table
                    // trass-lint: allow(lock-across-io)
                    .scan(&KeyRange::all(), memo)
                    .map(|r| r.map(|e| (e.key, e.value))),
            ));
        }
        let mut builder = SsTableBuilder::new(self.opts.block_size);
        let mut merged_rows = 0u64;
        for item in MergeIter::new(sources)? {
            let (key, value) = item?;
            merged_rows += 1;
            // Full compaction: tombstones have shadowed everything they
            // ever will; drop them.
            if let Some(v) = value {
                builder.add(&key, Some(&v));
            }
        }
        let encoded = builder.finish();
        let written_bytes = encoded.len() as u64;
        let id = inner.next_table_id;
        inner.next_table_id += 1;
        let (table, name) = self.persist_table(id, encoded)?;
        let old_names = std::mem::replace(&mut inner.file_names, vec![name]);
        inner.tables = vec![table];
        if let Some(dir) = &self.opts.dir {
            // Manifest first (the commit point), then delete the inputs.
            self.write_manifest(&inner.file_names)?;
            for name in old_names {
                // Input deletion stays under the guard: dropping it first
                // would let a reopening reader race the unlink.
                // trass-lint: allow(lock-across-io)
                std::fs::remove_file(dir.join(name)).ok();
            }
        }
        let io = memos.iter().fold(MetricsSnapshot::default(), |io, memo| io.plus(&memo.io()));
        self.obs.compactions.inc();
        self.obs.compaction_bytes_written.add(written_bytes);
        self.obs.compaction_blocks_read.add(io.blocks_read);
        self.obs.compaction_bytes_read.add(io.bytes_read);
        self.obs.compaction_entries_scanned.add(merged_rows);
        self.obs.compaction_seconds.record_duration(t.elapsed());
        Ok(())
    }

    /// Writes the encoded table to its backing storage and opens it.
    /// Returns the table and its file name ("" for in-memory stores).
    fn persist_table(&self, id: u64, encoded: Vec<u8>) -> Result<(Arc<SsTable>, String)> {
        if let Some(dir) = &self.opts.dir {
            let name = format!("{id:08}.sst");
            let path = dir.join(&name);
            std::fs::write(&path, &encoded)?;
            Ok((SsTable::open_file(&path, self.cache.clone())?, name))
        } else {
            Ok((SsTable::open_mem(Bytes::from(encoded), self.cache.clone())?, String::new()))
        }
    }

    /// Atomically replaces the manifest with the given table list (oldest
    /// first).
    fn write_manifest(&self, names: &[String]) -> Result<()> {
        let dir = self
            .opts
            .dir
            .as_ref()
            .ok_or_else(|| KvError::invalid("manifest write on in-memory store"))?;
        let tmp = dir.join("MANIFEST.tmp");
        std::fs::write(&tmp, names.join("\n"))?;
        std::fs::rename(&tmp, dir.join(MANIFEST_FILE))?;
        Ok(())
    }

    /// Number of live SSTables.
    pub fn n_tables(&self) -> usize {
        self.inner.read().tables.len()
    }

    /// Entries currently buffered in the memtable.
    pub fn memtable_len(&self) -> usize {
        self.inner.read().memtable.len()
    }

    /// Sum of entries across SSTables (including shadowed/tombstoned ones —
    /// an upper bound on live rows until compaction).
    pub fn table_entries(&self) -> u64 {
        self.inner.read().tables.iter().map(|t| t.n_entries()).sum()
    }

    /// One-shot health check for liveness/readiness probes.
    ///
    /// Fails when the data directory has gone away or read-only (writes
    /// would start erroring), when a disk-backed store has lost its WAL
    /// handle (durability is gone even though reads still work), or when
    /// the SSTable count has run far past the compaction trigger
    /// (compaction is not keeping up and read amplification is compounding).
    pub fn health(&self) -> std::result::Result<(), String> {
        if let Some(dir) = &self.opts.dir {
            let meta =
                std::fs::metadata(dir).map_err(|e| format!("data dir {}: {e}", dir.display()))?;
            if meta.permissions().readonly() {
                return Err(format!("data dir {} is read-only", dir.display()));
            }
            if self.inner.read().wal.is_none() {
                return Err("WAL handle lost on a disk-backed store".to_string());
            }
        }
        let tables = self.n_tables();
        let backlog_limit = (self.opts.compaction_threshold * 4).max(8);
        if tables > backlog_limit {
            return Err(format!(
                "compaction backlog: {tables} SSTables exceeds {backlog_limit} \
                 (threshold {})",
                self.opts.compaction_threshold
            ));
        }
        Ok(())
    }
}

/// The body of [`LsmStore::scan_ranges_filtered`] under its read guard:
/// rows visited and returned and ranges go into `io`, each table's block
/// I/O into its memo.
fn merge_ranges(
    inner: &Inner,
    memos: &[BlockMemo],
    ranges: &[KeyRange],
    filter: &dyn ScanFilter,
    io: &mut MetricsSnapshot,
) -> Result<Vec<Entry>> {
    let mut out = Vec::new();
    for range in ranges {
        io.range_scans += 1;
        if range.is_empty() {
            continue;
        }
        // Newest first: memtable, then tables newest → oldest.
        let mut sources: Vec<Box<dyn Iterator<Item = Result<MergeItem>> + '_>> = Vec::new();
        let mut mem = inner.memtable.range(range).peekable();
        if mem.peek().is_some() {
            sources.push(Box::new(mem.map(|(k, v)| Ok((k.clone(), v.clone())))));
        }
        for (table, memo) in inner.tables.iter().zip(memos).rev() {
            // trass-lint: allow(lock-across-io)
            let scan = table.scan(range, memo);
            if scan.remaining() > 0 {
                sources.push(Box::new(scan.map(|r| r.map(|e| (e.key, e.value)))));
            }
        }
        for item in MergeIter::new(sources)? {
            let (key, value) = item?;
            let Some(value) = value else { continue }; // tombstone
            io.entries_scanned += 1;
            match filter.check(&key, &value) {
                FilterDecision::Keep => {
                    io.entries_returned += 1;
                    out.push(Entry { key, value });
                }
                FilterDecision::Skip => {}
                FilterDecision::Stop => break,
            }
        }
    }
    Ok(out)
}

impl std::fmt::Debug for LsmStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LsmStore")
            .field("tables", &self.n_tables())
            .field("memtable_len", &self.memtable_len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem_store() -> LsmStore {
        LsmStore::open(StoreOptions {
            memtable_bytes: 1 << 14, // small to force flushes
            compaction_threshold: 4,
            ..StoreOptions::in_memory()
        })
        .unwrap()
    }

    fn kv(i: u32) -> (String, String) {
        (format!("key-{i:06}"), format!("value-{i}"))
    }

    #[test]
    fn put_get_roundtrip() {
        let s = mem_store();
        for i in 0..100 {
            let (k, v) = kv(i);
            s.put(k, v).unwrap();
        }
        for i in 0..100 {
            let (k, v) = kv(i);
            assert_eq!(s.get(k.as_bytes()).unwrap().as_deref(), Some(v.as_bytes()));
        }
        assert_eq!(s.get(b"absent").unwrap(), None);
    }

    #[test]
    fn flush_preserves_reads() {
        let s = mem_store();
        for i in 0..50 {
            let (k, v) = kv(i);
            s.put(k, v).unwrap();
        }
        s.flush().unwrap();
        assert_eq!(s.memtable_len(), 0);
        assert!(s.n_tables() >= 1);
        let (k, v) = kv(25);
        assert_eq!(s.get(k.as_bytes()).unwrap().as_deref(), Some(v.as_bytes()));
    }

    #[test]
    fn overwrite_across_flush_reads_newest() {
        let s = mem_store();
        s.put("k", "old").unwrap();
        s.flush().unwrap();
        s.put("k", "new").unwrap();
        assert_eq!(s.get(b"k").unwrap().as_deref(), Some(&b"new"[..]));
        s.flush().unwrap();
        assert_eq!(s.get(b"k").unwrap().as_deref(), Some(&b"new"[..]));
    }

    #[test]
    fn delete_shadows_flushed_value() {
        let s = mem_store();
        s.put("k", "v").unwrap();
        s.flush().unwrap();
        s.delete("k").unwrap();
        assert_eq!(s.get(b"k").unwrap(), None);
        s.flush().unwrap();
        assert_eq!(s.get(b"k").unwrap(), None);
        let entries = s.scan(KeyRange::all()).unwrap();
        assert!(entries.is_empty());
    }

    #[test]
    fn scan_merges_memtable_and_tables() {
        let s = mem_store();
        s.put("a", "1").unwrap();
        s.flush().unwrap();
        s.put("c", "3").unwrap();
        s.flush().unwrap();
        s.put("b", "2").unwrap(); // stays in memtable
        let entries = s.scan(KeyRange::all()).unwrap();
        let keys: Vec<_> = entries.iter().map(|e| e.key.as_ref().to_vec()).collect();
        assert_eq!(keys, vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec()]);
    }

    #[test]
    fn scan_range_bounds() {
        let s = mem_store();
        for i in 0..100 {
            let (k, v) = kv(i);
            s.put(k, v).unwrap();
        }
        s.flush().unwrap();
        let r = KeyRange::new(&b"key-000020"[..], &b"key-000030"[..]);
        let entries = s.scan(r).unwrap();
        assert_eq!(entries.len(), 10);
        assert_eq!(entries[0].key.as_ref(), b"key-000020");
    }

    #[test]
    fn filter_pushdown_skip_and_stop() {
        let s = mem_store();
        for i in 0..100 {
            let (k, v) = kv(i);
            s.put(k, v).unwrap();
        }
        // Keep every third row.
        let every_third = |key: &[u8], _v: &[u8]| {
            let i: u32 = std::str::from_utf8(&key[4..]).unwrap().parse().unwrap();
            if i % 3 == 0 {
                FilterDecision::Keep
            } else {
                FilterDecision::Skip
            }
        };
        let (entries, io) = s.scan_ranges_filtered(&[KeyRange::all()], &every_third).unwrap();
        assert_eq!(entries.len(), 34);
        assert_eq!((io.entries_scanned, io.entries_returned, io.range_scans), (100, 34, 1));
        assert_eq!(s.metrics().snapshot(), io, "the scan's tally is what it published");

        // Stop after the first row.
        let stop_after_first = {
            let seen = std::sync::atomic::AtomicBool::new(false);
            move |_k: &[u8], _v: &[u8]| {
                if seen.swap(true, std::sync::atomic::Ordering::SeqCst) {
                    FilterDecision::Stop
                } else {
                    FilterDecision::Keep
                }
            }
        };
        let (entries, _) = s.scan_ranges_filtered(&[KeyRange::all()], &stop_after_first).unwrap();
        assert_eq!(entries.len(), 1);
    }

    #[test]
    fn multi_range_scan_reads_only_tables_holding_rows_and_stop_ends_one_range() {
        let s = mem_store();
        // Three tables with disjoint key sets, nothing in the memtable.
        for prefix in ["a", "b", "c"] {
            for i in 0..40 {
                s.put(format!("{prefix}-{i:03}"), "v").unwrap();
            }
            s.flush().unwrap();
        }
        assert_eq!(s.n_tables(), 3);
        let range = |lo: &str, hi: &str| KeyRange::new(lo.as_bytes(), hi.as_bytes());

        // Ranges holding no key of any table: no block, no cache look-up.
        let gaps = [range("a-999", "b-000"), range("0", "a-000"), range("b-010x", "b-010y")];
        let (rows, io) = s.scan_ranges_filtered(&gaps, &KeepAll).unwrap();
        assert!(rows.is_empty());
        assert_eq!((io.blocks_read, io.cache_hits, io.cache_misses), (0, 0, 0));
        assert_eq!(io.range_scans, 3);

        // Unsorted and overlapping: the concatenation of the per-range
        // results, in the order given.
        let ranges = [range("c-000", "c-003"), range("a-038", "b-002"), range("b-000", "b-001")];
        let keys: Vec<String> = s
            .scan_ranges_filtered(&ranges, &KeepAll)
            .unwrap()
            .0
            .iter()
            .map(|e| String::from_utf8(e.key.to_vec()).unwrap())
            .collect();
        assert_eq!(keys, ["c-000", "c-001", "c-002", "a-038", "a-039", "b-000", "b-001", "b-000"]);

        // Stop ends the range it fires in; the next range still runs.
        let stop_at_2 = |key: &[u8], _v: &[u8]| {
            if key.ends_with(b"2") {
                FilterDecision::Stop
            } else {
                FilterDecision::Keep
            }
        };
        let ranges = [range("a-000", "a-010"), range("c-011", "c-020")];
        let (kept, _) = s.scan_ranges_filtered(&ranges, &stop_at_2).unwrap();
        let keys: Vec<&[u8]> = kept.iter().map(|e| e.key.as_ref()).collect();
        assert_eq!(keys, [&b"a-000"[..], b"a-001", b"c-011"]);
    }

    #[test]
    fn sorted_ranges_look_each_block_up_once_and_probes_read_nothing() {
        // One table, four 62-byte rows to a 256-byte block.
        let s =
            LsmStore::open(StoreOptions { block_size: 256, ..StoreOptions::in_memory() }).unwrap();
        for i in 0..400 {
            s.put(format!("key-{i:06}"), vec![b'v'; 43]).unwrap();
        }
        s.flush().unwrap();
        s.put("key-000401", "still in the memtable").unwrap();
        let range = |lo: usize, hi: usize| {
            KeyRange::new(format!("key-{lo:06}").into_bytes(), format!("key-{hi:06}").into_bytes())
        };

        // Rows 8..10, 10..11, 11..13, 14..21 and 40..41 sit in blocks 2, 2,
        // 2–3, 3–5 and 10: five ranges, five distinct blocks.
        let ranges = [range(8, 10), range(10, 11), range(11, 13), range(14, 21), range(40, 41)];
        let (rows, io) = s.scan_ranges_filtered(&ranges, &KeepAll).unwrap();
        assert_eq!(rows.len(), 13);
        assert_eq!(io.cache_hits + io.cache_misses, 5, "one look-up per distinct block");

        // The key listing answers from the directory and the memtable.
        let before = s.metrics().snapshot();
        let mut listed = Vec::new();
        s.visit_resident_keys(&range(399, 402), &mut |key| listed.push(key.to_vec()));
        assert_eq!(listed, [b"key-000401".to_vec(), b"key-000399".to_vec()]);
        assert_eq!(s.metrics().snapshot(), before, "a probe moved an I/O counter");
    }

    #[test]
    fn automatic_flush_and_compaction_under_load() {
        let s = mem_store();
        for i in 0..5000 {
            let (k, v) = kv(i);
            s.put(k, v).unwrap();
        }
        assert!(s.n_tables() <= 5, "compaction should bound table count, got {}", s.n_tables());
        // All data still readable.
        for i in (0..5000).step_by(501) {
            let (k, v) = kv(i);
            assert_eq!(s.get(k.as_bytes()).unwrap().as_deref(), Some(v.as_bytes()));
        }
        assert_eq!(s.scan(KeyRange::all()).unwrap().len(), 5000);
    }

    #[test]
    fn compaction_drops_tombstones_and_duplicates() {
        let s = mem_store();
        for i in 0..100 {
            let (k, _) = kv(i);
            s.put(k, "v1").unwrap();
        }
        s.flush().unwrap();
        for i in 0..100 {
            let (k, _) = kv(i);
            s.put(k, "v2").unwrap();
        }
        s.flush().unwrap();
        for i in 0..50 {
            let (k, _) = kv(i);
            s.delete(k).unwrap();
        }
        s.flush().unwrap();
        assert_eq!(s.n_tables(), 3);
        s.compact().unwrap();
        assert_eq!(s.n_tables(), 1);
        assert_eq!(s.table_entries(), 50, "compaction leaves only live rows");
        let entries = s.scan(KeyRange::all()).unwrap();
        assert_eq!(entries.len(), 50);
        assert!(entries.iter().all(|e| e.value.as_ref() == b"v2"));
    }

    #[test]
    fn a_failed_scan_still_publishes_its_tally() {
        let dir = std::env::temp_dir().join(format!("trass-store-fail-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let opts = StoreOptions { block_cache_bytes: 0, ..StoreOptions::at_dir(&dir) };
        let s = LsmStore::open(opts).unwrap();
        for i in 0..50 {
            let (k, v) = kv(i);
            s.put(k, v).unwrap();
        }
        s.flush().unwrap();
        // Flip a byte of the first data block, in place: its CRC fails on read.
        let sst = dir.join(&s.inner.read().file_names[0]);
        let mut bytes = std::fs::read(&sst).unwrap();
        bytes[10] ^= 0xFF;
        std::fs::write(&sst, bytes).unwrap();
        assert!(s.scan(KeyRange::all()).is_err());
        let io = s.metrics().snapshot();
        assert_eq!((io.range_scans, io.blocks_read, io.entries_scanned), (1, 1, 0));
        drop(s);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn disk_store_recovers_after_reopen() {
        let dir = std::env::temp_dir().join(format!("trass-store-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let opts = StoreOptions { memtable_bytes: 1 << 12, ..StoreOptions::at_dir(&dir) };
        {
            let s = LsmStore::open(opts.clone()).unwrap();
            for i in 0..500 {
                let (k, v) = kv(i);
                s.put(k, v).unwrap();
            }
            s.delete("key-000010").unwrap();
            // No explicit flush for the tail: it must come back via WAL.
        }
        {
            let s = LsmStore::open(opts).unwrap();
            let (k, v) = kv(499);
            assert_eq!(s.get(k.as_bytes()).unwrap().as_deref(), Some(v.as_bytes()));
            assert_eq!(s.get(b"key-000010").unwrap(), None);
            assert_eq!(s.scan(KeyRange::all()).unwrap().len(), 499);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn block_cache_serves_repeated_scans() {
        let s = LsmStore::open(StoreOptions {
            memtable_bytes: 1 << 12,
            block_cache_bytes: 4 << 20,
            ..StoreOptions::in_memory()
        })
        .unwrap();
        for i in 0..2000 {
            let (k, v) = kv(i);
            s.put(k, v).unwrap();
        }
        s.flush().unwrap();
        let range = KeyRange::new(&b"key-000100"[..], &b"key-000200"[..]);
        let _ = s.scan(range.clone()).unwrap();
        let (_, warm) = s.scan_ranges_filtered(&[range], &KeepAll).unwrap();
        assert_eq!(warm.blocks_read, 0, "second scan should be fully cached");
        assert!(warm.cache_hits > 0);
        assert!(s.block_cache().unwrap().resident_bytes() > 0);
    }

    #[test]
    fn cache_disabled_reads_blocks_every_time() {
        let s = LsmStore::open(StoreOptions {
            memtable_bytes: 1 << 12,
            block_cache_bytes: 0,
            ..StoreOptions::in_memory()
        })
        .unwrap();
        for i in 0..2000 {
            let (k, v) = kv(i);
            s.put(k, v).unwrap();
        }
        s.flush().unwrap();
        assert!(s.block_cache().is_none());
        let range = KeyRange::new(&b"key-000100"[..], &b"key-000200"[..]);
        let _ = s.scan(range.clone()).unwrap();
        let (_, warm) = s.scan_ranges_filtered(&[range], &KeepAll).unwrap();
        assert!(warm.blocks_read > 0);
        assert_eq!(warm.cache_hits, 0);
    }

    /// Every flush and compaction family reads what the files on disk and a
    /// full scan imply: two flushes of the bytes their two tables hold, then
    /// one compaction that reads exactly the blocks and bytes a cold full
    /// scan reads and writes the one table left.
    #[test]
    fn maintenance_paths_report_to_registry() {
        let dir = std::env::temp_dir().join(format!("trass-store-maint-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let registry = trass_obs::Registry::new_shared();
        let s = LsmStore::open(StoreOptions {
            block_cache_bytes: 0,
            registry: Some(Arc::clone(&registry)),
            shard_label: Some("7".to_string()),
            ..StoreOptions::at_dir(&dir)
        })
        .unwrap();
        let table_bytes = || -> u64 {
            let files = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path());
            let tables = files.filter(|p| p.extension().is_some_and(|e| e == "sst"));
            tables.map(|p| std::fs::metadata(p).unwrap().len()).sum()
        };
        for (from, to) in [(0, 200), (200, 400)] {
            for i in from..to {
                let (k, v) = kv(i);
                s.put(k, v).unwrap();
            }
            s.flush().unwrap();
        }
        let labels = [("shard", "7")];
        let counter = |name: &str| registry.counter(name, &labels).get();
        let timed = |name: &str| registry.timer(name, &labels).count();
        assert_eq!(s.n_tables(), 2);
        assert_eq!((counter("trass_kv_flushes"), timed("trass_kv_flush_seconds")), (2, 2));
        assert_eq!(counter("trass_kv_flush_bytes"), table_bytes());
        // A cold full scan reads every block of both tables once.
        let (rows, cold) = s.scan_ranges_filtered(&[KeyRange::all()], &KeepAll).unwrap();
        assert_eq!((rows.len(), cold.entries_scanned, cold.range_scans), (400, 400, 1));
        s.compact().unwrap();
        assert_eq!((counter("trass_kv_compactions"), timed("trass_kv_compaction_seconds")), (1, 1));
        assert_eq!(counter("trass_kv_compaction_bytes_written"), table_bytes());
        assert_eq!(counter("trass_kv_compaction_blocks_read"), cold.blocks_read);
        assert_eq!(counter("trass_kv_compaction_bytes_read"), cold.bytes_read);
        assert_eq!(counter("trass_kv_compaction_entries_scanned"), 400);
        // Compaction I/O does not leak into the store's query series: they
        // hold the one scan above.
        assert_eq!(s.metrics().snapshot(), cold);
        assert_eq!(counter("trass_kv_entries_scanned"), 400);
        drop(s);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_appends_time_into_registry() {
        let dir = std::env::temp_dir().join(format!("trass-store-obs-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let s = LsmStore::open(StoreOptions::at_dir(&dir)).unwrap();
        for i in 0..50 {
            let (k, v) = kv(i);
            s.put(k, v).unwrap();
        }
        s.delete("key-000000").unwrap();
        let wal = s.registry().timer("trass_kv_wal_append_seconds", &[]);
        assert_eq!(wal.count(), 51);
        drop(s);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_range_scan_is_empty() {
        let s = mem_store();
        s.put("a", "1").unwrap();
        let r = KeyRange::new(&b"x"[..], &b"x"[..]);
        assert!(s.scan(r).unwrap().is_empty());
    }

    #[test]
    fn health_reflects_compaction_backlog() {
        // A live store auto-compacts, so a backlog can only be observed
        // when the on-disk state already has more tables than a (newly
        // tightened) threshold allows — exactly the situation after a
        // config change or a crash loop that kept flushing.
        let dir = std::env::temp_dir().join(format!("trass-store-backlog-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        {
            // Threshold high enough that auto-compaction never fires.
            let s = LsmStore::open(StoreOptions {
                compaction_threshold: 1000,
                ..StoreOptions::at_dir(&dir)
            })
            .unwrap();
            for i in 0..9 {
                s.put(format!("key-{i}"), "v").unwrap();
                s.flush().unwrap();
            }
            assert_eq!(s.n_tables(), 9);
            assert!(s.health().is_ok(), "9 tables is fine at threshold 1000");
        }
        let s = LsmStore::open(StoreOptions {
            compaction_threshold: 2, // backlog limit max(2*4, 8) = 8
            ..StoreOptions::at_dir(&dir)
        })
        .unwrap();
        let err = s.health().expect_err("9 tables over limit 8 must fail");
        assert!(err.contains("compaction backlog"), "{err}");
        s.compact().unwrap();
        assert!(s.health().is_ok(), "compaction clears the backlog");
        drop(s);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn health_checks_data_dir_and_wal() {
        let dir = std::env::temp_dir().join(format!("trass-store-health-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let s = LsmStore::open(StoreOptions::at_dir(&dir)).unwrap();
        s.put("a", "1").unwrap();
        assert!(s.health().is_ok(), "disk store with live WAL must be healthy");
        // Yank the directory out from under the store: writes are doomed,
        // health must say so.
        std::fs::remove_dir_all(&dir).unwrap();
        let err = s.health().expect_err("missing data dir must fail");
        assert!(err.contains("data dir"), "{err}");
        drop(s);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// 1,000 rows shaped like trajectory rows (17-byte `shard + index value
    /// + tid` keys, 3.5 KB values), flushed to one table.
    fn table_bytes_of_fixed_load() -> u64 {
        let dir = std::env::temp_dir().join(format!("trass-store-bytes-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let s = LsmStore::open(StoreOptions::at_dir(&dir)).unwrap();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for tid in 0..1000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let mut key = vec![3u8];
            key.extend_from_slice(&(x >> 24).to_be_bytes());
            key.extend_from_slice(&tid.to_be_bytes());
            let value: Vec<u8> = (0..3500u32).map(|i| (i as u64 ^ x) as u8).collect();
            s.put(key, value).unwrap();
        }
        s.flush().unwrap();
        drop(s);
        let bytes = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "sst"))
            .map(|p| std::fs::metadata(p).unwrap().len())
            .sum();
        std::fs::remove_dir_all(&dir).ok();
        bytes
    }

    #[test]
    fn key_directory_keeps_the_footprint_of_the_format_it_replaced() {
        // The last-key index + bloom filter build stored this load in
        // 3,547,811 bytes; the directory took over both sections' bytes.
        const BEFORE: u64 = 3_547_811;
        let now = table_bytes_of_fixed_load();
        assert!(now * 1000 <= BEFORE * 1002, "{now} bytes is over {BEFORE} + 0.2 %");
    }
}
