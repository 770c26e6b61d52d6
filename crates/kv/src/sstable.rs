//! Immutable sorted-string tables.
//!
//! Layout:
//!
//! ```text
//! [data block]* [index block] [bloom filter] [footer]
//!
//! index  := [n: u32] ([klen: u32][last_key][offset: u64][len: u32])* [crc: u32]
//! footer := [index_off: u64][index_len: u64][bloom_off: u64][bloom_len: u64]
//!           [n_entries: u64][magic: u64]                      (48 bytes)
//! ```
//!
//! The index stores each block's *last* key; binary search for the first
//! block whose last key is `>= target` locates the block that may contain
//! the target. SSTables are immutable once built and can live either on
//! disk or fully in memory ([`SsData`]), which keeps unit tests and
//! benchmark setups hermetic.

use crate::block::{Block, BlockBuilder, BlockEntry};
use crate::bloom::BloomFilter;
use crate::cache::BlockCache;
use crate::crc::crc32c;
use crate::error::{KvError, Result};
use crate::metrics::IoMetrics;
use crate::types::Bytes;
use crate::types::KeyRange;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use trass_obs::sync::Mutex;

/// Process-wide table id source, used as the block-cache key namespace.
static NEXT_TABLE_ID: AtomicU64 = AtomicU64::new(0);

const MAGIC: u64 = 0x7452_6153_5353_5442; // "tRaSSSTB"
const FOOTER_LEN: usize = 48;

/// Where an SSTable's bytes live.
#[derive(Debug)]
pub enum SsData {
    /// Entire table held in memory.
    Mem(Bytes),
    /// Table backed by a file; reads seek under a mutex.
    File(Mutex<File>),
}

impl SsData {
    fn read_at(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        match self {
            SsData::Mem(b) => {
                let start = offset as usize;
                let end = start
                    .checked_add(len)
                    .ok_or_else(|| KvError::corruption("sstable read range overflow"))?;
                if end > b.len() {
                    return Err(KvError::corruption("sstable read past end"));
                }
                Ok(b[start..end].to_vec())
            }
            SsData::File(f) => {
                // The guard *is* the file handle: seek+read must be one
                // atomic unit per reader, and this mutex serialises only
                // this table's handle, never the store lock.
                let mut guard = f.lock();
                guard.seek(SeekFrom::Start(offset))?;
                let mut buf = vec![0u8; len];
                // trass-lint: allow(lock-across-io)
                guard.read_exact(&mut buf)?;
                Ok(buf)
            }
        }
    }

    fn len(&self) -> Result<u64> {
        match self {
            SsData::Mem(b) => Ok(b.len() as u64),
            SsData::File(f) => Ok(f.lock().metadata()?.len()),
        }
    }
}

/// One index entry describing a data block.
#[derive(Debug, Clone)]
struct IndexEntry {
    last_key: Bytes,
    offset: u64,
    len: u32,
}

/// Builds an SSTable from strictly-increasing keyed entries.
pub struct SsTableBuilder {
    target_block_size: usize,
    bits_per_key: usize,
    buf: Vec<u8>,
    current: BlockBuilder,
    index: Vec<IndexEntry>,
    keys: Vec<Vec<u8>>,
    last_key: Vec<u8>,
    n_entries: u64,
}

impl SsTableBuilder {
    /// Creates a builder with the given target data-block size (bytes) and
    /// bloom-filter density.
    pub fn new(target_block_size: usize, bits_per_key: usize) -> Self {
        SsTableBuilder {
            target_block_size: target_block_size.max(64),
            bits_per_key,
            buf: Vec::new(),
            current: BlockBuilder::new(),
            index: Vec::new(),
            keys: Vec::new(),
            last_key: Vec::new(),
            n_entries: 0,
        }
    }

    /// Appends an entry (`None` value = tombstone). Keys must be strictly
    /// increasing.
    pub fn add(&mut self, key: &[u8], value: Option<&[u8]>) {
        debug_assert!(
            self.n_entries == 0 || key > self.last_key.as_slice(),
            "sstable keys must be strictly increasing"
        );
        self.current.add(key, value);
        self.keys.push(key.to_vec());
        self.last_key.clear();
        self.last_key.extend_from_slice(key);
        self.n_entries += 1;
        if self.current.encoded_size() >= self.target_block_size {
            self.rotate_block();
        }
    }

    fn rotate_block(&mut self) {
        if self.current.is_empty() {
            return;
        }
        let builder = std::mem::take(&mut self.current);
        let offset = self.buf.len() as u64;
        let encoded = builder.finish();
        self.index.push(IndexEntry {
            last_key: Bytes::copy_from_slice(&self.last_key),
            offset,
            len: encoded.len() as u32,
        });
        self.buf.extend_from_slice(&encoded);
    }

    /// Number of entries added so far.
    pub fn len(&self) -> u64 {
        self.n_entries
    }

    /// True when nothing was added.
    pub fn is_empty(&self) -> bool {
        self.n_entries == 0
    }

    /// Seals the table and returns its encoded bytes.
    pub fn finish(mut self) -> Vec<u8> {
        self.rotate_block();

        // Index block.
        let index_off = self.buf.len() as u64;
        let mut index_buf = Vec::new();
        index_buf.extend_from_slice(&(self.index.len() as u32).to_le_bytes());
        for e in &self.index {
            index_buf.extend_from_slice(&(e.last_key.len() as u32).to_le_bytes());
            index_buf.extend_from_slice(&e.last_key);
            index_buf.extend_from_slice(&e.offset.to_le_bytes());
            index_buf.extend_from_slice(&e.len.to_le_bytes());
        }
        let index_crc = crc32c(&index_buf);
        index_buf.extend_from_slice(&index_crc.to_le_bytes());
        let index_len = index_buf.len() as u64;
        self.buf.extend_from_slice(&index_buf);

        // Bloom filter (CRC-protected: a corrupt filter could cause false
        // negatives, i.e. silently missing data).
        let bloom_off = self.buf.len() as u64;
        let bloom = BloomFilter::build(
            self.keys.iter().map(|k| k.as_slice()),
            self.keys.len(),
            self.bits_per_key,
        );
        let mut bloom_buf = bloom.encode();
        let bloom_crc = crc32c(&bloom_buf);
        bloom_buf.extend_from_slice(&bloom_crc.to_le_bytes());
        let bloom_len = bloom_buf.len() as u64;
        self.buf.extend_from_slice(&bloom_buf);

        // Footer.
        self.buf.extend_from_slice(&index_off.to_le_bytes());
        self.buf.extend_from_slice(&index_len.to_le_bytes());
        self.buf.extend_from_slice(&bloom_off.to_le_bytes());
        self.buf.extend_from_slice(&bloom_len.to_le_bytes());
        self.buf.extend_from_slice(&self.n_entries.to_le_bytes());
        self.buf.extend_from_slice(&MAGIC.to_le_bytes());
        self.buf
    }
}

/// An open, immutable SSTable.
pub struct SsTable {
    /// Process-unique id (block-cache key namespace).
    id: u64,
    data: SsData,
    index: Vec<IndexEntry>,
    bloom: BloomFilter,
    n_entries: u64,
    min_key: Bytes,
    max_key: Bytes,
    cache: Option<Arc<BlockCache>>,
}

impl std::fmt::Debug for SsTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SsTable")
            .field("blocks", &self.index.len())
            .field("entries", &self.n_entries)
            .finish()
    }
}

impl SsTable {
    /// Opens an SSTable from in-memory bytes, uncached.
    pub fn open_mem(bytes: Bytes) -> Result<Arc<Self>> {
        Self::open(SsData::Mem(bytes), None)
    }

    /// Opens an SSTable from in-memory bytes with a shared block cache.
    pub fn open_mem_cached(bytes: Bytes, cache: Arc<BlockCache>) -> Result<Arc<Self>> {
        Self::open(SsData::Mem(bytes), Some(cache))
    }

    /// Opens an SSTable file from disk, uncached.
    pub fn open_file(path: &Path) -> Result<Arc<Self>> {
        let file = File::open(path)?;
        Self::open(SsData::File(Mutex::new(file)), None)
    }

    /// Opens an SSTable file from disk with a shared block cache.
    pub fn open_file_cached(path: &Path, cache: Arc<BlockCache>) -> Result<Arc<Self>> {
        let file = File::open(path)?;
        Self::open(SsData::File(Mutex::new(file)), Some(cache))
    }

    fn open(data: SsData, cache: Option<Arc<BlockCache>>) -> Result<Arc<Self>> {
        let total = data.len()?;
        if (total as usize) < FOOTER_LEN {
            return Err(KvError::corruption("sstable shorter than footer"));
        }
        let footer = data.read_at(total - FOOTER_LEN as u64, FOOTER_LEN)?;
        let u64_at = |i: usize| crate::codec::u64_le(&footer, i * 8, "sstable footer");
        let (index_off, index_len) = (u64_at(0)?, u64_at(1)?);
        let (bloom_off, bloom_len) = (u64_at(2)?, u64_at(3)?);
        let n_entries = u64_at(4)?;
        if u64_at(5)? != MAGIC {
            return Err(KvError::corruption("sstable bad magic"));
        }
        if index_off.checked_add(index_len).map_or(true, |e| e > total)
            || bloom_off.checked_add(bloom_len).map_or(true, |e| e > total)
        {
            return Err(KvError::corruption("sstable footer offsets out of range"));
        }

        // Index.
        let index_buf = data.read_at(index_off, index_len as usize)?;
        if index_buf.len() < 8 {
            return Err(KvError::corruption("sstable index truncated"));
        }
        let (body, _) = index_buf.split_at(index_buf.len() - 4);
        let stored = crate::codec::u32_le(&index_buf, index_buf.len() - 4, "sstable index crc")?;
        if crc32c(body) != stored {
            return Err(KvError::corruption("sstable index checksum mismatch"));
        }
        let n_blocks = crate::codec::u32_le(body, 0, "sstable index count")? as usize;
        let mut index = Vec::with_capacity(n_blocks);
        let mut pos = 4usize;
        for _ in 0..n_blocks {
            if pos + 4 > body.len() {
                return Err(KvError::corruption("sstable index entry truncated"));
            }
            let klen = crate::codec::u32_le(body, pos, "sstable index klen")? as usize;
            pos += 4;
            if pos + klen + 12 > body.len() {
                return Err(KvError::corruption("sstable index entry truncated"));
            }
            let last_key = Bytes::copy_from_slice(&body[pos..pos + klen]);
            pos += klen;
            let offset = crate::codec::u64_le(body, pos, "sstable index offset")?;
            pos += 8;
            let len = crate::codec::u32_le(body, pos, "sstable index block len")?;
            pos += 4;
            index.push(IndexEntry { last_key, offset, len });
        }
        if pos != body.len() {
            return Err(KvError::corruption("sstable index trailing bytes"));
        }

        // Bloom.
        let bloom_buf = data.read_at(bloom_off, bloom_len as usize)?;
        if bloom_buf.len() < 4 {
            return Err(KvError::corruption("sstable bloom section truncated"));
        }
        let (bloom_body, _) = bloom_buf.split_at(bloom_buf.len() - 4);
        let bloom_stored =
            crate::codec::u32_le(&bloom_buf, bloom_buf.len() - 4, "sstable bloom crc")?;
        if crc32c(bloom_body) != bloom_stored {
            return Err(KvError::corruption("sstable bloom checksum mismatch"));
        }
        let bloom = BloomFilter::decode(bloom_body)
            .ok_or_else(|| KvError::corruption("sstable bloom filter invalid"))?;

        // Min key: first key of first block (decode it once at open).
        let (min_key, max_key) = match (index.first(), index.last()) {
            (Some(first), Some(last)) => {
                let block = Block::decode(&data.read_at(first.offset, first.len as usize)?)?;
                let min = block.entries().first().map(|e| e.key.clone()).unwrap_or_default();
                (min, last.last_key.clone())
            }
            _ => (Bytes::new(), Bytes::new()),
        };

        Ok(Arc::new(SsTable {
            id: NEXT_TABLE_ID.fetch_add(1, Ordering::Relaxed),
            data,
            index,
            bloom,
            n_entries,
            min_key,
            max_key,
            cache,
        }))
    }

    /// Total logical entries (including tombstones).
    pub fn n_entries(&self) -> u64 {
        self.n_entries
    }

    /// Smallest key in the table.
    pub fn min_key(&self) -> &Bytes {
        &self.min_key
    }

    /// Largest key in the table.
    pub fn max_key(&self) -> &Bytes {
        &self.max_key
    }

    /// Number of data blocks.
    pub fn n_blocks(&self) -> usize {
        self.index.len()
    }

    fn read_block(&self, i: usize, metrics: &IoMetrics) -> Result<Arc<Block>> {
        let key = (self.id, i as u32);
        if let Some(cache) = &self.cache {
            if let Some(block) = cache.get(key) {
                metrics.record_cache_hit();
                return Ok(block);
            }
            metrics.record_cache_miss();
        }
        let e = &self.index[i];
        let raw = self.data.read_at(e.offset, e.len as usize)?;
        metrics.record_block_read(raw.len());
        let block = Arc::new(Block::decode(&raw)?);
        if let Some(cache) = &self.cache {
            cache.insert(key, Arc::clone(&block), raw.len());
        }
        Ok(block)
    }

    /// Index of the first block that may contain `key`.
    fn block_for(&self, key: &[u8]) -> usize {
        self.index.partition_point(|e| e.last_key.as_ref() < key)
    }

    /// Point lookup. Returns `Ok(None)` when absent, `Ok(Some(None))` for a
    /// tombstone, `Ok(Some(Some(v)))` for a live value.
    pub fn get(&self, key: &[u8], metrics: &IoMetrics) -> Result<Option<Option<Bytes>>> {
        if self.index.is_empty() || key < self.min_key.as_ref() || key > self.max_key.as_ref() {
            return Ok(None);
        }
        metrics.record_bloom_probe();
        if !self.bloom.may_contain(key) {
            metrics.record_bloom_skip();
            return Ok(None);
        }
        let bi = self.block_for(key);
        if bi >= self.index.len() {
            return Ok(None);
        }
        let block = self.read_block(bi, metrics)?;
        Ok(block.get(key).map(|e| e.value.clone()))
    }

    /// Creates an *owning* scan over `range`: it keeps the table and
    /// metrics alive itself, so it can outlive the store lock (used by
    /// snapshot scans).
    pub fn scan_owned(self: Arc<Self>, range: KeyRange, metrics: Arc<IoMetrics>) -> OwnedScan {
        let start_block =
            if self.index.is_empty() { 0 } else { self.block_for(range.start.as_ref()) };
        OwnedScan {
            table: self,
            metrics,
            range,
            next_block: start_block,
            current: None,
            pos: 0,
            done: false,
        }
    }

    /// Creates a scanning iterator over `range`.
    pub fn scan<'a>(
        self: &'a Arc<Self>,
        range: KeyRange,
        metrics: &'a IoMetrics,
    ) -> SsTableScan<'a> {
        let start_block =
            if self.index.is_empty() { 0 } else { self.block_for(range.start.as_ref()) };
        SsTableScan {
            table: self,
            metrics,
            range,
            next_block: start_block,
            current: None,
            pos: 0,
            done: false,
        }
    }
}

/// Iterator over the entries of one SSTable within a key range.
pub struct SsTableScan<'a> {
    table: &'a Arc<SsTable>,
    metrics: &'a IoMetrics,
    range: KeyRange,
    next_block: usize,
    current: Option<Arc<Block>>,
    pos: usize,
    done: bool,
}

impl Iterator for SsTableScan<'_> {
    type Item = Result<BlockEntry>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        loop {
            if let Some(block) = &self.current {
                while self.pos < block.entries().len() {
                    let e = &block.entries()[self.pos];
                    self.pos += 1;
                    if e.key.as_ref() < self.range.start.as_ref() {
                        continue;
                    }
                    if let Some(end) = &self.range.end {
                        if e.key.as_ref() >= end.as_ref() {
                            self.done = true;
                            return None;
                        }
                    }
                    return Some(Ok(e.clone()));
                }
                self.current = None;
            }
            if self.next_block >= self.table.index.len() {
                self.done = true;
                return None;
            }
            match self.table.read_block(self.next_block, self.metrics) {
                Ok(block) => {
                    // Skip within the block to the range start.
                    self.pos = block.lower_bound(self.range.start.as_ref());
                    self.current = Some(block);
                    self.next_block += 1;
                }
                Err(e) => {
                    self.done = true;
                    return Some(Err(e));
                }
            }
        }
    }
}

/// Owning variant of [`SsTableScan`]: holds `Arc`s instead of borrows so
/// snapshot scans can stream after the store lock is released.
pub struct OwnedScan {
    table: Arc<SsTable>,
    metrics: Arc<IoMetrics>,
    range: KeyRange,
    next_block: usize,
    current: Option<Arc<Block>>,
    pos: usize,
    done: bool,
}

impl Iterator for OwnedScan {
    type Item = Result<BlockEntry>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        loop {
            if let Some(block) = &self.current {
                while self.pos < block.entries().len() {
                    let e = &block.entries()[self.pos];
                    self.pos += 1;
                    if e.key.as_ref() < self.range.start.as_ref() {
                        continue;
                    }
                    if let Some(end) = &self.range.end {
                        if e.key.as_ref() >= end.as_ref() {
                            self.done = true;
                            return None;
                        }
                    }
                    return Some(Ok(e.clone()));
                }
                self.current = None;
            }
            if self.next_block >= self.table.index.len() {
                self.done = true;
                return None;
            }
            match self.table.read_block(self.next_block, &self.metrics) {
                Ok(block) => {
                    self.pos = block.lower_bound(self.range.start.as_ref());
                    self.current = Some(block);
                    self.next_block += 1;
                }
                Err(e) => {
                    self.done = true;
                    return Some(Err(e));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(n: usize, block_size: usize) -> Arc<SsTable> {
        let mut b = SsTableBuilder::new(block_size, 10);
        for i in 0..n {
            let key = format!("key-{i:06}");
            if i % 17 == 3 {
                b.add(key.as_bytes(), None); // sprinkle tombstones
            } else {
                let value = format!("value-{i}");
                b.add(key.as_bytes(), Some(value.as_bytes()));
            }
        }
        SsTable::open_mem(Bytes::from(b.finish())).unwrap()
    }

    #[test]
    fn point_lookups() {
        let t = build(1000, 512);
        let m = IoMetrics::default();
        assert_eq!(t.get(b"key-000042", &m).unwrap().unwrap().as_deref(), Some(&b"value-42"[..]));
        assert_eq!(t.get(b"key-000003", &m).unwrap(), Some(None), "tombstone visible");
        assert_eq!(t.get(b"key-999999", &m).unwrap(), None);
        assert_eq!(t.get(b"absent", &m).unwrap(), None);
    }

    #[test]
    fn min_max_keys() {
        let t = build(100, 256);
        assert_eq!(t.min_key().as_ref(), b"key-000000");
        assert_eq!(t.max_key().as_ref(), b"key-000099");
        assert_eq!(t.n_entries(), 100);
        assert!(t.n_blocks() > 1, "should span multiple blocks");
    }

    #[test]
    fn full_scan_returns_everything_in_order() {
        let t = build(500, 256);
        let m = IoMetrics::default();
        let entries: Vec<_> = t.scan(KeyRange::all(), &m).map(|e| e.unwrap()).collect();
        assert_eq!(entries.len(), 500);
        for w in entries.windows(2) {
            assert!(w[0].key < w[1].key);
        }
        assert!(m.blocks_read() as usize >= t.n_blocks());
    }

    #[test]
    fn range_scan_respects_bounds() {
        let t = build(1000, 512);
        let m = IoMetrics::default();
        let range = KeyRange::new(&b"key-000100"[..], &b"key-000200"[..]);
        let entries: Vec<_> = t.scan(range, &m).map(|e| e.unwrap()).collect();
        assert_eq!(entries.len(), 100);
        assert_eq!(entries[0].key.as_ref(), b"key-000100");
        assert_eq!(entries.last().unwrap().key.as_ref(), b"key-000199");
    }

    #[test]
    fn range_scan_skips_unneeded_blocks() {
        let t = build(10_000, 512);
        let m = IoMetrics::default();
        let range = KeyRange::new(&b"key-005000"[..], &b"key-005010"[..]);
        let n = t.scan(range, &m).count();
        assert_eq!(n, 10);
        assert!(
            (m.blocks_read() as usize) < t.n_blocks() / 10,
            "read {} of {} blocks",
            m.blocks_read(),
            t.n_blocks()
        );
    }

    #[test]
    fn bloom_avoids_block_reads_for_absent_keys() {
        let t = build(10_000, 512);
        let m = IoMetrics::default();
        for i in 0..1000 {
            // Absent keys *inside* the table's key range, so the min/max
            // check cannot short-circuit before the bloom filter.
            let key = format!("key-{i:06}x");
            let _ = t.get(key.as_bytes(), &m).unwrap();
        }
        assert!(m.bloom_skips() > 900, "bloom skips: {}", m.bloom_skips());
    }

    #[test]
    fn empty_table() {
        let t = SsTable::open_mem(Bytes::from(SsTableBuilder::new(4096, 10).finish())).unwrap();
        let m = IoMetrics::default();
        assert_eq!(t.n_entries(), 0);
        assert_eq!(t.get(b"x", &m).unwrap(), None);
        assert_eq!(t.scan(KeyRange::all(), &m).count(), 0);
    }

    #[test]
    fn corrupt_footer_rejected() {
        let mut bytes = {
            let mut b = SsTableBuilder::new(4096, 10);
            b.add(b"a", Some(b"1"));
            b.finish()
        };
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF; // clobber magic
        assert!(SsTable::open_mem(Bytes::from(bytes)).is_err());
    }

    #[test]
    fn corrupt_index_rejected() {
        let mut bytes = {
            let mut b = SsTableBuilder::new(64, 10);
            for i in 0..100 {
                let k = format!("k{i:04}");
                b.add(k.as_bytes(), Some(b"v"));
            }
            b.finish()
        };
        // Index sits between data and footer; flip a byte near the end of
        // the data+index region.
        let n = bytes.len();
        bytes[n - FOOTER_LEN - 10] ^= 0xFF;
        assert!(SsTable::open_mem(Bytes::from(bytes)).is_err());
    }

    #[test]
    fn file_backed_table_roundtrip() {
        let dir = std::env::temp_dir().join(format!("trass-kv-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test.sst");
        let mut b = SsTableBuilder::new(256, 10);
        for i in 0..200 {
            let k = format!("key-{i:04}");
            let v = format!("val-{i}");
            b.add(k.as_bytes(), Some(v.as_bytes()));
        }
        std::fs::write(&path, b.finish()).unwrap();
        let t = SsTable::open_file(&path).unwrap();
        let m = IoMetrics::default();
        assert_eq!(t.get(b"key-0123", &m).unwrap().unwrap().as_deref(), Some(&b"val-123"[..]));
        assert_eq!(t.scan(KeyRange::all(), &m).count(), 200);
        std::fs::remove_dir_all(&dir).ok();
    }
}
