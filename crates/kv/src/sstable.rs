//! Immutable sorted-string tables.
//!
//! Layout:
//!
//! ```text
//! [data block]* [key directory] [footer]
//!
//! directory := [n_blocks: u32] block* [crc: u32]
//! block     := [offset: varint][len: varint][n_keys: varint] key{n_keys}
//! key       := [shared: varint][suffix_len: varint][suffix]
//! footer    := [dir_off: u64][dir_len: u64][n_entries: u64][magic: u64]   (32 bytes)
//! ```
//!
//! The directory is the table's index and it is row-granular: every key
//! of every block, prefix-compressed against the key before it, loaded
//! resident at open. A range or a point lookup is resolved to
//! `(block, slot, row count)` by binary search over the directory before
//! any I/O, so a range holding no key of this table touches no block and
//! no cache entry, and one holding rows reads exactly the blocks they sit
//! in. The low byte of `magic` is the format version; a table carrying
//! another version is refused with [`KvError::UnsupportedFormat`].
//! SSTables are immutable once built and can live either on disk or fully
//! in memory ([`SsData`]), which keeps unit tests and benchmark setups
//! hermetic.

use crate::block::{Block, BlockBuilder, BlockEntry};
use crate::cache::BlockCache;
use crate::codec::{put_varint, u32_le, u64_le, varint};
use crate::crc::crc32c;
use crate::error::{KvError, Result};
use crate::metrics::MetricsSnapshot;
use crate::types::Bytes;
use crate::types::KeyRange;
use std::cell::RefCell;
use std::fs::File;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Process-wide table id source, used as the block-cache key namespace.
static NEXT_TABLE_ID: AtomicU64 = AtomicU64::new(0);

/// The version this build reads and writes: 2, the key-directory layout.
/// Its predecessor (last-key index block, bloom filter section, 48-byte
/// footer) carried `0x42` in the same byte.
const FORMAT_VERSION: u8 = 2;
/// "tRaSSST" above the version byte.
const MAGIC: u64 = 0x7452_6153_5353_5400 | FORMAT_VERSION as u64;
const FOOTER_LEN: usize = 32;

/// Where an SSTable's bytes live.
#[derive(Debug)]
pub enum SsData {
    /// Entire table held in memory.
    Mem(Bytes),
    /// Table backed by a file, read with positioned reads: readers share
    /// the handle without a lock, since no read moves a file cursor.
    File(File),
}

impl SsData {
    fn read_at(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        match self {
            SsData::Mem(b) => {
                let range = usize::try_from(offset)
                    .ok()
                    .and_then(|start| Some(start..start.checked_add(len)?))
                    .ok_or_else(|| KvError::corruption("sstable read range overflow"))?;
                let bytes =
                    b.get(range).ok_or_else(|| KvError::corruption("sstable read past end"))?;
                Ok(bytes.to_vec())
            }
            SsData::File(f) => {
                let mut buf = vec![0u8; len];
                f.read_exact_at(&mut buf, offset)?;
                Ok(buf)
            }
        }
    }

    fn len(&self) -> Result<u64> {
        match self {
            SsData::Mem(b) => Ok(b.len() as u64),
            SsData::File(f) => Ok(f.metadata()?.len()),
        }
    }
}

/// Builds an SSTable from strictly-increasing keyed entries.
pub struct SsTableBuilder {
    target_block_size: usize,
    buf: Vec<u8>,
    current: BlockBuilder,
    /// Encoded directory entries of the sealed blocks.
    dir: Vec<u8>,
    n_blocks: u32,
    /// Encoded keys of the block being built.
    block_keys: Vec<u8>,
    last_key: Vec<u8>,
    n_entries: u64,
}

impl SsTableBuilder {
    /// Creates a builder with the given target data-block size (bytes).
    pub fn new(target_block_size: usize) -> Self {
        SsTableBuilder {
            target_block_size: target_block_size.max(64),
            buf: Vec::new(),
            current: BlockBuilder::new(),
            dir: Vec::new(),
            n_blocks: 0,
            block_keys: Vec::new(),
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
        let shared = self.last_key.iter().zip(key).take_while(|(a, b)| a == b).count();
        let suffix = key.get(shared..).unwrap_or_default();
        put_varint(&mut self.block_keys, shared as u64);
        put_varint(&mut self.block_keys, suffix.len() as u64);
        self.block_keys.extend_from_slice(suffix);
        self.last_key.truncate(shared);
        self.last_key.extend_from_slice(suffix);
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
        let n_keys = builder.len();
        let encoded = builder.finish();
        put_varint(&mut self.dir, self.buf.len() as u64);
        put_varint(&mut self.dir, encoded.len() as u64);
        put_varint(&mut self.dir, u64::from(n_keys));
        self.dir.append(&mut self.block_keys);
        self.n_blocks += 1;
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

        // Key directory, CRC-protected: a damaged directory would resolve
        // ranges to the wrong rows, i.e. silently missing data.
        let dir_off = self.buf.len();
        self.buf.extend_from_slice(&self.n_blocks.to_le_bytes());
        self.buf.append(&mut self.dir);
        let dir_crc = crc32c(self.buf.get(dir_off..).unwrap_or_default());
        self.buf.extend_from_slice(&dir_crc.to_le_bytes());
        let dir_len = self.buf.len() - dir_off;

        // Footer.
        self.buf.extend_from_slice(&(dir_off as u64).to_le_bytes());
        self.buf.extend_from_slice(&(dir_len as u64).to_le_bytes());
        self.buf.extend_from_slice(&self.n_entries.to_le_bytes());
        self.buf.extend_from_slice(&MAGIC.to_le_bytes());
        self.buf
    }
}

/// Location of one data block and the ordinal of its first row.
#[derive(Debug, Clone, Copy)]
struct BlockLoc {
    offset: u64,
    len: u32,
    first_row: u32,
}

/// The resident key directory: every key of the table in one contiguous
/// buffer, addressed by row ordinal.
#[derive(Debug)]
struct Directory {
    /// All keys, concatenated in order.
    keys: Vec<u8>,
    /// Row `r`'s key is `keys[key_off[r]..key_off[r + 1]]`.
    key_off: Vec<u32>,
    blocks: Vec<BlockLoc>,
}

impl Directory {
    /// Decodes the checksum-verified directory body; `data_len` bounds
    /// the block locations.
    fn decode(body: &[u8], data_len: u64) -> Result<Self> {
        let truncated = || KvError::corruption("sstable directory truncated");
        let too_big = |_| KvError::corruption("sstable directory exceeds u32 addressing");
        let n_blocks = u32_le(body, 0, "sstable directory block count")? as usize;
        let mut pos = 4usize;
        // Every block costs at least 5 bytes here, which bounds the
        // allocation by the section's length.
        if n_blocks > body.len() / 5 {
            return Err(truncated());
        }
        let mut dir = Directory {
            keys: Vec::with_capacity(body.len()),
            key_off: vec![0],
            blocks: Vec::with_capacity(n_blocks),
        };
        let mut key_start = 0usize;
        for _ in 0..n_blocks {
            let offset = varint(body, &mut pos, "sstable block offset")?;
            let len = varint(body, &mut pos, "sstable block len")?;
            let n_keys = varint(body, &mut pos, "sstable block key count")?;
            if n_keys == 0 || offset.checked_add(len).map_or(true, |e| e > data_len) {
                return Err(KvError::corruption("sstable directory block out of range"));
            }
            dir.blocks.push(BlockLoc {
                offset,
                len: u32::try_from(len).map_err(too_big)?,
                first_row: u32::try_from(dir.key_off.len() - 1).map_err(too_big)?,
            });
            for _ in 0..n_keys {
                let shared = varint(body, &mut pos, "sstable key shared len")? as usize;
                let suffix_len = varint(body, &mut pos, "sstable key suffix len")? as usize;
                let suffix = pos.checked_add(suffix_len).and_then(|end| body.get(pos..end));
                let suffix = suffix.ok_or_else(truncated)?;
                pos += suffix_len;
                let prev_end = dir.keys.len();
                if shared > prev_end - key_start {
                    return Err(KvError::corruption(
                        "sstable key shares more than its predecessor",
                    ));
                }
                dir.keys.extend_from_within(key_start..key_start + shared);
                dir.keys.extend_from_slice(suffix);
                key_start = prev_end;
                dir.key_off.push(u32::try_from(dir.keys.len()).map_err(too_big)?);
            }
        }
        if pos != body.len() {
            return Err(KvError::corruption("sstable directory trailing bytes"));
        }
        dir.keys.shrink_to_fit();
        Ok(dir)
    }

    fn n_rows(&self) -> usize {
        self.key_off.len() - 1
    }

    fn key(&self, row: usize) -> &[u8] {
        // trass-lint: allow(panic-surface) `key_off` is the prefix sum `Directory::decode` builds over `keys`, and callers pass `row < n_rows()`
        &self.keys[self.key_off[row] as usize..self.key_off[row + 1] as usize]
    }

    /// Ordinal of the first row with key `>= key`.
    fn lower_bound(&self, key: &[u8]) -> usize {
        let (mut lo, mut hi) = (0, self.n_rows());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.key(mid) < key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// `(block, slot)` of row `row`, which must be `< n_rows()`.
    fn locate(&self, row: usize) -> (usize, usize) {
        let block = self.blocks.partition_point(|b| b.first_row as usize <= row) - 1;
        (block, row - self.blocks[block].first_row as usize)
    }

    /// Keys the directory records for block `i`.
    fn block_rows(&self, i: usize) -> usize {
        let end = self.blocks.get(i + 1).map_or(self.n_rows(), |b| b.first_row as usize);
        end - self.blocks[i].first_row as usize
    }
}

/// One table's part of one multi-range scan: the block its cursor decoded
/// last, carried across the ranges (two ranges meeting inside a block look
/// it up in the cache once), and the tally of the I/O its cursors did.
#[derive(Default)]
pub struct BlockMemo(RefCell<Memo>);

#[derive(Default)]
struct Memo {
    last: Option<(usize, Arc<Block>)>,
    io: MetricsSnapshot,
}

impl BlockMemo {
    /// Blocks, bytes and cache look-ups of the cursors that used this memo.
    pub fn io(&self) -> MetricsSnapshot {
        self.0.borrow().io
    }
}

/// An open, immutable SSTable.
pub struct SsTable {
    /// Process-unique id (block-cache key namespace).
    id: u64,
    data: SsData,
    dir: Directory,
    cache: Option<Arc<BlockCache>>,
}

impl std::fmt::Debug for SsTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SsTable")
            .field("blocks", &self.dir.blocks.len())
            .field("entries", &self.dir.n_rows())
            .finish()
    }
}

impl SsTable {
    /// Opens an SSTable from in-memory bytes, reading blocks through the
    /// shared `cache` when one is given.
    pub fn open_mem(bytes: Bytes, cache: Option<Arc<BlockCache>>) -> Result<Arc<Self>> {
        Self::open(SsData::Mem(bytes), cache)
    }

    /// Opens an SSTable file from disk, reading blocks through the shared
    /// `cache` when one is given.
    pub fn open_file(path: &Path, cache: Option<Arc<BlockCache>>) -> Result<Arc<Self>> {
        Self::open(SsData::File(File::open(path)?), cache)
    }

    fn open(data: SsData, cache: Option<Arc<BlockCache>>) -> Result<Arc<Self>> {
        let total = data.len()?;
        if total < FOOTER_LEN as u64 {
            return Err(KvError::corruption("sstable shorter than footer"));
        }
        let footer = data.read_at(total - FOOTER_LEN as u64, FOOTER_LEN)?;
        let u64_at = |i: usize| u64_le(&footer, i * 8, "sstable footer");
        let (dir_off, dir_len, n_entries, magic) = (u64_at(0)?, u64_at(1)?, u64_at(2)?, u64_at(3)?);
        if magic >> 8 != MAGIC >> 8 {
            return Err(KvError::corruption("sstable bad magic"));
        }
        if magic as u8 != FORMAT_VERSION {
            return Err(KvError::UnsupportedFormat {
                found: magic as u8,
                supported: FORMAT_VERSION,
            });
        }
        if dir_off.checked_add(dir_len) != Some(total - FOOTER_LEN as u64) || dir_len < 8 {
            return Err(KvError::corruption("sstable footer offsets out of range"));
        }

        let dir_buf = data.read_at(dir_off, dir_len as usize)?;
        let (body, _) = dir_buf.split_at(dir_buf.len() - 4);
        if crc32c(body) != u32_le(&dir_buf, body.len(), "sstable directory crc")? {
            return Err(KvError::corruption("sstable directory checksum mismatch"));
        }
        let dir = Directory::decode(body, dir_off)?;
        if dir.n_rows() as u64 != n_entries {
            return Err(KvError::corruption("sstable entry count disagrees with directory"));
        }

        Ok(Arc::new(SsTable {
            id: NEXT_TABLE_ID.fetch_add(1, Ordering::Relaxed),
            data,
            dir,
            cache,
        }))
    }

    /// Total logical entries (including tombstones).
    pub fn n_entries(&self) -> u64 {
        self.dir.n_rows() as u64
    }

    /// Smallest key in the table (empty for an empty table).
    pub fn min_key(&self) -> &[u8] {
        match self.dir.n_rows() {
            0 => &[],
            _ => self.dir.key(0),
        }
    }

    /// Largest key in the table (empty for an empty table).
    pub fn max_key(&self) -> &[u8] {
        match self.dir.n_rows() {
            0 => &[],
            n => self.dir.key(n - 1),
        }
    }

    /// Number of data blocks.
    pub fn n_blocks(&self) -> usize {
        self.dir.blocks.len()
    }

    /// Block `i`, from the cache or the table's bytes, with the look-up
    /// and the read added to `io`.
    fn read_block(&self, i: usize, io: &mut MetricsSnapshot) -> Result<Arc<Block>> {
        let key = (self.id, i as u32);
        if let Some(cache) = &self.cache {
            if let Some(block) = cache.get(key) {
                io.cache_hits += 1;
                return Ok(block);
            }
            io.cache_misses += 1;
        }
        let loc = &self.dir.blocks[i];
        let raw = self.data.read_at(loc.offset, loc.len as usize)?;
        let raw_len = raw.len();
        io.blocks_read += 1;
        io.bytes_read += raw_len as u64;
        let block = Arc::new(Block::decode(Bytes::from(raw))?);
        // Cursors address rows by directory slot, so the two must agree
        // before the block is handed out or cached.
        if block.entries().len() != self.dir.block_rows(i) {
            return Err(KvError::corruption("sstable block disagrees with directory"));
        }
        if let Some(cache) = &self.cache {
            cache.insert(key, Arc::clone(&block), raw_len);
        }
        Ok(block)
    }

    /// Point lookup. Returns `Ok(None)` when absent, `Ok(Some(None))` for a
    /// tombstone, `Ok(Some(Some(v)))` for a live value. The directory
    /// answers absence exactly, without I/O; a block read is added to `io`.
    pub fn get(&self, key: &[u8], io: &mut MetricsSnapshot) -> Result<Option<Option<Bytes>>> {
        let row = self.dir.lower_bound(key);
        if row == self.dir.n_rows() || self.dir.key(row) != key {
            return Ok(None);
        }
        let (block, slot) = self.dir.locate(row);
        let block = self.read_block(block, io)?;
        match block.entries().get(slot) {
            Some(e) if e.key.as_ref() == key => Ok(Some(e.value.clone())),
            _ => Err(KvError::corruption("sstable block disagrees with directory")),
        }
    }

    /// Row ordinals `[first, end)` of `range`: two binary searches of the
    /// resident directory.
    fn row_span(&self, range: &KeyRange) -> (usize, usize) {
        let first = self.dir.lower_bound(&range.start);
        let end = match &range.end {
            Some(end) => self.dir.lower_bound(end).max(first),
            None => self.dir.n_rows(),
        };
        (first, end)
    }

    /// The keys of the entries (tombstones included) this table holds in
    /// `range`, in order, from the directory alone: no block read, no cache
    /// look-up. Its `len` is their count.
    pub fn keys_in(&self, range: &KeyRange) -> impl ExactSizeIterator<Item = &[u8]> {
        let (first, end) = self.row_span(range);
        (first..end).map(|row| self.dir.key(row))
    }

    /// Creates a cursor over the rows of `range`, resolved against the
    /// directory: no block is touched until the first `next`, and none at
    /// all when [`SsTableScan::remaining`] is 0. The cursor takes its first
    /// block from `memo` when the previous range of the same call ended in
    /// it, leaves the block it read last there, and tallies its I/O there.
    pub fn scan<'a>(&'a self, range: &KeyRange, memo: &'a BlockMemo) -> SsTableScan<'a> {
        let (first, end) = self.row_span(range);
        let (block, slot) = if first < end { self.dir.locate(first) } else { (0, 0) };
        SsTableScan { table: self, memo, block, slot, remaining: end - first }
    }
}

/// Cursor over the entries of one SSTable within a key range.
pub struct SsTableScan<'a> {
    table: &'a SsTable,
    memo: &'a BlockMemo,
    /// Block and slot of the next row.
    block: usize,
    slot: usize,
    remaining: usize,
}

impl SsTableScan<'_> {
    /// Rows this cursor has yet to yield.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// The block of the next row: the memo's when it holds that block (the
    /// cursor's own last one, or the previous range's), otherwise read
    /// through the cache and left in the memo.
    fn load(&self) -> Result<Arc<Block>> {
        let mut memo = self.memo.0.borrow_mut();
        if let Some((_, block)) = memo.last.as_ref().filter(|(i, _)| *i == self.block) {
            return Ok(Arc::clone(block));
        }
        let block = self.table.read_block(self.block, &mut memo.io)?;
        memo.last = Some((self.block, Arc::clone(&block)));
        Ok(block)
    }
}

impl Iterator for SsTableScan<'_> {
    type Item = Result<BlockEntry>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        let block = match self.load() {
            Ok(block) => block,
            Err(e) => {
                self.remaining = 0;
                return Some(Err(e));
            }
        };
        // `read_block` matched the block against the directory, so the
        // slot exists.
        let entry = block.entries().get(self.slot)?.clone();
        self.remaining -= 1;
        self.slot += 1;
        if self.slot == block.entries().len() {
            self.block += 1;
            self.slot = 0;
        }
        Some(Ok(entry))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(n: usize, block_size: usize) -> Arc<SsTable> {
        let mut b = SsTableBuilder::new(block_size);
        for i in 0..n {
            let key = format!("key-{i:06}");
            if i % 17 == 3 {
                b.add(key.as_bytes(), None); // sprinkle tombstones
            } else {
                let value = format!("value-{i}");
                b.add(key.as_bytes(), Some(value.as_bytes()));
            }
        }
        SsTable::open_mem(Bytes::from(b.finish()), None).unwrap()
    }

    /// 62-byte entries against a 256-byte target: exactly four rows per
    /// block, so the blocks a row range occupies can be stated outright.
    fn four_rows_per_block(n: usize) -> Arc<SsTable> {
        let mut b = SsTableBuilder::new(256);
        for i in 0..n {
            b.add(format!("key-{i:06}").as_bytes(), Some(&[b'v'; 43]));
        }
        let cache = Some(BlockCache::new(1 << 20));
        let t = SsTable::open_mem(Bytes::from(b.finish()), cache).unwrap();
        assert_eq!(t.n_blocks() * 4, n);
        t
    }

    fn range(lo: &str, hi: &str) -> KeyRange {
        KeyRange::new(lo.as_bytes(), hi.as_bytes())
    }

    #[test]
    fn point_lookups() {
        let t = build(1000, 512);
        let mut m = MetricsSnapshot::default();
        assert_eq!(
            t.get(b"key-000042", &mut m).unwrap().unwrap().as_deref(),
            Some(&b"value-42"[..])
        );
        assert_eq!(t.get(b"key-000003", &mut m).unwrap(), Some(None), "tombstone visible");
        assert_eq!(t.get(b"key-999999", &mut m).unwrap(), None);
        assert_eq!(t.get(b"absent", &mut m).unwrap(), None);
    }

    #[test]
    fn min_max_keys() {
        let t = build(100, 256);
        assert_eq!(t.min_key(), b"key-000000");
        assert_eq!(t.max_key(), b"key-000099");
        assert_eq!(t.n_entries(), 100);
        assert!(t.n_blocks() > 1, "should span multiple blocks");
    }

    #[test]
    fn full_scan_returns_everything_in_order() {
        let t = build(500, 256);
        let memo = BlockMemo::default();
        let entries: Vec<_> = t.scan(&KeyRange::all(), &memo).map(|e| e.unwrap()).collect();
        assert_eq!(entries.len(), 500);
        for w in entries.windows(2) {
            assert!(w[0].key < w[1].key);
        }
        assert_eq!(memo.io().blocks_read as usize, t.n_blocks());
    }

    #[test]
    fn range_scan_respects_bounds() {
        let t = build(1000, 512);
        let memo = BlockMemo::default();
        let scan = t.scan(&range("key-000100", "key-000200"), &memo);
        assert_eq!(scan.remaining(), 100);
        let entries: Vec<_> = scan.map(|e| e.unwrap()).collect();
        assert_eq!(entries.len(), 100);
        assert_eq!(entries[0].key.as_ref(), b"key-000100");
        assert_eq!(entries.last().unwrap().key.as_ref(), b"key-000199");
        // Unbounded end, and a start past the last key.
        assert_eq!(t.scan(&KeyRange::from(&b"key-000990"[..]), &BlockMemo::default()).count(), 10);
        assert_eq!(t.scan(&KeyRange::from(&b"zzz"[..]), &BlockMemo::default()).count(), 0);
    }

    #[test]
    fn range_without_rows_touches_no_block_and_no_cache_entry() {
        let t = four_rows_per_block(400);
        let memo = BlockMemo::default();
        for r in [
            range("key-000100x", "key-000100y"), // between two adjacent keys
            range("a", "b"),                     // before the first key
            range("key-000400", "zzz"),          // after the last key
            range("key-000007", "key-000007"),   // empty range on a present key
        ] {
            let scan = t.scan(&r, &memo);
            assert_eq!(scan.remaining(), 0, "{r:?}");
            assert_eq!(scan.count(), 0);
        }
        let mut io = memo.io();
        for i in 0..400 {
            assert_eq!(t.get(format!("key-{i:06}x").as_bytes(), &mut io).unwrap(), None);
        }
        assert_eq!(io, MetricsSnapshot::default());
    }

    #[test]
    fn range_with_rows_reads_exactly_the_blocks_holding_them() {
        let t = four_rows_per_block(400);
        // (first row, end row, blocks those rows occupy)
        for (lo, hi, blocks) in [(8, 16, 2), (8, 14, 2), (9, 11, 1), (7, 9, 2), (0, 400, 100)] {
            let memo = BlockMemo::default();
            let r = range(&format!("key-{lo:06}"), &format!("key-{hi:06}"));
            assert_eq!(t.scan(&r, &memo).count(), hi - lo);
            let io = memo.io();
            let lookups = io.cache_hits + io.cache_misses;
            assert_eq!(lookups, blocks, "rows {lo}..{hi}: one cache look-up per block");
        }
        // Cold table: every look-up of the first scan is a block read.
        let cold = four_rows_per_block(400);
        let memo = BlockMemo::default();
        assert_eq!(cold.scan(&range("key-000008", "key-000016"), &memo).count(), 8);
        let io = memo.io();
        assert_eq!((io.blocks_read, io.cache_misses, io.cache_hits), (2, 2, 0));
    }

    #[test]
    fn empty_table() {
        let t = SsTable::open_mem(Bytes::from(SsTableBuilder::new(4096).finish()), None).unwrap();
        let mut m = MetricsSnapshot::default();
        assert_eq!(t.n_entries(), 0);
        assert_eq!(t.min_key(), b"");
        assert_eq!(t.get(b"x", &mut m).unwrap(), None);
        assert_eq!(t.scan(&KeyRange::all(), &BlockMemo::default()).count(), 0);
    }

    #[test]
    fn corrupt_footer_rejected() {
        let bytes = {
            let mut b = SsTableBuilder::new(4096);
            b.add(b"a", Some(b"1"));
            b.finish()
        };
        let n = bytes.len();
        let mut bad_magic = bytes.clone();
        bad_magic[n - 1] ^= 0xFF;
        assert!(matches!(
            SsTable::open_mem(Bytes::from(bad_magic), None),
            Err(KvError::Corruption { .. })
        ));
        // Only the version byte differs: refused as a format, not as damage.
        let mut other_version = bytes;
        other_version[n - 8] = 0x42;
        assert!(matches!(
            SsTable::open_mem(Bytes::from(other_version), None),
            Err(KvError::UnsupportedFormat { found: 0x42, supported: FORMAT_VERSION })
        ));
    }

    #[test]
    fn keys_sharing_and_not_sharing_prefixes_roundtrip() {
        // Prefix compression across block boundaries, keys that extend
        // their predecessor, empty first key, binary bytes.
        let keys: [&[u8]; 7] =
            [b"", b"a", b"aa", b"aab", b"ab", &[0xFF, 0x00], &[0xFF, 0x00, 0x00]];
        let mut b = SsTableBuilder::new(64);
        for k in keys {
            b.add(k, Some(&[7u8; 30]));
        }
        let t = SsTable::open_mem(Bytes::from(b.finish()), None).unwrap();
        assert!(t.n_blocks() > 1);
        let mut m = MetricsSnapshot::default();
        let got: Vec<_> = t
            .scan(&KeyRange::all(), &BlockMemo::default())
            .map(|e| e.unwrap().key.to_vec())
            .collect();
        assert_eq!(got, keys.iter().map(|k| k.to_vec()).collect::<Vec<_>>());
        for k in keys {
            assert!(t.get(k, &mut m).unwrap().is_some());
        }
        assert_eq!(t.max_key(), &[0xFF, 0x00, 0x00]);
    }

    #[test]
    fn file_backed_table_roundtrip() {
        let dir = std::env::temp_dir().join(format!("trass-kv-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test.sst");
        let mut b = SsTableBuilder::new(256);
        for i in 0..200 {
            let k = format!("key-{i:04}");
            let v = format!("val-{i}");
            b.add(k.as_bytes(), Some(v.as_bytes()));
        }
        std::fs::write(&path, b.finish()).unwrap();
        let t = SsTable::open_file(&path, None).unwrap();
        let mut m = MetricsSnapshot::default();
        assert_eq!(t.get(b"key-0123", &mut m).unwrap().unwrap().as_deref(), Some(&b"val-123"[..]));
        assert_eq!(t.scan(&KeyRange::all(), &BlockMemo::default()).count(), 200);
        std::fs::remove_dir_all(&dir).ok();
    }
}
