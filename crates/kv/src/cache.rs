//! LRU block cache.
//!
//! Scans and point lookups decode SSTable blocks; hot blocks (index roots,
//! frequently queried regions) are worth keeping decoded. The cache is
//! shared by all SSTables of a store and keyed by `(table_id, block_no)`;
//! capacity is accounted in approximate decoded bytes.

use crate::block::Block;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use trass_obs::sync::Mutex;

/// Key of a cached block.
pub type BlockKey = (u64, u32);

struct CacheInner {
    /// Each resident block with its accounted bytes and the stamp of its
    /// last use.
    map: HashMap<BlockKey, (Arc<Block>, usize, u64)>,
    /// The resident blocks in recency order: exactly one entry per block
    /// of `map`, filed under its last use or an older stamp. A hit only
    /// restamps its block in `map`; eviction re-files an entry it finds
    /// out of date instead of evicting it, so the first current entry it
    /// pops is the least recently used block, and a hit costs no
    /// reordering.
    by_stamp: BTreeMap<u64, BlockKey>,
    /// Monotonic access clock, the source of stamps.
    clock: u64,
    bytes: usize,
    capacity: usize,
}

/// A shared, thread-safe LRU cache of decoded blocks. It keeps no hit or
/// miss count: a look-up is counted by the scan that makes it, from what
/// [`BlockCache::get`] returns.
pub struct BlockCache {
    inner: Mutex<CacheInner>,
}

impl BlockCache {
    /// Creates a cache bounded to roughly `capacity_bytes` of decoded
    /// block data.
    pub fn new(capacity_bytes: usize) -> Arc<Self> {
        Arc::new(BlockCache {
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                by_stamp: BTreeMap::new(),
                clock: 0,
                bytes: 0,
                capacity: capacity_bytes,
            }),
        })
    }

    /// Looks up a block, refreshing its recency on hit.
    pub fn get(&self, key: BlockKey) -> Option<Arc<Block>> {
        let mut inner = self.inner.lock();
        inner.clock += 1;
        let clock = inner.clock;
        let (block, _, stamp) = inner.map.get_mut(&key)?;
        *stamp = clock;
        Some(Arc::clone(block))
    }

    /// Inserts a block, evicting least-recently-used entries as needed.
    /// Oversized blocks (larger than the whole capacity) are not cached.
    /// Evicted blocks are dropped after the lock is released, so freeing
    /// them delays no other reader.
    pub fn insert(&self, key: BlockKey, block: Arc<Block>, approx_bytes: usize) {
        let mut freed = Vec::new();
        let mut inner = self.inner.lock();
        if approx_bytes > inner.capacity {
            return;
        }
        inner.clock += 1;
        let clock = inner.clock;
        match inner.map.insert(key, (block, approx_bytes, clock)) {
            // A replaced block keeps its index entry, now out of date.
            Some((old, old_bytes, _)) => {
                inner.bytes -= old_bytes;
                freed.push(old);
            }
            None => {
                inner.by_stamp.insert(clock, key);
            }
        }
        inner.bytes += approx_bytes;
        while inner.bytes > inner.capacity {
            let Some((filed, victim)) = inner.by_stamp.pop_first() else { break };
            let Some(&(_, _, last_use)) = inner.map.get(&victim) else { continue };
            if last_use != filed {
                inner.by_stamp.insert(last_use, victim);
            } else if let Some((block, bytes, _)) = inner.map.remove(&victim) {
                inner.bytes -= bytes;
                freed.push(block);
            }
        }
        drop(inner);
        drop(freed);
    }

    /// Current resident bytes.
    pub fn resident_bytes(&self) -> usize {
        self.inner.lock().bytes
    }

    /// Number of cached blocks.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for BlockCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockCache")
            .field("blocks", &self.len())
            .field("bytes", &self.resident_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockBuilder;
    use crate::types::Bytes;

    fn block(tag: u8) -> (Arc<Block>, usize) {
        let mut b = BlockBuilder::new();
        b.add(&[tag], Some(&[tag; 100]));
        let bytes = b.finish();
        let len = bytes.len();
        (Arc::new(Block::decode(Bytes::from(bytes)).unwrap()), len)
    }

    #[test]
    fn hit_and_miss_accounting() {
        let cache = BlockCache::new(10_000);
        assert!(cache.get((1, 0)).is_none(), "miss before insert");
        let (b, sz) = block(7);
        cache.insert((1, 0), b, sz);
        assert!(cache.get((1, 0)).is_some(), "hit after insert");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn eviction_respects_capacity_and_recency() {
        let (b0, sz) = block(0);
        let cache = BlockCache::new(sz * 3);
        cache.insert((0, 0), b0, sz);
        for tag in 1..3u8 {
            let (b, sz) = block(tag);
            cache.insert((tag as u64, 0), b, sz);
        }
        assert_eq!(cache.len(), 3);
        // Touch block 0 so block 1 becomes the LRU victim.
        assert!(cache.get((0, 0)).is_some());
        let (b3, sz3) = block(3);
        cache.insert((3, 0), b3, sz3);
        assert_eq!(cache.len(), 3);
        assert!(cache.get((0, 0)).is_some(), "recently used survived");
        assert!(cache.get((1, 0)).is_none(), "LRU evicted");
        assert!(cache.resident_bytes() <= sz * 3);
    }

    #[test]
    fn oversized_blocks_are_not_cached() {
        let cache = BlockCache::new(10);
        let (b, sz) = block(1);
        assert!(sz > 10);
        cache.insert((1, 0), b, sz);
        assert!(cache.is_empty());
    }

    #[test]
    fn reinsert_updates_bytes() {
        let (b, sz) = block(1);
        let cache = BlockCache::new(sz * 2);
        cache.insert((1, 0), Arc::clone(&b), sz);
        cache.insert((1, 0), b, sz);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.resident_bytes(), sz);
    }

    /// The linear-scan LRU the ordered index replaced, kept as the
    /// reference: a victim is the entry with the smallest stamp, found by
    /// scanning every resident block.
    struct ScanLru {
        map: HashMap<BlockKey, (usize, u64)>,
        clock: u64,
        bytes: usize,
        capacity: usize,
        hits: u64,
        misses: u64,
    }

    impl ScanLru {
        fn get(&mut self, key: BlockKey) -> bool {
            self.clock += 1;
            let hit = match self.map.get_mut(&key) {
                Some((_, stamp)) => {
                    *stamp = self.clock;
                    true
                }
                None => false,
            };
            *(if hit { &mut self.hits } else { &mut self.misses }) += 1;
            hit
        }

        fn insert(&mut self, key: BlockKey, approx_bytes: usize) {
            if approx_bytes > self.capacity {
                return;
            }
            self.clock += 1;
            if let Some((old, _)) = self.map.insert(key, (approx_bytes, self.clock)) {
                self.bytes -= old;
            }
            self.bytes += approx_bytes;
            while self.bytes > self.capacity {
                let victim = self.map.iter().min_by_key(|(_, (_, stamp))| *stamp).map(|(k, _)| *k);
                let Some(victim) = victim else { break };
                if let Some((freed, _)) = self.map.remove(&victim) {
                    self.bytes -= freed;
                }
            }
        }
    }

    #[test]
    fn ordered_eviction_matches_the_linear_scan_reference() {
        trass_rng::check(256, |rng| {
            let capacity = rng.usize_in(1, 4_000);
            let cache = BlockCache::new(capacity);
            let mut model =
                ScanLru { map: HashMap::new(), clock: 0, bytes: 0, capacity, hits: 0, misses: 0 };
            // The cache's hits and misses, counted from what `get` returns.
            let (mut hits, mut misses) = (0u64, 0u64);
            let (b, _) = block(0);
            let n_keys = rng.u64_in(1, 40);
            for _ in 0..rng.usize_in(1, 400) {
                let key = (rng.u64_in(0, n_keys), rng.u64_in(0, 2) as u32);
                if rng.bool(0.5) {
                    let hit = cache.get(key).is_some();
                    *(if hit { &mut hits } else { &mut misses }) += 1;
                    assert_eq!(hit, model.get(key), "get {key:?}");
                } else {
                    let bytes = rng.usize_in(1, 1_000);
                    cache.insert(key, Arc::clone(&b), bytes);
                    model.insert(key, bytes);
                }
                assert_eq!(cache.resident_bytes(), model.bytes);
                assert_eq!(cache.len(), model.map.len());
            }
            let inner = cache.inner.lock();
            let mut resident: Vec<_> = inner.map.keys().copied().collect();
            let mut expected: Vec<_> = model.map.keys().copied().collect();
            resident.sort_unstable();
            expected.sort_unstable();
            assert_eq!(resident, expected);
            assert_eq!(inner.by_stamp.len(), inner.map.len(), "one stamp per resident block");
            drop(inner);
            assert_eq!((hits, misses), (model.hits, model.misses));
        });
    }

    #[test]
    fn entries_outlive_their_blocks_eviction() {
        let (b0, sz) = block(9);
        let entry = b0.entries()[0].clone();
        let weak = Arc::downgrade(&b0);
        let cache = BlockCache::new(sz);
        cache.insert((0, 0), b0, sz);
        let (b1, _) = block(1);
        cache.insert((1, 0), b1, sz);
        assert!(cache.get((0, 0)).is_none(), "block 0 was evicted");
        assert!(weak.upgrade().is_none(), "and dropped");
        assert_eq!(entry.key.as_ref(), &[9]);
        assert_eq!(entry.value.as_deref(), Some(&[9u8; 100][..]));
    }

    #[test]
    fn concurrent_access_is_safe() {
        let (b, sz) = block(1);
        let cache = BlockCache::new(sz * 8);
        let hits: usize = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|t| {
                    let cache = &cache;
                    let b = Arc::clone(&b);
                    s.spawn(move || {
                        (0..500u32)
                            .filter(|i| {
                                cache.insert((t, i % 4), Arc::clone(&b), sz);
                                cache.get((t, i % 4)).is_some()
                            })
                            .count()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).sum()
        });
        assert!(hits > 0);
    }
}
