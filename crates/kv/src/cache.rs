//! LRU block cache.
//!
//! Scans and point lookups decode SSTable blocks; hot blocks (index roots,
//! frequently queried regions) are worth keeping decoded. The cache is
//! shared by all SSTables of a store and keyed by `(table_id, block_no)`;
//! capacity is accounted in approximate decoded bytes.

use crate::block::Block;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use trass_obs::sync::Mutex;

/// Key of a cached block.
pub type BlockKey = (u64, u32);

struct CacheInner {
    map: HashMap<BlockKey, (Arc<Block>, usize, u64)>,
    /// Monotonic access clock; the entry with the smallest stamp is the
    /// least recently used.
    clock: u64,
    bytes: usize,
    capacity: usize,
}

/// A shared, thread-safe LRU cache of decoded blocks.
pub struct BlockCache {
    inner: Mutex<CacheInner>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl BlockCache {
    /// Creates a cache bounded to roughly `capacity_bytes` of decoded
    /// block data.
    pub fn new(capacity_bytes: usize) -> Arc<Self> {
        Arc::new(BlockCache {
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                clock: 0,
                bytes: 0,
                capacity: capacity_bytes,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        })
    }

    /// Looks up a block, refreshing its recency on hit.
    pub fn get(&self, key: BlockKey) -> Option<Arc<Block>> {
        let mut inner = self.inner.lock();
        inner.clock += 1;
        let clock = inner.clock;
        match inner.map.get_mut(&key) {
            Some((block, _, stamp)) => {
                *stamp = clock;
                let b = Arc::clone(block);
                drop(inner);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(b)
            }
            None => {
                drop(inner);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts a block, evicting least-recently-used entries as needed.
    /// Oversized blocks (larger than the whole capacity) are not cached.
    pub fn insert(&self, key: BlockKey, block: Arc<Block>, approx_bytes: usize) {
        let mut inner = self.inner.lock();
        if approx_bytes > inner.capacity {
            return;
        }
        inner.clock += 1;
        let clock = inner.clock;
        if let Some((_, old_bytes, _)) = inner.map.insert(key, (block, approx_bytes, clock)) {
            inner.bytes -= old_bytes;
        }
        inner.bytes += approx_bytes;
        while inner.bytes > inner.capacity {
            // Evict the stalest entry. Linear scan keeps the structure
            // simple; block counts are small (capacity / block_size).
            let victim = inner.map.iter().min_by_key(|(_, (_, _, stamp))| *stamp).map(|(k, _)| *k);
            let Some(victim) = victim else { break };
            if let Some((_, freed, _)) = inner.map.remove(&victim) {
                inner.bytes -= freed;
            }
        }
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
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
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockBuilder;

    fn block(tag: u8) -> (Arc<Block>, usize) {
        let mut b = BlockBuilder::new();
        b.add(&[tag], Some(&[tag; 100]));
        let bytes = b.finish();
        let len = bytes.len();
        (Arc::new(Block::decode(&bytes).unwrap()), len)
    }

    #[test]
    fn hit_and_miss_accounting() {
        let cache = BlockCache::new(10_000);
        assert!(cache.get((1, 0)).is_none());
        assert_eq!(cache.misses(), 1);
        let (b, sz) = block(7);
        cache.insert((1, 0), b, sz);
        assert!(cache.get((1, 0)).is_some());
        assert_eq!(cache.hits(), 1);
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

    #[test]
    fn concurrent_access_is_safe() {
        let (b, sz) = block(1);
        let cache = BlockCache::new(sz * 8);
        std::thread::scope(|s| {
            for t in 0..4 {
                let cache = &cache;
                let b = Arc::clone(&b);
                s.spawn(move || {
                    for i in 0..500u32 {
                        cache.insert((t, i % 4), Arc::clone(&b), sz);
                        let _ = cache.get((t, i % 4));
                    }
                });
            }
        });
        assert!(cache.hits() > 0);
    }
}
