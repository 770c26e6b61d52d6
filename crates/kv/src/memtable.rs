//! The in-memory write buffer.
//!
//! A sorted map from key to value-or-tombstone, tracking its approximate
//! byte footprint so the store knows when to flush. The memtable is always
//! consulted first by reads: it holds the newest version of every key it
//! contains.

use crate::types::Bytes;
use crate::types::KeyRange;
use std::collections::BTreeMap;

/// Sorted in-memory buffer of recent writes.
#[derive(Debug, Default)]
pub struct Memtable {
    map: BTreeMap<Bytes, Option<Bytes>>,
    approx_bytes: usize,
}

impl Memtable {
    /// Creates an empty memtable.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts or replaces a value.
    pub fn put(&mut self, key: Bytes, value: Bytes) {
        self.insert(key, Some(value));
    }

    /// Records a deletion (tombstone) — it must shadow older SSTable data.
    pub fn delete(&mut self, key: Bytes) {
        self.insert(key, None);
    }

    fn insert(&mut self, key: Bytes, value: Option<Bytes>) {
        let add = key.len() + value.as_ref().map_or(0, |v| v.len()) + 32;
        if let Some(old) = self.map.insert(key, value) {
            let removed = old.map_or(0, |v| v.len());
            self.approx_bytes = self.approx_bytes.saturating_sub(removed);
            self.approx_bytes += add - 32; // key already accounted
        } else {
            self.approx_bytes += add;
        }
    }

    /// Looks up the newest version of `key`. Outer `None` = not present in
    /// the memtable; `Some(None)` = tombstone.
    pub fn get(&self, key: &[u8]) -> Option<Option<Bytes>> {
        self.map.get(key).cloned()
    }

    /// Iterates entries within `range` in key order (tombstones included).
    pub fn range<'a>(
        &'a self,
        range: &KeyRange,
    ) -> impl Iterator<Item = (&'a Bytes, &'a Option<Bytes>)> + 'a {
        self.map.range::<[u8], _>(range.bounds())
    }

    /// Iterates all entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&Bytes, &Option<Bytes>)> {
        self.map.iter()
    }

    /// Number of buffered entries (tombstones included).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no entries are buffered.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Approximate memory footprint in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.approx_bytes
    }

    /// Clears the table (after a flush).
    pub fn clear(&mut self) {
        self.map.clear();
        self.approx_bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn put_get_overwrite() {
        let mut m = Memtable::new();
        m.put(b("k1"), b("v1"));
        m.put(b("k1"), b("v2"));
        assert_eq!(m.get(b"k1"), Some(Some(b("v2"))));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn tombstones_are_visible() {
        let mut m = Memtable::new();
        m.put(b("k1"), b("v1"));
        m.delete(b("k1"));
        assert_eq!(m.get(b"k1"), Some(None));
        assert_eq!(m.get(b"other"), None);
    }

    #[test]
    fn range_iteration_in_order() {
        let mut m = Memtable::new();
        for k in ["d", "a", "c", "b", "e"] {
            m.put(b(k), b("v"));
        }
        let keys: Vec<_> =
            m.range(&KeyRange::new(&b"b"[..], &b"e"[..])).map(|(k, _)| k.clone()).collect();
        assert_eq!(keys, vec![b("b"), b("c"), b("d")]);
    }

    #[test]
    fn approx_bytes_tracks_growth_and_clear() {
        let mut m = Memtable::new();
        assert_eq!(m.approx_bytes(), 0);
        m.put(b("key"), b("value"));
        let after_one = m.approx_bytes();
        assert!(after_one > 0);
        m.put(b("key2"), b("value2"));
        assert!(m.approx_bytes() > after_one);
        m.clear();
        assert_eq!(m.approx_bytes(), 0);
        assert!(m.is_empty());
    }

    #[test]
    fn overwrite_does_not_leak_accounting() {
        let mut m = Memtable::new();
        m.put(b("k"), Bytes::from(vec![0u8; 1000]));
        let big = m.approx_bytes();
        m.put(b("k"), b("tiny"));
        assert!(m.approx_bytes() < big);
    }
}
