//! Core key/value types.

use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, Range};
use std::sync::Arc;

/// An immutable byte string shared by reference count: the type of every
/// key and value the store holds or hands out.
///
/// It is a view, a range of a shared buffer. `From<Vec<u8>>` takes
/// ownership of the vector's allocation, and `clone` and [`Bytes::slice`]
/// bump a count, so a row is copied once when it is encoded or read and
/// never again on its way through memtable, block, scan and caller. It
/// orders, hashes and compares as the `[u8]` it dereferences to, never as
/// the buffer behind it, which lets maps keyed by `Bytes` be probed with a
/// plain slice. A view keeps its whole buffer alive.
#[derive(Clone, Default)]
pub struct Bytes {
    buf: Arc<Vec<u8>>,
    /// `start <= end <= buf.len()`, upheld by every constructor.
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Bytes {
        Bytes::default()
    }

    /// A buffer holding a copy of `data`.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes::from(data.to_vec())
    }

    /// The view of `self[range]`, sharing this buffer, or `None` when the
    /// range is inverted or runs past the end.
    pub fn slice(&self, range: Range<usize>) -> Option<Bytes> {
        if range.start > range.end || range.end > self.len() {
            return None;
        }
        let start = self.start + range.start;
        Some(Bytes { buf: Arc::clone(&self.buf), start, end: self.start + range.end })
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        let end = v.len();
        Bytes { buf: Arc::new(v), start: 0, end }
    }
}

impl From<&[u8]> for Bytes {
    fn from(data: &[u8]) -> Bytes {
        Bytes::copy_from_slice(data)
    }
}

impl From<&str> for Bytes {
    fn from(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Bytes {
        Bytes::from(s.into_bytes())
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.buf.get(self.start..self.end).unwrap_or_default()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl std::borrow::Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        **self == **other
    }
}

impl Eq for Bytes {}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Bytes) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Bytes) -> std::cmp::Ordering {
        (**self).cmp(&**other)
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Bytes").field(&&**self).finish()
    }
}

/// One row returned from a scan: key plus value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Row key.
    pub key: Bytes,
    /// Row value.
    pub value: Bytes,
}

impl Entry {
    /// Creates an entry.
    pub fn new(key: impl Into<Bytes>, value: impl Into<Bytes>) -> Self {
        Entry { key: key.into(), value: value.into() }
    }
}

/// A half-open key range `[start, end)`; an unbounded `end` scans to the end
/// of the keyspace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyRange {
    /// Inclusive start key.
    pub start: Bytes,
    /// Exclusive end key (`None` = unbounded).
    pub end: Option<Bytes>,
}

impl KeyRange {
    /// `[start, end)`.
    pub fn new(start: impl Into<Bytes>, end: impl Into<Bytes>) -> Self {
        let r = KeyRange { start: start.into(), end: Some(end.into()) };
        debug_assert!(r.end.as_ref().map_or(true, |e| *e >= r.start), "inverted key range");
        r
    }

    /// `[start, +∞)`.
    pub fn from(start: impl Into<Bytes>) -> Self {
        KeyRange { start: start.into(), end: None }
    }

    /// The full keyspace.
    pub fn all() -> Self {
        KeyRange { start: Bytes::new(), end: None }
    }

    /// All keys starting with `prefix`.
    pub fn prefix(prefix: impl Into<Bytes>) -> Self {
        let start: Bytes = prefix.into();
        match prefix_upper_bound(&start) {
            Some(end) => KeyRange { start, end: Some(end) },
            None => KeyRange { start, end: None },
        }
    }

    /// Returns `true` when `key` falls inside the range.
    pub fn contains(&self, key: &[u8]) -> bool {
        key >= self.start.as_ref() && self.end.as_ref().map_or(true, |e| key < e.as_ref())
    }

    /// Whether this range and `other` share any key.
    pub fn overlaps(&self, other: &KeyRange) -> bool {
        let self_before = match &self.end {
            Some(e) => e.as_ref() <= other.start.as_ref(),
            None => false,
        };
        let other_before = match &other.end {
            Some(e) => e.as_ref() <= self.start.as_ref(),
            None => false,
        };
        !(self_before || other_before)
    }

    /// The intersection of two ranges (may be empty).
    pub fn intersect(&self, other: &KeyRange) -> KeyRange {
        let start =
            if self.start >= other.start { self.start.clone() } else { other.start.clone() };
        let end = match (&self.end, &other.end) {
            (Some(a), Some(b)) => Some(if a <= b { a.clone() } else { b.clone() }),
            (Some(a), None) => Some(a.clone()),
            (None, Some(b)) => Some(b.clone()),
            (None, None) => None,
        };
        KeyRange { start, end }
    }

    /// Standard-library bound view, for `BTreeMap::range`.
    pub fn bounds(&self) -> (Bound<&[u8]>, Bound<&[u8]>) {
        let lo = Bound::Included(self.start.as_ref());
        let hi = match &self.end {
            Some(e) => Bound::Excluded(e.as_ref()),
            None => Bound::Unbounded,
        };
        (lo, hi)
    }

    /// Returns `true` when the range cannot contain any key.
    pub fn is_empty(&self) -> bool {
        match &self.end {
            Some(e) => {
                e.as_ref() <= self.start.as_ref() && !(e.is_empty() && self.start.is_empty())
            }
            None => false,
        }
    }
}

/// The smallest byte string strictly greater than every string with the
/// given prefix, or `None` when the prefix is all `0xFF` (no upper bound
/// exists).
pub(crate) fn prefix_upper_bound(prefix: &[u8]) -> Option<Bytes> {
    let mut out = prefix.to_vec();
    while let Some(last) = out.last_mut() {
        if *last < 0xFF {
            *last += 1;
            return Some(Bytes::from(out));
        }
        out.pop();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_share_the_vector_they_were_made_from() {
        // The two properties the write path's cost rests on: no copy on
        // `from(Vec)`, none on `clone`.
        let v = vec![7u8; 64];
        let heap = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr(), heap);
        assert_eq!(b.clone().as_ptr(), heap);
        assert_eq!(Bytes::new().len(), 0);
        assert!(Bytes::from("ab") < Bytes::from(String::from("b")));
    }

    #[test]
    fn views_compare_order_and_hash_as_the_bytes_they_show() {
        use std::collections::hash_map::DefaultHasher;
        let hash = |b: &[u8]| {
            let mut h = DefaultHasher::new();
            b.hash(&mut h);
            h.finish()
        };
        let hash_bytes = |b: &Bytes| {
            let mut h = DefaultHasher::new();
            b.hash(&mut h);
            h.finish()
        };
        let big = Bytes::from(&b"xxabcyy"[..]);
        let view = big.slice(2..5).unwrap();
        let own = Bytes::from("abc");
        assert_eq!(view, own, "equal bytes, different buffers and offsets");
        assert_eq!(hash_bytes(&view), hash_bytes(&own));
        assert_eq!(hash_bytes(&view), hash(b"abc"), "hashes as the slice it shows");
        assert!(big.slice(0..2).unwrap() > view, "\"xx\" > \"abc\"");
        assert!(big.slice(2..4).unwrap() < view, "a prefix orders first");
        assert_eq!(format!("{view:?}"), format!("{own:?}"));
        // A map keyed by views is probed by plain slices.
        let map: std::collections::HashMap<Bytes, u8> = [(view.clone(), 1)].into();
        assert_eq!(map.get(&b"abc"[..]), Some(&1));
    }

    #[test]
    fn slices_of_slices_share_one_buffer_and_reject_bad_ranges() {
        let v = b"0123456789".to_vec();
        let heap = v.as_ptr();
        let b = Bytes::from(v);
        let mid = b.slice(2..8).unwrap();
        assert_eq!(mid.as_ref(), b"234567");
        let inner = mid.slice(1..4).unwrap();
        assert_eq!(inner.as_ref(), b"345");
        assert_eq!(inner.as_ptr(), heap.wrapping_add(3));
        assert_eq!(mid.slice(6..6).unwrap().len(), 0);
        assert_eq!(mid.slice(0..7), None, "past the view's end, though inside the buffer");
        #[allow(clippy::reversed_empty_ranges)]
        let inverted = 4..3;
        assert_eq!(mid.slice(inverted), None);
        drop(b);
        drop(mid);
        assert_eq!(inner.as_ref(), b"345", "a view keeps its buffer alive");
    }

    #[test]
    fn contains_half_open_semantics() {
        let r = KeyRange::new(&b"b"[..], &b"d"[..]);
        assert!(!r.contains(b"a"));
        assert!(r.contains(b"b"));
        assert!(r.contains(b"c"));
        assert!(!r.contains(b"d"));
    }

    #[test]
    fn unbounded_range() {
        let r = KeyRange::from(&b"m"[..]);
        assert!(r.contains(b"m"));
        assert!(r.contains(&[0xFF, 0xFF]));
        assert!(!r.contains(b"a"));
    }

    #[test]
    fn all_contains_everything() {
        let r = KeyRange::all();
        assert!(r.contains(b""));
        assert!(r.contains(&[0xFF]));
    }

    #[test]
    fn prefix_range_basics() {
        let r = KeyRange::prefix(&b"ab"[..]);
        assert!(r.contains(b"ab"));
        assert!(r.contains(b"abz"));
        assert!(!r.contains(b"ac"));
        assert!(!r.contains(b"aa"));
    }

    #[test]
    fn prefix_range_with_trailing_ff() {
        let r = KeyRange::prefix(&[0x01, 0xFF][..]);
        assert!(r.contains(&[0x01, 0xFF]));
        assert!(r.contains(&[0x01, 0xFF, 0x00]));
        assert!(!r.contains(&[0x02]));
        // All-0xFF prefix has no upper bound.
        let r = KeyRange::prefix(&[0xFF, 0xFF][..]);
        assert!(r.end.is_none());
        assert!(r.contains(&[0xFF, 0xFF, 0x07]));
    }

    #[test]
    fn overlap_cases() {
        let ab = KeyRange::new(&b"a"[..], &b"b"[..]);
        let bc = KeyRange::new(&b"b"[..], &b"c"[..]);
        let ac = KeyRange::new(&b"a"[..], &b"c"[..]);
        assert!(!ab.overlaps(&bc), "touching half-open ranges do not overlap");
        assert!(ab.overlaps(&ac));
        assert!(ac.overlaps(&bc));
        let unbounded = KeyRange::from(&b"b"[..]);
        assert!(unbounded.overlaps(&ac));
        assert!(unbounded.overlaps(&bc));
        assert!(!unbounded.overlaps(&ab), "[b,∞) misses [a,b)");
    }

    #[test]
    fn empty_detection() {
        assert!(KeyRange::new(&b"b"[..], &b"b"[..]).is_empty());
        assert!(!KeyRange::new(&b"b"[..], &b"c"[..]).is_empty());
        assert!(!KeyRange::all().is_empty());
    }

    #[test]
    fn intersect_cases() {
        let ac = KeyRange::new(&b"a"[..], &b"c"[..]);
        let bd = KeyRange::new(&b"b"[..], &b"d"[..]);
        assert_eq!(ac.intersect(&bd), KeyRange::new(&b"b"[..], &b"c"[..]));
        assert_eq!(bd.intersect(&ac), KeyRange::new(&b"b"[..], &b"c"[..]));
        let all = KeyRange::all();
        assert_eq!(all.intersect(&ac), ac);
        let disjoint = KeyRange::new(&b"x"[..], &b"z"[..]);
        assert!(ac.intersect(&disjoint).is_empty());
        let from_b = KeyRange::from(&b"b"[..]);
        assert_eq!(from_b.intersect(&ac), KeyRange::new(&b"b"[..], &b"c"[..]));
    }

    #[test]
    fn prefix_upper_bound_math() {
        assert_eq!(prefix_upper_bound(b"ab").unwrap().as_ref(), b"ac");
        assert_eq!(prefix_upper_bound(&[0x00, 0xFF]).unwrap().as_ref(), &[0x01][..]);
        assert_eq!(prefix_upper_bound(&[0xFF, 0xFF]), None);
    }
}
