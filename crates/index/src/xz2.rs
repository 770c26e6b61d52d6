//! XZ-Ordering (Böhm et al.) — the baseline index.
//!
//! This is the index family GeoMesa, TrajMesa and JUST use to store
//! trajectories in key-value stores, and the comparator for the paper's
//! I/O-reduction claims. It shares the quadrant-sequence machinery with
//! XZ\* but stops at element granularity: a trajectory is represented by
//! the smallest enlarged element covering its MBR, with no shape
//! information. Elements are numbered in pre-order (element before its
//! children), so every subtree is one contiguous code range.

use crate::quad::{sequence_length, Cell, MAX_RESOLUTION};
use crate::ranges::{coalesce, merge_overlapping, ValueRange};
use trass_geo::Mbr;

/// The XZ-Ordering index over the unit square.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Xz2 {
    max_resolution: u8,
}

impl Xz2 {
    /// Creates an index with the given maximum resolution.
    ///
    /// # Panics
    /// Panics unless `1 <= max_resolution <= 30`.
    pub fn new(max_resolution: u8) -> Self {
        // trass-lint: allow(panic-surface) constructor contract: resolution bound validated at the API boundary
        assert!(
            (1..=MAX_RESOLUTION).contains(&max_resolution),
            "max_resolution must be in 1..={MAX_RESOLUTION}"
        );
        Xz2 { max_resolution }
    }

    /// The configured maximum resolution.
    #[inline]
    pub fn max_resolution(&self) -> u8 {
        self.max_resolution
    }

    /// Number of elements in the subtree rooted at a level-`l` element
    /// (including itself): `(4^{r−l+1} − 1) / 3`.
    pub fn subtree_size(&self, level: u8) -> u64 {
        debug_assert!(level <= self.max_resolution);
        (4u64.pow(u32::from(self.max_resolution - level + 1)) - 1) / 3
    }

    /// Total number of element codes (the whole tree, root included).
    pub fn total_values(&self) -> u64 {
        self.subtree_size(0)
    }

    /// The element representing an MBR: the smallest enlarged element
    /// covering it (Lemmas 1–2).
    pub fn index_mbr(&self, mbr: &Mbr) -> Cell {
        let level = sequence_length(mbr, self.max_resolution);
        Cell::containing(mbr.min_x, mbr.min_y, level)
    }

    /// Pre-order sequence code: the root is 0; the `q`-th child of an
    /// element at code `c`, level `l`, starts at
    /// `c + 1 + q · subtree_size(l+1)`.
    pub fn encode(&self, cell: &Cell) -> u64 {
        let mut code = 0u64;
        for (depth, &digit) in (1u8..).zip(cell.sequence().iter()) {
            code += 1 + u64::from(digit) * self.subtree_size(depth);
        }
        code
    }

    /// Inverse of [`Xz2::encode`].
    pub fn decode(&self, value: u64) -> Option<Cell> {
        if value >= self.total_values() {
            return None;
        }
        let mut cell = Cell::ROOT;
        let mut rem = value;
        while rem > 0 {
            rem -= 1;
            let child_size = self.subtree_size(cell.level + 1);
            // trass-lint: allow(panic-surface) `child_size` is `subtree_size(...)`, a sum of positive powers of 4, never zero
            let q = rem / child_size;
            debug_assert!(q < 4);
            cell = cell.child(u8::try_from(q & 3).unwrap_or(0));
            // trass-lint: allow(panic-surface) `child_size` is `subtree_size(...)`, a sum of positive powers of 4, never zero
            rem %= child_size;
        }
        Some(cell)
    }

    /// Window query: codes of every element whose *enlarged* region
    /// intersects `window`, coalesced into scan ranges. Subtrees fully
    /// inside the window collapse to a single contiguous range.
    ///
    /// For trajectory similarity on XZ-Ordering (the JUST baseline) the
    /// window is `Ext(Q.MBR, ε)`: any similar trajectory lies inside it, so
    /// its covering element's enlarged region must intersect it.
    pub fn query_ranges(&self, window: &Mbr, gap: u64) -> Vec<ValueRange> {
        let mut values = Vec::new();
        let mut ranges = Vec::new();
        self.collect(&Cell::ROOT, window, &mut values, &mut ranges);
        ranges.extend(coalesce(values, gap));
        // Merge singleton-derived ranges with whole-subtree ranges.
        merge_overlapping(ranges, gap)
    }

    fn collect(
        &self,
        cell: &Cell,
        window: &Mbr,
        values: &mut Vec<u64>,
        ranges: &mut Vec<ValueRange>,
    ) {
        let ee = cell.enlarged();
        if !ee.intersects(window) {
            return;
        }
        let code = self.encode(cell);
        if window.contains(&ee) {
            // The whole subtree's enlarged regions sit inside the window.
            ranges.push(ValueRange { start: code, end: code + self.subtree_size(cell.level) - 1 });
            return;
        }
        values.push(code);
        if cell.level < self.max_resolution {
            for child in cell.children() {
                self.collect(&child, window, values, ranges);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subtree_sizes_r2() {
        let x = Xz2::new(2);
        assert_eq!(x.subtree_size(2), 1);
        assert_eq!(x.subtree_size(1), 5);
        assert_eq!(x.subtree_size(0), 21);
        assert_eq!(x.total_values(), 21);
    }

    #[test]
    fn preorder_codes_r2() {
        let x = Xz2::new(2);
        let code = |seq: &[u8]| x.encode(&Cell::from_sequence(seq));
        assert_eq!(code(&[]), 0);
        assert_eq!(code(&[0]), 1);
        assert_eq!(code(&[0, 0]), 2);
        assert_eq!(code(&[0, 3]), 5);
        assert_eq!(code(&[1]), 6);
        assert_eq!(code(&[3]), 16);
        assert_eq!(code(&[3, 3]), 20);
    }

    #[test]
    fn encode_decode_roundtrip_exhaustive() {
        let x = Xz2::new(3);
        let mut seen = std::collections::HashSet::new();
        for value in 0..x.total_values() {
            let cell = x.decode(value).unwrap();
            assert_eq!(x.encode(&cell), value);
            assert!(seen.insert(cell));
        }
        assert_eq!(x.decode(x.total_values()), None);
    }

    #[test]
    fn preorder_subtree_contiguity() {
        let x = Xz2::new(4);
        let cell = Cell::from_sequence(&[2, 1]);
        let base = x.encode(&cell);
        for v in base..base + x.subtree_size(2) {
            let decoded = x.decode(v).unwrap();
            let seq = decoded.sequence();
            assert!(seq.len() >= 2 && seq[0] == 2 && seq[1] == 1, "value {v} escaped");
        }
    }

    #[test]
    fn index_mbr_uses_smallest_covering_element() {
        let x = Xz2::new(16);
        let mbr = Mbr::new(0.30, 0.30, 0.33, 0.32);
        let cell = x.index_mbr(&mbr);
        assert!(cell.enlarged().extended(1e-12).contains(&mbr));
        // One level deeper would not cover.
        let deeper = Cell::containing(mbr.min_x, mbr.min_y, cell.level + 1);
        assert!(!deeper.enlarged().extended(1e-12).contains(&mbr));
    }

    #[test]
    fn window_query_finds_stored_element() {
        let x = Xz2::new(12);
        let mbr = Mbr::new(0.40, 0.40, 0.43, 0.42);
        let code = x.encode(&x.index_mbr(&mbr));
        let ranges = x.query_ranges(&mbr.extended(0.01), 0);
        assert!(ranges.iter().any(|r| r.contains(code)), "stored code {code} missed by {ranges:?}");
    }

    #[test]
    fn window_query_excludes_far_elements() {
        let x = Xz2::new(10);
        let far_mbr = Mbr::new(0.9, 0.9, 0.95, 0.95);
        let far_code = x.encode(&x.index_mbr(&far_mbr));
        let ranges = x.query_ranges(&Mbr::new(0.1, 0.1, 0.15, 0.12), 0);
        assert!(!ranges.iter().any(|r| r.contains(far_code)));
    }

    #[test]
    fn full_window_covers_everything_in_one_range() {
        let x = Xz2::new(6);
        let ranges = x.query_ranges(&Mbr::new(-0.5, -0.5, 2.5, 2.5), 0);
        assert_eq!(ranges.len(), 1);
        assert_eq!(ranges[0], ValueRange { start: 0, end: x.total_values() - 1 });
    }

    #[test]
    fn ranges_are_sorted_and_disjoint() {
        let x = Xz2::new(10);
        let ranges = x.query_ranges(&Mbr::new(0.2, 0.2, 0.25, 0.22), 0);
        assert!(!ranges.is_empty());
        for w in ranges.windows(2) {
            assert!(w[0].end < w[1].start, "overlap: {:?}", w);
        }
    }

    #[test]
    fn xz2_candidates_exceed_xzstar_candidates() {
        // The heart of the paper: XZ* visits fewer index spaces than
        // XZ-Ordering for the same query. Here in *space* terms: the number
        // of values XZ2 scans is >= the element count XZ* scans, because
        // XZ2 cannot discriminate by shape or resolution band.
        use crate::xzstar::{BestFirst, EveryValue, PruningConfig, XzStar};
        use trass_geo::Point;
        let r = 10;
        let xz2 = Xz2::new(r);
        let star = XzStar::new(r);
        let points: Vec<Point> =
            vec![Point::new(0.31, 0.42), Point::new(0.33, 0.45), Point::new(0.36, 0.41)];
        let eps = 0.002;
        let mut frontier =
            BestFirst::new(&star, points.clone(), &EveryValue, PruningConfig::default()).unwrap();
        let star_values = std::iter::from_fn(|| frontier.next_space(eps)).count() as u64;
        let mbr = Mbr::from_points(points.iter()).unwrap();
        let xz2_values: u64 = xz2.query_ranges(&mbr.extended(eps), 0).iter().map(|r| r.len()).sum();
        // XZ2 ranges cover whole subtrees of elements; XZ* covers a narrow
        // resolution band with shape filtering. Compare per-element scan
        // volume: each XZ2 value ~ 1 element of trajectories, each XZ*
        // value ~ 1/10 of an element.
        assert!(
            (star_values as f64) / 10.0 < xz2_values as f64,
            "XZ* {} spaces vs XZ2 {} elements",
            star_values,
            xz2_values
        );
    }
}
