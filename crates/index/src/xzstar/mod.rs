//! The XZ\* index (§IV).
//!
//! XZ\* represents a trajectory by a *(quadrant sequence, position code)*
//! pair: the quadrant sequence names the smallest enlarged element covering
//! the trajectory's MBR (as in XZ-Ordering), and the position code names
//! the combination of the element's four sub-quads the trajectory actually
//! touches. A bijective function maps every index space to a `u64`
//! preserving depth-first order, so spatially close index spaces get close
//! integers and queries become few contiguous rowkey scans.

mod frontier;
mod position_code;
mod pruning;

pub use frontier::{BestFirst, EveryValue, Occupancy, SpaceCandidate, LEAF_ROWS};
pub use frontier::{Similarity, SpaceTest};
pub use position_code::{io_reduction, surviving_codes, PositionCode, QuadSet, CODE_SETS};
pub use pruning::{GlobalPruning, PruneStats, PruningConfig, QueryContext};

use crate::quad::{Cell, MAX_RESOLUTION};
use crate::ranges::ValueRange;
use trass_geo::{Mbr, Point};

/// One XZ\* index space: an enlarged element plus a position code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IndexSpace {
    /// The element's cell (its quadrant sequence).
    pub cell: Cell,
    /// The position code (1–10).
    pub code: PositionCode,
}

/// The XZ\* index over the unit square.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XzStar {
    max_resolution: u8,
}

impl XzStar {
    /// Creates an index with the given maximum resolution (the paper's
    /// default is 16).
    ///
    /// # Panics
    /// Panics unless `1 <= max_resolution <= 30` (the `u64` encoding bound).
    pub fn new(max_resolution: u8) -> Self {
        // trass-lint: allow(panic-surface) constructor contract: parameters validated at the API boundary
        assert!(
            (1..=MAX_RESOLUTION).contains(&max_resolution),
            "max_resolution must be in 1..={MAX_RESOLUTION}"
        );
        XzStar { max_resolution }
    }

    /// The configured maximum resolution.
    #[inline]
    pub fn max_resolution(&self) -> u8 {
        self.max_resolution
    }

    /// Lemmas 1–2: the quadrant-sequence length for an MBR in unit space.
    ///
    /// `l1 = ⌊log₀.₅ max(w, h)⌋`; use `l1 + 1` iff the enlarged element at
    /// that resolution, anchored at the cell containing the MBR's lower-left
    /// corner, still covers the MBR. Degenerate (point) MBRs land at the
    /// maximum resolution — the paper's Fig. 12(a) peak.
    pub fn sequence_length(&self, mbr: &Mbr) -> u8 {
        crate::quad::sequence_length(mbr, self.max_resolution)
    }

    /// The smallest enlarged element covering `mbr` (`SEE(mbr)`,
    /// Definition 6): the cell containing the MBR's lower-left corner at
    /// the sequence-length resolution.
    pub fn anchor_cell(&self, mbr: &Mbr) -> Cell {
        let level = self.sequence_length(mbr);
        Cell::containing(mbr.min_x, mbr.min_y, level)
    }

    /// The four sub-quad rectangles of a cell's enlarged element, in
    /// a, b, c, d order.
    pub fn quad_rects(cell: &Cell) -> [Mbr; 4] {
        let w = cell.width();
        let x0 = f64::from(cell.x) * w;
        let y0 = f64::from(cell.y) * w;
        [
            Mbr::new(x0, y0, x0 + w, y0 + w),                     // a
            Mbr::new(x0 + w, y0, x0 + 2.0 * w, y0 + w),           // b
            Mbr::new(x0, y0 + w, x0 + w, y0 + 2.0 * w),           // c
            Mbr::new(x0 + w, y0 + w, x0 + 2.0 * w, y0 + 2.0 * w), // d
        ]
    }

    /// The sub-quads of `cell`'s enlarged element touched by `points`.
    /// Quad membership uses half-open boundaries (a point exactly on the
    /// internal split lines belongs to the upper/right quad), matching the
    /// `fits` predicate of [`XzStar::sequence_length`], with the boundary
    /// convention of [`Cell::containing`]: a cell in the grid's last column
    /// (row) owns the space's east (north) edge, so nothing lies right of
    /// (above) it.
    pub fn touched_quads(cell: &Cell, points: &[Point]) -> QuadSet {
        let w = cell.width();
        let last = (1u32 << cell.level) - 1;
        let split = |c: u32| if c < last { f64::from(c) * w + w } else { f64::INFINITY };
        let (split_x, split_y) = (split(cell.x), split(cell.y));
        let mut set = QuadSet::EMPTY;
        for p in points {
            let qx = u8::from(p.x >= split_x);
            let qy = u8::from(p.y >= split_y);
            set = set.union(QuadSet(1 << ((qy << 1) | qx)));
            if set == QuadSet::ALL {
                break;
            }
        }
        set
    }

    /// Indexes a trajectory given its points in unit space.
    ///
    /// # Panics
    /// Panics if `points` is empty.
    pub fn index_points(&self, points: &[Point]) -> IndexSpace {
        // trass-lint: allow(panic-surface) constructor contract: parameters validated at the API boundary
        assert!(!points.is_empty(), "cannot index an empty trajectory");
        let Some(mbr) = Mbr::from_points(points.iter()) else {
            unreachable!("asserted non-empty just above")
        };
        let mut cell = self.anchor_cell(&mbr);
        loop {
            let set = Self::touched_quads(&cell, points);
            // The anchor and the quads share one boundary convention, so the
            // points on the MBR's west and south sides lie in the left
            // column and the bottom row: the set is one of the ten feasible
            // ones.
            let code = PositionCode::from_quads(set)
                .unwrap_or_else(|| unreachable!("anchored quad sets are always feasible"));
            if code.0 == 10 && cell.level < self.max_resolution {
                // The trajectory fits entirely in quad-a, so a deeper
                // element represents it exactly. Unreachable for consistent
                // float inputs (the sequence-length predicate would already
                // have descended), kept as a defensive re-anchor.
                debug_assert!(false, "code 10 below max resolution");
                cell = Cell::containing(mbr.min_x, mbr.min_y, cell.level + 1);
                continue;
            }
            return IndexSpace { cell, code };
        }
    }

    /// Lemma 4: the number of index spaces in the subtree rooted at any
    /// element of resolution `l`, `N_is(l) = 13·4^{r−l} − 3` (for
    /// `1 ≤ l ≤ r`).
    pub fn n_is(&self, l: u8) -> u64 {
        debug_assert!(l >= 1 && l <= self.max_resolution);
        13 * 4u64.pow(u32::from(self.max_resolution - l)) - 3
    }

    /// First value of the reserved block for root-level (sequence length 0)
    /// index spaces. Regular values occupy `[0, root_block_start)`.
    pub fn root_block_start(&self) -> u64 {
        4 * self.n_is(1)
    }

    /// Total number of index values, including the root block.
    pub fn total_values(&self) -> u64 {
        self.root_block_start() + u64::from(PositionCode::REGULAR_COUNT)
    }

    /// The contiguous value range `[start, end]` covering *every* index
    /// space in the subtree rooted at `cell` (node-first DFS makes
    /// subtrees contiguous). The root covers all values including the
    /// reserved root block.
    pub fn subtree_range(&self, cell: &Cell) -> (u64, u64) {
        if cell.level == 0 {
            return (0, self.total_values() - 1);
        }
        let start = self.encode(&IndexSpace { cell: *cell, code: PositionCode::P1 });
        let end = start + self.n_is(cell.level) - 1;
        crate::debug_invariant!(start <= end, "subtree range must be non-empty");
        (start, end)
    }

    /// The contiguous values of `cell`'s own index spaces: its nine
    /// position codes (ten at the maximum resolution), which the
    /// node-first numbering puts at the head of its subtree — the reserved
    /// root block for the root.
    pub fn code_block(&self, cell: &Cell) -> ValueRange {
        let start = self.encode(&IndexSpace { cell: *cell, code: PositionCode::P1 });
        let codes =
            if cell.level == self.max_resolution { 10 } else { PositionCode::REGULAR_COUNT };
        ValueRange { start, end: start + u64::from(codes) - 1 }
    }

    /// Definition 5: the index value `V(s, p)`.
    ///
    /// Index spaces are numbered in node-first depth-first order:
    /// `V(s,p) = Σᵢ qᵢ·N_is(i) + 9·(l−1) + (p−1)`, matching the paper's
    /// worked examples (`'0'` → 0–8, `'00'` → 9–18, `V('03',2) = 40`).
    /// Root-level spaces (l = 0, MBRs wider than half the space) use a
    /// reserved block after all regular values.
    pub fn encode(&self, space: &IndexSpace) -> u64 {
        let l = space.cell.level;
        let p = u64::from(space.code.0);
        if l == 0 {
            debug_assert!(p <= 9, "code 10 never occurs at the root (r >= 1)");
            let v = self.root_block_start() + p - 1;
            crate::debug_invariant!(
                self.decode(v).as_ref() == Some(space),
                "encode/decode bijectivity violated for root value {v}"
            );
            return v;
        }
        debug_assert!(p <= 9 || l == self.max_resolution, "code 10 only at max resolution");
        let mut v = 0u64;
        for (depth, &digit) in (1u8..).zip(space.cell.sequence().iter()) {
            v += u64::from(digit) * self.n_is(depth);
        }
        let v = v + 9 * (u64::from(l) - 1) + p - 1;
        crate::debug_invariant!(
            self.decode(v).as_ref() == Some(space),
            "encode/decode bijectivity violated for value {v}"
        );
        v
    }

    /// Inverse of [`XzStar::encode`].
    pub fn decode(&self, value: u64) -> Option<IndexSpace> {
        let root_start = self.root_block_start();
        if value >= root_start {
            let p = value - root_start + 1;
            if p > 9 {
                return None;
            }
            return Some(IndexSpace {
                cell: Cell::ROOT,
                code: PositionCode::new(u8::try_from(p).ok()?)?,
            });
        }
        let mut cell = Cell::ROOT;
        let mut rem = value;
        // Descend from the root: the root has no own codes in the regular
        // block, so the first step always picks a level-1 child.
        let n1 = self.n_is(1);
        // trass-lint: allow(panic-surface) `n_is(...)` is a geometric series of positive terms, always >= 1
        cell = cell.child(u8::try_from(rem / n1).ok()?);
        // trass-lint: allow(panic-surface) `n_is(...)` is a geometric series of positive terms, always >= 1
        rem %= n1;
        loop {
            if cell.level == self.max_resolution {
                debug_assert!(rem < 10);
                return Some(IndexSpace {
                    cell,
                    code: PositionCode::new(u8::try_from(rem).ok()? + 1)?,
                });
            }
            if rem < 9 {
                return Some(IndexSpace {
                    cell,
                    code: PositionCode::new(u8::try_from(rem).ok()? + 1)?,
                });
            }
            rem -= 9;
            let n_child = self.n_is(cell.level + 1);
            // trass-lint: allow(panic-surface) `n_is(...)` is a geometric series of positive terms, always >= 1
            cell = cell.child(u8::try_from(rem / n_child).ok()?);
            // trass-lint: allow(panic-surface) `n_is(...)` is a geometric series of positive terms, always >= 1
            rem %= n_child;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xz(r: u8) -> XzStar {
        XzStar::new(r)
    }

    fn pts(v: &[(f64, f64)]) -> Vec<Point> {
        v.iter().map(|&(x, y)| Point::new(x, y)).collect()
    }

    #[test]
    fn n_is_matches_lemma_4() {
        let x = xz(2);
        assert_eq!(x.n_is(2), 10, "a max-resolution element has 10 index spaces");
        assert_eq!(x.n_is(1), 49, "10*4 + 9 own");
        let x16 = xz(16);
        assert_eq!(x16.n_is(16), 10);
        assert_eq!(x16.n_is(15), 13 * 4 - 3);
    }

    #[test]
    fn paper_numbering_examples() {
        // Figure 4(a), r = 2: '0' gets 0..=8, '00' gets 9..=18.
        let x = xz(2);
        let v = |seq: &[u8], p: u8| {
            x.encode(&IndexSpace {
                cell: Cell::from_sequence(seq),
                code: PositionCode::new(p).unwrap(),
            })
        };
        assert_eq!(v(&[0], 1), 0);
        assert_eq!(v(&[0], 9), 8);
        assert_eq!(v(&[0, 0], 1), 9);
        assert_eq!(v(&[0, 0], 10), 18);
        assert_eq!(v(&[0, 1], 1), 19);
        // §IV-C worked examples: V('03', 2) = 40, V('03', 7) = 45.
        assert_eq!(v(&[0, 3], 2), 40);
        assert_eq!(v(&[0, 3], 7), 45);
        // The last regular element '33' (see DESIGN.md on the paper's
        // 196–205 typo): values 186..=195, total 196 regular values.
        assert_eq!(v(&[3, 3], 1), 186);
        assert_eq!(v(&[3, 3], 10), 195);
        assert_eq!(x.root_block_start(), 196);
    }

    #[test]
    fn encode_decode_roundtrip_exhaustive_r2() {
        let x = xz(2);
        let mut seen = std::collections::HashSet::new();
        for value in 0..x.total_values() {
            let space = x.decode(value).unwrap_or_else(|| panic!("decode({value})"));
            assert_eq!(x.encode(&space), value, "roundtrip at {value}");
            assert!(seen.insert(space), "duplicate space for {value}");
        }
        assert_eq!(seen.len() as u64, x.total_values());
    }

    #[test]
    fn encode_decode_roundtrip_exhaustive_r3() {
        let x = xz(3);
        for value in 0..x.total_values() {
            let space = x.decode(value).expect("decodable");
            assert_eq!(x.encode(&space), value);
            // Code validity by level.
            if space.cell.level < 3 {
                assert!(space.code.0 <= 9);
            }
        }
    }

    #[test]
    fn dfs_order_preserves_prefixes() {
        // All values under a prefix form one contiguous block of size
        // N_is(l) — the property that makes query ranges contiguous.
        let x = xz(3);
        let cell = Cell::from_sequence(&[2]);
        let lo = x.encode(&IndexSpace { cell, code: PositionCode::new(1).unwrap() });
        let hi = lo + x.n_is(1) - 1;
        for value in lo..=hi {
            let space = x.decode(value).unwrap();
            let seq = space.cell.sequence();
            assert_eq!(seq.first(), Some(&2), "value {value} escaped subtree");
        }
        // The next value starts the '3' subtree.
        let next = x.decode(hi + 1).unwrap();
        assert_eq!(next.cell.sequence().first(), Some(&3));
    }

    #[test]
    fn sequence_length_by_size() {
        let x = xz(16);
        // A tiny MBR lands at max resolution.
        assert_eq!(x.sequence_length(&Mbr::new(0.5, 0.5, 0.5 + 1e-9, 0.5 + 1e-9)), 16);
        // A degenerate (point) MBR lands at max resolution.
        assert_eq!(x.sequence_length(&Mbr::new(0.3, 0.3, 0.3, 0.3)), 16);
        // Bigger MBRs land at smaller resolutions.
        let l_big = x.sequence_length(&Mbr::new(0.1, 0.1, 0.6, 0.6));
        let l_small = x.sequence_length(&Mbr::new(0.1, 0.1, 0.2, 0.2));
        assert!(l_big < l_small);
        assert!(l_big <= 1);
    }

    #[test]
    fn enlarged_element_always_covers_mbr() {
        // The covering invariant behind Lemmas 1–2.
        let x = xz(12);
        let mut rng_state = 12345u64;
        let mut rnd = || {
            rng_state =
                rng_state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (rng_state >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..2000 {
            let x0 = rnd() * 0.99;
            let y0 = rnd() * 0.99;
            let w = rnd() * (1.0 - x0);
            let h = rnd() * (1.0 - y0);
            let mbr = Mbr::new(x0, y0, x0 + w, y0 + h);
            let cell = x.anchor_cell(&mbr);
            assert!(
                cell.enlarged().extended(1e-12).contains(&mbr),
                "EE {:?} does not cover {:?} (level {})",
                cell.enlarged(),
                mbr,
                cell.level
            );
        }
    }

    #[test]
    fn index_points_produces_expected_codes() {
        let x = xz(4);
        // A horizontal trajectory crossing the a|b split of its element.
        let horizontal = pts(&[(0.26, 0.26), (0.30, 0.26), (0.37, 0.26)]);
        let space = x.index_points(&horizontal);
        let quads = space.code.quads();
        assert!(quads.contains(QuadSet::A));
        assert!(!quads.contains(QuadSet::C), "no vertical extent");
        // A vertical trajectory gets a C-containing code.
        let vertical = pts(&[(0.26, 0.26), (0.26, 0.30), (0.26, 0.37)]);
        let v_space = x.index_points(&vertical);
        assert!(v_space.code.quads().contains(QuadSet::C));
        assert!(!v_space.code.quads().contains(QuadSet::B));
    }

    #[test]
    fn stay_point_trajectory_gets_code_10() {
        let x = xz(8);
        let stay = pts(&[(0.371, 0.442), (0.371, 0.442), (0.371, 0.442)]);
        let space = x.index_points(&stay);
        assert_eq!(space.cell.level, 8, "stays land at max resolution");
        assert_eq!(space.code.0, 10);
    }

    #[test]
    fn quad_rects_tile_the_enlarged_element() {
        let cell = Cell::new(3, 2, 3);
        let rects = XzStar::quad_rects(&cell);
        let ee = cell.enlarged();
        let area: f64 = rects.iter().map(|r| r.area()).sum();
        assert!((area - ee.area()).abs() < 1e-15);
        assert_eq!(rects[0], cell.mbr(), "quad a is the cell itself");
        for r in &rects {
            assert!(ee.contains(r));
        }
    }

    #[test]
    fn touched_quads_boundary_goes_upper_right() {
        let cell = Cell::new(0, 0, 1); // EE = [0,1)², splits at 0.5
        let set = XzStar::touched_quads(&cell, &pts(&[(0.5, 0.5)]));
        assert_eq!(set, QuadSet::D);
        let set = XzStar::touched_quads(&cell, &pts(&[(0.49, 0.5)]));
        assert_eq!(set, QuadSet::C);
    }

    #[test]
    fn east_and_north_edges_index_like_the_last_cell() {
        // Unit coordinate 1.0 lies in the last cell at every level, for
        // the anchor and for the quads alike.
        let x = xz(16);
        for shape in [
            pts(&[(1.0, 0.3)]),
            pts(&[(1.0, 0.3), (1.0, 0.30001)]),
            pts(&[(0.3, 1.0)]),
            pts(&[(1.0, 1.0), (0.99999, 1.0)]),
        ] {
            let space = x.index_points(&shape);
            assert_eq!(x.decode(x.encode(&space)), Some(space));
            let rects = XzStar::quad_rects(&space.cell);
            for q in space.code.quads().iter() {
                let rect = rects[q.quad_index().unwrap()];
                assert!(shape.iter().any(|p| rect.contains_point(p)), "{shape:?}: empty quad");
            }
        }
        // One convention: a point's quad is where `Cell::containing` puts
        // it relative to the cell, on split lines and edges too.
        let coords = [0.0, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0];
        for level in 1..=3 {
            let side = 1u32 << level;
            for cell in (0..side).flat_map(|cx| (0..side).map(move |cy| Cell::new(cx, cy, level))) {
                for (&px, &py) in coords.iter().flat_map(|x| coords.iter().map(move |y| (x, y))) {
                    let at = Cell::containing(px, py, level);
                    let (qx, qy) = (u8::from(at.x > cell.x), u8::from(at.y > cell.y));
                    let got = XzStar::touched_quads(&cell, &pts(&[(px, py)]));
                    assert_eq!(got, QuadSet(1 << ((qy << 1) | qx)), "{cell:?} ({px}, {py})");
                }
            }
        }
    }

    #[test]
    fn root_block_encoding() {
        let x = xz(2);
        let space = IndexSpace { cell: Cell::ROOT, code: PositionCode::new(5).unwrap() };
        let v = x.encode(&space);
        assert_eq!(v, 196 + 4);
        assert_eq!(x.decode(v), Some(space));
        assert!(v < x.total_values());
        assert_eq!(x.decode(x.total_values()), None);
    }

    #[test]
    fn values_fit_u64_at_max_supported_resolution() {
        let x = xz(crate::quad::MAX_RESOLUTION);
        let total = x.total_values();
        assert!(total > 0, "no overflow");
        // Deepest, last index space encodes and decodes.
        let mut cell = Cell::ROOT;
        for _ in 0..crate::quad::MAX_RESOLUTION {
            cell = cell.child(3);
        }
        let space = IndexSpace { cell, code: PositionCode::new(10).unwrap() };
        let v = x.encode(&space);
        assert_eq!(v, x.root_block_start() - 1, "last regular value");
        assert_eq!(x.decode(v), Some(space));
    }

    #[test]
    fn lexicographic_order_matches_value_order() {
        // §IV-C: "the lexicographical order of quadrant sequences and
        // position codes corresponds to the less-equal order of index
        // values". DFS order = (sequence, code) lexicographic order where a
        // prefix sorts before its extensions.
        let x = xz(3);
        let mut spaces: Vec<(Vec<u8>, u8, u64)> = (0..x.root_block_start())
            .map(|v| {
                let s = x.decode(v).unwrap();
                (s.cell.sequence(), s.code.0, v)
            })
            .collect();
        let by_value = spaces.clone();
        spaces.sort_by(|a, b| {
            // Prefix-first lexicographic on sequences, then code.
            a.0.cmp(&b.0).then(a.1.cmp(&b.1))
        });
        assert_eq!(spaces, by_value);
    }
}
