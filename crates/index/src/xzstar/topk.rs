//! Best-first traversal for top-k search (§V-E, Algorithm 4).
//!
//! Top-k search has no threshold up front; it discovers index spaces in
//! increasing lower-bound distance, letting the caller tighten ε as
//! results accumulate. [`BestFirst`] maintains the paper's two priority
//! queues — `EQ` over enlarged elements (by `minDistEE`) and `IQ` over
//! index spaces (by `minDistIS`, raised to the Lemma 6 size bound of the
//! space's level) — and interleaves them so a space is only emitted once
//! no unexpanded element could produce a nearer one.
//!
//! The tree has 4^r elements and a store occupies few of them, so the
//! traversal is guided by the store's [`Occupancy`]: a child subtree or a
//! code block is entered only if rows are stored under it, and a subtree
//! holding at most [`LEAF_ROWS`] rows is resolved in one step from the
//! list of its occupied values instead of level by level. Work is
//! proportional to the occupied part of the tree within ε, and the stream
//! ends when that part is exhausted.

use super::position_code::QuadSet;
use super::pruning::{
    max_resolution_bound, min_dist_ee, quad_distance, QuadDistances, PRUNE_SLACK,
};
use super::{IndexSpace, XzStar};
use crate::quad::Cell;
use crate::ranges::ValueRange;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use trass_geo::{Mbr, Point};

/// Heap key of a lower-bound distance: for non-negative floats the bit
/// pattern orders as the value does (`+ 0.0` folds `-0.0` into `+0.0`).
fn key(dist: f64) -> u64 {
    (dist + 0.0).to_bits()
}

/// No lower bound in unit space reaches this: queries lie in `[0, 1]²` and
/// the root's enlarged element spans `[0, 2]²`. Any ε at or above it —
/// the infinite one before k results exist, a DTW sum budget — prunes
/// exactly as this finite one does.
const UNIT_REACH: f64 = 4.0;

/// A subtree holding at most this many rows is resolved from the list of
/// its occupied values: one occupancy call and a lemma check per value,
/// against up to one call per level of the subtree otherwise.
const LEAF_ROWS: u64 = 64;

/// What the store holds under ranges of index values, answered from
/// memory. Both answers are upper bounds — a deleted or shadowed row may
/// still be counted — but never miss a stored row.
pub trait Occupancy {
    /// An upper bound on the rows stored under each of `ranges`.
    fn rows(&self, ranges: &[ValueRange]) -> Vec<u64>;
    /// The occupied values of `range`, ascending, each with an upper bound
    /// (≥ 1) on its rows.
    fn values(&self, range: ValueRange) -> Vec<(u64, u64)>;
}

/// An index space surfaced by the traversal, with its lower-bound distance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpaceCandidate {
    /// Encoded index value (the rowkey component).
    pub value: u64,
    /// The decoded index space.
    pub space: IndexSpace,
    /// A lower bound on the similarity distance of any trajectory stored
    /// under this space: `minDistIS(Q, space)`, or the Lemma 6 size bound
    /// of the space's level where that is larger.
    pub dist: f64,
    /// The occupancy's row bound for this value (never 0).
    pub rows: u64,
}

/// Best-first enumerator of the occupied index spaces by increasing
/// lower-bound distance.
pub struct BestFirst<'a, O> {
    index: &'a XzStar,
    q_mbr: Mbr,
    points: Vec<Point>,
    occupancy: O,
    /// The ε of the last [`BestFirst::next_space`] call and its Lemma 6–7
    /// resolution band.
    eps: f64,
    min_r: u8,
    max_r: u8,
    /// Elements pending expansion: ([`key`] of `minDistEE`, cell, row
    /// bound of its subtree).
    eq: BinaryHeap<Reverse<(u64, Cell, u64)>>,
    /// Index spaces pending emission: ([`key`] of the lower bound, value,
    /// row bound).
    iq: BinaryHeap<Reverse<(u64, u64, u64)>>,
    expanded: u64,
}

impl<'a, O: Occupancy> BestFirst<'a, O> {
    /// Starts a traversal for the given unit-space query points; `None`
    /// for an empty query, which has no distance to anything.
    pub fn new(index: &'a XzStar, points: Vec<Point>, occupancy: O) -> Option<Self> {
        let q_mbr = Mbr::from_points(points.iter())?;
        let root = min_dist_ee(&q_mbr, &Cell::ROOT.enlarged());
        let eq = BinaryHeap::from([Reverse((key(root), Cell::ROOT, u64::MAX))]);
        Some(BestFirst {
            index,
            q_mbr,
            points,
            occupancy,
            eps: UNIT_REACH,
            min_r: 0,
            max_r: index.max_resolution(),
            eq,
            iq: BinaryHeap::new(),
            expanded: 0,
        })
    }

    /// Elements expanded so far (the traversal's unit of work).
    pub fn expanded(&self) -> u64 {
        self.expanded
    }

    /// Pops the nearest occupied index space whose lower-bound distance
    /// does not certainly exceed `eps` (Algorithm 1's `PRUNE_SLACK`
    /// comparison: a space *at* `eps` survives float residue). `eps` is the
    /// caller's current pruning bound (`f64::INFINITY` until k results
    /// exist); it may tighten between calls but must never loosen.
    /// Returns `None` when no remaining occupied space can beat `eps`.
    pub fn next_space(&mut self, eps: f64) -> Option<SpaceCandidate> {
        let eps = eps.min(UNIT_REACH);
        if eps != self.eps {
            self.eps = eps;
            self.min_r = self.index.sequence_length(&self.q_mbr.extended(eps));
            self.max_r = max_resolution_bound(self.index, &self.q_mbr, eps);
        }
        let cutoff = key(eps + PRUNE_SLACK);
        loop {
            // Expand elements while the nearest unexpanded element could
            // still yield a space nearer than the best queued space.
            while let Some(&Reverse((e_dist, cell, rows))) = self.eq.peek() {
                if e_dist > cutoff {
                    self.eq.clear(); // everything left is worse
                    break;
                }
                if self.iq.peek().is_some_and(|&Reverse((s_dist, _, _))| s_dist <= e_dist) {
                    break;
                }
                self.eq.pop();
                self.expanded += 1;
                if rows <= LEAF_ROWS {
                    let (start, end) = self.index.subtree_range(&cell);
                    self.queue_values(ValueRange { start, end });
                } else {
                    self.expand(cell);
                }
            }
            let Reverse((dist, value, rows)) = self.iq.pop()?;
            if dist > cutoff {
                // All remaining spaces are at least this far.
                self.iq.clear();
                return None;
            }
            // Every queued value decoded when it was queued.
            let Some(space) = self.index.decode(value) else { continue };
            // ε may have tightened since this space was queued; re-check
            // the resolution band (Lemmas 6–7 at the current ε).
            if space.cell.level < self.min_r || space.cell.level > self.max_r {
                continue;
            }
            return Some(SpaceCandidate { value, space, dist: f64::from_bits(dist), rows });
        }
    }

    /// Queues what `cell` holds within the current ε: the occupied values
    /// of its code block and its occupied children (Lemmas 8–9 via
    /// `minDistEE`), after one occupancy call for the five of them.
    fn expand(&mut self, cell: Cell) {
        let cutoff = self.eps + PRUNE_SLACK;
        let block = self.index.code_block(&cell);
        let in_band = cell.level >= self.min_r && cell.level <= self.max_r;

        let mut children: Vec<(f64, Cell)> = Vec::with_capacity(4);
        if cell.level < self.max_r && cell.level < self.index.max_resolution() {
            for child in cell.children() {
                let dist = min_dist_ee(&self.q_mbr, &child.enlarged());
                if dist <= cutoff {
                    children.push((dist, child));
                }
            }
        }
        let mut probes: Vec<ValueRange> = Vec::with_capacity(5);
        if in_band {
            probes.push(block);
        }
        for (_, child) in &children {
            let (start, end) = self.index.subtree_range(child);
            probes.push(ValueRange { start, end });
        }
        let rows = self.occupancy.rows(&probes);
        let child_rows = rows.get(usize::from(in_band)..).unwrap_or_default();
        for (&(dist, child), &n) in children.iter().zip(child_rows) {
            if n > 0 {
                self.eq.push(Reverse((key(dist), child, n)));
            }
        }
        if in_band && rows.first().is_some_and(|&n| n > 0) {
            self.queue_values(block);
        }
    }

    /// Queues the occupied values of `range` whose lower bound does not
    /// exceed the current ε. The bound is the largest of three: `minDistIS`
    /// (Lemma 11), the size bound of the space's level (Lemma 6), and —
    /// Lemma 10 as a distance — the farthest of the code's quads from the
    /// query's points, since a trajectory with that code has a point in
    /// each of them.
    fn queue_values(&mut self, range: ValueRange) {
        let cutoff = self.eps + PRUNE_SLACK;
        // Values arrive ascending, so the codes of one element are
        // adjacent: its quads are measured once.
        let mut element: Option<(Cell, QuadDistances, [f64; 4])> = None;
        for (value, rows) in self.occupancy.values(range) {
            let Some(space) = self.index.decode(value) else { continue };
            let level = space.cell.level;
            if level < self.min_r || level > self.max_r {
                continue;
            }
            if element.as_ref().map_or(true, |(cell, _, _)| *cell != space.cell) {
                let rects = XzStar::quad_rects(&space.cell);
                let quad_dist =
                    rects.map(|rect| quad_distance(&self.q_mbr, &self.points, &rect, cutoff));
                element = Some((space.cell, QuadDistances::new(&self.q_mbr, &rects), quad_dist));
            }
            let Some((_, edge_dist, quad_dist)) = &element else { continue };
            let quads = space.code.quads();
            let farthest_quad = quads
                .iter()
                .filter_map(QuadSet::quad_index)
                .map(|i| quad_dist[i])
                .fold(min_dist_level(&self.q_mbr, level, self.index.max_resolution()), f64::max);
            if farthest_quad > cutoff {
                continue;
            }
            let dist = edge_dist.min_dist_is(quads).max(farthest_quad);
            if dist <= cutoff {
                self.iq.push(Reverse((key(dist), value, rows)));
            }
        }
    }
}

/// Lemma 6 as a distance. A trajectory stored at `level` below the maximum
/// resolution has an MBR whose larger side exceeds `0.5^(level+1)` (it
/// would have been given a longer quadrant sequence otherwise), and a
/// trajectory within `d` of the query lies inside `Ext(Q.MBR, d)`, whose
/// larger side is the query's plus `2d`: so `d > (0.5^(level+1) − side) / 2`.
/// It rejects at ε only levels that the Lemma 6 floor `min_r(ε)` rejects.
fn min_dist_level(query_mbr: &Mbr, level: u8, max_resolution: u8) -> f64 {
    if level >= max_resolution {
        return 0.0;
    }
    let side = query_mbr.width().max(query_mbr.height());
    ((0.5f64.powi(i32::from(level) + 1) - side) / 2.0).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn pts(v: &[(f64, f64)]) -> Vec<Point> {
        v.iter().map(|&(x, y)| Point::new(x, y)).collect()
    }

    /// A store holding one row under each value of the set, or under
    /// every value of the index when `None`.
    struct OneRowEach(Option<BTreeSet<u64>>);

    impl Occupancy for OneRowEach {
        fn rows(&self, ranges: &[ValueRange]) -> Vec<u64> {
            ranges.iter().map(|&r| self.values(r).len() as u64).collect()
        }

        fn values(&self, range: ValueRange) -> Vec<(u64, u64)> {
            match &self.0 {
                None => (range.start..=range.end).map(|v| (v, 1)).collect(),
                Some(set) => set.range(range.start..=range.end).map(|&v| (v, 1)).collect(),
            }
        }
    }

    fn traversal(
        index: &XzStar,
        points: Vec<Point>,
        occupied: Option<BTreeSet<u64>>,
    ) -> BestFirst<'_, OneRowEach> {
        BestFirst::new(index, points, OneRowEach(occupied)).expect("non-empty query")
    }

    #[test]
    fn emits_spaces_in_nondecreasing_distance_order() {
        let index = XzStar::new(8);
        let mut bf = traversal(&index, pts(&[(0.3, 0.3), (0.32, 0.34)]), None);
        let mut last = 0.0f64;
        let mut count = 0;
        while let Some(c) = bf.next_space(f64::INFINITY) {
            assert!(c.dist >= last - 1e-12, "order violated: {} after {}", c.dist, last);
            last = c.dist;
            count += 1;
            if count >= 200 {
                break;
            }
        }
        assert!(count >= 200, "traversal starved early at {count}");
    }

    #[test]
    fn first_spaces_include_the_query_own_space() {
        let index = XzStar::new(8);
        let points = pts(&[(0.52, 0.41), (0.55, 0.44), (0.58, 0.42)]);
        let own = index.encode(&index.index_points(&points));
        let mut bf = traversal(&index, points, None);
        let mut found = false;
        for _ in 0..100 {
            match bf.next_space(f64::INFINITY) {
                Some(c) if c.value == own => {
                    assert_eq!(c.dist, 0.0, "own space has zero lower bound");
                    found = true;
                    break;
                }
                Some(c) => assert_eq!(c.dist, 0.0, "own space must precede nonzero spaces"),
                None => break,
            }
        }
        assert!(found, "own space never emitted");
    }

    #[test]
    fn tightening_eps_terminates_enumeration() {
        let index = XzStar::new(8);
        let mut bf = traversal(&index, pts(&[(0.2, 0.2), (0.22, 0.21)]), None);
        // Consume a few spaces at infinite eps.
        for _ in 0..5 {
            assert!(bf.next_space(f64::INFINITY).is_some());
        }
        // A very tight eps must end the stream quickly (only zero-distance
        // spaces survive, and they are finitely many).
        let mut remaining = 0;
        while let Some(c) = bf.next_space(1e-9) {
            assert!(c.dist <= 1e-9);
            remaining += 1;
            assert!(remaining < 1000, "stream failed to terminate");
        }
    }

    #[test]
    fn no_space_farther_than_eps_is_emitted() {
        let index = XzStar::new(8);
        let mut bf = traversal(&index, pts(&[(0.7, 0.7)]), None);
        while let Some(c) = bf.next_space(0.05) {
            assert!(c.dist <= 0.05 + PRUNE_SLACK);
        }
    }

    #[test]
    fn matches_global_pruning_at_fixed_eps() {
        // At a fixed ε, the spaces the unguided best-first stream emits are
        // exactly the values Algorithm 1 computes: both apply one Lemma 10.
        use super::super::pruning::{GlobalPruning, PruningConfig, QueryContext};
        let index = XzStar::new(8);
        let pruner = GlobalPruning::new(&index, PruningConfig::default());
        trass_rng::check(96, |rng| {
            let n = rng.len(1, 12);
            let (x0, y0) = (rng.f64_in(0.05, 0.8), rng.f64_in(0.05, 0.8));
            let span = rng.f64_in(0.0, 0.1);
            let points: Vec<Point> = (0..n)
                .map(|_| Point::new(x0 + rng.f64_in(0.0, span), y0 + rng.f64_in(0.0, span)))
                .collect();
            let eps = rng.f64_in(0.0, 0.02);

            let ctx = QueryContext::new(&index, points.clone(), eps);
            let mut expected = pruner.query_values(&ctx);
            expected.sort_unstable();

            let mut bf = traversal(&index, points, None);
            let mut got = Vec::new();
            while let Some(c) = bf.next_space(eps) {
                got.push(c.value);
            }
            got.sort_unstable();
            assert_eq!(got, expected, "{n} points at eps {eps}");
        });
    }

    #[test]
    fn empty_query_has_no_traversal() {
        let index = XzStar::new(8);
        assert!(BestFirst::new(&index, Vec::new(), OneRowEach(None)).is_none());
    }

    #[test]
    fn a_space_at_eps_survives_float_residue() {
        // Top-k's ε is a k-th best distance computed by a kernel in world
        // units; a space whose own lower bound ties it differs from it by
        // float residue, in either direction. Whatever Algorithm 1 keeps
        // at an ε a residue below a space's bound, the traversal emits.
        use super::super::pruning::{GlobalPruning, PruningConfig, QueryContext};
        let index = XzStar::new(8);
        let pruner = GlobalPruning::new(&index, PruningConfig::default());
        let points = pts(&[(0.41, 0.33), (0.44, 0.37), (0.46, 0.33)]);
        let mut dists = Vec::new();
        let mut bf = traversal(&index, points.clone(), None);
        while let Some(c) = bf.next_space(0.05) {
            if c.dist > 0.0 {
                dists.push((c.value, c.dist));
            }
        }
        let mut ties = 0;
        for &(value, dist) in dists.iter().step_by(7) {
            let eps = dist - 1e-14;
            let ctx = QueryContext::new(&index, points.clone(), eps);
            if !pruner.query_values(&ctx).contains(&value) {
                continue; // Lemmas 6, 7 or 10 reject it at this tighter ε.
            }
            ties += 1;
            let mut bf = traversal(&index, points.clone(), Some(BTreeSet::from([value])));
            let got = bf.next_space(eps).expect("space at eps dropped");
            assert_eq!((got.value, got.dist), (value, dist));
            assert!(bf.next_space(eps).is_none());
        }
        assert!(ties > 20, "only {ties} spaces tie their own bound");
    }

    #[test]
    fn occupancy_emits_exactly_the_occupied_subset_in_order() {
        // Resolution 5 keeps the unguided stream (every value within ε)
        // small enough to enumerate per case.
        let index = XzStar::new(5);
        trass_rng::check(48, |rng| {
            let n = rng.len(1, 6);
            let (x0, y0) = (rng.f64_in(0.05, 0.8), rng.f64_in(0.05, 0.8));
            let span = rng.f64_in(0.0, 0.15);
            let points: Vec<Point> = (0..n)
                .map(|_| Point::new(x0 + rng.f64_in(0.0, span), y0 + rng.f64_in(0.0, span)))
                .collect();
            let eps = if rng.bool(0.3) { f64::INFINITY } else { rng.f64_in(0.0, 0.3) };
            let mut all = Vec::new();
            let mut bf = traversal(&index, points.clone(), None);
            while let Some(c) = bf.next_space(eps) {
                all.push((c.value, c.dist));
            }
            let occupied: BTreeSet<u64> = (0..rng.len(0, 40))
                .map(|_| {
                    if all.is_empty() || rng.bool(0.3) {
                        rng.u64_in(0, index.total_values() - 1)
                    } else {
                        all[rng.usize_in(0, all.len() - 1)].0
                    }
                })
                .collect();
            let mut guided = Vec::new();
            let mut bf = traversal(&index, points, Some(occupied.clone()));
            while let Some(c) = bf.next_space(eps) {
                assert_eq!(c.rows, 1);
                guided.push((c.value, c.dist));
            }
            assert!(guided.windows(2).all(|w| w[0].1 <= w[1].1), "order: {guided:?}");
            let mut expected: Vec<(u64, f64)> =
                all.iter().copied().filter(|(v, _)| occupied.contains(v)).collect();
            expected.sort_by_key(|a| a.0);
            guided.sort_by_key(|a| a.0);
            assert_eq!(guided, expected);
            // Only elements on the path to an occupied value are expanded.
            assert!(bf.expanded() <= 6 * occupied.len() as u64 + 1, "{}", bf.expanded());
        });
    }
}
