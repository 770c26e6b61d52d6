//! The one traversal of the element tree, for threshold search (§V-C,
//! Algorithm 1), top-k search (§V-E, Algorithm 4) and spatial range search
//! alike.
//!
//! [`BestFirst`] maintains the paper's two priority queues — `EQ` over
//! enlarged elements (by `minDistEE`) and `IQ` over index spaces (by
//! `minDistIS`, raised to the Lemma 6 size bound of the space's level) —
//! and interleaves them so a space is only emitted once no unexpanded
//! element could produce a nearer one. Threshold search drains it at a
//! fixed ε; top-k search tightens ε between calls as results accumulate.
//!
//! What the tree is tested against is a [`SpaceTest`]: the similarity
//! lemmas ([`Similarity`], the default) or a unit-space window ([`Mbr`],
//! range search). The lemmas run cheap-first, each behind its ablation
//! switch ([`PruningConfig`]), and every rejection is counted against the
//! lemma that made it ([`PruneStats`]): an element is tested by Lemma 8
//! (intersection with `Ext(Q.MBR, ε)`), then Lemma 9 (`minDistEE`); each
//! code of an element in the Lemma 6–7 resolution band by Lemma 10 (a quad
//! beyond ε of the query's points), then Lemma 11 (`minDistIS`).
//!
//! The tree has 4^r elements and a store occupies few of them, so the
//! traversal is guided by the store's [`Occupancy`]: a child subtree or a
//! code block is entered only if rows are stored under it, and a subtree
//! holding at most [`LEAF_ROWS`] rows is resolved in one step from the
//! list of its occupied values instead of level by level. Work is
//! proportional to the occupied part of the tree the test keeps, and the
//! stream ends when that part is exhausted. Over [`EveryValue`] the same
//! walk enumerates every index space the test keeps: Algorithm 1's output.

use super::position_code::QuadSet;
use super::pruning::{
    max_resolution_bound, min_dist_ee, quad_distance, PruneStats, PruningConfig, QuadDistances,
    PRUNE_SLACK,
};
use super::XzStar;
use crate::quad::Cell;
use crate::ranges::{coalesce, ValueRange};
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
/// an infinite one, a DTW sum budget — prunes exactly as this finite one
/// does.
const UNIT_REACH: f64 = 4.0;

/// A subtree holding at most this many rows is resolved from the list of
/// its occupied values: one occupancy call and a lemma check per value,
/// against up to one call per level of the subtree otherwise. An
/// [`Occupancy`] may stop counting past it.
pub const LEAF_ROWS: u64 = 64;

/// What the store holds under ranges of index values, answered from
/// memory. Both answers are upper bounds — a deleted or shadowed row may
/// still be counted — but never miss a stored row.
pub trait Occupancy {
    /// An upper bound on the rows stored under `range`: 0 only when none
    /// is, and any answer above [`LEAF_ROWS`] may stand for a larger one.
    fn rows(&self, range: ValueRange) -> u64;
    /// The occupied values of `range`, ascending, each with an upper bound
    /// (≥ 1) on its rows.
    fn values(&self, range: ValueRange) -> Vec<(u64, u64)>;

    /// Scan ranges covering exactly the rows stored under `values`: they
    /// are coalesced, then joined across every gap that holds no row.
    fn bridge(&self, values: Vec<u64>) -> Vec<ValueRange> {
        let mut ranges = coalesce(values, 0);
        // Coalesced ranges are a value apart or more: no gap is empty.
        ranges.dedup_by(|next, last| {
            let empty = self.rows(ValueRange { start: last.end + 1, end: next.start - 1 }) == 0;
            if empty {
                last.end = next.end;
            }
            empty
        });
        ranges
    }
}

/// The occupancy of an index holding one row under every value: the
/// traversal over it visits every element Algorithm 1 visits.
#[derive(Debug, Clone, Copy, Default)]
pub struct EveryValue;

impl Occupancy for EveryValue {
    fn rows(&self, range: ValueRange) -> u64 {
        range.len()
    }

    fn values(&self, range: ValueRange) -> Vec<(u64, u64)> {
        (range.start..=range.end).map(|v| (v, 1)).collect()
    }
}

/// An index space surfaced by the traversal, with its lower-bound distance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpaceCandidate {
    /// Encoded index value (the rowkey component).
    pub value: u64,
    /// A lower bound on the similarity distance of any trajectory stored
    /// under this space: `minDistIS(Q, space)`, or the Lemma 6 size bound
    /// of the space's level where that is larger.
    pub dist: f64,
    /// The occupancy's row bound for this value (never 0).
    pub rows: u64,
}

/// What [`BestFirst`] tests the tree against. Each test returns a lower
/// bound on the distance of what it keeps, or `None`, counted in `stats`,
/// when it rejects.
pub trait SpaceTest {
    /// What the codes of one element are tested against, once per element.
    type Element;
    /// Takes the traversal's ε and returns the band `[min, max]` of levels
    /// whose codes may be kept at it: by default every level, whatever ε.
    fn set_eps(&mut self, index: &XzStar, _eps: f64) -> (u8, u8) {
        (0, index.max_resolution())
    }
    /// The subtree under enlarged element `ee`: no code in it may be kept
    /// below the bound.
    fn subtree(&self, ee: &Mbr, stats: &mut PruneStats) -> Option<f64>;
    /// Prepares the code tests of `cell`, or rejects all of its codes.
    fn element(&self, cell: &Cell, stats: &mut PruneStats) -> Option<Self::Element>;
    /// The code with `quads` of an element that passed.
    fn code(&self, element: &Self::Element, quads: QuadSet, stats: &mut PruneStats) -> Option<f64>;
}

/// The similarity lemmas 6–11 for one query at the traversal's ε.
pub struct Similarity {
    config: PruningConfig,
    q_mbr: Mbr,
    points: Vec<Point>,
    max_resolution: u8,
    /// `Ext(Q.MBR, ε)` (Lemma 8) and the rejection cutoff at the current ε.
    ext_mbr: Mbr,
    cutoff: f64,
}

/// What the codes of one element are tested against.
pub struct ElementBounds {
    /// The element's own lower bound (Lemma 9, or 0 with distance bounds
    /// off), raised to the Lemma 6 size bound of its level.
    dist: f64,
    /// Lemma 10: each quad's distance from the query's points, exact up to
    /// ε (position codes on).
    quads: Option<[f64; 4]>,
    /// Lemma 11: the edge-to-quad distances behind `minDistIS` (position
    /// codes and distance bounds on).
    edges: Option<QuadDistances>,
}

impl SpaceTest for Similarity {
    type Element = ElementBounds;

    /// Lemmas 6–7: the levels whose elements can hold a trajectory within
    /// ε of the query.
    fn set_eps(&mut self, index: &XzStar, eps: f64) -> (u8, u8) {
        self.cutoff = eps + PRUNE_SLACK;
        self.ext_mbr = self.q_mbr.extended(eps);
        (index.sequence_length(&self.ext_mbr), max_resolution_bound(index, &self.q_mbr, eps))
    }

    /// Lemmas 8 and 9: the element's `minDistEE`, or 0 with distance
    /// bounds off.
    fn subtree(&self, ee: &Mbr, stats: &mut PruneStats) -> Option<f64> {
        if !ee.intersects(&self.ext_mbr) {
            stats.lemma8_pruned += 1;
            return None;
        }
        if !self.config.use_min_dist {
            return Some(0.0);
        }
        let dist = min_dist_ee(&self.q_mbr, ee);
        if dist > self.cutoff {
            stats.lemma9_pruned += 1;
            return None;
        }
        Some(dist)
    }

    /// Lemmas 8–9 on `cell`, then what its codes are tested against.
    fn element(&self, cell: &Cell, stats: &mut PruneStats) -> Option<ElementBounds> {
        let dist = self.subtree(&cell.enlarged(), stats)?;
        let dist = dist.max(min_dist_level(&self.q_mbr, cell.level, self.max_resolution));
        let rects = XzStar::quad_rects(cell);
        let codes = self.config.use_position_codes;
        let quads = codes.then(|| {
            rects.map(|rect| quad_distance(&self.q_mbr, &self.points, &rect, self.cutoff))
        });
        let edges =
            (codes && self.config.use_min_dist).then(|| QuadDistances::new(&self.q_mbr, &rects));
        Some(ElementBounds { dist, quads, edges })
    }

    /// Lemmas 10 and 11 on the code with `quads`. The bound is the largest
    /// of the element's, the farthest of the code's quads from the query's
    /// points (Lemma 10 as a distance: a trajectory with that code has a
    /// point in each of them), and `minDistIS` (Lemma 11).
    fn code(&self, element: &ElementBounds, quads: QuadSet, stats: &mut PruneStats) -> Option<f64> {
        let mut dist = element.dist;
        if let Some(quad_dist) = &element.quads {
            let farthest = quads.iter().filter_map(QuadSet::quad_index).map(|i| quad_dist[i]);
            dist = farthest.fold(dist, f64::max);
            if dist > self.cutoff {
                stats.lemma10_codes_pruned += 1;
                return None;
            }
        }
        if let Some(edges) = &element.edges {
            dist = dist.max(edges.min_dist_is(quads));
            if dist > self.cutoff {
                stats.lemma11_codes_pruned += 1;
                return None;
            }
        }
        (dist <= self.cutoff).then_some(dist)
    }
}

/// A unit-space window: a trajectory has a point in it only if one of its
/// code's quads meets it (its points lie in their union), and then so does
/// every enlarged element above it. An enlarged element that misses the
/// window fails Lemma 8 at ε = 0, and is counted as such.
impl SpaceTest for Mbr {
    /// Which of the element's quads meet the window.
    type Element = [bool; 4];

    fn subtree(&self, ee: &Mbr, stats: &mut PruneStats) -> Option<f64> {
        let meets = ee.intersects(self);
        stats.lemma8_pruned += u64::from(!meets);
        meets.then_some(0.0)
    }

    fn element(&self, cell: &Cell, _: &mut PruneStats) -> Option<[bool; 4]> {
        Some(XzStar::quad_rects(cell).map(|rect| rect.intersects(self)))
    }

    fn code(&self, meets: &[bool; 4], quads: QuadSet, _: &mut PruneStats) -> Option<f64> {
        quads.iter().filter_map(QuadSet::quad_index).any(|i| meets[i]).then_some(0.0)
    }
}

/// Best-first enumerator of the occupied index spaces `T` keeps, by
/// increasing lower-bound distance.
pub struct BestFirst<'a, T: SpaceTest = Similarity> {
    index: &'a XzStar,
    occupancy: &'a dyn Occupancy,
    test: T,
    /// The ε of the last [`BestFirst::next_space`] call and the resolution
    /// band `T` keeps at it.
    eps: f64,
    min_r: u8,
    max_r: u8,
    /// Elements pending expansion: ([`key`] of their lower bound, cell, row
    /// bound of its subtree).
    eq: BinaryHeap<Reverse<(u64, Cell, u64)>>,
    /// Index spaces pending emission: ([`key`] of the lower bound, value,
    /// row bound).
    iq: BinaryHeap<Reverse<(u64, u64, u64)>>,
    stats: PruneStats,
}

impl<'a> BestFirst<'a> {
    /// Starts a similarity traversal for the given unit-space query points
    /// over `occupancy`, with `config`'s ablation switches; `None` for an
    /// empty query, which has no distance to anything.
    pub fn new(
        index: &'a XzStar,
        points: Vec<Point>,
        occupancy: &'a dyn Occupancy,
        config: PruningConfig,
    ) -> Option<Self> {
        let q_mbr = Mbr::from_points(points.iter())?;
        let similarity = Similarity {
            config,
            q_mbr,
            points,
            max_resolution: index.max_resolution(),
            ext_mbr: q_mbr,
            cutoff: UNIT_REACH,
        };
        Some(BestFirst::with_test(index, occupancy, similarity))
    }
}

impl<'a, T: SpaceTest> BestFirst<'a, T> {
    /// Starts a traversal of what `test` keeps over `occupancy`.
    pub fn with_test(index: &'a XzStar, occupancy: &'a dyn Occupancy, mut test: T) -> Self {
        let (min_r, max_r) = test.set_eps(index, UNIT_REACH);
        BestFirst {
            index,
            occupancy,
            test,
            eps: UNIT_REACH,
            min_r,
            max_r,
            // The root's enlarged element covers the unit square: distance 0.
            eq: BinaryHeap::from([Reverse((key(0.0), Cell::ROOT, u64::MAX))]),
            iq: BinaryHeap::new(),
            stats: PruneStats::default(),
        }
    }

    /// The counters gathered since the last call (or the start), reset.
    pub fn take_stats(&mut self) -> PruneStats {
        std::mem::take(&mut self.stats)
    }

    /// Pops the nearest occupied index space whose lower-bound distance
    /// does not certainly exceed `eps` (the `PRUNE_SLACK` comparison: a
    /// space *at* `eps` survives float residue). `eps` is the caller's
    /// current pruning bound — fixed for threshold search, `f64::INFINITY`
    /// until k results exist for top-k; it may tighten between calls but
    /// must never loosen. Returns `None` when no remaining occupied space
    /// can beat `eps`.
    pub fn next_space(&mut self, eps: f64) -> Option<SpaceCandidate> {
        let eps = eps.min(UNIT_REACH);
        if eps != self.eps {
            self.eps = eps;
            (self.min_r, self.max_r) = self.test.set_eps(self.index, eps);
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
                self.stats.visited += 1;
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
            self.stats.codes_emitted += 1;
            return Some(SpaceCandidate { value, dist: f64::from_bits(dist), rows });
        }
    }

    /// Queues what `cell` holds at the current ε: its occupied children
    /// whose subtree passes the test, and the occupied values of its code
    /// block.
    fn expand(&mut self, cell: Cell) {
        if cell.level < self.max_r && cell.level < self.index.max_resolution() {
            for child in cell.children() {
                let Some(dist) = self.test.subtree(&child.enlarged(), &mut self.stats) else {
                    continue;
                };
                let (start, end) = self.index.subtree_range(&child);
                let rows = self.occupancy.rows(ValueRange { start, end });
                if rows > 0 {
                    self.eq.push(Reverse((key(dist), child, rows)));
                }
            }
        }
        if cell.level >= self.min_r && cell.level <= self.max_r {
            self.queue_values(self.index.code_block(&cell));
        }
    }

    /// Queues the occupied values of `range` in the resolution band whose
    /// element and code pass the test.
    fn queue_values(&mut self, range: ValueRange) {
        // Values arrive ascending, so the codes of one element are
        // adjacent: each element is tested and measured once.
        let mut element: Option<(Cell, Option<T::Element>)> = None;
        for (value, rows) in self.occupancy.values(range) {
            let Some(space) = self.index.decode(value) else { continue };
            let level = space.cell.level;
            if level < self.min_r || level > self.max_r {
                continue;
            }
            if element.as_ref().map_or(true, |(cell, _)| *cell != space.cell) {
                element = Some((space.cell, self.test.element(&space.cell, &mut self.stats)));
            }
            let Some((_, Some(bounds))) = &element else { continue };
            if let Some(dist) = self.test.code(bounds, space.code.quads(), &mut self.stats) {
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

    /// A store holding one row under each value of the set.
    struct OneRowEach(BTreeSet<u64>);

    impl Occupancy for OneRowEach {
        fn rows(&self, range: ValueRange) -> u64 {
            self.values(range).len() as u64
        }

        fn values(&self, range: ValueRange) -> Vec<(u64, u64)> {
            self.0.range(range.start..=range.end).map(|&v| (v, 1)).collect()
        }
    }

    fn traversal<'a>(
        index: &'a XzStar,
        points: Vec<Point>,
        occupancy: &'a dyn Occupancy,
    ) -> BestFirst<'a> {
        BestFirst::new(index, points, occupancy, PruningConfig::default()).expect("non-empty query")
    }

    /// Every (value, distance) the traversal emits at a fixed `eps`.
    fn drain<T: SpaceTest>(frontier: &mut BestFirst<'_, T>, eps: f64) -> Vec<(u64, f64)> {
        std::iter::from_fn(|| frontier.next_space(eps)).map(|c| (c.value, c.dist)).collect()
    }

    /// 1..=`max_points` points in a random box of side up to `max_span`.
    fn query(rng: &mut trass_rng::Rng, max_points: usize, max_span: f64) -> Vec<Point> {
        let n = rng.len(1, max_points);
        let (x0, y0) = (rng.f64_in(0.05, 0.8), rng.f64_in(0.05, 0.8));
        let span = rng.f64_in(0.0, max_span);
        (0..n).map(|_| Point::new(x0 + rng.f64_in(0.0, span), y0 + rng.f64_in(0.0, span))).collect()
    }

    #[test]
    fn emits_spaces_in_nondecreasing_distance_order() {
        let index = XzStar::new(8);
        let mut bf = traversal(&index, pts(&[(0.3, 0.3), (0.32, 0.34)]), &EveryValue);
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
        let mut bf = traversal(&index, points, &EveryValue);
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
        let mut bf = traversal(&index, pts(&[(0.2, 0.2), (0.22, 0.21)]), &EveryValue);
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

    /// The lemmas as plain predicates on one index value, from their
    /// definitions: the resolution band (Lemmas 6–7), Lemmas 8–9 on the
    /// space's own enlarged element, Lemmas 10–11 on its code.
    fn lemmas_keep(index: &XzStar, points: &[Point], eps: f64, c: PruningConfig, v: u64) -> bool {
        let space = index.decode(v).expect("every value decodes");
        let q = Mbr::from_points(points.iter()).expect("non-empty query");
        let ext = q.extended(eps);
        let cutoff = eps + PRUNE_SLACK;
        let level = space.cell.level;
        if level < index.sequence_length(&ext) || level > max_resolution_bound(index, &q, eps) {
            return false;
        }
        let ee = space.cell.enlarged();
        if !ee.intersects(&ext) || (c.use_min_dist && min_dist_ee(&q, &ee) > cutoff) {
            return false;
        }
        if !c.use_position_codes {
            return true;
        }
        let rects = XzStar::quad_rects(&space.cell);
        let quads: Vec<Mbr> =
            space.code.quads().iter().filter_map(QuadSet::quad_index).map(|i| rects[i]).collect();
        let nearest_point =
            |r: &Mbr| points.iter().map(|p| r.distance_to_point(p)).fold(f64::INFINITY, f64::min);
        if quads.iter().any(|r| nearest_point(r) > cutoff) {
            return false; // Lemma 10
        }
        let min_dist_is = q
            .edges()
            .iter()
            .map(|e| quads.iter().map(|r| r.distance_to_segment(e)).fold(f64::INFINITY, f64::min))
            .fold(0.0f64, f64::max);
        !c.use_min_dist || min_dist_is <= cutoff // Lemma 11
    }

    #[test]
    fn unguided_frontier_emits_exactly_what_the_lemmas_keep() {
        // Resolution 5 keeps a scan of every value (13,309 of them) cheap.
        let index = XzStar::new(5);
        trass_rng::check(16, |rng| {
            let points = query(rng, 12, 0.1);
            let eps = rng.f64_in(0.0, 0.05);
            for (use_position_codes, use_min_dist) in
                [(true, true), (true, false), (false, true), (false, false)]
            {
                let config = PruningConfig { use_position_codes, use_min_dist, range_gap: 0 };
                let expected: Vec<u64> = (0..index.total_values())
                    .filter(|&v| lemmas_keep(&index, &points, eps, config, v))
                    .collect();
                let mut bf = BestFirst::new(&index, points.clone(), &EveryValue, config).unwrap();
                let emitted = drain(&mut bf, eps);
                assert!(emitted.iter().all(|&(_, d)| d <= eps + PRUNE_SLACK), "{config:?}");
                let mut got: Vec<u64> = emitted.into_iter().map(|(v, _)| v).collect();
                got.sort_unstable();
                assert_eq!(got, expected, "{config:?} at eps {eps}");
                assert_eq!(bf.take_stats().codes_emitted, got.len() as u64);
            }
        });
    }

    #[test]
    fn window_emits_exactly_the_spaces_with_a_quad_in_it() {
        let index = XzStar::new(5);
        trass_rng::check(16, |rng| {
            let (x, y) = (rng.f64_in(-0.1, 1.0), rng.f64_in(-0.1, 1.0));
            // Points and segments as well as boxes, some past the square.
            let (w, h) = (rng.f64_in(0.0, 0.3) * f64::from(rng.bool(0.8)), rng.f64_in(0.0, 0.3));
            let window = Mbr::new(x, y, x + w, y + h);
            let meets = |v: &u64| {
                let space = index.decode(*v).expect("every value decodes");
                let rects = XzStar::quad_rects(&space.cell);
                space
                    .code
                    .quads()
                    .iter()
                    .filter_map(QuadSet::quad_index)
                    .any(|i| rects[i].intersects(&window))
            };
            let expected: Vec<u64> = (0..index.total_values()).filter(meets).collect();
            let mut bf = BestFirst::with_test(&index, &EveryValue, window);
            let emitted = drain(&mut bf, 0.0);
            assert!(emitted.iter().all(|&(_, d)| d == 0.0));
            let mut got: Vec<u64> = emitted.into_iter().map(|(v, _)| v).collect();
            got.sort_unstable();
            assert_eq!(got, expected, "{window:?}");
        });
    }

    #[test]
    fn bridge_joins_only_gaps_without_rows() {
        let r = |start, end| ValueRange { start, end };
        let store = OneRowEach(BTreeSet::from([1, 2, 5, 9, 10, 20, 30]));
        assert_eq!(store.bridge(vec![5, 1, 9, 2]), [r(1, 9)]);
        assert_eq!(store.bridge(vec![2, 5, 2]), [r(2, 5)]);
        assert_eq!(store.bridge(vec![1, 9, 20]), [r(1, 1), r(9, 9), r(20, 20)]);
        assert_eq!(store.bridge(vec![10, 30, 20, 1]), [r(1, 1), r(10, 30)]);
        assert!(store.bridge(Vec::new()).is_empty());
    }

    #[test]
    fn empty_query_has_no_traversal() {
        let index = XzStar::new(8);
        assert!(BestFirst::new(&index, Vec::new(), &EveryValue, PruningConfig::default()).is_none());
    }

    #[test]
    fn a_space_at_eps_survives_float_residue() {
        // Top-k's ε is a k-th best distance computed by a kernel in world
        // units; a space whose own lower bound ties it differs from it by
        // float residue, in either direction. Whatever the unguided
        // traversal keeps at an ε a residue below a space's bound, the
        // traversal over that space alone emits.
        let index = XzStar::new(8);
        let points = pts(&[(0.41, 0.33), (0.44, 0.37), (0.46, 0.33)]);
        let mut bf = traversal(&index, points.clone(), &EveryValue);
        let dists: Vec<(u64, f64)> =
            drain(&mut bf, 0.05).into_iter().filter(|c| c.1 > 0.0).collect();
        let mut ties = 0;
        for &(value, dist) in dists.iter().step_by(7) {
            let eps = dist - 1e-14;
            let mut unguided = traversal(&index, points.clone(), &EveryValue);
            if !drain(&mut unguided, eps).iter().any(|&(v, _)| v == value) {
                continue; // Lemmas 6, 7 or 10 reject it at this tighter ε.
            }
            ties += 1;
            let alone = OneRowEach(BTreeSet::from([value]));
            let mut bf = traversal(&index, points.clone(), &alone);
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
            let points = query(rng, 6, 0.15);
            let eps = if rng.bool(0.3) { f64::INFINITY } else { rng.f64_in(0.0, 0.3) };
            let all = drain(&mut traversal(&index, points.clone(), &EveryValue), eps);
            let occupied: BTreeSet<u64> = (0..rng.len(0, 40))
                .map(|_| {
                    if all.is_empty() || rng.bool(0.3) {
                        rng.u64_in(0, index.total_values() - 1)
                    } else {
                        all[rng.usize_in(0, all.len() - 1)].0
                    }
                })
                .collect();
            let occupancy = OneRowEach(occupied.clone());
            let mut bf = traversal(&index, points, &occupancy);
            let mut guided = Vec::new();
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
            let visited = bf.take_stats().visited;
            assert!(visited <= 6 * occupied.len() as u64 + 1, "{visited}");
        });
    }
}
