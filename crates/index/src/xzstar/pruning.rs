//! Global pruning (§V-C, Algorithm 1): the lemmas' distance bounds and the
//! per-query pruning types.
//!
//! Given a query trajectory and a threshold ε, global pruning produces the
//! index values whose spaces could still contain similar trajectories:
//!
//! * **Lemmas 6–7** bound the useful resolutions to `[MinR, MaxR]`:
//!   elements much larger or much smaller than the query cannot hold
//!   similar trajectories.
//! * **Lemma 8** prunes subtrees whose enlarged element misses
//!   `Ext(Q.MBR, ε)` entirely.
//! * **Lemma 9** prunes subtrees by `minDistEE` (Definition 10): the
//!   largest, over the query MBR's four edges, of the minimum distance from
//!   that edge to the element — a lower bound on the similarity distance,
//!   monotone down the tree.
//! * **Lemma 10** drops position codes containing a sub-quad farther than ε
//!   from the query's point set (`quad_distance`).
//! * **Lemma 11** drops index spaces by `minDistIS` (Definition 11), the
//!   edge-based bound against the code's quad union.
//!
//! The walk that applies them is [`BestFirst`] over
//! [`Similarity`](super::Similarity), shared by threshold and top-k search
//! (range search walks it with a window instead);
//! [`GlobalPruning`] is that walk over [`EveryValue`], which enumerates
//! every index space the lemmas keep whether or not a row lives there.

use super::frontier::{BestFirst, EveryValue};
use super::position_code::QuadSet;
use super::XzStar;
use crate::ranges::{coalesce, ValueRange};
use trass_geo::{Mbr, Point};

/// Absolute slack added to every rejection comparison: pruning may only
/// drop a space when the lower bound *certainly* exceeds ε, and distance
/// arithmetic leaves ~1e-16 residue that would otherwise break exact
/// (ε = 0) queries.
pub(crate) const PRUNE_SLACK: f64 = 1e-12;

/// Tuning and ablation switches for global pruning.
#[derive(Debug, Clone, Copy)]
pub struct PruningConfig {
    /// Coalescing gap when turning values into scan ranges (0 = only merge
    /// strictly adjacent values).
    pub range_gap: u64,
    /// Apply position-code filtering (Lemmas 10–11). Disabling reduces XZ\*
    /// to element-granularity pruning — the ablation of §VI-D.
    pub use_position_codes: bool,
    /// Apply the distance bounds (Lemmas 9 and 11). Disabling leaves only
    /// intersection tests (Lemma 8) and the resolution band.
    pub use_min_dist: bool,
}

impl Default for PruningConfig {
    fn default() -> Self {
        PruningConfig { range_gap: 0, use_position_codes: true, use_min_dist: true }
    }
}

/// A query for [`GlobalPruning`]: unit-space points and threshold.
#[derive(Debug, Clone)]
pub struct QueryContext {
    /// Query points in unit space.
    pub points: Vec<Point>,
    /// Threshold in unit space.
    pub eps: f64,
}

impl QueryContext {
    /// Builds the context for unit-space query points and threshold. The
    /// context holds nothing index-specific; the index argument only names
    /// the index the query is for.
    ///
    /// # Panics
    /// Panics if `points` is empty or `eps` is negative/NaN.
    pub fn new(_index: &XzStar, points: Vec<Point>, eps: f64) -> Self {
        // trass-lint: allow(panic-surface) internal invariant on split positions; violation is a programming error worth failing loudly on
        assert!(!points.is_empty(), "empty query trajectory");
        // trass-lint: allow(panic-surface) internal invariant on split positions; violation is a programming error worth failing loudly on
        assert!(eps >= 0.0, "negative or NaN threshold");
        QueryContext { points, eps }
    }
}

/// Lemma 10 as a distance: how far the query's points are from the quad
/// `rect`, exact up to `cutoff`. A trajectory whose position code holds
/// the quad has a point in it, so a quad beyond ε rejects the code. The
/// query's MBR is tried first; where it alone is beyond `cutoff`, that
/// (smaller) distance rejects as well and the points are not visited.
pub(crate) fn quad_distance(query_mbr: &Mbr, points: &[Point], rect: &Mbr, cutoff: f64) -> f64 {
    let mbr_dist = query_mbr.distance_to_mbr(rect);
    if mbr_dist > cutoff {
        return mbr_dist;
    }
    points.iter().map(|p| rect.distance_sq_to_point(p)).fold(f64::INFINITY, f64::min).sqrt()
}

/// Definition 9 / Lemma 7: the largest resolution whose enlarged elements
/// can still hold trajectories similar to a query with the given MBR.
#[allow(clippy::as_conversions)] // the two float → integer casts at the end, justified there
pub(crate) fn max_resolution_bound(index: &XzStar, query_mbr: &Mbr, eps: f64) -> u8 {
    let r = index.max_resolution();
    if !eps.is_finite() {
        return r;
    }
    // Need an EE of size 2·0.5^res with (max_dim − 2·0.5^res)/2 ≤ ε,
    // i.e. 0.5^res ≥ t where t = max_dim/2 − ε.
    let t = query_mbr.width().max(query_mbr.height()) / 2.0 - eps;
    if t <= 0.0 {
        return r;
    }
    let mut max_r = (t.ln() / 0.5f64.ln()).floor();
    if max_r < 0.0 {
        return 0;
    }
    if max_r >= f64::from(r) {
        return r;
    }
    // Guard the floating-point floor against boundary error. The float is
    // in [0, r) here, so the truncating casts below are exact.
    while max_r > 0.0 && 0.5f64.powi(max_r as i32) < t {
        max_r -= 1.0;
    }
    max_r as u8
}

/// Definition 10: `minDistEE` — the largest, over the four edges of the
/// query MBR, of the minimum distance from that edge to `region`. Each MBR
/// edge is guaranteed to carry a trajectory point, so this lower-bounds the
/// similarity distance to any trajectory inside `region` (Lemma 9).
pub fn min_dist_ee(query_mbr: &Mbr, region: &Mbr) -> f64 {
    query_mbr.edges().iter().map(|edge| region.distance_to_segment(edge)).fold(0.0f64, f64::max)
}

/// Definition 11 for every index space of one element: `minDistIS`
/// against a union of the element's quads is, per edge of the query MBR,
/// the nearest of those quads, and the farthest such edge. The sixteen
/// edge-to-quad distances are measured once and serve all ten codes.
pub(crate) struct QuadDistances {
    /// `[edge][quad]`, quads in a, b, c, d order.
    edge_to_quad: [[f64; 4]; 4],
}

impl QuadDistances {
    pub(crate) fn new(query_mbr: &Mbr, rects: &[Mbr; 4]) -> Self {
        let edge_to_quad =
            query_mbr.edges().map(|edge| [0, 1, 2, 3].map(|i| rects[i].distance_to_segment(&edge)));
        QuadDistances { edge_to_quad }
    }

    /// `minDistIS` of the index space whose quads are `quads`.
    pub(crate) fn min_dist_is(&self, quads: QuadSet) -> f64 {
        self.edge_to_quad
            .iter()
            .map(|quad_dist| {
                quads
                    .iter()
                    .filter_map(QuadSet::quad_index)
                    .map(|i| quad_dist[i])
                    .fold(f64::INFINITY, f64::min)
            })
            .fold(0.0f64, f64::max)
    }
}

/// Per-query pruning outcome counters: how many elements each lemma
/// killed, how many position codes were dropped, and what was emitted.
/// Gathered by [`BestFirst`]; feeds trace spans and ablation reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneStats {
    /// Elements expanded, or resolved from their occupied values.
    pub visited: u64,
    /// Elements dropped by the lemma 8 intersection test.
    pub lemma8_pruned: u64,
    /// Elements dropped by the lemma 9 `minDistEE` bound.
    pub lemma9_pruned: u64,
    /// Position codes dropped by the lemma 10 far-quad test.
    pub lemma10_codes_pruned: u64,
    /// Position codes dropped by the lemma 11 `minDistIS` bound.
    pub lemma11_codes_pruned: u64,
    /// Index values emitted as candidates.
    pub codes_emitted: u64,
}

/// Algorithm 1 over the whole index: [`BestFirst`] drained at a fixed ε
/// over [`EveryValue`], so every index space the lemmas keep is emitted,
/// occupied or not. The query paths drain the same walk over the store's
/// occupancy instead.
#[derive(Debug, Clone, Copy)]
pub struct GlobalPruning<'a> {
    index: &'a XzStar,
    config: PruningConfig,
}

impl<'a> GlobalPruning<'a> {
    /// Creates a pruning engine over `index`.
    pub fn new(index: &'a XzStar, config: PruningConfig) -> Self {
        GlobalPruning { index, config }
    }

    /// The candidate index values for a query context, unsorted.
    pub fn query_values(&self, q: &QueryContext) -> Vec<u64> {
        self.drain(q).0
    }

    /// Candidate values coalesced into contiguous scan ranges, plus
    /// per-lemma pruning counters.
    pub fn query_ranges_stats(&self, q: &QueryContext) -> (Vec<ValueRange>, PruneStats) {
        let (values, stats) = self.drain(q);
        (coalesce(values, self.config.range_gap), stats)
    }

    fn drain(&self, q: &QueryContext) -> (Vec<u64>, PruneStats) {
        let points = q.points.clone();
        let Some(mut frontier) = BestFirst::new(self.index, points, &EveryValue, self.config)
        else {
            unreachable!("QueryContext::new asserts a non-empty query")
        };
        let values = std::iter::from_fn(|| frontier.next_space(q.eps)).map(|c| c.value).collect();
        (values, frontier.take_stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(v: &[(f64, f64)]) -> Vec<Point> {
        v.iter().map(|&(x, y)| Point::new(x, y)).collect()
    }

    #[test]
    fn min_dist_ee_zero_when_mbr_inside() {
        let q = Mbr::new(0.3, 0.3, 0.4, 0.4);
        let region = Mbr::new(0.0, 0.0, 1.0, 1.0);
        assert_eq!(min_dist_ee(&q, &region), 0.0);
    }

    #[test]
    fn min_dist_ee_for_centered_small_region() {
        // Fig. 6(b): a small EE centered in the query MBR leaves the MBR's
        // edges at distance (dim - ee_dim) / 2.
        let q = Mbr::new(0.0, 0.0, 1.0, 1.0);
        let ee = Mbr::new(0.4, 0.4, 0.6, 0.6);
        let d = min_dist_ee(&q, &ee);
        assert!((d - 0.4).abs() < 1e-12, "d = {d}");
    }

    #[test]
    fn min_dist_ee_for_far_region() {
        let q = Mbr::new(0.0, 0.0, 0.1, 0.1);
        let ee = Mbr::new(0.5, 0.0, 0.6, 0.1);
        // Every edge of q is at least 0.4 away horizontally; the left edge
        // is 0.5 away.
        let d = min_dist_ee(&q, &ee);
        assert!((d - 0.5).abs() < 1e-12, "d = {d}");
    }

    #[test]
    fn min_dist_is_uses_union() {
        let q = Mbr::new(0.0, 0.0, 0.2, 0.2);
        let near = Mbr::new(0.25, 0.0, 0.3, 0.2);
        let far = Mbr::new(0.9, 0.9, 1.0, 1.0);
        let distances = QuadDistances::new(&q, &[near, far, far, far]);
        // With both rects, each edge's distance is to the nearest rect.
        let with_near = distances.min_dist_is(QuadSet::A.union(QuadSet::B));
        let only_far = distances.min_dist_is(QuadSet::B);
        assert!(with_near < only_far);
    }

    #[test]
    fn max_resolution_bound_cases() {
        let index = XzStar::new(16);
        // Point query: no lower size bound → full depth.
        let point = Mbr::new(0.5, 0.5, 0.5, 0.5);
        assert_eq!(max_resolution_bound(&index, &point, 0.001), 16);
        // Large query, tiny eps: deep elements are impossible.
        let big = Mbr::new(0.0, 0.0, 0.5, 0.5);
        let bound = max_resolution_bound(&index, &big, 1e-6);
        assert!(bound <= 3, "bound = {bound}");
        // EE at the bound really is big enough; one deeper is not.
        let t = 0.25 - 1e-6;
        assert!(0.5f64.powi(bound as i32) >= t);
        assert!(0.5f64.powi(bound as i32 + 1) < t);
        // Infinite eps → unbounded.
        assert_eq!(max_resolution_bound(&index, &big, f64::INFINITY), 16);
    }

    #[test]
    fn query_band_always_contains_query_own_space() {
        // MinR <= L_Q <= MaxR must hold, else the query's twin would be
        // missed (soundness argument in DESIGN.md).
        let index = XzStar::new(16);
        let shapes = [
            pts(&[(0.2, 0.2), (0.21, 0.23), (0.22, 0.2)]),
            pts(&[(0.1, 0.1), (0.4, 0.45)]),
            pts(&[(0.5, 0.5)]),
            pts(&[(0.01, 0.01), (0.9, 0.95)]),
        ];
        for points in shapes {
            let mbr = Mbr::from_points(points.iter()).unwrap();
            for eps in [0.0, 1e-5, 1e-3, 0.05] {
                let min_r = index.sequence_length(&mbr.extended(eps));
                let max_r = max_resolution_bound(&index, &mbr, eps);
                let own = index.index_points(&points);
                assert!(
                    min_r <= own.cell.level && own.cell.level <= max_r,
                    "band [{min_r}, {max_r}] misses own level {} (eps {eps})",
                    own.cell.level
                );
            }
        }
    }

    #[test]
    fn pruning_always_keeps_identical_trajectory() {
        // Soundness: the query's own index value must survive pruning.
        let index = XzStar::new(12);
        let pruner = GlobalPruning::new(&index, PruningConfig::default());
        let shapes = [
            pts(&[(0.31, 0.42), (0.33, 0.45), (0.36, 0.41)]),
            pts(&[(0.7, 0.1), (0.7, 0.3)]),
            pts(&[(0.111, 0.222)]),
            pts(&[(0.05, 0.05), (0.5, 0.06), (0.9, 0.05)]),
        ];
        for points in shapes {
            for eps in [0.0, 1e-4, 0.01] {
                let own = index.encode(&index.index_points(&points));
                let q = QueryContext::new(&index, points.clone(), eps);
                let values = pruner.query_values(&q);
                assert!(
                    values.contains(&own),
                    "own value {own} pruned (eps {eps}, points {points:?})"
                );
            }
        }
    }

    #[test]
    fn pruning_excludes_far_spaces() {
        let index = XzStar::new(10);
        let pruner = GlobalPruning::new(&index, PruningConfig::default());
        let query = pts(&[(0.1, 0.1), (0.12, 0.12)]);
        let q = QueryContext::new(&index, query, 0.001);
        let values = pruner.query_values(&q);
        // A trajectory in the far corner must not be in the candidate set.
        let far = index.encode(&index.index_points(&pts(&[(0.9, 0.9), (0.92, 0.92)])));
        assert!(!values.contains(&far));
        // Candidate count is a tiny fraction of the total space.
        assert!((values.len() as u64) < index.total_values() / 1000, "{} candidates", values.len());
    }

    #[test]
    fn larger_eps_never_shrinks_candidates() {
        let index = XzStar::new(10);
        let pruner = GlobalPruning::new(&index, PruningConfig::default());
        let query = pts(&[(0.25, 0.25), (0.27, 0.28), (0.3, 0.26)]);
        let mut prev: std::collections::HashSet<u64> = std::collections::HashSet::new();
        for eps in [1e-5, 1e-4, 1e-3, 1e-2] {
            let q = QueryContext::new(&index, query.clone(), eps);
            let values: std::collections::HashSet<u64> =
                pruner.query_values(&q).into_iter().collect();
            assert!(prev.is_subset(&values), "candidates lost when eps grew to {eps}");
            prev = values;
        }
    }

    #[test]
    fn huge_trajectory_stays_retrievable() {
        // A trajectory spanning most of the space lands at level 1 (a
        // level-1 enlarged element anchored at the lower-left cell covers
        // the whole unit square, so level 0 never occurs for clamped
        // inputs) and must be discoverable by an equally huge query.
        let index = XzStar::new(8);
        let pruner = GlobalPruning::new(&index, PruningConfig::default());
        let giant = pts(&[(0.05, 0.05), (0.5, 0.6), (0.95, 0.9)]);
        let own_space = index.index_points(&giant);
        assert!(own_space.cell.level <= 1, "level {}", own_space.cell.level);
        let own = index.encode(&own_space);
        let q = QueryContext::new(&index, giant, 0.01);
        assert!(pruner.query_values(&q).contains(&own));
    }

    #[test]
    #[should_panic(expected = "empty query")]
    fn empty_query_rejected() {
        QueryContext::new(&XzStar::new(8), vec![], 0.1);
    }

    #[test]
    fn prune_stats_account_for_the_traversal() {
        let index = XzStar::new(10);
        let pruner = GlobalPruning::new(&index, PruningConfig::default());
        let query = pts(&[(0.31, 0.42), (0.33, 0.45), (0.36, 0.41)]);
        let q = QueryContext::new(&index, query, 0.002);
        let (ranges, stats) = pruner.query_ranges_stats(&q);
        assert!(!ranges.is_empty());
        assert!(stats.visited > 0);
        // A small query in a deep tree must prune something somewhere.
        assert!(stats.lemma8_pruned + stats.lemma9_pruned > 0, "{stats:?}");
        assert!(stats.lemma10_codes_pruned + stats.lemma11_codes_pruned > 0, "{stats:?}");
        // The ranges cover exactly the emitted values.
        let values = pruner.query_values(&q);
        assert!(values.iter().all(|&v| ranges.iter().any(|r| r.contains(v))));
        assert_eq!(ranges.iter().map(|r| r.len()).sum::<u64>(), stats.codes_emitted);
        assert_eq!(values.len() as u64, stats.codes_emitted);
    }
}
