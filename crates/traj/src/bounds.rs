//! Lower-bound envelopes for refinement prefiltering.
//!
//! Refinement pays an O(n·m) exact kernel for every candidate surviving the
//! XZ\* filter stages. REPOSE-style reference-point bounds show that most
//! survivors can be disposed of with O(n) arithmetic: compute a cheap
//! *lower bound* on the measure value, and when it already exceeds the
//! threshold the exact kernel is provably pointless. Every bound here is a
//! strict lower bound for the measures it claims, so pruning never changes
//! query results — the exactness table (`tests/exactness.rs`, bounds on
//! and off against brute force) and the property suite
//! (`crates/traj/tests/bounds_props.rs`) hold the implementation to that.
//!
//! Three bounds, evaluated cheap-first:
//!
//! 1. **Endpoint** (O(1), Fréchet and DTW only): both measures force the
//!    first and last points to couple, so
//!    `f(Q,T) ≥ max(d(q₁,t₁), d(qₙ,tₘ))` — the refinement-side twin of
//!    Lemma 12.
//! 2. **MBR gap** (O(1) given cached MBRs): every point-to-point distance
//!    is at least `dist(mbr(Q), mbr(T))`, and each supported measure's
//!    value dominates at least one point-to-point distance (Lemma 5 /
//!    §VII-B), so the rectangle gap lower-bounds all three measures.
//! 3. **Reference-point interval gap** (O(n), all measures): for a fixed
//!    reference point `r`, the triangle inequality gives
//!    `d(q,t) ≥ |d(q,r) − d(t,r)|` for every pair, hence
//!    `f(Q,T) ≥ gap([min_q d(q,r), max_q d(q,r)], [min_t d(t,r), max_t
//!    d(t,r)])`. The query-side intervals are cached in the envelope; the
//!    candidate side costs one pass over its points. Reference points are
//!    the query-MBR corners — any fixed points are sound, and corners
//!    discriminate along both axes and both diagonals.

use crate::measures::Measure;
use trass_geo::{Mbr, Point};

/// Number of reference points in an envelope (the query-MBR corners).
pub const N_REFS: usize = 4;

/// Rejection slack: bound arithmetic (rectangle gaps, interval endpoints)
/// rounds differently from the exact kernels, leaving ~1e-16 residue. A
/// bound may only prune when it *certainly* exceeds the threshold, so the
/// comparison allows this much headroom (matching the local filter's
/// slack) — the cost is a vanishingly rare unpruned candidate, never a
/// dropped result.
pub const PRUNE_SLACK: f64 = 1e-12;

/// Which lower bound proved a candidate dissimilar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BoundKind {
    /// Endpoint coupling bound (Fréchet/DTW).
    Endpoint,
    /// Axis-aligned MBR gap.
    MbrGap,
    /// Reference-point interval gap.
    RefGap,
}

impl BoundKind {
    /// Stable textual name, used in trace fields and metric labels.
    pub fn as_str(&self) -> &'static str {
        match self {
            BoundKind::Endpoint => "endpoint",
            BoundKind::MbrGap => "mbr-gap",
            BoundKind::RefGap => "ref-gap",
        }
    }
}

impl std::fmt::Display for BoundKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Query-side envelope: everything the bounds need from the query,
/// computed once per query and shared (read-only) across refine workers.
#[derive(Debug, Clone)]
pub struct QueryEnvelope {
    mbr: Mbr,
    first: Point,
    last: Point,
    refs: [Point; N_REFS],
    /// `[min_q d(q, refs[i]), max_q d(q, refs[i])]` per reference point.
    ref_intervals: [(f64, f64); N_REFS],
}

/// Distance interval `[min, max]` from a point set to a fixed point.
fn interval_to(points: &[Point], r: &Point) -> (f64, f64) {
    let mut lo = f64::INFINITY;
    let mut hi = 0.0f64;
    for p in points {
        let d = p.distance(r);
        lo = lo.min(d);
        hi = hi.max(d);
    }
    (lo, hi)
}

/// Gap between two closed intervals (0 when they overlap).
fn interval_gap(a: (f64, f64), b: (f64, f64)) -> f64 {
    (b.0 - a.1).max(a.0 - b.1).max(0.0)
}

impl QueryEnvelope {
    /// Builds the envelope for a query point sequence. `None` for an empty
    /// query — there is nothing to bound (and nothing to search for).
    pub fn new(query: &[Point]) -> Option<QueryEnvelope> {
        let mbr = Mbr::from_points(query.iter())?;
        let refs = [
            Point::new(mbr.min_x, mbr.min_y),
            Point::new(mbr.min_x, mbr.max_y),
            Point::new(mbr.max_x, mbr.min_y),
            Point::new(mbr.max_x, mbr.max_y),
        ];
        let ref_intervals = [
            interval_to(query, &refs[0]),
            interval_to(query, &refs[1]),
            interval_to(query, &refs[2]),
            interval_to(query, &refs[3]),
        ];
        Some(QueryEnvelope {
            mbr,
            first: query[0],
            last: query[query.len() - 1],
            refs,
            ref_intervals,
        })
    }

    /// The endpoint lower bound `max(d(q₁,t₁), d(qₙ,tₘ))`. Only a valid
    /// lower bound for measures with
    /// [`Measure::supports_endpoint_lemma`]; callers gate on that.
    pub fn endpoint_bound(&self, cand: &[Point]) -> f64 {
        if cand.is_empty() {
            return 0.0;
        }
        self.first.distance(&cand[0]).max(self.last.distance(&cand[cand.len() - 1]))
    }

    /// The MBR-gap lower bound, valid for all supported measures. Sound
    /// for any `cand_mbr` that *covers* the candidate (a looser rectangle
    /// only shrinks the gap), so callers may pass the cached DP-feature
    /// MBR instead of the tight one.
    pub fn mbr_bound(&self, cand_mbr: &Mbr) -> f64 {
        self.mbr.distance_to_mbr(cand_mbr)
    }

    /// The reference-point interval-gap lower bound (max over the four
    /// reference points), valid for all supported measures.
    pub fn ref_bound(&self, cand: &[Point]) -> f64 {
        let mut best = 0.0f64;
        for (r, &qi) in self.refs.iter().zip(self.ref_intervals.iter()) {
            best = best.max(interval_gap(qi, interval_to(cand, r)));
        }
        best
    }

    /// Cheap-first composite prune test: `Some(kind)` when a bound proves
    /// `measure(query, cand) > threshold` (with [`PRUNE_SLACK`] headroom),
    /// naming the bound that fired; `None` when the candidate must go to
    /// the exact kernel. Empty candidates and non-finite thresholds never
    /// prune (nothing can exceed `+∞`).
    pub fn prunes(
        &self,
        cand: &[Point],
        cand_mbr: Option<&Mbr>,
        measure: Measure,
        threshold: f64,
    ) -> Option<BoundKind> {
        if cand.is_empty() || !threshold.is_finite() {
            return None;
        }
        let cut = threshold + PRUNE_SLACK;
        if measure.supports_endpoint_lemma() && self.endpoint_bound(cand) > cut {
            return Some(BoundKind::Endpoint);
        }
        let tight;
        let cmbr = match cand_mbr {
            Some(m) => m,
            None => {
                tight = Mbr::from_points(cand.iter())?;
                &tight
            }
        };
        if self.mbr_bound(cmbr) > cut {
            return Some(BoundKind::MbrGap);
        }
        if self.ref_bound(cand) > cut {
            return Some(BoundKind::RefGap);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(v: &[(f64, f64)]) -> Vec<Point> {
        v.iter().map(|&(x, y)| Point::new(x, y)).collect()
    }

    #[test]
    fn empty_query_has_no_envelope() {
        assert!(QueryEnvelope::new(&[]).is_none());
    }

    #[test]
    fn identical_trajectories_never_prune_at_zero() {
        let a = pts(&[(0.0, 0.0), (1.0, 0.5), (2.0, 0.0)]);
        let env = QueryEnvelope::new(&a).unwrap();
        for m in [Measure::Frechet, Measure::Hausdorff, Measure::Dtw] {
            assert_eq!(env.prunes(&a, None, m, 0.0), None, "{m}");
        }
    }

    #[test]
    fn far_candidate_pruned_by_mbr_or_endpoint() {
        let q = pts(&[(0.0, 0.0), (1.0, 0.0)]);
        let t = pts(&[(100.0, 100.0), (101.0, 100.0)]);
        let env = QueryEnvelope::new(&q).unwrap();
        for m in [Measure::Frechet, Measure::Hausdorff, Measure::Dtw] {
            assert!(env.prunes(&t, None, m, 1.0).is_some(), "{m}");
        }
    }

    #[test]
    fn endpoint_bound_fires_before_mbr() {
        // Spatially overlapping trajectories traversed in opposite
        // directions: MBR gap is 0 but the endpoints are far apart.
        let q = pts(&[(0.0, 0.0), (10.0, 0.0)]);
        let t = pts(&[(10.0, 0.0), (0.0, 0.0)]);
        let env = QueryEnvelope::new(&q).unwrap();
        assert_eq!(env.prunes(&t, None, Measure::Frechet, 1.0), Some(BoundKind::Endpoint));
        // Hausdorff has no endpoint coupling and these point sets are
        // identical: no bound may fire.
        assert_eq!(env.prunes(&t, None, Measure::Hausdorff, 1.0), None);
    }

    #[test]
    fn ref_gap_catches_scale_mismatch() {
        // A tiny query inside a huge candidate ring: MBRs overlap and the
        // (Hausdorff-relevant) bounds must come from the distance
        // intervals to the reference corners.
        let q = pts(&[(0.0, 0.0), (0.1, 0.0), (0.0, 0.1)]);
        let t: Vec<Point> = (0..16)
            .map(|i| {
                let a = i as f64 / 16.0 * std::f64::consts::TAU;
                Point::new(50.0 * a.cos(), 50.0 * a.sin())
            })
            .collect();
        let env = QueryEnvelope::new(&q).unwrap();
        let d = Measure::Hausdorff.distance(&q, &t);
        assert!(env.ref_bound(&t) <= d + 1e-9);
        assert!(env.prunes(&t, None, Measure::Hausdorff, 10.0).is_some());
    }

    #[test]
    fn loose_candidate_mbr_stays_sound() {
        let q = pts(&[(0.0, 0.0), (1.0, 0.0)]);
        let t = pts(&[(5.0, 0.0), (6.0, 0.0)]);
        let env = QueryEnvelope::new(&q).unwrap();
        let tight = Mbr::from_points(t.iter()).unwrap();
        let loose = tight.extended(1.0);
        let d = Measure::Frechet.distance(&q, &t);
        assert!(env.mbr_bound(&loose) <= env.mbr_bound(&tight));
        assert!(env.mbr_bound(&loose) <= d + 1e-9);
    }

    #[test]
    fn infinite_threshold_never_prunes() {
        let q = pts(&[(0.0, 0.0)]);
        let t = pts(&[(1000.0, 1000.0)]);
        let env = QueryEnvelope::new(&q).unwrap();
        assert_eq!(env.prunes(&t, None, Measure::Frechet, f64::INFINITY), None);
    }

    #[test]
    fn bound_kind_names_are_stable() {
        assert_eq!(BoundKind::Endpoint.as_str(), "endpoint");
        assert_eq!(BoundKind::MbrGap.to_string(), "mbr-gap");
        assert_eq!(BoundKind::RefGap.as_str(), "ref-gap");
    }
}
