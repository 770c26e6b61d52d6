//! Local filtering (§V-D, Algorithm 2) — the coprocessor-side predicate.
//!
//! Checks run cheap-first, exactly as §V-E prescribes:
//!
//! 1. **Lemma 12** — the start/end points of similar trajectories must be
//!    within ε (Fréchet and DTW only; Hausdorff has no endpoint coupling,
//!    §VII-A).
//! 2. **Lemma 13** — every DP representative point of one trajectory must
//!    be within ε of the other's covering-box union (both directions).
//! 3. **Lemma 14** — every edge of every DP covering box must be within ε
//!    of the other trajectory's box union (both directions).
//!
//! Lemmas 13 and 14 are decisions, not folds: each point or edge stops at
//! its first box within ε (see [`DpFeatures::rep_points_within`]), so a
//! row costs about |B_row| + |B_q| distance tests on similar pairs.
//!
//! All distances here are in *world* units (degrees), matching the stored
//! geometry; global pruning, by contrast, works in unit space.

use crate::schema::RowValue;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use trass_kv::{FilterDecision, ScanFilter};
use trass_traj::{DpFeatures, Measure, Trajectory};

/// Pre-computed query-side state, built once per query and shared by all
/// of its scans (every batch of a top-k search).
#[derive(Debug, Clone)]
pub struct QuerySide {
    /// Raw query points (world units).
    pub points: Vec<trass_geo::Point>,
    /// Query DP features.
    pub features: DpFeatures,
    /// The similarity measure in use.
    pub measure: Measure,
}

impl QuerySide {
    /// Builds the query-side state, extracting DP features with tolerance
    /// `theta`.
    pub fn new(query: &Trajectory, theta: f64, measure: Measure) -> Arc<Self> {
        Arc::new(QuerySide {
            points: query.points().to_vec(),
            features: DpFeatures::extract(query, theta),
            measure,
        })
    }
}

/// Which check rejected a row (or none).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Pass,
    Lemma12,
    Lemma13,
    Lemma14,
}

/// Per-lemma reject counts, snapshotted after a scan for traces and
/// ablation reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FilterRejects {
    /// Rows rejected by the lemma 12 endpoint test.
    pub lemma12: u64,
    /// Rows rejected by the lemma 13 representative-point bound.
    pub lemma13: u64,
    /// Rows rejected by the lemma 14 covering-box bound.
    pub lemma14: u64,
    /// Rows that failed to decode (or were empty) and were skipped.
    pub corrupt: u64,
}

/// The push-down scan filter applying Lemmas 12–14.
pub struct LocalFilter {
    side: Arc<QuerySide>,
    eps: f64,
    /// Rows that survived the filter (the paper's "candidates").
    kept: AtomicU64,
    /// Per-lemma reject tallies (their sum is the total rejected).
    lemma12: AtomicU64,
    lemma13: AtomicU64,
    lemma14: AtomicU64,
    corrupt: AtomicU64,
}

impl LocalFilter {
    /// Creates a filter for the given query side and threshold (world
    /// units). `eps = f64::INFINITY` passes everything — the top-k warm-up
    /// state before k results exist.
    pub fn new(side: Arc<QuerySide>, eps: f64) -> Self {
        LocalFilter {
            side,
            eps,
            kept: AtomicU64::new(0),
            lemma12: AtomicU64::new(0),
            lemma13: AtomicU64::new(0),
            lemma14: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
        }
    }

    /// Rows that survived so far.
    pub fn kept(&self) -> u64 {
        self.kept.load(Ordering::Relaxed)
    }

    /// Rows rejected so far (all causes).
    pub fn rejected(&self) -> u64 {
        let r = self.reject_counts();
        r.lemma12 + r.lemma13 + r.lemma14 + r.corrupt
    }

    /// Reject tallies broken down by the lemma that fired.
    pub fn reject_counts(&self) -> FilterRejects {
        FilterRejects {
            lemma12: self.lemma12.load(Ordering::Relaxed),
            lemma13: self.lemma13.load(Ordering::Relaxed),
            lemma14: self.lemma14.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
        }
    }

    /// The pure predicate: would a row with these columns survive?
    pub fn passes(&self, row: &RowValue) -> bool {
        self.classify(row) == Verdict::Pass
    }

    /// Runs the checks cheap-first and names the first one that fails.
    fn classify(&self, row: &RowValue) -> Verdict {
        if self.eps == f64::INFINITY {
            return Verdict::Pass; // no bound can exceed it: skip computing them
        }
        let q = &self.side;
        // Rejection slack: oriented-box distance arithmetic leaves ~1e-16
        // residue; a filter may only reject when the bound *certainly*
        // exceeds ε (matters for exact-duplicate searches at ε = 0).
        let eps = self.eps + 1e-12;
        // Lemma 12: endpoints must couple under Fréchet and DTW. Rows and
        // queries are non-empty by construction; an empty one simply has
        // no endpoints to test.
        if q.measure.supports_endpoint_lemma() {
            if let (Some(t_start), Some(t_end), Some(q_start), Some(q_end)) =
                (row.points.first(), row.points.last(), q.points.first(), q.points.last())
            {
                if q_start.distance(t_start) > eps || q_end.distance(t_end) > eps {
                    return Verdict::Lemma12;
                }
            }
        }
        // Lemma 13, both directions (Lemma 5 is symmetric in T₁/T₂).
        if !row.features.rep_points_within(&q.features, eps) {
            return Verdict::Lemma13;
        }
        if !q.features.rep_points_within(&row.features, eps) {
            return Verdict::Lemma13;
        }
        // Lemma 14, both directions.
        if !row.features.boxes_within(&q.features, eps) {
            return Verdict::Lemma14;
        }
        if !q.features.boxes_within(&row.features, eps) {
            return Verdict::Lemma14;
        }
        Verdict::Pass
    }
}

impl ScanFilter for LocalFilter {
    fn check(&self, _key: &[u8], value: &[u8]) -> FilterDecision {
        let Ok(row) = RowValue::decode(value) else {
            // A corrupt row cannot be verified; reject it rather than crash
            // the scan (it will surface via store-level checksums).
            self.corrupt.fetch_add(1, Ordering::Relaxed);
            return FilterDecision::Skip;
        };
        if row.points.is_empty() {
            self.corrupt.fetch_add(1, Ordering::Relaxed);
            return FilterDecision::Skip;
        }
        match self.classify(&row) {
            Verdict::Pass => {
                self.kept.fetch_add(1, Ordering::Relaxed);
                FilterDecision::Keep
            }
            Verdict::Lemma12 => {
                self.lemma12.fetch_add(1, Ordering::Relaxed);
                FilterDecision::Skip
            }
            Verdict::Lemma13 => {
                self.lemma13.fetch_add(1, Ordering::Relaxed);
                FilterDecision::Skip
            }
            Verdict::Lemma14 => {
                self.lemma14.fetch_add(1, Ordering::Relaxed);
                FilterDecision::Skip
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trass_geo::Point;

    fn traj(id: u64, pts: &[(f64, f64)]) -> Trajectory {
        Trajectory::new(id, pts.iter().map(|&(x, y)| Point::new(x, y)).collect())
    }

    fn row_of(t: &Trajectory, theta: f64) -> RowValue {
        RowValue { points: t.points().to_vec(), features: DpFeatures::extract(t, theta) }
    }

    #[test]
    fn identical_trajectory_always_passes() {
        let q = traj(0, &[(0.0, 0.0), (1.0, 0.4), (2.0, 0.0)]);
        let side = QuerySide::new(&q, 0.1, Measure::Frechet);
        let filter = LocalFilter::new(side, 1e-9);
        assert!(filter.passes(&row_of(&q, 0.1)));
    }

    #[test]
    fn far_trajectory_rejected() {
        let q = traj(0, &[(0.0, 0.0), (1.0, 0.0)]);
        let t = traj(1, &[(10.0, 10.0), (11.0, 10.0)]);
        let side = QuerySide::new(&q, 0.1, Measure::Frechet);
        let filter = LocalFilter::new(side, 0.5);
        assert!(!filter.passes(&row_of(&t, 0.1)));
    }

    #[test]
    fn endpoint_lemma_only_for_coupling_measures() {
        // Same point set, reversed: endpoints differ, Hausdorff identical.
        let q = traj(0, &[(0.0, 0.0), (5.0, 0.0)]);
        let t = traj(1, &[(5.0, 0.0), (0.0, 0.0)]);
        let eps = 0.1;
        let frechet = LocalFilter::new(QuerySide::new(&q, 0.01, Measure::Frechet), eps);
        assert!(!frechet.passes(&row_of(&t, 0.01)), "Fréchet endpoint filter fires");
        let hausdorff = LocalFilter::new(QuerySide::new(&q, 0.01, Measure::Hausdorff), eps);
        assert!(
            hausdorff.passes(&row_of(&t, 0.01)),
            "Hausdorff must not reject a reversed trajectory"
        );
    }

    #[test]
    fn filter_never_rejects_truly_similar_rows() {
        // Soundness sweep: any trajectory whose actual distance is <= eps
        // must pass the filter.
        let q = traj(0, &[(0.0, 0.0), (1.0, 0.5), (2.0, -0.2), (3.0, 0.1)]);
        let side = QuerySide::new(&q, 0.2, Measure::Frechet);
        for dy in [0.0, 0.1, 0.3, 0.8] {
            let t = traj(1, &[(0.0, dy), (1.0, 0.5 + dy), (2.0, -0.2 + dy), (3.0, 0.1 + dy)]);
            let d = Measure::Frechet.distance(q.points(), t.points());
            let filter = LocalFilter::new(side.clone(), d + 1e-9);
            assert!(filter.passes(&row_of(&t, 0.2)), "rejected at its own distance (dy={dy})");
        }
    }

    #[test]
    fn infinite_eps_passes_everything() {
        let q = traj(0, &[(0.0, 0.0)]);
        let t = traj(1, &[(1000.0, 1000.0)]);
        let filter = LocalFilter::new(QuerySide::new(&q, 0.01, Measure::Frechet), f64::INFINITY);
        assert!(filter.passes(&row_of(&t, 0.01)));
    }

    #[test]
    fn scan_filter_counts_and_rejects_garbage() {
        let q = traj(0, &[(0.0, 0.0), (1.0, 0.0)]);
        let t_near = traj(1, &[(0.01, 0.0), (1.01, 0.0)]);
        let t_far = traj(2, &[(50.0, 50.0), (51.0, 50.0)]);
        let filter = LocalFilter::new(QuerySide::new(&q, 0.01, Measure::Frechet), 0.5);
        assert_eq!(filter.check(b"k", &row_of(&t_near, 0.01).encode()), FilterDecision::Keep);
        assert_eq!(filter.check(b"k", &row_of(&t_far, 0.01).encode()), FilterDecision::Skip);
        assert_eq!(filter.check(b"k", b"\x03garbage"), FilterDecision::Skip);
        assert_eq!(filter.kept(), 1);
        assert_eq!(filter.rejected(), 2);
        let rejects = filter.reject_counts();
        assert_eq!(rejects.corrupt, 1);
        assert_eq!(rejects.lemma12 + rejects.lemma13 + rejects.lemma14, 1, "{rejects:?}");
    }

    #[test]
    fn reject_counts_attribute_the_firing_lemma() {
        // Endpoints far apart → lemma 12 under Fréchet.
        let q = traj(0, &[(0.0, 0.0), (1.0, 0.0)]);
        let t = traj(1, &[(50.0, 0.0), (1.0, 0.0)]);
        let filter = LocalFilter::new(QuerySide::new(&q, 0.01, Measure::Frechet), 0.5);
        assert_eq!(filter.check(b"k", &row_of(&t, 0.01).encode()), FilterDecision::Skip);
        assert_eq!(filter.reject_counts().lemma12, 1);
        // Hausdorff skips lemma 12, so a far row falls to lemma 13/14.
        let filter = LocalFilter::new(QuerySide::new(&q, 0.01, Measure::Hausdorff), 0.5);
        let far = traj(2, &[(50.0, 50.0), (51.0, 50.0)]);
        assert_eq!(filter.check(b"k", &row_of(&far, 0.01).encode()), FilterDecision::Skip);
        let r = filter.reject_counts();
        assert_eq!(r.lemma12, 0);
        assert_eq!(r.lemma13 + r.lemma14, 1, "{r:?}");
    }
}
