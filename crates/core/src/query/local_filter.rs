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

use crate::schema::{RowValue, RowView};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use trass_geo::Point;
use trass_kv::{FilterDecision, ScanFilter};
use trass_traj::codec::CodecError;
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
    /// The row failed to decode or holds no point.
    Corrupt,
}

thread_local! {
    /// The features of the row a scan worker is testing, decoded into
    /// buffers the worker reuses from row to row.
    static ROW_FEATURES: RefCell<DpFeatures> = const {
        RefCell::new(DpFeatures {
            rep_indices: Vec::new(),
            rep_points: Vec::new(),
            boxes: Vec::new(),
        })
    };
}

/// Per-lemma reject counts, snapshotted after a scan for traces and
/// ablation reports. The rows kept are the rows the scan returned.
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

impl FilterRejects {
    /// Rows rejected, all causes.
    pub fn total(&self) -> u64 {
        self.lemma12 + self.lemma13 + self.lemma14 + self.corrupt
    }
}

/// The push-down scan filter applying Lemmas 12–14.
pub struct LocalFilter {
    side: Arc<QuerySide>,
    eps: f64,
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
            lemma12: AtomicU64::new(0),
            lemma13: AtomicU64::new(0),
            lemma14: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
        }
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
        self.classify_row(row) == Verdict::Pass
    }

    /// [`LocalFilter::classify`] on a decoded row.
    fn classify_row(&self, row: &RowValue) -> Verdict {
        let ends = row.points.first().zip(row.points.last()).map(|(s, e)| (*s, *e));
        self.classify(ends, || Ok(&row.features))
    }

    /// The one verdict: runs the checks cheap-first on a row's endpoints
    /// and DP features and names the first one that fails. `features` is
    /// asked for only once Lemma 12 has passed, so a row it rejects is
    /// never decoded further; a row whose features fail to decode is
    /// corrupt.
    fn classify<'f>(
        &self,
        ends: Option<(Point, Point)>,
        features: impl FnOnce() -> Result<&'f DpFeatures, CodecError>,
    ) -> Verdict {
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
            if let (Some((t_start, t_end)), Some(q_start), Some(q_end)) =
                (ends, q.points.first(), q.points.last())
            {
                if q_start.distance(&t_start) > eps || q_end.distance(&t_end) > eps {
                    return Verdict::Lemma12;
                }
            }
        }
        let Ok(row) = features() else { return Verdict::Corrupt };
        // Lemma 13, both directions (Lemma 5 is symmetric in T₁/T₂).
        if !row.rep_points_within(&q.features, eps) {
            return Verdict::Lemma13;
        }
        if !q.features.rep_points_within(row, eps) {
            return Verdict::Lemma13;
        }
        // Lemma 14, both directions.
        if !row.boxes_within(&q.features, eps) {
            return Verdict::Lemma14;
        }
        if !q.features.boxes_within(row, eps) {
            return Verdict::Lemma14;
        }
        Verdict::Pass
    }
}

impl ScanFilter for LocalFilter {
    /// Tests the row where it lies: it is validated in place, Lemma 12
    /// reads its endpoints from the points column, and only a row that
    /// passes has its features decoded, into this thread's buffers.
    fn check(&self, _key: &[u8], value: &[u8]) -> FilterDecision {
        let verdict = match RowView::parse(value) {
            Ok(row) if !row.points().is_empty() => ROW_FEATURES.with(|buf| {
                let mut buf = buf.borrow_mut();
                let buf = &mut *buf;
                let ends = row.points().first().zip(row.points().last());
                self.classify(ends, move || {
                    // Moving the borrow in lets the closure hand it back.
                    let buf = buf;
                    row.features_into(buf)?;
                    Ok(&*buf)
                })
            }),
            // A corrupt row cannot be verified; reject it rather than crash
            // the scan (it will surface via store-level checksums).
            _ => Verdict::Corrupt,
        };
        let counter = match verdict {
            Verdict::Pass => return FilterDecision::Keep,
            Verdict::Lemma12 => &self.lemma12,
            Verdict::Lemma13 => &self.lemma13,
            Verdict::Lemma14 => &self.lemma14,
            Verdict::Corrupt => &self.corrupt,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        FilterDecision::Skip
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traj(id: u64, pts: &[(f64, f64)]) -> Trajectory {
        Trajectory::new(id, pts.iter().map(|&(x, y)| Point::new(x, y)).collect())
    }

    fn row_of(t: &Trajectory, theta: f64) -> RowValue {
        RowValue { points: t.points().to_vec(), features: DpFeatures::extract(t, theta) }
    }

    /// The verdict `check` reaches on encoded `value`, read back from its
    /// decision and the counters of a fresh filter.
    fn verdict_in_place(side: &Arc<QuerySide>, eps: f64, value: &[u8]) -> Verdict {
        let filter = LocalFilter::new(Arc::clone(side), eps);
        let kept = u64::from(filter.check(b"k", value) == FilterDecision::Keep);
        let r = filter.reject_counts();
        let verdict = match (kept, r.lemma12, r.lemma13, r.lemma14, r.corrupt) {
            (1, 0, 0, 0, 0) => Verdict::Pass,
            (0, 1, 0, 0, 0) => Verdict::Lemma12,
            (0, 0, 1, 0, 0) => Verdict::Lemma13,
            (0, 0, 0, 1, 0) => Verdict::Lemma14,
            (0, 0, 0, 0, 1) => Verdict::Corrupt,
            other => panic!("one row moved several counters: {other:?}"),
        };
        verdict
    }

    /// The verdict on the decoded row, the one `passes` reaches.
    fn verdict_decoded(side: &Arc<QuerySide>, eps: f64, row: &RowValue) -> Verdict {
        LocalFilter::new(Arc::clone(side), eps).classify_row(row)
    }

    /// The smallest ε (to the ulp) at which `row` passes: the verdict is
    /// monotone in ε, and positive floats order as their bits.
    fn decisive_eps(side: &Arc<QuerySide>, row: &RowValue) -> f64 {
        if verdict_decoded(side, 0.0, row) == Verdict::Pass {
            return 0.0;
        }
        let (mut lo, mut hi) = (0u64, 1e6f64.to_bits());
        assert_eq!(verdict_decoded(side, f64::from_bits(hi), row), Verdict::Pass);
        while lo + 1 < hi {
            let mid = lo + (hi - lo) / 2;
            if verdict_decoded(side, f64::from_bits(mid), row) == Verdict::Pass {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        f64::from_bits(hi)
    }

    #[test]
    fn row_view_verdicts_match_the_decoded_row_at_the_decisive_eps() {
        let data = trass_traj::generator::lorry_like(7, 48);
        let mut fired = Vec::new();
        for measure in [Measure::Frechet, Measure::Hausdorff, Measure::Dtw] {
            for q in data.iter().take(4) {
                let side = QuerySide::new(q, 0.01, measure);
                for t in &data {
                    let row = row_of(t, 0.01);
                    let value = row.encode();
                    let e = decisive_eps(&side, &row);
                    let below = f64::from_bits(e.to_bits().saturating_sub(1));
                    let above = f64::from_bits(e.to_bits() + 1);
                    for eps in [0.0, below, e, above, e * 0.5, f64::INFINITY] {
                        assert_eq!(
                            verdict_in_place(&side, eps, &value),
                            verdict_decoded(&side, eps, &row),
                            "{measure:?} query {} row {} eps {eps:e}",
                            q.id,
                            t.id
                        );
                    }
                    if e > 0.0 {
                        let verdict = verdict_decoded(&side, below, &row);
                        assert_ne!(verdict, Verdict::Pass);
                        fired.push(verdict);
                    }
                }
            }
        }
        for lemma in [Verdict::Lemma12, Verdict::Lemma13, Verdict::Lemma14] {
            assert!(fired.contains(&lemma), "no row is decided by {lemma:?}");
        }
    }

    #[test]
    fn row_view_fails_where_decode_fails_with_the_same_error() {
        let same = |bytes: &[u8], what: &str| {
            let view = RowView::parse(bytes);
            let decoded = RowValue::decode(bytes);
            assert_eq!(view.as_ref().err(), decoded.as_ref().err(), "{what}");
            if let (Ok(view), Ok(row)) = (view, decoded) {
                assert_eq!(view.points().iter().collect::<Vec<_>>(), row.points, "{what}");
                assert_eq!(
                    (view.points().first(), view.points().last()),
                    (row.points.first().copied(), row.points.last().copied()),
                    "{what}"
                );
                let mut features = row_of(&traj(0, &[(9.0, 9.0)]), 0.1).features;
                view.features_into(&mut features).unwrap();
                assert_eq!(features, row.features, "{what}");
            }
        };
        let le = |v: u32| v.to_le_bytes();
        for t in trass_traj::generator::lorry_like(3, 6) {
            let row = row_of(&t, 0.01);
            let enc = row.encode().to_vec();
            same(&enc, "intact");
            for cut in 0..enc.len() {
                same(&enc[..cut], &format!("cut at {cut}"));
            }
            let points_len = u32::from_le_bytes(enc[0..4].try_into().unwrap()) as usize;
            let n_points = row.points.len() as u32;
            let reps_at = 4 + points_len;
            let n_reps = row.features.rep_indices.len() as u32;
            let boxes_at = reps_at + 4 + 4 * n_reps as usize;
            let n_boxes = row.features.boxes.len() as u32;
            // (offset of a u32 header or count, its true value)
            for (at, truth, what) in [
                (0, points_len as u32, "points column length"),
                (4, n_points, "points count"),
                (reps_at, n_reps, "rep count"),
                (reps_at + 4, 0, "first rep index"),
                (boxes_at, n_boxes, "box count"),
            ] {
                for v in [0, 1, truth.wrapping_sub(1), truth + 1, truth + 3, n_points, u32::MAX] {
                    let mut bad = enc.clone();
                    bad[at..at + 4].copy_from_slice(&le(v));
                    same(&bad, &format!("{what} = {v}"));
                }
            }
            let mut trailing = enc.clone();
            trailing.push(0);
            same(&trailing, "trailing byte");
        }
        // An empty points column decodes; the filter then counts the row
        // as corrupt rather than test it.
        let empty = RowValue {
            points: Vec::new(),
            features: DpFeatures { rep_indices: vec![], rep_points: vec![], boxes: vec![] },
        };
        same(&empty.encode(), "empty points column");
        let side = QuerySide::new(&traj(0, &[(0.0, 0.0), (1.0, 0.0)]), 0.01, Measure::Frechet);
        assert_eq!(verdict_in_place(&side, 1.0, &empty.encode()), Verdict::Corrupt);
        let orphan = RowValue {
            points: Vec::new(),
            features: row_of(&traj(0, &[(0.0, 0.0)]), 0.1).features,
        };
        same(&orphan.encode(), "features indexing an empty points column");
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
        let rejects = filter.reject_counts();
        assert_eq!(rejects.total(), 2);
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
