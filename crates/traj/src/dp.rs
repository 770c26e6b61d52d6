//! Douglas-Peucker features (§IV-D).
//!
//! TraSS pre-computes, for every stored trajectory, a small set of
//! *representative points* chosen by the Douglas-Peucker line-simplification
//! algorithm plus one *oriented bounding box* per gap between consecutive
//! representative points. The boxes cover every raw point, so distances to
//! the feature set lower-bound distances to the trajectory — the soundness
//! basis of local filtering (Lemmas 13–14).

use crate::Trajectory;
pub use trass_geo::douglas_peucker;
use trass_geo::{Mbr, OrientedBox, Point};

/// Representative points and covering boxes of one trajectory.
///
/// Invariants (checked by `debug_assert` and property tests):
/// * `rep_indices` is strictly increasing, starts at 0, ends at `n-1`;
/// * `boxes.len() == rep_indices.len() - 1`;
/// * box `i` covers every raw point in `rep_indices[i] ..= rep_indices[i+1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct DpFeatures {
    /// Indices of the representative points within the raw point sequence
    /// (the `dp-points` column of Table I).
    pub rep_indices: Vec<u32>,
    /// The representative points themselves (denormalized for fast access).
    pub rep_points: Vec<Point>,
    /// Oriented covering boxes between consecutive representative points
    /// (the `dp-mbrs` column of Table I).
    pub boxes: Vec<OrientedBox>,
}

impl DpFeatures {
    /// Extracts DP features from a trajectory with simplification tolerance
    /// `theta` (the paper's "predefined distance", default 0.01 in §VI).
    pub fn extract(traj: &Trajectory, theta: f64) -> Self {
        let points = traj.points();
        let rep_indices = douglas_peucker(points, theta);
        Self::from_rep_indices(points, rep_indices)
    }

    /// Builds features from an explicit set of representative indices.
    fn from_rep_indices(points: &[Point], rep_indices: Vec<u32>) -> Self {
        debug_assert!(!rep_indices.is_empty());
        debug_assert!(rep_indices.windows(2).all(|w| w[0] < w[1]));
        let rep_points: Vec<Point> = rep_indices.iter().map(|&i| points[i as usize]).collect();
        let mut boxes = Vec::with_capacity(rep_indices.len().saturating_sub(1));
        for w in rep_indices.windows(2) {
            let (s, e) = (w[0] as usize, w[1] as usize);
            let covered = &points[s..=e];
            let b = OrientedBox::from_points_along(points[s], points[e], covered)
                .expect("non-empty slice");
            boxes.push(b);
        }
        DpFeatures { rep_indices, rep_points, boxes }
    }

    /// Number of representative points.
    #[inline]
    pub fn len(&self) -> usize {
        self.rep_points.len()
    }

    /// True when there are no representative points (never happens for
    /// features extracted from a valid trajectory).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rep_points.is_empty()
    }

    /// Lemma 13 decision: `false` when some representative point of `self`
    /// is farther than `eps` from every box of `other` (from its one point,
    /// when `other` has no boxes), which proves `f(self, other) > eps`.
    ///
    /// Each point stops at its first witness box, the search starting at
    /// the previous point's witness, so similar pairs cost about
    /// O(|points| + |boxes|) distance tests instead of their product.
    pub fn rep_points_within(&self, other: &DpFeatures, eps: f64) -> bool {
        if other.boxes.is_empty() {
            let only = other.rep_points.first();
            return self.rep_points.iter().all(|p| only.is_some_and(|q| q.distance(p) <= eps));
        }
        let mut cursor = 0;
        self.rep_points.iter().all(|p| {
            other.witness(&mut cursor, |b| !beyond(b, p, 0.0, eps) && b.distance_to_point(p) <= eps)
        })
    }

    /// Lemma 14 decision: every edge of every covering box of `self`
    /// contains a raw point (the boxes are tight), so each edge must come
    /// within `eps` of some box of `other` (of its one point, when `other`
    /// has no boxes). Returns `false` when an edge does not.
    pub fn boxes_within(&self, other: &DpFeatures, eps: f64) -> bool {
        if other.boxes.is_empty() {
            let only = other.rep_points.first();
            return self.boxes.iter().all(|b| {
                b.edges().iter().all(|e| only.is_some_and(|q| e.distance_to_point(q) <= eps))
            });
        }
        let mut cursor = 0;
        self.boxes.iter().all(|b| {
            b.edges().iter().all(|e| {
                let (mid, half) = (e.a.lerp(&e.b, 0.5), e.length() * 0.5);
                other.witness(&mut cursor, |t| {
                    !beyond(t, &mid, half, eps) && t.segment_within(e, eps)
                })
            })
        })
    }

    /// Whether some box passes `test`. The search starts at box `*cursor`
    /// and wraps around; a witness becomes the next search's start.
    fn witness(&self, cursor: &mut usize, test: impl Fn(&OrientedBox) -> bool) -> bool {
        let (before, from) = self.boxes.split_at(*cursor);
        match from.iter().chain(before).position(test) {
            Some(i) => {
                *cursor = (*cursor + i) % self.boxes.len();
                true
            }
            None => false,
        }
    }

    /// The axis-aligned MBR of the feature set (covers the raw trajectory).
    pub fn mbr(&self) -> Mbr {
        let mut mbr = Mbr::from_point(self.rep_points[0]);
        for b in &self.boxes {
            let bm = b.to_mbr();
            mbr = mbr.union(&bm);
        }
        for p in &self.rep_points {
            mbr.extend(*p);
        }
        mbr
    }
}

/// Relative rounding margin of [`beyond`], applied to the magnitude of
/// every coordinate and length the two distances are computed from.
const MARGIN_REL: f64 = 1e-9;

/// Absolute margin of [`beyond`]: covers the containment tolerance of
/// `OrientedBox::segment_within` (an endpoint up to `EPSILON` outside the
/// box along each axis counts as inside, at distance 0).
const MARGIN_ABS: f64 = 4.0 * trass_geo::EPSILON;

/// Conservative pre-check for the distance tests above: `true` only when
/// every point within `reach` of `p` is certainly farther than `eps` from
/// box `b`, so the exact test would fail too. The circle around the box's
/// center of radius `half_u + half_v` contains the box; the margin exceeds
/// any rounding the exact test and this bound can disagree by, so a
/// skipped box never changes a verdict. Compares squares: no square root.
#[inline]
fn beyond(b: &OrientedBox, p: &Point, reach: f64, eps: f64) -> bool {
    let limit = eps + reach + b.half_u + b.half_v;
    let scale = limit + p.x.abs() + p.y.abs() + b.center.x.abs() + b.center.y.abs();
    let limit = limit + MARGIN_REL * scale + MARGIN_ABS;
    p.distance_sq(&b.center) > limit * limit
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traj(pts: &[(f64, f64)]) -> Trajectory {
        Trajectory::new(0, pts.iter().map(|&(x, y)| Point::new(x, y)).collect())
    }

    #[test]
    fn straight_line_collapses_to_endpoints() {
        let pts: Vec<Point> = (0..100).map(|i| Point::new(i as f64, 0.0)).collect();
        let kept = douglas_peucker(&pts, 0.001);
        assert_eq!(kept, vec![0, 99]);
    }

    #[test]
    fn zigzag_keeps_extrema() {
        // W shape: every interior point deviates from every chord that can
        // arise during the recursion by more than the tolerance.
        let t = traj(&[(0.0, 0.0), (1.0, 5.0), (2.0, -5.0), (3.0, 5.0), (4.0, 0.0)]);
        let kept = douglas_peucker(t.points(), 1.0);
        assert_eq!(kept, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn large_tolerance_keeps_only_endpoints() {
        let t = traj(&[(0.0, 0.0), (1.0, 0.4), (2.0, -0.3), (3.0, 0.2), (4.0, 0.0)]);
        let kept = douglas_peucker(t.points(), 10.0);
        assert_eq!(kept, vec![0, 4]);
    }

    #[test]
    fn single_and_two_point_inputs() {
        assert_eq!(douglas_peucker(&[Point::new(0.0, 0.0)], 0.1), vec![0]);
        assert_eq!(douglas_peucker(&[Point::new(0.0, 0.0), Point::new(1.0, 1.0)], 0.1), vec![0, 1]);
    }

    #[test]
    fn features_cover_all_raw_points() {
        let t = traj(&[
            (0.0, 0.0),
            (1.0, 0.2),
            (2.0, -0.1),
            (3.0, 0.5),
            (4.0, 2.0),
            (5.0, 2.2),
            (6.0, 1.8),
            (7.0, 0.0),
        ]);
        let f = DpFeatures::extract(&t, 0.3);
        assert_eq!(f.boxes.len(), f.rep_indices.len() - 1);
        for p in t.points() {
            let covered = f.boxes.iter().any(|b| b.distance_to_point(p) < 1e-9);
            assert!(covered, "point {p} not covered by boxes");
        }
    }

    #[test]
    fn paper_example_four_points_three_boxes() {
        // Figure 5: a winding 200-point trajectory reduced to 4 rep points
        // and 3 boxes. We synthesize an analogous 3-bend shape.
        let mut pts = Vec::new();
        for i in 0..=50 {
            pts.push((i as f64 / 50.0, (i as f64 / 50.0) * 2.0)); // up-right
        }
        for i in 1..=50 {
            pts.push((1.0 + i as f64 / 50.0, 2.0 - (i as f64 / 50.0) * 2.0)); // down-right
        }
        for i in 1..=50 {
            pts.push((2.0 + i as f64 / 50.0, (i as f64 / 50.0) * 2.0)); // up-right
        }
        let t = traj(&pts);
        let f = DpFeatures::extract(&t, 0.05);
        assert_eq!(f.rep_points.len(), 4, "indices: {:?}", f.rep_indices);
        assert_eq!(f.boxes.len(), 3);
    }

    #[test]
    fn single_point_trajectory_features() {
        let t = traj(&[(5.0, 5.0)]);
        let f = DpFeatures::extract(&t, 0.01);
        assert_eq!(f.rep_points.len(), 1);
        assert!(f.boxes.is_empty());
        let probe = DpFeatures::extract(&traj(&[(5.0, 9.0), (5.0, 9.5)]), 0.01);
        assert!(probe.rep_points_within(&f, 4.5));
        assert!(!probe.rep_points_within(&f, 4.4));
        assert!(probe.boxes_within(&f, 4.5));
        assert!(!probe.boxes_within(&f, 4.4));
        assert!(f.rep_points_within(&probe, 4.0));
        assert!(!f.rep_points_within(&probe, 3.9));
        assert!(f.boxes_within(&probe, 0.0), "no boxes: nothing to test");
    }

    #[test]
    fn lemma13_separates_far_trajectories() {
        let a = DpFeatures::extract(&traj(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]), 0.01);
        let b = DpFeatures::extract(&traj(&[(0.0, 10.0), (1.0, 10.0), (2.0, 10.0)]), 0.01);
        assert!(!a.rep_points_within(&b, 1.0));
        assert!(a.rep_points_within(&b, 10.5));
    }

    #[test]
    fn lemma14_separates_far_trajectories() {
        let a = DpFeatures::extract(&traj(&[(0.0, 0.0), (1.0, 0.3), (2.0, 0.0)]), 0.01);
        let b = DpFeatures::extract(&traj(&[(0.0, 5.0), (1.0, 5.3), (2.0, 5.0)]), 0.01);
        assert!(!a.boxes_within(&b, 1.0));
        assert!(a.boxes_within(&b, 6.0));
    }

    #[test]
    fn lemma_13_14_never_reject_similar_trajectories() {
        // Soundness: identical trajectories must always pass.
        let t = traj(&[(0.0, 0.0), (1.0, 0.7), (2.0, -0.3), (3.0, 0.4), (4.0, 0.0)]);
        let f = DpFeatures::extract(&t, 0.2);
        assert!(f.rep_points_within(&f, 0.0 + 1e-9));
        assert!(f.boxes_within(&f, 0.0 + 1e-9));
    }

    #[test]
    fn feature_mbr_covers_trajectory_mbr() {
        let t = traj(&[(0.0, 0.0), (1.0, 3.0), (2.0, -2.0), (3.0, 0.4)]);
        let f = DpFeatures::extract(&t, 0.5);
        assert!(f.mbr().extended(1e-9).contains(&t.mbr()));
    }

    #[test]
    fn smaller_theta_keeps_more_points() {
        let pts: Vec<(f64, f64)> =
            (0..200).map(|i| (i as f64, ((i as f64) * 0.3).sin() * 2.0)).collect();
        let t = traj(&pts);
        let coarse = DpFeatures::extract(&t, 1.0);
        let fine = DpFeatures::extract(&t, 0.1);
        assert!(fine.len() > coarse.len());
        assert!(coarse.len() >= 2);
    }
}
