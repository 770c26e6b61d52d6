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
use trass_geo::{Mbr, OrientedBox, Point, Segment};

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

    /// Minimum distance from `p` to the covering-box union; for a
    /// single-point trajectory (no boxes) this is the distance to that point.
    ///
    /// Because the boxes cover every raw point, this value lower-bounds
    /// `min_{t ∈ T} d(p, t)` — the quantity Lemma 5 needs.
    pub fn min_distance_from_point(&self, p: &Point) -> f64 {
        if self.boxes.is_empty() {
            return self.rep_points[0].distance(p);
        }
        self.boxes.iter().map(|b| b.distance_to_point(p)).fold(f64::INFINITY, f64::min)
    }

    /// Minimum distance from a segment to the covering-box union.
    pub fn min_distance_from_segment(&self, seg: &Segment) -> f64 {
        if self.boxes.is_empty() {
            return seg.distance_to_point(&self.rep_points[0]);
        }
        self.boxes.iter().map(|b| b.distance_to_segment(seg)).fold(f64::INFINITY, f64::min)
    }

    /// Lemma 13 test: returns `false` when some representative point of
    /// `self` is farther than `eps` from `other`'s box union (which proves
    /// `f(self, other) > eps`).
    pub fn rep_points_within(&self, other: &DpFeatures, eps: f64) -> bool {
        self.rep_points.iter().all(|p| other.min_distance_from_point(p) <= eps)
    }

    /// Lemma 14 test: for each covering box of `self`, every edge of the box
    /// contains at least one raw trajectory point (oriented-MBR tightness),
    /// so `max_edge min_dist(edge, other.B) ≤ ε` is necessary for
    /// similarity. Returns `false` when violated.
    pub fn boxes_within(&self, other: &DpFeatures, eps: f64) -> bool {
        self.boxes.iter().all(|b| {
            b.edges().iter().map(|e| other.min_distance_from_segment(e)).fold(0.0f64, f64::max)
                <= eps
        })
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
            assert!(f.min_distance_from_point(p) < 1e-9, "point {p} not covered by boxes");
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
        assert_eq!(f.min_distance_from_point(&Point::new(5.0, 9.0)), 4.0);
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
