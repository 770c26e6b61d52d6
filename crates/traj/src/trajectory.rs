//! The trajectory type (§II, Definition 1).

use trass_geo::{Mbr, Point, Segment};

/// Identifier of a trajectory (`tid` in the paper's rowkey schema).
pub type TrajectoryId = u64;

/// A trajectory: an identified, ordered sequence of 2-D points.
///
/// Points are `(x = longitude, y = latitude)` in world coordinates. A valid
/// trajectory has at least one finite point; constructors enforce this.
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    /// Unique identifier.
    pub id: TrajectoryId,
    points: Vec<Point>,
}

impl Trajectory {
    /// Creates a trajectory, validating that it is non-empty and finite.
    ///
    /// # Panics
    /// Panics if `points` is empty or contains a non-finite coordinate.
    /// Ingest paths that cannot guarantee clean input should use
    /// [`Trajectory::try_new`].
    pub fn new(id: TrajectoryId, points: Vec<Point>) -> Self {
        Self::try_new(id, points).expect("invalid trajectory")
    }

    /// Creates a trajectory, returning `None` when `points` is empty or
    /// contains NaN/infinite coordinates.
    pub fn try_new(id: TrajectoryId, points: Vec<Point>) -> Option<Self> {
        if points.is_empty() || points.iter().any(|p| !p.is_finite()) {
            return None;
        }
        Some(Trajectory { id, points })
    }

    /// The points of the trajectory.
    #[inline]
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Always `false` — constructors reject empty trajectories — but
    /// provided for API completeness.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// First point (`t_1`).
    #[inline]
    pub fn start(&self) -> Point {
        self.points[0]
    }

    /// Last point (`t_n`).
    #[inline]
    pub fn end(&self) -> Point {
        *self.points.last().expect("non-empty by construction")
    }

    /// The tight axis-aligned MBR of the trajectory.
    pub fn mbr(&self) -> Mbr {
        Mbr::from_points(self.points.iter()).expect("non-empty by construction")
    }

    /// Iterates over the line segments between consecutive points.
    ///
    /// A single-point trajectory yields no segments.
    pub fn segments(&self) -> impl Iterator<Item = Segment> + '_ {
        self.points.windows(2).map(|w| Segment::new(w[0], w[1]))
    }

    /// Total polyline length.
    pub fn path_length(&self) -> f64 {
        self.segments().map(|s| s.length()).sum()
    }

    /// Minimum Euclidean distance from `p` to the trajectory's *point set*
    /// (the paper's `d(t, T)` of Lemma 5 — point set, not polyline).
    pub fn min_distance_from_point(&self, p: &Point) -> f64 {
        self.points.iter().map(|q| q.distance_sq(p)).fold(f64::INFINITY, f64::min).sqrt()
    }

    /// Consumes the trajectory and returns its points.
    pub fn into_points(self) -> Vec<Point> {
        self.points
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traj(id: u64, pts: &[(f64, f64)]) -> Trajectory {
        Trajectory::new(id, pts.iter().map(|&(x, y)| Point::new(x, y)).collect())
    }

    #[test]
    fn basic_accessors() {
        let t = traj(7, &[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)]);
        assert_eq!(t.id, 7);
        assert_eq!(t.len(), 3);
        assert_eq!(t.start(), Point::new(0.0, 0.0));
        assert_eq!(t.end(), Point::new(1.0, 1.0));
        assert_eq!(t.path_length(), 2.0);
        assert_eq!(t.segments().count(), 2);
    }

    #[test]
    fn mbr_is_tight() {
        let t = traj(1, &[(2.0, -1.0), (0.0, 3.0), (1.0, 1.0)]);
        assert_eq!(t.mbr(), Mbr::new(0.0, -1.0, 2.0, 3.0));
    }

    #[test]
    fn single_point_trajectory() {
        let t = traj(1, &[(5.0, 5.0)]);
        assert_eq!(t.start(), t.end());
        assert_eq!(t.segments().count(), 0);
        assert_eq!(t.path_length(), 0.0);
        assert_eq!(t.mbr().area(), 0.0);
    }

    #[test]
    fn try_new_rejects_empty_and_nan() {
        assert!(Trajectory::try_new(1, vec![]).is_none());
        assert!(Trajectory::try_new(1, vec![Point::new(f64::NAN, 0.0)]).is_none());
        assert!(Trajectory::try_new(1, vec![Point::new(1.0, 2.0)]).is_some());
    }

    #[test]
    fn min_distance_from_point_uses_point_set() {
        // Distance to points, not segments: midpoint of a long edge is far.
        let t = traj(1, &[(0.0, 0.0), (10.0, 0.0)]);
        let d = t.min_distance_from_point(&Point::new(5.0, 1.0));
        assert!((d - (26.0f64).sqrt()).abs() < 1e-12);
    }
}
