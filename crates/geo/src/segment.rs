//! Line segments and segment-level distance predicates.

use crate::Point;

/// A line segment between two points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Start point.
    pub a: Point,
    /// End point.
    pub b: Point,
}

impl Segment {
    /// Creates a segment from its endpoints.
    #[inline]
    pub const fn new(a: Point, b: Point) -> Self {
        Segment { a, b }
    }

    /// Segment length.
    #[inline]
    pub fn length(&self) -> f64 {
        self.a.distance(&self.b)
    }

    /// The closest point on this segment to `p`.
    pub fn closest_point(&self, p: &Point) -> Point {
        let d = self.b - self.a;
        let len_sq = d.dot(&d);
        if len_sq <= 0.0 {
            return self.a;
        }
        let t = ((*p - self.a).dot(&d) / len_sq).clamp(0.0, 1.0);
        self.a.lerp(&self.b, t)
    }

    /// Minimum distance from `p` to this segment.
    #[inline]
    pub fn distance_to_point(&self, p: &Point) -> f64 {
        self.closest_point(p).distance(p)
    }

    /// Perpendicular distance from `p` to the *infinite line* through this
    /// segment. Falls back to point distance for degenerate segments.
    ///
    /// This is the distance the Douglas-Peucker algorithm uses.
    pub fn line_distance_to_point(&self, p: &Point) -> f64 {
        let d = self.b - self.a;
        let len = d.norm();
        if len <= 0.0 {
            return self.a.distance(p);
        }
        ((*p - self.a).cross(&d)).abs() / len
    }

    /// Returns `true` when the two segments intersect (including touching).
    pub fn intersects(&self, other: &Segment) -> bool {
        #[inline]
        fn orient(a: &Point, b: &Point, c: &Point) -> f64 {
            (*b - *a).cross(&(*c - *a))
        }
        #[inline]
        fn on_segment(a: &Point, b: &Point, c: &Point) -> bool {
            // Collinear c within the bounding box of (a, b).
            c.x >= a.x.min(b.x) && c.x <= a.x.max(b.x) && c.y >= a.y.min(b.y) && c.y <= a.y.max(b.y)
        }
        let d1 = orient(&other.a, &other.b, &self.a);
        let d2 = orient(&other.a, &other.b, &self.b);
        let d3 = orient(&self.a, &self.b, &other.a);
        let d4 = orient(&self.a, &self.b, &other.b);
        if ((d1 > 0.0 && d2 < 0.0) || (d1 < 0.0 && d2 > 0.0))
            && ((d3 > 0.0 && d4 < 0.0) || (d3 < 0.0 && d4 > 0.0))
        {
            return true;
        }
        // Exact-zero cross products are the collinearity predicate of the
        // classical orientation test; a tolerance here would misclassify
        // near-parallel segments as touching.
        (d1 == 0.0 && on_segment(&other.a, &other.b, &self.a))
            || (d2 == 0.0 && on_segment(&other.a, &other.b, &self.b))
            || (d3 == 0.0 && on_segment(&self.a, &self.b, &other.a))
            || (d4 == 0.0 && on_segment(&self.a, &self.b, &other.b))
    }

    /// Minimum distance between two segments (0 when they intersect).
    pub fn distance_to_segment(&self, other: &Segment) -> f64 {
        if self.intersects(other) {
            return 0.0;
        }
        // Non-intersecting segments achieve the minimum at an endpoint.
        self.distance_to_point(&other.a)
            .min(self.distance_to_point(&other.b))
            .min(other.distance_to_point(&self.a))
            .min(other.distance_to_point(&self.b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(ax: f64, ay: f64, bx: f64, by: f64) -> Segment {
        Segment::new(Point::new(ax, ay), Point::new(bx, by))
    }

    #[test]
    fn closest_point_projects_onto_interior() {
        let s = seg(0.0, 0.0, 10.0, 0.0);
        assert_eq!(s.closest_point(&Point::new(3.0, 4.0)), Point::new(3.0, 0.0));
        assert_eq!(s.distance_to_point(&Point::new(3.0, 4.0)), 4.0);
    }

    #[test]
    fn closest_point_clamps_to_endpoints() {
        let s = seg(0.0, 0.0, 10.0, 0.0);
        assert_eq!(s.closest_point(&Point::new(-5.0, 0.0)), Point::new(0.0, 0.0));
        assert_eq!(s.closest_point(&Point::new(15.0, 3.0)), Point::new(10.0, 0.0));
    }

    #[test]
    fn degenerate_segment_behaves_like_point() {
        let s = seg(2.0, 2.0, 2.0, 2.0);
        assert_eq!(s.distance_to_point(&Point::new(2.0, 5.0)), 3.0);
        assert_eq!(s.line_distance_to_point(&Point::new(2.0, 5.0)), 3.0);
    }

    #[test]
    fn line_distance_ignores_clamping() {
        let s = seg(0.0, 0.0, 1.0, 0.0);
        // Point beyond the end of the segment but on the line's level.
        assert_eq!(s.line_distance_to_point(&Point::new(5.0, 2.0)), 2.0);
        assert!(s.distance_to_point(&Point::new(5.0, 2.0)) > 2.0);
    }

    #[test]
    fn crossing_segments_intersect() {
        let s1 = seg(0.0, 0.0, 1.0, 1.0);
        let s2 = seg(0.0, 1.0, 1.0, 0.0);
        assert!(s1.intersects(&s2));
        assert_eq!(s1.distance_to_segment(&s2), 0.0);
    }

    #[test]
    fn touching_segments_intersect() {
        let s1 = seg(0.0, 0.0, 1.0, 0.0);
        let s2 = seg(1.0, 0.0, 2.0, 5.0);
        assert!(s1.intersects(&s2));
    }

    #[test]
    fn collinear_overlapping_segments_intersect() {
        let s1 = seg(0.0, 0.0, 2.0, 0.0);
        let s2 = seg(1.0, 0.0, 3.0, 0.0);
        assert!(s1.intersects(&s2));
    }

    #[test]
    fn collinear_disjoint_segments_do_not_intersect() {
        let s1 = seg(0.0, 0.0, 1.0, 0.0);
        let s2 = seg(2.0, 0.0, 3.0, 0.0);
        assert!(!s1.intersects(&s2));
        assert_eq!(s1.distance_to_segment(&s2), 1.0);
    }

    #[test]
    fn parallel_segments_distance() {
        let s1 = seg(0.0, 0.0, 10.0, 0.0);
        let s2 = seg(0.0, 3.0, 10.0, 3.0);
        assert!(!s1.intersects(&s2));
        assert_eq!(s1.distance_to_segment(&s2), 3.0);
    }

    #[test]
    fn segment_distance_is_symmetric() {
        let s1 = seg(0.0, 0.0, 1.0, 2.0);
        let s2 = seg(4.0, -1.0, 6.0, 3.0);
        assert_eq!(s1.distance_to_segment(&s2), s2.distance_to_segment(&s1));
    }

    #[test]
    fn length_is_euclidean() {
        assert_eq!(seg(0.0, 0.0, 4.0, 3.0).length(), 5.0);
    }
}
