//! Axis-aligned minimum bounding rectangles.

use crate::{Point, Segment};

/// An axis-aligned rectangle `[min_x, max_x] × [min_y, max_y]`.
///
/// `Mbr` is closed on all sides. Degenerate rectangles (zero width and/or
/// height) are valid and arise naturally from single-point or axis-parallel
/// trajectories.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mbr {
    /// Smallest x coordinate.
    pub min_x: f64,
    /// Smallest y coordinate.
    pub min_y: f64,
    /// Largest x coordinate.
    pub max_x: f64,
    /// Largest y coordinate.
    pub max_y: f64,
}

impl Mbr {
    /// Creates an MBR from its bounds.
    ///
    /// # Panics
    /// Panics in debug builds if `min > max` on either axis or any bound is
    /// not finite.
    #[inline]
    pub fn new(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> Self {
        debug_assert!(min_x <= max_x && min_y <= max_y, "inverted MBR bounds");
        debug_assert!(
            min_x.is_finite() && min_y.is_finite() && max_x.is_finite() && max_y.is_finite(),
            "non-finite MBR bounds"
        );
        Mbr { min_x, min_y, max_x, max_y }
    }

    /// The MBR of a single point.
    #[inline]
    pub fn from_point(p: Point) -> Self {
        Mbr::new(p.x, p.y, p.x, p.y)
    }

    /// The MBR of two corner points given in any order.
    #[inline]
    pub fn from_corners(a: Point, b: Point) -> Self {
        Mbr::new(a.x.min(b.x), a.y.min(b.y), a.x.max(b.x), a.y.max(b.y))
    }

    /// The tight MBR of a non-empty point set. Returns `None` for an empty
    /// iterator.
    pub fn from_points<'a, I: IntoIterator<Item = &'a Point>>(points: I) -> Option<Self> {
        let mut iter = points.into_iter();
        let first = iter.next()?;
        let mut mbr = Mbr::from_point(*first);
        for p in iter {
            mbr.extend(*p);
        }
        Some(mbr)
    }

    /// Grows the MBR in place to cover `p`.
    #[inline]
    pub fn extend(&mut self, p: Point) {
        self.min_x = self.min_x.min(p.x);
        self.min_y = self.min_y.min(p.y);
        self.max_x = self.max_x.max(p.x);
        self.max_y = self.max_y.max(p.y);
    }

    /// The smallest MBR covering both `self` and `other`.
    #[inline]
    pub fn union(&self, other: &Mbr) -> Mbr {
        Mbr::new(
            self.min_x.min(other.min_x),
            self.min_y.min(other.min_y),
            self.max_x.max(other.max_x),
            self.max_y.max(other.max_y),
        )
    }

    /// Width of the rectangle.
    #[inline]
    pub fn width(&self) -> f64 {
        self.max_x - self.min_x
    }

    /// Height of the rectangle.
    #[inline]
    pub fn height(&self) -> f64 {
        self.max_y - self.min_y
    }

    /// Area of the rectangle.
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Center point of the rectangle.
    #[inline]
    pub fn center(&self) -> Point {
        Point::new((self.min_x + self.max_x) / 2.0, (self.min_y + self.max_y) / 2.0)
    }

    /// Lower-left corner.
    #[inline]
    pub fn lower_left(&self) -> Point {
        Point::new(self.min_x, self.min_y)
    }

    /// Upper-right corner.
    #[inline]
    pub fn upper_right(&self) -> Point {
        Point::new(self.max_x, self.max_y)
    }

    /// The paper's `Ext(MBR, ε)`: this rectangle grown by `eps` on every
    /// side (Definition 7).
    #[inline]
    pub fn extended(&self, eps: f64) -> Mbr {
        Mbr::new(self.min_x - eps, self.min_y - eps, self.max_x + eps, self.max_y + eps)
    }

    /// Returns `true` when `p` lies inside or on the boundary.
    #[inline]
    pub fn contains_point(&self, p: &Point) -> bool {
        p.x >= self.min_x && p.x <= self.max_x && p.y >= self.min_y && p.y <= self.max_y
    }

    /// Returns `true` when `other` is entirely inside or on the boundary.
    #[inline]
    pub fn contains(&self, other: &Mbr) -> bool {
        other.min_x >= self.min_x
            && other.max_x <= self.max_x
            && other.min_y >= self.min_y
            && other.max_y <= self.max_y
    }

    /// Returns `true` when the two (closed) rectangles share at least one
    /// point.
    #[inline]
    pub fn intersects(&self, other: &Mbr) -> bool {
        self.min_x <= other.max_x
            && other.min_x <= self.max_x
            && self.min_y <= other.max_y
            && other.min_y <= self.max_y
    }

    /// Minimum distance from `p` to the rectangle (0 when inside).
    #[inline]
    pub fn distance_to_point(&self, p: &Point) -> f64 {
        self.distance_sq_to_point(p).sqrt()
    }

    /// Squared minimum distance from `p` to the rectangle.
    #[inline]
    pub fn distance_sq_to_point(&self, p: &Point) -> f64 {
        let dx = (self.min_x - p.x).max(0.0).max(p.x - self.max_x);
        let dy = (self.min_y - p.y).max(0.0).max(p.y - self.max_y);
        dx * dx + dy * dy
    }

    /// Minimum distance between two rectangles (0 when they intersect).
    pub fn distance_to_mbr(&self, other: &Mbr) -> f64 {
        let dx = (self.min_x - other.max_x).max(0.0).max(other.min_x - self.max_x);
        let dy = (self.min_y - other.max_y).max(0.0).max(other.min_y - self.max_y);
        (dx * dx + dy * dy).sqrt()
    }

    /// Minimum distance from a segment to the rectangle (0 on overlap).
    pub fn distance_to_segment(&self, seg: &Segment) -> f64 {
        if self.contains_point(&seg.a) || self.contains_point(&seg.b) {
            return 0.0;
        }
        self.edges().iter().map(|e| e.distance_to_segment(seg)).fold(f64::INFINITY, f64::min)
    }

    /// The four boundary edges, in order: bottom, right, top, left.
    pub fn edges(&self) -> [Segment; 4] {
        let ll = Point::new(self.min_x, self.min_y);
        let lr = Point::new(self.max_x, self.min_y);
        let ur = Point::new(self.max_x, self.max_y);
        let ul = Point::new(self.min_x, self.max_y);
        [Segment::new(ll, lr), Segment::new(lr, ur), Segment::new(ur, ul), Segment::new(ul, ll)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect(a: f64, b: f64, c: f64, d: f64) -> Mbr {
        Mbr::new(a, b, c, d)
    }

    #[test]
    fn from_points_is_tight() {
        let pts = [Point::new(1.0, 5.0), Point::new(-2.0, 3.0), Point::new(0.0, 7.0)];
        let mbr = Mbr::from_points(pts.iter()).unwrap();
        assert_eq!(mbr, rect(-2.0, 3.0, 1.0, 7.0));
    }

    #[test]
    fn from_points_empty_is_none() {
        assert!(Mbr::from_points([].iter()).is_none());
    }

    #[test]
    fn contains_boundary_points() {
        let m = rect(0.0, 0.0, 2.0, 2.0);
        assert!(m.contains_point(&Point::new(0.0, 0.0)));
        assert!(m.contains_point(&Point::new(2.0, 1.0)));
        assert!(!m.contains_point(&Point::new(2.0001, 1.0)));
    }

    #[test]
    fn intersects_touching_rectangles() {
        let a = rect(0.0, 0.0, 1.0, 1.0);
        let b = rect(1.0, 1.0, 2.0, 2.0);
        assert!(a.intersects(&b));
        assert_eq!(a.distance_to_mbr(&b), 0.0);
    }

    #[test]
    fn disjoint_rectangle_distance_is_diagonal() {
        let a = rect(0.0, 0.0, 1.0, 1.0);
        let b = rect(4.0, 5.0, 6.0, 7.0);
        assert_eq!(a.distance_to_mbr(&b), 5.0); // dx = 3, dy = 4
    }

    #[test]
    fn point_distance_zero_inside() {
        let m = rect(0.0, 0.0, 2.0, 2.0);
        assert_eq!(m.distance_to_point(&Point::new(1.0, 1.0)), 0.0);
        assert_eq!(m.distance_to_point(&Point::new(5.0, 1.0)), 3.0);
        assert_eq!(m.distance_to_point(&Point::new(5.0, 6.0)), 5.0);
    }

    #[test]
    fn extended_grows_all_sides() {
        let m = rect(0.0, 0.0, 1.0, 1.0).extended(0.5);
        assert_eq!(m, rect(-0.5, -0.5, 1.5, 1.5));
    }

    #[test]
    fn union_covers_both() {
        let a = rect(0.0, 0.0, 1.0, 1.0);
        let b = rect(2.0, -1.0, 3.0, 0.5);
        let u = a.union(&b);
        assert!(u.contains(&a));
        assert!(u.contains(&b));
        assert_eq!(u, rect(0.0, -1.0, 3.0, 1.0));
    }

    #[test]
    fn segment_distance_overlap_and_offset() {
        let m = rect(0.0, 0.0, 1.0, 1.0);
        let inside = Segment::new(Point::new(0.5, 0.5), Point::new(0.6, 0.6));
        assert_eq!(m.distance_to_segment(&inside), 0.0);
        let crossing = Segment::new(Point::new(-1.0, 0.5), Point::new(2.0, 0.5));
        assert_eq!(m.distance_to_segment(&crossing), 0.0);
        let above = Segment::new(Point::new(0.0, 3.0), Point::new(1.0, 3.0));
        assert_eq!(m.distance_to_segment(&above), 2.0);
    }

    #[test]
    fn degenerate_mbr_is_a_point() {
        let m = Mbr::from_point(Point::new(1.0, 1.0));
        assert_eq!(m.width(), 0.0);
        assert_eq!(m.area(), 0.0);
        assert_eq!(m.distance_to_point(&Point::new(4.0, 5.0)), 5.0);
    }

    #[test]
    fn edges_form_closed_loop() {
        let m = rect(0.0, 0.0, 2.0, 3.0);
        let e = m.edges();
        assert_eq!(e[0].b, e[1].a);
        assert_eq!(e[1].b, e[2].a);
        assert_eq!(e[2].b, e[3].a);
        assert_eq!(e[3].b, e[0].a);
        let perimeter: f64 = e.iter().map(|s| s.length()).sum();
        assert_eq!(perimeter, 10.0);
    }
}
