//! Oriented (rotated) bounding boxes.
//!
//! The Douglas-Peucker features of TraSS (§IV-D) cover the points between
//! two successive representative points with a bounding box that is "not
//! necessarily parallel to the coordinate axis": the box is aligned with the
//! chord between the two representative points. This module implements that
//! rotated rectangle together with the distance predicates local filtering
//! needs (Lemmas 13–14).

use crate::{Mbr, Point, Segment};

/// A rectangle with arbitrary orientation, stored as a center, a unit axis
/// direction `u`, and half-extents along `u` and its perpendicular `v`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrientedBox {
    /// Center of the box.
    pub center: Point,
    /// Unit vector of the box's major axis.
    pub axis: Point,
    /// Half-extent along `axis`.
    pub half_u: f64,
    /// Half-extent along the perpendicular of `axis`.
    pub half_v: f64,
}

impl OrientedBox {
    /// Builds the tight oriented box of `points` whose major axis is the
    /// direction from `anchor_a` to `anchor_b` (the DP chord).
    ///
    /// Returns `None` for an empty point set. A degenerate chord (identical
    /// anchors) falls back to an axis-aligned box.
    pub fn from_points_along(anchor_a: Point, anchor_b: Point, points: &[Point]) -> Option<Self> {
        if points.is_empty() {
            return None;
        }
        let dir = anchor_b - anchor_a;
        let len = dir.norm();
        let u = if len > 0.0 { dir * (1.0 / len) } else { Point::new(1.0, 0.0) };
        let v = Point::new(-u.y, u.x);
        let (mut min_u, mut max_u) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut min_v, mut max_v) = (f64::INFINITY, f64::NEG_INFINITY);
        for p in points {
            let d = *p - anchor_a;
            let lu = d.dot(&u);
            let lv = d.dot(&v);
            min_u = min_u.min(lu);
            max_u = max_u.max(lu);
            min_v = min_v.min(lv);
            max_v = max_v.max(lv);
        }
        let cu = (min_u + max_u) / 2.0;
        let cv = (min_v + max_v) / 2.0;
        Some(OrientedBox {
            center: anchor_a + u * cu + v * cv,
            axis: u,
            half_u: (max_u - min_u) / 2.0,
            half_v: (max_v - min_v) / 2.0,
        })
    }

    /// The perpendicular axis `v`.
    #[inline]
    fn perp(&self) -> Point {
        Point::new(-self.axis.y, self.axis.x)
    }

    /// The four corners, counter-clockwise.
    pub fn corners(&self) -> [Point; 4] {
        let u = self.axis * self.half_u;
        let v = self.perp() * self.half_v;
        [self.center - u - v, self.center + u - v, self.center + u + v, self.center - u + v]
    }

    /// The four boundary edges.
    pub fn edges(&self) -> [Segment; 4] {
        let c = self.corners();
        [
            Segment::new(c[0], c[1]),
            Segment::new(c[1], c[2]),
            Segment::new(c[2], c[3]),
            Segment::new(c[3], c[0]),
        ]
    }

    /// Returns `true` when `p` lies inside or on the boundary.
    pub fn contains_point(&self, p: &Point) -> bool {
        let d = *p - self.center;
        let lu = d.dot(&self.axis).abs();
        let lv = d.dot(&self.perp()).abs();
        // Tolerate tiny numerical overshoot from the rotated projection.
        lu <= self.half_u + crate::EPSILON && lv <= self.half_v + crate::EPSILON
    }

    /// Minimum distance from `p` to the box (0 when inside).
    pub fn distance_to_point(&self, p: &Point) -> f64 {
        let d = *p - self.center;
        let lu = d.dot(&self.axis);
        let lv = d.dot(&self.perp());
        let du = (lu.abs() - self.half_u).max(0.0);
        let dv = (lv.abs() - self.half_v).max(0.0);
        (du * du + dv * dv).sqrt()
    }

    /// Minimum distance from a segment to the box (0 on overlap).
    pub fn distance_to_segment(&self, seg: &Segment) -> f64 {
        if self.contains_point(&seg.a) || self.contains_point(&seg.b) {
            return 0.0;
        }
        self.edges().iter().map(|e| e.distance_to_segment(seg)).fold(f64::INFINITY, f64::min)
    }

    /// Whether a segment comes within `eps` of the box: for finite inputs
    /// the verdict of `distance_to_segment(seg) <= eps`, stopping at the
    /// first edge within `eps` instead of taking the minimum of all four.
    pub fn segment_within(&self, seg: &Segment, eps: f64) -> bool {
        if self.contains_point(&seg.a) || self.contains_point(&seg.b) {
            return 0.0 <= eps;
        }
        self.edges().iter().any(|e| e.distance_to_segment(seg) <= eps)
    }

    /// The axis-aligned MBR of this box.
    pub fn to_mbr(&self) -> Mbr {
        let c = self.corners();
        let mut mbr = Mbr::from_point(c[0]);
        for p in &c[1..] {
            mbr.extend(*p);
        }
        mbr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_points_along_diagonal_is_tight() {
        // Points on the line y = x: an oriented box along the diagonal has
        // zero perpendicular extent, unlike the axis-aligned MBR.
        let pts: Vec<Point> = (0..=10).map(|i| Point::new(i as f64, i as f64)).collect();
        let obb = OrientedBox::from_points_along(pts[0], *pts.last().unwrap(), &pts).unwrap();
        assert!(obb.half_v < 1e-12);
        assert!((obb.half_u - (200.0f64).sqrt() / 2.0).abs() < 1e-9);
        for p in &pts {
            assert!(obb.contains_point(p));
        }
    }

    #[test]
    fn from_points_empty_is_none() {
        assert!(OrientedBox::from_points_along(Point::ORIGIN, Point::ORIGIN, &[]).is_none());
    }

    #[test]
    fn degenerate_chord_falls_back_to_axis_aligned() {
        let pts = [Point::new(1.0, 1.0), Point::new(3.0, 2.0)];
        let obb = OrientedBox::from_points_along(pts[0], pts[0], &pts).unwrap();
        assert!(obb.contains_point(&pts[0]));
        assert!(obb.contains_point(&pts[1]));
        assert_eq!(obb.axis, Point::new(1.0, 0.0));
    }

    #[test]
    fn point_distance_rotated() {
        // Unit square rotated 45° around the origin: corners at (±√2/2·2...,)
        let obb = OrientedBox {
            center: Point::ORIGIN,
            axis: Point::new(std::f64::consts::FRAC_1_SQRT_2, std::f64::consts::FRAC_1_SQRT_2),
            half_u: 1.0,
            half_v: 1.0,
        };
        // The corner along the main axis is at distance sqrt(2) from center.
        let corner = Point::new(std::f64::consts::SQRT_2, 0.0);
        assert!(obb.distance_to_point(&corner) < 1e-9);
        // A point 1 beyond that corner along x.
        let beyond = Point::new(std::f64::consts::SQRT_2 + 1.0, 0.0);
        let d = obb.distance_to_point(&beyond);
        assert!(d > 0.5 && d <= 1.0, "d = {d}");
    }

    #[test]
    fn segment_distance_respects_rotation() {
        let pts: Vec<Point> = (0..=4).map(|i| Point::new(i as f64, i as f64)).collect();
        let obb = OrientedBox::from_points_along(pts[0], *pts.last().unwrap(), &pts).unwrap();
        // A horizontal segment passing far from the diagonal strip.
        let far = Segment::new(Point::new(0.0, 6.0), Point::new(1.0, 6.0));
        let d = obb.distance_to_segment(&far);
        assert!(d > 1.0, "d = {d}");
        // A segment crossing the diagonal.
        let crossing = Segment::new(Point::new(0.0, 4.0), Point::new(4.0, 0.0));
        assert_eq!(obb.distance_to_segment(&crossing), 0.0);
    }
}
