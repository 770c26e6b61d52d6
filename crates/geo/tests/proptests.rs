//! Property-based tests for the geometry kernel invariants the pruning
//! lemmas rely on. If any of these break, TraSS pruning becomes unsound.

use trass_geo::{Mbr, OrientedBox, Point, Segment};
use trass_rng::{check, Rng};

const CASES: u32 = 256;

fn pt(rng: &mut Rng) -> Point {
    Point::new(rng.f64_in(-100.0, 100.0), rng.f64_in(-100.0, 100.0))
}

fn mbr(rng: &mut Rng) -> Mbr {
    Mbr::from_corners(pt(rng), pt(rng))
}

fn seg(rng: &mut Rng) -> Segment {
    Segment::new(pt(rng), pt(rng))
}

/// `1..=max` points.
fn pts(rng: &mut Rng, max: usize) -> Vec<Point> {
    (0..rng.len(1, max)).map(|_| pt(rng)).collect()
}

/// A point of `m`: `q` clamped into it.
fn clamped(q: Point, m: &Mbr) -> Point {
    Point::new(q.x.clamp(m.min_x, m.max_x), q.y.clamp(m.min_y, m.max_y))
}

#[test]
fn point_distance_triangle_inequality() {
    check(CASES, |rng| {
        let (a, b, c) = (pt(rng), pt(rng), pt(rng));
        assert!(a.distance(&c) <= a.distance(&b) + b.distance(&c) + 1e-9);
    });
}

#[test]
fn segment_point_distance_below_endpoint_distances() {
    check(CASES, |rng| {
        let (s, p) = (seg(rng), pt(rng));
        let d = s.distance_to_point(&p);
        assert!(d <= p.distance(&s.a) + 1e-12);
        assert!(d <= p.distance(&s.b) + 1e-12);
    });
}

#[test]
fn segment_closest_point_is_on_segment_bbox() {
    check(CASES, |rng| {
        let (s, p) = (seg(rng), pt(rng));
        let c = s.closest_point(&p);
        let bbox = Mbr::from_corners(s.a, s.b);
        assert!(bbox.extended(1e-9).contains_point(&c));
    });
}

#[test]
fn segment_distance_symmetric() {
    check(CASES, |rng| {
        let (s1, s2) = (seg(rng), seg(rng));
        let d12 = s1.distance_to_segment(&s2);
        let d21 = s2.distance_to_segment(&s1);
        assert!((d12 - d21).abs() < 1e-9);
    });
}

#[test]
fn segment_distance_lower_bounds_sample_points() {
    check(CASES, |rng| {
        // The min distance between segments must not exceed the distance
        // between any pair of sampled points on them.
        let (s1, s2) = (seg(rng), seg(rng));
        let d = s1.distance_to_segment(&s2);
        for i in 0..=4 {
            for j in 0..=4 {
                let p = s1.a.lerp(&s1.b, i as f64 / 4.0);
                let q = s2.a.lerp(&s2.b, j as f64 / 4.0);
                assert!(d <= p.distance(&q) + 1e-9);
            }
        }
    });
}

#[test]
fn mbr_contains_generating_points() {
    check(CASES, |rng| {
        let (a, b, c) = (pt(rng), pt(rng), pt(rng));
        let m = Mbr::from_points([a, b, c].iter()).unwrap();
        assert!(m.contains_point(&a));
        assert!(m.contains_point(&b));
        assert!(m.contains_point(&c));
    });
}

#[test]
fn mbr_point_distance_zero_iff_contained() {
    check(CASES, |rng| {
        let m = mbr(rng);
        // Half the cases inside the box: uniform points rarely land there.
        let p = if rng.bool(0.5) { clamped(pt(rng), &m) } else { pt(rng) };
        let d = m.distance_to_point(&p);
        assert_eq!(d == 0.0, m.contains_point(&p));
    });
}

#[test]
fn mbr_distance_lower_bounds_point_distance() {
    check(CASES, |rng| {
        // Key soundness invariant for Lemma 8-11 style pruning: for any
        // point q inside the MBR, dist(p, MBR) <= dist(p, q).
        let (m, p) = (mbr(rng), pt(rng));
        let inside = clamped(pt(rng), &m);
        assert!(m.distance_to_point(&p) <= p.distance(&inside) + 1e-9);
    });
}

#[test]
fn mbr_mbr_distance_lower_bounds_contained_points() {
    check(CASES, |rng| {
        let (m1, m2) = (mbr(rng), mbr(rng));
        let a = clamped(pt(rng), &m1);
        let b = clamped(pt(rng), &m2);
        assert!(m1.distance_to_mbr(&m2) <= a.distance(&b) + 1e-9);
    });
}

#[test]
fn mbr_union_is_commutative_and_covering() {
    check(CASES, |rng| {
        let (m1, m2) = (mbr(rng), mbr(rng));
        let u = m1.union(&m2);
        assert_eq!(u, m2.union(&m1));
        assert!(u.contains(&m1) && u.contains(&m2));
    });
}

#[test]
fn extended_mbr_distance_relationship() {
    check(CASES, |rng| {
        // Ext(MBR, eps) contains p  <=>  dist(p, MBR) <= eps (up to fp).
        let (m, p, eps) = (mbr(rng), pt(rng), rng.f64_in(0.0, 10.0));
        let ext = m.extended(eps);
        let d = m.distance_to_point(&p);
        if d <= eps {
            // Within eps by L2 implies within eps per-axis.
            assert!(ext.contains_point(&p));
        }
        if !ext.contains_point(&p) {
            assert!(d > eps - 1e-9);
        }
    });
}

#[test]
fn obb_contains_its_generators() {
    check(CASES, |rng| {
        let (a, b, pts) = (pt(rng), pt(rng), pts(rng, 19));
        let obb = OrientedBox::from_points_along(a, b, &pts).unwrap();
        for p in &pts {
            assert!(obb.contains_point(p), "obb {obb:?} missing {p:?}");
        }
    });
}

#[test]
fn obb_point_distance_lower_bounds_generators() {
    check(CASES, |rng| {
        // Lemma 13 soundness: d(q, box) <= d(q, any covered point).
        let (a, b, pts, q) = (pt(rng), pt(rng), pts(rng, 19), pt(rng));
        let obb = OrientedBox::from_points_along(a, b, &pts).unwrap();
        let d = obb.distance_to_point(&q);
        for p in &pts {
            assert!(d <= q.distance(p) + 1e-9);
        }
    });
}

#[test]
fn obb_mbr_cover() {
    check(CASES, |rng| {
        let (a, b, pts) = (pt(rng), pt(rng), pts(rng, 19));
        let obb = OrientedBox::from_points_along(a, b, &pts).unwrap();
        let cover = obb.to_mbr().extended(1e-9);
        for p in &pts {
            assert!(cover.contains_point(p));
        }
    });
}

#[test]
fn obb_segment_within_is_the_distance_verdict() {
    check(CASES, |rng| {
        let (a, b, pts, s) = (pt(rng), pt(rng), pts(rng, 19), seg(rng));
        let obb = OrientedBox::from_points_along(a, b, &pts).unwrap();
        let d = obb.distance_to_segment(&s);
        // At the distance itself, just below it, and at a random threshold.
        for eps in [d, d * (1.0 - 1e-15) - f64::MIN_POSITIVE, rng.f64_in(0.0, 2.0 * d + 1.0)] {
            assert_eq!(obb.segment_within(&s, eps), d <= eps, "eps {eps:e}, distance {d:e}");
        }
    });
}
