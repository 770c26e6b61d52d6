//! Property suite for the local-filter decisions (Lemmas 13–14): the
//! early-exit `DpFeatures::rep_points_within` and `boxes_within` return the
//! verdict of the min/max folds they replace, bit for bit, in both
//! directions, with ε drawn at the decisive distance and one ulp either
//! side of it.
//!
//! The reference below is the fold local filtering ran before: for each
//! representative point (Lemma 13) or box (Lemma 14, maximum over its
//! edges), a minimum over every box of the other side, each compared with
//! ε. The folds are computed once per pair; the verdict at any ε is
//! `all(fold ≤ ε)`, and the decisive distance is the largest fold.

use trass_geo::{Point, Segment};
use trass_rng::{check, Rng};
use trass_traj::{DpFeatures, Trajectory};

const CASES: u32 = 256;

/// Minimum distance from `p` to `f`'s box union (to its one point when it
/// has no boxes).
fn min_distance_from_point(f: &DpFeatures, p: &Point) -> f64 {
    if f.boxes.is_empty() {
        return f.rep_points[0].distance(p);
    }
    f.boxes.iter().map(|b| b.distance_to_point(p)).fold(f64::INFINITY, f64::min)
}

/// Minimum distance from `seg` to `f`'s box union (to its one point when
/// it has no boxes).
fn min_distance_from_segment(f: &DpFeatures, seg: &Segment) -> f64 {
    if f.boxes.is_empty() {
        return seg.distance_to_point(&f.rep_points[0]);
    }
    f.boxes.iter().map(|b| b.distance_to_segment(seg)).fold(f64::INFINITY, f64::min)
}

/// Lemma 13's folds: each representative point of `a`'s distance to `b`'s
/// box union.
fn rep_point_folds(a: &DpFeatures, b: &DpFeatures) -> Vec<f64> {
    a.rep_points.iter().map(|p| min_distance_from_point(b, p)).collect()
}

/// Lemma 14's folds: for each box of `a`, its edges' largest distance to
/// `b`'s box union.
fn box_folds(a: &DpFeatures, b: &DpFeatures) -> Vec<f64> {
    a.boxes
        .iter()
        .map(|bx| bx.edges().iter().map(|e| min_distance_from_segment(b, e)).fold(0.0, f64::max))
        .collect()
}

/// Checks `decide` against the reference verdict `all(fold ≤ ε)` at ε on
/// and one ulp either side of the decisive (largest) fold, and at a random
/// ε.
fn agrees(rng: &mut Rng, folds: &[f64], decide: impl Fn(f64) -> bool, what: &str) {
    let decisive = folds.iter().copied().fold(0.0, f64::max);
    let random = rng.f64_in(0.0, 2.0 * decisive + 1e-3);
    for eps in [decisive, next_down(decisive), next_up(decisive), random] {
        let reference = folds.iter().all(|&d| d <= eps);
        assert_eq!(decide(eps), reference, "{what} at eps {eps:e}, decisive {decisive:e}");
    }
}

/// The next float above `x` (finite `x`), built from the bit pattern:
/// `f64::next_up` is newer than the oldest supported toolchain.
fn next_up(x: f64) -> f64 {
    if x == 0.0 {
        return f64::from_bits(1);
    }
    let bits = x.to_bits();
    f64::from_bits(if x > 0.0 { bits + 1 } else { bits - 1 })
}

fn next_down(x: f64) -> f64 {
    -next_up(-x)
}

fn features(points: Vec<Point>, theta: f64) -> DpFeatures {
    DpFeatures::extract(&Trajectory::new(0, points), theta)
}

/// A random point within 0.02 of `origin` on each axis.
fn near(rng: &mut Rng, origin: Point) -> Point {
    Point::new(origin.x + rng.f64_in(-0.02, 0.02), origin.y + rng.f64_in(-0.02, 0.02))
}

/// A random walk of `n` points from near `origin` with steps up to `step`.
fn walk(rng: &mut Rng, origin: Point, n: usize, step: f64) -> Vec<Point> {
    let mut p = near(rng, origin);
    (0..n)
        .map(|_| {
            let here = p;
            p = Point::new(p.x + rng.f64_in(-step, step), p.y + rng.f64_in(-step, step));
            here
        })
        .collect()
}

/// `n` points on the line through `start` with direction `dir`, at
/// increasing offsets: every DP box is zero-width.
fn collinear(rng: &mut Rng, start: Point, dir: Point, n: usize) -> Vec<Point> {
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            let p = Point::new(start.x + dir.x * t, start.y + dir.y * t);
            t += rng.f64_in(0.0, 0.01);
            p
        })
        .collect()
}

/// A pair of feature sets, in coordinates around Beijing (degrees) or
/// around the origin: independent walks, a walk and its jittered copy,
/// Lorry-shaped rows with hundreds of boxes, single points with no boxes,
/// and zero-width boxes on one shared line (where the bounding-circle
/// pre-check is tight).
fn pair(rng: &mut Rng) -> (DpFeatures, DpFeatures) {
    let origin = if rng.bool(0.5) { Point::new(116.4, 39.9) } else { Point::new(0.0, 0.0) };
    let theta = [0.0, 1e-4, 1e-3, 1e-2][rng.usize_in(0, 3)];
    match rng.usize_in(0, 7) {
        0 => {
            // Lorry-shaped: a long jittered route keeps ≈ 300 boxes.
            let n = rng.len(2, 320);
            let a = walk(rng, origin, n, 0.002);
            let b = a.iter().map(|p| Point::new(p.x + rng.f64_in(-5e-4, 5e-4), p.y)).collect();
            (features(a, 1e-4), features(b, 1e-4))
        }
        1 => {
            let single = vec![near(rng, origin)];
            let n = rng.len(1, 30);
            let other = walk(rng, origin, n, 0.003);
            (features(single, theta), features(other, theta))
        }
        2 | 3 => {
            // Both on one line (axis-aligned or not), one shifted along it.
            let dir = if rng.bool(0.5) {
                Point::new(1.0, 0.0)
            } else {
                let angle = rng.f64_in(0.0, std::f64::consts::TAU);
                Point::new(angle.cos(), angle.sin())
            };
            let start = near(rng, origin);
            let (n, m) = (rng.len(1, 12), rng.len(1, 12));
            let a = collinear(rng, start, dir, n);
            let shift = rng.f64_in(-0.05, 0.05);
            let b_start = Point::new(start.x + dir.x * shift, start.y + dir.y * shift);
            let b = collinear(rng, b_start, dir, m);
            (features(a, theta), features(b, theta))
        }
        4 | 5 => {
            let n = rng.len(1, 40);
            let a = walk(rng, origin, n, 0.003);
            let b = a
                .iter()
                .map(|p| Point::new(p.x + rng.f64_in(-1e-3, 1e-3), p.y + rng.f64_in(-1e-3, 1e-3)))
                .collect();
            (features(a, theta), features(b, theta))
        }
        _ => {
            let (n, m) = (rng.len(1, 40), rng.len(1, 40));
            let a = walk(rng, origin, n, 0.003);
            let b = walk(rng, origin, m, 0.003);
            (features(a, theta), features(b, theta))
        }
    }
}

#[test]
fn rep_points_within_matches_the_fold() {
    check(CASES, |rng| {
        let (a, b) = pair(rng);
        for (x, y) in [(&a, &b), (&b, &a)] {
            let what = format!("Lemma 13, {} vs {} boxes", x.boxes.len(), y.boxes.len());
            agrees(rng, &rep_point_folds(x, y), |eps| x.rep_points_within(y, eps), &what);
        }
    });
}

#[test]
fn boxes_within_matches_the_fold() {
    check(CASES, |rng| {
        let (a, b) = pair(rng);
        for (x, y) in [(&a, &b), (&b, &a)] {
            let what = format!("Lemma 14, {} vs {} boxes", x.boxes.len(), y.boxes.len());
            agrees(rng, &box_folds(x, y), |eps| x.boxes_within(y, eps), &what);
        }
    });
}

/// The generator reaches what the properties are about: rows with
/// hundreds of boxes, rows with none, and zero-width boxes.
#[test]
fn pairs_cover_lorry_rows_single_points_and_zero_width_boxes() {
    let (mut most, mut none, mut zero_width) = (0, false, false);
    for seed in 0..u64::from(CASES) {
        let (a, b) = pair(&mut Rng::new(seed));
        for f in [&a, &b] {
            most = most.max(f.boxes.len());
            none |= f.boxes.is_empty();
            zero_width |= f.boxes.iter().any(|b| b.half_v == 0.0 && b.half_u > 0.0);
        }
    }
    assert!(most >= 250, "largest row has {most} boxes");
    assert!(none && zero_width);
}
