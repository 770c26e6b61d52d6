//! Discrete Fréchet distance (§II, Definition 2).
//!
//! The classic "man walks dog" coupling distance over point sequences: the
//! measures' shared banded DP (`coupling_dp`) in squared space, with the
//! squared point distance as the local cost and `max` as the combine step.
//! `distance` runs it with no cutoff; `distance_within` runs it with cutoff
//! ε², computing only the live band of each row and abandoning when a row
//! has none.

use trass_geo::Point;

/// Exact discrete Fréchet distance between two non-empty point sequences.
///
/// # Panics
/// Panics if either sequence is empty.
pub fn distance(a: &[Point], b: &[Point]) -> f64 {
    assert!(!a.is_empty() && !b.is_empty(), "Fréchet distance of empty sequence");
    frechet_sq(a, b, f64::INFINITY).sqrt()
}

/// Single-pass exact-or-abandon kernel: `Some(distance(a, b))` —
/// bit-identical to [`distance`] — when the squared Fréchet distance is at
/// most `eps²`, `None` otherwise.
///
/// DP values along any coupling are non-decreasing (each cell is a `max`
/// over its path prefix), so every cell ≤ `eps²` keeps its exact value
/// when the cells above `eps²` are skipped, and a row with no such cell
/// proves the final value exceeds `eps²`.
///
/// # Panics
/// Panics if either sequence is empty.
pub fn distance_within(a: &[Point], b: &[Point], eps: f64) -> Option<f64> {
    assert!(!a.is_empty() && !b.is_empty(), "Fréchet decision of empty sequence");
    if eps < 0.0 {
        return None;
    }
    let eps_sq = eps * eps;
    // Endpoints must couple: an O(1) rejection before the O(n·m) DP.
    if a[0].distance_sq(&b[0]) > eps_sq || a[a.len() - 1].distance_sq(&b[b.len() - 1]) > eps_sq {
        return None;
    }
    let d_sq = frechet_sq(a, b, eps_sq);
    (d_sq <= eps_sq).then(|| d_sq.sqrt())
}

/// The squared Fréchet distance, or `+∞` once it is proven to exceed `cutoff_sq`.
fn frechet_sq(a: &[Point], b: &[Point], cutoff_sq: f64) -> f64 {
    super::coupling_dp(a, b, cutoff_sq, Point::distance_sq, super::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(v: &[(f64, f64)]) -> Vec<Point> {
        v.iter().map(|&(x, y)| Point::new(x, y)).collect()
    }

    #[test]
    fn identical_sequences_have_zero_distance() {
        let a = pts(&[(0.0, 0.0), (1.0, 2.0), (3.0, 1.0)]);
        assert_eq!(distance(&a, &a), 0.0);
        assert_eq!(distance_within(&a, &a, 0.0), Some(0.0));
    }

    #[test]
    fn parallel_lines_distance_is_offset() {
        let a = pts(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)]);
        let b = pts(&[(0.0, 2.0), (1.0, 2.0), (2.0, 2.0), (3.0, 2.0)]);
        assert!((distance(&a, &b) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn single_point_vs_sequence_is_max_distance() {
        // Definition 2, case n = 1: max over all points.
        let a = pts(&[(0.0, 0.0)]);
        let b = pts(&[(1.0, 0.0), (5.0, 0.0), (2.0, 0.0)]);
        assert_eq!(distance(&a, &b), 5.0);
        assert_eq!(distance(&b, &a), 5.0);
    }

    #[test]
    fn frechet_is_symmetric() {
        let a = pts(&[(0.0, 0.0), (2.0, 1.0), (4.0, 0.5)]);
        let b = pts(&[(0.5, -1.0), (2.5, 0.0), (3.5, 2.0), (4.5, 0.0)]);
        assert_eq!(distance(&a, &b), distance(&b, &a));
    }

    #[test]
    fn frechet_exceeds_endpoint_distances() {
        // Lemma 12's basis: D_F >= d(q1, t1) and D_F >= d(qn, tm).
        let a = pts(&[(0.0, 0.0), (5.0, 5.0)]);
        let b = pts(&[(1.0, 0.0), (5.0, 7.0)]);
        let d = distance(&a, &b);
        assert!(d >= a[0].distance(&b[0]));
        assert!(d >= a[1].distance(&b[1]));
    }

    #[test]
    fn backtracking_dog_example() {
        // Classic case where Fréchet > Hausdorff: matching must be monotone.
        let a = pts(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0), (4.0, 0.0)]);
        let b = pts(&[(0.0, 1.0), (4.0, 1.0), (0.0, 1.0), (4.0, 1.0)]);
        let d = distance(&a, &b);
        // Monotone coupling forces a pairing at horizontal distance >= 2.
        assert!(d > 2.0, "d = {d}");
    }

    #[test]
    fn distance_within_matches_distance_on_grid() {
        let a = pts(&[(0.0, 0.0), (1.0, 0.3), (2.0, -0.4), (3.0, 0.1), (4.0, 0.0)]);
        let b = pts(&[(0.2, 0.5), (1.4, -0.3), (2.4, 0.6), (3.8, -0.5)]);
        let d = distance(&a, &b);
        for scale in [0.5, 0.9, 0.999, 1.001, 1.1, 2.0] {
            let eps = d * scale;
            assert_eq!(distance_within(&a, &b, eps).is_some(), d <= eps, "scale {scale}");
        }
    }

    #[test]
    fn distance_within_rejects_negative_eps_and_far_endpoints() {
        let a = pts(&[(0.0, 0.0), (1.0, 0.0)]);
        assert_eq!(distance_within(&a, &a, -1.0), None);
        let b = pts(&[(100.0, 0.0), (101.0, 0.0)]);
        assert_eq!(distance_within(&a, &b, 1.0), None);
    }

    #[test]
    fn single_point_both_sides() {
        let a = pts(&[(0.0, 0.0)]);
        let b = pts(&[(3.0, 4.0)]);
        assert_eq!(distance(&a, &b), 5.0);
        assert_eq!(distance_within(&a, &b, 5.0), Some(5.0));
        assert_eq!(distance_within(&a, &b, 4.999), None);
    }

    #[test]
    fn distance_within_is_bit_identical_on_hits() {
        let a = pts(&[(0.0, 0.0), (1.0, 0.3), (2.0, -0.4), (3.0, 0.1), (4.0, 0.0)]);
        let b = pts(&[(0.2, 0.5), (1.4, -0.3), (2.4, 0.6), (3.8, -0.5)]);
        let d = distance(&a, &b);
        let got = distance_within(&a, &b, d * 1.5).expect("within generous eps");
        assert_eq!(got.to_bits(), d.to_bits());
        assert_eq!(distance_within(&a, &b, d * 0.5), None);
    }

    /// `Some(d)` exactly at and above `d > 0`, `None` one ulp below it.
    fn assert_boundary(a: &[Point], b: &[Point], d: f64) {
        let (up, down) = (f64::from_bits(d.to_bits() + 1), f64::from_bits(d.to_bits() - 1));
        assert_eq!(distance(a, b).to_bits(), d.to_bits());
        for eps in [d, up, 2.0 * d] {
            assert_eq!(
                distance_within(a, b, eps).map(f64::to_bits),
                Some(d.to_bits()),
                "eps {eps}"
            );
        }
        assert_eq!(distance_within(a, b, down), None);
    }

    #[test]
    fn band_single_row_and_single_column() {
        let one = pts(&[(0.0, 0.0)]);
        assert_boundary(&one, &pts(&[(3.0, 4.0)]), 5.0);
        let row = pts(&[(1.0, 0.0), (5.0, 0.0), (2.0, 0.0)]);
        assert_boundary(&one, &row, 5.0);
        assert_boundary(&row, &one, 5.0);
    }

    #[test]
    fn band_one_column_wide_the_whole_way() {
        // Diagonal cells cost 0.25 (squared), every other cell ≥ 1.25.
        let a: Vec<Point> = (0..400).map(|k| Point::new(f64::from(k), 0.0)).collect();
        let b: Vec<Point> = a.iter().map(|p| Point::new(p.x, 0.5)).collect();
        assert_boundary(&a, &b, 0.5);
    }

    #[test]
    fn band_keeps_a_cell_equal_to_eps() {
        // The bottleneck is the interior cell (2, 2), exactly ε² = 4.
        let a = pts(&[(0.0, 0.0), (10.0, 0.0), (20.0, 0.0), (30.0, 0.0)]);
        let b = pts(&[(0.0, 1.0), (10.0, 1.0), (20.0, 2.0), (30.0, 1.0)]);
        assert_boundary(&a, &b, 2.0);
    }

    #[test]
    fn band_that_empties_mid_way_abandons() {
        // b detours through (5, 10): column 5 is never live, and from row 6
        // on the columns left of it are farther than ε = 1.
        let a: Vec<Point> = (0..10).map(|k| Point::new(f64::from(k), 0.0)).collect();
        let mut b = a.clone();
        b[5] = Point::new(5.0, 10.0);
        assert_eq!(distance(&a, &b), 10.0);
        assert_eq!(distance_within(&a, &b, 1.0), None);
    }

    #[test]
    fn band_that_never_reaches_the_last_column_is_none() {
        // Endpoints couple, but column 1 is never live, so no row reaches
        // column 2.
        let (o, f) = ((0.0, 0.0), (5.0, 0.0));
        let (a, b) = (pts(&[o, o, o, o]), pts(&[o, f, o]));
        assert_eq!(distance(&a, &b), 5.0);
        assert_eq!(distance_within(&a, &b, 1.0), None);
    }
}
