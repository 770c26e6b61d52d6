//! Dynamic Time Warping (§VII, Definition 13).
//!
//! Unlike Fréchet and Hausdorff, DTW *sums* point distances along the
//! optimal warping path, so a threshold ε for DTW is a budget over the whole
//! alignment. Lemma 5 still holds (`D_D(Q,T) ≥ d(q, T)` for every q ∈ Q,
//! §VII-B), which is why TraSS reuses the same pruning machinery.
//!
//! The kernel is the measures' shared banded DP (`coupling_dp`) with the
//! Euclidean point distance as the local cost and `+` as the combine step.

use trass_geo::Point;

/// Exact DTW distance between two non-empty point sequences, using
/// Euclidean point distance as the local cost.
///
/// # Panics
/// Panics if either sequence is empty.
pub fn distance(a: &[Point], b: &[Point]) -> f64 {
    assert!(!a.is_empty() && !b.is_empty(), "DTW distance of empty sequence");
    dtw(a, b, f64::INFINITY)
}

/// Single-pass exact-or-abandon kernel: `Some(distance(a, b))` —
/// bit-identical to [`distance`] — when the DTW cost is at most `eps`,
/// `None` otherwise. Partial-path costs only grow (local costs are
/// non-negative), so every partial cost ≤ `eps` keeps its exact value when
/// the over-budget cells are skipped, and a row with no partial cost
/// ≤ `eps` proves the total exceeds it.
///
/// # Panics
/// Panics if either sequence is empty.
pub fn distance_within(a: &[Point], b: &[Point], eps: f64) -> Option<f64> {
    assert!(!a.is_empty() && !b.is_empty(), "DTW decision of empty sequence");
    if eps < 0.0 {
        return None;
    }
    let d = dtw(a, b, eps);
    (d <= eps).then_some(d)
}

/// The DTW cost, or `+∞` once it is proven to exceed `cutoff`.
fn dtw(a: &[Point], b: &[Point], cutoff: f64) -> f64 {
    super::coupling_dp(a, b, cutoff, Point::distance, |cost, best| cost + best)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(v: &[(f64, f64)]) -> Vec<Point> {
        v.iter().map(|&(x, y)| Point::new(x, y)).collect()
    }

    #[test]
    fn identical_sequences_have_zero_distance() {
        let a = pts(&[(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)]);
        assert_eq!(distance(&a, &a), 0.0);
        assert_eq!(distance_within(&a, &a, 0.0), Some(0.0));
    }

    #[test]
    fn single_point_cases_sum_all_distances() {
        // Definition 13, n = 1: sum over all matches.
        let a = pts(&[(0.0, 0.0)]);
        let b = pts(&[(1.0, 0.0), (2.0, 0.0)]);
        assert_eq!(distance(&a, &b), 3.0);
        assert_eq!(distance(&b, &a), 3.0);
    }

    #[test]
    fn dtw_is_symmetric() {
        let a = pts(&[(0.0, 0.0), (2.0, 1.0), (4.0, 0.5)]);
        let b = pts(&[(0.5, -1.0), (2.5, 0.0), (3.5, 2.0), (4.5, 0.0)]);
        assert!((distance(&a, &b) - distance(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn dtw_aligns_shifted_sequences() {
        // A stutter at the start should cost almost nothing under DTW.
        let a = pts(&[(0.0, 0.0), (0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]);
        let b = pts(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]);
        assert_eq!(distance(&a, &b), 0.0);
    }

    #[test]
    fn dtw_exceeds_every_point_min_distance() {
        // Lemma 5 for DTW (§VII-B): D >= d(q, T) for every q.
        let a = pts(&[(0.0, 0.0), (1.0, 2.0), (2.0, -1.0)]);
        let b = pts(&[(0.4, 0.3), (1.5, 1.0), (2.0, 0.0), (3.0, 1.0)]);
        let d = distance(&a, &b);
        for q in &a {
            let min_d = b.iter().map(|t| q.distance(t)).fold(f64::INFINITY, f64::min);
            assert!(d >= min_d - 1e-12);
        }
    }

    #[test]
    fn dtw_endpoint_lower_bounds() {
        // Lemma 12 for DTW: D >= d(q1,t1) and D >= d(qn,tm).
        let a = pts(&[(0.0, 0.0), (5.0, 5.0)]);
        let b = pts(&[(1.0, 0.0), (5.0, 7.0)]);
        let d = distance(&a, &b);
        assert!(d >= a[0].distance(&b[0]));
        assert!(d >= a[1].distance(&b[1]));
    }

    #[test]
    fn distance_within_abandons_far_sequences() {
        let a = pts(&[(0.0, 0.0), (1.0, 0.0)]);
        let b = pts(&[(100.0, 100.0), (101.0, 100.0)]);
        assert_eq!(distance_within(&a, &b, 1.0), None);
    }

    #[test]
    fn distance_within_is_bit_identical_on_hits() {
        let a = pts(&[(0.0, 0.0), (1.0, 0.3), (2.0, -0.4), (3.0, 0.6)]);
        let b = pts(&[(0.2, 0.5), (1.4, -0.3), (2.4, 0.6)]);
        let d = distance(&a, &b);
        let got = distance_within(&a, &b, d * 2.0).expect("within generous eps");
        assert_eq!(got.to_bits(), d.to_bits());
        assert_eq!(distance_within(&a, &b, d * 0.5), None);
        assert_eq!(distance_within(&a, &b, -1.0), None);
        // DTW compares the sum directly — exact boundary equivalence.
        assert_eq!(distance_within(&a, &b, d), Some(d));
        assert_eq!(distance_within(&a, &b, d - 1e-9), None);
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
        let row = pts(&[(1.0, 0.0), (2.0, 0.0), (5.0, 0.0)]);
        assert_boundary(&one, &row, 8.0);
        assert_boundary(&row, &one, 8.0);
    }

    #[test]
    fn band_one_column_wide_the_whole_way() {
        // Every off-diagonal cell costs ≥ 1, more than the whole budget.
        let a: Vec<Point> = (0..400).map(|k| Point::new(f64::from(k), 0.0)).collect();
        let b: Vec<Point> = a.iter().map(|p| Point::new(p.x, 0.001)).collect();
        let d = distance(&a, &b);
        assert!((d - 0.4).abs() < 1e-9, "d = {d}");
        assert_boundary(&a, &b, d);
    }

    #[test]
    fn band_keeps_a_cell_equal_to_eps() {
        // Cells (0,0), (1,1), (2,2) and (3,3) all hold exactly ε = 1.
        let a = pts(&[(0.0, 0.0), (10.0, 0.0), (20.0, 0.0), (30.0, 0.0)]);
        let b = pts(&[(0.0, 1.0), (10.0, 0.0), (20.0, 0.0), (30.0, 0.0)]);
        assert_boundary(&a, &b, 1.0);
    }

    #[test]
    fn band_that_empties_mid_way_abandons() {
        // b detours through (5, 10): column 5 is never live, and from row 6
        // on the columns left of it cost more than ε = 1.
        let a: Vec<Point> = (0..10).map(|k| Point::new(f64::from(k), 0.0)).collect();
        let mut b = a.clone();
        b[5] = Point::new(5.0, 10.0);
        assert_eq!(distance(&a, &b), 10.0);
        assert_eq!(distance_within(&a, &b, 1.0), None);
    }

    #[test]
    fn band_that_never_reaches_the_last_column_is_none() {
        // Column 1 is never live, so rows 1.. never reach column 2.
        let (o, f) = ((0.0, 0.0), (5.0, 0.0));
        assert_eq!(distance_within(&pts(&[o, o, o, o]), &pts(&[o, f, o]), 1.0), None);
        // Row 2 leaves a live 3 in column 3 of its row buffer; row 4 reuses
        // that buffer, but its band stops at column 2 (every path to (4, 3)
        // costs 9): the stale 3 must not be returned.
        let (a, b) = (pts(&[o, (3.0, 0.0), o, o, o]), pts(&[o, o, (3.0, 0.0), (3.0, 0.0)]));
        assert_eq!(distance(&a, &b), 9.0);
        assert_eq!(distance_within(&a, &b, 4.0), None);
    }
}
