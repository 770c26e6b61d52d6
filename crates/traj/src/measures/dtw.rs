//! Dynamic Time Warping (§VII, Definition 13).
//!
//! Unlike Fréchet and Hausdorff, DTW *sums* point distances along the
//! optimal warping path, so a threshold ε for DTW is a budget over the whole
//! alignment. Lemma 5 still holds (`D_D(Q,T) ≥ d(q, T)` for every q ∈ Q,
//! §VII-B), which is why TraSS reuses the same pruning machinery.

use trass_geo::Point;

/// Exact DTW distance between two non-empty point sequences, using
/// Euclidean point distance as the local cost.
///
/// # Panics
/// Panics if either sequence is empty.
pub fn distance(a: &[Point], b: &[Point]) -> f64 {
    assert!(!a.is_empty() && !b.is_empty(), "DTW distance of empty sequence");
    dtw_impl(a, b, f64::INFINITY)
}

/// Single-pass exact-or-abandon kernel: `Some(distance(a, b))` —
/// bit-identical to [`distance`] — when the DTW cost is at most `eps`,
/// `None` once every partial path is over budget. Partial-path costs only
/// grow (local costs are non-negative), so the row-minimum abandon can
/// never fire on a true hit, and a completed run's value involved no
/// cutoff arithmetic.
///
/// # Panics
/// Panics if either sequence is empty.
pub fn distance_within(a: &[Point], b: &[Point], eps: f64) -> Option<f64> {
    assert!(!a.is_empty() && !b.is_empty(), "DTW decision of empty sequence");
    if eps < 0.0 {
        return None;
    }
    let d = dtw_impl(a, b, eps);
    (d <= eps).then_some(d)
}

/// Shared kernel: computes DTW, returning `f64::INFINITY` early when every
/// partial path already exceeds `cutoff`.
#[allow(clippy::needless_range_loop)] // symmetric a[i]/b[j] DP recurrence
fn dtw_impl(a: &[Point], b: &[Point], cutoff: f64) -> f64 {
    let (n, m) = (a.len(), b.len());
    let mut prev = vec![f64::INFINITY; m];
    let mut curr = vec![f64::INFINITY; m];

    prev[0] = a[0].distance(&b[0]);
    for j in 1..m {
        prev[j] = prev[j - 1] + a[0].distance(&b[j]);
    }
    for i in 1..n {
        curr[0] = prev[0] + a[i].distance(&b[0]);
        let mut row_min = curr[0];
        for j in 1..m {
            let best = prev[j].min(curr[j - 1]).min(prev[j - 1]);
            curr[j] = best + a[i].distance(&b[j]);
            row_min = row_min.min(curr[j]);
        }
        if row_min > cutoff {
            return f64::INFINITY;
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[m - 1]
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
}
