//! Discrete Fréchet distance (§II, Definition 2).
//!
//! The classic "man walks dog" coupling distance over point sequences,
//! computed by one O(n·m) dynamic program with a rolling row
//! (`frechet_impl`). `distance` runs it to the end; `distance_within` runs
//! it with a cutoff and abandons as soon as an entire row exceeds it.

use trass_geo::Point;

/// Exact discrete Fréchet distance between two non-empty point sequences.
///
/// # Panics
/// Panics if either sequence is empty.
pub fn distance(a: &[Point], b: &[Point]) -> f64 {
    assert!(!a.is_empty() && !b.is_empty(), "Fréchet distance of empty sequence");
    frechet_impl(a, b, f64::INFINITY).sqrt()
}

/// Single-pass exact-or-abandon kernel: `Some(distance(a, b))` —
/// bit-identical to [`distance`] — when the Fréchet distance is at most
/// `eps`, `None` as soon as the DP proves it exceeds `eps`.
///
/// DP values along any coupling are non-decreasing (each cell is a `max`
/// over its path prefix) and every coupling crosses every row, so a row
/// whose minimum exceeds `eps²` proves the final value does too — the
/// abandon can never fire on a true hit, and a completed run used no
/// cutoff arithmetic, so its value matches the unbounded kernel exactly.
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
    let d_sq = frechet_impl(a, b, eps_sq);
    (d_sq <= eps_sq).then(|| d_sq.sqrt())
}

/// The shared value DP in squared space: returns the squared Fréchet
/// distance, or `f64::INFINITY` early once every cell of a row exceeds
/// `cutoff_sq`. `cutoff_sq = +∞` never abandons and reproduces the exact
/// kernel bit-for-bit (the cutoff is only ever compared, never mixed into
/// the arithmetic).
#[allow(clippy::needless_range_loop)] // symmetric a[i]/b[j] DP recurrence
fn frechet_impl(a: &[Point], b: &[Point], cutoff_sq: f64) -> f64 {
    let (n, m) = (a.len(), b.len());
    // Work in squared distances; the caller takes one sqrt at the end.
    let mut prev = vec![0.0f64; m];
    let mut curr = vec![0.0f64; m];

    prev[0] = a[0].distance_sq(&b[0]);
    for j in 1..m {
        prev[j] = prev[j - 1].max(a[0].distance_sq(&b[j]));
    }
    for i in 1..n {
        curr[0] = prev[0].max(a[i].distance_sq(&b[0]));
        let mut row_min = curr[0];
        for j in 1..m {
            let reach = prev[j].min(curr[j - 1]).min(prev[j - 1]);
            curr[j] = reach.max(a[i].distance_sq(&b[j]));
            row_min = row_min.min(curr[j]);
        }
        if row_min > cutoff_sq {
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
}
