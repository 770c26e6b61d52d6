//! Symmetric Hausdorff distance over point sets (§VII, Definition 12).

use trass_geo::Point;

/// Directed Hausdorff distance `max_{p∈a} min_{q∈b} d(p, q)`.
///
/// Uses the standard early-break trick: the inner scan stops as soon as a
/// candidate closer than the current outer maximum is found, which makes the
/// average case far cheaper than O(n·m) on real trajectories.
///
/// # Panics
/// Panics if either sequence is empty.
pub fn directed(a: &[Point], b: &[Point]) -> f64 {
    assert!(!a.is_empty() && !b.is_empty(), "Hausdorff distance of empty sequence");
    directed_sq(a, b, f64::INFINITY).sqrt()
}

/// The shared directed kernel in squared space: returns the squared
/// directed Hausdorff distance, or `f64::INFINITY` early once the running
/// maximum exceeds `cutoff_sq` (the maximum only grows, so the final value
/// would too). `cutoff_sq = +∞` never abandons and reproduces the exact
/// kernel bit-for-bit.
fn directed_sq(a: &[Point], b: &[Point], cutoff_sq: f64) -> f64 {
    let mut cmax_sq = 0.0f64;
    for p in a {
        let mut cmin_sq = f64::INFINITY;
        for q in b {
            let d = p.distance_sq(q);
            if d < cmax_sq {
                // This p cannot raise the max; skip the rest of b.
                cmin_sq = d;
                break;
            }
            if d < cmin_sq {
                cmin_sq = d;
            }
        }
        if cmin_sq > cmax_sq && cmin_sq.is_finite() {
            cmax_sq = cmin_sq;
        }
        if cmax_sq > cutoff_sq {
            return f64::INFINITY;
        }
    }
    cmax_sq
}

/// Symmetric Hausdorff distance `max(directed(a,b), directed(b,a))`.
pub fn distance(a: &[Point], b: &[Point]) -> f64 {
    directed(a, b).max(directed(b, a))
}

/// Single-pass exact-or-abandon kernel: `Some(distance(a, b))` —
/// bit-identical to [`distance`] — when the symmetric Hausdorff distance
/// is at most `eps`, `None` as soon as either directed pass proves it
/// exceeds `eps`.
///
/// # Panics
/// Panics if either sequence is empty.
pub fn distance_within(a: &[Point], b: &[Point], eps: f64) -> Option<f64> {
    assert!(!a.is_empty() && !b.is_empty(), "Hausdorff decision of empty sequence");
    if eps < 0.0 {
        return None;
    }
    let eps_sq = eps * eps;
    let ab_sq = directed_sq(a, b, eps_sq);
    if ab_sq > eps_sq {
        return None;
    }
    let ba_sq = directed_sq(b, a, eps_sq);
    if ba_sq > eps_sq {
        return None;
    }
    Some(ab_sq.sqrt().max(ba_sq.sqrt()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(v: &[(f64, f64)]) -> Vec<Point> {
        v.iter().map(|&(x, y)| Point::new(x, y)).collect()
    }

    #[test]
    fn identical_sets_have_zero_distance() {
        let a = pts(&[(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)]);
        assert_eq!(distance(&a, &a), 0.0);
        assert_eq!(distance_within(&a, &a, 0.0), Some(0.0));
    }

    #[test]
    fn directed_is_asymmetric() {
        // b contains a's points plus a far outlier.
        let a = pts(&[(0.0, 0.0), (1.0, 0.0)]);
        let b = pts(&[(0.0, 0.0), (1.0, 0.0), (10.0, 0.0)]);
        assert_eq!(directed(&a, &b), 0.0);
        assert_eq!(directed(&b, &a), 9.0);
        assert_eq!(distance(&a, &b), 9.0);
    }

    #[test]
    fn parallel_lines_distance_is_offset() {
        let a = pts(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]);
        let b = pts(&[(0.0, 3.0), (1.0, 3.0), (2.0, 3.0)]);
        assert_eq!(distance(&a, &b), 3.0);
    }

    #[test]
    fn hausdorff_ignores_ordering() {
        // Unlike Fréchet, Hausdorff is a set distance.
        let a = pts(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]);
        let rev = pts(&[(2.0, 0.0), (1.0, 0.0), (0.0, 0.0)]);
        assert_eq!(distance(&a, &rev), 0.0);
    }

    #[test]
    fn hausdorff_is_at_most_frechet() {
        use super::super::frechet;
        let a = pts(&[(0.0, 0.0), (1.0, 0.5), (2.0, -0.5), (3.0, 0.0)]);
        let b = pts(&[(0.3, 0.1), (1.5, -0.2), (2.5, 0.7), (3.3, 0.2)]);
        assert!(distance(&a, &b) <= frechet::distance(&a, &b) + 1e-12);
    }

    #[test]
    fn distance_within_matches_distance() {
        let a = pts(&[(0.0, 0.0), (1.0, 0.3), (2.0, -0.4)]);
        let b = pts(&[(0.2, 0.5), (1.4, -0.3), (2.4, 0.6), (3.8, -0.5)]);
        let d = distance(&a, &b);
        assert!(distance_within(&a, &b, d + 1e-9).is_some());
        assert_eq!(distance_within(&a, &b, d - 1e-9), None);
    }

    #[test]
    fn single_points() {
        let a = pts(&[(0.0, 0.0)]);
        let b = pts(&[(3.0, 4.0)]);
        assert_eq!(distance(&a, &b), 5.0);
    }

    #[test]
    fn distance_within_is_bit_identical_on_hits() {
        let a = pts(&[(0.0, 0.0), (1.0, 0.3), (2.0, -0.4)]);
        let b = pts(&[(0.2, 0.5), (1.4, -0.3), (2.4, 0.6), (3.8, -0.5)]);
        let d = distance(&a, &b);
        let got = distance_within(&a, &b, d * 1.5).expect("within generous eps");
        assert_eq!(got.to_bits(), d.to_bits());
        assert_eq!(distance_within(&a, &b, d * 0.5), None);
        assert_eq!(distance_within(&a, &b, -1.0), None);
    }
}
