//! Douglas-Peucker index selection.
//!
//! The one implementation in the workspace: `trass-traj` builds the stored
//! DP features (§IV-D) from it and `trass-index` builds the query-side
//! Lemma 10 covering boxes from it, and neither may depend on the other.

use crate::{Point, Segment};

/// Runs Douglas-Peucker on `points` with tolerance `theta`, returning the
/// kept indices (always including the first and last point).
///
/// Iterative (explicit stack) to avoid recursion depth limits on long GPS
/// traces.
///
/// # Panics
/// Panics if `points` is empty or `theta` is negative.
pub fn douglas_peucker(points: &[Point], theta: f64) -> Vec<u32> {
    assert!(!points.is_empty(), "Douglas-Peucker on empty point set");
    assert!(theta >= 0.0, "negative DP tolerance");
    let n = points.len();
    let mut keep = vec![false; n];
    keep[0] = true;
    keep[n - 1] = true;
    let mut stack = vec![(0usize, n - 1)];
    while let Some((lo, hi)) = stack.pop() {
        if hi <= lo + 1 {
            continue;
        }
        let chord = Segment::new(points[lo], points[hi]);
        let mut best = 0.0f64;
        let mut best_idx = lo;
        for (i, p) in points.iter().enumerate().take(hi).skip(lo + 1) {
            let d = chord.line_distance_to_point(p);
            if d > best {
                best = d;
                best_idx = i;
            }
        }
        if best > theta {
            keep[best_idx] = true;
            stack.push((lo, best_idx));
            stack.push((best_idx, hi));
        }
    }
    // Trajectories are far below 2^32 points; saturate rather than wrap if
    // one ever is not.
    keep.iter()
        .enumerate()
        .filter(|&(_, &k)| k)
        .map(|(i, _)| u32::try_from(i).unwrap_or(u32::MAX))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(v: &[(f64, f64)]) -> Vec<Point> {
        v.iter().map(|&(x, y)| Point::new(x, y)).collect()
    }

    /// The fixtures of the two implementations this one replaced
    /// (`trass_traj::dp` and `trass_index::dp_lite`), with the indices the
    /// index crate's copy kept on each.
    #[test]
    fn keeps_the_indices_both_former_copies_kept() {
        let p = Point::new(1.0, 1.0);
        let spike = pts(&[(0.0, 0.0), (1.0, 5.0), (2.0, -5.0), (3.0, 0.0)]);
        let zigzag = pts(&[(0.0, 0.0), (1.0, 5.0), (2.0, -5.0), (3.0, 5.0), (4.0, 0.0)]);
        let gentle = pts(&[(0.0, 0.0), (1.0, 0.4), (2.0, -0.3), (3.0, 0.2), (4.0, 0.0)]);
        let line: Vec<Point> = (0..100).map(|i| Point::new(f64::from(i), 0.0)).collect();
        let sine: Vec<Point> =
            (0..200).map(|i| Point::new(f64::from(i), (f64::from(i) * 0.3).sin() * 2.0)).collect();
        let cases: [(&[Point], f64, Vec<u32>); 10] = [
            (&[p], 0.1, vec![0]),
            (&[p, p], 0.1, vec![0, 1]),
            (&spike, 0.5, vec![0, 1, 2, 3]),
            (&spike, 100.0, vec![0, 3]),
            (&zigzag, 1.0, vec![0, 1, 2, 3, 4]),
            (&gentle, 10.0, vec![0, 4]),
            (&gentle, 0.25, vec![0, 1, 2, 3, 4]),
            (&gentle, 0.0, vec![0, 1, 2, 3, 4]),
            (&line, 0.001, vec![0, 99]),
            (
                &sine,
                1.0,
                vec![
                    0, 6, 16, 26, 37, 47, 58, 68, 79, 89, 100, 110, 121, 131, 141, 152, 162, 173,
                    183, 193, 199,
                ],
            ),
        ];
        for (points, theta, expected) in cases {
            assert_eq!(douglas_peucker(points, theta), expected, "theta {theta}");
        }
    }
}
