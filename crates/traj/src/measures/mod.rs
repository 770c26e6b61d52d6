//! Trajectory similarity measures.
//!
//! TraSS adopts classic measures rather than inventing one (§II): discrete
//! Fréchet distance is the default, with Hausdorff and DTW supported through
//! the §VII extension. Fréchet and DTW share one banded dynamic program
//! over monotone couplings (`coupling_dp`), parameterized by the local cost
//! and the combine step; Hausdorff is a scan. Each measure has two entry
//! points into its kernel:
//!
//! * `distance`, the exact value, for oracles and callers that need the
//!   measure itself, and
//! * `distance_within`, the same kernel with a cutoff ε: the exact value
//!   when it is at most ε, `None` as soon as the kernel proves it exceeds ε.
//!   Refinement (threshold and top-k) runs this one.
//!
//! Kernels operate on point slices so they can run against borrowed
//! storage without copying. Points must be finite: `Trajectory::try_new`,
//! `io` and the wire's request decoder reject the rest, so the kernels
//! take `min`/`max` as plain compare-selects with no NaN handling. A
//! non-finite point gives an unspecified value, never a panic.

pub mod dtw;
pub mod frechet;
pub mod hausdorff;

use std::fmt;
use std::str::FromStr;
use trass_geo::Point;

/// The similarity measure used by a query (§II + §VII).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Measure {
    /// Discrete Fréchet distance (default).
    #[default]
    Frechet,
    /// Symmetric Hausdorff distance.
    Hausdorff,
    /// Dynamic Time Warping (a *sum* of distances, unlike the other two).
    Dtw,
}

impl Measure {
    /// Exact measure value between two point sequences.
    ///
    /// # Panics
    /// Panics if either sequence is empty.
    pub fn distance(&self, a: &[Point], b: &[Point]) -> f64 {
        match self {
            Measure::Frechet => frechet::distance(a, b),
            Measure::Hausdorff => hausdorff::distance(a, b),
            Measure::Dtw => dtw::distance(a, b),
        }
    }

    /// Exact-or-abandon: `Some(d)` with `d == distance(a, b)`
    /// **bit-for-bit** when the distance is at most `eps`, `None` as soon
    /// as the kernel proves it exceeds `eps` (and for a negative `eps`).
    /// The decision is taken in the kernel's own space (squared for
    /// Fréchet and Hausdorff, summed for DTW), so only a distance within
    /// rounding of `eps` can decide differently from `distance(a, b) <= eps`.
    ///
    /// # Panics
    /// Panics if either sequence is empty.
    pub fn distance_within(&self, a: &[Point], b: &[Point], eps: f64) -> Option<f64> {
        match self {
            Measure::Frechet => frechet::distance_within(a, b, eps),
            Measure::Hausdorff => hausdorff::distance_within(a, b, eps),
            Measure::Dtw => dtw::distance_within(a, b, eps),
        }
    }

    /// Whether Lemma 12 (start/end point filter) is sound for this measure.
    ///
    /// Fréchet and DTW both force the first and last points to match
    /// (`D ≥ d(q_1,t_1)` and `D ≥ d(q_n,t_m)`); Hausdorff does not (§VII-A).
    pub fn supports_endpoint_lemma(&self) -> bool {
        !matches!(self, Measure::Hausdorff)
    }
}

/// `f64::min` as a compare-select: inputs are finite, so it picks the same value.
#[inline]
fn min(x: f64, y: f64) -> f64 {
    if x < y {
        x
    } else {
        y
    }
}

/// `f64::max` as a compare-select: inputs are finite, so it picks the same value.
#[inline]
fn max(x: f64, y: f64) -> f64 {
    if x > y {
        x
    } else {
        y
    }
}

/// The DP behind Fréchet and DTW: cell `(i, j)` holds
/// `combine(cost(a[i], b[j]), min(up-left, up, left))`, and the value of the
/// cell `(n-1, m-1)` is returned, or `+∞` once it is proven to exceed `cutoff`.
///
/// A cell is *live* when its value is ≤ `cutoff`. Values only grow along a
/// coupling, so a live cell's cheapest predecessor is live too, and reading
/// every non-live cell as +∞ leaves each live cell's value exact, bit for
/// bit; any other computed cell holds a value > `cutoff`, because reading
/// a cell as +∞ can only raise what depends on it. Each row computes only
/// from the previous row's first live column to one past its last, plus
/// the run to the right while the left neighbour stays live; it abandons
/// when a row has no live cell. With `cutoff = +∞` every cell is live and
/// the full matrix is computed.
///
/// A cell's loop-carried chain is one `min` and one `combine`
/// (`min(up-left, up)` is taken off it), so a lone row waits on that
/// latency. Rows therefore go two to a sweep, row i+1 two columns behind
/// row i: the two chains interleave, and row i+1's up and up-left cells
/// are row-i values from earlier iterations, so no chain waits on the
/// other even where the compiler packs both rows into one vector (one
/// column behind, that packing puts the read of row i on the chain).
/// Row i+1 starts at row i's first column (its cells left of that are not
/// live); once row i's live band is known, it continues to one past the
/// band and then runs right on its own. An odd last row goes alone.
fn coupling_dp(
    a: &[Point],
    b: &[Point],
    cutoff: f64,
    cost: impl Fn(&Point, &Point) -> f64,
    combine: impl Fn(f64, f64) -> f64,
) -> f64 {
    let m = b.len();
    // Cells `from..to` of the row of `p`, from the row above (`up`) and the
    // cells up-left and left of `from`; returns the cells up-left and left
    // of `to`.
    let fill =
        |p: &Point, up: &[f64], row: &mut [f64], from: usize, to: usize, (mut diag, mut left)| {
            for ((q, &up), out) in b[from..to].iter().zip(&up[from..to]).zip(&mut row[from..to]) {
                let reach = min(diag, up);
                diag = up;
                left = combine(cost(p, q), min(reach, left));
                *out = left;
            }
            (diag, left)
        };
    // The run right of column `from` while the left neighbour stays live,
    // where the row above holds no live cell; returns where it stopped.
    let run = |p: &Point, row: &mut [f64], from: usize, mut left: f64| {
        let mut stop = from;
        for (q, out) in b[from..].iter().zip(&mut row[from..]) {
            if left > cutoff {
                break;
            }
            left = combine(cost(p, q), left);
            *out = left;
            stop += 1;
        }
        stop
    };
    let mut rows = vec![f64::INFINITY; 3 * m];
    let (mut prev, rest) = rows.split_at_mut(m);
    let (mut curr, mut next) = rest.split_at_mut(m);
    // The previous row's live band. Reads left of it count as +∞; the cell
    // right of it was computed in that row, so it holds a value > cutoff.
    let (mut lo, mut hi) = (0, 0);
    // Row 0 is reached from a virtual 0 up-left of (0, 0): both combine
    // steps leave a cost unchanged by it.
    let mut corner = 0.0;
    let mut pairs = a.chunks_exact(2);
    for pair in &mut pairs {
        let (p, p2) = (&pair[0], &pair[1]);
        let end = (hi + 1).min(m - 1);
        // Row i's first two cells, then row i at column j beside row i+1 at j - 2.
        let head = (lo + 2).min(end + 1);
        let (mut diag, mut left) = fill(p, prev, curr, lo, head, (corner, f64::INFINITY));
        corner = f64::INFINITY;
        // Row i+1's cells `lo..from` ride along.
        let from = lo + end + 1 - head;
        let (mut diag2, mut up2, mut left2) = (f64::INFINITY, curr[lo], f64::INFINITY);
        let row = b[head..=end].iter().zip(&prev[head..=end]).zip(&mut curr[head..=end]);
        for (((q, &up), out), (q2, out2)) in row.zip(b[lo..from].iter().zip(&mut next[lo..from])) {
            let (reach, reach2) = (min(diag, up), min(diag2, up2));
            (diag, diag2, up2) = (up, up2, left);
            left = combine(cost(p, q), min(reach, left));
            left2 = combine(cost(p2, q2), min(reach2, left2));
            *out = left;
            *out2 = left2;
        }
        let stop = run(p, curr, end + 1, left);
        let Some(last) = curr[lo..stop].iter().rposition(|&v| v <= cutoff) else {
            return f64::INFINITY;
        };
        // Row i+1 from `from` to one past row i's band, then on its own.
        let to = (lo + last + 2).min(m).max(from);
        let (_, left2) = fill(p2, curr, next, from, to, (diag2, left2));
        let stop = run(p2, next, to, left2);
        let row = &next[lo..stop];
        let Some(first) = row.iter().position(|&v| v <= cutoff) else {
            return f64::INFINITY;
        };
        let last = row.iter().rposition(|&v| v <= cutoff).unwrap_or(first);
        (lo, hi) = (lo + first, lo + last);
        std::mem::swap(&mut prev, &mut next);
    }
    if let [p] = pairs.remainder() {
        let to = (hi + 2).min(m);
        let (_, left) = fill(p, prev, curr, lo, to, (corner, f64::INFINITY));
        let stop = run(p, curr, to, left);
        let Some(last) = curr[lo..stop].iter().rposition(|&v| v <= cutoff) else {
            return f64::INFINITY;
        };
        hi = lo + last;
        std::mem::swap(&mut prev, &mut curr);
    }
    if hi + 1 == m {
        prev[hi]
    } else {
        f64::INFINITY
    }
}

impl Measure {
    /// The measure's canonical lowercase name — what [`fmt::Display`]
    /// prints, [`FromStr`] parses, and metric labels carry.
    pub const fn name(&self) -> &'static str {
        match self {
            Measure::Frechet => "frechet",
            Measure::Hausdorff => "hausdorff",
            Measure::Dtw => "dtw",
        }
    }
}

impl fmt::Display for Measure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Measure {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "frechet" | "fréchet" => Ok(Measure::Frechet),
            "hausdorff" => Ok(Measure::Hausdorff),
            "dtw" => Ok(Measure::Dtw),
            other => Err(format!("unknown measure: {other}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(v: &[(f64, f64)]) -> Vec<Point> {
        v.iter().map(|&(x, y)| Point::new(x, y)).collect()
    }

    #[test]
    fn parse_and_display_roundtrip() {
        for m in [Measure::Frechet, Measure::Hausdorff, Measure::Dtw] {
            assert_eq!(m.to_string().parse::<Measure>().unwrap(), m);
        }
        assert!("euclid".parse::<Measure>().is_err());
    }

    #[test]
    fn default_is_frechet() {
        assert_eq!(Measure::default(), Measure::Frechet);
    }

    #[test]
    fn endpoint_lemma_support_matches_paper() {
        assert!(Measure::Frechet.supports_endpoint_lemma());
        assert!(Measure::Dtw.supports_endpoint_lemma());
        assert!(!Measure::Hausdorff.supports_endpoint_lemma());
    }

    #[test]
    fn dispatch_agrees_with_kernels() {
        let a = pts(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]);
        let b = pts(&[(0.0, 1.0), (1.0, 1.0), (2.0, 1.0)]);
        assert_eq!(Measure::Frechet.distance(&a, &b), frechet::distance(&a, &b));
        assert_eq!(Measure::Hausdorff.distance(&a, &b), hausdorff::distance(&a, &b));
        assert_eq!(Measure::Dtw.distance(&a, &b), dtw::distance(&a, &b));
    }

    #[test]
    fn distance_within_is_some_distance_up_to_eps() {
        let a = pts(&[(0.0, 0.0), (1.0, 0.2), (2.0, -0.1), (3.0, 0.0)]);
        let b = pts(&[(0.1, 0.4), (1.2, 0.1), (2.2, 0.3), (3.1, -0.2)]);
        for m in [Measure::Frechet, Measure::Hausdorff, Measure::Dtw] {
            let d = m.distance(&a, &b);
            for eps in [0.0, d * 0.5, d - 1e-9, d + 1e-9, d * 1.5, f64::INFINITY] {
                let got = m.distance_within(&a, &b, eps);
                assert_eq!(got.is_some(), d <= eps, "{m} eps {eps}");
                if let Some(got) = got {
                    assert_eq!(got.to_bits(), d.to_bits(), "{m} eps {eps}");
                }
            }
        }
    }
}
