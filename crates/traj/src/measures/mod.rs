//! Trajectory similarity measures.
//!
//! TraSS adopts classic measures rather than inventing one (§II): discrete
//! Fréchet distance is the default, with Hausdorff and DTW supported through
//! the §VII extension. Each measure has exactly one kernel (one dynamic
//! program or scan) and two entry points into it:
//!
//! * `distance`, the exact value, for oracles and callers that need the
//!   measure itself, and
//! * `distance_within`, the same kernel with a cutoff ε: the exact value
//!   when it is at most ε, `None` as soon as the kernel proves it exceeds ε.
//!   Refinement (threshold and top-k) runs this one.
//!
//! Kernels operate on point slices so they can run against borrowed
//! storage without copying.

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
