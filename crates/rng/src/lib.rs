//! The workspace's one source of randomness: a seeded SplitMix64 generator
//! for the workload generators, and a property runner for the tests.
//!
//! Everything is deterministic given a seed. A failing property reports the
//! seed of the failing case, so `property(&mut Rng::shrunk(seed, halvings))`
//! replays it exactly.

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::print_stdout, clippy::print_stderr))]

use std::panic::{catch_unwind, AssertUnwindSafe};

/// SplitMix64 (Steele, Lea & Flood 2014): 64 bits of state, full period,
/// every seed valid.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
    /// How many times [`Rng::len`] halves what it draws; see [`check`].
    halvings: u32,
}

impl Rng {
    /// A generator whose stream is a function of `seed` alone.
    pub fn new(seed: u64) -> Rng {
        Rng::shrunk(seed, 0)
    }

    /// The stream of `seed` with every [`Rng::len`] draw halved `halvings`
    /// times: how [`check`] shrinks a failing case, and how to replay one.
    pub fn shrunk(seed: u64, halvings: u32) -> Rng {
        Rng { state: seed, halvings }
    }

    /// The next 64 uniformly distributed bits.
    pub fn u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`, from the top 53 bits.
    pub fn f64(&mut self) -> f64 {
        (self.u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64()
    }

    /// Uniform in `[lo, hi]` (modulo bias below 2⁻³² for any span a test or
    /// generator here asks for).
    pub fn u64_in(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range {lo}..={hi}");
        match (hi - lo).checked_add(1) {
            Some(span) => lo + self.u64() % span,
            None => self.u64(),
        }
    }

    /// Uniform in `[lo, hi]`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        self.u64_in(lo as u64, hi as u64) as usize
    }

    /// A collection size in `[lo, hi]`. Under [`Rng::shrunk`] the part
    /// above `lo` is halved once per halving, so a failing case can be
    /// retried on smaller inputs drawn from the same stream.
    pub fn len(&mut self, lo: usize, hi: usize) -> usize {
        let extra = self.usize_in(lo, hi) - lo;
        lo + extra.checked_shr(self.halvings).unwrap_or(0)
    }

    /// `true` with probability `p`.
    pub fn bool(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Gaussian with the given mean and standard deviation (Box–Muller;
    /// `1 - u` keeps the logarithm's argument above zero).
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        let u1 = 1.0 - self.f64();
        let u2 = self.f64();
        mean + std_dev * (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Log-normal: `exp` of a Gaussian with parameters `mu`, `sigma`.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }
}

/// Most halvings [`check`] tries: 2¹⁶ exceeds every size a property draws.
const MAX_HALVINGS: u32 = 16;

/// Runs `property` on `cases` generators, each seeded from its case number.
///
/// A property fails by panicking (`assert!`). On the first failing case the
/// runner retries the same seed with every [`Rng::len`] draw halved, then
/// halved again, for as long as the property keeps failing; it then panics
/// with the seed, the number of halvings and the smallest failure's message.
pub fn check(cases: u32, property: impl Fn(&mut Rng)) {
    for case in 0..cases {
        // One SplitMix64 step of the case number: adjacent cases get
        // unrelated streams.
        let seed = Rng::new(u64::from(case)).u64();
        let run = |halvings| {
            catch_unwind(AssertUnwindSafe(|| property(&mut Rng::shrunk(seed, halvings))))
        };
        let Err(mut failure) = run(0) else { continue };
        let mut smallest = 0;
        for halvings in 1..=MAX_HALVINGS {
            match run(halvings) {
                Err(smaller) => (smallest, failure) = (halvings, smaller),
                Ok(()) => break,
            }
        }
        let message = failure
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| failure.downcast_ref::<&str>().copied())
            .unwrap_or("(panic payload is not a string)");
        panic!(
            "property failed on case {case} of {cases}; replay its smallest failing input \
             with Rng::shrunk({seed:#018x}, {smallest}): {message}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn streams_are_a_function_of_the_seed() {
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (0..8).map(|_| rng.u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        // First output of the reference implementation for seed 0.
        assert_eq!(Rng::new(0).u64(), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn ranges_hold_their_bounds() {
        let mut rng = Rng::new(1);
        for _ in 0..10_000 {
            let f = rng.f64();
            assert!((0.0..1.0).contains(&f));
            let g = rng.f64_in(-2.5, 4.0);
            assert!((-2.5..4.0).contains(&g));
            assert!((3..=9).contains(&rng.usize_in(3, 9)));
            assert!((3..=9).contains(&rng.len(3, 9)));
        }
        assert_eq!(rng.u64_in(5, 5), 5);
        let _ = rng.u64_in(0, u64::MAX);
        let hits = (0..10_000).filter(|_| rng.bool(0.25)).count();
        assert!((2_200..2_800).contains(&hits), "bool(0.25) hit {hits} of 10000");
    }

    #[test]
    fn normal_and_lognormal_have_their_moments() {
        let mut rng = Rng::new(2);
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.normal(3.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "variance {var}");
        // The median of a log-normal is exp(mu).
        let mut ys: Vec<f64> = (0..n).map(|_| rng.lognormal(-1.0, 0.8)).collect();
        ys.sort_by(f64::total_cmp);
        let median = ys[n / 2];
        assert!((median - (-1.0f64).exp()).abs() < 0.01, "median {median}");
        assert!(ys[0] > 0.0);
    }

    #[test]
    fn check_runs_every_case_on_a_passing_property() {
        let runs = AtomicUsize::new(0);
        check(256, |rng| {
            runs.fetch_add(1, Ordering::Relaxed);
            assert!(rng.len(0, 100) <= 100);
        });
        assert_eq!(runs.load(Ordering::Relaxed), 256);
    }

    #[test]
    fn check_shrinks_a_failure_by_halving_and_reports_it() {
        let smallest_failing = AtomicUsize::new(usize::MAX);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            check(256, |rng| {
                let n = rng.len(0, 1_000);
                if n >= 10 {
                    smallest_failing.fetch_min(n, Ordering::Relaxed);
                }
                assert!(n < 10, "too long: {n}");
            })
        }));
        let message = *outcome.expect_err("the property fails").downcast::<String>().unwrap();
        // The reported failure is the last one that still failed: halving
        // it once more passes, so it is below 20.
        let n = smallest_failing.load(Ordering::Relaxed);
        assert!((10..20).contains(&n), "shrunk to {n}");
        assert!(message.ends_with(&format!("): too long: {n}")), "{message}");
        assert!(message.contains("Rng::shrunk(0x"), "{message}");
    }
}
