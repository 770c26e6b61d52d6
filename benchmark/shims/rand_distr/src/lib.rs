//! Stand-in for `rand_distr` 0.4: the two distributions the program's
//! generator samples.

use rand::Rng;

pub trait Distribution<T> {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T;
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NormalError;

impl std::fmt::Display for NormalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("standard deviation must be finite and non-negative")
    }
}

impl std::error::Error for NormalError {}

#[derive(Debug, Clone, Copy)]
pub struct Normal {
    mean: f64,
    std_dev: f64,
}

impl Normal {
    pub fn new(mean: f64, std_dev: f64) -> Result<Normal, NormalError> {
        if std_dev.is_finite() && std_dev >= 0.0 {
            Ok(Normal { mean, std_dev })
        } else {
            Err(NormalError)
        }
    }
}

impl Distribution<f64> for Normal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Box-Muller; `1 - u` keeps the logarithm's argument above zero.
        let u1 = 1.0 - rand::unit_f64(rng);
        let u2 = rand::unit_f64(rng);
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        self.mean + self.std_dev * z
    }
}

#[derive(Debug, Clone, Copy)]
pub struct LogNormal(Normal);

impl LogNormal {
    pub fn new(mu: f64, sigma: f64) -> Result<LogNormal, NormalError> {
        Normal::new(mu, sigma).map(LogNormal)
    }
}

impl Distribution<f64> for LogNormal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.0.sample(rng).exp()
    }
}
