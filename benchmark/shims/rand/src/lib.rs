//! Stand-in for `rand` 0.8, covering what `trass_traj::generator` calls.
//! The stream differs from the published crate's; the benchmark never
//! takes its inputs from that generator, so nothing measured depends on it.

use std::ops::{Range, RangeInclusive};

pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// A range `gen_range` can sample from.
pub trait SampleRange<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

pub trait Rng: RngCore {
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        unit_f64(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Uniform in `[0, 1)` from the top 53 bits.
pub fn unit_f64<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

impl SampleRange<f64> for Range<f64> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty range");
        self.start + (self.end - self.start) * unit_f64(rng)
    }
}

impl SampleRange<f64> for RangeInclusive<f64> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start() <= self.end(), "empty range");
        self.start() + (self.end() - self.start()) * unit_f64(rng)
    }
}

impl SampleRange<usize> for Range<usize> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> usize {
        assert!(self.start < self.end, "empty range");
        self.start + (rng.next_u64() % (self.end - self.start) as u64) as usize
    }
}

impl SampleRange<usize> for RangeInclusive<usize> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> usize {
        assert!(self.start() <= self.end(), "empty range");
        self.start() + (rng.next_u64() % (self.end() - self.start() + 1) as u64) as usize
    }
}

pub mod rngs {
    /// SplitMix64.
    #[derive(Debug, Clone)]
    pub struct StdRng(u64);

    impl super::SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> StdRng {
            StdRng(seed)
        }
    }

    impl super::RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }
}
