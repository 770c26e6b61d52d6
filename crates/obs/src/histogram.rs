//! Log-bucketed (HDR-style) latency histogram.
//!
//! The paper's evaluation reports latency *distributions* — medians in
//! Figs. 9–10, the p99 tail in Fig. 18 — and a production deployment needs
//! the same percentiles live, per stage and per shard. This histogram
//! supports both uses from one implementation: recording is a single
//! relaxed `fetch_add` (safe to leave on in hot paths), merging is
//! bucket-wise addition (aggregation across shards or query batches), and
//! percentile queries walk the bucket array without locking writers.
//!
//! # Bucketing scheme
//!
//! Values are u64 (the stack records nanoseconds or bytes). Buckets are
//! log-linear: values below `2^SUB_BITS` get exact unit buckets; above
//! that, each power-of-two range is split into `2^SUB_BITS` equal
//! sub-buckets. With `SUB_BITS = 5` the relative quantization error is
//! bounded by 1/32 ≈ 3.1 % across the whole u64 range, using
//! [`N_BUCKETS`] = 1920 counters (15 KiB per histogram).

use std::sync::atomic::{AtomicU64, Ordering};

/// Power-of-two sub-bucket resolution: each binary order of magnitude is
/// split into `2^SUB_BITS` buckets.
const SUB_BITS: u32 = 5;
const SUB_COUNT: u64 = 1 << SUB_BITS;

/// Total number of buckets covering `0..=u64::MAX`.
/// Exact region `0..32` plus 59 log groups of 32 sub-buckets.
pub const N_BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB_COUNT as usize;

/// The fixed percentile set reported throughout the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Percentiles {
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile (Fig. 18's tail metric).
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
}

/// A concurrent log-bucketed histogram of `u64` samples.
///
/// All operations use relaxed atomics: counts are exact, but a reader
/// racing writers may observe a slightly stale distribution — fine for
/// monitoring, irrelevant once writers quiesce (as in benchmarks).
pub struct Histogram {
    buckets: Box<[AtomicU64; N_BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    /// Multiplier applied to values at export time (e.g. `1e-9` when the
    /// histogram records nanoseconds but is exported in seconds).
    scale: f64,
}

impl Histogram {
    /// Creates an empty histogram with export scale 1.0.
    pub fn new() -> Self {
        Self::with_scale(1.0)
    }

    /// Creates an empty histogram whose exported values (bucket bounds and
    /// sum) are multiplied by `scale`.
    pub fn with_scale(scale: f64) -> Self {
        let buckets: Vec<AtomicU64> = (0..N_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        // the Vec was built with exactly N_BUCKETS elements just above.
        #[allow(clippy::expect_used)]
        let buckets: Box<[AtomicU64; N_BUCKETS]> =
            buckets.into_boxed_slice().try_into().expect("N_BUCKETS length");
        Histogram {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            scale,
        }
    }

    /// Bucket index of a value.
    fn index_of(value: u64) -> usize {
        if value < SUB_COUNT {
            return value as usize;
        }
        let high_bit = 63 - value.leading_zeros(); // >= SUB_BITS
        let shift = high_bit - SUB_BITS;
        let group = (shift + 1) as usize;
        let sub = ((value >> shift) & (SUB_COUNT - 1)) as usize;
        group * SUB_COUNT as usize + sub
    }

    /// Largest value mapping to bucket `index` (the bucket's inclusive
    /// upper bound, used as the Prometheus `le` bound).
    fn bucket_upper(index: usize) -> u64 {
        if index < SUB_COUNT as usize {
            return index as u64;
        }
        // trass-lint: allow(panic-surface) SUB_COUNT is a non-zero compile-time constant
        let group = index / SUB_COUNT as usize;
        // trass-lint: allow(panic-surface) SUB_COUNT is a non-zero compile-time constant
        let sub = (index % SUB_COUNT as usize) as u128;
        let shift = (group - 1) as u32;
        // The very top bucket's exclusive bound is 2^64; compute in u128
        // and clamp so it maps to u64::MAX.
        let upper = (((SUB_COUNT as u128 + sub + 1) << shift) - 1).min(u64::MAX as u128);
        upper as u64
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` occurrences of `value`.
    pub fn record_n(&self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[Self::index_of(value)].fetch_add(n, Ordering::Relaxed);
        self.count.fetch_add(n, Ordering::Relaxed);
        self.sum.fetch_add(value.saturating_mul(n), Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records a duration in nanoseconds (saturating past ~584 years).
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Adds every sample of `other` into `self`. Equivalent (up to bucket
    /// resolution) to having recorded the concatenation of both sample
    /// streams.
    pub fn merge(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum.fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.min.fetch_min(other.min.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max.fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        let m = self.min.load(Ordering::Relaxed);
        if m == u64::MAX && self.count() == 0 {
            0
        } else {
            m
        }
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Export scale (see [`Histogram::with_scale`]).
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The value at quantile `q` (clamped to `[0, 1]`; `NaN` is treated as
    /// 0): an upper bound of the bucket containing the `ceil(q·count)`-th
    /// smallest sample, further clamped to the observed min/max so `q = 0`
    /// and `q = 1` return exact extremes. Returns 0 on an empty histogram.
    ///
    /// Monotone in `q` and within 1/32 relative error of the exact
    /// order statistic.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        // Walk a consistent snapshot of the buckets.
        let counts: Vec<u64> = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cumulative = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            cumulative += c;
            if cumulative >= target {
                return Self::bucket_upper(i).clamp(self.min(), self.max());
            }
        }
        self.max()
    }

    /// The standard percentile set.
    pub fn percentiles(&self) -> Percentiles {
        Percentiles {
            p50: self.value_at_quantile(0.50),
            p90: self.value_at_quantile(0.90),
            p99: self.value_at_quantile(0.99),
            p999: self.value_at_quantile(0.999),
        }
    }

    /// Non-empty buckets as `(inclusive_upper_bound, count)` pairs in
    /// increasing bound order — the exporter's raw material.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then(|| (Self::bucket_upper(i), n))
            })
            .collect()
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        for b in self.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let p = self.percentiles();
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("p50", &p.p50)
            .field("p99", &p.p99)
            .field("max", &self.max())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::new();
        for v in 0..32u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 32);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 31);
        assert_eq!(h.value_at_quantile(0.0), 0);
        assert_eq!(h.value_at_quantile(1.0), 31);
    }

    #[test]
    fn index_and_upper_are_consistent() {
        // Every probe value must land in a bucket whose range covers it.
        let probes: Vec<u64> = (0..64)
            .flat_map(|s: u32| {
                let base = 1u64.checked_shl(s).unwrap_or(u64::MAX);
                [base.saturating_sub(1), base, base.saturating_add(base / 3)]
            })
            .chain([0, 1, 2, 31, 32, 33, 1000, u64::MAX])
            .collect();
        for v in probes {
            let i = Histogram::index_of(v);
            assert!(i < N_BUCKETS, "index {i} out of range for {v}");
            let upper = Histogram::bucket_upper(i);
            assert!(upper >= v, "upper {upper} < value {v}");
            if i > 0 {
                let prev_upper = Histogram::bucket_upper(i - 1);
                assert!(prev_upper < v, "value {v} also fits bucket {}", i - 1);
            }
            // Relative error bound: upper within ~3.2% of the value.
            if v >= 32 {
                assert!((upper - v) as f64 <= v as f64 / 32.0 + 1.0, "v={v} upper={upper}");
            }
        }
    }

    #[test]
    fn quantiles_are_monotone_and_bounded() {
        let h = Histogram::new();
        for i in 1..=10_000u64 {
            h.record(i * 17);
        }
        let mut last = 0;
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
            let v = h.value_at_quantile(q);
            assert!(v >= last, "quantile regressed at q={q}");
            assert!(v >= h.min() && v <= h.max());
            last = v;
        }
        // p50 within 3.2% of the exact median (5000*17).
        let p50 = h.value_at_quantile(0.5) as f64;
        let exact = 5_000.0 * 17.0;
        assert!((p50 - exact).abs() / exact < 0.04, "p50={p50} exact={exact}");
    }

    #[test]
    fn merge_matches_concatenated_recording() {
        let a = Histogram::new();
        let b = Histogram::new();
        let both = Histogram::new();
        for v in [0u64, 5, 100, 40_000, 1 << 40] {
            a.record(v);
            both.record(v);
        }
        for v in [3u64, 5, 999, 1 << 20] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        assert_eq!(a.sum(), both.sum());
        assert_eq!(a.min(), both.min());
        assert_eq!(a.max(), both.max());
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(a.value_at_quantile(q), both.value_at_quantile(q));
        }
    }

    #[test]
    fn empty_histogram_is_zeroes() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.value_at_quantile(0.5), 0);
        assert!(h.nonzero_buckets().is_empty());
    }

    #[test]
    fn reset_clears_everything() {
        let h = Histogram::new();
        h.record(123);
        h.record(1 << 33);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.value_at_quantile(0.99), 0);
        assert!(h.nonzero_buckets().is_empty());
    }

    #[test]
    fn record_n_weights_counts() {
        let h = Histogram::new();
        h.record_n(10, 99);
        h.record_n(1_000_000, 1);
        assert_eq!(h.count(), 100);
        assert_eq!(h.value_at_quantile(0.5), 10);
        // The single large sample is the p100 but not the p99 (99 of 100
        // samples are 10; target index ceil(0.99*100)=99 → still 10).
        assert_eq!(h.value_at_quantile(0.99), 10);
        assert_eq!(h.value_at_quantile(1.0), 1_000_000);
    }

    #[test]
    fn quantile_boundaries_on_empty_histogram() {
        let h = Histogram::new();
        for q in [-1.0, 0.0, 0.5, 1.0, 2.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(h.value_at_quantile(q), 0, "q={q}");
        }
    }

    #[test]
    fn quantile_boundaries_on_single_sample() {
        let h = Histogram::new();
        h.record(42);
        // Every quantile of a one-sample distribution is that sample.
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(h.value_at_quantile(q), 42, "q={q}");
        }
    }

    #[test]
    fn out_of_range_quantiles_clamp_to_extremes() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.value_at_quantile(-0.5), h.value_at_quantile(0.0));
        assert_eq!(h.value_at_quantile(1.5), h.value_at_quantile(1.0));
        assert_eq!(h.value_at_quantile(f64::NEG_INFINITY), h.min());
        assert_eq!(h.value_at_quantile(f64::INFINITY), h.max());
        // NaN is treated as q = 0, not propagated.
        assert_eq!(h.value_at_quantile(f64::NAN), h.value_at_quantile(0.0));
    }

    #[test]
    fn duration_recording() {
        let h = Histogram::with_scale(1e-9);
        h.record_duration(std::time::Duration::from_millis(3));
        assert_eq!(h.count(), 1);
        assert!(h.max() >= 3_000_000);
        assert!((h.scale() - 1e-9).abs() < 1e-18);
    }
}
