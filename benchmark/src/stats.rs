//! Order statistics for latency samples.

/// Sorted copy of `samples` (ascending, `NaN`-free input assumed).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `q` of the samples at or below it. `None` when empty.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of unsorted samples (nearest rank). `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(&sorted(samples), 0.5)
}

/// The percentiles a report may quote, lowest first, each with the fewest
/// samples that leave ten beyond it (kept as integers: `100 * (1.0 - 0.9)`
/// is just under 10 in floating point).
const LADDER: [(f64, &str, usize); 4] =
    [(0.5, "p50", 20), (0.9, "p90", 100), (0.99, "p99", 1000), (0.999, "p99.9", 10_000)];

/// The highest percentile of the ladder that still has at least ten of the
/// `n` samples beyond it; a higher one would rest on a handful of
/// outliers. `None` below 20 samples, where not even the median qualifies.
pub fn highest_supported(n: usize) -> Option<(f64, &'static str)> {
    LADDER.iter().rev().find(|(_, _, min)| n >= *min).map(|&(q, label, _)| (q, label))
}

/// `num / den`, or 0 when the denominator is 0 (a ratio over no events).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.9), Some(90.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 0.9), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_sorts_first() {
        assert_eq!(median(&[9.0, 1.0, 5.0]), Some(5.0));
        assert_eq!(median(&[4.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn ten_beyond_rule_picks_the_highest_supported_percentile() {
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20).map(|p| p.1), Some("p50"));
        assert_eq!(highest_supported(99).map(|p| p.1), Some("p50"));
        assert_eq!(highest_supported(100).map(|p| p.1), Some("p90"));
        assert_eq!(highest_supported(999).map(|p| p.1), Some("p90"));
        assert_eq!(highest_supported(1000).map(|p| p.1), Some("p99"));
        assert_eq!(highest_supported(10_000).map(|p| p.1), Some("p99.9"));
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }
}
