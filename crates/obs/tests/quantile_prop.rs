//! Property test: a histogram's quantiles stay within its bucket
//! resolution of the exact order statistics of what it recorded.

use trass_obs::Histogram;
use trass_rng::{check, Rng};

fn samples(rng: &mut Rng, min_len: usize, max_len: usize, below: u64) -> Vec<u64> {
    (0..rng.len(min_len, max_len)).map(|_| rng.u64_in(0, below - 1)).collect()
}

fn record_all(h: &Histogram, samples: &[u64]) {
    for &v in samples {
        h.record(v);
    }
}

#[test]
fn quantiles_track_exact_order_statistics() {
    check(256, |rng| {
        let mut samples = samples(rng, 1, 299, 1_000_000_000);
        let q = rng.f64();
        let h = Histogram::new();
        record_all(&h, &samples);
        samples.sort_unstable();
        let idx = (((q * samples.len() as f64).ceil() as usize).max(1) - 1).min(samples.len() - 1);
        let exact = samples[idx] as f64;
        let got = h.value_at_quantile(q) as f64;
        // Log-bucketed: within 1/32 relative error (plus 1 at the exact
        // integer region boundary), and never below the exact order
        // statistic's bucket lower bound.
        assert!(got + 1.0 >= exact, "got {got} below exact {exact}");
        assert!(got <= exact * (1.0 + 1.0 / 32.0) + 1.0, "got {got} far above exact {exact}");
    });
}
