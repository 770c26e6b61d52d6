//! Fig. 19 — effect of the shard count ∈ {1 … 32}: query time and the
//! skew the shards exist to cure (§IV-E's hot-spotting discussion).

use crate::datasets::{self, Scale};
use crate::harness::{self, ms, Queries, Trass, PAIR};
use crate::report::Reporter;
use trass_baselines::SimilarityEngine;
use trass_core::{TrajectoryStore, TrassConfig};

/// The shard sweep of §VI-E.
pub const SHARD_SWEEP: [u8; 6] = [1, 2, 4, 8, 16, 32];

/// Runs the experiment; `false` if any answer was wrong.
pub fn run(scale: Scale) -> bool {
    let mut rep = Reporter::new("fig19");
    let ds = datasets::tdrive(scale.size);
    let queries = Queries::new(&ds, scale.half_batch());
    for shards in SHARD_SWEEP {
        let trass = Trass::build(&ds.data, TrassConfig { shards, ..TrassConfig::default() });
        let [th, tk] = PAIR.map(|op| harness::run(&trass, &queries, op).expect("supported"));
        rep.row(
            ds.name,
            "TraSS",
            "shards",
            shards as f64,
            &[
                ("threshold_ms", ms(th.median_time)),
                ("topk_ms", ms(tk.median_time)),
                ("index_ms", ms(trass.build_time())),
                ("skew", skew(&trass.store)),
                ("threshold_retrieved", th.mean_retrieved),
            ],
            Some(th.correct && tk.correct),
        );
    }
    rep.finish()
}

/// Max region row count over the mean (1.0 = perfectly even).
fn skew(store: &TrajectoryStore) -> f64 {
    let counts = store.cluster().region_entry_counts();
    let mean = counts.iter().sum::<u64>() as f64 / counts.len() as f64;
    counts.iter().copied().max().unwrap_or(0) as f64 / mean.max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_shards_reduce_skew() {
        let ds = datasets::tdrive(1.0);
        let s1 = Trass::build(&ds.data, TrassConfig { shards: 1, ..TrassConfig::default() }).store;
        let s8 = Trass::build(&ds.data, TrassConfig::default()).store;
        // One shard is trivially "even" (one region); with 8 shards the
        // hash keeps the spread tight.
        assert_eq!(skew(&s1), 1.0);
        assert!(skew(&s8) < 1.25, "8-shard skew {}", skew(&s8));
    }
}
