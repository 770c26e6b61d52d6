//! Fig. 14–15 — varying the maximum resolution ∈ {14, 16, 18, 20}:
//! selectivity (distinct index values / rows) and query time for both
//! query types, on both datasets.
//!
//! The paper's observation: resolution 14 under-discriminates (low
//! selectivity → more false hits), very deep resolutions buy nothing;
//! 16 is the sweet spot.

use crate::datasets::{self, Dataset, Scale};
use crate::harness::{self, ms, Queries, Trass, PAIR};
use crate::report::Reporter;
use std::collections::HashSet;
use trass_core::TrassConfig;
use trass_index::xzstar::XzStar;

/// The resolution sweep of §VI-D.
pub const RESOLUTIONS: [u8; 4] = [14, 16, 18, 20];

/// Runs the experiment; `false` if any answer was wrong.
pub fn run(scale: Scale) -> bool {
    let mut rep = Reporter::new("fig14");
    for ds in [datasets::tdrive(scale.size), datasets::lorry(scale.size)] {
        let queries = Queries::new(&ds, scale.half_batch());
        for resolution in RESOLUTIONS {
            let cfg = TrassConfig { max_resolution: resolution, ..TrassConfig::default() };
            let trass = Trass::build(&ds.data, cfg);
            let [th, tk] = PAIR.map(|op| harness::run(&trass, &queries, op).expect("supported"));
            rep.row(
                ds.name,
                "TraSS",
                "res",
                resolution as f64,
                &[
                    ("selectivity", selectivity(&ds, resolution)),
                    ("threshold_ms", ms(th.median_time)),
                    ("topk_ms", ms(tk.median_time)),
                    ("threshold_retrieved", th.mean_retrieved),
                ],
                Some(th.correct && tk.correct),
            );
        }
    }
    rep.finish()
}

/// Selectivity: distinct index values over rows (§VI-D's definition: "the
/// ratio of index values to that of the row keys").
pub fn selectivity(ds: &Dataset, resolution: u8) -> f64 {
    let space = trass_geo::WORLD_SQUARE;
    let index = XzStar::new(resolution);
    let mut distinct = HashSet::new();
    for t in &ds.data {
        let unit: Vec<_> = t.points().iter().map(|p| space.to_unit(p)).collect();
        distinct.insert(index.encode(&index.index_points(&unit)));
    }
    distinct.len() as f64 / ds.data.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selectivity_grows_with_resolution() {
        // Fig. 14(a)/15(a): resolution 14's selectivity is lowest.
        let ds = datasets::tdrive(1.0);
        let s14 = selectivity(&ds, 14);
        let s16 = selectivity(&ds, 16);
        let s20 = selectivity(&ds, 20);
        assert!(s14 < s16, "s14 {s14} !< s16 {s16}");
        assert!(s16 <= s20 + 1e-9, "s16 {s16} !<= s20 {s20}");
        assert!(s14 > 0.0 && s20 <= 1.0);
    }
}
