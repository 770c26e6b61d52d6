//! Fig. 10 — top-k similarity search: query time (a) and candidates (b),
//! varying k ∈ {50 … 250}, for TraSS vs DFT / DITA / JUST / REPOSE.

use crate::datasets::Scale;
use crate::harness::{self, ms, Column, Op, Point};
use trass_traj::Measure;

/// The k sweep of §VI-B.
pub const K_SWEEP: [usize; 5] = [50, 100, 150, 200, 250];

/// Runs the experiment; `false` if any answer was wrong.
pub fn run(scale: Scale) -> bool {
    let points: [Point; 5] = K_SWEEP.map(|k| ("k", k as f64, vec![Op::TopK(k, Measure::Frechet)]));
    let columns: [Column; 3] = [
        ("time_ms", 0, |a| Some(ms(a.median_time))),
        ("candidates", 0, |a| Some(a.mean_candidates)),
        ("retrieved", 0, |a| Some(a.mean_retrieved)),
    ];
    harness::sweep("fig10", scale, scale.half_batch(), harness::build_all, &points, &columns)
}
