//! Fig. 9 — threshold similarity search: query time (a) and number of
//! candidates after pruning (b), varying ε ∈ {0.001 … 0.02} on T-Drive and
//! Lorry, for TraSS vs DFT / DITA / JUST.

use crate::datasets::Scale;
use crate::harness::{self, ms, Column, Op, Point};
use trass_traj::Measure;

/// The ε sweep of §VI-A.
pub const EPS_SWEEP: [f64; 5] = [0.001, 0.005, 0.01, 0.015, 0.02];

/// Runs the experiment; `false` if any answer was wrong.
pub fn run(scale: Scale) -> bool {
    let points: [Point; 5] =
        EPS_SWEEP.map(|eps| ("eps", eps, vec![Op::Threshold(eps, Measure::Frechet)]));
    let columns: [Column; 4] = [
        ("time_ms", 0, |a| Some(ms(a.median_time))),
        ("candidates", 0, |a| Some(a.mean_candidates)),
        ("retrieved", 0, |a| Some(a.mean_retrieved)),
        ("results", 0, |a| Some(a.mean_results)),
    ];
    harness::sweep("fig9", scale, scale.queries, harness::build_all, &points, &columns)
}
