//! Fig. 20 — other measures (§VII): Hausdorff and DTW query times.
//!
//! The engines decide what they support, and an unsupported cell writes
//! no column: DITA answers neither query under Hausdorff, REPOSE answers
//! no threshold query and no Hausdorff top-k. DFT answers every cell, DTW
//! included.

use crate::datasets::Scale;
use crate::harness::{self, ms, Column, Op, Point};
use trass_traj::Measure;

/// Runs the experiment; `false` if any answer was wrong.
pub fn run(scale: Scale) -> bool {
    // DTW budgets are sums of point distances; a larger ε keeps threshold
    // answers non-trivial.
    let points: [Point; 2] = [(Measure::Hausdorff, 0.01), (Measure::Dtw, 0.2)]
        .map(|(m, eps)| (m.name(), eps, vec![Op::Threshold(eps, m), Op::TopK(50, m)]));
    let columns: [Column; 2] = [
        ("threshold_ms", 0, |a| Some(ms(a.median_time))),
        ("topk_ms", 1, |a| Some(ms(a.median_time))),
    ];
    harness::sweep("fig20", scale, scale.half_batch(), harness::build_all, &points, &columns)
}
