//! Fig. 11 — effect of pruning strategies at ε = 0.01: (a) pruning time,
//! (b) retrieved trajectories, (c) precision (final answers / candidates).

use crate::datasets::Scale;
use crate::harness::{self, ms, Column, Op, Point};
use trass_traj::Measure;

/// The fixed threshold of §VI-C.
pub const EPS: f64 = 0.01;

/// Runs the experiment; `false` if any answer was wrong.
pub fn run(scale: Scale) -> bool {
    let points: [Point; 1] = [("eps", EPS, vec![Op::Threshold(EPS, Measure::Frechet)])];
    let columns: [Column; 3] = [
        // Baselines interleave pruning and scanning and report no stages;
        // their filter phase is the whole pre-refinement time, which is
        // approximated as their median query time, a conservative
        // (favourable) number for them.
        ("pruning_ms", 0, |a| Some(ms(a.stages.map_or(a.median_time, |s| s.mean_pruning_time)))),
        ("retrieved", 0, |a| Some(a.mean_retrieved)),
        ("precision", 0, |a| Some(a.mean_precision)),
    ];
    harness::sweep("fig11", scale, scale.queries, harness::build_all, &points, &columns)
}
