//! Fig. 18 — tail latency: the 99th percentile of per-query time for both
//! query types, per solution. Percentiles come from the shared
//! `trass_obs::Histogram` (≤ 1/32 quantization), the same structure the
//! live metrics endpoint serves; p999 is reported alongside the paper's
//! p99.

use crate::datasets::Scale;
use crate::harness::{self, ms, Column, Point, PAIR};

/// Runs the experiment; `false` if any answer was wrong.
pub fn run(scale: Scale) -> bool {
    let columns: [Column; 7] = [
        ("threshold_p99_ms", 0, |a| Some(ms(a.p99_time))),
        ("threshold_p999_ms", 0, |a| Some(ms(a.p999_time))),
        ("topk_p99_ms", 1, |a| Some(ms(a.p99_time))),
        ("topk_p999_ms", 1, |a| Some(ms(a.p999_time))),
        // Refine-stage medians and lower-bound prune volume, from engines
        // that report stages (TraSS): the numbers `refine_bounds` moves
        // (tails above include every stage, so the refine effect is
        // diluted there).
        ("threshold_refine_p50_ms", 0, |a| a.stages.map(|s| ms(s.median_refine_time))),
        ("topk_refine_p50_ms", 1, |a| a.stages.map(|s| ms(s.median_refine_time))),
        ("topk_refine_pruned_mean", 1, |a| a.stages.map(|s| s.mean_refine_pruned)),
    ];
    let points: [Point; 1] = [("p", 99.0, PAIR.to_vec())];
    harness::sweep("fig18", scale, scale.queries, harness::build_all, &points, &columns)
}
