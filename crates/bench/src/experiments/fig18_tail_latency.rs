//! Fig. 18 — tail latency: the 99th percentile of per-query time for both
//! query types, per solution. Percentiles come from the shared
//! `trass_obs::Histogram` (≤ 1/32 quantization), the same structure the
//! live metrics endpoint serves; p999 is reported alongside the paper's
//! p99.

use crate::datasets::{self, Dataset};
use crate::harness;
use crate::report::Reporter;
use trass_traj::Measure;

/// Runs the experiment.
pub fn run() {
    let mut rep = Reporter::new("fig18");
    for ds in [datasets::tdrive(), datasets::lorry()] {
        run_dataset(&ds, &mut rep);
    }
    let path = rep.finish();
    println!("fig18 rows appended to {}", path.display());
}

fn run_dataset(ds: &Dataset, rep: &mut Reporter) {
    let queries = datasets::queries(ds, datasets::n_queries());
    let solutions = harness::build_all(ds);

    let th = harness::run_trass_threshold(&solutions.trass, &queries, 0.01, Measure::Frechet);
    let tk = harness::run_trass_topk(&solutions.trass, &queries, 50, Measure::Frechet);
    rep.row(
        ds.name,
        "TraSS",
        "p",
        99.0,
        &[
            ("threshold_p99_ms", th.p99_time.as_secs_f64() * 1e3),
            ("threshold_p999_ms", th.p999_time.as_secs_f64() * 1e3),
            ("topk_p99_ms", tk.p99_time.as_secs_f64() * 1e3),
            ("topk_p999_ms", tk.p999_time.as_secs_f64() * 1e3),
            // Refine-stage medians and lower-bound prune volume: the
            // numbers `refine_bounds` moves (tails above include every
            // stage, so the refine effect is diluted there).
            ("threshold_refine_p50_ms", th.median_refine_time.as_secs_f64() * 1e3),
            ("topk_refine_p50_ms", tk.median_refine_time.as_secs_f64() * 1e3),
            ("topk_refine_pruned_mean", tk.mean_refine_pruned),
        ],
    );
    for engine in &solutions.baselines {
        let th = harness::run_engine_threshold(engine.as_ref(), &queries, 0.01, Measure::Frechet);
        let tk = harness::run_engine_topk(engine.as_ref(), &queries, 50, Measure::Frechet);
        let mut metrics: Vec<(&str, f64)> = Vec::new();
        if let Some(th) = &th {
            metrics.push(("threshold_p99_ms", th.p99_time.as_secs_f64() * 1e3));
            metrics.push(("threshold_p999_ms", th.p999_time.as_secs_f64() * 1e3));
        }
        if let Some(tk) = &tk {
            metrics.push(("topk_p99_ms", tk.p99_time.as_secs_f64() * 1e3));
            metrics.push(("topk_p999_ms", tk.p999_time.as_secs_f64() * 1e3));
        }
        if !metrics.is_empty() {
            rep.row(ds.name, engine.name(), "p", 99.0, &metrics);
        }
    }
}
