//! `repro` — regenerates the paper's tables and figures.
//!
//! ```text
//! repro <experiment>
//!   fig9    threshold search sweep (time + candidates vs ε)
//!   fig10   top-k search sweep (time + candidates vs k)
//!   fig11   pruning strategies (pruning time, retrieved, precision)
//!   fig12   trajectory distribution over resolutions / position codes
//!   fig13   indexing time + rowkey storage overhead
//!   fig14   varying maximum resolution (selectivity + query time; Fig. 14–15)
//!   fig17   scalability on synthetic ×t datasets
//!   fig18   p99 tail latency
//!   fig19   shard sweep
//!   fig20   Hausdorff and DTW measures
//!   io      theoretical 83.6 % + measured I/O reduction vs XZ-Ordering
//!   all     everything, in order
//! ```
//!
//! Environment: `TRASS_REPRO_SCALE` scales dataset sizes (default 1.0 ≈
//! 5 000 trajectories per dataset), `TRASS_REPRO_QUERIES` sets the query
//! batch (default 40). Results append to `results/<exp>.jsonl`.
//!
//! Performance is measured by the repository benchmark (`benchmark/`,
//! `BENCHMARK.json`), not here.

use trass_bench::experiments;

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| {
        eprintln!("usage: repro <fig9|fig10|fig11|fig12|fig13|fig14|fig17|fig18|fig19|fig20|io|ablation|all>");
        std::process::exit(2);
    });
    match arg.as_str() {
        "fig9" => experiments::fig09_threshold::run(),
        "fig10" => experiments::fig10_topk::run(),
        "fig11" => experiments::fig11_pruning::run(),
        "fig12" => experiments::fig12_distribution::run(),
        "fig13" => experiments::fig13_overhead::run(),
        "fig14" | "fig15" => experiments::fig14_resolution::run(),
        "fig17" => experiments::fig17_scalability::run(),
        "fig18" => experiments::fig18_tail_latency::run(),
        "fig19" => experiments::fig19_shards::run(),
        "fig20" => experiments::fig20_measures::run(),
        "io" => experiments::io_reduction::run(),
        "ablation" => experiments::ablation::run(),
        "all" => experiments::run_all(),
        other => {
            eprintln!("unknown experiment: {other}");
            std::process::exit(2);
        }
    }
}
