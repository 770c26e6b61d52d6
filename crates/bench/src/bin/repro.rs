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
//!   ablation  pruning stages switched off one at a time
//!   all     everything, in order
//! ```
//!
//! Environment: `TRASS_REPRO_SCALE` scales dataset sizes (default 1.0 ≈
//! 5 000 trajectories per dataset), `TRASS_REPRO_QUERIES` sets the query
//! batch (default 40). Results append to `results/<exp>.jsonl`.
//!
//! Every timed answer is checked against the reference answer
//! (`trass_traj::reference`). A wrong one is named on stderr and written
//! with `"correct": false`, and `repro` exits 1 once the rows are written.
//! The last stderr line states the share of the run spent computing
//! reference answers.
//!
//! Performance is measured by the repository benchmark (`benchmark/`,
//! `BENCHMARK.json`), not here.

use std::str::FromStr;
use std::time::Instant;
use trass_bench::datasets::Scale;
use trass_bench::experiments::ALL;
use trass_bench::harness;

/// A positive number from the environment, or `default`.
fn env_or<T: FromStr + PartialOrd + Default>(name: &str, default: T) -> T {
    let value = std::env::var(name).ok().and_then(|v| v.parse().ok());
    value.filter(|v| *v > T::default()).unwrap_or(default)
}

fn main() {
    let t0 = Instant::now();
    let arg = std::env::args().nth(1).unwrap_or_default();
    let name = if arg == "fig15" { "fig14" } else { arg.as_str() };
    let scale = Scale {
        size: env_or("TRASS_REPRO_SCALE", 1.0),
        queries: env_or("TRASS_REPRO_QUERIES", 40),
    };
    let correct = match ALL.iter().find(|(n, _)| *n == name) {
        Some((_, run)) => run(scale),
        // Every experiment runs, whatever an earlier one found.
        None if name == "all" => ALL.iter().fold(true, |ok, (_, run)| run(scale) & ok),
        None => {
            let names: Vec<_> = ALL.iter().map(|(n, _)| *n).collect();
            eprintln!("usage: repro <{}|all>", names.join("|"));
            std::process::exit(2);
        }
    };
    let (oracle, total) = (harness::oracle_time().as_secs_f64(), t0.elapsed().as_secs_f64());
    eprintln!(
        "repro: reference answers took {oracle:.2} s of {total:.2} s ({:.1} %)",
        100.0 * oracle / total
    );
    if !correct {
        eprintln!("repro: some answers differ from the reference (rows with \"correct\": false)");
        std::process::exit(1);
    }
}
