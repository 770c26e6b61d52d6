//! `summarize` — renders `results/*.jsonl` experiment rows as markdown
//! tables (the format EXPERIMENTS.md embeds).
//!
//! ```sh
//! summarize [results_dir]
//! summarize --bench-series [repo_root]
//! ```
//!
//! The second form prints the committed `BENCH_pr<N>.json` trail (one file
//! per PR: medians over interleaved parent/change benchmark pairs) as one
//! table per workload × end-to-end metric, oldest PR first.

use std::collections::BTreeMap;
use std::path::PathBuf;
use trass_bench::report::{markdown, Row};
use trass_obs::json::{self, Value};

fn main() {
    let mut args = std::env::args().skip(1).peekable();
    if args.next_if(|a| a == "--bench-series").is_some() {
        return bench_series(&args.next().map(PathBuf::from).unwrap_or_else(|| ".".into()));
    }
    let dir = args.next().map(PathBuf::from).unwrap_or_else(|| "results".into());
    let Ok(entries) = std::fs::read_dir(&dir) else {
        eprintln!("no results directory at {}", dir.display());
        std::process::exit(1);
    };
    let mut files: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
        .collect();
    files.sort();
    for file in files {
        let Ok(text) = std::fs::read_to_string(&file) else { continue };
        // Deduplicate repeated runs: keep the last row per
        // (dataset, solution, param, value).
        let mut dedup = BTreeMap::new();
        for r in text.lines().filter_map(Row::from_json) {
            let key = (r.dataset.clone(), r.solution.clone(), r.param.clone());
            dedup.insert((key, json::number(r.param_value)), r);
        }
        let rows: Vec<Row> = dedup.into_values().collect();
        if let Some(first) = rows.first() {
            println!("\n### {}\n\n{}", first.experiment, markdown(&rows));
        }
    }
}

/// Prints, per workload × end-to-end metric, one line per `BENCH_pr<N>.json`
/// under `root`: both medians, the delta, the parent's inter-quartile
/// spread, the pairs the change won, and whether the delta resolved.
fn bench_series(root: &std::path::Path) {
    let mut files: Vec<(u64, Value)> = std::fs::read_dir(root)
        .into_iter()
        .flatten()
        .filter_map(|e| {
            let e = e.ok()?;
            let name = e.file_name().into_string().ok()?;
            let pr = name.strip_prefix("BENCH_pr")?.strip_suffix(".json")?.parse().ok()?;
            Some((pr, json::parse(&std::fs::read_to_string(e.path()).ok()?).ok()?))
        })
        .collect();
    files.sort_by_key(|&(pr, _)| pr);
    let mut series: BTreeMap<(&str, &str), Vec<String>> = BTreeMap::new();
    for (pr, file) in &files {
        for (workload, w) in file.get("workloads").and_then(Value::as_object).unwrap_or_default() {
            let pairs = w.get("pairs").and_then(Value::as_f64).unwrap_or(0.0);
            for (metric, m) in w.get("end_to_end").and_then(Value::as_object).unwrap_or_default() {
                let num = |key| m.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN);
                series.entry((workload, metric)).or_default().push(format!(
                    "| {pr} | {:.4} | {:.4} | {:+.2} % | {:.4} | {}/{pairs} | {} |",
                    num("parent_median"),
                    num("change_median"),
                    num("delta_pct"),
                    num("parent_iqr"),
                    num("change_wins"),
                    if m.get("resolved") == Some(&Value::Bool(true)) { "yes" } else { "no" }
                ));
            }
        }
    }
    for ((workload, metric), lines) in &series {
        println!("\n### {workload} · {metric}\n");
        println!("| PR | parent median | change median | delta | parent IQR | wins | resolved |");
        println!("|---|---|---|---|---|---|---|");
        lines.iter().for_each(|line| println!("{line}"));
    }
}
