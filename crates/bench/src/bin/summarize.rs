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
        let rows: Vec<Value> = text.lines().filter_map(|l| json::parse(l).ok()).collect();
        if rows.is_empty() {
            continue;
        }
        println!("\n### {}\n", text_of(&rows[0], "experiment"));
        // Collect the metric columns in first-seen order.
        let mut metrics: Vec<String> = Vec::new();
        for r in &rows {
            for (k, _) in r.get("metrics").and_then(Value::as_object).unwrap_or_default() {
                if !metrics.contains(k) {
                    metrics.push(k.clone());
                }
            }
        }
        print!("| dataset | solution | param | value |");
        for m in &metrics {
            print!(" {m} |");
        }
        println!();
        print!("|---|---|---|---|");
        for _ in &metrics {
            print!("---|");
        }
        println!();
        // Deduplicate repeated runs: keep the last row per
        // (dataset, solution, param, value).
        let mut dedup: BTreeMap<String, &Value> = BTreeMap::new();
        for r in &rows {
            let cells = format!(
                "| {} | {} | {} | {} |",
                text_of(r, "dataset"),
                text_of(r, "solution"),
                text_of(r, "param"),
                r.get("param_value").and_then(Value::as_f64).map_or("null".into(), json::number)
            );
            dedup.insert(cells, r);
        }
        for (cells, r) in &dedup {
            print!("{cells}");
            for m in &metrics {
                match r.get("metrics").and_then(|ms| ms.get(m)).and_then(Value::as_f64) {
                    Some(v) if v.abs() >= 100.0 => print!(" {v:.0} |"),
                    Some(v) => print!(" {v:.3} |"),
                    None => print!(" – |"),
                }
            }
            println!();
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

/// String member `key` of a row (empty when absent).
fn text_of<'a>(row: &'a Value, key: &str) -> &'a str {
    row.get(key).and_then(Value::as_str).unwrap_or("")
}
