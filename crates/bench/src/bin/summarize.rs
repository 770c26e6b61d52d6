//! `summarize` — renders `results/*.jsonl` experiment rows as markdown
//! tables (the format EXPERIMENTS.md embeds).
//!
//! ```sh
//! summarize [results_dir]
//! ```

use std::collections::BTreeMap;
use std::path::PathBuf;
use trass_obs::json::{self, Value};

fn main() {
    let dir = std::env::args().nth(1).map(PathBuf::from).unwrap_or_else(|| "results".into());
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

/// String member `key` of a row (empty when absent).
fn text_of<'a>(row: &'a Value, key: &str) -> &'a str {
    row.get(key).and_then(Value::as_str).unwrap_or("")
}
