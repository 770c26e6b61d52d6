//! Result reporting: aligned console tables plus JSONL files under
//! `results/`.

use std::fmt::Write as _;
use std::fs::OpenOptions;
use std::io::Write;
use std::path::PathBuf;
use trass_obs::json;

/// One machine-readable result row.
#[derive(Debug)]
pub struct Row {
    /// Experiment id, e.g. "fig9".
    pub experiment: String,
    /// Dataset name.
    pub dataset: String,
    /// Solution name ("TraSS", "DFT", …).
    pub solution: String,
    /// Swept parameter name ("eps", "k", "resolution", …).
    pub param: String,
    /// Swept parameter value.
    pub param_value: f64,
    /// Metric values by name, in the order the experiment reported them.
    pub metrics: Vec<(String, f64)>,
}

impl Row {
    /// The row as one JSON object (a `results/*.jsonl` line); non-finite
    /// metric values are written as `null`.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"experiment\":{},\"dataset\":{},\"solution\":{},\"param\":{},\"param_value\":{},\"metrics\":{{",
            json::string(&self.experiment),
            json::string(&self.dataset),
            json::string(&self.solution),
            json::string(&self.param),
            json::number(self.param_value),
        );
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(out, "{sep}{}:{}", json::string(name), json::number(*value));
        }
        out.push_str("}}");
        out
    }

    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(k, _)| k == name).map(|(_, v)| *v).filter(|v| v.is_finite())
    }
}

/// Collects and emits one experiment's rows.
pub struct Reporter {
    experiment: String,
    rows: Vec<Row>,
}

impl Reporter {
    /// Starts a reporter for an experiment id.
    pub fn new(experiment: &str) -> Self {
        Reporter { experiment: experiment.to_string(), rows: Vec::new() }
    }

    /// Records a row.
    pub fn row(
        &mut self,
        dataset: &str,
        solution: &str,
        param: &str,
        param_value: f64,
        metrics: &[(&str, f64)],
    ) {
        self.rows.push(Row {
            experiment: self.experiment.clone(),
            dataset: dataset.to_string(),
            solution: solution.to_string(),
            param: param.to_string(),
            param_value,
            metrics: metrics.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        });
    }

    /// Prints the rows as an aligned table and appends them to
    /// `results/<experiment>.jsonl`. Returns the output path.
    pub fn finish(self) -> PathBuf {
        // Console table.
        let metric_names: Vec<String> = {
            let mut names: Vec<String> = Vec::new();
            for r in &self.rows {
                for (k, _) in &r.metrics {
                    if !names.contains(k) {
                        names.push(k.clone());
                    }
                }
            }
            names
        };
        println!("\n== {} ==", self.experiment);
        print!("{:<10} {:<12} {:>6} {:>10}", "dataset", "solution", "param", "value");
        for m in &metric_names {
            print!(" {m:>16}");
        }
        println!();
        for r in &self.rows {
            print!("{:<10} {:<12} {:>6} {:>10.4}", r.dataset, r.solution, r.param, r.param_value);
            for m in &metric_names {
                match r.metric(m) {
                    Some(v) => print!(" {v:>16.4}"),
                    None => print!(" {:>16}", "-"),
                }
            }
            println!();
        }

        // JSONL file.
        let dir = PathBuf::from("results");
        std::fs::create_dir_all(&dir).expect("create results dir");
        let path = dir.join(format!("{}.jsonl", self.experiment));
        let mut file =
            OpenOptions::new().create(true).append(true).open(&path).expect("open results file");
        for r in &self.rows {
            writeln!(file, "{}", r.to_json()).expect("write row");
        }
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_serialize_to_the_documented_fields() {
        let mut rep = Reporter::new("test-exp");
        rep.row("ds", "TraSS", "eps", 0.01, &[("time_ms", 1.5), ("skipped", f64::NAN)]);
        assert_eq!(rep.rows.len(), 1);
        let line = rep.rows[0].to_json();
        let row = json::parse(&line).expect("a row is one JSON object");
        assert_eq!(row.get("experiment").and_then(json::Value::as_str), Some("test-exp"));
        assert_eq!(row.get("dataset").and_then(json::Value::as_str), Some("ds"));
        assert_eq!(row.get("solution").and_then(json::Value::as_str), Some("TraSS"));
        assert_eq!(row.get("param").and_then(json::Value::as_str), Some("eps"));
        assert_eq!(row.get("param_value").and_then(json::Value::as_f64), Some(0.01));
        let metrics = row.get("metrics").expect("metrics");
        assert_eq!(metrics.get("time_ms").and_then(json::Value::as_f64), Some(1.5));
        assert_eq!(metrics.get("skipped"), Some(&json::Value::Null));
    }
}
