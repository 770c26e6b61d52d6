//! Result reporting: JSONL files under `results/`, and one markdown
//! table renderer for the console and for `summarize`.

use std::fmt::Write as _;
use std::fs::OpenOptions;
use std::io::Write;
use std::path::PathBuf;
use trass_obs::json::{self, Value};

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
    /// Whether every answer the row times equalled brute force; `None`
    /// for rows that time no query.
    pub correct: Option<bool>,
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
        out.push('}');
        if let Some(correct) = self.correct {
            let _ = write!(out, ",\"correct\":{correct}");
        }
        out.push('}');
        out
    }

    /// Parses one `results/*.jsonl` line; `None` if it is not a row. A
    /// `null` metric reads as NaN.
    pub fn from_json(line: &str) -> Option<Row> {
        let v = json::parse(line).ok()?;
        let text = |key| v.get(key).and_then(Value::as_str).map(str::to_string);
        let metrics = v.get("metrics")?.as_object()?.iter();
        Some(Row {
            experiment: text("experiment")?,
            dataset: text("dataset")?,
            solution: text("solution")?,
            param: text("param")?,
            param_value: v.get("param_value")?.as_f64()?,
            metrics: metrics.map(|(k, m)| (k.clone(), m.as_f64().unwrap_or(f64::NAN))).collect(),
            correct: match v.get("correct") {
                Some(Value::Bool(b)) => Some(*b),
                _ => None,
            },
        })
    }
}

/// Renders rows as one markdown table (the format EXPERIMENTS.md embeds),
/// metric columns in first-seen order; a missing or non-finite value is
/// `–`.
pub fn markdown(rows: &[Row]) -> String {
    let mut names: Vec<&str> = Vec::new();
    for (name, _) in rows.iter().flat_map(|r| &r.metrics) {
        if !names.contains(&name.as_str()) {
            names.push(name);
        }
    }
    let mut out = String::from("| dataset | solution | param | value |");
    names.iter().for_each(|m| out.push_str(&format!(" {m} |")));
    out.push_str(&format!("\n|---|---|---|---|{}", "---|".repeat(names.len())));
    for r in rows {
        let value = json::number(r.param_value);
        let _ = write!(out, "\n| {} | {} | {} | {value} |", r.dataset, r.solution, r.param);
        for name in &names {
            let metric = r.metrics.iter().find(|(k, _)| k == name).map(|m| m.1);
            let _ = match metric.filter(|v| v.is_finite()) {
                Some(v) if v.abs() >= 100.0 => write!(out, " {v:.0} |"),
                Some(v) => write!(out, " {v:.3} |"),
                None => write!(out, " – |"),
            };
        }
    }
    out
}

/// Collects and emits one experiment's rows.
pub struct Reporter {
    experiment: String,
    pub(crate) rows: Vec<Row>,
}

impl Reporter {
    /// Starts a reporter for an experiment id.
    pub fn new(experiment: &str) -> Self {
        Reporter { experiment: experiment.to_string(), rows: Vec::new() }
    }

    /// Records a row; `correct` is `None` for a row that times no query.
    pub fn row(
        &mut self,
        dataset: &str,
        solution: &str,
        param: &str,
        param_value: f64,
        metrics: &[(&str, f64)],
        correct: Option<bool>,
    ) {
        self.rows.push(Row {
            experiment: self.experiment.clone(),
            dataset: dataset.to_string(),
            solution: solution.to_string(),
            param: param.to_string(),
            param_value,
            metrics: metrics.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            correct,
        });
    }

    /// Whether no row recorded a wrong answer.
    pub fn all_correct(&self) -> bool {
        self.rows.iter().all(|r| r.correct != Some(false))
    }

    /// Prints the rows as a table and appends them to
    /// `results/<experiment>.jsonl`. Returns [`Reporter::all_correct`].
    pub fn finish(self) -> bool {
        println!("\n### {}\n\n{}", self.experiment, markdown(&self.rows));
        let dir = PathBuf::from("results");
        std::fs::create_dir_all(&dir).expect("create results dir");
        let path = dir.join(format!("{}.jsonl", self.experiment));
        let mut file =
            OpenOptions::new().create(true).append(true).open(&path).expect("open results file");
        for r in &self.rows {
            writeln!(file, "{}", r.to_json()).expect("write row");
        }
        println!("{} rows appended to {}", self.experiment, path.display());
        self.all_correct()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_serialize_to_the_documented_fields() {
        let mut rep = Reporter::new("test-exp");
        rep.row("ds", "TraSS", "eps", 0.01, &[("time_ms", 1.5), ("skipped", f64::NAN)], Some(true));
        rep.row("ds", "XZ*", "code", 1.0, &[("count", 3.0)], None);
        assert_eq!(rep.rows.len(), 2);
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
        assert_eq!(row.get("correct"), Some(&json::Value::Bool(true)));
        // A row that times no query carries no `correct` field.
        let untimed = json::parse(&rep.rows[1].to_json()).expect("one JSON object");
        assert_eq!(untimed.get("correct"), None);
        assert!(rep.all_correct());
        let table = markdown(&rep.rows);
        assert!(table.contains("| ds | TraSS | eps | 0.01 | 1.500 | – | – |"), "{table}");
        assert!(table.contains("| ds | XZ* | code | 1 | – | – | 3.000 |"), "{table}");
        // Both rows read back as written.
        for r in &rep.rows {
            let back = Row::from_json(&r.to_json()).expect("a row");
            assert_eq!(back.to_json(), r.to_json());
        }
    }
}
