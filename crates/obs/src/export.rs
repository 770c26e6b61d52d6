//! Exporters: Prometheus text format and JSON.
//!
//! Both render a point-in-time snapshot of a [`Registry`]. Output is
//! deterministic (families and series sorted by name, then labels) so
//! tests and diffs are stable.

use crate::histogram::Histogram;
use crate::json;
use crate::registry::{Metric, Registry};
use std::fmt::Write as _;

/// A plain-data snapshot of one metric, for programmatic consumers (the
/// experiment harness reads these instead of parsing the rendered text).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    /// Metric family name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// The value.
    pub value: MetricValue,
}

/// The value part of a [`MetricSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotone counter.
    Counter(u64),
    /// Up/down gauge.
    Gauge(i64),
    /// Histogram summary (values pre-multiplied by the export scale).
    Histogram {
        /// Sample count.
        count: u64,
        /// Sum of samples, scaled.
        sum: f64,
        /// Median, scaled.
        p50: f64,
        /// 90th percentile, scaled.
        p90: f64,
        /// 99th percentile, scaled.
        p99: f64,
        /// 99.9th percentile, scaled.
        p999: f64,
        /// Smallest sample, scaled.
        min: f64,
        /// Largest sample, scaled.
        max: f64,
    },
}

impl Registry {
    /// A structured snapshot of every registered metric, sorted by
    /// `(name, labels)`.
    pub fn snapshot(&self) -> Vec<MetricSnapshot> {
        self.sorted_entries()
            .into_iter()
            .map(|((name, labels), metric)| {
                let value = match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => {
                        let p = h.percentiles();
                        let s = h.scale();
                        MetricValue::Histogram {
                            count: h.count(),
                            sum: h.sum() as f64 * s,
                            p50: p.p50 as f64 * s,
                            p90: p.p90 as f64 * s,
                            p99: p.p99 as f64 * s,
                            p999: p.p999 as f64 * s,
                            min: h.min() as f64 * s,
                            max: h.max() as f64 * s,
                        }
                    }
                };
                MetricSnapshot { name, labels, value }
            })
            .collect()
    }

    /// Renders every metric in the Prometheus text exposition format.
    ///
    /// Histograms emit cumulative `_bucket{le="..."}` series over their
    /// non-empty buckets (plus `+Inf`), `_sum`, and `_count`, with bucket
    /// bounds multiplied by the histogram's export scale (so
    /// nanosecond-recorded timers expose seconds).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_family = String::new();
        for ((name, labels), metric) in self.sorted_entries() {
            if name != last_family {
                let kind = match &metric {
                    Metric::Counter(_) => "counter",
                    Metric::Gauge(_) => "gauge",
                    Metric::Histogram(_) => "histogram",
                };
                let _ = writeln!(out, "# TYPE {name} {kind}");
                last_family = name.clone();
            }
            match metric {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "{}{} {}", name, label_block(&labels, None), c.get());
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(out, "{}{} {}", name, label_block(&labels, None), g.get());
                }
                Metric::Histogram(h) => render_histogram(&mut out, &name, &labels, &h),
            }
        }
        out
    }

    /// Renders every metric as a JSON document:
    /// `{"counters": [...], "gauges": [...], "histograms": [...]}`.
    ///
    /// Literals come from [`crate::json`], whose parser reads the document
    /// back.
    pub fn render_json(&self) -> String {
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut histograms = Vec::new();
        for snap in self.snapshot() {
            let mut obj = String::new();
            let _ = write!(obj, "{{\"name\":{}", json::string(&snap.name));
            let _ = write!(obj, ",\"labels\":{{");
            for (i, (k, v)) in snap.labels.iter().enumerate() {
                if i > 0 {
                    obj.push(',');
                }
                let _ = write!(obj, "{}:{}", json::string(k), json::string(v));
            }
            obj.push('}');
            match snap.value {
                MetricValue::Counter(v) => {
                    let _ = write!(obj, ",\"value\":{v}}}");
                    counters.push(obj);
                }
                MetricValue::Gauge(v) => {
                    let _ = write!(obj, ",\"value\":{v}}}");
                    gauges.push(obj);
                }
                MetricValue::Histogram { count, sum, p50, p90, p99, p999, min, max } => {
                    let _ = write!(
                        obj,
                        ",\"count\":{count},\"sum\":{},\"p50\":{},\"p90\":{},\"p99\":{},\
                         \"p999\":{},\"min\":{},\"max\":{}}}",
                        json::number(sum),
                        json::number(p50),
                        json::number(p90),
                        json::number(p99),
                        json::number(p999),
                        json::number(min),
                        json::number(max),
                    );
                    histograms.push(obj);
                }
            }
        }
        format!(
            "{{\"counters\":[{}],\"gauges\":[{}],\"histograms\":[{}]}}",
            counters.join(","),
            gauges.join(","),
            histograms.join(",")
        )
    }
}

fn render_histogram(out: &mut String, name: &str, labels: &[(String, String)], h: &Histogram) {
    let scale = h.scale();
    let mut cumulative = 0u64;
    for (upper, n) in h.nonzero_buckets() {
        cumulative += n;
        let le = fmt_f64(upper as f64 * scale);
        let _ = writeln!(out, "{}_bucket{} {}", name, label_block(labels, Some(&le)), cumulative);
    }
    let _ = writeln!(out, "{}_bucket{} {}", name, label_block(labels, Some("+Inf")), h.count());
    let _ = writeln!(
        out,
        "{}_sum{} {}",
        name,
        label_block(labels, None),
        fmt_f64(h.sum() as f64 * scale)
    );
    let _ = writeln!(out, "{}_count{} {}", name, label_block(labels, None), h.count());
}

/// `{k="v",...}` (empty string when there are no labels), optionally with a
/// trailing `le` label for histogram buckets.
pub(crate) fn label_block(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{k}=\"{}\"", escape_label(v));
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "le=\"{le}\"");
    }
    out.push('}');
    out
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// Shortest clean decimal for a metric value.
pub(crate) fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prometheus_counters_and_gauges() {
        let r = Registry::new();
        r.counter("trass_kv_entries_scanned", &[("shard", "0")]).add(7);
        r.counter("trass_kv_entries_scanned", &[("shard", "1")]).add(3);
        r.gauge("fixture_tables", &[]).set(4);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE trass_kv_entries_scanned counter"));
        assert!(text.contains("trass_kv_entries_scanned{shard=\"0\"} 7"));
        assert!(text.contains("trass_kv_entries_scanned{shard=\"1\"} 3"));
        assert!(text.contains("# TYPE fixture_tables gauge"));
        assert!(text.contains("fixture_tables 4"));
        // TYPE line appears once per family.
        assert_eq!(text.matches("# TYPE trass_kv_entries_scanned").count(), 1);
    }

    #[test]
    fn prometheus_histogram_shape() {
        let r = Registry::new();
        let h = r.timer("trass_query_stage_seconds", &[("stage", "scan")]);
        h.record(1_000_000_000); // 1 s
        h.record(2_000_000_000); // 2 s
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE trass_query_stage_seconds histogram"));
        assert!(text.contains("trass_query_stage_seconds_bucket{stage=\"scan\",le=\"+Inf\"} 2"));
        assert!(text.contains("trass_query_stage_seconds_count{stage=\"scan\"} 2"));
        assert!(text.contains("trass_query_stage_seconds_sum{stage=\"scan\"} 3"));
        // Cumulative: the first finite bucket holds 1, and some bucket le
        // covers ~1s scaled to seconds.
        let bucket_lines: Vec<&str> =
            text.lines().filter(|l| l.contains("_bucket") && !l.contains("+Inf")).collect();
        assert_eq!(bucket_lines.len(), 2);
        assert!(bucket_lines[0].ends_with(" 1"));
        assert!(bucket_lines[1].ends_with(" 2"));
    }

    #[test]
    fn adversarial_label_values_are_escaped() {
        let r = Registry::new();
        // Backslash, double quote, and newline — every character the text
        // exposition format requires escaping in label values, plus a
        // value combining all three in escape-order-sensitive sequence.
        r.counter("c", &[("path", "C:\\temp\\x")]).inc();
        r.counter("c", &[("msg", "say \"hi\"")]).add(2);
        r.counter("c", &[("multi", "line1\nline2")]).add(3);
        r.counter("c", &[("mix", "\\\"\n")]).add(4);
        let text = r.render_prometheus();
        assert!(text.contains(r#"c{path="C:\\temp\\x"} 1"#), "backslash:\n{text}");
        assert!(text.contains(r#"c{msg="say \"hi\""} 2"#), "quote:\n{text}");
        assert!(text.contains(r#"c{multi="line1\nline2"} 3"#), "newline:\n{text}");
        // Escape order matters: the backslash must be escaped first, or
        // the escaped quote/newline would be double-escaped.
        assert!(text.contains(r#"c{mix="\\\"\n"} 4"#), "mixed:\n{text}");
        // No raw newline may survive inside any sample line.
        for line in text.lines() {
            assert!(
                line.is_empty()
                    || line.starts_with('#')
                    || line.ends_with(|c: char| c.is_ascii_digit()),
                "line split by unescaped newline: {line:?}"
            );
        }
    }

    #[test]
    fn adversarial_labels_on_histogram_series() {
        let r = Registry::new();
        let h = r.timer("h_seconds", &[("q", "a\"b\\c\nd")]);
        h.record(1_000_000);
        let text = r.render_prometheus();
        // The TYPE line is emitted for the histogram family, and every
        // generated series (_bucket/_sum/_count) carries the escaped label.
        assert!(text.contains("# TYPE h_seconds histogram"));
        let escaped = r#"q="a\"b\\c\nd""#;
        for series in ["h_seconds_bucket{", "h_seconds_sum{", "h_seconds_count{"] {
            let line = text.lines().find(|l| l.starts_with(series)).expect(series);
            assert!(line.contains(escaped), "unescaped label in {line}");
        }
    }

    #[test]
    fn json_parses_back_to_the_registry_contents() {
        let r = Registry::new();
        r.counter("c", &[("a", "x\"y\\z\n")]).inc();
        r.gauge("g", &[]).set(-2);
        r.timer("t_seconds", &[]).record(500);
        let doc = json::parse(&r.render_json()).expect("exporter emits valid JSON");
        let first = |family: &str| match doc.get(family) {
            Some(json::Value::Array(items)) => items[0].clone(),
            other => panic!("{family}: {other:?}"),
        };
        let counter = first("counters");
        assert_eq!(counter.get("name").and_then(json::Value::as_str), Some("c"));
        let label = counter.get("labels").and_then(|l| l.get("a"));
        assert_eq!(label.and_then(json::Value::as_str), Some("x\"y\\z\n"));
        assert_eq!(counter.get("value").and_then(json::Value::as_f64), Some(1.0));
        assert_eq!(first("gauges").get("value").and_then(json::Value::as_f64), Some(-2.0));
        assert_eq!(first("histograms").get("count").and_then(json::Value::as_f64), Some(1.0));
    }

    #[test]
    fn snapshot_is_sorted_and_typed() {
        let r = Registry::new();
        r.counter("b", &[]).inc();
        r.counter("a", &[]).inc();
        let snaps = r.snapshot();
        assert_eq!(snaps[0].name, "a");
        assert_eq!(snaps[1].name, "b");
        assert!(matches!(snaps[0].value, MetricValue::Counter(1)));
    }

    #[test]
    fn empty_registry_renders_empty() {
        let r = Registry::new();
        assert_eq!(r.render_prometheus(), "");
        assert_eq!(r.render_json(), "{\"counters\":[],\"gauges\":[],\"histograms\":[]}");
    }
}
