//! Output: one line per metric for people, and the result object the
//! driver reads as the last line of standard output.

/// A named number with its unit. `samples` is how many measurements stand
/// behind it (0 when that has no meaning, as for a byte ratio).
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
        assert!(value.is_finite(), "metric {name} is not a finite number: {value}");
        Metric { name, value, unit, samples }
    }
}

pub fn print_metric(m: &Metric) {
    if m.samples > 0 {
        println!("{} {} {} (n={})", m.name, m.value, m.unit, m.samples);
    } else {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
}

/// The result object: `correct`, `attempted`, `failed`, and every metric
/// with all the digits it was measured to.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_object_has_the_four_keys_and_plain_numbers() {
        let metrics =
            [Metric::new("op_p50_ms", 1.2034, "ms", 10), Metric::new("setup_s", 0.5, "s", 3)];
        assert_eq!(
            result_json(true, 1000, 0, &metrics),
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"op_p50_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        // Small and large values stay plain decimals, which JSON accepts.
        assert!(result_json(true, 1, 0, &[Metric::new("x", 1e-9, "s", 0)]).contains("0.000000001"));
    }

    #[test]
    #[should_panic(expected = "not a finite number")]
    fn a_metric_that_is_not_a_number_stops_the_run() {
        Metric::new("ratio", f64::NAN, "ratio", 0);
    }
}
