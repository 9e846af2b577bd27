//! Metric records and their output: a human-readable table, a result file
//! under `target/perfbench/`, and the one-line JSON result that ends
//! standard output.

use std::fmt::Write as _;

use crate::stats::Summary;

/// One reported number, with the sample it was taken from when it is a
/// statistic of one.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub summary: Option<Summary>,
}

impl Metric {
    pub fn new(name: &str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value,
            summary: None,
        }
    }

    pub fn sampled(self, summary: Option<Summary>) -> Metric {
        Metric { summary, ..self }
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit of the measurement.
pub fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "non-finite metric value {v}");
    format!("{v:?}")
}

/// The last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// The metrics with their sample counts and quartiles, for the result
/// file.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let mut s = format!(
                "{}: {{\"value\": {}, \"unit\": {}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            );
            if let Some(q) = m.summary {
                let _ = write!(
                    s,
                    ", \"n\": {}, \"q1\": {}, \"median\": {}, \"q3\": {}, \"p95\": {}",
                    q.n,
                    json_num(q.q1),
                    json_num(q.median),
                    json_num(q.q3),
                    json_num(q.p95)
                );
            }
            s.push('}');
            s
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// One table row: value and unit, then the sample behind it.
pub fn table_row(m: &Metric) -> String {
    let mut row = format!("  {:<24} {:>14.6} {:<8}", m.name, m.value, m.unit);
    if let Some(q) = m.summary {
        let _ = write!(
            row,
            " n={} q1={:.4} median={:.4} q3={:.4} ({} beyond p95)",
            q.n,
            q.q1,
            q.median,
            q.q3,
            crate::stats::beyond(q.n, 95.0)
        );
    }
    row
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 10, 0, &[Metric::new("tok_s", "tok/s", 12.5)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"tok_s\": {\"value\": 12.5, \"unit\": \"tok/s\"}}}"
        );
    }

    #[test]
    fn numbers_keep_all_their_digits() {
        assert_eq!(json_num(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_num(3.0), "3.0");
        assert_eq!(json_str("a\"b\n"), "\"a\\\"b\\u000a\"");
    }
}
