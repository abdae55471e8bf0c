//! What one workload run produced, and how it is printed.

use crate::trace::SpanSummary;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit label.
    pub unit: &'static str,
}

/// The outcome of one workload run: operation counts, failed checks,
/// metrics, and the span summary of a traced run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (requests, round trips or compress jobs,
    /// plus the checked repetitions of set-up work).
    pub attempted: u64,
    /// Operations that failed or whose output failed a check.
    pub failed: u64,
    /// The first few failure descriptions.
    pub problems: Vec<String>,
    /// End-to-end metrics.
    pub e2e: Vec<Metric>,
    /// Per-layer metrics.
    pub layers: Vec<Metric>,
    /// Recorded but not compared: tail percentiles, accuracy, counts
    /// that describe the run rather than judge it.
    pub extra: Vec<Metric>,
    /// Per-span totals of a traced run.
    pub spans: BTreeMap<String, SpanSummary>,
}

const MAX_PROBLEMS: usize = 16;

impl Outcome {
    /// Counts one attempted operation, failed unless `ok`.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Counts one failure of an already-counted operation (or of a check
    /// that covers a whole phase).
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < MAX_PROBLEMS {
            self.problems.push(what);
        }
    }

    /// Records an end-to-end metric.
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        push(&mut self.e2e, name, value, unit);
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        push(&mut self.layers, name, value, unit);
    }

    /// Whether a per-layer metric is already recorded.
    pub fn has_layer(&self, name: &str) -> bool {
        self.layers.iter().any(|m| m.name == name)
    }

    /// Records a per-layer metric unless the workload already measured it.
    pub fn layer_default(&mut self, name: &str, value: f64, unit: &'static str) {
        if !self.has_layer(name) {
            self.layer(name, value, unit);
        }
    }

    /// Records a descriptive value.
    pub fn extra(&mut self, name: &str, value: f64, unit: &'static str) {
        push(&mut self.extra, name, value, unit);
    }

    /// Every check passed and every value is a finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self
                .e2e
                .iter()
                .chain(&self.layers)
                .all(|m| m.value.is_finite())
    }
}

fn push(into: &mut Vec<Metric>, name: &str, value: f64, unit: &'static str) {
    into.retain(|m| m.name != name);
    into.push(Metric {
        name: name.to_string(),
        value,
        unit,
    });
}

/// Picks `names` out of `metrics` in the given order. A missing name is
/// a bug in the workload, so it panics rather than print a short result.
pub fn select<'a>(metrics: &'a [Metric], names: &[(String, &str)]) -> Vec<&'a Metric> {
    names
        .iter()
        .map(|(name, unit)| {
            let m = metrics
                .iter()
                .find(|m| &m.name == name)
                .unwrap_or_else(|| panic!("workload did not record metric {name}"));
            assert_eq!(m.unit, *unit, "metric {name} recorded with the wrong unit");
            m
        })
        .collect()
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

/// A JSON number with every digit Rust's shortest round-trip formatting
/// gives; non-finite values (never expected) become `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}`.
pub fn json_metrics<'a>(metrics: impl IntoIterator<Item = &'a Metric>) -> String {
    let parts: Vec<String> = metrics
        .into_iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", parts.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_escaped_and_numbers_keep_their_digits() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(json_num(1.2034), "1.2034");
        assert_eq!(json_num(0.000123456789), "0.000123456789");
        assert_eq!(json_num(f64::NAN), "null");
        let m = Metric {
            name: "p50_ms".into(),
            value: 0.25,
            unit: "ms",
        };
        assert_eq!(
            json_metrics([&m]),
            "{\"p50_ms\": {\"value\": 0.25, \"unit\": \"ms\"}}"
        );
    }

    #[test]
    fn failures_count_against_attempts() {
        let mut o = Outcome::default();
        o.op(true, || unreachable!());
        o.op(false, || "bad".into());
        o.fail("phase identity".into());
        assert_eq!((o.attempted, o.failed), (2, 2));
        assert!(!o.correct());
        assert_eq!(o.problems, vec!["bad", "phase identity"]);
    }
}
