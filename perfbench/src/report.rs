//! The run's result: human-readable record lines, then one JSON object
//! as the last line of standard output.

use std::fmt::Write as _;

/// One named, unit-carrying number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything a workload run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The metrics of the JSON line, in order.
    pub metrics: Vec<Metric>,
    /// Record lines printed before the JSON: settings, sample counts and
    /// the numbers behind each metric.
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// A failed output check: the run is reported incorrect, with why.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.correct = false;
            self.notes.push(format!("CHECK FAILED: {}", what()));
        }
    }

    /// Prints the record lines, then the JSON result line.
    pub fn print(&self) {
        for n in &self.notes {
            println!("# {n}");
        }
        println!("{}", self.json());
    }

    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct,
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            // Non-finite values have no JSON spelling; a metric that came
            // out non-finite is reported as 0 and the run as incorrect.
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                s,
                "{}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                m.name,
                v,
                m.unit
            );
        }
        s.push_str("}}");
        s
    }

    /// Marks the run incorrect if any metric is not a finite number.
    pub fn check_finite(&mut self) {
        let bad: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| !m.value.is_finite())
            .map(|m| m.name.clone())
            .collect();
        self.check(bad.is_empty(), || format!("non-finite metrics {bad:?}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_result_keys() {
        let mut r = Report {
            correct: true,
            attempted: 12,
            failed: 1,
            ..Default::default()
        };
        r.metric("setup_s", 0.8127, "s");
        r.metric("count", 3.0, "count");
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 12, \"failed\": 1, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"count\": {\"value\": 3.0, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn a_failed_check_or_non_finite_metric_makes_the_run_incorrect() {
        let mut r = Report {
            correct: true,
            ..Default::default()
        };
        r.check(true, || unreachable!());
        assert!(r.correct);
        r.metric("x", f64::NAN, "s");
        r.check_finite();
        assert!(!r.correct);
        assert!(r.json().contains("\"value\": 0.0"));
        assert!(r.json().contains("\"attempted\": 1"));
    }
}
