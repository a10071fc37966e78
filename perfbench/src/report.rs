//! One run's result: metric values, the correctness checks, and the
//! final JSON line the benchmark prints last on standard output.

use crate::spec::{Metric, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;

/// Value of a per-layer metric the workload exercises but cannot observe
/// through the public entry point it is driven by (see METRICS.md).
pub const NOT_OBSERVABLE: f64 = -1.0;

#[derive(Debug)]
pub struct Report {
    pub workload: &'static str,
    values: BTreeMap<&'static str, f64>,
    checks: Vec<(String, bool)>,
    /// Operations attempted (runs, or requests on the wire).
    pub attempted: u64,
    /// Operations that failed (runs failing a check, or requests without
    /// an `ACCEPTED` reply).
    pub failed: u64,
}

impl Report {
    pub fn new(workload: &'static str) -> Self {
        Report {
            workload,
            values: BTreeMap::new(),
            checks: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Records a metric value.
    ///
    /// # Panics
    /// Panics on a name that is not in the catalogue (a benchmark bug).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|m| m.name == name),
            "metric {name} is not in the catalogue"
        );
        self.values.insert(name, value);
    }

    /// Records a correctness check and prints it.
    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        let what = what.into();
        println!("check {} {what}", if ok { "ok  " } else { "FAIL" });
        self.checks.push((what, ok));
    }

    /// Whether every check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok)| *ok)
    }

    fn metric_set(trace: bool) -> &'static [Metric] {
        if trace {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// Prints every metric of the mode's set, one per line, plus
    /// `failed_frac`; flags any metric the workload did not set or set to
    /// a non-finite value as a failed check.
    pub fn print_metrics(&mut self, trace: bool) {
        let mut missing = Vec::new();
        for m in Self::metric_set(trace) {
            match self.values.get(m.name) {
                Some(v) if v.is_finite() => {
                    println!("metric {:<28} {:>16.6} {}", m.name, v, m.unit)
                }
                _ => missing.push(m.name),
            }
        }
        let frac = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "metric {:<28} {:>16.6} ratio ({} of {})",
            "failed_frac", frac, self.failed, self.attempted
        );
        if !missing.is_empty() {
            self.check(format!("metrics missing or non-finite: {missing:?}"), false);
        }
    }

    /// The final JSON line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn final_line(&self, trace: bool) -> String {
        let metrics: Vec<String> = Self::metric_set(trace)
            .iter()
            .filter_map(|m| {
                let v = self.values.get(m.name).filter(|v| v.is_finite())?;
                Some(format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                ))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn final_line_holds_every_metric_of_the_mode() {
        let mut r = Report::new("x");
        for (i, m) in END_TO_END.iter().enumerate() {
            r.set(m.name, 0.5 + i as f64);
        }
        r.attempted = 3;
        r.print_metrics(false);
        assert!(r.correct());
        let line = r.final_line(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        for m in &END_TO_END {
            assert!(line.contains(&format!("\"{}\": {{\"value\": ", m.name)));
        }
        assert!(!line.contains("core.epochs"));
    }

    #[test]
    fn missing_metrics_and_failures_make_the_run_incorrect() {
        let mut r = Report::new("x");
        r.set("setup_s", 0.1);
        r.print_metrics(false);
        assert!(!r.correct());
        let mut r = Report::new("x");
        for m in &PER_LAYER {
            r.set(m.name, 0.0);
        }
        r.attempted = 10;
        r.failed = 1;
        r.print_metrics(true);
        assert!(!r.correct());
        assert!(r.final_line(true).contains("\"failed\": 1"));
    }

    #[test]
    #[should_panic(expected = "not in the catalogue")]
    fn unknown_metric_names_are_rejected() {
        Report::new("x").set("no_such_metric", 1.0);
    }
}
