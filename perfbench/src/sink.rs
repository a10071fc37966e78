//! A [`TraceSink`] that counts the work a run reports, per event kind.
//!
//! The counts are the benchmark's work ledger: assignments, exec slices,
//! second cuts, power splits, dispatches, failovers. A run is a pure
//! function of its seed, so two runs of one seed must produce identical
//! counts — the benchmark checks that as part of its correctness gate.
//! With retention on, the sink also keeps every event for the
//! `ge-trace` replay checkers.

use ge_trace::{SplitPolicy, TraceEvent, TraceSink};
use std::collections::BTreeMap;

#[derive(Debug, Default)]
pub struct CountingSink {
    counts: BTreeMap<&'static str, u64>,
    water_filling_splits: u64,
    kept: Option<Vec<TraceEvent>>,
}

impl CountingSink {
    /// A sink that counts only.
    pub fn new() -> Self {
        CountingSink::default()
    }

    /// A sink that counts and keeps every event for replay.
    pub fn retaining() -> Self {
        CountingSink {
            kept: Some(Vec::new()),
            ..CountingSink::default()
        }
    }

    /// Events of one kind (its wire name, e.g. `"exec_slice"`).
    pub fn count(&self, kind: &str) -> u64 {
        self.counts.get(kind).copied().unwrap_or(0)
    }

    /// Per-kind counts in kind order, with water-filling power splits
    /// as the extra pseudo-kind `power_split/water_filling`.
    pub fn ledger(&self) -> Vec<(&'static str, u64)> {
        let mut out: Vec<(&'static str, u64)> = self.counts.iter().map(|(k, v)| (*k, *v)).collect();
        out.push(("power_split/water_filling", self.water_filling_splits));
        out
    }

    /// Share of power splits that chose water-filling (0 with none).
    pub fn water_filling_frac(&self) -> f64 {
        let splits = self.count("power_split");
        if splits == 0 {
            0.0
        } else {
            self.water_filling_splits as f64 / splits as f64
        }
    }

    /// The retained events (empty unless built with [`Self::retaining`]).
    pub fn events(&self) -> &[TraceEvent] {
        self.kept.as_deref().unwrap_or(&[])
    }
}

impl TraceSink for CountingSink {
    fn record(&mut self, event: &TraceEvent) {
        *self.counts.entry(event.kind()).or_insert(0) += 1;
        if let TraceEvent::PowerSplit {
            policy: SplitPolicy::WaterFilling,
            ..
        } = event
        {
            self.water_filling_splits += 1;
        }
        if let Some(kept) = &mut self.kept {
            kept.push(event.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ge_core::ge::GeOptions;
    use ge_core::{run_scheduler_with_sink, GeScheduler, SimConfig};
    use ge_simcore::SimTime;
    use ge_workload::{WorkloadConfig, WorkloadGenerator};

    fn short_run(seed: u64, sink: &mut CountingSink) -> f64 {
        let cfg = SimConfig {
            horizon: SimTime::from_secs(5.0),
            ..SimConfig::paper_default()
        };
        let trace = WorkloadGenerator::new(
            WorkloadConfig {
                horizon: cfg.horizon,
                ..WorkloadConfig::paper_default(150.0)
            },
            seed,
        )
        .generate();
        let mut sched = GeScheduler::new(&cfg, GeOptions::paper());
        run_scheduler_with_sink(&cfg, &trace, &mut sched, None, sink).energy_j
    }

    #[test]
    fn counts_repeat_exactly_for_one_seed() {
        let mut a = CountingSink::new();
        let mut b = CountingSink::retaining();
        let ea = short_run(11, &mut a);
        let eb = short_run(11, &mut b);
        assert_eq!(ea.to_bits(), eb.to_bits());
        assert_eq!(a.ledger(), b.ledger());
        assert!(a.count("exec_slice") > 0 && a.count("job_assigned") > 0);
        // Retention keeps exactly what was counted.
        let total: u64 = a
            .ledger()
            .iter()
            .filter(|(k, _)| !k.contains('/'))
            .map(|(_, v)| v)
            .sum();
        assert_eq!(b.events().len() as u64, total);
        assert!(a.events().is_empty());
        let wf = a.water_filling_frac();
        assert!((0.0..=1.0).contains(&wf));
    }

    #[test]
    fn another_seed_changes_the_counts() {
        let mut a = CountingSink::new();
        let mut b = CountingSink::new();
        short_run(11, &mut a);
        short_run(12, &mut b);
        assert_ne!(a.ledger(), b.ledger());
    }
}
