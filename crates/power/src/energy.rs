//! Run-time energy metering.
//!
//! The paper's metric is `E = ∫ P(t) dt` from the first job's start to the
//! last job's deadline (§II-B). The execution engine reports every
//! constant-speed stretch a core actually ran to an [`EnergyMeter`], which
//! accumulates joules per core with compensated (Kahan) summation so that
//! hundreds of thousands of tiny segments do not drift.

use crate::model::PowerModel;

/// Accumulates per-core and total energy.
#[derive(Debug, Clone)]
pub struct EnergyMeter {
    per_core: Vec<KahanSum>,
}

/// Kahan–Babuška compensated accumulator.
#[derive(Debug, Clone, Copy, Default)]
struct KahanSum {
    sum: f64,
    c: f64,
}

// Both terms are persisted: rebuilding a meter through `record_joules`
// would lose the compensation term and break bit-exact resume.
ge_recover::persist!(KahanSum { sum, c });
ge_recover::persist!(EnergyMeter { per_core });

impl KahanSum {
    #[inline]
    fn add(&mut self, x: f64) {
        let t = self.sum + x;
        if self.sum.abs() >= x.abs() {
            self.c += (self.sum - t) + x;
        } else {
            self.c += (x - t) + self.sum;
        }
        self.sum = t;
    }

    #[inline]
    fn value(self) -> f64 {
        self.sum + self.c
    }
}

impl EnergyMeter {
    /// Creates a meter for `cores` cores.
    pub fn new(cores: usize) -> Self {
        EnergyMeter {
            per_core: vec![KahanSum::default(); cores],
        }
    }

    /// Records that `core` ran at `speed_ghz` for `secs` under `model`.
    ///
    /// # Panics
    /// Panics if `core` is out of range; negative durations are rejected
    /// in debug builds and clamped to zero otherwise.
    pub fn record(&mut self, core: usize, model: &dyn PowerModel, speed_ghz: f64, secs: f64) {
        debug_assert!(secs >= -1e-9, "negative duration {secs}");
        let secs = secs.max(0.0);
        if secs == 0.0 || speed_ghz <= 0.0 {
            return;
        }
        self.per_core[core].add(model.energy(speed_ghz, secs));
    }

    /// Records a precomputed energy amount (joules) for `core`.
    pub fn record_joules(&mut self, core: usize, joules: f64) {
        debug_assert!(joules >= -1e-9, "negative energy {joules}");
        if joules > 0.0 {
            self.per_core[core].add(joules);
        }
    }

    /// Energy consumed by one core so far (joules).
    pub fn core_energy(&self, core: usize) -> f64 {
        self.per_core[core].value()
    }

    /// Total energy across all cores (joules).
    pub fn total_energy(&self) -> f64 {
        self.per_core.iter().map(|k| k.value()).sum()
    }

    /// Number of cores being metered.
    pub fn cores(&self) -> usize {
        self.per_core.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::PolynomialPower;

    #[test]
    fn accumulates_per_core() {
        let m = PolynomialPower::paper_default();
        let mut meter = EnergyMeter::new(2);
        meter.record(0, &m, 2.0, 1.0); // 20 J
        meter.record(1, &m, 1.0, 2.0); // 10 J
        meter.record(0, &m, 2.0, 0.5); // 10 J
        assert!((meter.core_energy(0) - 30.0).abs() < 1e-9);
        assert!((meter.core_energy(1) - 10.0).abs() < 1e-9);
        assert!((meter.total_energy() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn zero_speed_and_zero_time_are_free() {
        let m = PolynomialPower::paper_default();
        let mut meter = EnergyMeter::new(1);
        meter.record(0, &m, 0.0, 100.0);
        meter.record(0, &m, 3.0, 0.0);
        assert_eq!(meter.total_energy(), 0.0);
    }

    #[test]
    fn direct_joules() {
        let mut meter = EnergyMeter::new(1);
        meter.record_joules(0, 12.5);
        meter.record_joules(0, 0.0);
        assert!((meter.total_energy() - 12.5).abs() < 1e-12);
    }

    #[test]
    fn compensated_summation_stays_accurate() {
        // A million tiny increments of 1e-6 J next to a huge 1e9 J value:
        // naive f64 summation loses them; Kahan keeps them.
        let mut meter = EnergyMeter::new(1);
        meter.record_joules(0, 1e9);
        for _ in 0..1_000_000 {
            meter.record_joules(0, 1e-6);
        }
        let total = meter.total_energy();
        assert!(
            (total - (1e9 + 1.0)).abs() < 1e-3,
            "lost precision: {total}"
        );
    }

    #[test]
    #[should_panic]
    fn out_of_range_core_panics() {
        let m = PolynomialPower::paper_default();
        let mut meter = EnergyMeter::new(1);
        meter.record(5, &m, 1.0, 1.0);
    }

    #[test]
    fn cores_accessor() {
        assert_eq!(EnergyMeter::new(16).cores(), 16);
    }
}
