//! Simulation configuration — the paper's §IV-B setup as data.

use ge_power::DiscreteSpeedSet;
use ge_quality::LedgerMode;
use ge_simcore::{SimDuration, SimTime};

/// Which power-distribution policy the scheduler uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PowerPolicy {
    /// The paper's hybrid: ES below the critical load, WF above it.
    Hybrid,
    /// Equal-Sharing always (Fig. 6/7 ablation).
    EqualSharingOnly,
    /// Water-Filling always (Fig. 6/7 ablation; also what BE uses).
    WaterFillingOnly,
}

/// Full platform + algorithm configuration for one simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of cores `m` (paper: 16).
    pub cores: usize,
    /// Total dynamic-power budget `H` in watts (paper: 320).
    pub budget_w: f64,
    /// Power-model scale `a` in `P = a·s^β` (paper: 5).
    pub power_a: f64,
    /// Power-model exponent `β` (paper: 2).
    pub power_beta: f64,
    /// Quality-function concavity `c` in Eq. 1 (paper: 0.003).
    pub quality_c: f64,
    /// Quality-function saturation demand `x_max` (paper: 1000).
    pub quality_xmax: f64,
    /// The good-enough quality target `Q_GE` (paper: 0.9).
    pub q_ge: f64,
    /// The degradation floor `Q_min ≤ Q_GE`: the quality the scheduler
    /// refuses to plan below even under faults. Below-floor batches are
    /// shed by admission control instead of silently under-served. `0`
    /// (the default) disables shedding — the fault-free paper setup.
    pub q_min: f64,
    /// Quantum trigger period (paper: 500 ms).
    pub quantum: SimDuration,
    /// Counter trigger threshold in queued jobs (paper: 8).
    pub counter_trigger: usize,
    /// Critical load separating light from heavy (paper: 154 req/s).
    pub critical_load_rps: f64,
    /// Simulation horizon (paper: 600 s); extended internally to the last
    /// deadline so every job's fate is recorded.
    pub horizon: SimTime,
    /// Processing units per GHz-second (paper: 1000).
    pub units_per_ghz_sec: f64,
    /// Discrete DVFS steps; `None` = continuous speeds (the default).
    pub discrete_speeds: Option<DiscreteSpeedSet>,
    /// How the compensation policy's quality monitor aggregates history.
    pub ledger_mode: LedgerMode,
    /// Sliding window (seconds) of the driver's arrival-rate estimator
    /// feeding the hybrid ES/WF switch.
    pub load_window_secs: f64,
}

// Every field, in the order the input digest folds them
// (`crate::resume::input_digest`).
ge_recover::persist! {
    SimConfig {
        cores,
        budget_w,
        power_a,
        power_beta,
        quality_c,
        quality_xmax,
        q_ge,
        q_min,
        quantum,
        counter_trigger,
        critical_load_rps,
        horizon,
        units_per_ghz_sec,
        discrete_speeds,
        ledger_mode,
        load_window_secs,
    }
}

impl SimConfig {
    /// The paper's §IV-B configuration.
    pub fn paper_default() -> Self {
        SimConfig {
            cores: 16,
            budget_w: 320.0,
            power_a: 5.0,
            power_beta: 2.0,
            quality_c: 0.003,
            quality_xmax: 1000.0,
            q_ge: 0.9,
            q_min: 0.0,
            quantum: SimDuration::from_millis(500.0),
            counter_trigger: 8,
            critical_load_rps: 154.0,
            horizon: SimTime::from_secs(600.0),
            units_per_ghz_sec: 1000.0,
            discrete_speeds: None,
            ledger_mode: LedgerMode::Cumulative,
            load_window_secs: 1.0,
        }
    }

    /// Per-core power under equal sharing (`H/m`, watts).
    pub fn equal_share_w(&self) -> f64 {
        self.budget_w / self.cores as f64
    }

    /// Server capacity in processing units per second when every core runs
    /// at the equal-share speed.
    pub fn equal_share_capacity_units(&self) -> f64 {
        let per_core_speed = (self.equal_share_w() / self.power_a).powf(1.0 / self.power_beta);
        self.cores as f64 * per_core_speed * self.units_per_ghz_sec
    }

    /// Validates internal consistency; called by the driver.
    ///
    /// # Panics
    /// Panics on nonsensical configurations (zero cores, non-positive
    /// budget/quality parameters, `Q_GE` outside `(0, 1]`).
    pub fn validate(&self) {
        assert!(self.cores > 0, "need at least one core");
        assert!(self.budget_w > 0.0, "budget must be positive");
        assert!(
            self.power_a > 0.0 && self.power_beta > 1.0,
            "invalid power model"
        );
        assert!(
            self.quality_c > 0.0 && self.quality_xmax > 0.0,
            "invalid quality function"
        );
        assert!(
            self.q_ge > 0.0 && self.q_ge <= 1.0,
            "Q_GE must be in (0, 1], got {}",
            self.q_ge
        );
        assert!(
            self.q_min >= 0.0 && self.q_min <= self.q_ge,
            "Q_min must be in [0, Q_GE], got {} (Q_GE = {})",
            self.q_min,
            self.q_ge
        );
        assert!(self.counter_trigger > 0, "counter trigger must be positive");
        assert!(self.units_per_ghz_sec > 0.0);
        assert!(self.load_window_secs > 0.0);
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_consistent() {
        let c = SimConfig::paper_default();
        c.validate();
        // H/m = 20 W ⇒ 2 GHz per core ⇒ 32 000 units/s capacity.
        assert!((c.equal_share_w() - 20.0).abs() < 1e-12);
        assert!((c.equal_share_capacity_units() - 32_000.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic]
    fn invalid_qge_rejected() {
        let mut c = SimConfig::paper_default();
        c.q_ge = 1.5;
        c.validate();
    }

    #[test]
    #[should_panic]
    fn qmin_above_qge_rejected() {
        let mut c = SimConfig::paper_default();
        c.q_min = 0.95; // > q_ge = 0.9
        c.validate();
    }

    #[test]
    #[should_panic]
    fn zero_cores_rejected() {
        let mut c = SimConfig::paper_default();
        c.cores = 0;
        c.validate();
    }

    #[test]
    fn default_is_paper() {
        let c = SimConfig::default();
        assert_eq!(c.cores, 16);
        assert_eq!(c.q_ge, 0.9);
    }
}
