//! Run results — the measurements every reproduced figure is built from.

/// Everything measured over one simulation run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The algorithm label (e.g. `"GE"`, `"BE"`, `"FCFS"`).
    pub algorithm: String,
    /// Final service quality `Q = Σ f(c_j) / Σ f(p_j)` over all jobs.
    pub quality: f64,
    /// Total energy `∫ P dt` in joules.
    pub energy_j: f64,
    /// Number of jobs whose service ended during the run.
    pub jobs_finished: u64,
    /// Jobs that ended with zero processed volume.
    pub jobs_discarded: u64,
    /// Jobs rejected by admission control under the `Q_min` degradation
    /// floor (a subset of `jobs_discarded`). Zero in fault-free runs.
    pub jobs_shed: u64,
    /// Jobs that achieved their full quality.
    pub jobs_completed_fully: u64,
    /// Fraction of time spent in the AES mode (1.0 for algorithms that
    /// never leave it; 0.0 for pure best-effort algorithms).
    pub aes_fraction: f64,
    /// Number of AES↔BQ transitions.
    pub mode_transitions: u64,
    /// Time-weighted mean core speed (GHz) — Fig. 6a.
    pub mean_speed_ghz: f64,
    /// Time-weighted cross-core speed variance (GHz²) — Fig. 6b.
    pub speed_variance: f64,
    /// Number of scheduler epochs (trigger firings that ran the policy).
    pub schedule_epochs: u64,
    /// Mean response latency of served jobs (ms): finish − release.
    pub mean_latency_ms: f64,
    /// 95th-percentile response latency of served jobs (ms).
    pub p95_latency_ms: f64,
    /// 99th-percentile response latency of served jobs (ms).
    pub p99_latency_ms: f64,
    /// Coefficient of variation of per-core energy (std/mean) — the
    /// load-balance signature of the assignment policy (C-RR vs RR).
    pub core_energy_cv: f64,
}

/// A run's final measurements plus the ledger sums a fleet needs to
/// aggregate quality across shards (fleet quality is a ratio of summed
/// achieved over summed full values, not a mean of per-shard ratios).
#[derive(Debug, Clone)]
pub struct ShardOutcome {
    /// The ordinary single-server run measurements.
    pub result: RunResult,
    /// `Σ f(c_j)` over every job recorded by the run's ledger.
    pub achieved_sum: f64,
    /// `Σ f(p_j)` over every job recorded by the run's ledger.
    pub full_sum: f64,
}

impl RunResult {
    /// Average power over the active span (watts); 0 for an empty run.
    pub fn average_power_w(&self, span_secs: f64) -> f64 {
        if span_secs <= 0.0 {
            0.0
        } else {
            self.energy_j / span_secs
        }
    }

    /// Energy saving of `self` relative to `baseline` as a fraction
    /// (positive = `self` used less energy).
    pub fn energy_saving_vs(&self, baseline: &RunResult) -> f64 {
        if baseline.energy_j <= 0.0 {
            0.0
        } else {
            1.0 - self.energy_j / baseline.energy_j
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(energy: f64) -> RunResult {
        RunResult {
            algorithm: "X".into(),
            quality: 0.9,
            energy_j: energy,
            jobs_finished: 100,
            jobs_discarded: 1,
            jobs_shed: 0,
            jobs_completed_fully: 50,
            aes_fraction: 0.8,
            mode_transitions: 4,
            mean_speed_ghz: 1.8,
            speed_variance: 0.1,
            schedule_epochs: 1000,
            mean_latency_ms: 100.0,
            p95_latency_ms: 140.0,
            p99_latency_ms: 149.0,
            core_energy_cv: 0.05,
        }
    }

    #[test]
    fn average_power() {
        let r = sample(600.0);
        assert!((r.average_power_w(600.0) - 1.0).abs() < 1e-12);
        assert_eq!(r.average_power_w(0.0), 0.0);
    }

    #[test]
    fn energy_saving() {
        let ge = sample(76.1);
        let be = sample(100.0);
        assert!((ge.energy_saving_vs(&be) - 0.239).abs() < 1e-9);
        let zero = sample(0.0);
        assert_eq!(ge.energy_saving_vs(&zero), 0.0);
    }
}
