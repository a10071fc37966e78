//! Experiment scale presets.

use ge_simcore::SimTime;

/// How big to run an experiment: simulation horizon, replication count,
/// and the arrival-rate grid.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Simulated seconds per run (paper: 600).
    pub horizon_secs: f64,
    /// Independent seeds averaged per point.
    pub replications: u64,
    /// Arrival-rate grid (requests per second).
    pub rates: Vec<f64>,
    /// Root seed; replication `k` uses `root_seed + k`.
    pub root_seed: u64,
}

impl Scale {
    /// The paper's scale: 10-minute horizon; two seeds tame Poisson noise.
    pub fn full() -> Self {
        Scale {
            horizon_secs: 600.0,
            replications: 2,
            rates: vec![90.0, 110.0, 130.0, 150.0, 170.0, 190.0, 210.0, 230.0, 250.0],
            root_seed: 0x6E5D,
        }
    }

    /// A one-minute smoke scale for integration tests and quick looks.
    pub fn quick() -> Self {
        Scale {
            horizon_secs: 60.0,
            replications: 1,
            rates: vec![100.0, 150.0, 200.0, 250.0],
            root_seed: 0x6E5D,
        }
    }

    /// A seconds-scale variant for the std-only benchmarks.
    pub fn bench() -> Self {
        Scale {
            horizon_secs: 10.0,
            replications: 1,
            rates: vec![120.0, 200.0],
            root_seed: 0x6E5D,
        }
    }

    /// The horizon as a [`SimTime`].
    pub fn horizon(&self) -> SimTime {
        SimTime::from_secs(self.horizon_secs)
    }

    /// The middle of the rate grid: loaded enough that faults, cuts and
    /// mode switches bite, light enough that the fault-free point is
    /// comfortably feasible. The degradation and fleet studies and the
    /// traced and checkpointed exemplar cells run at it.
    pub fn mid_rate(&self) -> f64 {
        self.rates[self.rates.len() / 2]
    }

    /// This scale restricted to rates at or above `min_rate` (Figs. 7 and
    /// 9a focus on the heavy-load region).
    pub fn rates_from(&self, min_rate: f64) -> Vec<f64> {
        self.rates
            .iter()
            .copied()
            .filter(|&r| r >= min_rate)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        assert_eq!(Scale::full().horizon_secs, 600.0);
        assert!(Scale::quick().horizon_secs < Scale::full().horizon_secs);
        assert!(Scale::bench().horizon_secs < Scale::quick().horizon_secs);
    }

    #[test]
    fn rate_filter() {
        let s = Scale::full();
        let heavy = s.rates_from(170.0);
        assert!(heavy.iter().all(|&r| r >= 170.0));
        assert!(!heavy.is_empty());
    }
}
