//! Per-core power-budget distribution: Equal-Sharing and Water-Filling.
//!
//! Paper §III-D: the total dynamic-power budget `H` must be split among the
//! `m` cores each scheduling epoch. The split acts as a per-core power
//! *cap* — a core never consumes more than its plan needs, but it may not
//! exceed its cap even when backlogged.
//!
//! * **Equal-Sharing (ES)** gives every core `H/m`. Under light load this
//!   keeps core speeds close together, avoiding the *speed-thrashing*
//!   energy penalty of the convex power curve.
//! * **Water-Filling (WF)** "satisfies the low demand first and all the
//!   remaining power is used to support heavy-loaded cores": every core
//!   receives `min(demand_i, w)` where the water level `w` solves
//!   `Σ min(demand_i, w) = H` (or covers all demands if `Σ demand ≤ H`, in
//!   which case the surplus is spread evenly as headroom).
//!
//! GE's *hybrid* policy picks ES below the critical load and WF above it;
//! that selection lives in `ge-core` — this module only implements the two
//! mechanisms.

/// Which distribution mechanism to use for an epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PowerDistribution {
    /// Equal share `H/m` per core.
    EqualSharing,
    /// Demand-aware water filling.
    WaterFilling,
}

impl PowerDistribution {
    /// Runs the selected mechanism.
    pub fn distribute(self, demands_w: &[f64], budget_w: f64) -> Vec<f64> {
        match self {
            PowerDistribution::EqualSharing => distribute_equal_sharing(demands_w.len(), budget_w),
            PowerDistribution::WaterFilling => distribute_water_filling(demands_w, budget_w),
        }
    }
}

/// Equal-Sharing: every one of the `cores` caps is `budget / cores`.
///
/// ```
/// use ge_power::distribute_equal_sharing;
/// assert_eq!(distribute_equal_sharing(4, 320.0), vec![80.0; 4]);
/// ```
pub fn distribute_equal_sharing(cores: usize, budget_w: f64) -> Vec<f64> {
    let mut caps = Vec::new();
    distribute_equal_sharing_into(cores, budget_w, &mut caps);
    caps
}

/// [`distribute_equal_sharing`] into a reused buffer (overwritten).
pub fn distribute_equal_sharing_into(cores: usize, budget_w: f64, caps: &mut Vec<f64>) {
    debug_assert!(budget_w >= 0.0);
    caps.clear();
    if cores == 0 {
        return;
    }
    caps.resize(cores, budget_w.max(0.0) / cores as f64);
}

/// Water-Filling: cap core `i` at `min(demand_i, w)` with the water level
/// `w` chosen so the caps sum to the budget. If the total demand fits the
/// budget, every demand is met and the surplus is divided evenly on top as
/// headroom (so unexpected work can still be absorbed, mirroring WF's
/// "remaining power … supports" role in the paper).
///
/// ```
/// use ge_power::distribute_water_filling;
/// // Budget 100 over demands [10, 50, 90]: water level 45 ⇒ [10, 45, 45].
/// let caps = distribute_water_filling(&[10.0, 50.0, 90.0], 100.0);
/// assert!((caps[0] - 10.0).abs() < 1e-9);
/// assert!((caps[1] - 45.0).abs() < 1e-9);
/// assert!((caps[2] - 45.0).abs() < 1e-9);
/// ```
pub fn distribute_water_filling(demands_w: &[f64], budget_w: f64) -> Vec<f64> {
    let mut caps = Vec::new();
    distribute_water_filling_into(demands_w, budget_w, &mut Vec::new(), &mut caps);
    caps
}

/// [`distribute_water_filling`] into reused buffers: `caps` is
/// overwritten with the caps and `sorted` is sort scratch.
pub fn distribute_water_filling_into(
    demands_w: &[f64],
    budget_w: f64,
    sorted: &mut Vec<f64>,
    caps: &mut Vec<f64>,
) {
    caps.clear();
    let n = demands_w.len();
    if n == 0 {
        return;
    }
    debug_assert!(demands_w.iter().all(|&d| d.is_finite() && d >= 0.0));
    let budget = budget_w.max(0.0);
    let total: f64 = demands_w.iter().sum();

    if total <= budget {
        // Demands all met; spread surplus headroom evenly.
        let surplus = (budget - total) / n as f64;
        caps.extend(demands_w.iter().map(|&d| d + surplus));
        return;
    }

    // Find the water level by filling the sorted demands.
    sorted.clear();
    sorted.extend_from_slice(demands_w);
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("demands are finite"));
    let mut used = 0.0;
    let mut level = 0.0;
    for (k, &d) in sorted.iter().enumerate() {
        let rest = (n - k) as f64;
        if used + rest * d >= budget {
            level = (budget - used) / rest;
            break;
        }
        used += d;
        level = d;
    }
    caps.extend(demands_w.iter().map(|&d| d.min(level)));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_sharing_basic() {
        let caps = distribute_equal_sharing(16, 320.0);
        assert_eq!(caps.len(), 16);
        assert!(caps.iter().all(|&c| (c - 20.0).abs() < 1e-12));
    }

    #[test]
    fn equal_sharing_zero_cores() {
        assert!(distribute_equal_sharing(0, 100.0).is_empty());
    }

    #[test]
    fn wf_all_demands_fit_spreads_surplus() {
        let caps = distribute_water_filling(&[10.0, 20.0], 100.0);
        // Surplus 70 split evenly.
        assert!((caps[0] - 45.0).abs() < 1e-9);
        assert!((caps[1] - 55.0).abs() < 1e-9);
        assert!((caps.iter().sum::<f64>() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn wf_constrained_level() {
        let caps = distribute_water_filling(&[10.0, 50.0, 90.0], 100.0);
        assert!((caps[0] - 10.0).abs() < 1e-9);
        assert!((caps[1] - 45.0).abs() < 1e-9);
        assert!((caps[2] - 45.0).abs() < 1e-9);
    }

    #[test]
    fn wf_sum_equals_budget_when_constrained() {
        let demands = [5.0, 40.0, 80.0, 120.0];
        let caps = distribute_water_filling(&demands, 150.0);
        assert!((caps.iter().sum::<f64>() - 150.0).abs() < 1e-9);
        for (c, d) in caps.iter().zip(&demands) {
            assert!(c <= d);
        }
    }

    #[test]
    fn wf_low_demands_fully_satisfied_first() {
        // The paper's rule: low demands are satisfied before high ones.
        let caps = distribute_water_filling(&[1.0, 2.0, 300.0, 300.0], 103.0);
        assert!((caps[0] - 1.0).abs() < 1e-9);
        assert!((caps[1] - 2.0).abs() < 1e-9);
        assert!((caps[2] - 50.0).abs() < 1e-9);
        assert!((caps[3] - 50.0).abs() < 1e-9);
    }

    #[test]
    fn wf_zero_budget() {
        let caps = distribute_water_filling(&[10.0, 20.0], 0.0);
        assert_eq!(caps, vec![0.0, 0.0]);
    }

    #[test]
    fn wf_empty() {
        assert!(distribute_water_filling(&[], 100.0).is_empty());
    }

    #[test]
    fn wf_equal_demands_split_evenly() {
        let caps = distribute_water_filling(&[50.0; 4], 100.0);
        assert!(caps.iter().all(|&c| (c - 25.0).abs() < 1e-9));
    }

    #[test]
    fn dispatch_through_enum() {
        let demands = [10.0, 90.0];
        let es = PowerDistribution::EqualSharing.distribute(&demands, 100.0);
        assert_eq!(es, vec![50.0, 50.0]);
        let wf = PowerDistribution::WaterFilling.distribute(&demands, 100.0);
        assert!((wf[0] - 10.0).abs() < 1e-9);
        assert!((wf[1] - 90.0).abs() < 1e-9);
    }

    #[test]
    fn es_ignores_demand_imbalance_wf_tracks_it() {
        // The qualitative §III-D contrast: under imbalanced demand and a
        // tight budget, ES starves the hot core while WF feeds it.
        let demands = [5.0, 5.0, 5.0, 85.0];
        let budget = 60.0;
        let es = distribute_equal_sharing(4, budget);
        let wf = distribute_water_filling(&demands, budget);
        assert!((es[3] - 15.0).abs() < 1e-9);
        assert!(wf[3] > 40.0, "WF should feed the hot core, got {}", wf[3]);
    }
}

#[cfg(test)]
mod generative_tests {
    use super::*;
    use ge_simcore::RngStream;

    fn random_demands(rng: &mut RngStream, lo: f64, min_n: usize, max_n: usize) -> Vec<f64> {
        let n = min_n + rng.next_below((max_n - min_n) as u64) as usize;
        (0..n).map(|_| rng.uniform_range(lo, 200.0)).collect()
    }

    #[test]
    fn wf_caps_feasible_and_budget_tight() {
        for seed in 0..128u64 {
            let mut rng = RngStream::from_root(seed, "dist/tight");
            let demands = random_demands(&mut rng, 0.0, 1, 32);
            let budget = rng.uniform_range(0.0, 2000.0);
            let caps = distribute_water_filling(&demands, budget);
            let total_caps: f64 = caps.iter().sum();
            let total_demand: f64 = demands.iter().sum();
            // Budget is always fully assigned (caps sum to budget) —
            // either as satisfied demand + headroom, or water-limited.
            assert!((total_caps - budget).abs() < 1e-6);
            assert!(total_caps <= budget + 1e-6);
            if total_demand > budget {
                for (c, d) in caps.iter().zip(&demands) {
                    assert!(*c <= *d + 1e-9);
                }
            }
        }
    }

    #[test]
    fn wf_is_monotone_in_demand_order() {
        // A core with higher demand never gets a lower cap.
        for seed in 0..128u64 {
            let mut rng = RngStream::from_root(seed, "dist/mono");
            let demands = random_demands(&mut rng, 0.0, 2, 32);
            let budget = rng.uniform_range(1.0, 2000.0);
            let caps = distribute_water_filling(&demands, budget);
            for i in 0..demands.len() {
                for j in 0..demands.len() {
                    if demands[i] <= demands[j] {
                        assert!(caps[i] <= caps[j] + 1e-9);
                    }
                }
            }
        }
    }

    #[test]
    fn wf_maximin_property() {
        // Water-filling maximizes the minimum satisfied fraction of the
        // constrained cores: no unsatisfied core sits below the level
        // while another exceeds it.
        for seed in 0..128u64 {
            let mut rng = RngStream::from_root(seed, "dist/maximin");
            let demands = random_demands(&mut rng, 1.0, 2, 16);
            let budget = rng.uniform_range(1.0, 500.0);
            let caps = distribute_water_filling(&demands, budget);
            let total: f64 = demands.iter().sum();
            if total <= budget {
                continue;
            }
            let level = caps
                .iter()
                .zip(&demands)
                .filter(|(c, d)| **c < **d - 1e-9) // constrained cores
                .map(|(c, _)| *c)
                .fold(f64::INFINITY, f64::min);
            if level.is_finite() {
                for c in &caps {
                    assert!(*c <= level + 1e-6);
                }
            }
        }
    }
}
