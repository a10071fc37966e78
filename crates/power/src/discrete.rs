//! Discrete DVFS speed steps and budget-aware rectification.
//!
//! Paper §IV-A-5 / §IV-G-4: real cores cannot run at arbitrary speeds. To
//! support discrete speed scaling, "after performing the WF power
//! distribution and starting from the core with the lowest assigned power,
//! we rectify the speed to a discrete value closest to but no smaller than
//! the chosen speed, subject to the total power budget. If … the power
//! budget cannot support such a discrete speed, we … select the next lower
//! discrete speed."

use crate::model::PowerModel;

/// An ordered set of allowed core speeds (GHz).
#[derive(Debug, Clone)]
pub struct DiscreteSpeedSet {
    steps: Vec<f64>,
}

ge_recover::persist! {
    DiscreteSpeedSet { steps as Resized }
    check |d| {
        let step = |&s: &f64| ge_recover::persist::non_negative(s);
        !d.steps.is_empty() && d.steps.iter().all(step) && d.steps.windows(2).all(|w| w[0] < w[1])
    } => "malformed speed set";
}

impl DiscreteSpeedSet {
    /// Creates a speed set; the steps are sorted and deduplicated.
    ///
    /// # Panics
    /// Panics if `steps` is empty or contains non-finite/negative values.
    pub fn new(mut steps: Vec<f64>) -> Self {
        assert!(!steps.is_empty(), "speed set must be non-empty");
        assert!(
            steps.iter().all(|s| s.is_finite() && *s >= 0.0),
            "speeds must be finite and non-negative"
        );
        steps.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        steps.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
        DiscreteSpeedSet { steps }
    }

    /// A typical DVFS ladder for the paper's platform: 0 to 8 GHz in
    /// 0.5 GHz steps (8 GHz is the speed a single core could reach if the
    /// whole 320 W budget were devoted to it: `√(320/5) = 8`).
    pub fn paper_default() -> Self {
        Self::new((0..=16).map(|i| i as f64 * 0.5).collect())
    }

    /// The sorted steps.
    pub fn steps(&self) -> &[f64] {
        &self.steps
    }

    /// Smallest step `≥ speed`, or `None` if `speed` exceeds the top step.
    pub fn round_up(&self, speed: f64) -> Option<f64> {
        self.steps.iter().copied().find(|&s| s >= speed - 1e-12)
    }

    /// Largest step `≤ speed` (the bottom step if `speed` is below it).
    pub fn round_down(&self, speed: f64) -> f64 {
        self.steps
            .iter()
            .rev()
            .copied()
            .find(|&s| s <= speed + 1e-12)
            .unwrap_or(self.steps[0])
    }

    /// The fastest available step.
    pub fn max_speed(&self) -> f64 {
        *self.steps.last().expect("non-empty by construction")
    }

    /// The paper's rectification pass.
    ///
    /// Takes the continuous per-core speeds chosen by the power
    /// distribution (ES or WF), visits cores **from the lowest assigned
    /// power upward**, and rounds each speed up to the nearest discrete
    /// step if the remaining budget allows — otherwise down. Returns the
    /// rectified speeds (same order as the input).
    pub fn rectify(
        &self,
        chosen_speeds: &[f64],
        model: &dyn PowerModel,
        budget_w: f64,
    ) -> Vec<f64> {
        let n = chosen_speeds.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            chosen_speeds[a]
                .partial_cmp(&chosen_speeds[b])
                .expect("finite speeds")
        });

        let mut result = vec![0.0; n];
        let mut spent = 0.0;
        for (rank, &i) in order.iter().enumerate() {
            let want_up = self.round_up(chosen_speeds[i]).unwrap_or(self.max_speed());
            // Power the remaining (slower-first ordering ⇒ later cores are
            // the hungrier ones) cores would need at minimum: reserve the
            // round-down power for each so the last cores are never left
            // with nothing.
            let reserve: f64 = order[rank + 1..]
                .iter()
                .map(|&j| model.power(self.round_down(chosen_speeds[j])))
                .sum();
            let up_cost = model.power(want_up);
            if spent + up_cost + reserve <= budget_w + 1e-9 {
                result[i] = want_up;
                spent += up_cost;
            } else {
                let down = self.round_down(chosen_speeds[i]);
                result[i] = down;
                spent += model.power(down);
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{PolynomialPower, PowerModel};

    fn set() -> DiscreteSpeedSet {
        DiscreteSpeedSet::new(vec![0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0])
    }

    #[test]
    fn rounding() {
        let s = set();
        assert_eq!(s.round_up(1.2), Some(1.5));
        assert_eq!(s.round_up(1.5), Some(1.5));
        assert_eq!(s.round_up(9.0), None);
        assert_eq!(s.round_down(1.2), 1.0);
        assert_eq!(s.round_down(0.2), 0.0);
        assert_eq!(s.round_down(99.0), 4.0);
    }

    #[test]
    fn paper_default_ladder() {
        let s = DiscreteSpeedSet::paper_default();
        assert_eq!(s.max_speed(), 8.0);
        assert_eq!(s.steps().len(), 17);
    }

    #[test]
    fn construction_sorts_and_dedups() {
        let s = DiscreteSpeedSet::new(vec![2.0, 1.0, 2.0, 0.5]);
        assert_eq!(s.steps(), &[0.5, 1.0, 2.0]);
    }

    #[test]
    #[should_panic]
    fn empty_set_panics() {
        let _ = DiscreteSpeedSet::new(vec![]);
    }

    #[test]
    fn rectify_rounds_up_when_budget_allows() {
        let s = set();
        let m = PolynomialPower::paper_default();
        // Two cores at 1.2 GHz; generous budget → both round up to 1.5.
        let out = s.rectify(&[1.2, 1.2], &m, 1000.0);
        assert_eq!(out, vec![1.5, 1.5]);
    }

    #[test]
    fn rectify_falls_back_down_when_budget_tight() {
        let s = set();
        let m = PolynomialPower::paper_default();
        // Power at 1.5 GHz is 11.25 W; at 1.0 GHz it is 5 W. Budget for
        // exactly one round-up plus one round-down: 16.25 W.
        let out = s.rectify(&[1.2, 1.2], &m, 16.5);
        let ups = out.iter().filter(|&&v| (v - 1.5).abs() < 1e-9).count();
        let downs = out.iter().filter(|&&v| (v - 1.0).abs() < 1e-9).count();
        assert_eq!((ups, downs), (1, 1), "got {out:?}");
    }

    #[test]
    fn rectify_total_power_within_budget() {
        let s = DiscreteSpeedSet::paper_default();
        let m = PolynomialPower::paper_default();
        let speeds = [2.1, 1.9, 2.3, 0.7, 3.2, 2.0];
        let budget = 150.0;
        let out = s.rectify(&speeds, &m, budget);
        let spent: f64 = out.iter().map(|&v| m.power(v)).sum();
        assert!(
            spent <= budget + 1e-6,
            "rectified power {spent} exceeds budget {budget}"
        );
    }

    #[test]
    fn rectify_visits_lowest_power_first() {
        // With a budget that only allows one round-up, the *lowest* core
        // gets it (paper: "starting from the core with the lowest assigned
        // power").
        let s = set();
        let m = PolynomialPower::paper_default();
        // Cores at 0.7 and 2.2. Round-ups: 1.0 (5 W) and 2.5 (31.25 W);
        // round-downs: 0.5 (1.25 W) and 2.0 (20 W).
        // Budget 25.5: low core rounds up (5 W), reserve for high core's
        // round-down is 20 W → 25 ≤ 25.5 OK; high core then cannot afford
        // 31.25, rounds down to 2.0.
        let out = s.rectify(&[0.7, 2.2], &m, 25.5);
        assert_eq!(out, vec![1.0, 2.0]);
    }

    #[test]
    fn rectify_empty() {
        let s = set();
        let m = PolynomialPower::paper_default();
        assert!(s.rectify(&[], &m, 100.0).is_empty());
    }

    #[test]
    fn rectify_preserves_order_mapping() {
        let s = set();
        let m = PolynomialPower::paper_default();
        let out = s.rectify(&[3.7, 0.2, 1.1], &m, 1e6);
        assert_eq!(out, vec![4.0, 0.5, 1.5]);
    }
}

#[cfg(test)]
mod generative_tests {
    use super::*;
    use crate::model::{PolynomialPower, PowerModel};
    use ge_simcore::RngStream;

    #[test]
    fn rectified_power_never_exceeds_generous_budget() {
        let s = DiscreteSpeedSet::paper_default();
        let m = PolynomialPower::paper_default();
        for seed in 0..128u64 {
            let mut rng = RngStream::from_root(seed, "discrete/budget");
            let n = 1 + rng.next_below(19) as usize;
            let speeds: Vec<f64> = (0..n).map(|_| rng.uniform_range(0.0, 4.0)).collect();
            let budget = rng.uniform_range(100.0, 4000.0);
            let out = s.rectify(&speeds, &m, budget);
            let spent: f64 = out.iter().map(|&v| m.power(v)).sum();
            // Whenever the continuous plan itself fits the budget, the
            // rectified plan must too (rectification can only spend the
            // slack it verified).
            let continuous: f64 = speeds.iter().map(|&v| m.power(v)).sum();
            if continuous <= budget {
                assert!(spent <= budget + 1e-6);
            }
            // And every speed is a valid step.
            for v in &out {
                assert!(s.steps().iter().any(|&st| (st - v).abs() < 1e-9));
            }
        }
    }

    #[test]
    fn rectified_speed_close_to_chosen() {
        // With an unlimited budget every speed rounds up to the next
        // step — never more than one step away.
        let s = DiscreteSpeedSet::paper_default();
        let m = PolynomialPower::paper_default();
        for seed in 0..128u64 {
            let mut rng = RngStream::from_root(seed, "discrete/close");
            let n = 1 + rng.next_below(19) as usize;
            let speeds: Vec<f64> = (0..n).map(|_| rng.uniform_range(0.0, 4.0)).collect();
            let out = s.rectify(&speeds, &m, 1e9);
            for (chosen, got) in speeds.iter().zip(&out) {
                assert!(*got >= *chosen - 1e-9);
                assert!(*got - *chosen <= 0.5 + 1e-9);
            }
        }
    }
}
