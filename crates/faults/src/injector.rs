//! The runtime side of fault injection: a cursor over the compiled
//! transition stream plus the current fault state of the machine.

use crate::schedule::{FaultSchedule, FaultTransition, TimedTransition};

/// Tracks which faults are in force as the driver replays a
/// [`FaultSchedule`].
///
/// The driver schedules one simulation event per [`TimedTransition`] and
/// calls [`FaultInjector::apply`] when it fires; the injector is the
/// single source of truth for the current online mask, budget factor, and
/// per-core DVFS error.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    transitions: Vec<TimedTransition>,
    online: Vec<bool>,
    speed_factors: Vec<f64>,
    budget_factor: f64,
}

// The current fault state, one entry per core. The transition stream is
// rebuilt from the schedule on resume, not persisted.
ge_recover::persist!(FaultInjector {
    online,
    speed_factors,
    budget_factor
});

impl FaultInjector {
    /// Compiles the schedule for a machine with `cores` cores.
    ///
    /// # Panics
    /// Panics if any transition references a core index `>= cores`.
    pub fn new(schedule: &FaultSchedule, cores: usize) -> Self {
        let transitions = schedule.transitions();
        for tr in &transitions {
            let core = match tr.transition {
                FaultTransition::CoreDown { core }
                | FaultTransition::CoreUp { core }
                | FaultTransition::SpeedFactor { core, .. } => core,
                FaultTransition::BudgetFactor { .. } => 0,
            };
            assert!(
                core < cores,
                "fault transition references core {core} on a {cores}-core machine"
            );
        }
        FaultInjector {
            transitions,
            online: vec![true; cores],
            speed_factors: vec![1.0; cores],
            budget_factor: 1.0,
        }
    }

    /// The compiled, time-sorted transition stream.
    pub fn transitions(&self) -> &[TimedTransition] {
        &self.transitions
    }

    /// Applies transition `k`, updating the injector state, and returns it.
    ///
    /// # Panics
    /// Panics if `k` is out of range.
    pub fn apply(&mut self, k: usize) -> FaultTransition {
        let tr = self.transitions[k].transition;
        match tr {
            FaultTransition::CoreDown { core } => self.online[core] = false,
            FaultTransition::CoreUp { core } => self.online[core] = true,
            FaultTransition::BudgetFactor { factor } => self.budget_factor = factor,
            FaultTransition::SpeedFactor { core, factor } => self.speed_factors[core] = factor,
        }
        tr
    }

    /// Whether a core is currently online.
    pub fn online(&self, core: usize) -> bool {
        self.online[core]
    }

    /// Number of cores currently online.
    pub fn online_count(&self) -> usize {
        self.online.iter().filter(|&&b| b).count()
    }

    /// The budget multiplier currently in force (1.0 = nominal).
    pub fn budget_factor(&self) -> f64 {
        self.budget_factor
    }

    /// The delivered-over-requested speed ratio on a core (1.0 = nominal).
    pub fn speed_factor(&self, core: usize) -> f64 {
        self.speed_factors[core]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{CoreOutage, DvfsWindow, ThrottleWindow};
    use ge_simcore::SimTime;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn injector_tracks_state_through_the_stream() {
        let schedule = FaultSchedule::new(1)
            .with_outage(CoreOutage {
                core: 1,
                start: t(1.0),
                end: Some(t(3.0)),
            })
            .with_throttle(ThrottleWindow {
                start: t(2.0),
                end: t(4.0),
                factor: 0.6,
            })
            .with_dvfs(DvfsWindow {
                core: 0,
                start: t(2.5),
                end: t(5.0),
                factor: 0.9,
            });
        let mut inj = FaultInjector::new(&schedule, 4);
        assert_eq!(inj.online_count(), 4);
        assert_eq!(inj.budget_factor(), 1.0);

        for k in 0..inj.transitions().len() {
            inj.apply(k);
        }
        // Everything has ended/recovered by the final transition.
        assert_eq!(inj.online_count(), 4);
        assert_eq!(inj.budget_factor(), 1.0);
        assert_eq!(inj.speed_factor(0), 1.0);

        // Replay only up to t=2.5: core 1 down, budget 0.6, dvfs 0.9.
        let mut inj = FaultInjector::new(&schedule, 4);
        for k in 0..inj.transitions().len() {
            if inj.transitions()[k].at.at_or_before(t(2.5)) {
                inj.apply(k);
            }
        }
        assert!(!inj.online(1));
        assert_eq!(inj.online_count(), 3);
        assert_eq!(inj.budget_factor(), 0.6);
        assert_eq!(inj.speed_factor(0), 0.9);
    }

    #[test]
    #[should_panic]
    fn out_of_range_core_panics() {
        let schedule = FaultSchedule::new(1).with_outage(CoreOutage {
            core: 9,
            start: t(1.0),
            end: None,
        });
        let _ = FaultInjector::new(&schedule, 4);
    }
}
