//! The declarative fault schedule and its compiled transition stream.

use ge_simcore::{RngStream, SimDuration, SimTime};
use ge_workload::{BoundedPareto, Exponential, Job, JobId, Sampler};

/// One core going offline at `start`, optionally recovering at `end`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreOutage {
    /// Index of the failing core.
    pub core: usize,
    /// Failure instant: queued work on the core is preempted here.
    pub start: SimTime,
    /// Recovery instant, or `None` for a permanent failure.
    pub end: Option<SimTime>,
}

/// A window during which the total power budget `H` is multiplied by
/// `factor < 1`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThrottleWindow {
    /// Throttle onset.
    pub start: SimTime,
    /// Budget restoration instant.
    pub end: SimTime,
    /// Multiplier applied to the nominal budget, in `(0, 1]`.
    pub factor: f64,
}

/// A window during which one core's delivered speed is `factor ×` the
/// requested speed (DVFS actuation error).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DvfsWindow {
    /// Affected core.
    pub core: usize,
    /// Error onset.
    pub start: SimTime,
    /// Error end (actuation back to nominal).
    pub end: SimTime,
    /// Delivered-over-requested speed ratio, in `(0, 2]`.
    pub factor: f64,
}

/// A window of extra Poisson arrivals layered onto the nominal workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SurgeWindow {
    /// Surge onset.
    pub start: SimTime,
    /// Surge end.
    pub end: SimTime,
    /// Additional arrival rate (jobs per second) during the window.
    pub extra_rps: f64,
}

/// A single state change applied by the driver at a scheduled instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultTransition {
    /// The core goes offline; its resident jobs are preempted.
    CoreDown {
        /// Failing core index.
        core: usize,
    },
    /// The core comes back online (empty, at nominal speed).
    CoreUp {
        /// Recovering core index.
        core: usize,
    },
    /// The effective power budget becomes `factor ×` nominal.
    BudgetFactor {
        /// New budget multiplier (1.0 restores nominal).
        factor: f64,
    },
    /// The core's delivered speed becomes `factor ×` the requested speed.
    SpeedFactor {
        /// Affected core index.
        core: usize,
        /// New delivered-over-requested ratio (1.0 restores nominal).
        factor: f64,
    },
}

ge_recover::persist! {
    enum FaultTransition: u8 {
        0 => CoreDown { core },
        1 => CoreUp { core },
        2 => BudgetFactor { factor },
        3 => SpeedFactor { core, factor },
    }
}

/// A [`FaultTransition`] stamped with its activation time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimedTransition {
    /// When the transition takes effect.
    pub at: SimTime,
    /// What changes.
    pub transition: FaultTransition,
}

ge_recover::persist!(TimedTransition { at, transition });

/// A complete, seeded description of every fault injected into one run.
///
/// The schedule is declarative: windows plus a seed. The same schedule
/// always compiles to the same [`TimedTransition`] stream, the same surge
/// jobs, and the same demand estimates, so faulty runs are exactly
/// reproducible.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSchedule {
    seed: u64,
    outages: Vec<CoreOutage>,
    throttles: Vec<ThrottleWindow>,
    dvfs: Vec<DvfsWindow>,
    surges: Vec<SurgeWindow>,
    demand_noise: f64,
}

impl FaultSchedule {
    /// An empty schedule (injects nothing) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultSchedule {
            seed,
            ..FaultSchedule::default()
        }
    }

    /// The root seed for surge/noise derivation.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// `true` if the schedule injects no faults at all.
    pub fn is_empty(&self) -> bool {
        self.outages.is_empty()
            && self.throttles.is_empty()
            && self.dvfs.is_empty()
            && self.surges.is_empty()
            && self.demand_noise == 0.0
    }

    /// Adds a core outage.
    ///
    /// # Panics
    /// Panics if `end` (when given) does not follow `start`.
    pub fn with_outage(mut self, outage: CoreOutage) -> Self {
        if let Some(end) = outage.end {
            assert!(end.after(outage.start), "outage end must follow start");
        }
        self.outages.push(outage);
        self
    }

    /// Adds a budget-throttle window.
    ///
    /// # Panics
    /// Panics if the window is inverted or `factor` is outside `(0, 1]`.
    pub fn with_throttle(mut self, w: ThrottleWindow) -> Self {
        assert!(w.end.after(w.start), "throttle end must follow start");
        assert!(
            w.factor > 0.0 && w.factor <= 1.0,
            "throttle factor must be in (0, 1], got {}",
            w.factor
        );
        self.throttles.push(w);
        self
    }

    /// Adds a DVFS actuation-error window.
    ///
    /// # Panics
    /// Panics if the window is inverted or `factor` is outside `(0, 2]`.
    pub fn with_dvfs(mut self, w: DvfsWindow) -> Self {
        assert!(w.end.after(w.start), "dvfs window end must follow start");
        assert!(
            w.factor > 0.0 && w.factor <= 2.0,
            "dvfs factor must be in (0, 2], got {}",
            w.factor
        );
        self.dvfs.push(w);
        self
    }

    /// Adds an arrival-surge window.
    ///
    /// # Panics
    /// Panics if the window is inverted or the extra rate is not finite
    /// and non-negative.
    pub fn with_surge(mut self, w: SurgeWindow) -> Self {
        assert!(w.end.after(w.start), "surge end must follow start");
        assert!(
            w.extra_rps.is_finite() && w.extra_rps >= 0.0,
            "surge rate must be finite and non-negative"
        );
        self.surges.push(w);
        self
    }

    /// Enables demand-misestimation noise: each job's estimate becomes
    /// `demand × U[1 − amplitude, 1 + amplitude]`.
    ///
    /// # Panics
    /// Panics if `amplitude` is outside `[0, 1)`.
    pub fn with_demand_noise(mut self, amplitude: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&amplitude),
            "noise amplitude must be in [0, 1), got {amplitude}"
        );
        self.demand_noise = amplitude;
        self
    }

    /// The demand-noise amplitude (0 = estimation is exact).
    pub fn demand_noise(&self) -> f64 {
        self.demand_noise
    }

    /// The configured surge windows.
    pub fn surges(&self) -> &[SurgeWindow] {
        &self.surges
    }

    /// This schedule without its workload faults (surge windows and demand
    /// noise): only the machine-side transitions remain, the part a run
    /// over injected jobs — a fleet shard — may carry.
    pub fn machine_faults(&self) -> FaultSchedule {
        FaultSchedule {
            surges: Vec::new(),
            demand_noise: 0.0,
            ..self.clone()
        }
    }

    /// Compiles the windows into a time-sorted transition stream. Ties
    /// preserve insertion order (outages, then throttles, then DVFS).
    pub fn transitions(&self) -> Vec<TimedTransition> {
        let mut out = Vec::new();
        for o in &self.outages {
            out.push(TimedTransition {
                at: o.start,
                transition: FaultTransition::CoreDown { core: o.core },
            });
            if let Some(end) = o.end {
                out.push(TimedTransition {
                    at: end,
                    transition: FaultTransition::CoreUp { core: o.core },
                });
            }
        }
        for w in &self.throttles {
            out.push(TimedTransition {
                at: w.start,
                transition: FaultTransition::BudgetFactor { factor: w.factor },
            });
            out.push(TimedTransition {
                at: w.end,
                transition: FaultTransition::BudgetFactor { factor: 1.0 },
            });
        }
        for w in &self.dvfs {
            out.push(TimedTransition {
                at: w.start,
                transition: FaultTransition::SpeedFactor {
                    core: w.core,
                    factor: w.factor,
                },
            });
            out.push(TimedTransition {
                at: w.end,
                transition: FaultTransition::SpeedFactor {
                    core: w.core,
                    factor: 1.0,
                },
            });
        }
        out.sort_by(|a, b| a.at.total_cmp(&b.at));
        out
    }

    /// Generates the surge jobs, ids starting at `first_id`, sorted by
    /// release. Demands follow the paper's bounded-Pareto distribution and
    /// windows are the paper's fixed 150 ms, so surge traffic is
    /// statistically indistinguishable from nominal traffic.
    pub fn surge_jobs(&self, first_id: u64) -> Vec<Job> {
        let demand_dist = BoundedPareto::paper_default();
        let window = SimDuration::from_millis(150.0);
        let mut jobs: Vec<Job> = Vec::new();
        for (w_idx, w) in self.surges.iter().enumerate() {
            if w.extra_rps <= 0.0 {
                continue;
            }
            let mut rng = RngStream::from_root(self.seed, "faults/surge").substream(w_idx as u64);
            let gap = Exponential::new(w.extra_rps);
            let mut t = w.start;
            loop {
                t += SimDuration::from_secs(gap.sample(&mut rng));
                if !t.before(w.end) {
                    break;
                }
                let demand = demand_dist.sample(&mut rng);
                // Id is provisional; re-assigned densely after the sort.
                jobs.push(Job::new(JobId(0), t, t + window, demand));
            }
        }
        jobs.sort_by(|a, b| a.release.total_cmp(&b.release));
        for (i, j) in jobs.iter_mut().enumerate() {
            j.id = JobId(first_id + i as u64);
        }
        jobs
    }

    /// The scheduler-visible demand estimate for a job: the true demand
    /// perturbed by seeded multiplicative noise (identity when noise is
    /// disabled). Deterministic per `(seed, job_id)`.
    pub fn demand_estimate(&self, job_id: u64, demand: f64) -> f64 {
        if self.demand_noise == 0.0 {
            return demand;
        }
        let mut rng = RngStream::from_root(self.seed, "faults/demand").substream(job_id);
        let factor = 1.0 - self.demand_noise + 2.0 * self.demand_noise * rng.uniform01();
        (demand * factor).max(f64::MIN_POSITIVE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn sample_schedule() -> FaultSchedule {
        FaultSchedule::new(7)
            .with_outage(CoreOutage {
                core: 2,
                start: t(5.0),
                end: Some(t(9.0)),
            })
            .with_throttle(ThrottleWindow {
                start: t(3.0),
                end: t(8.0),
                factor: 0.5,
            })
            .with_dvfs(DvfsWindow {
                core: 0,
                start: t(1.0),
                end: t(4.0),
                factor: 0.8,
            })
            .with_surge(SurgeWindow {
                start: t(2.0),
                end: t(6.0),
                extra_rps: 50.0,
            })
            .with_demand_noise(0.3)
    }

    #[test]
    fn empty_schedule_is_empty() {
        let s = FaultSchedule::new(1);
        assert!(s.is_empty());
        assert!(s.transitions().is_empty());
        assert!(s.surge_jobs(0).is_empty());
        assert_eq!(s.demand_estimate(3, 100.0), 100.0);
    }

    #[test]
    fn transitions_are_time_sorted() {
        let trs = sample_schedule().transitions();
        assert_eq!(trs.len(), 6);
        for w in trs.windows(2) {
            assert!(w[0].at.at_or_before(w[1].at));
        }
        assert_eq!(
            trs[0].transition,
            FaultTransition::SpeedFactor {
                core: 0,
                factor: 0.8
            }
        );
        assert!(matches!(
            trs.last().unwrap().transition,
            FaultTransition::CoreUp { core: 2 }
        ));
    }

    #[test]
    fn surge_jobs_are_deterministic_dense_and_in_window() {
        let s = sample_schedule();
        let a = s.surge_jobs(100);
        let b = s.surge_jobs(100);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        for (i, j) in a.iter().enumerate() {
            assert_eq!(j.id, JobId(100 + i as u64));
            assert!(j.release.at_or_after(t(2.0)) && j.release.before(t(6.0)));
            assert!((130.0..=1000.0).contains(&j.demand));
        }
        // ~50 rps over 4 s => ~200 jobs.
        assert!(a.len() > 120 && a.len() < 300, "{}", a.len());
    }

    #[test]
    fn demand_estimates_are_noisy_bounded_and_deterministic() {
        let s = sample_schedule();
        let mut differs = false;
        for id in 0..200u64 {
            let e = s.demand_estimate(id, 200.0);
            assert_eq!(e, s.demand_estimate(id, 200.0));
            assert!((200.0 * 0.7..=200.0 * 1.3).contains(&e));
            if (e - 200.0).abs() > 1e-9 {
                differs = true;
            }
        }
        assert!(differs);
    }

    #[test]
    #[should_panic]
    fn inverted_throttle_window_panics() {
        let _ = FaultSchedule::new(0).with_throttle(ThrottleWindow {
            start: t(5.0),
            end: t(2.0),
            factor: 0.5,
        });
    }

    #[test]
    #[should_panic]
    fn zero_throttle_factor_panics() {
        let _ = FaultSchedule::new(0).with_throttle(ThrottleWindow {
            start: t(1.0),
            end: t(2.0),
            factor: 0.0,
        });
    }
}
