//! The scheduling-policy interface and the algorithm catalogue.

use ge_quality::{ExpConcave, QualityLedger};
use ge_server::{CoreJob, Server};
use ge_simcore::SimTime;
use ge_trace::TraceSink;
use ge_workload::Job;

use crate::baselines::queue_policies::{QueuePolicy, QueueScheduler};
use crate::config::{PowerPolicy, SimConfig};
use crate::ge::{GeOptions, GeScheduler};

/// Mode tag for AES (Aggressive Energy Saving) in the mode tracker.
pub const MODE_AES: usize = 0;
/// Mode tag for BQ (Best Quality) in the mode tracker.
pub const MODE_BQ: usize = 1;

/// Which driver events invoke the policy's batch scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TriggerSet {
    /// Run on the periodic quantum tick.
    pub quantum: bool,
    /// Run when the waiting queue reaches the counter threshold.
    pub counter: bool,
    /// Run when a core goes idle (or a job arrives while one is idle).
    pub idle_core: bool,
}

impl TriggerSet {
    /// The GE family: all three triggers (paper §III-E).
    pub fn batch() -> Self {
        TriggerSet {
            quantum: true,
            counter: true,
            idle_core: true,
        }
    }

    /// The single-job queue policies: idle-core only (paper §IV-A-1).
    pub fn idle_only() -> Self {
        TriggerSet {
            quantum: false,
            counter: false,
            idle_core: true,
        }
    }
}

/// Everything a policy sees when a trigger fires.
pub struct ScheduleCtx<'a> {
    /// Current simulated time.
    pub now: SimTime,
    /// The multicore server (assign jobs, install plans).
    pub server: &'a mut Server,
    /// Arrived-but-unassigned jobs, in arrival order.
    pub queue: &'a mut Vec<Job>,
    /// The online quality monitor (read-only for policies).
    pub ledger: &'a QualityLedger,
    /// The quality function in force.
    pub quality_fn: &'a ExpConcave,
    /// The driver's arrival-rate estimate (requests per second).
    pub load_estimate_rps: f64,
    /// Fraction of the nominal power budget currently available (1.0 =
    /// unthrottled). Policies must plan against `budget × factor`.
    pub budget_factor: f64,
    /// Jobs preempted off failed cores, awaiting re-homing. Policies that
    /// can migrate work drain this; whatever remains at a deadline is
    /// accounted as partially served by the driver.
    pub orphans: &'a mut Vec<CoreJob>,
    /// Jobs the policy rejected this epoch under the `Q_min` admission
    /// floor. The driver discards them and records the shed.
    pub shed: &'a mut Vec<Job>,
    /// Where the policy emits structured decision events.
    pub sink: &'a mut dyn TraceSink,
}

/// A scheduling policy: invoked by the driver at trigger events.
///
/// `Send` is required so an engine + scheduler pair can live behind a
/// mutex shared across serving threads (`ge-serve`); policies are plain
/// data and satisfy it trivially.
///
/// Its [`Persist`](ge_recover::Persist) impl declares every piece of state
/// that must survive a checkpoint for the policy to continue bit-exactly:
/// cross-epoch counters, cursors and caches. Per-epoch scratch rebuilt
/// from the `ScheduleCtx` each epoch is not persisted; a checkpoint
/// decodes into a freshly built scheduler of the same algorithm and
/// configuration.
pub trait Scheduler: Send + ge_recover::Persist {
    /// Human-readable label used in results and tables.
    fn name(&self) -> &str;

    /// Which events invoke [`Scheduler::on_schedule`].
    fn triggers(&self) -> TriggerSet;

    /// One scheduling epoch: drain/assign queued jobs, adjust targets,
    /// distribute power, install per-core plans.
    fn on_schedule(&mut self, ctx: &mut ScheduleCtx<'_>);

    /// The policy's current execution mode ([`MODE_AES`] or [`MODE_BQ`])
    /// for residency tracking. Best-effort policies report BQ.
    fn current_mode(&self) -> usize {
        MODE_BQ
    }
}

/// The catalogue of algorithms evaluated in the paper (§IV-A-1, §IV-F)
/// plus the GE ablations used by Figs. 5–7 and 12.
#[derive(Debug, Clone, PartialEq)]
pub enum Algorithm {
    /// The paper's contribution: AES/BQ with compensation, hybrid ES/WF.
    Ge,
    /// GE without the compensation policy (Fig. 5 ablation).
    GeNoComp,
    /// GE forced to Equal-Sharing (Fig. 6/7 ablation).
    GeEsOnly,
    /// GE forced to Water-Filling (Fig. 6/7 ablation).
    GeWfOnly,
    /// GE with plain (cursor-resetting) Round-Robin assignment instead of
    /// C-RR (assignment ablation).
    GeRr,
    /// Over-Qualified: target `Q_GE + 2%`, no compensation (§IV-A-1).
    Oq,
    /// Best Effort: BQ always, WF always (§IV-A-1).
    Be,
    /// Power-control: BE under a reduced budget (§IV-F). The budget is
    /// calibrated offline to just meet `Q_GE`.
    BeP {
        /// The reduced total power budget (watts).
        budget_w: f64,
    },
    /// Speed-control: BE under a per-core speed cap (§IV-F), calibrated
    /// offline to just meet `Q_GE`.
    BeS {
        /// The per-core maximum speed (GHz).
        speed_cap_ghz: f64,
    },
    /// First-Come First-Served single-job policy.
    Fcfs,
    /// First-Deadline First-Served single-job policy (Fig. 4).
    Fdfs,
    /// Longest-Job-First single-job policy.
    Ljf,
    /// Shortest-Job-First single-job policy.
    Sjf,
}

impl Algorithm {
    /// The label used in result tables (matches the paper's legends).
    pub fn label(&self) -> &'static str {
        match self {
            Algorithm::Ge => "GE",
            Algorithm::GeNoComp => "GE-NoComp",
            Algorithm::GeEsOnly => "GE-ES",
            Algorithm::GeWfOnly => "GE-WF",
            Algorithm::GeRr => "GE-RR",
            Algorithm::Oq => "OQ",
            Algorithm::Be => "BE",
            Algorithm::BeP { .. } => "BE-P",
            Algorithm::BeS { .. } => "BE-S",
            Algorithm::Fcfs => "FCFS",
            Algorithm::Fdfs => "FDFS",
            Algorithm::Ljf => "LJF",
            Algorithm::Sjf => "SJF",
        }
    }

    /// Builds a fresh scheduler instance for one run.
    pub fn build(&self, cfg: &SimConfig) -> Box<dyn Scheduler> {
        match self {
            Algorithm::Ge => Box::new(GeScheduler::new(cfg, GeOptions::paper())),
            Algorithm::GeNoComp => Box::new(GeScheduler::new(
                cfg,
                GeOptions {
                    label: "GE-NoComp",
                    compensation: false,
                    ..GeOptions::paper()
                },
            )),
            Algorithm::GeEsOnly => Box::new(GeScheduler::new(
                cfg,
                GeOptions {
                    label: "GE-ES",
                    power_policy: PowerPolicy::EqualSharingOnly,
                    ..GeOptions::paper()
                },
            )),
            Algorithm::GeWfOnly => Box::new(GeScheduler::new(
                cfg,
                GeOptions {
                    label: "GE-WF",
                    power_policy: PowerPolicy::WaterFillingOnly,
                    ..GeOptions::paper()
                },
            )),
            Algorithm::GeRr => Box::new(GeScheduler::new(
                cfg,
                GeOptions {
                    label: "GE-RR",
                    plain_rr: true,
                    ..GeOptions::paper()
                },
            )),
            Algorithm::Oq => Box::new(GeScheduler::new(
                cfg,
                GeOptions {
                    label: "OQ",
                    target_quality_offset: 0.02,
                    compensation: false,
                    ..GeOptions::paper()
                },
            )),
            Algorithm::Be => Box::new(GeScheduler::new(cfg, GeOptions::best_effort())),
            Algorithm::BeP { budget_w } => Box::new(GeScheduler::new(
                cfg,
                GeOptions {
                    label: "BE-P",
                    budget_override_w: Some(*budget_w),
                    ..GeOptions::best_effort()
                },
            )),
            Algorithm::BeS { speed_cap_ghz } => Box::new(GeScheduler::new(
                cfg,
                GeOptions {
                    label: "BE-S",
                    speed_cap_ghz: Some(*speed_cap_ghz),
                    ..GeOptions::best_effort()
                },
            )),
            Algorithm::Fcfs => Box::new(QueueScheduler::new(cfg, QueuePolicy::Fcfs)),
            Algorithm::Fdfs => Box::new(QueueScheduler::new(cfg, QueuePolicy::Fdfs)),
            Algorithm::Ljf => Box::new(QueueScheduler::new(cfg, QueuePolicy::Ljf)),
            Algorithm::Sjf => Box::new(QueueScheduler::new(cfg, QueuePolicy::Sjf)),
        }
    }

    /// The six algorithms of Fig. 3 (fixed deadline windows).
    pub fn fig3_set() -> Vec<Algorithm> {
        vec![
            Algorithm::Ge,
            Algorithm::Oq,
            Algorithm::Be,
            Algorithm::Fcfs,
            Algorithm::Ljf,
            Algorithm::Sjf,
        ]
    }

    /// Every algorithm the differential-testing oracle fans out over: GE,
    /// its forced-mode ablations, and all queue baselines. BE-P/BE-S are
    /// excluded because their knobs are sweep-calibrated per workload, not
    /// meaningful on arbitrary tiny instances.
    pub fn differential_set() -> Vec<Algorithm> {
        vec![
            Algorithm::Ge,
            Algorithm::GeNoComp,
            Algorithm::GeEsOnly,
            Algorithm::GeWfOnly,
            Algorithm::GeRr,
            Algorithm::Oq,
            Algorithm::Be,
            Algorithm::Fcfs,
            Algorithm::Fdfs,
            Algorithm::Ljf,
            Algorithm::Sjf,
        ]
    }

    /// The seven algorithms of Fig. 4 (random deadline windows).
    pub fn fig4_set() -> Vec<Algorithm> {
        vec![
            Algorithm::Ge,
            Algorithm::Oq,
            Algorithm::Be,
            Algorithm::Fcfs,
            Algorithm::Fdfs,
            Algorithm::Ljf,
            Algorithm::Sjf,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(Algorithm::Ge.label(), "GE");
        assert_eq!(Algorithm::BeP { budget_w: 100.0 }.label(), "BE-P");
        assert_eq!(Algorithm::Sjf.label(), "SJF");
    }

    #[test]
    fn builds_every_algorithm() {
        let cfg = SimConfig::paper_default();
        for alg in [
            Algorithm::Ge,
            Algorithm::GeNoComp,
            Algorithm::GeEsOnly,
            Algorithm::GeWfOnly,
            Algorithm::GeRr,
            Algorithm::Oq,
            Algorithm::Be,
            Algorithm::BeP { budget_w: 200.0 },
            Algorithm::BeS { speed_cap_ghz: 1.8 },
            Algorithm::Fcfs,
            Algorithm::Fdfs,
            Algorithm::Ljf,
            Algorithm::Sjf,
        ] {
            let s = alg.build(&cfg);
            assert!(!s.name().is_empty());
        }
    }

    #[test]
    fn figure_sets() {
        assert_eq!(Algorithm::fig3_set().len(), 6);
        assert_eq!(Algorithm::fig4_set().len(), 7);
        assert!(Algorithm::fig4_set().contains(&Algorithm::Fdfs));
        assert!(!Algorithm::fig3_set().contains(&Algorithm::Fdfs));
    }

    #[test]
    fn differential_set_has_no_calibrated_variants() {
        let set = Algorithm::differential_set();
        assert_eq!(set.len(), 11);
        assert!(set
            .iter()
            .all(|a| !matches!(a, Algorithm::BeP { .. } | Algorithm::BeS { .. })));
        // Every member must build against the paper config.
        let cfg = SimConfig::paper_default();
        for alg in &set {
            let _ = alg.build(&cfg);
        }
    }

    #[test]
    fn trigger_sets() {
        let b = TriggerSet::batch();
        assert!(b.quantum && b.counter && b.idle_core);
        let i = TriggerSet::idle_only();
        assert!(!i.quantum && !i.counter && i.idle_core);
    }

    #[test]
    fn ge_uses_batch_triggers_queue_policies_idle_only() {
        let cfg = SimConfig::paper_default();
        assert_eq!(Algorithm::Ge.build(&cfg).triggers(), TriggerSet::batch());
        assert_eq!(
            Algorithm::Fcfs.build(&cfg).triggers(),
            TriggerSet::idle_only()
        );
    }
}
