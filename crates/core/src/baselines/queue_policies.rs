//! The single-job queue disciplines: FCFS, FDFS, LJF, SJF.
//!
//! Paper §IV-A-1: "The other four algorithms are triggered whenever a core
//! becomes idle, and a job in the waiting queue (with the earliest release
//! time in FCFS, the earliest deadline in FDFS, the largest service demand
//! in LJF, and the smallest service demand in SJF) is assigned to the
//! core. The default power distribution policy for all four algorithms is
//! ES. The job is executed with the slowest possible speed to finish
//! before deadline … if the power supplied to the core is not enough to
//! complete the job, the job will be executed with the highest available
//! speed till the deadline."

use ge_power::{PolynomialPower, PowerModel, SpeedProfile};
use ge_trace::TraceEvent;

use crate::config::SimConfig;
use crate::policy::{ScheduleCtx, Scheduler, TriggerSet};

/// Which job the idle core takes from the waiting queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueuePolicy {
    /// Earliest release time first.
    Fcfs,
    /// Earliest deadline first.
    Fdfs,
    /// Largest service demand first.
    Ljf,
    /// Smallest service demand first.
    Sjf,
}

impl QueuePolicy {
    /// Label matching the paper's legends.
    pub fn label(self) -> &'static str {
        match self {
            QueuePolicy::Fcfs => "FCFS",
            QueuePolicy::Fdfs => "FDFS",
            QueuePolicy::Ljf => "LJF",
            QueuePolicy::Sjf => "SJF",
        }
    }

    /// Index of the chosen job in `queue` (`None` when empty).
    fn pick(self, queue: &[ge_workload::Job]) -> Option<usize> {
        if queue.is_empty() {
            return None;
        }
        let idx = match self {
            // The driver keeps the queue in arrival order.
            QueuePolicy::Fcfs => 0,
            QueuePolicy::Fdfs => queue
                .iter()
                .enumerate()
                .min_by(|a, b| {
                    a.1.deadline
                        .total_cmp(&b.1.deadline)
                        .then(a.1.id.cmp(&b.1.id))
                })
                .map(|(i, _)| i)
                .expect("non-empty"),
            // `total_cmp`, not `partial_cmp().expect(..)`: a NaN demand
            // (corrupt trace, bad estimator) must not panic the scheduler
            // mid-run. Under the IEEE total order NaN sorts above every
            // number, giving a deterministic (if arbitrary) pick.
            QueuePolicy::Ljf => queue
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.demand.total_cmp(&b.1.demand).then(b.1.id.cmp(&a.1.id)))
                .map(|(i, _)| i)
                .expect("non-empty"),
            QueuePolicy::Sjf => queue
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.demand.total_cmp(&b.1.demand).then(a.1.id.cmp(&b.1.id)))
                .map(|(i, _)| i)
                .expect("non-empty"),
        };
        Some(idx)
    }
}

/// A scheduler dispatching one queued job per idle core under ES power.
pub struct QueueScheduler {
    policy: QueuePolicy,
    share_w: f64,
    model: PolynomialPower,
    units_per_ghz_sec: f64,
    epochs: u64,
    // Per-epoch scratch, owned to keep the replan path allocation-free.
    idle_scratch: Vec<usize>,
    orphan_scratch: Vec<ge_server::CoreJob>,
}

// The only cross-epoch state is the epoch counter; both scratch vectors
// are cleared and refilled from the `ScheduleCtx` each epoch.
ge_recover::persist!(QueueScheduler { epochs });

impl QueueScheduler {
    /// Creates the scheduler for the given platform configuration.
    pub fn new(cfg: &SimConfig, policy: QueuePolicy) -> Self {
        cfg.validate();
        QueueScheduler {
            policy,
            share_w: cfg.equal_share_w(),
            model: PolynomialPower::new(cfg.power_a, cfg.power_beta),
            units_per_ghz_sec: cfg.units_per_ghz_sec,
            epochs: 0,
            idle_scratch: Vec::new(),
            orphan_scratch: Vec::new(),
        }
    }

    /// Number of epochs run.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }
}

impl Scheduler for QueueScheduler {
    fn name(&self) -> &str {
        self.policy.label()
    }

    fn triggers(&self) -> TriggerSet {
        TriggerSet::idle_only()
    }

    fn on_schedule(&mut self, ctx: &mut ScheduleCtx<'_>) {
        let _span = ge_telemetry::SpanGuard::enter_sampled("queue_dispatch");
        self.epochs += 1;
        // Under a throttled budget the ES share shrinks with it.
        let share_w = self.share_w * ctx.budget_factor;
        let s_cap = self.model.speed_for_power(share_w);

        // Idle online cores, collected once: every action below only ever
        // makes cores busy, so the set cannot grow mid-epoch. Consumed in
        // ascending index order (the same order the old per-iteration
        // rescan would have found them), via a cursor — a core is consumed
        // only when a job actually lands on it.
        let mut idle = std::mem::take(&mut self.idle_scratch);
        idle.clear();
        idle.extend(
            (0..ctx.server.core_count())
                .filter(|&i| ctx.server.core(i).is_idle() && ctx.server.core(i).is_online()),
        );
        let mut next_idle = 0usize;

        // Re-home jobs preempted off failed cores first: each takes an
        // idle online core and resumes toward its remaining estimate at
        // the slowest feasible speed, like any other dispatch. Incoming
        // orphans are swapped into owned scratch so unplaced ones can be
        // pushed straight back in order, allocation-free.
        let mut orphans = std::mem::take(&mut self.orphan_scratch);
        std::mem::swap(ctx.orphans, &mut orphans);
        for job in orphans.drain(..) {
            let window = job.deadline.saturating_since(ctx.now);
            match idle.get(next_idle) {
                Some(&core_idx) if !window.is_negligible() => {
                    next_idle += 1;
                    let needed = job.remaining() / (window.as_secs() * self.units_per_ghz_sec);
                    let speed = needed.min(s_cap);
                    let (id, deadline) = (job.id, job.deadline);
                    let core = ctx.server.core_mut(core_idx);
                    core.adopt(job);
                    core.install_plan(SpeedProfile::constant(ctx.now, deadline, speed), share_w);
                    if ctx.sink.is_enabled() {
                        ctx.sink.record(&TraceEvent::JobAssigned {
                            t: ctx.now.as_secs(),
                            job: id.index() as u64,
                            core: core_idx as u64,
                        });
                    }
                }
                _ => ctx.orphans.push(job),
            }
        }
        self.orphan_scratch = orphans;

        while let Some(&core_idx) = idle.get(next_idle) {
            let Some(job_idx) = self.policy.pick(ctx.queue) else {
                break;
            };
            let job = ctx.queue.remove(job_idx);
            let window = job.deadline.saturating_since(ctx.now);
            if window.is_negligible() {
                // Too late to serve: expired in queue (driver accounting
                // happens via the core reaping it immediately). The idle
                // core is not consumed.
                continue;
            }
            next_idle += 1;
            // Slowest speed that finishes by the deadline (as far as the
            // scheduler's demand estimate knows), capped at what the ES
            // power share sustains.
            let needed = job.estimate / (window.as_secs() * self.units_per_ghz_sec);
            let speed = needed.min(s_cap);
            let core = ctx.server.core_mut(core_idx);
            core.assign(&job);
            // Run from now until the deadline at the chosen speed; the
            // engine stops billing once the job completes.
            let profile = SpeedProfile::constant(ctx.now, job.deadline, speed);
            core.install_plan(profile, share_w);
            if ctx.sink.is_enabled() {
                ctx.sink.record(&TraceEvent::JobAssigned {
                    t: ctx.now.as_secs(),
                    job: job.id.index() as u64,
                    core: core_idx as u64,
                });
                ctx.sink.record(&TraceEvent::SpeedSegment {
                    t: ctx.now.as_secs(),
                    core: core_idx as u64,
                    start_s: ctx.now.as_secs(),
                    end_s: job.deadline.as_secs(),
                    speed_ghz: speed,
                });
            }
        }
        self.idle_scratch = idle;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ge_quality::{ExpConcave, QualityLedger};
    use ge_server::Server;
    use ge_simcore::SimTime;
    use ge_workload::{Job, JobId};

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn cfg() -> SimConfig {
        SimConfig {
            cores: 2,
            budget_w: 40.0,
            ..SimConfig::paper_default()
        }
    }

    fn job(id: u64, release: f64, deadline: f64, demand: f64) -> Job {
        Job::new(JobId(id), t(release), t(deadline), demand)
    }

    fn run_one_epoch(
        policy: QueuePolicy,
        queue_jobs: Vec<Job>,
        now: f64,
    ) -> (Server, Vec<Job>, QueueScheduler) {
        let c = cfg();
        let mut s = QueueScheduler::new(&c, policy);
        let mut server = Server::new(
            c.cores,
            Box::new(PolynomialPower::new(c.power_a, c.power_beta)),
            c.budget_w,
            c.units_per_ghz_sec,
        );
        let mut queue = queue_jobs;
        let ledger = QualityLedger::cumulative();
        let f = ExpConcave::new(c.quality_c, c.quality_xmax);
        {
            let mut ctx = ScheduleCtx {
                now: t(now),
                server: &mut server,
                queue: &mut queue,
                ledger: &ledger,
                quality_fn: &f,
                load_estimate_rps: 100.0,
                budget_factor: 1.0,
                orphans: &mut Vec::new(),
                shed: &mut Vec::new(),
                sink: &mut ge_trace::NullSink,
            };
            s.on_schedule(&mut ctx);
        }
        (server, queue, s)
    }

    #[test]
    fn fcfs_takes_head_of_queue() {
        let (server, queue, _) = run_one_epoch(
            QueuePolicy::Fcfs,
            vec![
                job(0, 0.00, 0.15, 200.0),
                job(1, 0.01, 0.16, 300.0),
                job(2, 0.02, 0.17, 100.0),
            ],
            0.02,
        );
        // Two idle cores take jobs 0 and 1; job 2 waits.
        assert_eq!(server.core(0).jobs()[0].id, JobId(0));
        assert_eq!(server.core(1).jobs()[0].id, JobId(1));
        assert_eq!(queue.len(), 1);
        assert_eq!(queue[0].id, JobId(2));
    }

    #[test]
    fn fdfs_takes_earliest_deadline() {
        let (server, _, _) = run_one_epoch(
            QueuePolicy::Fdfs,
            vec![
                job(0, 0.0, 0.50, 200.0),
                job(1, 0.0, 0.20, 300.0), // earliest deadline
                job(2, 0.0, 0.30, 100.0),
            ],
            0.0,
        );
        assert_eq!(server.core(0).jobs()[0].id, JobId(1));
        assert_eq!(server.core(1).jobs()[0].id, JobId(2));
    }

    #[test]
    fn ljf_and_sjf_order_by_demand() {
        let jobs = vec![
            job(0, 0.0, 0.15, 200.0),
            job(1, 0.0, 0.15, 900.0), // longest
            job(2, 0.0, 0.15, 130.0), // shortest
        ];
        let (server, _, _) = run_one_epoch(QueuePolicy::Ljf, jobs.clone(), 0.0);
        assert_eq!(server.core(0).jobs()[0].id, JobId(1));
        let (server, _, _) = run_one_epoch(QueuePolicy::Sjf, jobs, 0.0);
        assert_eq!(server.core(0).jobs()[0].id, JobId(2));
    }

    #[test]
    fn slowest_feasible_speed_is_used() {
        // 150 units in 150 ms needs exactly 1 GHz (< 2 GHz cap).
        let (server, _, _) = run_one_epoch(QueuePolicy::Fcfs, vec![job(0, 0.0, 0.15, 150.0)], 0.0);
        let speed = server.core(0).profile().max_speed();
        assert!((speed - 1.0).abs() < 1e-9, "expected 1 GHz, got {speed}");
    }

    #[test]
    fn power_starved_job_runs_at_cap() {
        // 600 units in 150 ms needs 4 GHz, but H/m = 20 W caps at 2 GHz.
        let (server, _, _) = run_one_epoch(QueuePolicy::Fcfs, vec![job(0, 0.0, 0.15, 600.0)], 0.0);
        let speed = server.core(0).profile().max_speed();
        assert!(
            (speed - 2.0).abs() < 1e-9,
            "expected cap 2 GHz, got {speed}"
        );
    }

    #[test]
    fn busy_cores_take_nothing() {
        let c = cfg();
        let mut s = QueueScheduler::new(&c, QueuePolicy::Fcfs);
        let mut server = Server::new(
            c.cores,
            Box::new(PolynomialPower::new(c.power_a, c.power_beta)),
            c.budget_w,
            c.units_per_ghz_sec,
        );
        // Occupy both cores.
        server.core_mut(0).assign(&job(10, 0.0, 1.0, 500.0));
        server.core_mut(1).assign(&job(11, 0.0, 1.0, 500.0));
        let mut queue = vec![job(0, 0.0, 0.15, 100.0)];
        let ledger = QualityLedger::cumulative();
        let f = ExpConcave::new(c.quality_c, c.quality_xmax);
        let mut ctx = ScheduleCtx {
            now: t(0.0),
            server: &mut server,
            queue: &mut queue,
            ledger: &ledger,
            quality_fn: &f,
            load_estimate_rps: 100.0,
            budget_factor: 1.0,
            orphans: &mut Vec::new(),
            shed: &mut Vec::new(),
            sink: &mut ge_trace::NullSink,
        };
        s.on_schedule(&mut ctx);
        assert_eq!(queue.len(), 1, "no idle core ⇒ job stays queued");
    }

    #[test]
    fn nan_demand_never_panics_the_pick() {
        // Regression: the comparators used partial_cmp().expect("finite
        // demands"), so one NaN demand (corrupt estimator output) aborted
        // the whole simulation. total_cmp ranks NaN above every number,
        // deterministically.
        let mut jobs = vec![
            job(0, 0.0, 0.15, 200.0),
            job(1, 0.0, 0.15, 300.0),
            job(2, 0.0, 0.15, 130.0),
        ];
        jobs[1].demand = f64::NAN;
        assert_eq!(QueuePolicy::Ljf.pick(&jobs), Some(1), "NaN ranks largest");
        assert_eq!(QueuePolicy::Sjf.pick(&jobs), Some(2), "smallest finite");
        // And an all-NaN queue still yields a deterministic choice.
        for j in &mut jobs {
            j.demand = f64::NAN;
        }
        // Both policies tie-break ties toward the lowest job id.
        assert_eq!(QueuePolicy::Ljf.pick(&jobs), Some(0), "id tie-break");
        assert_eq!(QueuePolicy::Sjf.pick(&jobs), Some(0), "id tie-break");
    }

    #[test]
    fn labels() {
        assert_eq!(QueuePolicy::Fcfs.label(), "FCFS");
        assert_eq!(QueuePolicy::Fdfs.label(), "FDFS");
        assert_eq!(QueuePolicy::Ljf.label(), "LJF");
        assert_eq!(QueuePolicy::Sjf.label(), "SJF");
    }
}
