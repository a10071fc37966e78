//! Fleet and serve controls on a [`Run`]: the knobs a router or a serving
//! front end needs on top of the plain advance/finish lifecycle.
//!
//! A fleet shard or serve session is a [`Run`] started over an *empty*
//! trace — exactly the engine every single-server run uses, so per-shard
//! behaviour needs no re-validation:
//!
//! * [`Run::inject_job`] — feed an arrival decided by the router (the
//!   owner is the sole source of work; a serve session's router is a
//!   one-server fleet),
//! * [`Run::advance_to`] — time advance in segments. The engine's
//!   segmented-advance invariant (proven by the resume suite) guarantees
//!   that advancing in router-event-sized segments observes the same
//!   `(now, event)` sequence as one straight run, which is what makes the
//!   whole fleet bit-reproducible. The router skips a segment in which
//!   [`Run::next_event_time`] shows no due event: such an advance would
//!   move only [`Run::now`],
//! * [`Run::queue_len`] / [`Run::load_units`] — the router's load signal,
//!   which changes only with [`Run::events_handled`], a crash or a
//!   recovery, so the router caches it,
//! * [`Run::crash`] / [`Run::recover`] — whole-server loss and rejoin. A
//!   crash preempts running work onto the orphan list (partial credit,
//!   exactly like a core fault) and hands the queued-unstarted jobs back
//!   to the router for failover. Whether the server is down is the
//!   owner's state (the fleet router's live list); the run keeps no flag,
//! * [`Run::set_budget_factor`] — the global partitioner's knob: the
//!   shard's effective budget is `factor ×` its nominal `H_i`.
//!
//! Outage windows in a shard's own fault schedule should not overlap a
//! whole-server crash of the same shard.

use crate::driver::{Ev, Run, PRIO_ARRIVAL};
use ge_quality::QualityFunction;
use ge_simcore::SimTime;
use ge_workload::Job;

impl Run {
    /// Hands the run a job at simulation time `at` (the router's dispatch
    /// instant). The job rides in its arrival event and keeps its original
    /// release time for latency accounting, so retried or failed-over jobs
    /// pay their routing delay in the latency histogram.
    ///
    /// # Panics
    /// Panics if `at` precedes the run's current time (the owner must
    /// advance the run first).
    pub fn inject_job(&mut self, job: Job, at: SimTime) {
        self.engine.sim.schedule(at, PRIO_ARRIVAL, Ev::Inject(job));
    }

    /// The ledger's running sums `(Σf(c_j), Σf(p_j))` over every job
    /// recorded so far (the window's, for a sliding-window ledger): the
    /// owner's running quality is their ratio.
    pub fn ledger_sums(&self) -> (f64, f64) {
        (
            self.engine.ledger.achieved_sum(),
            self.engine.ledger.full_sum(),
        )
    }

    /// Whole-server crash: every core fails. Jobs with work already done
    /// are preempted onto the orphan list for partial credit (exactly as
    /// under a core fault); every queued-unstarted job — whether still in
    /// the queue or assigned to a core but untouched — is handed back, in
    /// id order, for failover. The run stays in the fleet's accounting:
    /// its energy spent and its orphans' fates still count.
    pub fn crash(&mut self) -> Vec<Job> {
        let mut failed_over: Vec<Job> = std::mem::take(&mut self.engine.queue);
        for core in 0..self.engine.cfg.cores {
            for cj in self.engine.server.fail_core(core) {
                if cj.processed <= 0.0 {
                    failed_over.push(
                        Job::new(cj.id, cj.release, cj.deadline, cj.full_demand)
                            .with_estimate(cj.estimate),
                    );
                } else {
                    self.engine.orphans.push(cj);
                }
            }
        }
        failed_over.sort_by_key(|j| j.id.index());
        failed_over
    }

    /// The server rejoins the fleet, empty and at nominal speed. Cores the
    /// run's own fault schedule currently holds offline stay offline.
    pub fn recover(&mut self) {
        for core in 0..self.engine.cfg.cores {
            let scheduled_online = self
                .engine
                .injector
                .as_ref()
                .map_or(true, |inj| inj.online(core));
            if scheduled_online {
                self.engine.server.recover_core(core);
            }
        }
    }

    /// Sets the partitioner's budget multiplier: the effective power
    /// budget becomes `factor ×` the nominal `H_i`. The scheduler observes
    /// the change at its next trigger and replans.
    pub fn set_budget_factor(&mut self, factor: f64) {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "budget factor must be finite and non-negative, got {factor}"
        );
        self.engine.budget_factor = factor;
    }

    /// Sets the delivered-over-requested speed ratio on every core (a
    /// degraded / thermally-capped server).
    pub fn set_speed_factor_all(&mut self, factor: f64) {
        for core in 0..self.engine.cfg.cores {
            self.engine.server.set_core_speed_factor(core, factor);
        }
    }

    /// Jobs queued but not yet started on a core.
    pub fn queue_len(&self) -> usize {
        self.engine.queue.len()
    }

    /// Total unfinished demand (queued + on-core backlog), in service
    /// units — the router's load signal.
    pub fn load_units(&self) -> f64 {
        let queued: f64 = self.engine.queue.iter().map(|j| j.demand).sum();
        self.engine.server.total_backlog_units() + queued
    }

    /// Cores currently online.
    pub fn online_cores(&self) -> usize {
        self.engine.server.online_count()
    }

    /// The quality value `f(demand)` under the run's quality function
    /// (identical across shards; exposed so the router can account shed
    /// jobs in the fleet-wide quality ratio).
    pub fn quality_value(&self, demand: f64) -> f64 {
        self.engine.f.value(demand)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Algorithm;
    use crate::SimConfig;
    use ge_simcore::SimDuration;
    use ge_trace::NullSink;
    use ge_workload::{JobId, Trace};

    fn shard_cfg() -> SimConfig {
        SimConfig {
            cores: 4,
            budget_w: 80.0,
            horizon: SimTime::from_secs(10.0),
            critical_load_rps: 154.0 / 4.0,
            ..SimConfig::paper_default()
        }
    }

    fn empty_run(cfg: &SimConfig) -> Run {
        Run::start(cfg, &Trace::default(), &Algorithm::Ge, None, &mut NullSink)
    }

    fn job(id: u64, release_s: f64, demand: f64) -> Job {
        let r = SimTime::from_secs(release_s);
        Job::new(JobId(id), r, r + SimDuration::from_millis(150.0), demand)
    }

    #[test]
    fn injected_jobs_run_and_are_accounted() {
        let cfg = shard_cfg();
        let mut shard = empty_run(&cfg);
        for i in 0..20 {
            shard.inject_job(
                job(i, 0.1 * i as f64, 400.0),
                SimTime::from_secs(0.1 * i as f64),
            );
        }
        shard.advance_to(shard.horizon(), &mut NullSink);
        let out = shard.finish(&mut NullSink);
        assert_eq!(out.result.jobs_finished, 20);
        assert!(out.result.quality > 0.5, "{}", out.result.quality);
        assert!(out.result.energy_j > 0.0);
        assert!(out.full_sum > 0.0 && out.achieved_sum <= out.full_sum + 1e-12);
    }

    #[test]
    fn segmented_advance_matches_straight_run() {
        let cfg = shard_cfg();
        let build = || {
            let mut s = empty_run(&cfg);
            for i in 0..30 {
                s.inject_job(
                    job(i, 0.05 * i as f64, 300.0 + 20.0 * i as f64),
                    SimTime::from_secs(0.05 * i as f64),
                );
            }
            s
        };
        let mut a = build();
        a.advance_to(a.horizon(), &mut NullSink);
        let ra = a.finish(&mut NullSink);
        let mut b = build();
        let mut t = 0.0f64;
        while t < 10.0 {
            t += 0.37;
            b.advance_to(SimTime::from_secs(t.min(10.0)), &mut NullSink);
        }
        b.advance_to(b.horizon(), &mut NullSink);
        let rb = b.finish(&mut NullSink);
        assert_eq!(ra.result.quality.to_bits(), rb.result.quality.to_bits());
        assert_eq!(ra.result.energy_j.to_bits(), rb.result.energy_j.to_bits());
        assert_eq!(ra.result.jobs_finished, rb.result.jobs_finished);
    }

    #[test]
    fn crash_returns_queue_recover_restores_capacity() {
        let cfg = shard_cfg();
        let mut shard = empty_run(&cfg);
        // Enough simultaneous work that some of it is still queued at the
        // crash instant.
        for i in 0..40 {
            shard.inject_job(job(i, 1.0, 900.0), SimTime::from_secs(1.0));
        }
        shard.advance_to(SimTime::from_secs(1.0), &mut NullSink);
        let failed_over = shard.crash();
        assert_eq!(shard.online_cores(), 0);
        // Cores are occupied by at most one job each; the rest fail over.
        assert!(failed_over.len() >= 40 - cfg.cores, "{}", failed_over.len());
        // A dead shard is inert but advanceable.
        shard.advance_to(SimTime::from_secs(3.0), &mut NullSink);
        shard.recover();
        assert_eq!(shard.online_cores(), cfg.cores);
        // The recovered shard accepts and completes new work.
        shard.inject_job(job(100, 3.0, 500.0), SimTime::from_secs(3.0));
        shard.advance_to(shard.horizon(), &mut NullSink);
        let out = shard.finish(&mut NullSink);
        assert!(out.result.energy_j > 0.0);
        // Conservation: every job not failed over is in the ledger.
        assert_eq!(
            out.result.jobs_finished,
            41 - failed_over.len() as u64,
            "ledger covers exactly the jobs the shard kept"
        );
    }

    #[test]
    fn budget_factor_scales_capacity() {
        let cfg = shard_cfg();
        let run = |factor: f64| {
            let mut s = empty_run(&cfg);
            s.set_budget_factor(factor);
            for i in 0..60 {
                s.inject_job(
                    job(i, 0.02 * i as f64, 900.0),
                    SimTime::from_secs(0.02 * i as f64),
                );
            }
            s.advance_to(s.horizon(), &mut NullSink);
            s.finish(&mut NullSink)
        };
        let starved = run(0.4);
        let nominal = run(1.0);
        let boosted = run(1.5);
        assert!(
            starved.result.quality < nominal.result.quality,
            "{} !< {}",
            starved.result.quality,
            nominal.result.quality
        );
        assert!(boosted.result.quality >= nominal.result.quality - 1e-9);
        assert!(starved.result.energy_j < boosted.result.energy_j);
    }
}
