//! A single DVFS core: job queue, speed plan, and execution engine.
//!
//! The core is *mechanism only* — it executes whatever targets and speed
//! plan the scheduling policy installed. Between scheduler epochs the
//! driver calls [`Core::advance`] to move the core's local clock forward;
//! the engine runs the EDF-ordered, non-preemptive job sequence against
//! the installed [`SpeedProfile`], retires processing volume, meters the
//! energy actually consumed (a core only burns power while executing), and
//! reports finished jobs.

use ge_power::{EnergyMeter, PowerModel, SpeedProfile, SpeedSegment};
use ge_simcore::SimTime;
use ge_trace::{NullSink, TraceEvent, TraceSink};
use ge_workload::{Job, JobId};

/// A job resident on a core.
#[derive(Debug, Clone)]
pub struct CoreJob {
    /// The job's identity.
    pub id: JobId,
    /// Release time (it arrived; kept for bookkeeping).
    pub release: SimTime,
    /// Absolute deadline.
    pub deadline: SimTime,
    /// The original full demand `p_j` (processing units).
    pub full_demand: f64,
    /// The demand the scheduler believes the job has (equals
    /// `full_demand` unless a fault model injects misestimation noise).
    pub estimate: f64,
    /// Current target `c_j ≤ p_j` after any cuts (processing units).
    pub target_demand: f64,
    /// Volume processed so far (processing units).
    pub processed: f64,
}

impl CoreJob {
    fn from_job(job: &Job) -> Self {
        CoreJob {
            id: job.id,
            release: job.release,
            deadline: job.deadline,
            full_demand: job.demand,
            estimate: job.estimate,
            target_demand: job.estimate,
            processed: 0.0,
        }
    }

    /// Remaining work toward the current target (units, `≥ 0`).
    pub fn remaining(&self) -> f64 {
        (self.target_demand - self.processed).max(0.0)
    }

    /// `true` once the job has met its (possibly cut) target.
    pub fn is_done(&self) -> bool {
        self.remaining() <= 1e-9
    }
}

/// A job whose service ended (target met or deadline passed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FinishedJob {
    /// The job's identity.
    pub id: JobId,
    /// Original full demand `p_j`.
    pub full_demand: f64,
    /// Volume actually processed `c_j`.
    pub processed: f64,
    /// When service ended (completion instant or the deadline).
    pub finish_time: SimTime,
    /// `true` if the deadline expired before the target was met.
    pub expired: bool,
}

/// One DVFS core.
#[derive(Debug, Clone)]
pub struct Core {
    index: usize,
    jobs: Vec<CoreJob>,
    profile: SpeedProfile,
    power_cap_w: f64,
    clock: SimTime,
    running: Option<JobId>,
    units_per_ghz_sec: f64,
    online: bool,
    speed_factor: f64,
}

impl Core {
    /// Creates an idle core with an empty plan.
    pub fn new(index: usize, units_per_ghz_sec: f64) -> Self {
        assert!(units_per_ghz_sec > 0.0);
        Core {
            index,
            jobs: Vec::new(),
            profile: SpeedProfile::empty(),
            power_cap_w: 0.0,
            clock: SimTime::ZERO,
            running: None,
            units_per_ghz_sec,
            online: true,
            speed_factor: 1.0,
        }
    }

    /// This core's index in the server.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The core's local clock (last `advance` target).
    pub fn clock(&self) -> SimTime {
        self.clock
    }

    /// Jobs currently resident (unfinished).
    pub fn jobs(&self) -> &[CoreJob] {
        &self.jobs
    }

    /// Mutable access for the scheduler to adjust targets (cuts).
    pub fn jobs_mut(&mut self) -> &mut [CoreJob] {
        &mut self.jobs
    }

    /// Accepts a newly assigned job. Jobs migrate only through
    /// [`Core::fail`] / [`Core::adopt`].
    pub fn assign(&mut self, job: &Job) {
        debug_assert!(self.online, "job {} assigned to offline core", job.id);
        debug_assert!(
            self.jobs.iter().all(|j| j.id != job.id),
            "job {} assigned twice",
            job.id
        );
        self.jobs.push(CoreJob::from_job(job));
    }

    /// Whether the core is online (fault injection can take it down).
    pub fn is_online(&self) -> bool {
        self.online
    }

    /// Takes the core offline: clears the plan, stops execution, and
    /// returns the resident jobs (with their progress) so the scheduler
    /// can migrate them to surviving cores.
    pub fn fail(&mut self) -> Vec<CoreJob> {
        self.online = false;
        self.profile = SpeedProfile::empty();
        self.power_cap_w = 0.0;
        self.running = None;
        std::mem::take(&mut self.jobs)
    }

    /// Brings a failed core back online, empty and at nominal speed.
    pub fn recover(&mut self) {
        self.online = true;
    }

    /// Re-homes a job preempted from a failed core, keeping its progress.
    pub fn adopt(&mut self, job: CoreJob) {
        debug_assert!(self.online, "job {} adopted by offline core", job.id);
        debug_assert!(
            self.jobs.iter().all(|j| j.id != job.id),
            "job {} adopted twice",
            job.id
        );
        self.jobs.push(job);
    }

    /// The delivered-over-requested DVFS ratio currently in force.
    pub fn speed_factor(&self) -> f64 {
        self.speed_factor
    }

    /// Sets the DVFS actuation error. Takes effect at the next
    /// [`Core::install_plan`] — exactly the actuation latency a real
    /// governor exhibits; the scheduler only notices through the quality
    /// ledger.
    pub fn set_speed_factor(&mut self, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0,
            "speed factor must be positive and finite, got {factor}"
        );
        self.speed_factor = factor;
    }

    /// Installs a new speed plan and power cap (a scheduler epoch).
    ///
    /// The plan is what the scheduler *requested*; under DVFS actuation
    /// error the core stores the *delivered* profile (every segment
    /// scaled by [`Core::speed_factor`]), so execution, energy metering,
    /// and event projection all see the speed the silicon actually runs.
    pub fn install_plan(&mut self, profile: SpeedProfile, power_cap_w: f64) {
        debug_assert!(power_cap_w >= 0.0);
        self.profile = if self.speed_factor == 1.0 {
            profile
        } else {
            SpeedProfile::new(
                profile
                    .segments()
                    .iter()
                    .map(|s| SpeedSegment::new(s.start, s.end, s.speed_ghz * self.speed_factor))
                    .collect(),
            )
        };
        self.power_cap_w = power_cap_w;
    }

    /// The current power cap (W).
    pub fn power_cap(&self) -> f64 {
        self.power_cap_w
    }

    /// Identity of the sticky non-preemptively running job, if any. Part
    /// of the execution-engine state a checkpoint must capture: EDF picks
    /// a new job only when the running one finishes.
    pub fn running_job(&self) -> Option<JobId> {
        self.running
    }

    /// Reconstructs a core from checkpoint state.
    ///
    /// `profile` must be the *delivered* profile exactly as
    /// [`Core::profile`] returned it at snapshot time — it is installed
    /// raw, not rescaled by `speed_factor` (that scaling already happened
    /// in the original [`Core::install_plan`] call).
    #[allow(clippy::too_many_arguments)]
    pub fn restore(
        index: usize,
        units_per_ghz_sec: f64,
        jobs: Vec<CoreJob>,
        profile: SpeedProfile,
        power_cap_w: f64,
        clock: SimTime,
        running: Option<JobId>,
        online: bool,
        speed_factor: f64,
    ) -> Self {
        assert!(units_per_ghz_sec > 0.0);
        assert!(
            speed_factor.is_finite() && speed_factor > 0.0,
            "speed factor must be positive and finite, got {speed_factor}"
        );
        assert!(power_cap_w >= 0.0);
        Core {
            index,
            jobs,
            profile,
            power_cap_w,
            clock,
            running,
            units_per_ghz_sec,
            online,
            speed_factor,
        }
    }

    /// The installed speed profile.
    pub fn profile(&self) -> &SpeedProfile {
        &self.profile
    }

    /// Total outstanding work toward current targets (units).
    pub fn backlog_units(&self) -> f64 {
        self.jobs.iter().map(|j| j.remaining()).sum()
    }

    /// `true` when no unfinished work is resident.
    pub fn is_idle(&self) -> bool {
        self.jobs.iter().all(|j| j.is_done())
    }

    /// The speed the core is *actually* running at its local clock: the
    /// profile speed if a live job is executing, zero otherwise.
    pub fn current_speed(&self) -> f64 {
        if self.pick_running(self.clock).is_some() {
            self.profile.speed_at(self.clock)
        } else {
            0.0
        }
    }

    /// Projected next instant the core changes occupancy: the earliest of
    /// the running job's completion or any resident job's deadline.
    /// `None` when idle.
    pub fn next_event_time(&self) -> Option<SimTime> {
        let mut next: Option<SimTime> = None;
        let mut consider = |t: SimTime| {
            next = Some(match next {
                None => t,
                Some(cur) => cur.min(t),
            });
        };
        for j in &self.jobs {
            if j.is_done() {
                continue;
            }
            consider(j.deadline);
            let ghz_needed = j.remaining() / self.units_per_ghz_sec;
            if let Some(done_at) = self.profile.time_for_ghz_seconds(self.clock, ghz_needed) {
                consider(done_at);
            }
        }
        next
    }

    /// Index of the job the engine would run at `t`: the non-preemptive
    /// current job if still live, else the EDF choice among live jobs.
    fn pick_running(&self, t: SimTime) -> Option<usize> {
        // Sticky non-preemptive choice first.
        if let Some(id) = self.running {
            if let Some(idx) = self.jobs.iter().position(|j| j.id == id) {
                let j = &self.jobs[idx];
                if !j.is_done() && j.deadline.after(t) {
                    return Some(idx);
                }
            }
        }
        // EDF among live (released, unfinished, unexpired) jobs;
        // deterministic tie-break on JobId.
        self.jobs
            .iter()
            .enumerate()
            .filter(|(_, j)| !j.is_done() && j.deadline.after(t) && t.at_or_after(j.release))
            .min_by(|a, b| {
                a.1.deadline
                    .total_cmp(&b.1.deadline)
                    .then(a.1.id.cmp(&b.1.id))
            })
            .map(|(i, _)| i)
    }

    /// Finalizes and removes every job whose service is over at time `t`
    /// (target met or deadline passed), appending to `out`.
    fn reap(&mut self, t: SimTime, out: &mut Vec<FinishedJob>) {
        let mut i = 0;
        while i < self.jobs.len() {
            let j = &self.jobs[i];
            let done = j.is_done();
            let expired = !done && t.at_or_after(j.deadline);
            if done || expired {
                out.push(FinishedJob {
                    id: j.id,
                    full_demand: j.full_demand,
                    processed: j.processed.min(j.full_demand),
                    finish_time: if done { t.min(j.deadline) } else { j.deadline },
                    expired,
                });
                if self.running == Some(j.id) {
                    self.running = None;
                }
                self.jobs.swap_remove(i);
            } else {
                i += 1;
            }
        }
    }

    /// Advances the core's clock to `to`, executing jobs and metering the
    /// energy actually consumed. Returns the jobs that finished (in order
    /// of finishing).
    ///
    /// # Panics
    /// Panics if `to` precedes the core clock beyond tolerance.
    pub fn advance(
        &mut self,
        to: SimTime,
        model: &dyn PowerModel,
        meter: &mut EnergyMeter,
    ) -> Vec<FinishedJob> {
        self.advance_traced(to, model, meter, &mut NullSink)
    }

    /// Like [`Core::advance`], but emits a [`TraceEvent::ExecSlice`] for
    /// every metered execution slice into `sink`.
    ///
    /// # Panics
    /// Panics if `to` precedes the core clock beyond tolerance.
    pub fn advance_traced(
        &mut self,
        to: SimTime,
        model: &dyn PowerModel,
        meter: &mut EnergyMeter,
        sink: &mut dyn TraceSink,
    ) -> Vec<FinishedJob> {
        assert!(
            to.at_or_after(self.clock),
            "core {} cannot advance backwards: {} -> {}",
            self.index,
            self.clock,
            to
        );
        if !self.online {
            // Offline cores keep their clock moving (so recovery resumes
            // at the right instant) but execute nothing; `fail` already
            // drained their jobs.
            self.clock = to;
            return Vec::new();
        }
        let mut finished = Vec::new();
        let mut guard = 0u32;
        while self.clock.before(to) {
            guard += 1;
            assert!(
                guard < 1_000_000,
                "core {} advance loop stuck at {}",
                self.index,
                self.clock
            );
            self.reap(self.clock, &mut finished);
            let Some(idx) = self.pick_running(self.clock) else {
                // Idle: jump to the next release (work becomes available)
                // or deadline (to reap), capped at `to`.
                let mut next = to;
                for j in self.jobs.iter().filter(|j| !j.is_done()) {
                    if j.release.after(self.clock) {
                        next = next.min(j.release);
                    }
                    if j.deadline.after(self.clock) {
                        next = next.min(j.deadline);
                    }
                }
                self.clock = next.max(self.clock).min(to);
                if self.clock.approx_eq(to) {
                    self.clock = to;
                    break;
                }
                continue;
            };

            let job = &self.jobs[idx];
            self.running = Some(job.id);
            let slice_end = to.min(job.deadline);
            let ghz_needed = job.remaining() / self.units_per_ghz_sec;
            let completion = self.profile.time_for_ghz_seconds(self.clock, ghz_needed);

            // A completion within the tolerance after `slice_end` still
            // ends the slice at `slice_end`: running past the advance
            // target would meter time the clock later rewinds.
            let run_until = match completion {
                Some(c) if c.at_or_before(slice_end) => c.min(slice_end),
                _ => slice_end,
            };
            if run_until.after(self.clock) {
                let ghz_secs = self.profile.ghz_seconds(self.clock, run_until);
                let energy = self.profile.energy(model, self.clock, run_until);
                meter.record_joules(self.index, energy);
                if sink.is_enabled() {
                    sink.record(&TraceEvent::ExecSlice {
                        t: run_until.as_secs(),
                        core: self.index as u64,
                        start_s: self.clock.as_secs(),
                        end_s: run_until.as_secs(),
                        ghz_secs,
                        energy_j: energy,
                    });
                }
                let job = &mut self.jobs[idx];
                job.processed =
                    (job.processed + ghz_secs * self.units_per_ghz_sec).min(job.target_demand);
                self.clock = run_until;
            } else {
                // Zero-length slice: the job ends exactly here.
                self.clock = run_until.max(self.clock);
                let job = &mut self.jobs[idx];
                if completion.is_some_and(|c| c.at_or_before(self.clock)) {
                    job.processed = job.target_demand;
                }
            }
            // Numerical snap: if we ran to the planned completion instant,
            // credit the (epsilon-sized) residual volume.
            if let Some(c) = completion {
                if c.approx_eq(self.clock) {
                    let job = &mut self.jobs[idx];
                    job.processed = job.target_demand;
                }
            }
            self.reap(self.clock, &mut finished);
        }
        self.clock = to;
        self.reap(self.clock, &mut finished);
        finished
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ge_power::{PolynomialPower, SpeedProfile, SpeedSegment};
    use ge_workload::UNITS_PER_GHZ_SEC;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn job(id: u64, release: f64, deadline: f64, demand: f64) -> Job {
        Job::new(JobId(id), t(release), t(deadline), demand)
    }

    fn flat_profile(start: f64, end: f64, speed: f64) -> SpeedProfile {
        SpeedProfile::new(vec![SpeedSegment::new(t(start), t(end), speed)])
    }

    fn setup() -> (Core, PolynomialPower, EnergyMeter) {
        (
            Core::new(0, UNITS_PER_GHZ_SEC),
            PolynomialPower::paper_default(),
            EnergyMeter::new(1),
        )
    }

    #[test]
    fn completes_single_job_and_meters_energy() {
        let (mut core, model, mut meter) = setup();
        core.assign(&job(0, 0.0, 1.0, 1000.0)); // needs 1 GHz-s
        core.install_plan(flat_profile(0.0, 1.0, 2.0), 20.0);
        let fin = core.advance(t(1.0), &model, &mut meter);
        assert_eq!(fin.len(), 1);
        assert!(!fin[0].expired);
        assert!((fin[0].processed - 1000.0).abs() < 1e-6);
        // Completed at 0.5 s (2 GHz), energy = 20 W × 0.5 s = 10 J.
        assert!(fin[0].finish_time.approx_eq(t(0.5)));
        assert!((meter.total_energy() - 10.0).abs() < 1e-9);
        assert!(core.is_idle());
    }

    #[test]
    fn no_energy_burned_while_idle() {
        let (mut core, model, mut meter) = setup();
        // Plan says 2 GHz the whole second, but there is no work.
        core.install_plan(flat_profile(0.0, 1.0, 2.0), 20.0);
        core.advance(t(1.0), &model, &mut meter);
        assert_eq!(meter.total_energy(), 0.0);
    }

    #[test]
    fn job_expires_with_partial_service() {
        let (mut core, model, mut meter) = setup();
        core.assign(&job(0, 0.0, 1.0, 3000.0)); // needs 3 GHz-s
        core.install_plan(flat_profile(0.0, 1.0, 1.0), 5.0); // only 1 GHz-s
        let fin = core.advance(t(2.0), &model, &mut meter);
        assert_eq!(fin.len(), 1);
        assert!(fin[0].expired);
        assert!((fin[0].processed - 1000.0).abs() < 1e-6);
        assert!(fin[0].finish_time.approx_eq(t(1.0)));
        // Ran the whole second at 1 GHz: 5 J.
        assert!((meter.total_energy() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn edf_order_respected() {
        let (mut core, model, mut meter) = setup();
        core.assign(&job(0, 0.0, 2.0, 500.0)); // later deadline
        core.assign(&job(1, 0.0, 1.0, 500.0)); // earlier deadline — runs first
        core.install_plan(flat_profile(0.0, 2.0, 1.0), 5.0);
        let fin = core.advance(t(2.0), &model, &mut meter);
        assert_eq!(fin.len(), 2);
        assert_eq!(fin[0].id, JobId(1));
        assert!(fin[0].finish_time.approx_eq(t(0.5)));
        assert_eq!(fin[1].id, JobId(0));
        assert!(fin[1].finish_time.approx_eq(t(1.0)));
    }

    #[test]
    fn non_preemptive_running_job_sticks() {
        let (mut core, model, mut meter) = setup();
        core.assign(&job(0, 0.0, 3.0, 1000.0));
        core.install_plan(flat_profile(0.0, 3.0, 1.0), 5.0);
        // Start running job 0.
        core.advance(t(0.4), &model, &mut meter);
        // A tighter-deadline job arrives; non-preemptive ⇒ job 0 finishes
        // first.
        core.assign(&job(1, 0.4, 2.0, 400.0));
        let fin = core.advance(t(3.0), &model, &mut meter);
        assert_eq!(fin[0].id, JobId(0));
        assert!(fin[0].finish_time.approx_eq(t(1.0)));
        assert_eq!(fin[1].id, JobId(1));
        assert!(!fin[1].expired);
    }

    #[test]
    fn cut_target_shortens_execution() {
        let (mut core, model, mut meter) = setup();
        core.assign(&job(0, 0.0, 1.0, 2000.0));
        core.install_plan(flat_profile(0.0, 1.0, 2.0), 20.0);
        // Scheduler cuts the job to 1000 units.
        core.jobs_mut()[0].target_demand = 1000.0;
        let fin = core.advance(t(1.0), &model, &mut meter);
        assert_eq!(fin.len(), 1);
        assert!(!fin[0].expired);
        assert!((fin[0].processed - 1000.0).abs() < 1e-6);
        assert!((fin[0].full_demand - 2000.0).abs() < 1e-9);
        assert!(fin[0].finish_time.approx_eq(t(0.5)));
    }

    #[test]
    fn idle_gap_then_later_job() {
        let (mut core, model, mut meter) = setup();
        core.assign(&job(0, 1.0, 2.0, 500.0)); // releases at t=1
        core.install_plan(flat_profile(0.0, 2.0, 1.0), 5.0);
        let fin = core.advance(t(2.0), &model, &mut meter);
        assert_eq!(fin.len(), 1);
        assert!(!fin[0].expired);
        assert!(fin[0].finish_time.approx_eq(t(1.5)));
        // Only 0.5 s of actual execution billed.
        assert!((meter.total_energy() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn zero_speed_profile_expires_jobs() {
        let (mut core, model, mut meter) = setup();
        core.assign(&job(0, 0.0, 1.0, 500.0));
        core.install_plan(SpeedProfile::empty(), 0.0);
        let fin = core.advance(t(2.0), &model, &mut meter);
        assert_eq!(fin.len(), 1);
        assert!(fin[0].expired);
        assert_eq!(fin[0].processed, 0.0);
        assert_eq!(meter.total_energy(), 0.0);
    }

    #[test]
    fn advance_in_small_steps_matches_one_big_step() {
        let build = || {
            let (mut core, model, meter) = setup();
            core.assign(&job(0, 0.0, 1.5, 800.0));
            core.assign(&job(1, 0.2, 1.7, 600.0));
            core.install_plan(flat_profile(0.0, 2.0, 1.0), 5.0);
            (core, model, meter)
        };
        let (mut a, model, mut meter_a) = build();
        let fin_a = a.advance(t(2.0), &model, &mut meter_a);

        let (mut b, model2, mut meter_b) = build();
        let mut fin_b = Vec::new();
        let mut s = 0.0f64;
        while s < 2.0 {
            s += 0.05;
            fin_b.extend(b.advance(t(s.min(2.0)), &model2, &mut meter_b));
        }
        assert_eq!(fin_a.len(), fin_b.len());
        for (x, y) in fin_a.iter().zip(&fin_b) {
            assert_eq!(x.id, y.id);
            assert!((x.processed - y.processed).abs() < 1e-6);
            assert!(x.finish_time.approx_eq(y.finish_time));
        }
        assert!((meter_a.total_energy() - meter_b.total_energy()).abs() < 1e-6);
    }

    #[test]
    fn next_event_time_projection() {
        let (mut core, _model, _meter) = setup();
        assert!(core.next_event_time().is_none());
        core.assign(&job(0, 0.0, 1.0, 1000.0));
        core.install_plan(flat_profile(0.0, 1.0, 2.0), 20.0);
        // Completion at 0.5 beats the deadline at 1.0.
        assert!(core.next_event_time().unwrap().approx_eq(t(0.5)));
    }

    #[test]
    fn current_speed_reflects_occupancy() {
        let (mut core, model, mut meter) = setup();
        core.install_plan(flat_profile(0.0, 2.0, 2.0), 20.0);
        assert_eq!(core.current_speed(), 0.0); // no job
        core.assign(&job(0, 0.0, 2.0, 4000.0));
        assert_eq!(core.current_speed(), 2.0); // busy at profile speed
        core.advance(t(2.0), &model, &mut meter);
        assert_eq!(core.current_speed(), 0.0); // done (expired)
    }

    #[test]
    fn backlog_accounting() {
        let (mut core, model, mut meter) = setup();
        core.assign(&job(0, 0.0, 1.0, 700.0));
        core.assign(&job(1, 0.0, 1.0, 300.0));
        assert!((core.backlog_units() - 1000.0).abs() < 1e-9);
        core.install_plan(flat_profile(0.0, 1.0, 1.0), 5.0);
        core.advance(t(0.5), &model, &mut meter);
        assert!((core.backlog_units() - 500.0).abs() < 1e-6);
    }

    #[test]
    fn fail_preempts_jobs_and_recover_resumes() {
        let (mut core, model, mut meter) = setup();
        core.assign(&job(0, 0.0, 2.0, 1000.0));
        core.install_plan(flat_profile(0.0, 2.0, 1.0), 5.0);
        core.advance(t(0.5), &model, &mut meter);
        assert!(core.is_online());

        let orphans = core.fail();
        assert!(!core.is_online());
        assert_eq!(orphans.len(), 1);
        assert!((orphans[0].processed - 500.0).abs() < 1e-6);
        assert!(core.is_idle());

        // Offline advance executes nothing and burns nothing.
        let before = meter.total_energy();
        let fin = core.advance(t(1.0), &model, &mut meter);
        assert!(fin.is_empty());
        assert_eq!(meter.total_energy(), before);
        assert!(core.clock().approx_eq(t(1.0)));

        // Recovery: adopt the orphan back and finish it.
        core.recover();
        core.adopt(orphans.into_iter().next().unwrap());
        core.install_plan(flat_profile(1.0, 2.0, 1.0), 5.0);
        let fin = core.advance(t(2.0), &model, &mut meter);
        assert_eq!(fin.len(), 1);
        assert!(!fin[0].expired);
        assert!((fin[0].processed - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn speed_factor_scales_delivered_profile() {
        let (mut core, model, mut meter) = setup();
        core.set_speed_factor(0.5);
        core.assign(&job(0, 0.0, 2.0, 1000.0));
        // Request 2 GHz; deliver 1 GHz => completion at 1.0 s not 0.5 s.
        core.install_plan(flat_profile(0.0, 2.0, 2.0), 20.0);
        let fin = core.advance(t(2.0), &model, &mut meter);
        assert_eq!(fin.len(), 1);
        assert!(
            fin[0].finish_time.approx_eq(t(1.0)),
            "{}",
            fin[0].finish_time
        );
        // Energy metered at the delivered speed's power, not the requested.
        let expected = model.power(1.0) * 1.0;
        assert!((meter.total_energy() - expected).abs() < 1e-9);
    }

    #[test]
    fn estimate_rides_into_core_job() {
        let (mut core, _model, _meter) = setup();
        core.assign(&job(0, 0.0, 1.0, 400.0).with_estimate(300.0));
        assert!((core.jobs()[0].full_demand - 400.0).abs() < 1e-12);
        assert!((core.jobs()[0].estimate - 300.0).abs() < 1e-12);
        assert!((core.jobs()[0].target_demand - 300.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn advance_backwards_panics() {
        let (mut core, model, mut meter) = setup();
        core.advance(t(1.0), &model, &mut meter);
        core.advance(t(0.5), &model, &mut meter);
    }
}

#[cfg(test)]
mod generative_tests {
    use super::*;
    use ge_power::{PolynomialPower, PowerModel, SpeedProfile, SpeedSegment};
    use ge_simcore::RngStream;

    fn random_jobs(
        rng: &mut RngStream,
        max_n: usize,
        r_hi: f64,
        w_hi: f64,
        d_hi: f64,
    ) -> Vec<(f64, f64, f64)> {
        let n = 1 + rng.next_below((max_n - 1) as u64) as usize;
        (0..n)
            .map(|_| {
                (
                    rng.uniform_range(0.0, r_hi),
                    rng.uniform_range(0.05, w_hi),
                    rng.uniform_range(10.0, d_hi),
                )
            })
            .collect()
    }

    #[test]
    fn advance_invariants_on_random_jobs() {
        let model = PolynomialPower::paper_default();
        for seed in 0..48u64 {
            let mut rng = RngStream::from_root(seed, "core/advance");
            let jobs = random_jobs(&mut rng, 12, 2.0, 1.0, 800.0);
            let speed = rng.uniform_range(0.5, 4.0);
            let mut core = Core::new(0, 1000.0);
            let mut meter = EnergyMeter::new(1);
            for (i, &(r, w, d)) in jobs.iter().enumerate() {
                core.assign(&Job::new(
                    JobId(i as u64),
                    SimTime::from_secs(r),
                    SimTime::from_secs(r + w),
                    d,
                ));
            }
            core.install_plan(
                SpeedProfile::new(vec![SpeedSegment::new(
                    SimTime::ZERO,
                    SimTime::from_secs(4.0),
                    speed,
                )]),
                model.power(speed),
            );
            let fin = core.advance(SimTime::from_secs(4.0), &model, &mut meter);

            // Every job is accounted for exactly once.
            assert_eq!(fin.len(), jobs.len());
            let mut total_processed = 0.0;
            for f in &fin {
                let (_, _, d) = jobs[f.id.index()];
                assert!(f.processed >= -1e-9);
                assert!(
                    f.processed <= d + 1e-6,
                    "processed {} exceeds demand {d}",
                    f.processed
                );
                total_processed += f.processed;
            }
            // Energy equals power × busy time; busy time is
            // volume / speed, so energy = P(s) * processed/(1000*s).
            let expected_energy = model.power(speed) * total_processed / (1000.0 * speed);
            assert!(
                (meter.total_energy() - expected_energy).abs() < 1e-6,
                "energy {} vs expected {expected_energy}",
                meter.total_energy()
            );
            assert!(core.is_idle());
        }
    }

    #[test]
    fn served_jobs_never_finish_after_deadline() {
        let model = PolynomialPower::paper_default();
        for seed in 0..48u64 {
            let mut rng = RngStream::from_root(seed, "core/deadline");
            let jobs = random_jobs(&mut rng, 10, 1.0, 0.5, 500.0);
            let mut core = Core::new(0, 1000.0);
            let mut meter = EnergyMeter::new(1);
            for (i, &(r, w, d)) in jobs.iter().enumerate() {
                core.assign(&Job::new(
                    JobId(i as u64),
                    SimTime::from_secs(r),
                    SimTime::from_secs(r + w),
                    d,
                ));
            }
            core.install_plan(
                SpeedProfile::new(vec![SpeedSegment::new(
                    SimTime::ZERO,
                    SimTime::from_secs(2.0),
                    2.0,
                )]),
                20.0,
            );
            for f in core.advance(SimTime::from_secs(2.0), &model, &mut meter) {
                let (r, w, _) = jobs[f.id.index()];
                assert!(
                    f.finish_time.as_secs() <= r + w + 1e-6,
                    "job finished at {} past deadline {}",
                    f.finish_time.as_secs(),
                    r + w
                );
            }
        }
    }
}
