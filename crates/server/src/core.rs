//! A single DVFS core: job queue, speed plan, and execution engine.
//!
//! The core is *mechanism only* — it executes whatever targets and speed
//! plan the scheduling policy installed. Between scheduler epochs the
//! driver calls [`Core::advance`] to move the core's local clock forward;
//! the engine runs the EDF-ordered, non-preemptive job sequence against
//! the installed [`SpeedProfile`], retires processing volume, meters the
//! energy actually consumed (a core only burns power while executing), and
//! reports finished jobs.
//!
//! Most advances are short: the engine visits every core at every event,
//! and between two events a busy core usually just keeps running the same
//! job in the same profile segment. Each general-path advance therefore
//! ends by *arming* the core with a horizon before which the general path
//! is known to reduce to one slice, and an advance that stays under it
//! takes that slice directly (see [`Core::advance_traced`] and DESIGN.md
//! §4). A plan installed through the server arms the core too, when every
//! resident job is live (see [`crate::Server::install_plan`]). The armed
//! state is derived: every other mutator drops it and it is never
//! checkpointed.

use ge_power::{EnergyMeter, PowerModel, SpeedProfile, SpeedSegment};
use ge_recover::persist::{non_negative, positive};
use ge_simcore::{SimTime, TIME_EPS};
use ge_trace::{NullSink, TraceEvent, TraceSink};
use ge_workload::{Job, JobId};

/// Safety margin (seconds) between an armed core's horizon and the
/// nearest instant at which the general path could do more than one plain
/// slice. It must dominate the rounding drift between the projection made
/// at arming and the one the general path would make later (about 1e-10 s
/// at a 600 s horizon) plus [`TIME_EPS`]; a larger margin only sends more
/// advances down the general path.
const ARM_MARGIN_S: f64 = 1e-6;

/// A job resident on a core. The default is a placeholder for a
/// checkpoint decode to overwrite.
#[derive(Debug, Clone, Default)]
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

ge_recover::persist! {
    CoreJob { id, release, deadline, full_demand, estimate, target_demand, processed }
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
    /// Release time, which its latency is measured from.
    pub release: SimTime,
    /// Original full demand `p_j`.
    pub full_demand: f64,
    /// Volume actually processed `c_j`.
    pub processed: f64,
    /// When service ended (completion instant or the deadline).
    pub finish_time: SimTime,
    /// `true` if the deadline expired before the target was met.
    pub expired: bool,
}

/// What an armed core knows about its next advances; see
/// [`Core::advance_traced`].
#[derive(Debug, Clone, Copy)]
struct Armed {
    /// Index into `jobs` of the job the general path would run next.
    job: usize,
    /// An advance to `to < until` (seconds) is one slice of `job`.
    until: f64,
    /// Start of the profile segment the slice draws on; the slice's duration
    /// is measured from `seg_start.max(clock)`, as the general path does.
    seg_start: SimTime,
    /// That segment's speed (GHz) and cached power (W); 0 past the end of
    /// the profile.
    speed: f64,
    watts: f64,
    /// `current_speed()` at any clock before `until`.
    current_speed: f64,
    /// A lower bound on `next_event_time()` until the core is disarmed.
    event_floor: f64,
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
    // -- Derived state (never serialized; rebuilt by the next advance) ---
    /// `model.power` of each profile segment; empty until an arming
    /// install or the first advance after a plan is installed.
    watts: Vec<f64>,
    /// [`SpeedProfile::first_live_segment`] at some clock reading `≤` the
    /// current one.
    cursor: usize,
    /// Fast-path state; `None` whenever anything but an advance touched
    /// the core since the last general-path advance.
    armed: Option<Armed>,
}

// The persisted state. `profile` is the *delivered* profile, already
// scaled by `speed_factor` at install. Decoding into a freshly built core
// leaves `index`, `units_per_ghz_sec` and the derived state as built:
// no watts, cursor 0, disarmed.
ge_recover::persist! {
    Core { jobs as Resized, profile, power_cap_w, clock, running as Resized, online, speed_factor }
    check |c| non_negative(c.power_cap_w) => "malformed core power cap";
    check |c| positive(c.speed_factor) => "malformed core speed factor";
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
            watts: Vec::new(),
            cursor: 0,
            armed: None,
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
        self.armed = None;
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
        self.armed = None;
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
        self.set_profile(SpeedProfile::empty());
        self.power_cap_w = 0.0;
        self.running = None;
        std::mem::take(&mut self.jobs)
    }

    /// Brings a failed core back online, empty and at nominal speed.
    pub fn recover(&mut self) {
        self.armed = None;
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
        self.armed = None;
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
        self.armed = None;
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
        let delivered = if self.speed_factor == 1.0 {
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
        self.set_profile(delivered);
        self.power_cap_w = power_cap_w;
    }

    /// Installs `plan` and `power_cap_w` like [`Core::install_plan`], but
    /// copies the plan into the core's own profile buffer (no allocation
    /// once it has grown) and arms the core at once when every resident
    /// job is live at the clock: not done, deadline after the clock.
    ///
    /// Then a general-path advance to the clock itself would reap nothing
    /// and end by arming, so arming here leaves a state such an advance
    /// could have left, and the fast path's bit-exactness argument (see
    /// [`Core::advance_traced`]) carries over. `model` must be the one
    /// every advance gets, since the armed state caches its watts; the
    /// server passes its own (see [`crate::Server::install_plan`]). An
    /// offline core, a done job or one at its deadline leaves the core
    /// disarmed, as [`Core::install_plan`] does.
    pub(crate) fn install_plan_armed(
        &mut self,
        plan: &SpeedProfile,
        power_cap_w: f64,
        model: &dyn PowerModel,
    ) {
        debug_assert!(power_cap_w >= 0.0);
        // Delivered speeds, as in `install_plan` (`s * 1.0` is `s` exactly).
        let factor = self.speed_factor;
        self.profile.assign_mapped(plan, |s| s * factor);
        self.watts.clear();
        self.cursor = 0;
        self.armed = None;
        self.power_cap_w = power_cap_w;
        let live = |j: &CoreJob| !j.is_done() && j.deadline.after(self.clock);
        if self.online && self.jobs.iter().all(live) {
            let segments = self.profile.segments();
            self.watts
                .extend(segments.iter().map(|s| model.power(s.speed_ghz)));
            self.arm();
        }
    }

    /// Replaces the profile and drops everything derived from the old one.
    fn set_profile(&mut self, profile: SpeedProfile) {
        self.profile = profile;
        self.watts.clear();
        self.cursor = 0;
        self.armed = None;
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
        if let Some(a) = &self.armed {
            return a.current_speed;
        }
        if self.pick_running(self.clock).is_some() {
            self.profile.speed_at(self.clock)
        } else {
            0.0
        }
    }

    /// Projected next instant the core changes occupancy: the earliest of
    /// any resident job's completion (were it to run from now on) or
    /// deadline. `None` when idle.
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
            if let Some(done_at) = self.completion_of(j) {
                consider(done_at);
            }
        }
        next
    }

    /// A lower bound (seconds) on [`Core::next_event_time`]: its value
    /// when the core was last armed minus the arming margin, or −∞ when
    /// the core is not armed. Lets the server skip exact projections of
    /// cores that cannot hold the earliest event.
    pub fn next_event_floor(&self) -> f64 {
        self.armed.map_or(f64::NEG_INFINITY, |a| a.event_floor)
    }

    /// When `job` would reach its target running from the core clock on.
    fn completion_of(&self, job: &CoreJob) -> Option<SimTime> {
        self.profile.time_for_ghz_seconds_from(
            self.cursor,
            self.clock,
            job.remaining() / self.units_per_ghz_sec,
        )
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
                    release: j.release,
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
        let mut finished = Vec::new();
        self.advance_traced(to, model, meter, &mut NullSink, &mut finished);
        finished
    }

    /// Like [`Core::advance`], but appends the finished jobs to `finished`
    /// and emits a [`TraceEvent::ExecSlice`] for every metered execution
    /// slice into `sink`.
    ///
    /// The core caches `model.power` per installed segment: pass the same
    /// model to every advance (a server owns exactly one).
    ///
    /// A core armed by its previous advance (see the module docs) that is
    /// advanced to a target before its horizon takes the fast path: one
    /// slice of the armed job on the armed segment's cached speed and
    /// power, metered and traced exactly as the general path would, unless
    /// that slice would finish the job, in which case the general path
    /// runs instead.
    ///
    /// # Panics
    /// Panics if `to` precedes the core clock beyond tolerance.
    pub fn advance_traced(
        &mut self,
        to: SimTime,
        model: &dyn PowerModel,
        meter: &mut EnergyMeter,
        sink: &mut dyn TraceSink,
        finished: &mut Vec<FinishedJob>,
    ) {
        assert!(
            to.at_or_after(self.clock),
            "core {} cannot advance backwards: {} -> {}",
            self.index,
            self.clock,
            to
        );
        if let Some(a) = self.armed {
            if to.as_secs() < a.until && self.fast_slice(a, to, meter, sink) {
                return;
            }
        }
        if !self.online {
            // Offline cores keep their clock moving (so recovery resumes
            // at the right instant) but execute nothing; `fail` already
            // drained their jobs.
            self.clock = to;
            return;
        }
        if self.watts.len() != self.profile.segments().len() {
            self.watts.clear();
            let segments = self.profile.segments();
            self.watts
                .extend(segments.iter().map(|s| model.power(s.speed_ghz)));
        }
        let mut guard = 0u32;
        while self.clock.before(to) {
            guard += 1;
            assert!(
                guard < 1_000_000,
                "core {} advance loop stuck at {}",
                self.index,
                self.clock
            );
            self.reap(self.clock, finished);
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

            self.cursor = self.profile.first_live_segment(self.cursor, self.clock);
            let job = &self.jobs[idx];
            self.running = Some(job.id);
            let slice_end = to.min(job.deadline);
            let completion = self.completion_of(job);

            // A completion within the tolerance after `slice_end` still
            // ends the slice at `slice_end`: running past the advance
            // target would meter time the clock later rewinds.
            let run_until = match completion {
                Some(c) if c.at_or_before(slice_end) => c.min(slice_end),
                _ => slice_end,
            };
            if run_until.after(self.clock) {
                let (ghz_secs, energy) = self.profile.ghz_seconds_and_energy_from(
                    self.cursor,
                    &self.watts,
                    self.clock,
                    run_until,
                );
                self.meter_slice(run_until, ghz_secs, energy, meter, sink);
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
            self.reap(self.clock, finished);
        }
        self.clock = to;
        self.reap(self.clock, finished);
        self.arm();
    }

    /// Meters one execution slice ending at `end` and traces it.
    fn meter_slice(
        &self,
        end: SimTime,
        ghz_secs: f64,
        energy: f64,
        meter: &mut EnergyMeter,
        sink: &mut dyn TraceSink,
    ) {
        meter.record_joules(self.index, energy);
        if sink.is_enabled() {
            sink.record(&TraceEvent::ExecSlice {
                t: end.as_secs(),
                core: self.index as u64,
                start_s: self.clock.as_secs(),
                end_s: end.as_secs(),
                ghz_secs,
                energy_j: energy,
            });
        }
    }

    /// The fast path: advances an armed core to `to < a.until` as one
    /// slice of the armed job. Returns `false`, touching nothing, when the
    /// slice would leave the job done (or within [`TIME_EPS`] GHz-seconds
    /// of its target); the general path then takes the advance.
    ///
    /// Under the horizon the general path does exactly this: no job is
    /// done or expired at the clock or at `to`, so neither reap removes
    /// anything; it runs the armed job (sticky, or the EDF pick it would
    /// make now) and projects its completion more than [`TIME_EPS`] past
    /// `to`, so the slice ends at `to` with no snap; and of all profile
    /// segments only the armed one overlaps `[clock, to]`, so each
    /// integral is the single term `0.0 + x`.
    fn fast_slice(
        &mut self,
        a: Armed,
        to: SimTime,
        meter: &mut EnergyMeter,
        sink: &mut dyn TraceSink,
    ) -> bool {
        if !self.clock.before(to) {
            self.clock = to;
            return true;
        }
        let lo = a.seg_start.max(self.clock);
        let (ghz_secs, energy) = if to.after(lo) {
            let secs = to.saturating_since(lo).as_secs();
            (a.speed * secs, a.watts * secs)
        } else {
            (0.0, 0.0)
        };
        let job = &self.jobs[a.job];
        let processed = (job.processed + ghz_secs * self.units_per_ghz_sec).min(job.target_demand);
        // The general path reaps a job at `remaining() <= 1e-9` and
        // projects its completion as "now" below TIME_EPS GHz-seconds.
        let remaining = (job.target_demand - processed).max(0.0);
        if remaining <= 1e-9 || remaining / self.units_per_ghz_sec <= TIME_EPS {
            return false;
        }
        self.running = Some(job.id);
        self.meter_slice(to, ghz_secs, energy, meter, sink);
        self.jobs[a.job].processed = processed;
        self.clock = to;
        true
    }

    /// Arms the core at the end of a general-path advance.
    ///
    /// With `J` the job the general path would run from the clock `c` and
    /// `k` the profile segment in force, the horizon is
    /// `min(J's projected completion, every resident deadline, end of k's
    /// span) − ARM_MARGIN_S`, where k's span ends at k's start if `c` lies
    /// in the gap before it, else at k's end. Below the horizon
    /// `current_speed()` is constant, and `next_event_time()` never drops
    /// below `min(its value now, end of k's span) − ARM_MARGIN_S`.
    fn arm(&mut self) {
        self.armed = None;
        let Some(job) = self.pick_running(self.clock) else {
            return;
        };
        self.cursor = self.profile.first_live_segment(self.cursor, self.clock);
        let c = self.clock.as_secs();
        let segments = self.profile.segments();
        // `speed_at` switches segments at `end - TIME_EPS`; if the
        // previous segment's switch is still ahead of the clock, the
        // current speed would change under the horizon.
        if self.cursor > 0 && segments[self.cursor - 1].end.as_secs() - TIME_EPS > c {
            return;
        }
        let (seg_start, speed, watts, span_end) = match segments.get(self.cursor) {
            None => (self.clock, 0.0, 0.0, f64::INFINITY),
            Some(seg) => {
                let span_end = if seg.start.as_secs() - TIME_EPS > c {
                    seg.start
                } else {
                    seg.end
                };
                (
                    seg.start,
                    seg.speed_ghz,
                    self.watts[self.cursor],
                    span_end.as_secs(),
                )
            }
        };
        // The horizon and `next_event_time()` in one walk over the jobs
        // (all live: the advance just reaped the rest).
        let mut until = span_end;
        let mut next_event = f64::INFINITY;
        for (i, j) in self.jobs.iter().enumerate() {
            until = until.min(j.deadline.as_secs());
            next_event = next_event.min(j.deadline.as_secs());
            if let Some(done_at) = self.completion_of(j) {
                next_event = next_event.min(done_at.as_secs());
                if i == job {
                    until = until.min(done_at.as_secs());
                }
            }
        }
        self.armed = Some(Armed {
            job,
            until: until - ARM_MARGIN_S,
            seg_start,
            speed,
            watts,
            current_speed: self.profile.speed_at(self.clock),
            event_floor: next_event.min(span_end) - ARM_MARGIN_S,
        });
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
