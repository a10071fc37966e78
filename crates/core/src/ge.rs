//! The GE (Good Enough) scheduling algorithm — paper §III.
//!
//! One scheduler epoch (triggered by quantum / counter / idle-core events)
//! performs, in order:
//!
//! 1. **C-RR assignment** (§III-E): queued jobs are distributed to cores
//!    cumulative-round-robin; a job never migrates afterwards.
//! 2. **Mode decision + compensation** (§III-C): if the monitored quality
//!    has fallen below `Q_GE`, switch to BQ (no cutting, run everything to
//!    completion); once it recovers, switch back to AES.
//! 3. **LF job cutting** (§III-B, AES mode only): per core, cut job tails
//!    longest-first until the batch quality equals the target. A running
//!    job re-enters the cut with its *original* demand; its new target is
//!    never below what it has already processed and never above `p_j`.
//! 4. **Hybrid power distribution** (§III-D): Equal-Sharing below the
//!    critical load, Water-Filling above it. Core power demands are the
//!    power at each core's Energy-OPT peak speed.
//! 5. **Quality-OPT second cut** (§III-E): if a core's power cap cannot
//!    execute its batch, targets are reduced by prefix-constrained
//!    level-filling — the volume-budgeted quality maximizer.
//! 6. **Energy-OPT execution** (§III-E): each core's final plan is the
//!    YDS minimum-energy speed profile; the core engine runs it in EDF
//!    order. With discrete DVFS enabled, per-core speeds are rectified to
//!    the ladder (§IV-A-5) lowest-power-core first.
//!
//! The same struct also implements the best-effort family: `BE` is GE with
//! cutting disabled and WF forced; `OQ` raises the target by 2 % and
//! disables compensation; `BE-P`/`BE-S` are BE under a reduced budget /
//! per-core speed cap.

use ge_power::{
    distribute_equal_sharing_into, distribute_water_filling_into, yds_schedule_into,
    PolynomialPower, PowerModel, SpeedProfile, YdsJob, YdsScratch,
};
use ge_quality::{
    lf_cut_with, prefix_level_fill_into, CutOutcome, CutScratch, LevelFillScratch, QualityFunction,
};
use ge_server::{CoreJob, CrrAssigner};
use ge_simcore::SimTime;
use ge_telemetry::{Gauge, SpanGuard, Telemetry};
use ge_trace::{SplitPolicy, TraceEvent};

use crate::config::{PowerPolicy, SimConfig};
use crate::policy::{ScheduleCtx, Scheduler, TriggerSet, MODE_AES, MODE_BQ};

/// Behavioural knobs selecting which member of the GE/BE family this
/// scheduler instance is.
#[derive(Debug, Clone)]
pub struct GeOptions {
    /// Label reported in results.
    pub label: &'static str,
    /// Apply the LF cutting policy (AES mode). `false` = best effort.
    pub cutting: bool,
    /// Enable the BQ compensation policy.
    pub compensation: bool,
    /// Added to `Q_GE` when computing the cut target (OQ uses +0.02).
    pub target_quality_offset: f64,
    /// Power-distribution selection.
    pub power_policy: PowerPolicy,
    /// Reduced total budget (BE-P); `None` = the configured budget.
    pub budget_override_w: Option<f64>,
    /// Per-core speed cap in GHz (BE-S); `None` = uncapped.
    pub speed_cap_ghz: Option<f64>,
    /// Use plain Round-Robin (cursor reset each batch) instead of C-RR —
    /// the §III-E alternative, kept for the assignment ablation.
    pub plain_rr: bool,
    /// Disable incremental replanning: every epoch replans every online
    /// core from scratch. This is the reference mode the equivalence
    /// test and the end-to-end benchmark compare the dirty-bit path
    /// against; production configurations leave it off.
    pub force_full_replan: bool,
}

impl GeOptions {
    /// The paper's GE algorithm.
    pub fn paper() -> Self {
        GeOptions {
            label: "GE",
            cutting: true,
            compensation: true,
            target_quality_offset: 0.0,
            power_policy: PowerPolicy::Hybrid,
            budget_override_w: None,
            speed_cap_ghz: None,
            plain_rr: false,
            force_full_replan: false,
        }
    }

    /// The BE (Best Effort) baseline: BQ always, WF always (§IV-A-1).
    pub fn best_effort() -> Self {
        GeOptions {
            label: "BE",
            cutting: false,
            compensation: false,
            target_quality_offset: 0.0,
            power_policy: PowerPolicy::WaterFillingOnly,
            budget_override_w: None,
            speed_cap_ghz: None,
            plain_rr: false,
            force_full_replan: false,
        }
    }
}

/// Per-core state carried between epochs by the incremental replanner.
///
/// See DESIGN.md ("Dirty-bit invariants") for the argument that the
/// skip is sound: a clean core's installed plan, targets, and cached
/// power demand are exactly what a full replan would recompute (the
/// demand up to float round-off, since a mid-plan YDS recompute divides
/// the same residual work by the same residual window).
#[derive(Debug)]
struct ReplanCache {
    /// False until the first epoch has planned every core.
    primed: bool,
    /// Core must be replanned this epoch.
    dirty: Vec<bool>,
    /// Fingerprint of each core's resident job-id set at the last plan —
    /// detects completions/expirations reaped by the driver, which the
    /// scheduler never observes directly.
    fp: Vec<u64>,
    /// DVFS actuation factor at the last install; a fault-injected change
    /// only takes effect at the next install, so it must force one.
    speed_factor: Vec<f64>,
    /// Power demand (W at the uncapped Energy-OPT peak) from the last plan.
    demand_w: Vec<f64>,
    /// Peak speed (GHz) of the last uncapped plan; a granted cap below
    /// this invalidates the kept plan.
    peak_speed: Vec<f64>,
    /// The last finalize needed a Quality-OPT second cut. Capped cores
    /// are replanned every epoch: a full replan first *undoes* the second
    /// cut (fresh LF-cut targets) before re-cutting, and skipping would
    /// freeze the deeper cut even after power frees up.
    was_capped: Vec<bool>,
    /// The uncapped Energy-OPT plan computed this epoch (dirty cores
    /// only), reused by finalize when no second cut is needed.
    uncapped: Vec<SpeedProfile>,
    /// Online mask at the last epoch; any up/down transition replans all.
    last_online: Vec<bool>,
    /// Budget throttle factor at the last epoch.
    last_budget_factor: f64,
    /// ES/WF selection at the last epoch (`None` before the first).
    last_use_wf: Option<bool>,
}

// The *entire* cache is persisted, not reset: a reset would force a full
// replan on the first resumed epoch, and the full and incremental paths
// agree only up to float round-off, so a reset run would drift from the
// uninterrupted one at the bit level. Every vector holds one entry per
// core.
ge_recover::persist! {
    ReplanCache {
        primed,
        dirty,
        fp,
        speed_factor,
        demand_w,
        peak_speed,
        was_capped,
        uncapped,
        last_online,
        last_budget_factor,
        last_use_wf as OptBool,
    }
}

impl ReplanCache {
    fn new(cores: usize) -> Self {
        ReplanCache {
            primed: false,
            dirty: vec![true; cores],
            fp: vec![0; cores],
            speed_factor: vec![1.0; cores],
            demand_w: vec![0.0; cores],
            peak_speed: vec![0.0; cores],
            was_capped: vec![false; cores],
            uncapped: (0..cores).map(|_| SpeedProfile::empty()).collect(),
            last_online: vec![false; cores],
            last_budget_factor: 1.0,
            last_use_wf: None,
        }
    }
}

/// Scheduler-owned scratch buffers: every per-epoch temporary (online
/// masks, `YdsJob` batches, sort orders, believed-demand snapshots, the
/// power split, second-cut allocations, the plan being installed) lives
/// here and is reused. YDS writes the uncapped plans into the
/// [`ReplanCache`] and a core copies an installed plan into its own
/// buffer, so once the buffers have grown a steady-state epoch allocates
/// nothing (pinned by `crates/core/tests/epoch_allocations.rs`). Buffers
/// are `mem::take`n inside `on_schedule` to sidestep borrow conflicts
/// and put back before returning.
#[derive(Debug, Default)]
struct EpochScratch {
    online: Vec<bool>,
    batch: Vec<ge_workload::Job>,
    assign_targets: Vec<usize>,
    demands: Vec<f64>,
    online_idx: Vec<usize>,
    caps: Vec<f64>,
    /// The power split over the online cores, and the speed cap each
    /// grants (one `speed_for_power` per distinct cap).
    caps_online: Vec<f64>,
    speed_caps: Vec<f64>,
    wf_sorted: Vec<f64>,
    believed: Vec<f64>,
    yds_jobs: Vec<YdsJob>,
    order: Vec<usize>,
    fin_demands: Vec<f64>,
    fin_budgets: Vec<f64>,
    fin_alloc: Vec<f64>,
    level_fill: LevelFillScratch,
    /// The second cut's Energy-OPT plan, before the clamp.
    second_plan: SpeedProfile,
    /// The clamped plan `finalize_core` installs.
    plan: SpeedProfile,
    chosen: Vec<f64>,
    yds: YdsScratch,
    cut: CutScratch,
    cut_out: CutOutcome,
}

/// Cumulative incremental-replanning statistics for one scheduler run.
///
/// Epoch counters partition planned epochs (`full_epochs` +
/// `incremental_epochs` ≤ [`GeScheduler::epochs`]; epochs with every
/// core offline plan nothing and count in neither). Per-core counters
/// partition online-core plan decisions, and the `dirty_*` counters
/// attribute each *incremental-epoch* invalidation to its cause. Under
/// `force_full_replan` every planned epoch is a full epoch and all
/// dirty-cause counters stay 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplanStats {
    /// Epochs where a global invalidation replanned every online core.
    pub full_epochs: u64,
    /// Epochs in which at least one online core kept its plan.
    pub incremental_epochs: u64,
    /// Per-core plans recomputed (uncapped pipeline runs).
    pub cores_replanned: u64,
    /// Per-core plans kept verbatim — the cache-hit count.
    pub cores_skipped: u64,
    /// Cores invalidated because their resident job set changed under
    /// the scheduler (completions/expirations reaped by the driver).
    pub dirty_fingerprint: u64,
    /// Cores invalidated by a non-nominal or changed DVFS speed factor.
    pub dirty_speed_factor: u64,
    /// Cores replanned because their last finalize was second-cut
    /// (capped cores replan every epoch).
    pub dirty_capped: u64,
    /// Cores invalidated by new work: a batch assignment or an adopted
    /// orphan (counted once per core per epoch, on the clean→dirty edge).
    pub dirty_assignment: u64,
    /// Clean cores whose granted cap shrank below the kept plan's peak.
    pub dirty_cap_shrunk: u64,
}

ge_recover::persist! {
    ReplanStats {
        full_epochs,
        incremental_epochs,
        cores_replanned,
        cores_skipped,
        dirty_fingerprint,
        dirty_speed_factor,
        dirty_capped,
        dirty_assignment,
        dirty_cap_shrunk,
    }
}

/// Cached live-registry gauge handles mirroring [`ReplanStats`]; resolved
/// once on the first telemetry-enabled epoch (derived state — never
/// checkpointed).
struct ReplanGauges {
    full_epochs: Gauge,
    incremental_epochs: Gauge,
    cores_replanned: Gauge,
    cores_skipped: Gauge,
    dirty_fingerprint: Gauge,
    dirty_speed_factor: Gauge,
    dirty_capped: Gauge,
    dirty_assignment: Gauge,
    dirty_cap_shrunk: Gauge,
}

impl ReplanGauges {
    fn new() -> Self {
        let r = Telemetry::registry();
        ReplanGauges {
            full_epochs: r.gauge("ge_replan_full_epochs"),
            incremental_epochs: r.gauge("ge_replan_incremental_epochs"),
            cores_replanned: r.gauge("ge_replan_cores_replanned"),
            cores_skipped: r.gauge("ge_replan_cores_skipped"),
            dirty_fingerprint: r.gauge("ge_replan_dirty_fingerprint"),
            dirty_speed_factor: r.gauge("ge_replan_dirty_speed_factor"),
            dirty_capped: r.gauge("ge_replan_dirty_capped"),
            dirty_assignment: r.gauge("ge_replan_dirty_assignment"),
            dirty_cap_shrunk: r.gauge("ge_replan_dirty_cap_shrunk"),
        }
    }

    fn publish(&self, s: &ReplanStats) {
        self.full_epochs.set(s.full_epochs as f64);
        self.incremental_epochs.set(s.incremental_epochs as f64);
        self.cores_replanned.set(s.cores_replanned as f64);
        self.cores_skipped.set(s.cores_skipped as f64);
        self.dirty_fingerprint.set(s.dirty_fingerprint as f64);
        self.dirty_speed_factor.set(s.dirty_speed_factor as f64);
        self.dirty_capped.set(s.dirty_capped as f64);
        self.dirty_assignment.set(s.dirty_assignment as f64);
        self.dirty_cap_shrunk.set(s.dirty_cap_shrunk as f64);
    }
}

/// Order-sensitive FNV-1a over a core's resident job-id sequence, salted
/// with the length. Jobs never reorder in place (reaps shift, arrivals
/// append), so any reap or adoption changes the fingerprint.
fn job_set_fingerprint(jobs: &[CoreJob]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ (jobs.len() as u64);
    for j in jobs {
        h ^= j.id.index() as u64 ^ 0x9E37_79B9_7F4A_7C15;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The GE scheduler (and, via [`GeOptions`], the whole BE family).
pub struct GeScheduler {
    opts: GeOptions,
    q_ge: f64,
    q_min: f64,
    critical_load_rps: f64,
    budget_w: f64,
    power_beta: f64,
    cores: usize,
    units_per_ghz_sec: f64,
    model: PolynomialPower,
    discrete: Option<ge_power::DiscreteSpeedSet>,
    crr: CrrAssigner,
    mode: usize,
    epochs: u64,
    cache: ReplanCache,
    scratch: EpochScratch,
    /// Cumulative replanning statistics (checkpointed).
    stats: ReplanStats,
    /// Lazily-resolved registry gauges mirroring `stats`.
    gauges: Option<ReplanGauges>,
}

// Persistent cross-epoch state: the mode, the epoch counters, the C-RR
// cursor and the replan cache. `EpochScratch` (including the LF cut's
// `InverseMemo`) is deliberately dropped: scratch is rebuilt each epoch,
// and the memo is a pure bit-pattern-keyed cache of a deterministic
// function, so losing it changes nothing but speed.
ge_recover::persist! {
    GeScheduler { mode, epochs, stats, crr, cache }
    check |s| s.mode <= MODE_BQ => "unknown mode";
}

impl GeScheduler {
    /// Creates a scheduler for the given platform configuration.
    pub fn new(cfg: &SimConfig, opts: GeOptions) -> Self {
        cfg.validate();
        let budget = opts.budget_override_w.unwrap_or(cfg.budget_w);
        assert!(budget > 0.0, "budget override must be positive");
        GeScheduler {
            q_ge: cfg.q_ge,
            q_min: cfg.q_min,
            critical_load_rps: cfg.critical_load_rps,
            budget_w: budget,
            power_beta: cfg.power_beta,
            cores: cfg.cores,
            units_per_ghz_sec: cfg.units_per_ghz_sec,
            model: PolynomialPower::new(cfg.power_a, cfg.power_beta),
            discrete: cfg.discrete_speeds.clone(),
            crr: CrrAssigner::new(cfg.cores),
            mode: if opts.cutting { MODE_AES } else { MODE_BQ },
            epochs: 0,
            cache: ReplanCache::new(cfg.cores),
            scratch: EpochScratch::default(),
            stats: ReplanStats::default(),
            gauges: None,
            opts,
        }
    }

    /// Number of epochs this scheduler has run.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Cumulative incremental-replanning statistics: full vs incremental
    /// epochs, per-core plan cache hits, and the dirty-bit cause
    /// breakdown. All cause counters are 0 under `force_full_replan`.
    pub fn replan_stats(&self) -> ReplanStats {
        self.stats
    }

    /// The effective cut target (`Q_GE` plus any OQ offset, clamped to 1).
    fn cut_target(&self) -> f64 {
        (self.q_ge + self.opts.target_quality_offset).min(1.0)
    }

    /// The cut target under a throttled budget. Power scales as `s^β`, so
    /// the volume a budget `φ·H` can retire scales roughly as `φ^(1/β)`;
    /// the cut aims there instead of chasing the unattainable nominal
    /// target, but never drops below the `Q_min` floor.
    fn effective_cut_target(&self, budget_factor: f64) -> f64 {
        let base = self.cut_target();
        if budget_factor >= 1.0 {
            return base;
        }
        (base * budget_factor.powf(1.0 / self.power_beta)).max(self.q_min.min(base))
    }

    /// Step 2: the AES/BQ mode decision.
    ///
    /// Under a throttled budget the compensation policy is overridden:
    /// entering BQ would spend *more* energy chasing quality the shrunken
    /// budget cannot deliver, so the scheduler stays in AES and cuts
    /// deeper (see [`Self::effective_cut_target`]).
    fn decide_mode(&mut self, monitored_quality: f64, budget_factor: f64) {
        if !self.opts.cutting {
            self.mode = MODE_BQ;
            return;
        }
        if budget_factor < 1.0 - 1e-12 {
            self.mode = MODE_AES;
            return;
        }
        if !self.opts.compensation {
            self.mode = MODE_AES;
            return;
        }
        self.mode = if monitored_quality < self.q_ge {
            MODE_BQ
        } else {
            MODE_AES
        };
    }

    /// `Q_min` admission control: when the projected batch quality under
    /// the currently degraded capacity falls below the floor, the most
    /// recently arrived jobs are rejected outright (pushed into
    /// `ctx.shed`) so the remaining batch can still be served at or above
    /// `Q_min`, instead of every job starving a little.
    ///
    /// The projection is a deliberately coarse mean-field bound: assume
    /// the whole effective budget is split equally (`s_ES`), spread the
    /// capacity of the surviving cores over the batch, and score the mean
    /// job against its mean estimate.
    fn shed_below_floor(
        &self,
        ctx: &mut ScheduleCtx<'_>,
        batch: &mut Vec<ge_workload::Job>,
        m_online: usize,
        h_eff: f64,
    ) {
        if self.q_min <= 0.0 || batch.is_empty() {
            return;
        }
        let f = ctx.quality_fn;
        let s_es = self.model.speed_for_power(h_eff / m_online as f64);
        loop {
            let n = batch.len();
            if n == 0 {
                break;
            }
            let mean_window: f64 = batch
                .iter()
                .map(|j| j.deadline.saturating_since(ctx.now).as_secs())
                .sum::<f64>()
                / n as f64;
            let mean_est: f64 = batch.iter().map(|j| j.estimate).sum::<f64>() / n as f64;
            if mean_est <= 0.0 {
                break;
            }
            let per_job = m_online as f64 * s_es * self.units_per_ghz_sec * mean_window / n as f64;
            let projected = f.value(per_job.min(mean_est)) / f.value(mean_est);
            if projected >= self.q_min {
                break;
            }
            let job = batch.pop().expect("non-empty batch");
            if ctx.sink.records_terminals() {
                ctx.sink.record(&TraceEvent::JobShed {
                    t: ctx.now.as_secs(),
                    job: job.id.index() as u64,
                    estimate: job.estimate,
                    full_demand: job.demand,
                    projected_quality: projected,
                });
            }
            ctx.shed.push(job);
        }
    }

    /// Steps 3–6 for one core: set targets, plan speeds. Caches the
    /// core's power demand (watts at its planned peak speed), its peak
    /// speed, and the uncapped plan in the [`ReplanCache`]; the plan is
    /// reused by [`Self::finalize_core`] when no second cut binds.
    fn plan_core_uncapped(&mut self, ctx: &mut ScheduleCtx<'_>, core_idx: usize, cut_target: f64) {
        self.stats.cores_replanned += 1;
        let now = ctx.now;
        let f = ctx.quality_fn;

        // -- Targets (LF cut in AES, full believed demand in BQ) ---------
        // All planning runs on the scheduler's demand *estimates*; the
        // execution engine and the ledger use the true demand, so
        // misestimation shows up as wasted energy (overestimate) or lost
        // quality (underestimate) — never as clairvoyance.
        if self.mode == MODE_AES && self.opts.cutting {
            let mut believed = std::mem::take(&mut self.scratch.believed);
            let mut cut = std::mem::take(&mut self.scratch.cut_out);
            believed.clear();
            believed.extend(ctx.server.core(core_idx).jobs().iter().map(|j| j.estimate));
            if !believed.is_empty() {
                lf_cut_with(f, &believed, cut_target, &mut self.scratch.cut, &mut cut);
                let core = ctx.server.core_mut(core_idx);
                for (job, &c) in core.jobs_mut().iter_mut().zip(&cut.cut_demands) {
                    // Never below already-processed volume, never above
                    // the believed demand.
                    job.target_demand = c.max(job.processed).min(job.estimate);
                }
                if ctx.sink.is_enabled() {
                    let volume_before: f64 = believed.iter().sum();
                    let volume_after: f64 = core.jobs().iter().map(|j| j.target_demand).sum();
                    ctx.sink.record(&TraceEvent::LfCut {
                        t: now.as_secs(),
                        level: cut.level,
                        target_quality: cut_target,
                        jobs: believed.len() as u64,
                        volume_before,
                        volume_after,
                    });
                    for job in core.jobs() {
                        if job.target_demand < job.estimate - 1e-12 {
                            ctx.sink.record(&TraceEvent::JobCut {
                                t: now.as_secs(),
                                job: job.id.index() as u64,
                                full_demand: job.estimate,
                                cut_demand: job.target_demand,
                            });
                        }
                    }
                }
            }
            self.scratch.believed = believed;
            self.scratch.cut_out = cut;
        } else {
            for job in ctx.server.core_mut(core_idx).jobs_mut() {
                job.target_demand = job.estimate.max(job.processed);
            }
        }

        // -- Energy-OPT plan over remaining work -------------------------
        let mut yds_jobs = std::mem::take(&mut self.scratch.yds_jobs);
        yds_jobs.clear();
        yds_jobs.extend(
            ctx.server
                .core(core_idx)
                .jobs()
                .iter()
                .filter(|j| j.remaining() > 1e-9 && j.deadline.after(now))
                .enumerate()
                .map(|(i, j)| {
                    YdsJob::new(
                        i,
                        now.as_secs(),
                        j.deadline.as_secs(),
                        j.remaining() / self.units_per_ghz_sec,
                    )
                }),
        );
        let peak = yds_schedule_into(
            &yds_jobs,
            &mut self.scratch.yds,
            &mut self.cache.uncapped[core_idx],
        );
        self.scratch.yds_jobs = yds_jobs;
        self.cache.demand_w[core_idx] = self.model.power(peak);
        self.cache.peak_speed[core_idx] = peak;
    }

    /// Writes into `speed_caps` the speed cap each power cap in `caps`
    /// grants: `speed_for_power`, under any BE-S speed cap. A cap equal to
    /// an earlier one reuses its speed, so an equal-share epoch inverts
    /// the power model once.
    fn speed_caps_into(&self, caps: &[f64], speed_caps: &mut Vec<f64>) {
        speed_caps.clear();
        for (k, &cap_w) in caps.iter().enumerate() {
            let s_cap = match caps[..k]
                .iter()
                .position(|c| c.to_bits() == cap_w.to_bits())
            {
                Some(j) => speed_caps[j],
                None => {
                    let s = self.model.speed_for_power(cap_w);
                    match self.opts.speed_cap_ghz {
                        Some(cap) => s.min(cap),
                        None => s,
                    }
                }
            };
            speed_caps.push(s_cap);
        }
    }

    /// Applies the granted power cap `cap_w` (speed cap `s_cap`) to a
    /// core: second (Quality-OPT) cut if needed, re-plan, and install.
    /// When no cut binds, the uncapped Energy-OPT plan cached by
    /// [`Self::plan_core_uncapped`] this epoch is installed directly
    /// instead of being recomputed.
    fn finalize_core(
        &mut self,
        ctx: &mut ScheduleCtx<'_>,
        core_idx: usize,
        cap_w: f64,
        s_cap: f64,
    ) {
        let now = ctx.now;
        if ctx.sink.is_enabled() {
            ctx.sink.record(&TraceEvent::CoreCap {
                t: now.as_secs(),
                core: core_idx as u64,
                cap_w,
                speed_cap_ghz: s_cap,
            });
        }

        // Indices of plannable jobs in deadline (EDF) order.
        let mut order = std::mem::take(&mut self.scratch.order);
        order.clear();
        {
            let core = ctx.server.core(core_idx);
            order.extend((0..core.jobs().len()).filter(|&i| {
                let j = &core.jobs()[i];
                j.remaining() > 1e-9 && j.deadline.after(now)
            }));
            order.sort_by(|&a, &b| {
                let ja = &core.jobs()[a];
                let jb = &core.jobs()[b];
                ja.deadline.total_cmp(&jb.deadline).then(ja.id.cmp(&jb.id))
            });
        }
        if order.is_empty() {
            ctx.server
                .install_plan(core_idx, &SpeedProfile::empty(), cap_w);
            self.cache.was_capped[core_idx] = false;
            self.scratch.order = order;
            return;
        }

        // Can the cap execute the batch? Peak feasible speed check.
        let needs_cut = {
            let core = ctx.server.core(core_idx);
            let mut cum_work = 0.0;
            let mut peak = 0.0f64;
            for &i in order.iter() {
                let j = &core.jobs()[i];
                cum_work += j.remaining() / self.units_per_ghz_sec;
                let window = j.deadline.saturating_since(now).as_secs().max(1e-9);
                peak = peak.max(cum_work / window);
            }
            peak > s_cap + 1e-9
        };
        self.cache.was_capped[core_idx] = needs_cut;

        let planned = if needs_cut {
            // Quality-OPT second cut: prefix-constrained level fill on the
            // volume achievable by each deadline at the capped speed.
            let mut demands = std::mem::take(&mut self.scratch.fin_demands);
            let mut budgets = std::mem::take(&mut self.scratch.fin_budgets);
            demands.clear();
            budgets.clear();
            {
                let core = ctx.server.core(core_idx);
                demands.extend(order.iter().map(|&i| core.jobs()[i].remaining()));
                budgets.extend(order.iter().map(|&i| {
                    let j = &core.jobs()[i];
                    s_cap * j.deadline.saturating_since(now).as_secs() * self.units_per_ghz_sec
                }));
            }
            let mut alloc = std::mem::take(&mut self.scratch.fin_alloc);
            prefix_level_fill_into(&demands, &budgets, &mut self.scratch.level_fill, &mut alloc);
            let core = ctx.server.core_mut(core_idx);
            for (&i, &a) in order.iter().zip(&alloc) {
                let j = &mut core.jobs_mut()[i];
                j.target_demand = (j.processed + a).min(j.estimate.max(j.processed));
            }
            if ctx.sink.is_enabled() {
                ctx.sink.record(&TraceEvent::SecondCut {
                    t: now.as_secs(),
                    core: core_idx as u64,
                    volume_before: demands.iter().sum(),
                    volume_after: alloc.iter().sum(),
                });
            }
            self.scratch.fin_demands = demands;
            self.scratch.fin_budgets = budgets;
            self.scratch.fin_alloc = alloc;

            // Final Energy-OPT plan over the twice-cut targets.
            let mut yds_jobs = std::mem::take(&mut self.scratch.yds_jobs);
            yds_jobs.clear();
            {
                let core = ctx.server.core(core_idx);
                yds_jobs.extend(
                    order
                        .iter()
                        .enumerate()
                        .filter(|(_, &i)| core.jobs()[i].remaining() > 1e-9)
                        .map(|(k, &i)| {
                            let j = &core.jobs()[i];
                            YdsJob::new(
                                k,
                                now.as_secs(),
                                j.deadline.as_secs(),
                                j.remaining() / self.units_per_ghz_sec,
                            )
                        }),
                );
            }
            yds_schedule_into(
                &yds_jobs,
                &mut self.scratch.yds,
                &mut self.scratch.second_plan,
            );
            self.scratch.yds_jobs = yds_jobs;
            &self.scratch.second_plan
        } else {
            // No cut binds: the uncapped plan computed this epoch is the
            // final plan.
            &self.cache.uncapped[core_idx]
        };
        // Clamp at the cap: numerical safety after a second cut, which
        // guarantees feasibility up to rounding, and an identity when
        // s_cap ≥ peak, kept for safety near the boundary.
        let plan = &mut self.scratch.plan;
        plan.assign_mapped(planned, |speed| speed.min(s_cap));
        if ctx.sink.is_enabled() {
            for s in plan.segments() {
                ctx.sink.record(&TraceEvent::SpeedSegment {
                    t: now.as_secs(),
                    core: core_idx as u64,
                    start_s: s.start.as_secs(),
                    end_s: s.end.as_secs(),
                    speed_ghz: s.speed_ghz,
                });
            }
        }
        ctx.server.install_plan(core_idx, plan, cap_w);
        self.scratch.order = order;
    }

    /// Rebuilds every online core's plan as a single constant rectified
    /// speed (discrete-DVFS mode, §IV-A-5). Incremental replanning is
    /// disabled whenever a ladder is configured, so `online_idx` always
    /// covers every online core here.
    fn apply_discrete(
        &mut self,
        ctx: &mut ScheduleCtx<'_>,
        caps: &[f64],
        online_idx: &[usize],
        h_eff: f64,
    ) {
        let Some(ladder) = &self.discrete else {
            return;
        };
        let now = ctx.now;
        // Chosen continuous speed per core = peak of its installed plan.
        let mut chosen = std::mem::take(&mut self.scratch.chosen);
        chosen.clear();
        chosen.extend(
            online_idx
                .iter()
                .map(|&i| ctx.server.core(i).profile().max_speed()),
        );
        let rectified = ladder.rectify(&chosen, &self.model, h_eff);
        self.scratch.chosen = chosen;
        for (k, &i) in online_idx.iter().enumerate() {
            let speed = rectified[k];
            let last_deadline = ctx
                .server
                .core(i)
                .jobs()
                .iter()
                .filter(|j| j.remaining() > 1e-9)
                .map(|j| j.deadline)
                .fold(now, SimTime::max);
            let profile = if speed > 0.0 && last_deadline.after(now) {
                if ctx.sink.is_enabled() {
                    ctx.sink.record(&TraceEvent::SpeedSegment {
                        t: now.as_secs(),
                        core: i as u64,
                        start_s: now.as_secs(),
                        end_s: last_deadline.as_secs(),
                        speed_ghz: speed,
                    });
                }
                SpeedProfile::constant(now, last_deadline, speed)
            } else {
                SpeedProfile::empty()
            };
            ctx.server.install_plan(i, &profile, caps[i]);
        }
    }
}

impl Scheduler for GeScheduler {
    fn name(&self) -> &str {
        self.opts.label
    }

    fn triggers(&self) -> TriggerSet {
        TriggerSet::batch()
    }

    fn current_mode(&self) -> usize {
        self.mode
    }

    fn on_schedule(&mut self, ctx: &mut ScheduleCtx<'_>) {
        let _span = SpanGuard::enter_sampled("ge_on_schedule");
        self.epochs += 1;
        let h_eff = self.budget_w * ctx.budget_factor;
        let mut online = std::mem::take(&mut self.scratch.online);
        online.clear();
        online.extend((0..self.cores).map(|i| ctx.server.core(i).is_online()));
        let m_online = online.iter().filter(|&&up| up).count();

        // 2. Mode decision (compensation policy; throttling forces AES).
        let monitored = ctx.ledger.quality();
        let prev_mode = self.mode;
        self.decide_mode(monitored, ctx.budget_factor);
        if self.mode != prev_mode && ctx.sink.is_enabled() {
            ctx.sink.record(&TraceEvent::ModeSwitch {
                t: ctx.now.as_secs(),
                from_mode: prev_mode as u64,
                to_mode: self.mode as u64,
                ledger_quality: monitored,
            });
        }

        // Every core down: nothing can be assigned or planned. Queued
        // jobs wait (or expire) until a recovery re-triggers us. The
        // cache is left unprimed state-wise: dirty bits stay set, so the
        // recovery epoch replans from scratch.
        if m_online == 0 {
            self.cache.dirty.iter_mut().for_each(|d| *d = true);
            self.cache.primed = false;
            self.scratch.online = online;
            return;
        }

        // ── Dirty-bit determination ─────────────────────────────────────
        // The ES/WF selection is an epoch-global planning input, so it is
        // decided up front (the PowerSplit event is still emitted at its
        // usual point below).
        let use_wf = match self.opts.power_policy {
            PowerPolicy::Hybrid => ctx.load_estimate_rps >= self.critical_load_rps,
            PowerPolicy::EqualSharingOnly => false,
            PowerPolicy::WaterFillingOnly => true,
        };
        // Global invalidations replan every core: any change to an input
        // that shapes all plans (mode, throttle, ES/WF flip, the online
        // set), plus modes where incrementality is off entirely (discrete
        // DVFS rebuilds every plan each epoch by design).
        let force_full = self.opts.force_full_replan
            || self.discrete.is_some()
            || !self.cache.primed
            || self.mode != prev_mode
            || ctx.budget_factor != self.cache.last_budget_factor
            || Some(use_wf) != self.cache.last_use_wf
            || online != self.cache.last_online;
        if force_full {
            self.cache.dirty.iter_mut().for_each(|d| *d = true);
            self.stats.full_epochs += 1;
        } else {
            for (i, &up) in online.iter().enumerate() {
                if !up || self.cache.dirty[i] {
                    continue;
                }
                let core = ctx.server.core(i);
                // Reaped completions/expirations (the driver removes them
                // without telling the scheduler) invalidate the kept
                // plan. So does any non-nominal DVFS factor — not just a
                // *changed* one: while delivered speed ≠ planned speed,
                // execution drifts off the plan every slice, and a full
                // replan would keep re-adapting to the shortfall.
                if job_set_fingerprint(core.jobs()) != self.cache.fp[i] {
                    self.stats.dirty_fingerprint += 1;
                    self.cache.dirty[i] = true;
                } else if core.speed_factor() != self.cache.speed_factor[i]
                    || core.speed_factor() != 1.0
                {
                    self.stats.dirty_speed_factor += 1;
                    self.cache.dirty[i] = true;
                }
            }
            // Cores whose last finalize was second-cut replan every epoch:
            // a full replan would first restore the LF-cut targets and
            // re-derive the (possibly shallower) second cut from current
            // power, which a skip would freeze.
            for (i, &up) in online.iter().enumerate() {
                if up && self.cache.was_capped[i] {
                    if !self.cache.dirty[i] {
                        self.stats.dirty_capped += 1;
                    }
                    self.cache.dirty[i] = true;
                }
            }
        }

        // 0. Replan on core loss: re-home jobs preempted off failed
        //    cores. They keep their accumulated progress and re-enter
        //    C-RR over the surviving cores.
        for job in ctx.orphans.drain(..) {
            let core_idx = self.crr.assign_one_online(&online);
            if ctx.sink.is_enabled() {
                ctx.sink.record(&TraceEvent::JobAssigned {
                    t: ctx.now.as_secs(),
                    job: job.id.index() as u64,
                    core: core_idx as u64,
                });
            }
            ctx.server.core_mut(core_idx).adopt(job);
            if !self.cache.dirty[core_idx] {
                self.stats.dirty_assignment += 1;
            }
            self.cache.dirty[core_idx] = true;
        }

        // 1. C-RR batch assignment (or plain RR in the ablation), gated
        //    by the Q_min admission floor under degraded capacity.
        if self.opts.plain_rr {
            self.crr.reset();
        }
        let mut batch = std::mem::take(&mut self.scratch.batch);
        batch.clear();
        batch.append(ctx.queue);
        self.shed_below_floor(ctx, &mut batch, m_online, h_eff);
        let mut targets = std::mem::take(&mut self.scratch.assign_targets);
        self.crr
            .assign_batch_online_into(batch.len(), &online, &mut targets);
        for (job, &core_idx) in batch.iter().zip(&targets) {
            ctx.server.core_mut(core_idx).assign(job);
            if !self.cache.dirty[core_idx] {
                self.stats.dirty_assignment += 1;
            }
            self.cache.dirty[core_idx] = true;
            if ctx.sink.is_enabled() {
                ctx.sink.record(&TraceEvent::JobAssigned {
                    t: ctx.now.as_secs(),
                    job: job.id.index() as u64,
                    core: core_idx as u64,
                });
            }
        }
        self.scratch.assign_targets = targets;
        batch.clear();
        self.scratch.batch = batch;

        // 3–5. Per-core targets and uncapped Energy-OPT plans — dirty
        // cores only. Clean cores contribute their cached power demand:
        // re-running YDS mid-plan divides the same residual work by the
        // same residual window, so the cached demand is what a recompute
        // would return (to float round-off).
        let cut_target = self.effective_cut_target(ctx.budget_factor);
        let mut demands = std::mem::take(&mut self.scratch.demands);
        let mut online_idx = std::mem::take(&mut self.scratch.online_idx);
        demands.clear();
        online_idx.clear();
        for (i, &up) in online.iter().enumerate() {
            if !up {
                continue;
            }
            if self.cache.dirty[i] {
                self.plan_core_uncapped(ctx, i, cut_target);
            }
            demands.push(self.cache.demand_w[i]);
            online_idx.push(i);
        }

        // 4. Hybrid power distribution over the *effective* budget.
        if ctx.sink.is_enabled() {
            ctx.sink.record(&TraceEvent::PowerSplit {
                t: ctx.now.as_secs(),
                policy: if use_wf {
                    SplitPolicy::WaterFilling
                } else {
                    SplitPolicy::EqualShare
                },
                load_estimate_rps: ctx.load_estimate_rps,
                budget_w: h_eff,
            });
        }
        let mut caps_online = std::mem::take(&mut self.scratch.caps_online);
        if use_wf {
            distribute_water_filling_into(
                &demands,
                h_eff,
                &mut self.scratch.wf_sorted,
                &mut caps_online,
            );
        } else {
            distribute_equal_sharing_into(m_online, h_eff, &mut caps_online);
        }
        let mut speed_caps = std::mem::take(&mut self.scratch.speed_caps);
        self.speed_caps_into(&caps_online, &mut speed_caps);

        // 5–6. Cap-aware finalization per online core. A clean core whose
        // granted cap still covers its kept plan's peak is skipped
        // outright — plan, targets, and cap metadata stay as installed.
        let mut caps = std::mem::take(&mut self.scratch.caps);
        caps.clear();
        caps.resize(self.cores, 0.0);
        let mut skipped_this_epoch = 0u64;
        for (k, &i) in online_idx.iter().enumerate() {
            caps[i] = caps_online[k];
            let s_cap = speed_caps[k];
            if !self.cache.dirty[i] {
                if s_cap + 1e-9 >= self.cache.peak_speed[i] {
                    skipped_this_epoch += 1;
                    continue;
                }
                // The cap shrank below the kept peak (another core's
                // demand moved the water-filling level): bring the core
                // through the full pipeline after all.
                self.stats.dirty_cap_shrunk += 1;
                self.plan_core_uncapped(ctx, i, cut_target);
            }
            self.finalize_core(ctx, i, caps_online[k], s_cap);
        }
        if skipped_this_epoch > 0 {
            self.stats.incremental_epochs += 1;
            self.stats.cores_skipped += skipped_this_epoch;
        }

        // Discrete-DVFS rectification (optional).
        self.apply_discrete(ctx, &caps, &online_idx, h_eff);

        // ── Commit the epoch snapshot ───────────────────────────────────
        for (i, &up) in online.iter().enumerate() {
            if up {
                let core = ctx.server.core(i);
                self.cache.fp[i] = job_set_fingerprint(core.jobs());
                self.cache.speed_factor[i] = core.speed_factor();
                self.cache.dirty[i] = false;
            } else {
                // Offline cores replan on recovery (also forced by the
                // online-set change, but kept explicit).
                self.cache.dirty[i] = true;
            }
        }
        self.cache.last_online.clone_from(&online);
        self.cache.last_budget_factor = ctx.budget_factor;
        self.cache.last_use_wf = Some(use_wf);
        self.cache.primed = true;

        if Telemetry::is_enabled() {
            self.gauges
                .get_or_insert_with(ReplanGauges::new)
                .publish(&self.stats);
        }

        self.scratch.online = online;
        self.scratch.demands = demands;
        self.scratch.online_idx = online_idx;
        self.scratch.caps = caps;
        self.scratch.caps_online = caps_online;
        self.scratch.speed_caps = speed_caps;
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
            budget_w: 40.0, // 20 W / core = 2 GHz equal share
            ..SimConfig::paper_default()
        }
    }

    fn make_server(c: &SimConfig) -> Server {
        Server::new(
            c.cores,
            Box::new(PolynomialPower::new(c.power_a, c.power_beta)),
            c.budget_w,
            c.units_per_ghz_sec,
        )
    }

    fn ctx_parts(c: &SimConfig) -> (Server, Vec<Job>, QualityLedger, ExpConcave) {
        (
            make_server(c),
            Vec::new(),
            QualityLedger::cumulative(),
            ExpConcave::new(c.quality_c, c.quality_xmax),
        )
    }

    fn job(id: u64, release: f64, deadline: f64, demand: f64) -> Job {
        Job::new(JobId(id), t(release), t(deadline), demand)
    }

    #[test]
    fn assigns_queue_via_crr() {
        let c = cfg();
        let mut ge = GeScheduler::new(&c, GeOptions::paper());
        let (mut server, mut queue, ledger, f) = ctx_parts(&c);
        queue.push(job(0, 0.0, 0.15, 200.0));
        queue.push(job(1, 0.0, 0.15, 200.0));
        queue.push(job(2, 0.0, 0.15, 200.0));
        let mut ctx = ScheduleCtx {
            now: t(0.0),
            server: &mut server,
            queue: &mut queue,
            ledger: &ledger,
            quality_fn: &f,
            load_estimate_rps: 10.0,
            budget_factor: 1.0,
            orphans: &mut Vec::new(),
            shed: &mut Vec::new(),
            sink: &mut ge_trace::NullSink,
        };
        ge.on_schedule(&mut ctx);
        assert!(queue.is_empty());
        assert_eq!(server.core(0).jobs().len(), 2); // C-RR: 0,1,0
        assert_eq!(server.core(1).jobs().len(), 1);
    }

    #[test]
    fn aes_mode_cuts_targets() {
        let c = cfg();
        let mut ge = GeScheduler::new(&c, GeOptions::paper());
        let (mut server, mut queue, ledger, f) = ctx_parts(&c);
        queue.push(job(0, 0.0, 0.15, 900.0));
        queue.push(job(1, 0.0, 0.15, 800.0));
        let mut ctx = ScheduleCtx {
            now: t(0.0),
            server: &mut server,
            queue: &mut queue,
            ledger: &ledger,
            quality_fn: &f,
            load_estimate_rps: 10.0,
            budget_factor: 1.0,
            orphans: &mut Vec::new(),
            shed: &mut Vec::new(),
            sink: &mut ge_trace::NullSink,
        };
        ge.on_schedule(&mut ctx);
        assert_eq!(ge.current_mode(), MODE_AES);
        // Each core got one long job; AES must have cut it below full.
        for i in 0..2 {
            for j in server.core(i).jobs() {
                assert!(
                    j.target_demand < j.full_demand - 1e-6,
                    "job {} not cut: target {} vs full {}",
                    j.id,
                    j.target_demand,
                    j.full_demand
                );
            }
        }
    }

    #[test]
    fn be_never_cuts() {
        let c = cfg();
        let mut be = GeScheduler::new(&c, GeOptions::best_effort());
        let (mut server, mut queue, ledger, f) = ctx_parts(&c);
        // 900 units in 450 ms needs 2 GHz — within the core's power reach,
        // so no Quality-OPT second cut can bind.
        queue.push(job(0, 0.0, 0.45, 900.0));
        let mut ctx = ScheduleCtx {
            now: t(0.0),
            server: &mut server,
            queue: &mut queue,
            ledger: &ledger,
            quality_fn: &f,
            load_estimate_rps: 500.0,
            budget_factor: 1.0,
            orphans: &mut Vec::new(),
            shed: &mut Vec::new(),
            sink: &mut ge_trace::NullSink,
        };
        be.on_schedule(&mut ctx);
        assert_eq!(be.current_mode(), MODE_BQ);
        let j = &server.core(0).jobs()[0];
        assert!((j.target_demand - j.full_demand).abs() < 1e-9);
    }

    #[test]
    fn compensation_switches_to_bq_and_back() {
        let c = cfg();
        let mut ge = GeScheduler::new(&c, GeOptions::paper());
        let (mut server, mut queue, mut ledger, f) = ctx_parts(&c);
        // Degrade monitored quality below Q_GE = 0.9.
        ledger.record(0.5, 1.0);
        {
            let mut ctx = ScheduleCtx {
                now: t(0.0),
                server: &mut server,
                queue: &mut queue,
                ledger: &ledger,
                quality_fn: &f,
                load_estimate_rps: 10.0,
                budget_factor: 1.0,
                orphans: &mut Vec::new(),
                shed: &mut Vec::new(),
                sink: &mut ge_trace::NullSink,
            };
            ge.on_schedule(&mut ctx);
        }
        assert_eq!(ge.current_mode(), MODE_BQ, "quality 0.5 must force BQ");
        // Recover the quality; next epoch returns to AES.
        for _ in 0..100 {
            ledger.record(1.0, 1.0);
        }
        {
            let mut ctx = ScheduleCtx {
                now: t(0.5),
                server: &mut server,
                queue: &mut queue,
                ledger: &ledger,
                quality_fn: &f,
                load_estimate_rps: 10.0,
                budget_factor: 1.0,
                orphans: &mut Vec::new(),
                shed: &mut Vec::new(),
                sink: &mut ge_trace::NullSink,
            };
            ge.on_schedule(&mut ctx);
        }
        assert_eq!(ge.current_mode(), MODE_AES);
    }

    #[test]
    fn no_comp_stays_in_aes() {
        let c = cfg();
        let mut ge = GeScheduler::new(
            &c,
            GeOptions {
                compensation: false,
                ..GeOptions::paper()
            },
        );
        let (mut server, mut queue, mut ledger, f) = ctx_parts(&c);
        ledger.record(0.1, 1.0); // terrible quality
        let mut ctx = ScheduleCtx {
            now: t(0.0),
            server: &mut server,
            queue: &mut queue,
            ledger: &ledger,
            quality_fn: &f,
            load_estimate_rps: 10.0,
            budget_factor: 1.0,
            orphans: &mut Vec::new(),
            shed: &mut Vec::new(),
            sink: &mut ge_trace::NullSink,
        };
        ge.on_schedule(&mut ctx);
        assert_eq!(ge.current_mode(), MODE_AES);
    }

    #[test]
    fn hybrid_uses_es_below_critical_wf_above() {
        let c = cfg();
        // Asymmetric load: core 0 heavy, core 1 empty.
        let heavy = job(0, 0.0, 0.15, 900.0);

        // Light load ⇒ ES ⇒ both cores capped at H/m = 20 W.
        let mut ge = GeScheduler::new(&c, GeOptions::paper());
        let (mut server, mut queue, ledger, f) = ctx_parts(&c);
        queue.push(heavy);
        let mut ctx = ScheduleCtx {
            now: t(0.0),
            server: &mut server,
            queue: &mut queue,
            ledger: &ledger,
            quality_fn: &f,
            load_estimate_rps: 10.0, // « critical 154
            budget_factor: 1.0,
            orphans: &mut Vec::new(),
            shed: &mut Vec::new(),
            sink: &mut ge_trace::NullSink,
        };
        ge.on_schedule(&mut ctx);
        assert!((server.core(0).power_cap() - 20.0).abs() < 1e-9);
        assert!((server.core(1).power_cap() - 20.0).abs() < 1e-9);

        // Heavy load ⇒ WF ⇒ the loaded core gets (almost) everything it
        // demands; the idle core keeps only surplus headroom.
        let mut ge = GeScheduler::new(&c, GeOptions::paper());
        let (mut server, mut queue, ledger, f) = ctx_parts(&c);
        queue.push(job(0, 0.0, 0.15, 900.0));
        let mut ctx = ScheduleCtx {
            now: t(0.0),
            server: &mut server,
            queue: &mut queue,
            ledger: &ledger,
            quality_fn: &f,
            load_estimate_rps: 500.0, // » critical
            budget_factor: 1.0,
            orphans: &mut Vec::new(),
            shed: &mut Vec::new(),
            sink: &mut ge_trace::NullSink,
        };
        ge.on_schedule(&mut ctx);
        assert!(
            server.core(0).power_cap() > 20.0,
            "WF should feed the loaded core, cap = {}",
            server.core(0).power_cap()
        );
    }

    #[test]
    fn insufficient_cap_triggers_second_cut() {
        let c = cfg();
        // BE (no LF cut) with a brutal speed cap: targets must be reduced
        // by Quality-OPT to what the cap can retire.
        let mut be = GeScheduler::new(
            &c,
            GeOptions {
                speed_cap_ghz: Some(1.0),
                ..GeOptions::best_effort()
            },
        );
        let (mut server, mut queue, ledger, f) = ctx_parts(&c);
        // 450 units in 150 ms needs 3 GHz; the cap allows 1 GHz × 0.15 s
        // = 150 units.
        queue.push(job(0, 0.0, 0.15, 450.0));
        let mut ctx = ScheduleCtx {
            now: t(0.0),
            server: &mut server,
            queue: &mut queue,
            ledger: &ledger,
            quality_fn: &f,
            load_estimate_rps: 500.0,
            budget_factor: 1.0,
            orphans: &mut Vec::new(),
            shed: &mut Vec::new(),
            sink: &mut ge_trace::NullSink,
        };
        be.on_schedule(&mut ctx);
        let j = &server.core(0).jobs()[0];
        assert!(
            (j.target_demand - 150.0).abs() < 1e-6,
            "expected 150, got {}",
            j.target_demand
        );
        // Installed plan never exceeds the cap.
        assert!(server.core(0).profile().max_speed() <= 1.0 + 1e-9);
    }

    #[test]
    fn oq_cuts_to_higher_target_than_ge() {
        let c = cfg();
        let run = |opts: GeOptions| {
            let mut s = GeScheduler::new(&c, opts);
            let (mut server, mut queue, ledger, f) = ctx_parts(&c);
            // Wide window so the LF cut, not the power cap, sets targets.
            queue.push(job(0, 0.0, 0.45, 900.0));
            let mut ctx = ScheduleCtx {
                now: t(0.0),
                server: &mut server,
                queue: &mut queue,
                ledger: &ledger,
                quality_fn: &f,
                load_estimate_rps: 10.0,
                budget_factor: 1.0,
                orphans: &mut Vec::new(),
                shed: &mut Vec::new(),
                sink: &mut ge_trace::NullSink,
            };
            s.on_schedule(&mut ctx);
            server.core(0).jobs()[0].target_demand
        };
        let ge_target = run(GeOptions::paper());
        let oq_target = run(GeOptions {
            label: "OQ",
            target_quality_offset: 0.02,
            compensation: false,
            ..GeOptions::paper()
        });
        assert!(
            oq_target > ge_target,
            "OQ ({oq_target}) must retain more work than GE ({ge_target})"
        );
    }

    #[test]
    fn discrete_mode_installs_ladder_speeds() {
        let mut c = cfg();
        c.discrete_speeds = Some(ge_power::DiscreteSpeedSet::paper_default());
        let mut ge = GeScheduler::new(&c, GeOptions::paper());
        let (mut server, mut queue, ledger, f) = ctx_parts(&c);
        queue.push(job(0, 0.0, 0.15, 290.0));
        let mut ctx = ScheduleCtx {
            now: t(0.0),
            server: &mut server,
            queue: &mut queue,
            ledger: &ledger,
            quality_fn: &f,
            load_estimate_rps: 10.0,
            budget_factor: 1.0,
            orphans: &mut Vec::new(),
            shed: &mut Vec::new(),
            sink: &mut ge_trace::NullSink,
        };
        ge.on_schedule(&mut ctx);
        let speed = server.core(0).profile().max_speed();
        assert!(
            (speed / 0.5 - (speed / 0.5).round()).abs() < 1e-9,
            "speed {speed} is not on the 0.5 GHz ladder"
        );
    }

    #[test]
    fn targets_never_below_processed() {
        let c = cfg();
        let mut ge = GeScheduler::new(&c, GeOptions::paper());
        let (mut server, mut queue, ledger, f) = ctx_parts(&c);
        // Pre-plant a job that already processed 600 of 900 units.
        server.core_mut(0).assign(&job(0, 0.0, 0.15, 900.0));
        server.core_mut(0).jobs_mut()[0].processed = 600.0;
        let mut ctx = ScheduleCtx {
            now: t(0.01),
            server: &mut server,
            queue: &mut queue,
            ledger: &ledger,
            quality_fn: &f,
            load_estimate_rps: 10.0,
            budget_factor: 1.0,
            orphans: &mut Vec::new(),
            shed: &mut Vec::new(),
            sink: &mut ge_trace::NullSink,
        };
        ge.on_schedule(&mut ctx);
        let j = &server.core(0).jobs()[0];
        assert!(j.target_demand >= 600.0 - 1e-9);
        assert!(j.target_demand <= 900.0 + 1e-9);
    }

    #[test]
    fn epoch_counter_advances() {
        let c = cfg();
        let mut ge = GeScheduler::new(&c, GeOptions::paper());
        let (mut server, mut queue, ledger, f) = ctx_parts(&c);
        for e in 0..3 {
            let mut ctx = ScheduleCtx {
                now: t(e as f64 * 0.5),
                server: &mut server,
                queue: &mut queue,
                ledger: &ledger,
                quality_fn: &f,
                load_estimate_rps: 10.0,
                budget_factor: 1.0,
                orphans: &mut Vec::new(),
                shed: &mut Vec::new(),
                sink: &mut ge_trace::NullSink,
            };
            ge.on_schedule(&mut ctx);
        }
        assert_eq!(ge.epochs(), 3);
    }
}
