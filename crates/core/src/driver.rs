//! The online simulation driver.
//!
//! Couples a [`Scheduler`] policy with the substrates: workload arrivals
//! feed a waiting queue; trigger events (quantum tick, counter threshold,
//! idle core — paper §III-E) invoke the policy; the multicore server
//! executes installed plans between events; finished jobs feed the online
//! quality monitor; energy, speeds, and mode residency are metered
//! throughout.
//!
//! Event priorities at equal timestamps: arrivals are observed before core
//! checks, which are observed before the quantum tick — so a quantum epoch
//! always sees the jobs that arrived "now".
//!
//! Trace arrivals stream from a cursor. The simulator reserves sequence
//! numbers `0..n` for the `n` jobs present at construction, which are
//! kept stably sorted by release bits, and only the arrival at the cursor
//! is pending; when it fires, the next job enters the heap under its own
//! reserved number. Every event thus pops in the `(time, priority, seq)`
//! order it would have had with all `n` arrivals queued up front, while
//! the heap holds only live events. Injected jobs ride in their event.
//!
//! The driver is factored as an [`Engine`] holding every piece of mutable
//! run state, advanced in segments over the shared event loop. A straight
//! run is one segment to the horizon. [`Run`] is the one public handle
//! over an engine: batch runs with checkpoints (`crate::resume`), fleet
//! shards and serve sessions (`crate::shard`) all advance it in segments.
//! Segment boundaries are invisible to the handler —
//! `Simulator::run_until` delivers the identical `(now, event)` sequence
//! either way — which is what makes resumed runs and fleets whose router
//! advances each shard only to the instants where it has work bit-exact.

use ge_faults::{FaultInjector, FaultSchedule, FaultTransition};
use ge_power::PolynomialPower;
use ge_quality::{ExpConcave, LedgerMode, QualityFunction, QualityLedger};
use ge_server::{CoreJob, FinishedJob, Server};
use ge_simcore::{SimContext, SimTime, Simulator};
use ge_telemetry::{SpanGuard, Telemetry};
use ge_trace::{NullSink, RunStartEvent, TraceEvent, TraceSink, TriggerKind};
use ge_workload::{Job, Trace};
use std::collections::VecDeque;
use std::sync::Arc;

use crate::config::SimConfig;
use crate::policy::{Algorithm, ScheduleCtx, Scheduler, TriggerSet};
use crate::result::{RunResult, ShardOutcome};
use crate::resume::input_digest;

/// Live-registry handles the driver feeds while telemetry is enabled.
/// Resolved once per run in [`Engine::new`]; recording is a handful of
/// relaxed atomic writes per epoch, so the hot path never touches the
/// registry mutex. Derived state: never checkpointed, rebuilt on resume.
pub(crate) struct DriverTelemetry {
    epochs: ge_telemetry::Counter,
    planning_seconds: ge_telemetry::HistogramHandle,
    jobs_shed: ge_telemetry::Counter,
    faults_injected: ge_telemetry::Counter,
    latency_dropped: ge_telemetry::Gauge,
    /// Epoch tick for sampling the planning clock: only every
    /// [`PLANNING_SAMPLE`]-th epoch pays for the two `Instant` reads,
    /// and the measured value is recorded with matching weight so the
    /// histogram's count/sum stay unbiased estimates over all epochs.
    planning_tick: std::cell::Cell<u64>,
}

/// Planning latency is clocked on one epoch in this many.
const PLANNING_SAMPLE: u64 = 8;

impl DriverTelemetry {
    fn new() -> Self {
        let r = Telemetry::registry();
        DriverTelemetry {
            epochs: r.counter("ge_epochs_total"),
            planning_seconds: r.histogram("ge_epoch_planning_seconds"),
            jobs_shed: r.counter("ge_jobs_shed_total"),
            faults_injected: r.counter("ge_faults_injected_total"),
            latency_dropped: r.gauge("ge_latency_samples_dropped"),
            planning_tick: std::cell::Cell::new(0),
        }
    }
}

/// Driver events.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Ev {
    /// Fault transition `k` of the injected schedule takes effect.
    Fault(usize),
    /// The trace job at the arrival cursor arrives.
    Arrival,
    /// A job handed over by [`Run::inject_job`] arrives.
    Inject(Job),
    /// Periodic quantum tick.
    Quantum,
    /// Projected core completion/deadline — re-examine the server.
    CoreCheck,
}

// Faults are observed before arrivals so a job never lands on a core that
// failed "at the same instant"; arrivals before checks before the quantum
// tick so an epoch always sees the jobs that arrived "now".
pub(crate) const PRIO_FAULT: u32 = 0;
pub(crate) const PRIO_ARRIVAL: u32 = 1;
pub(crate) const PRIO_CHECK: u32 = 2;
pub(crate) const PRIO_QUANTUM: u32 = 3;

/// Per-epoch observations for trajectory analysis (see [`TrajectorySink`]).
#[derive(Debug, Clone, Default)]
pub struct RunTrace {
    /// Monitored quality at each scheduler epoch.
    pub quality: ge_metrics::TimeSeries,
    /// Execution mode at each epoch (0 = AES, 1 = BQ).
    pub mode: ge_metrics::TimeSeries,
    /// Total outstanding work (units) right after each epoch.
    pub backlog_units: ge_metrics::TimeSeries,
    /// The driver's arrival-rate estimate at each epoch (req/s).
    pub load_estimate: ge_metrics::TimeSeries,
}

/// A [`TraceSink`] that distils the event stream back into the per-epoch
/// [`RunTrace`] trajectories; pass it to [`run_with_sink`].
///
/// Every scheduling epoch the driver emits one
/// [`TraceEvent::QualitySample`]; this sink keeps those and ignores the
/// rest.
#[derive(Debug, Clone, Default)]
pub struct TrajectorySink {
    trace: RunTrace,
}

impl TrajectorySink {
    /// Creates an empty trajectory sink.
    pub fn new() -> Self {
        TrajectorySink::default()
    }

    /// Consumes the sink, returning the accumulated trajectories.
    pub fn into_trace(self) -> RunTrace {
        self.trace
    }
}

impl TraceSink for TrajectorySink {
    fn record(&mut self, event: &TraceEvent) {
        if let TraceEvent::QualitySample {
            t,
            quality,
            mode,
            backlog_units,
            load_estimate_rps,
        } = *event
        {
            let at = SimTime::from_secs(t);
            self.trace.quality.push(at, quality);
            self.trace.mode.push(at, mode as f64);
            self.trace.backlog_units.push(at, backlog_units);
            self.trace.load_estimate.push(at, load_estimate_rps);
        }
    }
}

/// Convenience wrapper: builds the algorithm's scheduler and runs it,
/// untraced and fault-free.
pub fn run(cfg: &SimConfig, trace: &Trace, algorithm: &Algorithm) -> RunResult {
    run_with_sink(cfg, trace, algorithm, None, &mut NullSink)
}

/// Like [`run`], but streams every structured decision event into `sink`
/// and, when `faults` is given, injects its failure schedule into the run.
pub fn run_with_sink(
    cfg: &SimConfig,
    trace: &Trace,
    algorithm: &Algorithm,
    faults: Option<&FaultSchedule>,
    sink: &mut dyn TraceSink,
) -> RunResult {
    let mut sched = algorithm.build(cfg);
    run_scheduler_with_sink(cfg, trace, sched.as_mut(), faults, sink)
}

/// Like [`run_with_sink`], for callers that build (and want to inspect)
/// the scheduler themselves rather than going through [`Algorithm::build`].
pub fn run_scheduler_with_sink(
    cfg: &SimConfig,
    trace: &Trace,
    sched: &mut dyn Scheduler,
    faults: Option<&FaultSchedule>,
    sink: &mut dyn TraceSink,
) -> RunResult {
    let mut engine = Engine::new(cfg, trace, faults, sched.current_mode());
    engine.emit_run_start(sched, sink);
    let horizon = engine.horizon;
    engine.advance(horizon, sched, sink);
    engine.finalize(sched, sink).result
}

/// One simulation — a batch run, a fleet shard or a serve session — that
/// its owner advances in segments. Jobs come from the trace it starts over
/// and from [`Run::inject_job`]; a fleet shard or serve session starts
/// over an empty trace. Fleet controls live in `crate::shard`, checkpoints
/// in `crate::resume`.
pub struct Run {
    pub(crate) engine: Engine,
    pub(crate) sched: Box<dyn Scheduler>,
    /// The input digest sealed into every checkpoint of this run.
    pub(crate) digest: u64,
}

impl Run {
    /// Starts a run at t = 0 and emits its `RunStart` into `sink`.
    ///
    /// # Panics
    /// Panics if `cfg` is invalid.
    pub fn start(
        cfg: &SimConfig,
        trace: &Trace,
        algorithm: &Algorithm,
        faults: Option<&FaultSchedule>,
        sink: &mut dyn TraceSink,
    ) -> Self {
        let run = Run::build(cfg, trace, algorithm, faults);
        run.engine.emit_run_start(run.sched.as_ref(), sink);
        run
    }

    /// A fresh run at t = 0, without the `RunStart` event.
    pub(crate) fn build(
        cfg: &SimConfig,
        trace: &Trace,
        algorithm: &Algorithm,
        faults: Option<&FaultSchedule>,
    ) -> Self {
        let sched = algorithm.build(cfg);
        let engine = Engine::new(cfg, trace, faults, sched.current_mode());
        Run {
            digest: input_digest(&engine, sched.name()),
            engine,
            sched,
        }
    }

    /// Current simulated time: the end of the last [`Run::advance_to`].
    /// A fleet shard's clock may lag the router's, because the router
    /// advances a shard only when one of its events is due.
    pub fn now(&self) -> SimTime {
        self.engine.sim.now()
    }

    /// The time of the run's earliest pending event, if any. An
    /// [`Run::advance_to`]`(t)` handles no event — and changes nothing but
    /// [`Run::now`] — unless this time is not `after(t)`.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.engine.sim.peek_time()
    }

    /// Engine events handled so far. Outside [`Run::crash`] and
    /// [`Run::recover`], [`Run::queue_len`] and [`Run::load_units`] change
    /// only when this count does, so it stamps a cached load signal.
    pub fn events_handled(&self) -> u64 {
        self.engine.sim.handled_count()
    }

    /// The run's horizon: `cfg.horizon`, stretched to cover every deadline
    /// in the starting trace.
    pub fn horizon(&self) -> SimTime {
        self.engine.horizon
    }

    /// Whether the event loop has reached the horizon.
    pub fn is_done(&self) -> bool {
        self.now().at_or_after(self.horizon())
    }

    /// Runs the event loop up to `t` (inclusive, clamped to the horizon),
    /// recording engine events into `sink`. Segment boundaries are
    /// invisible to the simulation.
    pub fn advance_to(&mut self, t: SimTime, sink: &mut dyn TraceSink) {
        let until = t.min(self.engine.horizon);
        self.engine.advance(until, self.sched.as_mut(), sink);
    }

    /// Advances to the horizon, closes the books (the closing `JobFinish`
    /// events go to `sink`) and returns the measurements plus ledger sums.
    pub fn finish(mut self, sink: &mut dyn TraceSink) -> ShardOutcome {
        let horizon = self.engine.horizon;
        self.engine.advance(horizon, self.sched.as_mut(), sink);
        self.engine.finalize(self.sched.as_mut(), sink)
    }
}

/// The full mutable state of one simulation run plus its (deterministic,
/// rebuildable) environment. `crate::resume` serializes every field listed
/// under "mutable run state" (the pending trace arrival as the cursor
/// alone); the rest is reconstructed from the same `(cfg, trace, faults)`
/// inputs on resume. Injected jobs live only in their pending `Ev::Inject`
/// and, once arrived, in the queue, on a core or among the orphans, so the
/// state grows with live work, not with the workload.
pub(crate) struct Engine {
    // -- Environment: deterministic from (cfg, trace, faults) ------------
    pub(crate) cfg: SimConfig,
    pub(crate) f: ExpConcave,
    pub(crate) horizon: SimTime,
    /// The jobs present at construction (trace plus surge jobs), stably
    /// sorted by release bits; job `i` arrives under sequence number `i`.
    /// Never mutated after construction: when the faults leave the
    /// workload as it is and the trace is already in release-bit order,
    /// this is the trace's own shared storage, not a copy (see
    /// [`arrival_list`]).
    pub(crate) all_jobs: Arc<Vec<Job>>,

    // -- Mutable run state ----------------------------------------------
    pub(crate) sim: Simulator<Ev>,
    /// Index in `all_jobs` of the next trace arrival; while it is below
    /// `all_jobs.len()`, that arrival is the one `Ev::Arrival` pending.
    pub(crate) next_arrival: usize,
    pub(crate) server: Server,
    pub(crate) ledger: QualityLedger,
    pub(crate) mode_tracker: ge_metrics::ModeTracker,
    pub(crate) speed_tracker: ge_metrics::SpeedTracker,
    pub(crate) latency: ge_metrics::Histogram,
    pub(crate) queue: Vec<Job>,
    pub(crate) arrivals_window: VecDeque<f64>,
    pub(crate) epochs: u64,
    pub(crate) last_t: SimTime,
    pub(crate) last_speeds: Vec<f64>,
    pub(crate) next_check: Option<SimTime>,
    pub(crate) injector: Option<FaultInjector>,
    pub(crate) orphans: Vec<CoreJob>,
    pub(crate) shed_buf: Vec<Job>,
    pub(crate) budget_factor: f64,
    pub(crate) jobs_shed: u64,

    // -- Derived state (never serialized) --------------------------------
    pub(crate) telemetry: Option<DriverTelemetry>,
    /// Reused per event for the jobs the server sweep finishes; always
    /// empty between events.
    pub(crate) finished: Vec<FinishedJob>,
}

// The mutable run state after the simulator section, in wire order. The
// simulator section (clock, arrival cursor, pending events) comes first
// and is written by hand in `crate::resume`; `shed_buf` is drained within
// each epoch, so it is empty at every checkpoint.
ge_recover::persist! {
    Engine {
        server,
        ledger,
        mode_tracker,
        speed_tracker,
        latency,
        queue as Resized,
        arrivals_window as Resized,
        epochs,
        last_t,
        last_speeds,
        next_check as Resized,
        orphans as Resized,
        budget_factor,
        jobs_shed,
        injector,
    }
}

/// The arrival list of a run over `trace` under `faults`: the trace's jobs
/// plus any surge jobs, with demand-noise estimates applied, stably sorted
/// by release bits so ties keep trace order, the heap's `(time, seq)`
/// order for arrivals (bit order is time order for non-negative times, and
/// [`Job::new`] stores a `-0.0` release as `+0.0`).
///
/// When the faults add no surge jobs and no demand noise and the trace is
/// already in that order — every generated or parsed trace is — the
/// result is the trace's own shared storage, so a run holds no copy of
/// its input. Otherwise the jobs are copied, changed and sorted.
fn arrival_list(trace: &Trace, faults: Option<&FaultSchedule>) -> Arc<Vec<Job>> {
    let release_bits = |j: &Job| j.release.as_secs().to_bits();
    let workload_faults = faults.filter(|fs| !fs.surges().is_empty() || fs.demand_noise() > 0.0);
    let jobs = trace.jobs();
    if workload_faults.is_none()
        && jobs
            .windows(2)
            .all(|w| release_bits(&w[0]) <= release_bits(&w[1]))
    {
        return Arc::clone(trace.shared_jobs());
    }
    let mut all_jobs = jobs.to_vec();
    if let Some(fs) = workload_faults {
        all_jobs.extend(fs.surge_jobs(all_jobs.len() as u64));
        if fs.demand_noise() > 0.0 {
            for job in &mut all_jobs {
                let est = fs.demand_estimate(job.id.index() as u64, job.demand);
                *job = job.with_estimate(est);
            }
        }
    }
    all_jobs.sort_by_key(release_bits);
    Arc::new(all_jobs)
}

impl Engine {
    /// Builds a fresh engine at t = 0 with the first trace arrival, every
    /// fault transition and the first quantum tick scheduled.
    pub(crate) fn new(
        cfg: &SimConfig,
        trace: &Trace,
        faults: Option<&FaultSchedule>,
        initial_mode: usize,
    ) -> Self {
        cfg.validate();
        let f = ExpConcave::new(cfg.quality_c, cfg.quality_xmax);
        let model = PolynomialPower::new(cfg.power_a, cfg.power_beta);
        let server = Server::new(
            cfg.cores,
            Box::new(model),
            cfg.budget_w,
            cfg.units_per_ghz_sec,
        );

        let all_jobs = arrival_list(trace, faults);
        let injector = faults.map(|fs| FaultInjector::new(fs, cfg.cores));

        // The run must cover every job's deadline so each job's fate lands
        // in the ledger.
        let horizon = all_jobs
            .iter()
            .map(|j| j.deadline)
            .fold(cfg.horizon, SimTime::max);

        let mut sim: Simulator<Ev> = Simulator::with_reserved(all_jobs.len() as u64);
        if let Some(first) = all_jobs.first() {
            sim.schedule_reserved(first.release, PRIO_ARRIVAL, 0, Ev::Arrival);
        }
        if let Some(inj) = &injector {
            for (k, tr) in inj.transitions().iter().enumerate() {
                sim.schedule(tr.at, PRIO_FAULT, Ev::Fault(k));
            }
        }
        sim.schedule(SimTime::ZERO, PRIO_QUANTUM, Ev::Quantum);

        let mut last_speeds = Vec::with_capacity(cfg.cores);
        server.speeds_into(&mut last_speeds);
        Engine {
            cfg: cfg.clone(),
            f,
            horizon,
            all_jobs,
            sim,
            next_arrival: 0,
            server,
            ledger: QualityLedger::new(cfg.ledger_mode),
            mode_tracker: ge_metrics::ModeTracker::new(2, initial_mode, SimTime::ZERO),
            speed_tracker: ge_metrics::SpeedTracker::new(),
            latency: ge_metrics::Histogram::latency_default(),
            queue: Vec::new(),
            arrivals_window: VecDeque::new(),
            epochs: 0,
            last_t: SimTime::ZERO,
            last_speeds,
            next_check: None,
            injector,
            orphans: Vec::new(),
            shed_buf: Vec::new(),
            budget_factor: 1.0,
            jobs_shed: 0,
            telemetry: Telemetry::is_enabled().then(DriverTelemetry::new),
            finished: Vec::with_capacity(cfg.cores),
        }
    }

    /// Emits the `RunStart` trace event (once, before the first segment).
    pub(crate) fn emit_run_start(&self, sched: &dyn Scheduler, sink: &mut dyn TraceSink) {
        if sink.is_enabled() {
            sink.record(&TraceEvent::from(RunStartEvent {
                t: 0.0,
                algorithm: sched.name().to_string(),
                cores: self.cfg.cores as u64,
                budget_w: self.cfg.budget_w,
                q_ge: self.cfg.q_ge,
                horizon_s: self.horizon.as_secs(),
                power_a: self.cfg.power_a,
                power_beta: self.cfg.power_beta,
                quality_c: self.cfg.quality_c,
                quality_xmax: self.cfg.quality_xmax,
                units_per_ghz_sec: self.cfg.units_per_ghz_sec,
                initial_mode: sched.current_mode() as u64,
                ledger_window: match self.cfg.ledger_mode {
                    LedgerMode::Cumulative => 0,
                    LedgerMode::SlidingWindow(n) => n as u64,
                },
            }));
        }
    }

    /// Runs the event loop up to `until` (inclusive, within the sim-core
    /// time tolerance). Safe to call repeatedly with increasing horizons:
    /// the handler observes the same `(now, event)` sequence as a single
    /// straight run to the final horizon.
    pub(crate) fn advance(
        &mut self,
        until: SimTime,
        sched: &mut dyn Scheduler,
        sink: &mut dyn TraceSink,
    ) {
        let _span = SpanGuard::enter("engine_advance");
        let mut sim = std::mem::take(&mut self.sim);
        sim.run_until(until, |ctx, ev| self.handle(ctx, ev, sched, sink));
        self.sim = sim;
    }

    fn handle(
        &mut self,
        ctx: &mut SimContext<'_, Ev>,
        ev: Ev,
        sched: &mut dyn Scheduler,
        sink: &mut dyn TraceSink,
    ) {
        let now = ctx.now();

        // -- Accounting since the previous event ------------------------
        let dt = now.saturating_since(self.last_t).as_secs();
        if dt > 0.0 {
            self.speed_tracker.sample(&self.last_speeds, dt);
        }
        self.sweep_server(now, sink);
        // Jobs that died waiting in the queue count as fully discarded;
        // orphans whose deadline passed get their partial credit. (The
        // books are borrowed field by field so the lists can be filtered
        // in place.)
        let mut books = Books {
            ledger: &mut self.ledger,
            f: &self.f,
            latency: &mut self.latency,
        };
        self.queue.retain(|j| {
            let expired = j.deadline.at_or_before(now);
            if expired {
                books.discarded(sink, now, j);
            }
            !expired
        });
        self.orphans.retain(|j| {
            let expired = j.deadline.at_or_before(now);
            if expired {
                books.orphan(sink, now, j, j.deadline);
            }
            !expired
        });

        // -- Event-specific logic ----------------------------------------
        let triggers = sched.triggers();
        let mut fire: Option<TriggerKind> = None;
        match ev {
            Ev::Fault(k) => {
                if let Some(tel) = &self.telemetry {
                    tel.faults_injected.inc();
                }
                let inj = self
                    .injector
                    .as_mut()
                    .expect("fault event without injector");
                match inj.apply(k) {
                    FaultTransition::CoreDown { core } => {
                        self.orphans.extend(self.server.fail_core(core));
                        if sink.is_enabled() {
                            sink.record(&TraceEvent::CoreFault {
                                t: now.as_secs(),
                                core: core as u64,
                                online: false,
                            });
                        }
                        fire = Some(TriggerKind::Fault);
                    }
                    FaultTransition::CoreUp { core } => {
                        self.server.recover_core(core);
                        if sink.is_enabled() {
                            sink.record(&TraceEvent::CoreFault {
                                t: now.as_secs(),
                                core: core as u64,
                                online: true,
                            });
                        }
                        fire = Some(TriggerKind::Fault);
                    }
                    FaultTransition::BudgetFactor { factor } => {
                        self.budget_factor = factor;
                        if sink.is_enabled() {
                            sink.record(&TraceEvent::BudgetThrottle {
                                t: now.as_secs(),
                                factor,
                                budget_w_effective: self.cfg.budget_w * factor,
                            });
                        }
                        fire = Some(TriggerKind::Fault);
                    }
                    FaultTransition::SpeedFactor { core, factor } => {
                        self.server.set_core_speed_factor(core, factor);
                        if sink.is_enabled() {
                            sink.record(&TraceEvent::DvfsDeviation {
                                t: now.as_secs(),
                                core: core as u64,
                                factor,
                            });
                        }
                        // Actuation error is invisible to the scheduler —
                        // no replan; the next epoch simply delivers less
                        // (or more) speed than it requested.
                    }
                }
            }
            Ev::Arrival => {
                let job = self.all_jobs[self.next_arrival];
                self.next_arrival += 1;
                if let Some(next) = self.all_jobs.get(self.next_arrival) {
                    ctx.schedule_reserved(
                        next.release,
                        PRIO_ARRIVAL,
                        self.next_arrival as u64,
                        Ev::Arrival,
                    );
                }
                fire = self.arrive(now, job, triggers, sink);
            }
            Ev::Inject(job) => fire = self.arrive(now, job, triggers, sink),
            Ev::Quantum => {
                if triggers.quantum {
                    fire = Some(TriggerKind::Quantum);
                }
                ctx.schedule(now + self.cfg.quantum, PRIO_QUANTUM, Ev::Quantum);
            }
            Ev::CoreCheck => {
                if self.next_check.is_some_and(|t| t.at_or_before(now)) {
                    self.next_check = None;
                }
                if triggers.idle_core
                    && !(self.queue.is_empty() && self.orphans.is_empty())
                    && self.server.cores().any(|c| c.is_idle() && c.is_online())
                {
                    fire = Some(TriggerKind::IdleCore);
                }
            }
        }

        if let Some(kind) = fire {
            // Arrival-rate estimate over the sliding window.
            let window = self.cfg.load_window_secs;
            while self
                .arrivals_window
                .front()
                .is_some_and(|&t0| t0 < now.as_secs() - window)
            {
                self.arrivals_window.pop_front();
            }
            let effective_window = window.min(now.as_secs().max(1e-3));
            let load_estimate_rps = self.arrivals_window.len() as f64 / effective_window;

            if sink.is_enabled() {
                sink.record(&TraceEvent::TriggerFired {
                    t: now.as_secs(),
                    kind,
                    queue_len: self.queue.len() as u64,
                });
            }
            let tel = self.telemetry.as_ref();
            let mut sctx = ScheduleCtx {
                now,
                server: &mut self.server,
                queue: &mut self.queue,
                ledger: &self.ledger,
                quality_fn: &self.f,
                load_estimate_rps,
                budget_factor: self.budget_factor,
                orphans: &mut self.orphans,
                shed: &mut self.shed_buf,
                sink: &mut *sink,
            };
            // Epoch planning time is metered around the policy call only
            // when telemetry is on (and then only on sampled epochs, so
            // the enabled path stays within the telemetry overhead
            // budget); the off path stays clock-read-free.
            if let Some(tel) = tel {
                tel.epochs.inc();
                let tick = tel.planning_tick.get().wrapping_add(1);
                tel.planning_tick.set(tick);
                if tick % PLANNING_SAMPLE == 0 {
                    let t0 = std::time::Instant::now();
                    sched.on_schedule(&mut sctx);
                    tel.planning_seconds
                        .observe_weighted(t0.elapsed().as_secs_f64(), PLANNING_SAMPLE);
                } else {
                    sched.on_schedule(&mut sctx);
                }
                if !self.shed_buf.is_empty() {
                    tel.jobs_shed.add(self.shed_buf.len() as u64);
                }
            } else {
                sched.on_schedule(&mut sctx);
            }
            // Account jobs the policy shed under its Q_min admission floor.
            let mut shed = std::mem::take(&mut self.shed_buf);
            for j in shed.drain(..) {
                self.jobs_shed += 1;
                self.books().discarded(sink, now, &j);
            }
            self.shed_buf = shed;
            self.epochs += 1;
            self.mode_tracker.switch(sched.current_mode(), now);
            if sink.is_enabled() {
                sink.record(&TraceEvent::QualitySample {
                    t: now.as_secs(),
                    quality: self.ledger.quality(),
                    mode: sched.current_mode() as u64,
                    backlog_units: self.server.total_backlog_units(),
                    load_estimate_rps,
                });
            }
        }

        // -- Re-arm the core-check event ---------------------------------
        if let Some(t) = self.server.next_event_time() {
            let earlier = match self.next_check {
                None => true,
                Some(cur) => t.before(cur),
            };
            if earlier && t.at_or_before(self.horizon) {
                ctx.schedule(t.max(now), PRIO_CHECK, Ev::CoreCheck);
                self.next_check = Some(t.max(now));
            }
        }

        self.server.speeds_into(&mut self.last_speeds);
        self.last_t = now;
    }

    /// Queues an arriving job and returns the trigger it fires, if any.
    fn arrive(
        &mut self,
        now: SimTime,
        job: Job,
        triggers: TriggerSet,
        sink: &mut dyn TraceSink,
    ) -> Option<TriggerKind> {
        self.queue.push(job);
        self.arrivals_window.push_back(now.as_secs());
        if sink.is_enabled() {
            sink.record(&TraceEvent::JobArrival {
                t: now.as_secs(),
                job: job.id.index() as u64,
                deadline_s: job.deadline.as_secs(),
                demand: job.demand,
            });
            if (job.estimate - job.demand).abs() > 1e-12 {
                sink.record(&TraceEvent::DemandMisestimate {
                    t: now.as_secs(),
                    job: job.id.index() as u64,
                    estimate: job.estimate,
                    full_demand: job.demand,
                });
            }
        }
        if triggers.counter && self.queue.len() >= self.cfg.counter_trigger {
            Some(TriggerKind::Counter)
        } else if triggers.idle_core && self.server.cores().any(|c| c.is_idle() && c.is_online()) {
            Some(TriggerKind::IdleCore)
        } else {
            None
        }
    }

    /// Advances every core to `now` and books the jobs that finished.
    fn sweep_server(&mut self, now: SimTime, sink: &mut dyn TraceSink) {
        let mut finished = std::mem::take(&mut self.finished);
        self.server.advance_all(now, sink, &mut finished);
        for fin in finished.drain(..) {
            self.ledger
                .record(self.f.value(fin.processed), self.f.value(fin.full_demand));
            if fin.processed > 0.0 {
                self.latency
                    .record(fin.finish_time.saturating_since(fin.release).as_secs());
            }
            if sink.records_terminals() {
                sink.record(&TraceEvent::JobFinish {
                    t: now.as_secs(),
                    job: fin.id.index() as u64,
                    processed: fin.processed,
                    full_demand: fin.full_demand,
                    discarded: fin.processed <= 0.0,
                });
            }
        }
        self.finished = finished;
    }

    /// The books a job's fate is recorded in.
    fn books(&mut self) -> Books<'_> {
        Books {
            ledger: &mut self.ledger,
            f: &self.f,
            latency: &mut self.latency,
        }
    }

    /// Settles all remaining work at the horizon: the final speed sample,
    /// the last execution slices, and ledger entries for every job still
    /// queued or orphaned.
    fn close_books(&mut self, sink: &mut dyn TraceSink) {
        let end = self.horizon;
        let dt = end.saturating_since(self.last_t).as_secs();
        if dt > 0.0 {
            self.speed_tracker.sample(&self.last_speeds, dt);
        }
        self.last_t = end;
        self.sweep_server(end, sink);
        for j in std::mem::take(&mut self.queue) {
            self.books().discarded(sink, end, &j);
        }
        for j in std::mem::take(&mut self.orphans) {
            self.books().orphan(sink, end, &j, j.deadline.min(end));
        }

        if let Some(tel) = &self.telemetry {
            tel.latency_dropped.set(self.latency.dropped() as f64);
        }
    }

    /// Closes the books at the horizon and produces the run measurements
    /// plus ledger sums. Call only after [`Engine::advance`] has reached
    /// the horizon.
    pub(crate) fn finalize(
        mut self,
        sched: &mut dyn Scheduler,
        sink: &mut dyn TraceSink,
    ) -> ShardOutcome {
        self.close_books(sink);
        let end = self.horizon;
        let fractions = self.mode_tracker.fractions_at(end);
        let core_energy_cv = {
            let mut stats = ge_metrics::OnlineStats::new();
            for i in 0..self.cfg.cores {
                stats.push(self.server.core_energy(i));
            }
            if stats.mean() > 0.0 {
                stats.std_dev() / stats.mean()
            } else {
                0.0
            }
        };
        if sink.is_enabled() {
            sink.record(&TraceEvent::RunSummary {
                t: end.as_secs(),
                energy_j: self.server.total_energy(),
                quality: self.ledger.quality(),
                aes_fraction: fractions[crate::policy::MODE_AES],
                jobs_finished: self.ledger.jobs_recorded(),
                jobs_discarded: self.ledger.jobs_discarded(),
            });
        }
        let result = RunResult {
            algorithm: sched.name().to_string(),
            quality: self.ledger.quality(),
            energy_j: self.server.total_energy(),
            jobs_finished: self.ledger.jobs_recorded(),
            jobs_discarded: self.ledger.jobs_discarded(),
            jobs_shed: self.jobs_shed,
            jobs_completed_fully: self.ledger.jobs_completed_fully(),
            aes_fraction: fractions[crate::policy::MODE_AES],
            mode_transitions: self.mode_tracker.transitions(),
            mean_speed_ghz: self.speed_tracker.mean_speed(),
            speed_variance: self.speed_tracker.speed_variance(),
            schedule_epochs: self.epochs,
            mean_latency_ms: self.latency.mean() * 1e3,
            p95_latency_ms: self.latency.quantile(0.95) * 1e3,
            p99_latency_ms: self.latency.quantile(0.99) * 1e3,
            core_energy_cv,
        };
        ShardOutcome {
            result,
            achieved_sum: self.ledger.achieved_sum(),
            full_sum: self.ledger.full_sum(),
        }
    }
}

/// Where a job's fate is booked: the quality ledger and, for served work,
/// the latency histogram.
struct Books<'a> {
    ledger: &'a mut QualityLedger,
    f: &'a ExpConcave,
    latency: &'a mut ge_metrics::Histogram,
}

impl Books<'_> {
    /// Books a job that never ran — expired in the queue, shed, or left
    /// over at the close — as fully discarded at time `t`.
    fn discarded(&mut self, sink: &mut dyn TraceSink, t: SimTime, j: &Job) {
        self.ledger.record(0.0, self.f.value(j.demand));
        if sink.records_terminals() {
            sink.record(&TraceEvent::JobFinish {
                t: t.as_secs(),
                job: j.id.index() as u64,
                processed: 0.0,
                full_demand: j.demand,
                discarded: true,
            });
        }
    }

    /// Books an orphan (preempted off a failed core) at time `t` with
    /// partial credit for the volume it retired before the failure; a
    /// credited orphan's latency runs from its release to `latency_end`.
    fn orphan(&mut self, sink: &mut dyn TraceSink, t: SimTime, j: &CoreJob, latency_end: SimTime) {
        let credited = j.processed.min(j.full_demand);
        self.ledger
            .record(self.f.value(credited), self.f.value(j.full_demand));
        if credited > 0.0 {
            self.latency
                .record(latency_end.saturating_since(j.release).as_secs());
        }
        if sink.records_terminals() {
            sink.record(&TraceEvent::JobFinish {
                t: t.as_secs(),
                job: j.id.index() as u64,
                processed: credited,
                full_demand: j.full_demand,
                discarded: credited <= 0.0,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ge_workload::{WorkloadConfig, WorkloadGenerator};

    fn small_cfg() -> SimConfig {
        SimConfig {
            horizon: SimTime::from_secs(20.0),
            ..SimConfig::paper_default()
        }
    }

    fn small_trace(rate: f64, seed: u64) -> Trace {
        let wc = WorkloadConfig {
            horizon: SimTime::from_secs(20.0),
            ..WorkloadConfig::paper_default(rate)
        };
        WorkloadGenerator::new(wc, seed).generate()
    }

    #[test]
    fn every_job_is_accounted_for() {
        let cfg = small_cfg();
        let trace = small_trace(120.0, 1);
        let r = run(&cfg, &trace, &Algorithm::Ge);
        assert_eq!(r.jobs_finished, trace.len() as u64);
    }

    #[test]
    fn ge_holds_quality_near_target_at_light_load() {
        let cfg = small_cfg();
        let trace = small_trace(100.0, 2);
        let r = run(&cfg, &trace, &Algorithm::Ge);
        assert!(
            r.quality >= 0.87 && r.quality <= 1.0,
            "GE quality {} should sit near Q_GE=0.9",
            r.quality
        );
        assert!(r.energy_j > 0.0);
    }

    #[test]
    fn be_achieves_full_quality_at_light_load() {
        let cfg = small_cfg();
        let trace = small_trace(100.0, 2);
        let r = run(&cfg, &trace, &Algorithm::Be);
        assert!(
            r.quality > 0.99,
            "BE at light load should complete ~everything, got {}",
            r.quality
        );
        assert_eq!(r.aes_fraction, 0.0, "BE never enters AES");
    }

    #[test]
    fn ge_saves_energy_vs_be() {
        let cfg = small_cfg();
        let trace = small_trace(140.0, 3);
        let ge = run(&cfg, &trace, &Algorithm::Ge);
        let be = run(&cfg, &trace, &Algorithm::Be);
        assert!(
            ge.energy_j < be.energy_j,
            "GE ({}) must save energy vs BE ({})",
            ge.energy_j,
            be.energy_j
        );
        assert!(be.quality >= ge.quality - 0.02);
    }

    #[test]
    fn deterministic_across_runs() {
        let cfg = small_cfg();
        let trace = small_trace(130.0, 4);
        let a = run(&cfg, &trace, &Algorithm::Ge);
        let b = run(&cfg, &trace, &Algorithm::Ge);
        assert_eq!(a.quality, b.quality);
        assert_eq!(a.energy_j, b.energy_j);
        assert_eq!(a.schedule_epochs, b.schedule_epochs);
    }

    #[test]
    fn queue_policies_complete_jobs_at_light_load() {
        let cfg = small_cfg();
        let trace = small_trace(60.0, 5);
        for alg in [
            Algorithm::Fcfs,
            Algorithm::Fdfs,
            Algorithm::Ljf,
            Algorithm::Sjf,
        ] {
            let r = run(&cfg, &trace, &alg);
            assert_eq!(r.jobs_finished, trace.len() as u64, "{}", alg.label());
            assert!(
                r.quality > 0.9,
                "{} at light load should score high, got {}",
                alg.label(),
                r.quality
            );
        }
    }

    #[test]
    fn overload_degrades_queue_policies_more_than_ge() {
        let cfg = small_cfg();
        let trace = small_trace(230.0, 6);
        let ge = run(&cfg, &trace, &Algorithm::Ge);
        let sjf = run(&cfg, &trace, &Algorithm::Sjf);
        assert!(
            ge.quality > sjf.quality,
            "GE ({}) should beat SJF ({}) under overload",
            ge.quality,
            sjf.quality
        );
    }

    #[test]
    fn ge_spends_most_time_in_aes_at_light_load() {
        let cfg = small_cfg();
        let trace = small_trace(100.0, 7);
        let r = run(&cfg, &trace, &Algorithm::Ge);
        assert!(
            r.aes_fraction > 0.5,
            "light load should be mostly AES, got {}",
            r.aes_fraction
        );
    }

    #[test]
    fn latency_respects_deadline_window() {
        // Every served job finishes by its deadline (150 ms window), so
        // p99 latency must sit at or below the window (plus one histogram
        // bin of quantization).
        let cfg = small_cfg();
        let trace = small_trace(120.0, 21);
        let r = run(&cfg, &trace, &Algorithm::Ge);
        assert!(r.mean_latency_ms > 0.0, "latency must be recorded");
        assert!(
            r.p99_latency_ms <= 151.0,
            "p99 latency {}ms exceeds the 150ms window",
            r.p99_latency_ms
        );
        assert!(r.mean_latency_ms <= r.p95_latency_ms);
        assert!(r.p95_latency_ms <= r.p99_latency_ms);
    }

    #[test]
    fn traced_run_matches_untraced_and_records_trajectories() {
        let cfg = small_cfg();
        let trace = small_trace(150.0, 31);
        let plain = run(&cfg, &trace, &Algorithm::Ge);
        let mut sink = TrajectorySink::new();
        let traced = run_with_sink(&cfg, &trace, &Algorithm::Ge, None, &mut sink);
        let rt = sink.into_trace();
        // Instrumentation must not change the simulation.
        assert_eq!(plain.quality.to_bits(), traced.quality.to_bits());
        assert_eq!(plain.energy_j.to_bits(), traced.energy_j.to_bits());
        // One sample per epoch, values in range.
        assert_eq!(rt.quality.len() as u64, traced.schedule_epochs);
        assert!(rt
            .quality
            .points()
            .iter()
            .all(|&(_, q)| (0.0..=1.0).contains(&q)));
        assert!(rt.mode.points().iter().all(|&(_, m)| m == 0.0 || m == 1.0));
        assert!(rt.backlog_units.points().iter().all(|&(_, b)| b >= 0.0));
    }

    #[test]
    fn bursty_workload_runs_through_driver() {
        use ge_workload::BurstModulation;
        let cfg = small_cfg();
        let wc = WorkloadConfig {
            horizon: SimTime::from_secs(20.0),
            burst: Some(BurstModulation::new(0.7, 2.0)),
            ..WorkloadConfig::paper_default(150.0)
        };
        let trace = WorkloadGenerator::new(wc, 33).generate();
        let r = run(&cfg, &trace, &Algorithm::Ge);
        assert_eq!(r.jobs_finished, trace.len() as u64);
        assert!((0.0..=1.0).contains(&r.quality));
    }

    #[test]
    fn empty_trace_runs_cleanly() {
        let cfg = small_cfg();
        let trace = Trace::default();
        let r = run(&cfg, &trace, &Algorithm::Ge);
        assert_eq!(r.jobs_finished, 0);
        assert_eq!(r.energy_j, 0.0);
        assert_eq!(r.quality, 1.0);
    }

    fn engine_over(trace: &Trace, faults: Option<&FaultSchedule>) -> Engine {
        Engine::new(&small_cfg(), trace, faults, 0)
    }

    fn scenario(kind: ge_faults::ScenarioKind) -> FaultSchedule {
        ge_faults::FaultScenario::new(kind, 0.5).build(16, SimTime::from_secs(20.0), 3)
    }

    #[test]
    fn engine_shares_the_trace_when_the_faults_leave_the_workload_alone() {
        let trace = small_trace(120.0, 1);
        let plain = engine_over(&trace, None);
        assert!(Arc::ptr_eq(&plain.all_jobs, trace.shared_jobs()));
        let machine = scenario(ge_faults::ScenarioKind::CoreLoss);
        assert!(machine.surges().is_empty() && machine.demand_noise() == 0.0);
        let faulted = engine_over(&trace, Some(&machine));
        assert!(Arc::ptr_eq(&faulted.all_jobs, trace.shared_jobs()));
    }

    #[test]
    fn engine_copies_the_trace_under_surges_or_demand_noise() {
        let trace = small_trace(120.0, 1);
        for kind in [
            ge_faults::ScenarioKind::Surge,
            ge_faults::ScenarioKind::Demand,
        ] {
            let engine = engine_over(&trace, Some(&scenario(kind)));
            assert!(
                !Arc::ptr_eq(&engine.all_jobs, trace.shared_jobs()),
                "{kind:?}"
            );
            assert!(engine
                .all_jobs
                .windows(2)
                .all(|w| w[0].release.as_secs() <= w[1].release.as_secs()));
        }
        let surged = engine_over(&trace, Some(&scenario(ge_faults::ScenarioKind::Surge)));
        assert!(surged.all_jobs.len() > trace.len());
    }

    #[test]
    fn engine_copies_and_sorts_a_trace_out_of_release_bit_order() {
        // `-0.0` and `+0.0` are the same instant, so the trace is release
        // ordered, but the sign bit puts the first job after the second
        // in bit order. Only a job built around `Job::new` can hold one.
        let t = SimTime::from_secs;
        let first = Job {
            release: t(-0.0),
            ..Job::new(ge_workload::JobId(0), t(0.0), t(0.15), 300.0)
        };
        let second = Job::new(ge_workload::JobId(1), t(0.0), t(0.15), 300.0);
        let trace = Trace::new(vec![first, second]);
        let engine = engine_over(&trace, None);
        assert!(!Arc::ptr_eq(&engine.all_jobs, trace.shared_jobs()));
        let ids: Vec<u64> = engine.all_jobs.iter().map(|j| j.id.0).collect();
        assert_eq!(ids, [1, 0]);
    }

    #[test]
    fn a_negative_zero_release_runs_like_a_zero_release() {
        // A `-0` release passes the CSV parser's `>= 0` check; its run must
        // be bit for bit the run of the same trace with release `0`.
        let cfg = SimConfig {
            horizon: SimTime::from_secs(5.0),
            ..SimConfig::paper_default()
        };
        let run_csv = |release: &str| {
            let csv = format!(
                "id,release_s,deadline_s,demand\n0,{release},0.15,300\n\
                 1,0.5,0.65,300\n2,1.0,1.15,300\n"
            );
            let trace = ge_workload::trace_from_csv(&csv).expect("valid trace");
            format!("{:?}", run(&cfg, &trace, &Algorithm::Ge))
        };
        assert_eq!(run_csv("-0"), run_csv("0"));
    }

    #[test]
    fn orphan_expiring_inside_the_tolerance_measures_latency_to_its_deadline() {
        // One FCFS core serves job 0 (released 0, due 150 ms) until the core
        // fails at 50 ms; with no core left, the partly served job stays an
        // orphan. Job 1 arrives half a tolerance before that deadline, so
        // its event already expires the orphan: the credited latency must
        // run to the deadline (150 ms), not to the expiring event.
        use ge_faults::CoreOutage;
        use ge_workload::JobId;
        let cfg = SimConfig {
            cores: 1,
            horizon: SimTime::from_secs(1.0),
            ..SimConfig::paper_default()
        };
        let deadline = SimTime::from_secs(0.15);
        let expiring_event = SimTime::from_secs(0.15 - ge_simcore::TIME_EPS / 2.0);
        let trace = Trace::new(vec![
            Job::new(JobId(0), SimTime::ZERO, deadline, 300.0),
            Job::new(JobId(1), expiring_event, SimTime::from_secs(0.3), 300.0),
        ]);
        let faults = FaultSchedule::new(1).with_outage(CoreOutage {
            core: 0,
            start: SimTime::from_secs(0.05),
            end: None,
        });
        let r = run_with_sink(&cfg, &trace, &Algorithm::Fcfs, Some(&faults), &mut NullSink);
        assert_eq!(r.jobs_finished, 2);
        assert_eq!(r.jobs_discarded, 1, "job 1 never runs");
        assert_eq!(r.mean_latency_ms.to_bits(), 150.0f64.to_bits());
    }

    #[test]
    fn segmented_advance_matches_straight_run() {
        // The engine-level equivalence the checkpoint layer relies on:
        // advancing in many small segments is invisible to the handler.
        let cfg = small_cfg();
        let trace = small_trace(140.0, 8);
        let straight = run(&cfg, &trace, &Algorithm::Ge);

        let mut sched = Algorithm::Ge.build(&cfg);
        let mut engine = Engine::new(&cfg, &trace, None, sched.current_mode());
        let horizon = engine.horizon;
        let mut t = SimTime::ZERO;
        while t.before(horizon) {
            t = (t + cfg.quantum).min(horizon);
            engine.advance(t, sched.as_mut(), &mut NullSink);
        }
        let segmented = engine.finalize(sched.as_mut(), &mut NullSink).result;
        assert_eq!(straight.quality.to_bits(), segmented.quality.to_bits());
        assert_eq!(straight.energy_j.to_bits(), segmented.energy_j.to_bits());
        assert_eq!(straight.schedule_epochs, segmented.schedule_epochs);
        assert_eq!(straight.jobs_finished, segmented.jobs_finished);
    }
}
