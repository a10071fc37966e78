//! Crash-safe checkpoint/resume for a [`Run`]: batch run, fleet shard or
//! serve session alike.
//!
//! A checkpoint captures **everything** mutable about a run mid-flight —
//! the simulator clock, the trace-arrival cursor and the
//! pending event queue (with sequence numbers, so FIFO tie-breaking
//! survives; injected jobs ride in their events), every core's resident
//! jobs/plan/clock, the energy meter's Kahan compensation terms, the
//! quality ledger, metric trackers, the driver's queue/fault state, and
//! the policy's own cross-epoch state via [`Scheduler::encode_state`]. The run environment (starting
//! workload, fault schedule, configuration) is *not* stored: it is
//! deterministic from the same inputs, which the envelope pins with an
//! input digest so a checkpoint cannot be resumed against the wrong run.
//! Its size therefore follows the live work, not the workload: future
//! trace arrivals are the cursor alone, and finished jobs leave no trace.
//!
//! The core guarantee is **bit-exactness**: a run resumed from any
//! checkpoint produces the identical [`RunResult`] (floats compared by bit
//! pattern) and the identical decision-trace suffix as the uninterrupted
//! run. This falls out of two properties:
//!
//! 1. `Simulator::run_until` delivers the same `(now, event)` sequence
//!    whether the horizon is reached in one call or many (segment
//!    boundaries never fire handlers), and
//! 2. every float in the snapshot round-trips through its IEEE-754 bit
//!    pattern — including non-obvious state like Kahan compensation terms
//!    and the GE replan cache, which must be restored verbatim rather than
//!    recomputed (a forced full replan agrees with the incremental path
//!    only up to round-off).
//!
//! See DESIGN.md ("Checkpoint format") for the envelope layout and field
//! order.

use std::path::Path;

use ge_power::{PolynomialPower, SpeedProfile, SpeedSegment};
use ge_quality::{LedgerMode, QualityLedger};
use ge_recover::checkpoint::{seal, unseal};
use ge_recover::codec::Fnv1a64;
use ge_recover::{write_atomic, CheckpointError, CodecError, Decoder, Encoder};
use ge_server::{Core, CoreJob, Server};
use ge_simcore::{EventEntry, SimTime, Simulator};
use ge_trace::TraceSink;
use ge_workload::{Job, JobId, Trace};

use crate::config::SimConfig;
use crate::driver::{Engine, Ev, Run, PRIO_ARRIVAL};
use crate::policy::{Algorithm, Scheduler};
use crate::result::RunResult;

/// How a checkpointed run is driven: where checkpoints go, how often they
/// are taken, and (for crash drills) when to stop early.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Checkpoint file path (written atomically; always a complete,
    /// self-validating snapshot).
    pub path: std::path::PathBuf,
    /// Take a checkpoint every this many quantum ticks (≥ 1).
    pub every_quanta: u64,
    /// Stop cleanly after writing this many checkpoints, leaving the file
    /// behind — a deterministic stand-in for a mid-run kill.
    pub stop_after: Option<u64>,
}

impl CheckpointPolicy {
    /// A policy checkpointing to `path` every `every_quanta` quanta.
    pub fn new(path: impl Into<std::path::PathBuf>, every_quanta: u64) -> Self {
        assert!(every_quanta >= 1, "checkpoint interval must be >= 1");
        CheckpointPolicy {
            path: path.into(),
            every_quanta,
            stop_after: None,
        }
    }
}

/// The outcome of [`Run::drive`].
#[derive(Debug, Clone)]
pub enum DriveOutcome {
    /// The run reached its horizon; the final measurements.
    Finished(RunResult),
    /// The run stopped early per [`CheckpointPolicy::stop_after`]; the
    /// checkpoint file holds the state at `at`.
    Stopped {
        /// Simulated time of the last checkpoint taken.
        at: SimTime,
        /// Checkpoints written before stopping.
        checkpoints: u64,
    },
}

impl Run {
    /// Serializes the complete run state into a sealed checkpoint.
    pub fn snapshot(&self) -> Vec<u8> {
        let _span = ge_telemetry::SpanGuard::enter("checkpoint_encode");
        let mut enc = Encoder::new();
        encode_engine_state(&mut enc, &self.engine, self.sched.as_ref());
        seal(self.digest, &enc.into_bytes())
    }

    /// Reconstructs a run bit-exactly from [`Run::snapshot`] bytes, given
    /// the *same* `(cfg, trace, algorithm, faults)` the original was
    /// started with; a mismatch is rejected via the input digest. Does not
    /// re-emit `RunStart` — a sink attached across save/resume sees one
    /// contiguous event stream.
    pub fn restore(
        cfg: &SimConfig,
        trace: &Trace,
        algorithm: &Algorithm,
        faults: Option<&ge_faults::FaultSchedule>,
        bytes: &[u8],
    ) -> Result<Self, CheckpointError> {
        let mut run = Run::build(cfg, trace, algorithm, faults);
        let (stored_digest, payload) = unseal(bytes)?;
        if stored_digest != run.digest {
            return Err(CheckpointError::DigestMismatch {
                checkpoint: stored_digest,
                current: run.digest,
            });
        }
        let mut dec = Decoder::new(payload);
        decode_engine_state(&mut dec, &mut run.engine, run.sched.as_mut())?;
        dec.finish("checkpoint")?;
        Ok(run)
    }

    /// [`Run::restore`] from a checkpoint file.
    pub fn restore_file(
        cfg: &SimConfig,
        trace: &Trace,
        algorithm: &Algorithm,
        faults: Option<&ge_faults::FaultSchedule>,
        path: &Path,
    ) -> Result<Self, CheckpointError> {
        let bytes = std::fs::read(path)?;
        Self::restore(cfg, trace, algorithm, faults, &bytes)
    }

    /// Writes [`Run::snapshot`] to `path` atomically.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        let _span = ge_telemetry::SpanGuard::enter("checkpoint_write");
        let bytes = self.snapshot();
        write_atomic(path, &bytes)?;
        if ge_telemetry::Telemetry::is_enabled() {
            let reg = ge_telemetry::Telemetry::registry();
            reg.counter("ge_checkpoint_bytes_total")
                .add(bytes.len() as u64);
            reg.counter("ge_checkpoints_written_total").inc();
        }
        Ok(())
    }

    /// Runs to the horizon in quantum-sized segments, checkpointing to
    /// `policy.path` every `policy.every_quanta` quanta.
    pub fn drive(
        mut self,
        policy: &CheckpointPolicy,
        sink: &mut dyn TraceSink,
    ) -> Result<DriveOutcome, CheckpointError> {
        assert!(policy.every_quanta >= 1, "checkpoint interval must be >= 1");
        let quantum = self.engine.cfg.quantum;
        let mut ticks = 0u64;
        let mut written = 0u64;
        while !self.is_done() {
            self.advance_to(self.now() + quantum, sink);
            ticks += 1;
            if ticks % policy.every_quanta == 0 && !self.is_done() {
                self.save(&policy.path)?;
                written += 1;
                if policy.stop_after.is_some_and(|n| written >= n) {
                    return Ok(DriveOutcome::Stopped {
                        at: self.now(),
                        checkpoints: written,
                    });
                }
            }
        }
        Ok(DriveOutcome::Finished(self.finish(sink).result))
    }
}

// ---------------------------------------------------------------------------
// Input digest: pins (cfg, algorithm, job set at construction, fault stream).
// ---------------------------------------------------------------------------

/// Digest pinning a run's inputs. Computed at construction, so the job set
/// is the derived workload (trace + surge jobs + estimate noise) — empty
/// for a fleet shard or serve session, whose injected jobs ride in their
/// pending events in the checkpoint payload instead.
pub(crate) fn input_digest(engine: &Engine, algorithm_label: &str) -> u64 {
    let cfg = &engine.cfg;
    let mut enc = Encoder::new();
    enc.put_str(algorithm_label);
    enc.put_usize(cfg.cores);
    enc.put_f64(cfg.budget_w);
    enc.put_f64(cfg.power_a);
    enc.put_f64(cfg.power_beta);
    enc.put_f64(cfg.quality_c);
    enc.put_f64(cfg.quality_xmax);
    enc.put_f64(cfg.q_ge);
    enc.put_f64(cfg.q_min);
    enc.put_f64(cfg.quantum.as_secs());
    enc.put_usize(cfg.counter_trigger);
    enc.put_f64(cfg.critical_load_rps);
    enc.put_f64(cfg.horizon.as_secs());
    enc.put_f64(cfg.units_per_ghz_sec);
    match &cfg.discrete_speeds {
        None => enc.put_u8(0),
        Some(d) => {
            enc.put_u8(1);
            enc.put_f64_slice(d.steps());
        }
    }
    match cfg.ledger_mode {
        LedgerMode::Cumulative => enc.put_u64(0),
        LedgerMode::SlidingWindow(n) => {
            enc.put_u64(1);
            enc.put_usize(n);
        }
    }
    enc.put_f64(cfg.load_window_secs);
    enc.put_usize(engine.all_jobs.len());
    // The job list can be a whole trace: fold it job by job instead of
    // encoding it into one buffer.
    let mut hash = Fnv1a64::new();
    enc.drain_into(&mut hash);
    for j in engine.all_jobs.iter() {
        put_job(&mut enc, j);
        enc.drain_into(&mut hash);
    }
    match &engine.injector {
        None => enc.put_u8(0),
        Some(inj) => {
            enc.put_u8(1);
            enc.put_usize(inj.transitions().len());
            for tr in inj.transitions() {
                enc.put_f64(tr.at.as_secs());
                encode_fault_transition(&mut enc, tr.transition);
            }
        }
    }
    enc.drain_into(&mut hash);
    hash.finish()
}

fn encode_fault_transition(enc: &mut Encoder, tr: ge_faults::FaultTransition) {
    match tr {
        ge_faults::FaultTransition::CoreDown { core } => {
            enc.put_u8(0);
            enc.put_usize(core);
        }
        ge_faults::FaultTransition::CoreUp { core } => {
            enc.put_u8(1);
            enc.put_usize(core);
        }
        ge_faults::FaultTransition::BudgetFactor { factor } => {
            enc.put_u8(2);
            enc.put_f64(factor);
        }
        ge_faults::FaultTransition::SpeedFactor { core, factor } => {
            enc.put_u8(3);
            enc.put_usize(core);
            enc.put_f64(factor);
        }
    }
}

// ---------------------------------------------------------------------------
// Engine state codec. Field order here is the checkpoint format; keep in
// sync with DESIGN.md ("Checkpoint format") and bump CHECKPOINT_VERSION on
// any change.
// ---------------------------------------------------------------------------

/// Encodes a pending event. The trace arrival at the cursor is never
/// encoded: restore re-queues it from the cursor. Tag 1 (an arrival index
/// before format 4) is retired.
fn encode_ev(enc: &mut Encoder, ev: Ev) {
    match ev {
        Ev::Fault(k) => {
            enc.put_u8(0);
            enc.put_usize(k);
        }
        Ev::Quantum => enc.put_u8(2),
        Ev::CoreCheck => enc.put_u8(3),
        Ev::Inject(job) => {
            enc.put_u8(4);
            put_job(enc, &job);
        }
        Ev::Arrival => unreachable!("the trace arrival is stored as the cursor"),
    }
}

fn decode_ev(dec: &mut Decoder<'_>, transitions: usize) -> Result<Ev, CheckpointError> {
    match dec.get_u8("ev.tag")? {
        0 => Ok(Ev::Fault(
            dec.get_usize_bounded("ev.fault", transitions.saturating_sub(1))?,
        )),
        2 => Ok(Ev::Quantum),
        3 => Ok(Ev::CoreCheck),
        4 => Ok(Ev::Inject(get_job(dec)?)),
        tag => Err(CodecError::BadTag {
            field: "ev.tag",
            tag,
        }
        .into()),
    }
}

fn encode_profile(enc: &mut Encoder, profile: &SpeedProfile) {
    let segs = profile.segments();
    enc.put_usize(segs.len());
    for s in segs {
        enc.put_f64(s.start.as_secs());
        enc.put_f64(s.end.as_secs());
        enc.put_f64(s.speed_ghz);
    }
}

fn decode_profile(dec: &mut Decoder<'_>) -> Result<SpeedProfile, CodecError> {
    let segs = dec.get_len("profile.segments")?;
    let mut out = Vec::with_capacity(segs.min(64));
    for _ in 0..segs {
        let start = dec.get_f64("profile.start")?;
        let end = dec.get_f64("profile.end")?;
        let speed = dec.get_f64("profile.speed")?;
        if !(start.is_finite() && end.is_finite() && end > start) {
            return Err(CodecError::Invalid {
                field: "profile",
                reason: "malformed speed segment window",
            });
        }
        if !(speed.is_finite() && speed >= 0.0) {
            return Err(CodecError::Invalid {
                field: "profile",
                reason: "malformed segment speed",
            });
        }
        out.push(SpeedSegment::new(
            SimTime::from_secs(start),
            SimTime::from_secs(end),
            speed,
        ));
    }
    if out
        .windows(2)
        .any(|w| w[1].start.as_secs() < w[0].end.as_secs() - 1e-9)
    {
        return Err(CodecError::Invalid {
            field: "profile",
            reason: "overlapping speed segments",
        });
    }
    Ok(SpeedProfile::new(out))
}

fn encode_core_job(enc: &mut Encoder, j: &CoreJob) {
    enc.put_u64(j.id.0);
    enc.put_f64(j.release.as_secs());
    enc.put_f64(j.deadline.as_secs());
    enc.put_f64(j.full_demand);
    enc.put_f64(j.estimate);
    enc.put_f64(j.target_demand);
    enc.put_f64(j.processed);
}

fn decode_core_job(dec: &mut Decoder<'_>) -> Result<CoreJob, CodecError> {
    Ok(CoreJob {
        id: JobId(dec.get_u64("core_job.id")?),
        release: get_time(dec, "core_job.release")?,
        deadline: get_time(dec, "core_job.deadline")?,
        full_demand: dec.get_f64("core_job.full_demand")?,
        estimate: dec.get_f64("core_job.estimate")?,
        target_demand: dec.get_f64("core_job.target_demand")?,
        processed: dec.get_f64("core_job.processed")?,
    })
}

/// `SimTime` refuses non-finite values; a checkpoint holding one is
/// corrupt, not a reason to panic.
fn finite_time(secs: f64, field: &'static str) -> Result<SimTime, CodecError> {
    if !secs.is_finite() {
        return Err(CodecError::Invalid {
            field,
            reason: "non-finite time",
        });
    }
    Ok(SimTime::from_secs(secs))
}

fn get_time(dec: &mut Decoder<'_>, field: &'static str) -> Result<SimTime, CodecError> {
    finite_time(dec.get_f64(field)?, field)
}

fn put_job(enc: &mut Encoder, j: &Job) {
    enc.put_u64(j.id.0);
    enc.put_f64(j.release.as_secs());
    enc.put_f64(j.deadline.as_secs());
    enc.put_f64(j.demand);
    enc.put_f64(j.estimate);
}

fn get_job(dec: &mut Decoder<'_>) -> Result<Job, CheckpointError> {
    let job = Job {
        id: JobId(dec.get_u64("job.id")?),
        release: get_time(dec, "job.release")?,
        deadline: get_time(dec, "job.deadline")?,
        demand: dec.get_f64("job.demand")?,
        estimate: dec.get_f64("job.estimate")?,
    };
    let positive = |x: f64| x.is_finite() && x > 0.0;
    if !(positive(job.demand) && positive(job.estimate)) {
        return Err(CheckpointError::Invalid("malformed job demand"));
    }
    Ok(job)
}

fn encode_engine_state(enc: &mut Encoder, engine: &Engine, sched: &dyn Scheduler) {
    // Shed jobs are drained within each scheduling epoch, so the buffer is
    // always empty at segment boundaries; the format relies on that.
    assert!(
        engine.shed_buf.is_empty(),
        "snapshot taken mid-epoch: shed buffer not drained"
    );

    // 1. Simulator: clock, handled count, next free seq number, the
    //    arrival cursor, then every pending event but the cursor's arrival.
    enc.put_f64(engine.sim.now().as_secs());
    enc.put_u64(engine.sim.handled_count());
    enc.put_u64(engine.sim.next_seq());
    enc.put_usize(engine.next_arrival);
    let mut pending = engine.sim.snapshot_pending();
    pending.retain(|e| !matches!(e.event, Ev::Arrival));
    enc.put_usize(pending.len());
    for e in &pending {
        enc.put_f64(e.time.as_secs());
        enc.put_u32(e.priority);
        enc.put_u64(e.seq);
        encode_ev(enc, e.event);
    }

    // 2. Server: per-core state, then the energy meter's Kahan pairs.
    enc.put_usize(engine.server.core_count());
    for i in 0..engine.server.core_count() {
        let core = engine.server.core(i);
        enc.put_usize(core.jobs().len());
        for j in core.jobs() {
            encode_core_job(enc, j);
        }
        encode_profile(enc, core.profile());
        enc.put_f64(core.power_cap());
        enc.put_f64(core.clock().as_secs());
        enc.put_opt_u64(core.running_job().map(|id| id.0));
        enc.put_bool(core.is_online());
        enc.put_f64(core.speed_factor());
    }
    let meter = engine.server.meter_state();
    enc.put_usize(meter.len());
    for (sum, c) in &meter {
        enc.put_f64(*sum);
        enc.put_f64(*c);
    }

    // 3. Quality ledger: sums verbatim (never recomputed from the window).
    enc.put_f64(engine.ledger.achieved_sum());
    enc.put_f64(engine.ledger.full_sum());
    let (count, discarded, completed) = engine.ledger.counters();
    enc.put_u64(count);
    enc.put_u64(discarded);
    enc.put_u64(completed);
    let window = engine.ledger.window_entries();
    enc.put_usize(window.len());
    for (a, f) in &window {
        enc.put_f64(*a);
        enc.put_f64(*f);
    }

    // 4. Metric trackers.
    let (residency, current, since, transitions) = engine.mode_tracker.snapshot_state();
    enc.put_f64_slice(&residency);
    enc.put_usize(current);
    enc.put_f64(since.as_secs());
    enc.put_u64(transitions);
    let (wm, wv, tt, samples) = engine.speed_tracker.snapshot_state();
    enc.put_f64(wm);
    enc.put_f64(wv);
    enc.put_f64(tt);
    enc.put_u64(samples);
    let (bins, upper, count, sum, max_seen, dropped) = engine.latency.snapshot_state();
    enc.put_u64_slice(&bins);
    enc.put_f64(upper);
    enc.put_u64(count);
    enc.put_f64(sum);
    enc.put_f64(max_seen);
    enc.put_u64(dropped);

    // 5. Driver-local state.
    enc.put_usize(engine.queue.len());
    for j in &engine.queue {
        put_job(enc, j);
    }
    enc.put_usize(engine.arrivals_window.len());
    for &t in &engine.arrivals_window {
        enc.put_f64(t);
    }
    enc.put_u64(engine.epochs);
    enc.put_f64(engine.last_t.as_secs());
    enc.put_f64_slice(&engine.last_speeds);
    enc.put_opt_f64(engine.next_check.map(|t| t.as_secs()));
    enc.put_usize(engine.orphans.len());
    for j in &engine.orphans {
        encode_core_job(enc, j);
    }
    enc.put_f64(engine.budget_factor);
    enc.put_u64(engine.jobs_shed);
    match &engine.injector {
        None => enc.put_u8(0),
        Some(inj) => {
            enc.put_u8(1);
            let (online, speed_factors, budget_factor) = inj.snapshot_state();
            enc.put_bool_slice(&online);
            enc.put_f64_slice(&speed_factors);
            enc.put_f64(budget_factor);
        }
    }

    // 6. Policy state, length-prefixed so its extent is self-describing.
    let mut sub = Encoder::new();
    sched.encode_state(&mut sub);
    enc.put_bytes(&sub.into_bytes());
}

fn decode_engine_state(
    dec: &mut Decoder<'_>,
    engine: &mut Engine,
    sched: &mut dyn Scheduler,
) -> Result<(), CheckpointError> {
    let cores = engine.cfg.cores;
    let transitions = engine
        .injector
        .as_ref()
        .map_or(0, |inj| inj.transitions().len());

    // 1. Simulator.
    let now = get_time(dec, "sim.now")?;
    let handled = dec.get_u64("sim.handled")?;
    let next_seq = dec.get_u64("sim.next_seq")?;
    let next_arrival = dec.get_usize_bounded("sim.next_arrival", engine.all_jobs.len())?;
    let n_pending = dec.get_len("sim.pending")?;
    let mut pending = Vec::with_capacity(n_pending);
    for _ in 0..n_pending {
        let time = get_time(dec, "sim.event.time")?;
        if time.as_secs() < 0.0 {
            return Err(CheckpointError::Invalid("negative event time"));
        }
        let priority = dec.get_u32("sim.event.priority")?;
        let seq = dec.get_u64("sim.event.seq")?;
        let event = decode_ev(dec, transitions)?;
        pending.push(EventEntry {
            time,
            priority,
            seq,
            event,
        });
    }
    // The trace jobs own sequence numbers `0..len`.
    if next_seq < engine.all_jobs.len() as u64 {
        return Err(CheckpointError::Invalid(
            "next sequence number inside the reserved arrival range",
        ));
    }
    engine.sim = Simulator::restore(now, handled, pending, next_seq);
    engine.next_arrival = next_arrival;
    if let Some(job) = engine.all_jobs.get(next_arrival) {
        if job.release.before(now) {
            return Err(CheckpointError::Invalid("arrival cursor behind the clock"));
        }
        engine
            .sim
            .schedule_reserved(job.release, PRIO_ARRIVAL, next_arrival as u64, Ev::Arrival);
    }

    // 2. Server.
    let n_cores = dec.get_usize_bounded("server.cores", cores)?;
    if n_cores != cores {
        return Err(CheckpointError::Invalid(
            "checkpoint core count disagrees with configuration",
        ));
    }
    let mut restored_cores = Vec::with_capacity(cores);
    for index in 0..cores {
        let n_jobs = dec.get_len("core.jobs")?;
        let mut core_jobs = Vec::with_capacity(n_jobs);
        for _ in 0..n_jobs {
            core_jobs.push(decode_core_job(dec)?);
        }
        let profile = decode_profile(dec)?;
        let power_cap = dec.get_f64("core.power_cap")?;
        let clock = get_time(dec, "core.clock")?;
        let running = dec.get_opt_u64("core.running")?.map(JobId);
        let online = dec.get_bool("core.online")?;
        let speed_factor = dec.get_f64("core.speed_factor")?;
        if !(power_cap.is_finite() && power_cap >= 0.0) {
            return Err(CheckpointError::Invalid("malformed core power cap"));
        }
        if !(speed_factor.is_finite() && speed_factor > 0.0) {
            return Err(CheckpointError::Invalid("malformed core speed factor"));
        }
        restored_cores.push(Core::restore(
            index,
            engine.cfg.units_per_ghz_sec,
            core_jobs,
            profile,
            power_cap,
            clock,
            running,
            online,
            speed_factor,
        ));
    }
    let n_meter = dec.get_usize_bounded("server.meter", cores)?;
    if n_meter != cores {
        return Err(CheckpointError::Invalid(
            "energy meter length disagrees with core count",
        ));
    }
    let mut meter = Vec::with_capacity(cores);
    for _ in 0..cores {
        let sum = dec.get_f64("meter.sum")?;
        let c = dec.get_f64("meter.c")?;
        meter.push((sum, c));
    }
    engine.server = Server::restore(
        restored_cores,
        Box::new(PolynomialPower::new(
            engine.cfg.power_a,
            engine.cfg.power_beta,
        )),
        &meter,
        engine.cfg.budget_w,
        engine.cfg.units_per_ghz_sec,
    );

    // 3. Quality ledger.
    let achieved = dec.get_f64("ledger.achieved_sum")?;
    let full = dec.get_f64("ledger.full_sum")?;
    let count = dec.get_u64("ledger.count")?;
    let discarded = dec.get_u64("ledger.discarded")?;
    let completed = dec.get_u64("ledger.completed")?;
    let n_window = dec.get_len("ledger.window")?;
    let mut window = Vec::with_capacity(n_window);
    for _ in 0..n_window {
        let a = dec.get_f64("ledger.window.achieved")?;
        let f = dec.get_f64("ledger.window.full")?;
        window.push((a, f));
    }
    engine.ledger = QualityLedger::restore(
        engine.cfg.ledger_mode,
        achieved,
        full,
        (count, discarded, completed),
        window,
    );

    // 4. Metric trackers.
    let residency = dec.get_f64_vec("mode.residency")?;
    let current = dec.get_usize_bounded("mode.current", residency.len().saturating_sub(1))?;
    if residency.is_empty() {
        return Err(CheckpointError::Invalid("empty mode residency vector"));
    }
    let since = get_time(dec, "mode.since")?;
    let mode_transitions = dec.get_u64("mode.transitions")?;
    engine.mode_tracker =
        ge_metrics::ModeTracker::restore(residency, current, since, mode_transitions);
    let wm = dec.get_f64("speed.weighted_mean_sum")?;
    let wv = dec.get_f64("speed.weighted_var_sum")?;
    let tt = dec.get_f64("speed.total_time")?;
    let samples = dec.get_u64("speed.samples")?;
    engine.speed_tracker = ge_metrics::SpeedTracker::restore(wm, wv, tt, samples);
    let bins = dec.get_u64_vec("latency.bins")?;
    let upper = dec.get_f64("latency.upper")?;
    let lat_count = dec.get_u64("latency.count")?;
    let lat_sum = dec.get_f64("latency.sum")?;
    let lat_max = dec.get_f64("latency.max_seen")?;
    let lat_dropped = dec.get_u64("latency.dropped")?;
    if !(upper.is_finite() && upper > 0.0) || bins.len() < 2 {
        return Err(CheckpointError::Invalid("malformed latency histogram"));
    }
    engine.latency =
        ge_metrics::Histogram::restore(bins, upper, lat_count, lat_sum, lat_max, lat_dropped);

    // 5. Driver-local state.
    let n_queue = dec.get_len("driver.queue")?;
    let mut queue = Vec::with_capacity(n_queue);
    for _ in 0..n_queue {
        queue.push(get_job(dec)?);
    }
    engine.queue = queue;
    let n_window = dec.get_len("driver.arrivals_window")?;
    let mut arrivals = std::collections::VecDeque::with_capacity(n_window);
    for _ in 0..n_window {
        arrivals.push_back(dec.get_f64("driver.arrival")?);
    }
    engine.arrivals_window = arrivals;
    engine.epochs = dec.get_u64("driver.epochs")?;
    engine.last_t = get_time(dec, "driver.last_t")?;
    engine.last_speeds = dec.get_f64_vec("driver.last_speeds")?;
    if engine.last_speeds.len() != cores {
        return Err(CheckpointError::Invalid(
            "speed vector length disagrees with core count",
        ));
    }
    engine.next_check = dec
        .get_opt_f64("driver.next_check")?
        .map(|t| finite_time(t, "driver.next_check"))
        .transpose()?;
    let n_orphans = dec.get_len("driver.orphans")?;
    let mut orphans = Vec::with_capacity(n_orphans);
    for _ in 0..n_orphans {
        orphans.push(decode_core_job(dec)?);
    }
    engine.orphans = orphans;
    engine.shed_buf.clear();
    engine.budget_factor = dec.get_f64("driver.budget_factor")?;
    engine.jobs_shed = dec.get_u64("driver.jobs_shed")?;
    match dec.get_u8("driver.injector.tag")? {
        0 => {
            if engine.injector.is_some() {
                return Err(CheckpointError::Invalid(
                    "checkpoint has no fault state but a fault schedule was supplied",
                ));
            }
        }
        1 => {
            let online = dec.get_bool_vec("injector.online")?;
            let speed_factors = dec.get_f64_vec("injector.speed_factors")?;
            let budget_factor = dec.get_f64("injector.budget_factor")?;
            if online.len() != cores || speed_factors.len() != cores {
                return Err(CheckpointError::Invalid(
                    "fault state length disagrees with core count",
                ));
            }
            match engine.injector.as_mut() {
                Some(inj) => inj.restore_state(online, speed_factors, budget_factor),
                None => {
                    return Err(CheckpointError::Invalid(
                        "checkpoint has fault state but no fault schedule was supplied",
                    ))
                }
            }
        }
        tag => {
            return Err(CheckpointError::Codec(CodecError::BadTag {
                field: "driver.injector.tag",
                tag,
            }))
        }
    }

    // 6. Policy state.
    let sched_bytes = dec.get_bytes("scheduler.state")?;
    let mut sub = Decoder::new(&sched_bytes);
    sched.restore_state(&mut sub)?;
    sub.finish("scheduler.state")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ge_trace::NullSink;
    use ge_workload::{WorkloadConfig, WorkloadGenerator};

    fn small_cfg() -> SimConfig {
        SimConfig {
            horizon: SimTime::from_secs(12.0),
            ..SimConfig::paper_default()
        }
    }

    fn small_trace(rate: f64, seed: u64) -> Trace {
        let wc = WorkloadConfig {
            horizon: SimTime::from_secs(12.0),
            ..WorkloadConfig::paper_default(rate)
        };
        WorkloadGenerator::new(wc, seed).generate()
    }

    fn bits(r: &RunResult) -> Vec<u64> {
        vec![
            r.quality.to_bits(),
            r.energy_j.to_bits(),
            r.jobs_finished,
            r.jobs_discarded,
            r.jobs_shed,
            r.jobs_completed_fully,
            r.aes_fraction.to_bits(),
            r.mode_transitions,
            r.mean_speed_ghz.to_bits(),
            r.speed_variance.to_bits(),
            r.schedule_epochs,
            r.mean_latency_ms.to_bits(),
            r.p95_latency_ms.to_bits(),
            r.p99_latency_ms.to_bits(),
            r.core_energy_cv.to_bits(),
        ]
    }

    #[test]
    fn snapshot_resume_midway_is_bit_exact() {
        let cfg = small_cfg();
        let trace = small_trace(140.0, 11);
        let straight = crate::driver::run(&cfg, &trace, &Algorithm::Ge);

        let mut run = Run::start(&cfg, &trace, &Algorithm::Ge, None, &mut NullSink);
        let mid = SimTime::from_secs(6.0);
        run.advance_to(mid, &mut NullSink);
        let snap = run.snapshot();
        drop(run);

        let resumed =
            Run::restore(&cfg, &trace, &Algorithm::Ge, None, &snap).expect("resume must succeed");
        let result = resumed.finish(&mut NullSink).result;
        assert_eq!(bits(&straight), bits(&result));
    }

    #[test]
    fn digest_rejects_mismatched_inputs() {
        let cfg = small_cfg();
        let trace = small_trace(140.0, 11);
        let mut run = Run::start(&cfg, &trace, &Algorithm::Ge, None, &mut NullSink);
        run.advance_to(SimTime::from_secs(2.0), &mut NullSink);
        let snap = run.snapshot();

        let other_trace = small_trace(140.0, 12);
        let err = Run::restore(&cfg, &other_trace, &Algorithm::Ge, None, &snap)
            .err()
            .expect("wrong trace must be rejected");
        assert!(matches!(err, CheckpointError::DigestMismatch { .. }));

        let err = Run::restore(&cfg, &trace, &Algorithm::Be, None, &snap)
            .err()
            .expect("wrong algorithm must be rejected");
        assert!(matches!(err, CheckpointError::DigestMismatch { .. }));
    }

    #[test]
    fn run_resumable_stop_and_resume_completes() {
        let cfg = small_cfg();
        let trace = small_trace(130.0, 13);
        let straight = crate::driver::run(&cfg, &trace, &Algorithm::Ge);

        let dir = std::env::temp_dir().join(format!("ge-resume-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let path = dir.join("run.ckpt");
        let policy = CheckpointPolicy {
            path: path.clone(),
            every_quanta: 3,
            stop_after: Some(2),
        };
        let out = Run::start(&cfg, &trace, &Algorithm::Ge, None, &mut NullSink)
            .drive(&policy, &mut NullSink)
            .expect("checkpointed run");
        assert!(matches!(out, DriveOutcome::Stopped { checkpoints: 2, .. }));

        let resume_policy = CheckpointPolicy {
            path: path.clone(),
            every_quanta: 3,
            stop_after: None,
        };
        let out = Run::restore_file(&cfg, &trace, &Algorithm::Ge, None, &path)
            .expect("checkpoint restores")
            .drive(&resume_policy, &mut NullSink)
            .expect("resumed run");
        let result = match out {
            DriveOutcome::Finished(r) => r,
            other => panic!("expected Finished, got {other:?}"),
        };
        assert_eq!(bits(&straight), bits(&result));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
