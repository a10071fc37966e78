//! Crash-safe checkpoint/resume for a [`Run`]: batch run, fleet shard or
//! serve session alike.
//!
//! A checkpoint captures **everything** mutable about a run mid-flight —
//! the simulator clock, the trace-arrival cursor and the
//! pending event queue (with sequence numbers, so FIFO tie-breaking
//! survives; injected jobs ride in their events), every core's resident
//! jobs/plan/clock, the energy meter's Kahan compensation terms, the
//! quality ledger, metric trackers, the driver's queue/fault state, and
//! the policy's own cross-epoch state. Each type declares its persisted
//! fields once with [`ge_recover::persist!`]; only the simulator section
//! below is written by hand. The run environment (starting
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

use ge_recover::checkpoint::{seal, unseal};
use ge_recover::codec::Fnv1a64;
use ge_recover::persist::{decode_default, decode_framed, encode_framed};
use ge_recover::{write_atomic, CheckpointError, CodecError, Decoder, Encoder, Persist};
use ge_simcore::{EventEntry, SimTime, Simulator};
use ge_trace::TraceSink;
use ge_workload::Trace;

use crate::config::SimConfig;
use crate::driver::{Engine, Ev, Run, PRIO_ARRIVAL};
use crate::policy::Algorithm;
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
        // Shed jobs are drained within each scheduling epoch, so the buffer
        // is always empty at segment boundaries; the format relies on that.
        assert!(
            self.engine.shed_buf.is_empty(),
            "snapshot taken mid-epoch: shed buffer not drained"
        );
        let mut enc = Encoder::new();
        encode_sim(&mut enc, &self.engine);
        self.engine.encode(&mut enc);
        // Length-prefixed, so the policy's extent is self-describing.
        encode_framed(self.sched.as_ref(), &mut enc);
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
        decode_sim(&mut dec, &mut run.engine)?;
        run.engine.decode(&mut dec, "engine")?;
        decode_framed(run.sched.as_mut(), &mut dec, "scheduler.state")?;
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
    let mut enc = Encoder::new();
    enc.put_str(algorithm_label);
    engine.cfg.encode(&mut enc);
    enc.put_usize(engine.all_jobs.len());
    // The job list can be a whole trace: fold it job by job instead of
    // encoding it into one buffer.
    let mut hash = Fnv1a64::new();
    enc.drain_into(&mut hash);
    for j in engine.all_jobs.iter() {
        j.encode(&mut enc);
        enc.drain_into(&mut hash);
    }
    match &engine.injector {
        None => enc.put_u8(0),
        Some(inj) => {
            enc.put_u8(1);
            inj.transitions().encode(&mut enc);
        }
    }
    enc.drain_into(&mut hash);
    hash.finish()
}

// ---------------------------------------------------------------------------
// The simulator section, the one part of the checkpoint format that is not
// a field declaration: the trace arrival at the cursor is stored as the
// cursor alone, and the pending events carry `Ev`'s tags. Everything after
// it is `Engine`'s declaration (driver.rs), then the policy's, framed.
// Keep in sync with DESIGN.md ("Checkpoint format") and bump
// CHECKPOINT_VERSION on any change.
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
            job.encode(enc);
        }
        Ev::Arrival => unreachable!("the trace arrival is stored as the cursor"),
    }
}

fn decode_ev(dec: &mut Decoder<'_>, transitions: usize) -> Result<Ev, CodecError> {
    match dec.get_u8("ev.tag")? {
        0 => Ok(Ev::Fault(
            dec.get_usize_bounded("ev.fault", transitions.saturating_sub(1))?,
        )),
        2 => Ok(Ev::Quantum),
        3 => Ok(Ev::CoreCheck),
        4 => Ok(Ev::Inject(decode_default(dec, "ev.job")?)),
        tag => Err(CodecError::BadTag {
            field: "ev.tag",
            tag,
        }),
    }
}

/// Clock, handled count, next free sequence number, the arrival cursor,
/// then every pending event but the cursor's arrival.
fn encode_sim(enc: &mut Encoder, engine: &Engine) {
    engine.sim.now().encode(enc);
    enc.put_u64(engine.sim.handled_count());
    enc.put_u64(engine.sim.next_seq());
    enc.put_usize(engine.next_arrival);
    let mut pending = engine.sim.snapshot_pending();
    pending.retain(|e| !matches!(e.event, Ev::Arrival));
    enc.put_usize(pending.len());
    for e in &pending {
        e.time.encode(enc);
        enc.put_u32(e.priority);
        enc.put_u64(e.seq);
        encode_ev(enc, e.event);
    }
}

fn decode_sim(dec: &mut Decoder<'_>, engine: &mut Engine) -> Result<(), CheckpointError> {
    let transitions = engine
        .injector
        .as_ref()
        .map_or(0, |inj| inj.transitions().len());
    let now: SimTime = decode_default(dec, "sim.now")?;
    let handled = dec.get_u64("sim.handled")?;
    let next_seq = dec.get_u64("sim.next_seq")?;
    let next_arrival = dec.get_usize_bounded("sim.next_arrival", engine.all_jobs.len())?;
    let n_pending = dec.get_len("sim.pending")?;
    let mut pending = Vec::with_capacity(n_pending);
    for _ in 0..n_pending {
        let time: SimTime = decode_default(dec, "sim.event.time")?;
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
