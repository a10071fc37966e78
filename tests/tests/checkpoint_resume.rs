//! Checkpoint/resume acceptance tests.
//!
//! The contract under test (DESIGN.md, "Checkpoint format"): a run resumed
//! from a checkpoint taken at **any** quantum boundary finishes with the
//! bit-identical [`RunResult`] (floats compared by IEEE-754 bit pattern)
//! and the identical decision-trace suffix as the uninterrupted run — for
//! the fault-free baseline and for the combined fault scenario, across
//! seeds. Corrupted checkpoints (truncated, bit-flipped, wrong version,
//! wrong inputs) must be rejected with typed errors, never a panic — also
//! the fleet/serve shape, whose pending events carry injected jobs. A run
//! started over a trace equals an empty run handed the same jobs, and a
//! checkpoint's size follows the live work: neither the trace still to
//! come nor the jobs already served. The checkpoint bytes themselves are
//! pinned for every state shape the command-line smoke does not reach.

use ge_core::{run, run_with_sink, Algorithm, Run, RunResult, SimConfig};
use ge_faults::{FaultScenario, FaultSchedule, ScenarioKind};
use ge_quality::LedgerMode;
use ge_recover::checkpoint::{seal, unseal};
use ge_recover::codec::fnv1a64;
use ge_recover::CheckpointError;
use ge_serve::{ServeConfig, ServeCore};
use ge_simcore::SimTime;
use ge_trace::{NullSink, TraceEvent, VecSink};
use ge_workload::{Job, JobId, Trace, WorkloadConfig, WorkloadGenerator};

const HORIZON_SECS: f64 = 6.0;
const RATE: f64 = 140.0;
const SEEDS: [u64; 3] = [3, 17, 101];

fn cfg() -> SimConfig {
    SimConfig {
        horizon: SimTime::from_secs(HORIZON_SECS),
        q_min: 0.80,
        ..SimConfig::paper_default()
    }
}

fn workload(seed: u64) -> Trace {
    WorkloadGenerator::new(
        WorkloadConfig {
            horizon: SimTime::from_secs(HORIZON_SECS),
            ..WorkloadConfig::paper_default(RATE)
        },
        seed,
    )
    .generate()
}

fn combined_schedule(c: &SimConfig, seed: u64) -> FaultSchedule {
    FaultScenario::new(ScenarioKind::Combined, 0.75).build(c.cores, c.horizon, seed)
}

/// Every [`RunResult`] field as exact bits (floats via `to_bits`).
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

/// Drives a fresh run to completion, snapshotting at every quantum
/// boundary along the way. Returns the final result, the full event
/// stream, and the per-boundary snapshots.
fn run_with_snapshots(
    c: &SimConfig,
    trace: &Trace,
    faults: Option<&FaultSchedule>,
) -> (RunResult, Vec<TraceEvent>, Vec<Vec<u8>>) {
    let mut sink = VecSink::new();
    let mut run = Run::start(c, trace, &Algorithm::Ge, faults, &mut sink);
    let quantum = c.quantum;
    let mut snaps = Vec::new();
    while !run.is_done() {
        let next = (run.now() + quantum).min(run.horizon());
        run.advance_to(next, &mut sink);
        if !run.is_done() {
            snaps.push(run.snapshot());
        }
    }
    let result = run.finish(&mut sink).result;
    (result, sink.into_events(), snaps)
}

/// The straight (non-resumable) traced reference run.
fn straight_traced(
    c: &SimConfig,
    trace: &Trace,
    faults: Option<&FaultSchedule>,
) -> (RunResult, Vec<TraceEvent>) {
    let mut sink = VecSink::new();
    let mut sched = Algorithm::Ge.build(c);
    let result = ge_core::run_scheduler_with_sink(c, trace, sched.as_mut(), faults, &mut sink);
    (result, sink.into_events())
}

/// The acceptance criterion: resume from EVERY checkpoint boundary and
/// require the bit-identical result and the identical trace suffix.
fn assert_every_boundary_bit_exact(c: &SimConfig, trace: &Trace, faults: Option<&FaultSchedule>) {
    let (straight, straight_events) = straight_traced(c, trace, faults);
    let (segmented, segmented_events, snaps) = run_with_snapshots(c, trace, faults);
    assert_eq!(
        bits(&straight),
        bits(&segmented),
        "segmented run must match the straight run"
    );
    assert_eq!(
        straight_events, segmented_events,
        "segmented run must emit the identical event stream"
    );
    assert!(!snaps.is_empty(), "run must cross checkpoint boundaries");

    for (i, snap) in snaps.iter().enumerate() {
        let mut sink = VecSink::new();
        let resumed = Run::restore(c, trace, &Algorithm::Ge, faults, snap)
            .unwrap_or_else(|e| panic!("boundary {i}: resume failed: {e}"));
        let result = resumed.finish(&mut sink).result;
        assert_eq!(
            bits(&straight),
            bits(&result),
            "boundary {i}: resumed result must be bit-identical"
        );
        // The resumed run's events must be exactly the straight run's
        // suffix (resume does not re-emit RunStart or replay history).
        let suffix = sink.into_events();
        assert!(
            suffix.len() < straight_events.len(),
            "boundary {i}: resumed run replayed the full history"
        );
        assert_eq!(
            &straight_events[straight_events.len() - suffix.len()..],
            &suffix[..],
            "boundary {i}: resumed trace must be the straight run's suffix"
        );
    }
}

#[test]
fn every_boundary_bit_exact_baseline() {
    let c = cfg();
    for seed in SEEDS {
        let trace = workload(seed);
        assert_every_boundary_bit_exact(&c, &trace, None);
    }
}

#[test]
fn every_boundary_bit_exact_combined_faults() {
    let c = cfg();
    for seed in SEEDS {
        let trace = workload(seed);
        let schedule = combined_schedule(&c, seed);
        assert_every_boundary_bit_exact(&c, &trace, Some(&schedule));
    }
}

#[test]
fn resumable_matches_plain_entry_points() {
    // The resumable driver and the plain `run`/`run_with_sink` entry
    // points are the same engine; their results must agree bit-for-bit.
    let c = cfg();
    let trace = workload(SEEDS[0]);
    let (seg, _, _) = run_with_snapshots(&c, &trace, None);
    assert_eq!(bits(&run(&c, &trace, &Algorithm::Ge)), bits(&seg));

    let schedule = combined_schedule(&c, SEEDS[0]);
    let (seg, _, _) = run_with_snapshots(&c, &trace, Some(&schedule));
    assert_eq!(
        bits(&run_with_sink(
            &c,
            &trace,
            &Algorithm::Ge,
            Some(&schedule),
            &mut NullSink
        )),
        bits(&seg)
    );
}

/// ReplanCache continuity regression: the core-loss scenario forces full
/// replans (the online-core set changes), interleaved with incremental
/// epochs. Resuming across those transitions is only bit-exact because the
/// replan cache is serialized verbatim rather than rebuilt — a fresh cache
/// would force a full replan whose plan agrees with the incremental path
/// only up to round-off.
#[test]
fn resume_across_forced_full_replans_is_bit_exact() {
    let c = cfg();
    for seed in SEEDS {
        let trace = workload(seed);
        let schedule =
            FaultScenario::new(ScenarioKind::CoreLoss, 1.0).build(c.cores, c.horizon, seed);
        assert_every_boundary_bit_exact(&c, &trace, Some(&schedule));
    }
}

// ---------------------------------------------------------------------------
// Corrupted checkpoints: typed errors, never panics.
// ---------------------------------------------------------------------------

fn midrun_snapshot(c: &SimConfig, trace: &Trace) -> Vec<u8> {
    let mut run = Run::start(c, trace, &Algorithm::Ge, None, &mut NullSink);
    run.advance_to(SimTime::from_secs(HORIZON_SECS / 2.0), &mut NullSink);
    run.snapshot()
}

#[test]
fn truncated_checkpoints_are_rejected_not_panics() {
    let c = cfg();
    let trace = workload(SEEDS[0]);
    let snap = midrun_snapshot(&c, &trace);
    // Every prefix, in steps through the whole envelope (header, digest,
    // length field, payload, checksum).
    let mut len = 0;
    while len < snap.len() {
        let err = Run::restore(&c, &trace, &Algorithm::Ge, None, &snap[..len]);
        assert!(err.is_err(), "truncation to {len} bytes must be rejected");
        len += 7; // co-prime with the 8-byte field layout: hits odd cuts
    }
}

#[test]
fn bit_flips_are_rejected_not_panics() {
    let c = cfg();
    let trace = workload(SEEDS[1]);
    let snap = midrun_snapshot(&c, &trace);
    // Flip one bit at a spread of offsets: magic, version, digest, length,
    // payload body, and checksum are all covered as the offsets stride
    // through the buffer.
    let stride = (snap.len() / 97).max(1);
    for offset in (0..snap.len()).step_by(stride) {
        let mut bad = snap.clone();
        bad[offset] ^= 1 << (offset % 8);
        let out = Run::restore(&c, &trace, &Algorithm::Ge, None, &bad);
        assert!(
            out.is_err(),
            "bit flip at byte {offset} must be detected (checksum or validation)"
        );
    }
}

#[test]
fn wrong_version_and_wrong_inputs_are_typed_errors() {
    let c = cfg();
    let trace = workload(SEEDS[2]);
    let snap = midrun_snapshot(&c, &trace);

    // The version field sits right after the 8-byte magic; a future
    // version must be refused up front.
    let mut future = snap.clone();
    future[8] = 0xEE;
    assert!(Run::restore(&c, &trace, &Algorithm::Ge, None, &future).is_err());
    // So must the earlier formats, even with a valid checksum: 2 (before
    // the single run handle), 3 (before the arrival cursor) and 4 (with
    // the crash flag).
    for version in [2u32, 3, 4] {
        let mut old = snap.clone();
        old[8..12].copy_from_slice(&version.to_le_bytes());
        let body_end = old.len() - 8;
        let sum = fnv1a64(&old[..body_end]);
        old[body_end..].copy_from_slice(&sum.to_le_bytes());
        match Run::restore(&c, &trace, &Algorithm::Ge, None, &old).err() {
            Some(CheckpointError::UnsupportedVersion { found }) => assert_eq!(found, version),
            other => panic!("version {version}: expected UnsupportedVersion, got {other:?}"),
        }
    }

    // Structurally valid checkpoint, wrong run inputs: digest mismatch.
    let other = workload(SEEDS[2] + 1);
    assert!(matches!(
        Run::restore(&c, &other, &Algorithm::Ge, None, &snap),
        Err(CheckpointError::DigestMismatch { .. })
    ));
    assert!(matches!(
        Run::restore(&c, &trace, &Algorithm::Be, None, &snap),
        Err(CheckpointError::DigestMismatch { .. })
    ));
    // A fault schedule the checkpoint never saw is also an input mismatch.
    let schedule = combined_schedule(&c, SEEDS[2]);
    assert!(Run::restore(&c, &trace, &Algorithm::Ge, Some(&schedule), &snap).is_err());
}

#[test]
fn empty_and_garbage_blobs_are_rejected() {
    let c = cfg();
    let trace = workload(SEEDS[0]);
    assert!(Run::restore(&c, &trace, &Algorithm::Ge, None, &[]).is_err());
    let garbage: Vec<u8> = (0..4096u32)
        .map(|i| (i.wrapping_mul(2654435761) >> 24) as u8)
        .collect();
    assert!(Run::restore(&c, &trace, &Algorithm::Ge, None, &garbage).is_err());
}

// ---------------------------------------------------------------------------
// One handle for batch, fleet and serve: a run started over a trace equals
// a run started empty that is handed the same jobs.
// ---------------------------------------------------------------------------

/// The workload a run derives from `trace` under `faults` at construction:
/// the trace jobs, the surge jobs numbered after them, and every estimate
/// under the schedule's demand noise.
fn derived_jobs(trace: &Trace, faults: Option<&FaultSchedule>) -> Vec<Job> {
    let mut jobs = trace.jobs().to_vec();
    if let Some(fs) = faults {
        jobs.extend(fs.surge_jobs(jobs.len() as u64));
        for j in &mut jobs {
            *j = j.with_estimate(fs.demand_estimate(j.id.0, j.demand));
        }
    }
    jobs
}

fn assert_trace_built_equals_injected(
    c: &SimConfig,
    trace: &Trace,
    faults: Option<&FaultSchedule>,
) {
    let built = Run::start(c, trace, &Algorithm::Ge, faults, &mut NullSink);
    let machine = faults.map(FaultSchedule::machine_faults);
    let empty = Trace::default();
    let mut injected = Run::start(c, &empty, &Algorithm::Ge, machine.as_ref(), &mut NullSink);
    for job in derived_jobs(trace, faults) {
        injected.inject_job(job, job.release);
    }
    assert_eq!(
        built.horizon(),
        injected.horizon(),
        "every deadline must fall inside cfg.horizon for the runs to align"
    );
    let built = built.finish(&mut NullSink);
    let injected = injected.finish(&mut NullSink);
    assert_eq!(bits(&built.result), bits(&injected.result));
    assert_eq!(
        built.achieved_sum.to_bits(),
        injected.achieved_sum.to_bits()
    );
    assert_eq!(built.full_sum.to_bits(), injected.full_sum.to_bits());
}

#[test]
fn trace_built_run_equals_injected_run() {
    let c = cfg();
    for seed in SEEDS {
        // Deadlines end inside cfg.horizon, so the trace-built run's
        // horizon is not stretched past the empty run's.
        let trace = WorkloadGenerator::new(
            WorkloadConfig {
                horizon: SimTime::from_secs(HORIZON_SECS - 0.5),
                ..WorkloadConfig::paper_default(RATE)
            },
            seed,
        )
        .generate();
        assert_trace_built_equals_injected(&c, &trace, None);
        let schedule = combined_schedule(&c, seed);
        assert!(!schedule.surges().is_empty() && schedule.demand_noise() > 0.0);
        assert_trace_built_equals_injected(&c, &trace, Some(&schedule));
    }
}

// ---------------------------------------------------------------------------
// Checkpoints carrying injected jobs: the fleet/serve shape.
// ---------------------------------------------------------------------------

fn small_shard_cfg() -> SimConfig {
    SimConfig {
        cores: 4,
        budget_w: 80.0,
        horizon: SimTime::from_secs(4.0),
        critical_load_rps: 154.0 / 4.0,
        ..SimConfig::paper_default()
    }
}

/// A run over an empty trace, stopped mid-run after it was handed jobs,
/// crashed with work queued, recovered, and re-handed a failed-over job
/// under its old id (with a later release).
fn injected_run(c: &SimConfig) -> Run {
    let mut run = Run::start(c, &Trace::default(), &Algorithm::Ge, None, &mut NullSink);
    let job = |id: u64, at: f64, deadline: f64| {
        let r = SimTime::from_secs(at);
        Job::new(JobId(id), r, SimTime::from_secs(deadline), 600.0)
    };
    for i in 0..4 {
        let j = job(i, 0.1 * i as f64, 2.5);
        run.inject_job(j, j.release);
    }
    run.advance_to(SimTime::from_secs(1.0), &mut NullSink);
    // A burst overfills the cores, so the crash hands queued work back.
    for i in 4..16 {
        run.inject_job(job(i, 1.0, 3.0), SimTime::from_secs(1.0));
    }
    run.advance_to(SimTime::from_secs(1.05), &mut NullSink);
    let failed_over = run.crash();
    assert!(!failed_over.is_empty(), "the burst must leave queued work");
    run.advance_to(SimTime::from_secs(1.5), &mut NullSink);
    run.recover();
    let again = failed_over[0];
    run.inject_job(job(again.id.0, 1.5, 3.5), SimTime::from_secs(1.5));
    run.inject_job(job(99, 2.2, 3.8), SimTime::from_secs(2.2));
    run.advance_to(SimTime::from_secs(2.0), &mut NullSink);
    run
}

#[test]
fn injected_job_checkpoint_round_trips_and_rejects_corruption() {
    let c = small_shard_cfg();
    let empty = Trace::default();
    let restore = |bytes: &[u8]| Run::restore(&c, &empty, &Algorithm::Ge, None, bytes);
    let snap = injected_run(&c).snapshot();

    let restored = restore(&snap).expect("uncorrupted checkpoint restores");
    assert_eq!(
        restored.snapshot(),
        snap,
        "re-encoding must be bit-identical"
    );
    let mut down = injected_run(&c);
    down.crash();
    let down = restore(&down.snapshot()).expect("crashed run restores");
    assert_eq!(
        down.online_cores(),
        0,
        "a crashed run's dead cores must survive a checkpoint"
    );

    // The envelope catches every truncation and every flipped bit.
    for len in 0..snap.len() {
        assert!(restore(&snap[..len]).is_err(), "truncation to {len} bytes");
    }
    for offset in 0..snap.len() {
        let mut bad = snap.clone();
        bad[offset] ^= 1 << (offset % 8);
        assert!(restore(&bad).is_err(), "bit flip at byte {offset}");
    }

    // Re-sealed with a valid checksum, a truncated payload reaches the
    // decoder, which must fail with a typed error at every cut.
    let (digest, payload) = unseal(&snap).expect("valid envelope");
    for cut in 0..payload.len() {
        assert!(
            restore(&seal(digest, &payload[..cut])).is_err(),
            "payload truncated to {cut} bytes"
        );
    }
    // A re-sealed flipped bit may decode to a different valid state, but
    // it must never panic the decoder (every 7th byte, so each bit
    // position is hit across the stride).
    for offset in (0..payload.len()).step_by(7) {
        let mut bad = payload.to_vec();
        bad[offset] ^= 1 << (offset % 8);
        let _ = restore(&seal(digest, &bad));
    }
}

/// The payload offset of `job`'s encoding (id, release, deadline, demand,
/// estimate: five little-endian 8-byte words).
fn encoded_job_offset(payload: &[u8], job: &Job) -> usize {
    let words = [
        job.id.0,
        job.release.as_secs().to_bits(),
        job.deadline.as_secs().to_bits(),
        job.demand.to_bits(),
        job.estimate.to_bits(),
    ];
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    let at: Vec<usize> = (0..=payload.len() - bytes.len())
        .filter(|&i| payload[i..i + bytes.len()] == bytes[..])
        .collect();
    assert_eq!(at.len(), 1, "the job must be encoded exactly once");
    at[0]
}

#[test]
fn corrupt_injected_job_in_a_pending_event_is_a_typed_error() {
    // `injected_run` stops at 2.0 s with job 99 still pending for 2.2 s:
    // its `Ev::Inject` carries the whole job in the payload.
    let c = small_shard_cfg();
    let empty = Trace::default();
    let restore = |bytes: &[u8]| Run::restore(&c, &empty, &Algorithm::Ge, None, bytes);
    let snap = injected_run(&c).snapshot();
    let (digest, payload) = unseal(&snap).expect("valid envelope");
    let r = SimTime::from_secs(2.2);
    let pending = Job::new(JobId(99), r, SimTime::from_secs(3.8), 600.0);
    let at = encoded_job_offset(payload, &pending);
    let patched = |word: usize, value: u64| {
        let mut bad = payload.to_vec();
        bad[at + 8 * word..at + 8 * word + 8].copy_from_slice(&value.to_le_bytes());
        restore(&seal(digest, &bad))
    };
    // Each of the job's checks fails with a typed error.
    for (word, value, what) in [
        (1, f64::NAN.to_bits(), "non-finite release"),
        (2, f64::INFINITY.to_bits(), "non-finite deadline"),
        (3, (-600.0f64).to_bits(), "negative demand"),
        (3, 0.0f64.to_bits(), "zero demand"),
        (4, (-600.0f64).to_bits(), "negative estimate"),
        (4, f64::NAN.to_bits(), "non-finite estimate"),
    ] {
        assert!(
            matches!(
                patched(word, value),
                Err(CheckpointError::Codec(_) | CheckpointError::Invalid(_))
            ),
            "{what} must be refused"
        );
    }
    // Any single flipped bit in the job decodes or fails, never panics;
    // the sign bits of demand and estimate are refused.
    for bit in 0..40 * 8 {
        let mut bad = payload.to_vec();
        bad[at + bit / 8] ^= 1 << (bit % 8);
        let out = restore(&seal(digest, &bad));
        if bit == (3 * 8 + 7) * 8 + 7 || bit == (4 * 8 + 7) * 8 + 7 {
            assert!(out.is_err(), "sign flip at bit {bit}");
        }
    }
}

#[test]
fn checkpoint_size_does_not_grow_with_the_trace_still_to_come() {
    // Two runs share the config and the first 10 s of trace; one trace
    // then goes on for 20 s, the other for 200 s. At t = 5 s their states
    // are the same, so their checkpoints must be the same size.
    let c = SimConfig {
        horizon: SimTime::from_secs(210.0),
        ..SimConfig::paper_default()
    };
    let long = WorkloadGenerator::new(
        WorkloadConfig {
            horizon: SimTime::from_secs(210.0),
            ..WorkloadConfig::paper_default(150.0)
        },
        5,
    )
    .generate();
    let cut = SimTime::from_secs(30.0);
    let short = Trace::new(
        long.jobs()
            .iter()
            .copied()
            .filter(|j| j.release.before(cut))
            .collect(),
    );
    assert!(long.len() > 5 * short.len());
    let payload_len = |trace: &Trace| {
        let mut run = Run::start(&c, trace, &Algorithm::Ge, None, &mut NullSink);
        run.advance_to(SimTime::from_secs(5.0), &mut NullSink);
        let snap = run.snapshot();
        unseal(&snap).expect("valid envelope").1.len()
    };
    assert_eq!(payload_len(&short), payload_len(&long));
}

#[test]
fn injected_run_checkpoint_does_not_grow_with_jobs_served() {
    // The `injected_run` shard, handed a steady stream of jobs; snapshots
    // after 100 and after 1,000 of them have drained must be the same
    // size (every job is done 0.6 s after its release; the stream pauses
    // 2 s after the 100th job for the first snapshot).
    let c = SimConfig {
        horizon: SimTime::from_secs(60.0),
        ..small_shard_cfg()
    };
    let mut run = Run::start(&c, &Trace::default(), &Algorithm::Ge, None, &mut NullSink);
    let mut sizes = Vec::new();
    for i in 0..1000u64 {
        let secs = 0.05 * i as f64 + if i < 100 { 0.0 } else { 2.0 };
        let r = SimTime::from_secs(secs);
        let job = Job::new(
            JobId(i),
            r,
            r + ge_simcore::SimDuration::from_millis(600.0),
            300.0,
        );
        run.inject_job(job, r);
        run.advance_to(r, &mut NullSink);
        if i + 1 == 100 || i + 1 == 1000 {
            // Drain: past the last deadline and onto a quantum boundary.
            let drained = SimTime::from_secs((secs + 1.0).ceil());
            run.advance_to(drained, &mut NullSink);
            assert_eq!(run.queue_len(), 0);
            assert_eq!(run.load_units(), 0.0);
            sizes.push(run.snapshot().len());
        }
    }
    assert_eq!(sizes[0], sizes[1], "snapshot grew with the jobs served");
}

#[test]
fn resumed_injected_run_matches_straight_run() {
    // Injected jobs ride in their events and carry their release, so the
    // resumed run finishes exactly as the original does.
    let c = small_shard_cfg();
    let run = injected_run(&c);
    let snap = run.snapshot();
    let straight = run.finish(&mut NullSink);
    let resumed = Run::restore(&c, &Trace::default(), &Algorithm::Ge, None, &snap)
        .expect("restores")
        .finish(&mut NullSink);
    assert_eq!(bits(&straight.result), bits(&resumed.result));
    assert!(straight.result.mean_latency_ms > 0.0);
}

// ---------------------------------------------------------------------------
// Byte pins: the checkpoint wire format for the state shapes the CLI smoke
// (GE under combined faults) does not reach. A change that moves any byte
// of a checkpoint must bump CHECKPOINT_VERSION and update these on purpose.
// ---------------------------------------------------------------------------

/// The sealed final checkpoint of a drained in-process serving session.
fn serve_drain_checkpoint() -> Vec<u8> {
    let sim = SimConfig {
        horizon: SimTime::from_secs(6.0),
        ..small_shard_cfg()
    };
    let mut core = ServeCore::new(ServeConfig::new(sim, Algorithm::Ge));
    for i in 0..60u64 {
        let demand = 400.0 + (i % 5) as f64 * 60.0;
        core.submit(0.05 * i as f64, demand, 0.5)
            .expect("request inside the horizon");
    }
    core.finish_drain().checkpoint
}

#[test]
fn checkpoint_bytes_are_pinned_for_every_state_shape() {
    let trace = workload(SEEDS[0]);
    let midrun = |c: &SimConfig, algorithm: &Algorithm| {
        let mut run = Run::start(c, &trace, algorithm, None, &mut NullSink);
        run.advance_to(SimTime::from_secs(HORIZON_SECS / 2.0), &mut NullSink);
        fnv1a64(&run.snapshot())
    };
    let windowed = SimConfig {
        ledger_mode: LedgerMode::SlidingWindow(64),
        ..cfg()
    };
    let shard = small_shard_cfg();
    let live = injected_run(&shard);
    let mut crashed = injected_run(&shard);
    crashed.crash();
    let got = [
        ("BE", midrun(&cfg(), &Algorithm::Be)),
        ("FCFS", midrun(&cfg(), &Algorithm::Fcfs)),
        (
            "GE, sliding-window ledger",
            midrun(&windowed, &Algorithm::Ge),
        ),
        ("injected shard", fnv1a64(&live.snapshot())),
        ("injected shard after crash", fnv1a64(&crashed.snapshot())),
        ("serve drain", fnv1a64(&serve_drain_checkpoint())),
    ];
    let want = [
        0xf816_3d36_1e20_71b0,
        0xf17f_290b_2198_1ad3,
        0xe0e6_bed5_680d_0946,
        0xbefd_d3f9_f470_5fb5,
        0x1d24_fdb4_20a8_319e,
        0xc34c_d9c1_f18a_9e28,
    ];
    for ((what, got), want) in got.iter().zip(want) {
        assert_eq!(*got, want, "{what}: checkpoint bytes moved ({got:#018x})");
    }
}
