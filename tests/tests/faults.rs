//! Integration tests for fault injection and graceful degradation.
//!
//! Four claims are checked end to end:
//!
//! 1. **Energy conservation under failure** — a run that loses cores
//!    mid-flight still produces a trace whose per-slice energy rebuild
//!    matches the reported total, and whose replay passes every
//!    invariant.
//! 2. **Degradation floor** — under a feasible budget throttle, GE's
//!    delivered quality stays at or above the configured `Q_min`.
//! 3. **Shed accounting** — the jobs the scheduler sheds are exactly the
//!    set the trace reports, which is exactly what `RunResult` counts;
//!    the ledger never under-reports delivered quality relative to the
//!    trace rebuild.
//! 4. **Determinism** — identical fault schedules give bit-identical
//!    runs, and an empty schedule is bit-identical to the fault-free
//!    driver path.

use ge_core::{run, run_with_sink, Algorithm, SimConfig};
use ge_faults::{FaultScenario, FaultSchedule, ScenarioKind};
use ge_simcore::SimTime;
use ge_trace::{parse_jsonl, replay, write_jsonl, NullSink, TraceEvent, VecSink};
use ge_workload::{Trace, WorkloadConfig, WorkloadGenerator};

fn cfg(horizon_s: f64, q_min: f64) -> SimConfig {
    SimConfig {
        horizon: SimTime::from_secs(horizon_s),
        q_min,
        ..SimConfig::paper_default()
    }
}

fn workload(rate: f64, horizon_s: f64, seed: u64) -> Trace {
    WorkloadGenerator::new(
        WorkloadConfig {
            horizon: SimTime::from_secs(horizon_s),
            ..WorkloadConfig::paper_default(rate)
        },
        seed,
    )
    .generate()
}

fn scenario(kind: ScenarioKind, intensity: f64, cfg: &SimConfig, seed: u64) -> FaultSchedule {
    FaultScenario::new(kind, intensity).build(cfg.cores, cfg.horizon, seed)
}

#[test]
fn core_failure_trace_replays_with_energy_conservation() {
    let cfg = cfg(20.0, 0.8);
    let trace = workload(150.0, 20.0, 31);
    let faults = scenario(ScenarioKind::CoreLoss, 0.75, &cfg, 31);
    assert!(!faults.is_empty(), "scenario must actually fail cores");

    let mut sink = VecSink::new();
    let result = run_with_sink(&cfg, &trace, &Algorithm::Ge, Some(&faults), &mut sink);
    let events = sink.into_events();
    assert!(
        events
            .iter()
            .any(|e| matches!(e, TraceEvent::CoreFault { online: false, .. })),
        "trace must record the injected failures"
    );

    // Round-trip through the wire format, then replay: per-slice energy
    // must rebuild the reported total even with cores dying mid-run.
    let mut buf = Vec::new();
    write_jsonl(&events, &mut buf).unwrap();
    let parsed = parse_jsonl(std::str::from_utf8(&buf).unwrap()).unwrap();
    assert_eq!(events, parsed);
    let report = replay(&parsed).expect("structurally complete trace");
    assert!(report.is_ok(), "{}", report.render());
    let rel = (report.energy_from_slices_j - result.energy_j).abs()
        / result.energy_j.max(f64::MIN_POSITIVE);
    assert!(
        rel <= 1e-6,
        "energy conservation violated under core loss: rebuilt {} vs reported {} (rel {rel})",
        report.energy_from_slices_j,
        result.energy_j
    );
    // The ledger never under-reports: the trace rebuild equals what the
    // driver claimed delivered.
    assert!(
        (report.quality_rebuilt - result.quality).abs() <= 1e-9,
        "ledger quality {} vs trace rebuild {}",
        result.quality,
        report.quality_rebuilt
    );
}

#[test]
fn quality_stays_above_floor_under_feasible_throttle() {
    let cfg = cfg(30.0, 0.8);
    let trace = workload(150.0, 30.0, 37);
    let faults = scenario(ScenarioKind::Throttle, 0.5, &cfg, 37);
    let result = run_with_sink(&cfg, &trace, &Algorithm::Ge, Some(&faults), &mut NullSink);
    // A 30 % budget cut over 40 % of the run is comfortably feasible at
    // this rate: the deeper-cut response must hold the floor.
    assert!(
        result.quality >= cfg.q_min - 1e-6,
        "delivered quality {} fell below the Q_min floor {}",
        result.quality,
        cfg.q_min
    );
    assert!(result.quality.is_finite() && result.energy_j.is_finite());
}

#[test]
fn shed_set_matches_trace_and_result() {
    // A harsh surge at an already-heavy rate forces admission control to
    // act when the floor is armed.
    let cfg = cfg(20.0, 0.8);
    let trace = workload(250.0, 20.0, 41);
    let faults = scenario(ScenarioKind::Surge, 1.0, &cfg, 41);

    let mut sink = VecSink::new();
    let result = run_with_sink(&cfg, &trace, &Algorithm::Ge, Some(&faults), &mut sink);
    let events = sink.into_events();

    let shed_ids: Vec<u64> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::JobShed { job, .. } => Some(*job),
            _ => None,
        })
        .collect();
    assert_eq!(
        shed_ids.len() as u64,
        result.jobs_shed,
        "RunResult.jobs_shed must count exactly the trace-reported sheds"
    );
    assert!(
        result.jobs_shed <= result.jobs_discarded,
        "shed jobs are a subset of discarded jobs"
    );

    // The replay checker cross-checks that shed jobs finish discarded
    // with zero work; its count must agree too.
    let mut buf = Vec::new();
    write_jsonl(&events, &mut buf).unwrap();
    let parsed = parse_jsonl(std::str::from_utf8(&buf).unwrap()).unwrap();
    let report = replay(&parsed).expect("structurally complete trace");
    assert!(report.is_ok(), "{}", report.render());
    assert_eq!(report.shed_jobs, shed_ids.len());
}

#[test]
fn identical_fault_runs_are_bit_identical() {
    let cfg = cfg(15.0, 0.8);
    let trace = workload(170.0, 15.0, 43);
    let faults = scenario(ScenarioKind::Combined, 0.8, &cfg, 43);
    let a = run_with_sink(&cfg, &trace, &Algorithm::Ge, Some(&faults), &mut NullSink);
    let b = run_with_sink(&cfg, &trace, &Algorithm::Ge, Some(&faults), &mut NullSink);
    assert_eq!(a.quality.to_bits(), b.quality.to_bits());
    assert_eq!(a.energy_j.to_bits(), b.energy_j.to_bits());
    assert_eq!(a.jobs_shed, b.jobs_shed);
    assert_eq!(a.jobs_discarded, b.jobs_discarded);
    assert_eq!(a.schedule_epochs, b.schedule_epochs);
}

#[test]
fn empty_schedule_is_bit_identical_to_fault_free_run() {
    let cfg = cfg(15.0, 0.0);
    let trace = workload(150.0, 15.0, 47);
    let empty = FaultSchedule::new(47);
    assert!(empty.is_empty());
    let plain = run(&cfg, &trace, &Algorithm::Ge);
    let faulted = run_with_sink(&cfg, &trace, &Algorithm::Ge, Some(&empty), &mut NullSink);
    assert_eq!(plain.quality.to_bits(), faulted.quality.to_bits());
    assert_eq!(plain.energy_j.to_bits(), faulted.energy_j.to_bits());
    assert_eq!(plain.jobs_finished, faulted.jobs_finished);
    assert_eq!(plain.schedule_epochs, faulted.schedule_epochs);
}

#[test]
fn every_policy_survives_harsh_core_loss_with_recovery() {
    let cfg = cfg(20.0, 0.8);
    let trace = workload(150.0, 20.0, 53);
    let faults = scenario(ScenarioKind::CoreLoss, 1.0, &cfg, 53);
    for alg in [
        Algorithm::Ge,
        Algorithm::Be,
        Algorithm::Fcfs,
        Algorithm::Sjf,
        Algorithm::Ljf,
        Algorithm::Fdfs,
    ] {
        let r = run_with_sink(&cfg, &trace, &alg, Some(&faults), &mut NullSink);
        assert!(
            r.quality.is_finite() && (0.0..=1.0 + 1e-9).contains(&r.quality),
            "{}: quality {} out of range under core loss",
            r.algorithm,
            r.quality
        );
        assert!(
            r.energy_j.is_finite() && r.energy_j >= 0.0,
            "{}: bad energy {}",
            r.algorithm,
            r.energy_j
        );
        assert!(
            r.jobs_finished > 0,
            "{}: no jobs finished at all under recoverable core loss",
            r.algorithm
        );
    }
}
