//! Integration tests for the `ge-trace` observability layer.
//!
//! Four claims are checked end to end:
//!
//! 1. **Zero-cost when off** — a run with [`NullSink`] is bit-identical to
//!    the untraced one, and no emission site hands an event to a sink
//!    that reports itself disabled.
//! 2. **Wire fidelity** — a full decision trace survives the JSONL
//!    round-trip bit-for-bit and replays cleanly through the invariant
//!    checker, reproducing the run's reported energy (1e-6 relative) and
//!    AES residency (1e-9 absolute).
//! 3. **Summary agreement** — the AES residency derived purely from the
//!    trace equals the `ge-metrics` mode summary the driver reports for a
//!    Fig. 1 style run.
//! 4. **Time order** — a full-length run never emits an event earlier
//!    than the one before it.

use ge_core::{run, run_with_sink, Algorithm, SimConfig};
use ge_faults::{FaultScenario, ScenarioKind};
use ge_simcore::SimTime;
use ge_trace::{parse_jsonl, replay, write_jsonl, NullSink, TraceEvent, TraceSink, VecSink};
use ge_workload::{Trace, WorkloadConfig, WorkloadGenerator};

fn cfg(horizon_s: f64) -> SimConfig {
    SimConfig {
        horizon: SimTime::from_secs(horizon_s),
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

#[test]
fn null_sink_run_is_bit_identical_to_untraced() {
    let cfg = cfg(20.0);
    let trace = workload(150.0, 20.0, 11);
    let plain = run(&cfg, &trace, &Algorithm::Ge);
    let nulled = run_with_sink(&cfg, &trace, &Algorithm::Ge, None, &mut NullSink);
    assert_eq!(plain.quality.to_bits(), nulled.quality.to_bits());
    assert_eq!(plain.energy_j.to_bits(), nulled.energy_j.to_bits());
    assert_eq!(plain.schedule_epochs, nulled.schedule_epochs);
}

/// Reports itself disabled, like [`NullSink`], but counts every event it
/// is handed anyway.
#[derive(Default)]
struct DisabledCountingSink {
    records: u64,
}

impl TraceSink for DisabledCountingSink {
    fn is_enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _event: &TraceEvent) {
        self.records += 1;
    }
}

#[test]
fn disabled_sink_receives_no_events() {
    // "Zero cost when off" rests on every emission site checking
    // `is_enabled` before it builds an event: a disabled sink must never
    // be handed one, on any scheduler path, faulted or not.
    let cfg = cfg(10.0);
    let trace = workload(150.0, 10.0, 5);
    let combined = FaultScenario::new(ScenarioKind::Combined, 1.0).build(cfg.cores, cfg.horizon, 5);
    for alg in [
        Algorithm::Ge,
        Algorithm::GeWfOnly,
        Algorithm::Oq,
        Algorithm::Be,
        Algorithm::Fcfs,
        Algorithm::Fdfs,
    ] {
        for faults in [None, Some(&combined)] {
            let mut sink = DisabledCountingSink::default();
            run_with_sink(&cfg, &trace, &alg, faults, &mut sink);
            assert_eq!(
                sink.records,
                0,
                "{} (combined faults: {}) recorded into a disabled sink",
                alg.label(),
                faults.is_some()
            );
        }
    }
}

/// Streams a run's events, asserting each timestamp is no earlier than
/// the last one; keeps nothing, so a full-length run stays cheap.
struct MonotoneSink {
    last: Option<(f64, &'static str)>,
    events: u64,
}

impl TraceSink for MonotoneSink {
    fn record(&mut self, event: &TraceEvent) {
        let t = event.t();
        if let Some((last, kind)) = self.last {
            assert!(
                t >= last,
                "{} at {t:.10} goes back in time after {kind} at {last:.10}",
                event.kind()
            );
        }
        self.last = Some((t, event.kind()));
        self.events += 1;
    }
}

#[test]
fn exec_slices_never_end_past_the_advance_target() {
    // Seed 0 at 150 req/s over 60 s has a completion a fraction of a
    // nanosecond after an advance target; ending the slice there used to
    // emit a job_finish earlier than the exec_slice before it.
    let cfg = cfg(60.0);
    let trace = workload(150.0, 60.0, 0);
    let mut sink = MonotoneSink {
        last: None,
        events: 0,
    };
    run_with_sink(&cfg, &trace, &Algorithm::Ge, None, &mut sink);
    assert!(sink.events > 0);
}

#[test]
fn jsonl_round_trip_replays_and_matches_summary() {
    let cfg = cfg(20.0);
    let trace = workload(170.0, 20.0, 17);
    let mut sink = VecSink::new();
    let result = run_with_sink(&cfg, &trace, &Algorithm::Ge, None, &mut sink);
    let events = sink.into_events();

    // Emit → parse: the wire format must preserve every event exactly.
    let mut buf = Vec::new();
    write_jsonl(&events, &mut buf).unwrap();
    let parsed = parse_jsonl(std::str::from_utf8(&buf).unwrap()).unwrap();
    assert_eq!(events, parsed);

    // Replay: rebuilt aggregates must reproduce the reported summary.
    let report = replay(&parsed).expect("structurally complete trace");
    assert!(report.is_ok(), "{}", report.render());
    let rel_energy = (report.energy_from_slices_j - result.energy_j).abs()
        / result.energy_j.max(f64::MIN_POSITIVE);
    assert!(
        rel_energy <= 1e-6,
        "energy rel err {rel_energy} (rebuilt {}, reported {})",
        report.energy_from_slices_j,
        result.energy_j
    );
    assert!(
        (report.aes_residency - result.aes_fraction).abs() <= 1e-9,
        "aes rebuilt {} vs reported {}",
        report.aes_residency,
        result.aes_fraction
    );
}

#[test]
fn trace_derived_aes_residency_matches_mode_summary() {
    // A Fig. 1 style point: GE at a mid rate; the AES fraction reported
    // by the driver's ModeTracker must be recoverable from the trace's
    // mode_switch events alone.
    let horizon_s = 20.0;
    let cfg = cfg(horizon_s);
    let trace = workload(185.0, horizon_s, 23);
    let mut sink = VecSink::new();
    let result = run_with_sink(&cfg, &trace, &Algorithm::Ge, None, &mut sink);
    let events = sink.into_events();

    let initial = events
        .iter()
        .find_map(|e| match e {
            TraceEvent::RunStart(start) => Some(start.initial_mode as usize),
            _ => None,
        })
        .expect("run_start present");
    let end = events
        .iter()
        .find_map(|e| match e {
            TraceEvent::RunSummary { t, .. } => Some(*t),
            _ => None,
        })
        .expect("run_summary present");

    let mut tracker = ge_metrics::ModeTracker::new(2, initial, SimTime::ZERO);
    for ev in &events {
        if let TraceEvent::ModeSwitch { t, to_mode, .. } = ev {
            tracker.switch(*to_mode as usize, SimTime::from_secs(*t));
        }
    }
    let fractions = tracker.fractions_at(SimTime::from_secs(end));
    assert!(
        (fractions[0] - result.aes_fraction).abs() <= 1e-9,
        "trace-derived AES {} vs ge-metrics summary {}",
        fractions[0],
        result.aes_fraction
    );
    // The run must actually exercise both modes for this to mean much.
    assert!(
        result.mode_transitions > 0,
        "exemplar run never switched modes — pick a different rate"
    );
}
