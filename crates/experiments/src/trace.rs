//! `--trace` support: one fully-instrumented exemplar run per figure.
//!
//! Figures report seed-averaged summaries; this module runs a *single*
//! representative cell of the named figure with every decision event
//! streamed into a [`ge_trace::VecSink`], serializes the JSONL trace,
//! parses it back, and replays it through the invariant checker. The CLI
//! writes those same bytes, so the trace on disk is proven, not assumed,
//! to reproduce the run it describes.

use crate::scale::Scale;
use ge_core::{run_with_sink, Algorithm, RunResult, SimConfig};
use ge_trace::{
    jsonl_line, parse_jsonl, replay, write_jsonl, ReplayReport, RunMetaEvent, TraceEvent, VecSink,
    TRACE_SCHEMA,
};
use ge_workload::{WorkloadConfig, WorkloadGenerator};

/// The cell traced for a figure: the series the figure is *about*, at
/// the middle of the rate grid.
#[derive(Debug, Clone, PartialEq)]
pub struct Exemplar {
    /// The traced algorithm.
    pub algorithm: Algorithm,
    /// The deadline windows of its arrival stream.
    pub windows: Windows,
}

/// The deadline windows of an exemplar's arrival stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Windows {
    /// The paper's fixed 150 ms windows.
    Fixed,
    /// Fig. 4's random 150–500 ms windows.
    Random,
}

/// The outcome of a traced exemplar run.
pub struct TracedRun {
    /// The driver's reported measurements.
    pub result: RunResult,
    /// The trace as JSONL, provenance header first: exactly the bytes
    /// the replay below parsed back and checked.
    pub jsonl: String,
    /// Number of events (lines) in `jsonl`, the header included.
    pub event_count: usize,
    /// The invariant checker's verdict over the *parsed-back* trace.
    pub report: ReplayReport,
}

/// Why a traced exemplar run could not produce a verified trace. Any of
/// these indicates a bug in the tracing layer, not a property of the
/// workload — but the CLI reports them as errors instead of panicking.
#[derive(Debug)]
pub enum TraceError {
    /// The in-memory JSONL serialization failed.
    Serialize(std::io::Error),
    /// The emitted JSONL did not parse back.
    Parse(ge_trace::ParseError),
    /// The parsed trace was structurally incomplete.
    Replay(ge_trace::ReplayError),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Serialize(e) => write!(f, "failed to serialize trace: {e}"),
            TraceError::Parse(e) => write!(f, "emitted trace did not parse back: {e}"),
            TraceError::Replay(e) => write!(f, "emitted trace did not replay: {e}"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Serialize(e) => Some(e),
            TraceError::Parse(e) => Some(e),
            TraceError::Replay(e) => Some(e),
        }
    }
}

/// Runs `exemplar` with full tracing and round-trips the trace through
/// the JSONL encoder before replaying it.
pub fn traced_exemplar(exemplar: &Exemplar, scale: &Scale) -> Result<TracedRun, TraceError> {
    let rate = scale.mid_rate();
    let sim = SimConfig {
        horizon: scale.horizon(),
        ..SimConfig::paper_default()
    };
    let wc = WorkloadConfig {
        horizon: scale.horizon(),
        ..match exemplar.windows {
            Windows::Fixed => WorkloadConfig::paper_default(rate),
            Windows::Random => WorkloadConfig::paper_random_windows(rate),
        }
    };
    let trace = WorkloadGenerator::new(wc, scale.root_seed).generate();

    let mut sink = VecSink::new();
    let result = run_with_sink(&sim, &trace, &exemplar.algorithm, None, &mut sink);
    let mut events = sink.into_events();

    // Prepend the provenance header. The config digest covers the
    // serialized run_start line — the run's entire configuration as it
    // appears on the wire — so any config drift changes the digest.
    let config_digest = events
        .first()
        .filter(|e| matches!(e, TraceEvent::RunStart(_)))
        .map(|e| ge_recover::codec::fnv1a64(jsonl_line(e).as_bytes()))
        .unwrap_or(0);
    events.insert(
        0,
        TraceEvent::from(RunMetaEvent {
            t: 0.0,
            schema: TRACE_SCHEMA.to_string(),
            seed: scale.root_seed,
            config_digest,
            version: env!("CARGO_PKG_VERSION").to_string(),
        }),
    );
    let event_count = events.len();

    // Round-trip through the wire format before replaying: the report
    // then certifies the serialized artifact, not the in-memory one. The
    // in-memory events are dropped once serialized, so at most two
    // copies of the trace are alive at a time.
    let mut jsonl = Vec::new();
    write_jsonl(&events, &mut jsonl).map_err(TraceError::Serialize)?;
    drop(events);
    let jsonl = String::from_utf8(jsonl).map_err(|e| {
        TraceError::Serialize(std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    })?;
    let parsed = parse_jsonl(&jsonl).map_err(TraceError::Parse)?;
    let report = replay(&parsed).map_err(TraceError::Replay)?;
    Ok(TracedRun {
        result,
        jsonl,
        event_count,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            horizon_secs: 10.0,
            replications: 1,
            rates: vec![100.0, 150.0, 200.0],
            root_seed: 7,
        }
    }

    const GE: Exemplar = Exemplar {
        algorithm: Algorithm::Ge,
        windows: Windows::Fixed,
    };

    #[test]
    fn fig1_trace_replays_clean() {
        let run = traced_exemplar(&GE, &tiny()).expect("exemplar trace verifies");
        assert!(run.report.is_ok(), "{}", run.report.render());
        assert!(run.event_count > 0);
        assert_eq!(run.jsonl.lines().count(), run.event_count);
        assert!((run.report.reported_energy_j - run.result.energy_j).abs() < 1e-9);
        assert!((run.report.reported_aes - run.result.aes_fraction).abs() < 1e-12);
    }

    #[test]
    fn fig4_uses_random_windows_and_replays_clean() {
        let fig4 = Exemplar {
            windows: Windows::Random,
            ..GE
        };
        let run = traced_exemplar(&fig4, &tiny()).expect("exemplar trace verifies");
        assert!(run.report.is_ok(), "{}", run.report.render());
    }

    #[test]
    fn traced_exemplar_emits_a_valid_header() {
        let run = traced_exemplar(&GE, &tiny()).expect("exemplar trace verifies");
        let first = run.jsonl.lines().next().expect("a non-empty trace");
        match ge_trace::parse_jsonl_line(first).expect("header parses") {
            TraceEvent::RunMeta(meta) => {
                assert_eq!(meta.t, 0.0);
                assert_eq!(meta.schema, TRACE_SCHEMA);
                assert_eq!(meta.seed, 7);
                assert_ne!(meta.config_digest, 0, "digest must cover run_start");
                assert_eq!(meta.version, env!("CARGO_PKG_VERSION"));
            }
            other => panic!("first event is {other:?}, not run_meta"),
        }
        // Replay counted the body only — the header is provenance.
        assert_eq!(run.report.events, run.event_count - 1);
    }
}
