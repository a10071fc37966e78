//! `--trace` support: one fully-instrumented exemplar run per figure.
//!
//! Figures report seed-averaged summaries; this module runs a *single*
//! representative cell of the named figure with every decision event
//! encoded to JSONL as it is recorded. Each line goes straight to the
//! trace file's temp file and is parsed back into the invariant checker,
//! so a traced run keeps neither events nor text. The CLI commits those
//! same bytes, so the trace on disk is proven, not assumed, to reproduce
//! the run it describes.

use std::io::{self, Write};
use std::path::Path;

use crate::scale::Scale;
use ge_core::{run_with_sink, Algorithm, RunResult, SimConfig};
use ge_recover::AtomicFile;
use ge_trace::{
    jsonl_line, JsonlLines, Replay, ReplayReport, RunLedger, RunMetaEvent, TraceEvent, TraceSink,
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
    /// The trace file, not yet committed to its path: JSONL, provenance
    /// header first, exactly the bytes the replay below parsed back and
    /// checked.
    pub file: AtomicFile,
    /// Number of events (lines) in the trace, the header included.
    pub event_count: usize,
    /// The invariant checker's verdict over the *parsed-back* trace.
    pub report: ReplayReport,
}

/// Why a traced exemplar run could not produce a verified trace. A parse
/// or replay failure indicates a bug in the tracing layer, not a property
/// of the workload — but the CLI reports them as errors instead of
/// panicking.
#[derive(Debug)]
pub enum TraceError {
    /// The trace file could not be created or written.
    Io(io::Error),
    /// The emitted JSONL did not parse back.
    Parse(ge_trace::ParseError),
    /// The parsed trace was structurally incomplete.
    Replay(ge_trace::ReplayError),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "writing the trace failed: {e}"),
            TraceError::Parse(e) => write!(f, "emitted trace did not parse back: {e}"),
            TraceError::Replay(e) => write!(f, "emitted trace did not replay: {e}"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            TraceError::Parse(e) => Some(e),
            TraceError::Replay(e) => Some(e),
        }
    }
}

/// Encodes each event to a JSONL line as the run records it, behind a
/// `run_meta` provenance header, writes the line to the trace file and
/// replays the line parsed back. The first failure stops the work and is
/// reported once the run ends.
struct JsonlSink {
    seed: u64,
    file: AtomicFile,
    parsed: JsonlLines,
    replay: Replay<RunLedger>,
    lines: usize,
    error: Option<TraceError>,
}

impl JsonlSink {
    fn line(&mut self, ev: &TraceEvent) {
        if self.error.is_some() {
            return;
        }
        let line = jsonl_line(ev);
        let written = self
            .file
            .write_all(line.as_bytes())
            .and_then(|()| self.file.write_all(b"\n"));
        if let Err(e) = written {
            self.error = Some(TraceError::Io(e));
            return;
        }
        match self.parsed.parse(line.as_bytes()) {
            Ok(Some(ev)) => self.replay.push(&ev),
            Ok(None) => {}
            Err(e) => self.error = Some(TraceError::Parse(e)),
        }
        self.lines += 1;
    }
}

impl TraceSink for JsonlSink {
    fn record(&mut self, ev: &TraceEvent) {
        if self.lines == 0 {
            // The header's config digest covers the serialized run_start
            // line — the run's entire configuration as it appears on the
            // wire — so any config drift changes the digest.
            let config_digest = match ev {
                TraceEvent::RunStart(_) => ge_recover::codec::fnv1a64(jsonl_line(ev).as_bytes()),
                _ => 0,
            };
            self.line(&TraceEvent::from(RunMetaEvent {
                t: 0.0,
                schema: TRACE_SCHEMA.to_string(),
                seed: self.seed,
                config_digest,
                version: env!("CARGO_PKG_VERSION").to_string(),
            }));
        }
        self.line(ev);
    }
}

/// Runs `exemplar` with full tracing, streaming the trace to a temp file
/// for `path` and round-tripping each line through the JSONL encoder
/// before replaying it. The caller commits [`TracedRun::file`].
pub fn traced_exemplar(
    exemplar: &Exemplar,
    scale: &Scale,
    path: &Path,
) -> Result<TracedRun, TraceError> {
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

    // Replay the wire bytes, not the recorded events: the report then
    // certifies the serialized artifact, and no parsed copy is kept.
    let mut sink = JsonlSink {
        seed: scale.root_seed,
        file: AtomicFile::create(path).map_err(TraceError::Io)?,
        parsed: JsonlLines::default(),
        replay: Replay::default(),
        lines: 0,
        error: None,
    };
    let result = run_with_sink(&sim, &trace, &exemplar.algorithm, None, &mut sink);
    if let Some(e) = sink.error {
        return Err(e);
    }
    let report = sink.replay.finish().map_err(TraceError::Replay)?;
    Ok(TracedRun {
        result,
        file: sink.file,
        event_count: sink.lines,
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

    /// Traces `exemplar` and commits the file: the run's measurements,
    /// its replay report, its line count and the committed text.
    fn traced(exemplar: &Exemplar, name: &str) -> (RunResult, ReplayReport, usize, String) {
        let dir = std::env::temp_dir().join(format!("ge-trace-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(name);
        let run = traced_exemplar(exemplar, &tiny(), &path).expect("exemplar trace verifies");
        run.file.commit().expect("trace commits");
        let text = std::fs::read_to_string(&path).expect("committed trace");
        std::fs::remove_file(&path).expect("remove trace");
        (run.result, run.report, run.event_count, text)
    }

    #[test]
    fn fig1_trace_replays_clean() {
        let (result, report, event_count, jsonl) = traced(&GE, "fig1.jsonl");
        assert!(report.is_ok(), "{}", report.render());
        assert!(event_count > 0);
        assert_eq!(jsonl.lines().count(), event_count);
        assert!((report.reported_energy_j - result.energy_j).abs() < 1e-9);
        assert!((report.reported_aes - result.aes_fraction).abs() < 1e-12);
    }

    #[test]
    fn fig4_uses_random_windows_and_replays_clean() {
        let fig4 = Exemplar {
            windows: Windows::Random,
            ..GE
        };
        let (_, report, ..) = traced(&fig4, "fig4.jsonl");
        assert!(report.is_ok(), "{}", report.render());
    }

    #[test]
    fn traced_exemplar_emits_a_valid_header() {
        let (_, report, event_count, jsonl) = traced(&GE, "header.jsonl");
        let first = jsonl.lines().next().expect("a non-empty trace");
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
        assert_eq!(report.events, event_count - 1);
    }
}
