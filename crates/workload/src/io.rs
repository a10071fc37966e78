//! Trace persistence: save and reload job traces as CSV.
//!
//! Enables the classic reproduction workflow — generate once, archive the
//! exact trace next to the results, and replay it against any algorithm
//! or future version of the code. The format is a plain four-column CSV
//! (`id,release_s,deadline_s,demand`) readable by any plotting tool.

use crate::job::{Job, JobId};
use crate::trace::Trace;
use ge_simcore::SimTime;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::str::FromStr;

/// Header line of the trace CSV format.
pub const TRACE_CSV_HEADER: &str = "id,release_s,deadline_s,demand";

/// Serializes a trace to CSV text.
pub fn trace_to_csv(trace: &Trace) -> String {
    let mut out = String::with_capacity(trace.len() * 40 + 64);
    let _ = writeln!(out, "{TRACE_CSV_HEADER}");
    for j in trace.jobs() {
        let _ = writeln!(
            out,
            "{},{:.9},{:.9},{:.9}",
            j.id.0,
            j.release.as_secs(),
            j.deadline.as_secs(),
            j.demand
        );
    }
    out
}

/// Errors from [`trace_from_csv`].
#[derive(Debug, PartialEq, Eq)]
pub enum TraceParseError {
    /// The header line is missing or wrong.
    BadHeader,
    /// A data line has the wrong number of fields.
    BadFieldCount {
        /// 1-based line number.
        line: usize,
    },
    /// A field failed to parse as a number.
    BadNumber {
        /// 1-based line number.
        line: usize,
        /// The offending field text.
        field: String,
    },
    /// Jobs are not in non-decreasing release order.
    NotReleaseOrdered {
        /// 1-based line number.
        line: usize,
    },
    /// The numbers parse but describe no valid job.
    InvalidJob {
        /// 1-based line number.
        line: usize,
        /// What is wrong with the job.
        reason: &'static str,
    },
}

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceParseError::BadHeader => write!(f, "missing or invalid header"),
            TraceParseError::BadFieldCount { line } => {
                write!(f, "line {line}: expected 4 comma-separated fields")
            }
            TraceParseError::BadNumber { line, field } => {
                write!(f, "line {line}: cannot parse number from {field:?}")
            }
            TraceParseError::NotReleaseOrdered { line } => {
                write!(f, "line {line}: releases must be non-decreasing")
            }
            TraceParseError::InvalidJob { line, reason } => write!(f, "line {line}: {reason}"),
        }
    }
}

impl std::error::Error for TraceParseError {}

/// The reason a parsed `(release, deadline, demand)` row is not a job
/// [`Job::new`] accepts at a non-negative release, if any.
fn invalid_job(release: f64, deadline: f64, demand: f64) -> Option<&'static str> {
    if !release.is_finite() || !deadline.is_finite() {
        Some("release and deadline must be finite")
    } else if release < 0.0 {
        Some("release must not be negative")
    } else if !SimTime::from_secs(deadline).after(SimTime::from_secs(release)) {
        Some("deadline must follow release")
    } else if !(demand.is_finite() && demand > 0.0) {
        Some("demand must be positive and finite")
    } else {
        None
    }
}

/// Parses a trace from CSV text (the [`trace_to_csv`] format). Every row
/// must describe a valid job: finite times, a non-negative release, a
/// deadline after it, and a positive, finite demand.
pub fn trace_from_csv(text: &str) -> Result<Trace, TraceParseError> {
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, h)) if h.trim() == TRACE_CSV_HEADER => {}
        _ => return Err(TraceParseError::BadHeader),
    }
    let mut jobs = Vec::new();
    let mut last_release = f64::NEG_INFINITY;
    for (idx, line) in lines {
        let line_no = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != 4 {
            return Err(TraceParseError::BadFieldCount { line: line_no });
        }
        let parse = |s: &str| -> Result<f64, TraceParseError> {
            f64::from_str(s.trim()).map_err(|_| TraceParseError::BadNumber {
                line: line_no,
                field: s.to_string(),
            })
        };
        let id = u64::from_str(fields[0].trim()).map_err(|_| TraceParseError::BadNumber {
            line: line_no,
            field: fields[0].to_string(),
        })?;
        let release = parse(fields[1])?;
        let deadline = parse(fields[2])?;
        let demand = parse(fields[3])?;
        if let Some(reason) = invalid_job(release, deadline, demand) {
            return Err(TraceParseError::InvalidJob {
                line: line_no,
                reason,
            });
        }
        if release < last_release {
            return Err(TraceParseError::NotReleaseOrdered { line: line_no });
        }
        last_release = release;
        jobs.push(Job::new(
            JobId(id),
            SimTime::from_secs(release),
            SimTime::from_secs(deadline),
            demand,
        ));
    }
    Ok(Trace::new(jobs))
}

/// Writes a trace to a CSV file, creating parent directories.
pub fn save_trace(trace: &Trace, path: &Path) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, trace_to_csv(trace))
}

/// Reads a trace from a CSV file written by [`save_trace`].
pub fn load_trace(path: &Path) -> io::Result<Trace> {
    let text = std::fs::read_to_string(path)?;
    trace_from_csv(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::{WorkloadConfig, WorkloadGenerator};

    fn small_trace() -> Trace {
        WorkloadGenerator::new(
            WorkloadConfig {
                horizon: SimTime::from_secs(2.0),
                ..WorkloadConfig::paper_default(50.0)
            },
            9,
        )
        .generate()
    }

    #[test]
    fn csv_round_trip_preserves_jobs() {
        let original = small_trace();
        let csv = trace_to_csv(&original);
        let parsed = trace_from_csv(&csv).unwrap();
        assert_eq!(original.len(), parsed.len());
        for (a, b) in original.jobs().iter().zip(parsed.jobs()) {
            assert_eq!(a.id, b.id);
            assert!((a.release.as_secs() - b.release.as_secs()).abs() < 1e-9);
            assert!((a.deadline.as_secs() - b.deadline.as_secs()).abs() < 1e-9);
            assert!((a.demand - b.demand).abs() < 1e-6);
        }
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("ge-workload-io-test");
        let path = dir.join("trace.csv");
        let original = small_trace();
        save_trace(&original, &path).unwrap();
        let loaded = load_trace(&path).unwrap();
        assert_eq!(original.len(), loaded.len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_trace_round_trips() {
        let csv = trace_to_csv(&Trace::default());
        let parsed = trace_from_csv(&csv).unwrap();
        assert!(parsed.is_empty());
    }

    #[test]
    fn bad_header_rejected() {
        assert_eq!(
            trace_from_csv("wrong,header\n1,2,3,4").unwrap_err(),
            TraceParseError::BadHeader
        );
    }

    #[test]
    fn bad_field_count_rejected() {
        let text = format!("{TRACE_CSV_HEADER}\n0,1.0,2.0");
        assert_eq!(
            trace_from_csv(&text).unwrap_err(),
            TraceParseError::BadFieldCount { line: 2 }
        );
    }

    #[test]
    fn bad_number_rejected() {
        let text = format!("{TRACE_CSV_HEADER}\n0,abc,2.0,100.0");
        assert!(matches!(
            trace_from_csv(&text),
            Err(TraceParseError::BadNumber { line: 2, .. })
        ));
    }

    #[test]
    fn out_of_order_releases_rejected() {
        let text = format!("{TRACE_CSV_HEADER}\n0,5.0,6.0,100.0\n1,1.0,2.0,100.0");
        assert_eq!(
            trace_from_csv(&text).unwrap_err(),
            TraceParseError::NotReleaseOrdered { line: 3 }
        );
    }

    /// Asserts that `row`, as the second data line, fails with `reason`.
    fn assert_invalid_job(row: &str, reason: &'static str) {
        let text = format!("{TRACE_CSV_HEADER}\n0,0.0,1.0,100.0\n{row}");
        assert_eq!(
            trace_from_csv(&text).unwrap_err(),
            TraceParseError::InvalidJob { line: 3, reason }
        );
    }

    #[test]
    fn nan_release_rejected() {
        assert_invalid_job("0,NaN,0.5,100", "release and deadline must be finite");
    }

    #[test]
    fn infinite_deadline_rejected() {
        assert_invalid_job("0,0.1,inf,100", "release and deadline must be finite");
    }

    #[test]
    fn negative_release_rejected() {
        assert_invalid_job("0,-1.0,0.5,100", "release must not be negative");
    }

    #[test]
    fn deadline_before_release_rejected() {
        assert_invalid_job("0,1.0,0.5,100", "deadline must follow release");
    }

    #[test]
    fn negative_demand_rejected() {
        assert_invalid_job("0,0.1,0.5,-3", "demand must be positive and finite");
    }

    #[test]
    fn zero_demand_rejected() {
        assert_invalid_job("0,0.1,0.5,0", "demand must be positive and finite");
    }

    #[test]
    fn blank_lines_tolerated() {
        let text = format!("{TRACE_CSV_HEADER}\n0,1.0,2.0,100.0\n\n");
        assert_eq!(trace_from_csv(&text).unwrap().len(), 1);
    }

    #[test]
    fn error_display_strings() {
        let e = TraceParseError::BadHeader;
        assert!(!e.to_string().is_empty());
        let e = TraceParseError::BadNumber {
            line: 3,
            field: "x".into(),
        };
        assert!(e.to_string().contains("line 3"));
    }
}
