//! `--supervise` support: the fault-tolerant experiment runner.
//!
//! Runs every cell of a degradation study under [`ge_recover::supervise`]:
//! a panicking or hung cell is isolated on its own thread, retried with
//! capped exponential backoff, and — because each cell checkpoints its
//! simulation periodically — a retry *continues from the last checkpoint*
//! instead of starting over. A cell that exhausts its attempts is recorded
//! as failed without disturbing any other cell's results or artifacts.
//! The cells and tables are the study's own ([`crate::faults::cells`],
//! [`crate::faults::tables`]), walked serially, so a healthy supervised
//! run reproduces [`crate::faults::run`] byte for byte.
//!
//! The study's outcome ledger is written as `run-manifest.json` (schema
//! `ge-run-manifest/v1`, see EXPERIMENTS.md), one entry per cell with its
//! status (`ok` / `retried` / `salvaged` / `failed`), attempt count, and
//! last error. The manifest itself is written atomically, so a crash while
//! reporting never leaves a torn file.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;

use ge_core::{CheckpointPolicy, DriveOutcome, Run, RunResult};
use ge_faults::ScenarioKind;
use ge_metrics::Table;
use ge_recover::{supervise, write_atomic, CellOutcome, CellReport, RetryPolicy};
use ge_telemetry::json_escape;
use ge_trace::NullSink;

use crate::faults::{self, FaultCell};
use crate::scale::Scale;

/// How the supervised study runs each cell.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Retry/timeout policy applied to every cell.
    pub retry: RetryPolicy,
    /// Directory for per-cell checkpoint files.
    pub checkpoint_dir: PathBuf,
    /// Checkpoint every this many quantum ticks within a cell.
    pub checkpoint_every: u64,
}

/// The supervised study's outcome: the study's tables plus the per-cell
/// ledger.
pub struct SupervisedStudy {
    /// Quality / energy / discarded tables, from [`faults::tables`].
    pub tables: Vec<Table>,
    /// One report per cell, in cell order.
    pub reports: Vec<CellReport>,
}

/// Runs the degradation study for `kind` under supervision.
pub fn run_supervised(
    kind: ScenarioKind,
    scale: &Scale,
    cfg: &SupervisorConfig,
) -> SupervisedStudy {
    run_supervised_with_injection(kind, scale, cfg, None)
}

/// [`run_supervised`] with an optional crash drill: cell `inject_panic`
/// (by index) panics on its first attempt, exercising the full
/// isolate/retry/salvage path on otherwise-healthy inputs. Used by the
/// tests.
pub fn run_supervised_with_injection(
    kind: ScenarioKind,
    scale: &Scale,
    cfg: &SupervisorConfig,
    inject_panic: Option<usize>,
) -> SupervisedStudy {
    // Checkpoints need their directory up front; if it cannot be created
    // the cells themselves will report the write failure.
    let _ = std::fs::create_dir_all(&cfg.checkpoint_dir);
    let (reports, results): (Vec<CellReport>, Vec<Option<RunResult>>) = faults::cells(kind, scale)
        .into_iter()
        .enumerate()
        .map(|(i, cell)| supervise_cell(cell, cfg, inject_panic == Some(i)))
        .unzip();

    // Supervisor health counters for the live metrics endpoint. Timeouts
    // are recognized by the retry layer's error text (only the last
    // attempt's error is retained per cell).
    if ge_telemetry::Telemetry::is_enabled() {
        let reg = ge_telemetry::Telemetry::registry();
        let retries: u64 = reports
            .iter()
            .map(|r| u64::from(r.attempts.saturating_sub(1)))
            .sum();
        let timeouts = reports
            .iter()
            .filter(|r| r.error.as_deref().is_some_and(|e| e.contains("timed out")))
            .count() as u64;
        let salvages = reports
            .iter()
            .filter(|r| r.outcome == CellOutcome::Salvaged)
            .count() as u64;
        reg.counter("ge_supervise_retries_total").add(retries);
        reg.counter("ge_supervise_timeouts_total").add(timeouts);
        reg.counter("ge_supervise_salvages_total").add(salvages);
    }

    let tables = faults::tables(kind, scale, &results);
    SupervisedStudy { tables, reports }
}

/// Runs one cell under supervision, checkpointing to
/// `<checkpoint_dir>/<name>.ckpt`. Each attempt first tries to continue
/// from that file (so work done before a crash is kept); a missing,
/// corrupt, or mismatched checkpoint falls back to a fresh run.
fn supervise_cell(
    cell: FaultCell,
    cfg: &SupervisorConfig,
    inject_panic: bool,
) -> (CellReport, Option<RunResult>) {
    let checkpoint = cfg.checkpoint_dir.join(format!("{}.ckpt", cell.name));
    let attempt_no = Arc::new(AtomicU32::new(0));
    let used_checkpoint = Arc::new(AtomicBool::new(false));
    let used = Arc::clone(&used_checkpoint);
    let policy = CheckpointPolicy {
        path: checkpoint.clone(),
        every_quanta: cfg.checkpoint_every.max(1),
        stop_after: None,
    };
    let name = cell.name.clone();
    let work = move || -> Result<RunResult, String> {
        let attempt = attempt_no.fetch_add(1, Ordering::SeqCst);
        if inject_panic && attempt == 0 {
            panic!("injected crash drill");
        }
        let trace = cell.trace();
        let schedule = cell.schedule();
        if policy.path.exists() {
            let restored = Run::restore_file(
                &cell.sim,
                &trace,
                &cell.algorithm,
                Some(&schedule),
                &policy.path,
            );
            match restored.and_then(|run| run.drive(&policy, &mut NullSink)) {
                Ok(DriveOutcome::Finished(r)) => {
                    used.store(true, Ordering::SeqCst);
                    return Ok(r);
                }
                // `stop_after` is None, so Stopped is unreachable; a load
                // error (corrupt/mismatched checkpoint) falls through to a
                // fresh run below.
                Ok(DriveOutcome::Stopped { .. }) | Err(_) => {}
            }
        }
        let run = Run::start(
            &cell.sim,
            &trace,
            &cell.algorithm,
            Some(&schedule),
            &mut NullSink,
        );
        match run.drive(&policy, &mut NullSink) {
            Ok(DriveOutcome::Finished(r)) => Ok(r),
            Ok(DriveOutcome::Stopped { .. }) => Err("run stopped before the horizon".to_string()),
            Err(e) => Err(e.to_string()),
        }
    };
    let (mut report, value) = supervise(&name, &cfg.retry, work);
    // A retry that continued from the crashed attempt's checkpoint
    // salvaged partial work rather than redoing it.
    if report.outcome == CellOutcome::Retried && used_checkpoint.load(Ordering::SeqCst) {
        report.outcome = CellOutcome::Salvaged;
    }
    // The checkpoint has served its purpose once the cell succeeds.
    if value.is_some() {
        let _ = std::fs::remove_file(&checkpoint);
    }
    (report, value)
}

/// Renders the run manifest (schema `ge-run-manifest/v1`).
pub fn render_manifest(scenario: &str, reports: &[CellReport]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"ge-run-manifest/v1\",\n");
    out.push_str(&format!("  \"scenario\": \"{}\",\n", json_escape(scenario)));
    out.push_str("  \"cells\": [\n");
    for (i, r) in reports.iter().enumerate() {
        let error = match &r.error {
            None => "null".to_string(),
            Some(e) => format!("\"{}\"", json_escape(e)),
        };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"status\": \"{}\", \"attempts\": {}, \"error\": {}}}{}\n",
            json_escape(&r.name),
            r.outcome.as_str(),
            r.attempts,
            error,
            if i + 1 < reports.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Writes the run manifest to `path` atomically.
pub fn write_manifest(path: &Path, scenario: &str, reports: &[CellReport]) -> std::io::Result<()> {
    write_atomic(path, render_manifest(scenario, reports).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            horizon_secs: 4.0,
            replications: 1,
            rates: vec![100.0, 150.0, 200.0],
            root_seed: 7,
        }
    }

    fn tiny_cfg(dir: &Path) -> SupervisorConfig {
        SupervisorConfig {
            retry: RetryPolicy {
                max_attempts: 3,
                base_backoff: std::time::Duration::from_millis(1),
                max_backoff: std::time::Duration::from_millis(4),
                timeout: None,
            },
            checkpoint_dir: dir.to_path_buf(),
            checkpoint_every: 2,
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ge-supervise-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn healthy_study_is_all_ok_and_matches_unsupervised() {
        let dir = temp_dir("healthy");
        let study = run_supervised(ScenarioKind::Throttle, &tiny(), &tiny_cfg(&dir));
        assert!(study
            .reports
            .iter()
            .all(|r| r.outcome == CellOutcome::Ok && r.attempts == 1));
        let plain = crate::faults::run(ScenarioKind::Throttle, &tiny());
        for (a, b) in study.tables.iter().zip(&plain) {
            assert_eq!(a.to_csv(), b.to_csv(), "supervised cells must not drift");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_panic_is_contained_and_recorded() {
        let dir = temp_dir("drill");
        let study = run_supervised_with_injection(
            ScenarioKind::Throttle,
            &tiny(),
            &tiny_cfg(&dir),
            Some(1),
        );
        // The drilled cell recovered on retry; the first attempt crashed
        // before any checkpoint, so this is a retry, not a salvage.
        assert_eq!(study.reports[1].outcome, CellOutcome::Retried);
        assert_eq!(study.reports[1].attempts, 2);
        // Every other cell is untouched.
        for (i, r) in study.reports.iter().enumerate() {
            if i != 1 {
                assert_eq!(r.outcome, CellOutcome::Ok, "cell {i} disturbed");
            }
        }
        // And the numbers agree with the unsupervised study regardless.
        let plain = crate::faults::run(ScenarioKind::Throttle, &tiny());
        for (a, b) in study.tables.iter().zip(&plain) {
            assert_eq!(a.to_csv(), b.to_csv());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_renders_and_parses_shape() {
        let reports = vec![
            CellReport {
                name: "a".into(),
                outcome: CellOutcome::Ok,
                attempts: 1,
                error: None,
            },
            CellReport {
                name: "b \"quoted\"".into(),
                outcome: CellOutcome::Failed,
                attempts: 3,
                error: Some("boom\nline2".into()),
            },
        ];
        let json = render_manifest("coreloss", &reports);
        assert!(json.contains("\"schema\": \"ge-run-manifest/v1\""));
        assert!(json.contains("\"status\": \"ok\""));
        assert!(json.contains("\"status\": \"failed\""));
        assert!(json.contains("b \\\"quoted\\\""));
        assert!(json.contains("boom\\nline2"));
        // Balanced braces/brackets as a cheap well-formedness check.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
