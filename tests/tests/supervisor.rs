//! Supervised experiment-runner acceptance tests.
//!
//! A cell that panics mid-study must be isolated (the study completes),
//! retried, and recorded in the run manifest; a crashed cell that left a
//! checkpoint behind must be *salvaged* — its retry continues from the
//! checkpoint instead of starting over; and no other cell's results may
//! be disturbed.

use std::path::PathBuf;
use std::time::Duration;

use ge_core::{CheckpointPolicy, DriveOutcome, Run};
use ge_experiments::supervise::{
    run_supervised, run_supervised_with_injection, write_manifest, SupervisorConfig,
};
use ge_experiments::Scale;
use ge_faults::ScenarioKind;
use ge_recover::{CellOutcome, RetryPolicy};
use ge_trace::NullSink;

fn tiny_scale() -> Scale {
    Scale {
        horizon_secs: 4.0,
        replications: 1,
        rates: vec![100.0, 150.0, 200.0],
        root_seed: 7,
    }
}

fn supervisor_cfg(dir: &std::path::Path) -> SupervisorConfig {
    SupervisorConfig {
        retry: RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(4),
            timeout: None,
        },
        checkpoint_dir: dir.to_path_buf(),
        checkpoint_every: 2,
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ge-supervisor-it-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn injected_panic_recovers_and_leaves_other_cells_intact() {
    let dir = temp_dir("panic");
    let scale = tiny_scale();
    let drilled = 2;
    let study = run_supervised_with_injection(
        ScenarioKind::Throttle,
        &scale,
        &supervisor_cfg(&dir),
        Some(drilled),
    );

    // The drilled cell crashed once, then recovered.
    assert_eq!(study.reports[drilled].outcome, CellOutcome::Retried);
    assert_eq!(study.reports[drilled].attempts, 2);

    // Every other cell ran exactly once, undisturbed.
    for (i, r) in study.reports.iter().enumerate() {
        if i != drilled {
            assert_eq!(
                r.outcome,
                CellOutcome::Ok,
                "cell {i} ({}) disturbed",
                r.name
            );
            assert_eq!(r.attempts, 1);
        }
    }

    // And the study's numbers are identical to an unsupervised run — the
    // crash left no trace in the aggregate artifacts.
    let plain = ge_experiments::faults::run(ScenarioKind::Throttle, &scale);
    assert_eq!(study.tables.len(), plain.len());
    for (a, b) in study.tables.iter().zip(&plain) {
        assert_eq!(a.to_csv(), b.to_csv());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crashed_cell_with_checkpoint_is_salvaged() {
    let dir = temp_dir("salvage");
    let scale = tiny_scale();
    let cfg = supervisor_cfg(&dir);

    // Stage the crash: run the study's own cell 0 up to a mid-run
    // checkpoint and stop — exactly the file a killed process would leave,
    // under the name the supervisor gives that cell.
    let cell = &ge_experiments::faults::cells(ScenarioKind::Throttle, &scale)[0];
    let trace = cell.trace();
    let schedule = cell.schedule();
    let ckpt = dir.join(format!("{}.ckpt", cell.name));
    let policy = CheckpointPolicy {
        path: ckpt.clone(),
        every_quanta: 2,
        stop_after: Some(1),
    };
    let staged = Run::start(
        &cell.sim,
        &trace,
        &cell.algorithm,
        Some(&schedule),
        &mut NullSink,
    )
    .drive(&policy, &mut NullSink)
    .expect("staging run");
    assert!(matches!(
        staged,
        DriveOutcome::Stopped { checkpoints: 1, .. }
    ));
    assert!(ckpt.exists(), "staged checkpoint must exist");

    // Now the drill: cell 0 panics on its first attempt; the retry finds
    // the checkpoint and finishes from it — a salvage, not a redo.
    let study = run_supervised_with_injection(ScenarioKind::Throttle, &scale, &cfg, Some(0));
    assert_eq!(study.reports[0].outcome, CellOutcome::Salvaged);
    assert_eq!(study.reports[0].attempts, 2);
    assert!(
        !ckpt.exists(),
        "checkpoint must be cleaned up after the cell succeeds"
    );

    // Salvaged continuation is bit-exact, so the aggregate still matches
    // the unsupervised study.
    let plain = ge_experiments::faults::run(ScenarioKind::Throttle, &scale);
    for (a, b) in study.tables.iter().zip(&plain) {
        assert_eq!(a.to_csv(), b.to_csv());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn manifest_records_every_cell_and_survives_rewrite() {
    let dir = temp_dir("manifest");
    let scale = tiny_scale();
    let study = run_supervised(ScenarioKind::Dvfs, &scale, &supervisor_cfg(&dir));
    let path = dir.join("run-manifest.json");
    write_manifest(&path, "dvfs", &study.reports).expect("write manifest");

    let text = std::fs::read_to_string(&path).expect("read manifest");
    assert!(text.contains("\"schema\": \"ge-run-manifest/v1\""));
    assert!(text.contains("\"scenario\": \"dvfs\""));
    for r in &study.reports {
        assert!(text.contains(&format!("\"name\": \"{}\"", r.name)));
    }
    assert_eq!(
        text.matches("\"status\": \"ok\"").count(),
        study.reports.len(),
        "healthy study: every cell ok"
    );

    // Atomic rewrite: a second write fully replaces the first.
    write_manifest(&path, "dvfs", &study.reports[..1]).expect("rewrite manifest");
    let text = std::fs::read_to_string(&path).expect("re-read manifest");
    assert_eq!(text.matches("\"name\"").count(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}
