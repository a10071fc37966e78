//! `--faults` support: the degradation study.
//!
//! Sweeps one named fault scenario over an intensity grid, running GE
//! (with the `Q_min` degradation floor armed) against the BE and queue
//! baselines, and reports delivered quality, energy, and discarded-job
//! counts per intensity — the data behind the graceful-degradation
//! figure. Every cell is deterministic in `(scenario, intensity, seed)`,
//! so the study is reproducible run to run.

use crate::scale::Scale;
use crate::sweep::parallel_indexed;
use ge_core::{run_with_sink, Algorithm, RunResult, SimConfig};
use ge_faults::{FaultScenario, ScenarioKind};
use ge_metrics::Table;
use ge_trace::NullSink;
use ge_workload::{WorkloadConfig, WorkloadGenerator};

/// The intensity grid swept by the degradation study.
pub const INTENSITIES: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];

/// The admission floor armed for the study: GE sheds work rather than
/// deliver batches below this quality.
pub const Q_MIN: f64 = 0.80;

/// GE plus the baselines it degrades against.
pub fn algorithms() -> Vec<Algorithm> {
    vec![
        Algorithm::Ge,
        Algorithm::Be,
        Algorithm::Sjf,
        Algorithm::Fcfs,
    ]
}

/// One (intensity, algorithm, seed) point of the study.
struct FaultCell {
    sim: SimConfig,
    workload: WorkloadConfig,
    algorithm: Algorithm,
    scenario: FaultScenario,
    seed: u64,
}

fn run_fault_cell(cell: &FaultCell) -> RunResult {
    let trace = WorkloadGenerator::new(cell.workload.clone(), cell.seed).generate();
    let schedule = cell
        .scenario
        .build(cell.sim.cores, cell.sim.horizon, cell.seed);
    run_with_sink(
        &cell.sim,
        &trace,
        &cell.algorithm,
        Some(&schedule),
        &mut NullSink,
    )
}

/// Runs every cell in parallel, returning results in cell order (the
/// same panic-safe fan-out as [`crate::sweep::sweep`]).
fn sweep_faults(cells: &[FaultCell]) -> Vec<RunResult> {
    parallel_indexed(cells.len(), |i| run_fault_cell(&cells[i]))
}

/// Runs the degradation study for `kind`. Returns three tables, each
/// with one row per intensity and one column per algorithm: delivered
/// quality, energy (J), and jobs discarded (deadline expiries plus
/// admission sheds).
pub fn run(kind: ScenarioKind, scale: &Scale) -> Vec<Table> {
    // The middle of the rate grid: loaded enough that faults bite, light
    // enough that the fault-free point is comfortably feasible.
    let rate = scale.rates[scale.rates.len() / 2];
    let sim = SimConfig {
        horizon: scale.horizon(),
        q_min: Q_MIN,
        ..SimConfig::paper_default()
    };
    let workload = WorkloadConfig {
        horizon: scale.horizon(),
        ..WorkloadConfig::paper_default(rate)
    };
    let algs = algorithms();
    let reps = scale.replications.max(1) as usize;

    let mut cells = Vec::with_capacity(INTENSITIES.len() * algs.len() * reps);
    for &intensity in &INTENSITIES {
        for alg in &algs {
            for k in 0..reps {
                cells.push(FaultCell {
                    sim: sim.clone(),
                    workload: workload.clone(),
                    algorithm: alg.clone(),
                    scenario: FaultScenario::new(kind, intensity),
                    seed: scale.root_seed + k as u64,
                });
            }
        }
    }
    let results = sweep_faults(&cells);

    let mut headers = vec!["intensity"];
    headers.extend(algs.iter().map(|a| a.label()));
    let name = kind.name();
    let mut quality = Table::with_headers(
        format!("Degradation ({name}): delivered quality vs fault intensity (Q_min = {Q_MIN})"),
        &headers,
    );
    let mut energy = Table::with_headers(
        format!("Degradation ({name}): energy (J) vs fault intensity"),
        &headers,
    );
    let mut discarded = Table::with_headers(
        format!("Degradation ({name}): jobs discarded (expired + shed) vs fault intensity"),
        &headers,
    );

    let per_intensity = algs.len() * reps;
    for (ii, &intensity) in INTENSITIES.iter().enumerate() {
        let mut qrow = vec![intensity];
        let mut erow = vec![intensity];
        let mut drow = vec![intensity];
        for ai in 0..algs.len() {
            let base = ii * per_intensity + ai * reps;
            let runs = &results[base..base + reps];
            let n = runs.len() as f64;
            qrow.push(runs.iter().map(|r| r.quality).sum::<f64>() / n);
            erow.push(runs.iter().map(|r| r.energy_j).sum::<f64>() / n);
            drow.push(runs.iter().map(|r| r.jobs_discarded as f64).sum::<f64>() / n);
        }
        quality.push_numeric_row(&qrow, 4);
        energy.push_numeric_row(&erow, 2);
        discarded.push_numeric_row(&drow, 2);
    }
    vec![quality, energy, discarded]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            horizon_secs: 8.0,
            replications: 1,
            rates: vec![100.0, 150.0, 200.0],
            root_seed: 11,
        }
    }

    #[test]
    fn study_shape_and_determinism() {
        let a = run(ScenarioKind::CoreLoss, &tiny());
        let b = run(ScenarioKind::CoreLoss, &tiny());
        assert_eq!(a.len(), 3);
        for t in &a {
            assert_eq!(t.to_csv().lines().count(), 1 + INTENSITIES.len());
        }
        for (ta, tb) in a.iter().zip(&b) {
            assert_eq!(ta.to_csv(), tb.to_csv());
        }
    }

    #[test]
    fn zero_intensity_matches_fault_free_quality() {
        let tables = run(ScenarioKind::Throttle, &tiny());
        let csv = tables[0].to_csv();
        let first = csv.lines().nth(1).expect("intensity-0 row");
        let ge_q: f64 = first
            .split(',')
            .nth(1)
            .expect("GE column")
            .parse()
            .expect("numeric quality");
        // GE tracks its Q_GE target (0.9) at intensity 0; allow slack for
        // the tiny horizon.
        assert!(ge_q > 0.85, "fault-free GE quality sane, got {ge_q}");
    }
}
