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
use ge_faults::{FaultScenario, FaultSchedule, ScenarioKind};
use ge_metrics::Table;
use ge_trace::NullSink;
use ge_workload::{Trace, WorkloadConfig, WorkloadGenerator};

/// The intensity grid swept by the degradation study (and by the fleet
/// study).
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

/// The study's platform and workload at `scale`: the paper's server with
/// the `Q_min` floor armed, fed at the middle of the rate grid.
fn study_config(scale: &Scale) -> (SimConfig, WorkloadConfig) {
    let sim = SimConfig {
        horizon: scale.horizon(),
        q_min: Q_MIN,
        ..SimConfig::paper_default()
    };
    let workload = WorkloadConfig {
        horizon: scale.horizon(),
        ..WorkloadConfig::paper_default(scale.mid_rate())
    };
    (sim, workload)
}

/// One (intensity, algorithm, seed) point of the study.
#[derive(Debug, Clone)]
pub struct FaultCell {
    /// `{scenario}-i{NNN}-{alg}-s{seed}`, as the run manifest lists it.
    pub name: String,
    /// The simulated platform.
    pub sim: SimConfig,
    /// The arrival stream's configuration.
    pub workload: WorkloadConfig,
    /// The algorithm under test.
    pub algorithm: Algorithm,
    /// The fault scenario at this cell's intensity.
    pub scenario: FaultScenario,
    /// Seeds both the arrival stream and the fault schedule.
    pub seed: u64,
}

impl FaultCell {
    /// The study's cell for `kind` at `intensity`, running `algorithm`
    /// over seed `seed` at `scale`.
    pub fn new(
        kind: ScenarioKind,
        intensity: f64,
        algorithm: Algorithm,
        seed: u64,
        scale: &Scale,
    ) -> Self {
        let (sim, workload) = study_config(scale);
        FaultCell {
            name: format!(
                "{}-i{:03}-{}-s{seed}",
                kind.name(),
                (intensity * 100.0).round() as u32,
                algorithm.label().to_lowercase().replace(' ', "-"),
            ),
            sim,
            workload,
            algorithm,
            scenario: FaultScenario::new(kind, intensity),
            seed,
        }
    }

    /// The cell's arrival stream.
    pub fn trace(&self) -> Trace {
        WorkloadGenerator::new(self.workload.clone(), self.seed).generate()
    }

    /// The cell's fault schedule.
    pub fn schedule(&self) -> FaultSchedule {
        self.scenario
            .build(self.sim.cores, self.sim.horizon, self.seed)
    }

    /// Runs the cell to the horizon, untraced.
    pub fn run(&self) -> RunResult {
        let schedule = self.schedule();
        run_with_sink(
            &self.sim,
            &self.trace(),
            &self.algorithm,
            Some(&schedule),
            &mut NullSink,
        )
    }
}

fn replications(scale: &Scale) -> usize {
    scale.replications.max(1) as usize
}

/// Every cell of the study for `kind`, ordered by intensity, then
/// algorithm, then seed.
pub fn cells(kind: ScenarioKind, scale: &Scale) -> Vec<FaultCell> {
    let algs = algorithms();
    let reps = replications(scale);
    let mut cells = Vec::with_capacity(INTENSITIES.len() * algs.len() * reps);
    for &intensity in &INTENSITIES {
        for alg in &algs {
            for k in 0..reps {
                let seed = scale.root_seed + k as u64;
                cells.push(FaultCell::new(kind, intensity, alg.clone(), seed, scale));
            }
        }
    }
    cells
}

/// Builds the study's three tables from one result per cell of
/// [`cells`], in cell order (`None` for a cell that produced none). Each
/// has one row per intensity and one column per algorithm: delivered
/// quality, energy (J), and jobs discarded (deadline expiries plus
/// admission sheds). A point is the mean over the replications that
/// produced a result, and NaN only when none did.
pub fn tables(kind: ScenarioKind, scale: &Scale, results: &[Option<RunResult>]) -> Vec<Table> {
    let algs = algorithms();
    let reps = replications(scale);
    assert_eq!(results.len(), INTENSITIES.len() * algs.len() * reps);
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

    let mut points = results.chunks(reps);
    for &intensity in &INTENSITIES {
        let mut qrow = vec![intensity];
        let mut erow = vec![intensity];
        let mut drow = vec![intensity];
        for runs in points.by_ref().take(algs.len()) {
            let ok: Vec<&RunResult> = runs.iter().flatten().collect();
            // 0/0 is NaN: a point with no surviving replication.
            let n = ok.len() as f64;
            qrow.push(ok.iter().map(|r| r.quality).sum::<f64>() / n);
            erow.push(ok.iter().map(|r| r.energy_j).sum::<f64>() / n);
            drow.push(ok.iter().map(|r| r.jobs_discarded as f64).sum::<f64>() / n);
        }
        quality.push_numeric_row(&qrow, 4);
        energy.push_numeric_row(&erow, 2);
        discarded.push_numeric_row(&drow, 2);
    }
    vec![quality, energy, discarded]
}

/// Runs the degradation study for `kind`, every cell in parallel, and
/// returns its [`tables`].
pub fn run(kind: ScenarioKind, scale: &Scale) -> Vec<Table> {
    let cells = cells(kind, scale);
    let results = parallel_indexed(cells.len(), |i| Some(cells[i].run()));
    tables(kind, scale, &results)
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

    #[test]
    fn a_point_averages_its_surviving_replications() {
        let kind = ScenarioKind::Throttle;
        let scale = Scale {
            horizon_secs: 4.0,
            replications: 2,
            ..tiny()
        };
        let mut results: Vec<Option<RunResult>> =
            cells(kind, &scale).iter().map(|c| Some(c.run())).collect();
        // Cells 0–1 are (intensity 0, GE) and 2–3 are (intensity 0, BE),
        // one per seed: GE keeps its first seed, BE keeps none.
        let survivor = results[0].clone().expect("cell 0 ran");
        results[1] = None;
        results[2] = None;
        results[3] = None;
        let got = tables(kind, &scale, &results);
        let plain = run(kind, &scale);
        let expected_ge = [
            format!("{:.4}", survivor.quality),
            format!("{:.2}", survivor.energy_j),
            format!("{:.2}", survivor.jobs_discarded as f64),
        ];
        for ((g, p), ge) in got.iter().zip(&plain).zip(&expected_ge) {
            let (g, p) = (g.to_csv(), p.to_csv());
            for (row, (gl, pl)) in g.lines().zip(p.lines()).enumerate() {
                let pcells: Vec<&str> = pl.split(',').collect();
                for (col, cell) in gl.split(',').enumerate() {
                    match (row, col) {
                        (1, 1) => assert_eq!(cell, ge, "GE averages its survivor"),
                        (1, 2) => assert_eq!(cell, "NaN", "BE lost every replication"),
                        _ => assert_eq!(cell, pcells[col], "row {row} col {col}"),
                    }
                }
            }
        }
    }
}
