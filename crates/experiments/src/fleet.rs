//! `--fleet` support: the fleet degradation study.
//!
//! Sweeps one named fleet fault scenario over an intensity grid for every
//! routing policy × budget partitioner combination, and reports delivered
//! quality, energy, and shed-job counts per intensity — the degradation
//! curves behind the fleet robustness claim: at equal global budget,
//! returning a dead server's slice to the survivors (prop/sumpow) must
//! dominate parking it (equal).
//!
//! Every cell is a pure function of `(scenario, intensity, policy,
//! partitioner, seed)`, so the whole study — including its digest line —
//! is bit-reproducible run to run.

use crate::faults::{INTENSITIES, Q_MIN};
use crate::scale::Scale;
use crate::sweep::parallel_indexed;
use ge_core::SimConfig;
use ge_faults::{FleetScenario, FleetScenarioKind};
use ge_fleet::{run_fleet, FleetConfig, FleetResult, Partitioner, RoutingPolicy};
use ge_metrics::Table;
use ge_simcore::SimTime;
use ge_trace::NullSink;
use ge_workload::{WorkloadConfig, WorkloadGenerator};

/// Cores per fleet server (the paper's 16-core box split four ways).
pub const SHARD_CORES: usize = 4;

/// Nominal per-server budget slice `H/N` (watts): the paper's 320 W box
/// split four ways, so a 4-server fleet matches the single-server setup
/// core-for-core and watt-for-watt.
pub const SHARD_BUDGET_W: f64 = 80.0;

/// The per-server platform used by every fleet study cell.
pub fn shard_config(horizon: SimTime) -> SimConfig {
    SimConfig {
        cores: SHARD_CORES,
        budget_w: SHARD_BUDGET_W,
        // The ES/WF switch threshold scales with the core count.
        critical_load_rps: 154.0 * SHARD_CORES as f64 / 16.0,
        horizon,
        q_min: Q_MIN,
        ..SimConfig::paper_default()
    }
}

/// One (intensity, routing, partitioner) point of the study.
struct FleetCell {
    cfg: FleetConfig,
    scenario: FleetScenario,
}

/// Runs the fleet degradation study for `kind` with `servers` servers.
/// Returns three tables (delivered quality, energy, jobs shed) with one
/// row per intensity and one `policy/partitioner` column per combination,
/// plus an FNV-1a digest over every cell's exact result bits so shell
/// tests can compare two invocations for bit-exactness.
pub fn run(kind: FleetScenarioKind, scale: &Scale, servers: usize) -> (Vec<Table>, u64) {
    let horizon = scale.horizon();
    let shard = shard_config(horizon);
    // The mid-grid arrival rate, scaled from the paper's 16-core box to
    // this fleet's total core count: loaded enough that losing a server
    // pushes the survivors past their equal-split capacity.
    let rate = scale.mid_rate() * (servers * SHARD_CORES) as f64 / 16.0;
    let workload = WorkloadConfig {
        horizon,
        ..WorkloadConfig::paper_default(rate)
    };
    let trace = WorkloadGenerator::new(workload, scale.root_seed).generate();

    let combos: Vec<(RoutingPolicy, Partitioner)> = RoutingPolicy::ALL
        .iter()
        .flat_map(|&p| Partitioner::ALL.iter().map(move |&q| (p, q)))
        .collect();
    let mut cells = Vec::with_capacity(INTENSITIES.len() * combos.len());
    for &intensity in &INTENSITIES {
        for &(routing, partitioner) in &combos {
            let mut cfg = FleetConfig::new(servers, shard.clone());
            cfg.routing = routing;
            cfg.partitioner = partitioner;
            cfg.seed = scale.root_seed;
            cells.push(FleetCell {
                cfg,
                scenario: FleetScenario::new(kind, intensity),
            });
        }
    }
    let results: Vec<FleetResult> = parallel_indexed(cells.len(), |i| {
        let cell = &cells[i];
        let (fleet_faults, shard_faults) = cell.scenario.build(
            cell.cfg.servers,
            cell.cfg.shard.cores,
            cell.cfg.shard.horizon,
            cell.cfg.seed,
        );
        run_fleet(
            &cell.cfg,
            &trace,
            &fleet_faults,
            &shard_faults,
            &mut NullSink,
        )
    });

    let combo_names: Vec<String> = combos
        .iter()
        .map(|(p, q)| format!("{}/{}", p.name(), q.name()))
        .collect();
    let mut headers = vec!["intensity"];
    headers.extend(combo_names.iter().map(String::as_str));
    let name = kind.name();
    let n = servers;
    let mut quality = Table::with_headers(
        format!("Fleet degradation ({name}, N={n}): delivered quality vs fault intensity"),
        &headers,
    );
    let mut energy = Table::with_headers(
        format!("Fleet degradation ({name}, N={n}): energy (J) vs fault intensity"),
        &headers,
    );
    let mut shed = Table::with_headers(
        format!("Fleet degradation ({name}, N={n}): jobs shed (router + servers) vs intensity"),
        &headers,
    );
    for (ii, &intensity) in INTENSITIES.iter().enumerate() {
        let row = &results[ii * combos.len()..(ii + 1) * combos.len()];
        let mut qrow = vec![intensity];
        let mut erow = vec![intensity];
        let mut srow = vec![intensity];
        for r in row {
            qrow.push(r.quality);
            erow.push(r.energy_j);
            srow.push((r.jobs_shed_router + r.jobs_shed_shards) as f64);
        }
        quality.push_numeric_row(&qrow, 4);
        energy.push_numeric_row(&erow, 2);
        shed.push_numeric_row(&srow, 0);
    }
    (vec![quality, energy, shed], study_digest(&results))
}

/// FNV-1a over every result's exact bit patterns, in cell order.
fn study_digest(results: &[FleetResult]) -> u64 {
    let mut bytes = Vec::new();
    for r in results {
        bytes.extend_from_slice(r.algorithm.as_bytes());
        for v in [r.quality, r.energy_j] {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        for v in [
            r.jobs_total,
            r.jobs_finished,
            r.jobs_discarded,
            r.jobs_shed_shards,
            r.jobs_shed_router,
            r.dispatches,
            r.failovers,
            r.retries,
            r.budget_epochs,
        ] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
    }
    ge_recover::codec::fnv1a64(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            horizon_secs: 6.0,
            replications: 1,
            rates: vec![150.0],
            root_seed: 7,
        }
    }

    #[test]
    fn study_tables_have_expected_shape_and_digest_is_stable() {
        let (tables, digest) = run(FleetScenarioKind::ServerCrash, &tiny(), 3);
        assert_eq!(tables.len(), 3);
        for t in &tables {
            assert_eq!(t.row_count(), INTENSITIES.len());
        }
        let (_, digest2) = run(FleetScenarioKind::ServerCrash, &tiny(), 3);
        assert_eq!(digest, digest2, "fleet study must be bit-reproducible");
    }
}
