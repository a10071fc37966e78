//! Golden bits for the engine: exact results of fixed-seed runs.
//!
//! Each case pins the `to_bits()` of the headline measurements of one
//! run: a fault-free GE run at the paper defaults, a BE run in overload,
//! GE under the `combined` fault scenario, and a 3-server JSQ fleet under
//! `servercrash`. The values were recorded before the engine's per-event
//! core sweep gained its fast path, so this file is a checker independent
//! of that code: any change to the sweep that moves a last bit fails here.
//!
//! To re-record after an intended behaviour change, run
//! `cargo test -p ge-integration-tests --test engine_golden -- --nocapture`
//! and copy the printed `actual` lines into the tables below.

use ge_core::{run, run_with_sink, Algorithm, RunResult, SimConfig};
use ge_faults::{FaultScenario, FleetScenario, FleetScenarioKind, ScenarioKind};
use ge_fleet::{run_fleet, FleetConfig};
use ge_simcore::SimTime;
use ge_trace::NullSink;
use ge_workload::{Trace, WorkloadConfig, WorkloadGenerator};

fn paper_cfg(horizon_s: f64) -> SimConfig {
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

/// `[quality, energy_j, speed_variance, mean_latency_ms]` as raw bits,
/// then `[schedule_epochs, jobs_finished, jobs_discarded, jobs_shed]`.
type Golden = ([u64; 4], [u64; 4]);

fn bits(r: &RunResult) -> Golden {
    (
        [
            r.quality.to_bits(),
            r.energy_j.to_bits(),
            r.speed_variance.to_bits(),
            r.mean_latency_ms.to_bits(),
        ],
        [
            r.schedule_epochs,
            r.jobs_finished,
            r.jobs_discarded,
            r.jobs_shed,
        ],
    )
}

fn check(name: &str, r: &RunResult, want: Golden) {
    let got = bits(r);
    println!(
        "{name} actual: ([{:#018x}, {:#018x}, {:#018x}, {:#018x}], {:?})",
        got.0[0], got.0[1], got.0[2], got.0[3], got.1
    );
    assert_eq!(
        got, want,
        "{name}: result bits moved (quality {}, energy {} J)",
        r.quality, r.energy_j
    );
}

#[test]
fn ge_paper_default_60s_150rps() {
    let cfg = paper_cfg(60.0);
    let r = run(&cfg, &workload(150.0, 60.0, 101), &Algorithm::Ge);
    check(
        "ge_150",
        &r,
        (
            [
                0x3feccd56489f36b1,
                0x40c82011b5312733,
                0x3fc78a252ada65f8,
                0x4062300ddaabba56,
            ],
            [2197, 9012, 0, 0],
        ),
    );
}

#[test]
fn be_paper_default_60s_230rps() {
    let cfg = paper_cfg(60.0);
    let r = run(&cfg, &workload(230.0, 60.0, 102), &Algorithm::Be);
    check(
        "be_230",
        &r,
        (
            [
                0x3fe93609ed97edb9,
                0x40d276dbb0eb5dd3,
                0x3f95efbe76ef9cbc,
                0x40627a32083a8ac4,
            ],
            [1828, 13887, 0, 0],
        ),
    );
}

#[test]
fn ge_under_combined_faults() {
    let cfg = paper_cfg(60.0);
    let faults = FaultScenario::new(ScenarioKind::Combined, 1.0).build(cfg.cores, cfg.horizon, 103);
    let r = run_with_sink(
        &cfg,
        &workload(150.0, 60.0, 103),
        &Algorithm::Ge,
        Some(&faults),
        &mut NullSink,
    );
    check(
        "ge_combined",
        &r,
        (
            [
                0x3fe923ec6cad2c70,
                0x40c9d40fed4a0b2f,
                0x3fdbc751c2c5fee9,
                0x40621f4434e223dd,
            ],
            [1712, 9871, 0, 0],
        ),
    );
}

#[test]
fn jsq_fleet_under_servercrash() {
    let shard = SimConfig {
        cores: 4,
        budget_w: 80.0,
        horizon: SimTime::from_secs(30.0),
        critical_load_rps: 154.0 / 4.0,
        ..SimConfig::paper_default()
    };
    let mut cfg = FleetConfig::new(3, shard);
    cfg.seed = 104;
    let (fleet_faults, shard_faults) = FleetScenario::new(FleetScenarioKind::ServerCrash, 1.0)
        .build(cfg.servers, cfg.shard.cores, cfg.shard.horizon, cfg.seed);
    let trace = workload(135.0, 30.0, 104);
    let r = run_fleet(&cfg, &trace, &fleet_faults, &shard_faults, &mut NullSink);
    println!(
        "fleet actual: [{:#018x}, {:#018x}]",
        r.quality.to_bits(),
        r.energy_j.to_bits()
    );
    assert_eq!(
        [r.quality.to_bits(), r.energy_j.to_bits()],
        [0x3fe7fc07460eadd6, 0x40b9bf474b320ad8],
        "fleet: result bits moved (quality {}, energy {} J)",
        r.quality,
        r.energy_j
    );
}
