//! Golden bits for the engine: exact results of fixed-seed runs.
//!
//! Each case pins the `to_bits()` of the headline measurements of one
//! run: a fault-free GE run at the paper defaults, a BE run in overload,
//! GE under the `combined` fault scenario, a 3-server JSQ fleet under
//! `servercrash`, and a 4-server fleet matrix: every routing policy under
//! `servercrash`, under `fleetcombined` (dispatch loss, so retries, and an
//! armed overload guard) and in overload with the guard shedding, plus JSQ
//! under `serverslow`. The engine values were recorded before the
//! engine's per-event core sweep gained its fast path, and the fleet
//! matrix before the router stopped advancing every server at every
//! router event, so this file is a checker independent of both: any
//! change to the sweep or the router loop that moves a last bit, a
//! dispatch, a failover, a retry or a router shed fails here.
//!
//! To re-record after an intended behaviour change, run
//! `cargo test -p ge-integration-tests --test engine_golden -- --nocapture`
//! and copy the printed `actual` lines into the tables below.

use ge_core::{run, run_with_sink, Algorithm, RunResult, SimConfig};
use ge_faults::{FaultScenario, FleetScenario, FleetScenarioKind, ScenarioKind};
use ge_fleet::{run_fleet, FleetConfig, FleetResult, RoutingPolicy};
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

/// A 4-server fleet of 4-core, 80 W shards with a 20 s horizon.
/// `q_min > 0` arms the router's overload guard.
fn fleet_matrix_cfg(routing: RoutingPolicy, q_min: f64) -> FleetConfig {
    let shard = SimConfig {
        cores: 4,
        budget_w: 80.0,
        horizon: SimTime::from_secs(20.0),
        critical_load_rps: 154.0 / 4.0,
        q_min,
        ..SimConfig::paper_default()
    };
    let mut cfg = FleetConfig::new(4, shard);
    cfg.routing = routing;
    cfg.seed = 105;
    cfg
}

/// Runs `cfg` under `kind` at intensity 1.0, offered `rate` req/s (the
/// fleet's critical load is 154 req/s).
fn fleet_matrix_run(cfg: &FleetConfig, kind: FleetScenarioKind, rate: f64) -> FleetResult {
    let (fleet_faults, shard_faults) =
        FleetScenario::new(kind, 1.0).build(cfg.servers, cfg.shard.cores, cfg.shard.horizon, 105);
    let trace = workload(rate, 20.0, 105);
    run_fleet(cfg, &trace, &fleet_faults, &shard_faults, &mut NullSink)
}

/// `[quality, energy_j]` as raw bits, then
/// `[dispatches, failovers, retries, jobs_shed_router]`.
type FleetGolden = ([u64; 2], [u64; 4]);

fn check_fleet(name: &str, r: &FleetResult, want: FleetGolden) {
    let got = (
        [r.quality.to_bits(), r.energy_j.to_bits()],
        [r.dispatches, r.failovers, r.retries, r.jobs_shed_router],
    );
    println!(
        "{name} actual: ([{:#018x}, {:#018x}], {:?})",
        got.0[0], got.0[1], got.1
    );
    assert_eq!(
        got, want,
        "{name}: fleet result moved (quality {}, energy {} J)",
        r.quality, r.energy_j
    );
}

#[test]
fn fleet_matrix_under_servercrash() {
    let cases: [(&str, RoutingPolicy, FleetGolden); 4] = [
        (
            "crash_rr",
            RoutingPolicy::RoundRobin,
            ([0x3fea99bf3007aad9, 0x40b66710dca70b9f], [3465, 7, 0, 0]),
        ),
        (
            "crash_jsq",
            RoutingPolicy::JoinShortestQueue,
            ([0x3fea17fb18826a64, 0x40b5ca4ca102764d], [3464, 6, 0, 0]),
        ),
        (
            "crash_po2",
            RoutingPolicy::PowerOfD(2),
            ([0x3fea3ab3da1a9c62, 0x40b60a92c4ca0a66], [3465, 7, 0, 0]),
        ),
        (
            "crash_energy",
            RoutingPolicy::EnergyAware,
            ([0x3fea5e60726b8532, 0x40b63614df59ef18], [3465, 7, 0, 0]),
        ),
    ];
    for (name, routing, want) in cases {
        let cfg = fleet_matrix_cfg(routing, 0.0);
        let r = fleet_matrix_run(&cfg, FleetScenarioKind::ServerCrash, 170.0);
        check_fleet(name, &r, want);
    }
}

#[test]
fn fleet_matrix_under_fleetcombined_with_overload_guard() {
    let cases: [(&str, RoutingPolicy, FleetGolden); 4] = [
        (
            "combined_rr",
            RoutingPolicy::RoundRobin,
            ([0x3fea8f9bc36bc44b, 0x40b47dbdf1f2e4ee], [3457, 2, 170, 3]),
        ),
        (
            "combined_jsq",
            RoutingPolicy::JoinShortestQueue,
            ([0x3fe9d5d0be41b2fd, 0x40b3bb3ba5bcc08b], [3457, 2, 170, 3]),
        ),
        (
            "combined_po2",
            RoutingPolicy::PowerOfD(2),
            ([0x3fe9d3f17ab74afc, 0x40b3cef67fba65e0], [3458, 3, 170, 3]),
        ),
        (
            "combined_energy",
            RoutingPolicy::EnergyAware,
            ([0x3fea753daf07027d, 0x40b49ef96f2d5e85], [3457, 2, 170, 3]),
        ),
    ];
    for (name, routing, want) in cases {
        let cfg = fleet_matrix_cfg(routing, 0.8);
        let r = fleet_matrix_run(&cfg, FleetScenarioKind::FleetCombined, 170.0);
        check_fleet(name, &r, want);
    }
}

#[test]
fn fleet_jsq_under_serverslow() {
    let cfg = fleet_matrix_cfg(RoutingPolicy::JoinShortestQueue, 0.8);
    let r = fleet_matrix_run(&cfg, FleetScenarioKind::ServerSlow, 170.0);
    check_fleet(
        "slow_jsq",
        &r,
        ([0x3fe9caba99c47cc1, 0x40b0bdeab4f91907], [3458, 0, 0, 0]),
    );
}

#[test]
fn fleet_matrix_in_overload_sheds_at_the_router() {
    // Twice the critical load with servers down and a tight backlog
    // ceiling: the overload guard falls back to the least-loaded server
    // and sheds when even that one is over the ceiling, under every
    // routing policy.
    let cases: [(&str, RoutingPolicy, FleetGolden); 4] = [
        (
            "overload_rr",
            RoutingPolicy::RoundRobin,
            (
                [0x3fdbaf27ce97812a, 0x40b549056f387f8e],
                [3489, 10, 0, 2866],
            ),
        ),
        (
            "overload_jsq",
            RoutingPolicy::JoinShortestQueue,
            ([0x3fdb4776763bd326, 0x40b4fb3d3b26f700], [3469, 9, 0, 2885]),
        ),
        (
            "overload_po2",
            RoutingPolicy::PowerOfD(2),
            ([0x3fdbd89f3a33ae5e, 0x40b552dc41cb71ed], [3546, 9, 0, 2808]),
        ),
        (
            "overload_energy",
            RoutingPolicy::EnergyAware,
            (
                [0x3fdb9a12ded34ede, 0x40b52118edd88528],
                [3514, 10, 0, 2841],
            ),
        ),
    ];
    for (name, routing, want) in cases {
        let mut cfg = fleet_matrix_cfg(routing, 0.8);
        cfg.shed_backlog_factor = 0.15;
        let r = fleet_matrix_run(&cfg, FleetScenarioKind::ServerCrash, 320.0);
        check_fleet(name, &r, want);
    }
}
