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
//! dispatch, a failover, a retry or a router shed fails here. Every
//! fleet case also pins each shard's mean/p95/p99 latency bits, recorded
//! while the engine still looked a finished job's release up by id.
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
    check_shard_latency(
        "fleet",
        &r,
        &[
            [0x406212cbc26bbf73, 0x4062e00000000000, 0x4062e00000000000],
            [0x40622e9b6d2232a0, 0x4062e00000000000, 0x4062e00000000000],
            [0x4061f16ab068a33a, 0x4062e00000000000, 0x4062e00000000000],
        ],
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
/// `[dispatches, failovers, retries, jobs_shed_router]`, then every
/// shard's latency as in [`check_shard_latency`].
type FleetGolden = ([u64; 2], [u64; 4], [[u64; 3]; 4]);

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
        got,
        (want.0, want.1),
        "{name}: fleet result moved (quality {}, energy {} J)",
        r.quality,
        r.energy_j
    );
    check_shard_latency(name, r, &want.2);
}

/// Pins every shard's `[mean, p95, p99]` latency bits. Retries and
/// failovers hand a shard a job again under its old id, so these catch a
/// change in which release a finished job's latency is measured from.
fn check_shard_latency(name: &str, r: &FleetResult, want: &[[u64; 3]]) {
    let got: Vec<[u64; 3]> = r
        .shards
        .iter()
        .map(|s| {
            [
                s.mean_latency_ms.to_bits(),
                s.p95_latency_ms.to_bits(),
                s.p99_latency_ms.to_bits(),
            ]
        })
        .collect();
    for g in &got {
        println!(
            "{name} shard latency actual: [{:#018x}, {:#018x}, {:#018x}],",
            g[0], g[1], g[2]
        );
    }
    assert_eq!(got, want, "{name}: shard latency bits moved");
}

#[test]
fn fleet_matrix_under_servercrash() {
    let cases: [(&str, RoutingPolicy, FleetGolden); 4] = [
        (
            "crash_rr",
            RoutingPolicy::RoundRobin,
            (
                [0x3fea99bf3007aad9, 0x40b66710dca70b9f],
                [3465, 7, 0, 0],
                [
                    [0x40625e2a124a4526, 0x4062e00000000000, 0x4062e00000000000],
                    [0x406249e516b25d72, 0x4062e00000000000, 0x4062e00000000000],
                    [0x406266bacfce938a, 0x4062e00000000000, 0x4062e00000000000],
                    [0x40624d6b1d33069b, 0x4062e00000000000, 0x4062e00000000000],
                ],
            ),
        ),
        (
            "crash_jsq",
            RoutingPolicy::JoinShortestQueue,
            (
                [0x3fea17fb18826a64, 0x40b5ca4ca102764d],
                [3464, 6, 0, 0],
                [
                    [0x4062436c4e63a2f4, 0x4062e00000000000, 0x4062e00000000000],
                    [0x4061f2915288505a, 0x4062e00000000000, 0x4062e00000000000],
                    [0x4062504ec2e54809, 0x4062e00000000000, 0x4062e00000000000],
                    [0x4061fbdce895ee66, 0x4062e00000000000, 0x4062e00000000000],
                ],
            ),
        ),
        (
            "crash_po2",
            RoutingPolicy::PowerOfD(2),
            (
                [0x3fea3ab3da1a9c62, 0x40b60a92c4ca0a66],
                [3465, 7, 0, 0],
                [
                    [0x40622b339079da90, 0x4062e00000000000, 0x4062e00000000000],
                    [0x40620591bc394295, 0x4062e00000000000, 0x4062e00000000000],
                    [0x406240b9b575915e, 0x4062e00000000000, 0x4062e00000000000],
                    [0x406213d26815477a, 0x4062e00000000000, 0x4062e00000000000],
                ],
            ),
        ),
        (
            "crash_energy",
            RoutingPolicy::EnergyAware,
            (
                [0x3fea5e60726b8532, 0x40b63614df59ef18],
                [3465, 7, 0, 0],
                [
                    [0x4062397c0bf0a3d6, 0x4062e00000000000, 0x4062e00000000000],
                    [0x40621cf7d42b68b2, 0x4062e00000000000, 0x4062e00000000000],
                    [0x4062486fa236d649, 0x4062e00000000000, 0x4062e00000000000],
                    [0x406211830f64caab, 0x4062e00000000000, 0x4062e00000000000],
                ],
            ),
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
            (
                [0x3fea8f9bc36bc44b, 0x40b47dbdf1f2e4ee],
                [3457, 2, 170, 3],
                [
                    [0x40621ad75ac82d9d, 0x4062e00000000000, 0x4062e00000000000],
                    [0x40625ad95605c3df, 0x4062e00000000000, 0x4062e00000000000],
                    [0x40625b5f951c666a, 0x4062e00000000000, 0x4062e00000000000],
                    [0x4062653b3e462e58, 0x4062e00000000000, 0x4062e00000000000],
                ],
            ),
        ),
        (
            "combined_jsq",
            RoutingPolicy::JoinShortestQueue,
            (
                [0x3fe9d5d0be41b2fd, 0x40b3bb3ba5bcc08b],
                [3457, 2, 170, 3],
                [
                    [0x4061d7e6e2ec518e, 0x4062e00000000000, 0x4062e00000000000],
                    [0x40622e156119cb8d, 0x4062e00000000000, 0x4062e00000000000],
                    [0x406230c3d84158ff, 0x4062e00000000000, 0x4062e00000000000],
                    [0x40624f304730f425, 0x4062e00000000000, 0x4062e00000000000],
                ],
            ),
        ),
        (
            "combined_po2",
            RoutingPolicy::PowerOfD(2),
            (
                [0x3fe9d3f17ab74afc, 0x40b3cef67fba65e0],
                [3458, 3, 170, 3],
                [
                    [0x4061b7481c020a7a, 0x4062e00000000000, 0x4062e00000000000],
                    [0x406215fa3e03a449, 0x4062e00000000000, 0x4062e00000000000],
                    [0x406221df9dbbb8b0, 0x4062e00000000000, 0x4062e00000000000],
                    [0x4062469354f8e2ad, 0x4062e00000000000, 0x4062e00000000000],
                ],
            ),
        ),
        (
            "combined_energy",
            RoutingPolicy::EnergyAware,
            (
                [0x3fea753daf07027d, 0x40b49ef96f2d5e85],
                [3457, 2, 170, 3],
                [
                    [0x4061a2427a14da29, 0x4062e00000000000, 0x4062e00000000000],
                    [0x406230efe8125da9, 0x4062e00000000000, 0x4062e00000000000],
                    [0x40623fa128c04a7d, 0x4062e00000000000, 0x4062e00000000000],
                    [0x4062439cb30c8bc7, 0x4062e00000000000, 0x4062e00000000000],
                ],
            ),
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
        (
            [0x3fe9caba99c47cc1, 0x40b0bdeab4f91907],
            [3458, 0, 0, 0],
            [
                [0x40628b3e10547128, 0x4062e00000000000, 0x4062e00000000000],
                [0x40625df044d90f1f, 0x4062e00000000000, 0x4062e00000000000],
                [0x4062868f92b0a2c6, 0x4062e00000000000, 0x4062e00000000000],
                [0x40625d7adfb01757, 0x4062e00000000000, 0x4062e00000000000],
            ],
        ),
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
                [
                    [0x406200e40e49c668, 0x4062e00000000000, 0x4062e00000000000],
                    [0x40621c36e830e367, 0x4062e00000000000, 0x4062e00000000000],
                    [0x406203c771623241, 0x4062e00000000000, 0x4062e00000000000],
                    [0x40620a37eca20319, 0x4062e00000000000, 0x4062e00000000000],
                ],
            ),
        ),
        (
            "overload_jsq",
            RoutingPolicy::JoinShortestQueue,
            (
                [0x3fdb4776763bd326, 0x40b4fb3d3b26f700],
                [3469, 9, 0, 2885],
                [
                    [0x4061cb2c15c4459a, 0x4062e00000000000, 0x4062e00000000000],
                    [0x40620b2d8c274abf, 0x4062e00000000000, 0x4062e00000000000],
                    [0x40620a251fbf53bd, 0x4062e00000000000, 0x4062e00000000000],
                    [0x4062118aace7ba0d, 0x4062e00000000000, 0x4062e00000000000],
                ],
            ),
        ),
        (
            "overload_po2",
            RoutingPolicy::PowerOfD(2),
            (
                [0x3fdbd89f3a33ae5e, 0x40b552dc41cb71ed],
                [3546, 9, 0, 2808],
                [
                    [0x4061fd356414ca47, 0x4062e00000000000, 0x4062e00000000000],
                    [0x40621060f3ff691a, 0x4062e00000000000, 0x4062e00000000000],
                    [0x4062132dbe133907, 0x4062e00000000000, 0x4062e00000000000],
                    [0x40621dc32739806b, 0x4062e00000000000, 0x4062e00000000000],
                ],
            ),
        ),
        (
            "overload_energy",
            RoutingPolicy::EnergyAware,
            (
                [0x3fdb9a12ded34ede, 0x40b52118edd88528],
                [3514, 10, 0, 2841],
                [
                    [0x4061f523c81266aa, 0x4062e00000000000, 0x4062e00000000000],
                    [0x4062171bb22c17ce, 0x4062e00000000000, 0x4062e00000000000],
                    [0x4062283bd56f30af, 0x4062e00000000000, 0x4062e00000000000],
                    [0x406218bbec9b6755, 0x4062e00000000000, 0x4062e00000000000],
                ],
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
