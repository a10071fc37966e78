//! Integration tests for the fleet layer: router + per-server engines +
//! global budget repartitioning + fleet fault injection.
//!
//! Three claims are checked end to end, across crate boundaries:
//!
//! 1. **Bit-reproducibility** — one seed fixes the whole fleet: two runs
//!    of the same configuration produce identical traces event for event,
//!    the trace survives a JSONL round-trip, and the study digest the
//!    `--fleet` CLI prints is stable across invocations.
//! 2. **Failover drill** — under a permanent server crash no job is
//!    silently lost: every offered job appears in the trace as dispatched
//!    (and finished on some server) or explicitly shed, the counts
//!    reconcile with `FleetResult`, and the fleet replay checker agrees.
//! 3. **Repartitioning dominates** — in the study artifacts themselves
//!    (the quality table the CLI writes), at equal global budget every
//!    routing policy with a live partitioner strictly beats the
//!    equal-split baseline once a crash actually removes a server.
//!
//! A metamorphic check ties the fleet back to the single-server engine: a
//! 1-server round-robin fleet with no faults is `ge_core::run` on the same
//! trace, bit for bit.

use std::collections::BTreeSet;

use ge_core::SimConfig;
use ge_experiments::fleet as fleet_study;
use ge_experiments::Scale;
use ge_faults::{FleetFaultSchedule, FleetScenario, FleetScenarioKind, ServerOutage};
use ge_fleet::{run_fleet, Fleet, FleetConfig, FleetResult, Partitioner, RoutingPolicy};
use ge_simcore::{RngStream, SimDuration, SimTime};
use ge_trace::{parse_jsonl, replay_fleet, write_jsonl, NullSink, TraceEvent, VecSink};
use ge_workload::{Job, JobId, Trace, WorkloadConfig, WorkloadGenerator};

fn shard_cfg(horizon_s: f64) -> SimConfig {
    SimConfig {
        cores: 4,
        budget_w: 80.0,
        horizon: SimTime::from_secs(horizon_s),
        critical_load_rps: 154.0 / 4.0,
        ..SimConfig::paper_default()
    }
}

fn workload(n: usize, span_s: f64, seed: u64) -> Trace {
    let mut rng = RngStream::from_root(seed, "fleet-integration/workload");
    let mut jobs = Vec::with_capacity(n);
    for i in 0..n {
        let r = span_s * i as f64 / n as f64 + 0.01 * rng.uniform01();
        let demand = 300.0 + 600.0 * rng.uniform01();
        let release = SimTime::from_secs(r);
        jobs.push(
            Job::new(
                JobId(i as u64),
                release,
                release + SimDuration::from_millis(500.0),
                demand,
            )
            .with_estimate(demand),
        );
    }
    Trace::new(jobs)
}

fn fleet_cfg(servers: usize, horizon_s: f64) -> FleetConfig {
    let mut cfg = FleetConfig::new(servers, shard_cfg(horizon_s));
    cfg.seed = 42;
    cfg
}

#[test]
fn fleet_trace_is_bit_reproducible_and_round_trips_jsonl() {
    let cfg = fleet_cfg(3, 10.0);
    let trace = workload(120, 8.0, 61);
    let (fleet_faults, shard_faults) = FleetScenario::new(FleetScenarioKind::FleetCombined, 0.75)
        .build(cfg.servers, cfg.shard.cores, cfg.shard.horizon, cfg.seed);

    let run = || {
        let mut sink = VecSink::new();
        let r = run_fleet(&cfg, &trace, &fleet_faults, &shard_faults, &mut sink);
        (r, sink.into_events())
    };
    let (ra, ev_a) = run();
    let (rb, ev_b) = run();
    assert_eq!(ev_a, ev_b, "fleet trace must be bit-identical run to run");
    assert_eq!(ra.quality.to_bits(), rb.quality.to_bits());
    assert_eq!(ra.energy_j.to_bits(), rb.energy_j.to_bits());

    // The wire format carries every fleet event losslessly, and the
    // parsed trace still passes the fleet invariant checker.
    let mut buf = Vec::new();
    write_jsonl(&ev_a, &mut buf).unwrap();
    let parsed = parse_jsonl(std::str::from_utf8(&buf).unwrap()).unwrap();
    assert_eq!(ev_a, parsed);
    let report = replay_fleet(&parsed).expect("structurally valid fleet trace");
    assert!(report.is_ok(), "replay issues: {:?}", report.issues);
}

#[test]
fn failover_drill_loses_no_job() {
    // Server 0 dies at t=3s and never comes back; its queued-unstarted
    // jobs must fail over, and every offered job must be accounted for.
    // A burst of arrivals just before the crash guarantees the dying
    // server actually holds queued work at the crash instant.
    let mut cfg = fleet_cfg(3, 12.0);
    cfg.shard.q_min = 0.80;
    let mut jobs = workload(200, 9.0, 67).jobs().to_vec();
    let base = jobs.len() as u64;
    for k in 0..30 {
        let release = SimTime::from_secs(2.90 + 0.003 * k as f64);
        jobs.push(
            Job::new(
                JobId(base + k),
                release,
                release + SimDuration::from_millis(500.0),
                600.0,
            )
            .with_estimate(600.0),
        );
    }
    jobs.sort_by(|a, b| a.release.total_cmp(&b.release).then(a.id.0.cmp(&b.id.0)));
    let trace = Trace::new(jobs);
    let faults = FleetFaultSchedule::new(cfg.seed).with_server_outage(ServerOutage {
        server: 0,
        start: SimTime::from_secs(3.0),
        end: None,
    });
    let mut sink = VecSink::new();
    let r = run_fleet(&cfg, &trace, &faults, &[], &mut sink);
    let events = sink.into_events();
    assert!(r.failovers > 0, "the crash must actually reclaim jobs");

    // Independent of the driver's own counters: every job id offered to
    // the fleet shows up in the trace as dispatched or explicitly shed.
    let mut seen: BTreeSet<u64> = BTreeSet::new();
    let (mut dispatches, mut failovers, mut sheds) = (0u64, 0u64, 0u64);
    for ev in &events {
        match ev {
            TraceEvent::FleetDispatch { job, .. } => {
                dispatches += 1;
                seen.insert(*job);
            }
            TraceEvent::FleetShed { job, .. } => {
                sheds += 1;
                seen.insert(*job);
            }
            TraceEvent::FleetFailover { .. } => failovers += 1,
            _ => {}
        }
    }
    for job in trace.jobs() {
        assert!(
            seen.contains(&job.id.0),
            "job {} vanished: never dispatched, never shed",
            job.id.0
        );
    }
    assert_eq!(dispatches, r.dispatches);
    assert_eq!(failovers, r.failovers);
    assert_eq!(sheds, r.jobs_shed_router);
    // Conservation at the result level: finished + router-shed = offered.
    assert_eq!(r.jobs_finished + r.jobs_shed_router, r.jobs_total);
    // And the trace-level checker reaches the same verdict.
    let report = replay_fleet(&events).expect("structurally valid fleet trace");
    assert!(report.is_ok(), "replay issues: {:?}", report.issues);
}

#[test]
fn study_artifacts_show_repartitioning_dominating_equal_split() {
    // The acceptance criterion, read straight out of the artifact the
    // `--fleet` CLI writes: in the delivered-quality table, once the
    // crash removes a server (intensity > 0), every routing policy's
    // prop and sumpow columns strictly beat its equal column.
    let scale = Scale {
        horizon_secs: 8.0,
        replications: 1,
        rates: vec![150.0],
        root_seed: 7,
    };
    let (tables, digest) = fleet_study::run(FleetScenarioKind::ServerCrash, &scale, 3);
    let (_, digest2) = fleet_study::run(FleetScenarioKind::ServerCrash, &scale, 3);
    assert_eq!(digest, digest2, "study digest must be bit-stable");

    let csv = tables[0].to_csv();
    let mut lines = csv.lines();
    let header: Vec<&str> = lines.next().expect("header row").split(',').collect();
    let col = |name: &str| {
        header
            .iter()
            .position(|h| *h == name)
            .unwrap_or_else(|| panic!("missing column {name:?} in {header:?}"))
    };
    let mut crash_rows = 0;
    for line in lines {
        let cells: Vec<f64> = line.split(',').map(|c| c.parse().unwrap()).collect();
        let intensity = cells[0];
        if intensity == 0.0 {
            continue;
        }
        crash_rows += 1;
        for policy in RoutingPolicy::ALL {
            let p = policy.name();
            let equal = cells[col(&format!("{p}/{}", Partitioner::EqualSplit.name()))];
            let prop = cells[col(&format!("{p}/{}", Partitioner::ProportionalLoad.name()))];
            let sumpow = cells[col(&format!("{p}/{}", Partitioner::SumPowerAware.name()))];
            assert!(
                prop > equal,
                "{p} at intensity {intensity}: prop {prop} !> equal {equal}"
            );
            assert!(
                sumpow > equal,
                "{p} at intensity {intensity}: sumpow {sumpow} !> equal {equal}"
            );
        }
    }
    assert!(crash_rows >= 3, "grid must include crashing intensities");
}

// ---------------------------------------------------------------------
// Crash/recover idempotence at the shard boundary: an impatient
// supervisor may repeat a transition (double crash, double recover), and
// the repeats must be no-ops — no job fails over twice, and the budget
// slice is restored exactly once.
// ---------------------------------------------------------------------

#[test]
fn double_crash_fails_over_each_queued_job_exactly_once() {
    use ge_core::{Algorithm, Run};

    let cfg = shard_cfg(10.0);
    let mut shard = Run::start(&cfg, &Trace::default(), &Algorithm::Ge, None, &mut NullSink);
    // Early arrivals start on the 4 cores; a burst then overfills the
    // queue, so the crash instant holds both started jobs (orphans,
    // partial credit) and queued-unstarted jobs (failover).
    for i in 0..4u64 {
        let r = SimTime::from_secs(0.1 * i as f64);
        let j = Job::new(JobId(i), r, SimTime::from_secs(6.0), 600.0).with_estimate(600.0);
        shard.inject_job(j, r);
    }
    shard.advance_to(SimTime::from_secs(1.0), &mut NullSink);
    for i in 4..20u64 {
        let r = SimTime::from_secs(1.0);
        let j = Job::new(JobId(i), r, SimTime::from_secs(6.0), 600.0).with_estimate(600.0);
        shard.inject_job(j, r);
    }
    shard.advance_to(SimTime::from_secs(1.05), &mut NullSink);

    let first = shard.crash();
    assert!(
        !first.is_empty(),
        "the burst must leave queued-unstarted work to fail over"
    );
    let ids: BTreeSet<usize> = first.iter().map(|j| j.id.index()).collect();
    assert_eq!(
        ids.len(),
        first.len(),
        "one crash handed the same job back twice"
    );
    assert_eq!(shard.online_cores(), 0);

    // Crashing an already-dead shard hands back nothing: were it to
    // repeat the failover list, the router would re-dispatch (and
    // double-count) every queued job.
    let second = shard.crash();
    assert!(
        second.is_empty(),
        "double crash re-failed-over {} job(s)",
        second.len()
    );
    assert_eq!(shard.online_cores(), 0);
}

#[test]
fn crash_at_epoch_boundary_recovers_idempotently_with_one_budget_restore() {
    use ge_core::{Algorithm, Run};

    // Two runs of the same scripted outage — crash exactly on a quantum
    // boundary (quantum = 500 ms, so t = 2.0 s is a trigger instant),
    // survivors' repartition boosting the slice, recovery handing the
    // nominal slice back — differing only in every transition being
    // called twice. The duplicates must change nothing, bit for bit.
    let run = |double: bool| {
        let cfg = shard_cfg(10.0);
        let mut shard = Run::start(&cfg, &Trace::default(), &Algorithm::Ge, None, &mut NullSink);
        for i in 0..24u64 {
            let r = SimTime::from_secs(0.05 * i as f64);
            let j = Job::new(JobId(i), r, SimTime::from_secs(7.0), 500.0).with_estimate(500.0);
            shard.inject_job(j, r);
        }
        shard.advance_to(SimTime::from_secs(2.0), &mut NullSink);
        // The fleet partitioner reacts to a sibling's death by boosting
        // this shard's slice — then this shard dies too.
        shard.set_budget_factor(1.5);
        let failed_over = shard.crash();
        if double {
            let again = shard.crash();
            assert!(again.is_empty(), "second crash must fail over nothing");
        }
        shard.advance_to(SimTime::from_secs(4.0), &mut NullSink);
        // Recovery restores the nominal slice. The duplicate transition
        // must be absorbed — the slice comes back exactly once, not
        // compounded or re-zeroed.
        shard.recover();
        shard.set_budget_factor(1.0);
        if double {
            shard.recover();
            shard.set_budget_factor(1.0);
        }
        let snapshot = shard.snapshot();
        // The failed-over jobs come back to the recovered shard with a
        // fresh window, as the router re-dispatches them.
        let redispatch_at = SimTime::from_secs(4.0);
        for j in &failed_over {
            let again = Job::new(j.id, redispatch_at, SimTime::from_secs(8.0), j.demand)
                .with_estimate(j.estimate);
            shard.inject_job(again, redispatch_at);
        }
        shard.advance_to(SimTime::from_secs(10.0), &mut NullSink);
        let ids: Vec<usize> = failed_over.iter().map(|j| j.id.index()).collect();
        (ids, snapshot, shard.finish(&mut NullSink))
    };

    let (ids_once, snap_once, out_once) = run(false);
    let (ids_twice, snap_twice, out_twice) = run(true);
    assert!(
        !ids_once.is_empty(),
        "the epoch-boundary crash must actually fail over work"
    );
    assert_eq!(ids_once, ids_twice, "failover sets diverged");
    assert_eq!(
        snap_once, snap_twice,
        "post-recovery checkpoints diverged — a repeated transition mutated state"
    );
    assert_eq!(
        out_once.result.quality.to_bits(),
        out_twice.result.quality.to_bits()
    );
    assert_eq!(
        out_once.result.energy_j.to_bits(),
        out_twice.result.energy_j.to_bits()
    );
    assert_eq!(
        out_once.result.jobs_finished,
        out_twice.result.jobs_finished
    );
    assert_eq!(
        out_once.result.jobs_discarded,
        out_twice.result.jobs_discarded
    );
    assert_eq!(
        out_once.achieved_sum.to_bits(),
        out_twice.achieved_sum.to_bits()
    );
    assert_eq!(out_once.full_sum.to_bits(), out_twice.full_sum.to_bits());
}

#[test]
fn one_server_round_robin_fleet_equals_the_single_server_run() {
    // With one server, no faults and round-robin routing, the router is
    // a pass-through: every job is injected at its release, and the only
    // budget epoch hands the lone server its nominal slice. The fleet must
    // then be the plain engine run over the same trace, to the last bit.
    for seed in 1..=3u64 {
        let cfg = SimConfig {
            horizon: SimTime::from_secs(30.0),
            ..SimConfig::paper_default()
        };
        let trace = WorkloadGenerator::new(
            WorkloadConfig {
                horizon: cfg.horizon,
                ..WorkloadConfig::paper_default(150.0)
            },
            seed,
        )
        .generate();
        let single = ge_core::run(&cfg, &trace, &ge_core::Algorithm::Ge);

        let mut fleet_cfg = FleetConfig::new(1, cfg);
        fleet_cfg.routing = RoutingPolicy::RoundRobin;
        fleet_cfg.seed = seed;
        let fleet = run_fleet(
            &fleet_cfg,
            &trace,
            &FleetFaultSchedule::new(seed),
            &[],
            &mut NullSink,
        );
        assert_eq!(fleet.dispatches, trace.len() as u64, "seed {seed}");
        let shard = &fleet.shards[0];
        assert_eq!(
            shard.energy_j.to_bits(),
            single.energy_j.to_bits(),
            "seed {seed}: shard energy {} J vs single {} J",
            shard.energy_j,
            single.energy_j
        );
        assert_eq!(
            fleet.energy_j.to_bits(),
            single.energy_j.to_bits(),
            "seed {seed}"
        );
        assert_eq!(
            shard.quality.to_bits(),
            single.quality.to_bits(),
            "seed {seed}: shard quality {} vs single {}",
            shard.quality,
            single.quality
        );
        assert_eq!(
            fleet.quality.to_bits(),
            single.quality.to_bits(),
            "seed {seed}: fleet quality {} vs single {}",
            fleet.quality,
            single.quality
        );
    }
}

// ---------------------------------------------------------------------
// The online handle: `run_fleet` is `Fleet::start`, one `submit` per job
// and `finish`, so extra `advance_to` calls between releases — what a
// live front end does between arrivals — must not move a bit.
// ---------------------------------------------------------------------

/// Every measurement of a fleet run the online path could move, as bits:
/// the aggregates, the router's counts and each server's latency.
fn fleet_bits(r: &FleetResult) -> Vec<u64> {
    let mut bits = vec![
        r.quality.to_bits(),
        r.energy_j.to_bits(),
        r.jobs_total,
        r.jobs_finished,
        r.jobs_discarded,
        r.jobs_shed_shards,
        r.jobs_shed_router,
        r.dispatches,
        r.failovers,
        r.retries,
        r.budget_epochs,
    ];
    for s in &r.shards {
        bits.extend([
            s.quality.to_bits(),
            s.energy_j.to_bits(),
            s.mean_latency_ms.to_bits(),
            s.p95_latency_ms.to_bits(),
            s.p99_latency_ms.to_bits(),
        ]);
    }
    bits
}

#[test]
fn an_online_fleet_advanced_between_releases_equals_the_batch_run() {
    // The golden fleet matrix's shape (4 servers of 4 cores and 80 W,
    // 20 s, seed 105, 170 req/s) under `fleetcombined` — crashes, slow
    // servers and dispatch loss, so failovers and retries — with the
    // overload guard off (q_min 0) and armed (q_min 0.8).
    let horizon = SimTime::from_secs(20.0);
    let trace = WorkloadGenerator::new(
        WorkloadConfig {
            horizon,
            ..WorkloadConfig::paper_default(170.0)
        },
        105,
    )
    .generate();
    for q_min in [0.0, 0.8] {
        for routing in RoutingPolicy::ALL {
            let mut cfg = FleetConfig::new(
                4,
                SimConfig {
                    horizon,
                    q_min,
                    ..shard_cfg(20.0)
                },
            );
            cfg.routing = routing;
            cfg.seed = 105;
            let (fleet_faults, shard_faults) = FleetScenario::new(
                FleetScenarioKind::FleetCombined,
                1.0,
            )
            .build(cfg.servers, cfg.shard.cores, horizon, 105);
            let batch = run_fleet(&cfg, &trace, &fleet_faults, &shard_faults, &mut NullSink);
            assert!(batch.retries > 0 && batch.failovers > 0, "{batch:?}");

            let mut online_cfg = cfg.clone();
            online_cfg.shard.horizon = horizon.max(trace.last_deadline());
            let mut fleet = Fleet::start(online_cfg, fleet_faults, &shard_faults, &mut NullSink);
            let mut rng = RngStream::from_root(105, "fleet-integration/advance");
            let mut advances = 0;
            let jobs = trace.jobs();
            for (k, &job) in jobs.iter().enumerate() {
                fleet.submit(job, &mut NullSink);
                let Some(next) = jobs.get(k + 1) else { break };
                let (a, b) = (job.release.as_secs(), next.release.as_secs());
                if b - a > 1e-6 && rng.uniform01() < 0.5 {
                    let t = a + (b - a) * (0.1 + 0.8 * rng.uniform01());
                    fleet.advance_to(SimTime::from_secs(t), &mut NullSink);
                    assert_eq!(fleet.now().as_secs(), t);
                    advances += 1;
                }
            }
            assert!(advances > 1000, "{advances} advances");
            let online = fleet.finish(&mut NullSink);
            assert_eq!(
                fleet_bits(&online),
                fleet_bits(&batch),
                "{} with q_min {q_min}: the online fleet drifted from run_fleet",
                routing.name()
            );
        }
    }
}
