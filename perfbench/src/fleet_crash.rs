//! `fleet_crash`: `ge_fleet::run_fleet` over 16 servers of 4 cores and
//! 80 W each, JSQ routing with `prop` budget repartitioning, 45 req/s per
//! server (above the 38.5 req/s per-server critical load) for 300 s —
//! about 216k jobs — under the `servercrash` scenario at intensity 1.0.
//!
//! The only workload on the router, the repartitioner and failover. The
//! survivors run water-filling in BQ mode with capped cores, so second
//! cuts and YDS dominate and the replan cache mostly misses.
//!
//! `run_fleet` hands its sink only the router's events and builds its
//! engines internally, so engine-level event counts (second cuts, exec
//! slices, assignments, power splits) are not observable here and are
//! reported as `NOT_OBSERVABLE`. The replan gauges of the telemetry
//! registry are last-write, so the cache ratio is that of the server
//! that planned last.

use crate::profile::Profile;
use crate::report::Report;
use crate::sim::{Rep, Sim};
use crate::sink::CountingSink;
use ge_core::SimConfig;
use ge_faults::{FleetScenario, FleetScenarioKind};
use ge_fleet::{run_fleet, FleetConfig, FleetResult, Partitioner, RoutingPolicy};
use ge_simcore::SimTime;
use ge_telemetry::SpanGuard;
use ge_trace::{TraceEvent, TraceSink};
use ge_workload::{WorkloadConfig, WorkloadGenerator};
use std::hint::black_box;
use std::time::Instant;

pub const SERVERS: usize = 16;
pub const SHARD_CORES: usize = 4;
pub const SHARD_BUDGET_W: f64 = 80.0;
pub const RATE_PER_SERVER_RPS: f64 = 45.0;
pub const HORIZON_S: f64 = 300.0;
/// The degradation floor the fleet study runs its shards with.
pub const Q_MIN: f64 = 0.8;

pub struct FleetCrash {
    seed: u64,
    last: Option<FleetResult>,
}

impl FleetCrash {
    pub fn new(seed: u64) -> Self {
        FleetCrash { seed, last: None }
    }

    fn config(&self) -> FleetConfig {
        let horizon = SimTime::from_secs(HORIZON_S);
        let shard = SimConfig {
            cores: SHARD_CORES,
            budget_w: SHARD_BUDGET_W,
            critical_load_rps: 154.0 * SHARD_CORES as f64 / 16.0,
            horizon,
            q_min: Q_MIN,
            ..SimConfig::paper_default()
        };
        let mut cfg = FleetConfig::new(SERVERS, shard);
        cfg.routing = RoutingPolicy::JoinShortestQueue;
        cfg.partitioner = Partitioner::ProportionalLoad;
        cfg.seed = self.seed;
        cfg
    }
}

impl Sim for FleetCrash {
    fn rep(&mut self, sink: &mut dyn TraceSink) -> Rep {
        let _root = SpanGuard::enter("bench_fleet_crash");
        let t0 = Instant::now();
        let (cfg, trace, faults, gen) = {
            let _setup = SpanGuard::enter("bench_setup");
            let cfg = self.config();
            let trace = {
                let _gen = SpanGuard::enter("bench_workload_gen");
                let workload = WorkloadConfig {
                    horizon: cfg.shard.horizon,
                    ..WorkloadConfig::paper_default(RATE_PER_SERVER_RPS * SERVERS as f64)
                };
                WorkloadGenerator::new(workload, self.seed).generate()
            };
            let gen = t0.elapsed();
            let faults = FleetScenario::new(FleetScenarioKind::ServerCrash, 1.0).build(
                cfg.servers,
                cfg.shard.cores,
                cfg.shard.horizon,
                self.seed,
            );
            (cfg, trace, faults, gen)
        };
        let setup = t0.elapsed();
        let t1 = Instant::now();
        let result = {
            let _run = SpanGuard::enter("bench_run_fleet");
            run_fleet(&cfg, black_box(&trace), &faults.0, &faults.1, sink)
        };
        let run = t1.elapsed();
        let rep = Rep {
            gen,
            setup,
            run,
            jobs: result.jobs_total,
            quality: black_box(result.quality),
            energy_j: result.energy_j,
        };
        self.last = Some(result);
        rep
    }

    fn replay(&self, events: &[TraceEvent], report: &mut Report) {
        match ge_trace::replay_fleet(events) {
            Ok(r) => {
                for issue in &r.issues {
                    println!("  replay issue: {issue}");
                }
                report.check(
                    format!(
                        "ge_trace::replay_fleet over {} events is clean",
                        events.len()
                    ),
                    r.is_ok(),
                );
            }
            Err(e) => report.check(format!("ge_trace::replay_fleet failed: {e}"), false),
        }
    }

    fn layer_metrics(&self, p: &Profile, c: &CountingSink, report: &mut Report) {
        let Some(f) = &self.last else {
            report.check("fleet run produced a result", false);
            return;
        };
        crate::engine_metrics_from_registry(p, report);
        report.set("fleet.router_share", p.self_share("bench_run_fleet"));
        report.set(
            "fleet.dispatch_per_job",
            f.dispatches as f64 / f.jobs_total.max(1) as f64,
        );
        report.set("fleet.failovers", f.failovers as f64);
        report.set("fleet.retries", f.retries as f64);
        report.set("fleet.shed_router", f.jobs_shed_router as f64);
        report.set("fleet.budget_epochs", f.budget_epochs as f64);
        report.check(
            "sink dispatch/failover counts match the fleet result",
            c.count("fleet_dispatch") == f.dispatches && c.count("fleet_failover") == f.failovers,
        );
        crate::not_exercised(report, "serve.");
    }
}
