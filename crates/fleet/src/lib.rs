//! # ge-fleet — fault-tolerant fleet simulation
//!
//! Scales the single-server GE reproduction to a fleet: a deterministic
//! request router dispatches jobs across `N` independent server engines
//! while an online partitioner re-divides the global power budget `H`
//! between them, and fleet-level fault injection (whole-server crashes,
//! degraded servers, lossy dispatch) exercises graceful degradation.
//!
//! * [`config`] — [`FleetConfig`] plus the [`RoutingPolicy`] (round-robin,
//!   join-shortest-queue, power-of-d, energy-aware) and [`Partitioner`]
//!   (equal-split baseline, proportional-load, sum-power-aware) menus.
//! * [`driver`] — [`Fleet`], the online fleet handle (`start`, `submit`,
//!   `advance_to`, `finish`), and [`run_fleet`], that handle driven over a
//!   trace: one event order interleaving fault transitions, budget epochs,
//!   dispatches and retries. A router event advances only the servers with
//!   an engine event due and reads cached load signals, yet the per-server
//!   engines behave bit-identically to standalone runs and the whole fleet
//!   is reproducible from one seed. A `ge-serve` session runs on a
//!   one-server `Fleet`.
//!
//! Degradation is explicit, never silent: a crashed server's
//! queued-unstarted jobs fail over to survivors (in-flight work keeps
//! partial credit via the orphan path), lost dispatches retry with
//! bounded exponential backoff, and jobs the fleet cannot serve within
//! the quality floor are shed with full accounting — they appear in the
//! trace, the telemetry counters, and the fleet quality denominator.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod config;
pub mod driver;

pub use config::{FleetConfig, Partitioner, RoutingPolicy};
pub use driver::{run_fleet, Fleet, FleetResult};

#[cfg(test)]
mod tests {
    use super::*;
    use ge_core::SimConfig;
    use ge_faults::{FleetFaultSchedule, FleetScenario, FleetScenarioKind, ServerOutage};
    use ge_simcore::{RngStream, SimDuration, SimTime};
    use ge_trace::{replay_fleet, NullSink, VecSink};
    use ge_workload::{Job, JobId, Trace};

    fn shard_cfg(horizon_s: f64) -> SimConfig {
        SimConfig {
            cores: 4,
            budget_w: 80.0,
            horizon: SimTime::from_secs(horizon_s),
            critical_load_rps: 154.0 / 4.0,
            ..SimConfig::paper_default()
        }
    }

    /// A deterministic Poisson-ish workload: `n` jobs over `span_s`
    /// seconds with jittered inter-arrivals and demands.
    fn workload(n: usize, span_s: f64, seed: u64) -> Trace {
        let mut rng = RngStream::from_root(seed, "fleet-test/workload");
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

    fn base_cfg(servers: usize, horizon_s: f64) -> FleetConfig {
        let mut cfg = FleetConfig::new(servers, shard_cfg(horizon_s));
        cfg.seed = 42;
        cfg
    }

    #[test]
    fn fault_free_fleet_serves_everything() {
        let cfg = base_cfg(3, 10.0);
        let trace = workload(120, 8.0, 7);
        let r = run_fleet(
            &cfg,
            &trace,
            &FleetFaultSchedule::new(42),
            &[],
            &mut NullSink,
        );
        assert_eq!(r.jobs_total, 120);
        assert_eq!(r.dispatches, 120);
        assert_eq!(r.jobs_finished, 120);
        assert_eq!(r.failovers + r.retries + r.jobs_shed_router, 0);
        assert!(r.quality > 0.8, "quality {}", r.quality);
        assert!(r.energy_j > 0.0);
        assert_eq!(r.shards.len(), 3);
    }

    #[test]
    #[should_panic(expected = "must not carry surges or demand noise")]
    fn shard_schedules_with_workload_faults_are_refused() {
        // Surge jobs would take ids the router also assigns.
        let cfg = base_cfg(2, 4.0);
        use ge_faults::{FaultScenario, FaultSchedule, ScenarioKind};
        let surge =
            FaultScenario::new(ScenarioKind::Surge, 1.0).build(4, SimTime::from_secs(4.0), 1);
        let shard_faults = vec![FaultSchedule::new(1), surge];
        run_fleet(
            &cfg,
            &workload(10, 2.0, 3),
            &FleetFaultSchedule::new(42),
            &shard_faults,
            &mut NullSink,
        );
    }

    #[test]
    #[should_panic(expected = "fleet transition references server 5 in a 3-server fleet")]
    fn out_of_range_server_panics() {
        let faults = FleetFaultSchedule::new(0).with_server_outage(ServerOutage {
            server: 5,
            start: SimTime::from_secs(1.0),
            end: None,
        });
        run_fleet(
            &base_cfg(3, 4.0),
            &workload(10, 2.0, 3),
            &faults,
            &[],
            &mut NullSink,
        );
    }

    #[test]
    fn a_fault_fires_before_the_epoch_and_the_dispatch_at_its_instant() {
        // Server 0 crashes, a budget epoch falls due and a job is released,
        // all at t = 1.0. The crash goes first, then the epoch's budget
        // events, then the dispatch; JSQ would pick the (empty, lowest
        // index) server 0 if it were still up, so the job must land on 1.
        let mut cfg = base_cfg(2, 4.0);
        cfg.realloc_every = SimDuration::from_secs(1.0);
        let at = SimTime::from_secs(1.0);
        let job = Job::new(JobId(0), at, at + SimDuration::from_millis(500.0), 400.0);
        let faults = FleetFaultSchedule::new(cfg.seed).with_server_outage(ServerOutage {
            server: 0,
            start: at,
            end: None,
        });
        let mut sink = VecSink::new();
        run_fleet(&cfg, &Trace::new(vec![job]), &faults, &[], &mut sink);
        let t1 = at.as_secs().to_bits();
        let kinds: Vec<&str> = sink
            .events()
            .iter()
            .filter_map(|ev| match *ev {
                ge_trace::TraceEvent::ShardFault { t, .. } if t.to_bits() == t1 => {
                    Some("shard_fault")
                }
                ge_trace::TraceEvent::FleetBudget { t, .. } if t.to_bits() == t1 => {
                    Some("fleet_budget")
                }
                ge_trace::TraceEvent::FleetDispatch { t, shard, .. } if t.to_bits() == t1 => {
                    assert_eq!(shard, 1, "the job went to the crashed server");
                    Some("fleet_dispatch")
                }
                _ => None,
            })
            .collect();
        assert_eq!(
            kinds,
            [
                "shard_fault",
                "fleet_budget",
                "fleet_budget",
                "fleet_dispatch"
            ]
        );
    }

    #[test]
    fn every_routing_policy_is_deterministic() {
        for policy in RoutingPolicy::ALL {
            let mut cfg = base_cfg(4, 10.0);
            cfg.routing = policy;
            let trace = workload(150, 8.0, 9);
            let faults = FleetFaultSchedule::new(cfg.seed).with_server_outage(ServerOutage {
                server: 1,
                start: SimTime::from_secs(3.0),
                end: Some(SimTime::from_secs(7.0)),
            });
            let run = || run_fleet(&cfg, &trace, &faults, &[], &mut NullSink);
            let (a, b) = (run(), run());
            assert_eq!(
                a.quality.to_bits(),
                b.quality.to_bits(),
                "{} quality drifted",
                policy.name()
            );
            assert_eq!(a.energy_j.to_bits(), b.energy_j.to_bits());
            assert_eq!(a.dispatches, b.dispatches);
            assert_eq!(a.failovers, b.failovers);
        }
    }

    #[test]
    fn crash_fails_over_without_losing_jobs() {
        let mut cfg = base_cfg(3, 12.0);
        cfg.shard.q_min = 0.80;
        let trace = workload(200, 9.0, 11);
        let faults = FleetFaultSchedule::new(cfg.seed).with_server_outage(ServerOutage {
            server: 0,
            start: SimTime::from_secs(3.0),
            end: None,
        });
        let mut sink = VecSink::new();
        let r = run_fleet(&cfg, &trace, &faults, &[], &mut sink);
        // Conservation: every offered job is finished somewhere, held as a
        // partial-credit orphan (counted finished at close), or explicitly
        // shed — by the router or a shard's admission control.
        assert_eq!(
            r.jobs_finished + r.jobs_shed_router,
            r.jobs_total,
            "jobs leaked: {r:?}"
        );
        // The trace-level invariant checker agrees nothing was lost.
        let report = replay_fleet(sink.events()).expect("structurally valid fleet trace");
        assert!(report.is_ok(), "replay issues: {:?}", report.issues);
    }

    #[test]
    fn repartitioning_beats_equal_split_under_crash() {
        // One server dies mid-run and never returns. At equal global
        // budget, giving the dead server's slice to the survivors must
        // strictly improve delivered quality over parking it.
        let trace = workload(260, 10.0, 13);
        let faults = |seed| {
            FleetFaultSchedule::new(seed).with_server_outage(ServerOutage {
                server: 2,
                start: SimTime::from_secs(2.0),
                end: None,
            })
        };
        let run = |partitioner| {
            let mut cfg = base_cfg(3, 13.0);
            cfg.partitioner = partitioner;
            run_fleet(&cfg, &trace, &faults(cfg.seed), &[], &mut NullSink)
        };
        let equal = run(Partitioner::EqualSplit);
        let prop = run(Partitioner::ProportionalLoad);
        let sumpow = run(Partitioner::SumPowerAware);
        assert!(
            prop.quality > equal.quality,
            "prop {} !> equal {}",
            prop.quality,
            equal.quality
        );
        assert!(
            sumpow.quality > equal.quality,
            "sumpow {} !> equal {}",
            sumpow.quality,
            equal.quality
        );
    }

    #[test]
    fn dispatch_loss_retries_and_bounds() {
        let mut cfg = base_cfg(2, 10.0);
        cfg.max_retries = 2;
        let trace = workload(80, 6.0, 17);
        let mut scenario_faults = FleetFaultSchedule::new(cfg.seed);
        scenario_faults = scenario_faults.with_dispatch_loss(ge_faults::DispatchLossWindow {
            start: SimTime::from_secs(0.0),
            end: SimTime::from_secs(6.5),
            drop_prob: 0.5,
        });
        let mut sink = VecSink::new();
        let r = run_fleet(&cfg, &trace, &scenario_faults, &[], &mut sink);
        assert!(r.retries > 0, "a 50% loss window must cost retries");
        // Every job is either dispatched eventually or explicitly shed.
        assert_eq!(r.jobs_finished + r.jobs_shed_router, r.jobs_total);
        let report = replay_fleet(sink.events()).expect("valid trace");
        assert!(report.is_ok(), "replay issues: {:?}", report.issues);
        assert_eq!(report.retries, r.retries);
    }

    #[test]
    fn built_scenarios_produce_checkable_traces() {
        for kind in [
            FleetScenarioKind::ServerCrash,
            FleetScenarioKind::ServerSlow,
            FleetScenarioKind::DispatchLoss,
            FleetScenarioKind::FleetCombined,
        ] {
            let cfg = base_cfg(3, 10.0);
            let (fleet_faults, shard_faults) = FleetScenario::new(kind, 0.75).build(
                cfg.servers,
                cfg.shard.cores,
                SimTime::from_secs(10.0),
                cfg.seed,
            );
            let trace = workload(100, 8.0, 19);
            let mut sink = VecSink::new();
            let r = run_fleet(&cfg, &trace, &fleet_faults, &shard_faults, &mut sink);
            assert!(r.energy_j > 0.0, "{}: no energy?", kind.name());
            let report =
                replay_fleet(sink.events()).unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
            assert!(report.is_ok(), "{}: {:?}", kind.name(), report.issues);
        }
    }

    #[test]
    fn budget_slices_always_sum_to_h() {
        let mut cfg = base_cfg(4, 10.0);
        cfg.partitioner = Partitioner::SumPowerAware;
        let trace = workload(120, 8.0, 23);
        let faults = FleetFaultSchedule::new(cfg.seed).with_server_outage(ServerOutage {
            server: 3,
            start: SimTime::from_secs(2.0),
            end: Some(SimTime::from_secs(6.0)),
        });
        let mut sink = VecSink::new();
        let r = run_fleet(&cfg, &trace, &faults, &[], &mut sink);
        assert!(r.budget_epochs >= 9, "epochs {}", r.budget_epochs);
        let h = cfg.total_budget_w();
        let mut per_t: std::collections::BTreeMap<u64, f64> = Default::default();
        for ev in sink.events() {
            if let ge_trace::TraceEvent::FleetBudget { t, budget_w, .. } = ev {
                *per_t.entry(t.to_bits()).or_insert(0.0) += budget_w;
            }
        }
        assert_eq!(per_t.len() as u64, r.budget_epochs);
        for (_, sum) in per_t {
            assert!((sum - h).abs() < 1e-6 * h, "slices sum {sum} != H {h}");
        }
    }

    #[test]
    fn dispatch_order_is_time_then_priority_then_sequence() {
        // Three orderings the router must keep: equal releases dispatch in
        // trace order, a budget epoch at a dispatch instant goes first,
        // and a retry landing on later jobs' release instant goes after
        // their first dispatches (it was scheduled after them).
        let mut cfg = base_cfg(2, 4.0);
        cfg.seed = 3;
        let at = SimTime::from_secs;
        let retry_at = at(2.0) + SimDuration::from_secs(cfg.retry_backoff.as_secs());
        let job = |id: u64, release: SimTime| {
            Job::new(
                JobId(id),
                release,
                release + SimDuration::from_millis(500.0),
                400.0,
            )
            .with_estimate(400.0)
        };
        let trace = Trace::new(vec![
            job(7, at(0.5)),
            job(3, at(0.5)),
            job(9, at(0.5)),
            job(4, at(1.0)),
            job(5, at(2.0)),
            job(6, retry_at),
            job(8, retry_at),
        ]);
        // Job 5's first attempt is certainly lost; the window closes
        // before its retry.
        let faults =
            FleetFaultSchedule::new(cfg.seed).with_dispatch_loss(ge_faults::DispatchLossWindow {
                start: at(1.9),
                end: at(2.005),
                drop_prob: 1.0,
            });
        let mut sink = VecSink::new();
        let r = run_fleet(&cfg, &trace, &faults, &[], &mut sink);
        assert_eq!((r.dispatches, r.retries), (7, 1));

        #[derive(Debug, PartialEq)]
        enum Step {
            Budget(u64),
            Dispatch(u64, u64, u64),
            Retry(u64, u64),
        }
        let steps: Vec<Step> = sink
            .events()
            .iter()
            .filter_map(|ev| match *ev {
                ge_trace::TraceEvent::FleetBudget { t, .. } => Some(Step::Budget(t.to_bits())),
                ge_trace::TraceEvent::FleetDispatch {
                    t, job, attempt, ..
                } => Some(Step::Dispatch(t.to_bits(), job, attempt)),
                ge_trace::TraceEvent::FleetRetry { t, job, .. } => {
                    Some(Step::Retry(t.to_bits(), job))
                }
                _ => None,
            })
            .collect();
        let routed: Vec<&Step> = steps
            .iter()
            .filter(|s| !matches!(s, Step::Budget(_)))
            .collect();
        let b = |t: SimTime| t.as_secs().to_bits();
        assert_eq!(
            routed,
            [
                &Step::Dispatch(b(at(0.5)), 7, 0),
                &Step::Dispatch(b(at(0.5)), 3, 0),
                &Step::Dispatch(b(at(0.5)), 9, 0),
                &Step::Dispatch(b(at(1.0)), 4, 0),
                &Step::Retry(b(at(2.0)), 5),
                &Step::Dispatch(b(retry_at), 6, 0),
                &Step::Dispatch(b(retry_at), 8, 0),
                &Step::Dispatch(b(retry_at), 5, 1),
            ]
        );
        // The epoch at t = 1.0 (one budget event per server) precedes the
        // dispatch at the same instant.
        let pos = |want: &Step| steps.iter().position(|s| s == want).unwrap();
        let first_epoch_budget = pos(&Step::Budget(b(at(1.0))));
        let dispatch = pos(&Step::Dispatch(b(at(1.0)), 4, 0));
        assert_eq!(dispatch, first_epoch_budget + cfg.servers);
    }

    /// Records job terminals only, as a serving session's books do.
    #[derive(Default)]
    struct TerminalsOnly {
        finished: Vec<u64>,
        other: usize,
    }

    impl ge_trace::TraceSink for TerminalsOnly {
        fn is_enabled(&self) -> bool {
            false
        }

        fn records_terminals(&self) -> bool {
            true
        }

        fn record(&mut self, ev: &ge_trace::TraceEvent) {
            match *ev {
                ge_trace::TraceEvent::JobFinish { job, .. } => self.finished.push(job),
                ge_trace::TraceEvent::JobShed { .. } => {}
                _ => self.other += 1,
            }
        }
    }

    #[test]
    fn shards_record_terminals_only_into_a_terminals_only_sink() {
        // A crash makes failovers, so some jobs are handed to a server
        // twice; each must still finish exactly once.
        let cfg = base_cfg(2, 10.0);
        let trace = workload(600, 8.0, 29);
        let faults = FleetFaultSchedule::new(cfg.seed).with_server_outage(ServerOutage {
            server: 1,
            start: SimTime::from_secs(3.0),
            end: None,
        });
        let plain = run_fleet(&cfg, &trace, &faults, &[], &mut NullSink);
        assert!(plain.failovers > 0, "the crash must fail jobs over");

        let mut books = TerminalsOnly::default();
        let mut fleet = Fleet::start(cfg.clone(), faults.clone(), &[], &mut books);
        for &job in trace.jobs() {
            fleet.submit(job, &mut books);
        }
        let r = fleet.finish(&mut books);
        assert_eq!(r.quality.to_bits(), plain.quality.to_bits());
        assert_eq!(r.energy_j.to_bits(), plain.energy_j.to_bits());
        assert_eq!(books.other, 0, "only job terminals may reach the sink");
        let mut finished = books.finished.clone();
        finished.sort_unstable();
        finished.dedup();
        assert_eq!(finished.len(), books.finished.len(), "a job finished twice");
        assert_eq!(finished.len() as u64, r.jobs_finished);
        assert_eq!(r.jobs_finished + r.jobs_shed_router, r.jobs_total);

        // A traced fleet's sink sees the router's events and nothing else.
        let mut sink = VecSink::new();
        let traced = run_fleet(&cfg, &trace, &faults, &[], &mut sink);
        assert_eq!(traced.quality.to_bits(), plain.quality.to_bits());
        let router_kinds = [
            "fleet_run_start",
            "fleet_budget",
            "fleet_dispatch",
            "fleet_retry",
            "fleet_failover",
            "fleet_shed",
            "shard_fault",
            "fleet_summary",
        ];
        for ev in sink.events() {
            assert!(router_kinds.contains(&ev.kind()), "{ev:?}");
        }
        let report = replay_fleet(sink.events()).expect("valid fleet trace");
        assert!(report.is_ok(), "replay issues: {:?}", report.issues);
        let dispatched = sink
            .events()
            .iter()
            .filter(|ev| ev.kind() == "fleet_dispatch")
            .count() as u64;
        assert_eq!(dispatched, traced.dispatches);
    }

    #[test]
    fn ledger_quality_counts_router_sheds_at_full_value() {
        // Round-robin with a backlog ceiling any queued work exceeds: jobs
        // 0 and 1 take the two servers, job 2 is shed by the guard. No job
        // has finished yet, so the shed is the whole denominator.
        let mut cfg = base_cfg(2, 4.0);
        cfg.routing = RoutingPolicy::RoundRobin;
        cfg.shard.q_min = 0.8;
        cfg.shed_backlog_factor = 1e-9;
        let at = SimTime::from_secs(1.0);
        let mut fleet = Fleet::start(cfg, FleetFaultSchedule::new(42), &[], &mut NullSink);
        for id in 0..3 {
            assert_eq!(fleet.ledger_quality(), 1.0, "nothing is booked yet");
            let job = Job::new(JobId(id), at, at + SimDuration::from_millis(500.0), 400.0);
            fleet.submit(job, &mut NullSink);
        }
        assert_eq!(fleet.ledger_quality(), 0.0);
        let r = fleet.finish(&mut NullSink);
        assert_eq!((r.dispatches, r.jobs_shed_router), (2, 1));
    }

    #[test]
    fn a_server_back_from_a_blip_crash_is_seen_empty() {
        // Server 0 crashes and recovers between two of its own engine
        // events, so its handled-event count — the load cache's stamp —
        // never moves. The router must still see it empty afterwards:
        // with a backlog ceiling that any queued work exceeds, job 3 is
        // admitted to server 0, not shed on its pre-crash load.
        let mut cfg = base_cfg(2, 4.0);
        cfg.routing = RoutingPolicy::RoundRobin;
        cfg.shard.q_min = 0.8;
        cfg.shed_backlog_factor = 1e-9;
        let at = SimTime::from_secs;
        let job = |id: u64, release: SimTime| {
            Job::new(
                JobId(id),
                release,
                release + SimDuration::from_millis(500.0),
                400.0,
            )
            .with_estimate(400.0)
        };
        // Round-robin: job 0 → server 0, job 1 → server 1, job 2 → server
        // 0 (both now loaded: shed), job 0's failover → server 1 (shed),
        // job 3 → server 0.
        let trace = Trace::new(vec![
            job(0, at(1.0)),
            job(1, at(1.0)),
            job(2, at(1.0)),
            job(3, at(1.0 + 3e-6)),
        ]);
        let faults = FleetFaultSchedule::new(cfg.seed).with_server_outage(ServerOutage {
            server: 0,
            start: at(1.0 + 1e-6),
            end: Some(at(1.0 + 2e-6)),
        });
        let mut sink = VecSink::new();
        let r = run_fleet(&cfg, &trace, &faults, &[], &mut sink);
        let dispatched: Vec<(u64, u64)> = sink
            .events()
            .iter()
            .filter_map(|ev| match *ev {
                ge_trace::TraceEvent::FleetDispatch { job, shard, .. } => Some((job, shard)),
                _ => None,
            })
            .collect();
        assert_eq!(dispatched, [(0, 0), (1, 1), (3, 0)]);
        assert_eq!((r.failovers, r.jobs_shed_router), (1, 2));
    }
}
