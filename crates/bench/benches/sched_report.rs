//! The scheduler benchmark report behind `BENCH_sched.json`.
//!
//! One target collecting everything the incremental-replanning work is
//! measured by: the per-epoch kernels (LF cut, YDS on common and
//! staggered releases, water-filling, Quality-OPT, inversion — with and
//! without scratch/memo reuse), one whole GE epoch on a fixed 16-core
//! snapshot, the engine's event queue at two pending depths, the
//! server's share of one engine event, end-to-end GE runs with the
//! dirty-bit path on and forced off, whole fleets at N ∈ {1, 4, 16}
//! servers, one serving session in process and over loopback TCP, the
//! trace codec per event, one replay of a faulted run's trace,
//! and representative figure pipelines at [`Scale::bench`]. Run with
//! `--json <path>` to write the `ge-bench-sched/v1` report (Cargo runs
//! benches from the package directory, so give the repository-root path
//! explicitly):
//!
//! ```sh
//! cargo bench -p ge-bench --bench sched_report -- --json "$PWD/BENCH_sched.json"
//! ```

use ge_bench::harness::{black_box, Harness};
use ge_bench::{bench_config, bench_trace};
use ge_core::ge::{GeOptions, GeScheduler};
use ge_core::{
    run_scheduler_with_sink, run_with_sink, Algorithm, ScheduleCtx, Scheduler, SimConfig,
};
use ge_experiments::{figures, Scale};
use ge_faults::{FaultScenario, FleetScenario, FleetScenarioKind, ScenarioKind};
use ge_fleet::{run_fleet, FleetConfig, Partitioner, RoutingPolicy};
use ge_power::{
    distribute_water_filling_into, yds_schedule, yds_schedule_into, yds_schedule_with,
    PolynomialPower, SpeedProfile, YdsJob, YdsScratch,
};
use ge_quality::{
    lf_cut, lf_cut_with, prefix_level_fill_into, CutOutcome, CutScratch, ExpConcave,
    LevelFillScratch, QualityFunction, QualityLedger,
};
use ge_serve::{ServeConfig, ServeCore, ServeServer};
use ge_server::Server;
use ge_simcore::{EventQueue, RngStream, SimDuration, SimTime};
use ge_trace::{jsonl_line, parse_jsonl_line, replay, NullSink, TraceEvent, VecSink};
use ge_workload::{BoundedPareto, Job, JobId, Sampler, UNITS_PER_GHZ_SEC};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

fn demands(n: usize, seed: u64) -> Vec<f64> {
    let dist = BoundedPareto::paper_default();
    let mut rng = RngStream::from_root(seed, "bench/demands");
    (0..n).map(|_| dist.sample(&mut rng)).collect()
}

/// LF cut: fresh allocations per call vs scheduler-style scratch reuse.
fn bench_lf_cut(h: &Harness) {
    let f = ExpConcave::paper_default();
    for n in [4usize, 16, 64] {
        let d = demands(n, 1);
        h.bench(&format!("lf_cut/{n}"), || lf_cut(&f, black_box(&d), 0.9));
        let mut scratch = CutScratch::new();
        let mut out = CutOutcome::empty();
        h.bench(&format!("lf_cut_scratch/{n}"), || {
            lf_cut_with(&f, black_box(&d), 0.9, &mut scratch, &mut out);
            out.level
        });
    }
}

/// YDS: fresh allocations per call vs scratch reuse, on one common
/// release (the GE replanner's case, which takes the one-sweep peel);
/// then staggered releases, which keep the general peel benched.
fn bench_yds(h: &Harness) {
    for n in [4usize, 8, 16] {
        let d = demands(n, 2);
        let jobs: Vec<YdsJob> = d
            .iter()
            .enumerate()
            .map(|(i, &w)| YdsJob::new(i, 0.0, 0.15 + 0.01 * i as f64, w / 1000.0))
            .collect();
        h.bench(&format!("yds_schedule/{n}"), || {
            yds_schedule(black_box(&jobs))
        });
        let mut scratch = YdsScratch::new();
        h.bench(&format!("yds_schedule_scratch/{n}"), || {
            yds_schedule_with(black_box(&jobs), &mut scratch)
        });
    }
    for n in [4usize, 16] {
        let d = demands(n, 2);
        let jobs: Vec<YdsJob> = d
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                let release = 0.01 * i as f64;
                YdsJob::new(i, release, release + 0.15, w / 1000.0)
            })
            .collect();
        let mut scratch = YdsScratch::new();
        let mut plan = SpeedProfile::empty();
        h.bench(&format!("yds_schedule_scratch/staggered_{n}"), || {
            yds_schedule_into(black_box(&jobs), &mut scratch, &mut plan)
        });
    }
}

/// Water-filling 320 W over 16 per-core demands that overrun it, into
/// reused buffers: the split a loaded GE epoch makes.
fn bench_water_fill(h: &Harness) {
    let demands: Vec<f64> = demands(16, 3).iter().map(|d| d / 5.0).collect();
    assert!(demands.iter().sum::<f64>() > 320.0, "the budget must bind");
    let (mut sorted, mut caps) = (Vec::new(), Vec::new());
    h.bench("power/water_fill_16", || {
        distribute_water_filling_into(black_box(&demands), 320.0, &mut sorted, &mut caps);
        caps[0]
    });
}

/// Quality-OPT: the second cut's prefix-constrained level fill, with
/// cumulative budgets at 60% of the cumulative demand, so prefixes bind.
fn bench_prefix_level_fill(h: &Harness) {
    for n in [4usize, 16] {
        let d = demands(n, 4);
        let budgets: Vec<f64> = d
            .iter()
            .scan(0.0, |acc, &x| {
                *acc += 0.6 * x;
                Some(*acc)
            })
            .collect();
        let mut scratch = LevelFillScratch::new();
        let mut out = Vec::new();
        h.bench(&format!("quality/prefix_level_fill_{n}"), || {
            prefix_level_fill_into(black_box(&d), &budgets, &mut scratch, &mut out);
            out[0]
        });
    }
}

/// One GE epoch on a fixed snapshot of the paper platform: 40 jobs
/// (deadlines 60–150 ms out, bounded-Pareto demands) spread over 16
/// cores by a first epoch, then `on_schedule` with every core replanned
/// (LF cut, Energy-OPT, the equal-share split, finalize and install).
/// The snapshot does not move: the clock stands still and the queue is
/// empty, so every iteration does the same work.
fn bench_ge_epoch(h: &Harness) {
    let cfg = bench_config(10.0);
    let mut server = Server::new(
        cfg.cores,
        Box::new(PolynomialPower::new(cfg.power_a, cfg.power_beta)),
        cfg.budget_w,
        cfg.units_per_ghz_sec,
    );
    let mut queue: Vec<Job> = demands(40, 5)
        .iter()
        .enumerate()
        .map(|(i, &d)| {
            let deadline = SimTime::from_secs(0.06 + 0.09 * (i % 7) as f64 / 6.0);
            Job::new(JobId(i as u64), SimTime::ZERO, deadline, d)
        })
        .collect();
    let ledger = QualityLedger::cumulative();
    let f = ExpConcave::new(cfg.quality_c, cfg.quality_xmax);
    let mut sched = GeScheduler::new(
        &cfg,
        GeOptions {
            force_full_replan: true,
            ..GeOptions::paper()
        },
    );
    let (mut orphans, mut shed) = (Vec::new(), Vec::new());
    let mut epoch = |queue: &mut Vec<Job>| {
        let mut ctx = ScheduleCtx {
            now: SimTime::ZERO,
            server: &mut server,
            queue,
            ledger: &ledger,
            quality_fn: &f,
            load_estimate_rps: 150.0,
            budget_factor: 1.0,
            orphans: &mut orphans,
            shed: &mut shed,
            sink: &mut NullSink,
        };
        sched.on_schedule(&mut ctx);
    };
    epoch(&mut queue);
    assert!(queue.is_empty(), "the first epoch assigns every job");
    h.bench("ge/epoch_16", || epoch(black_box(&mut queue)));
}

/// Quality inversion: direct binary search vs the LF-cut memo.
fn bench_inverse(h: &Harness) {
    let f = ExpConcave::paper_default();
    h.bench("inverse/direct", || f.inverse(black_box(0.83)));
    let mut memo = ge_quality::InverseMemo::new();
    h.bench("inverse/memoized", || memo.inverse(&f, black_box(0.83)));
}

/// The server's share of one engine event at the paper's scale: advance
/// all 16 cores by one inter-event gap (about 3.3 ms at 150 req/s, two
/// events per job), then project the next core event and snapshot the
/// speeds. Every core is mid-job on a long plan, so this is the steady
/// state between scheduler epochs.
/// The engine's event queue at a fixed pending depth: ns per pop of the
/// earliest event plus one push, the cycle every handled event pays. The
/// payload is a whole job, as an injected arrival carries. Depth 16 is
/// about `paper_light`'s heap with trace arrivals streamed from a cursor;
/// 90,000 is that heap with all of its arrivals queued up front.
fn bench_event_queue(h: &Harness) {
    let mut rng = RngStream::from_root(11, "bench/event_queue");
    let gaps: Vec<f64> = (0..4096).map(|_| rng.uniform_range(0.0, 1.0)).collect();
    let job = Job::new(JobId(0), SimTime::ZERO, SimTime::from_secs(1.0), 1.0);
    for depth in [16usize, 90_000] {
        let mut q = EventQueue::new();
        for i in 0..depth {
            q.push(
                SimTime::from_secs(gaps[i % gaps.len()]),
                (i % 4) as u32,
                job,
            );
        }
        let mut k = 0;
        h.bench(&format!("engine/event_queue/{depth}"), || {
            let e = q.pop().expect("the queue stays at its depth");
            k = (k + 1) % gaps.len();
            q.push(
                e.time + SimDuration::from_secs(gaps[k]),
                e.priority,
                e.event,
            );
            e.seq
        });
    }
}

fn bench_server_advance(h: &Harness) {
    let mut server = Server::new(
        16,
        Box::new(PolynomialPower::paper_default()),
        320.0,
        UNITS_PER_GHZ_SEC,
    );
    let far = SimTime::from_secs(1e7);
    for i in 0..16 {
        let core = server.core_mut(i);
        core.assign(&Job::new(JobId(i as u64), SimTime::ZERO, far, 1e15));
        let speed = 1.0 + 0.1 * i as f64;
        core.install_plan(
            SpeedProfile::constant(SimTime::ZERO, far, speed),
            5.0 * speed * speed,
        );
    }
    let gap = SimDuration::from_secs(1.0 / 300.0);
    let mut now = SimTime::ZERO;
    let mut finished = Vec::new();
    let mut speeds = Vec::new();
    h.bench("engine/server_advance_16", || {
        now += gap;
        server.advance_all(now, &mut NullSink, &mut finished);
        server.speeds_into(&mut speeds);
        server.next_event_time()
    });
}

/// End-to-end GE simulations at bench scale, with the dirty-bit skip on
/// (the default) and forced off — the improvement the tentpole buys.
fn bench_e2e(h: &Harness) {
    let cfg = bench_config(10.0);
    let trace = bench_trace(150.0, 10.0, 7);
    for (label, force_full) in [("incremental", false), ("full_replan", true)] {
        h.bench(&format!("e2e_ge/{label}"), || {
            let opts = GeOptions {
                force_full_replan: force_full,
                ..GeOptions::paper()
            };
            let mut sched = GeScheduler::new(&cfg, opts);
            run_scheduler_with_sink(&cfg, &trace, &mut sched, None, &mut NullSink)
        });
    }
}

/// The same end-to-end GE run with the telemetry layer armed vs dark.
/// `scripts/verify.sh` only checks that both entries are reported; the
/// < 2% overhead budget is not gated, because the on/off ratio of
/// unchanged code spreads wider than the budget (ROADMAP item 1 is the
/// measurement work that could resolve it). Each armed run pays the full
/// hot-path cost: span guards on `advance`/replan/kernels (sampled
/// walks), the epoch counters, the sampled planning-latency histogram,
/// and the replan gauges. Batches interleave (`bench_pair`) so machine
/// drift cancels out of the on/off ratio.
fn bench_e2e_telemetry(h: &Harness) {
    let cfg = bench_config(10.0);
    let trace = bench_trace(150.0, 10.0, 7);
    let run = |cfg: &ge_core::SimConfig, trace| {
        let mut sched = GeScheduler::new(cfg, GeOptions::paper());
        run_scheduler_with_sink(cfg, trace, &mut sched, None, &mut NullSink)
    };
    h.bench_pair(
        "e2e_ge/telemetry_off",
        || {
            ge_telemetry::Telemetry::disable();
            run(&cfg, black_box(&trace))
        },
        "e2e_ge/telemetry_on",
        || {
            ge_telemetry::Telemetry::enable();
            run(&cfg, black_box(&trace))
        },
    );
    ge_telemetry::Telemetry::disable();
    ge_telemetry::Telemetry::registry().reset();
    ge_telemetry::reset_profile();
}

/// The `fleet_crash` benchmark shape at bench size: `n` servers of 4
/// cores and 80 W, JSQ routing, `prop` repartitioning, 45 req/s per
/// server, `q_min = 0.8`, the `servercrash` scenario at intensity 1.0.
fn fleet_crash_cfg(n: usize, secs: f64) -> FleetConfig {
    let shard = SimConfig {
        cores: 4,
        budget_w: 80.0,
        critical_load_rps: 154.0 / 4.0,
        q_min: 0.8,
        ..bench_config(secs)
    };
    let mut cfg = FleetConfig::new(n, shard);
    cfg.routing = RoutingPolicy::JoinShortestQueue;
    cfg.partitioner = Partitioner::ProportionalLoad;
    cfg.seed = 11;
    cfg
}

/// Whole fleet runs, 10 s of the `fleet_crash` shape at N = 1, 4, 16:
/// the router, failover and repartitioning on top of N engines.
fn bench_fleet_e2e(h: &Harness) {
    for n in [1usize, 4, 16] {
        let cfg = fleet_crash_cfg(n, 10.0);
        let trace = bench_trace(45.0 * n as f64, 10.0, 11);
        let (fleet_faults, shard_faults) = FleetScenario::new(FleetScenarioKind::ServerCrash, 1.0)
            .build(n, cfg.shard.cores, cfg.shard.horizon, cfg.seed);
        h.bench(&format!("fleet_e2e/{n}"), || {
            run_fleet(
                &cfg,
                black_box(&trace),
                &fleet_faults,
                &shard_faults,
                &mut NullSink,
            )
        });
    }
}

/// The serving benches' stream: the first 2 000 requests of the
/// `paper_default(150)` stream as `(t, demand, deadline_rel)`, and a
/// session config (default admission) whose horizon covers them.
fn serve_stream() -> (Vec<(f64, f64, f64)>, ServeConfig) {
    let trace = bench_trace(150.0, 20.0, 1);
    let jobs = &trace.jobs()[..2_000.min(trace.len())];
    let last_deadline = jobs.last().map_or(0.0, |j| j.deadline.as_secs());
    let cfg = ServeConfig::new(bench_config(last_deadline.ceil() + 1.0), Algorithm::Ge);
    let requests = jobs
        .iter()
        .map(|j| {
            let t = j.release.as_secs();
            (t, j.demand, j.deadline.as_secs() - t)
        })
        .collect();
    (requests, cfg)
}

/// One in-process serving session: the serving stream submitted to a
/// fresh `ServeCore`, then drained to the horizon — the engine, admission
/// and the session's books without the wire.
fn bench_serve_in_process(h: &Harness) {
    let (requests, cfg) = serve_stream();
    h.bench("serve/in_process", || {
        let mut core = ServeCore::new(cfg.clone());
        for &(t, demand, deadline_rel) in black_box(&requests) {
            core.submit(t, demand, deadline_rel)
                .expect("in-horizon submit");
        }
        core.finish_drain().digest
    });
}

/// One loopback serving session: a fresh `ServeServer` on `127.0.0.1:0`,
/// the serving stream as `SUBMIT` lines over one connection (a writer
/// thread sends them all while this thread reads every reply), then a
/// drain — `serve/in_process` plus the protocol, the core lock and TCP.
fn bench_serve_loopback(h: &Harness) {
    let (requests, cfg) = serve_stream();
    let lines: String = requests
        .iter()
        .map(|(t, demand, deadline_rel)| format!("SUBMIT {t} {demand} {deadline_rel}\n"))
        .collect();
    h.bench("serve/loopback", || {
        let server = ServeServer::bind(cfg.clone(), "127.0.0.1:0").expect("bind on loopback");
        let stream = TcpStream::connect(server.local_addr()).expect("connect to the server");
        stream.set_nodelay(true).expect("TCP_NODELAY");
        let mut writer = stream.try_clone().expect("clone the stream");
        let mut reader = BufReader::new(stream);
        std::thread::scope(|scope| {
            scope.spawn(|| writer.write_all(lines.as_bytes()).expect("send the stream"));
            let mut reply = String::new();
            for _ in 0..requests.len() {
                reply.clear();
                reader.read_line(&mut reply).expect("read a reply");
                assert!(!reply.is_empty() && !reply.starts_with("ERR"), "{reply}");
            }
        });
        drop((reader, writer));
        server.shutdown_and_drain().digest
    });
}

/// A fixed mixed-event stream: a 3 s GE run under the `combined` fault
/// scenario (arrivals, epochs, power splits, exec slices, finishes,
/// faults) followed by a 3 s 4-server fleet under `fleetcombined`
/// (dispatches, retries, failovers, budget epochs).
fn mixed_events() -> Vec<TraceEvent> {
    let mut sink = VecSink::new();
    let cfg = bench_config(3.0);
    let faults = FaultScenario::new(ScenarioKind::Combined, 1.0).build(cfg.cores, cfg.horizon, 5);
    run_with_sink(
        &cfg,
        &bench_trace(150.0, 3.0, 5),
        &Algorithm::Ge,
        Some(&faults),
        &mut sink,
    );
    let fleet = fleet_crash_cfg(4, 3.0);
    let (fleet_faults, shard_faults) = FleetScenario::new(FleetScenarioKind::FleetCombined, 1.0)
        .build(4, fleet.shard.cores, fleet.shard.horizon, 5);
    run_fleet(
        &fleet,
        &bench_trace(180.0, 3.0, 5),
        &fleet_faults,
        &shard_faults,
        &mut sink,
    );
    sink.into_events()
}

/// The JSONL trace codec, in ns per event: each iteration encodes (or
/// decodes) the next event of the fixed mixed stream, cycling. Then the
/// replay checker: each `trace/replay_run` iteration replays the whole
/// faulted single-run part of that stream.
fn bench_trace_codec(h: &Harness) {
    let events = mixed_events();
    let lines: Vec<String> = events.iter().map(jsonl_line).collect();
    let mut i = 0;
    h.bench("trace/encode_jsonl", || {
        i = (i + 1) % events.len();
        jsonl_line(black_box(&events[i]))
    });
    let mut i = 0;
    h.bench("trace/decode_jsonl", || {
        i = (i + 1) % lines.len();
        parse_jsonl_line(black_box(&lines[i])).map(|_| ())
    });
    let run_len = events
        .iter()
        .position(|e| matches!(e, TraceEvent::RunSummary { .. }))
        .map_or(0, |i| i + 1);
    let run = &events[..run_len];
    assert!(
        replay(run).is_ok_and(|r| r.is_ok()),
        "the run part replays clean"
    );
    h.bench("trace/replay_run", || {
        replay(black_box(run)).map(|r| r.events)
    });
}

/// Sample batches for the figure pipelines. One `fig08` iteration takes
/// about 125 ms, so a batch of the harness's minimum 10 iterations is
/// over a second: 15 batches spent about 20 s of the report on one
/// advisory entry, and 3 still give a minimum over 30 iterations.
const FIGURE_BATCHES: usize = 3;

/// Representative figure pipelines (workload → sweep → tables).
fn bench_figures(h: &Harness) {
    let scale = Scale::bench();
    h.bench_batches("figures/fig01_aes_residency", FIGURE_BATCHES, || {
        figures::fig01::run(&scale)
    });
    h.bench_batches("figures/fig08_control_policies", FIGURE_BATCHES, || {
        figures::fig08::run(&scale)
    });
}

fn main() {
    let h = Harness::from_args();
    bench_lf_cut(&h);
    bench_yds(&h);
    bench_water_fill(&h);
    bench_prefix_level_fill(&h);
    bench_inverse(&h);
    bench_ge_epoch(&h);
    bench_event_queue(&h);
    bench_server_advance(&h);
    bench_e2e(&h);
    bench_e2e_telemetry(&h);
    bench_fleet_e2e(&h);
    bench_serve_in_process(&h);
    bench_serve_loopback(&h);
    bench_trace_codec(&h);
    bench_figures(&h);
    h.finish().expect("write bench report");
}
