//! The scheduler benchmark report behind `BENCH_sched.json`.
//!
//! One target collecting everything the incremental-replanning work is
//! measured by: the per-epoch kernels (LF cut, YDS, inversion — with and
//! without scratch/memo reuse), the server's share of one engine event,
//! end-to-end GE runs with the dirty-bit path on and forced off, and
//! representative figure pipelines at [`Scale::bench`]. Run with
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
use ge_core::run_scheduler_with_sink;
use ge_experiments::{figures, Scale};
use ge_power::{
    yds_schedule, yds_schedule_with, PolynomialPower, SpeedProfile, YdsJob, YdsScratch,
};
use ge_quality::{lf_cut, lf_cut_with, CutOutcome, CutScratch, ExpConcave, QualityFunction};
use ge_server::Server;
use ge_simcore::{RngStream, SimDuration, SimTime};
use ge_trace::NullSink;
use ge_workload::{BoundedPareto, Job, JobId, Sampler, UNITS_PER_GHZ_SEC};

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

/// YDS: fresh allocations per call vs scratch reuse.
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

/// The same end-to-end GE run with the telemetry layer armed vs dark —
/// the observability tentpole's overhead budget (< 2%) is checked by
/// `scripts/verify.sh` against this pair. Each armed run pays the full
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

/// Representative figure pipelines (workload → sweep → tables).
fn bench_figures(h: &Harness) {
    let scale = Scale::bench();
    h.bench("figures/fig01_aes_residency", || {
        figures::fig01::run(&scale)
    });
    h.bench("figures/fig08_control_policies", || {
        figures::fig08::run(&scale)
    });
}

fn main() {
    let h = Harness::from_args();
    bench_lf_cut(&h);
    bench_yds(&h);
    bench_inverse(&h);
    bench_server_advance(&h);
    bench_e2e(&h);
    bench_e2e_telemetry(&h);
    bench_figures(&h);
    h.finish().expect("write bench report");
}
