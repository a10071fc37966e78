//! `paper_light`: single-server GE on the paper's §IV-B platform.
//!
//! 16 cores, 320 W, `Q_GE` 0.9; Poisson arrivals at 150 req/s (just
//! under the 154 req/s critical load) with bounded-Pareto demand over
//! the paper's 600 s horizon — about 90k jobs. GE spends most of the run
//! in AES mode, so LF-cut, equal-share power and replan-cache hits carry
//! the work. Driven through `ge_core::run_scheduler_with_sink` with a
//! benchmark-owned `GeScheduler`, so the replan statistics are exact.

use crate::profile::Profile;
use crate::report::Report;
use crate::sim::{Rep, Sim};
use crate::sink::CountingSink;
use ge_core::ge::{GeOptions, ReplanStats};
use ge_core::{run_scheduler_with_sink, GeScheduler, SimConfig};
use ge_telemetry::SpanGuard;
use ge_trace::{TraceEvent, TraceSink};
use ge_workload::{Trace, WorkloadConfig, WorkloadGenerator};
use std::hint::black_box;
use std::time::Instant;

/// Offered load, requests per second.
pub const RATE_RPS: f64 = 150.0;

/// The paper's workload at [`RATE_RPS`] over 600 s, from `seed`.
pub fn generate(seed: u64) -> Trace {
    WorkloadGenerator::new(WorkloadConfig::paper_default(RATE_RPS), seed).generate()
}

pub struct PaperLight {
    seed: u64,
    cfg: SimConfig,
    epochs: u64,
    stats: ReplanStats,
}

impl PaperLight {
    pub fn new(seed: u64) -> Self {
        PaperLight {
            seed,
            cfg: SimConfig::paper_default(),
            epochs: 0,
            stats: ReplanStats::default(),
        }
    }
}

impl Sim for PaperLight {
    fn rep(&mut self, sink: &mut dyn TraceSink) -> Rep {
        let _root = SpanGuard::enter("bench_paper_light");
        let t0 = Instant::now();
        let (trace, mut sched, gen) = {
            let _setup = SpanGuard::enter("bench_setup");
            let trace = {
                let _gen = SpanGuard::enter("bench_workload_gen");
                generate(self.seed)
            };
            let gen = t0.elapsed();
            (trace, GeScheduler::new(&self.cfg, GeOptions::paper()), gen)
        };
        let setup = t0.elapsed();
        let t1 = Instant::now();
        let result = {
            let _run = SpanGuard::enter("bench_run_scheduler");
            run_scheduler_with_sink(&self.cfg, black_box(&trace), &mut sched, None, sink)
        };
        let run = t1.elapsed();
        self.epochs = sched.epochs();
        self.stats = sched.replan_stats();
        Rep {
            gen,
            setup,
            run,
            jobs: trace.len() as u64,
            quality: black_box(result.quality),
            energy_j: result.energy_j,
        }
    }

    fn replay(&self, events: &[TraceEvent], report: &mut Report) {
        match ge_trace::replay(events) {
            Ok(r) => {
                for issue in &r.issues {
                    println!("  replay issue: {issue}");
                }
                report.check(
                    format!("ge_trace::replay over {} events is clean", r.events),
                    r.is_ok(),
                );
            }
            Err(e) => report.check(format!("ge_trace::replay failed: {e}"), false),
        }
    }

    fn layer_metrics(&self, p: &Profile, c: &CountingSink, report: &mut Report) {
        let s = &self.stats;
        let looked_at = s.cores_skipped + s.cores_replanned;
        report.set("core.epochs", self.epochs as f64);
        report.check(
            "ge_on_schedule spans count every epoch",
            p.calls_per_run("ge_on_schedule") == self.epochs as f64,
        );
        report.set(
            "core.on_schedule_us",
            p.mean_self_ns("ge_on_schedule") / 1e3,
        );
        report.set("core.on_schedule_share", p.self_share("ge_on_schedule"));
        report.set(
            "core.replan_hit_ratio",
            s.cores_skipped as f64 / looked_at.max(1) as f64,
        );
        report.set("core.dirty_capped", s.dirty_capped as f64);
        report.set("core.engine_advance_share", p.self_share("engine_advance"));
        crate::kernel_metrics(p, report);
        report.set("quality.second_cuts", c.count("second_cut") as f64);
        report.set("power.wf_epoch_frac", c.water_filling_frac());
        report.set("server.exec_slices", c.count("exec_slice") as f64);
        report.set("server.assignments", c.count("job_assigned") as f64);
        crate::not_exercised(report, "fleet.");
        crate::not_exercised(report, "serve.");
    }
}
