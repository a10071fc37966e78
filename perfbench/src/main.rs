//! `ge-perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! ge-perfbench --workload <paper_light|fleet_crash|serve_wire> --seed <n>
//!              --seconds <s> --trace <0|1>
//! ge-perfbench --spec            # print BENCHMARK.json
//! ```
//!
//! Every workload's inputs are generated here from `--seed`; the layers
//! under test see only those inputs, through their public API. With
//! `--trace 0` the run reports the end-to-end metrics (tracing off);
//! with `--trace 1` it reports the per-layer metrics from a traced run.
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the exit code is non-zero when
//! any correctness check failed. `perfbench/run.py` builds and runs this
//! binary; `perfbench/METRICS.md` documents every metric.

mod fleet_crash;
mod paper_light;
mod profile;
mod report;
mod serve_wire;
mod sim;
mod sink;
mod spec;
mod stats;
mod sys;

use ge_telemetry::Telemetry;
use profile::Profile;
use report::{Report, NOT_OBSERVABLE};
use std::process::ExitCode;

/// Sets the kernel-span metrics shared by every workload: LF-cut and YDS
/// calls per run, mean nanoseconds per call, and self-time shares.
fn kernel_metrics(p: &Profile, report: &mut Report) {
    report.set("quality.lf_cut_calls", p.calls_per_run("lf_cut"));
    report.set("quality.lf_cut_ns", p.mean_self_ns("lf_cut"));
    report.set("quality.lf_cut_share", p.self_share("lf_cut"));
    report.set("power.yds_calls", p.calls_per_run("yds_schedule"));
    report.set("power.yds_ns", p.mean_self_ns("yds_schedule"));
    report.set("power.yds_share", p.self_share("yds_schedule"));
}

/// Sets the ge-core, ge-quality, ge-power and ge-server metrics of a
/// workload whose engines the benchmark cannot reach: epochs and kernel
/// figures from the spans, replan-cache figures from the `ge_replan_*`
/// registry gauges (last-write: the engine that planned last), and
/// engine-level event counts as [`NOT_OBSERVABLE`].
fn engine_metrics_from_registry(p: &Profile, report: &mut Report) {
    let snap = Telemetry::registry().snapshot();
    let gauge = |name: &str| snap.gauge(name).unwrap_or(0.0);
    let skipped = gauge("ge_replan_cores_skipped");
    let replanned = gauge("ge_replan_cores_replanned");
    report.set("core.epochs", p.calls_per_run("ge_on_schedule"));
    report.set(
        "core.on_schedule_us",
        p.mean_self_ns("ge_on_schedule") / 1e3,
    );
    report.set("core.on_schedule_share", p.self_share("ge_on_schedule"));
    report.set(
        "core.replan_hit_ratio",
        skipped / (skipped + replanned).max(1.0),
    );
    report.set("core.dirty_capped", gauge("ge_replan_dirty_capped"));
    report.set("core.engine_advance_share", p.self_share("engine_advance"));
    kernel_metrics(p, report);
    for name in [
        "quality.second_cuts",
        "power.wf_epoch_frac",
        "server.exec_slices",
        "server.assignments",
    ] {
        report.set(name, NOT_OBSERVABLE);
    }
}

/// Sets every per-layer metric under `prefix` to 0: the workload never
/// enters that layer.
fn not_exercised(report: &mut Report, prefix: &str) {
    for m in spec::PER_LAYER
        .iter()
        .filter(|m| m.name.starts_with(prefix))
    {
        report.set(m.name, 0.0);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(f64::from(spec::RUN_SECONDS)),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("--spec") {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ge-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = spec::WORKLOADS.iter().find(|w| w.name == args.workload) else {
        eprintln!("ge-perfbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    println!(
        "workload {} seed {} seconds {} trace {} (available parallelism {})",
        workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut report = Report::new(workload.name);
    match workload.name {
        "paper_light" => sim::measure(
            &mut paper_light::PaperLight::new(args.seed),
            args.seconds,
            args.trace,
            &mut report,
        ),
        "fleet_crash" => sim::measure(
            &mut fleet_crash::FleetCrash::new(args.seed),
            args.seconds,
            args.trace,
            &mut report,
        ),
        _ => serve_wire::measure(args.seed, args.seconds, args.trace, &mut report),
    }
    report.print_metrics(args.trace);
    println!("{}", report.final_line(args.trace));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
