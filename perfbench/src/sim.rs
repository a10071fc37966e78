//! The measuring loop shared by the two simulation workloads.
//!
//! One repetition sets the workload up from its seed (generate the
//! trace, build the engines) and runs it to the horizon. The loop runs
//! an untimed warm-up repetition, then repeats until the time budget is
//! spent. Untraced mode probes the host's speed after each repetition
//! and reports the end-to-end metrics, host times read at the fastest
//! decile of the repetitions and scaled by the probes; traced mode
//! alternates untraced and traced repetitions (spans on) for the span
//! shares and the tracing overhead, then runs one repetition into the
//! counting sink and one that also keeps the events for the `ge-trace`
//! replay checker.

use crate::profile::{self, Profile, SHARE_SUM_TOLERANCE};
use crate::report::Report;
use crate::sink::CountingSink;
use crate::stats::{fast_time, median};
use crate::sys::{peak_rss_mb, HostSpeed};
use ge_trace::{NullSink, TraceEvent, TraceSink};
use std::time::{Duration, Instant};

/// What one repetition measured and produced.
#[derive(Debug, Clone, Copy)]
pub struct Rep {
    pub gen: Duration,
    pub setup: Duration,
    pub run: Duration,
    pub jobs: u64,
    pub quality: f64,
    pub energy_j: f64,
}

impl Rep {
    fn total(&self) -> Duration {
        self.setup + self.run
    }

    fn same_result(&self, other: &Rep) -> bool {
        self.jobs == other.jobs
            && self.quality.to_bits() == other.quality.to_bits()
            && self.energy_j.to_bits() == other.energy_j.to_bits()
    }
}

/// A simulation workload the loop can drive.
pub trait Sim {
    /// One repetition from scratch, streaming events into `sink`.
    fn rep(&mut self, sink: &mut dyn TraceSink) -> Rep;
    /// Runs the workload's replay checker over a retained event stream.
    fn replay(&self, events: &[TraceEvent], report: &mut Report);
    /// Sets the workload's per-layer metrics from the traced repetitions.
    fn layer_metrics(&self, profile: &Profile, counts: &CountingSink, report: &mut Report);
}

/// Fewest measured repetitions per run, whatever the time budget.
const MIN_REPS: usize = 3;
/// Fewest untraced/traced pairs in a traced run.
const MIN_TRACED_REPS: usize = 2;

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn durations(reps: &[Rep], f: impl Fn(&Rep) -> Duration) -> Vec<f64> {
    reps.iter().map(|r| secs(f(r))).collect()
}

pub fn measure(sim: &mut dyn Sim, seconds: f64, trace: bool, report: &mut Report) {
    let reference = sim.rep(&mut NullSink);
    // The memory high-water mark of one full repetition; later ones
    // repeat the same work in the same thread.
    let rss_mb = peak_rss_mb();
    println!(
        "{}: {} jobs, quality {:.6}, energy {:.3} J (warm-up)",
        report.workload, reference.jobs, reference.quality, reference.energy_j
    );
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut traced_walls = Vec::new();
    if trace {
        profile::reset();
    }
    let min_reps = if trace { MIN_TRACED_REPS } else { MIN_REPS };
    let mut host = HostSpeed::default();
    while untraced.len() < min_reps || Instant::now() < deadline {
        untraced.push(sim.rep(&mut NullSink));
        if trace {
            let (rep, wall) = profile::traced(|| sim.rep(&mut NullSink));
            traced.push(rep);
            traced_walls.push(wall);
        } else {
            host.sample();
        }
    }
    let all = untraced.iter().chain(&traced);
    let bad = all.clone().filter(|r| !r.same_result(&reference)).count() as u64;
    report.attempted = all.count() as u64;
    report.failed = bad;
    report.check(
        format!(
            "quality and energy bit-identical across {} repetitions",
            report.attempted
        ),
        bad == 0,
    );

    if !trace {
        let jobs = reference.jobs as f64;
        let total = durations(&untraced, Rep::total);
        let run = durations(&untraced, |r| r.run);
        report.set("setup_s", host.scaled(&durations(&untraced, |r| r.setup)));
        report.set("sim_jobs_per_s", jobs / host.scaled(&run));
        report.set("peak_rss_mb", rss_mb);
        report.set("quality", reference.quality);
        report.set("energy_j_per_job", reference.energy_j / jobs);
        report.set("reply_p50_ms", 1e3 * host.scaled(&total));
        println!(
            "{}: {} untraced repetitions, run fastest decile {:.4} s, median {:.4} s",
            report.workload,
            untraced.len(),
            fast_time(&run).unwrap_or(f64::NAN),
            median(&run).unwrap_or(f64::NAN)
        );
        println!("{}: {}", report.workload, host.describe());
        return;
    }

    let wall: Duration = traced_walls.iter().sum();
    let prof = Profile::collect(wall, traced.len() as u64);
    print!("{}", prof.render());

    // Two more repetitions of the seed, one counting events and one also
    // keeping them for the replay checker: results and counts must match.
    let mut counts = CountingSink::new();
    let counted = sim.rep(&mut counts);
    let mut keep = CountingSink::retaining();
    let replayed = sim.rep(&mut keep);
    report.check(
        "counting and replay repetitions reproduce the result bit for bit",
        counted.same_result(&reference) && replayed.same_result(&reference),
    );
    report.check(
        "per-kind event counts repeat exactly across two repetitions",
        keep.ledger() == counts.ledger(),
    );
    sim.replay(keep.events(), report);
    drop(keep);

    let overhead = median(&traced_walls.iter().map(|w| secs(*w)).collect::<Vec<_>>())
        .zip(median(&durations(&untraced, Rep::total)))
        .map_or(f64::NAN, |(t, u)| t / u - 1.0);
    report.set("telemetry.overhead", overhead);
    report.set("telemetry.unattributed_share", prof.unattributed_share());
    report.set("telemetry.share_sum_err", prof.share_sum_err());
    report.check(
        format!(
            "span self-time shares + unattributed sum to the traced wall time within {SHARE_SUM_TOLERANCE}"
        ),
        prof.share_sum_err() <= SHARE_SUM_TOLERANCE,
    );
    report.set(
        "workload.gen_s",
        median(&durations(&untraced, |r| r.gen)).unwrap_or(f64::NAN),
    );
    for (kind, n) in counts.ledger() {
        println!("  count {kind:<28} {n}");
    }
    sim.layer_metrics(&prof, &counts, report);
}
