//! The differential runner: every algorithm against the oracle, across
//! thousands of generated tiny instances.
//!
//! Each instance draws a handful of jobs and a small platform
//! configuration from a seeded stream, then checks four independent
//! layers against `ge-oracle` ground truth:
//!
//! 1. **Energy-OPT kernel** — `yds_schedule_with` output must pass the
//!    KKT/critical-interval certificate *and* match the brute-force
//!    minimum energy;
//! 2. **Quality-OPT kernel** — `lf_cut_with` must hit `Q_GE` with the
//!    brute-force minimal volume (1e-9 relative), and the memoized
//!    inverse must agree with the oracle's bisection inverse;
//! 3. **Whole runs** — every algorithm in
//!    [`Algorithm::differential_set`] must report energy at or above the
//!    clairvoyant lower bound for the quality it achieved, with sane
//!    accounting — including under injected fault schedules (outage +
//!    throttle + DVFS error);
//! 4. **Checkpoint/resume** — a run stopped at a checkpoint and resumed
//!    must produce bit-identical measurements, so the oracle's verdict is
//!    identical pre- and post-resume.
//!
//! A disagreement is a one-line description naming the instance seed, so
//! any hit replays directly. The CLI (`ge-experiments --differential
//! --instances N`) exits non-zero on any disagreement; `verify.sh` runs a
//! bounded smoke of it.

use std::path::Path;

use ge_core::{
    run, run_with_sink, Algorithm, CheckpointPolicy, DriveOutcome, Run, RunResult, SimConfig,
};
use ge_faults::{CoreOutage, DvfsWindow, FaultSchedule, ThrottleWindow};
use ge_oracle::{
    brute_force_min_energy, certify_cut, certify_yds, energy_lower_bound, oracle_inverse,
    LowerBoundInputs,
};
use ge_power::{yds_schedule_with, PolynomialPower, YdsJob, YdsScratch};
use ge_quality::{lf_cut_with, CutOutcome, CutScratch, ExpConcave, InverseMemo, QualityFunction};
use ge_simcore::{RngStream, SimDuration, SimTime};
use ge_trace::NullSink;
use ge_workload::{Job, JobId, Trace};

/// Relative tolerance for YDS-vs-brute-force energy agreement.
const ENERGY_RTOL: f64 = 1e-6;
/// Relative slack granted to measured energy against the lower bound
/// (meter round-off; the bound itself already takes a quality haircut).
const BOUND_RTOL: f64 = 1e-9;

/// Outcome of a differential sweep.
#[derive(Debug, Clone, Default)]
pub struct DifferentialReport {
    /// Instances generated.
    pub instances: u64,
    /// YDS schedules certified (KKT + brute-force energy).
    pub yds_checked: u64,
    /// LF cuts certified against the brute-force optimum.
    pub cuts_checked: u64,
    /// `(algorithm, instance)` runs checked against the energy bound.
    pub runs_checked: u64,
    /// Runs re-checked under an injected fault schedule.
    pub fault_runs_checked: u64,
    /// Checkpoint/resume verdict-equality checks performed.
    pub resume_checked: u64,
    /// Human-readable disagreement descriptions (empty on success).
    pub disagreements: Vec<String>,
}

impl DifferentialReport {
    /// `true` when the sweep found no disagreement.
    pub fn clean(&self) -> bool {
        self.disagreements.is_empty()
    }
}

impl std::fmt::Display for DifferentialReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "differential: {} instances | {} yds certs | {} cut certs | {} runs | \
             {} faulted runs | {} resume checks",
            self.instances,
            self.yds_checked,
            self.cuts_checked,
            self.runs_checked,
            self.fault_runs_checked,
            self.resume_checked
        )?;
        if self.clean() {
            write!(f, "disagreements: none")
        } else {
            writeln!(f, "disagreements: {}", self.disagreements.len())?;
            for d in &self.disagreements {
                writeln!(f, "  - {d}")?;
            }
            Ok(())
        }
    }
}

/// One generated tiny instance: a platform config and its release-ordered
/// trace.
struct TinyCase {
    cfg: SimConfig,
    trace: Trace,
    q_ge: f64,
}

fn generate_case(rng: &mut RngStream) -> TinyCase {
    let cores = 1 + rng.next_below(3) as usize; // 1..=3
    let n_jobs = 1 + rng.next_below(6) as usize; // 1..=6
    let q_ge = match rng.next_below(8) {
        0 => 1.0, // exercise the degenerate no-cut target
        1 => 0.999,
        _ => rng.uniform_range(0.7, 0.98),
    };
    let mut jobs: Vec<(f64, f64, f64)> = (0..n_jobs)
        .map(|_| {
            let release = rng.uniform_range(0.0, 2.5);
            let window = rng.uniform_range(0.08, 1.8);
            let demand = rng.uniform_range(1.0, 1000.0);
            (release, release + window, demand)
        })
        .collect();
    jobs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let trace = Trace::new(
        jobs.iter()
            .enumerate()
            .map(|(i, &(r, d, p))| {
                Job::new(
                    JobId(i as u64),
                    SimTime::from_secs(r),
                    SimTime::from_secs(d),
                    p,
                )
            })
            .collect(),
    );
    let mut cfg = SimConfig::paper_default();
    cfg.cores = cores;
    cfg.budget_w = 20.0 * cores as f64 * rng.uniform_range(0.6, 1.4);
    cfg.q_ge = q_ge;
    cfg.quantum = SimDuration::from_millis(250.0);
    cfg.horizon = SimTime::from_secs(5.0);
    TinyCase { cfg, trace, q_ge }
}

/// A small deterministic fault schedule for the case: one recoverable
/// outage (multicore cases only), one throttle window, one DVFS error
/// window. No surges or demand noise — those change the job set or the
/// estimates, which the whole-run oracle accounting deliberately pins.
fn fault_schedule_for(case: &TinyCase, seed: u64) -> FaultSchedule {
    let mut sched = FaultSchedule::new(seed)
        .with_throttle(ThrottleWindow {
            start: SimTime::from_secs(1.0),
            end: SimTime::from_secs(2.5),
            factor: 0.6,
        })
        .with_dvfs(DvfsWindow {
            core: 0,
            start: SimTime::from_secs(0.5),
            end: SimTime::from_secs(3.5),
            factor: if seed % 2 == 0 { 0.8 } else { 1.2 },
        });
    if case.cfg.cores >= 2 {
        sched = sched.with_outage(CoreOutage {
            core: case.cfg.cores - 1,
            start: SimTime::from_secs(0.75),
            end: Some(SimTime::from_secs(2.0)),
        });
    }
    sched
}

/// The clairvoyant lower bound for one finished run of `case`.
fn bound_for(case: &TinyCase, result: &RunResult) -> f64 {
    let f = ExpConcave::new(case.cfg.quality_c, case.cfg.quality_xmax);
    let model = PolynomialPower::new(case.cfg.power_a, case.cfg.power_beta);
    let demands: Vec<f64> = case.trace.jobs().iter().map(|j| j.demand).collect();
    let span = case
        .trace
        .last_deadline()
        .as_secs()
        .max(case.cfg.horizon.as_secs());
    let inputs = LowerBoundInputs {
        demands: &demands,
        span_secs: span,
        cores: case.cfg.cores,
        units_per_ghz_sec: case.cfg.units_per_ghz_sec,
    };
    energy_lower_bound(&f, &model, &inputs, result.quality)
}

fn check_bound(
    case: &TinyCase,
    label: &str,
    instance: u64,
    seed: u64,
    result: &RunResult,
    disagreements: &mut Vec<String>,
) {
    let bound = bound_for(case, result);
    if result.energy_j + BOUND_RTOL * bound.max(1.0) < bound {
        disagreements.push(format!(
            "instance {instance} (seed {seed}): {label} energy {:.9} J beats the clairvoyant \
             lower bound {bound:.9} J at quality {:.9}",
            result.energy_j, result.quality
        ));
    }
    if !(0.0..=1.0 + 1e-9).contains(&result.quality) {
        disagreements.push(format!(
            "instance {instance} (seed {seed}): {label} reported quality {} outside [0, 1]",
            result.quality
        ));
    }
    let terminal = result.jobs_finished + result.jobs_discarded;
    if terminal > 0 && result.jobs_completed_fully > terminal {
        disagreements.push(format!(
            "instance {instance} (seed {seed}): {label} accounting: {} fully-completed out of \
             {terminal} terminal jobs",
            result.jobs_completed_fully
        ));
    }
}

/// Runs the differential sweep: `instances` generated tiny cases, all
/// checks, deterministic in `seed`. `scratch_dir` holds the checkpoint
/// files of the resume checks (created if missing; files are removed
/// after use).
pub fn run_differential(instances: u64, seed: u64, scratch_dir: &Path) -> DifferentialReport {
    let mut report = DifferentialReport::default();
    let root = RngStream::from_root(seed, "differential");
    let f = ExpConcave::paper_default();
    let model = PolynomialPower::paper_default();
    let mut yds_scratch = YdsScratch::new();
    let mut cut_scratch = CutScratch::new();
    let mut cut_out = CutOutcome::empty();
    let mut memo = InverseMemo::new();
    let algorithms = Algorithm::differential_set();

    for i in 0..instances {
        let mut rng = root.substream(i);
        let case = generate_case(&mut rng);
        report.instances += 1;

        // -- 1. Energy-OPT kernel ------------------------------------
        // The instance's jobs as one single-core YDS problem (work in
        // GHz-seconds at the platform's conversion rate).
        let yds_jobs: Vec<YdsJob> = case
            .trace
            .jobs()
            .iter()
            .map(|j| {
                YdsJob::new(
                    j.id.index(),
                    j.release.as_secs(),
                    j.deadline.as_secs(),
                    j.demand / case.cfg.units_per_ghz_sec,
                )
            })
            .collect();
        let plan = yds_schedule_with(&yds_jobs, &mut yds_scratch);
        match certify_yds(&yds_jobs, &plan) {
            Ok(_) => {
                let bf = brute_force_min_energy(&yds_jobs, &model, 600);
                let e = plan.energy(&model);
                if (e - bf.energy_j).abs() > ENERGY_RTOL * bf.energy_j.max(1e-12) {
                    report.disagreements.push(format!(
                        "instance {i} (seed {seed}): yds energy {e:.12} J != brute force \
                         {:.12} J",
                        bf.energy_j
                    ));
                }
            }
            Err(err) => {
                report.disagreements.push(format!(
                    "instance {i} (seed {seed}): yds certificate: {err}"
                ));
            }
        }
        report.yds_checked += 1;

        // -- 2. Quality-OPT kernel -----------------------------------
        let demands: Vec<f64> = case.trace.jobs().iter().map(|j| j.demand).collect();
        lf_cut_with(&f, &demands, case.q_ge, &mut cut_scratch, &mut cut_out);
        if let Err(err) = certify_cut(&f, &demands, case.q_ge, &cut_out) {
            report.disagreements.push(format!(
                "instance {i} (seed {seed}): cut certificate: {err}"
            ));
        }
        report.cuts_checked += 1;

        // Memoized inverse vs the oracle's value-only bisection.
        let q_probe = rng.uniform_range(0.0, 1.0);
        let memoized = memo.inverse(&f, q_probe);
        let oracled = oracle_inverse(&f, q_probe);
        if (memoized - oracled).abs() > 1e-6 * f.x_max() {
            report.disagreements.push(format!(
                "instance {i} (seed {seed}): inverse({q_probe}) memo {memoized} != oracle \
                 {oracled}"
            ));
        }

        // -- 3. Whole runs against the clairvoyant bound --------------
        for alg in &algorithms {
            let result = run(&case.cfg, &case.trace, alg);
            check_bound(
                &case,
                alg.label(),
                i,
                seed,
                &result,
                &mut report.disagreements,
            );
            report.runs_checked += 1;
        }

        // Faulted runs: a subset of algorithms, every fifth instance.
        if i % 5 == 0 {
            let faults = fault_schedule_for(&case, seed ^ i);
            for alg in [Algorithm::Ge, Algorithm::Be, Algorithm::Fcfs] {
                let result =
                    run_with_sink(&case.cfg, &case.trace, &alg, Some(&faults), &mut NullSink);
                check_bound(
                    &case,
                    &format!("{} (faulted)", alg.label()),
                    i,
                    seed,
                    &result,
                    &mut report.disagreements,
                );
                report.fault_runs_checked += 1;
            }
        }

        // -- 4. Checkpoint/resume verdict equality --------------------
        if i % 7 == 0 {
            resume_check(&case, i, seed, scratch_dir, &mut report);
        }
    }
    report
}

/// Stops a GE run at its first checkpoint, resumes it, and requires the
/// resumed measurements to be bit-identical to an uninterrupted run's —
/// so every oracle verdict is identical pre- and post-resume.
fn resume_check(
    case: &TinyCase,
    instance: u64,
    seed: u64,
    scratch_dir: &Path,
    report: &mut DifferentialReport,
) {
    if let Err(e) = std::fs::create_dir_all(scratch_dir) {
        report.disagreements.push(format!(
            "instance {instance} (seed {seed}): cannot create resume scratch dir: {e}"
        ));
        return;
    }
    let path = scratch_dir.join(format!("differential-{seed}-{instance}.ckpt"));
    let mut policy = CheckpointPolicy::new(&path, 2);
    policy.stop_after = Some(1);
    let faults = fault_schedule_for(case, seed ^ instance);
    let faults_opt = if instance % 2 == 0 {
        Some(&faults)
    } else {
        None
    };
    let alg = Algorithm::Ge;
    let straight = run_resume_free(case, &alg, faults_opt);

    let stopped = Run::start(&case.cfg, &case.trace, &alg, faults_opt, &mut NullSink)
        .drive(&policy, &mut NullSink);
    let resumed = match stopped {
        Ok(DriveOutcome::Stopped { .. }) => {
            let mut cont = policy.clone();
            cont.stop_after = None;
            Run::restore_file(&case.cfg, &case.trace, &alg, faults_opt, &path)
                .and_then(|run| run.drive(&cont, &mut NullSink))
        }
        finished => finished,
    };
    let _ = std::fs::remove_file(&path);
    match resumed {
        Ok(DriveOutcome::Finished(r)) => {
            report.resume_checked += 1;
            let same = r.energy_j.to_bits() == straight.energy_j.to_bits()
                && r.quality.to_bits() == straight.quality.to_bits()
                && r.jobs_finished == straight.jobs_finished
                && r.jobs_shed == straight.jobs_shed;
            if !same {
                report.disagreements.push(format!(
                    "instance {instance} (seed {seed}): resumed run diverged: energy \
                     {:.12}/{:.12}, quality {:.12}/{:.12}",
                    r.energy_j, straight.energy_j, r.quality, straight.quality
                ));
                return;
            }
            // Identical bits => identical oracle verdict; still evaluate
            // both sides so a bound violation surfaces under its own name.
            check_bound(
                case,
                "GE (resumed)",
                instance,
                seed,
                &r,
                &mut report.disagreements,
            );
            check_bound(
                case,
                "GE (straight)",
                instance,
                seed,
                &straight,
                &mut report.disagreements,
            );
        }
        Ok(DriveOutcome::Stopped { .. }) => {
            report.disagreements.push(format!(
                "instance {instance} (seed {seed}): resumed run stopped again unexpectedly"
            ));
        }
        Err(e) => {
            report.disagreements.push(format!(
                "instance {instance} (seed {seed}): checkpoint/resume failed: {e}"
            ));
        }
    }
}

/// An uninterrupted reference run with the same fault wiring as the
/// resumable path.
fn run_resume_free(case: &TinyCase, alg: &Algorithm, faults: Option<&FaultSchedule>) -> RunResult {
    run_with_sink(&case.cfg, &case.trace, alg, faults, &mut NullSink)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweep_is_clean_and_deterministic() {
        let dir = std::env::temp_dir().join("ge-differential-test");
        let a = run_differential(24, 7, &dir);
        assert!(a.clean(), "{a}");
        assert_eq!(a.instances, 24);
        assert!(a.yds_checked == 24 && a.cuts_checked == 24);
        assert!(a.runs_checked >= 24 * 11);
        assert!(a.fault_runs_checked >= 3);
        assert!(a.resume_checked >= 1);
        let b = run_differential(24, 7, &dir);
        assert_eq!(a.disagreements, b.disagreements);
        assert_eq!(a.runs_checked, b.runs_checked);
    }

    #[test]
    fn report_formats_counts() {
        let r = DifferentialReport {
            instances: 3,
            ..Default::default()
        };
        let s = format!("{r}");
        assert!(s.contains("3 instances"));
        assert!(s.contains("disagreements: none"));
    }
}
