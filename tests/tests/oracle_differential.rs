//! The differential oracle, exercised from the integration suite: the
//! production kernels and whole runs against `ge-oracle` ground truth on
//! harness-generated tiny instances, metamorphic relations the physics
//! dictates, and — with the `mutation` feature — proof that a broken
//! scheduler is caught with a shrunk counterexample of a handful of jobs.

use ge_core::{run, run_with_sink, Algorithm, CheckpointPolicy, DriveOutcome, Run, SimConfig};
use ge_faults::{CoreOutage, FaultSchedule, ThrottleWindow};
use ge_integration_tests::prop::{check, find_failure, PropConfig, Shrink, TinyInstance};
use ge_oracle::{
    brute_force_min_energy, certify_cut, certify_yds, energy_lower_bound, LowerBoundInputs,
};
use ge_power::{distribute_water_filling, yds_schedule_with, PolynomialPower, YdsJob, YdsScratch};
use ge_quality::{lf_cut, ExpConcave};
use ge_simcore::{SimDuration, SimTime};
use ge_trace::NullSink;
use ge_workload::{Job, Trace, WorkloadConfig, WorkloadGenerator};

/// The instance's jobs as a single-core YDS problem in GHz-seconds.
fn yds_jobs(inst: &TinyInstance, units_per_ghz_sec: f64) -> Vec<YdsJob> {
    inst.jobs
        .iter()
        .enumerate()
        .map(|(i, j)| YdsJob::new(i, j.release, j.deadline, j.demand / units_per_ghz_sec))
        .collect()
}

fn tiny_cfg(cores: usize, q_ge: f64) -> SimConfig {
    SimConfig {
        cores,
        budget_w: 30.0 * cores as f64,
        q_ge,
        quantum: SimDuration::from_millis(250.0),
        horizon: SimTime::from_secs(5.0),
        ..SimConfig::paper_default()
    }
}

/// The clairvoyant Jensen bound for a finished run of `inst` under `cfg`.
fn lower_bound(inst: &TinyInstance, cfg: &SimConfig, achieved_quality: f64) -> f64 {
    let f = ExpConcave::new(cfg.quality_c, cfg.quality_xmax);
    let model = PolynomialPower::new(cfg.power_a, cfg.power_beta);
    let demands = inst.demands();
    let span = inst
        .jobs
        .iter()
        .map(|j| j.deadline)
        .fold(cfg.horizon.as_secs(), f64::max);
    energy_lower_bound(
        &f,
        &model,
        &LowerBoundInputs {
            demands: &demands,
            span_secs: span,
            cores: cfg.cores,
            units_per_ghz_sec: cfg.units_per_ghz_sec,
        },
        achieved_quality,
    )
}

#[test]
fn production_yds_passes_the_kkt_certificate() {
    let model = PolynomialPower::paper_default();
    check(
        "yds passes KKT certificate and matches brute force",
        &PropConfig::cases(128),
        |rng| TinyInstance::arbitrary(rng, 5),
        move |inst| {
            let jobs = yds_jobs(inst, 1000.0);
            let plan = yds_schedule_with(&jobs, &mut YdsScratch::new());
            let cert = certify_yds(&jobs, &plan).map_err(|e| format!("certificate: {e}"))?;
            let bf = brute_force_min_energy(&jobs, &model, 600);
            let e = plan.energy(&model);
            if (e - bf.energy_j).abs() > 1e-6 * bf.energy_j.max(1e-12) {
                return Err(format!(
                    "yds energy {e} != brute force {} (certified volume {})",
                    bf.energy_j, cert.volume
                ));
            }
            Ok(())
        },
    );
}

#[test]
fn production_cut_passes_the_optimality_certificate() {
    let f = ExpConcave::paper_default();
    check(
        "lf_cut hits Q_GE with brute-force-minimal volume",
        &PropConfig::cases(192),
        |rng| {
            let q_ge = match rng.next_below(6) {
                0 => 1.0,
                1 => 0.999,
                _ => rng.uniform_range(0.6, 0.98),
            };
            (TinyInstance::arbitrary(rng, 6), q_ge)
        },
        move |(inst, q_ge)| {
            let demands = inst.demands();
            let outcome = lf_cut(&f, &demands, *q_ge);
            certify_cut(&f, &demands, *q_ge, &outcome)
                .map(|_| ())
                .map_err(|e| format!("q_ge={q_ge}: {e}"))
        },
    );
}

#[test]
fn no_algorithm_beats_the_clairvoyant_bound() {
    let algorithms = Algorithm::differential_set();
    check(
        "no algorithm beats the clairvoyant energy bound",
        &PropConfig::cases(48),
        |rng| {
            let cores = 1 + rng.next_below(3) as usize;
            (TinyInstance::arbitrary(rng, 6), cores)
        },
        move |(inst, cores)| {
            let cfg = tiny_cfg(*cores, 0.9);
            let trace = inst.to_trace();
            for alg in &algorithms {
                let r = run(&cfg, &trace, alg);
                let bound = lower_bound(inst, &cfg, r.quality);
                if r.energy_j + 1e-9 * bound.max(1.0) < bound {
                    return Err(format!(
                        "{}: energy {} J beats the bound {} J at quality {}",
                        alg.label(),
                        r.energy_j,
                        bound,
                        r.quality
                    ));
                }
            }
            Ok(())
        },
    );
}

#[test]
fn bound_holds_under_fault_schedules() {
    check(
        "faulted runs still dominate the bound",
        &PropConfig::cases(32),
        |rng| TinyInstance::arbitrary(rng, 5),
        |inst| {
            let cfg = tiny_cfg(2, 0.9);
            let trace = inst.to_trace();
            let faults = FaultSchedule::new(17)
                .with_outage(CoreOutage {
                    core: 1,
                    start: SimTime::from_secs(0.5),
                    end: Some(SimTime::from_secs(2.0)),
                })
                .with_throttle(ThrottleWindow {
                    start: SimTime::from_secs(1.0),
                    end: SimTime::from_secs(3.0),
                    factor: 0.5,
                });
            for alg in [Algorithm::Ge, Algorithm::Be] {
                let r = run_with_sink(&cfg, &trace, &alg, Some(&faults), &mut NullSink);
                let bound = lower_bound(inst, &cfg, r.quality);
                if r.energy_j + 1e-9 * bound.max(1.0) < bound {
                    return Err(format!(
                        "{} under faults: energy {} J beats the bound {} J",
                        alg.label(),
                        r.energy_j,
                        bound
                    ));
                }
            }
            Ok(())
        },
    );
}

#[test]
fn resume_preserves_the_oracle_verdict() {
    // A stopped-and-resumed run must agree bit for bit with an
    // uninterrupted one, so every oracle verdict is identical pre- and
    // post-resume.
    let inst = TinyInstance {
        jobs: (0..5)
            .map(|i| ge_integration_tests::prop::TinyJob {
                release: 0.3 * i as f64,
                deadline: 0.3 * i as f64 + 1.2,
                demand: 200.0 + 150.0 * i as f64,
            })
            .collect(),
    };
    let cfg = tiny_cfg(2, 0.9);
    let trace = inst.to_trace();
    let straight = run(&cfg, &trace, &Algorithm::Ge);

    let dir = std::env::temp_dir().join("ge-oracle-resume-test");
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = dir.join("verdict.ckpt");
    let mut policy = CheckpointPolicy::new(&path, 2);
    policy.stop_after = Some(1);
    let stopped = Run::start(&cfg, &trace, &Algorithm::Ge, None, &mut NullSink)
        .drive(&policy, &mut NullSink)
        .expect("resumable run");
    assert!(
        matches!(stopped, DriveOutcome::Stopped { .. }),
        "run must stop at the first checkpoint"
    );
    let mut cont = policy.clone();
    cont.stop_after = None;
    let resumed = match Run::restore_file(&cfg, &trace, &Algorithm::Ge, None, &path)
        .and_then(|run| run.drive(&cont, &mut NullSink))
        .expect("resume")
    {
        DriveOutcome::Finished(r) => r,
        DriveOutcome::Stopped { .. } => panic!("resume stopped again"),
    };
    let _ = std::fs::remove_file(&path);

    assert_eq!(resumed.energy_j.to_bits(), straight.energy_j.to_bits());
    assert_eq!(resumed.quality.to_bits(), straight.quality.to_bits());
    assert_eq!(resumed.jobs_finished, straight.jobs_finished);

    let bound = lower_bound(&inst, &cfg, resumed.quality);
    assert!(
        resumed.energy_j >= bound * (1.0 - 1e-9),
        "resumed run beats the bound: {} < {bound}",
        resumed.energy_j
    );
}

// ---------------------------------------------------------------------
// Metamorphic relations: transformations with exactly predictable effect.
// ---------------------------------------------------------------------

#[test]
fn metamorphic_time_scaling_scales_yds_energy() {
    // Stretching time by k scales speeds by 1/k, so with P = a·s^β the
    // energy scales by k·(1/k)^β = k^(1−β).
    let model = PolynomialPower::paper_default();
    let beta = model.exponent();
    check(
        "time scaling scales YDS energy by k^(1-beta)",
        &PropConfig::cases(64),
        |rng| (TinyInstance::arbitrary(rng, 5), rng.uniform_range(1.5, 8.0)),
        move |(inst, k)| {
            let base = yds_jobs(inst, 1000.0);
            let stretched: Vec<YdsJob> = base
                .iter()
                .map(|j| YdsJob::new(j.id, j.release * k, j.deadline * k, j.work))
                .collect();
            let e0 = yds_schedule_with(&base, &mut YdsScratch::new()).energy(&model);
            let e1 = yds_schedule_with(&stretched, &mut YdsScratch::new()).energy(&model);
            let expected = e0 * k.powf(1.0 - beta);
            if (e1 - expected).abs() > 1e-6 * expected.max(1e-12) {
                return Err(format!(
                    "k={k}: energy {e1}, expected {expected} (base {e0})"
                ));
            }
            Ok(())
        },
    );
}

#[test]
fn metamorphic_power_coefficient_scales_energy_exactly() {
    // P = a·s^β is linear in a, and scaling by a power of two is exact in
    // floating point — so the schedule's energy must scale by exactly a.
    let base_model = PolynomialPower::paper_default();
    let scaled_model = PolynomialPower::new(base_model.scale() * 4.0, base_model.exponent());
    check(
        "power coefficient x4 scales energy by exactly 4",
        &PropConfig::cases(64),
        |rng| TinyInstance::arbitrary(rng, 5),
        move |inst| {
            let jobs = yds_jobs(inst, 1000.0);
            let plan = yds_schedule_with(&jobs, &mut YdsScratch::new());
            let e0 = plan.energy(&base_model);
            let e4 = plan.energy(&scaled_model);
            if e4.to_bits() != (4.0 * e0).to_bits() {
                return Err(format!(
                    "4x coefficient gave {e4}, expected exactly {}",
                    4.0 * e0
                ));
            }
            Ok(())
        },
    );
}

// Whole runs obey the same laws of P = a·s^β end to end: every decision
// the engine makes (speeds, power splits, cuts, the ES/WF switch) is the
// same in the transformed run, so quality is unchanged and only the
// energy moves, by a predictable factor.

/// GE, BE and FCFS at a light and a heavy rate, fault-free, 20 s.
fn law_runs() -> Vec<(Algorithm, SimConfig, Trace)> {
    let cfg = SimConfig {
        horizon: SimTime::from_secs(20.0),
        ..SimConfig::paper_default()
    };
    let mut runs = Vec::new();
    for rate in [120.0, 200.0] {
        let wc = WorkloadConfig {
            horizon: cfg.horizon,
            ..WorkloadConfig::paper_default(rate)
        };
        let trace = WorkloadGenerator::new(wc, 1).generate();
        for algorithm in [Algorithm::Ge, Algorithm::Be, Algorithm::Fcfs] {
            runs.push((algorithm, cfg.clone(), trace.clone()));
        }
    }
    runs
}

#[test]
fn whole_run_power_scaling_doubles_energy_bit_exactly() {
    // Doubling a and H leaves every speed (H/a ratios) unchanged, and
    // doubling is exact in floating point: quality is bit-identical and
    // energy exactly doubles.
    for (algorithm, cfg, trace) in law_runs() {
        let base = run(&cfg, &trace, &algorithm);
        let doubled = SimConfig {
            power_a: 2.0 * cfg.power_a,
            budget_w: 2.0 * cfg.budget_w,
            ..cfg
        };
        let scaled = run(&doubled, &trace, &algorithm);
        let what = format!("{} over {} jobs", algorithm.label(), trace.len());
        assert_eq!(scaled.quality.to_bits(), base.quality.to_bits(), "{what}");
        assert_eq!(
            scaled.energy_j.to_bits(),
            (2.0 * base.energy_j).to_bits(),
            "{what}: energy {} vs 2 x {}",
            scaled.energy_j,
            base.energy_j
        );
    }
}

#[test]
fn whole_run_time_stretching_scales_energy_by_two_to_the_one_minus_beta() {
    // Stretch time by 2: releases, deadlines, quantum, load window and
    // horizon x2, the critical load /2 (a rate), and H x 2^-beta so the
    // halved speeds still exhaust the same share of the budget. Energy is
    // power x time: 2^-beta x 2 = 2^(1-beta). The engine's absolute
    // tolerances (TIME_EPS and the like) do not stretch, so the law is
    // stated to a relative 1e-9; on these runs it holds bit for bit.
    const TOL: f64 = 1e-9;
    for (algorithm, cfg, trace) in law_runs() {
        let base = run(&cfg, &trace, &algorithm);
        let k = 2.0f64;
        let stretched_cfg = SimConfig {
            quantum: SimDuration::from_secs(k * cfg.quantum.as_secs()),
            load_window_secs: k * cfg.load_window_secs,
            horizon: SimTime::from_secs(k * cfg.horizon.as_secs()),
            critical_load_rps: cfg.critical_load_rps / k,
            budget_w: cfg.budget_w * k.powf(-cfg.power_beta),
            ..cfg.clone()
        };
        let stretched_trace = Trace::new(
            trace
                .jobs()
                .iter()
                .map(|j| Job {
                    release: SimTime::from_secs(k * j.release.as_secs()),
                    deadline: SimTime::from_secs(k * j.deadline.as_secs()),
                    ..*j
                })
                .collect(),
        );
        let stretched = run(&stretched_cfg, &stretched_trace, &algorithm);
        let what = format!("{} over {} jobs", algorithm.label(), trace.len());
        let rel = |got: f64, want: f64| (got - want).abs() / want.abs().max(1e-300);
        assert!(
            rel(stretched.quality, base.quality) < TOL,
            "{what}: quality {} vs {}",
            stretched.quality,
            base.quality
        );
        let want = base.energy_j * k.powf(1.0 - cfg.power_beta);
        assert!(
            rel(stretched.energy_j, want) < TOL,
            "{what}: energy {} vs {want}",
            stretched.energy_j
        );
    }
}

#[test]
fn metamorphic_demand_scaling_scales_the_cut() {
    // Scaling demands by λ while rescaling the quality function to
    // f'(x) = f(x/λ) (same curve, stretched axis) scales the optimal
    // levelling cut by exactly λ and leaves quality unchanged.
    check(
        "demand scaling scales the LF cut",
        &PropConfig::cases(96),
        |rng| {
            (
                TinyInstance::arbitrary(rng, 6),
                rng.uniform_range(2.0, 10.0),
                rng.uniform_range(0.6, 0.98),
            )
        },
        |(inst, lambda, q_ge)| {
            let f = ExpConcave::paper_default();
            let f_scaled = ExpConcave::new(f.concavity() / lambda, 1000.0 * *lambda);
            let demands = inst.demands();
            let scaled: Vec<f64> = demands.iter().map(|d| d * lambda).collect();
            let base = lf_cut(&f, &demands, *q_ge);
            let big = lf_cut(&f_scaled, &scaled, *q_ge);
            if base.cut_count != big.cut_count {
                return Err(format!(
                    "cut counts diverged: {} vs {}",
                    base.cut_count, big.cut_count
                ));
            }
            for (i, (c0, c1)) in base.cut_demands.iter().zip(&big.cut_demands).enumerate() {
                if (c1 - lambda * c0).abs() > 1e-6 * (lambda * c0).max(1.0) {
                    return Err(format!("job {i}: scaled cut {c1} != λ·{c0} (λ={lambda})"));
                }
            }
            if (base.achieved_quality - big.achieved_quality).abs() > 1e-6 {
                return Err(format!(
                    "quality diverged: {} vs {}",
                    base.achieved_quality, big.achieved_quality
                ));
            }
            Ok(())
        },
    );
}

#[test]
fn metamorphic_water_filling_is_permutation_equivariant() {
    check(
        "water filling commutes with core permutation",
        &PropConfig::cases(96),
        |rng| {
            // Per-core power demands ride on a TinyInstance so the input
            // shrinks; the budget and rotation ride along unchanged.
            (
                TinyInstance::arbitrary(rng, 8),
                rng.uniform_range(10.0, 400.0),
                rng.next_below(8) as usize,
            )
        },
        |(inst, budget, rot)| {
            let demands: Vec<f64> = inst.demands().iter().map(|d| d / 4.0).collect();
            let n = demands.len();
            let rot = rot % n;
            let rotated: Vec<f64> = (0..n).map(|i| demands[(i + rot) % n]).collect();
            let caps = distribute_water_filling(&demands, *budget);
            let caps_rot = distribute_water_filling(&rotated, *budget);
            for i in 0..n {
                let expect = caps[(i + rot) % n];
                if (caps_rot[i] - expect).abs() > 1e-9 * expect.max(1.0) {
                    return Err(format!(
                        "core {i}: rotated cap {} != original {} (rot={rot})",
                        caps_rot[i], expect
                    ));
                }
            }
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// Mutation catch: the oracle must reject a deliberately broken scheduler
// with a small, shrunk counterexample.
// ---------------------------------------------------------------------

#[test]
fn broken_cut_is_caught_with_a_tiny_counterexample() {
    let f = ExpConcave::paper_default();
    let failure = find_failure(
        &PropConfig::cases(256),
        |rng| TinyInstance::arbitrary(rng, 6),
        move |inst| {
            let demands = inst.demands();
            let outcome = ge_oracle::mutation::lf_cut_broken(&f, &demands, 0.9);
            certify_cut(&f, &demands, 0.9, &outcome)
                .map(|_| ())
                .map_err(|e| format!("{e}"))
        },
    )
    .expect("the certificate must catch the broken cut");
    assert!(
        failure.input.jobs.len() <= 4,
        "counterexample did not shrink: {} jobs\n{}",
        failure.input.jobs.len(),
        failure.input.repro()
    );
}

#[test]
fn broken_yds_is_caught_with_a_tiny_counterexample() {
    let failure = find_failure(
        &PropConfig::cases(256),
        |rng| TinyInstance::arbitrary(rng, 6),
        |inst| {
            let jobs = yds_jobs(inst, 1000.0);
            let plan = ge_oracle::mutation::yds_broken(&jobs);
            certify_yds(&jobs, &plan)
                .map(|_| ())
                .map_err(|e| format!("{e}"))
        },
    )
    .expect("the certificate must catch the broken yds");
    assert!(
        failure.input.jobs.len() <= 4,
        "counterexample did not shrink: {} jobs\n{}",
        failure.input.jobs.len(),
        failure.input.repro()
    );
}
