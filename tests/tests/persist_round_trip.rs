//! Property: every [`Persist`] type's encoding survives decode bit for
//! bit. Encoding a value, decoding it into a value built from the same
//! inputs and encoding again must give the same bytes — the declarations
//! list each field once, so this is the check that the generated encode
//! and decode read the same fields in the same order.
//!
//! A checkpoint covers every type in the engine's state: a whole run
//! re-encoded after a restore exercises `Engine`, `Server`, `Core`,
//! `CoreJob`, `SpeedProfile`, `SpeedSegment`, `EnergyMeter`,
//! `QualityLedger`, `ModeTracker`, `SpeedTracker`, `Histogram`,
//! `FaultInjector`, `Job`, `JobId`, `SimTime`, and the policies
//! (`GeScheduler` with its `ReplanCache`, `ReplanStats` and C-RR cursor,
//! and `QueueScheduler`). The types only the input digest encodes
//! (`SimConfig` with its `SimDuration`, `LedgerMode` and
//! `DiscreteSpeedSet`, and `TimedTransition` with its `FaultTransition`)
//! round-trip on their own.

use ge_core::{Algorithm, Run, SimConfig};
use ge_faults::{FaultScenario, FaultSchedule, ScenarioKind, TimedTransition};
use ge_integration_tests::prop::{check, PropConfig, TinyInstance};
use ge_power::DiscreteSpeedSet;
use ge_quality::LedgerMode;
use ge_recover::{Decoder, Encoder, Persist};
use ge_simcore::{SimDuration, SimTime};
use ge_trace::NullSink;

const ALGORITHMS: [Algorithm; 5] = [
    Algorithm::Ge,
    Algorithm::Be,
    Algorithm::GeRr,
    Algorithm::Fcfs,
    Algorithm::Sjf,
];

fn bytes(v: &(impl Persist + ?Sized)) -> Vec<u8> {
    let mut enc = Encoder::new();
    v.encode(&mut enc);
    enc.into_bytes()
}

/// Encodes `value`, decodes the bytes into `built` and re-encodes it.
fn round_trip<T: Persist>(value: &T, mut built: T, what: &str) -> Result<(), String> {
    let encoded = bytes(value);
    let mut dec = Decoder::new(&encoded);
    built
        .decode(&mut dec, "value")
        .and_then(|()| dec.finish("value"))
        .map_err(|e| format!("{what}: {e}"))?;
    if bytes(&built) == encoded {
        Ok(())
    } else {
        Err(format!("{what}: re-encoding differs"))
    }
}

/// A small platform: 4 cores, a sliding-window ledger on request.
fn cfg(windowed: bool) -> SimConfig {
    SimConfig {
        cores: 4,
        budget_w: 80.0,
        critical_load_rps: 154.0 / 4.0,
        horizon: SimTime::from_secs(6.0),
        ledger_mode: if windowed {
            LedgerMode::SlidingWindow(5)
        } else {
            LedgerMode::Cumulative
        },
        ..SimConfig::paper_default()
    }
}

fn schedule(c: &SimConfig, seed: u64) -> FaultSchedule {
    FaultScenario::new(ScenarioKind::Combined, 0.75).build(c.cores, c.horizon, seed)
}

#[test]
fn every_checkpointed_type_re_encodes_bit_identically() {
    check(
        "snapshot -> restore -> snapshot is byte-identical",
        &PropConfig::cases(96),
        |rng| {
            let inst = TinyInstance::arbitrary(rng, 24);
            let algorithm = rng.next_below(ALGORITHMS.len() as u64) as usize;
            let faults = rng.next_below(2) == 0;
            let windowed = rng.next_below(2) == 0;
            let stop = rng.uniform_range(0.1, 5.9);
            (inst, (algorithm, faults, windowed, stop))
        },
        |(inst, (algorithm, faults, windowed, stop))| {
            let c = cfg(*windowed);
            let trace = inst.to_trace();
            let algorithm = &ALGORITHMS[*algorithm];
            let faults = faults.then(|| schedule(&c, inst.jobs.len() as u64));
            let mut run = Run::start(&c, &trace, algorithm, faults.as_ref(), &mut NullSink);
            run.advance_to(SimTime::from_secs(*stop), &mut NullSink);
            let snap = run.snapshot();
            let restored = Run::restore(&c, &trace, algorithm, faults.as_ref(), &snap)
                .map_err(|e| format!("restore: {e}"))?;
            if restored.snapshot() == snap {
                Ok(())
            } else {
                Err(format!(
                    "{} at {stop} s: re-encoding differs",
                    algorithm.label()
                ))
            }
        },
    );
}

#[test]
fn digest_only_types_round_trip() {
    check(
        "SimConfig and fault transitions round-trip",
        &PropConfig::cases(64),
        |rng| {
            let inst = TinyInstance::arbitrary(rng, 4);
            let seed = rng.next_u64();
            let discrete = rng.next_below(2) == 0;
            let windowed = rng.next_below(2) == 0;
            let quantum_ms = rng.uniform_range(50.0, 900.0);
            (inst, (seed, discrete, windowed, quantum_ms))
        },
        |(_, (seed, discrete, windowed, quantum_ms))| {
            let c = SimConfig {
                quantum: SimDuration::from_millis(*quantum_ms),
                discrete_speeds: discrete.then(DiscreteSpeedSet::paper_default),
                ..cfg(*windowed)
            };
            // A config built from other inputs: only the presence of the
            // discrete speed set is fixed by construction.
            let built = SimConfig {
                discrete_speeds: c.discrete_speeds.clone(),
                ..SimConfig::paper_default()
            };
            round_trip(&c, built, "SimConfig")?;
            for tr in schedule(&c, *seed).transitions() {
                let built = TimedTransition {
                    at: SimTime::ZERO,
                    transition: ge_faults::FaultTransition::BudgetFactor { factor: 1.0 },
                };
                round_trip(&tr, built, "TimedTransition")?;
            }
            Ok(())
        },
    );
}
