//! Render a mode-dynamics timeline from a decision trace.
//!
//! Reads a JSONL trace (as written by `ge-experiments --trace` or any
//! [`ge_trace::TraceSink`] consumer), buckets the run into fixed time
//! slots, and prints per-slot mode residency, quality, energy, trigger
//! and cut activity — the paper's Fig. 1/Fig. 5 story reconstructed from
//! the event stream alone, no simulator in the loop.
//!
//! ```text
//! cargo run --release -p ge-examples --bin trace_timeline -- out.jsonl [--buckets N]
//! ```
//!
//! With no file argument the example generates its own exemplar trace
//! (GE at 185 req/s for 60 s) so it is runnable out of the box.

use ge_core::{run_with_sink, Algorithm, SimConfig};
use ge_examples::{opt, parse_args};
use ge_simcore::SimTime;
use ge_trace::{parse_jsonl, replay, RunStartEvent, TraceEvent, VecSink};
use ge_workload::{WorkloadConfig, WorkloadGenerator};

/// Per-bucket aggregates distilled from the event stream.
#[derive(Debug, Clone, Default)]
struct Bucket {
    aes_secs: f64,
    bq_secs: f64,
    energy_j: f64,
    triggers: u64,
    cuts: u64,
    arrivals: u64,
    last_quality: Option<f64>,
}

impl Bucket {
    fn mode_char(&self) -> char {
        let total = self.aes_secs + self.bq_secs;
        if total <= 0.0 {
            '·'
        } else if self.aes_secs >= self.bq_secs {
            'A'
        } else {
            'B'
        }
    }
}

/// Splits `[0, horizon]` into `n` buckets and attributes mode residency,
/// energy, and event counts to each.
fn bucketize(events: &[TraceEvent], horizon: f64, n: usize) -> Vec<Bucket> {
    let mut buckets = vec![Bucket::default(); n];
    let width = horizon / n as f64;
    let idx = |t: f64| -> usize { ((t / width) as usize).min(n - 1) };

    // Mode residency: walk the switch sequence, spreading each dwell
    // interval over the buckets it covers.
    let initial = events
        .iter()
        .find_map(|e| match e {
            TraceEvent::RunStart(start) => Some(start.initial_mode),
            _ => None,
        })
        .unwrap_or(0);
    let mut mode = initial;
    let mut since = 0.0;
    // Iterate bucket *indices*, not time: recomputing the next boundary
    // from a running `t` can stall when `(i + 1) * width` rounds back onto
    // `t`, so intersect the dwell interval with each slot instead.
    let spread = |from: f64, to: f64, mode: u64, buckets: &mut Vec<Bucket>| {
        if to <= from {
            return;
        }
        for (i, b) in buckets.iter_mut().enumerate().skip(idx(from)) {
            let lo = (i as f64 * width).max(from);
            let hi = ((i + 1) as f64 * width).min(to);
            let dt = hi - lo;
            if dt > 0.0 {
                if mode == 0 {
                    b.aes_secs += dt;
                } else {
                    b.bq_secs += dt;
                }
            }
            if hi >= to {
                break;
            }
        }
    };
    for ev in events {
        match ev {
            TraceEvent::ModeSwitch { t, to_mode, .. } => {
                spread(since, (*t).min(horizon), mode, &mut buckets);
                mode = *to_mode;
                since = *t;
            }
            TraceEvent::ExecSlice { t, energy_j, .. } => {
                buckets[idx((*t).min(horizon))].energy_j += energy_j;
            }
            TraceEvent::TriggerFired { t, .. } => {
                buckets[idx((*t).min(horizon))].triggers += 1;
            }
            TraceEvent::LfCut { t, .. } | TraceEvent::SecondCut { t, .. } => {
                buckets[idx((*t).min(horizon))].cuts += 1;
            }
            TraceEvent::JobArrival { t, .. } => {
                buckets[idx((*t).min(horizon))].arrivals += 1;
            }
            TraceEvent::QualitySample { t, quality, .. } => {
                buckets[idx((*t).min(horizon))].last_quality = Some(*quality);
            }
            _ => {}
        }
    }
    spread(since, horizon, mode, &mut buckets);
    buckets
}

fn main() {
    let (pos, opts) = parse_args(std::env::args().skip(1));
    let n: usize = opt(&opts, "buckets").map_or(60, |s| s.parse().expect("buckets"));
    assert!(n > 0, "--buckets must be positive");

    let events = match pos.first() {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
            parse_jsonl(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
        }
        None => {
            eprintln!("no trace file given — generating an exemplar (GE, 185 req/s, 60 s)");
            let horizon = SimTime::from_secs(60.0);
            let cfg = SimConfig {
                horizon,
                ..SimConfig::paper_default()
            };
            let wl = WorkloadGenerator::new(
                WorkloadConfig {
                    horizon,
                    ..WorkloadConfig::paper_default(185.0)
                },
                13,
            )
            .generate();
            let mut sink = VecSink::new();
            run_with_sink(&cfg, &wl, &Algorithm::Ge, None, &mut sink);
            sink.into_events()
        }
    };

    // Traces written by `--trace` lead with a run_meta provenance
    // header; skip it to find run_start (the replay below validates it).
    let body = match events.first() {
        Some(TraceEvent::RunMeta(_)) => &events[1..],
        _ => &events[..],
    };
    let Some(TraceEvent::RunStart(start)) = body.first().cloned() else {
        eprintln!("trace does not begin with a run_start event");
        std::process::exit(1);
    };
    let RunStartEvent {
        algorithm,
        cores,
        budget_w,
        q_ge,
        horizon_s,
        ..
    } = *start;
    println!(
        "{algorithm} on {cores} cores, budget {budget_w} W, Q_GE {q_ge}, \
         horizon {horizon_s:.1} s — {} events\n",
        body.len()
    );

    let buckets = bucketize(body, horizon_s, n);
    let width = horizon_s / n as f64;

    // The one-line mode strip: the Fig. 1 story at a glance.
    let strip: String = buckets.iter().map(Bucket::mode_char).collect();
    println!("mode  [{strip}]  (A = AES, B = BQ)\n");

    println!(
        "{:>12}  mode  {:>8}  {:>10}  {:>8}  {:>5}  {:>8}",
        "t [s]", "quality", "energy [J]", "triggers", "cuts", "arrivals"
    );
    let mut quality = f64::NAN;
    for (i, b) in buckets.iter().enumerate() {
        if let Some(q) = b.last_quality {
            quality = q;
        }
        println!(
            "{:>5.1}-{:<6.1}  {}     {:>8.4}  {:>10.1}  {:>8}  {:>5}  {:>8}",
            i as f64 * width,
            (i + 1) as f64 * width,
            b.mode_char(),
            quality,
            b.energy_j,
            b.triggers,
            b.cuts,
            b.arrivals,
        );
    }

    // Close the loop: verify the trace is internally consistent.
    match replay(&events) {
        Ok(report) => println!("\n{}", report.render()),
        Err(e) => {
            eprintln!("\nreplay failed: {e:?}");
            std::process::exit(1);
        }
    }
}
