//! Watch the compensation policy work: quality and mode trajectories.
//!
//! Runs GE with per-epoch instrumentation and renders the monitored
//! quality, the AES/BQ mode signal, and the backlog as terminal plots —
//! the §III-C control loop (quality dips → BQ kicks in → quality
//! recovers → back to AES) made visible.
//!
//! ```text
//! cargo run --release -p ge-examples --bin mode_dynamics [rate] [--seed N]
//! ```

use ge_core::{run_with_sink, Algorithm, SimConfig, TrajectorySink};
use ge_examples::{opt, parse_args};
use ge_metrics::AsciiPlot;
use ge_simcore::SimTime;
use ge_workload::{WorkloadConfig, WorkloadGenerator};

fn main() {
    let (pos, opts) = parse_args(std::env::args().skip(1));
    // Default just past the region where compensation starts to matter.
    let rate: f64 = pos.first().map_or(185.0, |s| s.parse().expect("rate"));
    let seed: u64 = opt(&opts, "seed").map_or(13, |s| s.parse().expect("seed"));
    let horizon = 60.0;

    let cfg = SimConfig {
        horizon: SimTime::from_secs(horizon),
        ..SimConfig::paper_default()
    };
    let trace = WorkloadGenerator::new(
        WorkloadConfig {
            horizon: SimTime::from_secs(horizon),
            ..WorkloadConfig::paper_default(rate)
        },
        seed,
    )
    .generate();

    let mut sink = TrajectorySink::new();
    let result = run_with_sink(&cfg, &trace, &Algorithm::Ge, None, &mut sink);
    let rt = sink.into_trace();
    println!(
        "λ = {rate}/s over {horizon}s: final quality {:.4}, energy {:.0} J, \
         {} mode switches, AES residency {:.1}%\n",
        result.quality,
        result.energy_j,
        result.mode_transitions,
        result.aes_fraction * 100.0
    );

    // Thin the trajectories so the plots stay readable.
    let thin = |pts: &[(f64, f64)]| -> Vec<(f64, f64)> {
        let stride = (pts.len() / 400).max(1);
        pts.iter().step_by(stride).copied().collect()
    };

    let mut q = AsciiPlot::standard("Monitored quality vs time (target 0.9)");
    q.add_series("quality", thin(rt.quality.points()));
    print!("{}", q.render());

    let mut m = AsciiPlot::standard("Execution mode vs time (0 = AES, 1 = BQ)");
    m.add_series("mode", thin(rt.mode.points()));
    print!("{}", m.render());

    let mut b = AsciiPlot::standard("Outstanding work (units) vs time");
    b.add_series("backlog", thin(rt.backlog_units.points()));
    print!("{}", b.render());

    println!(
        "\nEvery dip of the quality trace below 0.9 flips the mode signal to BQ \
         (compensation); once the cumulative monitor recovers, GE returns to AES \
         and resumes cutting."
    );
}
