//! # ge-experiments — the paper's evaluation, regenerated
//!
//! One module per figure of "When Good Enough Is Better" (IPDPSW 2017),
//! §IV. Each figure module builds the workload sweep the paper describes,
//! runs every algorithm over it (in parallel across worker threads, with
//! seed replication), and emits the same rows/series the paper plots as
//! [`ge_metrics::Table`]s — printable as text/markdown and writable as
//! CSV.
//!
//! | Module | Paper figure | Content |
//! |---|---|---|
//! | [`figures::fig01`] | Fig. 1 | AES-mode residency vs arrival rate |
//! | [`figures::fig03`] | Fig. 3 | Quality & energy, six algorithms, fixed windows |
//! | [`figures::fig04`] | Fig. 4 | Quality & energy, seven algorithms, random windows |
//! | [`figures::fig05`] | Fig. 5 | Compensation-policy ablation |
//! | [`figures::fig06`] | Fig. 6 | Mean speed & cross-core speed variance, WF vs ES |
//! | [`figures::fig07`] | Fig. 7 | Quality & energy, WF vs ES |
//! | [`figures::fig08`] | Fig. 8 | Quality vs power vs speed control (with calibration) |
//! | [`figures::fig09`] | Fig. 9 | Quality-function concavity sweep |
//! | [`figures::fig10`] | Fig. 10 | Power-budget sweep |
//! | [`figures::fig11`] | Fig. 11 | Core-count sweep |
//! | [`figures::fig12`] | Fig. 12 | Continuous vs discrete DVFS |
//!
//! The [`scale::Scale`] parameter trades fidelity for wall-clock time:
//! `Scale::full()` is the paper's 10-minute horizon, `Scale::quick()` a
//! 1-minute smoke scale, `Scale::bench()` a seconds-scale variant for
//! the benches.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod ablations;
pub mod bounds;
pub mod calibrate;
pub mod differential;
pub mod faults;
pub mod figures;
pub mod fleet;
pub mod scale;
pub mod serve;
pub mod supervise;
pub mod sweep;
pub mod trace;
pub mod trajectory;
pub mod validation;

pub use calibrate::{calibrate_bep_budget, calibrate_bes_speed};
pub use scale::Scale;
pub use sweep::{average_results, parallel_indexed, run_cell, sweep, AveragedResult, Cell};
