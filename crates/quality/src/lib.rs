//! # ge-quality — concave quality functions and quality-driven allocation
//!
//! "Good enough" services return usable results from partial processing:
//! running `c ≤ p` units of a job worth `p` units yields perceived quality
//! `f(c)`, where `f` is concave (diminishing returns — paper §II-A). This
//! crate holds everything quality-related:
//!
//! * [`QualityFunction`] and implementations — [`ExpConcave`] is the
//!   paper's Eq. 1, `f(x) = (1 − e^{−c·x})/(1 − e^{−c·x_max})`; linear and
//!   power-law alternates support the Fig. 9 sensitivity study and tests.
//! * [`ledger::QualityLedger`] — the online quality monitor driving the GE
//!   compensation policy: tracks `Q = Σ f(c_j) / Σ f(p_j)` over finished
//!   jobs, cumulatively or over a sliding window.
//! * [`cut`] — the **Longest-First (LF) job-cutting policy** (paper
//!   §III-B): level the longest jobs down until the batch quality meets the
//!   good-enough target exactly, finishing with a binary-search solve on
//!   the concave quality function.
//! * [`qopt`] — the **Quality-OPT** allocator (paper §III-E, citing He et
//!   al.'s Tians scheduler): maximize total quality under a processing
//!   volume budget. For a common concave `f` this is exact level-filling.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod cut;
pub mod function;
pub mod ledger;
pub mod qopt;

pub use cut::{lf_cut, lf_cut_with, CutOutcome, CutScratch};
pub use function::{
    ExpConcave, InverseMemo, LinearQuality, LogQuality, PiecewiseLinearQuality, PowerLawQuality,
    QualityFunction,
};
pub use ledger::{LedgerMode, QualityLedger};
pub use qopt::{
    level_fill, prefix_level_fill, prefix_level_fill_into, LevelFill, LevelFillScratch,
};
