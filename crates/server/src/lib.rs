//! # ge-server — the multicore server model
//!
//! The execution substrate under every scheduling algorithm in the
//! reproduction (paper §II-B): a server of `m` DVFS cores sharing a total
//! dynamic-power budget. Jobs are assigned to cores (and never migrate),
//! run in EDF order without preemption, follow the per-core speed plan the
//! scheduler installed, and report their fate (completed / expired /
//! partially served) back to the driver.
//!
//! * [`core`] — one core: assigned-job set, installed [`SpeedProfile`](ge_power::SpeedProfile),
//!   power cap, and the event-free `advance(to)` execution engine with
//!   exact energy accounting, plus its armed one-slice fast path.
//! * [`server`] — the `m`-core ensemble plus the shared [`EnergyMeter`](ge_power::EnergyMeter).
//! * [`assign`] — the Cumulative Round-Robin (C-RR) batch assigner the GE
//!   algorithm distributes queued jobs with (paper §III-E).

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod assign;
pub mod core;
pub mod server;

pub use crate::core::{Core, CoreJob, FinishedJob};
pub use assign::CrrAssigner;
pub use server::Server;
