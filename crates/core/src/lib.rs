//! # ge-core — the Good Enough (GE) scheduling algorithm
//!
//! The paper's primary contribution, its baselines, and the online
//! simulation driver that ties the substrates together:
//!
//! * [`config`] — [`SimConfig`]: every §IV-B platform/workload constant in
//!   one place (cores, budget, power constants, quality function, `Q_GE`,
//!   triggers, critical load, horizon, optional discrete DVFS).
//! * [`policy`] — the [`Scheduler`] trait all algorithms implement, plus
//!   the [`Algorithm`] catalogue (GE and every comparison policy from
//!   §IV-A: OQ, BE, BE-P, BE-S, FCFS, FDFS, LJF, SJF, and GE ablations).
//! * [`ge`] — the GE scheduler itself: AES/BQ mode controller with the
//!   compensation policy, Longest-First job cutting, hybrid ES/WF power
//!   distribution, Quality-OPT second cut, Energy-OPT (YDS) execution
//!   planning, C-RR assignment.
//! * [`baselines`] — best-effort family (BE/OQ/BE-P/BE-S via GE machinery
//!   with policy knobs) and the four single-job queue policies.
//! * [`driver`] — the event loop: arrivals, quantum/counter/idle triggers,
//!   queue-expiry, quality monitoring, speed sampling, energy metering —
//!   and [`Run`], the one handle batch runs, fleet shards and serve
//!   sessions advance it through.
//! * [`shard`] — the fleet and serve controls on a [`Run`]: job injection,
//!   whole-server crash/recover, budget and speed factors.
//! * [`resume`] — [`Run`] checkpoints: snapshot/restore and periodic
//!   checkpointing via [`Run::drive`].
//! * [`result`] — [`RunResult`]: the measurements every figure is built
//!   from.
//! * [`clairvoyant`] — an offline hindsight planner quantifying the price
//!   of online play (extension beyond the paper).
//!
//! ## Quick start
//!
//! ```
//! use ge_core::{run, Algorithm, SimConfig};
//! use ge_workload::{WorkloadConfig, WorkloadGenerator};
//!
//! let cfg = SimConfig::paper_default();
//! let trace = WorkloadGenerator::new(
//!     WorkloadConfig::paper_default(150.0), 42,
//! ).generate();
//! let result = run(&cfg, &trace, &Algorithm::Ge);
//! assert!(result.quality >= 0.85); // ≈ Q_GE = 0.9
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod baselines;
pub mod clairvoyant;
pub mod config;
pub mod driver;
pub mod ge;
pub mod policy;
pub mod result;
pub mod resume;
pub mod shard;

pub use clairvoyant::{clairvoyant_plan, ClairvoyantOutcome};
pub use config::{PowerPolicy, SimConfig};
pub use driver::{run, run_scheduler_with_sink, run_with_sink, Run, RunTrace, TrajectorySink};
pub use ge::GeScheduler;
pub use policy::{Algorithm, ScheduleCtx, Scheduler, TriggerSet, MODE_AES, MODE_BQ};
pub use result::{RunResult, ShardOutcome};
pub use resume::{CheckpointPolicy, DriveOutcome};
