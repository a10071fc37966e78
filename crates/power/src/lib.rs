//! # ge-power — DVFS power modelling and energy-optimal speed scheduling
//!
//! Everything about power and speed for the multicore-server model of the
//! paper (§II-B):
//!
//! * [`model`] — the dynamic power model `P = a·s^β` (paper: `a = 5`,
//!   `β = 2`, speeds in GHz) behind the [`PowerModel`] trait, with exact
//!   power↔speed conversion.
//! * [`profile`] — piecewise-constant [`SpeedProfile`]s: the output of the
//!   speed scheduler and the input to the execution engine, with exact
//!   volume and energy integrals.
//! * [`yds`] — **Energy-OPT**: the Yao–Demers–Shenker minimum-energy speed
//!   scheduling algorithm (FOCS 1995) the paper executes each core's batch
//!   with, implemented in its full max-intensity-interval peeling form.
//! * [`distribution`] — the per-core power budget policies: Equal-Sharing
//!   (ES) and Water-Filling (WF), the two halves of GE's hybrid scheme.
//! * [`discrete`] — discrete speed steps and the paper's §IV-A-5 budget-
//!   aware rectification procedure for realistic DVFS.
//! * [`energy`] — run-time energy metering (`E = ∫ P dt`).
//! * [`static_power`] — an extended static+dynamic model (with the
//!   critical-speed threshold) for studies beyond the paper's
//!   dynamic-only accounting.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod discrete;
pub mod distribution;
pub mod energy;
pub mod model;
pub mod profile;
pub mod static_power;
pub mod yds;

pub use discrete::DiscreteSpeedSet;
pub use distribution::{
    distribute_equal_sharing, distribute_equal_sharing_into, distribute_water_filling,
    distribute_water_filling_into, PowerDistribution,
};
pub use energy::EnergyMeter;
pub use model::{PolynomialPower, PowerModel};
pub use profile::{SpeedProfile, SpeedSegment};
pub use static_power::StaticDynamicPower;
pub use yds::{
    yds_schedule, yds_schedule_into, yds_schedule_with, YdsJob, YdsSchedule, YdsScratch,
};
