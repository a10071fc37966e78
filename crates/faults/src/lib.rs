//! Deterministic fault injection for the GE scheduler.
//!
//! The paper's GE algorithm assumes a fixed pool of `m` healthy cores, a
//! stable power budget `H`, and exact job demands. None of those hold on a
//! production server, so this crate models the ways reality deviates:
//!
//! * **core failure / recovery** at arbitrary simulation times,
//! * **power-budget throttling** windows (`H` drops to a fraction),
//! * **DVFS actuation error** (delivered speed ≠ requested speed),
//! * **demand misestimation** noise (the scheduler plans on a noisy
//!   estimate while execution consumes the true demand), and
//! * **arrival surges** layered on top of the nominal workload.
//!
//! Everything is seeded and deterministic: a [`FaultSchedule`] is a pure
//! function of its windows and seed, and the driver replays it through a
//! [`FaultInjector`] as ordinary simulation events, so any faulty run can
//! be reproduced bit-for-bit and audited through the `ge-trace` replay
//! checker.

#![deny(missing_docs)]
#![warn(clippy::all)]

mod chaos;
mod fleet;
mod injector;
mod scenario;
mod schedule;

pub use chaos::{ChaosOp, ChaosSchedule, GarbageKind};
pub use fleet::{
    DispatchLossWindow, FleetFaultSchedule, FleetScenario, FleetScenarioKind, FleetTransition,
    ServerOutage, ServerSlowdown, TimedFleetTransition,
};
pub use injector::FaultInjector;
pub use scenario::{FaultScenario, ScenarioKind};
pub use schedule::{
    CoreOutage, DvfsWindow, FaultSchedule, FaultTransition, SurgeWindow, ThrottleWindow,
    TimedTransition,
};
