//! Fleet-level fault schedules: whole-server crashes, degraded servers,
//! and router→server dispatch loss.
//!
//! These mirror the single-server [`FaultSchedule`](crate::FaultSchedule)
//! design one level up: a declarative, seeded description of windows that
//! compiles to a deterministic time-sorted transition stream that the
//! fleet driver schedules as ordinary router events. Per-shard core faults
//! remain ordinary [`FaultSchedule`]s handed to each shard's engine; this
//! module only owns faults that exist *between* servers.

use crate::{FaultScenario, FaultSchedule, ScenarioKind};
use ge_simcore::{RngStream, SimTime};

/// One server going offline at `start`, optionally recovering at `end`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerOutage {
    /// Index of the crashing server.
    pub server: usize,
    /// Crash instant: running work is lost, queued-unstarted work fails
    /// over to surviving servers.
    pub start: SimTime,
    /// Recovery instant (server rejoins empty), or `None` if permanent.
    pub end: Option<SimTime>,
}

/// A window during which one server's delivered speed is `factor ×` the
/// requested speed on every core (a degraded / thermally-capped server).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerSlowdown {
    /// Affected server.
    pub server: usize,
    /// Degradation onset.
    pub start: SimTime,
    /// Degradation end.
    pub end: SimTime,
    /// Delivered-over-requested speed ratio, in `(0, 1]`.
    pub factor: f64,
}

/// A window during which each router→server dispatch is independently
/// lost with probability `drop_prob` (seeded, deterministic per attempt).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DispatchLossWindow {
    /// Loss onset.
    pub start: SimTime,
    /// Loss end.
    pub end: SimTime,
    /// Per-attempt drop probability, in `(0, 1]`.
    pub drop_prob: f64,
}

/// A single fleet state change applied by the router at a scheduled
/// instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FleetTransition {
    /// The server crashes; queued-unstarted jobs must fail over.
    ServerDown {
        /// Crashing server index.
        server: usize,
    },
    /// The server rejoins the fleet, empty and at nominal speed.
    ServerUp {
        /// Recovering server index.
        server: usize,
    },
    /// Every core of the server delivers `factor ×` the requested speed.
    ServerSpeedFactor {
        /// Affected server index.
        server: usize,
        /// New delivered-over-requested ratio (1.0 restores nominal).
        factor: f64,
    },
    /// Router→server dispatches are dropped with this probability.
    DispatchLoss {
        /// New drop probability (0.0 restores reliable dispatch).
        prob: f64,
    },
}

/// A [`FleetTransition`] stamped with its activation time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimedFleetTransition {
    /// When the transition takes effect.
    pub at: SimTime,
    /// What changes.
    pub transition: FleetTransition,
}

/// A complete, seeded description of every fleet-level fault in one run.
///
/// Like [`FaultSchedule`], the schedule is declarative and pure: the same
/// windows and seed always compile to the same transition stream and the
/// same per-attempt dispatch-loss coin flips, so faulty fleet runs are
/// exactly reproducible.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetFaultSchedule {
    seed: u64,
    outages: Vec<ServerOutage>,
    slowdowns: Vec<ServerSlowdown>,
    losses: Vec<DispatchLossWindow>,
}

impl FleetFaultSchedule {
    /// An empty schedule (injects nothing) with the given seed.
    pub fn new(seed: u64) -> Self {
        FleetFaultSchedule {
            seed,
            ..FleetFaultSchedule::default()
        }
    }

    /// The root seed for dispatch-loss coin derivation.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// `true` if the schedule injects no fleet faults at all.
    pub fn is_empty(&self) -> bool {
        self.outages.is_empty() && self.slowdowns.is_empty() && self.losses.is_empty()
    }

    /// Adds a whole-server outage.
    ///
    /// # Panics
    /// Panics if `end` (when given) does not follow `start`.
    pub fn with_server_outage(mut self, o: ServerOutage) -> Self {
        if let Some(end) = o.end {
            assert!(end.after(o.start), "server outage end must follow start");
        }
        self.outages.push(o);
        self
    }

    /// Adds a degraded-server window.
    ///
    /// # Panics
    /// Panics if the window is inverted or `factor` is outside `(0, 1]`.
    pub fn with_slowdown(mut self, w: ServerSlowdown) -> Self {
        assert!(w.end.after(w.start), "slowdown end must follow start");
        assert!(
            w.factor > 0.0 && w.factor <= 1.0,
            "slowdown factor must be in (0, 1], got {}",
            w.factor
        );
        self.slowdowns.push(w);
        self
    }

    /// Adds a dispatch-loss window.
    ///
    /// # Panics
    /// Panics if the window is inverted or `drop_prob` is outside `(0, 1]`.
    pub fn with_dispatch_loss(mut self, w: DispatchLossWindow) -> Self {
        assert!(w.end.after(w.start), "loss window end must follow start");
        assert!(
            w.drop_prob > 0.0 && w.drop_prob <= 1.0,
            "drop probability must be in (0, 1], got {}",
            w.drop_prob
        );
        self.losses.push(w);
        self
    }

    /// Compiles the windows into a time-sorted transition stream. Ties
    /// preserve insertion order (outages, then slowdowns, then losses).
    pub fn transitions(&self) -> Vec<TimedFleetTransition> {
        let mut out = Vec::new();
        for o in &self.outages {
            out.push(TimedFleetTransition {
                at: o.start,
                transition: FleetTransition::ServerDown { server: o.server },
            });
            if let Some(end) = o.end {
                out.push(TimedFleetTransition {
                    at: end,
                    transition: FleetTransition::ServerUp { server: o.server },
                });
            }
        }
        for w in &self.slowdowns {
            out.push(TimedFleetTransition {
                at: w.start,
                transition: FleetTransition::ServerSpeedFactor {
                    server: w.server,
                    factor: w.factor,
                },
            });
            out.push(TimedFleetTransition {
                at: w.end,
                transition: FleetTransition::ServerSpeedFactor {
                    server: w.server,
                    factor: 1.0,
                },
            });
        }
        for w in &self.losses {
            out.push(TimedFleetTransition {
                at: w.start,
                transition: FleetTransition::DispatchLoss { prob: w.drop_prob },
            });
            out.push(TimedFleetTransition {
                at: w.end,
                transition: FleetTransition::DispatchLoss { prob: 0.0 },
            });
        }
        out.sort_by(|a, b| a.at.total_cmp(&b.at));
        out
    }

    /// Whether dispatch attempt `attempt` of job `job_id` is lost under
    /// the current drop probability. Deterministic per
    /// `(seed, job_id, attempt)` — independent of wall order, so a replay
    /// flips exactly the same coins.
    pub fn drop_dispatch(&self, job_id: u64, attempt: u32, prob: f64) -> bool {
        if prob <= 0.0 {
            return false;
        }
        let key = job_id.wrapping_mul(64).wrapping_add(attempt as u64);
        let mut rng = RngStream::from_root(self.seed, "fleet/loss").substream(key);
        rng.uniform01() < prob
    }
}

/// The named fleet fault families, each swept by a scalar intensity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetScenarioKind {
    /// Staggered whole-server crashes; alternate servers recover.
    ServerCrash,
    /// Some servers run degraded (every core slowed) for a window.
    ServerSlow,
    /// Router→server dispatches are dropped for a window.
    DispatchLoss,
    /// One recovering server crash + core loss on a healthy shard + mild
    /// dispatch loss, all at once.
    FleetCombined,
}

impl FleetScenarioKind {
    /// The scenario's CLI/artifact name.
    pub fn name(self) -> &'static str {
        match self {
            FleetScenarioKind::ServerCrash => "servercrash",
            FleetScenarioKind::ServerSlow => "serverslow",
            FleetScenarioKind::DispatchLoss => "dispatchloss",
            FleetScenarioKind::FleetCombined => "fleetcombined",
        }
    }
}

/// A named fleet scenario at a given intensity in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetScenario {
    /// Which fault family to inject.
    pub kind: FleetScenarioKind,
    /// Severity knob, clamped to `[0, 1]`; 0 injects nothing.
    pub intensity: f64,
}

impl FleetScenario {
    /// Every scenario name accepted by [`FleetScenario::parse`].
    pub const ALL_NAMES: [&'static str; 4] =
        ["servercrash", "serverslow", "dispatchloss", "fleetcombined"];

    /// A scenario with the intensity clamped to `[0, 1]`.
    pub fn new(kind: FleetScenarioKind, intensity: f64) -> Self {
        FleetScenario {
            kind,
            intensity: intensity.clamp(0.0, 1.0),
        }
    }

    /// Parses a scenario name (intensity 1.0), or `None` if unknown.
    pub fn parse(name: &str) -> Option<FleetScenarioKind> {
        match name {
            "servercrash" => Some(FleetScenarioKind::ServerCrash),
            "serverslow" => Some(FleetScenarioKind::ServerSlow),
            "dispatchloss" => Some(FleetScenarioKind::DispatchLoss),
            "fleetcombined" => Some(FleetScenarioKind::FleetCombined),
            _ => None,
        }
    }

    /// Builds the fleet schedule plus one per-shard core-fault schedule
    /// per server for a `servers × cores` fleet over `horizon`.
    ///
    /// Per-shard schedules carry only core outages (surges and demand
    /// noise stay fleet-agnostic); most are empty. Intensity 0 builds a
    /// completely empty pair. Scenarios that crash servers need
    /// `servers >= 2` to leave a survivor and inject nothing otherwise.
    pub fn build(
        &self,
        servers: usize,
        cores: usize,
        horizon: SimTime,
        seed: u64,
    ) -> (FleetFaultSchedule, Vec<FaultSchedule>) {
        let fleet = FleetFaultSchedule::new(seed);
        let shards = vec![FaultSchedule::new(seed); servers];
        if self.intensity <= 0.0 || servers == 0 {
            return (fleet, shards);
        }
        let h = horizon.as_secs();
        let at = |frac: f64| SimTime::from_secs(h * frac);
        let i = self.intensity;
        match self.kind {
            FleetScenarioKind::ServerCrash => {
                if servers < 2 {
                    return (fleet, shards);
                }
                // Up to half the fleet crashes, staggered; even-indexed
                // crashes recover at 75% of the horizon.
                let n = ((i * servers as f64 / 2.0).round() as usize).clamp(1, servers - 1);
                let mut fleet = fleet;
                for k in 0..n {
                    let server = k * servers / n.max(1);
                    let start = at(0.30 + 0.20 * k as f64 / n as f64);
                    let end = (k % 2 == 0).then(|| at(0.75));
                    fleet = fleet.with_server_outage(ServerOutage { server, start, end });
                }
                (fleet, shards)
            }
            FleetScenarioKind::ServerSlow => {
                // Up to half the fleet runs degraded over [30%, 80%] of
                // the horizon; deeper slowdown at higher intensity.
                let n = ((i * servers as f64 / 2.0).round() as usize).clamp(1, servers);
                let factor = (1.0 - 0.5 * i).max(0.1);
                let mut fleet = fleet;
                for k in 0..n {
                    let server = k * servers / n.max(1);
                    fleet = fleet.with_slowdown(ServerSlowdown {
                        server,
                        start: at(0.30),
                        end: at(0.80),
                        factor,
                    });
                }
                (fleet, shards)
            }
            FleetScenarioKind::DispatchLoss => {
                let fleet = fleet.with_dispatch_loss(DispatchLossWindow {
                    start: at(0.35),
                    end: at(0.70),
                    drop_prob: (0.45 * i).clamp(0.01, 1.0),
                });
                (fleet, shards)
            }
            FleetScenarioKind::FleetCombined => {
                if servers < 2 {
                    return (fleet, shards);
                }
                // The last server crashes and recovers, shard 0 loses
                // cores, and the router sees mild dispatch loss.
                let fleet = fleet
                    .with_server_outage(ServerOutage {
                        server: servers - 1,
                        start: at(0.40),
                        end: Some(at(0.75)),
                    })
                    .with_dispatch_loss(DispatchLossWindow {
                        start: at(0.30),
                        end: at(0.50),
                        drop_prob: (0.20 * i).clamp(0.01, 1.0),
                    });
                let mut shards = shards;
                shards[0] = FaultScenario::new(ScenarioKind::CoreLoss, i).build(
                    cores,
                    horizon,
                    seed.wrapping_add(1),
                );
                (fleet, shards)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn sample() -> FleetFaultSchedule {
        FleetFaultSchedule::new(9)
            .with_server_outage(ServerOutage {
                server: 1,
                start: t(4.0),
                end: Some(t(8.0)),
            })
            .with_slowdown(ServerSlowdown {
                server: 0,
                start: t(2.0),
                end: t(6.0),
                factor: 0.6,
            })
            .with_dispatch_loss(DispatchLossWindow {
                start: t(3.0),
                end: t(5.0),
                drop_prob: 0.25,
            })
    }

    #[test]
    fn empty_schedule_is_empty() {
        let s = FleetFaultSchedule::new(1);
        assert!(s.is_empty());
        assert!(s.transitions().is_empty());
        assert!(!s.drop_dispatch(3, 0, 0.0));
    }

    #[test]
    fn transitions_are_time_sorted_and_close_every_window() {
        use FleetTransition::*;
        let trs: Vec<(f64, FleetTransition)> = sample()
            .transitions()
            .iter()
            .map(|tr| (tr.at.as_secs(), tr.transition))
            .collect();
        assert_eq!(
            trs,
            [
                (
                    2.0,
                    ServerSpeedFactor {
                        server: 0,
                        factor: 0.6
                    }
                ),
                (3.0, DispatchLoss { prob: 0.25 }),
                (4.0, ServerDown { server: 1 }),
                (5.0, DispatchLoss { prob: 0.0 }),
                (
                    6.0,
                    ServerSpeedFactor {
                        server: 0,
                        factor: 1.0
                    }
                ),
                (8.0, ServerUp { server: 1 }),
            ]
        );
    }

    #[test]
    fn drop_dispatch_is_deterministic_and_rate_plausible() {
        let s = FleetFaultSchedule::new(11);
        let mut drops = 0;
        for job in 0..2000u64 {
            let a = s.drop_dispatch(job, 0, 0.3);
            assert_eq!(a, s.drop_dispatch(job, 0, 0.3));
            if a {
                drops += 1;
            }
        }
        // ~600 expected; loose 3-sigma-ish band.
        assert!((480..=720).contains(&drops), "{drops}");
        // Attempts flip independent coins.
        let differs = (0..200u64).any(|j| s.drop_dispatch(j, 0, 0.5) != s.drop_dispatch(j, 1, 0.5));
        assert!(differs);
    }

    #[test]
    fn scenarios_build_deterministically_and_respect_intensity_zero() {
        let h = t(60.0);
        for kind in [
            FleetScenarioKind::ServerCrash,
            FleetScenarioKind::ServerSlow,
            FleetScenarioKind::DispatchLoss,
            FleetScenarioKind::FleetCombined,
        ] {
            let zero = FleetScenario::new(kind, 0.0).build(4, 8, h, 5);
            assert!(zero.0.is_empty());
            assert!(zero.1.iter().all(|s| s.is_empty()));
            let a = FleetScenario::new(kind, 0.8).build(4, 8, h, 5);
            let b = FleetScenario::new(kind, 0.8).build(4, 8, h, 5);
            assert_eq!(a.0, b.0);
            assert_eq!(a.1, b.1);
            assert!(!a.0.is_empty());
            assert_eq!(a.1.len(), 4);
        }
    }

    #[test]
    fn servercrash_leaves_a_survivor_and_combined_hits_shard_zero() {
        let h = t(60.0);
        let (fleet, _) = FleetScenario::new(FleetScenarioKind::ServerCrash, 1.0).build(4, 8, h, 5);
        let mut online = [true; 4];
        let mut min_online = 4;
        for tr in fleet.transitions() {
            match tr.transition {
                FleetTransition::ServerDown { server } => online[server] = false,
                FleetTransition::ServerUp { server } => online[server] = true,
                _ => {}
            }
            min_online = min_online.min(online.iter().filter(|&&up| up).count());
        }
        assert!(min_online >= 1, "a crash scenario must leave a survivor");

        let (fleet, shards) =
            FleetScenario::new(FleetScenarioKind::FleetCombined, 1.0).build(3, 8, h, 5);
        assert!(!fleet.is_empty());
        assert!(!shards[0].is_empty());
        assert!(shards[1].is_empty() && shards[2].is_empty());
        // Parse round-trip covers every name.
        for name in FleetScenario::ALL_NAMES {
            assert_eq!(FleetScenario::parse(name).map(|k| k.name()), Some(name));
        }
        assert!(FleetScenario::parse("nope").is_none());
    }
}
