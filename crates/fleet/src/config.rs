//! Fleet configuration: routing policy, budget partitioner, and the knobs
//! of the retry/shed machinery.

use ge_core::{Algorithm, SimConfig};
use ge_simcore::SimDuration;

/// How the router picks a live server for each arriving job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingPolicy {
    /// Cycle through live servers in index order.
    RoundRobin,
    /// Send to the live server with the fewest queued-unstarted jobs
    /// (ties broken by backlog units, then index).
    JoinShortestQueue,
    /// Sample `d` live servers uniformly and take the least-loaded — the
    /// classic power-of-d-choices load balancer.
    PowerOfD(usize),
    /// Send to the live server with the lowest backlog per allocated
    /// watt, so budget-starved servers receive proportionally less work.
    EnergyAware,
}

impl RoutingPolicy {
    /// Every policy at its default parameters, in presentation order.
    pub const ALL: [RoutingPolicy; 4] = [
        RoutingPolicy::RoundRobin,
        RoutingPolicy::JoinShortestQueue,
        RoutingPolicy::PowerOfD(2),
        RoutingPolicy::EnergyAware,
    ];

    /// The wire/CLI name (`rr`, `jsq`, `po2`, `energy`).
    pub fn name(&self) -> &'static str {
        match self {
            RoutingPolicy::RoundRobin => "rr",
            RoutingPolicy::JoinShortestQueue => "jsq",
            RoutingPolicy::PowerOfD(_) => "po2",
            RoutingPolicy::EnergyAware => "energy",
        }
    }

    /// Parses a wire/CLI name; `None` for unknown names.
    pub fn parse(name: &str) -> Option<RoutingPolicy> {
        match name {
            "rr" => Some(RoutingPolicy::RoundRobin),
            "jsq" => Some(RoutingPolicy::JoinShortestQueue),
            "po2" => Some(RoutingPolicy::PowerOfD(2)),
            "energy" => Some(RoutingPolicy::EnergyAware),
            _ => None,
        }
    }
}

/// How the global budget `H` is re-divided across servers each epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Partitioner {
    /// The naive baseline: every server keeps `H/N` forever — a dead
    /// server's slice is simply wasted.
    EqualSplit,
    /// Dead servers surrender their slice to a pool; live servers keep
    /// their nominal `H/N` and split the pool in proportion to their
    /// current backlog, so a survivor is never starved below its
    /// fault-free share.
    ProportionalLoad,
    /// Like [`Partitioner::ProportionalLoad`] but weights backlog by
    /// `load^β` — the power actually needed to clear it under
    /// `P = a·s^β` — which equalizes projected completion times.
    SumPowerAware,
}

impl Partitioner {
    /// Every partitioner, in presentation order.
    pub const ALL: [Partitioner; 3] = [
        Partitioner::EqualSplit,
        Partitioner::ProportionalLoad,
        Partitioner::SumPowerAware,
    ];

    /// The wire/CLI name (`equal`, `prop`, `sumpow`).
    pub fn name(&self) -> &'static str {
        match self {
            Partitioner::EqualSplit => "equal",
            Partitioner::ProportionalLoad => "prop",
            Partitioner::SumPowerAware => "sumpow",
        }
    }

    /// Parses a wire/CLI name; `None` for unknown names.
    pub fn parse(name: &str) -> Option<Partitioner> {
        match name {
            "equal" => Some(Partitioner::EqualSplit),
            "prop" => Some(Partitioner::ProportionalLoad),
            "sumpow" => Some(Partitioner::SumPowerAware),
            _ => None,
        }
    }
}

/// Full configuration for one fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of servers `N` behind the router.
    pub servers: usize,
    /// Per-server platform configuration. `shard.budget_w` is the nominal
    /// slice `H/N`; the global budget is `servers × shard.budget_w`.
    pub shard: SimConfig,
    /// The scheduling algorithm every server runs.
    pub algorithm: Algorithm,
    /// How the router picks a server per job.
    pub routing: RoutingPolicy,
    /// How the global budget is re-divided each epoch.
    pub partitioner: Partitioner,
    /// Budget reallocation period.
    pub realloc_every: SimDuration,
    /// Maximum dispatch retries per job before the router sheds it.
    pub max_retries: u32,
    /// Base retry delay; attempt `k` retries after `backoff × 2^k`.
    pub retry_backoff: SimDuration,
    /// Admission guard, in seconds of a server's nominal equal-share
    /// capacity: when `q_min > 0` and every live server's backlog exceeds
    /// `factor × capacity`, new work is shed instead of queued beyond
    /// hope. Ignored when the shard's `q_min` is zero; `+∞` means no
    /// guard.
    pub shed_backlog_factor: f64,
    /// Root seed for routing and dispatch-loss randomness.
    pub seed: u64,
}

impl FleetConfig {
    /// A paper-style fleet: `servers` servers of `shard` each, GE
    /// scheduling, JSQ routing, proportional-load repartitioning.
    pub fn new(servers: usize, shard: SimConfig) -> Self {
        FleetConfig {
            servers,
            shard,
            algorithm: Algorithm::Ge,
            routing: RoutingPolicy::JoinShortestQueue,
            partitioner: Partitioner::ProportionalLoad,
            realloc_every: SimDuration::from_secs(1.0),
            max_retries: 3,
            retry_backoff: SimDuration::from_millis(10.0),
            shed_backlog_factor: 0.5,
            seed: 0,
        }
    }

    /// The global power budget `H` (watts).
    pub fn total_budget_w(&self) -> f64 {
        self.shard.budget_w * self.servers as f64
    }

    /// Validates the fleet-level knobs (the shard config validates itself
    /// when the servers are built).
    ///
    /// # Panics
    /// Panics on a zero-server fleet or nonsensical retry/shed knobs (a
    /// shed backlog factor must be positive; `+∞` turns the guard off).
    pub fn validate(&self) {
        assert!(self.servers >= 1, "a fleet needs at least one server");
        assert!(
            self.realloc_every.as_secs() > 0.0,
            "reallocation period must be positive"
        );
        assert!(
            self.retry_backoff.as_secs() > 0.0,
            "retry backoff must be positive"
        );
        assert!(
            self.shed_backlog_factor > 0.0,
            "shed backlog factor must be positive (or +inf for no guard)"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for p in RoutingPolicy::ALL {
            assert_eq!(RoutingPolicy::parse(p.name()), Some(p));
        }
        for p in Partitioner::ALL {
            assert_eq!(Partitioner::parse(p.name()), Some(p));
        }
        assert_eq!(RoutingPolicy::parse("nope"), None);
        assert_eq!(Partitioner::parse("nope"), None);
    }

    #[test]
    fn total_budget_is_servers_times_slice() {
        let mut shard = SimConfig::paper_default();
        shard.cores = 4;
        shard.budget_w = 80.0;
        let cfg = FleetConfig::new(4, shard);
        assert_eq!(cfg.total_budget_w(), 320.0);
        cfg.validate();
    }
}
