//! The fleet event loop: routing, budget repartitioning, and failover.
//!
//! [`Fleet`] is the online fleet handle, shaped like `ge_core::Run`:
//! [`Fleet::start`], one [`Fleet::submit`] per arriving job (routed or
//! shed at its release), [`Fleet::advance_to`] between arrivals, then
//! [`Fleet::finish`]. [`run_fleet`] is exactly that sequence over a trace.
//!
//! The router is a handler on a [`Simulator`] over four event kinds —
//! fleet fault transitions, budget-reallocation epochs, first dispatches
//! and retries — which fire in `(time, priority, sequence)` order,
//! mirroring the per-server engine's discipline (faults fire before the
//! scheduler observes the instant). At one instant the order is: fault
//! transitions, the budget epoch, first dispatches in submit order, then
//! retries. Retries have a priority of their own, so a retry landing on a
//! release instant goes after every job submitted at that instant, even
//! though it was scheduled first. Each router event costs work only in
//! the servers it touches:
//!
//! * **Due servers only.** Before an event at `t` the router advances the
//!   servers whose earliest pending engine event is not after `t`. An
//!   advance with nothing due would move only the server's clock, which
//!   no later step depends on, so skipping it is exact; the engine's
//!   segmented-advance invariant makes the remaining segments
//!   bit-identical to a straight per-server run, which is what makes the
//!   whole fleet reproducible from one seed.
//! * **Stamped load cache.** A server's load signal `(queue_len,
//!   load_units)` changes only when it handles an event, crashes or
//!   recovers, so the router caches it stamped with the server's
//!   handled-event count and drops it on crash and recover.
//!
//! Whether a server is up is router state alone: the sorted `live` list.

use std::cmp::Ordering;

use ge_core::{Run, RunResult};
use ge_faults::{FaultSchedule, FleetFaultSchedule, FleetTransition};
use ge_simcore::{RngStream, SimContext, SimTime, Simulator};
use ge_telemetry::Telemetry;
use ge_trace::{FleetRunStartEvent, FleetSummaryEvent, NullSink, TraceEvent, TraceSink};
use ge_workload::{Job, Trace};

use crate::config::{FleetConfig, Partitioner, RoutingPolicy};

/// Everything measured over one fleet run.
#[derive(Debug, Clone)]
pub struct FleetResult {
    /// The algorithm label every server ran.
    pub algorithm: String,
    /// Fleet-wide delivered quality: `Σ f(c_j) / (Σ f(p_j) + Σ f(p_shed))`
    /// — router-shed jobs count against the fleet at full value.
    pub quality: f64,
    /// Total energy across all servers (joules).
    pub energy_j: f64,
    /// Jobs in the offered workload.
    pub jobs_total: u64,
    /// Jobs whose service ended on some server.
    pub jobs_finished: u64,
    /// Jobs that ended with zero processed volume on their server.
    pub jobs_discarded: u64,
    /// Jobs shed by per-server admission control (`q_min` floor).
    pub jobs_shed_shards: u64,
    /// Jobs the router shed (retry budget exhausted, dead fleet, or
    /// overload guard).
    pub jobs_shed_router: u64,
    /// Successful router→server dispatches (includes re-dispatches).
    pub dispatches: u64,
    /// Jobs reclaimed from crashed servers and re-routed.
    pub failovers: u64,
    /// Dispatch attempts lost to the network and retried.
    pub retries: u64,
    /// Budget-reallocation epochs executed.
    pub budget_epochs: u64,
    /// Per-server run measurements, in server order.
    pub shards: Vec<RunResult>,
}

const PRIO_FAULT: u32 = 0;
const PRIO_REALLOC: u32 = 1;
const PRIO_DISPATCH: u32 = 2;
const PRIO_RETRY: u32 = 3;

/// What the router does at one event.
#[derive(Debug, Clone, Copy)]
enum FEv {
    /// Apply a fleet fault transition.
    Fault(FleetTransition),
    /// Recompute the budget partition.
    Realloc,
    /// Route a submitted job for the first time.
    Dispatch(Job),
    /// Route a job again: its attempt number (at least 1) after a lost
    /// one.
    Retry(Job, u32),
}

/// Live-registry handles the router feeds while telemetry is enabled.
struct FleetTelemetry {
    live_shards: ge_telemetry::Gauge,
    dispatches: ge_telemetry::Counter,
    failovers: ge_telemetry::Counter,
    retries: ge_telemetry::Counter,
    shed: ge_telemetry::Counter,
    shard_budget: Vec<ge_telemetry::Gauge>,
}

impl FleetTelemetry {
    fn new(servers: usize) -> Self {
        let reg = Telemetry::registry();
        FleetTelemetry {
            live_shards: reg.gauge("ge_fleet_live_shards"),
            dispatches: reg.counter("ge_fleet_dispatch_total"),
            failovers: reg.counter("ge_fleet_failovers_total"),
            retries: reg.counter("ge_fleet_retries_total"),
            shed: reg.counter("ge_fleet_shed_total"),
            shard_budget: (0..servers)
                .map(|i| reg.gauge_with("ge_fleet_shard_budget_w", &[("shard", &i.to_string())]))
                .collect(),
        }
    }
}

/// A server's load signal, valid while `stamp` equals the server's
/// [`Run::events_handled`].
#[derive(Debug, Clone, Copy)]
struct LoadSig {
    stamp: u64,
    queue_len: usize,
    units: f64,
}

impl LoadSig {
    /// Matches no handled-event count.
    const STALE: LoadSig = LoadSig {
        stamp: u64::MAX,
        queue_len: 0,
        units: 0.0,
    };
}

/// The sink a server's engine records into: the caller's when it wants job
/// terminals without the trace (a serving session's books), otherwise
/// none, so a traced fleet's events stay router-only and monotone in `t`.
fn shard_sink<'a>(sink: &'a mut dyn TraceSink, null: &'a mut NullSink) -> &'a mut dyn TraceSink {
    if !sink.is_enabled() && sink.records_terminals() {
        sink
    } else {
        null
    }
}

/// An online fleet: N server [`Run`]s behind a deterministic router that
/// routes or sheds each submitted job, re-divides the global power budget
/// every epoch, and fails a crashed server's queued jobs over to the
/// survivors.
///
/// Every call takes the caller's sink. Router events (dispatches, sheds,
/// retries, failovers, budget epochs, server faults) go to it when it is
/// enabled. The servers' engines record into it only when it is disabled
/// but wants job terminals ([`TraceSink::records_terminals`]); otherwise
/// they get a [`NullSink`].
pub struct Fleet {
    cfg: FleetConfig,
    schedule: FleetFaultSchedule,
    /// The router's clock and pending events.
    sim: Simulator<FEv>,
    shards: Vec<Run>,
    /// Per-server cached load signal.
    loads: Vec<LoadSig>,
    /// Servers not crashed, in index order; changes only on crash and
    /// recover.
    live: Vec<usize>,
    /// The router→server dispatch drop probability in force.
    loss_prob: f64,
    rr_cursor: usize,
    route_rng_root: RngStream,
    route_draws: u64,
    /// Current budget slices (watts), updated each realloc epoch.
    slices: Vec<f64>,
    /// Router-shed jobs' full quality value, added to the fleet
    /// denominator.
    shed_full_sum: f64,
    submitted: u64,
    dispatched: u64,
    failovers: u64,
    retries: u64,
    shed: u64,
    budget_epochs: u64,
    telemetry: Option<FleetTelemetry>,
}

impl Fleet {
    /// Starts a fleet at t = 0 and emits its `FleetRunStart` into `sink`.
    /// Every server runs to `cfg.shard.horizon`, which must cover every
    /// deadline later submitted.
    ///
    /// `shard_faults` carries per-server fault schedules (core loss,
    /// throttling, DVFS error); pass an empty slice for fault-free servers,
    /// otherwise exactly one entry per server. Fleet-level faults
    /// (whole-server crashes, slowdowns, dispatch loss) come from
    /// `fleet_faults`.
    ///
    /// # Panics
    /// Panics if `cfg` is invalid, `shard_faults` is neither empty nor
    /// `cfg.servers` long, a per-server schedule carries surge windows or
    /// demand noise (surge jobs would collide with the router's global job
    /// ids; both are fleet-level concerns), or `fleet_faults` names a
    /// server `>= cfg.servers`.
    pub fn start(
        cfg: FleetConfig,
        fleet_faults: FleetFaultSchedule,
        shard_faults: &[FaultSchedule],
        sink: &mut dyn TraceSink,
    ) -> Self {
        cfg.validate();
        assert!(
            shard_faults.is_empty() || shard_faults.len() == cfg.servers,
            "need one per-server fault schedule per server (or none), got {} for {} servers",
            shard_faults.len(),
            cfg.servers
        );
        assert!(
            shard_faults.iter().all(|fs| *fs == fs.machine_faults()),
            "per-shard fault schedules must not carry surges or demand noise"
        );
        let transitions = fleet_faults.transitions();
        for tr in &transitions {
            if let FleetTransition::ServerDown { server }
            | FleetTransition::ServerUp { server }
            | FleetTransition::ServerSpeedFactor { server, .. } = tr.transition
            {
                assert!(
                    server < cfg.servers,
                    "fleet transition references server {server} in a {}-server fleet",
                    cfg.servers
                );
            }
        }

        let empty = Trace::default();
        let shards: Vec<Run> = (0..cfg.servers)
            .map(|i| {
                let faults = shard_faults.get(i);
                Run::start(&cfg.shard, &empty, &cfg.algorithm, faults, &mut NullSink)
            })
            .collect();

        let telemetry = Telemetry::is_enabled().then(|| FleetTelemetry::new(cfg.servers));
        if let Some(tel) = &telemetry {
            tel.live_shards.set(cfg.servers as f64);
        }
        if sink.is_enabled() {
            sink.record(&TraceEvent::from(FleetRunStartEvent {
                t: 0.0,
                servers: cfg.servers as u64,
                cores: cfg.shard.cores as u64,
                budget_w: cfg.total_budget_w(),
                policy: cfg.routing.name().to_string(),
                partitioner: cfg.partitioner.name().to_string(),
                seed: cfg.seed,
            }));
        }

        let mut sim = Simulator::new();
        for tr in transitions.iter().filter(|tr| tr.at <= cfg.shard.horizon) {
            sim.schedule(tr.at, PRIO_FAULT, FEv::Fault(tr.transition));
        }
        sim.schedule(SimTime::ZERO, PRIO_REALLOC, FEv::Realloc);
        Fleet {
            loads: vec![LoadSig::STALE; cfg.servers],
            live: (0..cfg.servers).collect(),
            loss_prob: 0.0,
            rr_cursor: 0,
            route_rng_root: RngStream::from_root(cfg.seed, "fleet/route"),
            route_draws: 0,
            slices: vec![cfg.shard.budget_w; cfg.servers],
            shed_full_sum: 0.0,
            submitted: 0,
            dispatched: 0,
            failovers: 0,
            retries: 0,
            shed: 0,
            budget_epochs: 0,
            telemetry,
            cfg,
            schedule: fleet_faults,
            sim,
            shards,
        }
    }

    /// The router's clock: the instant of the last router event, submit or
    /// advance. A server's own clock may lag it (see [`Run::now`]).
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// The horizon every server runs to.
    pub fn horizon(&self) -> SimTime {
        self.cfg.shard.horizon
    }

    /// The servers, in index order.
    pub fn shards(&self) -> &[Run] {
        &self.shards
    }

    /// Fleet-wide running quality: the servers' ledgers summed, with every
    /// router-shed job in the denominator at full value (1.0 while the
    /// books are empty).
    pub fn ledger_quality(&self) -> f64 {
        let (achieved, full) = self
            .shards
            .iter()
            .map(Run::ledger_sums)
            .fold((0.0, 0.0), |(a, f), (sa, sf)| (a + sa, f + sf));
        let full = full + self.shed_full_sum;
        if full <= 0.0 {
            1.0
        } else {
            (achieved / full).min(1.0)
        }
    }

    /// Routes `job` at its release, or sheds it. Every router event before
    /// that instant fires first, as do the fault transitions and budget
    /// epoch at it; retries due at the release wait for the next submit,
    /// advance or finish, so they go after every job submitted at that
    /// instant.
    ///
    /// # Panics
    /// Panics if the job is released before [`Fleet::now`] or its deadline
    /// is after [`Fleet::horizon`].
    pub fn submit(&mut self, job: Job, sink: &mut dyn TraceSink) {
        assert!(
            !job.deadline.after(self.horizon()),
            "job {} has its deadline {} after the fleet horizon {}",
            job.id,
            job.deadline,
            self.horizon()
        );
        self.submitted += 1;
        self.sim
            .schedule(job.release, PRIO_DISPATCH, FEv::Dispatch(job));
        self.run(job.release, sink);
    }

    /// Fires every router event at or before `t` (clamped to the horizon)
    /// and brings every server whose clock is before it to it. A server
    /// already at `t` (within `TIME_EPS`) is left as it is, so work handed
    /// to it at `t` waits for the next router event or advance.
    pub fn advance_to(&mut self, t: SimTime, sink: &mut dyn TraceSink) {
        let until = t.min(self.horizon());
        self.run(until, sink);
        let mut null = NullSink;
        let sink = shard_sink(sink, &mut null);
        for s in &mut self.shards {
            if until.after(s.now()) {
                s.advance_to(until, sink);
            }
        }
    }

    /// Runs the fleet to its horizon, closes every server's books and
    /// returns the aggregated result.
    pub fn finish(mut self, sink: &mut dyn TraceSink) -> FleetResult {
        let horizon = self.horizon();
        self.run(horizon, sink);
        let mut null = NullSink;
        let shards_sink = shard_sink(sink, &mut null);
        let outcomes: Vec<_> = self
            .shards
            .into_iter()
            .map(|s| s.finish(shards_sink))
            .collect();
        let achieved: f64 = outcomes.iter().map(|o| o.achieved_sum).sum();
        let full: f64 = outcomes.iter().map(|o| o.full_sum).sum::<f64>() + self.shed_full_sum;
        let quality = if full > 0.0 { achieved / full } else { 1.0 };
        let energy_j: f64 = outcomes.iter().map(|o| o.result.energy_j).sum();

        if sink.is_enabled() {
            sink.record(&TraceEvent::from(FleetSummaryEvent {
                t: horizon.as_secs(),
                dispatched: self.dispatched,
                failovers: self.failovers,
                retries: self.retries,
                shed: self.shed,
                energy_j,
                quality,
            }));
        }

        FleetResult {
            algorithm: self.cfg.algorithm.label().to_string(),
            quality,
            energy_j,
            jobs_total: self.submitted,
            jobs_finished: outcomes.iter().map(|o| o.result.jobs_finished).sum(),
            jobs_discarded: outcomes.iter().map(|o| o.result.jobs_discarded).sum(),
            jobs_shed_shards: outcomes.iter().map(|o| o.result.jobs_shed).sum(),
            jobs_shed_router: self.shed,
            dispatches: self.dispatched,
            failovers: self.failovers,
            retries: self.retries,
            budget_epochs: self.budget_epochs,
            shards: outcomes.into_iter().map(|o| o.result).collect(),
        }
    }

    /// Fires router events up to `until`; a first dispatch stops the loop
    /// right after itself, leaving its instant's retries pending.
    fn run(&mut self, until: SimTime, sink: &mut dyn TraceSink) {
        let mut sim = std::mem::take(&mut self.sim);
        sim.run_until(until, |ctx, ev| {
            self.advance_due(ctx.now(), sink);
            match ev {
                FEv::Fault(transition) => self.apply_fault(ctx, transition, sink),
                FEv::Realloc => self.realloc(ctx, sink),
                FEv::Dispatch(job) => {
                    ctx.request_stop();
                    self.dispatch(ctx, job, 0, true, sink);
                }
                FEv::Retry(job, attempt) => self.dispatch(ctx, job, attempt, true, sink),
            }
        });
        self.sim = sim;
    }

    /// Advances every server with an engine event due at or before `t`.
    fn advance_due(&mut self, t: SimTime, sink: &mut dyn TraceSink) {
        let mut null = NullSink;
        let sink = shard_sink(sink, &mut null);
        for s in &mut self.shards {
            if s.next_event_time().is_some_and(|e| !e.after(t)) {
                s.advance_to(t, sink);
            }
        }
    }

    /// Server `i`'s load signal, recomputed only if it handled an event
    /// since the last read.
    fn load(&mut self, i: usize) -> LoadSig {
        let stamp = self.shards[i].events_handled();
        if self.loads[i].stamp != stamp {
            self.loads[i] = LoadSig {
                stamp,
                queue_len: self.shards[i].queue_len(),
                units: self.shards[i].load_units(),
            };
        }
        self.loads[i]
    }

    /// Brings every live server's cached load signal up to date.
    fn refresh_live_loads(&mut self) {
        for k in 0..self.live.len() {
            self.load(self.live[k]);
        }
    }

    /// The admission guard's backlog ceiling (service units).
    fn backlog_limit_units(&self) -> f64 {
        self.cfg.shed_backlog_factor * self.cfg.shard.equal_share_capacity_units()
    }

    /// The live server whose fresh load signal is least under `cmp`,
    /// the lowest index among equals. `live` must be non-empty.
    fn least_live(&mut self, cmp: impl Fn(&Self, usize, usize) -> Ordering) -> usize {
        self.refresh_live_loads();
        *self
            .live
            .iter()
            .min_by(|&&a, &&b| cmp(self, a, b).then(a.cmp(&b)))
            .unwrap_or(&self.live[0])
    }

    /// Picks a live server for a job, or `None` when the whole fleet is
    /// down or the overload guard rejects (only with `q_min > 0` and a
    /// finite `shed_backlog_factor`). Reads only cached load signals,
    /// refreshing those that went stale, and allocates nothing. Among
    /// equal keys the lowest index wins.
    fn route(&mut self) -> Option<usize> {
        if self.live.is_empty() {
            return None;
        }
        let chosen = match self.cfg.routing {
            RoutingPolicy::RoundRobin => loop {
                let c = self.rr_cursor % self.shards.len();
                self.rr_cursor += 1;
                if self.live.binary_search(&c).is_ok() {
                    break c;
                }
            },
            RoutingPolicy::JoinShortestQueue => self.least_live(|r, a, b| {
                let (ka, kb) = (r.loads[a], r.loads[b]);
                ka.queue_len
                    .cmp(&kb.queue_len)
                    .then(ka.units.total_cmp(&kb.units))
            }),
            RoutingPolicy::PowerOfD(d) => {
                let draw = self.route_draws;
                self.route_draws += 1;
                let mut rng = self.route_rng_root.substream(draw);
                let n = self.live.len() as u64;
                let mut best = self.live[rng.next_below(n) as usize];
                for _ in 1..d.max(1) {
                    let cand = self.live[rng.next_below(n) as usize];
                    let better = self
                        .load(cand)
                        .units
                        .total_cmp(&self.load(best).units)
                        .then(cand.cmp(&best))
                        == Ordering::Less;
                    if better {
                        best = cand;
                    }
                }
                best
            }
            RoutingPolicy::EnergyAware => self.least_live(|r, a, b| {
                // Backlog per allocated watt; an (unlikely) zero-watt live
                // server sorts last via +inf.
                let per_watt = |i: usize| r.loads[i].units / r.slices[i].max(f64::MIN_POSITIVE);
                per_watt(a).total_cmp(&per_watt(b))
            }),
        };
        // Overload guard: only sheds when the shard config carries a
        // degradation floor and the factor is finite; the fault-free
        // default queues everything.
        if self.cfg.shard.q_min > 0.0 && self.cfg.shed_backlog_factor.is_finite() {
            let limit = self.backlog_limit_units();
            if self.load(chosen).units > limit {
                let fallback =
                    self.least_live(|r, a, b| r.loads[a].units.total_cmp(&r.loads[b].units));
                if self.loads[fallback].units > limit {
                    return None;
                }
                return Some(fallback);
            }
        }
        Some(chosen)
    }

    fn shed_job(&mut self, t: SimTime, job: &Job, sink: &mut dyn TraceSink) {
        self.shed += 1;
        self.shed_full_sum += self.shards[0].quality_value(job.demand);
        if let Some(tel) = &self.telemetry {
            tel.shed.inc();
        }
        if sink.is_enabled() {
            sink.record(&TraceEvent::FleetShed {
                t: t.as_secs(),
                job: job.id.index() as u64,
                demand: job.demand,
            });
        }
    }

    /// Routes one job now. `allow_loss` is false for failover
    /// re-dispatches: the job is already inside the system, so only fresh
    /// router→server sends flip the loss coin.
    fn dispatch(
        &mut self,
        ctx: &mut SimContext<'_, FEv>,
        job: Job,
        attempt: u32,
        allow_loss: bool,
        sink: &mut dyn TraceSink,
    ) {
        let t = ctx.now();
        if t >= job.deadline {
            // Too late to earn any quality; account it honestly as shed.
            self.shed_job(t, &job, sink);
            return;
        }
        if allow_loss
            && self.loss_prob > 0.0
            && self
                .schedule
                .drop_dispatch(job.id.index() as u64, attempt, self.loss_prob)
        {
            let backoff_s = self.cfg.retry_backoff.as_secs() * f64::from(1u32 << attempt.min(20));
            let next = t + ge_simcore::SimDuration::from_secs(backoff_s);
            if attempt + 1 > self.cfg.max_retries || next >= job.deadline {
                // The lost attempt exhausted the retry budget (or the
                // retry would land past the deadline): shed, not retry.
                self.shed_job(t, &job, sink);
            } else {
                self.retries += 1;
                if let Some(tel) = &self.telemetry {
                    tel.retries.inc();
                }
                if sink.is_enabled() {
                    sink.record(&TraceEvent::FleetRetry {
                        t: t.as_secs(),
                        job: job.id.index() as u64,
                        attempt: u64::from(attempt),
                        next_s: next.as_secs(),
                    });
                }
                ctx.schedule(next, PRIO_RETRY, FEv::Retry(job, attempt + 1));
            }
            return;
        }
        match self.route() {
            Some(server) => {
                self.dispatched += 1;
                if let Some(tel) = &self.telemetry {
                    tel.dispatches.inc();
                }
                if sink.is_enabled() {
                    sink.record(&TraceEvent::FleetDispatch {
                        t: t.as_secs(),
                        job: job.id.index() as u64,
                        shard: server as u64,
                        attempt: u64::from(attempt),
                    });
                }
                self.shards[server].inject_job(job, t);
            }
            None => self.shed_job(t, &job, sink),
        }
    }

    /// Recomputes the budget partition and pushes it into the servers.
    fn realloc(&mut self, ctx: &mut SimContext<'_, FEv>, sink: &mut dyn TraceSink) {
        let t = ctx.now();
        let n = self.shards.len();
        let total = self.cfg.total_budget_w();
        let nominal = total / n as f64;
        let mut slices = vec![0.0f64; n];
        if self.live.is_empty() || self.cfg.partitioner == Partitioner::EqualSplit {
            // Equal split never moves budget — a dead server's slice is
            // wasted, which is exactly the baseline the repartitioners
            // are measured against. (An all-dead fleet also parks every
            // slice in place so the conservation invariant holds.)
            slices.fill(nominal);
        } else {
            // Live servers keep their nominal share — load signals only
            // steer the *reclaimed* budget, so a momentarily idle server
            // is never starved below its fault-free slice. Dead servers
            // surrender theirs to the pool.
            let pool = total - nominal * self.live.len() as f64;
            let (beta, partitioner) = (self.cfg.shard.power_beta, self.cfg.partitioner);
            let weight = |load: f64| match partitioner {
                Partitioner::ProportionalLoad => load,
                Partitioner::SumPowerAware => load.powf(beta),
                Partitioner::EqualSplit => unreachable!("handled above"),
            };
            self.refresh_live_loads();
            let weights: Vec<f64> = self
                .live
                .iter()
                .map(|&i| weight(self.loads[i].units))
                .collect();
            let wsum: f64 = weights.iter().sum();
            for (k, &i) in self.live.iter().enumerate() {
                let share = if wsum > 0.0 {
                    weights[k] / wsum
                } else {
                    1.0 / self.live.len() as f64
                };
                slices[i] = nominal + pool * share;
            }
        }
        for (i, &slice) in slices.iter().enumerate() {
            if sink.is_enabled() {
                sink.record(&TraceEvent::FleetBudget {
                    t: t.as_secs(),
                    shard: i as u64,
                    budget_w: slice,
                });
            }
            if let Some(tel) = &self.telemetry {
                tel.shard_budget[i].set(slice);
            }
        }
        for &i in &self.live {
            self.shards[i].set_budget_factor(slices[i] / nominal);
        }
        self.slices = slices;
        self.budget_epochs += 1;
        // Chain the next epoch; the final books close at the horizon.
        let next = t + self.cfg.realloc_every;
        if next < self.horizon() {
            ctx.schedule(next, PRIO_REALLOC, FEv::Realloc);
        }
    }

    fn apply_fault(
        &mut self,
        ctx: &mut SimContext<'_, FEv>,
        transition: FleetTransition,
        sink: &mut dyn TraceSink,
    ) {
        let t = ctx.now();
        match transition {
            FleetTransition::ServerDown { server } => {
                let Ok(k) = self.live.binary_search(&server) else {
                    return;
                };
                self.live.remove(k);
                let reclaimed = self.shards[server].crash();
                self.loads[server] = LoadSig::STALE;
                if sink.is_enabled() {
                    sink.record(&TraceEvent::ShardFault {
                        t: t.as_secs(),
                        shard: server as u64,
                        online: false,
                    });
                }
                if let Some(tel) = &self.telemetry {
                    tel.live_shards.set(self.live.len() as f64);
                    tel.failovers.add(reclaimed.len() as u64);
                }
                self.failovers += reclaimed.len() as u64;
                for job in reclaimed {
                    if sink.is_enabled() {
                        sink.record(&TraceEvent::FleetFailover {
                            t: t.as_secs(),
                            job: job.id.index() as u64,
                            shard: server as u64,
                        });
                    }
                    // Re-route immediately; the job keeps its identity, so
                    // its latency accounting still starts at its release.
                    self.dispatch(ctx, job, 0, false, sink);
                }
            }
            FleetTransition::ServerUp { server } => {
                let Err(at) = self.live.binary_search(&server) else {
                    return;
                };
                self.live.insert(at, server);
                self.shards[server].recover();
                self.loads[server] = LoadSig::STALE;
                if sink.is_enabled() {
                    sink.record(&TraceEvent::ShardFault {
                        t: t.as_secs(),
                        shard: server as u64,
                        online: true,
                    });
                }
                if let Some(tel) = &self.telemetry {
                    tel.live_shards.set(self.live.len() as f64);
                }
            }
            FleetTransition::ServerSpeedFactor { server, factor } => {
                self.shards[server].set_speed_factor_all(factor);
            }
            FleetTransition::DispatchLoss { prob } => self.loss_prob = prob,
        }
    }
}

/// Runs a whole fleet to its horizon and returns the aggregated result:
/// [`Fleet::start`], one [`Fleet::submit`] per trace job, then
/// [`Fleet::finish`]. Every server runs to the configured horizon,
/// stretched to the trace's last deadline. The run is a pure function of
/// `(cfg, trace, fault schedules)` — bit-identical on every invocation.
///
/// # Panics
/// Panics as [`Fleet::start`] does, or if `trace` is not release-ordered
/// or has a negative release.
pub fn run_fleet(
    cfg: &FleetConfig,
    trace: &Trace,
    fleet_faults: &FleetFaultSchedule,
    shard_faults: &[FaultSchedule],
    sink: &mut dyn TraceSink,
) -> FleetResult {
    let mut cfg = cfg.clone();
    cfg.shard.horizon = cfg.shard.horizon.max(trace.last_deadline());
    let mut fleet = Fleet::start(cfg, fleet_faults.clone(), shard_faults, sink);
    for &job in trace.jobs() {
        fleet.submit(job, sink);
    }
    fleet.finish(sink)
}
