//! Trace replay and invariant checking.
//!
//! A trace is self-contained: [`crate::TraceEvent::RunStart`] carries the
//! run configuration, so the checker can rebuild the run's bookkeeping
//! from scratch — energy by summing [`crate::TraceEvent::ExecSlice`]
//! through a fresh [`ge_power::EnergyMeter`], AES residency by feeding
//! [`crate::TraceEvent::ModeSwitch`] through [`ge_metrics::ModeTracker`],
//! and quality by feeding [`crate::TraceEvent::JobFinish`] through
//! [`ge_quality::QualityLedger`] — and cross-check each against the
//! driver's reported [`crate::TraceEvent::RunSummary`].

use crate::event::{RunMetaEvent, TraceEvent};
use ge_metrics::ModeTracker;
use ge_power::EnergyMeter;
use ge_quality::{ExpConcave, LedgerMode, QualityFunction, QualityLedger};
use ge_simcore::SimTime;
use std::collections::BTreeMap;

/// Tolerance for the relative energy-conservation check.
pub const ENERGY_REL_TOL: f64 = 1e-6;
/// Tolerance for the absolute AES-residency check.
pub const AES_ABS_TOL: f64 = 1e-9;
/// Tolerance for the absolute quality-rebuild check.
pub const QUALITY_ABS_TOL: f64 = 1e-9;

/// Wire-schema tag a [`TraceEvent::RunMeta`] header must carry for this
/// replay implementation to accept the trace.
pub const TRACE_SCHEMA: &str = "ge-trace/v1";

/// A structurally invalid trace (replay could not even start).
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayError {
    /// The trace was empty.
    Empty,
    /// A `run_meta` header was present but unusable (wrong schema tag or
    /// a nonzero timestamp).
    BadHeader(String),
    /// The first event was not `run_start`.
    MissingRunStart,
    /// No `run_summary` event was found.
    MissingRunSummary,
    /// The first event of a fleet trace was not `fleet_run_start`.
    MissingFleetRunStart,
    /// No `fleet_summary` event was found.
    MissingFleetSummary,
    /// The first event of a serve trace was not `serve_run_start`.
    MissingServeRunStart,
    /// No `serve_summary` event was found.
    MissingServeSummary,
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Empty => write!(f, "empty trace"),
            ReplayError::BadHeader(why) => write!(f, "invalid run_meta header: {why}"),
            ReplayError::MissingRunStart => {
                write!(f, "trace does not begin with a run_start event")
            }
            ReplayError::MissingRunSummary => {
                write!(f, "trace has no run_summary event")
            }
            ReplayError::MissingFleetRunStart => {
                write!(f, "fleet trace does not begin with a fleet_run_start event")
            }
            ReplayError::MissingFleetSummary => {
                write!(f, "fleet trace has no fleet_summary event")
            }
            ReplayError::MissingServeRunStart => {
                write!(f, "serve trace does not begin with a serve_run_start event")
            }
            ReplayError::MissingServeSummary => {
                write!(f, "serve trace has no serve_summary event")
            }
        }
    }
}

impl std::error::Error for ReplayError {}

/// Outcome of replaying a trace and cross-checking its invariants.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Total events replayed.
    pub events: usize,
    /// Energy rebuilt by summing `exec_slice` events (joules).
    pub energy_from_slices_j: f64,
    /// Energy the run reported in `run_summary`.
    pub reported_energy_j: f64,
    /// Relative error between rebuilt and reported energy.
    pub energy_rel_err: f64,
    /// AES residency rebuilt from `mode_switch` events.
    pub aes_residency: f64,
    /// AES residency the run reported.
    pub reported_aes: f64,
    /// Quality rebuilt from `job_finish` events through the ledger.
    pub quality_rebuilt: f64,
    /// Quality the run reported.
    pub reported_quality: f64,
    /// Jobs the trace reports as shed by admission control.
    pub shed_jobs: usize,
    /// Every invariant violation found (empty when the trace is clean).
    pub issues: Vec<String>,
}

impl ReplayReport {
    /// Whether every invariant held.
    pub fn is_ok(&self) -> bool {
        self.issues.is_empty()
    }

    /// A short human-readable verdict block.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("replayed {} events\n", self.events));
        out.push_str(&format!(
            "energy    rebuilt {:.6} J vs reported {:.6} J (rel err {:.3e})\n",
            self.energy_from_slices_j, self.reported_energy_j, self.energy_rel_err
        ));
        out.push_str(&format!(
            "aes       rebuilt {:.9} vs reported {:.9}\n",
            self.aes_residency, self.reported_aes
        ));
        out.push_str(&format!(
            "quality   rebuilt {:.9} vs reported {:.9}\n",
            self.quality_rebuilt, self.reported_quality
        ));
        if self.shed_jobs > 0 {
            out.push_str(&format!(
                "shed      {} jobs (cross-checked)\n",
                self.shed_jobs
            ));
        }
        if self.issues.is_empty() {
            out.push_str("verdict   OK — all invariants hold\n");
        } else {
            for issue in &self.issues {
                out.push_str(&format!("ISSUE     {issue}\n"));
            }
        }
        out
    }
}

/// Validates and strips the optional `run_meta` provenance header.
///
/// When present the header must be usable (matching schema tag, t = 0);
/// when absent the trace is still valid (headers were introduced after
/// the wire format stabilized). Every consumer of `--trace` output that
/// expects `run_start` first should go through this.
pub fn strip_header(events: &[TraceEvent]) -> Result<&[TraceEvent], ReplayError> {
    let Some(TraceEvent::RunMeta(meta)) = events.first() else {
        return Ok(events);
    };
    let RunMetaEvent { schema, t, .. } = &**meta;
    if schema != TRACE_SCHEMA {
        return Err(ReplayError::BadHeader(format!(
            "unsupported schema tag '{schema}' (expected '{TRACE_SCHEMA}')"
        )));
    }
    if *t != 0.0 {
        return Err(ReplayError::BadHeader(format!(
            "header timestamp must be 0, got {t}"
        )));
    }
    Ok(&events[1..])
}

/// Replays `events`, rebuilding energy, mode residency, and quality from
/// first principles and cross-checking them against the run summary.
pub fn replay(events: &[TraceEvent]) -> Result<ReplayReport, ReplayError> {
    if events.is_empty() {
        return Err(ReplayError::Empty);
    }
    let events = strip_header(events)?;
    if events.is_empty() {
        return Err(ReplayError::MissingRunStart);
    }
    let (cores, horizon_s, quality_c, quality_xmax, initial_mode, ledger_window, start_t) =
        match &events[0] {
            TraceEvent::RunStart(start) => (
                start.cores as usize,
                start.horizon_s,
                start.quality_c,
                start.quality_xmax,
                start.initial_mode as usize,
                start.ledger_window,
                start.t,
            ),
            _ => return Err(ReplayError::MissingRunStart),
        };

    let mut issues = Vec::new();

    // Rebuild the three ledgers the summary aggregates.
    let mut meter = EnergyMeter::new(cores.max(1));
    let mut modes = ModeTracker::new(2, initial_mode.min(1), SimTime::from_secs(start_t));
    let f = ExpConcave::new(quality_c, quality_xmax);
    let mut ledger = QualityLedger::new(if ledger_window == 0 {
        LedgerMode::Cumulative
    } else {
        LedgerMode::SlidingWindow(ledger_window as usize)
    });
    let mut last_t = start_t;
    let mut summary: Option<(f64, f64, f64, f64, u64, u64)> = None;

    // Fault-aware state: which cores are online, which jobs were shed,
    // and which jobs finished discarded (shed jobs must be a subset).
    let mut online = vec![true; cores.max(1)];
    let mut shed: BTreeMap<u64, usize> = BTreeMap::new();
    let mut discarded_finishes: BTreeMap<u64, f64> = BTreeMap::new();

    for (i, ev) in events.iter().enumerate() {
        let t = ev.t();
        if t + 1e-12 < last_t {
            issues.push(format!(
                "event {i} ({}) goes back in time: {t} < {last_t}",
                ev.kind()
            ));
        }
        last_t = last_t.max(t);
        match ev {
            TraceEvent::RunStart(_) if i != 0 => {
                issues.push(format!("duplicate run_start at event {i}"));
            }
            // The header was stripped above; any run_meta left in the
            // body is a duplicate or misplaced header.
            TraceEvent::RunMeta(_) => {
                issues.push(format!("misplaced run_meta at event {i}"));
            }
            TraceEvent::ExecSlice {
                core,
                start_s,
                end_s,
                energy_j,
                ..
            } => {
                if *energy_j < 0.0 {
                    issues.push(format!("negative slice energy at event {i}"));
                }
                if end_s < start_s {
                    issues.push(format!("inverted slice interval at event {i}"));
                }
                if (*core as usize) < meter.cores() {
                    meter.record_joules(*core as usize, *energy_j);
                } else {
                    issues.push(format!("slice on unknown core {core} at event {i}"));
                }
                if (*core as usize) < online.len() && !online[*core as usize] {
                    issues.push(format!(
                        "exec_slice on offline core {core} at event {i} (t={t})"
                    ));
                }
            }
            TraceEvent::ModeSwitch {
                t,
                from_mode,
                to_mode,
                ..
            } => {
                if modes.current() != *from_mode as usize {
                    issues.push(format!(
                        "mode_switch at event {i} claims from={from_mode} but replay is in {}",
                        modes.current()
                    ));
                }
                modes.switch((*to_mode as usize).min(1), SimTime::from_secs(*t));
            }
            TraceEvent::JobFinish {
                job,
                processed,
                full_demand,
                discarded,
                ..
            } => {
                if *discarded {
                    ledger.record(0.0, f.value(*full_demand));
                    discarded_finishes.insert(*job, *processed);
                } else {
                    ledger.record(f.value(*processed), f.value(*full_demand));
                }
                if *processed > *full_demand + 1e-6 {
                    issues.push(format!("job processed beyond its demand at event {i}"));
                }
            }
            TraceEvent::JobCut {
                full_demand,
                cut_demand,
                ..
            } if *cut_demand > *full_demand + 1e-9 => {
                issues.push(format!("job_cut grew a job at event {i}"));
            }
            TraceEvent::QualitySample { quality, .. } if !(0.0..=1.0).contains(quality) => {
                issues.push(format!("quality sample out of [0,1] at event {i}"));
            }
            TraceEvent::CoreFault {
                core, online: up, ..
            } => {
                if (*core as usize) < online.len() {
                    online[*core as usize] = *up;
                } else {
                    issues.push(format!("core_fault on unknown core {core} at event {i}"));
                }
            }
            TraceEvent::BudgetThrottle {
                factor,
                budget_w_effective,
                ..
            } => {
                if !(*factor > 0.0 && *factor <= 1.0) {
                    issues.push(format!("budget_throttle factor out of (0,1] at event {i}"));
                }
                if !budget_w_effective.is_finite() || *budget_w_effective < 0.0 {
                    issues.push(format!("invalid effective budget at event {i}"));
                }
            }
            TraceEvent::DvfsDeviation { factor, core, .. } => {
                if !factor.is_finite() || *factor <= 0.0 {
                    issues.push(format!("dvfs_deviation factor not positive at event {i}"));
                }
                if (*core as usize) >= online.len() {
                    issues.push(format!(
                        "dvfs_deviation on unknown core {core} at event {i}"
                    ));
                }
            }
            TraceEvent::JobShed { job, .. } => {
                let previous = shed.insert(*job, i);
                if previous.is_some() {
                    issues.push(format!("job {job} shed twice (second at event {i})"));
                }
            }
            TraceEvent::RunSummary {
                energy_j,
                quality,
                aes_fraction,
                jobs_finished,
                jobs_discarded,
                t,
            } => {
                if summary.is_some() {
                    issues.push(format!("duplicate run_summary at event {i}"));
                }
                summary = Some((
                    *energy_j,
                    *quality,
                    *aes_fraction,
                    *t,
                    *jobs_finished,
                    *jobs_discarded,
                ));
            }
            _ => {}
        }
    }

    let (rep_energy, rep_quality, rep_aes, end_t, rep_finished, rep_discarded) =
        summary.ok_or(ReplayError::MissingRunSummary)?;

    let energy = meter.total_energy();
    let energy_rel_err = if rep_energy.abs() > 0.0 {
        (energy - rep_energy).abs() / rep_energy.abs()
    } else {
        energy.abs()
    };
    if energy_rel_err > ENERGY_REL_TOL {
        issues.push(format!(
            "energy conservation violated: slices sum to {energy} J, summary says {rep_energy} J"
        ));
    }

    // The driver finalizes residency at the horizon; fall back to the
    // summary timestamp if the trace disagrees.
    let end = if (end_t - horizon_s).abs() < 1e-9 {
        horizon_s
    } else {
        end_t
    };
    let aes = modes.fractions_at(SimTime::from_secs(end))[0];
    if (aes - rep_aes).abs() > AES_ABS_TOL {
        issues.push(format!(
            "AES residency mismatch: rebuilt {aes}, summary says {rep_aes}"
        ));
    }

    let quality = ledger.quality();
    if (quality - rep_quality).abs() > QUALITY_ABS_TOL {
        issues.push(format!(
            "quality mismatch: ledger rebuild gives {quality}, summary says {rep_quality}"
        ));
    }
    if ledger.jobs_recorded() != rep_finished {
        issues.push(format!(
            "job accounting mismatch: {} job_finish events, summary says {rep_finished}",
            ledger.jobs_recorded()
        ));
    }
    if ledger.jobs_discarded() != rep_discarded {
        issues.push(format!(
            "discard accounting mismatch: {} discards, summary says {rep_discarded}",
            ledger.jobs_discarded()
        ));
    }

    // Shed cross-check: every job the trace reports as shed must also
    // appear as a discarded job_finish with zero work processed — a shed
    // that quietly received service (or never left the system) means the
    // admission-control accounting lied.
    for (&job, &ev_idx) in &shed {
        match discarded_finishes.get(&job) {
            None => issues.push(format!(
                "job {job} shed at event {ev_idx} but never finished discarded"
            )),
            Some(&processed) if processed > 1e-9 => issues.push(format!(
                "shed job {job} reports {processed} units processed (must be 0)"
            )),
            Some(_) => {}
        }
    }

    Ok(ReplayReport {
        events: events.len(),
        energy_from_slices_j: energy,
        reported_energy_j: rep_energy,
        energy_rel_err,
        aes_residency: aes,
        reported_aes: rep_aes,
        quality_rebuilt: quality,
        reported_quality: rep_quality,
        shed_jobs: shed.len(),
        issues,
    })
}

/// Tolerance for the relative budget-conservation check: each budget
/// reallocation epoch's slices must sum to the global budget `H`.
pub const BUDGET_REL_TOL: f64 = 1e-6;

/// Outcome of replaying a fleet trace and cross-checking its invariants.
#[derive(Debug, Clone)]
pub struct FleetReplayReport {
    /// Total events replayed (header excluded).
    pub events: usize,
    /// Servers declared by `fleet_run_start`.
    pub servers: usize,
    /// Successful dispatches counted from `fleet_dispatch` events.
    pub dispatched: u64,
    /// Failovers counted from `fleet_failover` events.
    pub failovers: u64,
    /// Lost-and-retried attempts counted from `fleet_retry` events.
    pub retries: u64,
    /// Router sheds counted from `fleet_shed` events.
    pub shed: u64,
    /// Budget reallocation epochs checked for conservation.
    pub budget_epochs: usize,
    /// Every invariant violation found (empty when the trace is clean).
    pub issues: Vec<String>,
}

impl FleetReplayReport {
    /// Whether every invariant held.
    pub fn is_ok(&self) -> bool {
        self.issues.is_empty()
    }

    /// A short human-readable verdict block.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "replayed {} fleet events across {} servers\n",
            self.events, self.servers
        ));
        out.push_str(&format!(
            "routing   {} dispatched, {} failovers, {} retries, {} shed\n",
            self.dispatched, self.failovers, self.retries, self.shed
        ));
        out.push_str(&format!(
            "budget    {} reallocation epochs conserve H\n",
            self.budget_epochs
        ));
        if self.issues.is_empty() {
            out.push_str("verdict   OK — all fleet invariants hold\n");
        } else {
            for issue in &self.issues {
                out.push_str(&format!("ISSUE     {issue}\n"));
            }
        }
        out
    }
}

/// Replays a fleet trace and cross-checks the router's invariants:
///
/// * dispatches only target servers that are online at the dispatch
///   instant (per the `shard_fault` stream),
/// * failovers are reclaimed only from dead servers, and every reclaimed
///   or retried job is later re-dispatched or explicitly shed — no job
///   silently vanishes,
/// * every budget reallocation epoch covers each server exactly once and
///   its slices sum to the global budget `H` (dead servers' slices return
///   to the pool, so the sum is conserved through crashes),
/// * the `fleet_summary` counts equal the event counts.
pub fn replay_fleet(events: &[TraceEvent]) -> Result<FleetReplayReport, ReplayError> {
    if events.is_empty() {
        return Err(ReplayError::Empty);
    }
    let events = strip_header(events)?;
    if events.is_empty() {
        return Err(ReplayError::MissingFleetRunStart);
    }
    let (servers, budget_w) = match &events[0] {
        TraceEvent::FleetRunStart(start) => (start.servers as usize, start.budget_w),
        _ => return Err(ReplayError::MissingFleetRunStart),
    };

    let mut issues = Vec::new();
    if servers == 0 {
        issues.push("fleet_run_start declares zero servers".to_string());
    }
    let mut online = vec![true; servers.max(1)];
    let mut dispatched = 0u64;
    let mut failovers = 0u64;
    let mut retries = 0u64;
    let mut shed = 0u64;
    // Jobs reclaimed (failover) or lost (retry) that still owe the trace
    // a re-dispatch or an explicit shed: job -> index of the owing event.
    let mut pending: BTreeMap<u64, usize> = BTreeMap::new();
    let mut shed_jobs: BTreeMap<u64, usize> = BTreeMap::new();
    let mut summary: Option<(u64, u64, u64, u64, f64, f64)> = None;
    let mut last_t = f64::NEG_INFINITY;

    // One budget reallocation epoch = the run of fleet_budget events at a
    // single timestamp. Grouping is by t, so interleaved routing events
    // at the same instant do not split an epoch.
    let mut budget_epochs = 0usize;
    let mut group_t: Option<f64> = None;
    let mut group: Vec<(u64, f64)> = Vec::new();
    let close_group = |group: &mut Vec<(u64, f64)>,
                       group_t: &mut Option<f64>,
                       budget_epochs: &mut usize,
                       issues: &mut Vec<String>| {
        let Some(t) = group_t.take() else {
            return;
        };
        let mut seen = vec![false; servers.max(1)];
        let mut sum = 0.0;
        for &(shard, w) in group.iter() {
            if (shard as usize) >= servers {
                issues.push(format!("fleet_budget for unknown server {shard} at t={t}"));
            } else if seen[shard as usize] {
                issues.push(format!("fleet_budget covers server {shard} twice at t={t}"));
            } else {
                seen[shard as usize] = true;
            }
            if !w.is_finite() || w < 0.0 {
                issues.push(format!(
                    "invalid budget slice {w} W for server {shard} at t={t}"
                ));
            }
            sum += w;
        }
        if group.len() != servers {
            issues.push(format!(
                "budget epoch at t={t} covers {} of {servers} servers",
                group.len()
            ));
        }
        let rel = if budget_w.abs() > 0.0 {
            (sum - budget_w).abs() / budget_w.abs()
        } else {
            sum.abs()
        };
        if rel > BUDGET_REL_TOL {
            issues.push(format!(
                "budget not conserved at t={t}: slices sum to {sum} W, global H is {budget_w} W"
            ));
        }
        group.clear();
        *budget_epochs += 1;
    };

    for (i, ev) in events.iter().enumerate() {
        let t = ev.t();
        if t + 1e-12 < last_t {
            issues.push(format!(
                "event {i} ({}) goes back in time: {t} < {last_t}",
                ev.kind()
            ));
        }
        last_t = last_t.max(t);
        if group_t.is_some_and(|gt| gt != t) && !matches!(ev, TraceEvent::FleetBudget { .. }) {
            close_group(&mut group, &mut group_t, &mut budget_epochs, &mut issues);
        }
        match ev {
            TraceEvent::FleetRunStart(_) if i != 0 => {
                issues.push(format!("duplicate fleet_run_start at event {i}"));
            }
            TraceEvent::RunMeta(_) => {
                issues.push(format!("misplaced run_meta at event {i}"));
            }
            TraceEvent::ShardFault {
                shard, online: up, ..
            } => {
                if (*shard as usize) >= servers {
                    issues.push(format!(
                        "shard_fault on unknown server {shard} at event {i}"
                    ));
                } else if online[*shard as usize] == *up {
                    issues.push(format!(
                        "redundant shard_fault at event {i}: server {shard} already {}",
                        if *up { "online" } else { "offline" }
                    ));
                } else {
                    online[*shard as usize] = *up;
                }
            }
            TraceEvent::FleetDispatch { job, shard, .. } => {
                dispatched += 1;
                if (*shard as usize) >= servers {
                    issues.push(format!("dispatch to unknown server {shard} at event {i}"));
                } else if !online[*shard as usize] {
                    issues.push(format!(
                        "dispatch of job {job} to dead server {shard} at event {i} (t={t})"
                    ));
                }
                pending.remove(job);
            }
            TraceEvent::FleetRetry { job, next_s, .. } => {
                retries += 1;
                if *next_s + 1e-12 < t {
                    issues.push(format!("retry at event {i} scheduled in the past"));
                }
                pending.entry(*job).or_insert(i);
            }
            TraceEvent::FleetFailover { job, shard, .. } => {
                failovers += 1;
                if (*shard as usize) >= servers {
                    issues.push(format!("failover from unknown server {shard} at event {i}"));
                } else if online[*shard as usize] {
                    issues.push(format!(
                        "failover of job {job} from live server {shard} at event {i}"
                    ));
                }
                pending.entry(*job).or_insert(i);
            }
            TraceEvent::FleetShed { job, .. } => {
                shed += 1;
                pending.remove(job);
                if let Some(first) = shed_jobs.insert(*job, i) {
                    issues.push(format!("job {job} shed twice (events {first} and {i})"));
                }
            }
            TraceEvent::FleetBudget {
                t, shard, budget_w, ..
            } => {
                if group_t.is_some_and(|gt| gt != *t) {
                    close_group(&mut group, &mut group_t, &mut budget_epochs, &mut issues);
                }
                group_t = Some(*t);
                group.push((*shard, *budget_w));
            }
            TraceEvent::FleetSummary(s) => {
                if summary.is_some() {
                    issues.push(format!("duplicate fleet_summary at event {i}"));
                }
                summary = Some((
                    s.dispatched,
                    s.failovers,
                    s.retries,
                    s.shed,
                    s.energy_j,
                    s.quality,
                ));
            }
            _ => {}
        }
    }
    close_group(&mut group, &mut group_t, &mut budget_epochs, &mut issues);

    let (rep_dispatched, rep_failovers, rep_retries, rep_shed, rep_energy, rep_quality) =
        summary.ok_or(ReplayError::MissingFleetSummary)?;
    if rep_dispatched != dispatched {
        issues.push(format!(
            "summary says {rep_dispatched} dispatches, trace has {dispatched}"
        ));
    }
    if rep_failovers != failovers {
        issues.push(format!(
            "summary says {rep_failovers} failovers, trace has {failovers}"
        ));
    }
    if rep_retries != retries {
        issues.push(format!(
            "summary says {rep_retries} retries, trace has {retries}"
        ));
    }
    if rep_shed != shed {
        issues.push(format!("summary says {rep_shed} sheds, trace has {shed}"));
    }
    if !rep_energy.is_finite() || rep_energy < 0.0 {
        issues.push(format!("summary energy {rep_energy} J is invalid"));
    }
    if !(0.0..=1.0).contains(&rep_quality) {
        issues.push(format!("summary quality {rep_quality} out of [0,1]"));
    }
    for (&job, &ev_idx) in &pending {
        issues.push(format!(
            "job {job} reclaimed/lost at event {ev_idx} but never re-dispatched or shed"
        ));
    }

    Ok(FleetReplayReport {
        events: events.len(),
        servers,
        dispatched,
        failovers,
        retries,
        shed,
        budget_epochs,
        issues,
    })
}

/// Outcome of replaying a serve trace and recounting its ledger.
#[derive(Debug, Clone)]
pub struct ServeReplayReport {
    /// Total events replayed (header excluded).
    pub events: usize,
    /// Requests counted from `serve_request` events.
    pub requests: u64,
    /// Admissions counted from `serve_admit` events.
    pub admitted: u64,
    /// Terminal completions counted from `serve_complete` events.
    pub completed: u64,
    /// Terminal rejections counted from `serve_reject` events.
    pub rejected: u64,
    /// Terminal timeouts counted from `serve_timeout` events.
    pub timed_out: u64,
    /// Terminal sheds counted from `serve_shed` events.
    pub shed: u64,
    /// Every invariant violation found (empty when the trace is clean).
    pub issues: Vec<String>,
}

impl ServeReplayReport {
    /// Whether every invariant held.
    pub fn is_ok(&self) -> bool {
        self.issues.is_empty()
    }

    /// A short human-readable verdict block.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "replayed {} serve events over {} requests\n",
            self.events, self.requests
        ));
        out.push_str(&format!(
            "terminal  {} completed, {} rejected, {} timed-out, {} shed ({} admitted)\n",
            self.completed, self.rejected, self.timed_out, self.shed, self.admitted
        ));
        if self.issues.is_empty() {
            out.push_str("verdict   OK — every request is exactly one terminal state\n");
        } else {
            for issue in &self.issues {
                out.push_str(&format!("ISSUE     {issue}\n"));
            }
        }
        out
    }
}

/// Replays a serve trace and recounts the serving ledger independently,
/// cross-checking the front end's core invariant:
///
/// * every request is **exactly one** of completed / rejected / shed /
///   timed-out — no request vanishes, no request double-counts,
/// * only admitted requests complete, time out, or are engine-shed, and
///   no admitted request is also rejected,
/// * no admission happens after drain began, and post-drain rejections
///   carry the `draining` reason,
/// * the `serve_summary` counters equal the recounted totals and the four
///   terminal counters sum to `requests`.
pub fn replay_serve(events: &[TraceEvent]) -> Result<ServeReplayReport, ReplayError> {
    if events.is_empty() {
        return Err(ReplayError::Empty);
    }
    let events = strip_header(events)?;
    if !matches!(events.first(), Some(TraceEvent::ServeRunStart(_))) {
        return Err(ReplayError::MissingServeRunStart);
    }

    let mut issues = Vec::new();
    // req -> index of its serve_request event.
    let mut seen: BTreeMap<u64, usize> = BTreeMap::new();
    // req -> index of its serve_admit event.
    let mut admits: BTreeMap<u64, usize> = BTreeMap::new();
    // req -> (terminal kind, event index).
    let mut terminal: BTreeMap<u64, (&'static str, usize)> = BTreeMap::new();
    let mut drained_at: Option<usize> = None;
    let mut summary: Option<(u64, u64, u64, u64, u64, u64)> = None;
    let mut counts = (0u64, 0u64, 0u64, 0u64); // completed, rejected, timed_out, shed
    let mut last_t = f64::NEG_INFINITY;

    let record_terminal = |req: u64,
                           kind: &'static str,
                           i: usize,
                           terminal: &mut BTreeMap<u64, (&'static str, usize)>,
                           issues: &mut Vec<String>| {
        if let Some((prev_kind, prev_i)) = terminal.insert(req, (kind, i)) {
            issues.push(format!(
                "request {req} reached a second terminal state: {prev_kind} at event \
                     {prev_i}, then {kind} at event {i}"
            ));
        }
    };

    for (i, ev) in events.iter().enumerate() {
        let t = ev.t();
        if t + 1e-12 < last_t {
            issues.push(format!(
                "event {i} ({}) goes back in time: {t} < {last_t}",
                ev.kind()
            ));
        }
        last_t = last_t.max(t);
        match ev {
            TraceEvent::ServeRunStart(_) if i != 0 => {
                issues.push(format!("duplicate serve_run_start at event {i}"));
            }
            TraceEvent::RunMeta(_) => {
                issues.push(format!("misplaced run_meta at event {i}"));
            }
            TraceEvent::ServeRequest { req, demand, .. } => {
                if let Some(first) = seen.insert(*req, i) {
                    issues.push(format!(
                        "duplicate serve_request for {req} (events {first} and {i})"
                    ));
                }
                if !demand.is_finite() || *demand <= 0.0 {
                    issues.push(format!("request {req} carries invalid demand {demand}"));
                }
            }
            TraceEvent::ServeAdmit { req, .. } => {
                if !seen.contains_key(req) {
                    issues.push(format!("admit of unknown request {req} at event {i}"));
                }
                if let Some(d) = drained_at {
                    issues.push(format!(
                        "admit of request {req} at event {i} after drain began at event {d}"
                    ));
                }
                if let Some(first) = admits.insert(*req, i) {
                    issues.push(format!(
                        "request {req} admitted twice (events {first} and {i})"
                    ));
                }
            }
            TraceEvent::ServeReject { req, reason, .. } => {
                if !seen.contains_key(req) {
                    issues.push(format!("reject of unknown request {req} at event {i}"));
                }
                if let Some(a) = admits.get(req) {
                    issues.push(format!(
                        "request {req} rejected at event {i} after being admitted at event {a}"
                    ));
                }
                if drained_at.is_some() && *reason != crate::event::RejectReason::Draining {
                    issues.push(format!(
                        "post-drain rejection of request {req} carries reason '{}', \
                         expected 'draining'",
                        reason.as_str()
                    ));
                }
                counts.1 += 1;
                record_terminal(*req, "rejected", i, &mut terminal, &mut issues);
            }
            TraceEvent::ServeTimeout { req, .. } => {
                if !admits.contains_key(req) {
                    issues.push(format!("timeout of unadmitted request {req} at event {i}"));
                }
                counts.2 += 1;
                record_terminal(*req, "timed-out", i, &mut terminal, &mut issues);
            }
            TraceEvent::ServeComplete {
                req,
                processed,
                full_demand,
                ..
            } => {
                if !admits.contains_key(req) {
                    issues.push(format!(
                        "completion of unadmitted request {req} at event {i}"
                    ));
                }
                if !(*processed > 0.0 && *processed <= *full_demand + 1e-9) {
                    issues.push(format!(
                        "completion of request {req} reports {processed} of {full_demand} \
                         units (must be in (0, full])"
                    ));
                }
                counts.0 += 1;
                record_terminal(*req, "completed", i, &mut terminal, &mut issues);
            }
            TraceEvent::ServeShed { req, .. } => {
                if !admits.contains_key(req) {
                    issues.push(format!("shed of unadmitted request {req} at event {i}"));
                }
                counts.3 += 1;
                record_terminal(*req, "shed", i, &mut terminal, &mut issues);
            }
            TraceEvent::ServeDrain { .. } => {
                if let Some(d) = drained_at {
                    issues.push(format!(
                        "duplicate serve_drain at event {i} (first at event {d})"
                    ));
                } else {
                    drained_at = Some(i);
                }
            }
            TraceEvent::ServeSummary(s) => {
                if summary.is_some() {
                    issues.push(format!("duplicate serve_summary at event {i}"));
                }
                summary = Some((
                    s.requests,
                    s.admitted,
                    s.completed,
                    s.rejected,
                    s.timed_out,
                    s.shed,
                ));
            }
            _ => {}
        }
    }

    for (&req, &ev_idx) in &seen {
        if !terminal.contains_key(&req) {
            issues.push(format!(
                "request {req} (event {ev_idx}) never reached a terminal state"
            ));
        }
    }

    let (completed, rejected, timed_out, shed) = counts;
    let requests = seen.len() as u64;
    let admitted = admits.len() as u64;
    let (rep_requests, rep_admitted, rep_completed, rep_rejected, rep_timed_out, rep_shed) =
        summary.ok_or(ReplayError::MissingServeSummary)?;
    for (name, recounted, reported) in [
        ("requests", requests, rep_requests),
        ("admitted", admitted, rep_admitted),
        ("completed", completed, rep_completed),
        ("rejected", rejected, rep_rejected),
        ("timed_out", timed_out, rep_timed_out),
        ("shed", shed, rep_shed),
    ] {
        if recounted != reported {
            issues.push(format!(
                "summary says {reported} {name}, trace recount gives {recounted}"
            ));
        }
    }
    if completed + rejected + timed_out + shed != requests {
        issues.push(format!(
            "terminal states sum to {} but the trace has {requests} requests",
            completed + rejected + timed_out + shed
        ));
    }

    Ok(ServeReplayReport {
        events: events.len(),
        requests,
        admitted,
        completed,
        rejected,
        timed_out,
        shed,
        issues,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{
        FleetRunStartEvent, FleetSummaryEvent, RunStartEvent, ServeRunStartEvent, ServeSummaryEvent,
    };

    fn start() -> TraceEvent {
        RunStartEvent {
            t: 0.0,
            algorithm: "GE".to_string(),
            cores: 2,
            budget_w: 40.0,
            q_ge: 0.9,
            horizon_s: 10.0,
            power_a: 2.0,
            power_beta: 2.4,
            quality_c: 0.0035,
            quality_xmax: 1500.0,
            units_per_ghz_sec: 1000.0,
            initial_mode: 1,
            ledger_window: 0,
        }
        .into()
    }

    fn slice(t: f64, core: u64, energy: f64) -> TraceEvent {
        TraceEvent::ExecSlice {
            t,
            core,
            start_s: t - 1.0,
            end_s: t,
            ghz_secs: 0.5,
            energy_j: energy,
        }
    }

    fn finish(t: f64, job: u64, processed: f64, full: f64) -> TraceEvent {
        TraceEvent::JobFinish {
            t,
            job,
            processed,
            full_demand: full,
            discarded: false,
        }
    }

    fn summary_for(events: &[TraceEvent]) -> TraceEvent {
        // Build the matching summary by running the same bookkeeping.
        let energy: f64 = events
            .iter()
            .map(|e| match e {
                TraceEvent::ExecSlice { energy_j, .. } => *energy_j,
                _ => 0.0,
            })
            .sum();
        let f = ExpConcave::new(0.0035, 1500.0);
        let mut ledger = QualityLedger::cumulative();
        let mut modes = ModeTracker::new(2, 1, SimTime::ZERO);
        let mut n = 0;
        for e in events {
            match e {
                TraceEvent::JobFinish {
                    processed,
                    full_demand,
                    ..
                } => {
                    ledger.record(f.value(*processed), f.value(*full_demand));
                    n += 1;
                }
                TraceEvent::ModeSwitch { t, to_mode, .. } => {
                    modes.switch(*to_mode as usize, SimTime::from_secs(*t));
                }
                _ => {}
            }
        }
        TraceEvent::RunSummary {
            t: 10.0,
            energy_j: energy,
            quality: ledger.quality(),
            aes_fraction: modes.fractions_at(SimTime::from_secs(10.0))[0],
            jobs_finished: n,
            jobs_discarded: 0,
        }
    }

    #[test]
    fn clean_trace_passes() {
        let mut events = vec![
            start(),
            TraceEvent::ModeSwitch {
                t: 2.0,
                from_mode: 1,
                to_mode: 0,
                ledger_quality: 0.95,
            },
            slice(3.0, 0, 12.5),
            slice(3.0, 1, 7.25),
            finish(3.0, 0, 400.0, 700.0),
            TraceEvent::ModeSwitch {
                t: 6.0,
                from_mode: 0,
                to_mode: 1,
                ledger_quality: 0.85,
            },
            slice(8.0, 0, 3.0),
            finish(8.0, 1, 500.0, 500.0),
        ];
        events.push(summary_for(&events));
        let report = replay(&events).unwrap();
        assert!(report.is_ok(), "unexpected issues: {:?}", report.issues);
        assert!((report.aes_residency - 0.4).abs() < 1e-12);
        assert!(report.energy_rel_err < 1e-12);
    }

    #[test]
    fn energy_tampering_is_detected() {
        let mut events = vec![start(), slice(3.0, 0, 12.5), finish(3.0, 0, 400.0, 700.0)];
        events.push(summary_for(&events));
        if let TraceEvent::ExecSlice { energy_j, .. } = &mut events[1] {
            *energy_j += 1.0; // corrupt after the summary was computed
        }
        let report = replay(&events).unwrap();
        assert!(!report.is_ok());
        assert!(report.issues.iter().any(|m| m.contains("energy")));
    }

    #[test]
    fn quality_tampering_is_detected() {
        let mut events = vec![start(), finish(3.0, 0, 400.0, 700.0)];
        events.push(summary_for(&events));
        events.insert(2, finish(4.0, 1, 10.0, 900.0)); // extra unreported job
        let report = replay(&events).unwrap();
        assert!(!report.is_ok());
    }

    #[test]
    fn structural_errors() {
        assert!(matches!(replay(&[]), Err(ReplayError::Empty)));
        assert!(matches!(
            replay(&[finish(0.0, 0, 1.0, 1.0)]),
            Err(ReplayError::MissingRunStart)
        ));
        assert!(matches!(
            replay(&[start()]),
            Err(ReplayError::MissingRunSummary)
        ));
    }

    fn discarded(t: f64, job: u64, full: f64) -> TraceEvent {
        TraceEvent::JobFinish {
            t,
            job,
            processed: 0.0,
            full_demand: full,
            discarded: true,
        }
    }

    #[test]
    fn slices_on_offline_cores_are_flagged() {
        let mut events = vec![
            start(),
            TraceEvent::CoreFault {
                t: 2.0,
                core: 0,
                online: false,
            },
            slice(3.0, 0, 1.0), // core 0 is offline here
        ];
        events.push(summary_for(&events));
        let report = replay(&events).unwrap();
        assert!(report.issues.iter().any(|m| m.contains("offline core")));

        // After recovery the same slice is legal again.
        let mut events = vec![
            start(),
            TraceEvent::CoreFault {
                t: 2.0,
                core: 0,
                online: false,
            },
            TraceEvent::CoreFault {
                t: 2.5,
                core: 0,
                online: true,
            },
            slice(4.0, 0, 1.0),
        ];
        events.push(summary_for(&events));
        let report = replay(&events).unwrap();
        assert!(report.is_ok(), "{:?}", report.issues);
    }

    #[test]
    fn shed_jobs_must_finish_discarded_with_zero_work() {
        // Clean: shed then discarded with 0 processed.
        let mut events = vec![
            start(),
            TraceEvent::JobShed {
                t: 1.0,
                job: 5,
                estimate: 400.0,
                full_demand: 420.0,
                projected_quality: 0.7,
            },
            discarded(1.0, 5, 420.0),
        ];
        let mut ok_events = events.clone();
        let f = ExpConcave::new(0.0035, 1500.0);
        let mut ledger = QualityLedger::cumulative();
        ledger.record(0.0, f.value(420.0));
        ok_events.push(TraceEvent::RunSummary {
            t: 10.0,
            energy_j: 0.0,
            quality: ledger.quality(),
            aes_fraction: 0.0,
            jobs_finished: 1,
            jobs_discarded: 1,
        });
        let report = replay(&ok_events).unwrap();
        assert!(report.is_ok(), "{:?}", report.issues);
        assert_eq!(report.shed_jobs, 1);

        // Corrupt: shed job never finishes.
        events.pop();
        events.push(TraceEvent::RunSummary {
            t: 10.0,
            energy_j: 0.0,
            quality: 1.0,
            aes_fraction: 0.0,
            jobs_finished: 0,
            jobs_discarded: 0,
        });
        let report = replay(&events).unwrap();
        assert!(report
            .issues
            .iter()
            .any(|m| m.contains("never finished discarded")));
    }

    #[test]
    fn shed_job_with_service_is_flagged() {
        let mut events = vec![
            start(),
            TraceEvent::JobShed {
                t: 1.0,
                job: 5,
                estimate: 400.0,
                full_demand: 420.0,
                projected_quality: 0.7,
            },
            TraceEvent::JobFinish {
                t: 1.0,
                job: 5,
                processed: 50.0,
                full_demand: 420.0,
                discarded: true,
            },
        ];
        events.push(summary_for(&events));
        let report = replay(&events).unwrap();
        assert!(report.issues.iter().any(|m| m.contains("units processed")));
    }

    #[test]
    fn bad_throttle_factor_is_flagged() {
        let mut events = vec![
            start(),
            TraceEvent::BudgetThrottle {
                t: 1.0,
                factor: 1.5,
                budget_w_effective: 60.0,
            },
        ];
        events.push(summary_for(&events));
        let report = replay(&events).unwrap();
        assert!(report.issues.iter().any(|m| m.contains("factor")));
    }

    fn header(schema: &str) -> TraceEvent {
        RunMetaEvent {
            t: 0.0,
            schema: schema.to_string(),
            seed: 42,
            config_digest: 0xfeed,
            version: "0.1.0".to_string(),
        }
        .into()
    }

    #[test]
    fn valid_header_is_accepted_and_stripped() {
        let mut events = vec![start(), slice(3.0, 0, 12.5), finish(3.0, 0, 400.0, 700.0)];
        events.push(summary_for(&events));
        let body_events = events.len();
        events.insert(0, header(TRACE_SCHEMA));
        let report = replay(&events).unwrap();
        assert!(report.is_ok(), "{:?}", report.issues);
        assert_eq!(report.events, body_events, "header must not count");
    }

    #[test]
    fn bad_header_schema_is_rejected() {
        let mut events = vec![header("ge-trace/v999"), start()];
        events.push(summary_for(&events));
        assert!(matches!(replay(&events), Err(ReplayError::BadHeader(_))));
        // A nonzero header timestamp is equally unusable.
        let bad_t: TraceEvent = RunMetaEvent {
            t: 1.0,
            schema: TRACE_SCHEMA.to_string(),
            seed: 1,
            config_digest: 2,
            version: "0.1.0".to_string(),
        }
        .into();
        assert!(matches!(
            replay(&[bad_t, start()]),
            Err(ReplayError::BadHeader(_))
        ));
        // A header with nothing after it has no run to replay.
        assert!(matches!(
            replay(&[header(TRACE_SCHEMA)]),
            Err(ReplayError::MissingRunStart)
        ));
    }

    #[test]
    fn misplaced_header_is_flagged() {
        let mut events = vec![start(), header(TRACE_SCHEMA), slice(3.0, 0, 1.0)];
        events.push(summary_for(&events));
        let report = replay(&events).unwrap();
        assert!(report
            .issues
            .iter()
            .any(|m| m.contains("misplaced run_meta")));
    }

    #[test]
    fn out_of_order_times_flagged() {
        let mut events = vec![start(), slice(5.0, 0, 1.0), slice(3.0, 0, 1.0)];
        events.push(summary_for(&events));
        let report = replay(&events).unwrap();
        assert!(report.issues.iter().any(|m| m.contains("back in time")));
    }

    // ---- fleet replay -------------------------------------------------

    fn fleet_start(servers: u64, budget_w: f64) -> TraceEvent {
        FleetRunStartEvent {
            t: 0.0,
            servers,
            cores: 4,
            budget_w,
            policy: "jsq".to_string(),
            partitioner: "prop".to_string(),
            seed: 7,
        }
        .into()
    }

    fn budget_epoch(t: f64, slices: &[f64]) -> Vec<TraceEvent> {
        slices
            .iter()
            .enumerate()
            .map(|(i, &w)| TraceEvent::FleetBudget {
                t,
                shard: i as u64,
                budget_w: w,
            })
            .collect()
    }

    fn dispatch(t: f64, job: u64, shard: u64, attempt: u64) -> TraceEvent {
        TraceEvent::FleetDispatch {
            t,
            job,
            shard,
            attempt,
        }
    }

    fn fleet_summary(dispatched: u64, failovers: u64, retries: u64, shed: u64) -> TraceEvent {
        FleetSummaryEvent {
            t: 10.0,
            dispatched,
            failovers,
            retries,
            shed,
            energy_j: 100.0,
            quality: 0.93,
        }
        .into()
    }

    #[test]
    fn clean_fleet_trace_passes() {
        let mut events = vec![fleet_start(3, 240.0)];
        events.extend(budget_epoch(0.0, &[80.0, 80.0, 80.0]));
        events.push(dispatch(0.5, 0, 0, 0));
        events.push(TraceEvent::FleetRetry {
            t: 0.6,
            job: 1,
            attempt: 0,
            next_s: 0.7,
        });
        events.push(dispatch(0.7, 1, 1, 1));
        // Server 2 dies; its queued job 5 fails over to server 0, and the
        // next epoch returns its slice to the pool.
        events.push(TraceEvent::ShardFault {
            t: 2.0,
            shard: 2,
            online: false,
        });
        events.push(TraceEvent::FleetFailover {
            t: 2.0,
            job: 5,
            shard: 2,
        });
        events.push(dispatch(2.0, 5, 0, 0));
        events.extend(budget_epoch(3.0, &[140.0, 100.0, 0.0]));
        events.push(TraceEvent::ShardFault {
            t: 6.0,
            shard: 2,
            online: true,
        });
        events.push(TraceEvent::FleetShed {
            t: 7.0,
            job: 9,
            demand: 500.0,
        });
        events.push(fleet_summary(3, 1, 1, 1));
        let report = replay_fleet(&events).unwrap();
        assert!(report.is_ok(), "{:?}", report.issues);
        assert_eq!(report.budget_epochs, 2);
        assert_eq!(report.dispatched, 3);
        assert_eq!(report.failovers, 1);
        assert_eq!(report.retries, 1);
        assert_eq!(report.shed, 1);
    }

    #[test]
    fn dispatch_to_dead_server_is_flagged() {
        let mut events = vec![fleet_start(2, 100.0)];
        events.push(TraceEvent::ShardFault {
            t: 1.0,
            shard: 1,
            online: false,
        });
        events.push(dispatch(2.0, 0, 1, 0));
        events.push(fleet_summary(1, 0, 0, 0));
        let report = replay_fleet(&events).unwrap();
        assert!(report.issues.iter().any(|m| m.contains("dead server")));
    }

    #[test]
    fn unconserved_budget_is_flagged() {
        let mut events = vec![fleet_start(2, 100.0)];
        events.extend(budget_epoch(1.0, &[60.0, 60.0]));
        events.push(fleet_summary(0, 0, 0, 0));
        let report = replay_fleet(&events).unwrap();
        assert!(report.issues.iter().any(|m| m.contains("not conserved")));
        // A short epoch (one server missing) is equally flagged.
        let mut events = vec![fleet_start(2, 100.0)];
        events.push(TraceEvent::FleetBudget {
            t: 1.0,
            shard: 0,
            budget_w: 100.0,
        });
        events.push(fleet_summary(0, 0, 0, 0));
        let report = replay_fleet(&events).unwrap();
        assert!(report.issues.iter().any(|m| m.contains("covers 1 of 2")));
    }

    #[test]
    fn lost_job_without_redispatch_is_flagged() {
        let mut events = vec![fleet_start(2, 100.0)];
        events.push(TraceEvent::ShardFault {
            t: 1.0,
            shard: 0,
            online: false,
        });
        events.push(TraceEvent::FleetFailover {
            t: 1.0,
            job: 4,
            shard: 0,
        });
        events.push(fleet_summary(0, 1, 0, 0));
        let report = replay_fleet(&events).unwrap();
        assert!(report
            .issues
            .iter()
            .any(|m| m.contains("never re-dispatched or shed")));
    }

    #[test]
    fn failover_from_live_server_and_summary_mismatch_flagged() {
        let mut events = vec![fleet_start(2, 100.0)];
        events.push(TraceEvent::FleetFailover {
            t: 1.0,
            job: 4,
            shard: 0,
        });
        events.push(dispatch(1.0, 4, 1, 0));
        events.push(fleet_summary(7, 1, 0, 0));
        let report = replay_fleet(&events).unwrap();
        assert!(report.issues.iter().any(|m| m.contains("live server")));
        assert!(report.issues.iter().any(|m| m.contains("7 dispatches")));
    }

    #[test]
    fn fleet_structural_errors() {
        assert!(matches!(replay_fleet(&[]), Err(ReplayError::Empty)));
        assert!(matches!(
            replay_fleet(&[start()]),
            Err(ReplayError::MissingFleetRunStart)
        ));
        assert!(matches!(
            replay_fleet(&[fleet_start(2, 100.0)]),
            Err(ReplayError::MissingFleetSummary)
        ));
    }

    // ----- serve replay -----

    fn serve_start() -> TraceEvent {
        ServeRunStartEvent {
            t: 0.0,
            algorithm: "GE".to_string(),
            cores: 4,
            budget_w: 80.0,
            q_min: 0.5,
            queue_high: 8,
            queue_low: 2,
        }
        .into()
    }

    fn serve_req(t: f64, req: u64) -> TraceEvent {
        TraceEvent::ServeRequest {
            t,
            req,
            demand: 400.0,
            deadline_s: t + 0.15,
        }
    }

    fn serve_admit(t: f64, req: u64) -> TraceEvent {
        TraceEvent::ServeAdmit {
            t,
            req,
            queue_len: 1,
        }
    }

    fn serve_summary(
        t: f64,
        counts: (u64, u64, u64, u64, u64, u64), // req, adm, comp, rej, to, shed
    ) -> TraceEvent {
        ServeSummaryEvent {
            t,
            requests: counts.0,
            admitted: counts.1,
            completed: counts.2,
            rejected: counts.3,
            timed_out: counts.4,
            shed: counts.5,
        }
        .into()
    }

    #[test]
    fn serve_clean_trace_passes() {
        let events = vec![
            serve_start(),
            serve_req(1.0, 0),
            serve_admit(1.0, 0),
            serve_req(1.1, 1),
            TraceEvent::ServeReject {
                t: 1.1,
                req: 1,
                reason: crate::event::RejectReason::Busy,
                queue_len: 9,
            },
            serve_req(1.2, 2),
            serve_admit(1.2, 2),
            TraceEvent::ServeComplete {
                t: 1.3,
                req: 0,
                processed: 400.0,
                full_demand: 400.0,
            },
            TraceEvent::ServeTimeout { t: 1.4, req: 2 },
            TraceEvent::ServeDrain { t: 2.0, pending: 0 },
            serve_summary(2.0, (3, 2, 1, 1, 1, 0)),
        ];
        let report = replay_serve(&events).unwrap();
        assert!(report.is_ok(), "{}", report.render());
        assert_eq!(report.requests, 3);
        assert_eq!(report.admitted, 2);
    }

    #[test]
    fn serve_double_terminal_and_vanished_request_flagged() {
        let events = vec![
            serve_start(),
            serve_req(1.0, 0),
            serve_admit(1.0, 0),
            serve_req(1.1, 1),
            serve_admit(1.1, 1),
            TraceEvent::ServeComplete {
                t: 1.3,
                req: 0,
                processed: 400.0,
                full_demand: 400.0,
            },
            TraceEvent::ServeTimeout { t: 1.4, req: 0 },
            serve_summary(2.0, (2, 2, 1, 0, 1, 0)),
        ];
        let report = replay_serve(&events).unwrap();
        assert!(report
            .issues
            .iter()
            .any(|m| m.contains("second terminal state")));
        assert!(report
            .issues
            .iter()
            .any(|m| m.contains("never reached a terminal state")));
    }

    #[test]
    fn serve_admit_after_drain_flagged() {
        let events = vec![
            serve_start(),
            TraceEvent::ServeDrain { t: 1.0, pending: 0 },
            serve_req(1.5, 0),
            serve_admit(1.5, 0),
            TraceEvent::ServeComplete {
                t: 1.6,
                req: 0,
                processed: 1.0,
                full_demand: 1.0,
            },
            serve_summary(2.0, (1, 1, 1, 0, 0, 0)),
        ];
        let report = replay_serve(&events).unwrap();
        assert!(report.issues.iter().any(|m| m.contains("after drain")));
    }

    #[test]
    fn serve_summary_mismatch_flagged() {
        let events = vec![
            serve_start(),
            serve_req(1.0, 0),
            TraceEvent::ServeReject {
                t: 1.0,
                req: 0,
                reason: crate::event::RejectReason::Floor,
                queue_len: 0,
            },
            serve_summary(2.0, (1, 0, 1, 0, 0, 0)),
        ];
        let report = replay_serve(&events).unwrap();
        assert!(report.issues.iter().any(|m| m.contains("summary says")));
    }

    #[test]
    fn serve_structural_errors() {
        assert!(matches!(replay_serve(&[]), Err(ReplayError::Empty)));
        assert!(matches!(
            replay_serve(&[start()]),
            Err(ReplayError::MissingServeRunStart)
        ));
        assert!(matches!(
            replay_serve(&[serve_start()]),
            Err(ReplayError::MissingServeSummary)
        ));
    }
}
