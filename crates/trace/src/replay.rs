//! Trace replay and invariant checking.
//!
//! A trace is self-contained: its start event carries the run's
//! configuration, so a checker can rebuild the run's books from scratch
//! and cross-check them against the summary the run reported. One walker,
//! [`Replay`], takes a trace one event at a time and owns the structure
//! every trace shares; one [`Ledger`] per trace kind owns the rest:
//! [`RunLedger`] rebuilds energy through a fresh [`EnergyMeter`], AES
//! residency through a [`ModeTracker`] and quality through a
//! [`QualityLedger`]; [`FleetLedger`] checks routing and budget epochs;
//! [`ServeLedger`] checks request terminal states.

use crate::event::{RejectReason, TraceEvent};
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
/// Tolerance for the relative budget-conservation check: each budget
/// reallocation epoch's slices must sum to the global budget `H`.
pub const BUDGET_REL_TOL: f64 = 1e-6;

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
    /// The first event after the header was not of the named start kind.
    MissingStart(&'static str),
    /// No event of the named summary kind was found.
    MissingSummary(&'static str),
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Empty => write!(f, "empty trace"),
            ReplayError::BadHeader(why) => write!(f, "invalid run_meta header: {why}"),
            ReplayError::MissingStart(ev) => write!(f, "trace does not begin with a {ev} event"),
            ReplayError::MissingSummary(ev) => write!(f, "trace has no {ev} event"),
        }
    }
}

impl std::error::Error for ReplayError {}

/// The rules of one trace kind, fed by [`Replay`] once its shared
/// structural checks pass.
pub trait Ledger: Sized {
    /// Wire kind of the event the trace must open with.
    const START: &'static str;
    /// Wire kind of the event carrying the run's reported totals.
    const SUMMARY: &'static str;
    /// What [`Replay::finish`] returns.
    type Report;

    /// Opens the ledger on the first event after the header, or `None`
    /// when that event is not of kind [`Ledger::START`].
    fn open(start: &TraceEvent, issues: &mut Vec<String>) -> Option<Self>;
    /// Checks body event `i`: any event but a header, start or summary.
    fn check(&mut self, i: usize, ev: &TraceEvent, issues: &mut Vec<String>);
    /// Cross-checks the books against `summary`, the trace's last event
    /// of kind [`Ledger::SUMMARY`] as received, and reports on `events`
    /// body events.
    fn close(self, summary: &TraceEvent, events: usize, issues: Vec<String>) -> Self::Report;
}

/// Whether `ev` is a header, start or summary event of some trace kind:
/// every [`Ledger::START`] and [`Ledger::SUMMARY`] is one of these.
fn is_bracket(ev: &TraceEvent) -> bool {
    matches!(
        ev,
        TraceEvent::RunMeta(_)
            | TraceEvent::RunStart(_)
            | TraceEvent::RunSummary { .. }
            | TraceEvent::FleetRunStart(_)
            | TraceEvent::FleetSummary(_)
            | TraceEvent::ServeRunStart(_)
            | TraceEvent::ServeSummary(_)
    )
}

/// The event-at-a-time replay walker over one trace of kind `L`: a
/// caller reading a trace pushes each event as it reads and keeps none.
pub struct Replay<L: Ledger> {
    /// Whether any event, the header included, was pushed.
    pushed: bool,
    /// Body events pushed (the header excluded).
    events: usize,
    last_t: f64,
    ledger: Option<L>,
    summary: Option<TraceEvent>,
    issues: Vec<String>,
    /// The structural fault that ended the replay; later events are ignored.
    error: Option<ReplayError>,
}

impl<L: Ledger> Default for Replay<L> {
    fn default() -> Self {
        Replay {
            pushed: false,
            events: 0,
            last_t: f64::NEG_INFINITY,
            ledger: None,
            summary: None,
            issues: Vec::new(),
            error: None,
        }
    }
}

impl<L: Ledger> Replay<L> {
    /// Checks the next event of the trace.
    // Inlined with the ledger's `check`: a call per event made a run
    // replay 20-30% slower.
    #[inline(always)]
    pub fn push(&mut self, ev: &TraceEvent) {
        let Some(ledger) = &mut self.ledger else {
            return self.open(ev);
        };
        let (i, t) = (self.events, ev.t());
        self.events += 1;
        let issues = &mut self.issues;
        if t + 1e-12 < self.last_t {
            let (kind, last_t) = (ev.kind(), self.last_t);
            issues.push(format!(
                "event {i} ({kind}) goes back in time: {t} < {last_t}"
            ));
        }
        self.last_t = self.last_t.max(t);
        // A discriminant test first: body events, nearly all of a trace,
        // skip the kind lookup and string compares.
        if !is_bracket(ev) {
            ledger.check(i, ev, issues);
        } else if matches!(ev, TraceEvent::RunMeta(_)) {
            issues.push(format!("misplaced run_meta at event {i}"));
        } else if ev.kind() == L::START {
            issues.push(format!("duplicate {} at event {i}", L::START));
        } else if ev.kind() == L::SUMMARY {
            if self.summary.replace(ev.clone()).is_some() {
                issues.push(format!("duplicate {} at event {i}", L::SUMMARY));
            }
        } else {
            ledger.check(i, ev, issues);
        }
    }

    /// Takes an event that arrives before the ledger is open: the
    /// optional header, then the start event.
    fn open(&mut self, ev: &TraceEvent) {
        if self.error.is_some() {
            return;
        }
        let first = !std::mem::replace(&mut self.pushed, true);
        if let (true, TraceEvent::RunMeta(meta)) = (first, ev) {
            let (schema, t) = (&meta.schema, meta.t);
            let why = if *schema != TRACE_SCHEMA {
                format!("unsupported schema tag '{schema}' (expected '{TRACE_SCHEMA}')")
            } else if t != 0.0 {
                format!("header timestamp must be 0, got {t}")
            } else {
                return;
            };
            self.error = Some(ReplayError::BadHeader(why));
            return;
        }
        self.events += 1;
        self.last_t = ev.t();
        self.ledger = L::open(ev, &mut self.issues);
        if self.ledger.is_none() {
            self.error = Some(ReplayError::MissingStart(L::START));
        }
    }

    /// Ends the trace: the ledger's report, or the structural fault that
    /// stopped the replay.
    pub fn finish(self) -> Result<L::Report, ReplayError> {
        match (self.error, self.pushed, self.ledger, self.summary) {
            (Some(e), ..) => Err(e),
            (None, false, ..) => Err(ReplayError::Empty),
            (None, true, None, _) => Err(ReplayError::MissingStart(L::START)),
            (None, true, Some(_), None) => Err(ReplayError::MissingSummary(L::SUMMARY)),
            (None, true, Some(ledger), Some(s)) => Ok(ledger.close(&s, self.events, self.issues)),
        }
    }
}

fn replay_slice<L: Ledger>(events: &[TraceEvent]) -> Result<L::Report, ReplayError> {
    let mut walker = Replay::<L>::default();
    events.iter().for_each(|ev| walker.push(ev));
    walker.finish()
}

/// Ends a report's `render`: one line per issue, or the `ok` verdict.
fn verdict(mut out: String, issues: &[String], ok: &str) -> String {
    if issues.is_empty() {
        out.push_str(&format!("verdict   OK — {ok}\n"));
    }
    for issue in issues {
        out.push_str(&format!("ISSUE     {issue}\n"));
    }
    out
}

/// `|x - reference| / |reference|`, or `|x|` for a zero reference.
fn rel_err(x: f64, reference: f64) -> f64 {
    match reference.abs() {
        r if r > 0.0 => (x - reference).abs() / r,
        _ => x.abs(),
    }
}

/// Outcome of replaying a trace and cross-checking its invariants.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Total events replayed (header excluded).
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
        let mut out = format!(
            "replayed {} events\n\
             energy    rebuilt {:.6} J vs reported {:.6} J (rel err {:.3e})\n\
             aes       rebuilt {:.9} vs reported {:.9}\n\
             quality   rebuilt {:.9} vs reported {:.9}\n",
            self.events,
            self.energy_from_slices_j,
            self.reported_energy_j,
            self.energy_rel_err,
            self.aes_residency,
            self.reported_aes,
            self.quality_rebuilt,
            self.reported_quality
        );
        if self.shed_jobs > 0 {
            out.push_str(&format!(
                "shed      {} jobs (cross-checked)\n",
                self.shed_jobs
            ));
        }
        verdict(out, &self.issues, "all invariants hold")
    }
}

/// Replays a single-server run trace, rebuilding energy, mode residency
/// and quality from first principles and cross-checking them against the
/// run summary; also checks the fault and shed invariants.
pub fn replay(events: &[TraceEvent]) -> Result<ReplayReport, ReplayError> {
    replay_slice::<RunLedger>(events)
}

/// The rules of a single-server run trace; see [`replay`].
pub struct RunLedger {
    horizon_s: f64,
    meter: EnergyMeter,
    modes: ModeTracker,
    f: ExpConcave,
    quality: QualityLedger,
    online: Vec<bool>,
    /// Jobs shed by admission control: job -> index of its `job_shed`.
    shed: BTreeMap<u64, usize>,
    /// Jobs that finished discarded: job -> units processed.
    discarded: BTreeMap<u64, f64>,
}

impl Ledger for RunLedger {
    const START: &'static str = "run_start";
    const SUMMARY: &'static str = "run_summary";
    type Report = ReplayReport;

    fn open(start: &TraceEvent, _: &mut Vec<String>) -> Option<Self> {
        let TraceEvent::RunStart(s) = start else {
            return None;
        };
        let cores = (s.cores as usize).max(1);
        let window = match s.ledger_window {
            0 => LedgerMode::Cumulative,
            w => LedgerMode::SlidingWindow(w as usize),
        };
        Some(RunLedger {
            horizon_s: s.horizon_s,
            meter: EnergyMeter::new(cores),
            modes: ModeTracker::new(2, (s.initial_mode as usize).min(1), SimTime::from_secs(s.t)),
            f: ExpConcave::new(s.quality_c, s.quality_xmax),
            quality: QualityLedger::new(window),
            online: vec![true; cores],
            shed: BTreeMap::new(),
            discarded: BTreeMap::new(),
        })
    }

    #[inline(always)]
    fn check(&mut self, i: usize, ev: &TraceEvent, issues: &mut Vec<String>) {
        match *ev {
            TraceEvent::ExecSlice {
                t,
                core,
                start_s,
                end_s,
                energy_j,
                ..
            } => {
                if energy_j < 0.0 {
                    issues.push(format!("negative slice energy at event {i}"));
                }
                if end_s < start_s {
                    issues.push(format!("inverted slice interval at event {i}"));
                }
                match self.online.get(core as usize) {
                    None => issues.push(format!("slice on unknown core {core} at event {i}")),
                    Some(&up) => {
                        self.meter.record_joules(core as usize, energy_j);
                        if !up {
                            issues.push(format!(
                                "exec_slice on offline core {core} at event {i} (t={t})"
                            ));
                        }
                    }
                }
            }
            TraceEvent::ModeSwitch {
                t,
                from_mode,
                to_mode,
                ..
            } => {
                let current = self.modes.current();
                if current != from_mode as usize {
                    issues.push(format!(
                        "mode_switch at event {i} claims from={from_mode} but replay is in {current}"
                    ));
                }
                self.modes
                    .switch((to_mode as usize).min(1), SimTime::from_secs(t));
            }
            TraceEvent::JobFinish {
                job,
                processed,
                full_demand,
                discarded,
                ..
            } => {
                let full = self.f.value(full_demand);
                if discarded {
                    self.quality.record(0.0, full);
                    self.discarded.insert(job, processed);
                } else {
                    self.quality.record(self.f.value(processed), full);
                }
                if processed > full_demand + 1e-6 {
                    issues.push(format!("job processed beyond its demand at event {i}"));
                }
            }
            TraceEvent::JobCut {
                full_demand,
                cut_demand,
                ..
            } if cut_demand > full_demand + 1e-9 => {
                issues.push(format!("job_cut grew a job at event {i}"));
            }
            TraceEvent::QualitySample { quality, .. } if !(0.0..=1.0).contains(&quality) => {
                issues.push(format!("quality sample out of [0,1] at event {i}"));
            }
            TraceEvent::CoreFault { core, online, .. } => {
                match self.online.get_mut(core as usize) {
                    Some(state) => *state = online,
                    None => issues.push(format!("core_fault on unknown core {core} at event {i}")),
                }
            }
            TraceEvent::BudgetThrottle {
                factor,
                budget_w_effective: w,
                ..
            } => {
                if !(factor > 0.0 && factor <= 1.0) {
                    issues.push(format!("budget_throttle factor out of (0,1] at event {i}"));
                }
                if !w.is_finite() || w < 0.0 {
                    issues.push(format!("invalid effective budget at event {i}"));
                }
            }
            TraceEvent::DvfsDeviation { factor, core, .. } => {
                if !factor.is_finite() || factor <= 0.0 {
                    issues.push(format!("dvfs_deviation factor not positive at event {i}"));
                }
                if core as usize >= self.online.len() {
                    issues.push(format!(
                        "dvfs_deviation on unknown core {core} at event {i}"
                    ));
                }
            }
            TraceEvent::JobShed { job, .. } => {
                if let Some(first) = self.shed.insert(job, i) {
                    issues.push(format!("job {job} shed twice (events {first} and {i})"));
                }
            }
            _ => {}
        }
    }

    fn close(self, summary: &TraceEvent, events: usize, mut issues: Vec<String>) -> ReplayReport {
        let TraceEvent::RunSummary {
            t: end_t,
            energy_j,
            quality: reported_quality,
            aes_fraction,
            jobs_finished,
            jobs_discarded,
        } = *summary
        else {
            unreachable!("a run ledger closes on a {} event", Self::SUMMARY)
        };
        let energy = self.meter.total_energy();
        let energy_rel_err = rel_err(energy, energy_j);
        if energy_rel_err > ENERGY_REL_TOL {
            issues.push(format!(
                "energy conservation violated: slices sum to {energy} J, summary says {energy_j} J"
            ));
        }
        // The driver finalizes residency at the horizon; fall back to the
        // summary timestamp if the trace disagrees.
        let end = if (end_t - self.horizon_s).abs() < 1e-9 {
            self.horizon_s
        } else {
            end_t
        };
        let aes = self.modes.fractions_at(SimTime::from_secs(end))[0];
        let quality = self.quality.quality();
        let finished = self.quality.jobs_recorded() as f64;
        let discarded = self.quality.jobs_discarded() as f64;
        for (what, rebuilt, reported, tol) in [
            ("AES residency", aes, aes_fraction, AES_ABS_TOL),
            ("quality", quality, reported_quality, QUALITY_ABS_TOL),
            ("job_finish count", finished, jobs_finished as f64, 0.0),
            ("discard count", discarded, jobs_discarded as f64, 0.0),
        ] {
            if (rebuilt - reported).abs() > tol {
                issues.push(format!(
                    "{what} mismatch: rebuilt {rebuilt}, summary says {reported}"
                ));
            }
        }
        // Every job the trace reports as shed must also appear as a
        // discarded job_finish with zero work processed — a shed that
        // quietly received service (or never left the system) means the
        // admission-control accounting lied.
        for (&job, &at) in &self.shed {
            match self.discarded.get(&job) {
                None => issues.push(format!(
                    "job {job} shed at event {at} but never finished discarded"
                )),
                Some(&processed) if processed > 1e-9 => issues.push(format!(
                    "shed job {job} reports {processed} units processed (must be 0)"
                )),
                Some(_) => {}
            }
        }
        ReplayReport {
            events,
            energy_from_slices_j: energy,
            reported_energy_j: energy_j,
            energy_rel_err,
            aes_residency: aes,
            reported_aes: aes_fraction,
            quality_rebuilt: quality,
            reported_quality,
            shed_jobs: self.shed.len(),
            issues,
        }
    }
}

/// Outcome of replaying a fleet trace and cross-checking its invariants.
#[derive(Debug, Clone, Default)]
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
        let out = format!(
            "replayed {} fleet events across {} servers\n\
             routing   {} dispatched, {} failovers, {} retries, {} shed\n\
             budget    {} reallocation epochs conserve H\n",
            self.events,
            self.servers,
            self.dispatched,
            self.failovers,
            self.retries,
            self.shed,
            self.budget_epochs
        );
        verdict(out, &self.issues, "all fleet invariants hold")
    }
}

/// Replays a fleet trace and cross-checks the router's invariants:
///
/// * dispatches only target servers that are online at the dispatch
///   instant (per the `shard_fault` stream), and never a job the router
///   already shed,
/// * failovers are reclaimed only from dead servers, and every reclaimed
///   or retried job is later re-dispatched or explicitly shed — no job
///   silently vanishes,
/// * every budget reallocation epoch covers each server exactly once and
///   its slices sum to the global budget `H` (dead servers' slices return
///   to the pool, so the sum is conserved through crashes),
/// * the `fleet_summary` counts equal the event counts.
pub fn replay_fleet(events: &[TraceEvent]) -> Result<FleetReplayReport, ReplayError> {
    replay_slice::<FleetLedger>(events)
}

/// The rules of a fleet trace; see [`replay_fleet`].
#[derive(Default)]
pub struct FleetLedger {
    /// The counts, accumulated as the events arrive.
    report: FleetReplayReport,
    budget_w: f64,
    online: Vec<bool>,
    /// Jobs reclaimed (failover) or lost (retry) that still owe the trace
    /// a re-dispatch or an explicit shed: job -> index of the owing event.
    pending: BTreeMap<u64, usize>,
    /// Jobs the router shed: job -> index of its `fleet_shed`.
    shed_jobs: BTreeMap<u64, usize>,
    /// The open budget epoch: the `fleet_budget` slices at one timestamp.
    /// Grouping is by t, so routing events at the same instant do not
    /// split an epoch.
    epoch_t: Option<f64>,
    epoch: Vec<(u64, f64)>,
}

impl FleetLedger {
    /// Checks the open budget epoch, if any, and closes it.
    fn close_epoch(&mut self, issues: &mut Vec<String>) {
        let Some(t) = self.epoch_t.take() else {
            return;
        };
        let (servers, h) = (self.report.servers, self.budget_w);
        let mut seen = vec![false; servers];
        for &(shard, w) in &self.epoch {
            match seen.get_mut(shard as usize) {
                None => issues.push(format!("fleet_budget for unknown server {shard} at t={t}")),
                Some(true) => {
                    issues.push(format!("fleet_budget covers server {shard} twice at t={t}"))
                }
                Some(covered) => *covered = true,
            }
            if !w.is_finite() || w < 0.0 {
                issues.push(format!(
                    "invalid budget slice {w} W for server {shard} at t={t}"
                ));
            }
        }
        let covered = self.epoch.len();
        if covered != servers {
            issues.push(format!(
                "budget epoch at t={t} covers {covered} of {servers} servers"
            ));
        }
        let sum: f64 = self.epoch.drain(..).map(|(_, w)| w).sum();
        if rel_err(sum, h) > BUDGET_REL_TOL {
            issues.push(format!(
                "budget not conserved at t={t}: slices sum to {sum} W, global H is {h} W"
            ));
        }
        self.report.budget_epochs += 1;
    }
}

impl Ledger for FleetLedger {
    const START: &'static str = "fleet_run_start";
    const SUMMARY: &'static str = "fleet_summary";
    type Report = FleetReplayReport;

    fn open(start: &TraceEvent, issues: &mut Vec<String>) -> Option<Self> {
        let TraceEvent::FleetRunStart(s) = start else {
            return None;
        };
        let servers = s.servers as usize;
        if servers == 0 {
            issues.push("fleet_run_start declares zero servers".to_string());
        }
        let mut ledger = FleetLedger::default();
        ledger.report.servers = servers;
        ledger.budget_w = s.budget_w;
        ledger.online = vec![true; servers];
        Some(ledger)
    }

    #[inline(always)]
    fn check(&mut self, i: usize, ev: &TraceEvent, issues: &mut Vec<String>) {
        let t = ev.t();
        if self.epoch_t.is_some_and(|et| et != t) {
            self.close_epoch(issues);
        }
        match *ev {
            TraceEvent::ShardFault { shard, online, .. } => {
                match self.online.get_mut(shard as usize) {
                    None => issues.push(format!(
                        "shard_fault on unknown server {shard} at event {i}"
                    )),
                    Some(up) if *up == online => {
                        let state = if online { "online" } else { "offline" };
                        issues.push(format!(
                            "redundant shard_fault at event {i}: server {shard} already {state}"
                        ));
                    }
                    Some(up) => *up = online,
                }
            }
            TraceEvent::FleetDispatch { job, shard, .. } => {
                self.report.dispatched += 1;
                match self.online.get(shard as usize) {
                    None => issues.push(format!("dispatch to unknown server {shard} at event {i}")),
                    Some(false) => issues.push(format!(
                        "dispatch of job {job} to dead server {shard} at event {i} (t={t})"
                    )),
                    Some(true) => {}
                }
                if let Some(at) = self.shed_jobs.get(&job) {
                    issues.push(format!(
                        "dispatch of job {job} at event {i} after it was shed at event {at}"
                    ));
                }
                self.pending.remove(&job);
            }
            TraceEvent::FleetRetry { job, next_s, .. } => {
                self.report.retries += 1;
                if next_s + 1e-12 < t {
                    issues.push(format!("retry at event {i} scheduled in the past"));
                }
                self.pending.entry(job).or_insert(i);
            }
            TraceEvent::FleetFailover { job, shard, .. } => {
                self.report.failovers += 1;
                match self.online.get(shard as usize) {
                    None => {
                        issues.push(format!("failover from unknown server {shard} at event {i}"))
                    }
                    Some(true) => issues.push(format!(
                        "failover of job {job} from live server {shard} at event {i}"
                    )),
                    Some(false) => {}
                }
                self.pending.entry(job).or_insert(i);
            }
            TraceEvent::FleetShed { job, .. } => {
                self.report.shed += 1;
                self.pending.remove(&job);
                if let Some(first) = self.shed_jobs.insert(job, i) {
                    issues.push(format!("job {job} shed twice (events {first} and {i})"));
                }
            }
            TraceEvent::FleetBudget {
                shard, budget_w, ..
            } => {
                self.epoch_t = Some(t);
                self.epoch.push((shard, budget_w));
            }
            _ => {}
        }
    }

    fn close(mut self, s: &TraceEvent, events: usize, mut issues: Vec<String>) -> Self::Report {
        let TraceEvent::FleetSummary(s) = s else {
            unreachable!("a fleet ledger closes on a {} event", Self::SUMMARY)
        };
        self.close_epoch(&mut issues);
        let mut r = self.report;
        for (name, reported, counted) in [
            ("dispatches", s.dispatched, r.dispatched),
            ("failovers", s.failovers, r.failovers),
            ("retries", s.retries, r.retries),
            ("sheds", s.shed, r.shed),
        ] {
            if reported != counted {
                issues.push(format!(
                    "summary says {reported} {name}, trace has {counted}"
                ));
            }
        }
        if !s.energy_j.is_finite() || s.energy_j < 0.0 {
            issues.push(format!("summary energy {} J is invalid", s.energy_j));
        }
        if !(0.0..=1.0).contains(&s.quality) {
            issues.push(format!("summary quality {} out of [0,1]", s.quality));
        }
        for (&job, &at) in &self.pending {
            issues.push(format!(
                "job {job} reclaimed/lost at event {at} but never re-dispatched or shed"
            ));
        }
        (r.events, r.issues) = (events, issues);
        r
    }
}

/// Outcome of replaying a serve trace and recounting its ledger.
#[derive(Debug, Clone, Default)]
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
        let out = format!(
            "replayed {} serve events over {} requests\n\
             terminal  {} completed, {} rejected, {} timed-out, {} shed ({} admitted)\n",
            self.events,
            self.requests,
            self.completed,
            self.rejected,
            self.timed_out,
            self.shed,
            self.admitted
        );
        verdict(
            out,
            &self.issues,
            "every request is exactly one terminal state",
        )
    }
}

/// Replays a serve trace and recounts the serving ledger independently,
/// cross-checking the front end's core invariant:
///
/// * every request is **exactly one** of completed / rejected / shed /
///   timed-out — no request vanishes, no request double-counts,
/// * only admitted requests complete, time out, or are engine-shed, and
///   no admitted request is also rejected, in either order,
/// * no admission happens after drain began, and post-drain rejections
///   carry the `draining` reason,
/// * the `serve_summary` counters equal the recounted totals and the four
///   terminal counters sum to `requests`.
pub fn replay_serve(events: &[TraceEvent]) -> Result<ServeReplayReport, ReplayError> {
    replay_slice::<ServeLedger>(events)
}

/// One request's `serve_request`, `serve_admit` and (latest) terminal
/// state, by trace index.
#[derive(Default)]
struct Request {
    request: Option<usize>,
    admit: Option<usize>,
    terminal: Option<(&'static str, usize)>,
}

/// The rules of a serve trace; see [`replay_serve`].
#[derive(Default)]
pub struct ServeLedger {
    /// The terminal counts, accumulated as the events arrive.
    report: ServeReplayReport,
    requests: BTreeMap<u64, Request>,
    drained_at: Option<usize>,
}

impl ServeLedger {
    /// Books terminal state `kind` for `req` at event `i`: only an
    /// admitted request ends other than rejected, an admitted one is
    /// never rejected, and none ends twice.
    fn end(&mut self, i: usize, req: u64, kind: &'static str, issues: &mut Vec<String>) {
        let r = self.requests.entry(req).or_default();
        match (kind, r.admit) {
            ("rejected", Some(a)) => issues.push(format!(
                "request {req} rejected at event {i} after being admitted at event {a}"
            )),
            ("rejected", None) if r.request.is_none() => {
                issues.push(format!("reject of unknown request {req} at event {i}"));
            }
            ("rejected", None) | (_, Some(_)) => {}
            (_, None) => issues.push(format!(
                "request {req} {kind} at event {i} without being admitted"
            )),
        }
        if let Some((prev, at)) = r.terminal.replace((kind, i)) {
            issues.push(format!(
                "request {req} reached a second terminal state: {prev} at event {at}, then {kind} at event {i}"
            ));
        }
    }
}

impl Ledger for ServeLedger {
    const START: &'static str = "serve_run_start";
    const SUMMARY: &'static str = "serve_summary";
    type Report = ServeReplayReport;

    fn open(start: &TraceEvent, _: &mut Vec<String>) -> Option<Self> {
        matches!(start, TraceEvent::ServeRunStart(_)).then(ServeLedger::default)
    }

    #[inline(always)]
    fn check(&mut self, i: usize, ev: &TraceEvent, issues: &mut Vec<String>) {
        match *ev {
            TraceEvent::ServeRequest { req, demand, .. } => {
                if let Some(first) = self.requests.entry(req).or_default().request.replace(i) {
                    issues.push(format!(
                        "duplicate serve_request for {req} (events {first} and {i})"
                    ));
                }
                if !demand.is_finite() || demand <= 0.0 {
                    issues.push(format!("request {req} carries invalid demand {demand}"));
                }
            }
            TraceEvent::ServeAdmit { req, .. } => {
                let r = self.requests.entry(req).or_default();
                if r.request.is_none() {
                    issues.push(format!("admit of unknown request {req} at event {i}"));
                }
                if let Some(d) = self.drained_at {
                    issues.push(format!(
                        "admit of request {req} at event {i} after drain began at event {d}"
                    ));
                }
                if let Some((kind, at)) = r.terminal {
                    issues.push(format!(
                        "request {req} admitted at event {i} after it was {kind} at event {at}"
                    ));
                }
                if let Some(first) = r.admit.replace(i) {
                    issues.push(format!(
                        "request {req} admitted twice (events {first} and {i})"
                    ));
                }
            }
            TraceEvent::ServeReject { req, reason, .. } => {
                if self.drained_at.is_some() && reason != RejectReason::Draining {
                    let reason = reason.as_str();
                    issues.push(format!(
                        "post-drain rejection of request {req} carries reason '{reason}', expected 'draining'"
                    ));
                }
                self.report.rejected += 1;
                self.end(i, req, "rejected", issues);
            }
            TraceEvent::ServeTimeout { req, .. } => {
                self.report.timed_out += 1;
                self.end(i, req, "timed-out", issues);
            }
            TraceEvent::ServeComplete {
                req,
                processed,
                full_demand: full,
                ..
            } => {
                if !(processed > 0.0 && processed <= full + 1e-9) {
                    issues.push(format!(
                        "completion of request {req} reports {processed} of {full} units (must be in (0, full])"
                    ));
                }
                self.report.completed += 1;
                self.end(i, req, "completed", issues);
            }
            TraceEvent::ServeShed { req, .. } => {
                self.report.shed += 1;
                self.end(i, req, "shed", issues);
            }
            TraceEvent::ServeDrain { .. } => match self.drained_at {
                Some(d) => issues.push(format!(
                    "duplicate serve_drain at event {i} (first at event {d})"
                )),
                None => self.drained_at = Some(i),
            },
            _ => {}
        }
    }

    fn close(self, summary: &TraceEvent, events: usize, mut issues: Vec<String>) -> Self::Report {
        let TraceEvent::ServeSummary(s) = summary else {
            unreachable!("a serve ledger closes on a {} event", Self::SUMMARY)
        };
        let mut r = self.report;
        for (req, books) in &self.requests {
            r.admitted += u64::from(books.admit.is_some());
            let Some(at) = books.request else { continue };
            r.requests += 1;
            if books.terminal.is_none() {
                issues.push(format!(
                    "request {req} (event {at}) never reached a terminal state"
                ));
            }
        }
        for (name, recounted, reported) in [
            ("requests", r.requests, s.requests),
            ("admitted", r.admitted, s.admitted),
            ("completed", r.completed, s.completed),
            ("rejected", r.rejected, s.rejected),
            ("timed_out", r.timed_out, s.timed_out),
            ("shed", r.shed, s.shed),
        ] {
            if recounted != reported {
                issues.push(format!(
                    "summary says {reported} {name}, trace recount gives {recounted}"
                ));
            }
        }
        let ended = r.completed + r.rejected + r.timed_out + r.shed;
        if ended != r.requests {
            let requests = r.requests;
            issues.push(format!(
                "terminal states sum to {ended} of {requests} requests"
            ));
        }
        (r.events, r.issues) = (events, issues);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{
        FleetRunStartEvent, FleetSummaryEvent, RunMetaEvent, RunStartEvent, ServeRunStartEvent,
        ServeSummaryEvent,
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
            Err(ReplayError::MissingStart("run_start"))
        ));
        assert!(matches!(
            replay(&[start()]),
            Err(ReplayError::MissingSummary("run_summary"))
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
            Err(ReplayError::MissingStart("run_start"))
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
            Err(ReplayError::MissingStart("fleet_run_start"))
        ));
        assert!(matches!(
            replay_fleet(&[fleet_start(2, 100.0)]),
            Err(ReplayError::MissingSummary("fleet_summary"))
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
            Err(ReplayError::MissingStart("serve_run_start"))
        ));
        assert!(matches!(
            replay_serve(&[serve_start()]),
            Err(ReplayError::MissingSummary("serve_summary"))
        ));
    }

    #[test]
    fn serve_admit_after_reject_flagged() {
        let events = vec![
            serve_start(),
            serve_req(1.0, 0),
            TraceEvent::ServeReject {
                t: 1.0,
                req: 0,
                reason: crate::event::RejectReason::Busy,
                queue_len: 9,
            },
            serve_admit(1.1, 0),
            serve_summary(2.0, (1, 1, 0, 1, 0, 0)),
        ];
        let report = replay_serve(&events).unwrap();
        assert!(
            report
                .issues
                .iter()
                .any(|m| m.contains("admitted at event 3 after it was rejected at event 2")),
            "{}",
            report.render()
        );
    }

    #[test]
    fn fleet_dispatch_of_shed_job_flagged() {
        let events = vec![
            fleet_start(2, 100.0),
            TraceEvent::FleetShed {
                t: 1.0,
                job: 9,
                demand: 500.0,
            },
            dispatch(1.5, 9, 0, 0),
            fleet_summary(1, 0, 0, 1),
        ];
        let report = replay_fleet(&events).unwrap();
        assert!(
            report
                .issues
                .iter()
                .any(|m| m.contains("dispatch of job 9 at event 2 after it was shed at event 1")),
            "{}",
            report.render()
        );
    }

    /// Every structural rule the walker owns, against every trace kind.
    #[test]
    fn structural_rules_hold_for_every_trace_kind() {
        type Walk = fn(&[TraceEvent]) -> Result<(usize, Vec<String>), ReplayError>;
        let kinds: [(&str, &str, TraceEvent, TraceEvent, Walk); 3] = [
            (
                RunLedger::START,
                RunLedger::SUMMARY,
                start(),
                summary_for(&[start()]),
                |e| replay(e).map(|r| (r.events, r.issues)),
            ),
            (
                FleetLedger::START,
                FleetLedger::SUMMARY,
                fleet_start(2, 100.0),
                fleet_summary(0, 0, 0, 0),
                |e| replay_fleet(e).map(|r| (r.events, r.issues)),
            ),
            (
                ServeLedger::START,
                ServeLedger::SUMMARY,
                serve_start(),
                serve_summary(2.0, (0, 0, 0, 0, 0, 0)),
                |e| replay_serve(e).map(|r| (r.events, r.issues)),
            ),
        ];
        let ok = header(TRACE_SCHEMA);
        let late: TraceEvent = RunMetaEvent {
            t: 1.0,
            schema: TRACE_SCHEMA.to_string(),
            seed: 1,
            config_digest: 2,
            version: "0.1.0".to_string(),
        }
        .into();
        let tick = |t| TraceEvent::TriggerFired {
            t,
            kind: crate::event::TriggerKind::Quantum,
            queue_len: 0,
        };
        for (start_kind, summary_kind, st, sum, walk) in kinds {
            assert_eq!(st.kind(), start_kind);
            assert_eq!(sum.kind(), summary_kind);
            let clean = walk(&[ok.clone(), st.clone(), sum.clone()]);
            assert_eq!(
                clean,
                Ok((2, vec![])),
                "{start_kind}: header must not count"
            );

            let bad_schema =
                format!("unsupported schema tag 'ge-trace/v999' (expected '{TRACE_SCHEMA}')");
            for (rule, events, error) in [
                ("empty", vec![], ReplayError::Empty),
                (
                    "bad schema",
                    vec![header("ge-trace/v999"), st.clone(), sum.clone()],
                    ReplayError::BadHeader(bad_schema),
                ),
                (
                    "nonzero header t",
                    vec![late.clone(), st.clone(), sum.clone()],
                    ReplayError::BadHeader("header timestamp must be 0, got 1".to_string()),
                ),
                (
                    "header only",
                    vec![ok.clone()],
                    ReplayError::MissingStart(start_kind),
                ),
                (
                    "wrong first kind",
                    vec![sum.clone(), st.clone(), sum.clone()],
                    ReplayError::MissingStart(start_kind),
                ),
                (
                    "missing summary",
                    vec![ok.clone(), st.clone(), tick(1.0)],
                    ReplayError::MissingSummary(summary_kind),
                ),
            ] {
                assert_eq!(walk(&events), Err(error), "{start_kind}: {rule}");
            }

            for (rule, events, issue) in [
                (
                    "misplaced run_meta",
                    vec![st.clone(), ok.clone(), sum.clone()],
                    "misplaced run_meta at event 1".to_string(),
                ),
                (
                    "duplicate start",
                    vec![st.clone(), st.clone(), sum.clone()],
                    format!("duplicate {start_kind} at event 1"),
                ),
                (
                    "duplicate summary",
                    vec![st.clone(), sum.clone(), sum.clone()],
                    format!("duplicate {summary_kind} at event 2"),
                ),
                (
                    "back in time",
                    vec![st.clone(), tick(1.5), tick(1.0), sum.clone()],
                    "event 2 (trigger) goes back in time: 1 < 1.5".to_string(),
                ),
            ] {
                let (events_seen, issues) = walk(&events).unwrap();
                assert_eq!(events_seen, events.len(), "{start_kind}: {rule}");
                assert_eq!(issues, vec![issue], "{start_kind}: {rule}");
            }
        }
    }
}
