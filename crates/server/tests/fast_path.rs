//! Differential property test for the armed-core fast path.
//!
//! Two servers receive the same random sequence of operations — job
//! assignments, multi-segment plans with gaps and zero-speed segments,
//! target cuts, DVFS factors, core failures and recoveries with orphan
//! re-homing — and are advanced to the same targets, many of them placed
//! 1e-12…1e-5 s before or after a job's projected completion, a deadline
//! or a segment boundary. The server under test installs plans through
//! `Server::install_plan`, which arms a core whose resident jobs are all
//! live; the reference installs them with `Core::install_plan` and calls
//! `jobs_mut()` on every core before each advance, which disarms it, so
//! every reference advance runs the general path. After every step the
//! two must agree bit for bit: metered energy, each job's progress,
//! clocks, finished jobs, traced execution slices, `current_speed()` and
//! `next_event_time()`; and the server's pruned `next_event_time()` must
//! equal the plain minimum over its cores. An install must leave the
//! core disarmed when the core is offline or holds a job that is done or
//! at its deadline.

use std::cell::Cell;

use ge_integration_tests::prop::{check, shrink_vec, PropConfig, Shrink};
use ge_power::{PolynomialPower, SpeedProfile, SpeedSegment};
use ge_server::{CoreJob, FinishedJob, Server};
use ge_simcore::{RngStream, SimTime, TIME_EPS};
use ge_trace::VecSink;
use ge_workload::{Job, JobId, UNITS_PER_GHZ_SEC};

/// Where an advance target sits.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Anchor {
    /// `now + secs`.
    Step(f64),
    /// The projected completion of the `n`-th resident job (over all
    /// cores, modulo the count) if it ran from now on.
    Completion(usize),
    /// The deadline of the `n`-th resident job.
    Deadline(usize),
    /// The start or end of the `n`-th segment over all installed plans.
    SegmentEdge(usize),
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    /// Advance every core to the anchor plus `offset` seconds, moved by
    /// `ulps` units in the last place (clamped to the current time).
    Advance {
        anchor: Anchor,
        offset: f64,
        ulps: i64,
    },
    /// Assign a job released at `now + release_in` with the given window
    /// and demand.
    Assign {
        core: usize,
        release_in: f64,
        window: f64,
        demand: f64,
    },
    /// Assign a job released now whose demand is the core's remaining
    /// planned volume times `1 + rel`, so it completes within rounding of
    /// the plan's end (or not at all).
    AssignToPlanEnd { core: usize, rel: f64 },
    /// Install a plan starting `lead` seconds from now: `(gap, len, GHz)`
    /// per segment, up to four.
    Plan {
        core: usize,
        lead: f64,
        segments: [(f64, f64, f64); 4],
        count: usize,
    },
    /// Assign a job whose deadline is exactly now, released `window`
    /// seconds ago.
    AssignDueNow { core: usize, window: f64 },
    /// Cut the `n`-th job on the core to `processed + frac · remaining`.
    Cut { core: usize, n: usize, frac: f64 },
    /// Install a one-segment plan on the core if it is offline.
    PlanOffline { core: usize, len: f64, ghz: f64 },
    /// Set the core's DVFS actuation factor.
    Factor { core: usize, factor: f64 },
    /// Fail the core; its jobs join the orphan pool.
    Fail { core: usize },
    /// Recover the core.
    Recover { core: usize },
    /// Re-home the oldest orphan on the core if it is online.
    Adopt { core: usize },
}

#[derive(Debug, Clone, PartialEq)]
struct Scenario {
    cores: usize,
    ops: Vec<Op>,
}

impl Shrink for Scenario {
    fn shrink_candidates(&self) -> Vec<Self> {
        shrink_vec(&self.ops)
            .into_iter()
            .map(|ops| Scenario {
                cores: self.cores,
                ops,
            })
            .collect()
    }

    fn repro(&self) -> String {
        format!("let scenario = {self:#?};")
    }
}

fn offset(rng: &mut RngStream) -> f64 {
    let sign = if rng.next_below(2) == 0 { -1.0 } else { 1.0 };
    match rng.next_below(5) {
        0 => 0.0,
        // Exactly the comparison tolerance, where `before`/`after` flip.
        1 => sign * TIME_EPS,
        // Mostly tiny, sometimes a whole microsecond-scale step.
        2 => sign * 10f64.powf(rng.uniform_range(-11.0, -4.0)),
        _ => sign * 10f64.powf(rng.uniform_range(-12.0, -5.0)),
    }
}

fn speed(rng: &mut RngStream) -> f64 {
    match rng.next_below(8) {
        0 => 0.0,
        // Slow enough that a microsecond retires less than TIME_EPS
        // GHz-seconds.
        1 => 10f64.powf(rng.uniform_range(-9.0, -3.0)),
        _ => rng.uniform_range(0.3, 4.0),
    }
}

fn gen_plan(rng: &mut RngStream, core: usize) -> Op {
    let mut segments = [(0.0, 0.0, 0.0); 4];
    for seg in &mut segments {
        let gap = match rng.next_below(3) {
            0 => 0.0,
            1 => 10f64.powf(rng.uniform_range(-11.0, -6.0)),
            _ => rng.uniform_range(0.0, 0.05),
        };
        *seg = (gap, rng.uniform_range(0.002, 0.3), speed(rng));
    }
    Op::Plan {
        core,
        lead: match rng.next_below(3) {
            0 => 0.0,
            1 => rng.uniform_range(0.0, 0.05),
            _ => -rng.uniform_range(0.0, 0.05),
        },
        segments,
        count: 1 + rng.next_below(4) as usize,
    }
}

fn gen_scenario(rng: &mut RngStream) -> Scenario {
    let cores = 1 + rng.next_below(3) as usize;
    let mut ops = Vec::new();
    for core in 0..cores {
        ops.push(gen_plan(rng, core));
    }
    let n = 20 + rng.next_below(40) as usize;
    for _ in 0..n {
        let core = rng.next_below(cores as u64) as usize;
        let op = match rng.next_below(20) {
            0..=3 => Op::Assign {
                core,
                release_in: if rng.next_below(4) == 0 {
                    rng.uniform_range(0.0, 0.1)
                } else {
                    0.0
                },
                window: rng.uniform_range(0.02, 0.5),
                demand: rng.uniform_range(1.0, 600.0),
            },
            4 => gen_plan(rng, core),
            5 => Op::AssignToPlanEnd {
                core,
                rel: match rng.next_below(3) {
                    0 => 0.0,
                    k => {
                        let sign = if k == 1 { -1.0 } else { 1.0 };
                        sign * 10f64.powf(rng.uniform_range(-16.0, -9.0))
                    }
                },
            },
            6 => Op::Cut {
                core,
                n: rng.next_below(8) as usize,
                // Sometimes all the way down to the processed volume.
                frac: if rng.next_below(4) == 0 {
                    0.0
                } else {
                    rng.uniform01()
                },
            },
            7 => Op::Factor {
                core,
                factor: rng.uniform_range(0.5, 1.3),
            },
            8 => Op::Fail { core },
            9 => Op::Recover { core },
            10 => Op::Adopt { core },
            11 if rng.next_below(3) == 0 => Op::AssignDueNow {
                core,
                window: rng.uniform_range(0.01, 0.2),
            },
            12 if rng.next_below(3) == 0 => Op::PlanOffline {
                core,
                len: rng.uniform_range(0.01, 0.3),
                ghz: speed(rng),
            },
            k => {
                let anchor = match k % 4 {
                    0 => Anchor::Step(rng.uniform_range(0.0, 0.06)),
                    1 => Anchor::Completion(rng.next_below(16) as usize),
                    2 => Anchor::Deadline(rng.next_below(16) as usize),
                    _ => Anchor::SegmentEdge(rng.next_below(16) as usize),
                };
                Op::Advance {
                    anchor,
                    offset: offset(rng),
                    ulps: rng.next_below(5) as i64 - 2,
                }
            }
        };
        ops.push(op);
    }
    Scenario { cores, ops }
}

fn t(secs: f64) -> SimTime {
    SimTime::from_secs(secs)
}

/// What the armed server's installs and advances did, over a test.
#[derive(Default)]
struct Counts {
    /// Core advances that started armed.
    armed_visits: Cell<u64>,
    /// Of those, advances whose core was last touched by an install.
    armed_after_install: Cell<u64>,
    /// Installs that had to leave the core disarmed.
    refused_installs: Cell<u64>,
}

fn bump(c: &Cell<u64>, by: u64) {
    c.set(c.get() + by);
}

/// One server plus the bookkeeping the operations need.
struct Rig {
    server: Server,
    orphans: Vec<CoreJob>,
    finished: Vec<FinishedJob>,
    sink: VecSink,
    /// Whether to install with `Core::install_plan` and disarm every core
    /// before each advance.
    reference: bool,
    /// Per core: nothing but an install touched it since its last advance.
    fresh_install: Vec<bool>,
    /// Installs that armed a core they had to leave disarmed.
    violations: Vec<String>,
}

impl Rig {
    fn new(cores: usize, reference: bool) -> Self {
        Rig {
            server: Server::new(
                cores,
                Box::new(PolynomialPower::paper_default()),
                320.0,
                UNITS_PER_GHZ_SEC,
            ),
            orphans: Vec::new(),
            finished: Vec::new(),
            sink: VecSink::new(),
            reference,
            fresh_install: vec![false; cores],
            violations: Vec::new(),
        }
    }

    fn armed(&self, core: usize) -> bool {
        self.server.core(core).next_event_floor() > f64::NEG_INFINITY
    }

    /// Installs `profile` on `core`. The armed server must refuse to arm
    /// an offline core or one holding a job that is done or at its
    /// deadline.
    fn install(&mut self, core: usize, profile: SpeedProfile, counts: &Counts) {
        let cap = profile.max_speed();
        if self.reference {
            self.server.core_mut(core).install_plan(profile, cap);
            return;
        }
        self.server.install_plan(core, &profile, cap);
        let c = self.server.core(core);
        let refuse = !c.is_online()
            || c.jobs()
                .iter()
                .any(|j| j.is_done() || !j.deadline.after(c.clock()));
        if refuse {
            bump(&counts.refused_installs, 1);
            if self.armed(core) {
                self.violations
                    .push(format!("install armed core {core}: {:?}", c.jobs()));
            }
        }
        self.fresh_install[core] = true;
    }

    fn now(&self) -> SimTime {
        self.server.core(0).clock()
    }

    /// Resolves an advance target against this rig's state.
    fn target(&self, anchor: Anchor, offset: f64, ulps: i64) -> SimTime {
        let now = self.now().as_secs();
        let jobs: Vec<(usize, &CoreJob)> = (0..self.server.core_count())
            .flat_map(|i| self.server.core(i).jobs().iter().map(move |j| (i, j)))
            .collect();
        let edges: Vec<f64> = self
            .server
            .cores()
            .flat_map(|c| c.profile().segments().iter())
            .flat_map(|s| [s.start.as_secs(), s.end.as_secs()])
            .collect();
        let base = match anchor {
            Anchor::Step(dt) => now + dt,
            Anchor::Completion(n) if !jobs.is_empty() => {
                let (i, j) = jobs[n % jobs.len()];
                let core = self.server.core(i);
                core.profile()
                    .time_for_ghz_seconds(core.clock(), j.remaining() / UNITS_PER_GHZ_SEC)
                    .map_or(now, |c| c.as_secs())
            }
            Anchor::Deadline(n) if !jobs.is_empty() => jobs[n % jobs.len()].1.deadline.as_secs(),
            Anchor::SegmentEdge(n) if !edges.is_empty() => edges[n % edges.len()],
            _ => now,
        };
        let to = (base + offset).max(now);
        t(f64::from_bits(to.to_bits().saturating_add_signed(ulps)).max(now))
    }

    fn apply(&mut self, op: Op, next_id: &mut u64, counts: &Counts) {
        let now = self.now();
        let cores = self.fresh_install.len();
        let fresh = std::mem::replace(&mut self.fresh_install, vec![false; cores]);
        match op {
            Op::Advance {
                anchor,
                offset,
                ulps,
            } => {
                let to = self.target(anchor, offset, ulps);
                if self.reference {
                    for i in 0..self.server.core_count() {
                        self.server.core_mut(i).jobs_mut();
                    }
                } else {
                    let armed: Vec<usize> = (0..self.server.core_count())
                        .filter(|&i| self.armed(i))
                        .collect();
                    bump(&counts.armed_visits, armed.len() as u64);
                    let after_install = armed.iter().filter(|&&i| fresh[i]).count();
                    bump(&counts.armed_after_install, after_install as u64);
                }
                self.server
                    .advance_all(to, &mut self.sink, &mut self.finished);
            }
            Op::Assign {
                core,
                release_in,
                window,
                demand,
            } => {
                if self.server.core(core).is_online() {
                    let release = t(now.as_secs() + release_in);
                    let job = Job::new(
                        JobId(*next_id),
                        release,
                        t(release.as_secs() + window),
                        demand,
                    );
                    *next_id += 1;
                    self.server.core_mut(core).assign(&job);
                }
            }
            Op::AssignToPlanEnd { core, rel } => {
                let c = self.server.core(core);
                if let (true, Some(end)) = (c.is_online(), c.profile().end()) {
                    let volume = c.profile().ghz_seconds(now, end) * UNITS_PER_GHZ_SEC;
                    if volume > 1.0 {
                        let deadline = t(end.as_secs().max(now.as_secs()) + 0.01);
                        let job = Job::new(JobId(*next_id), now, deadline, volume * (1.0 + rel));
                        *next_id += 1;
                        self.server.core_mut(core).assign(&job);
                    }
                }
            }
            Op::Plan {
                core,
                lead,
                segments,
                count,
            } => {
                let mut start = now.as_secs() + lead;
                let mut plan = Vec::new();
                for &(gap, len, ghz) in &segments[..count] {
                    start += gap;
                    plan.push(SpeedSegment::new(t(start), t(start + len), ghz));
                    start += len;
                }
                if self.server.core(core).is_online() {
                    self.install(core, SpeedProfile::new(plan), counts);
                }
            }
            Op::PlanOffline { core, len, ghz } => {
                if !self.server.core(core).is_online() {
                    let plan = SpeedSegment::new(now, t(now.as_secs() + len), ghz);
                    self.install(core, SpeedProfile::new(vec![plan]), counts);
                }
            }
            Op::AssignDueNow { core, window } => {
                if self.server.core(core).is_online() {
                    let release = t(now.as_secs() - window);
                    let job = Job::new(JobId(*next_id), release, now, 100.0);
                    *next_id += 1;
                    self.server.core_mut(core).assign(&job);
                }
            }
            Op::Cut { core, n, frac } => {
                let c = self.server.core_mut(core);
                let jobs = c.jobs_mut();
                if !jobs.is_empty() {
                    let j = &mut jobs[n % jobs.len()];
                    j.target_demand = j.processed + frac * j.remaining();
                }
            }
            Op::Factor { core, factor } => self.server.set_core_speed_factor(core, factor),
            Op::Fail { core } => {
                if self.server.core(core).is_online() && self.server.online_count() > 1 {
                    let orphans = self.server.fail_core(core);
                    self.orphans.extend(orphans);
                }
            }
            Op::Recover { core } => {
                if !self.server.core(core).is_online() {
                    self.server.recover_core(core);
                }
            }
            Op::Adopt { core } => {
                if self.server.core(core).is_online() && !self.orphans.is_empty() {
                    let job = self.orphans.remove(0);
                    self.server.core_mut(core).adopt(job);
                }
            }
        }
    }
}

fn bits(t: Option<SimTime>) -> Option<u64> {
    t.map(|t| t.as_secs().to_bits())
}

/// Compares the two rigs bit for bit and checks the pruned minimum.
fn compare(fast: &Rig, reference: &Rig) -> Result<(), String> {
    if let Some(v) = fast.violations.first() {
        return Err(v.clone());
    }
    let (a, b) = (&fast.server, &reference.server);
    if a.total_energy().to_bits() != b.total_energy().to_bits() {
        return Err(format!(
            "total energy {} vs reference {}",
            a.total_energy(),
            b.total_energy()
        ));
    }
    for i in 0..a.core_count() {
        let (ca, cb) = (a.core(i), b.core(i));
        if a.core_energy(i).to_bits() != b.core_energy(i).to_bits() {
            return Err(format!(
                "core {i} energy {} vs {}",
                a.core_energy(i),
                b.core_energy(i)
            ));
        }
        if ca.clock().as_secs().to_bits() != cb.clock().as_secs().to_bits() {
            return Err(format!("core {i} clock {} vs {}", ca.clock(), cb.clock()));
        }
        if format!("{:?}", ca.jobs()) != format!("{:?}", cb.jobs()) {
            return Err(format!("core {i} jobs {:?} vs {:?}", ca.jobs(), cb.jobs()));
        }
        if ca.running_job() != cb.running_job() {
            return Err(format!(
                "core {i} running {:?} vs {:?}",
                ca.running_job(),
                cb.running_job()
            ));
        }
        if ca.current_speed().to_bits() != cb.current_speed().to_bits() {
            return Err(format!(
                "core {i} current_speed {} vs {}",
                ca.current_speed(),
                cb.current_speed()
            ));
        }
        let (na, nb) = (ca.next_event_time(), cb.next_event_time());
        if bits(na) != bits(nb) {
            return Err(format!("core {i} next_event_time {na:?} vs {nb:?}"));
        }
        if let Some(n) = na {
            if ca.next_event_floor() > n.as_secs() {
                return Err(format!(
                    "core {i} floor {} above next_event_time {n}",
                    ca.next_event_floor()
                ));
            }
        }
    }
    if format!("{:?}", fast.finished) != format!("{:?}", reference.finished) {
        return Err(format!(
            "finished {:?} vs {:?}",
            fast.finished, reference.finished
        ));
    }
    if format!("{:?}", fast.sink.events()) != format!("{:?}", reference.sink.events()) {
        return Err("traced exec slices differ".to_string());
    }
    let full = a
        .cores()
        .filter_map(|c| c.next_event_time())
        .min_by(|x, y| x.total_cmp(y));
    if bits(a.next_event_time()) != bits(full) {
        return Err(format!(
            "pruned minimum {:?} vs full {:?}",
            a.next_event_time(),
            full
        ));
    }
    if bits(a.next_event_time()) != bits(b.next_event_time()) {
        return Err(format!(
            "server next_event_time {:?} vs reference {:?}",
            a.next_event_time(),
            b.next_event_time()
        ));
    }
    Ok(())
}

fn run_scenario(s: &Scenario, counts: &Counts) -> Result<(), String> {
    let mut fast = Rig::new(s.cores, false);
    let mut reference = Rig::new(s.cores, true);
    let (mut id_a, mut id_b) = (0, 0);
    for (step, &op) in s.ops.iter().enumerate() {
        fast.apply(op, &mut id_a, counts);
        reference.apply(op, &mut id_b, &Counts::default());
        compare(&fast, &reference).map_err(|e| format!("after step {step} ({op:?}): {e}"))?;
    }
    Ok(())
}

#[test]
fn fast_path_matches_general_path_bit_for_bit() {
    let counts = Counts::default();
    check(
        "armed fast path == general path",
        &PropConfig::cases(400),
        gen_scenario,
        |s| run_scenario(s, &counts),
    );
    // The property is vacuous unless advances actually start armed, some
    // of them armed by the install before them, and unless some installs
    // have to refuse.
    let visits = counts.armed_visits.get();
    assert!(visits > 1000, "only {visits} core advances started armed");
    let after_install = counts.armed_after_install.get();
    assert!(after_install > 0, "no advance started armed by an install");
    let refused = counts.refused_installs.get();
    assert!(refused > 0, "no install had to refuse to arm");
}

fn advance(anchor: Anchor, offset: f64, ulps: i64) -> Op {
    Op::Advance {
        anchor,
        offset,
        ulps,
    }
}

fn plan(segments: &[(f64, f64, f64)]) -> Op {
    let mut padded = [(0.0, 0.0, 0.0); 4];
    padded[..segments.len()].copy_from_slice(segments);
    Op::Plan {
        core: 0,
        lead: 0.0,
        segments: padded,
        count: segments.len(),
    }
}

/// Hand-placed edges the random search reaches only by luck, each swept
/// over the rounding window it lives in:
///
/// * a job sized to the plan's whole volume within the 1e-12 GHz-s
///   tolerance of the completion projection, whose projected completion
///   can flip between "never" and "at the plan's end" as the clock moves;
/// * a slow last segment on which the slice before the completion leaves
///   less than TIME_EPS GHz-seconds, so the general path's next projection
///   is "now";
/// * a clock a few ulps around `segment end − TIME_EPS`, where
///   `speed_at` and the segment cursor use different roundings of the
///   same boundary.
#[test]
fn rounding_edges_match_general_path() {
    let visits = Counts::default();
    let mut scenarios = Vec::new();
    for step in -40i64..=40 {
        let cap = 2.0 * 0.1 + 1.5 * 0.05;
        let rel = (1e-12 + step as f64 * 3e-17) / cap;
        let mut ops = vec![
            plan(&[(0.0, 0.1, 2.0), (0.0, 0.05, 1.5)]),
            Op::AssignToPlanEnd { core: 0, rel },
            advance(Anchor::Step(0.0), 0.0, 0),
        ];
        for k in 0..14 {
            ops.push(advance(Anchor::Step(0.0117), 0.0, (step + k) % 3 - 1));
        }
        scenarios.push(ops);
    }
    for lead in [2e-5, 3e-5, 8e-5] {
        scenarios.push(vec![
            plan(&[(0.0, 0.1, 2.0), (0.0, 0.05, 1e-4)]),
            Op::AssignToPlanEnd { core: 0, rel: 0.0 },
            advance(Anchor::Completion(0), -lead, 0),
            advance(Anchor::Completion(0), -5e-6, 0),
            advance(Anchor::Step(2e-6), 0.0, 0),
            advance(Anchor::Step(2e-6), 0.0, 0),
            advance(Anchor::Step(0.1), 0.0, 0),
        ]);
    }
    for end in [0.1, 0.123456789, 0.125, 0.25, 0.5, 0.7, 1.0, 2.0, 2.9, 4.0] {
        for ulps in -4..=4 {
            scenarios.push(vec![
                plan(&[(0.0, end, 2.0), (0.0, 0.2, 3.0)]),
                Op::Assign {
                    core: 0,
                    release_in: 0.0,
                    window: end + 1.0,
                    demand: 1e5,
                },
                advance(Anchor::SegmentEdge(1), -TIME_EPS, ulps),
                advance(Anchor::Step(1e-3), 0.0, 0),
                advance(Anchor::Step(1e-3), 0.0, 0),
            ]);
        }
    }
    for ops in scenarios {
        let s = Scenario { cores: 1, ops };
        if let Err(e) = run_scenario(&s, &visits) {
            panic!("{e}\n{}", s.repro());
        }
    }
}

fn assign(core: usize, window: f64, demand: f64) -> Op {
    Op::Assign {
        core,
        release_in: 0.0,
        window,
        demand,
    }
}

/// Installs that must leave the core disarmed — over a job cut to its
/// processed volume, over a job exactly at its deadline, and on an
/// offline core — each followed by advances the reference runs down the
/// general path; and one plain install that arms.
#[test]
fn installs_refuse_to_arm_unless_every_job_is_live() {
    let counts = Counts::default();
    let scenarios = [
        Scenario {
            cores: 1,
            ops: vec![
                plan(&[(0.0, 0.5, 2.0)]),
                assign(0, 0.4, 300.0),
                assign(0, 0.45, 200.0),
                advance(Anchor::Step(0.01), 0.0, 0),
                Op::Cut {
                    core: 0,
                    n: 0,
                    frac: 0.0,
                },
                plan(&[(0.0, 0.5, 2.0)]),
                advance(Anchor::Step(0.01), 0.0, 0),
                advance(Anchor::Step(0.3), 0.0, 0),
            ],
        },
        Scenario {
            cores: 1,
            ops: vec![
                assign(0, 0.5, 300.0),
                advance(Anchor::Step(0.2), 0.0, 0),
                Op::AssignDueNow {
                    core: 0,
                    window: 0.1,
                },
                plan(&[(0.0, 0.4, 1.5)]),
                advance(Anchor::Step(0.01), 0.0, 0),
                advance(Anchor::Step(0.2), 0.0, 0),
            ],
        },
        Scenario {
            cores: 2,
            ops: vec![
                assign(1, 0.5, 300.0),
                Op::Fail { core: 1 },
                Op::PlanOffline {
                    core: 1,
                    len: 0.3,
                    ghz: 2.0,
                },
                advance(Anchor::Step(0.01), 0.0, 0),
                Op::Recover { core: 1 },
                Op::Adopt { core: 1 },
                advance(Anchor::Step(0.2), 0.0, 0),
            ],
        },
        Scenario {
            cores: 1,
            ops: vec![
                assign(0, 0.5, 300.0),
                plan(&[(0.0, 0.4, 1.5)]),
                advance(Anchor::Step(0.01), 0.0, 0),
            ],
        },
    ];
    for s in &scenarios {
        if let Err(e) = run_scenario(s, &counts) {
            panic!("{e}\n{}", s.repro());
        }
    }
    assert_eq!(counts.refused_installs.get(), 3);
    assert_eq!(counts.armed_after_install.get(), 1);
}
