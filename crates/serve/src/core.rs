//! [`ServeCore`]: the deterministic serving state machine.
//!
//! The core is a pure function of the command stream. Every mutating
//! call carries an explicit **logical timestamp** (the `t` in
//! `SUBMIT t …`), and the engine only advances inside those calls, so
//! wall-clock pacing, thread interleaving, and network jitter cannot
//! touch the accounting: two runs fed the same logical command sequence
//! produce bit-identical traces, counters, and accounting digests, no
//! matter how fast the bytes arrived. That is what lets the soak harness
//! compare two chaos runs digest-for-digest.
//!
//! Every request ends in **exactly one** terminal state:
//!
//! * `rejected` — refused at admission (busy / floor / draining); never
//!   entered the engine and is *not* in the quality denominator,
//! * `completed` — the engine finished it with work done (possibly a GE
//!   partial under a cut),
//! * `timed-out` — its deadline expired unserved inside the engine (a
//!   `JobFinish{discarded}` event; counted in the quality denominator),
//! * `shed` — the engine's quality floor dropped it pre-start (the engine
//!   also books it as a discard; that booking is not a second terminal).
//!
//! The core is admission plus books over a one-server [`Fleet`], which
//! runs under the books as its sink. They report the trace disabled, so
//! nothing builds execution slices, arrivals, triggers or cuts; they ask
//! only for job terminals ([`TraceSink::records_terminals`]) and fold
//! each one, by reference, into the counts, the serve-event trace and
//! the digest's terminals.
//!
//! Draining closes admission, runs the engine to the horizon so every
//! in-flight request reaches its deadline (nothing is silently lost),
//! seals a `ge-recover` checkpoint of the final engine state, and proves
//! the checkpoint restores bit-exactly before the books close.

use crate::admission::{AdmissionController, AdmissionDecision, AdmissionState};
use ge_core::{Algorithm, Run, SimConfig};
use ge_faults::FleetFaultSchedule;
use ge_fleet::{Fleet, FleetConfig, RoutingPolicy};
use ge_recover::codec::fnv1a64;
use ge_simcore::{SimDuration, SimTime, TIME_EPS};
use ge_telemetry::{Registry, Telemetry};
use ge_trace::{RejectReason, TraceEvent, TraceSink};
use ge_workload::{Job, JobId, Trace};
use std::time::Instant;

/// Cap on retained decision-latency samples (~8 MiB of `u64`s); samples
/// past the cap are counted, not stored, so a very long session cannot
/// grow memory without bound.
const MAX_LATENCY_SAMPLES: usize = 1 << 20;

/// Full configuration of a serving session: the simulated platform plus
/// the front end's own knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The simulated platform and algorithm parameters. `sim.horizon`
    /// bounds the session: submits at or beyond it are refused, and
    /// drain runs the engine exactly to it.
    pub sim: SimConfig,
    /// The scheduling algorithm behind the front end.
    pub algorithm: Algorithm,
    /// Admission high watermark: in-flight depth that closes admission.
    pub queue_high: usize,
    /// Admission low watermark: in-flight depth that reopens it.
    pub queue_low: usize,
    /// Hard cap on one protocol line, bytes (newline excluded).
    pub max_line: usize,
    /// Per-connection read timeout in milliseconds; a client idle past
    /// it is reaped (slowloris defence).
    pub read_timeout_ms: u64,
    /// Per-connection write timeout in milliseconds.
    pub write_timeout_ms: u64,
    /// Maximum concurrent connections; excess connects are refused with
    /// a typed error line.
    pub max_conns: usize,
    /// Protocol errors tolerated per connection before disconnect.
    pub max_protocol_errors: u32,
    /// Honour the test-only `PANIC` command (worker-isolation drills).
    pub enable_test_panic: bool,
}

impl ServeConfig {
    /// A serving config over `sim` and `algorithm` with defensive
    /// defaults for every front-end knob.
    pub fn new(sim: SimConfig, algorithm: Algorithm) -> Self {
        ServeConfig {
            sim,
            algorithm,
            queue_high: 64,
            queue_low: 16,
            max_line: crate::protocol::MAX_LINE_DEFAULT,
            read_timeout_ms: 2_000,
            write_timeout_ms: 2_000,
            max_conns: 64,
            max_protocol_errors: 8,
            enable_test_panic: false,
        }
    }

    /// Validates the whole configuration.
    ///
    /// # Panics
    /// Panics on an invalid platform config, inverted watermarks, or a
    /// zero cap/timeout.
    pub fn validate(&self) {
        self.sim.validate();
        assert!(self.queue_high > 0, "queue_high must be positive");
        assert!(
            self.queue_low < self.queue_high,
            "queue_low must be below queue_high"
        );
        assert!(self.max_line > 0, "max_line must be positive");
        assert!(self.read_timeout_ms > 0, "read_timeout_ms must be positive");
        assert!(
            self.write_timeout_ms > 0,
            "write_timeout_ms must be positive"
        );
        assert!(self.max_conns > 0, "max_conns must be positive");
    }
}

/// A request's terminal state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Finished by the engine with work done.
    Completed,
    /// Refused at admission.
    Rejected,
    /// Deadline expired unserved inside the engine.
    TimedOut,
    /// Dropped pre-start by the engine's quality floor.
    Shed,
}

impl Outcome {
    fn tag(self) -> u8 {
        match self {
            Outcome::Completed => 1,
            Outcome::Rejected => 2,
            Outcome::TimedOut => 3,
            Outcome::Shed => 4,
        }
    }
}

/// Why a well-formed `SUBMIT`/`TICK` was refused before reaching
/// admission control (the command itself is invalid for this session).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SubmitError {
    /// The logical timestamp went backwards.
    TimeRegression {
        /// The offending timestamp.
        t: f64,
        /// The session's current logical time.
        now: f64,
    },
    /// The arrival or its deadline lands at/after the session horizon.
    BeyondHorizon {
        /// Which field overran (`"t"` or `"deadline"`).
        field: &'static str,
        /// The session horizon in seconds.
        horizon: f64,
    },
    /// A field cannot describe a job: `t` is not finite, `demand` is not
    /// positive and finite, or the deadline does not follow `t` by more
    /// than the engine's time tolerance (`TIME_EPS`).
    InvalidRequest {
        /// Which field is invalid (`"t"`, `"demand"` or `"deadline"`).
        field: &'static str,
    },
}

impl SubmitError {
    /// Stable wire token for `ERR <kind>` replies.
    pub fn kind(&self) -> &'static str {
        match self {
            SubmitError::TimeRegression { .. } => "time-regression",
            SubmitError::BeyondHorizon { .. } => "beyond-horizon",
            SubmitError::InvalidRequest { .. } => "invalid-request",
        }
    }
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::TimeRegression { t, now } => {
                write!(f, "logical time went backwards: {t} < {now}")
            }
            SubmitError::BeyondHorizon { field, horizon } => {
                write!(f, "{field} is at or beyond the session horizon {horizon}")
            }
            SubmitError::InvalidRequest { field } => {
                write!(f, "{field} does not describe a valid job")
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// The admission verdict for one submitted request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// Admitted into the engine.
    Admitted {
        /// The assigned request id.
        req: u64,
        /// In-flight depth after the admit.
        queue_len: usize,
    },
    /// Refused; the request is terminal (`rejected`) immediately.
    Rejected {
        /// The assigned request id.
        req: u64,
        /// Why admission refused it.
        reason: RejectReason,
        /// In-flight depth at the decision.
        queue_len: usize,
    },
}

/// A point-in-time accounting snapshot (the `STATS` reply).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeStats {
    /// Current logical time, seconds.
    pub now_s: f64,
    /// Requests that reached the front end.
    pub requests: u64,
    /// Requests admitted into the engine.
    pub admitted: u64,
    /// Terminal: completed with work done.
    pub completed: u64,
    /// Terminal: refused at admission.
    pub rejected: u64,
    /// Terminal: deadline expired unserved.
    pub timed_out: u64,
    /// Terminal: shed by the engine.
    pub shed: u64,
    /// In-flight depth: admitted requests not yet terminal.
    pub queue_len: usize,
    /// Ledger running quality.
    pub quality: f64,
    /// Whether the session is draining.
    pub draining: bool,
}

#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    requests: u64,
    admitted: u64,
    completed: u64,
    rejected: u64,
    timed_out: u64,
    shed: u64,
}

/// Everything a drained session leaves behind.
#[derive(Debug, Clone)]
pub struct DrainOutcome {
    /// The full serve-event trace (`serve_run_start` … `serve_summary`),
    /// replayable by `ge_trace::replay_serve`.
    pub events: Vec<TraceEvent>,
    /// Requests that reached the front end.
    pub requests: u64,
    /// Requests admitted into the engine.
    pub admitted: u64,
    /// Terminal: completed with work done.
    pub completed: u64,
    /// Terminal: refused at admission.
    pub rejected: u64,
    /// Terminal: deadline expired unserved.
    pub timed_out: u64,
    /// Terminal: shed by the engine.
    pub shed: u64,
    /// FNV-1a accounting digest over `(req, outcome, processed)` in
    /// request-id order — the cross-run comparison key.
    pub digest: u64,
    /// The sealed final checkpoint of the engine state.
    pub checkpoint: Vec<u8>,
    /// Whether restoring [`DrainOutcome::checkpoint`] re-encoded to the
    /// identical bytes (the bit-exact resume proof).
    pub resume_bit_exact: bool,
    /// Final ledger quality over admitted work.
    pub quality: f64,
    /// Total energy spent, joules.
    pub energy_j: f64,
    /// Wall-clock planning-decision latencies, nanoseconds, one per
    /// retained `SUBMIT` (measurement only — never in the digest).
    pub latency_ns: Vec<u64>,
    /// Latency samples dropped past the retention cap.
    pub latency_dropped: u64,
}

impl DrainOutcome {
    /// Whether every request landed in exactly one terminal bucket.
    pub fn is_consistent(&self) -> bool {
        self.completed + self.rejected + self.timed_out + self.shed == self.requests
    }

    /// Exact sorted percentiles of the decision-latency samples, one per
    /// `p ∈ [0, 1]` in `ps` (all 0 with no samples). Sorts once.
    pub fn latency_percentiles_ns<const N: usize>(&self, ps: [f64; N]) -> [u64; N] {
        if self.latency_ns.is_empty() {
            return [0; N];
        }
        let mut sorted = self.latency_ns.clone();
        sorted.sort_unstable();
        let last = sorted.len() - 1;
        ps.map(|p| {
            let rank = (p.clamp(0.0, 1.0) * last as f64).round() as usize;
            sorted[rank.min(last)]
        })
    }
}

/// A session's books: the counts, the serve-event trace and the
/// request terminals behind the digest.
///
/// The books are also the engine's sink. Disabled for the trace, they
/// record only job terminals (finishes, expiries, sheds) and fold each
/// into request terminals, serve events and the `ge_serve_*_total`
/// counters. Every engine terminal a session sees, while running and at
/// close, comes through here.
#[derive(Default)]
struct SessionBooks {
    counts: Counts,
    events: Vec<TraceEvent>,
    terminals: Vec<(u64, Outcome, f64)>,
    /// Jobs the quality floor shed whose discard booking — the engine's
    /// `job_finish{discarded}` right after the shed — is still to come.
    shed_pending: Vec<u64>,
}

impl TraceSink for SessionBooks {
    fn is_enabled(&self) -> bool {
        false
    }

    fn records_terminals(&self) -> bool {
        true
    }

    fn record(&mut self, ev: &TraceEvent) {
        let (req, outcome, processed, counter) = match *ev {
            TraceEvent::JobFinish {
                t,
                job,
                discarded: true,
                ..
            } => {
                // A shed job is booked once, as shed.
                if let Some(i) = self.shed_pending.iter().position(|&j| j == job) {
                    self.shed_pending.swap_remove(i);
                    return;
                }
                self.counts.timed_out += 1;
                self.events.push(TraceEvent::ServeTimeout { t, req: job });
                (job, Outcome::TimedOut, 0.0, "ge_serve_timeout_total")
            }
            TraceEvent::JobFinish {
                t,
                job,
                processed,
                full_demand,
                discarded: false,
            } => {
                self.counts.completed += 1;
                self.events.push(TraceEvent::ServeComplete {
                    t,
                    req: job,
                    processed,
                    full_demand,
                });
                (
                    job,
                    Outcome::Completed,
                    processed,
                    "ge_serve_completed_total",
                )
            }
            TraceEvent::JobShed { t, job, .. } => {
                self.counts.shed += 1;
                self.shed_pending.push(job);
                self.events.push(TraceEvent::ServeShed { t, req: job });
                (job, Outcome::Shed, 0.0, "ge_serve_shed_total")
            }
            _ => return,
        };
        self.terminals.push((req, outcome, processed));
        if let Some(r) = tel() {
            r.counter(counter).inc();
        }
    }
}

fn tel() -> Option<&'static Registry> {
    Telemetry::is_enabled().then(Telemetry::registry)
}

/// The deterministic serving state machine: admission and books over a
/// one-server [`Fleet`].
pub struct ServeCore {
    cfg: ServeConfig,
    fleet: Fleet,
    admission: AdmissionController,
    draining: bool,
    next_req: u64,
    books: SessionBooks,
    latency_ns: Vec<u64>,
    latency_dropped: u64,
}

impl ServeCore {
    /// Builds a fresh serving session and emits its `serve_run_start`.
    ///
    /// # Panics
    /// Panics if `cfg` fails [`ServeConfig::validate`].
    pub fn new(cfg: ServeConfig) -> Self {
        cfg.validate();
        let admission = AdmissionController::new(cfg.queue_high, cfg.queue_low, cfg.sim.q_min);
        let mut books = SessionBooks {
            events: vec![TraceEvent::ServeRunStart {
                t: 0.0,
                algorithm: cfg.algorithm.label().to_string(),
                cores: cfg.sim.cores as u64,
                budget_w: cfg.sim.budget_w,
                q_min: cfg.sim.q_min,
                queue_high: cfg.queue_high as u64,
                queue_low: cfg.queue_low as u64,
            }],
            ..SessionBooks::default()
        };
        // One server, round-robin, no faults, no router overload guard
        // (admission is the only one) and one budget epoch.
        let mut fleet = FleetConfig::new(1, cfg.sim.clone());
        fleet.algorithm = cfg.algorithm.clone();
        fleet.routing = RoutingPolicy::RoundRobin;
        fleet.shed_backlog_factor = f64::INFINITY;
        fleet.realloc_every = SimDuration::from_secs(cfg.sim.horizon.as_secs());
        let fleet = Fleet::start(fleet, FleetFaultSchedule::default(), &[], &mut books);
        ServeCore {
            cfg,
            fleet,
            admission,
            draining: false,
            next_req: 0,
            books,
            latency_ns: Vec::new(),
            latency_dropped: 0,
        }
    }

    /// Admitted requests not yet in a terminal state — the front end's
    /// backpressure depth. Counts injected-but-unstarted *and* running
    /// work (unlike the engine's internal queue, which only fills once
    /// logical time advances past the arrivals), so a burst at one
    /// instant trips the watermark immediately.
    fn in_flight(&self) -> u64 {
        let c = &self.books.counts;
        c.admitted - c.completed - c.timed_out - c.shed
    }

    /// Checks a logical timestamp: finite, not before the session's
    /// clock, before its horizon.
    fn check_time(&self, t: f64) -> Result<SimTime, SubmitError> {
        if !t.is_finite() {
            return Err(SubmitError::InvalidRequest { field: "t" });
        }
        let now = self.fleet.now().as_secs();
        if t < now {
            return Err(SubmitError::TimeRegression { t, now });
        }
        let horizon = self.fleet.horizon().as_secs();
        if t >= horizon {
            return Err(SubmitError::BeyondHorizon {
                field: "t",
                horizon,
            });
        }
        Ok(SimTime::from_secs(t))
    }

    /// One request: advance to `t`, decide admission, submit to the fleet
    /// or reject. The hot path of the live server; its wall-clock cost is
    /// sampled into the decision-latency histogram.
    pub fn submit(
        &mut self,
        t: f64,
        demand: f64,
        deadline_rel: f64,
    ) -> Result<SubmitOutcome, SubmitError> {
        let started = Instant::now();
        // Everything `Job::new` asserts is checked before the books change.
        let release = self.check_time(t)?;
        let horizon = self.fleet.horizon().as_secs();
        let deadline = t + deadline_rel;
        if deadline > horizon {
            return Err(SubmitError::BeyondHorizon {
                field: "deadline",
                horizon,
            });
        }
        if !(demand.is_finite() && demand > 0.0) {
            return Err(SubmitError::InvalidRequest { field: "demand" });
        }
        if deadline.is_nan() || deadline <= t + TIME_EPS {
            return Err(SubmitError::InvalidRequest { field: "deadline" });
        }
        self.fleet.advance_to(release, &mut self.books);
        let req = self.next_req;
        self.next_req += 1;
        self.books.counts.requests += 1;
        self.books.events.push(TraceEvent::ServeRequest {
            t,
            req,
            demand,
            deadline_s: deadline,
        });
        let decision = self.admission.decide(
            self.in_flight() as usize,
            self.fleet.ledger_quality(),
            self.draining,
        );
        let out = match decision {
            AdmissionDecision::Admit => {
                let job = Job::new(JobId(req), release, SimTime::from_secs(deadline), demand);
                self.fleet.submit(job, &mut self.books);
                self.books.counts.admitted += 1;
                let queue_len = self.in_flight() as usize;
                self.books.events.push(TraceEvent::ServeAdmit {
                    t,
                    req,
                    queue_len: queue_len as u64,
                });
                SubmitOutcome::Admitted { req, queue_len }
            }
            AdmissionDecision::Reject(reason) => {
                let queue_len = self.in_flight() as usize;
                self.books.counts.rejected += 1;
                self.books.terminals.push((req, Outcome::Rejected, 0.0));
                self.books.events.push(TraceEvent::ServeReject {
                    t,
                    req,
                    reason,
                    queue_len: queue_len as u64,
                });
                SubmitOutcome::Rejected {
                    req,
                    reason,
                    queue_len,
                }
            }
        };
        let elapsed_ns = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        if self.latency_ns.len() < MAX_LATENCY_SAMPLES {
            self.latency_ns.push(elapsed_ns);
        } else {
            self.latency_dropped += 1;
        }
        if let Some(r) = tel() {
            r.counter("ge_serve_requests_total").inc();
            let verdict = match out {
                SubmitOutcome::Admitted { .. } => "ge_serve_admitted_total",
                SubmitOutcome::Rejected { .. } => "ge_serve_rejected_total",
            };
            r.counter(verdict).inc();
            r.gauge("ge_serve_queue_depth").set(self.in_flight() as f64);
            r.histogram("ge_serve_decision_seconds")
                .observe(elapsed_ns as f64 * 1e-9);
        }
        Ok(out)
    }

    /// Advances logical time with no new work (deadline expiries between
    /// sparse arrivals fire here).
    pub fn tick(&mut self, t: f64) -> Result<f64, SubmitError> {
        let at = self.check_time(t)?;
        self.fleet.advance_to(at, &mut self.books);
        Ok(t)
    }

    /// A point-in-time accounting snapshot.
    pub fn stats(&self) -> ServeStats {
        let c = &self.books.counts;
        ServeStats {
            now_s: self.fleet.now().as_secs(),
            requests: c.requests,
            admitted: c.admitted,
            completed: c.completed,
            rejected: c.rejected,
            timed_out: c.timed_out,
            shed: c.shed,
            queue_len: self.in_flight() as usize,
            quality: self.fleet.ledger_quality(),
            draining: self.draining,
        }
    }

    /// The serve-event trace so far.
    pub fn events(&self) -> &[TraceEvent] {
        &self.books.events
    }

    /// The admission controller's hysteresis state.
    pub fn admission_state(&self) -> AdmissionState {
        self.admission.state()
    }

    /// Whether drain has begun (admission permanently closed).
    pub fn is_draining(&self) -> bool {
        self.draining
    }

    /// Closes admission and emits `serve_drain`. Idempotent; every
    /// subsequent submit is rejected with reason `draining`.
    pub fn begin_drain(&mut self) {
        if self.draining {
            return;
        }
        self.draining = true;
        let pending = self.in_flight();
        // Not before a terminal booked a tolerance past the router's clock.
        let t = self.fleet.now().max(self.fleet.shards()[0].now()).as_secs();
        self.books
            .events
            .push(TraceEvent::ServeDrain { t, pending });
    }

    /// Runs the session to its end: close admission, advance the fleet
    /// to the horizon (every in-flight request reaches a terminal
    /// state), seal the server's final checkpoint and prove it restores
    /// bit-exactly, close the books, and emit `serve_summary`.
    pub fn finish_drain(mut self) -> DrainOutcome {
        self.begin_drain();
        let horizon = self.fleet.horizon();
        self.fleet.advance_to(horizon, &mut self.books);
        let checkpoint = self.fleet.shards()[0].snapshot();
        let (sim, algorithm) = (&self.cfg.sim, &self.cfg.algorithm);
        let resume_bit_exact = Run::restore(sim, &Trace::default(), algorithm, None, &checkpoint)
            .is_ok_and(|restored| restored.snapshot() == checkpoint);
        let ServeCore {
            fleet,
            mut books,
            latency_ns,
            latency_dropped,
            ..
        } = self;
        // Close the books; leftover discards fold like any engine terminal.
        let result = fleet.finish(&mut books);
        let SessionBooks {
            counts,
            mut events,
            mut terminals,
            ..
        } = books;
        events.push(TraceEvent::ServeSummary {
            t: horizon.as_secs(),
            requests: counts.requests,
            admitted: counts.admitted,
            completed: counts.completed,
            rejected: counts.rejected,
            timed_out: counts.timed_out,
            shed: counts.shed,
        });
        terminals.sort_unstable_by_key(|&(req, _, _)| req);
        DrainOutcome {
            events,
            requests: counts.requests,
            admitted: counts.admitted,
            completed: counts.completed,
            rejected: counts.rejected,
            timed_out: counts.timed_out,
            shed: counts.shed,
            digest: accounting_digest(&terminals),
            checkpoint,
            resume_bit_exact,
            quality: result.quality,
            energy_j: result.energy_j,
            latency_ns,
            latency_dropped,
        }
    }
}

/// FNV-1a over `(req, outcome tag, processed bits)` triples.
fn accounting_digest(terminals: &[(u64, Outcome, f64)]) -> u64 {
    let mut bytes = Vec::with_capacity(terminals.len() * 17);
    for &(req, outcome, processed) in terminals {
        bytes.extend_from_slice(&req.to_le_bytes());
        bytes.push(outcome.tag());
        bytes.extend_from_slice(&processed.to_bits().to_le_bytes());
    }
    fnv1a64(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ge_trace::replay_serve;

    fn small_cfg() -> ServeConfig {
        let mut sim = SimConfig::paper_default();
        sim.cores = 4;
        sim.budget_w = 80.0;
        sim.critical_load_rps = 154.0 / 4.0;
        sim.horizon = SimTime::from_secs(30.0);
        let mut cfg = ServeConfig::new(sim, Algorithm::Ge);
        cfg.queue_high = 8;
        cfg.queue_low = 2;
        cfg
    }

    #[test]
    fn every_request_reaches_exactly_one_terminal_state() {
        let mut core = ServeCore::new(small_cfg());
        for i in 0..200u64 {
            let t = 0.01 * i as f64;
            core.submit(t, 300.0 + (i % 7) as f64 * 50.0, 0.2).unwrap();
        }
        let out = core.finish_drain();
        assert!(out.is_consistent(), "{out:?}");
        assert_eq!(out.requests, 200);
        assert!(out.completed > 0);
        // The trace replays clean through the independent checker.
        let report = replay_serve(&out.events).unwrap();
        assert!(report.is_ok(), "{}", report.render());
        assert_eq!(report.requests, 200);
    }

    #[test]
    fn burst_overload_trips_busy_and_hysteresis_reopens() {
        let mut core = ServeCore::new(small_cfg());
        // A burst at one instant: the queue can only drain once time
        // advances, so the high watermark must trip.
        let mut busy = 0;
        for _ in 0..60 {
            match core.submit(1.0, 900.0, 5.0).unwrap() {
                SubmitOutcome::Rejected {
                    reason: RejectReason::Busy,
                    ..
                } => busy += 1,
                SubmitOutcome::Rejected { reason, .. } => panic!("unexpected {reason:?}"),
                SubmitOutcome::Admitted { .. } => {}
            }
        }
        assert!(busy > 0, "burst never tripped the high watermark");
        assert_eq!(core.admission_state(), AdmissionState::Shedding);
        // After the queue drains, admission reopens.
        core.tick(20.0).unwrap();
        match core.submit(20.5, 300.0, 2.0).unwrap() {
            SubmitOutcome::Admitted { .. } => {}
            other => panic!("expected reopen, got {other:?}"),
        }
        let out = core.finish_drain();
        assert!(out.is_consistent());
        assert_eq!(out.rejected, busy);
    }

    #[test]
    fn identical_command_streams_produce_identical_digests() {
        let run = || {
            let mut core = ServeCore::new(small_cfg());
            for i in 0..150u64 {
                let t = 0.02 * i as f64;
                core.submit(t, 250.0 + (i % 11) as f64 * 80.0, 0.15)
                    .unwrap();
            }
            core.finish_drain()
        };
        let a = run();
        let b = run();
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.timed_out, b.timed_out);
        assert_eq!(a.events.len(), b.events.len());
    }

    #[test]
    fn wall_clock_pacing_cannot_change_accounting() {
        // Same logical command stream, one run with an artificial stall
        // between commands: digests must match because only logical time
        // is accounted.
        let run = |stall: bool| {
            let mut core = ServeCore::new(small_cfg());
            for i in 0..40u64 {
                if stall && i % 13 == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                core.submit(0.05 * i as f64, 400.0, 0.3).unwrap();
            }
            core.finish_drain()
        };
        assert_eq!(run(false).digest, run(true).digest);
    }

    #[test]
    fn drain_rejects_new_work_and_checkpoint_resumes_bit_exact() {
        let mut core = ServeCore::new(small_cfg());
        for i in 0..50u64 {
            core.submit(0.05 * i as f64, 500.0, 1.0).unwrap();
        }
        core.begin_drain();
        match core.submit(5.0, 300.0, 1.0).unwrap() {
            SubmitOutcome::Rejected {
                reason: RejectReason::Draining,
                ..
            } => {}
            other => panic!("expected draining reject, got {other:?}"),
        }
        let out = core.finish_drain();
        assert!(out.resume_bit_exact, "checkpoint failed the resume proof");
        assert!(!out.checkpoint.is_empty());
        assert!(out.is_consistent());
        let report = replay_serve(&out.events).unwrap();
        assert!(report.is_ok(), "{}", report.render());
    }

    #[test]
    fn time_regression_and_horizon_overrun_are_typed_errors() {
        let mut core = ServeCore::new(small_cfg());
        core.submit(5.0, 300.0, 1.0).unwrap();
        assert!(matches!(
            core.submit(4.0, 300.0, 1.0),
            Err(SubmitError::TimeRegression { .. })
        ));
        assert!(matches!(
            core.submit(1e9, 300.0, 1.0),
            Err(SubmitError::BeyondHorizon { field: "t", .. })
        ));
        assert!(matches!(
            core.submit(6.0, 300.0, 1e9),
            Err(SubmitError::BeyondHorizon {
                field: "deadline",
                ..
            })
        ));
        // Errors consume no request ids and leave accounting untouched.
        assert_eq!(core.stats().requests, 1);
    }

    #[test]
    fn a_request_shed_by_the_quality_floor_is_booked_once_as_shed() {
        // GE sheds below its Q_min floor and the engine then books the
        // same job as a discard; the session must count it once, as shed.
        let mut cfg = small_cfg();
        cfg.sim.q_min = 0.5;
        cfg.queue_high = 10_000;
        cfg.queue_low = 2;
        let mut core = ServeCore::new(cfg);
        for i in 0..2_000u64 {
            core.submit(1.0 + 0.002 * i as f64, 2000.0, 0.3).unwrap();
        }
        let out = core.finish_drain();
        assert!(out.shed > 0, "{out:?}");
        assert!(out.is_consistent(), "{out:?}");
        let report = replay_serve(&out.events).unwrap();
        assert!(report.is_ok(), "{}", report.render());
    }

    #[test]
    fn short_deadlines_time_out_and_land_in_the_denominator() {
        let mut core = ServeCore::new(small_cfg());
        // Far more instantaneous demand than 4 cores can serve in 50 ms:
        // most of it must expire.
        for _ in 0..30u64 {
            core.submit(1.0, 1000.0, 0.05).unwrap();
        }
        let out = core.finish_drain();
        assert!(out.timed_out > 0, "{out:?}");
        assert!(out.is_consistent());
        assert!(
            out.quality < 1.0,
            "timeouts must drag quality: {}",
            out.quality
        );
    }
}
