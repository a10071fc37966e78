//! `serve_wire`: the paper_light stream served live by `ge_serve::ServeServer`.
//!
//! The logical stream is the paper_light generator at 150 req/s, so the
//! engine does the same work per job as in `paper_light`; what this
//! workload adds is the protocol, admission, the core lock and the TCP
//! path. Each pass binds a fresh server on `127.0.0.1:0` with the paper's
//! 16-core GE configuration and sends one prefix of the stream over one
//! connection, open loop: a writer thread sends each request when it is
//! due, a reader thread reads the in-order replies, and each request is
//! timed from when it was due. A pass is a 2k req/s latency step followed
//! by a fixed ladder of wall-clock rates; a rung is met when its reply
//! p99 is within [`P99_LIMIT_MS`], the backlog did not grow, and the
//! generator kept to its schedule (a rung the generator could not keep
//! is "not met (generator)", never blamed on the server).
//!
//! Correctness: every request must get `ACCEPTED`; every drained session
//! must be consistent, resume bit-exactly, pass `ge_trace::replay_serve`,
//! and carry the accounting digest of an in-process `ServeCore` replay of
//! the same commands. That in-process replay is also the reference the
//! serving overhead is measured against.

use crate::profile::{self, Profile, SHARE_SUM_TOLERANCE};
use crate::report::Report;
use crate::sink::CountingSink;
use crate::stats::{median, tail_percentile};
use crate::sys::{peak_rss_mb, HostSpeed};
use ge_core::{Algorithm, SimConfig};
use ge_serve::{parse_command, Command, DrainOutcome, ServeConfig, ServeCore, ServeServer};
use ge_simcore::SimTime;
use ge_telemetry::SpanGuard;
use ge_trace::TraceSink;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// The latency step: rate and request count.
pub const LATENCY_RATE_RPS: f64 = 2_000.0;
pub const LATENCY_REQUESTS: usize = 2_000;
/// The ladder above the latency step, requests per rung.
pub const LADDER_RPS: [f64; 7] = [4e3, 8e3, 16e3, 24e3, 32e3, 48e3, 64e3];
pub const RUNG_REQUESTS: usize = 2_000;
/// A rung is met only with reply p99 at most this.
pub const P99_LIMIT_MS: f64 = 10.0;
/// A rung is kept by the generator only with its send-lateness p99 at
/// most this.
pub const LAG_LIMIT_MS: f64 = 1.0;
/// Requests of the logical stream one pass sends.
pub const PASS_REQUESTS: usize = LATENCY_REQUESTS + LADDER_RPS.len() * RUNG_REQUESTS;
/// Longest wait for one reply before the request counts as unanswered,
/// and for one write to the server before the pass fails.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);
/// In-process reference repetitions before each wire pass (about a fifth
/// of the run's time).
const REFERENCES_PER_PASS: usize = 4;
/// Reference repetitions whose per-submit timings a traced run keeps.
const KEPT_SUBMIT_RUNS: usize = 8;

/// The pass's commands: the first [`PASS_REQUESTS`] jobs of the
/// paper_light stream as `SUBMIT` lines, and the serving config whose
/// horizon covers their deadlines.
fn commands(seed: u64) -> (Vec<String>, ServeConfig) {
    let trace = crate::paper_light::generate(seed);
    let jobs = &trace.jobs()[..PASS_REQUESTS.min(trace.len())];
    let lines: Vec<String> = jobs
        .iter()
        .map(|j| {
            let t = j.release.as_secs();
            let rel = j.deadline.as_secs() - t;
            format!("SUBMIT {t} {} {rel}\n", j.demand)
        })
        .collect();
    let last_deadline = jobs.last().map_or(0.0, |j| j.deadline.as_secs());
    let sim = SimConfig {
        horizon: SimTime::from_secs(last_deadline.ceil() + 1.0),
        ..SimConfig::paper_default()
    };
    (lines, ServeConfig::new(sim, Algorithm::Ge))
}

/// One in-process replay of the pass's commands through `ServeCore`.
struct Reference {
    parse: Duration,
    run: Duration,
    submit_us: Vec<f64>,
    out: DrainOutcome,
}

fn reference(lines: &[String], cfg: &ServeConfig) -> Result<Reference, String> {
    let _root = SpanGuard::enter("bench_serve_core");
    let t0 = Instant::now();
    let parsed = {
        let _parse = SpanGuard::enter("bench_parse");
        lines
            .iter()
            .map(|l| parse_command(l.trim_end().as_bytes()))
            .collect::<Result<Vec<Command>, _>>()
            .map_err(|e| format!("generated line failed to parse: {e}"))?
    };
    let parse = t0.elapsed();
    let t1 = Instant::now();
    let mut core = ServeCore::new(cfg.clone());
    let mut submit_us = Vec::with_capacity(parsed.len());
    for cmd in parsed {
        let Command::Submit {
            t,
            demand,
            deadline_rel,
        } = cmd
        else {
            return Err("generated a command other than SUBMIT".to_string());
        };
        let s = Instant::now();
        let _submit = SpanGuard::enter("bench_submit");
        core.submit(t, demand, deadline_rel)
            .map_err(|e| format!("in-process submit refused: {}", e.kind()))?;
        submit_us.push(s.elapsed().as_secs_f64() * 1e6);
    }
    let out = {
        let _drain = SpanGuard::enter("bench_drain");
        core.finish_drain()
    };
    Ok(Reference {
        parse,
        run: t1.elapsed(),
        submit_us,
        out,
    })
}

/// One rung's outcome. Only the latency step keeps its samples.
#[derive(Debug)]
struct Step {
    rate: f64,
    sent: u64,
    accepted: u64,
    refused: u64,
    p50_ms: f64,
    p99_ms: f64,
    lag_p99_ms: f64,
    backlog_grew: bool,
    latency_ms: Vec<f64>,
    lag_ms: Vec<f64>,
}

impl Step {
    fn generator_late(&self) -> bool {
        self.lag_p99_ms > LAG_LIMIT_MS
    }

    fn met(&self) -> bool {
        !self.generator_late()
            && self.p99_ms <= P99_LIMIT_MS
            && !self.backlog_grew
            && self.accepted == self.sent
    }

    fn verdict(&self) -> &'static str {
        if self.met() {
            "met"
        } else if self.generator_late() {
            "not met (generator)"
        } else {
            "not met (server)"
        }
    }
}

/// How the server answered one `SUBMIT`.
#[derive(Debug, Clone, Copy)]
enum Reply {
    Accepted,
    /// `BUSY`, `REJECTED` or `DRAINING`: admission refused the request.
    Refused,
    /// Anything else, such as `ERR`.
    Other,
}

impl Reply {
    fn of(line: &str) -> Reply {
        if line.starts_with("ACCEPTED") {
            Reply::Accepted
        } else if ["BUSY", "REJECTED", "DRAINING"]
            .iter()
            .any(|k| line.starts_with(k))
        {
            Reply::Refused
        } else {
            Reply::Other
        }
    }
}

/// Sends `lines` at `rate` over `stream` (open loop) and reads the replies.
fn step(stream: &TcpStream, lines: &[String], rate: f64) -> Result<Step, String> {
    let n = lines.len();
    let io = |e: std::io::Error| format!("loopback i/o: {e}");
    let mut writer = stream.try_clone().map_err(io)?;
    let reader = stream.try_clone().map_err(io)?;
    reader.set_read_timeout(Some(REPLY_TIMEOUT)).map_err(io)?;
    writer.set_write_timeout(Some(REPLY_TIMEOUT)).map_err(io)?;
    // Every buffer is allocated here, before the threads start, so the
    // threads allocate nothing and the process's memory high-water mark
    // does not depend on how the allocator serves them.
    let mut lag_ms = Vec::with_capacity(n);
    let mut batch = Vec::with_capacity(lines.iter().map(String::len).sum());
    let mut replies: Vec<(Instant, Reply)> = Vec::with_capacity(n);
    let mut reader = BufReader::with_capacity(64 * 1024, reader);
    let mut line = String::with_capacity(256);
    let start = Instant::now() + Duration::from_millis(2);
    let due = move |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
    let (sent, received) = std::thread::scope(|s| {
        let lag_ms = &mut lag_ms;
        let replies = &mut replies;
        let sender = s.spawn(move || -> std::io::Result<()> {
            let mut i = 0;
            while i < n {
                let now = Instant::now();
                if due(i) > now {
                    std::thread::sleep(due(i) - now);
                    continue;
                }
                batch.clear();
                while i < n && due(i) <= now {
                    batch.extend_from_slice(lines[i].as_bytes());
                    lag_ms.push((now - due(i)).as_secs_f64() * 1e3);
                    i += 1;
                }
                writer.write_all(&batch)?;
            }
            Ok(())
        });
        let receiver = s.spawn(move || {
            while replies.len() < n {
                line.clear();
                match reader.read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => replies.push((Instant::now(), Reply::of(&line))),
                }
            }
        });
        (sender.join(), receiver.join())
    });
    sent.map_err(|_| "sender thread panicked".to_string())?
        .map_err(io)?;
    received.map_err(|_| "receiver thread panicked".to_string())?;
    let mut latency_ms = Vec::with_capacity(n);
    let (mut accepted, mut refused) = (0, 0);
    for (i, (at, reply)) in replies.iter().enumerate() {
        latency_ms.push(at.saturating_duration_since(due(i)).as_secs_f64() * 1e3);
        match reply {
            Reply::Accepted => accepted += 1,
            Reply::Refused => refused += 1,
            Reply::Other => {}
        }
    }
    // Backlog: requests due but not yet answered, at the middle and at
    // the end of the rung's send schedule. Steady service keeps it flat.
    let backlog_at = |k: usize| {
        let answered = replies.iter().filter(|(at, _)| *at <= due(k)).count();
        (k + 1).saturating_sub(answered)
    };
    let (mid, end) = (backlog_at(n / 2), backlog_at(n - 1));
    Ok(Step {
        rate,
        sent: n as u64,
        accepted,
        refused,
        p50_ms: median(&latency_ms).unwrap_or(f64::INFINITY),
        p99_ms: tail_percentile(&latency_ms, 0.99).unwrap_or(f64::INFINITY),
        lag_p99_ms: tail_percentile(&lag_ms, 0.99).unwrap_or(f64::INFINITY),
        backlog_grew: end as f64 > 1.5 * mid as f64 + (0.01 * n as f64).max(8.0),
        latency_ms,
        lag_ms,
    })
}

/// One pass: fresh server, latency step, ladder, drain.
struct Pass {
    setup: Duration,
    steps: Vec<Step>,
    /// In-core decision latencies of the drained session, microseconds.
    decision_us: Vec<f64>,
}

impl Pass {
    fn max_rate(&self) -> f64 {
        self.steps
            .iter()
            .filter(|s| s.met())
            .map(|s| s.rate)
            .fold(0.0, f64::max)
    }
}

/// Runs one pass, prints its rungs, and checks its drained session
/// against the reference digest. Rungs above the latency step drop their
/// samples once summarised.
fn pass(
    seed: u64,
    digest: u64,
    keep_decisions: bool,
    report: &mut Report,
    label: &str,
) -> Result<Pass, String> {
    let t0 = Instant::now();
    let (lines, cfg) = commands(seed);
    let server = ServeServer::bind(cfg, "127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let stream = TcpStream::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("nodelay: {e}"))?;
    let setup = t0.elapsed();
    let mut steps = Vec::with_capacity(1 + LADDER_RPS.len());
    let rungs = std::iter::once((LATENCY_RATE_RPS, LATENCY_REQUESTS))
        .chain(LADDER_RPS.iter().map(|&r| (r, RUNG_REQUESTS)));
    let mut offset = 0;
    for (rate, n) in rungs {
        let end = (offset + n).min(lines.len());
        let mut s = step(&stream, &lines[offset..end], rate)?;
        offset = end;
        println!(
            "{label} rung {:>6.0} req/s: n={} p50 {:.3} ms p99 {:.3} ms lag p99 {:.3} ms \
             backlog {} -> {}",
            s.rate,
            s.sent,
            s.p50_ms,
            s.p99_ms,
            s.lag_p99_ms,
            if s.backlog_grew { "grew" } else { "flat" },
            s.verdict()
        );
        if !steps.is_empty() {
            s.latency_ms = Vec::new();
            s.lag_ms = Vec::new();
        }
        steps.push(s);
    }
    let _ = stream.shutdown(std::net::Shutdown::Both);
    drop(stream);
    let (protocol_errors, worker_panics) = (server.protocol_errors(), server.worker_panics());
    let out = server.shutdown_and_drain();
    check_drain(report, label, &out, digest);
    report.check(
        format!(
            "{label}: {} requests reached the core, {protocol_errors} protocol errors, \
             {worker_panics} worker panics",
            out.requests
        ),
        out.requests == offset as u64 && protocol_errors == 0 && worker_panics == 0,
    );
    let decision_us = if keep_decisions {
        out.latency_ns.iter().map(|&ns| ns as f64 / 1e3).collect()
    } else {
        Vec::new()
    };
    Ok(Pass {
        setup,
        steps,
        decision_us,
    })
}

fn check_drain(report: &mut Report, label: &str, out: &DrainOutcome, digest: u64) {
    let replay_ok = match ge_trace::replay_serve(&out.events) {
        Ok(r) => {
            for issue in &r.issues {
                println!("  replay issue: {issue}");
            }
            r.is_ok()
        }
        Err(e) => {
            println!("  replay error: {e}");
            false
        }
    };
    report.check(
        format!(
            "{label}: consistent={} resume_bit_exact={} replay_serve clean={replay_ok} \
             digest {:#018x} == reference",
            out.is_consistent(),
            out.resume_bit_exact,
            out.digest
        ),
        out.is_consistent() && out.resume_bit_exact && replay_ok && out.digest == digest,
    );
}

pub fn measure(seed: u64, seconds: f64, trace: bool, report: &mut Report) {
    let begin = Instant::now();
    let (lines, cfg) = commands(seed);
    if trace {
        profile::reset();
    }
    let warm = match reference(&lines, &cfg) {
        Ok(r) => r.out,
        Err(e) => return report.check(format!("in-process reference: {e}"), false),
    };
    check_drain(report, "in-process reference", &warm, warm.digest);
    let same_as_warm = |out: &DrainOutcome| {
        out.digest == warm.digest && out.quality.to_bits() == warm.quality.to_bits()
    };

    // Until the budget is spent: a few reference repetitions (in traced
    // runs each paired with a traced one), then one wire pass. Spreading
    // the references over the whole run gives them the same host as the
    // passes.
    let deadline = begin + Duration::from_secs_f64(seconds);
    let min_passes = if trace { 1 } else { 2 };
    let mut runs = Vec::new();
    let mut parse_ns = Vec::new();
    let mut untraced_walls = Vec::new();
    let mut submit_us = Vec::new();
    let mut traced_walls = Vec::new();
    let mut counts: Option<CountingSink> = None;
    let (mut repeat, mut counts_repeat) = (true, true);
    let mut passes = Vec::new();
    let mut rss_mb = f64::NAN;
    let mut host = HostSpeed::default();
    while passes.len() < min_passes || Instant::now() < deadline {
        for _ in 0..REFERENCES_PER_PASS {
            let r = match reference(&lines, &cfg) {
                Ok(r) => r,
                Err(e) => return report.check(format!("in-process reference: {e}"), false),
            };
            repeat &= same_as_warm(&r.out);
            runs.push(r.run.as_secs_f64());
            parse_ns.push(r.parse.as_secs_f64() * 1e9 / lines.len() as f64);
            untraced_walls.push((r.parse + r.run).as_secs_f64());
            if !trace {
                host.sample();
            }
            if trace && runs.len() <= KEPT_SUBMIT_RUNS {
                submit_us.extend(r.submit_us);
            }
            if trace {
                let (r, wall) = profile::traced(|| reference(&lines, &cfg));
                let r = match r {
                    Ok(r) => r,
                    Err(e) => return report.check(format!("traced reference: {e}"), false),
                };
                repeat &= same_as_warm(&r.out);
                let mut sink = CountingSink::new();
                r.out.events.iter().for_each(|e| sink.record(e));
                if let Some(prev) = &counts {
                    counts_repeat &= prev.ledger() == sink.ledger();
                }
                counts = Some(sink);
                traced_walls.push(wall.as_secs_f64());
            }
        }
        let label = format!("wire pass {}", passes.len());
        match pass(seed, warm.digest, trace, report, &label) {
            Ok(p) => passes.push(p),
            Err(e) => return report.check(format!("{label}: {e}"), false),
        }
        if passes.len() == 1 {
            // Later passes repeat the first one's work on fresh server
            // threads; past this point the high-water mark only tracks
            // how the allocator recycles those threads' arenas.
            rss_mb = peak_rss_mb();
        }
    }
    report.check(
        format!(
            "in-process digest and quality repeat across {} repetitions",
            runs.len() + traced_walls.len()
        ),
        repeat,
    );
    let steps = || passes.iter().flat_map(|p| p.steps.iter());
    report.attempted = steps().map(|s| s.sent).sum();
    report.failed = steps().map(|s| s.sent - s.accepted).sum();
    let refused: u64 = steps().map(|s| s.refused).sum();

    let latency_steps = || passes.iter().map(|p| &p.steps[0]);
    let reply_ms: Vec<f64> = latency_steps()
        .flat_map(|s| s.latency_ms.iter().copied())
        .collect();
    let reply_p50 = median(&reply_ms).unwrap_or(f64::NAN);
    let rates: Vec<f64> = passes.iter().map(Pass::max_rate).collect();
    println!(
        "serve_wire: {} reference repetitions, {} wire passes, max rate met per pass {rates:?}, \
         {} reply samples at {LATENCY_RATE_RPS} req/s",
        runs.len(),
        passes.len(),
        reply_ms.len(),
    );

    if !trace {
        println!("serve_wire: {}", host.describe());
        let setups: Vec<f64> = passes.iter().map(|p| p.setup.as_secs_f64()).collect();
        report.set("setup_s", host.scaled(&setups));
        report.set("sim_jobs_per_s", PASS_REQUESTS as f64 / host.scaled(&runs));
        report.set("peak_rss_mb", rss_mb);
        report.set("quality", warm.quality);
        report.set("energy_j_per_job", warm.energy_j / PASS_REQUESTS as f64);
        report.set("reply_p50_ms", reply_p50);
        return;
    }

    let p = Profile::collect(
        Duration::from_secs_f64(traced_walls.iter().sum()),
        traced_walls.len() as u64,
    );
    print!("{}", p.render());
    report.check(
        "serve event counts repeat across traced repetitions",
        counts_repeat,
    );
    let overhead = median(&traced_walls)
        .zip(median(&untraced_walls))
        .map_or(f64::NAN, |(t, u)| t / u - 1.0);
    report.set("telemetry.overhead", overhead);
    report.set("telemetry.unattributed_share", p.unattributed_share());
    report.set("telemetry.share_sum_err", p.share_sum_err());
    report.check(
        format!(
            "span self-time shares + unattributed sum to the traced wall time within \
             {SHARE_SUM_TOLERANCE}"
        ),
        p.share_sum_err() <= SHARE_SUM_TOLERANCE,
    );

    crate::engine_metrics_from_registry(&p, report);
    report.set("workload.gen_s", {
        let t = Instant::now();
        std::hint::black_box(crate::paper_light::generate(seed));
        t.elapsed().as_secs_f64()
    });
    crate::not_exercised(report, "fleet.");

    let submit_p50 = median(&submit_us).unwrap_or(f64::NAN);
    let decision_us: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.decision_us.iter().copied())
        .collect();
    let lag_ms: Vec<f64> = latency_steps()
        .flat_map(|s| s.lag_ms.iter().copied())
        .collect();
    let tail = |v: &[f64]| tail_percentile(v, 0.99).unwrap_or(f64::NAN);
    report.set("serve.submit_us_p50", submit_p50);
    report.set("serve.submit_us_p99", tail(&submit_us));
    report.set(
        "serve.decision_us_p50",
        median(&decision_us).unwrap_or(f64::NAN),
    );
    report.set("serve.decision_us_p99", tail(&decision_us));
    report.set("serve.wire_us_p50", reply_p50 * 1e3 - submit_p50);
    report.set("serve.parse_ns", median(&parse_ns).unwrap_or(f64::NAN));
    report.set(
        "serve.refused_frac",
        refused as f64 / report.attempted.max(1) as f64,
    );
    report.set("serve.gen_lag_ms", tail(&lag_ms));
    report.set("serve.reply_p99_ms", tail(&reply_ms));
    report.set("serve.max_rate_rps", median(&rates).unwrap_or(f64::NAN));
}
