//! Live-serving drivers behind `ge-experiments --serve`, `--serve-replay`,
//! and `--soak`.
//!
//! Three entry points share one exemplar platform and one deterministic
//! arrival generator:
//!
//! * [`run_server`] — binds the `ge-serve` front end (port 0 picks an
//!   ephemeral port; the bound address is always printed), serves until
//!   a client sends `DRAIN` or the process receives SIGTERM/SIGINT, then
//!   drains gracefully and writes the session artifacts: the serve trace
//!   JSONL, the sealed final checkpoint, and the decision-latency
//!   percentiles appended to `BENCH_trajectory.jsonl`.
//! * [`run_replay`] — the deterministic trace-replay client: fires the
//!   seeded arrival stream at the server over TCP, optionally paced at a
//!   wall-clock speed multiple, and tallies the replies. Because every
//!   `SUBMIT` carries its own logical timestamp, pacing cannot change
//!   the server's accounting — two replays of the same seed produce the
//!   same digest no matter how fast the bytes arrived.
//! * [`run_soak`] — the in-process chaos harness: one server plus a
//!   client that abuses it with a seeded [`ChaosSchedule`] (garbage
//!   frames, partial writes, connection drops, burst overload, silent
//!   slow clients, a worker-panic probe, and a mid-stream kill-and-drain),
//!   then recounts the drained trace through the independent
//!   [`ge_trace::replay_serve`] checker. The schedule and the request
//!   stream are pure functions of the seed, so two soak runs must land
//!   on the identical accounting digest — the caller compares them.

use crate::trajectory;
use ge_core::{Algorithm, SimConfig};
use ge_faults::{ChaosOp, ChaosSchedule, GarbageKind};
use ge_serve::{install_term_handler, term_requested, DrainOutcome, ServeConfig, ServeServer};
use ge_simcore::rng::RngStream;
use ge_simcore::SimTime;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

/// The serving exemplar platform: a 4-core cell with a proportionally
/// scaled power budget and critical load, running the GE policy, with
/// watermarks tight enough that short replays and soaks genuinely trip
/// backpressure.
pub fn exemplar_config(horizon_secs: f64) -> ServeConfig {
    let mut sim = SimConfig::paper_default();
    sim.cores = 4;
    sim.budget_w = 80.0;
    sim.critical_load_rps = 154.0 / 4.0;
    sim.horizon = SimTime::from_secs(horizon_secs);
    let mut cfg = ServeConfig::new(sim, Algorithm::Ge);
    cfg.queue_high = 8;
    cfg.queue_low = 2;
    cfg
}

/// One synthetic arrival: its logical time, demand in units, and
/// relative deadline in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    /// Logical arrival time, seconds.
    pub t: f64,
    /// Demand in processing units.
    pub demand: f64,
    /// Deadline relative to `t`, seconds.
    pub deadline_rel: f64,
}

/// Generates the deterministic arrival stream both the replay client and
/// the soak harness submit: evenly spaced over the first 60% of the
/// horizon (so every deadline fits strictly inside it), with seeded
/// demands and windows.
pub fn generate_arrivals(seed: u64, requests: u64, horizon_secs: f64) -> Vec<Arrival> {
    let mut rng = RngStream::from_root(seed, "serve-replay");
    let span = horizon_secs * 0.6;
    let n = requests.max(1) as f64;
    (0..requests)
        .map(|i| {
            let t = span * i as f64 / n;
            let demand = rng.uniform_range(200.0, 900.0);
            let deadline_rel = rng
                .uniform_range(0.5, 3.0)
                .min(horizon_secs - t - 1e-3)
                .max(1e-3);
            Arrival {
                t,
                demand,
                deadline_rel,
            }
        })
        .collect()
}

/// The three decision-latency percentiles reported for a drained
/// session, in nanoseconds: `(p50, p99, p999)`.
pub fn latency_percentiles(out: &DrainOutcome) -> (u64, u64, u64) {
    let [p50, p99, p999] = out.latency_percentiles_ns([0.50, 0.99, 0.999]);
    (p50, p99, p999)
}

/// Appends the session's decision-latency percentiles (in ns) as one
/// [`crate::trajectory`] line to `BENCH_trajectory.jsonl` under
/// `out_dir` — the same accumulating file the scheduler micro-benches
/// append to, so serving-path latency rides the same trajectory.
fn append_latency_trajectory(out_dir: &Path, label: &str, out: &DrainOutcome) -> io::Result<()> {
    let (p50, p99, p999) = latency_percentiles(out);
    let iters = out.latency_ns.len() as u64;
    let entries: Vec<trajectory::Entry> = [("p50", p50), ("p99", p99), ("p999", p999)]
        .into_iter()
        .map(|(name, v)| trajectory::Entry {
            name: format!("{label}_decision/{name}"),
            unit: "ns",
            min: v as f64,
            mean: v as f64,
            iters,
        })
        .collect();
    trajectory::append(&out_dir.join("BENCH_trajectory.jsonl"), &entries)
}

/// Writes one drained session's artifacts under `out_dir` (the serve
/// trace JSONL and the sealed final checkpoint), recounts the trace
/// through the independent [`ge_trace::replay_serve`] checker, appends
/// the decision-latency percentiles to `BENCH_trajectory.jsonl`, and
/// prints the accounting line carrying the cross-run digest.
///
/// Fails if the recount finds an invariant violation, if any request is
/// missing a terminal state, or if the final checkpoint did not pass the
/// bit-exact resume proof.
pub fn finish_session(label: &str, out: &DrainOutcome, out_dir: &Path) -> io::Result<()> {
    std::fs::create_dir_all(out_dir)?;
    let trace_path = out_dir.join(format!("{label}-trace.jsonl"));
    let mut jsonl = Vec::new();
    ge_trace::write_jsonl(&out.events, &mut jsonl)?;
    ge_recover::write_atomic(&trace_path, &jsonl)?;
    let ckpt_path = out_dir.join(format!("{label}-final.ckpt"));
    ge_recover::write_atomic(&ckpt_path, &out.checkpoint)?;

    let report = ge_trace::replay_serve(&out.events)
        .map_err(|e| io::Error::other(format!("serve trace replay failed: {e}")))?;
    print!("{}", report.render());
    if !report.is_ok() {
        return Err(io::Error::other(format!(
            "{label}: serve trace violated its invariants"
        )));
    }
    if !out.is_consistent() {
        return Err(io::Error::other(format!(
            "{label}: terminal states do not account for every request"
        )));
    }
    if !out.resume_bit_exact {
        return Err(io::Error::other(format!(
            "{label}: drained checkpoint failed the bit-exact resume proof"
        )));
    }

    let (p50, p99, p999) = latency_percentiles(out);
    println!(
        "{label}: decision latency p50={p50}ns p99={p99}ns p999={p999}ns \
         over {} sample(s) ({} dropped)",
        out.latency_ns.len(),
        out.latency_dropped
    );
    append_latency_trajectory(out_dir, label, out)?;
    println!(
        "  -> wrote {} and {}",
        trace_path.display(),
        ckpt_path.display()
    );
    println!(
        "{label}: drained requests={} admitted={} completed={} rejected={} \
         timed_out={} shed={} quality={:.4} energy_j={:.1} digest=0x{:016x} \
         resume_bit_exact={}",
        out.requests,
        out.admitted,
        out.completed,
        out.rejected,
        out.timed_out,
        out.shed,
        out.quality,
        out.energy_j,
        out.digest,
        out.resume_bit_exact
    );
    Ok(())
}

/// Runs the live serving session: binds `addr` (use port 0 for an
/// ephemeral port — the bound address is printed either way as
/// `serve: listening on ADDR`), installs the SIGTERM/SIGINT latch, and
/// serves until a client requests `DRAIN` or a termination signal
/// arrives; then drains gracefully and writes the session artifacts via
/// [`finish_session`].
pub fn run_server(addr: &str, horizon_secs: f64, out_dir: &Path) -> io::Result<DrainOutcome> {
    let cfg = exemplar_config(horizon_secs);
    let server = ServeServer::bind(cfg, addr)?;
    println!("serve: listening on {}", server.local_addr());
    install_term_handler();
    loop {
        if term_requested() {
            println!("serve: termination signal received, draining");
            break;
        }
        if server.drain_requested() {
            println!("serve: drain requested on the wire");
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    let out = server.shutdown_and_drain();
    finish_session("serve", &out, out_dir)?;
    Ok(out)
}

/// Client-side tallies from one replay run, one count per reply kind.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReplaySummary {
    /// `SUBMIT`s that received a reply.
    pub sent: u64,
    /// `ACCEPTED` replies.
    pub accepted: u64,
    /// `BUSY` replies (backpressure).
    pub busy: u64,
    /// `REJECTED` replies (quality floor).
    pub rejected: u64,
    /// `DRAINING` replies.
    pub draining: u64,
    /// `ERR` or unrecognised replies.
    pub errors: u64,
    /// The server hung up mid-stream (expected when it is SIGTERMed
    /// under the replay — the client stops cleanly instead of failing).
    pub server_closed_early: bool,
}

impl ReplaySummary {
    /// One-line human rendering.
    pub fn render(&self) -> String {
        format!(
            "replay: sent={} accepted={} busy={} rejected={} draining={} errors={}{}",
            self.sent,
            self.accepted,
            self.busy,
            self.rejected,
            self.draining,
            self.errors,
            if self.server_closed_early {
                " (server closed mid-stream)"
            } else {
                ""
            }
        )
    }
}

/// The deterministic trace-replay client: connects to a running server
/// at `addr`, fires the seeded arrival stream, and tallies replies.
///
/// `speed == 0` submits as fast as the wire allows; `speed > 0` paces
/// arrivals at that multiple of logical time (1.0 = wall-clock speed).
/// After the last arrival the client sends `DRAIN`, telling the server
/// to close its books. A server that disappears mid-stream (it was
/// SIGTERMed) ends the replay cleanly with `server_closed_early` set.
pub fn run_replay(
    addr: &str,
    seed: u64,
    requests: u64,
    horizon_secs: f64,
    speed: f64,
) -> io::Result<ReplaySummary> {
    let arrivals = generate_arrivals(seed, requests, horizon_secs);
    let stream = TcpStream::connect(addr)?;
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut stream = stream;
    let started = Instant::now();
    let mut summary = ReplaySummary::default();
    for a in &arrivals {
        if speed > 0.0 {
            let due = Duration::from_secs_f64(a.t / speed);
            let elapsed = started.elapsed();
            if due > elapsed {
                std::thread::sleep(due - elapsed);
            }
        }
        let line = format!("SUBMIT {} {} {}\n", a.t, a.demand, a.deadline_rel);
        if stream.write_all(line.as_bytes()).is_err() {
            summary.server_closed_early = true;
            break;
        }
        let mut reply = String::new();
        match reader.read_line(&mut reply) {
            Ok(0) | Err(_) => {
                summary.server_closed_early = true;
                break;
            }
            Ok(_) => {}
        }
        summary.sent += 1;
        match reply.split_whitespace().next().unwrap_or("") {
            "ACCEPTED" => summary.accepted += 1,
            "BUSY" => summary.busy += 1,
            "REJECTED" => summary.rejected += 1,
            "DRAINING" => summary.draining += 1,
            _ => summary.errors += 1,
        }
    }
    if !summary.server_closed_early {
        let _ = stream.write_all(b"DRAIN\n");
        let mut reply = String::new();
        let _ = reader.read_line(&mut reply);
    }
    Ok(summary)
}

/// The soak client's connection to the server, reconnectable after
/// chaos drops it. Replies are read for every frame sent (well-formed
/// or garbage) so the socket buffer never silently fills.
struct SoakConn {
    addr: String,
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    errors_on_conn: u32,
    max_protocol_errors: u32,
}

impl SoakConn {
    fn connect(addr: &str, max_protocol_errors: u32) -> io::Result<SoakConn> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let reader = BufReader::new(stream.try_clone()?);
        Ok(SoakConn {
            addr: addr.to_string(),
            stream,
            reader,
            errors_on_conn: 0,
            max_protocol_errors,
        })
    }

    fn reconnect(&mut self) -> io::Result<()> {
        *self = SoakConn::connect(&self.addr, self.max_protocol_errors)?;
        Ok(())
    }

    fn read_reply(&mut self) -> io::Result<String> {
        let mut s = String::new();
        let n = self.reader.read_line(&mut s)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(s)
    }

    /// Submits one request, optionally fragmenting the line across two
    /// writes with a flush and a pause between them (a slow client).
    fn submit(
        &mut self,
        t: f64,
        demand: f64,
        deadline_rel: f64,
        partial: bool,
    ) -> io::Result<String> {
        let line = format!("SUBMIT {t} {demand} {deadline_rel}\n");
        let bytes = line.as_bytes();
        if partial {
            let mid = bytes.len() / 2;
            self.stream.write_all(&bytes[..mid])?;
            self.stream.flush()?;
            std::thread::sleep(Duration::from_millis(10));
            self.stream.write_all(&bytes[mid..])?;
        } else {
            self.stream.write_all(bytes)?;
        }
        self.read_reply()
    }

    /// Sends one malformed frame and consumes the typed error reply.
    /// Reconnects pre-emptively when one more error would trip the
    /// server's per-connection cap (the cap itself is unit-tested; the
    /// soak wants the stream to keep flowing), and always reconnects
    /// after a huge line because the server hangs up on those.
    fn send_garbage(&mut self, kind: GarbageKind, max_line: usize) -> io::Result<()> {
        if self.errors_on_conn + 1 >= self.max_protocol_errors {
            self.reconnect()?;
        }
        match kind {
            GarbageKind::NotACommand => {
                self.stream.write_all(b"HELLO WORLD\n")?;
                self.read_reply()?;
            }
            GarbageKind::BadNumber => {
                self.stream.write_all(b"SUBMIT zero 100 1\n")?;
                self.read_reply()?;
            }
            GarbageKind::Binary => {
                self.stream.write_all(&[0xff, 0xfe, 0x80, 0x00, b'\n'])?;
                self.read_reply()?;
            }
            GarbageKind::Empty => {
                self.stream.write_all(b"\n")?;
                self.read_reply()?;
            }
            GarbageKind::HugeLine => {
                let mut huge = vec![b'x'; max_line + 512];
                huge.push(b'\n');
                self.stream.write_all(&huge)?;
                let _ = self.read_reply();
                self.reconnect()?;
                return Ok(());
            }
        }
        self.errors_on_conn += 1;
        Ok(())
    }
}

/// Opens a throwaway connection, sends the test-only `PANIC` command,
/// and lets the worker die — proving under soak that a panicking worker
/// takes down one connection, not the server. Best-effort: the panic
/// never touches the deterministic core.
fn fire_panic_probe(addr: &str) {
    if let Ok(mut s) = TcpStream::connect(addr) {
        let _ = s.set_read_timeout(Some(Duration::from_millis(500)));
        let _ = s.write_all(b"PANIC\n");
        let mut buf = [0u8; 64];
        let _ = s.read(&mut buf);
    }
}

/// One full chaos/soak run: a fresh server on an ephemeral port, the
/// seeded request stream abused per [`ChaosSchedule`], a worker-panic
/// probe at the stream midpoint, a mid-stream kill-and-drain, and the
/// independent recount of the drained trace. Returns the accounting
/// digest — a pure function of the seed, so the caller can demand two
/// runs agree bit-for-bit.
pub fn run_soak(
    seed: u64,
    requests: u64,
    horizon_secs: f64,
    out_dir: &Path,
    run_idx: u32,
) -> io::Result<u64> {
    let schedule = ChaosSchedule::generate(seed, requests, true);
    let mut cfg = exemplar_config(horizon_secs);
    cfg.read_timeout_ms = 500;
    cfg.write_timeout_ms = 500;
    cfg.enable_test_panic = true;
    let max_line = cfg.max_line;
    let max_protocol_errors = cfg.max_protocol_errors;
    let server = ServeServer::bind(cfg, "127.0.0.1:0")?;
    let addr = server.local_addr().to_string();
    println!(
        "soak[{run_idx}]: server on {addr}, seed={seed}, {requests} requests, \
         {} chaos op(s), kill point {:?}",
        schedule.ops().len(),
        schedule.kill_after()
    );

    // The request stream mirrors the replay client's: evenly spaced
    // logical times, seeded demands/windows drawn in submission order
    // (burst extras included) so both runs draw identically.
    let mut rng = RngStream::from_root(seed, "soak-requests");
    let span = horizon_secs * 0.6;
    let dt = span / requests.max(1) as f64;
    let mut draw = move |t: f64| {
        let demand = rng.uniform_range(200.0, 900.0);
        let deadline_rel = rng
            .uniform_range(0.5, 3.0)
            .min(horizon_secs - t - 1e-3)
            .max(1e-3);
        (demand, deadline_rel)
    };

    let mut conn = SoakConn::connect(&addr, max_protocol_errors)?;
    let mut slow_conns: Vec<TcpStream> = Vec::new();
    let panic_at = requests / 2;
    let (mut garbage, mut drops, mut bursts, mut partials, mut slow) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for idx in 0..requests {
        if schedule.kill_after() == Some(idx) {
            println!("soak[{run_idx}]: kill point at request {idx}; draining mid-stream");
            break;
        }
        if idx == panic_at {
            fire_panic_probe(&addr);
        }
        let t = dt * idx as f64;
        let mut partial = false;
        for op in schedule.ops_at(idx) {
            match op {
                ChaosOp::Garbage(kind) => {
                    conn.send_garbage(kind, max_line)?;
                    garbage += 1;
                }
                ChaosOp::PartialWrite => {
                    partial = true;
                    partials += 1;
                }
                ChaosOp::DropConnection => {
                    conn.reconnect()?;
                    drops += 1;
                }
                ChaosOp::Burst(n) => {
                    for _ in 0..n {
                        let (demand, deadline_rel) = draw(t);
                        conn.submit(t, demand, deadline_rel, false)?;
                    }
                    bursts += 1;
                }
                ChaosOp::SlowClient => {
                    if let Ok(s) = TcpStream::connect(&addr) {
                        slow_conns.push(s);
                    }
                    slow += 1;
                }
            }
        }
        let (demand, deadline_rel) = draw(t);
        conn.submit(t, demand, deadline_rel, partial)?;
    }
    println!(
        "soak[{run_idx}]: abuse delivered — {garbage} garbage frame(s), {drops} drop(s), \
         {bursts} burst(s), {partials} partial write(s), {slow} slow client(s)"
    );
    drop(conn);
    drop(slow_conns);

    server.request_drain();
    let out = server.shutdown_and_drain();
    finish_session(&format!("soak-run{run_idx}"), &out, out_dir)?;
    Ok(out.digest)
}
