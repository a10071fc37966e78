//! The TCP front end: a line-protocol listener over `std::net` with
//! hardened connection handling.
//!
//! Hardening, in one place:
//!
//! * **bounded everything** — per-line byte cap ([`crate::LineReader`]),
//!   a connection cap (excess connects get `ERR too-many-connections`
//!   and are closed), bounded protocol-error tolerance per connection,
//!   and the core's own bounded queue via admission control; no input
//!   can grow server memory without bound,
//! * **read/write timeouts** — a client that stops reading or writing
//!   is disconnected; a connection that sends nothing within the read
//!   timeout is reaped as a slow client (slowloris defence),
//! * **panic isolation** — each connection runs inside
//!   `catch_unwind`, so a panicking handler kills one connection, never
//!   the server (drilled by the test-only `PANIC` command),
//! * **single-writer accounting** — the deterministic [`ServeCore`] sits
//!   behind one mutex; replies are rendered under the lock but written
//!   after it is released, so a slow reader cannot stall admission. The
//!   lock is poison-tolerant: a worker that panicked while holding it
//!   does not wedge the server.
//!
//! Shutdown is [`ServeServer::shutdown_and_drain`]: stop accepting,
//! unblock and join every thread, then run the core's graceful drain
//! (checkpoint + bit-exact resume proof + final accounting).

use crate::core::{DrainOutcome, ServeConfig, ServeCore, ServeStats, SubmitOutcome};
use crate::protocol::{parse_command, Command, LineReader, ProtocolError, ReadLineError};
use ge_telemetry::{Registry, Telemetry};
use ge_trace::RejectReason;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

/// Connection-handling knobs copied out of [`ServeConfig`] so workers
/// need no lock to consult them.
#[derive(Debug, Clone, Copy)]
struct ConnLimits {
    max_line: usize,
    read_timeout: Duration,
    write_timeout: Duration,
    max_conns: usize,
    max_protocol_errors: u32,
    enable_test_panic: bool,
}

struct Shared {
    core: Mutex<Option<ServeCore>>,
    stop: AtomicBool,
    drain_requested: AtomicBool,
    conns: AtomicUsize,
    protocol_errors: AtomicU64,
    slow_disconnects: AtomicU64,
    worker_panics: AtomicU64,
}

fn tel() -> Option<&'static Registry> {
    Telemetry::is_enabled().then(Telemetry::registry)
}

/// Locks the core, absorbing poison. The core checks every value a
/// command carries before its first write to the books, and the `PANIC`
/// drill fires outside the lock; should a worker still panic under it,
/// wedging every future request on poison would turn one bad connection
/// into a full outage.
fn lock_core(shared: &Shared) -> MutexGuard<'_, Option<ServeCore>> {
    match shared.core.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The live serving front end. Bind with port 0 for an ephemeral port;
/// [`ServeServer::local_addr`] reports the real one.
pub struct ServeServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_handle: Option<JoinHandle<()>>,
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ServeServer {
    /// Builds the serving core from `cfg` and starts listening on
    /// `addr` (e.g. `"127.0.0.1:0"`).
    ///
    /// # Panics
    /// Panics if `cfg` fails [`ServeConfig::validate`].
    pub fn bind(cfg: ServeConfig, addr: &str) -> io::Result<ServeServer> {
        let limits = ConnLimits {
            max_line: cfg.max_line,
            read_timeout: Duration::from_millis(cfg.read_timeout_ms),
            write_timeout: Duration::from_millis(cfg.write_timeout_ms),
            max_conns: cfg.max_conns,
            max_protocol_errors: cfg.max_protocol_errors,
            enable_test_panic: cfg.enable_test_panic,
        };
        let core = ServeCore::new(cfg);
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared {
            core: Mutex::new(Some(core)),
            stop: AtomicBool::new(false),
            drain_requested: AtomicBool::new(false),
            conns: AtomicUsize::new(0),
            protocol_errors: AtomicU64::new(0),
            slow_disconnects: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
        });
        let workers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let shared2 = Arc::clone(&shared);
        let workers2 = Arc::clone(&workers);
        let accept_handle = std::thread::Builder::new()
            .name("ge-serve-accept".to_string())
            .spawn(move || accept_loop(listener, shared2, workers2, limits))?;
        Ok(ServeServer {
            addr: local,
            shared,
            accept_handle: Some(accept_handle),
            workers,
        })
    }

    /// The bound address (the real port, also when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether a client has asked for drain via the `DRAIN` command or
    /// [`ServeServer::request_drain`] was called (e.g. on SIGTERM).
    pub fn drain_requested(&self) -> bool {
        self.shared.drain_requested.load(Ordering::SeqCst)
    }

    /// Marks the server as draining: admission closes immediately; the
    /// owner should follow up with [`ServeServer::shutdown_and_drain`].
    pub fn request_drain(&self) {
        self.shared.drain_requested.store(true, Ordering::SeqCst);
        if let Some(core) = lock_core(&self.shared).as_mut() {
            core.begin_drain();
        }
    }

    /// A point-in-time accounting snapshot (`None` once drained).
    pub fn stats(&self) -> Option<ServeStats> {
        lock_core(&self.shared).as_ref().map(ServeCore::stats)
    }

    /// Protocol errors answered with `ERR` so far, across connections.
    pub fn protocol_errors(&self) -> u64 {
        self.shared.protocol_errors.load(Ordering::SeqCst)
    }

    /// Connections reaped for sending nothing within the read timeout.
    pub fn slow_disconnects(&self) -> u64 {
        self.shared.slow_disconnects.load(Ordering::SeqCst)
    }

    /// Worker panics absorbed without taking the server down.
    pub fn worker_panics(&self) -> u64 {
        self.shared.worker_panics.load(Ordering::SeqCst)
    }

    /// Live connections right now.
    pub fn connections(&self) -> usize {
        self.shared.conns.load(Ordering::SeqCst)
    }

    /// Graceful shutdown: close admission, stop accepting, join every
    /// worker (they exit within one read timeout), then drain the core —
    /// run in-flight work to a terminal state, seal and prove the final
    /// checkpoint, and return the full accounting.
    pub fn shutdown_and_drain(mut self) -> DrainOutcome {
        if let Some(core) = lock_core(&self.shared).as_mut() {
            core.begin_drain();
        }
        self.stop_threads();
        let core = lock_core(&self.shared).take();
        match core {
            Some(core) => core.finish_drain(),
            // Unreachable in practice: the core is only taken here, and
            // `shutdown_and_drain` consumes the server.
            None => unreachable!("serving core already drained"),
        }
    }

    fn stop_threads(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        let handles = match self.workers.lock() {
            Ok(mut g) => std::mem::take(&mut *g),
            Err(poisoned) => std::mem::take(&mut *poisoned.into_inner()),
        };
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for ServeServer {
    fn drop(&mut self) {
        if self.accept_handle.is_some() {
            self.stop_threads();
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    limits: ConnLimits,
) {
    for conn in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let stream = match conn {
            Ok(s) => s,
            Err(_) => continue,
        };
        if shared.conns.load(Ordering::SeqCst) >= limits.max_conns {
            let _ = refuse_connection(stream, limits);
            continue;
        }
        shared.conns.fetch_add(1, Ordering::SeqCst);
        let shared2 = Arc::clone(&shared);
        let spawned = std::thread::Builder::new()
            .name("ge-serve-worker".to_string())
            .spawn(move || {
                let result = catch_unwind(AssertUnwindSafe(|| {
                    let _ = handle_connection(stream, &shared2, limits);
                }));
                if result.is_err() {
                    shared2.worker_panics.fetch_add(1, Ordering::SeqCst);
                    if let Some(r) = tel() {
                        r.counter("ge_serve_worker_panics_total").inc();
                    }
                }
                shared2.conns.fetch_sub(1, Ordering::SeqCst);
            });
        match spawned {
            Ok(handle) => {
                let mut guard = match workers.lock() {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                };
                // Reap finished workers so the handle list stays bounded
                // by the connection cap, not by connection churn.
                guard.retain(|h| !h.is_finished());
                guard.push(handle);
            }
            Err(_) => {
                shared.conns.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }
}

fn refuse_connection(mut stream: TcpStream, limits: ConnLimits) -> io::Result<()> {
    stream.set_write_timeout(Some(limits.write_timeout))?;
    stream.write_all(b"ERR too-many-connections\n")
}

/// Renders the reply for one command. Runs with the core lock held (for
/// state-touching commands); must not block on I/O.
fn render_reply(shared: &Shared, cmd: Command, limits: ConnLimits) -> ReplyAction {
    match cmd {
        Command::Ping => ReplyAction::Line("PONG".to_string()),
        Command::Stats => match lock_core(shared).as_ref() {
            Some(core) => {
                let s = core.stats();
                ReplyAction::Line(format!(
                    "STATS t={:.6} requests={} admitted={} completed={} rejected={} \
                     timed_out={} shed={} queue={} quality={:.6} draining={}",
                    s.now_s,
                    s.requests,
                    s.admitted,
                    s.completed,
                    s.rejected,
                    s.timed_out,
                    s.shed,
                    s.queue_len,
                    s.quality,
                    u8::from(s.draining),
                ))
            }
            None => ReplyAction::Line("DRAINING".to_string()),
        },
        Command::Drain => {
            shared.drain_requested.store(true, Ordering::SeqCst);
            if let Some(core) = lock_core(shared).as_mut() {
                core.begin_drain();
            }
            ReplyAction::Line("DRAINING".to_string())
        }
        Command::Panic => {
            if limits.enable_test_panic {
                ReplyAction::Panic
            } else {
                ReplyAction::Error("refused".to_string())
            }
        }
        Command::Tick { t } => match lock_core(shared).as_mut() {
            Some(core) => match core.tick(t) {
                Ok(now) => ReplyAction::Line(format!("OK {now}")),
                Err(e) => ReplyAction::Error(e.kind().to_string()),
            },
            None => ReplyAction::Line("DRAINING".to_string()),
        },
        Command::Submit {
            t,
            demand,
            deadline_rel,
        } => match lock_core(shared).as_mut() {
            Some(core) => match core.submit(t, demand, deadline_rel) {
                Ok(SubmitOutcome::Admitted { req, queue_len }) => {
                    ReplyAction::Line(format!("ACCEPTED {req} {queue_len}"))
                }
                Ok(SubmitOutcome::Rejected {
                    reason, queue_len, ..
                }) => match reason {
                    RejectReason::Busy => ReplyAction::Line(format!("BUSY {queue_len}")),
                    RejectReason::Floor => ReplyAction::Line("REJECTED floor".to_string()),
                    RejectReason::Draining => ReplyAction::Line("DRAINING".to_string()),
                },
                Err(e) => ReplyAction::Error(e.kind().to_string()),
            },
            None => ReplyAction::Line("DRAINING".to_string()),
        },
    }
}

enum ReplyAction {
    /// Write the line and continue.
    Line(String),
    /// Write `ERR <kind>` and count a protocol error.
    Error(String),
    /// Deliberately panic this worker (test drills only).
    Panic,
}

fn handle_connection(stream: TcpStream, shared: &Shared, limits: ConnLimits) -> io::Result<()> {
    stream.set_read_timeout(Some(limits.read_timeout))?;
    stream.set_write_timeout(Some(limits.write_timeout))?;
    // Replies are small request/response lines: without TCP_NODELAY,
    // Nagle's algorithm holds each one back until the client's delayed
    // ACK of the previous segment arrives.
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let mut reader = LineReader::new(stream, limits.max_line);
    let mut conn_errors: u32 = 0;
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        let line = match reader.read_line() {
            Ok(Some(line)) => line,
            Ok(None) => return Ok(()),
            Err(ReadLineError::TooLong { limit }) => {
                // The stream is desynchronized mid-line: answer the typed
                // error, then disconnect.
                note_protocol_error(shared);
                let err = ProtocolError::LineTooLong { limit };
                let _ = writer.write_all(format!("ERR {}\n", err.kind()).as_bytes());
                discard_remaining(reader.get_mut());
                return Ok(());
            }
            Err(ReadLineError::Io(e))
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                // Nothing arrived within the read timeout: slow client.
                shared.slow_disconnects.fetch_add(1, Ordering::SeqCst);
                if let Some(r) = tel() {
                    r.counter("ge_serve_slow_clients_total").inc();
                }
                return Ok(());
            }
            Err(ReadLineError::Io(e)) => return Err(e),
        };
        let action = match parse_command(&line) {
            Ok(cmd) => render_reply(shared, cmd, limits),
            Err(e) => ReplyAction::Error(e.kind().to_string()),
        };
        match action {
            ReplyAction::Line(mut reply) => {
                // One write per reply line, newline included.
                reply.push('\n');
                writer.write_all(reply.as_bytes())?;
            }
            ReplyAction::Error(kind) => {
                note_protocol_error(shared);
                conn_errors += 1;
                writer.write_all(format!("ERR {kind}\n").as_bytes())?;
                if conn_errors > limits.max_protocol_errors {
                    return Ok(());
                }
            }
            ReplyAction::Panic => {
                let _ = writer.write_all(b"PANICKING\n");
                panic!("test-induced worker panic (PANIC command)");
            }
        }
    }
}

/// Discards up to a bounded amount of already-sent client data before
/// the socket closes, so the kernel delivers our error reply instead of
/// a reset (closing with unread data in the receive buffer sends RST,
/// which would destroy the in-flight `ERR` line). Bounded, so a hostile
/// sender cannot hold the worker here.
fn discard_remaining(stream: &mut TcpStream) {
    use std::io::Read;
    const DISCARD_CAP: usize = 256 * 1024;
    let mut sunk = 0;
    let mut buf = [0u8; 4096];
    while sunk < DISCARD_CAP {
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => return,
            Ok(n) => sunk += n,
        }
    }
}

fn note_protocol_error(shared: &Shared) {
    shared.protocol_errors.fetch_add(1, Ordering::SeqCst);
    if let Some(r) = tel() {
        r.counter("ge_serve_protocol_errors_total").inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::ServeConfig;
    use ge_core::{Algorithm, SimConfig};
    use ge_simcore::SimTime;
    use std::io::{BufRead, BufReader};

    fn test_cfg() -> ServeConfig {
        let mut sim = SimConfig::paper_default();
        sim.cores = 4;
        sim.budget_w = 80.0;
        sim.critical_load_rps = 154.0 / 4.0;
        sim.horizon = SimTime::from_secs(30.0);
        let mut cfg = ServeConfig::new(sim, Algorithm::Ge);
        cfg.queue_high = 8;
        cfg.queue_low = 2;
        cfg.read_timeout_ms = 400;
        cfg.write_timeout_ms = 400;
        cfg
    }

    struct Client {
        reader: BufReader<TcpStream>,
        writer: TcpStream,
    }

    impl Client {
        fn connect(addr: SocketAddr) -> Client {
            let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5)).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            let writer = stream.try_clone().unwrap();
            Client {
                reader: BufReader::new(stream),
                writer,
            }
        }

        fn send(&mut self, line: &str) -> String {
            self.writer
                .write_all(format!("{line}\n").as_bytes())
                .unwrap();
            let mut reply = String::new();
            self.reader.read_line(&mut reply).unwrap();
            reply.trim_end().to_string()
        }
    }

    #[test]
    fn ping_stats_and_submit_round_trip() {
        let server = ServeServer::bind(test_cfg(), "127.0.0.1:0").unwrap();
        let mut c = Client::connect(server.local_addr());
        assert_eq!(c.send("PING"), "PONG");
        let reply = c.send("SUBMIT 0.5 300 1.0");
        assert!(reply.starts_with("ACCEPTED 0 "), "{reply}");
        let stats = c.send("STATS");
        assert!(stats.contains("requests=1"), "{stats}");
        assert!(stats.contains("admitted=1"), "{stats}");
        let out = server.shutdown_and_drain();
        assert_eq!(out.requests, 1);
        assert!(out.is_consistent());
    }

    #[test]
    fn malformed_lines_get_typed_errors_and_eventually_disconnect() {
        let mut cfg = test_cfg();
        cfg.max_protocol_errors = 2;
        let server = ServeServer::bind(cfg, "127.0.0.1:0").unwrap();
        let mut c = Client::connect(server.local_addr());
        assert_eq!(c.send("GARBAGE"), "ERR unknown-command");
        assert_eq!(c.send("SUBMIT nope 1 1"), "ERR bad-number");
        // Third error exceeds the cap: reply then disconnect.
        assert_eq!(c.send("SUBMIT 1 1"), "ERR bad-arity");
        let mut end = String::new();
        let n = c.reader.read_line(&mut end).unwrap();
        assert_eq!(n, 0, "connection should be closed, got {end:?}");
        assert_eq!(server.protocol_errors(), 3);
        // The server still serves new connections.
        let mut c2 = Client::connect(server.local_addr());
        assert_eq!(c2.send("PING"), "PONG");
    }

    #[test]
    fn overlong_line_is_rejected_and_disconnected() {
        let mut cfg = test_cfg();
        cfg.max_line = 128;
        let server = ServeServer::bind(cfg, "127.0.0.1:0").unwrap();
        let mut c = Client::connect(server.local_addr());
        let huge = "X".repeat(4096);
        let reply = c.send(&huge);
        assert_eq!(reply, "ERR line-too-long");
        let mut end = String::new();
        assert_eq!(c.reader.read_line(&mut end).unwrap(), 0);
    }

    #[test]
    fn slow_client_is_reaped() {
        let server = ServeServer::bind(test_cfg(), "127.0.0.1:0").unwrap();
        let stream =
            TcpStream::connect_timeout(&server.local_addr(), Duration::from_secs(5)).unwrap();
        // Send nothing; the 400 ms read timeout must reap us.
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.slow_disconnects() == 0 {
            assert!(Instant::now() < deadline, "slow client never reaped");
            std::thread::sleep(Duration::from_millis(20));
        }
        drop(stream);
        assert_eq!(server.slow_disconnects(), 1);
    }

    use std::time::Instant;

    #[test]
    fn worker_panic_kills_one_connection_not_the_server() {
        let mut cfg = test_cfg();
        cfg.enable_test_panic = true;
        let server = ServeServer::bind(cfg, "127.0.0.1:0").unwrap();
        let mut c = Client::connect(server.local_addr());
        assert_eq!(c.send("PANIC"), "PANICKING");
        let mut end = String::new();
        let _ = c.reader.read_line(&mut end); // connection dies
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.worker_panics() == 0 {
            assert!(Instant::now() < deadline, "panic never recorded");
            std::thread::sleep(Duration::from_millis(10));
        }
        // The server survives and keeps full accounting.
        let mut c2 = Client::connect(server.local_addr());
        assert!(c2.send("SUBMIT 0.1 300 1.0").starts_with("ACCEPTED"));
        let out = server.shutdown_and_drain();
        assert_eq!(out.requests, 1);
        assert!(out.is_consistent());
    }

    #[test]
    fn panic_command_is_refused_unless_enabled() {
        let server = ServeServer::bind(test_cfg(), "127.0.0.1:0").unwrap();
        let mut c = Client::connect(server.local_addr());
        assert_eq!(c.send("PANIC"), "ERR refused");
        assert_eq!(server.worker_panics(), 0);
    }

    #[test]
    fn drain_command_closes_admission_and_shutdown_accounts_everything() {
        let server = ServeServer::bind(test_cfg(), "127.0.0.1:0").unwrap();
        let mut c = Client::connect(server.local_addr());
        for i in 0..10 {
            let t = 0.1 * i as f64;
            let r = c.send(&format!("SUBMIT {t} 400 1.0"));
            assert!(r.starts_with("ACCEPTED") || r.starts_with("BUSY"), "{r}");
        }
        assert_eq!(c.send("DRAIN"), "DRAINING");
        assert!(server.drain_requested());
        assert_eq!(c.send("SUBMIT 2.0 400 1.0"), "DRAINING");
        let out = server.shutdown_and_drain();
        assert_eq!(out.requests, 11);
        assert!(out.is_consistent(), "{out:?}");
        assert!(out.resume_bit_exact);
    }

    #[test]
    fn connection_cap_refuses_excess_clients() {
        let mut cfg = test_cfg();
        cfg.max_conns = 1;
        let server = ServeServer::bind(cfg, "127.0.0.1:0").unwrap();
        let mut first = Client::connect(server.local_addr());
        assert_eq!(first.send("PING"), "PONG");
        // Second connection while the first is held open: refused.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let mut second = Client::connect(server.local_addr());
            let stream = second.writer.try_clone().unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(2)))
                .unwrap();
            let mut reply = String::new();
            let _ = second.reader.read_line(&mut reply);
            if reply.trim_end() == "ERR too-many-connections" {
                break;
            }
            assert!(Instant::now() < deadline, "cap never enforced");
            std::thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(first.send("PING"), "PONG");
    }
}
