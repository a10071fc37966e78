//! Integration tests for the `ge-serve` front end over real TCP,
//! exercising the full stack the unit tests cover piecewise: the replay
//! client from `ge-experiments`, wire-level abuse against the live
//! server, the chaos/soak harness, slow-client reaping, and the drained
//! checkpoint restored independently through `ge-core`.
//!
//! The load-bearing claim everywhere: the serving core is a pure
//! function of the logical command stream, so network chaos — garbage
//! frames, reconnects, slow clients, pacing — must never change the
//! accounting digest, and every request must land in exactly one
//! terminal state.

use ge_core::{Algorithm, Run, SimConfig};
use ge_experiments::serve::{exemplar_config, run_replay, run_soak};
use ge_serve::{ServeConfig, ServeCore, ServeServer, SubmitOutcome};
use ge_simcore::SimTime;
use ge_trace::{replay_serve, TraceEvent, VecSink};
use ge_workload::{Trace, WorkloadConfig, WorkloadGenerator};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn bind(cfg: ServeConfig) -> ServeServer {
    ServeServer::bind(cfg, "127.0.0.1:0").expect("bind on an ephemeral port")
}

/// A line-oriented test client: one command out, one reply back.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Client { stream, reader }
    }

    fn send(&mut self, line: &str) -> String {
        self.stream.write_all(line.as_bytes()).expect("write");
        self.stream.write_all(b"\n").expect("write newline");
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("reply");
        reply.trim_end().to_string()
    }
}

#[test]
fn replay_client_round_trip_is_deterministic_and_drains_clean() {
    let run = || {
        let server = bind(exemplar_config(20.0));
        let addr = server.local_addr().to_string();
        let summary = run_replay(&addr, 11, 80, 20.0, 0.0).expect("replay");
        assert_eq!(summary.sent, 80, "{summary:?}");
        assert!(!summary.server_closed_early, "{summary:?}");
        assert!(summary.accepted > 0, "{summary:?}");
        // The client's final DRAIN must have closed admission before it
        // disconnected.
        assert!(server.drain_requested());
        server.shutdown_and_drain()
    };
    let a = run();
    let b = run();

    assert_eq!(a.requests, 80);
    assert!(a.is_consistent(), "{a:?}");
    assert!(a.resume_bit_exact);
    // One decision-latency sample per SUBMIT that reached the core.
    assert_eq!(a.latency_ns.len() as u64, a.requests);

    let report = replay_serve(&a.events).expect("serve trace replays");
    assert!(report.is_ok(), "{}", report.render());
    assert_eq!(report.requests, 80);

    // Wall-clock jitter between the two runs must be invisible.
    assert_eq!(a.digest, b.digest, "identical replays diverged");
}

#[test]
fn wire_garbage_and_reconnects_never_touch_the_books() {
    let submits: Vec<(f64, f64)> = (0..40)
        .map(|i| (0.05 * i as f64, 400.0 + 10.0 * (i % 5) as f64))
        .collect();
    let run = |abuse: bool| {
        let mut cfg = exemplar_config(20.0);
        cfg.max_protocol_errors = 64;
        let server = bind(cfg);
        let addr = server.local_addr().to_string();
        let mut client = Client::connect(&addr);
        for (i, (t, demand)) in submits.iter().enumerate() {
            if abuse {
                match i % 4 {
                    0 => {
                        let r = client.send("NOT A COMMAND");
                        assert!(r.starts_with("ERR "), "{r}");
                    }
                    1 => {
                        let r = client.send("SUBMIT nan nan nan");
                        assert!(r.starts_with("ERR "), "{r}");
                    }
                    // Drop the connection cold and carry on elsewhere.
                    2 => client = Client::connect(&addr),
                    _ => {}
                }
            }
            let reply = client.send(&format!("SUBMIT {t} {demand} 1.5"));
            assert!(
                reply.starts_with("ACCEPTED")
                    || reply.starts_with("BUSY")
                    || reply.starts_with("REJECTED"),
                "{reply}"
            );
        }
        drop(client);
        server.request_drain();
        server.shutdown_and_drain()
    };

    let clean = run(false);
    let abused = run(true);
    assert!(abused.is_consistent(), "{abused:?}");
    assert_eq!(clean.requests, abused.requests);
    assert_eq!(
        clean.digest, abused.digest,
        "wire abuse leaked into the accounting"
    );
}

#[test]
fn soak_harness_is_reproducible_end_to_end() {
    let dir = std::env::temp_dir().join(format!("ge-serve-soak-it-{}", std::process::id()));
    let a = run_soak(23, 60, 15.0, &dir, 1).expect("soak run 1");
    let b = run_soak(23, 60, 15.0, &dir, 2).expect("soak run 2");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(a, b, "identically seeded soaks diverged");
}

#[test]
fn slow_clients_are_reaped_while_live_traffic_flows() {
    let mut cfg = exemplar_config(20.0);
    cfg.read_timeout_ms = 150;
    cfg.write_timeout_ms = 150;
    let server = bind(cfg);
    let addr = server.local_addr().to_string();

    // A mute connection: sends nothing, waits to be reaped.
    let _mute = TcpStream::connect(&addr).expect("mute connect");
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.slow_disconnects() == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(
        server.slow_disconnects() >= 1,
        "slowloris connection was never reaped"
    );

    // The server is still fully alive for a real client afterwards.
    let mut client = Client::connect(&addr);
    let reply = client.send("SUBMIT 0.5 300 2");
    assert!(reply.starts_with("ACCEPTED"), "{reply}");
    drop(client);
    server.request_drain();
    let out = server.shutdown_and_drain();
    assert!(out.is_consistent(), "{out:?}");
    assert_eq!(out.requests, 1);
    assert_eq!(out.rejected, 0);
}

#[test]
fn drained_checkpoint_restores_bit_exactly_through_ge_core() {
    let cfg = exemplar_config(20.0);
    let sim = cfg.sim.clone();
    let algorithm = cfg.algorithm.clone();
    let server = bind(cfg);
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr);
    for i in 0..30 {
        let t = 0.1 * f64::from(i);
        client.send(&format!("SUBMIT {t} 500 2.0"));
    }
    drop(client);
    server.request_drain();
    let out = server.shutdown_and_drain();
    assert!(out.is_consistent(), "{out:?}");
    assert!(out.resume_bit_exact, "in-crate resume proof failed");

    // The independent proof: ge-core restores the sealed checkpoint and
    // re-encodes it to the identical bytes.
    let restored = Run::restore(&sim, &Trace::default(), &algorithm, None, &out.checkpoint)
        .expect("checkpoint restores");
    assert_eq!(
        restored.snapshot(),
        out.checkpoint,
        "re-encoded checkpoint differs from the drained one"
    );
}

/// Sorted `(job, processed bits)` pairs, one per job terminal.
fn fates(pairs: impl Iterator<Item = (u64, f64)>) -> Vec<(u64, u64)> {
    let mut v: Vec<(u64, u64)> = pairs.map(|(j, p)| (j, p.to_bits())).collect();
    v.sort_unstable();
    v
}

#[test]
fn a_session_that_admits_everything_equals_the_traced_batch_run() {
    // The serving core learns job fates from the engine's terminal
    // events alone. The reference is an ordinary batch run over the same
    // jobs, traced in full: with admission that never refuses and no
    // quality floor, the two must agree bit for bit.
    for (rate, n, seed) in [(150.0, 4000, 1), (200.0, 6000, 7), (60.0, 2000, 3)] {
        let wc = WorkloadConfig {
            horizon: SimTime::from_secs(2.0 * n as f64 / rate),
            ..WorkloadConfig::paper_default(rate)
        };
        let full = WorkloadGenerator::new(wc, seed).generate();
        let jobs = &full.jobs()[..n.min(full.len())];
        let sim = SimConfig {
            horizon: SimTime::from_secs(jobs[jobs.len() - 1].deadline.as_secs().ceil() + 1.0),
            q_min: 0.0,
            ..SimConfig::paper_default()
        };
        let batch_trace = Trace::new(jobs.to_vec());
        let mut sink = VecSink::new();
        let batch = ge_core::run_with_sink(&sim, &batch_trace, &Algorithm::Ge, None, &mut sink);

        let mut cfg = ServeConfig::new(sim, Algorithm::Ge);
        cfg.queue_high = 1 << 40;
        let mut core = ServeCore::new(cfg);
        for j in jobs {
            let t = j.release.as_secs();
            let out = core
                .submit(t, j.demand, j.deadline.as_secs() - t)
                .expect("in-horizon submit");
            assert!(matches!(out, SubmitOutcome::Admitted { .. }), "{out:?}");
        }
        let served = core.finish_drain();
        assert!(served.is_consistent(), "{served:?}");
        assert_eq!((served.admitted, served.shed), (jobs.len() as u64, 0));

        let case = format!("rate {rate}, n {n}, seed {seed}");
        assert_eq!(
            served.quality.to_bits(),
            batch.quality.to_bits(),
            "{case}: quality"
        );
        assert_eq!(
            served.energy_j.to_bits(),
            batch.energy_j.to_bits(),
            "{case}: energy"
        );
        let batch_fates = fates(sink.events().iter().filter_map(|ev| match *ev {
            TraceEvent::JobFinish { job, processed, .. } => Some((job, processed)),
            _ => None,
        }));
        let served_fates = fates(served.events.iter().filter_map(|ev| match *ev {
            TraceEvent::ServeComplete { req, processed, .. } => Some((req, processed)),
            TraceEvent::ServeTimeout { req, .. } => Some((req, 0.0)),
            _ => None,
        }));
        assert_eq!(batch_fates.len(), jobs.len(), "{case}");
        assert!(batch_fates == served_fates, "{case}: per-job fates differ");
    }
}

#[test]
fn a_deadline_inside_the_time_tolerance_is_refused_before_it_is_booked() {
    // `deadline_rel = 1e-10` passes the parser (it is positive) but puts
    // the deadline within the engine's time tolerance of the arrival, so
    // no job can carry it. The core must answer a typed error without
    // booking the request, and the connection must live on.
    let server = bind(exemplar_config(20.0));
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr);
    let reply = client.send("SUBMIT 1.0 400 0.5");
    assert!(reply.starts_with("ACCEPTED"), "{reply}");
    assert_eq!(client.send("SUBMIT 1.5 400 1e-10"), "ERR invalid-request");
    assert_eq!(client.send("PING"), "PONG");
    let reply = client.send("SUBMIT 2.0 400 0.5");
    assert!(reply.starts_with("ACCEPTED"), "{reply}");
    drop(client);
    server.request_drain();
    let out = server.shutdown_and_drain();
    assert_eq!(out.requests, 2, "{out:?}");
    assert!(out.is_consistent(), "{out:?}");
    let report = replay_serve(&out.events).expect("serve trace replays");
    assert!(report.is_ok(), "{}", report.render());
    assert_eq!(report.requests, 2);
}
