//! `ge-experiments` — regenerate the paper's figures from the command
//! line.
//!
//! ```text
//! ge-experiments [--quick] [--reps N] [--horizon SECS] [--out DIR] \
//!                [fig1 fig3 fig4 ... | all | ablations | bounds]
//! ```
//!
//! Each figure prints its table(s) and writes CSVs under `--out`
//! (default `results/`).

use ge_core::{Algorithm, CheckpointPolicy, DriveOutcome, Run, RunResult, SimConfig};
use ge_experiments::supervise::{run_supervised_with_injection, write_manifest, SupervisorConfig};
use ge_experiments::trace::TraceError;
use ge_experiments::{figures, Scale};
use ge_faults::{FaultScenario, FleetScenario, FleetScenarioKind, ScenarioKind};
use ge_metrics::{AsciiPlot, SvgChart, Table};
use ge_recover::{CheckpointError, RetryPolicy};
use ge_telemetry::{scrape_text, MetricsServer, PeriodicSnapshots, Telemetry};
use ge_trace::NullSink;
use ge_workload::{WorkloadConfig, WorkloadGenerator};
use std::path::{Path, PathBuf};
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: ge-experiments [--quick] [--plot] [--svg] [--reps N] [--horizon SECS] [--out DIR] \
         [--trace FILE.jsonl] [--faults SCENARIO] [--fleet SCENARIO] [--servers N] \
         [--supervise] [--retries N] \
         [--timeout-secs S] [--checkpoint-every K] \
         [--checkpoint FILE.ckpt] [--stop-after N] [--resume] \
         [--differential] [--instances N] [--seed S] \
         [--serve] [--serve-addr ADDR] [--serve-replay ADDR] \
         [--replay-speed X] [--soak] [--requests N] \
         [--metrics-addr ADDR] [--metrics-jsonl FILE.jsonl] \
         [--profile-out FILE.folded] [--scrape ADDR] \
         [fig1 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12 \
          ab1 ab2 ab3 ab4 ab5 ab6 bounds validate | all | ablations]\n\
         \n\
         --metrics-addr ADDR enables live telemetry and serves Prometheus\n\
         text on http://ADDR/metrics while the run executes (use port 0\n\
         for an ephemeral port; the bound address is printed). At exit the\n\
         endpoint is self-scraped into <out>/metrics-scrape.txt and a\n\
         metrics summary is printed. --profile-out writes the hot-path\n\
         span profile as folded-stack text; --metrics-jsonl appends\n\
         periodic registry snapshots as JSONL. --scrape ADDR prints one\n\
         scrape of a running endpoint and exits.\n\
         \n\
         --trace FILE runs one fully-instrumented exemplar cell per named\n\
         figure, writes the decision trace as JSONL, and prints the replay\n\
         invariant report instead of the figure tables.\n\
         \n\
         --faults SCENARIO runs the degradation study: the scenario swept\n\
         over an intensity grid, GE (with the Q_min floor) vs baselines.\n\
         Add --supervise to run every cell under the fault-tolerant\n\
         supervisor (panic isolation, --retries attempts, per-attempt\n\
         --timeout-secs, checkpoint salvage) and write run-manifest.json\n\
         under --out. Scenarios: {}.\n\
         \n\
         --fleet SCENARIO runs the fleet degradation study over --servers\n\
         servers (default 4): every routing policy × budget partitioner\n\
         combination swept over the intensity grid, with a bit-exact study\n\
         digest printed at the end. Scenarios: {}.\n\
         \n\
         --checkpoint FILE runs one GE exemplar cell, checkpointing every\n\
         --checkpoint-every quanta (optionally stopping after --stop-after\n\
         checkpoints); --resume continues it from FILE bit-exactly.\n\
         \n\
         --differential sweeps --instances generated tiny instances (seeded\n\
         by --seed) through every algorithm and checks each layer against\n\
         the ge-oracle certificates; exits nonzero on any disagreement.\n\
         \n\
         --serve runs the ge-serve live front end on --serve-addr (default\n\
         127.0.0.1:0; port 0 binds ephemerally and the bound address is\n\
         printed as 'serve: listening on ADDR'). The session drains\n\
         gracefully on SIGTERM/SIGINT or a client DRAIN, writing the serve\n\
         trace, the final checkpoint, and decision-latency percentiles\n\
         under --out. --serve-replay ADDR runs the deterministic replay\n\
         client against a running server (--requests arrivals seeded by\n\
         --seed; --replay-speed 0 = unpaced, 1 = wall-clock speed). --soak\n\
         runs the in-process chaos harness twice (garbage frames, partial\n\
         writes, drops, bursts, slow clients, kill-and-drain) and exits\n\
         nonzero unless both runs land on the same accounting digest.",
        FaultScenario::ALL_NAMES.join(", "),
        FleetScenario::ALL_NAMES.join(", ")
    );
    std::process::exit(2);
}

/// A fatal CLI failure: enough context for a one-line diagnostic before
/// exiting nonzero. File I/O on result artifacts never panics — an
/// unwritable `--out`/`--trace` path is a reportable error, not a crash.
#[derive(Debug)]
enum CliError {
    /// Writing an output artifact (CSV, SVG, or trace JSONL) failed.
    Write {
        /// The artifact path that could not be written.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// The traced exemplar run could not produce a verified trace.
    Trace {
        /// The figure whose exemplar was being traced.
        fig: String,
        /// What went wrong in the serialize/parse/replay round-trip.
        source: TraceError,
    },
    /// The replay invariant checker flagged violations in a trace.
    ReplayViolations {
        /// The figure whose trace failed its invariants.
        fig: String,
    },
    /// A checkpointed exemplar run could not save or restore its state.
    Checkpoint {
        /// The underlying checkpoint failure (I/O, corruption, mismatch).
        source: CheckpointError,
    },
    /// The differential sweep found disagreements with the oracle.
    Differential {
        /// How many disagreements the sweep reported.
        count: usize,
    },
    /// A telemetry endpoint operation (bind, scrape, snapshot sink) failed.
    Telemetry {
        /// What was being attempted.
        context: String,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// A flag's value was missing or failed to parse.
    InvalidFlag {
        /// The flag, e.g. `--seed`.
        flag: &'static str,
        /// What was actually supplied (`<missing>` when absent).
        value: String,
        /// A human description of what the flag accepts.
        expected: String,
    },
    /// A serving-mode operation (server, replay client, or soak) failed.
    Serve {
        /// What was being attempted.
        context: String,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// Two identically seeded soak runs disagreed on their accounting
    /// digest — the serving path is not deterministic.
    SoakDigestMismatch {
        /// The first run's digest.
        first: u64,
        /// The second run's digest.
        second: u64,
    },
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Write { path, source } => {
                write!(f, "failed to write {}: {source}", path.display())
            }
            CliError::Trace { fig, source } => write!(f, "{fig}: {source}"),
            CliError::ReplayViolations { fig } => {
                write!(f, "{fig}: trace replay reported invariant violations")
            }
            CliError::Checkpoint { source } => write!(f, "checkpoint: {source}"),
            CliError::Differential { count } => {
                write!(
                    f,
                    "differential sweep: {count} disagreement(s) with the oracle"
                )
            }
            CliError::Telemetry { context, source } => {
                write!(f, "telemetry: {context}: {source}")
            }
            CliError::InvalidFlag {
                flag,
                value,
                expected,
            } => {
                write!(
                    f,
                    "invalid value for {flag}: {value:?} (expected {expected})"
                )
            }
            CliError::Serve { context, source } => {
                write!(f, "serve: {context}: {source}")
            }
            CliError::SoakDigestMismatch { first, second } => {
                write!(
                    f,
                    "soak: accounting digests diverged across two identically \
                     seeded runs: 0x{first:016x} vs 0x{second:016x}"
                )
            }
        }
    }
}

impl std::error::Error for CliError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CliError::Write { source, .. } => Some(source),
            CliError::Trace { source, .. } => Some(source),
            CliError::ReplayViolations { .. } => None,
            CliError::Checkpoint { source } => Some(source),
            CliError::Differential { .. } => None,
            CliError::Telemetry { source, .. } => Some(source),
            CliError::InvalidFlag { .. } => None,
            CliError::Serve { source, .. } => Some(source),
            CliError::SoakDigestMismatch { .. } => None,
        }
    }
}

/// Parses a flag's value argument, turning a missing, malformed or
/// out-of-range value (one `valid` rejects) into a typed
/// [`CliError::InvalidFlag`] (one diagnostic line, exit 1) instead of the
/// full usage dump.
fn parse_flag_value<T: std::str::FromStr>(
    flag: &'static str,
    value: Option<String>,
    expected: &str,
    valid: impl FnOnce(&T) -> bool,
) -> Result<T, CliError> {
    let invalid = |value: String| CliError::InvalidFlag {
        flag,
        value,
        expected: expected.to_string(),
    };
    let raw = value.ok_or_else(|| invalid("<missing>".to_string()))?;
    match raw.parse() {
        Ok(v) if valid(&v) => Ok(v),
        _ => Err(invalid(raw)),
    }
}

/// Accepts any value of the flag's type.
fn any<T>(_: &T) -> bool {
    true
}

/// Accepts a finite, strictly positive number.
fn finite_positive(v: &f64) -> bool {
    v.is_finite() && *v > 0.0
}

/// Syntactic validation of a listen-address flag (`--metrics-addr`,
/// `--serve-addr`): `host:port` with a numeric port — port 0 is welcome
/// and binds ephemerally (DNS resolution is left to bind time).
fn validate_bind_addr(flag: &'static str, addr: String) -> Result<String, CliError> {
    let invalid = || CliError::InvalidFlag {
        flag,
        value: if addr.is_empty() {
            "<missing>".to_string()
        } else {
            addr.clone()
        },
        expected: "HOST:PORT with a numeric port, e.g. 127.0.0.1:0".to_string(),
    };
    let (host, port) = addr.rsplit_once(':').ok_or_else(invalid)?;
    if host.is_empty() || port.parse::<u16>().is_err() {
        return Err(invalid());
    }
    Ok(addr)
}

/// Builds an ASCII plot from a table whose first column is the x axis
/// and whose remaining columns are numeric series. Returns `None` for
/// tables that do not parse as numbers.
fn plot_table(t: &Table) -> Option<AsciiPlot> {
    let csv = t.to_csv();
    let mut lines = csv.lines();
    let headers: Vec<&str> = lines.next()?.split(',').collect();
    if headers.len() < 2 {
        return None;
    }
    let mut columns: Vec<Vec<f64>> = vec![Vec::new(); headers.len()];
    for line in lines {
        for (i, cell) in line.split(',').enumerate() {
            columns.get_mut(i)?.push(cell.parse().ok()?);
        }
    }
    let mut plot = AsciiPlot::standard(t.title().to_string());
    for (i, h) in headers.iter().enumerate().skip(1) {
        let points: Vec<(f64, f64)> = columns[0]
            .iter()
            .copied()
            .zip(columns[i].iter().copied())
            .collect();
        plot.add_series(h.to_string(), points);
    }
    Some(plot)
}

/// Builds an SVG chart from a numeric table (first column = x axis).
fn svg_table(t: &Table) -> Option<SvgChart> {
    let csv = t.to_csv();
    let mut lines = csv.lines();
    let headers: Vec<&str> = lines.next()?.split(',').collect();
    if headers.len() < 2 {
        return None;
    }
    let mut columns: Vec<Vec<f64>> = vec![Vec::new(); headers.len()];
    for line in lines {
        for (i, cell) in line.split(',').enumerate() {
            columns.get_mut(i)?.push(cell.parse().ok()?);
        }
    }
    let mut chart = SvgChart::new(t.title().to_string(), headers[0].to_string(), "value");
    for (i, h) in headers.iter().enumerate().skip(1) {
        let points: Vec<(f64, f64)> = columns[0]
            .iter()
            .copied()
            .zip(columns[i].iter().copied())
            .collect();
        chart.add_series(h.to_string(), points);
    }
    Some(chart)
}

/// Prints a table set and writes each table as `{stem}{a,b,...}.csv`
/// (plus `.svg` when asked) under `out_dir`. Write failures are errors.
fn emit_tables(
    tables: &[Table],
    stem: &str,
    out_dir: &std::path::Path,
    plot: bool,
    svg: bool,
) -> Result<(), CliError> {
    for (i, t) in tables.iter().enumerate() {
        println!("{}", t.to_text());
        if plot {
            if let Some(p) = plot_table(t) {
                println!("{}", p.render());
            }
        }
        let suffix = if tables.len() > 1 {
            ((b'a' + i as u8) as char).to_string()
        } else {
            String::new()
        };
        let path = out_dir.join(format!("{stem}{suffix}.csv"));
        t.write_csv(&path).map_err(|source| CliError::Write {
            path: path.clone(),
            source,
        })?;
        println!("  -> wrote {}", path.display());
        if svg {
            if let Some(chart) = svg_table(t) {
                let spath = out_dir.join(format!("{stem}{suffix}.svg"));
                chart.write(&spath).map_err(|source| CliError::Write {
                    path: spath.clone(),
                    source,
                })?;
                println!("  -> wrote {}", spath.display());
            }
        }
    }
    Ok(())
}

/// A stable FNV-1a digest of a [`RunResult`]'s exact bit patterns, so two
/// runs can be compared for bit-exactness from the shell.
fn result_digest(r: &RunResult) -> u64 {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(r.algorithm.as_bytes());
    for v in [
        r.quality,
        r.energy_j,
        r.aes_fraction,
        r.mean_speed_ghz,
        r.speed_variance,
        r.mean_latency_ms,
        r.core_energy_cv,
    ] {
        bytes.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    for v in [
        r.jobs_finished,
        r.jobs_discarded,
        r.jobs_shed,
        r.jobs_completed_fully,
        r.mode_transitions,
        r.schedule_epochs,
    ] {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    ge_recover::codec::fnv1a64(&bytes)
}

/// Runs (or resumes) one checkpointed GE exemplar cell: the degradation
/// study's configuration at the middle arrival rate, optionally under a
/// mid-intensity fault scenario. Prints the bit-exact result digest on
/// completion so shell tests can compare a straight run against a
/// stop-and-resume run.
fn checkpoint_exemplar(
    scale: &Scale,
    faults_kind: Option<ScenarioKind>,
    path: &Path,
    every_quanta: u64,
    stop_after: Option<u64>,
    resume: bool,
) -> Result<(), CliError> {
    let rate = scale.rates[scale.rates.len() / 2];
    let sim = SimConfig {
        horizon: scale.horizon(),
        q_min: ge_experiments::faults::Q_MIN,
        ..SimConfig::paper_default()
    };
    let workload = WorkloadConfig {
        horizon: scale.horizon(),
        ..WorkloadConfig::paper_default(rate)
    };
    let trace = WorkloadGenerator::new(workload, scale.root_seed).generate();
    let schedule = faults_kind
        .map(|kind| FaultScenario::new(kind, 0.5).build(sim.cores, sim.horizon, scale.root_seed));
    let policy = CheckpointPolicy {
        path: path.to_path_buf(),
        every_quanta,
        stop_after,
    };
    let faults = schedule.as_ref();
    let run = if resume {
        Run::restore_file(&sim, &trace, &Algorithm::Ge, faults, path)
    } else {
        Ok(Run::start(
            &sim,
            &trace,
            &Algorithm::Ge,
            faults,
            &mut NullSink,
        ))
    };
    let outcome = run
        .and_then(|run| run.drive(&policy, &mut NullSink))
        .map_err(|source| CliError::Checkpoint { source })?;
    match outcome {
        DriveOutcome::Finished(r) => {
            println!(
                "finished: digest=0x{:016x} quality={:.6} energy_j={:.3} discarded={}",
                result_digest(&r),
                r.quality,
                r.energy_j,
                r.jobs_discarded
            );
        }
        DriveOutcome::Stopped { at, checkpoints } => {
            println!(
                "stopped: t={:.3}s checkpoints={checkpoints} checkpoint={} (continue with --resume)",
                at.as_secs(),
                path.display()
            );
        }
    }
    Ok(())
}

/// Formats a metric's label set the way the summary prints it.
fn render_labels(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let inner: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
    format!("{{{}}}", inner.join(","))
}

/// Prints every counter, gauge, and histogram in the live registry —
/// the end-of-run telemetry summary.
fn print_telemetry_summary() {
    let snap = Telemetry::registry().snapshot();
    if snap.counters.is_empty() && snap.gauges.is_empty() && snap.hists.is_empty() {
        println!("telemetry: no metrics recorded");
        return;
    }
    println!("telemetry summary:");
    for ((name, labels), v) in &snap.counters {
        println!("  counter   {name}{} = {v}", render_labels(labels));
    }
    for ((name, labels), v) in &snap.gauges {
        println!("  gauge     {name}{} = {v}", render_labels(labels));
    }
    for ((name, labels), h) in &snap.hists {
        let mean = if h.count > 0 {
            h.sum / h.count as f64
        } else {
            0.0
        };
        println!(
            "  histogram {name}{}: count={} mean={:.6} p50={:.6} p99={:.6} max={:.6} dropped={}",
            render_labels(labels),
            h.count,
            mean,
            h.quantile(0.5),
            h.quantile(0.99),
            h.max,
            h.dropped,
        );
    }
}

/// Live-telemetry session for one CLI invocation: enables recording, and
/// while the run executes optionally serves the Prometheus endpoint and
/// appends periodic JSONL snapshots; [`TelemetrySession::finish`] writes
/// the end-of-run artifacts.
struct TelemetrySession {
    server: Option<MetricsServer>,
    snapshots: Option<PeriodicSnapshots>,
    profile_out: Option<PathBuf>,
    out_dir: PathBuf,
}

impl TelemetrySession {
    /// Starts the session, or returns `None` when no telemetry flag was
    /// given (recording then stays off and every site is a no-op).
    fn start(
        metrics_addr: Option<&str>,
        metrics_jsonl: Option<&Path>,
        profile_out: Option<&Path>,
        out_dir: &Path,
    ) -> Result<Option<TelemetrySession>, CliError> {
        if metrics_addr.is_none() && metrics_jsonl.is_none() && profile_out.is_none() {
            return Ok(None);
        }
        Telemetry::enable();
        let server = metrics_addr
            .map(|addr| {
                let s = MetricsServer::bind(addr).map_err(|source| CliError::Telemetry {
                    context: format!("bind metrics endpoint {addr}"),
                    source,
                })?;
                println!(
                    "metrics: serving Prometheus text on http://{}/metrics",
                    s.local_addr()
                );
                Ok(s)
            })
            .transpose()?;
        let snapshots = metrics_jsonl
            .map(|path| {
                PeriodicSnapshots::start(path, Duration::from_millis(250)).map_err(|source| {
                    CliError::Telemetry {
                        context: format!("open snapshot sink {}", path.display()),
                        source,
                    }
                })
            })
            .transpose()?;
        Ok(Some(TelemetrySession {
            server,
            snapshots,
            profile_out: profile_out.map(Path::to_path_buf),
            out_dir: out_dir.to_path_buf(),
        }))
    }

    /// Merges thread-local span profiles, prints the metrics summary,
    /// self-scrapes the endpoint into `<out>/metrics-scrape.txt`, and
    /// writes the folded-stack profile.
    fn finish(self) -> Result<(), CliError> {
        ge_telemetry::flush_thread_profile();
        print_telemetry_summary();
        let _ = std::fs::create_dir_all(&self.out_dir);
        if let Some(server) = self.server {
            let addr = server.local_addr().to_string();
            let text = scrape_text(&addr).map_err(|source| CliError::Telemetry {
                context: format!("self-scrape {addr}"),
                source,
            })?;
            let path = self.out_dir.join("metrics-scrape.txt");
            ge_recover::write_atomic(&path, text.as_bytes()).map_err(|source| CliError::Write {
                path: path.clone(),
                source,
            })?;
            println!(
                "  -> wrote {} ({} scrape(s) served)",
                path.display(),
                server.scrapes()
            );
            server.shutdown();
        }
        if let Some(snapshots) = self.snapshots {
            snapshots.stop().map_err(|source| CliError::Telemetry {
                context: "flush snapshot sink".to_string(),
                source,
            })?;
        }
        if let Some(path) = &self.profile_out {
            if let Some(parent) = path.parent() {
                let _ = std::fs::create_dir_all(parent);
            }
            let folded = ge_telemetry::folded_profile();
            ge_recover::write_atomic(path, folded.as_bytes()).map_err(|source| {
                CliError::Write {
                    path: path.clone(),
                    source,
                }
            })?;
            println!("  -> wrote {} (folded-stack span profile)", path.display());
        }
        Telemetry::disable();
        Ok(())
    }
}

fn main() {
    if let Err(e) = real_main() {
        eprintln!("ge-experiments: error: {e}");
        std::process::exit(1);
    }
}

fn real_main() -> Result<(), CliError> {
    let mut scale = Scale::full();
    let mut out_dir = PathBuf::from("results");
    let mut plot = false;
    let mut svg = false;
    let mut trace_path: Option<PathBuf> = None;
    let mut faults_kind: Option<ScenarioKind> = None;
    let mut fleet_kind: Option<FleetScenarioKind> = None;
    let mut servers: usize = 4;
    let mut supervise = false;
    let mut drill_cell: Option<usize> = None;
    let mut retries: u32 = 3;
    let mut timeout_secs: Option<f64> = None;
    let mut checkpoint_every: u64 = 32;
    let mut checkpoint_path: Option<PathBuf> = None;
    let mut stop_after: Option<u64> = None;
    let mut resume = false;
    let mut differential = false;
    let mut instances: u64 = 1000;
    let mut seed: u64 = 42;
    let mut serve = false;
    let mut serve_addr = String::from("127.0.0.1:0");
    let mut serve_replay: Option<String> = None;
    let mut replay_speed: f64 = 0.0;
    let mut soak = false;
    let mut requests: u64 = 240;
    let mut metrics_addr: Option<String> = None;
    let mut metrics_jsonl: Option<PathBuf> = None;
    let mut profile_out: Option<PathBuf> = None;
    let mut scrape_addr: Option<String> = None;
    let mut figs: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => scale = Scale::quick(),
            "--plot" => plot = true,
            "--svg" => svg = true,
            "--reps" => {
                scale.replications =
                    parse_flag_value("--reps", args.next(), "a positive integer", |&n| n >= 1)?;
            }
            "--horizon" => {
                scale.horizon_secs = parse_flag_value(
                    "--horizon",
                    args.next(),
                    "a finite number of seconds > 0",
                    finite_positive,
                )?;
            }
            "--out" => {
                out_dir = parse_flag_value("--out", args.next(), "a directory path", any)?;
            }
            "--trace" => {
                trace_path = Some(parse_flag_value(
                    "--trace",
                    args.next(),
                    "a trace file path",
                    any,
                )?);
            }
            "--faults" => {
                let name = args.next().unwrap_or_default();
                faults_kind = match FaultScenario::parse(&name) {
                    Some(kind) => Some(kind),
                    None => {
                        return Err(CliError::InvalidFlag {
                            flag: "--faults",
                            value: if name.is_empty() {
                                "<missing>".to_string()
                            } else {
                                name
                            },
                            expected: format!(
                                "one of: {} (fleet scenarios go under --fleet)",
                                FaultScenario::ALL_NAMES.join(", ")
                            ),
                        });
                    }
                };
            }
            "--supervise" => supervise = true,
            "--supervise-drill" => {
                drill_cell = Some(parse_flag_value(
                    "--supervise-drill",
                    args.next(),
                    "a cell index",
                    any,
                )?);
                supervise = true;
            }
            "--retries" => {
                retries = parse_flag_value("--retries", args.next(), "a retry count", any)?;
            }
            "--timeout-secs" => {
                timeout_secs = Some(parse_flag_value(
                    "--timeout-secs",
                    args.next(),
                    "a finite number of seconds > 0",
                    finite_positive,
                )?);
            }
            "--checkpoint-every" => {
                checkpoint_every = parse_flag_value(
                    "--checkpoint-every",
                    args.next(),
                    "a positive integer",
                    |&k| k >= 1,
                )?;
            }
            "--checkpoint" => {
                checkpoint_path = Some(parse_flag_value(
                    "--checkpoint",
                    args.next(),
                    "a checkpoint file path",
                    any,
                )?);
            }
            "--stop-after" => {
                stop_after = Some(parse_flag_value(
                    "--stop-after",
                    args.next(),
                    "a positive integer",
                    |&n| n >= 1,
                )?);
            }
            "--resume" => resume = true,
            "--differential" => differential = true,
            "--instances" => {
                instances =
                    parse_flag_value("--instances", args.next(), "a positive integer", |&n| {
                        n >= 1
                    })?;
            }
            "--seed" => {
                seed = parse_flag_value("--seed", args.next(), "an unsigned 64-bit integer", any)?;
            }
            "--fleet" => {
                let name = args.next().unwrap_or_default();
                fleet_kind = match FleetScenario::parse(&name) {
                    Some(kind) => Some(kind),
                    None => {
                        return Err(CliError::InvalidFlag {
                            flag: "--fleet",
                            value: if name.is_empty() {
                                "<missing>".to_string()
                            } else {
                                name
                            },
                            expected: format!("one of: {}", FleetScenario::ALL_NAMES.join(", ")),
                        });
                    }
                };
            }
            "--servers" => {
                servers =
                    parse_flag_value("--servers", args.next(), "an integer >= 2", |&n| n >= 2)?;
            }
            "--metrics-addr" => {
                metrics_addr = Some(validate_bind_addr(
                    "--metrics-addr",
                    args.next().unwrap_or_default(),
                )?);
            }
            "--serve" => serve = true,
            "--serve-addr" => {
                serve_addr = validate_bind_addr("--serve-addr", args.next().unwrap_or_default())?;
                serve = true;
            }
            "--serve-replay" => {
                serve_replay = Some(parse_flag_value(
                    "--serve-replay",
                    args.next(),
                    "a server address HOST:PORT",
                    any,
                )?);
            }
            "--replay-speed" => {
                replay_speed = parse_flag_value(
                    "--replay-speed",
                    args.next(),
                    "a finite speed >= 0",
                    |s: &f64| s.is_finite() && *s >= 0.0,
                )?;
            }
            "--soak" => soak = true,
            "--requests" => {
                requests =
                    parse_flag_value("--requests", args.next(), "a positive integer", |&n| n >= 1)?;
            }
            "--metrics-jsonl" => {
                metrics_jsonl = Some(parse_flag_value(
                    "--metrics-jsonl",
                    args.next(),
                    "a JSONL file path",
                    any,
                )?);
            }
            "--profile-out" => {
                profile_out = Some(parse_flag_value(
                    "--profile-out",
                    args.next(),
                    "a folded-profile file path",
                    any,
                )?);
            }
            "--scrape" => {
                scrape_addr = Some(parse_flag_value(
                    "--scrape",
                    args.next(),
                    "a metrics address HOST:PORT",
                    any,
                )?);
            }
            "--help" | "-h" => usage(),
            name if name.starts_with("fig")
                || name.starts_with("ab")
                || name == "all"
                || name == "bounds"
                || name == "validate"
                || name == "ablations" =>
            {
                figs.push(name.to_string())
            }
            _ => usage(),
        }
    }

    // Scrape client mode: one GET against a running endpoint, then exit.
    if let Some(addr) = &scrape_addr {
        let text = scrape_text(addr).map_err(|source| CliError::Telemetry {
            context: format!("scrape {addr}"),
            source,
        })?;
        print!("{text}");
        return Ok(());
    }

    let telemetry = TelemetrySession::start(
        metrics_addr.as_deref(),
        metrics_jsonl.as_deref(),
        profile_out.as_deref(),
        &out_dir,
    )?;
    let result = run_modes(RunModes {
        scale: &scale,
        out_dir: &out_dir,
        plot,
        svg,
        trace_path: trace_path.as_deref(),
        faults_kind,
        fleet_kind,
        servers,
        supervise,
        drill_cell,
        retries,
        timeout_secs,
        checkpoint_every,
        checkpoint_path: checkpoint_path.as_deref(),
        stop_after,
        resume,
        differential,
        instances,
        seed,
        serve,
        serve_addr: &serve_addr,
        serve_replay: serve_replay.as_deref(),
        replay_speed,
        soak,
        requests,
        figs,
    });
    // The run's own error takes precedence, but the telemetry artifacts
    // are flushed (and the endpoint torn down) either way.
    match telemetry {
        Some(t) => result.and_then(|()| t.finish()),
        None => result,
    }
}

/// Everything the mode dispatcher needs, parsed off the command line.
struct RunModes<'a> {
    scale: &'a Scale,
    out_dir: &'a Path,
    plot: bool,
    svg: bool,
    trace_path: Option<&'a Path>,
    faults_kind: Option<ScenarioKind>,
    fleet_kind: Option<FleetScenarioKind>,
    servers: usize,
    supervise: bool,
    drill_cell: Option<usize>,
    retries: u32,
    timeout_secs: Option<f64>,
    checkpoint_every: u64,
    checkpoint_path: Option<&'a Path>,
    stop_after: Option<u64>,
    resume: bool,
    differential: bool,
    instances: u64,
    seed: u64,
    serve: bool,
    serve_addr: &'a str,
    serve_replay: Option<&'a str>,
    replay_speed: f64,
    soak: bool,
    requests: u64,
    figs: Vec<String>,
}

/// Dispatches to the selected mode (differential / checkpoint / faults /
/// trace / figures) and runs it to completion.
fn run_modes(modes: RunModes<'_>) -> Result<(), CliError> {
    let RunModes {
        scale,
        out_dir,
        plot,
        svg,
        trace_path,
        faults_kind,
        fleet_kind,
        servers,
        supervise,
        drill_cell,
        retries,
        timeout_secs,
        checkpoint_every,
        checkpoint_path,
        stop_after,
        resume,
        differential,
        instances,
        seed,
        serve,
        serve_addr,
        serve_replay,
        replay_speed,
        soak,
        requests,
        mut figs,
    } = modes;

    // Soak mode: two identically seeded in-process chaos runs; their
    // accounting digests must agree bit-for-bit.
    if soak {
        let started = std::time::Instant::now();
        let horizon = scale.horizon_secs;
        let first = ge_experiments::serve::run_soak(seed, requests, horizon, out_dir, 1).map_err(
            |source| CliError::Serve {
                context: "soak run 1".to_string(),
                source,
            },
        )?;
        let second = ge_experiments::serve::run_soak(seed, requests, horizon, out_dir, 2).map_err(
            |source| CliError::Serve {
                context: "soak run 2".to_string(),
                source,
            },
        )?;
        if first != second {
            return Err(CliError::SoakDigestMismatch { first, second });
        }
        println!("soak: digests agree across two runs: 0x{first:016x}");
        println!("  (soak done in {:.1?})\n", started.elapsed());
        return Ok(());
    }

    // Replay-client mode: fire the seeded arrival stream at a running
    // server, tally the replies, and ask it to drain.
    if let Some(addr) = serve_replay {
        let summary = ge_experiments::serve::run_replay(
            addr,
            seed,
            requests,
            scale.horizon_secs,
            replay_speed,
        )
        .map_err(|source| CliError::Serve {
            context: format!("replay against {addr}"),
            source,
        })?;
        println!("{}", summary.render());
        return Ok(());
    }

    // Server mode: serve until a client drains us or SIGTERM arrives,
    // then drain gracefully and write the session artifacts.
    if serve {
        ge_experiments::serve::run_server(serve_addr, scale.horizon_secs, out_dir).map_err(
            |source| CliError::Serve {
                context: format!("session on {serve_addr}"),
                source,
            },
        )?;
        return Ok(());
    }

    // Differential mode: generated tiny instances, every algorithm
    // against the ge-oracle certificates and the clairvoyant bound.
    if differential {
        let started = std::time::Instant::now();
        let scratch = out_dir.join("differential-scratch");
        let report = ge_experiments::differential::run_differential(instances, seed, &scratch);
        println!("{report}");
        println!("  (differential done in {:.1?})\n", started.elapsed());
        if !report.clean() {
            return Err(CliError::Differential {
                count: report.disagreements.len(),
            });
        }
        return Ok(());
    }

    // Checkpoint exemplar mode: one GE cell, checkpointed (and possibly
    // stopped/resumed) — the substrate behind the kill-and-resume smoke.
    if let Some(path) = checkpoint_path {
        return checkpoint_exemplar(
            scale,
            faults_kind,
            path,
            checkpoint_every,
            stop_after,
            resume,
        );
    }

    // Fleet mode: the fleet degradation study (policy × partitioner
    // curves vs failure intensity), no figure tables.
    if let Some(kind) = fleet_kind {
        let started = std::time::Instant::now();
        let stem = format!("fleet-{}", kind.name());
        let (tables, digest) = ge_experiments::fleet::run(kind, scale, servers);
        emit_tables(&tables, &stem, out_dir, plot, svg)?;
        // Bit-exact over the whole study; shell tests compare two runs.
        println!("fleet digest=0x{digest:016x}");
        println!("  ({stem} done in {:.1?})\n", started.elapsed());
        return Ok(());
    }

    // Faults mode: the degradation study, no figure tables.
    if let Some(kind) = faults_kind {
        let started = std::time::Instant::now();
        let stem = format!("faults-{}", kind.name());
        let tables = if supervise {
            let cfg = SupervisorConfig {
                retry: RetryPolicy {
                    max_attempts: retries.max(1),
                    timeout: timeout_secs.map(Duration::from_secs_f64),
                    ..RetryPolicy::default()
                },
                checkpoint_dir: out_dir.join("checkpoints"),
                checkpoint_every,
            };
            let study = run_supervised_with_injection(kind, scale, &cfg, drill_cell);
            for r in &study.reports {
                println!(
                    "  [{:>8}] {} (attempts: {}{})",
                    r.outcome.as_str(),
                    r.name,
                    r.attempts,
                    r.error
                        .as_deref()
                        .map(|e| format!(", last error: {e}"))
                        .unwrap_or_default()
                );
            }
            let manifest = out_dir.join("run-manifest.json");
            write_manifest(&manifest, kind.name(), &study.reports).map_err(|source| {
                CliError::Write {
                    path: manifest.clone(),
                    source,
                }
            })?;
            println!("  -> wrote {}", manifest.display());
            study.tables
        } else {
            ge_experiments::faults::run(kind, scale)
        };
        emit_tables(&tables, &stem, out_dir, plot, svg)?;
        println!("  ({stem} done in {:.1?})\n", started.elapsed());
        return Ok(());
    }

    if figs.is_empty() || figs.iter().any(|f| f == "all") {
        // `all` really means all: every figure, every ablation, the
        // bounds study, and the validation suite.
        figs = vec![
            "fig1",
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "fig11",
            "fig12",
            "ablations",
            "bounds",
            "validate",
        ]
        .into_iter()
        .map(String::from)
        .collect();
    }
    if figs.iter().any(|f| f == "ablations") {
        figs.retain(|f| f != "ablations");
        figs.extend(["ab1", "ab2", "ab3", "ab4", "ab5", "ab6"].map(String::from));
    }

    // Trace mode: one instrumented exemplar run per figure, no tables.
    if let Some(base) = trace_path {
        for (i, fig) in figs.iter().enumerate() {
            if !fig.starts_with("fig") {
                eprintln!("--trace only applies to figures; skipping {fig}");
                continue;
            }
            let started = std::time::Instant::now();
            let run = ge_experiments::trace::traced_exemplar(fig, scale).map_err(|source| {
                CliError::Trace {
                    fig: fig.clone(),
                    source,
                }
            })?;
            // With several figures named, suffix the path with each one.
            let path = if i == 0 {
                base.to_path_buf()
            } else {
                base.with_extension(format!("{fig}.jsonl"))
            };
            let mut jsonl = Vec::new();
            ge_trace::write_jsonl(&run.events, &mut jsonl).map_err(|source| CliError::Trace {
                fig: fig.clone(),
                source: TraceError::Serialize(source),
            })?;
            ge_recover::write_atomic(&path, &jsonl).map_err(|source| CliError::Write {
                path: path.clone(),
                source,
            })?;
            println!(
                "{fig}: wrote {} events to {} ({:.1?})",
                run.events.len(),
                path.display(),
                started.elapsed()
            );
            println!("{}", run.report.render());
            if !run.report.is_ok() {
                return Err(CliError::ReplayViolations { fig: fig.clone() });
            }
        }
        return Ok(());
    }

    for fig in &figs {
        let started = std::time::Instant::now();
        let tables: Vec<Table> = match fig.as_str() {
            "fig1" => figures::fig01::run(scale),
            "fig3" => figures::fig03::run(scale),
            "fig4" => figures::fig04::run(scale),
            "fig5" => figures::fig05::run(scale),
            "fig6" => figures::fig06::run(scale),
            "fig7" => figures::fig07::run(scale),
            "fig8" => figures::fig08::run(scale),
            "fig9" => figures::fig09::run(scale),
            "fig10" => figures::fig10::run(scale),
            "fig11" => figures::fig11::run(scale),
            "fig12" => figures::fig12::run(scale),
            "ab1" => ge_experiments::ablations::critical_load_sensitivity(scale),
            "ab2" => ge_experiments::ablations::hybrid_vs_pure(scale),
            "ab3" => ge_experiments::ablations::ledger_window(scale),
            "ab4" => ge_experiments::ablations::trigger_sensitivity(scale),
            "ab5" => ge_experiments::ablations::assignment_policy(scale),
            "ab6" => ge_experiments::ablations::burstiness(scale),
            "bounds" => ge_experiments::bounds::run(scale),
            "validate" => {
                let claims = ge_experiments::validation::validate(scale);
                let failed = claims.iter().filter(|c| !c.passed).count();
                let table = ge_experiments::validation::verdict_table(&claims);
                if failed > 0 {
                    eprintln!("{failed} claim(s) FAILED");
                }
                vec![table]
            }
            other => {
                eprintln!("unknown figure: {other}");
                usage();
            }
        };
        emit_tables(&tables, fig, out_dir, plot, svg)?;
        println!("  ({fig} done in {:.1?})\n", started.elapsed());
    }
    Ok(())
}
