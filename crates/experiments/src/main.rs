//! `ge-experiments` — regenerate the paper's figures from the command
//! line.
//!
//! ```text
//! ge-experiments [OPTION ...] [fig1 fig3 ... | ab1 ... | bounds | validate | all | ablations]
//! ```
//!
//! Each target prints its table(s) and writes CSVs under `--out`
//! (default `results/`). `--help` lists every option; the flags and the
//! targets are declared once, in [`cli`].

mod cli;

use cli::{Flags, Target};
use ge_core::{Algorithm, CheckpointPolicy, DriveOutcome, Run, RunResult};
use ge_experiments::faults::FaultCell;
use ge_experiments::supervise::{run_supervised, write_manifest, SupervisorConfig};
use ge_experiments::trace::TraceError;
use ge_experiments::Scale;
use ge_faults::ScenarioKind;
use ge_metrics::{AsciiPlot, SvgChart, Table};
use ge_recover::{CheckpointError, RetryPolicy};
use ge_telemetry::{scrape_text, MetricsServer, PeriodicSnapshots, Telemetry};
use ge_trace::NullSink;
use std::path::{Path, PathBuf};
use std::time::Duration;

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
        /// What went wrong in the parse/replay round-trip.
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
    /// `--help`, or a word that is neither a flag nor a target: print the
    /// usage text and exit 2.
    Usage {
        /// The unrecognised word (`None` for `--help`).
        unknown: Option<String>,
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
            CliError::Usage {
                unknown: Some(word),
            } => write!(f, "unknown argument: {word}"),
            CliError::Usage { unknown: None } => write!(f, "usage requested"),
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
            CliError::Usage { .. } | CliError::InvalidFlag { .. } => None,
            CliError::Serve { source, .. } => Some(source),
            CliError::SoakDigestMismatch { .. } => None,
        }
    }
}

/// One named series of a numeric table: `(x, y)` points, with the
/// table's first column as the x axis.
type Series = (String, Vec<(f64, f64)>);

/// Splits a table whose first column is the x axis and whose remaining
/// columns are numeric into the x axis's name and one series per column.
/// Returns `None` for tables that do not parse as numbers.
fn numeric_series(t: &Table) -> Option<(String, Vec<Series>)> {
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
    let series = headers
        .iter()
        .zip(&columns)
        .skip(1)
        .map(|(h, ys)| {
            (
                h.to_string(),
                columns[0].iter().copied().zip(ys.iter().copied()).collect(),
            )
        })
        .collect();
    Some((headers[0].to_string(), series))
}

/// Builds an ASCII plot from a numeric table (first column = x axis).
fn plot_table(t: &Table) -> Option<AsciiPlot> {
    let (_, series) = numeric_series(t)?;
    let mut plot = AsciiPlot::standard(t.title().to_string());
    for (name, points) in series {
        plot.add_series(name, points);
    }
    Some(plot)
}

/// Builds an SVG chart from a numeric table (first column = x axis).
fn svg_table(t: &Table) -> Option<SvgChart> {
    let (x, series) = numeric_series(t)?;
    let mut chart = SvgChart::new(t.title().to_string(), x, "value");
    for (name, points) in series {
        chart.add_series(name, points);
    }
    Some(chart)
}

/// Prints a table set and writes each table as `{stem}{a,b,...}.csv`
/// (plus `.svg` with `--svg`) under `--out`. Write failures are errors.
fn emit_tables(tables: &[Table], stem: &str, flags: &Flags) -> Result<(), CliError> {
    for (i, t) in tables.iter().enumerate() {
        println!("{}", t.to_text());
        if flags.plot {
            if let Some(p) = plot_table(t) {
                println!("{}", p.render());
            }
        }
        let suffix = if tables.len() > 1 {
            ((b'a' + i as u8) as char).to_string()
        } else {
            String::new()
        };
        let path = flags.out.join(format!("{stem}{suffix}.csv"));
        t.write_csv(&path).map_err(|source| CliError::Write {
            path: path.clone(),
            source,
        })?;
        println!("  -> wrote {}", path.display());
        if flags.svg {
            if let Some(chart) = svg_table(t) {
                let spath = flags.out.join(format!("{stem}{suffix}.svg"));
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
fn checkpoint_exemplar(scale: &Scale, flags: &Flags, path: &Path) -> Result<(), CliError> {
    // The `--faults` study's GE cell at intensity 0.5 and the root seed;
    // without `--faults` the same arrival stream runs with no faults (the
    // scenario kind then picks nothing).
    let kind = flags.faults.unwrap_or(ScenarioKind::Combined);
    let cell = FaultCell::new(kind, 0.5, Algorithm::Ge, scale.root_seed, scale);
    let (sim, trace) = (&cell.sim, cell.trace());
    let schedule = flags.faults.map(|_| cell.schedule());
    let policy = CheckpointPolicy {
        path: path.to_path_buf(),
        every_quanta: flags.checkpoint_every,
        stop_after: flags.stop_after,
    };
    let faults = schedule.as_ref();
    let run = if flags.resume {
        Run::restore_file(sim, &trace, &cell.algorithm, faults, path)
    } else {
        Ok(Run::start(
            sim,
            &trace,
            &cell.algorithm,
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
    fn start(flags: &Flags) -> Result<Option<TelemetrySession>, CliError> {
        if flags.metrics_addr.is_none()
            && flags.metrics_jsonl.is_none()
            && flags.profile_out.is_none()
        {
            return Ok(None);
        }
        Telemetry::enable();
        let server = flags
            .metrics_addr
            .as_deref()
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
        let snapshots = flags
            .metrics_jsonl
            .as_deref()
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
            profile_out: flags.profile_out.clone(),
            out_dir: flags.out.clone(),
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
        if let CliError::Usage { unknown } = &e {
            if unknown.is_some() {
                eprintln!("ge-experiments: {e}");
            }
            eprintln!("{}", cli::usage());
            std::process::exit(2);
        }
        eprintln!("ge-experiments: error: {e}");
        std::process::exit(1);
    }
}

fn real_main() -> Result<(), CliError> {
    let (flags, targets) = cli::parse(std::env::args().skip(1))?;

    // Scrape client mode: one GET against a running endpoint, then exit.
    if let Some(addr) = &flags.scrape {
        let text = scrape_text(addr).map_err(|source| CliError::Telemetry {
            context: format!("scrape {addr}"),
            source,
        })?;
        print!("{text}");
        return Ok(());
    }

    let telemetry = TelemetrySession::start(&flags)?;
    let result = run_modes(&flags, &targets);
    // The run's own error takes precedence, but the telemetry artifacts
    // are flushed (and the endpoint torn down) either way.
    match telemetry {
        Some(t) => result.and_then(|()| t.finish()),
        None => result,
    }
}

/// Dispatches to the selected mode (soak / replay / serve / differential /
/// checkpoint / fleet / faults / trace / targets) and runs it to
/// completion.
fn run_modes(flags: &Flags, targets: &[&Target]) -> Result<(), CliError> {
    let scale = &flags.scale();
    let out_dir = flags.out.as_path();
    let seed = flags.seed;

    // Soak mode: two identically seeded in-process chaos runs; their
    // accounting digests must agree bit-for-bit.
    if flags.soak {
        let started = std::time::Instant::now();
        let (requests, horizon) = (flags.requests, scale.horizon_secs);
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
    if let Some(addr) = &flags.serve_replay {
        let summary = ge_experiments::serve::run_replay(
            addr,
            seed,
            flags.requests,
            scale.horizon_secs,
            flags.replay_speed,
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
    if flags.serve {
        let addr = flags.serve_addr.as_deref().unwrap_or("127.0.0.1:0");
        ge_experiments::serve::run_server(addr, scale.horizon_secs, out_dir).map_err(|source| {
            CliError::Serve {
                context: format!("session on {addr}"),
                source,
            }
        })?;
        return Ok(());
    }

    // Differential mode: generated tiny instances, every algorithm
    // against the ge-oracle certificates and the clairvoyant bound.
    if flags.differential {
        let started = std::time::Instant::now();
        let scratch = out_dir.join("differential-scratch");
        let report =
            ge_experiments::differential::run_differential(flags.instances, seed, &scratch);
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
    if let Some(path) = &flags.checkpoint {
        return checkpoint_exemplar(scale, flags, path);
    }

    // Fleet mode: the fleet degradation study (policy × partitioner
    // curves vs failure intensity), no figure tables.
    if let Some(kind) = flags.fleet {
        let started = std::time::Instant::now();
        let stem = format!("fleet-{}", kind.name());
        let (tables, digest) = ge_experiments::fleet::run(kind, scale, flags.servers);
        emit_tables(&tables, &stem, flags)?;
        // Bit-exact over the whole study; shell tests compare two runs.
        println!("fleet digest=0x{digest:016x}");
        println!("  ({stem} done in {:.1?})\n", started.elapsed());
        return Ok(());
    }

    // Faults mode: the degradation study, no figure tables.
    if let Some(kind) = flags.faults {
        let started = std::time::Instant::now();
        let stem = format!("faults-{}", kind.name());
        let tables = if flags.supervise {
            let cfg = SupervisorConfig {
                retry: RetryPolicy {
                    max_attempts: flags.retries,
                    timeout: flags.timeout_secs.map(Duration::from_secs_f64),
                    ..RetryPolicy::default()
                },
                checkpoint_dir: out_dir.join("checkpoints"),
                checkpoint_every: flags.checkpoint_every,
            };
            let study = run_supervised(kind, scale, &cfg);
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
        emit_tables(&tables, &stem, flags)?;
        println!("  ({stem} done in {:.1?})\n", started.elapsed());
        return Ok(());
    }

    // Trace mode: one instrumented exemplar run per figure, no tables.
    if let Some(base) = &flags.trace {
        for (i, target) in targets.iter().enumerate() {
            let fig = target.name;
            let Some(exemplar) = &target.exemplar else {
                eprintln!("--trace only applies to figures; skipping {fig}");
                continue;
            };
            let started = std::time::Instant::now();
            // With several figures named, suffix the path with each one.
            let path = if i == 0 {
                base.to_path_buf()
            } else {
                base.with_extension(format!("{fig}.jsonl"))
            };
            let run = ge_experiments::trace::traced_exemplar(exemplar, scale, &path).map_err(
                |source| CliError::Trace {
                    fig: fig.to_string(),
                    source,
                },
            )?;
            // Commit the bytes the replay certified, not a re-serialization.
            run.file.commit().map_err(|source| CliError::Write {
                path: path.clone(),
                source,
            })?;
            println!(
                "{fig}: wrote {} events to {} ({:.1?})",
                run.event_count,
                path.display(),
                started.elapsed()
            );
            println!("{}", run.report.render());
            if !run.report.is_ok() {
                return Err(CliError::ReplayViolations {
                    fig: fig.to_string(),
                });
            }
        }
        return Ok(());
    }

    for target in targets {
        let started = std::time::Instant::now();
        let tables = (target.run)(scale);
        emit_tables(&tables, target.name, flags)?;
        println!("  ({} done in {:.1?})\n", target.name, started.elapsed());
    }
    Ok(())
}
