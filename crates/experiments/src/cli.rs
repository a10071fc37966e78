//! The `ge-experiments` command line, declared once.
//!
//! Every flag is one row of the `cli_flags!` table and every run target
//! one row of [`TARGETS`]. The [`Flags`] struct, the parser and the
//! option list of [`usage`] are generated from those two tables, so a
//! flag or a figure cannot be parsed, documented and dispatched under
//! three different spellings.

use crate::CliError;
use ge_core::Algorithm::{self, Ge, GeWfOnly};
use ge_experiments::trace::Exemplar;
use ge_experiments::trace::Windows::{self, Fixed, Random};
use ge_experiments::{ablations, bounds, figures, validation, Scale};
use ge_faults::{FaultScenario, FleetScenario, FleetScenarioKind, ScenarioKind};
use ge_metrics::Table;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::str::FromStr;

/// One declared flag, as the usage text and the tests see it.
pub struct FlagSpec {
    /// The flag as typed, e.g. `--reps`.
    pub name: &'static str,
    /// The value's placeholder (`N`, `DIR`, …), or `None` for a switch.
    pub meta: Option<&'static str>,
    /// The one-line help text.
    pub help: &'static str,
    /// Sample values the flag must refuse; read by the tests.
    #[cfg_attr(not(test), allow(dead_code))]
    pub rejects: &'static [&'static str],
}

macro_rules! some {
    () => {
        None
    };
    ($x:expr) => {
        Some($x)
    };
}

/// The value a flag row assigns: `true` for a switch, else the parsed
/// next argument converted into the field's type.
macro_rules! flag_value {
    ($args:ident) => {
        true
    };
    ($args:ident, $flag:literal, $parse:expr, $expected:expr) => {
        parse_value($flag, $args.next(), $parse, || ($expected).to_string())?.into()
    };
}

/// Generates [`Flags`], its `Default`, its [`FlagSpec`] table and its
/// parser from one row per flag. A row is
/// `field: Type = default, NAME` for a switch, or
/// `field: Type = default, NAME META: parser, "expected"[, reject "bad", …]`
/// for a flag that takes a value (`NAME` is the flag as typed); `parser` is a `fn(&str) -> Option<V>`
/// with `Type: From<V>`, and each `reject` sample must fail it.
macro_rules! cli_flags {
    ($(
        #[doc = $help:literal]
        $field:ident: $ty:ty = $default:expr, $flag:literal
            $( $meta:ident: $parse:expr, $expected:expr $(, reject $($bad:literal),+)? )?;
    )*) => {
        /// Every setting the command line carries; a flag not given keeps
        /// its declared default.
        pub struct Flags {
            $( #[doc = $help] pub $field: $ty, )*
        }

        impl Default for Flags {
            fn default() -> Self {
                Flags { $( $field: $default, )* }
            }
        }

        impl Flags {
            /// Every declared flag, in table order.
            pub const TABLE: &'static [FlagSpec] = &[$(
                FlagSpec {
                    name: $flag,
                    meta: some!($(stringify!($meta))?),
                    help: $help,
                    rejects: &[$($($($bad),+)?)?],
                },
            )*];

            /// Applies `arg` if it is a flag, taking its value from `args`;
            /// `Ok(false)` when `arg` is not a flag.
            fn apply(
                &mut self,
                arg: &str,
                args: &mut impl Iterator<Item = String>,
            ) -> Result<bool, CliError> {
                match arg {
                    $( $flag => self.$field = flag_value!(args $(, $flag, $parse, $expected)?), )*
                    _ => return Ok(false),
                }
                Ok(true)
            }
        }
    };
}

const BIND_ADDR: &str = "HOST:PORT with a numeric port, e.g. 127.0.0.1:0";

cli_flags! {
    /// run at the one-minute smoke scale instead of the paper's 600 s
    quick: bool = false, "--quick";
    /// print an ASCII plot under each table
    plot: bool = false, "--plot";
    /// also write each table as an SVG chart
    svg: bool = false, "--svg";
    /// seeds averaged per point
    reps: Option<u64> = None, "--reps" N: at_least::<u64, 1>, "a positive integer", reject "0";
    /// simulated seconds per run
    horizon: Option<f64> = None, "--horizon" SECS: positive_secs,
        "a finite number of seconds > 0", reject "nan", "-5", "0", "inf";
    /// directory for tables and run artifacts (default results)
    out: PathBuf = PathBuf::from("results"), "--out" DIR: any::<PathBuf>, "a directory path";
    /// write one replay-checked exemplar trace per figure
    trace: Option<PathBuf> = None, "--trace" FILE: any::<PathBuf>, "a trace file path";
    /// run the degradation study under a fault scenario
    faults: Option<ScenarioKind> = None, "--faults" SCENARIO: FaultScenario::parse,
        format!(
            "one of: {} (fleet scenarios go under --fleet)",
            FaultScenario::ALL_NAMES.join(", ")
        ),
        reject "meteor", "servercrash";
    /// run the fleet degradation study under a fleet scenario
    fleet: Option<FleetScenarioKind> = None, "--fleet" SCENARIO: FleetScenario::parse,
        format!("one of: {}", FleetScenario::ALL_NAMES.join(", ")), reject "coreloss";
    /// servers in the fleet study (default 4)
    servers: usize = 4, "--servers" N: at_least::<usize, 2>, "an integer >= 2", reject "1";
    /// run every fault-study cell under the fault-tolerant supervisor
    supervise: bool = false, "--supervise";
    /// attempts per supervised cell (default 3)
    retries: u32 = 3, "--retries" N: at_least::<u32, 1>, "an attempt count >= 1", reject "0";
    /// per-attempt timeout of a supervised cell
    timeout_secs: Option<f64> = None, "--timeout-secs" S: positive_secs,
        "a finite number of seconds > 0", reject "0";
    /// quanta between checkpoints (default 32)
    checkpoint_every: u64 = 32, "--checkpoint-every" K: at_least::<u64, 1>,
        "a positive integer", reject "0";
    /// run one checkpointed GE exemplar cell, checkpointing to FILE
    checkpoint: Option<PathBuf> = None, "--checkpoint" FILE: any::<PathBuf>,
        "a checkpoint file path";
    /// stop the checkpointed run after N checkpoints
    stop_after: Option<u64> = None, "--stop-after" N: at_least::<u64, 1>,
        "a positive integer", reject "0";
    /// continue the checkpointed run from its file, bit-exactly
    resume: bool = false, "--resume";
    /// check every algorithm against the oracle on generated tiny instances
    differential: bool = false, "--differential";
    /// instances in the differential sweep (default 1000)
    instances: u64 = 1000, "--instances" N: at_least::<u64, 1>, "a positive integer", reject "0";
    /// seed of the differential sweep, the replay stream and the soak (default 42)
    seed: u64 = 42, "--seed" S: any::<u64>, "an unsigned 64-bit integer", reject "-1";
    /// run the live serving front end
    serve: bool = false, "--serve";
    /// address the server binds (implies the server; default 127.0.0.1:0)
    serve_addr: Option<String> = None, "--serve-addr" ADDR: bind_addr, BIND_ADDR, reject "7000";
    /// run the deterministic replay client against a server
    serve_replay: Option<String> = None, "--serve-replay" ADDR: bind_addr, BIND_ADDR,
        reject ":7000";
    /// replay pacing: 0 = unpaced, 1 = wall-clock speed (default 0)
    replay_speed: f64 = 0.0, "--replay-speed" X: non_negative, "a finite speed >= 0",
        reject "-1", "nan";
    /// run the in-process chaos harness twice and compare digests
    soak: bool = false, "--soak";
    /// arrivals in the replay or soak stream (default 240)
    requests: u64 = 240, "--requests" N: at_least::<u64, 1>, "a positive integer", reject "0";
    /// serve live Prometheus metrics on ADDR while the run executes
    metrics_addr: Option<String> = None, "--metrics-addr" ADDR: bind_addr, BIND_ADDR,
        reject "localhost:http";
    /// append periodic metrics snapshots as JSONL
    metrics_jsonl: Option<PathBuf> = None, "--metrics-jsonl" FILE: any::<PathBuf>,
        "a JSONL file path";
    /// write the hot-path span profile as folded stacks
    profile_out: Option<PathBuf> = None, "--profile-out" FILE: any::<PathBuf>,
        "a folded-profile file path";
    /// print one scrape of a running metrics endpoint and exit
    scrape: Option<String> = None, "--scrape" ADDR: bind_addr, BIND_ADDR, reject "host:99999";
}

impl Flags {
    /// The run scale: `--quick` picks the preset, and `--reps` and
    /// `--horizon` then override it wherever they stand on the line.
    pub fn scale(&self) -> Scale {
        let mut scale = if self.quick {
            Scale::quick()
        } else {
            Scale::full()
        };
        if let Some(reps) = self.reps {
            scale.replications = reps;
        }
        if let Some(horizon) = self.horizon {
            scale.horizon_secs = horizon;
        }
        scale
    }
}

/// Parses one flag value; a missing or refused value is a typed
/// [`CliError::InvalidFlag`] (one diagnostic line, exit 1).
fn parse_value<V>(
    flag: &'static str,
    raw: Option<String>,
    parse: fn(&str) -> Option<V>,
    expected: impl FnOnce() -> String,
) -> Result<V, CliError> {
    match raw.as_deref().and_then(parse) {
        Some(v) => Ok(v),
        None => Err(CliError::InvalidFlag {
            flag,
            value: raw.unwrap_or_else(|| "<missing>".to_string()),
            expected: expected(),
        }),
    }
}

/// Accepts any value of the type.
fn any<T: FromStr>(s: &str) -> Option<T> {
    s.parse().ok()
}

/// Accepts an integer no smaller than `MIN`.
fn at_least<T: FromStr + PartialOrd + From<u8>, const MIN: u8>(s: &str) -> Option<T> {
    s.parse().ok().filter(|n| *n >= T::from(MIN))
}

/// Accepts a finite, strictly positive number.
fn positive_secs(s: &str) -> Option<f64> {
    s.parse().ok().filter(|v: &f64| v.is_finite() && *v > 0.0)
}

/// Accepts a finite number >= 0.
fn non_negative(s: &str) -> Option<f64> {
    s.parse().ok().filter(|v: &f64| v.is_finite() && *v >= 0.0)
}

/// Syntactic check of an address: `host:port` with a numeric port. Port
/// 0 is welcome where the flag binds, and binds ephemerally; DNS
/// resolution is left to bind or connect time.
fn bind_addr(s: &str) -> Option<String> {
    let (host, port) = s.rsplit_once(':')?;
    (!host.is_empty() && port.parse::<u16>().is_ok()).then(|| s.to_string())
}

/// The family a run target belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    /// A figure of the paper; the only kind `--trace` accepts.
    Figure,
    /// A study beyond the paper, run together by the word `ablations`.
    Ablation,
    /// Everything else.
    Other,
}

/// One run target: the word that names it and what it computes.
pub struct Target {
    /// The command-line word, which is also the stem of its CSV files.
    pub name: &'static str,
    /// Its family.
    pub group: Group,
    /// Computes its tables at a scale.
    pub run: fn(&Scale) -> Vec<Table>,
    /// The cell `--trace` instruments; every figure declares one.
    pub exemplar: Option<Exemplar>,
}

impl Target {
    const fn new(name: &'static str, group: Group, run: fn(&Scale) -> Vec<Table>) -> Self {
        Target {
            name,
            group,
            run,
            exemplar: None,
        }
    }

    /// A figure, traced as `algorithm` over `windows`.
    const fn figure(
        name: &'static str,
        run: fn(&Scale) -> Vec<Table>,
        algorithm: Algorithm,
        windows: Windows,
    ) -> Self {
        Target {
            name,
            group: Group::Figure,
            run,
            exemplar: Some(Exemplar { algorithm, windows }),
        }
    }
}

/// Every run target, in the order `all` runs them. A figure's exemplar is
/// the series it is about: Fig. 4 is GE over its random windows, and
/// Figs. 6 and 7, which contrast the power-split policies, trace pure WF.
pub const TARGETS: &[Target] = &[
    Target::figure("fig1", figures::fig01::run, Ge, Fixed),
    Target::figure("fig3", figures::fig03::run, Ge, Fixed),
    Target::figure("fig4", figures::fig04::run, Ge, Random),
    Target::figure("fig5", figures::fig05::run, Ge, Fixed),
    Target::figure("fig6", figures::fig06::run, GeWfOnly, Fixed),
    Target::figure("fig7", figures::fig07::run, GeWfOnly, Fixed),
    Target::figure("fig8", figures::fig08::run, Ge, Fixed),
    Target::figure("fig9", figures::fig09::run, Ge, Fixed),
    Target::figure("fig10", figures::fig10::run, Ge, Fixed),
    Target::figure("fig11", figures::fig11::run, Ge, Fixed),
    Target::figure("fig12", figures::fig12::run, Ge, Fixed),
    Target::new("ab1", Group::Ablation, ablations::critical_load_sensitivity),
    Target::new("ab2", Group::Ablation, ablations::hybrid_vs_pure),
    Target::new("ab3", Group::Ablation, ablations::ledger_window),
    Target::new("ab4", Group::Ablation, ablations::trigger_sensitivity),
    Target::new("ab5", Group::Ablation, ablations::assignment_policy),
    Target::new("ab6", Group::Ablation, ablations::burstiness),
    Target::new("bounds", Group::Other, bounds::run),
    Target::new("validate", Group::Other, validate),
];

/// The claim suite as one verdict table; failed claims are counted on
/// stderr.
fn validate(scale: &Scale) -> Vec<Table> {
    let claims = validation::validate(scale);
    let failed = claims.iter().filter(|c| !c.passed).count();
    let table = validation::verdict_table(&claims);
    if failed > 0 {
        eprintln!("{failed} claim(s) FAILED");
    }
    vec![table]
}

/// Parses the arguments after the program name into the flags and the
/// targets to run: every target when none is named or `all` is.
/// `ablations` names every ablation row. Help and any unknown word are
/// [`CliError::Usage`], reported before anything runs.
pub fn parse(
    args: impl IntoIterator<Item = String>,
) -> Result<(Flags, Vec<&'static Target>), CliError> {
    let mut flags = Flags::default();
    let mut targets = Vec::new();
    let mut all = false;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if flags.apply(&arg, &mut args)? {
            continue;
        }
        if arg == "all" {
            all = true;
            continue;
        }
        let before = targets.len();
        targets.extend(TARGETS.iter().filter(|t| match arg.as_str() {
            "ablations" => t.group == Group::Ablation,
            word => t.name == word,
        }));
        if targets.len() == before {
            let unknown = (arg != "--help" && arg != "-h").then_some(arg);
            return Err(CliError::Usage { unknown });
        }
    }
    flags.serve |= flags.serve_addr.is_some();
    if all || targets.is_empty() {
        targets = TARGETS.iter().collect();
    }
    Ok((flags, targets))
}

/// What the option list cannot say in one line per flag.
const MODES: &str = "\
modes (the first one given wins, in this order):
  --scrape        one GET of a running metrics endpoint, printed.
  --soak          the chaos harness (garbage frames, partial writes, drops,
                  bursts, slow clients, kill-and-drain) run twice; exits
                  nonzero unless both runs land on the same accounting digest.
  --serve-replay  --requests seeded arrivals fired at a running server, which
                  is then asked to drain.
  --serve         serve until SIGTERM/SIGINT or a client DRAIN, then drain and
                  write the serve trace, the final checkpoint and the
                  decision-latency percentiles under --out. The bound address
                  is printed as 'serve: listening on ADDR'.
  --differential  every algorithm against the ge-oracle certificates; exits
                  nonzero on any disagreement.
  --checkpoint    one GE exemplar cell (under --faults if given), stopped after
                  --stop-after checkpoints or continued with --resume; prints a
                  bit-exact result digest.
  --fleet         every routing policy x budget partitioner over the intensity
                  grid; prints a bit-exact study digest.
  --faults        the scenario over an intensity grid, GE (with the Q_min
                  floor) vs the baselines; with --supervise every cell gets
                  panic isolation, retries, timeouts and checkpoint salvage,
                  and run-manifest.json is written under --out.
  --trace         one instrumented exemplar cell per named figure instead of
                  its tables; later figures get suffixed paths (FILE.fig6.jsonl)
                  and the replay invariant report is printed.
  otherwise       each target's tables, printed and written as CSV under --out.

--metrics-addr (port 0 binds ephemerally), --metrics-jsonl and --profile-out
arm live telemetry for any mode; at exit the endpoint is self-scraped into
<out>/metrics-scrape.txt and a metrics summary is printed.";

/// The usage text: the option list and the targets from their tables,
/// then the modes.
pub fn usage() -> String {
    let mut text = String::from("usage: ge-experiments [OPTION ...] [TARGET ...]\n\noptions:\n");
    for flag in Flags::TABLE {
        let left = match flag.meta {
            Some(meta) => format!("{} {meta}", flag.name),
            None => flag.name.to_string(),
        };
        let _ = writeln!(text, "  {left:<24}{}", flag.help.trim());
    }
    let names = |group| {
        let names: Vec<&str> = TARGETS
            .iter()
            .filter(|t| t.group == group)
            .map(|t| t.name)
            .collect();
        names.join(" ")
    };
    let _ = write!(
        text,
        "\ntargets (default: all):\n  figures    {}\n  ablations  {} (or: ablations)\n  \
         other      {}\n  all        every target above, in this order\n\n\
         fault scenarios: {}\nfleet scenarios: {}\n\n{MODES}",
        names(Group::Figure),
        names(Group::Ablation),
        names(Group::Other),
        FaultScenario::ALL_NAMES.join(", "),
        FleetScenario::ALL_NAMES.join(", "),
    );
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line(line: &str) -> Result<(Flags, Vec<&'static Target>), CliError> {
        parse(line.split_whitespace().map(String::from))
    }

    fn invalid_flag(line: &str) -> &'static str {
        match parse_line(line) {
            Err(CliError::InvalidFlag { flag, .. }) => flag,
            Err(e) => panic!("{line:?}: expected an invalid-value error, got {e}"),
            Ok(_) => panic!("{line:?}: expected an invalid-value error, parsed fine"),
        }
    }

    fn is_usage(line: &str) -> bool {
        matches!(parse_line(line), Err(CliError::Usage { .. }))
    }

    fn names(targets: &[&Target]) -> Vec<&'static str> {
        targets.iter().map(|t| t.name).collect()
    }

    #[test]
    fn every_value_row_refuses_a_missing_value() {
        for flag in Flags::TABLE.iter().filter(|f| f.meta.is_some()) {
            assert_eq!(invalid_flag(&format!("fig1 {}", flag.name)), flag.name);
        }
    }

    #[test]
    fn every_declared_reject_sample_is_refused() {
        let mut samples = 0;
        for flag in Flags::TABLE {
            for bad in flag.rejects {
                assert_eq!(
                    invalid_flag(&format!("{} {bad} fig1", flag.name)),
                    flag.name
                );
                samples += 1;
            }
        }
        assert!(samples >= 20, "only {samples} reject samples declared");
    }

    #[test]
    fn flag_names_are_unique_and_listed_in_usage() {
        let text = usage();
        for (i, flag) in Flags::TABLE.iter().enumerate() {
            assert!(flag.name.starts_with('-'), "{}", flag.name);
            assert!(Flags::TABLE[..i].iter().all(|f| f.name != flag.name));
            assert!(
                text.lines().any(|l| l.trim_start().starts_with(flag.name)),
                "{} missing from usage",
                flag.name
            );
            assert!(
                text.contains(flag.help.trim()),
                "{} help missing",
                flag.name
            );
        }
        for target in TARGETS {
            assert!(
                text.contains(target.name),
                "{} missing from usage",
                target.name
            );
        }
    }

    /// Every `--flag` in a `ge-experiments` command line of the docs is a
    /// table row, so the docs cannot drift from the parser.
    #[test]
    fn documented_invocations_use_declared_flags() {
        let docs = [
            ("README.md", include_str!("../../../README.md")),
            ("EXPERIMENTS.md", include_str!("../../../EXPERIMENTS.md")),
        ];
        let mut seen = 0;
        for (file, doc) in docs {
            let lines: Vec<&str> = doc.lines().collect();
            for (i, line) in lines.iter().enumerate() {
                let Some((_, mut command)) = line.split_once("ge-experiments") else {
                    continue;
                };
                let mut joined = String::new();
                let mut next = i + 1;
                while let Some(rest) = command.trim_end().strip_suffix('\\') {
                    joined.push_str(rest);
                    command = lines.get(next).copied().unwrap_or("");
                    next += 1;
                }
                joined.push_str(command);
                let words = joined.split('#').next().unwrap_or("").split_whitespace();
                for word in words {
                    let word = word.trim_start_matches(['[', '(', '`']);
                    let Some(name) = word
                        .split(|c: char| !c.is_ascii_alphanumeric() && c != '-')
                        .next()
                        .filter(|w| w.len() > 2 && w.bytes().take(2).all(|b| b == b'-'))
                    else {
                        continue;
                    };
                    seen += 1;
                    let help = matches!(parse_line(name), Err(CliError::Usage { unknown: None }));
                    assert!(
                        help || Flags::TABLE.iter().any(|f| f.name == name),
                        "{file}:{}: {name} is not a ge-experiments flag",
                        i + 1
                    );
                }
            }
        }
        assert!(seen >= 30, "only {seen} documented flags found");
    }

    #[test]
    fn scale_does_not_depend_on_flag_order() {
        let (a, _) = parse_line("--quick --horizon 2 --reps 3 fig1").expect("parses");
        let (b, _) = parse_line("--horizon 2 --reps 3 --quick fig1").expect("parses");
        let (a, b) = (a.scale(), b.scale());
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!((a.horizon_secs, a.replications), (2.0, 3));
        assert_eq!(a.rates, Scale::quick().rates);
    }

    #[test]
    fn unknown_targets_are_refused_before_anything_runs() {
        assert!(is_usage("--quick --horizon 1 fig1 fig99"));
        assert!(is_usage("--quick --horizon 1 --trace c.jsonl fig99"));
        assert!(is_usage("abacus"));
        assert!(is_usage("all fig99"));
        assert!(is_usage("--bogus fig1"));
        assert!(is_usage("fig1 --help"));
        let unknown = "fig1 fig99";
        assert!(matches!(
            parse_line(unknown),
            Err(CliError::Usage { unknown: Some(w) }) if unknown.ends_with(&w)
        ));
        assert!(matches!(
            parse_line("-h"),
            Err(CliError::Usage { unknown: None })
        ));
    }

    #[test]
    fn words_expand_in_table_order() {
        let all: Vec<&str> = TARGETS.iter().map(|t| t.name).collect();
        assert_eq!(names(&parse_line("").expect("parses").1), all);
        assert_eq!(names(&parse_line("all").expect("parses").1), all);
        assert_eq!(
            names(&parse_line("ablations bounds").expect("parses").1),
            "ab1 ab2 ab3 ab4 ab5 ab6 bounds"
                .split(' ')
                .collect::<Vec<_>>()
        );
        assert_eq!(names(&parse_line("fig6 all").expect("parses").1), all);
        assert_eq!(
            names(&parse_line("fig6 fig1").expect("parses").1),
            "fig6 fig1".split(' ').collect::<Vec<_>>()
        );
    }

    #[test]
    fn exemplar_mapping() {
        for t in TARGETS {
            assert_eq!(
                t.exemplar.is_some(),
                t.group == Group::Figure,
                "{}: exactly the figures declare an exemplar",
                t.name
            );
        }
        let exemplar = |name: &str| {
            let t = TARGETS.iter().find(|t| t.name == name).expect("declared");
            t.exemplar.clone().expect("a figure")
        };
        assert_eq!(
            exemplar("fig4"),
            Exemplar {
                algorithm: Algorithm::Ge,
                windows: Windows::Random
            }
        );
        for fig in ["fig6", "fig7"] {
            assert_eq!(
                exemplar(fig),
                Exemplar {
                    algorithm: Algorithm::GeWfOnly,
                    windows: Windows::Fixed
                }
            );
        }
        assert_eq!(exemplar("fig12").algorithm, Algorithm::Ge);
    }

    #[test]
    fn values_land_in_their_fields() {
        let (f, _) = parse_line(
            "--faults coreloss --retries 1 --serve-addr 127.0.0.1:0 --replay-speed 0 \
             --out dir --servers 2",
        )
        .expect("parses");
        assert_eq!(f.faults, Some(ScenarioKind::CoreLoss));
        assert_eq!(f.retries, 1);
        assert!(f.serve, "--serve-addr implies --serve");
        assert_eq!(f.serve_addr.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(f.out, PathBuf::from("dir"));
        assert_eq!(f.servers, 2);
        let d = Flags::default();
        assert!(!d.serve && d.faults.is_none() && d.retries == 3 && d.seed == 42);
    }
}
