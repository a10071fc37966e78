//! Corruption-fuzz tests for the JSONL trace parser.
//!
//! `ge_trace::parse_jsonl` guards the replay pipeline against damaged
//! artifacts: truncated writes, bit rot, editor mangling. These tests
//! take a real trace from a faulted run and apply seeded random
//! corruptions — the parser must return `Err` for malformed input and
//! must never panic for *any* input. The generative loop runs on the
//! in-tree property harness, so a panic shrinks to the smallest
//! panicking document.

use ge_core::{run_with_sink, Algorithm, SimConfig};
use ge_faults::{FaultScenario, ScenarioKind};
use ge_integration_tests::prop::{check, shrink_vec, PropConfig, Shrink};
use ge_simcore::{RngStream, SimTime};
use ge_trace::{
    jsonl_line, parse_jsonl, replay, write_jsonl, ReplayError, RunMetaEvent, TraceEvent, VecSink,
    TRACE_SCHEMA,
};
use ge_workload::{WorkloadConfig, WorkloadGenerator};

/// A corrupted trace document: the mutated lines, shrinkable by whole
/// lines so a parser panic reduces to the fewest records that still
/// trigger it.
#[derive(Debug, Clone)]
struct CorruptedDoc {
    lines: Vec<String>,
}

impl CorruptedDoc {
    fn text(&self) -> String {
        self.lines.join("\n")
    }

    /// Applies one random mutation in place.
    fn mutate(lines: &mut Vec<String>, rng: &mut RngStream) {
        let below = |rng: &mut RngStream, n: usize| rng.next_below(n.max(1) as u64) as usize;
        match rng.next_below(5) {
            // Truncate one line mid-JSON.
            0 => {
                let i = below(rng, lines.len());
                let cut = below(rng, lines[i].len());
                lines[i].truncate(cut);
            }
            // Replace one byte with a random printable character.
            1 => {
                let i = below(rng, lines.len());
                let mut bytes = lines[i].clone().into_bytes();
                if !bytes.is_empty() {
                    let pos = below(rng, bytes.len());
                    bytes[pos] = b' ' + rng.next_below(94) as u8;
                    lines[i] = String::from_utf8_lossy(&bytes).into_owned();
                }
            }
            // Swap two lines (may reorder timestamps).
            2 => {
                let i = below(rng, lines.len());
                let j = below(rng, lines.len());
                lines.swap(i, j);
            }
            // Duplicate a line.
            3 => {
                let i = below(rng, lines.len());
                let dup = lines[i].clone();
                lines.insert(i, dup);
            }
            // Delete a line.
            _ => {
                let i = below(rng, lines.len());
                lines.remove(i);
            }
        }
    }
}

impl Shrink for CorruptedDoc {
    fn shrink_candidates(&self) -> Vec<Self> {
        shrink_vec(&self.lines)
            .into_iter()
            .map(|lines| CorruptedDoc { lines })
            .collect()
    }

    fn repro(&self) -> String {
        format!(
            "let text = r#\"{}\"#;\nlet _ = ge_trace::parse_jsonl(text);",
            self.text()
        )
    }
}

/// A small but representative trace: a faulted GE run so the corpus
/// contains every event family (slices, faults, sheds, summaries).
/// Generated once and shared — the corpus itself is deterministic.
fn sample_jsonl() -> &'static str {
    static SAMPLE: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    SAMPLE.get_or_init(|| {
        let cfg = SimConfig {
            horizon: SimTime::from_secs(5.0),
            q_min: 0.8,
            ..SimConfig::paper_default()
        };
        let trace = WorkloadGenerator::new(
            WorkloadConfig {
                horizon: SimTime::from_secs(5.0),
                ..WorkloadConfig::paper_default(150.0)
            },
            61,
        )
        .generate();
        let faults =
            FaultScenario::new(ScenarioKind::Combined, 0.8).build(cfg.cores, cfg.horizon, 61);
        let mut sink = VecSink::new();
        run_with_sink(&cfg, &trace, &Algorithm::Ge, Some(&faults), &mut sink);
        let mut buf = Vec::new();
        write_jsonl(&sink.into_events(), &mut buf).unwrap();
        String::from_utf8(buf).unwrap()
    })
}

#[test]
fn seeded_corruption_never_panics() {
    let clean = sample_jsonl();
    assert!(parse_jsonl(clean).is_ok(), "baseline trace must parse");
    let lines: Vec<&str> = clean.lines().collect();
    assert!(lines.len() > 20, "sample trace is too small to fuzz");

    check(
        "parse_jsonl never panics on corrupted input",
        &PropConfig::cases(128).with_seed(0xFEE1_600D),
        |rng| {
            let mut mutated: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
            // 1–3 stacked mutations: single corruptions plus compounded
            // damage (e.g. a truncation inside a duplicated line).
            for _ in 0..=rng.next_below(3) {
                CorruptedDoc::mutate(&mut mutated, rng);
            }
            CorruptedDoc { lines: mutated }
        },
        |doc| {
            // The only requirement on arbitrary corruption: return, never
            // panic. (Some mutations — e.g. duplicating an idempotent
            // line — legitimately still parse.) A panic is caught by the
            // harness and shrunk to the fewest offending lines.
            let _ = parse_jsonl(&doc.text());
            Ok(())
        },
    );
}

#[test]
fn truncated_line_is_an_error() {
    let clean = sample_jsonl();
    let cut = &clean[..clean.len() * 2 / 3];
    // Chop mid-line: find the last newline and keep half of the next line.
    let last_nl = cut.rfind('\n').unwrap();
    let truncated = &clean[..last_nl + (cut.len() - last_nl) / 2 + 2];
    assert!(
        parse_jsonl(truncated).is_err(),
        "a trace cut mid-record must not parse"
    );
}

#[test]
fn truncated_escape_is_an_error_not_a_panic() {
    // Regression: a string field cut off inside an escape sequence hit
    // parser internals that unwrap()ed the next character. Each of these
    // must surface as a typed parse error.
    let clean = sample_jsonl();
    let line = clean
        .lines()
        .find(|l| l.contains(":\""))
        .expect("trace has a string-bearing record");
    let (prefix, _) = line.split_at(line.find(":\"").unwrap() + 2);

    // A record ending mid-string right after a backslash.
    let cut_at_backslash = format!("{prefix}abc\\");
    // A \u escape with too few hex digits before the line ends.
    let cut_in_unicode = format!("{prefix}abc\\u12");
    // An escape character the format does not define.
    let bad_escape = format!("{prefix}abc\\qdef\"}}");
    for corrupt in [&cut_at_backslash, &cut_in_unicode, &bad_escape] {
        let poisoned = clean.replacen(line, corrupt, 1);
        assert_ne!(poisoned, clean, "substitution must change the text");
        assert!(
            parse_jsonl(&poisoned).is_err(),
            "corrupt escape {corrupt:?} must be a parse error"
        );
    }
}

#[test]
fn non_finite_floats_are_an_error() {
    let clean = sample_jsonl();
    for bad in ["NaN", "Infinity", "-Infinity"] {
        // Replace the first slice's energy figure with a non-finite value.
        let line = clean
            .lines()
            .find(|l| l.contains("\"energy_j\""))
            .expect("trace has an energy-bearing record");
        let field = line
            .split("\"energy_j\":")
            .nth(1)
            .unwrap()
            .split([',', '}'])
            .next()
            .unwrap();
        let poisoned = clean.replacen(
            &format!("\"energy_j\":{field}"),
            &format!("\"energy_j\":{bad}"),
            1,
        );
        assert_ne!(poisoned, clean, "substitution must change the text");
        assert!(
            parse_jsonl(&poisoned).is_err(),
            "{bad} in a float field must be rejected"
        );
    }
}

#[test]
fn out_of_order_timestamps_are_an_error() {
    let clean = sample_jsonl();
    let mut lines: Vec<&str> = clean.lines().collect();
    // Move the final line (the run summary, with the largest timestamp)
    // to the front: the non-decreasing-time check must trip.
    let last = lines.pop().unwrap();
    lines.insert(0, last);
    let reordered = lines.join("\n");
    assert!(
        parse_jsonl(&reordered).is_err(),
        "time-travelling records must be rejected"
    );
}

#[test]
fn corrupted_run_meta_header_is_rejected() {
    let clean = sample_jsonl();
    let meta = TraceEvent::from(RunMetaEvent {
        t: 0.0,
        schema: TRACE_SCHEMA.to_string(),
        seed: 61,
        config_digest: 0xabad_cafe,
        version: "0.1.0".to_string(),
    });
    let header = jsonl_line(&meta);

    // Baseline: the headered document parses and replays clean.
    let headered = format!("{header}\n{clean}");
    let parsed = parse_jsonl(&headered).expect("headered trace parses");
    let report = replay(&parsed).expect("headered trace replays");
    assert!(report.is_ok(), "{:?}", report.issues);

    // A mangled schema tag parses (it is syntactically fine) but replay
    // must refuse the header rather than misread a foreign format.
    let wrong_schema = headered.replacen(TRACE_SCHEMA, "ge-trace/v999", 1);
    let parsed = parse_jsonl(&wrong_schema).expect("still syntactically valid");
    assert!(matches!(replay(&parsed), Err(ReplayError::BadHeader(_))));

    // Truncations anywhere inside the header line are parse errors.
    for cut in 1..header.len() {
        let doc = format!("{}\n{clean}", &header[..cut]);
        assert!(
            parse_jsonl(&doc).is_err(),
            "accepted header truncated at byte {cut}"
        );
    }

    // A header with a missing provenance field is rejected at parse.
    let no_seed = header.replacen("\"seed\":61,", "", 1);
    assert_ne!(no_seed, header);
    assert!(parse_jsonl(&format!("{no_seed}\n{clean}")).is_err());

    // A header buried mid-document (its t=0 stamp time-travels) is a
    // parse error on the wire...
    let mut lines: Vec<&str> = clean.lines().collect();
    lines.insert(lines.len() / 2, &header);
    let buried = lines.join("\n");
    assert!(
        parse_jsonl(&buried).is_err(),
        "a mid-document t=0 header must trip the timestamp check"
    );

    // ...and even an in-memory event stream that smuggles one past the
    // parser is flagged by replay, not silently accepted as provenance.
    let mut events = parse_jsonl(clean).expect("clean trace parses");
    let mid = events.len() / 2;
    events.insert(mid, meta);
    let report = replay(&events).expect("structure is otherwise fine");
    assert!(report
        .issues
        .iter()
        .any(|m| m.contains("misplaced run_meta")));
}

#[test]
fn unknown_record_tag_is_an_error() {
    let clean = sample_jsonl();
    let first = clean.lines().next().unwrap();
    let tag = first
        .split("\"ev\":\"")
        .nth(1)
        .expect("records carry a type tag")
        .split('"')
        .next()
        .unwrap();
    let poisoned = clean.replacen(&format!("\"ev\":\"{tag}\""), "\"ev\":\"time_crystal\"", 1);
    assert!(
        parse_jsonl(&poisoned).is_err(),
        "unknown event tags must be rejected"
    );
}

#[test]
fn overlong_line_is_a_typed_error_not_a_panic() {
    use ge_trace::{parse_jsonl_reader, ParseErrorKind, MAX_JSONL_LINE_BYTES};

    let clean = sample_jsonl();

    // One line padded past the cap: both parsers must refuse it with the
    // typed LineTooLong kind, whatever garbage the padding is.
    let huge = format!("{{\"ev\":\"{}\"}}", "x".repeat(MAX_JSONL_LINE_BYTES));
    let poisoned = format!("{clean}{huge}\n");
    let err = parse_jsonl(&poisoned).expect_err("overlong line must not parse");
    assert_eq!(err.kind, ParseErrorKind::LineTooLong, "{err}");
    let err = parse_jsonl_reader(std::io::Cursor::new(poisoned.as_bytes()))
        .expect_err("overlong line must not parse from a reader");
    assert_eq!(err.kind, ParseErrorKind::LineTooLong, "{err}");

    // A line exactly at the cap is *length*-legal (it still fails as
    // syntax, not as LineTooLong): the boundary is not off by one.
    let at_cap = "y".repeat(MAX_JSONL_LINE_BYTES);
    let err = parse_jsonl(&at_cap).expect_err("garbage is garbage");
    assert_eq!(err.kind, ParseErrorKind::Syntax, "{err}");
}

#[test]
fn endless_unterminated_line_fails_fast_with_bounded_memory() {
    use ge_trace::{parse_jsonl_reader, ParseErrorKind, MAX_JSONL_LINE_BYTES};
    use std::io::Read;

    /// A reader that yields 'z' forever and never a newline — the
    /// hostile-stream case the cap exists for. Counts what was pulled so
    /// the test can prove the parser stopped reading near the cap
    /// instead of buffering gigabytes.
    struct Endless {
        served: usize,
    }

    impl Read for Endless {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            buf.fill(b'z');
            self.served += buf.len();
            Ok(buf.len())
        }
    }

    let mut endless = Endless { served: 0 };
    let err = parse_jsonl_reader(std::io::BufReader::new(&mut endless))
        .expect_err("an endless line must be refused");
    assert_eq!(err.kind, ParseErrorKind::LineTooLong, "{err}");
    assert!(
        endless.served <= MAX_JSONL_LINE_BYTES + 64 * 1024,
        "parser read {} bytes from an endless stream — the cap is not \
         bounding the buffer",
        endless.served
    );
}

#[test]
fn fuzzed_padding_around_the_cap_never_panics() {
    use ge_trace::{parse_jsonl_reader, MAX_JSONL_LINE_BYTES};

    // Seeded lengths straddling the boundary, spliced into a real trace
    // at a random position: no panic, and any Err is fine.
    let clean = sample_jsonl();
    let lines: Vec<&str> = clean.lines().collect();
    let mut rng = RngStream::seed_from_u64(0x10C0_FFEE);
    for _ in 0..32 {
        let len = MAX_JSONL_LINE_BYTES - 512 + rng.next_below(1024) as usize;
        let pad = "p".repeat(len);
        let pos = rng.next_below(lines.len() as u64 + 1) as usize;
        let mut doc: Vec<&str> = lines.clone();
        doc.insert(pos, &pad);
        let text = doc.join("\n");
        let _ = parse_jsonl(&text);
        let _ = parse_jsonl_reader(std::io::Cursor::new(text.as_bytes()));
    }
}
