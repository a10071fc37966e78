//! Hand-rolled JSONL / CSV exporters and the matching JSONL parser.
//!
//! No serde: events are flat (one level, scalar fields), so a small
//! writer/parser pair keeps the workspace dependency-free. Nothing here
//! is per-event: the event table in [`crate::event`] generates each
//! variant's field walk and constructor, and the private `Wire` trait moves
//! each field type to and from a `Field`. Floats are written with
//! Rust's shortest round-trip formatting, so `parse(jsonl(event)) ==
//! event` holds *exactly*, bit for bit — the property the replay checker
//! in [`crate::replay`] relies on.

use crate::event::TraceEvent;
use std::collections::BTreeMap;
use std::io::{self, BufRead, Write};

/// A scalar field value, as written to the wire.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Field {
    /// Unsigned integer.
    U(u64),
    /// Double-precision float.
    F(f64),
    /// String (labels, names and the enum tags).
    S(String),
    /// Boolean.
    B(bool),
}

impl Field {
    fn write_json(&self, out: &mut String) {
        match self {
            Field::U(v) => out.push_str(&v.to_string()),
            Field::F(v) => {
                if v.is_finite() {
                    out.push_str(&v.to_string());
                } else {
                    out.push_str("null");
                }
            }
            Field::S(v) => {
                out.push('"');
                for c in v.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Field::B(v) => out.push_str(if *v { "true" } else { "false" }),
        }
    }

    fn write_csv(&self, out: &mut String) {
        match self {
            Field::U(v) => out.push_str(&v.to_string()),
            Field::F(v) => out.push_str(&v.to_string()),
            Field::S(v) => out.push_str(v), // labels never contain commas
            Field::B(v) => out.push_str(if *v { "true" } else { "false" }),
        }
    }
}

/// Serializes one event as a single JSON object (no trailing newline).
pub fn jsonl_line(ev: &TraceEvent) -> String {
    let mut out = String::with_capacity(96);
    out.push_str("{\"ev\":\"");
    out.push_str(ev.kind());
    out.push('"');
    ev.for_each_field(|name, value| {
        out.push_str(",\"");
        out.push_str(name);
        out.push_str("\":");
        value.write_json(&mut out);
    });
    out.push('}');
    out
}

/// Writes `events` as JSON Lines to `w`.
pub fn write_jsonl<'a, W: Write>(
    events: impl IntoIterator<Item = &'a TraceEvent>,
    w: &mut W,
) -> io::Result<()> {
    for ev in events {
        writeln!(w, "{}", jsonl_line(ev))?;
    }
    Ok(())
}

/// Hard upper bound on one JSONL trace line, in bytes. Every event the
/// exporters emit is far below this; anything longer is malformed or
/// hostile input, and the readers refuse it with
/// [`ParseErrorKind::LineTooLong`] *before* buffering the whole line, so
/// a trace fed from an untrusted stream can never grow memory unboundedly.
pub const MAX_JSONL_LINE_BYTES: usize = 64 * 1024;

/// What class of failure a [`ParseError`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// Malformed JSON, an unknown event kind, a bad field, or a
    /// document-level contract violation (ordering, non-finite time).
    Syntax,
    /// A line exceeded [`MAX_JSONL_LINE_BYTES`].
    LineTooLong,
    /// The underlying reader failed ([`parse_jsonl_reader`] only).
    Io,
}

/// Error from parsing a JSONL trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// 1-based line number (0 when unknown).
    pub line: usize,
    /// Description of what went wrong.
    pub message: String,
    /// Failure class (length-cap violations are typed, not textual).
    pub kind: ParseErrorKind,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "trace parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseError {}

pub(crate) fn err(msg: impl Into<String>) -> ParseError {
    ParseError {
        line: 0,
        message: msg.into(),
        kind: ParseErrorKind::Syntax,
    }
}

fn err_too_long(len: usize) -> ParseError {
    ParseError {
        line: 0,
        message: format!("line of {len}+ bytes exceeds the {MAX_JSONL_LINE_BYTES}-byte cap"),
        kind: ParseErrorKind::LineTooLong,
    }
}

/// A minimal parser for the flat JSON objects [`jsonl_line`] emits.
struct FlatJson<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> FlatJson<'a> {
    fn parse(line: &'a str) -> Result<BTreeMap<String, Field>, ParseError> {
        let mut p = FlatJson {
            bytes: line.as_bytes(),
            pos: 0,
        };
        let mut map = BTreeMap::new();
        p.skip_ws();
        p.expect(b'{')?;
        loop {
            p.skip_ws();
            if p.peek() == Some(b'}') {
                p.pos += 1;
                break;
            }
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            let value = p.value()?;
            map.insert(key, value);
            p.skip_ws();
            match p.peek() {
                Some(b',') => p.pos += 1,
                Some(b'}') => {
                    p.pos += 1;
                    break;
                }
                _ => return Err(err("expected ',' or '}'")),
            }
        }
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(err("trailing characters after object"));
        }
        Ok(map)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(err(format!("expected '{}'", b as char)))
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| err("bad \\u escape"))?,
                                16,
                            )
                            .map_err(|_| err("bad \\u escape"))?;
                            out.push(
                                char::from_u32(code).ok_or_else(|| err("bad \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        // A line ending right after the backslash is a
                        // truncation, not an unknown escape — the two need
                        // distinct diagnostics for corruption triage.
                        None => return Err(err("truncated escape")),
                        Some(_) => return Err(err("unsupported escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| err("invalid UTF-8"))?;
                    let c = rest
                        .chars()
                        .next()
                        .ok_or_else(|| err("unterminated string"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
                None => return Err(err("unterminated string")),
            }
        }
    }

    fn value(&mut self) -> Result<Field, ParseError> {
        match self.peek() {
            Some(b'"') => Ok(Field::S(self.string()?)),
            Some(b't') => self.literal("true", Field::B(true)),
            Some(b'f') => self.literal("false", Field::B(false)),
            Some(b'n') => self.literal("null", Field::F(f64::NAN)),
            Some(_) => {
                let start = self.pos;
                while matches!(
                    self.peek(),
                    Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                ) {
                    self.pos += 1;
                }
                let raw = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| err("invalid number"))?;
                if raw.is_empty() {
                    return Err(err("expected a value"));
                }
                // Integers that fit u64 keep full precision; everything
                // else is a double.
                if !raw.contains(['.', 'e', 'E', '-']) {
                    if let Ok(u) = raw.parse::<u64>() {
                        return Ok(Field::U(u));
                    }
                }
                raw.parse::<f64>()
                    .map(Field::F)
                    .map_err(|_| err(format!("bad number '{raw}'")))
            }
            None => Err(err("expected a value")),
        }
    }

    fn literal(&mut self, lit: &str, v: Field) -> Result<Field, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(err(format!("expected '{lit}'")))
        }
    }
}

/// How one field type travels on the wire: the encoder turns a value
/// into a [`Field`]; the decoder reads it back from the parsed field
/// named `name` (`None` when the line lacks it).
pub(crate) trait Wire: Sized {
    fn encode(&self) -> Field;
    fn decode(v: Option<&Field>, name: &str) -> Result<Self, ParseError>;
}

fn missing(what: &str, name: &str) -> ParseError {
    err(format!("missing {what} field '{name}'"))
}

impl Wire for f64 {
    fn encode(&self) -> Field {
        Field::F(*self)
    }

    fn decode(v: Option<&Field>, name: &str) -> Result<Self, ParseError> {
        match v {
            Some(Field::F(v)) if v.is_finite() => Ok(*v),
            Some(Field::F(_)) => Err(err(format!(
                "non-finite value in numeric field '{name}' (NaN/Inf/null are not valid trace data)"
            ))),
            Some(Field::U(v)) => Ok(*v as f64),
            _ => Err(missing("numeric", name)),
        }
    }
}

impl Wire for u64 {
    fn encode(&self) -> Field {
        Field::U(*self)
    }

    fn decode(v: Option<&Field>, name: &str) -> Result<Self, ParseError> {
        match v {
            Some(Field::U(v)) => Ok(*v),
            _ => Err(missing("integer", name)),
        }
    }
}

impl Wire for bool {
    fn encode(&self) -> Field {
        Field::B(*self)
    }

    fn decode(v: Option<&Field>, name: &str) -> Result<Self, ParseError> {
        match v {
            Some(Field::B(v)) => Ok(*v),
            _ => Err(missing("bool", name)),
        }
    }
}

impl Wire for String {
    fn encode(&self) -> Field {
        Field::S(self.clone())
    }

    fn decode(v: Option<&Field>, name: &str) -> Result<Self, ParseError> {
        match v {
            Some(Field::S(v)) => Ok(v.clone()),
            _ => Err(missing("string", name)),
        }
    }
}

/// Parses one JSONL line back into a [`TraceEvent`]. Lines longer than
/// [`MAX_JSONL_LINE_BYTES`] are rejected with
/// [`ParseErrorKind::LineTooLong`].
pub fn parse_jsonl_line(line: &str) -> Result<TraceEvent, ParseError> {
    if line.len() > MAX_JSONL_LINE_BYTES {
        return Err(err_too_long(line.len()));
    }
    let fields = FlatJson::parse(line)?;
    let kind = String::decode(fields.get("ev"), "ev")?;
    TraceEvent::decode(&kind, &fields)
}

/// Timestamp regressions larger than this are malformed input (the
/// driver emits events in non-decreasing time order).
const ORDER_TOL: f64 = 1e-9;

/// Parses a whole in-memory JSONL document; see [`parse_jsonl_reader`].
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceEvent>, ParseError> {
    parse_jsonl_reader(text.as_bytes())
}

/// Parses a whole JSONL document from `r`, line by line (blank lines
/// skipped; `\n` or `\r\n` endings).
///
/// Beyond per-line syntax, this validates the document-level contract:
/// event timestamps must be non-decreasing (within a small numerical
/// tolerance). Out-of-order or non-finite timestamps are errors, never
/// panics. [`MAX_JSONL_LINE_BYTES`] is enforced *while buffering* — an
/// overlong (or newline-less, endless) line fails fast with
/// [`ParseErrorKind::LineTooLong`] after at most one cap's worth of
/// bytes, instead of growing a line buffer without bound.
pub fn parse_jsonl_reader<R: BufRead>(mut r: R) -> Result<Vec<TraceEvent>, ParseError> {
    let mut out: Vec<TraceEvent> = Vec::new();
    let mut last_t = f64::NEG_INFINITY;
    let mut buf: Vec<u8> = Vec::new();
    let mut lineno = 0usize;
    loop {
        lineno += 1;
        buf.clear();
        let at_line = |mut e: ParseError| {
            e.line = lineno;
            e
        };
        // Bounded read_until('\n'): pull from the internal buffer in
        // chunks, never retaining more than the cap plus one chunk.
        let mut saw_newline = false;
        while !saw_newline {
            let chunk = match r.fill_buf() {
                Ok(c) => c,
                Err(e) => {
                    return Err(at_line(ParseError {
                        line: lineno,
                        message: format!("read error: {e}"),
                        kind: ParseErrorKind::Io,
                    }))
                }
            };
            if chunk.is_empty() {
                break; // EOF
            }
            let (take, newline) = match chunk.iter().position(|&b| b == b'\n') {
                Some(idx) => (idx + 1, true),
                None => (chunk.len(), false),
            };
            buf.extend_from_slice(&chunk[..take - usize::from(newline)]);
            r.consume(take);
            saw_newline = newline;
            if buf.len() > MAX_JSONL_LINE_BYTES {
                return Err(at_line(err_too_long(buf.len())));
            }
        }
        if buf.is_empty() && !saw_newline {
            return Ok(out); // clean EOF
        }
        let line = std::str::from_utf8(&buf).map_err(|_| at_line(err("invalid UTF-8")))?;
        if line.trim().is_empty() {
            continue;
        }
        let ev = parse_jsonl_line(line).map_err(at_line)?;
        let t = ev.t();
        if !t.is_finite() {
            return Err(at_line(err("non-finite event timestamp")));
        }
        if t + ORDER_TOL < last_t {
            return Err(at_line(err(format!(
                "out-of-order timestamp {t} after {last_t}"
            ))));
        }
        last_t = last_t.max(t);
        out.push(ev);
    }
}

/// Column order of the wide CSV schema (union of all event fields).
const CSV_COLUMNS: &[&str] = &[
    "ev",
    "t",
    "algorithm",
    "cores",
    "budget_w",
    "q_ge",
    "horizon_s",
    "power_a",
    "power_beta",
    "quality_c",
    "quality_xmax",
    "units_per_ghz_sec",
    "initial_mode",
    "ledger_window",
    "job",
    "core",
    "deadline_s",
    "demand",
    "trigger",
    "queue_len",
    "from_mode",
    "to_mode",
    "ledger_quality",
    "level",
    "target_quality",
    "jobs",
    "volume_before",
    "volume_after",
    "full_demand",
    "cut_demand",
    "policy",
    "load_estimate_rps",
    "cap_w",
    "speed_cap_ghz",
    "start_s",
    "end_s",
    "speed_ghz",
    "ghz_secs",
    "energy_j",
    "processed",
    "discarded",
    "quality",
    "mode",
    "backlog_units",
    "aes_fraction",
    "jobs_finished",
    "jobs_discarded",
    "online",
    "factor",
    "budget_w_effective",
    "estimate",
    "projected_quality",
    "servers",
    "partitioner",
    "shard",
    "attempt",
    "next_s",
    "dispatched",
    "failovers",
    "retries",
    "shed",
    "req",
    "reason",
    "q_min",
    "queue_high",
    "queue_low",
    "pending",
    "requests",
    "admitted",
    "completed",
    "rejected",
    "timed_out",
    "schema",
    "seed",
    "config_digest",
    "version",
];

/// The header row of the wide CSV schema.
pub fn csv_header() -> String {
    CSV_COLUMNS.join(",")
}

/// One wide-schema CSV row for `ev` (fields not in the variant stay empty).
pub fn csv_row(ev: &TraceEvent) -> String {
    let mut fs: Vec<(&str, Field)> = Vec::with_capacity(16);
    ev.for_each_field(|name, value| fs.push((name, value)));
    let mut out = String::with_capacity(96);
    for (i, col) in CSV_COLUMNS.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if *col == "ev" {
            out.push_str(ev.kind());
        } else if let Some((_, v)) = fs.iter().find(|(n, _)| n == col) {
            v.write_csv(&mut out);
        }
    }
    out
}

/// Writes `events` as a wide-schema CSV document to `w`.
pub fn write_csv<'a, W: Write>(
    events: impl IntoIterator<Item = &'a TraceEvent>,
    w: &mut W,
) -> io::Result<()> {
    writeln!(w, "{}", csv_header())?;
    for ev in events {
        writeln!(w, "{}", csv_row(ev))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{
        FleetRunStartEvent, FleetSummaryEvent, RejectReason, RunMetaEvent, RunStartEvent,
        ServeRunStartEvent, ServeSummaryEvent, SplitPolicy, TriggerKind,
    };
    use std::collections::BTreeSet;

    fn exemplars() -> Vec<TraceEvent> {
        vec![
            RunMetaEvent {
                t: 0.0,
                schema: "ge-trace/v1".to_string(),
                seed: 0xdead_beef_cafe_f00d,
                config_digest: 0x1234_5678_9abc_def0,
                version: "0.1.0".to_string(),
            }
            .into(),
            RunStartEvent {
                t: 0.0,
                algorithm: "GE".to_string(),
                cores: 8,
                budget_w: 160.0,
                q_ge: 0.9,
                horizon_s: 60.0,
                power_a: 2.0,
                power_beta: 2.4,
                quality_c: 0.0035,
                quality_xmax: 1500.0,
                units_per_ghz_sec: 1000.0,
                initial_mode: 1,
                ledger_window: 0,
            }
            .into(),
            TraceEvent::JobArrival {
                t: 0.013_527_891_236_4,
                job: 7,
                deadline_s: 0.163_527_891_236_4,
                demand: 412.734_120_000_1,
            },
            TraceEvent::JobAssigned {
                t: 0.02,
                job: 7,
                core: 3,
            },
            TraceEvent::TriggerFired {
                t: 0.05,
                kind: TriggerKind::Counter,
                queue_len: 12,
            },
            TraceEvent::ModeSwitch {
                t: 0.05,
                from_mode: 1,
                to_mode: 0,
                ledger_quality: 0.912_345_678_9,
            },
            TraceEvent::LfCut {
                t: 0.05,
                level: 230.5,
                target_quality: 0.9,
                jobs: 12,
                volume_before: 4096.0,
                volume_after: 2766.0,
            },
            TraceEvent::JobCut {
                t: 0.05,
                job: 7,
                full_demand: 412.7,
                cut_demand: 230.5,
            },
            TraceEvent::PowerSplit {
                t: 0.05,
                policy: SplitPolicy::WaterFilling,
                load_estimate_rps: 141.2,
                budget_w: 160.0,
            },
            TraceEvent::CoreCap {
                t: 0.05,
                core: 3,
                cap_w: 20.0,
                speed_cap_ghz: 1.87,
            },
            TraceEvent::SecondCut {
                t: 0.05,
                core: 3,
                volume_before: 700.0,
                volume_after: 512.0,
            },
            TraceEvent::SpeedSegment {
                t: 0.05,
                core: 3,
                start_s: 0.05,
                end_s: 0.13,
                speed_ghz: 1.5,
            },
            TraceEvent::ExecSlice {
                t: 0.13,
                core: 3,
                start_s: 0.05,
                end_s: 0.13,
                ghz_secs: 0.12,
                energy_j: 0.734_982_134,
            },
            TraceEvent::JobFinish {
                t: 0.13,
                job: 7,
                processed: 230.5,
                full_demand: 412.7,
                discarded: false,
            },
            TraceEvent::QualitySample {
                t: 0.13,
                quality: 0.94,
                mode: 0,
                backlog_units: 812.0,
                load_estimate_rps: 141.2,
            },
            TraceEvent::CoreFault {
                t: 12.5,
                core: 5,
                online: false,
            },
            TraceEvent::BudgetThrottle {
                t: 13.0,
                factor: 0.625_123_456_789,
                budget_w_effective: 200.039_494_949,
            },
            TraceEvent::DvfsDeviation {
                t: 13.5,
                core: 2,
                factor: 0.9,
            },
            TraceEvent::DemandMisestimate {
                t: 14.0,
                job: 42,
                estimate: 180.123_456_789,
                full_demand: 212.7,
            },
            TraceEvent::JobShed {
                t: 14.5,
                job: 43,
                estimate: 512.0,
                full_demand: 530.25,
                projected_quality: 0.712_345_678_9,
            },
            FleetRunStartEvent {
                t: 15.0,
                servers: 4,
                cores: 8,
                budget_w: 640.0,
                policy: "jsq".to_string(),
                partitioner: "prop".to_string(),
                seed: 77,
            }
            .into(),
            TraceEvent::ShardFault {
                t: 15.5,
                shard: 2,
                online: false,
            },
            TraceEvent::FleetFailover {
                t: 15.5,
                job: 51,
                shard: 2,
            },
            TraceEvent::FleetDispatch {
                t: 15.5,
                job: 51,
                shard: 1,
                attempt: 0,
            },
            TraceEvent::FleetRetry {
                t: 15.75,
                job: 52,
                attempt: 0,
                next_s: 15.8,
            },
            TraceEvent::FleetShed {
                t: 15.9,
                job: 53,
                demand: 812.25,
            },
            TraceEvent::FleetBudget {
                t: 16.0,
                shard: 1,
                budget_w: 213.333_333_333_3,
            },
            FleetSummaryEvent {
                t: 59.0,
                dispatched: 4021,
                failovers: 13,
                retries: 5,
                shed: 9,
                energy_j: 4_813.217,
                quality: 0.9017,
            }
            .into(),
            ServeRunStartEvent {
                t: 59.0,
                algorithm: "GE".to_string(),
                cores: 8,
                budget_w: 160.0,
                q_min: 0.5,
                queue_high: 64,
                queue_low: 16,
            }
            .into(),
            TraceEvent::ServeRequest {
                t: 59.1,
                req: 0,
                demand: 412.734_120_000_1,
                deadline_s: 59.25,
            },
            TraceEvent::ServeAdmit {
                t: 59.1,
                req: 0,
                queue_len: 1,
            },
            TraceEvent::ServeReject {
                t: 59.2,
                req: 1,
                reason: RejectReason::Busy,
                queue_len: 65,
            },
            TraceEvent::ServeTimeout { t: 59.25, req: 0 },
            TraceEvent::ServeComplete {
                t: 59.3,
                req: 2,
                processed: 230.5,
                full_demand: 412.7,
            },
            TraceEvent::ServeShed { t: 59.4, req: 3 },
            TraceEvent::ServeDrain {
                t: 59.5,
                pending: 2,
            },
            ServeSummaryEvent {
                t: 59.9,
                requests: 4,
                admitted: 3,
                completed: 1,
                rejected: 1,
                timed_out: 1,
                shed: 1,
            }
            .into(),
            TraceEvent::RunSummary {
                t: 60.0,
                energy_j: 1_234.567_890_123,
                quality: 0.9213,
                aes_fraction: 0.4123,
                jobs_finished: 9001,
                jobs_discarded: 17,
            },
        ]
    }

    /// `jsonl_line` / `csv_row` of each [`exemplars`] event, in order,
    /// as the hand-written codec produced them before the event table
    /// replaced it. Any change here is a wire-format change.
    const PINNED: &[(&str, &str)] = &[
        (
            "{\"ev\":\"run_meta\",\"t\":0,\"schema\":\"ge-trace/v1\",\"seed\":16045690984503111693,\"config_digest\":1311768467463790320,\"version\":\"0.1.0\"}",
            "run_meta,0,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,ge-trace/v1,16045690984503111693,1311768467463790320,0.1.0",
        ),
        (
            "{\"ev\":\"run_start\",\"t\":0,\"algorithm\":\"GE\",\"cores\":8,\"budget_w\":160,\"q_ge\":0.9,\"horizon_s\":60,\"power_a\":2,\"power_beta\":2.4,\"quality_c\":0.0035,\"quality_xmax\":1500,\"units_per_ghz_sec\":1000,\"initial_mode\":1,\"ledger_window\":0}",
            "run_start,0,GE,8,160,0.9,60,2,2.4,0.0035,1500,1000,1,0,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,",
        ),
        (
            "{\"ev\":\"job_arrival\",\"t\":0.0135278912364,\"job\":7,\"deadline_s\":0.1635278912364,\"demand\":412.7341200001}",
            "job_arrival,0.0135278912364,,,,,,,,,,,,,7,,0.1635278912364,412.7341200001,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,",
        ),
        (
            "{\"ev\":\"job_assigned\",\"t\":0.02,\"job\":7,\"core\":3}",
            "job_assigned,0.02,,,,,,,,,,,,,7,3,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,",
        ),
        (
            "{\"ev\":\"trigger\",\"t\":0.05,\"trigger\":\"counter\",\"queue_len\":12}",
            "trigger,0.05,,,,,,,,,,,,,,,,,counter,12,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,",
        ),
        (
            "{\"ev\":\"mode_switch\",\"t\":0.05,\"from_mode\":1,\"to_mode\":0,\"ledger_quality\":0.9123456789}",
            "mode_switch,0.05,,,,,,,,,,,,,,,,,,,1,0,0.9123456789,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,",
        ),
        (
            "{\"ev\":\"lf_cut\",\"t\":0.05,\"level\":230.5,\"target_quality\":0.9,\"jobs\":12,\"volume_before\":4096,\"volume_after\":2766}",
            "lf_cut,0.05,,,,,,,,,,,,,,,,,,,,,,230.5,0.9,12,4096,2766,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,",
        ),
        (
            "{\"ev\":\"job_cut\",\"t\":0.05,\"job\":7,\"full_demand\":412.7,\"cut_demand\":230.5}",
            "job_cut,0.05,,,,,,,,,,,,,7,,,,,,,,,,,,,,412.7,230.5,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,",
        ),
        (
            "{\"ev\":\"power_split\",\"t\":0.05,\"policy\":\"water_filling\",\"load_estimate_rps\":141.2,\"budget_w\":160}",
            "power_split,0.05,,,160,,,,,,,,,,,,,,,,,,,,,,,,,,water_filling,141.2,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,",
        ),
        (
            "{\"ev\":\"core_cap\",\"t\":0.05,\"core\":3,\"cap_w\":20,\"speed_cap_ghz\":1.87}",
            "core_cap,0.05,,,,,,,,,,,,,,3,,,,,,,,,,,,,,,,,20,1.87,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,",
        ),
        (
            "{\"ev\":\"second_cut\",\"t\":0.05,\"core\":3,\"volume_before\":700,\"volume_after\":512}",
            "second_cut,0.05,,,,,,,,,,,,,,3,,,,,,,,,,,700,512,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,",
        ),
        (
            "{\"ev\":\"speed_segment\",\"t\":0.05,\"core\":3,\"start_s\":0.05,\"end_s\":0.13,\"speed_ghz\":1.5}",
            "speed_segment,0.05,,,,,,,,,,,,,,3,,,,,,,,,,,,,,,,,,,0.05,0.13,1.5,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,",
        ),
        (
            "{\"ev\":\"exec_slice\",\"t\":0.13,\"core\":3,\"start_s\":0.05,\"end_s\":0.13,\"ghz_secs\":0.12,\"energy_j\":0.734982134}",
            "exec_slice,0.13,,,,,,,,,,,,,,3,,,,,,,,,,,,,,,,,,,0.05,0.13,,0.12,0.734982134,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,",
        ),
        (
            "{\"ev\":\"job_finish\",\"t\":0.13,\"job\":7,\"processed\":230.5,\"full_demand\":412.7,\"discarded\":false}",
            "job_finish,0.13,,,,,,,,,,,,,7,,,,,,,,,,,,,,412.7,,,,,,,,,,,230.5,false,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,",
        ),
        (
            "{\"ev\":\"quality_sample\",\"t\":0.13,\"quality\":0.94,\"mode\":0,\"backlog_units\":812,\"load_estimate_rps\":141.2}",
            "quality_sample,0.13,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,141.2,,,,,,,,,,0.94,0,812,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,",
        ),
        (
            "{\"ev\":\"core_fault\",\"t\":12.5,\"core\":5,\"online\":false}",
            "core_fault,12.5,,,,,,,,,,,,,,5,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,false,,,,,,,,,,,,,,,,,,,,,,,,,,,,",
        ),
        (
            "{\"ev\":\"budget_throttle\",\"t\":13,\"factor\":0.625123456789,\"budget_w_effective\":200.039494949}",
            "budget_throttle,13,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,0.625123456789,200.039494949,,,,,,,,,,,,,,,,,,,,,,,,,,",
        ),
        (
            "{\"ev\":\"dvfs_deviation\",\"t\":13.5,\"core\":2,\"factor\":0.9}",
            "dvfs_deviation,13.5,,,,,,,,,,,,,,2,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,0.9,,,,,,,,,,,,,,,,,,,,,,,,,,,",
        ),
        (
            "{\"ev\":\"demand_misestimate\",\"t\":14,\"job\":42,\"estimate\":180.123456789,\"full_demand\":212.7}",
            "demand_misestimate,14,,,,,,,,,,,,,42,,,,,,,,,,,,,,212.7,,,,,,,,,,,,,,,,,,,,,,180.123456789,,,,,,,,,,,,,,,,,,,,,,,,,",
        ),
        (
            "{\"ev\":\"job_shed\",\"t\":14.5,\"job\":43,\"estimate\":512,\"full_demand\":530.25,\"projected_quality\":0.7123456789}",
            "job_shed,14.5,,,,,,,,,,,,,43,,,,,,,,,,,,,,530.25,,,,,,,,,,,,,,,,,,,,,,512,0.7123456789,,,,,,,,,,,,,,,,,,,,,,,,",
        ),
        (
            "{\"ev\":\"fleet_run_start\",\"t\":15,\"servers\":4,\"cores\":8,\"budget_w\":640,\"policy\":\"jsq\",\"partitioner\":\"prop\",\"seed\":77}",
            "fleet_run_start,15,,8,640,,,,,,,,,,,,,,,,,,,,,,,,,,jsq,,,,,,,,,,,,,,,,,,,,,,4,prop,,,,,,,,,,,,,,,,,,,,77,,",
        ),
        (
            "{\"ev\":\"shard_fault\",\"t\":15.5,\"shard\":2,\"online\":false}",
            "shard_fault,15.5,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,false,,,,,,,2,,,,,,,,,,,,,,,,,,,,,",
        ),
        (
            "{\"ev\":\"fleet_failover\",\"t\":15.5,\"job\":51,\"shard\":2}",
            "fleet_failover,15.5,,,,,,,,,,,,,51,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,2,,,,,,,,,,,,,,,,,,,,,",
        ),
        (
            "{\"ev\":\"fleet_dispatch\",\"t\":15.5,\"job\":51,\"shard\":1,\"attempt\":0}",
            "fleet_dispatch,15.5,,,,,,,,,,,,,51,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,1,0,,,,,,,,,,,,,,,,,,,,",
        ),
        (
            "{\"ev\":\"fleet_retry\",\"t\":15.75,\"job\":52,\"attempt\":0,\"next_s\":15.8}",
            "fleet_retry,15.75,,,,,,,,,,,,,52,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,0,15.8,,,,,,,,,,,,,,,,,,,",
        ),
        (
            "{\"ev\":\"fleet_shed\",\"t\":15.9,\"job\":53,\"demand\":812.25}",
            "fleet_shed,15.9,,,,,,,,,,,,,53,,,812.25,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,",
        ),
        (
            "{\"ev\":\"fleet_budget\",\"t\":16,\"shard\":1,\"budget_w\":213.3333333333}",
            "fleet_budget,16,,,213.3333333333,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,1,,,,,,,,,,,,,,,,,,,,,",
        ),
        (
            "{\"ev\":\"fleet_summary\",\"t\":59,\"dispatched\":4021,\"failovers\":13,\"retries\":5,\"shed\":9,\"energy_j\":4813.217,\"quality\":0.9017}",
            "fleet_summary,59,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,4813.217,,,0.9017,,,,,,,,,,,,,,,,4021,13,5,9,,,,,,,,,,,,,,,",
        ),
        (
            "{\"ev\":\"serve_run_start\",\"t\":59,\"algorithm\":\"GE\",\"cores\":8,\"budget_w\":160,\"q_min\":0.5,\"queue_high\":64,\"queue_low\":16}",
            "serve_run_start,59,GE,8,160,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,0.5,64,16,,,,,,,,,,",
        ),
        (
            "{\"ev\":\"serve_request\",\"t\":59.1,\"req\":0,\"demand\":412.7341200001,\"deadline_s\":59.25}",
            "serve_request,59.1,,,,,,,,,,,,,,,59.25,412.7341200001,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,0,,,,,,,,,,,,,,",
        ),
        (
            "{\"ev\":\"serve_admit\",\"t\":59.1,\"req\":0,\"queue_len\":1}",
            "serve_admit,59.1,,,,,,,,,,,,,,,,,,1,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,0,,,,,,,,,,,,,,",
        ),
        (
            "{\"ev\":\"serve_reject\",\"t\":59.2,\"req\":1,\"reason\":\"busy\",\"queue_len\":65}",
            "serve_reject,59.2,,,,,,,,,,,,,,,,,,65,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,1,busy,,,,,,,,,,,,,",
        ),
        (
            "{\"ev\":\"serve_timeout\",\"t\":59.25,\"req\":0}",
            "serve_timeout,59.25,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,0,,,,,,,,,,,,,,",
        ),
        (
            "{\"ev\":\"serve_complete\",\"t\":59.3,\"req\":2,\"processed\":230.5,\"full_demand\":412.7}",
            "serve_complete,59.3,,,,,,,,,,,,,,,,,,,,,,,,,,,412.7,,,,,,,,,,,230.5,,,,,,,,,,,,,,,,,,,,,,2,,,,,,,,,,,,,,",
        ),
        (
            "{\"ev\":\"serve_shed\",\"t\":59.4,\"req\":3}",
            "serve_shed,59.4,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,3,,,,,,,,,,,,,,",
        ),
        (
            "{\"ev\":\"serve_drain\",\"t\":59.5,\"pending\":2}",
            "serve_drain,59.5,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,2,,,,,,,,,",
        ),
        (
            "{\"ev\":\"serve_summary\",\"t\":59.9,\"requests\":4,\"admitted\":3,\"completed\":1,\"rejected\":1,\"timed_out\":1,\"shed\":1}",
            "serve_summary,59.9,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,1,,,,,,,4,3,1,1,1,,,,",
        ),
        (
            "{\"ev\":\"run_summary\",\"t\":60,\"energy_j\":1234.567890123,\"quality\":0.9213,\"aes_fraction\":0.4123,\"jobs_finished\":9001,\"jobs_discarded\":17}",
            "run_summary,60,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,1234.567890123,,,0.9213,,,0.4123,9001,17,,,,,,,,,,,,,,,,,,,,,,,,,,,,,",
        ),
    ];

    #[test]
    fn exemplar_wire_strings_are_pinned() {
        let events = exemplars();
        assert_eq!(events.len(), PINNED.len());
        for (ev, (jsonl, csv)) in events.iter().zip(PINNED) {
            assert_eq!(jsonl_line(ev), *jsonl);
            assert_eq!(csv_row(ev), *csv);
        }
    }

    #[test]
    fn csv_columns_are_ev_plus_every_table_field() {
        let mut want: BTreeSet<&str> = TraceEvent::SCHEMA
            .iter()
            .flat_map(|(_, fields)| fields.iter().copied())
            .collect();
        want.insert("ev");
        let have: BTreeSet<&str> = CSV_COLUMNS.iter().copied().collect();
        assert_eq!(have.len(), CSV_COLUMNS.len(), "duplicate CSV column");
        assert_eq!(have, want);
    }

    #[test]
    fn jsonl_round_trips_every_variant_exactly() {
        let events = exemplars();
        for ev in &events {
            let line = jsonl_line(ev);
            let back = parse_jsonl_line(&line).expect("parse back");
            assert_eq!(&back, ev, "round-trip mismatch for {line}");
        }
        let covered: BTreeSet<&str> = events.iter().map(TraceEvent::kind).collect();
        for (kind, _) in TraceEvent::SCHEMA {
            assert!(
                covered.contains(kind),
                "no exemplar for declared kind {kind}"
            );
        }
    }

    #[test]
    fn jsonl_document_round_trip() {
        let events = exemplars();
        let mut buf = Vec::new();
        write_jsonl(&events, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let back = parse_jsonl(&text).unwrap();
        assert_eq!(back, events);
    }

    #[test]
    fn string_escaping_round_trips() {
        let ev: TraceEvent = RunStartEvent {
            t: 0.0,
            algorithm: "we\"ird\\label\nx".to_string(),
            cores: 1,
            budget_w: 1.0,
            q_ge: 0.9,
            horizon_s: 1.0,
            power_a: 0.0,
            power_beta: 2.0,
            quality_c: 0.001,
            quality_xmax: 10.0,
            units_per_ghz_sec: 1.0,
            initial_mode: 0,
            ledger_window: 0,
        }
        .into();
        let back = parse_jsonl_line(&jsonl_line(&ev)).unwrap();
        assert_eq!(back, ev);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let doc = "{\"ev\":\"job_assigned\",\"t\":0,\"job\":1,\"core\":0}\nnot json";
        let e = parse_jsonl(doc).unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn unknown_kind_is_rejected() {
        assert!(parse_jsonl_line("{\"ev\":\"martian\",\"t\":0}").is_err());
    }

    #[test]
    fn non_finite_floats_are_rejected() {
        for bad in [
            "{\"ev\":\"job_cut\",\"t\":0,\"job\":1,\"full_demand\":NaN,\"cut_demand\":1}",
            "{\"ev\":\"job_cut\",\"t\":0,\"job\":1,\"full_demand\":null,\"cut_demand\":1}",
            "{\"ev\":\"job_cut\",\"t\":0,\"job\":1,\"full_demand\":1e999,\"cut_demand\":1}",
            "{\"ev\":\"job_cut\",\"t\":-1e999,\"job\":1,\"full_demand\":1,\"cut_demand\":1}",
        ] {
            assert!(parse_jsonl_line(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn truncated_lines_are_rejected() {
        let full = jsonl_line(&TraceEvent::JobAssigned {
            t: 1.0,
            job: 9,
            core: 2,
        });
        for cut in 1..full.len() {
            assert!(
                parse_jsonl_line(&full[..cut]).is_err(),
                "accepted truncation at byte {cut}: {}",
                &full[..cut]
            );
        }
    }

    #[test]
    fn out_of_order_timestamps_are_rejected() {
        let doc = "{\"ev\":\"job_assigned\",\"t\":5.0,\"job\":1,\"core\":0}\n\
                   {\"ev\":\"job_assigned\",\"t\":1.0,\"job\":2,\"core\":0}";
        let e = parse_jsonl(doc).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("out-of-order"), "{}", e.message);
        // Equal and epsilon-earlier timestamps are legal.
        let ok = "{\"ev\":\"job_assigned\",\"t\":5.0,\"job\":1,\"core\":0}\n\
                  {\"ev\":\"job_assigned\",\"t\":5.0,\"job\":2,\"core\":0}";
        assert!(parse_jsonl(ok).is_ok());
    }

    #[test]
    fn overlong_lines_are_rejected_with_typed_error() {
        let mut line = String::from("{\"ev\":\"run_meta\",\"t\":0,\"schema\":\"");
        line.push_str(&"x".repeat(MAX_JSONL_LINE_BYTES));
        line.push_str("\",\"seed\":1,\"config_digest\":1,\"version\":\"0\"}");
        let e = parse_jsonl_line(&line).unwrap_err();
        assert_eq!(e.kind, ParseErrorKind::LineTooLong);
        let e = parse_jsonl(&line).unwrap_err();
        assert_eq!(e.kind, ParseErrorKind::LineTooLong);
        assert_eq!(e.line, 1);
    }

    #[test]
    fn streaming_reader_caps_newline_less_input_early() {
        // An endless line with no newline must fail after ~one cap of
        // bytes, not buffer the whole stream.
        struct Endless;
        impl io::Read for Endless {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                buf.fill(b'a');
                Ok(buf.len())
            }
        }
        let r = io::BufReader::new(Endless);
        let e = parse_jsonl_reader(r).unwrap_err();
        assert_eq!(e.kind, ParseErrorKind::LineTooLong);
    }

    #[test]
    fn crlf_documents_parse_like_lf_documents() {
        let events = exemplars();
        let mut buf = Vec::new();
        write_jsonl(&events, &mut buf).unwrap();
        let crlf = String::from_utf8(buf).unwrap().replace('\n', "\r\n");
        assert_eq!(parse_jsonl(&crlf).unwrap(), events);
    }

    #[test]
    fn streaming_reader_matches_in_memory_parse() {
        let events = exemplars();
        let mut buf = Vec::new();
        write_jsonl(&events, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        let a = parse_jsonl(&text).unwrap();
        let b = parse_jsonl_reader(io::Cursor::new(buf)).unwrap();
        assert_eq!(a, b);
        // No trailing newline is also fine.
        let trimmed = text.trim_end().as_bytes().to_vec();
        let c = parse_jsonl_reader(io::Cursor::new(trimmed)).unwrap();
        assert_eq!(a, c);
    }

    #[test]
    fn csv_rows_align_with_header() {
        let header_cols = csv_header().split(',').count();
        for ev in exemplars() {
            assert_eq!(csv_row(&ev).split(',').count(), header_cols);
        }
    }

    #[test]
    fn csv_document_has_all_rows() {
        let events = exemplars();
        let mut buf = Vec::new();
        write_csv(&events, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), events.len() + 1);
    }
}
