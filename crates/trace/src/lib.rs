//! # ge-trace — structured decision tracing
//!
//! The observability layer of the GE scheduling reproduction. The paper's
//! claims are dynamic — AES residency (Fig. 1), compensation kicking in
//! when the ledger sags (Fig. 5), WF speed variance (Fig. 6) — so this
//! crate gives every scheduler decision a typed, serializable event:
//!
//! * [`event`] — [`TraceEvent`] variants for arrivals, C-RR assignment,
//!   trigger firings, AES↔BQ switches, LF cuts, ES/WF power splits,
//!   Quality-OPT second cuts, YDS segments, per-slice energy, faults,
//!   fleet routing, serve admission, and run bracketing (`run_start` /
//!   `run_summary`). Each event is declared once, in one table that
//!   generates the enum and its wire codec.
//! * [`sink`] — the [`TraceSink`] trait plus [`NullSink`] (free) and
//!   [`VecSink`] (record everything).
//! * [`export`] — hand-rolled JSONL and wide-schema CSV writers and the
//!   matching JSONL parser (no serde; floats round-trip exactly).
//! * [`replay`] — an invariant checker that rebuilds energy, AES
//!   residency, and ledger quality from a trace and cross-checks them
//!   against the run's reported summary.
//!
//! Emission sites guard with [`TraceSink::is_enabled`], so running with
//! [`NullSink`] costs a branch per site — the driver's untraced path
//! stays within noise of the pre-tracing implementation.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod event;
pub mod export;
pub mod replay;
pub mod sink;

pub use event::{
    FleetRunStartEvent, FleetSummaryEvent, RejectReason, RunMetaEvent, RunStartEvent,
    ServeRunStartEvent, ServeSummaryEvent, SplitPolicy, TraceEvent, TriggerKind,
};
pub use export::{
    csv_header, csv_row, jsonl_line, parse_jsonl, parse_jsonl_line, parse_jsonl_reader, write_csv,
    write_jsonl, ParseError, ParseErrorKind, MAX_JSONL_LINE_BYTES,
};
pub use replay::{
    replay, replay_fleet, replay_serve, strip_header, FleetReplayReport, ReplayError, ReplayReport,
    ServeReplayReport, TRACE_SCHEMA,
};
pub use sink::{NullSink, TraceSink, VecSink};
