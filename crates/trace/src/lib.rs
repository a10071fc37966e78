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
//! * [`replay`] — the invariant checker: one event-at-a-time walker and
//!   a ledger per trace kind (run, fleet, serve) rebuild a trace's books
//!   from its events and cross-check them against its reported summary.
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
    csv_header, csv_row, for_each_jsonl, jsonl_line, parse_jsonl, parse_jsonl_line,
    parse_jsonl_reader, write_csv, write_jsonl, JsonlLines, ParseError, ParseErrorKind,
    MAX_JSONL_LINE_BYTES,
};
pub use replay::{
    replay, replay_fleet, replay_serve, FleetLedger, FleetReplayReport, Ledger, Replay,
    ReplayError, ReplayReport, RunLedger, ServeLedger, ServeReplayReport, TRACE_SCHEMA,
};
pub use sink::{NullSink, TraceSink, VecSink};
