//! Trace sinks — where emitted events go.
//!
//! Instrumented code guards every emission with [`TraceSink::is_enabled`]
//! so the disabled path costs one virtual call and a branch, never an
//! event construction:
//!
//! ```
//! use ge_trace::{NullSink, TraceEvent, TraceSink};
//!
//! fn hot_path(sink: &mut dyn TraceSink) {
//!     if sink.is_enabled() {
//!         sink.record(&TraceEvent::TriggerFired {
//!             t: 0.0,
//!             kind: ge_trace::TriggerKind::Quantum,
//!             queue_len: 0,
//!         });
//!     }
//! }
//! hot_path(&mut NullSink);
//! ```
//!
//! The one exception is a job's terminal event. The engine's four
//! job-terminal sites guard with [`TraceSink::records_terminals`]
//! instead: the `job_finish` of a job the server finished
//! (`Engine::sweep_server`), of a job booked as never run — expired in
//! the queue, shed, or left over at the close (`Books::discarded`) — and
//! of an orphan off a failed core (`Books::orphan`), plus the
//! `job_shed` of GE's `Q_min` floor (`GeScheduler::shed_below_floor`).
//! The default forwards to `is_enabled`, so every ordinary sink sees
//! those events exactly when it sees the rest. A sink that wants job
//! fates without the rest of the trace — the serving front end's books
//! — reports itself disabled and terminal-recording, and the engine then
//! builds only those events.

use crate::event::TraceEvent;

/// Receiver of structured trace events.
///
/// Implementations must be cheap to call; the driver invokes
/// [`TraceSink::record`] from every scheduling epoch and core advance.
pub trait TraceSink {
    /// Whether emission sites should construct and record events at all.
    ///
    /// The default is `true`; [`NullSink`] overrides it to `false` so the
    /// untraced hot path skips event construction entirely.
    fn is_enabled(&self) -> bool {
        true
    }

    /// Whether the job-terminal sites (`job_finish`, `job_shed`) should
    /// construct and record their events. Defaults to
    /// [`TraceSink::is_enabled`]; see the module docs for the four sites.
    fn records_terminals(&self) -> bool {
        self.is_enabled()
    }

    /// Records one event. Events arrive in non-decreasing time order.
    fn record(&mut self, event: &TraceEvent);
}

/// The no-op sink: reports itself disabled and drops everything.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn is_enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _event: &TraceEvent) {}
}

/// An unbounded in-memory sink retaining every event, in order.
#[derive(Debug, Clone, Default)]
pub struct VecSink {
    events: Vec<TraceEvent>,
}

impl VecSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        VecSink::default()
    }

    /// The recorded events, in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Consumes the sink, returning the recorded events.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }
}

impl TraceSink for VecSink {
    fn record(&mut self, event: &TraceEvent) {
        self.events.push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slice(t: f64) -> TraceEvent {
        TraceEvent::ExecSlice {
            t,
            core: 0,
            start_s: t - 0.1,
            end_s: t,
            ghz_secs: 0.1,
            energy_j: 1.0,
        }
    }

    #[test]
    fn null_sink_is_disabled() {
        let mut s = NullSink;
        assert!(!s.is_enabled());
        s.record(&slice(1.0));
    }

    #[test]
    fn terminal_recording_follows_is_enabled_by_default() {
        assert!(!NullSink.records_terminals());
        assert!(VecSink::new().records_terminals());
    }

    #[test]
    fn vec_sink_retains_everything_in_order() {
        let mut s = VecSink::new();
        for i in 0..10 {
            s.record(&slice(i as f64));
        }
        assert_eq!(s.events().len(), 10);
        assert_eq!(s.events()[3].t(), 3.0);
    }
}
