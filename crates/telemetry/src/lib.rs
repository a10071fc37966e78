//! # ge-telemetry — runtime observability for the scheduling hot path
//!
//! Three layers, all `std`-only and dependency-free:
//!
//! * [`span`] — a hierarchical span profiler: RAII [`SpanGuard`]s over a
//!   thread-local span stack, per-span aggregated count/total/min/max and
//!   **self time** (total minus child time), rendered as folded-stack
//!   flamegraph text via [`folded_profile`]. Structural spans record
//!   every visit; hot-kernel spans use [`SpanGuard::enter_sampled`]
//!   (1-in-2^k measured, inverse-probability weighted) so instrumenting
//!   a kernel called thousands of times per second stays in budget.
//! * [`registry`] — a live [`Registry`] of counters, gauges, and
//!   log-linear latency histograms. Recording is a handful of `Relaxed`
//!   atomic operations on pre-resolved handles, so instrumented code can
//!   run on the per-epoch scheduling path while a scrape thread reads a
//!   consistent-enough snapshot concurrently.
//! * [`server`] + [`expose`] + [`snapshot`] — a Prometheus-text-format
//!   exposition endpoint over `std::net::TcpListener`, a matching
//!   loopback scrape client, and a periodic JSONL snapshot sink.
//!
//! The whole subsystem hangs off one global switch, [`Telemetry`]:
//! disabled (the default) every instrumentation site reduces to a single
//! relaxed atomic load, so the un-instrumented cost is effectively free.
//! The enabled-but-unscraped overhead has a 2% end-to-end budget that no
//! check enforces: `ge-bench --bench sched_report` records it (entries
//! `e2e_ge/telemetry_{on,off}`) without gating it.
//!
//! ```
//! use ge_telemetry::{SpanGuard, Telemetry};
//!
//! Telemetry::enable();
//! let epochs = Telemetry::registry().counter("ge_epochs_total");
//! {
//!     let _span = SpanGuard::enter("epoch_replan");
//!     epochs.inc();
//! }
//! assert_eq!(epochs.get(), 1);
//! Telemetry::disable();
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod expose;
pub mod registry;
pub mod server;
pub mod snapshot;
pub mod span;

pub use expose::render_prometheus;
pub use registry::{
    Counter, Gauge, HistSnapshot, HistogramHandle, MetricId, Registry, TelemetrySnapshot,
};
pub use server::{scrape_text, MetricsServer};
pub use snapshot::{json_escape, snapshot_jsonl_line, PeriodicSnapshots};
pub use span::{
    flush_thread_profile, folded_profile, profile_rows, reset_profile, set_span_sample_shift,
    span_sample_interval, SpanGuard, SpanRow, DEFAULT_SAMPLE_SHIFT,
};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// The global telemetry switch and access point.
///
/// All state (the metrics registry and the merged span profile) is
/// process-global: instrumentation sites deep in the scheduling kernels
/// cannot thread a handle through their signatures without distorting the
/// very code paths being measured.
pub struct Telemetry;

impl Telemetry {
    /// Turns recording on or off. Off is the default; when off, every
    /// instrumentation site is a single relaxed atomic load.
    pub fn set_enabled(on: bool) {
        ENABLED.store(on, Ordering::Relaxed);
    }

    /// Enables recording (spans and registry handles start accumulating).
    pub fn enable() {
        Self::set_enabled(true);
    }

    /// Disables recording. Existing values are kept (scrapable) but no
    /// new spans or samples are recorded.
    pub fn disable() {
        Self::set_enabled(false);
    }

    /// Whether recording is currently on.
    #[inline]
    pub fn is_enabled() -> bool {
        ENABLED.load(Ordering::Relaxed)
    }

    /// The process-global metrics registry.
    pub fn registry() -> &'static Registry {
        Registry::global()
    }

    /// Zeroes every registered metric and clears the span profile
    /// (handles already held by instrumented code remain valid).
    pub fn reset() {
        Registry::global().reset();
        span::reset_profile();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_the_default_and_toggles() {
        // Note: other tests in this crate toggle the global switch, so
        // only assert the toggle round-trip, not the initial state.
        Telemetry::set_enabled(false);
        assert!(!Telemetry::is_enabled());
        Telemetry::enable();
        assert!(Telemetry::is_enabled());
        Telemetry::disable();
        assert!(!Telemetry::is_enabled());
    }
}
