//! The traced run: `ge-telemetry` spans at sample shift 0 (every visit
//! recorded, weight 1) plus the benchmark's own spans around its calls
//! into each layer, folded into per-span self times.
//!
//! Self times partition the time inside root spans exactly, so the
//! self-time shares plus the unattributed share (traced wall time outside
//! every span) must sum to 1. [`Profile::share_sum_err`] is the distance
//! from 1, checked against [`SHARE_SUM_TOLERANCE`]; it grows if spans
//! are sampled, leak from other threads, or nest wrongly.

use ge_telemetry::{flush_thread_profile, profile_rows, set_span_sample_shift, Telemetry};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Allowed distance of the summed shares from 1.
pub const SHARE_SUM_TOLERANCE: f64 = 0.01;

/// Clears earlier spans and metrics and records every span visit.
pub fn reset() {
    Telemetry::reset();
    set_span_sample_shift(0);
}

/// Runs `f` with telemetry on and returns its result and wall time.
pub fn traced<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    Telemetry::enable();
    let start = Instant::now();
    let out = f();
    let wall = start.elapsed();
    Telemetry::disable();
    (out, wall)
}

#[derive(Debug, Default, Clone, Copy)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Span totals of all traced runs since [`reset`], keyed by span name.
#[derive(Debug, Default)]
pub struct Profile {
    spans: BTreeMap<String, SpanTotals>,
    roots: BTreeMap<String, SpanTotals>,
    wall_ns: u64,
    runs: u64,
}

impl Profile {
    /// Folds the merged span profile; `wall` is the summed wall time of
    /// the `runs` traced runs.
    pub fn collect(wall: Duration, runs: u64) -> Profile {
        flush_thread_profile();
        let mut p = Profile {
            wall_ns: wall.as_nanos() as u64,
            runs: runs.max(1),
            ..Profile::default()
        };
        for row in profile_rows() {
            let name = row.path.rsplit(';').next().unwrap_or("").to_string();
            let add = |t: &mut SpanTotals| {
                t.count += row.count;
                t.total_ns += row.total_ns;
                t.self_ns += row.self_ns;
            };
            add(p.spans.entry(name.clone()).or_default());
            if !row.path.contains(';') {
                add(p.roots.entry(name).or_default());
            }
        }
        p
    }

    fn get(&self, name: &str) -> SpanTotals {
        self.spans.get(name).copied().unwrap_or_default()
    }

    /// Visits of span `name` per traced run.
    pub fn calls_per_run(&self, name: &str) -> f64 {
        self.get(name).count as f64 / self.runs as f64
    }

    /// Mean self time of one visit of `name`, nanoseconds (0 if unseen).
    pub fn mean_self_ns(&self, name: &str) -> f64 {
        let t = self.get(name);
        if t.count == 0 {
            0.0
        } else {
            t.self_ns as f64 / t.count as f64
        }
    }

    /// Self time of `name` as a share of the traced wall time.
    pub fn self_share(&self, name: &str) -> f64 {
        self.get(name).self_ns as f64 / self.wall_ns.max(1) as f64
    }

    /// Traced wall time outside every root span, as a share.
    pub fn unattributed_share(&self) -> f64 {
        let in_roots: u64 = self.roots.values().map(|t| t.total_ns).sum();
        self.wall_ns.saturating_sub(in_roots) as f64 / self.wall_ns.max(1) as f64
    }

    /// `|Σ self shares + unattributed share − 1|`.
    pub fn share_sum_err(&self) -> f64 {
        let self_sum: f64 = self.spans.keys().map(|n| self.self_share(n)).sum();
        (self_sum + self.unattributed_share() - 1.0).abs()
    }

    /// `name  share  self-µs/visit  visits/run` lines, largest share first.
    pub fn render(&self) -> String {
        let mut rows: Vec<(&String, &SpanTotals)> = self.spans.iter().collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.1.self_ns));
        let mut out = String::new();
        for (name, t) in rows {
            out.push_str(&format!(
                "  span {:<22} self {:>6.2}%  {:>10.3} us/visit  {:>10.0} visits/run\n",
                name,
                100.0 * self.self_share(name),
                self.mean_self_ns(name) / 1e3,
                t.count as f64 / self.runs as f64
            ));
        }
        out.push_str(&format!(
            "  unattributed {:.3}%  share sum error {:.2e} (tolerance {SHARE_SUM_TOLERANCE})\n",
            100.0 * self.unattributed_share(),
            self.share_sum_err()
        ));
        out
    }
}
