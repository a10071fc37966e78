//! Online quality monitoring — the input to GE's compensation policy.
//!
//! The scheduler must know, "upon each scheduled job" (paper §III-A), the
//! perceived service quality so far: `Q = Σ f(c_j) / Σ f(p_j)` over jobs
//! whose service is finished (completed, cut short, or expired). The
//! ledger supports the paper's cumulative ("overall quality") monitor and
//! a sliding-window variant used in ablations — a window forgets ancient
//! history so the compensation policy reacts to *recent* user experience.

use std::collections::VecDeque;

/// How much history the ledger aggregates over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LedgerMode {
    /// All jobs since the start of the run (the paper's choice).
    Cumulative,
    /// Only the most recent `n` finished jobs.
    SlidingWindow(usize),
}

ge_recover::persist! {
    enum LedgerMode: u64 { 0 => Cumulative, 1 => SlidingWindow(n) }
}

/// Running aggregate of achieved vs. achievable quality.
#[derive(Debug, Clone)]
pub struct QualityLedger {
    mode: LedgerMode,
    achieved_sum: f64,
    full_sum: f64,
    count: u64,
    discarded: u64,
    completed: u64,
    window: VecDeque<(f64, f64)>,
}

// The mode comes from the configuration. The sums are persisted
// verbatim, NOT recomputed from the window, so the float values (any
// accumulated eviction drift included) survive a checkpoint bit for bit.
ge_recover::persist! {
    QualityLedger { achieved_sum, full_sum, count, discarded, completed, window as Resized }
}

impl QualityLedger {
    /// Creates a cumulative ledger (the paper's overall-quality monitor).
    pub fn cumulative() -> Self {
        Self::new(LedgerMode::Cumulative)
    }

    /// Creates a ledger with the given history mode.
    ///
    /// # Panics
    /// Panics on a zero-length sliding window.
    pub fn new(mode: LedgerMode) -> Self {
        if let LedgerMode::SlidingWindow(n) = mode {
            assert!(n > 0, "sliding window must be non-empty");
        }
        QualityLedger {
            mode,
            achieved_sum: 0.0,
            full_sum: 0.0,
            count: 0,
            discarded: 0,
            completed: 0,
            window: VecDeque::new(),
        }
    }

    /// Records a finished job: `achieved = f(c_j)`, `full = f(p_j)`.
    ///
    /// # Panics
    /// Panics (debug) if `achieved` exceeds `full` or either is negative —
    /// partial processing can never beat full processing.
    pub fn record(&mut self, achieved: f64, full: f64) {
        debug_assert!(full >= 0.0 && achieved >= -1e-12);
        debug_assert!(
            achieved <= full + 1e-9,
            "achieved quality {achieved} exceeds full {full}"
        );
        let achieved = achieved.max(0.0);
        self.count += 1;
        if achieved <= 1e-12 {
            self.discarded += 1;
        }
        if (full - achieved).abs() <= 1e-12 {
            self.completed += 1;
        }
        match self.mode {
            LedgerMode::Cumulative => {
                self.achieved_sum += achieved;
                self.full_sum += full;
            }
            LedgerMode::SlidingWindow(n) => {
                self.window.push_back((achieved, full));
                self.achieved_sum += achieved;
                self.full_sum += full;
                while self.window.len() > n {
                    let (a, f) = self.window.pop_front().expect("window non-empty");
                    self.achieved_sum -= a;
                    self.full_sum -= f;
                }
            }
        }
    }

    /// The monitored quality `Q`. Returns 1.0 before any job finishes
    /// (an empty history has lost nothing).
    pub fn quality(&self) -> f64 {
        if self.full_sum <= 0.0 {
            1.0
        } else {
            // Window-eviction float drift can leave Q epsilon-above 1.
            (self.achieved_sum / self.full_sum).min(1.0)
        }
    }

    /// Total jobs recorded over the whole run (ignores windowing).
    pub fn jobs_recorded(&self) -> u64 {
        self.count
    }

    /// Jobs that finished with (numerically) zero quality.
    pub fn jobs_discarded(&self) -> u64 {
        self.discarded
    }

    /// Jobs that achieved their full quality.
    pub fn jobs_completed_fully(&self) -> u64 {
        self.completed
    }

    /// Sum of achieved quality values currently in scope.
    pub fn achieved_sum(&self) -> f64 {
        self.achieved_sum
    }

    /// Sum of full (achievable) quality values currently in scope.
    pub fn full_sum(&self) -> f64 {
        self.full_sum
    }
}

impl Default for QualityLedger {
    fn default() -> Self {
        Self::cumulative()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_ledger_reports_perfect_quality() {
        assert_eq!(QualityLedger::cumulative().quality(), 1.0);
    }

    #[test]
    fn cumulative_ratio() {
        let mut l = QualityLedger::cumulative();
        l.record(0.5, 1.0);
        l.record(1.0, 1.0);
        assert!((l.quality() - 0.75).abs() < 1e-12);
        l.record(0.0, 1.0);
        assert!((l.quality() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn counts() {
        let mut l = QualityLedger::cumulative();
        l.record(0.0, 1.0); // discarded
        l.record(0.8, 0.8); // fully completed
        l.record(0.5, 0.9); // partial
        assert_eq!(l.jobs_recorded(), 3);
        assert_eq!(l.jobs_discarded(), 1);
        assert_eq!(l.jobs_completed_fully(), 1);
    }

    #[test]
    fn sliding_window_forgets() {
        let mut l = QualityLedger::new(LedgerMode::SlidingWindow(2));
        l.record(0.0, 1.0); // will be evicted
        l.record(1.0, 1.0);
        l.record(1.0, 1.0);
        assert!((l.quality() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sliding_window_partial_history() {
        let mut l = QualityLedger::new(LedgerMode::SlidingWindow(10));
        l.record(0.4, 1.0);
        assert!((l.quality() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn quality_clamped_at_one() {
        let mut l = QualityLedger::new(LedgerMode::SlidingWindow(1));
        for _ in 0..1000 {
            l.record(0.123_456, 0.123_456);
        }
        assert!(l.quality() <= 1.0);
        assert!(l.quality() > 0.999_999);
    }

    #[test]
    #[should_panic]
    fn zero_window_panics() {
        let _ = QualityLedger::new(LedgerMode::SlidingWindow(0));
    }

    #[test]
    fn compensation_scenario() {
        // The GE pattern: quality dips below target, then recovers as
        // full-quality (BQ-mode) jobs are recorded.
        let mut l = QualityLedger::cumulative();
        for _ in 0..10 {
            l.record(0.85, 1.0);
        }
        assert!(l.quality() < 0.9);
        let mut rounds = 0;
        while l.quality() < 0.9 {
            l.record(1.0, 1.0);
            rounds += 1;
            assert!(rounds < 100, "quality must recover");
        }
        assert!(rounds > 0);
    }
}

#[cfg(test)]
mod generative_tests {
    use super::*;
    use ge_simcore::RngStream;

    #[test]
    fn quality_always_in_unit_interval() {
        for seed in 0..64u64 {
            let mut rng = RngStream::from_root(seed, "ledger/unit");
            let mode = if rng.uniform01() < 0.5 {
                LedgerMode::Cumulative
            } else {
                LedgerMode::SlidingWindow(1 + rng.next_below(49) as usize)
            };
            let mut l = QualityLedger::new(mode);
            for _ in 0..rng.next_below(200) {
                let a = rng.uniform01();
                let f = rng.uniform01();
                let (a, f) = if a <= f { (a, f) } else { (f, a) };
                l.record(a, f);
                assert!((0.0..=1.0).contains(&l.quality()));
            }
        }
    }

    #[test]
    fn window_matches_naive_recompute() {
        for seed in 0..48u64 {
            let mut rng = RngStream::from_root(seed, "ledger/window");
            let n = 1 + rng.next_below(19) as usize;
            let mut l = QualityLedger::new(LedgerMode::SlidingWindow(n));
            let mut clean: Vec<(f64, f64)> = Vec::new();
            for _ in 0..1 + rng.next_below(99) {
                let a = rng.uniform01();
                let f = rng.uniform01();
                let (a, f) = if a <= f { (a, f) } else { (f, a) };
                l.record(a, f);
                clean.push((a, f));
                let tail = &clean[clean.len().saturating_sub(n)..];
                let fs: f64 = tail.iter().map(|r| r.1).sum();
                let as_: f64 = tail.iter().map(|r| r.0).sum();
                let expected = if fs <= 0.0 { 1.0 } else { (as_ / fs).min(1.0) };
                assert!((l.quality() - expected).abs() < 1e-9);
            }
        }
    }
}
