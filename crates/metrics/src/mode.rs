//! Execution-mode residency tracking (paper Fig. 1).
//!
//! Fig. 1 plots the fraction of time the GE scheduler spends in the AES
//! (Aggressive Energy Saving) mode as the arrival rate grows. The tracker
//! records mode *transitions* with their timestamps and integrates
//! residency per mode.

use ge_simcore::SimTime;

/// Tracks time spent in each of a small set of modes, identified by a
/// dense `usize` tag (the GE driver uses 0 = AES, 1 = BQ).
#[derive(Debug, Clone)]
pub struct ModeTracker {
    residency: Vec<f64>,
    current: usize,
    since: SimTime,
    transitions: u64,
}

ge_recover::persist! {
    ModeTracker { residency, current, since, transitions }
    check |m| m.current < m.residency.len() => "current mode out of range";
}

impl ModeTracker {
    /// Creates a tracker over `modes` distinct modes, starting in
    /// `initial` at time `start`.
    ///
    /// # Panics
    /// Panics if `initial ≥ modes` or `modes == 0`.
    pub fn new(modes: usize, initial: usize, start: SimTime) -> Self {
        assert!(modes > 0 && initial < modes, "invalid mode setup");
        ModeTracker {
            residency: vec![0.0; modes],
            current: initial,
            since: start,
            transitions: 0,
        }
    }

    /// The currently active mode.
    pub fn current(&self) -> usize {
        self.current
    }

    /// Switches to `mode` at time `now`; a no-op if already in that mode.
    ///
    /// # Panics
    /// Panics if `mode` is out of range or `now` precedes the last event.
    pub fn switch(&mut self, mode: usize, now: SimTime) {
        assert!(mode < self.residency.len(), "unknown mode {mode}");
        if mode == self.current {
            return;
        }
        self.residency[self.current] += now.saturating_since(self.since).as_secs();
        self.current = mode;
        self.since = now;
        self.transitions += 1;
    }

    /// Closes the books at `end` and returns per-mode residency fractions.
    /// The tracker can keep being used afterwards (`finalize` is pure).
    pub fn fractions_at(&self, end: SimTime) -> Vec<f64> {
        let mut r = self.residency.clone();
        r[self.current] += end.saturating_since(self.since).as_secs();
        let total: f64 = r.iter().sum();
        if total <= 0.0 {
            // No elapsed time: report all residency in the current mode.
            let mut out = vec![0.0; r.len()];
            out[self.current] = 1.0;
            return out;
        }
        r.iter().map(|&x| x / total).collect()
    }

    /// Absolute seconds spent per mode as of `end`.
    pub fn seconds_at(&self, end: SimTime) -> Vec<f64> {
        let mut r = self.residency.clone();
        r[self.current] += end.saturating_since(self.since).as_secs();
        r
    }

    /// Number of mode switches so far.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn residency_integration() {
        let mut m = ModeTracker::new(2, 0, t(0.0));
        m.switch(1, t(3.0)); // 3 s in mode 0
        m.switch(0, t(5.0)); // 2 s in mode 1
        let frac = m.fractions_at(t(10.0)); // +5 s in mode 0
        assert!((frac[0] - 0.8).abs() < 1e-12);
        assert!((frac[1] - 0.2).abs() < 1e-12);
        assert_eq!(m.transitions(), 2);
    }

    #[test]
    fn redundant_switches_ignored() {
        let mut m = ModeTracker::new(2, 0, t(0.0));
        m.switch(0, t(1.0));
        m.switch(0, t(2.0));
        assert_eq!(m.transitions(), 0);
        let frac = m.fractions_at(t(4.0));
        assert!((frac[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_elapsed_time() {
        let m = ModeTracker::new(3, 2, t(5.0));
        let frac = m.fractions_at(t(5.0));
        assert_eq!(frac, vec![0.0, 0.0, 1.0]);
    }

    #[test]
    fn seconds_at_absolute() {
        let mut m = ModeTracker::new(2, 0, t(0.0));
        m.switch(1, t(1.5));
        let secs = m.seconds_at(t(2.0));
        assert!((secs[0] - 1.5).abs() < 1e-12);
        assert!((secs[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn unknown_mode_panics() {
        let mut m = ModeTracker::new(2, 0, t(0.0));
        m.switch(5, t(1.0));
    }

    #[test]
    #[should_panic]
    fn zero_modes_panics() {
        let _ = ModeTracker::new(0, 0, t(0.0));
    }

    #[test]
    fn fractions_sum_to_one() {
        let mut m = ModeTracker::new(4, 0, t(0.0));
        m.switch(1, t(0.3));
        m.switch(3, t(0.9));
        m.switch(2, t(2.2));
        m.switch(0, t(7.0));
        let frac = m.fractions_at(t(11.0));
        assert!((frac.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }
}
