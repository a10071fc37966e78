//! Time-weighted cross-core speed statistics (paper Fig. 6).
//!
//! Fig. 6 plots, against arrival rate, (a) the *average speed* — the mean
//! core speed over cores and time — and (b) the *speed variance* — the
//! variance of speeds **across cores**, averaged over time. The variance
//! across cores is what exposes core-speed thrashing: Water-Filling under
//! light load gives a few cores high speed while others idle, whereas
//! Equal-Sharing keeps them clustered.

/// Accumulates time-weighted speed statistics from periodic samples.
///
/// The driver calls [`SpeedTracker::sample`] with the vector of current
/// core speeds and the length of time those speeds were in effect.
#[derive(Debug, Clone, Default)]
pub struct SpeedTracker {
    weighted_mean_sum: f64,
    weighted_var_sum: f64,
    total_time: f64,
    samples: u64,
}

ge_recover::persist! {
    SpeedTracker { weighted_mean_sum, weighted_var_sum, total_time, samples }
}

impl SpeedTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that the cores ran at `speeds` for `dt` seconds.
    ///
    /// Zero-length intervals are ignored; empty speed vectors are ignored.
    pub fn sample(&mut self, speeds: &[f64], dt: f64) {
        debug_assert!(dt >= -1e-12, "negative interval {dt}");
        if speeds.is_empty() || dt <= 0.0 {
            return;
        }
        let n = speeds.len() as f64;
        let mean = speeds.iter().sum::<f64>() / n;
        let var = speeds.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n;
        self.weighted_mean_sum += mean * dt;
        self.weighted_var_sum += var * dt;
        self.total_time += dt;
        self.samples += 1;
    }

    /// Time-weighted mean core speed (GHz); 0 before any sample.
    pub fn mean_speed(&self) -> f64 {
        if self.total_time <= 0.0 {
            0.0
        } else {
            self.weighted_mean_sum / self.total_time
        }
    }

    /// Time-weighted cross-core speed variance (GHz²); 0 before any sample.
    pub fn speed_variance(&self) -> f64 {
        if self.total_time <= 0.0 {
            0.0
        } else {
            self.weighted_var_sum / self.total_time
        }
    }

    /// Total observed time (seconds).
    pub fn observed_time(&self) -> f64 {
        self.total_time
    }

    /// Number of samples recorded.
    pub fn samples(&self) -> u64 {
        self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_speeds_zero_variance() {
        let mut t = SpeedTracker::new();
        t.sample(&[2.0, 2.0, 2.0, 2.0], 1.0);
        assert!((t.mean_speed() - 2.0).abs() < 1e-12);
        assert_eq!(t.speed_variance(), 0.0);
    }

    #[test]
    fn known_variance() {
        let mut t = SpeedTracker::new();
        // Speeds 1 and 3: mean 2, population variance 1.
        t.sample(&[1.0, 3.0], 1.0);
        assert!((t.mean_speed() - 2.0).abs() < 1e-12);
        assert!((t.speed_variance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn time_weighting() {
        let mut t = SpeedTracker::new();
        t.sample(&[4.0], 1.0); // 1 s at 4 GHz
        t.sample(&[1.0], 3.0); // 3 s at 1 GHz
                               // Mean = (4·1 + 1·3)/4 = 1.75.
        assert!((t.mean_speed() - 1.75).abs() < 1e-12);
    }

    #[test]
    fn thrashing_shows_up_as_variance() {
        // WF-like: one core fast, rest idle. ES-like: all equal.
        // The same total speed gives very different variances.
        let mut wf = SpeedTracker::new();
        let mut es = SpeedTracker::new();
        wf.sample(&[8.0, 0.0, 0.0, 0.0], 1.0);
        es.sample(&[2.0, 2.0, 2.0, 2.0], 1.0);
        assert!((wf.mean_speed() - es.mean_speed()).abs() < 1e-12);
        assert!(wf.speed_variance() > 10.0);
        assert_eq!(es.speed_variance(), 0.0);
    }

    #[test]
    fn empty_and_degenerate_samples_ignored() {
        let mut t = SpeedTracker::new();
        t.sample(&[], 1.0);
        t.sample(&[1.0], 0.0);
        assert_eq!(t.samples(), 0);
        assert_eq!(t.mean_speed(), 0.0);
        assert_eq!(t.speed_variance(), 0.0);
    }

    #[test]
    fn observed_time_accumulates() {
        let mut t = SpeedTracker::new();
        t.sample(&[1.0], 0.5);
        t.sample(&[1.0], 0.25);
        assert!((t.observed_time() - 0.75).abs() < 1e-12);
        assert_eq!(t.samples(), 2);
    }
}
