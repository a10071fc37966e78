//! Fixed-bin histograms with percentile queries.
//!
//! Used for response-latency distributions: interactive services care
//! about tail latency (the paper's motivating context — web search with a
//! 150 ms deadline), so the driver records every job's response time and
//! reports P50/P95/P99 alongside quality and energy.

/// A histogram over `[0, upper)` with uniform bins plus an overflow bin.
///
/// Values are clamped into range; exact values are not retained, so
/// percentiles are accurate to one bin width.
#[derive(Debug, Clone)]
pub struct Histogram {
    bins: Vec<u64>,
    upper: f64,
    count: u64,
    sum: f64,
    max_seen: f64,
    dropped: u64,
}

// `bins` includes the trailing overflow bin; its length is the built one.
ge_recover::persist! {
    Histogram { bins, upper, count, sum, max_seen, dropped }
    check |h| ge_recover::persist::positive(h.upper) => "malformed latency histogram";
}

impl Histogram {
    /// Creates a histogram over `[0, upper)` with `bins` uniform bins.
    ///
    /// # Panics
    /// Panics unless `upper > 0` and `bins > 0`.
    pub fn new(upper: f64, bins: usize) -> Self {
        assert!(upper > 0.0 && upper.is_finite(), "invalid upper {upper}");
        assert!(bins > 0, "need at least one bin");
        Histogram {
            bins: vec![0; bins + 1], // +1 overflow
            upper,
            count: 0,
            sum: 0.0,
            max_seen: 0.0,
            dropped: 0,
        }
    }

    /// A histogram suited to sub-second latencies: 1 ms bins to 1 s.
    pub fn latency_default() -> Self {
        Self::new(1.0, 1000)
    }

    /// Records one observation. Negative values clamp to zero; non-finite
    /// values (NaN, ±∞) are dropped without counting — one corrupt sample
    /// must not poison the mean/max or, worse, panic a release run that a
    /// debug assertion would have caught only in tests. Drops are tallied
    /// in [`Histogram::dropped`] so they stay visible in run summaries.
    pub fn record(&mut self, value: f64) {
        if !value.is_finite() {
            self.dropped += 1;
            return;
        }
        let v = value.max(0.0);
        let idx = if v >= self.upper {
            self.bins.len() - 1
        } else {
            ((v / self.upper) * (self.bins.len() - 1) as f64) as usize
        };
        self.bins[idx] += 1;
        self.count += 1;
        self.sum += v;
        self.max_seen = self.max_seen.max(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Non-finite samples rejected by [`Histogram::record`].
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Mean of the recorded values (exact; 0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Largest recorded value (exact).
    pub fn max(&self) -> f64 {
        self.max_seen
    }

    /// The `q`-quantile (`q ∈ [0, 1]`), accurate to one bin width; the
    /// overflow bin reports the exact maximum. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &n) in self.bins.iter().enumerate() {
            seen += n;
            if seen >= target {
                if i == self.bins.len() - 1 {
                    return self.max_seen;
                }
                // Upper edge of the bin: a conservative (pessimistic)
                // latency estimate.
                let width = self.upper / (self.bins.len() - 1) as f64;
                return (i as f64 + 1.0) * width;
            }
        }
        self.max_seen
    }

    /// Convenience: the 50th/95th/99th percentiles.
    pub fn p50_p95_p99(&self) -> (f64, f64, f64) {
        (
            self.quantile(0.50),
            self.quantile(0.95),
            self.quantile(0.99),
        )
    }

    /// Merges another histogram with identical shape.
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.bins.len(), other.bins.len(), "bin count mismatch");
        assert!((self.upper - other.upper).abs() < 1e-12, "range mismatch");
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max_seen = self.max_seen.max(other.max_seen);
        self.dropped += other.dropped;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ge_recover::Persist;

    #[test]
    fn empty() {
        let h = Histogram::new(1.0, 10);
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0.0);
    }

    #[test]
    fn mean_is_exact() {
        let mut h = Histogram::new(1.0, 10);
        for v in [0.1, 0.2, 0.3] {
            h.record(v);
        }
        assert!((h.mean() - 0.2).abs() < 1e-12);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn quantiles_within_bin_width() {
        let mut h = Histogram::new(1.0, 1000);
        for i in 0..1000 {
            h.record(i as f64 / 1000.0);
        }
        let width = 1.0 / 1000.0;
        assert!((h.quantile(0.5) - 0.5).abs() <= width + 1e-12);
        assert!((h.quantile(0.95) - 0.95).abs() <= width + 1e-12);
        assert!((h.quantile(0.99) - 0.99).abs() <= width + 1e-12);
    }

    #[test]
    fn overflow_reports_exact_max() {
        let mut h = Histogram::new(1.0, 10);
        h.record(5.0);
        h.record(9.0);
        assert_eq!(h.quantile(1.0), 9.0);
        assert_eq!(h.max(), 9.0);
    }

    #[test]
    fn negative_clamps_to_zero() {
        let mut h = Histogram::new(1.0, 10);
        h.record(-3.0);
        assert_eq!(h.count(), 1);
        assert!(h.quantile(0.5) <= 0.1);
    }

    #[test]
    fn merge_equals_combined() {
        let mut a = Histogram::new(1.0, 100);
        let mut b = Histogram::new(1.0, 100);
        let mut whole = Histogram::new(1.0, 100);
        for i in 0..50 {
            let v = i as f64 / 100.0;
            a.record(v);
            whole.record(v);
        }
        for i in 50..100 {
            let v = i as f64 / 100.0;
            b.record(v);
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.quantile(0.9), whole.quantile(0.9));
        assert!((a.mean() - whole.mean()).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn merge_shape_mismatch_panics() {
        let mut a = Histogram::new(1.0, 10);
        let b = Histogram::new(1.0, 20);
        a.merge(&b);
    }

    #[test]
    fn p50_p95_p99_tuple() {
        let mut h = Histogram::latency_default();
        for i in 0..100 {
            h.record(i as f64 * 0.001);
        }
        let (p50, p95, p99) = h.p50_p95_p99();
        assert!(p50 < p95 && p95 <= p99);
    }

    #[test]
    fn non_finite_samples_are_dropped() {
        // Regression: record() used debug_assert!(value.is_finite()), so
        // a NaN latency panicked test builds and silently poisoned sum,
        // max, and every quantile in release builds.
        let mut h = Histogram::new(1.0, 10);
        h.record(0.25);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(f64::NEG_INFINITY);
        h.record(0.75);
        assert_eq!(h.count(), 2, "non-finite samples must not count");
        assert_eq!(h.dropped(), 3, "each rejected sample must be tallied");
        assert!((h.mean() - 0.5).abs() < 1e-12);
        assert!((h.max() - 0.75).abs() < 1e-12);
        assert!(h.quantile(1.0).is_finite());
    }

    #[test]
    fn all_nan_histogram_stays_empty() {
        let mut h = Histogram::new(1.0, 10);
        for _ in 0..5 {
            h.record(f64::NAN);
        }
        assert_eq!(h.count(), 0);
        assert_eq!(h.dropped(), 5);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.99), 0.0);
    }

    #[test]
    fn dropped_survives_merge_and_snapshot_round_trip() {
        let mut a = Histogram::new(1.0, 10);
        let mut b = Histogram::new(1.0, 10);
        a.record(f64::NAN);
        a.record(0.5);
        b.record(f64::INFINITY);
        a.merge(&b);
        assert_eq!(a.dropped(), 2);
        let mut enc = ge_recover::Encoder::new();
        a.encode(&mut enc);
        let bytes = enc.into_bytes();
        let mut restored = Histogram::new(1.0, 10);
        restored
            .decode(&mut ge_recover::Decoder::new(&bytes), "h")
            .unwrap();
        assert_eq!(restored.dropped(), 2);
        assert_eq!(restored.count(), 1);
    }
}

#[cfg(test)]
mod generative_tests {
    use super::*;
    use ge_simcore::RngStream;

    #[test]
    fn quantile_brackets_sorted_data() {
        for seed in 0..64u64 {
            let mut rng = RngStream::from_root(seed, "hist/bracket");
            let n = 1 + rng.next_below(299) as usize;
            let mut values: Vec<f64> = (0..n).map(|_| rng.uniform_range(0.0, 2.0)).collect();
            let q = rng.uniform_range(0.01, 1.0);
            let mut h = Histogram::new(1.0, 200);
            for &v in &values {
                h.record(v);
            }
            values.sort_by(|a, b| a.total_cmp(b));
            let idx = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len()) - 1;
            let exact = values[idx];
            let est = h.quantile(q);
            // Histogram estimate is within one bin width above the exact
            // value (we report bin upper edges), except in the overflow
            // bin where we report the exact max.
            let width = 1.0 / 200.0;
            assert!(
                est + 1e-9 >= exact.min(h.max()),
                "estimate {est} below exact {exact}"
            );
            if exact < 1.0 - width {
                assert!(
                    est <= exact + 2.0 * width + 1e-9,
                    "estimate {est} too far above exact {exact}"
                );
            }
        }
    }

    #[test]
    fn quantile_monotone_in_q() {
        for seed in 0..64u64 {
            let mut rng = RngStream::from_root(seed, "hist/mono");
            let n = 1 + rng.next_below(199) as usize;
            let mut h = Histogram::new(1.0, 100);
            for _ in 0..n {
                h.record(rng.uniform01());
            }
            let mut prev = 0.0;
            for i in 1..=20 {
                let q = i as f64 / 20.0;
                let est = h.quantile(q);
                assert!(est + 1e-12 >= prev);
                prev = est;
            }
        }
    }
}
