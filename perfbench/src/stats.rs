//! Order statistics over timing samples.
//!
//! Three rules from the benchmark's metric policy live here: a latency
//! is summarised by its median, a tail percentile is reported only when
//! at least [`MIN_BEYOND`] samples lie beyond it — otherwise the figure
//! would be set by a handful of outliers — and the host time of a
//! repeated piece of work is read at its fastest decile ([`fast_time`]).

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Median of `samples` (mean of the two middle values for even counts);
/// `None` for an empty slice. Non-finite samples sort last.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    })
}

/// The nearest-rank `p`-quantile (`p` in `(0, 1)`) of `samples`, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn tail_percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() || !(p > 0.0 && p < 1.0) {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    // Nearest rank: the smallest value with at least p·n samples at or
    // below it.
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    (beyond >= MIN_BEYOND).then(|| s[rank - 1])
}

/// The share of a run's repetitions that [`fast_time`] reads at.
const FAST_QUANTILE: f64 = 0.1;

/// The host time of one repetition of a piece of work repeated through a
/// run: the nearest-rank [`FAST_QUANTILE`] of `samples` (the minimum
/// below ten samples), or `None` for an empty slice.
///
/// On a host shared with other tenants, they slow a repetition by up to
/// 70% for seconds at a time; they never speed one up. The median of a
/// run then follows how busy the host was during it, while the fastest
/// decile follows the work and the host's slower phases, which
/// `sys::HostSpeed` scales out.
pub fn fast_time(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((FAST_QUANTILE * s.len() as f64).ceil() as usize).max(1);
    Some(s[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn fast_time_reads_the_fastest_decile() {
        assert_eq!(fast_time(&[]), None);
        assert_eq!(fast_time(&[3.0, 1.0, 2.0]), Some(1.0));
        // 40 samples: rank 4.
        let s: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        assert_eq!(fast_time(&s), Some(4.0));
        // 41 samples: rank 5.
        let s: Vec<f64> = (1..=41).map(f64::from).collect();
        assert_eq!(fast_time(&s), Some(5.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 over 1000 samples: rank 990, ten samples beyond.
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&s, 0.99), Some(990.0));
        // 999 samples leave only nine beyond rank 990.
        assert_eq!(tail_percentile(&s[..999], 0.99), None);
        // The median of 21 samples has ten beyond; of 20 it has ten too
        // (rank 10), of 19 only nine.
        assert_eq!(tail_percentile(&s[..21], 0.5), Some(11.0));
        assert_eq!(tail_percentile(&s[..20], 0.5), Some(10.0));
        assert_eq!(tail_percentile(&s[..19], 0.5), None);
    }

    #[test]
    fn tail_is_order_independent_and_rejects_bad_p() {
        let mut s: Vec<f64> = (0..2000).map(|i| f64::from((i * 7919) % 2000)).collect();
        let a = tail_percentile(&s, 0.99);
        s.reverse();
        assert_eq!(a, tail_percentile(&s, 0.99));
        assert_eq!(tail_percentile(&s, 0.0), None);
        assert_eq!(tail_percentile(&s, 1.0), None);
        assert_eq!(tail_percentile(&[], 0.5), None);
    }
}
