//! Host facts the benchmark reports.

use crate::stats::fast_time;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Host seconds of one [`probe`], read at the fastest decile of a run's
/// probes, on the baseline machine when no other tenant slows it. Host
/// times are reported scaled to it (see [`HostSpeed`]).
pub const PROBE_REF_S: f64 = 0.015;

/// One run of the host-speed probe, in host seconds: 300k pushes of
/// pseudo-random keys into a binary heap held at 5000 entries, each
/// with one small heap allocation. It is fixed work of the kind the
/// engines do (priority-queue churn and short-lived allocations), so a
/// host phase that slows them slows it too, and it runs no code of the
/// layers under test.
pub fn probe() -> f64 {
    let t = Instant::now();
    let mut heap = BinaryHeap::with_capacity(5001);
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for _ in 0..300_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        heap.push(x % 1_000_000);
        if heap.len() > 5000 {
            black_box(heap.pop());
        }
        black_box(Vec::<u64>::with_capacity((x % 64) as usize + 1));
    }
    black_box(heap);
    t.elapsed().as_secs_f64()
}

/// The host's speed through one run, from a [`probe`] taken after each
/// repetition of the measured work.
///
/// Other tenants of the host slow the same work by up to 70% in phases
/// that last from seconds to many minutes, long enough to cover whole
/// runs. A host time read at the fastest decile of a run's repetitions
/// ([`fast_time`]) is then still slowed by the phase the run fell in;
/// dividing it by the probes' fastest decile cancels that phase.
#[derive(Debug, Default)]
pub struct HostSpeed {
    probes: Vec<f64>,
}

impl HostSpeed {
    /// Runs one probe and keeps its time.
    pub fn sample(&mut self) {
        self.push(probe());
    }

    /// Keeps one probe time taken elsewhere.
    pub fn push(&mut self, probe_s: f64) {
        self.probes.push(probe_s);
    }

    /// The fastest decile of the probes, host seconds (NaN without probes).
    pub fn probe_s(&self) -> f64 {
        fast_time(&self.probes).unwrap_or(f64::NAN)
    }

    /// The fastest decile of `samples` (host seconds of repeated work),
    /// scaled to a host on which the probe takes [`PROBE_REF_S`].
    pub fn scaled(&self, samples: &[f64]) -> f64 {
        fast_time(samples).unwrap_or(f64::NAN) * PROBE_REF_S / self.probe_s()
    }

    /// One line for the run's log: probes, their fastest decile, and the
    /// factor host times are scaled by.
    pub fn describe(&self) -> String {
        format!(
            "host speed: {} probes, fastest decile {:.3} ms, host times scaled by {:.4}",
            self.probes.len(),
            self.probe_s() * 1e3,
            PROBE_REF_S / self.probe_s()
        )
    }
}

/// The process's resident-set high-water mark in MB (`VmHWM` from
/// `/proc/self/status`), or NaN where that file is unavailable — the
/// report then flags the metric as non-finite.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_divides_by_the_probes_fastest_decile() {
        let mut host = HostSpeed::default();
        assert!(host.scaled(&[1.0]).is_nan());
        // Probes twice the reference time: host times are halved.
        for _ in 0..20 {
            host.push(2.0 * PROBE_REF_S);
        }
        host.push(PROBE_REF_S);
        assert_eq!(host.probe_s(), 2.0 * PROBE_REF_S);
        assert_eq!(host.scaled(&[3.0, 1.0, 2.0]), 0.5);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        let mb = peak_rss_mb();
        assert!(mb.is_nan() || mb > 0.0);
    }
}
