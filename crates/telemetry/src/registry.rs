//! The live metrics registry: counters, gauges, log-linear histograms.
//!
//! This registry is built for **concurrent** use on the hot path: metric
//! handles are `Arc`-shared atomics resolved once (one mutex acquisition
//! at handle-creation time), after which recording is lock-free — a few
//! `Relaxed` atomic read-modify-writes. A scrape thread snapshots the
//! registry concurrently; per-metric values are exact, cross-metric
//! consistency is best-effort (standard for Prometheus-style exporters).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// A metric's identity: name plus (sorted) label pairs.
pub type MetricId = (String, Vec<(String, String)>);

fn metric_id(name: &str, labels: &[(&str, &str)]) -> MetricId {
    let mut l: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    l.sort();
    (name.to_string(), l)
}

// ---------------------------------------------------------------------------
// Handles
// ---------------------------------------------------------------------------

/// A monotonically increasing counter handle.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `delta`.
    #[inline]
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins gauge handle (an `f64` stored as its bit pattern).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

// ---------------------------------------------------------------------------
// Log-linear atomic histogram
// ---------------------------------------------------------------------------

/// Sub-buckets per power-of-two octave.
const LINEAR: usize = 4;
/// Smallest resolved octave: values below `2^MIN_EXP` land in bucket 0.
const MIN_EXP: i32 = -20; // 2^-20 s ≈ 0.95 µs
/// One past the largest resolved octave: values ≥ `2^MAX_EXP` overflow.
const MAX_EXP: i32 = 10; // 2^10 s = 1024 s
/// Total buckets: underflow + LINEAR per octave + overflow.
const BUCKETS: usize = 2 + (MAX_EXP - MIN_EXP) as usize * LINEAR;

/// Bucket index for a finite, non-negative value.
#[inline]
fn bucket_index(v: f64) -> usize {
    if v <= f64::powi(2.0, MIN_EXP) {
        return 0;
    }
    if v >= f64::powi(2.0, MAX_EXP) {
        return BUCKETS - 1;
    }
    // Extract the unbiased binary exponent straight from the bit pattern
    // (v is strictly positive and normal here, given the range guards).
    let e = ((v.to_bits() >> 52) & 0x7ff) as i32 - 1023;
    let octave = f64::powi(2.0, e);
    let sub = (((v / octave) - 1.0) * LINEAR as f64) as usize;
    let idx = (1 + (e - MIN_EXP) as usize * LINEAR + sub.min(LINEAR - 1)).min(BUCKETS - 2);
    // `le` bounds are inclusive, so a value sitting exactly on a bucket
    // edge (v/2^e - 1 an exact multiple of 1/LINEAR) belongs one below.
    if v <= bucket_upper(idx - 1) {
        idx - 1
    } else {
        idx
    }
}

/// Inclusive upper bound (`le`) of bucket `idx`.
fn bucket_upper(idx: usize) -> f64 {
    if idx == 0 {
        return f64::powi(2.0, MIN_EXP);
    }
    if idx >= BUCKETS - 1 {
        return f64::INFINITY;
    }
    let k = idx - 1;
    let octave = MIN_EXP + (k / LINEAR) as i32;
    let sub = (k % LINEAR) as f64;
    f64::powi(2.0, octave) * (1.0 + (sub + 1.0) / LINEAR as f64)
}

#[derive(Debug)]
struct AtomicHistogram {
    counts: Vec<AtomicU64>,
    count: AtomicU64,
    sum_bits: AtomicU64,
    max_bits: AtomicU64,
    dropped: AtomicU64,
}

impl AtomicHistogram {
    fn new() -> Self {
        AtomicHistogram {
            counts: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0.0f64.to_bits()),
            max_bits: AtomicU64::new(0.0f64.to_bits()),
            dropped: AtomicU64::new(0),
        }
    }

    fn observe_weighted(&self, value: f64, weight: u64) {
        if weight == 0 {
            return;
        }
        if !value.is_finite() {
            self.dropped.fetch_add(weight, Ordering::Relaxed);
            return;
        }
        let v = value.max(0.0);
        self.counts[bucket_index(v)].fetch_add(weight, Ordering::Relaxed);
        self.count.fetch_add(weight, Ordering::Relaxed);
        // Relaxed CAS loops: contention on one histogram is rare (the
        // recording threads far outnumber collisions at epoch cadence).
        let _ = self
            .sum_bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + v * weight as f64).to_bits())
            });
        let _ = self
            .max_bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                (v > f64::from_bits(bits)).then(|| v.to_bits())
            });
    }

    fn reset(&self) {
        for c in &self.counts {
            c.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum_bits.store(0.0f64.to_bits(), Ordering::Relaxed);
        self.max_bits.store(0.0f64.to_bits(), Ordering::Relaxed);
        self.dropped.store(0, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistSnapshot {
        let mut buckets = Vec::new();
        let mut cumulative = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            let n = c.load(Ordering::Relaxed);
            if n > 0 {
                cumulative += n;
                buckets.push((bucket_upper(i), cumulative));
            }
        }
        HistSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
            max: f64::from_bits(self.max_bits.load(Ordering::Relaxed)),
            dropped: self.dropped.load(Ordering::Relaxed),
        }
    }
}

/// A live histogram handle recording non-negative values (seconds).
#[derive(Debug, Clone)]
pub struct HistogramHandle(Arc<AtomicHistogram>);

impl HistogramHandle {
    /// Records one observation; non-finite samples increment the dropped
    /// counter instead of poisoning the sum/max.
    #[inline]
    pub fn observe(&self, value: f64) {
        self.0.observe_weighted(value, 1);
    }

    /// Records one *sampled* observation standing in for `weight` real
    /// ones (inverse-probability weighting): bucket, count, and sum all
    /// advance by `weight`, so a site that only pays for the clock on
    /// every `weight`-th event still yields unbiased totals and quantile
    /// estimates. `max` stays the exact max of *measured* samples.
    #[inline]
    pub fn observe_weighted(&self, value: f64, weight: u64) {
        self.0.observe_weighted(value, weight);
    }

    /// Point-in-time snapshot of this histogram.
    pub fn snapshot(&self) -> HistSnapshot {
        self.0.snapshot()
    }
}

/// A frozen histogram: cumulative non-empty buckets plus aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct HistSnapshot {
    /// `(le, cumulative_count)` for buckets with at least one direct hit,
    /// in increasing `le` order; the final overflow bucket has
    /// `le = +inf`. Cumulative counts are non-decreasing and the last
    /// entry (when any) equals [`HistSnapshot::count`].
    pub buckets: Vec<(f64, u64)>,
    /// Total recorded observations.
    pub count: u64,
    /// Sum of recorded observations.
    pub sum: f64,
    /// Largest recorded observation (exact).
    pub max: f64,
    /// Non-finite samples rejected.
    pub dropped: u64,
}

impl HistSnapshot {
    /// The `q`-quantile estimate (`q ∈ [0, 1]`): the upper edge of the
    /// bucket containing the target rank (the exact max for the overflow
    /// bucket). Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        for &(le, cum) in &self.buckets {
            if cum >= target {
                return if le.is_finite() { le } else { self.max };
            }
        }
        self.max
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Inner {
    counters: BTreeMap<MetricId, Arc<AtomicU64>>,
    gauges: BTreeMap<MetricId, Arc<AtomicU64>>,
    hists: BTreeMap<MetricId, Arc<AtomicHistogram>>,
}

/// The process-global registry of named metrics.
///
/// Metric handles are created on first touch (one mutex acquisition);
/// recording through a handle never locks.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Registry {
    /// The process-global instance (usually reached via
    /// [`crate::Telemetry::registry`]).
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::default)
    }

    /// Creates an empty, standalone registry (tests).
    pub fn new() -> Self {
        Registry::default()
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // Metric updates are atomic and never run under this lock, so a
        // poisoned mutex cannot hide a torn registry — recover the guard.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Resolves (creating on first touch) the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_with(name, &[])
    }

    /// Resolves the counter `name` with `labels`.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let id = metric_id(name, labels);
        let mut inner = self.lock();
        Counter(Arc::clone(inner.counters.entry(id).or_default()))
    }

    /// Resolves (creating on first touch) the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_with(name, &[])
    }

    /// Resolves the gauge `name` with `labels`.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let id = metric_id(name, labels);
        let mut inner = self.lock();
        Gauge(Arc::clone(inner.gauges.entry(id).or_insert_with(|| {
            Arc::new(AtomicU64::new(0.0f64.to_bits()))
        })))
    }

    /// Resolves (creating on first touch) the histogram `name`.
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        self.histogram_with(name, &[])
    }

    /// Resolves the histogram `name` with `labels`.
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> HistogramHandle {
        let id = metric_id(name, labels);
        let mut inner = self.lock();
        HistogramHandle(Arc::clone(
            inner
                .hists
                .entry(id)
                .or_insert_with(|| Arc::new(AtomicHistogram::new())),
        ))
    }

    /// Freezes every metric into a [`TelemetrySnapshot`] (sorted by id).
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let inner = self.lock();
        TelemetrySnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(id, v)| (id.clone(), v.load(Ordering::Relaxed)))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(id, v)| (id.clone(), f64::from_bits(v.load(Ordering::Relaxed))))
                .collect(),
            hists: inner
                .hists
                .iter()
                .map(|(id, h)| (id.clone(), h.snapshot()))
                .collect(),
        }
    }

    /// Zeroes every metric, keeping registrations (and handles) valid.
    pub fn reset(&self) {
        let inner = self.lock();
        for v in inner.counters.values() {
            v.store(0, Ordering::Relaxed);
        }
        for v in inner.gauges.values() {
            v.store(0.0f64.to_bits(), Ordering::Relaxed);
        }
        for h in inner.hists.values() {
            h.reset();
        }
    }
}

/// A point-in-time copy of a whole [`Registry`].
#[derive(Debug, Clone, Default)]
pub struct TelemetrySnapshot {
    /// Counters, sorted by id.
    pub counters: Vec<(MetricId, u64)>,
    /// Gauges, sorted by id.
    pub gauges: Vec<(MetricId, f64)>,
    /// Histograms, sorted by id.
    pub hists: Vec<(MetricId, HistSnapshot)>,
}

impl TelemetrySnapshot {
    /// Looks up an unlabelled counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|((n, l), _)| n == name && l.is_empty())
            .map(|(_, v)| *v)
    }

    /// Looks up an unlabelled gauge by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges
            .iter()
            .find(|((n, l), _)| n == name && l.is_empty())
            .map(|(_, v)| *v)
    }

    /// Looks up an unlabelled histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistSnapshot> {
        self.hists
            .iter()
            .find(|((n, l), _)| n == name && l.is_empty())
            .map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let r = Registry::new();
        let c = r.counter("ge_epochs_total");
        c.inc();
        c.add(4);
        let g = r.gauge("ge_queue_depth");
        g.set(7.5);
        let snap = r.snapshot();
        assert_eq!(snap.counter("ge_epochs_total"), Some(5));
        assert_eq!(snap.gauge("ge_queue_depth"), Some(7.5));
        assert_eq!(snap.counter("missing"), None);
    }

    #[test]
    fn handles_share_storage_by_id() {
        let r = Registry::new();
        r.counter("c").inc();
        r.counter("c").inc();
        assert_eq!(r.counter("c").get(), 2);
        // Different labels are different metrics.
        r.counter_with("c", &[("core", "0")]).inc();
        assert_eq!(r.counter("c").get(), 2);
        assert_eq!(r.counter_with("c", &[("core", "0")]).get(), 1);
        // Label order does not matter.
        r.counter_with("l", &[("a", "1"), ("b", "2")]).add(3);
        assert_eq!(r.counter_with("l", &[("b", "2"), ("a", "1")]).get(), 3);
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_cover_inf() {
        let r = Registry::new();
        let h = r.histogram("lat");
        for v in [1e-6, 1e-4, 1e-4, 0.01, 0.5, 2000.0] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert!((s.sum - 2000.510201).abs() < 1e-6);
        assert_eq!(s.max, 2000.0);
        // Cumulative counts are non-decreasing and end at count.
        let mut prev = 0;
        for &(le, cum) in &s.buckets {
            assert!(cum >= prev, "bucket at le={le} decreased");
            prev = cum;
        }
        assert_eq!(prev, s.count);
        // The 2000 s sample lands in the +Inf overflow bucket.
        let (last_le, _) = s.buckets[s.buckets.len() - 1];
        assert!(last_le.is_infinite());
    }

    #[test]
    fn weighted_observations_scale_count_sum_and_buckets() {
        let r = Registry::new();
        let h = r.histogram("sampled");
        h.observe_weighted(0.002, 8);
        h.observe_weighted(0.002, 0); // weight 0 is a no-op
        h.observe_weighted(f64::NAN, 8);
        let s = h.snapshot();
        assert_eq!(s.count, 8);
        assert!((s.sum - 0.016).abs() < 1e-12);
        assert_eq!(s.max, 0.002);
        assert_eq!(s.dropped, 8);
        // The single measured sample fills its bucket with full weight.
        assert_eq!(s.buckets.last().map(|&(_, c)| c), Some(8));
        // Quantiles read through the weighted bucket.
        assert!(s.quantile(0.5) >= 0.002 && s.quantile(0.5) < 0.003);
    }

    #[test]
    fn histogram_drops_non_finite() {
        let r = Registry::new();
        let h = r.histogram("lat");
        h.observe(0.25);
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.dropped, 2);
        assert_eq!(s.max, 0.25);
    }

    #[test]
    fn bucket_index_matches_bucket_upper() {
        // Every recorded value must land in a bucket whose le bound
        // covers it and whose predecessor does not.
        for &v in &[
            0.0, 1e-9, 1e-6, 3e-6, 1e-3, 0.0099, 0.5, 1.0, 1.5, 100.0, 1023.0, 1024.0, 1e9,
        ] {
            let idx = bucket_index(v);
            assert!(v <= bucket_upper(idx), "v={v} above its bucket bound");
            if idx > 0 {
                assert!(
                    v > bucket_upper(idx - 1) || idx == BUCKETS - 1,
                    "v={v} fits an earlier bucket ({idx})"
                );
            }
        }
        // Bounds are strictly increasing.
        for i in 1..BUCKETS {
            assert!(bucket_upper(i) > bucket_upper(i - 1));
        }
    }

    #[test]
    fn quantiles_come_from_bucket_edges() {
        let r = Registry::new();
        let h = r.histogram("q");
        for _ in 0..90 {
            h.observe(0.001);
        }
        for _ in 0..10 {
            h.observe(0.1);
        }
        let s = h.snapshot();
        assert!(s.quantile(0.5) >= 0.001 && s.quantile(0.5) < 0.0015);
        assert!(s.quantile(0.95) >= 0.1 && s.quantile(0.95) < 0.15);
        assert_eq!(s.quantile(0.0), s.quantile(1e-9));
        let empty = r.histogram("empty").snapshot();
        assert_eq!(empty.quantile(0.99), 0.0);
    }

    #[test]
    fn reset_zeroes_but_keeps_handles_alive() {
        let r = Registry::new();
        let c = r.counter("c");
        let h = r.histogram("h");
        c.add(9);
        h.observe(1.0);
        r.reset();
        assert_eq!(c.get(), 0);
        assert_eq!(h.snapshot().count, 0);
        c.inc();
        assert_eq!(r.snapshot().counter("c"), Some(1));
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let r = std::sync::Arc::new(Registry::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let r2 = std::sync::Arc::clone(&r);
            handles.push(std::thread::spawn(move || {
                let c = r2.counter("c");
                let h = r2.histogram("h");
                for i in 0..1000 {
                    c.inc();
                    h.observe(i as f64 * 1e-5);
                }
            }));
        }
        for t in handles {
            t.join().unwrap();
        }
        let snap = r.snapshot();
        assert_eq!(snap.counter("c"), Some(4000));
        assert_eq!(snap.histogram("h").unwrap().count, 4000);
    }
}
