//! Piecewise-constant speed profiles.
//!
//! The Energy-OPT scheduler emits a speed *profile* — the core's planned
//! speed as a function of time — and the execution engine integrates it to
//! advance job progress and meter energy. Profiles are sorted, non-
//! overlapping segments; gaps mean the core is idle (speed 0).

use crate::model::PowerModel;
use ge_recover::persist::non_negative;
use ge_simcore::{SimTime, TIME_EPS};

/// One constant-speed stretch of a profile. The default is an empty
/// placeholder for a checkpoint decode to overwrite.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpeedSegment {
    /// Segment start.
    pub start: SimTime,
    /// Segment end (exclusive; `end > start`).
    pub end: SimTime,
    /// Core speed in GHz over `[start, end)`.
    pub speed_ghz: f64,
}

impl SpeedSegment {
    /// Creates a segment, validating its invariants.
    ///
    /// # Panics
    /// Panics if `end ≤ start` or the speed is negative/non-finite.
    pub fn new(start: SimTime, end: SimTime, speed_ghz: f64) -> Self {
        assert!(end.after(start), "empty segment [{start}, {end})");
        assert!(
            speed_ghz.is_finite() && speed_ghz >= 0.0,
            "invalid speed {speed_ghz}"
        );
        SpeedSegment {
            start,
            end,
            speed_ghz,
        }
    }

    /// Length of the segment in seconds.
    pub fn secs(&self) -> f64 {
        self.end.saturating_since(self.start).as_secs()
    }
}

ge_recover::persist! {
    SpeedSegment { start, end, speed_ghz }
    check |s| s.end > s.start => "malformed speed segment window";
    check |s| non_negative(s.speed_ghz) => "malformed segment speed";
}

/// Whether `segments` are ordered and overlap by at most [`TIME_EPS`].
fn in_order(segments: &[SpeedSegment]) -> bool {
    segments
        .windows(2)
        .all(|w| w[1].start.as_secs() >= w[0].end.as_secs() - TIME_EPS)
}

/// Panics unless `segments` are ordered and overlap by at most [`TIME_EPS`].
pub(crate) fn check_order(segments: &[SpeedSegment]) {
    assert!(in_order(segments), "segments overlap: {segments:?}");
}

/// A piecewise-constant, time-sorted speed plan for one core.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpeedProfile {
    segments: Vec<SpeedSegment>,
}

ge_recover::persist! {
    SpeedProfile { segments as Resized }
    check |p| in_order(&p.segments) => "overlapping speed segments";
}

impl SpeedProfile {
    /// An empty (always idle) profile.
    pub fn empty() -> Self {
        SpeedProfile::default()
    }

    /// Builds a profile from segments.
    ///
    /// # Panics
    /// Panics if segments are unordered or overlap beyond [`TIME_EPS`].
    pub fn new(segments: Vec<SpeedSegment>) -> Self {
        check_order(&segments);
        SpeedProfile { segments }
    }

    /// Overwrites this profile with `src`'s segments, each speed passed
    /// through `speed`, in this profile's own buffer: once the buffer has
    /// grown to the longest plan, an overwrite allocates nothing.
    ///
    /// # Panics
    /// Panics if a mapped speed is negative or non-finite.
    pub fn assign_mapped(&mut self, src: &SpeedProfile, speed: impl Fn(f64) -> f64) {
        self.segments.clear();
        self.segments.extend(
            src.segments
                .iter()
                .map(|s| SpeedSegment::new(s.start, s.end, speed(s.speed_ghz))),
        );
    }

    /// The segment buffer, for kernels in this crate that write a plan
    /// in place; they must leave it ordered (see [`SpeedProfile::new`]).
    pub(crate) fn segments_mut(&mut self) -> &mut Vec<SpeedSegment> {
        &mut self.segments
    }

    /// A single-segment profile: constant `speed_ghz` over `[start, end)`.
    pub fn constant(start: SimTime, end: SimTime, speed_ghz: f64) -> Self {
        SpeedProfile {
            segments: vec![SpeedSegment::new(start, end, speed_ghz)],
        }
    }

    /// The segments, in time order.
    pub fn segments(&self) -> &[SpeedSegment] {
        &self.segments
    }

    /// `true` if the profile has no segments.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Appends a segment.
    ///
    /// # Panics
    /// Panics if it starts before the current last segment ends.
    pub fn push(&mut self, seg: SpeedSegment) {
        if let Some(last) = self.segments.last() {
            assert!(
                seg.start.as_secs() >= last.end.as_secs() - TIME_EPS,
                "segment out of order"
            );
        }
        self.segments.push(seg);
    }

    /// Speed at time `t` (0 in gaps and outside the profile).
    pub fn speed_at(&self, t: SimTime) -> f64 {
        // Profiles are short (per scheduling epoch); linear scan is fine
        // and avoids partition_point subtleties with epsilon boundaries.
        for seg in &self.segments {
            if t.at_or_after(seg.start) && t.before(seg.end) {
                return seg.speed_ghz;
            }
        }
        0.0
    }

    /// End of the last segment, or `None` for an empty profile.
    pub fn end(&self) -> Option<SimTime> {
        self.segments.last().map(|s| s.end)
    }

    /// Maximum speed over the profile (0 if empty).
    pub fn max_speed(&self) -> f64 {
        self.segments
            .iter()
            .map(|s| s.speed_ghz)
            .fold(0.0, f64::max)
    }

    /// Index of the first segment at or after `first` that ends after `t`
    /// (`segments().len()` if none). Every segment before it ends within
    /// [`TIME_EPS`] of `t` or earlier, so it contributes nothing to
    /// [`SpeedProfile::ghz_seconds`], [`SpeedProfile::energy`] or
    /// [`SpeedProfile::time_for_ghz_seconds`] from any `from ≥ t`: the
    /// `*_from` variants starting at this index return the same bits. The
    /// index never decreases as `t` grows, so a caller with a monotone
    /// clock can keep it as a cursor and resume from the last value.
    pub fn first_live_segment(&self, first: usize, t: SimTime) -> usize {
        let mut k = first;
        while self.segments.get(k).is_some_and(|s| !s.end.after(t)) {
            k += 1;
        }
        k
    }

    /// GHz-seconds and energy over `[from, to)` in one walk starting at
    /// segment `first`, with `watts[k]` the power of segment `k`
    /// (`model.power(speed)`). Bit-identical to
    /// `(ghz_seconds(from, to), energy(model, from, to))` when `first` is
    /// at or before [`SpeedProfile::first_live_segment`] at some `t ≤ from`
    /// and the model keeps the default [`PowerModel::energy`].
    pub fn ghz_seconds_and_energy_from(
        &self,
        first: usize,
        watts: &[f64],
        from: SimTime,
        to: SimTime,
    ) -> (f64, f64) {
        debug_assert_eq!(watts.len(), self.segments.len());
        if !to.after(from) {
            return (0.0, 0.0);
        }
        let (mut ghz, mut joules) = (0.0, 0.0);
        for (seg, &w) in self.segments[first..].iter().zip(&watts[first..]) {
            let lo = seg.start.max(from);
            let hi = seg.end.min(to);
            if hi.after(lo) {
                let secs = hi.saturating_since(lo).as_secs();
                ghz += seg.speed_ghz * secs;
                joules += w * secs;
            }
        }
        (ghz, joules)
    }

    /// GHz-seconds accumulated in `[from, to)` — multiply by the platform's
    /// units-per-GHz-second to get processing volume.
    pub fn ghz_seconds(&self, from: SimTime, to: SimTime) -> f64 {
        if !to.after(from) {
            return 0.0;
        }
        let mut acc = 0.0;
        for seg in &self.segments {
            let lo = seg.start.max(from);
            let hi = seg.end.min(to);
            if hi.after(lo) {
                acc += seg.speed_ghz * hi.saturating_since(lo).as_secs();
            }
        }
        acc
    }

    /// Energy (joules) consumed over `[from, to)` under `model`.
    pub fn energy(&self, model: &dyn PowerModel, from: SimTime, to: SimTime) -> f64 {
        if !to.after(from) {
            return 0.0;
        }
        let mut acc = 0.0;
        for seg in &self.segments {
            let lo = seg.start.max(from);
            let hi = seg.end.min(to);
            if hi.after(lo) {
                acc += model.energy(seg.speed_ghz, hi.saturating_since(lo).as_secs());
            }
        }
        acc
    }

    /// Earliest time at (or after) `from` by which `ghz_secs` GHz-seconds
    /// have accumulated, or `None` if the profile runs out first.
    pub fn time_for_ghz_seconds(&self, from: SimTime, ghz_secs: f64) -> Option<SimTime> {
        self.time_for_ghz_seconds_from(0, from, ghz_secs)
    }

    /// [`SpeedProfile::time_for_ghz_seconds`] walking from segment `first`;
    /// the same bits when `first` is at or before
    /// [`SpeedProfile::first_live_segment`] at some `t ≤ from`.
    pub fn time_for_ghz_seconds_from(
        &self,
        first: usize,
        from: SimTime,
        ghz_secs: f64,
    ) -> Option<SimTime> {
        if ghz_secs <= TIME_EPS {
            return Some(from);
        }
        let mut remaining = ghz_secs;
        for seg in &self.segments[first..] {
            let lo = seg.start.max(from);
            if !seg.end.after(lo) || seg.speed_ghz <= 0.0 {
                continue;
            }
            let capacity = seg.speed_ghz * seg.end.saturating_since(lo).as_secs();
            if capacity + 1e-12 >= remaining {
                let dt = remaining / seg.speed_ghz;
                return Some(lo + ge_simcore::SimDuration::from_secs(dt));
            }
            remaining -= capacity;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::PolynomialPower;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn sample() -> SpeedProfile {
        SpeedProfile::new(vec![
            SpeedSegment::new(t(0.0), t(1.0), 2.0),
            SpeedSegment::new(t(1.0), t(2.0), 1.0),
            // Gap [2, 3): idle.
            SpeedSegment::new(t(3.0), t(4.0), 4.0),
        ])
    }

    #[test]
    fn speed_lookup() {
        let p = sample();
        assert_eq!(p.speed_at(t(0.5)), 2.0);
        assert_eq!(p.speed_at(t(1.5)), 1.0);
        assert_eq!(p.speed_at(t(2.5)), 0.0); // gap
        assert_eq!(p.speed_at(t(3.5)), 4.0);
        assert_eq!(p.speed_at(t(9.0)), 0.0); // past the end
    }

    #[test]
    fn ghz_seconds_full_span() {
        let p = sample();
        // 2·1 + 1·1 + 0·1 + 4·1 = 7 GHz-s.
        assert!((p.ghz_seconds(t(0.0), t(4.0)) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn ghz_seconds_partial_overlap() {
        let p = sample();
        // [0.5, 1.5): 2·0.5 + 1·0.5 = 1.5.
        assert!((p.ghz_seconds(t(0.5), t(1.5)) - 1.5).abs() < 1e-12);
        // Fully inside the gap.
        assert_eq!(p.ghz_seconds(t(2.1), t(2.9)), 0.0);
        // Inverted interval.
        assert_eq!(p.ghz_seconds(t(3.0), t(1.0)), 0.0);
    }

    #[test]
    fn energy_integral() {
        let p = sample();
        let m = PolynomialPower::paper_default();
        // 5·4·1 + 5·1·1 + 5·16·1 = 20 + 5 + 80 = 105 J.
        assert!((p.energy(&m, t(0.0), t(4.0)) - 105.0).abs() < 1e-9);
    }

    #[test]
    fn energy_additivity() {
        let p = sample();
        let m = PolynomialPower::paper_default();
        let whole = p.energy(&m, t(0.0), t(4.0));
        let split = p.energy(&m, t(0.0), t(1.7)) + p.energy(&m, t(1.7), t(4.0));
        assert!((whole - split).abs() < 1e-9);
    }

    #[test]
    fn time_for_volume() {
        let p = sample();
        // 2 GHz-s accumulate exactly at t = 1.0.
        let at = p.time_for_ghz_seconds(t(0.0), 2.0).unwrap();
        assert!(at.approx_eq(t(1.0)));
        // 2.5 GHz-s: 0.5 more at 1 GHz → t = 1.5.
        let at = p.time_for_ghz_seconds(t(0.0), 2.5).unwrap();
        assert!(at.approx_eq(t(1.5)));
        // Crossing the idle gap: 3.5 GHz-s → 0.5 into the 4 GHz segment
        // → 3 + 0.5/4.
        let at = p.time_for_ghz_seconds(t(0.0), 3.0 + 2.0).unwrap();
        assert!(at.approx_eq(t(3.5)));
        // More volume than the whole profile has.
        assert!(p.time_for_ghz_seconds(t(0.0), 100.0).is_none());
    }

    #[test]
    fn time_for_zero_volume_is_now() {
        let p = sample();
        assert!(p
            .time_for_ghz_seconds(t(0.7), 0.0)
            .unwrap()
            .approx_eq(t(0.7)));
    }

    #[test]
    fn max_speed_and_end() {
        let p = sample();
        assert_eq!(p.max_speed(), 4.0);
        assert!(p.end().unwrap().approx_eq(t(4.0)));
        assert!(SpeedProfile::empty().end().is_none());
        assert_eq!(SpeedProfile::empty().max_speed(), 0.0);
    }

    #[test]
    #[should_panic]
    fn overlapping_segments_panic() {
        let _ = SpeedProfile::new(vec![
            SpeedSegment::new(t(0.0), t(2.0), 1.0),
            SpeedSegment::new(t(1.0), t(3.0), 1.0),
        ]);
    }

    #[test]
    #[should_panic]
    fn empty_segment_panics() {
        let _ = SpeedSegment::new(t(1.0), t(1.0), 1.0);
    }

    #[test]
    fn push_in_order() {
        let mut p = SpeedProfile::empty();
        p.push(SpeedSegment::new(t(0.0), t(1.0), 1.0));
        p.push(SpeedSegment::new(t(1.0), t(2.0), 2.0));
        assert_eq!(p.segments().len(), 2);
    }

    #[test]
    fn cursor_walks_match_full_walks_bit_for_bit() {
        let p = SpeedProfile::new(vec![
            SpeedSegment::new(t(0.0), t(1.0), 2.0),
            SpeedSegment::new(t(1.0), t(2.0), 0.0),
            SpeedSegment::new(t(2.0 + 0.5e-9), t(3.3), 1.7),
            SpeedSegment::new(t(3.7), t(4.0), 4.0),
        ]);
        let m = PolynomialPower::paper_default();
        let watts: Vec<f64> = p.segments().iter().map(|s| m.power(s.speed_ghz)).collect();
        let mut cursor = 0;
        for i in 0..90 {
            let from = t(i as f64 * 0.05 + 1e-10 * (i % 3) as f64);
            cursor = p.first_live_segment(cursor, from);
            for to in [
                from,
                from + ge_simcore::SimDuration::from_secs(0.37),
                t(5.0),
            ] {
                let (g, e) = p.ghz_seconds_and_energy_from(cursor, &watts, from, to);
                assert_eq!(g.to_bits(), p.ghz_seconds(from, to).to_bits());
                assert_eq!(e.to_bits(), p.energy(&m, from, to).to_bits());
            }
            for v in [0.0, 0.3, 1.0, 2.5, 9.0] {
                assert_eq!(
                    p.time_for_ghz_seconds_from(cursor, from, v),
                    p.time_for_ghz_seconds(from, v)
                );
            }
        }
        assert_eq!(cursor, p.segments().len());
    }

    #[test]
    fn volume_starting_mid_profile() {
        let p = sample();
        // From t=0.5: remaining capacity 2·0.5 + 1·1 + 4·1 = 6.
        assert!((p.ghz_seconds(t(0.5), t(10.0)) - 6.0).abs() < 1e-12);
        let at = p.time_for_ghz_seconds(t(0.5), 1.0).unwrap();
        assert!(at.approx_eq(t(1.0)));
    }
}
