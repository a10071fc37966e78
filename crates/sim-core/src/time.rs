//! Simulated time.
//!
//! Time is represented in seconds as `f64`. A 600-second simulation with
//! millisecond-scale deadlines is far inside the range where `f64` keeps
//! sub-nanosecond resolution, but *comparisons* still need care: two events
//! computed along different arithmetic paths may differ by a few ULPs. All
//! comparisons that decide control flow therefore go through the
//! epsilon-aware helpers on [`SimTime`] with [`TIME_EPS`].

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Comparison tolerance for simulated time, in seconds.
///
/// One nanosecond: far below any scheduling quantum in the reproduced
/// system (the shortest meaningful interval is the 150 ms deadline window)
/// and far above `f64` rounding noise at a 600 s horizon (~1e-13 s).
pub const TIME_EPS: f64 = 1e-9;

/// A point in simulated time, in seconds since the simulation epoch.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct SimTime(f64);

/// A span of simulated time, in seconds. Always finite; may be zero.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct SimDuration(f64);

ge_recover::persist! {
    SimTime { 0 }
    check |t| t.0.is_finite() => "non-finite time";
}

ge_recover::persist! {
    SimDuration { 0 }
    check |d| ge_recover::persist::non_negative(d.0) => "negative or non-finite duration";
}

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a time point from seconds since the epoch.
    ///
    /// # Panics
    /// Panics if `secs` is not finite.
    #[inline]
    pub fn from_secs(secs: f64) -> Self {
        assert!(secs.is_finite(), "SimTime must be finite, got {secs}");
        SimTime(secs)
    }

    /// Creates a time point from milliseconds since the epoch.
    #[inline]
    pub fn from_millis(ms: f64) -> Self {
        Self::from_secs(ms / 1e3)
    }

    /// Seconds since the epoch.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Milliseconds since the epoch.
    #[inline]
    pub fn as_millis(self) -> f64 {
        self.0 * 1e3
    }

    /// `true` if `self` is before `other` by more than [`TIME_EPS`].
    #[inline]
    pub fn before(self, other: SimTime) -> bool {
        self.0 < other.0 - TIME_EPS
    }

    /// `true` if `self` is after `other` by more than [`TIME_EPS`].
    #[inline]
    pub fn after(self, other: SimTime) -> bool {
        self.0 > other.0 + TIME_EPS
    }

    /// `true` if `self` and `other` are within [`TIME_EPS`] of each other.
    #[inline]
    pub fn approx_eq(self, other: SimTime) -> bool {
        (self.0 - other.0).abs() <= TIME_EPS
    }

    /// `true` if `self` is at or after `other` (up to [`TIME_EPS`]).
    #[inline]
    pub fn at_or_after(self, other: SimTime) -> bool {
        !self.before(other)
    }

    /// `true` if `self` is at or before `other` (up to [`TIME_EPS`]).
    #[inline]
    pub fn at_or_before(self, other: SimTime) -> bool {
        !self.after(other)
    }

    /// The later of two time points.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The earlier of two time points.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Duration from `earlier` to `self`, clamped at zero.
    ///
    /// Clamping absorbs epsilon-scale negative spans that can arise when an
    /// event fires "at" the current clock reading after floating-point
    /// round-trips; real negative spans (beyond [`TIME_EPS`]) panic in debug
    /// builds because they indicate a simulation-logic bug.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        let d = self.0 - earlier.0;
        debug_assert!(
            d >= -TIME_EPS,
            "time went backwards: {} -> {}",
            earlier.0,
            self.0
        );
        SimDuration(d.max(0.0))
    }

    /// Total ordering on raw seconds (no epsilon). Used by the event queue,
    /// where ties are broken by explicit secondary keys anyway.
    #[inline]
    pub fn total_cmp(&self, other: &SimTime) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0.0);

    /// Creates a duration from seconds.
    ///
    /// # Panics
    /// Panics if `secs` is negative or not finite.
    #[inline]
    pub fn from_secs(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "SimDuration must be finite and non-negative, got {secs}"
        );
        SimDuration(secs)
    }

    /// Creates a duration from milliseconds.
    #[inline]
    pub fn from_millis(ms: f64) -> Self {
        Self::from_secs(ms / 1e3)
    }

    /// Seconds in this span.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Milliseconds in this span.
    #[inline]
    pub fn as_millis(self) -> f64 {
        self.0 * 1e3
    }

    /// `true` if this span is shorter than [`TIME_EPS`].
    #[inline]
    pub fn is_negligible(self) -> bool {
        self.0 <= TIME_EPS
    }

    /// The longer of two spans.
    #[inline]
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The shorter of two spans.
    #[inline]
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// Exact difference; panics (debug) if negative beyond epsilon.
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.saturating_since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        let d = self.0 - rhs.0;
        debug_assert!(d >= -TIME_EPS, "negative duration: {} - {}", self.0, rhs.0);
        SimDuration(d.max(0.0))
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs(self.0 * rhs)
    }
}

impl Div<f64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.0)
    }
}

impl Default for SimTime {
    fn default() -> Self {
        SimTime::ZERO
    }
}

impl Default for SimDuration {
    fn default() -> Self {
        SimDuration::ZERO
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let t = SimTime::from_millis(150.0);
        assert!((t.as_secs() - 0.15).abs() < 1e-12);
        assert!((t.as_millis() - 150.0).abs() < 1e-9);
        let d = SimDuration::from_millis(500.0);
        assert!((d.as_secs() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn epsilon_comparisons() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(1.0 + 1e-12);
        assert!(a.approx_eq(b));
        assert!(!a.before(b));
        assert!(!a.after(b));
        assert!(a.at_or_after(b));
        assert!(a.at_or_before(b));

        let c = SimTime::from_secs(1.1);
        assert!(a.before(c));
        assert!(c.after(a));
    }

    #[test]
    fn arithmetic_round_trips() {
        let t = SimTime::from_secs(2.0);
        let d = SimDuration::from_secs(0.5);
        let t2 = t + d;
        assert!(t2.approx_eq(SimTime::from_secs(2.5)));
        let back = t2 - d;
        assert!(back.approx_eq(t));
        let span = t2 - t;
        assert!((span.as_secs() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn saturating_since_clamps_epsilon_negatives() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(1.0 - 1e-13);
        assert_eq!(b.saturating_since(a).as_secs(), 0.0);
    }

    #[test]
    #[should_panic]
    fn non_finite_time_panics() {
        let _ = SimTime::from_secs(f64::NAN);
    }

    #[test]
    #[should_panic]
    fn negative_duration_panics() {
        let _ = SimDuration::from_secs(-1.0);
    }

    #[test]
    fn min_max() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert!(a.min(b).approx_eq(a));
        assert!(a.max(b).approx_eq(b));
        let d1 = SimDuration::from_secs(1.0);
        let d2 = SimDuration::from_secs(2.0);
        assert!((d1.min(d2).as_secs() - 1.0).abs() < 1e-12);
        assert!((d1.max(d2).as_secs() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_secs(2.0);
        assert!(((d * 2.0).as_secs() - 4.0).abs() < 1e-12);
        assert!(((d / 4.0).as_secs() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn negligible() {
        assert!(SimDuration::from_secs(1e-12).is_negligible());
        assert!(!SimDuration::from_secs(1e-3).is_negligible());
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimTime::from_secs(1.5)), "1.500000s");
        assert_eq!(format!("{}", SimDuration::from_secs(0.25)), "0.250000s");
    }
}
