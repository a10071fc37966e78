//! The job (service request) model.
//!
//! Paper §II-A: every job `J_j` has a start (release) time `s_j`, a deadline
//! `d_j`, and a processing demand `p_j`. Jobs may be *partially* processed:
//! executing `c_j ≤ p_j` units still returns a (lower-quality) result.
//! Demands are measured in abstract processing units; a 1 GHz core retires
//! 1000 units per second.

use ge_recover::persist::positive;
use ge_simcore::{SimDuration, SimTime};
use std::fmt;

/// Unique identifier of a job within one simulation run.
///
/// Ids are dense (assigned 0, 1, 2, … in release order by the generator),
/// which lets per-job bookkeeping use plain vectors.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

ge_recover::persist!(JobId { 0 });

impl JobId {
    /// The id as an array index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "J{}", self.0)
    }
}

/// A single service request. The default is a zero-demand placeholder,
/// not a valid job: it exists to be overwritten by a checkpoint decode.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Job {
    /// Unique id (dense, release-ordered).
    pub id: JobId,
    /// Release (arrival) time `s_j`: the job cannot run earlier.
    pub release: SimTime,
    /// Absolute deadline `d_j`: processing past this instant is worthless.
    pub deadline: SimTime,
    /// Full processing demand `p_j` in processing units (`> 0`).
    pub demand: f64,
    /// The demand the *scheduler* believes the job has. Equal to
    /// [`Job::demand`] unless a fault model injects misestimation noise;
    /// planning uses the estimate, execution and quality accounting use
    /// the true demand.
    pub estimate: f64,
}

ge_recover::persist! {
    Job { id, release, deadline, demand, estimate }
    check |j| positive(j.demand) && positive(j.estimate) => "malformed job demand";
}

impl Job {
    /// Creates a job, validating its invariants. A release of `-0.0` is
    /// stored as `+0.0`: the two are the same instant, but only `+0.0`
    /// has the bit pattern that orders first among non-negative times,
    /// and arrivals are ordered by release bits.
    ///
    /// # Panics
    /// Panics if the deadline does not strictly follow the release or the
    /// demand is not strictly positive and finite.
    pub fn new(id: JobId, release: SimTime, deadline: SimTime, demand: f64) -> Self {
        assert!(
            deadline.after(release),
            "job {id}: deadline {deadline} must follow release {release}"
        );
        assert!(
            demand.is_finite() && demand > 0.0,
            "job {id}: demand must be positive and finite, got {demand}"
        );
        let release = if release.as_secs() == 0.0 {
            SimTime::ZERO
        } else {
            release
        };
        Job {
            id,
            release,
            deadline,
            demand,
            estimate: demand,
        }
    }

    /// Returns the job with its scheduler-visible demand estimate replaced.
    ///
    /// # Panics
    /// Panics if the estimate is not strictly positive and finite.
    pub fn with_estimate(mut self, estimate: f64) -> Self {
        assert!(
            estimate.is_finite() && estimate > 0.0,
            "job {}: estimate must be positive and finite, got {estimate}",
            self.id
        );
        self.estimate = estimate;
        self
    }

    /// The response window `d_j − s_j`.
    #[inline]
    pub fn window(&self) -> SimDuration {
        self.deadline.saturating_since(self.release)
    }

    /// `true` if the job's execution window contains `t`
    /// (release inclusive, deadline exclusive up to tolerance).
    #[inline]
    pub fn is_live_at(&self, t: SimTime) -> bool {
        t.at_or_after(self.release) && t.before(self.deadline)
    }

    /// Minimum constant speed (in GHz) needed to finish the *full* demand
    /// inside the window, given `units_per_ghz_sec` (units retired per
    /// second per GHz).
    #[inline]
    pub fn density_ghz(&self, units_per_ghz_sec: f64) -> f64 {
        self.demand / (self.window().as_secs() * units_per_ghz_sec)
    }
}

impl fmt::Display for Job {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{} → {}, p={:.1}]",
            self.id, self.release, self.deadline, self.demand
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn a_negative_zero_release_is_stored_as_zero() {
        let j = Job::new(JobId(0), t(-0.0), t(0.15), 300.0);
        assert_eq!(j.release.as_secs().to_bits(), 0);
    }

    #[test]
    fn window_and_density() {
        let j = Job::new(JobId(0), t(1.0), t(1.15), 300.0);
        assert!((j.window().as_secs() - 0.15).abs() < 1e-12);
        // 300 units in 150 ms at 1000 units/GHz/s => 2 GHz.
        assert!((j.density_ghz(1000.0) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn liveness() {
        let j = Job::new(JobId(1), t(1.0), t(2.0), 10.0);
        assert!(!j.is_live_at(t(0.5)));
        assert!(j.is_live_at(t(1.0)));
        assert!(j.is_live_at(t(1.5)));
        assert!(!j.is_live_at(t(2.0)));
        assert!(!j.is_live_at(t(3.0)));
    }

    #[test]
    #[should_panic]
    fn deadline_before_release_panics() {
        let _ = Job::new(JobId(2), t(2.0), t(1.0), 10.0);
    }

    #[test]
    #[should_panic]
    fn zero_demand_panics() {
        let _ = Job::new(JobId(3), t(0.0), t(1.0), 0.0);
    }

    #[test]
    #[should_panic]
    fn nan_demand_panics() {
        let _ = Job::new(JobId(4), t(0.0), t(1.0), f64::NAN);
    }

    #[test]
    fn estimate_defaults_to_demand_and_overrides() {
        let j = Job::new(JobId(5), t(0.0), t(1.0), 200.0);
        assert_eq!(j.estimate, 200.0);
        let j = j.with_estimate(250.0);
        assert_eq!(j.estimate, 250.0);
        assert_eq!(j.demand, 200.0);
    }

    #[test]
    #[should_panic]
    fn non_finite_estimate_panics() {
        let _ = Job::new(JobId(6), t(0.0), t(1.0), 10.0).with_estimate(f64::INFINITY);
    }

    #[test]
    fn id_display_and_index() {
        assert_eq!(format!("{}", JobId(7)), "J7");
        assert_eq!(JobId(7).index(), 7);
    }
}
