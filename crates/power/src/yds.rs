//! Energy-OPT: the Yao–Demers–Shenker minimum-energy speed scheduler.
//!
//! Paper §III-E: "the jobs assigned to each core are executed in order of
//! their deadlines by the existing Energy-OPT algorithm \[28\] to achieve the
//! least power consumption." Reference \[28\] is Yao, Demers, Shenker, *A
//! scheduling model for reduced CPU energy*, FOCS 1995: for jobs with
//! release times, deadlines, and work volumes on one variable-speed core
//! with convex power, the minimum-energy feasible schedule repeatedly
//! peels off the **critical interval** — the interval of maximum intensity
//! (work whose windows fit inside, divided by available length) — runs its
//! jobs at exactly that intensity, and recurses on the rest.
//!
//! This implementation keeps original (uncollapsed) coordinates: instead
//! of contracting time after each peel, later iterations measure a
//! candidate interval's *available* length excluding already-blocked
//! critical intervals. The two formulations are equivalent (blocked time
//! is exactly what collapsing removes), and this one maps directly onto a
//! [`SpeedProfile`] in real time.
//!
//! Work is measured in **GHz-seconds** (processing units divided by the
//! platform's units-per-GHz-second), so intensity is directly a speed.

use crate::model::PowerModel;
use crate::profile::{check_order, SpeedProfile, SpeedSegment};
use ge_simcore::SimTime;

/// One job as seen by the speed scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct YdsJob {
    /// Caller's identifier (e.g. index into the core's batch).
    pub id: usize,
    /// Earliest start, seconds.
    pub release: f64,
    /// Deadline, seconds (`> release`).
    pub deadline: f64,
    /// Work in GHz-seconds (`≥ 0`).
    pub work: f64,
}

impl YdsJob {
    /// Creates a job, validating invariants.
    ///
    /// # Panics
    /// Panics if the window is empty or the work is negative/non-finite.
    pub fn new(id: usize, release: f64, deadline: f64, work: f64) -> Self {
        assert!(
            release.is_finite() && deadline.is_finite() && deadline > release,
            "job {id}: invalid window [{release}, {deadline}]"
        );
        assert!(
            work.is_finite() && work >= 0.0,
            "job {id}: invalid work {work}"
        );
        YdsJob {
            id,
            release,
            deadline,
            work,
        }
    }
}

/// The result of Energy-OPT planning.
#[derive(Debug, Clone)]
pub struct YdsSchedule {
    /// The minimum-energy speed plan (sorted, disjoint segments).
    pub profile: SpeedProfile,
    /// The peak (first critical-interval) intensity in GHz.
    pub peak_speed: f64,
}

impl YdsSchedule {
    /// Planned energy under `model` over the whole profile.
    pub fn energy(&self, model: &dyn PowerModel) -> f64 {
        match self.profile.end() {
            None => 0.0,
            Some(end) => self.profile.energy(model, SimTime::ZERO, end),
        }
    }
}

/// A blocked (already planned) stretch of time running at `speed`.
#[derive(Debug, Clone, Copy)]
struct Block {
    start: f64,
    end: f64,
    speed: f64,
}

/// Reusable working memory for [`yds_schedule_with`].
///
/// The YDS peeling loop needs several temporary vectors per peel
/// (candidate releases, a sorted-block prefix table, interval splits).
/// Allocating them on every call dominates the kernel's cost for the
/// small per-core batches the scheduler feeds it, so callers on the hot
/// path (the GE epoch replanner) keep one `YdsScratch` alive and hand it
/// back in; the buffers grow to the high-water mark and stay there.
#[derive(Debug, Default)]
pub struct YdsScratch {
    by_deadline: Vec<YdsJob>,
    releases: Vec<f64>,
    sorted_blocks: Vec<(f64, f64)>,
    prefix: Vec<f64>,
    blocks: Vec<Block>,
    covered: Vec<(f64, f64)>,
    parts: Vec<(f64, f64)>,
}

impl YdsScratch {
    /// Creates an empty scratch. Buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Splits `[lo, hi]` into its maximal sub-intervals not covered by
/// `blocks`, writing them into `parts` (cleared first). `covered` is
/// scratch for the overlap sort.
fn free_parts_into(
    lo: f64,
    hi: f64,
    blocks: &[Block],
    covered: &mut Vec<(f64, f64)>,
    parts: &mut Vec<(f64, f64)>,
) {
    covered.clear();
    covered.extend(
        blocks
            .iter()
            .filter(|b| b.end > lo && b.start < hi)
            .map(|b| (b.start.max(lo), b.end.min(hi))),
    );
    covered.sort_by(|a, b| a.0.total_cmp(&b.0));
    parts.clear();
    let mut cursor = lo;
    for &(s, e) in covered.iter() {
        if s > cursor + 1e-12 {
            parts.push((cursor, s));
        }
        cursor = cursor.max(e);
    }
    if hi > cursor + 1e-12 {
        parts.push((cursor, hi));
    }
}

/// Computes the Energy-OPT (YDS) schedule for a batch of jobs on one core.
///
/// Returns a speed profile under which EDF execution finishes every job by
/// its deadline with the minimum possible `∫ a·s^β dt` for any convex
/// power function (the YDS plan is power-function-independent).
///
/// Jobs with zero work are ignored. An empty batch yields an empty profile.
///
/// ```
/// use ge_power::{yds_schedule, YdsJob};
///
/// // A single job: optimal speed is work/window, constant.
/// let s = yds_schedule(&[YdsJob::new(0, 0.0, 2.0, 3.0)]);
/// assert!((s.peak_speed - 1.5).abs() < 1e-9);
/// ```
pub fn yds_schedule(jobs: &[YdsJob]) -> YdsSchedule {
    yds_schedule_with(jobs, &mut YdsScratch::new())
}

/// [`yds_schedule`] with caller-provided working memory.
///
/// Behaviourally identical to [`yds_schedule`]; the only difference is
/// that every temporary lives in `scratch`. The returned profile is a
/// fresh allocation; [`yds_schedule_into`] writes it into a reused one.
pub fn yds_schedule_with(jobs: &[YdsJob], scratch: &mut YdsScratch) -> YdsSchedule {
    let mut profile = SpeedProfile::empty();
    let peak_speed = yds_schedule_into(jobs, scratch, &mut profile);
    YdsSchedule {
        profile,
        peak_speed,
    }
}

/// [`yds_schedule_with`] that overwrites `profile` with the plan and
/// returns the peak speed, so repeated calls (one per dirty core per
/// epoch) allocate nothing once the buffers have grown to the
/// working-set size.
///
/// **Common release.** When every job shares one release `r` (the GE
/// replanner plans from `now`), every critical interval starts at `r`
/// and covers a prefix of the jobs in deadline order, so the peels tile
/// `[r, end)` with one block each. A peel then needs no release sort,
/// block-prefix table, binary search or free-part split: the time blocked
/// before any live deadline is the running total of the block lengths,
/// summed in the order the prefix table would sum them, and the peeled
/// jobs are a prefix of the deadline order. Every float operation the
/// general peel performs on such an input is performed here on the same
/// operands in the same order, so the plan is the same bit for bit.
pub fn yds_schedule_into(
    jobs: &[YdsJob],
    scratch: &mut YdsScratch,
    profile: &mut SpeedProfile,
) -> f64 {
    let _span = ge_telemetry::SpanGuard::enter_within("yds_schedule");
    peel_into(jobs, scratch, profile, true)
}

/// The one release every job in `jobs` shares, bit for bit, if any.
fn common_release(jobs: &[YdsJob]) -> Option<f64> {
    let r = jobs.first()?.release;
    jobs.iter()
        .all(|j| j.release.to_bits() == r.to_bits())
        .then_some(r)
}

/// The YDS peel behind [`yds_schedule_into`]. With `sweep_common` false
/// a common-release batch takes the general peel too, which is the
/// reference the common-release sweep is tested against.
fn peel_into(
    jobs: &[YdsJob],
    scratch: &mut YdsScratch,
    profile: &mut SpeedProfile,
    sweep_common: bool,
) -> f64 {
    let YdsScratch {
        by_deadline,
        releases,
        sorted_blocks,
        prefix,
        blocks,
        covered,
        parts,
    } = scratch;
    blocks.clear();
    let mut peak = 0.0f64;

    // Jobs sorted by deadline once; the per-peel sweep below walks this
    // order and filters by release, so each (t1, ·) sweep is one pass.
    by_deadline.clear();
    by_deadline.extend(jobs.iter().filter(|j| j.work > 0.0).copied());
    by_deadline.sort_by(|a, b| a.deadline.total_cmp(&b.deadline));

    let common = if sweep_common {
        common_release(by_deadline)
    } else {
        None
    };
    // Common-release state: `by_deadline[..done]` is peeled, and the
    // blocks tile `[r, end)` with total length `blocked`. The general
    // path drops peeled jobs from `by_deadline` instead (`done` stays 0).
    let mut done = 0;
    let mut end = common.unwrap_or(0.0);
    let mut blocked = 0.0f64;

    while done < by_deadline.len() {
        // Candidate critical intervals: [release_i, deadline_j] pairs.
        releases.clear();
        if let Some(r) = common {
            releases.push(r);
        } else {
            releases.extend(by_deadline.iter().map(|j| j.release));
            releases.sort_by(|a, b| a.total_cmp(b));
            releases.dedup();

            // Prefix view of blocked time for O(log B) avail queries:
            // `blocked_before(x)` = total blocked length left of `x`.
            sorted_blocks.clear();
            sorted_blocks.extend(blocks.iter().map(|b| (b.start, b.end)));
            sorted_blocks.sort_by(|a, b| a.0.total_cmp(&b.0));
            prefix.clear();
            let mut acc = 0.0f64;
            prefix.push(acc);
            for &(s, e) in sorted_blocks.iter() {
                acc += e - s;
                prefix.push(acc);
            }
        }
        let blocked_before = |x: f64| -> f64 {
            if common.is_some() {
                // Every block starts at or after `r` and ends at or
                // before any live deadline: 0 at `r`, all of it at a
                // live deadline (the general lookup subtracts 0.0).
                return if x > end { blocked } else { 0.0 };
            }
            // Blocks are disjoint and sorted; find how many end before x,
            // then add the partial overlap of the straddling block.
            let idx = sorted_blocks.partition_point(|&(s, _)| s < x);
            let mut acc = prefix[idx];
            if idx > 0 {
                let (s, e) = sorted_blocks[idx - 1];
                // Block idx-1 starts before x; subtract any part past x.
                acc -= (e - x.max(s)).max(0.0);
            }
            acc
        };

        let live = &by_deadline[done..];
        let mut best: Option<(f64, f64, f64)> = None; // (t1, t2, intensity)
        for &t1 in releases.iter() {
            let blocked_at_t1 = blocked_before(t1);
            // Sweep deadlines ascending, accumulating the work of jobs
            // whose window fits [t1, t2].
            let mut work = 0.0;
            let mut i = 0;
            while i < live.len() {
                let t2 = live[i].deadline;
                // Fold in every job sharing this deadline.
                while i < live.len() && (live[i].deadline - t2).abs() <= 1e-12 {
                    if common.is_some() || live[i].release >= t1 - 1e-12 {
                        work += live[i].work;
                    }
                    i += 1;
                }
                if t2 <= t1 || work <= 0.0 {
                    continue;
                }
                let avail = (t2 - t1) - (blocked_before(t2) - blocked_at_t1);
                let intensity = if avail <= 1e-12 {
                    // Window already fully blocked: only possible for
                    // degenerate inputs; treat as unbounded so it is peeled
                    // immediately (it will get a zero-length block).
                    f64::INFINITY
                } else {
                    work / avail
                };
                let better = match best {
                    None => true,
                    Some((_, _, bi)) => intensity > bi,
                };
                if better {
                    best = Some((t1, t2, intensity));
                }
            }
        }

        let (t1, t2, intensity) =
            best.expect("non-empty remaining set must yield a candidate interval");
        debug_assert!(
            intensity.is_finite(),
            "infinite intensity: a remaining job has zero available window"
        );
        peak = peak.max(intensity);

        if common.is_some() {
            // The free part of [r, t2] is [end, t2], and the peeled jobs
            // are the live prefix with deadlines up to t2.
            if t2 > end + 1e-12 {
                blocks.push(Block {
                    start: end,
                    end: t2,
                    speed: intensity,
                });
                blocked += t2 - end;
                end = t2;
            }
            while done < by_deadline.len() && by_deadline[done].deadline <= t2 + 1e-12 {
                done += 1;
            }
        } else {
            // Block the free parts of the critical interval at this
            // intensity, and remove the jobs inside it.
            free_parts_into(t1, t2, blocks, covered, parts);
            for &(s, e) in parts.iter() {
                blocks.push(Block {
                    start: s,
                    end: e,
                    speed: intensity,
                });
            }
            by_deadline.retain(|j| !(j.release >= t1 - 1e-12 && j.deadline <= t2 + 1e-12));
        }
    }

    blocks.sort_by(|a, b| a.start.total_cmp(&b.start));
    // Merge adjacent equal-speed blocks for a tidy profile.
    let segments = profile.segments_mut();
    segments.clear();
    for &b in blocks.iter() {
        if b.end - b.start <= 1e-12 {
            continue;
        }
        if let Some(last) = segments.last_mut() {
            if (last.speed_ghz - b.speed).abs() < 1e-12
                && last.end.approx_eq(SimTime::from_secs(b.start))
            {
                *last = SpeedSegment::new(last.start, SimTime::from_secs(b.end), last.speed_ghz);
                continue;
            }
        }
        segments.push(SpeedSegment::new(
            SimTime::from_secs(b.start),
            SimTime::from_secs(b.end),
            b.speed,
        ));
    }
    check_order(segments);
    peak
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// Simulates preemptive EDF over `profile` and checks every job
    /// finishes by its deadline. Returns per-job completion times.
    pub(crate) fn edf_feasible(jobs: &[YdsJob], profile: &SpeedProfile) -> bool {
        let mut remaining: Vec<f64> = jobs.iter().map(|j| j.work).collect();
        // Event times: releases, deadlines, segment boundaries.
        let mut times: Vec<f64> = jobs
            .iter()
            .flat_map(|j| [j.release, j.deadline])
            .chain(
                profile
                    .segments()
                    .iter()
                    .flat_map(|s| [s.start.as_secs(), s.end.as_secs()]),
            )
            .collect();
        times.sort_by(|a, b| a.partial_cmp(b).unwrap());
        times.dedup_by(|a, b| (*a - *b).abs() < 1e-12);

        for w in times.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            let mut budget = profile.ghz_seconds(SimTime::from_secs(lo), SimTime::from_secs(hi));
            // Spend the interval's capacity on live jobs in EDF order.
            loop {
                let next = jobs
                    .iter()
                    .enumerate()
                    .filter(|(i, j)| {
                        remaining[*i] > 1e-9 && j.release <= lo + 1e-9 && j.deadline >= hi - 1e-9
                    })
                    .min_by(|a, b| a.1.deadline.partial_cmp(&b.1.deadline).unwrap());
                let Some((i, _)) = next else { break };
                if budget <= 1e-12 {
                    break;
                }
                let used = budget.min(remaining[i]);
                remaining[i] -= used;
                budget -= used;
            }
        }
        remaining.iter().all(|&r| r < 1e-6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{PolynomialPower, PowerModel};

    use super::testutil::edf_feasible;

    #[test]
    fn empty_batch() {
        let s = yds_schedule(&[]);
        assert!(s.profile.is_empty());
        assert_eq!(s.peak_speed, 0.0);
    }

    #[test]
    fn single_job_runs_at_density() {
        let s = yds_schedule(&[YdsJob::new(0, 1.0, 3.0, 4.0)]);
        assert!((s.peak_speed - 2.0).abs() < 1e-9);
        let segs = s.profile.segments();
        assert_eq!(segs.len(), 1);
        assert!(segs[0].start.approx_eq(SimTime::from_secs(1.0)));
        assert!(segs[0].end.approx_eq(SimTime::from_secs(3.0)));
    }

    #[test]
    fn textbook_two_job_nesting() {
        // A long low-density job with a short high-density job nested
        // inside: the short one forms the critical interval; the long one
        // runs slower in the leftovers.
        let jobs = [
            YdsJob::new(0, 0.0, 10.0, 5.0), // density 0.5
            YdsJob::new(1, 4.0, 6.0, 4.0),  // density 2.0 — critical
        ];
        let s = yds_schedule(&jobs);
        assert!((s.peak_speed - 2.0).abs() < 1e-9);
        // Outside [4,6] the long job has 5 work over 8 free seconds.
        assert!((s.profile.speed_at(SimTime::from_secs(1.0)) - 5.0 / 8.0).abs() < 1e-9);
        assert!((s.profile.speed_at(SimTime::from_secs(5.0)) - 2.0).abs() < 1e-9);
        assert!(edf_feasible(&jobs, &s.profile));
    }

    #[test]
    fn identical_windows_aggregate() {
        let jobs = [
            YdsJob::new(0, 0.0, 2.0, 1.0),
            YdsJob::new(1, 0.0, 2.0, 2.0),
            YdsJob::new(2, 0.0, 2.0, 3.0),
        ];
        let s = yds_schedule(&jobs);
        assert!((s.peak_speed - 3.0).abs() < 1e-9);
        assert!(edf_feasible(&jobs, &s.profile));
    }

    #[test]
    fn agreeable_deadlines_chain() {
        // The paper's setting: agreeable (ordered) windows.
        let jobs = [
            YdsJob::new(0, 0.0, 0.15, 0.2),
            YdsJob::new(1, 0.05, 0.20, 0.1),
            YdsJob::new(2, 0.10, 0.25, 0.3),
        ];
        let s = yds_schedule(&jobs);
        assert!(edf_feasible(&jobs, &s.profile));
        // Total volume must be conserved.
        let vol = s
            .profile
            .ghz_seconds(SimTime::ZERO, SimTime::from_secs(1.0));
        assert!((vol - 0.6).abs() < 1e-9);
    }

    #[test]
    fn zero_work_jobs_ignored() {
        let jobs = [YdsJob::new(0, 0.0, 1.0, 0.0), YdsJob::new(1, 0.0, 1.0, 2.0)];
        let s = yds_schedule(&jobs);
        assert!((s.peak_speed - 2.0).abs() < 1e-9);
    }

    #[test]
    fn energy_beats_proportional_share() {
        // Proportional-share (each job at its own density, speeds added) is
        // feasible; YDS must use no more energy.
        let jobs = [
            YdsJob::new(0, 0.0, 4.0, 2.0),
            YdsJob::new(1, 1.0, 3.0, 3.0),
            YdsJob::new(2, 2.0, 6.0, 1.0),
        ];
        let model = PolynomialPower::paper_default();
        let s = yds_schedule(&jobs);
        let e_yds = s.energy(&model);

        // Proportional-share energy by fine integration.
        let dt = 1e-3;
        let mut e_prop = 0.0;
        let mut t = 0.0;
        while t < 6.0 {
            let speed: f64 = jobs
                .iter()
                .filter(|j| j.release <= t && t < j.deadline)
                .map(|j| j.work / (j.deadline - j.release))
                .sum();
            e_prop += model.power(speed) * dt;
            t += dt;
        }
        assert!(
            e_yds <= e_prop + 1e-6,
            "YDS {e_yds} should not exceed proportional {e_prop}"
        );
    }

    #[test]
    fn energy_meets_jensen_lower_bound() {
        let jobs = [
            YdsJob::new(0, 0.0, 2.0, 1.5),
            YdsJob::new(1, 0.5, 4.0, 2.0),
            YdsJob::new(2, 3.0, 5.0, 1.0),
        ];
        let model = PolynomialPower::paper_default();
        let s = yds_schedule(&jobs);
        let total_work: f64 = jobs.iter().map(|j| j.work).sum();
        let span = 5.0;
        let lb = model.power(total_work / span) * span;
        assert!(s.energy(&model) >= lb - 1e-9);
    }

    #[test]
    fn profile_covers_exactly_total_work() {
        let jobs = [
            YdsJob::new(0, 0.0, 1.5, 1.0),
            YdsJob::new(1, 0.2, 0.9, 0.5),
            YdsJob::new(2, 1.0, 2.0, 0.7),
        ];
        let s = yds_schedule(&jobs);
        let vol = s
            .profile
            .ghz_seconds(SimTime::ZERO, SimTime::from_secs(10.0));
        assert!((vol - 2.2).abs() < 1e-9);
    }

    #[test]
    fn speeds_are_levels_of_criticality() {
        // Peak intensity appears first; later peels never exceed it.
        let jobs = [
            YdsJob::new(0, 0.0, 8.0, 2.0),
            YdsJob::new(1, 1.0, 2.0, 3.0),
            YdsJob::new(2, 5.0, 7.0, 2.0),
        ];
        let s = yds_schedule(&jobs);
        assert!((s.peak_speed - 3.0).abs() < 1e-9);
        assert!((s.profile.max_speed() - s.peak_speed).abs() < 1e-12);
        assert!(edf_feasible(&jobs, &s.profile));
    }
}

#[cfg(test)]
mod generative_tests {
    use super::*;
    use crate::model::{PolynomialPower, PowerModel};
    use ge_simcore::RngStream;

    fn random_jobs(rng: &mut RngStream, max_n: usize) -> Vec<YdsJob> {
        let n = 1 + rng.next_below((max_n - 1) as u64) as usize;
        (0..n)
            .map(|i| {
                let r = rng.uniform_range(0.0, 10.0);
                let w = rng.uniform_range(0.01, 5.0);
                let work = rng.uniform_range(0.0, 4.0);
                YdsJob::new(i, r, r + w, work)
            })
            .collect()
    }

    #[test]
    fn always_edf_feasible() {
        for seed in 0..64u64 {
            let mut rng = RngStream::from_root(seed, "yds/edf");
            let jobs = random_jobs(&mut rng, 12);
            let s = yds_schedule(&jobs);
            assert!(super::testutil::edf_feasible(&jobs, &s.profile));
        }
    }

    #[test]
    fn conserves_work() {
        for seed in 0..64u64 {
            let mut rng = RngStream::from_root(seed, "yds/work");
            let jobs = random_jobs(&mut rng, 12);
            let s = yds_schedule(&jobs);
            let total: f64 = jobs.iter().map(|j| j.work).sum();
            let vol = s
                .profile
                .ghz_seconds(SimTime::ZERO, SimTime::from_secs(100.0));
            assert!((vol - total).abs() < 1e-6);
        }
    }

    #[test]
    fn never_beats_jensen_bound() {
        let model = PolynomialPower::paper_default();
        for seed in 0..64u64 {
            let mut rng = RngStream::from_root(seed, "yds/jensen");
            let jobs = random_jobs(&mut rng, 10);
            let s = yds_schedule(&jobs);
            let total: f64 = jobs.iter().map(|j| j.work).sum();
            let lo = jobs.iter().map(|j| j.release).fold(f64::INFINITY, f64::min);
            let hi = jobs.iter().map(|j| j.deadline).fold(0.0, f64::max);
            let span = hi - lo;
            if span <= 1e-6 {
                continue;
            }
            let lb = model.power(total / span) * span;
            assert!(s.energy(&model) >= lb - 1e-6);
        }
    }

    #[test]
    fn scratch_reuse_is_bit_identical() {
        // A reused scratch carries state between calls; results must be
        // byte-for-byte what the allocating entry point produces.
        let mut scratch = YdsScratch::new();
        for seed in 0..32u64 {
            let mut rng = RngStream::from_root(seed, "yds/scratch");
            let jobs = random_jobs(&mut rng, 12);
            let fresh = yds_schedule(&jobs);
            let reused = yds_schedule_with(&jobs, &mut scratch);
            let mut into = SpeedProfile::constant(SimTime::ZERO, SimTime::from_secs(1.0), 9.0);
            let peak = yds_schedule_into(&jobs, &mut scratch, &mut into);
            assert_eq!(peak.to_bits(), fresh.peak_speed.to_bits());
            assert_eq!(into, fresh.profile);
            assert_eq!(fresh.peak_speed.to_bits(), reused.peak_speed.to_bits());
            let (a, b) = (fresh.profile.segments(), reused.profile.segments());
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.start, y.start);
                assert_eq!(x.end, y.end);
                assert_eq!(x.speed_ghz.to_bits(), y.speed_ghz.to_bits());
            }
        }
    }

    /// A batch released at `release`: windows from a millisecond to two
    /// seconds, about a quarter of the deadlines tied to an earlier one
    /// within 1e-12 s, and about one job in six with zero work.
    fn common_release_jobs(rng: &mut RngStream, n: usize, release: f64) -> Vec<YdsJob> {
        let mut jobs: Vec<YdsJob> = Vec::with_capacity(n);
        for i in 0..n {
            let deadline = if i > 0 && rng.next_below(4) == 0 {
                let tied = jobs[rng.next_below(i as u64) as usize].deadline;
                let nudge = [0.0, 1e-13, -1e-13, 5e-13, -5e-13, 1e-12, -1e-12];
                tied + nudge[rng.next_below(nudge.len() as u64) as usize]
            } else {
                release + rng.uniform_range(1e-3, 2.0)
            };
            let work = if rng.next_below(6) == 0 {
                0.0
            } else {
                rng.uniform_range(1e-4, 3.0)
            };
            jobs.push(YdsJob::new(i, release, deadline, work));
        }
        jobs
    }

    /// Runs the sweep and the general peel on `jobs` and requires the
    /// same segments and peak, bit for bit.
    fn assert_sweep_matches_general(jobs: &[YdsJob], what: &str) {
        let (mut a, mut b) = (YdsScratch::new(), YdsScratch::new());
        let (mut fast, mut general) = (SpeedProfile::empty(), SpeedProfile::empty());
        let peak = peel_into(jobs, &mut a, &mut fast, true);
        let reference = peel_into(jobs, &mut b, &mut general, false);
        assert_eq!(peak.to_bits(), reference.to_bits(), "{what}: peak");
        let (x, y) = (fast.segments(), general.segments());
        assert_eq!(x.len(), y.len(), "{what}: {x:?} vs {y:?}");
        for (p, q) in x.iter().zip(y) {
            assert_eq!(p.start.as_secs().to_bits(), q.start.as_secs().to_bits());
            assert_eq!(p.end.as_secs().to_bits(), q.end.as_secs().to_bits());
            assert_eq!(p.speed_ghz.to_bits(), q.speed_ghz.to_bits(), "{what}");
        }
    }

    #[test]
    fn common_release_sweep_equals_general_peel() {
        for n in 1..=32usize {
            for seed in 0..24u64 {
                let mut rng = RngStream::from_root(seed * 64 + n as u64, "yds/common");
                let release = match seed % 3 {
                    0 => 0.0,
                    1 => rng.uniform_range(0.0, 100.0),
                    // Near the end of a 600 s run, where an ulp is ~1e-13.
                    _ => 600.0 + rng.uniform_range(-0.5, 0.5),
                };
                let jobs = common_release_jobs(&mut rng, n, release);
                assert_eq!(common_release(&jobs), Some(release));
                assert_sweep_matches_general(&jobs, &format!("n={n} seed={seed}"));
                let s = yds_schedule(&jobs);
                assert!(super::testutil::edf_feasible(&jobs, &s.profile));
            }
        }
    }

    #[test]
    fn distinct_releases_take_the_general_peel() {
        // Staggered releases: the sweep does not apply, and the plan is
        // the general peel's.
        let jobs: Vec<YdsJob> = (0..12)
            .map(|i| {
                let r = 599.0 + 0.01 * i as f64;
                YdsJob::new(i, r, r + 0.15 + 0.02 * (i % 3) as f64, 0.05)
            })
            .collect();
        assert_eq!(common_release(&jobs), None);
        assert_sweep_matches_general(&jobs, "staggered");
        let s = yds_schedule(&jobs);
        assert!(super::testutil::edf_feasible(&jobs, &s.profile));
    }

    #[test]
    fn peak_is_max_single_interval_intensity() {
        // The peak speed must be at least any single job's density.
        for seed in 0..64u64 {
            let mut rng = RngStream::from_root(seed, "yds/peak");
            let jobs = random_jobs(&mut rng, 10);
            let s = yds_schedule(&jobs);
            for j in &jobs {
                let density = j.work / (j.deadline - j.release);
                assert!(s.peak_speed >= density - 1e-9);
            }
        }
    }
}
