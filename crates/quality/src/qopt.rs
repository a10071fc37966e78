//! The Quality-OPT allocator (paper §III-E, after He et al., ICDCS 2011).
//!
//! When a core's power share cannot finish its assigned batch, GE applies a
//! *second cut*: choose processed volumes `c_j ≤ p_j` that maximize the
//! total quality `Σ f(c_j)` subject to the achievable volume
//! `Σ c_j ≤ V` (the volume the core can retire before deadlines at its
//! power-capped speed).
//!
//! For a common concave quality function — the paper's setting — the
//! maximizer *level-fills*: all constrained jobs are processed to a common
//! level `L`, saturated jobs run in full, and `Σ min(p_j, L) = V`. Proof
//! sketch: at an optimum the marginal quality `f'(c_j)` is equal across all
//! jobs with `0 < c_j < p_j` (else moving volume from the lower-marginal to
//! the higher-marginal job improves the objective); since `f'` is strictly
//! decreasing this pins a common level. The level is found exactly by
//! sorting + prefix sums, no iteration.

/// Result of a level-fill allocation.
#[derive(Debug, Clone)]
pub struct LevelFill {
    /// Allocated volume `c_j ≤ p_j` per job, in input order.
    pub allocations: Vec<f64>,
    /// The water level `L` (`∞` when the budget covers everything).
    pub level: f64,
    /// Total allocated volume `Σ c_j` (= `min(V, Σ p_j)` up to rounding).
    pub used: f64,
}

/// Distributes a processing-volume budget across jobs to maximize total
/// quality under a common concave quality function.
///
/// ```
/// use ge_quality::level_fill;
///
/// let out = level_fill(&[100.0, 500.0, 900.0], 600.0);
/// // Short job saturated, the two long jobs levelled at 250.
/// assert_eq!(out.allocations, vec![100.0, 250.0, 250.0]);
/// assert!((out.used - 600.0).abs() < 1e-9);
/// ```
pub fn level_fill(demands: &[f64], budget: f64) -> LevelFill {
    let mut allocations = vec![0.0; demands.len()];
    let level = level_fill_in(demands, budget, &mut Vec::new(), &mut allocations);
    let used = if demands.is_empty() {
        0.0
    } else {
        allocations.iter().sum()
    };
    LevelFill {
        allocations,
        level,
        used,
    }
}

/// [`level_fill`] into `out` (one slot per job): writes the allocations
/// and returns the level. `sorted` is sort scratch.
fn level_fill_in(demands: &[f64], budget: f64, sorted: &mut Vec<f64>, out: &mut [f64]) -> f64 {
    let n = demands.len();
    debug_assert!(demands.iter().all(|&d| d.is_finite() && d >= 0.0));
    debug_assert_eq!(out.len(), n);
    let budget = budget.max(0.0);
    if n == 0 {
        return f64::INFINITY;
    }
    let total: f64 = demands.iter().sum();
    if budget >= total {
        out.copy_from_slice(demands);
        return f64::INFINITY;
    }

    // Sort ascending; find the largest k such that saturating the k
    // smallest jobs and levelling the rest fits the budget.
    sorted.clear();
    sorted.extend_from_slice(demands);
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("demands are finite"));

    let mut saturated_sum = 0.0;
    let mut level = 0.0;
    for (k, &d) in sorted.iter().enumerate() {
        let remaining_jobs = (n - k) as f64;
        // Candidate: level everything not yet saturated at `d`.
        let need = saturated_sum + remaining_jobs * d;
        if need >= budget {
            level = (budget - saturated_sum) / remaining_jobs;
            break;
        }
        saturated_sum += d;
        level = d; // all of sorted[..=k] saturated so far
    }

    for (c, &d) in out.iter_mut().zip(demands) {
        *c = d.min(level);
    }
    level
}

/// Reusable working memory for [`prefix_level_fill_into`]: the budgets
/// the recursion adjusts in place and the level-fill sort buffer.
#[derive(Debug, Default)]
pub struct LevelFillScratch {
    budgets: Vec<f64>,
    sorted: Vec<f64>,
}

impl LevelFillScratch {
    /// Creates an empty scratch. Buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Level-filling under *nested prefix* capacity constraints.
///
/// Jobs are given in EDF (deadline) order. `cum_budgets[i]` is the total
/// volume the core can retire by job `i`'s deadline (non-decreasing), so a
/// feasible allocation must satisfy `Σ_{j ≤ i} c_j ≤ cum_budgets[i]` for
/// every `i`, plus `c_j ≤ demands[j]`. Among feasible allocations this
/// returns the *max-min fair* one, which maximizes `Σ f(c_j)` for **any**
/// common concave `f` (symmetric concave objectives are maximized at the
/// lexicographically max-min point of such a polymatroid-style region).
///
/// Algorithm: run an unconstrained [`level_fill`] on the whole batch with
/// the final budget; if some prefix is violated, the *tightest* violated
/// prefix must hold with equality in any optimum — fix those jobs by
/// recursing on the prefix with its own budget, subtract, and recurse on
/// the suffix. Terminates in at most `n` rounds.
///
/// # Panics
/// Panics if lengths differ or `cum_budgets` decreases.
pub fn prefix_level_fill(demands: &[f64], cum_budgets: &[f64]) -> Vec<f64> {
    let mut out = Vec::new();
    prefix_level_fill_into(demands, cum_budgets, &mut LevelFillScratch::new(), &mut out);
    out
}

/// [`prefix_level_fill`] into a reused buffer: `out` is overwritten with
/// the allocations, and every temporary lives in `scratch`, so repeated
/// calls allocate nothing once the buffers have grown.
///
/// # Panics
/// Panics if lengths differ or `cum_budgets` decreases.
pub fn prefix_level_fill_into(
    demands: &[f64],
    cum_budgets: &[f64],
    scratch: &mut LevelFillScratch,
    out: &mut Vec<f64>,
) {
    assert_eq!(
        demands.len(),
        cum_budgets.len(),
        "one cumulative budget per job"
    );
    assert!(
        cum_budgets.windows(2).all(|w| w[1] >= w[0] - 1e-9),
        "cumulative budgets must be non-decreasing"
    );
    out.clear();
    out.resize(demands.len(), 0.0);
    scratch.budgets.clear();
    scratch.budgets.extend_from_slice(cum_budgets);
    prefix_fill(demands, &mut scratch.budgets, &mut scratch.sorted, out);
}

/// The recursion of [`prefix_level_fill`] over one range: `budgets` are
/// the range's cumulative budgets, adjusted in place for its suffixes,
/// and `out` its slots.
fn prefix_fill(demands: &[f64], budgets: &mut [f64], sorted: &mut Vec<f64>, out: &mut [f64]) {
    let n = demands.len();
    if n == 0 {
        return;
    }
    level_fill_in(demands, budgets[n - 1], sorted, out);

    // Find the most-violated prefix, if any.
    let mut prefix = 0.0;
    let mut worst: Option<(usize, f64)> = None;
    for i in 0..n {
        prefix += out[i];
        let excess = prefix - budgets[i];
        if excess > 1e-9 {
            let better = match worst {
                None => true,
                Some((_, we)) => excess > we,
            };
            if better {
                worst = Some((i, excess));
            }
        }
    }
    let Some((i, _)) = worst else {
        return;
    };

    // The prefix [0..=i] binds: give it exactly its budget, optimally.
    prefix_fill(&demands[..=i], &mut budgets[..=i], sorted, &mut out[..=i]);
    // And re-solve the suffix with the head's volume subtracted.
    let used: f64 = out[..=i].iter().sum();
    for b in &mut budgets[i + 1..] {
        *b = (*b - used).max(0.0);
    }
    prefix_fill(
        &demands[i + 1..],
        &mut budgets[i + 1..],
        sorted,
        &mut out[i + 1..],
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::{ExpConcave, QualityFunction};

    #[test]
    fn budget_covers_everything() {
        let out = level_fill(&[10.0, 20.0], 100.0);
        assert_eq!(out.allocations, vec![10.0, 20.0]);
        assert!(out.level.is_infinite());
        assert!((out.used - 30.0).abs() < 1e-12);
    }

    #[test]
    fn splits_evenly_when_all_constrained() {
        let out = level_fill(&[500.0, 500.0, 500.0], 300.0);
        assert_eq!(out.allocations, vec![100.0, 100.0, 100.0]);
        assert!((out.level - 100.0).abs() < 1e-12);
    }

    #[test]
    fn saturates_short_jobs_first() {
        let out = level_fill(&[50.0, 400.0, 400.0], 450.0);
        assert_eq!(out.allocations, vec![50.0, 200.0, 200.0]);
    }

    #[test]
    fn zero_budget() {
        let out = level_fill(&[100.0, 200.0], 0.0);
        assert_eq!(out.allocations, vec![0.0, 0.0]);
        assert_eq!(out.used, 0.0);
    }

    #[test]
    fn empty_jobs() {
        let out = level_fill(&[], 100.0);
        assert!(out.allocations.is_empty());
        assert_eq!(out.used, 0.0);
    }

    #[test]
    fn budget_exactly_total() {
        let out = level_fill(&[100.0, 200.0], 300.0);
        assert_eq!(out.allocations, vec![100.0, 200.0]);
    }

    #[test]
    fn preserves_input_order() {
        let out = level_fill(&[900.0, 100.0, 500.0], 600.0);
        assert_eq!(out.allocations, vec![250.0, 100.0, 250.0]);
    }

    #[test]
    fn zero_demand_jobs() {
        let out = level_fill(&[0.0, 300.0, 0.0], 100.0);
        assert_eq!(out.allocations, vec![0.0, 100.0, 0.0]);
    }

    #[test]
    fn prefix_unconstrained_matches_plain_level_fill() {
        let demands = [100.0, 500.0, 900.0];
        // Early prefixes are slack: only the final budget binds.
        let out = prefix_level_fill(&demands, &[600.0, 600.0, 600.0]);
        assert_eq!(out, level_fill(&demands, 600.0).allocations);
    }

    #[test]
    fn prefix_binding_first_deadline() {
        // Job 0's deadline allows only 50 units; the rest share later
        // capacity.
        let demands = [200.0, 200.0, 200.0];
        let out = prefix_level_fill(&demands, &[50.0, 300.0, 500.0]);
        assert!((out[0] - 50.0).abs() < 1e-9);
        // Remaining capacity at i=1: 300−50=250 total ⇒ job1 ≤ 200; final
        // 500−50=450 over two jobs levelled at 200 each (demand-capped).
        assert!((out[1] - 200.0).abs() < 1e-9);
        assert!((out[2] - 200.0).abs() < 1e-9);
    }

    #[test]
    fn prefix_middle_constraint_binds() {
        let demands = [300.0, 300.0, 300.0];
        // Prefix caps: 250 by d0, 250 by d1 (binding), 900 by d2.
        let out = prefix_level_fill(&demands, &[250.0, 250.0, 900.0]);
        // First two jobs share 250 fairly: 125 each; job 2 gets the rest.
        assert!((out[0] - 125.0).abs() < 1e-9);
        assert!((out[1] - 125.0).abs() < 1e-9);
        assert!((out[2] - 300.0).abs() < 1e-9);
        // Feasibility.
        assert!(out[0] <= 250.0 + 1e-9);
        assert!(out[0] + out[1] <= 250.0 + 1e-9);
    }

    #[test]
    fn prefix_empty() {
        assert!(prefix_level_fill(&[], &[]).is_empty());
    }

    #[test]
    #[should_panic]
    fn prefix_length_mismatch_panics() {
        let _ = prefix_level_fill(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic]
    fn prefix_decreasing_budgets_panic() {
        let _ = prefix_level_fill(&[1.0, 1.0], &[5.0, 2.0]);
    }

    #[test]
    fn beats_greedy_edf_truncation_on_quality() {
        // Quality-OPT's whole point: spreading the budget beats spending it
        // all on the first jobs when f is concave.
        let f = ExpConcave::paper_default();
        let demands = [800.0, 800.0, 800.0];
        let budget = 900.0;
        let lf = level_fill(&demands, budget);
        let q_level: f64 = lf.allocations.iter().map(|&c| f.value(c)).sum();
        // Greedy: finish job 1 fully, spend the remainder on job 2.
        let q_greedy = f.value(800.0) + f.value(100.0) + f.value(0.0);
        assert!(
            q_level > q_greedy,
            "level-fill {q_level} should beat greedy {q_greedy}"
        );
    }
}

#[cfg(test)]
mod generative_tests {
    use super::*;
    use crate::function::{ExpConcave, QualityFunction};
    use ge_simcore::RngStream;

    fn random_vec(rng: &mut RngStream, lo: f64, hi: f64, min_n: usize, max_n: usize) -> Vec<f64> {
        let n = min_n + rng.next_below((max_n - min_n) as u64) as usize;
        (0..n).map(|_| rng.uniform_range(lo, hi)).collect()
    }

    #[test]
    fn feasible_and_exhaustive() {
        for seed in 0..96u64 {
            let mut rng = RngStream::from_root(seed, "qopt/feasible");
            let demands = random_vec(&mut rng, 0.0, 1000.0, 1, 50);
            let budget = rng.uniform_range(0.0, 20_000.0);
            let out = level_fill(&demands, budget);
            let total: f64 = demands.iter().sum();
            // Never over budget, never over demand, and uses the whole
            // budget when work remains.
            assert!(out.used <= budget + 1e-6);
            for (p, c) in demands.iter().zip(&out.allocations) {
                assert!(*c <= *p + 1e-12);
                assert!(*c >= 0.0);
            }
            let expected_use = budget.min(total);
            assert!((out.used - expected_use).abs() < 1e-6);
        }
    }

    #[test]
    fn prefix_fill_feasible() {
        for seed in 0..96u64 {
            let mut rng = RngStream::from_root(seed, "qopt/prefix");
            let demands = random_vec(&mut rng, 1.0, 500.0, 1, 20);
            let caps = random_vec(&mut rng, 10.0, 400.0, 1, 20);
            // Build non-decreasing cumulative budgets from positive steps.
            let n = demands.len().min(caps.len());
            let demands = &demands[..n];
            let mut cum = Vec::with_capacity(n);
            let mut acc = 0.0;
            for c in &caps[..n] {
                acc += c;
                cum.push(acc);
            }
            let out = prefix_level_fill(demands, &cum);
            let mut prefix = 0.0;
            for i in 0..n {
                assert!(out[i] >= -1e-9);
                assert!(out[i] <= demands[i] + 1e-9);
                prefix += out[i];
                assert!(
                    prefix <= cum[i] + 1e-6,
                    "prefix {i} violated: {prefix} > {}",
                    cum[i]
                );
            }
        }
    }

    /// The allocating recursion `prefix_level_fill_into` replaced: fresh
    /// vectors for the level fill, the tail budgets and the result.
    fn allocating_prefix_fill(demands: &[f64], cum_budgets: &[f64]) -> Vec<f64> {
        let n = demands.len();
        if n == 0 {
            return Vec::new();
        }
        let alloc = level_fill(demands, cum_budgets[n - 1]).allocations;
        let mut prefix = 0.0;
        let mut worst: Option<(usize, f64)> = None;
        for i in 0..n {
            prefix += alloc[i];
            let excess = prefix - cum_budgets[i];
            let better = match worst {
                None => true,
                Some((_, we)) => excess > we,
            };
            if excess > 1e-9 && better {
                worst = Some((i, excess));
            }
        }
        let Some((i, _)) = worst else {
            return alloc;
        };
        let head = allocating_prefix_fill(&demands[..=i], &cum_budgets[..=i]);
        let used: f64 = head.iter().sum();
        let tail_budgets: Vec<f64> = cum_budgets[i + 1..]
            .iter()
            .map(|&b| (b - used).max(0.0))
            .collect();
        let mut out = head;
        out.extend(allocating_prefix_fill(&demands[i + 1..], &tail_budgets));
        out
    }

    #[test]
    fn prefix_fill_into_reused_buffers_matches_the_allocating_recursion() {
        let mut scratch = LevelFillScratch::new();
        let mut out = vec![7.0; 3];
        let mut binding = 0;
        for seed in 0..128u64 {
            let mut rng = RngStream::from_root(seed, "qopt/prefix-into");
            let demands = random_vec(&mut rng, 1.0, 500.0, 1, 24);
            let n = demands.len();
            let mut acc = 0.0;
            let cum: Vec<f64> = (0..n)
                .map(|_| {
                    acc += rng.uniform_range(5.0, 400.0);
                    acc
                })
                .collect();
            prefix_level_fill_into(&demands, &cum, &mut scratch, &mut out);
            let reference = allocating_prefix_fill(&demands, &cum);
            assert_eq!(out.len(), n);
            for (a, b) in out.iter().zip(&reference) {
                assert_eq!(a.to_bits(), b.to_bits(), "seed {seed}");
            }
            binding += usize::from(out.iter().zip(&demands).any(|(c, d)| c < d));
        }
        assert!(binding > 32, "only {binding} instances cut anything");
    }

    #[test]
    fn prefix_fill_no_improving_shift() {
        // First-order optimality under the prefix constraints for the
        // paper's concave f.
        let f = ExpConcave::paper_default();
        for seed in 0..128u64 {
            let mut rng = RngStream::from_root(seed, "qopt/prefix-opt");
            let demands = random_vec(&mut rng, 1.0, 500.0, 2, 12);
            let caps = random_vec(&mut rng, 20.0, 300.0, 2, 12);
            let n = demands.len().min(caps.len());
            let demands = &demands[..n];
            let mut cum = Vec::with_capacity(n);
            let mut acc = 0.0;
            for c in &caps[..n] {
                acc += c;
                cum.push(acc);
            }
            let out = prefix_level_fill(demands, &cum);
            let src = rng.next_below(n as u64) as usize;
            let dst = rng.next_below(n as u64) as usize;
            let delta = rng.uniform_range(0.5, 20.0);
            if src == dst {
                continue;
            }

            let mut alt = out.clone();
            let d = delta.min(alt[src]).min(demands[dst] - alt[dst]);
            if d <= 1e-6 {
                continue;
            }
            alt[src] -= d;
            alt[dst] += d;
            // Check the perturbed allocation is still prefix-feasible.
            let mut prefix = 0.0;
            let mut feasible = true;
            for i in 0..n {
                prefix += alt[i];
                if prefix > cum[i] + 1e-9 {
                    feasible = false;
                    break;
                }
            }
            if !feasible {
                continue;
            }
            let q_opt: f64 = out.iter().map(|&c| f.value(c)).sum();
            let q_alt: f64 = alt.iter().map(|&c| f.value(c)).sum();
            assert!(
                q_alt <= q_opt + 1e-7,
                "feasible perturbation improved quality: {q_alt} > {q_opt}"
            );
        }
    }

    #[test]
    fn no_feasible_perturbation_improves_quality() {
        // First-order optimality: moving `delta` volume from job i to
        // job j never increases Σ f(c).
        let f = ExpConcave::paper_default();
        for seed in 0..128u64 {
            let mut rng = RngStream::from_root(seed, "qopt/level-opt");
            let demands = random_vec(&mut rng, 1.0, 1000.0, 2, 20);
            let budget_frac = rng.uniform_range(0.1, 0.9);
            let total: f64 = demands.iter().sum();
            let budget = budget_frac * total;
            let out = level_fill(&demands, budget);
            let i = rng.next_below(demands.len() as u64) as usize;
            let j = rng.next_below(demands.len() as u64) as usize;
            let delta = rng.uniform_range(0.1, 50.0);
            if i == j {
                continue;
            }

            let mut alt = out.allocations.clone();
            let d = delta.min(alt[i]).min(demands[j] - alt[j]);
            if d <= 1e-9 {
                continue;
            }
            alt[i] -= d;
            alt[j] += d;

            let q_opt: f64 = out.allocations.iter().map(|&c| f.value(c)).sum();
            let q_alt: f64 = alt.iter().map(|&c| f.value(c)).sum();
            assert!(
                q_alt <= q_opt + 1e-9,
                "perturbation improved quality: {q_alt} > {q_opt}"
            );
        }
    }
}
