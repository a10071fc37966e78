//! # ge-bench — benchmark support
//!
//! The benchmark targets live in `benches/` and use the std-only
//! [`harness`] module below (no external benchmarking framework, so the
//! workspace builds with zero network access):
//!
//! * `microbench` — the algorithmic kernels (LF cut, YDS, water-filling,
//!   level-fill, quality-function inversion, event queue, core engine).
//! * `figures` — one bench per paper figure at [`ge_experiments::Scale::bench`]
//!   scale, so `cargo bench` regenerates every table/figure pipeline
//!   end-to-end and tracks its cost.
//!
//! This library hosts the harness plus small shared fixtures.

use ge_core::SimConfig;
use ge_simcore::SimTime;
use ge_workload::{Trace, WorkloadConfig, WorkloadGenerator};

pub mod harness {
    //! A minimal `std`-only benchmarking harness.
    //!
    //! Calibrates an iteration count per benchmark so each sample batch
    //! runs for at least 20 ms and at least [`MIN_ITERS`] iterations,
    //! then reports the minimum and mean time per iteration over
    //! [`BATCHES`] batches. Min-of-batches is robust to scheduler noise,
    //! which is all we need for coarse regression tracking, provided
    //! there are enough batches of enough iterations for the minimum to
    //! find a quiet stretch: with 5 batches of 20 ms, a 15 ms whole-fleet
    //! run was timed from 2 iterations per batch and moved by 10–20%
    //! between runs of unchanged code. Fancier statistics are
    //! deliberately out of scope (no external deps).

    use ge_experiments::trajectory;
    use std::cell::RefCell;
    pub use std::hint::black_box;
    use std::path::PathBuf;
    use std::time::Instant;

    /// Target wall-clock duration of one calibrated sample batch.
    const BATCH_NANOS: u128 = 20_000_000; // 20 ms
    /// Fewest iterations in one sample batch, however slow the body.
    pub const MIN_ITERS: u64 = 10;
    /// Number of sample batches per benchmark.
    pub const BATCHES: usize = 15;

    /// Warms `f` up and calibrates the iteration count: grows it until
    /// one batch takes at least [`BATCH_NANOS`], then raises it to at
    /// least [`MIN_ITERS`].
    pub(crate) fn calibrate<T>(f: &mut impl FnMut() -> T) -> u64 {
        let mut iters: u64 = 1;
        loop {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let elapsed = t.elapsed().as_nanos();
            if elapsed >= BATCH_NANOS || iters >= 1 << 30 {
                break;
            }
            // Aim straight for the target with 2x headroom.
            let scale = (BATCH_NANOS / elapsed.max(1)).max(1) as u64;
            iters = iters.saturating_mul(scale.saturating_mul(2)).min(1 << 30);
        }
        iters.max(MIN_ITERS)
    }

    /// One finished benchmark measurement.
    #[derive(Debug, Clone)]
    pub struct BenchResult {
        /// Benchmark name as passed to [`Harness::bench`].
        pub name: String,
        /// Minimum ns/iter over the sample batches.
        pub min_ns: f64,
        /// Mean ns/iter over the sample batches.
        pub mean_ns: f64,
        /// Calibrated iterations per batch.
        pub iters: u64,
    }

    /// Runs named benchmarks, honouring an optional substring filter
    /// passed on the command line (flags such as `--bench` are ignored)
    /// and an optional `--json <path>` report destination.
    pub struct Harness {
        filter: Option<String>,
        json: Option<PathBuf>,
        results: RefCell<Vec<BenchResult>>,
    }

    impl Harness {
        /// Builds a harness with an explicit (possibly absent) filter.
        pub fn new(filter: Option<String>) -> Self {
            Harness {
                filter,
                json: None,
                results: RefCell::new(Vec::new()),
            }
        }

        /// Builds a harness from `std::env::args`: the first bare
        /// argument is the name filter; `--json <path>` (or
        /// `--json=<path>`) requests a machine-readable report from
        /// [`Harness::finish`].
        pub fn from_args() -> Self {
            let args: Vec<String> = std::env::args().skip(1).collect();
            let mut filter = None;
            let mut json = None;
            let mut i = 0;
            while i < args.len() {
                let a = &args[i];
                if a == "--json" {
                    if let Some(p) = args.get(i + 1) {
                        json = Some(PathBuf::from(p));
                        i += 1;
                    }
                } else if let Some(p) = a.strip_prefix("--json=") {
                    json = Some(PathBuf::from(p));
                } else if !a.starts_with('-') && filter.is_none() {
                    filter = Some(a.clone());
                }
                i += 1;
            }
            Harness {
                filter,
                json,
                results: RefCell::new(Vec::new()),
            }
        }

        /// The measurements collected so far, in execution order.
        pub fn results(&self) -> Vec<BenchResult> {
            self.results.borrow().clone()
        }

        /// Writes the collected results as JSON to the `--json` path, if
        /// one was given (no-op otherwise). Call once, after the last
        /// `bench`. Schema `ge-bench-sched/v1`:
        ///
        /// ```json
        /// {
        ///   "schema": "ge-bench-sched/v1",
        ///   "entries": [
        ///     {"name": "lf_cut/16", "min_ns": 1.0, "mean_ns": 1.2, "iters": 4096}
        ///   ]
        /// }
        /// ```
        ///
        /// The report itself is written atomically (temp + rename), and
        /// the same entries are appended as one compact line — schema
        /// `ge-bench-trajectory/v2`, stamped with the wall-clock time —
        /// to `BENCH_trajectory.jsonl` next to the report, so successive
        /// runs accumulate a performance trajectory instead of
        /// overwriting each other.
        pub fn finish(&self) -> std::io::Result<()> {
            let Some(path) = &self.json else {
                return Ok(());
            };
            let results = self.results.borrow();
            let mut out = String::new();
            out.push_str("{\n  \"schema\": \"ge-bench-sched/v1\",\n  \"entries\": [\n");
            for (i, r) in results.iter().enumerate() {
                let sep = if i + 1 < results.len() { "," } else { "" };
                out.push_str(&format!(
                    "    {{\"name\": \"{}\", \"min_ns\": {:.1}, \"mean_ns\": {:.1}, \"iters\": {}}}{sep}\n",
                    r.name, r.min_ns, r.mean_ns, r.iters
                ));
            }
            out.push_str("  ]\n}\n");
            ge_recover::write_atomic(path, out.as_bytes())?;
            self.append_trajectory(path, &results)
        }

        /// Appends this run's entries (in ns) as one
        /// [`ge_experiments::trajectory`] line to `BENCH_trajectory.jsonl`
        /// beside the `--json` report.
        fn append_trajectory(
            &self,
            report_path: &std::path::Path,
            results: &[BenchResult],
        ) -> std::io::Result<()> {
            let entries: Vec<trajectory::Entry> = results
                .iter()
                .map(|r| trajectory::Entry {
                    name: r.name.clone(),
                    unit: "ns",
                    min: r.min_ns,
                    mean: r.mean_ns,
                    iters: r.iters,
                })
                .collect();
            let traj = report_path
                .parent()
                .filter(|d| !d.as_os_str().is_empty())
                .map(|d| d.join("BENCH_trajectory.jsonl"))
                .unwrap_or_else(|| PathBuf::from("BENCH_trajectory.jsonl"));
            trajectory::append(&traj, &entries)
        }

        /// Benchmarks `f`, printing `name: <min> ns/iter (mean <mean>)`.
        ///
        /// Skipped (silently) when a filter was given and `name` does not
        /// contain it.
        pub fn bench<T>(&self, name: &str, f: impl FnMut() -> T) {
            self.bench_batches(name, BATCHES, f)
        }

        /// [`Harness::bench`] over `batches` sample batches instead of
        /// [`BATCHES`], for bodies slow enough that [`MIN_ITERS`]
        /// iterations already make one batch far longer than the target.
        pub fn bench_batches<T>(&self, name: &str, batches: usize, mut f: impl FnMut() -> T) {
            if let Some(filter) = &self.filter {
                if !name.contains(filter.as_str()) {
                    return;
                }
            }
            let iters = calibrate(&mut f);
            let mut min_ns = f64::INFINITY;
            let mut sum_ns = 0.0;
            for _ in 0..batches {
                let t = Instant::now();
                for _ in 0..iters {
                    black_box(f());
                }
                let per_iter = t.elapsed().as_nanos() as f64 / iters as f64;
                min_ns = min_ns.min(per_iter);
                sum_ns += per_iter;
            }
            let mean_ns = sum_ns / batches as f64;
            println!(
                "{name:<40} {:>12.1} ns/iter   (mean {:>12.1}, {iters} iters x {batches})",
                min_ns, mean_ns,
            );
            self.results.borrow_mut().push(BenchResult {
                name: name.to_string(),
                min_ns,
                mean_ns,
                iters,
            });
        }

        /// Benchmarks two variants of one workload with **interleaved**
        /// batches (A, B, A, B, …) sharing a single calibrated iteration
        /// count, so slow machine-speed drift (thermal throttling, noisy
        /// neighbours) hits both variants equally. Use when the *ratio*
        /// between the entries is the quantity of interest — e.g. an
        /// instrumentation overhead pair. Sequential `bench` calls can
        /// drift several percent apart over their combined runtime,
        /// which would swamp a sub-2% overhead budget.
        ///
        /// Runs when either name matches the filter (a lone half of a
        /// pair is meaningless); records one entry per variant.
        pub fn bench_pair<T>(
            &self,
            name_a: &str,
            mut fa: impl FnMut() -> T,
            name_b: &str,
            mut fb: impl FnMut() -> T,
        ) {
            if let Some(filter) = &self.filter {
                if !name_a.contains(filter.as_str()) && !name_b.contains(filter.as_str()) {
                    return;
                }
            }
            // Calibrate on variant A; both variants share the count so
            // per-iteration figures are directly comparable.
            let iters = calibrate(&mut fa);
            // Warm B once so its first interleaved batch is not cold.
            black_box(fb());
            let mut stats = [(f64::INFINITY, 0.0), (f64::INFINITY, 0.0)];
            for _ in 0..BATCHES {
                for (which, (min_ns, sum_ns)) in stats.iter_mut().enumerate() {
                    let t = Instant::now();
                    for _ in 0..iters {
                        if which == 0 {
                            black_box(fa());
                        } else {
                            black_box(fb());
                        }
                    }
                    let per_iter = t.elapsed().as_nanos() as f64 / iters as f64;
                    *min_ns = min_ns.min(per_iter);
                    *sum_ns += per_iter;
                }
            }
            for (name, (min_ns, sum_ns)) in [name_a, name_b].into_iter().zip(stats) {
                let mean_ns = sum_ns / BATCHES as f64;
                println!(
                    "{name:<40} {:>12.1} ns/iter   (mean {:>12.1}, {iters} iters x {BATCHES}, interleaved)",
                    min_ns, mean_ns,
                );
                self.results.borrow_mut().push(BenchResult {
                    name: name.to_string(),
                    min_ns,
                    mean_ns,
                    iters,
                });
            }
        }
    }
}

/// A deterministic bench-scale trace (`secs` simulated seconds at `rate`).
pub fn bench_trace(rate: f64, secs: f64, seed: u64) -> Trace {
    WorkloadGenerator::new(
        WorkloadConfig {
            horizon: SimTime::from_secs(secs),
            ..WorkloadConfig::paper_default(rate)
        },
        seed,
    )
    .generate()
}

/// A bench-scale platform configuration.
pub fn bench_config(secs: f64) -> SimConfig {
    SimConfig {
        horizon: SimTime::from_secs(secs),
        ..SimConfig::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_deterministic() {
        let a = bench_trace(100.0, 5.0, 1);
        let b = bench_trace(100.0, 5.0, 1);
        assert_eq!(a.len(), b.len());
        assert!(!a.is_empty());
        bench_config(5.0).validate();
    }

    #[test]
    fn a_body_slower_than_a_batch_still_gets_the_minimum_iterations() {
        let mut calls = 0u64;
        let iters = harness::calibrate(&mut || {
            calls += 1;
            std::thread::sleep(std::time::Duration::from_millis(21));
        });
        assert_eq!(calls, 1, "one warm-up run already fills a batch");
        assert_eq!(iters, harness::MIN_ITERS);
    }

    #[test]
    fn harness_runs_a_trivial_bench() {
        // Smoke test: calibration terminates on a ~ns workload.
        let h = harness::Harness::new(None);
        h.bench("noop_add", || harness::black_box(2u64) + 2);
    }

    #[test]
    fn bench_pair_records_both_entries_with_shared_iters() {
        let h = harness::Harness::new(None);
        h.bench_pair(
            "pair/a",
            || harness::black_box(2u64) + 2,
            "pair/b",
            || harness::black_box(3u64) + 3,
        );
        let results = h.results();
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].name, "pair/a");
        assert_eq!(results[1].name, "pair/b");
        assert_eq!(results[0].iters, results[1].iters);
        assert!(results.iter().all(|r| r.min_ns.is_finite()));
    }

    #[test]
    fn bench_pair_honours_the_filter_on_either_name() {
        let h = harness::Harness::new(Some("nomatch".to_string()));
        h.bench_pair("pair/a", || 1u64, "pair/b", || 2u64);
        assert!(h.results().is_empty());
        let h = harness::Harness::new(Some("pair/b".to_string()));
        h.bench_pair("pair/a", || 1u64, "pair/b", || 2u64);
        assert_eq!(h.results().len(), 2);
    }
}
