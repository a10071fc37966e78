//! Peak heap of a whole `paper_light` run beyond its input trace.
//!
//! A run keeps its caller's trace as its arrival list instead of copying
//! it, and its input digest streams the jobs instead of encoding them into
//! one buffer, so the heap a run adds on top of the trace grows with live
//! work, not with the workload. This binary installs a global allocator
//! that tracks the live and peak bytes of the calling thread and pins that:
//! the `paper_light` workload (paper platform, 150 req/s, seed 1, 600 s,
//! about 90k jobs and 3.62 MB of them) runs once through
//! [`run_scheduler_with_sink`] and once through [`Run::start`] plus
//! [`Run::finish`], and in each the peak live heap above the level before
//! the call must stay under a quarter of the trace's job bytes.
//!
//! Measured on x86-64 (debug build): 26 kB through
//! `run_scheduler_with_sink` and 35 kB through `Run::start` + `finish`,
//! against a bound of 0.9 MB. A copy of the trace alone would add 3.62 MB.
//!
//! The counters are per thread, so the test harness's own threads and the
//! other test of this file do not count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ge_core::{run_scheduler_with_sink, Algorithm, Run, SimConfig};
use ge_trace::NullSink;
use ge_workload::{Job, Trace, WorkloadConfig, WorkloadGenerator};

struct Tracking;

thread_local! {
    static TRACKING: Cell<bool> = const { Cell::new(false) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn note(delta: i64) {
    // `try_with` keeps the allocator usable while thread-locals are torn
    // down at thread exit.
    if TRACKING.try_with(Cell::get).unwrap_or(false) {
        let _ = LIVE.try_with(|live| {
            let now = live.get() + delta;
            live.set(now);
            let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
        });
    }
}

// SAFETY: every call forwards to `System` with the caller's arguments; the
// bookkeeping touches only const-initialised thread-locals, which never
// allocate.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Tracking = Tracking;

/// The peak of this thread's live heap during `f`, above its level
/// before `f`.
fn peak_heap_in<R>(f: impl FnOnce() -> R) -> (R, i64) {
    LIVE.with(|live| live.set(0));
    PEAK.with(|peak| peak.set(0));
    TRACKING.with(|on| on.set(true));
    let out = f();
    TRACKING.with(|on| on.set(false));
    (out, PEAK.with(Cell::get))
}

fn paper_light() -> (SimConfig, Trace) {
    let cfg = SimConfig::paper_default();
    let trace = WorkloadGenerator::new(WorkloadConfig::paper_default(150.0), 1).generate();
    assert_eq!(cfg.horizon.as_secs(), 600.0);
    (cfg, trace)
}

/// A quarter of the trace's job bytes.
fn bound(trace: &Trace) -> i64 {
    let job_bytes = (trace.len() * std::mem::size_of::<Job>()) as i64;
    assert!(job_bytes > 3_500_000, "trace holds only {job_bytes} bytes");
    job_bytes / 4
}

#[test]
fn a_plain_paper_light_run_adds_far_less_heap_than_its_trace() {
    let (cfg, trace) = paper_light();
    let mut sched = Algorithm::Ge.build(&cfg);
    let (result, peak) =
        peak_heap_in(|| run_scheduler_with_sink(&cfg, &trace, sched.as_mut(), None, &mut NullSink));
    println!("run_scheduler_with_sink: peak {peak} B above the trace");
    assert_eq!(result.jobs_finished, trace.len() as u64);
    assert!(
        peak < bound(&trace),
        "run_scheduler_with_sink peaked {peak} B above its input, bound {} B",
        bound(&trace)
    );
}

#[test]
fn a_paper_light_run_handle_adds_far_less_heap_than_its_trace() {
    let (cfg, trace) = paper_light();
    let (outcome, peak) = peak_heap_in(|| {
        Run::start(&cfg, &trace, &Algorithm::Ge, None, &mut NullSink).finish(&mut NullSink)
    });
    println!("Run::start + finish: peak {peak} B above the trace");
    assert_eq!(outcome.result.jobs_finished, trace.len() as u64);
    assert!(
        peak < bound(&trace),
        "Run::start + finish peaked {peak} B above its input, bound {} B",
        bound(&trace)
    );
}
