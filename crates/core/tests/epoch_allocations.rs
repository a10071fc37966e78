//! Allocation count of a steady-state GE run.
//!
//! A GE epoch reuses its scratch buffers, YDS writes into reused plan
//! buffers and a core copies an installed plan into its own profile, so
//! once the buffers have grown to the working-set size the engine and the
//! scheduler allocate nothing. This binary installs a counting global
//! allocator and pins that: the `paper_light` workload (paper platform,
//! 150 req/s, seed 1) runs through a [`Run`] to 300 s, and the allocations
//! the same thread makes over the next 60 s must stay at a handful.
//!
//! The counter is per thread, so the test harness's own threads do not
//! count; the file holds one test so nothing else runs in the window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ge_core::{Algorithm, Run, SimConfig};
use ge_simcore::SimTime;
use ge_trace::NullSink;
use ge_workload::{WorkloadConfig, WorkloadGenerator};

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    // `try_with` keeps the allocator usable while thread-locals are torn
    // down at thread exit.
    let on = COUNTING.try_with(Cell::get).unwrap_or(false);
    if on {
        let _ = COUNT.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every call forwards to `System` with the caller's arguments; the
// bookkeeping touches only const-initialised thread-locals, which never
// allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations (including reallocations) made by this thread in `f`.
fn allocations_in(f: impl FnOnce()) -> u64 {
    COUNT.with(|c| c.set(0));
    COUNTING.with(|on| on.set(true));
    f();
    COUNTING.with(|on| on.set(false));
    COUNT.with(Cell::get)
}

#[test]
fn a_steady_state_paper_light_minute_allocates_almost_nothing() {
    let cfg = SimConfig::paper_default();
    let trace = WorkloadGenerator::new(WorkloadConfig::paper_default(150.0), 1).generate();
    let mut run = Run::start(&cfg, &trace, &Algorithm::Ge, None, &mut NullSink);
    run.advance_to(SimTime::from_secs(300.0), &mut NullSink);
    let events_before = run.events_handled();
    let allocations = allocations_in(|| run.advance_to(SimTime::from_secs(360.0), &mut NullSink));
    let events = run.events_handled() - events_before;
    println!("{allocations} allocations over {events} events in [300, 360] s");
    assert!(events > 10_000, "only {events} events in the window");
    assert!(
        allocations <= 8,
        "{allocations} allocations over {events} events in [300, 360] s"
    );
}
