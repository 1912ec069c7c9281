//! Allocation discipline of trace generation and of a running job.
//!
//! `generate` sits in front of every experiment and used to allocate per
//! event twice over: `Vec` growth on every push batch plus the stable
//! sort's scratch buffer. Semester-length multi-campus sweeps regenerate
//! traces per scenario, so the hot loop must be allocation-free once a
//! buffer exists. This test pins the fix — [`gpunion_workload::generate_into`]
//! reuses the caller's buffer and orders events with an in-place unstable
//! sort on a total key — by counting real heap allocations around a warm
//! regeneration with a counting global allocator.
//!
//! Every running job's `TrainingRun` advances at each agent wake and
//! captures a checkpoint every interval; the second test pins that both
//! are plain arithmetic on a warm run. The counter is per thread
//! (const-initialized TLS), as in `crates/scheduler/tests/alloc.rs`, so the
//! two tests cannot perturb each other.

use gpunion_des::{RngPool, SimDuration};
use gpunion_workload::{
    generate_into, paper_campus_labs, ModelClass, TraceConfig, TrainingJobSpec, TrainingRun,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static LOCAL_ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// Allocations charged to the calling thread so far.
fn allocations() -> usize {
    LOCAL_ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with` so allocations during TLS teardown are not a panic.
        let _ = LOCAL_ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = LOCAL_ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

#[test]
fn trace_generation_does_not_allocate_into_a_warm_buffer() {
    let labs = paper_campus_labs();
    let cfg = TraceConfig {
        horizon: SimDuration::from_days(7),
        ..Default::default()
    };
    let pool = RngPool::new(42);
    // Cold run sizes the buffer (the reserve estimate keeps growth to a
    // handful of reallocations even here).
    let mut events = Vec::new();
    generate_into(&labs, &cfg, &pool, &mut events);
    let n = events.len();
    assert!(n > 500, "a week of campus demand: {n} events");

    // Warm run: every event is plain data, the per-lab RNG streams live
    // on the stack, and the sort is in-place — zero heap allocations.
    let before = allocations();
    generate_into(&labs, &cfg, &pool, &mut events);
    let after = allocations();
    assert_eq!(events.len(), n, "regeneration is deterministic");
    assert_eq!(
        after - before,
        0,
        "trace hot loop allocated {} times per regeneration",
        after - before
    );
}

#[test]
fn a_warm_training_run_advances_and_checkpoints_without_allocating() {
    let spec = TrainingJobSpec::new(ModelClass::MemoryIntensive, 1_000_000);
    let mut run = TrainingRun::new(spec);
    // Warm: the log exists and the first (full) checkpoint is taken.
    run.advance(SimDuration::from_secs(30), 35.6);
    run.capture_checkpoint();

    let before = allocations();
    for _ in 0..20 {
        run.advance(SimDuration::from_secs(30), 35.6);
    }
    let transfer = run.capture_checkpoint();
    let spent = allocations() - before;

    assert!(transfer > 0, "ten minutes of training dirtied state");
    assert_eq!(
        spent, 0,
        "{spent} allocations over 20 warm advances and one checkpoint"
    );
}
