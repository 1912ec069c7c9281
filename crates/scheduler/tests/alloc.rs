//! Allocation discipline of the round-robin pick path.
//!
//! The scheduling pass's round-robin pick walks the capacity index one
//! `first_candidate_in` per uid it examines and keeps no state between
//! picks. These tests pin that path — class lookups, per-uid candidacy
//! verification, and the wrap-around on a fleet with room; the class walk
//! that finds nothing on a
//! saturated one — to ZERO heap allocations by counting real allocations
//! with a counting global allocator. The counter is **per thread**
//! (const-initialized TLS, so reading it never recurses into the
//! allocator): the libtest harness's main thread lazily initializes
//! channel state while it blocks waiting for a test, and a process-global
//! counter intermittently catches that bookkeeping inside a measured
//! window. The directory runs on the calling thread, so its count is the
//! whole story.

use gpunion_des::SimTime;
use gpunion_gpu::GpuModel;
use gpunion_protocol::{DispatchSpec, ExecMode, GpuInfo, JobId, UserId};
use gpunion_scheduler::{Directory, Selector};
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

fn spec(mem_gb: u64, min_cc: Option<(u8, u8)>) -> DispatchSpec {
    DispatchSpec {
        job: JobId(1),
        image_repo: "r".into(),
        image_tag: "t".into(),
        image_digest: [0; 32],
        gpus: 1,
        gpu_mem_bytes: mem_gb << 30,
        min_cc,
        mode: ExecMode::Batch {
            entrypoint: vec!["x".into()],
        },
        checkpoint_interval_secs: 600,
        storage_nodes: vec![],
        state_bytes_hint: 0,
        restore_from_seq: None,
        priority: 1,
        user: UserId::SYSTEM,
    }
}

#[test]
fn warm_round_robin_gather_does_not_allocate() {
    let mut dir = Directory::new();
    let models = GpuModel::ALL;
    for i in 0..64usize {
        let gpus: Vec<GpuInfo> = vec![models[i % models.len()].into()];
        dir.register(&format!("m-{i}"), "h", gpus, SimTime::from_secs(0));
    }
    // A little capacity texture so per-uid verification does real work.
    for i in (0..64u64).step_by(5) {
        dir.reserve(gpunion_protocol::NodeUid(i), JobId(i), 1, 8 << 30, None);
    }
    let s = spec(4, None);
    let mut sel = Selector::default();

    // Warm up over at least one full wrap, outside the measured window.
    for _ in 0..150 {
        assert!(sel.pick(&dir, &s, &[]).is_some());
    }

    // Measured window: two more full circles of picks — class lookups,
    // wrap-arounds, candidacy checks.
    let before = allocations();
    let mut hits = 0usize;
    for _ in 0..130 {
        hits += usize::from(sel.pick(&dir, &s, &[]).is_some());
    }
    let after = allocations();

    assert_eq!(hits, 130, "every pick lands on the all-eligible fleet");
    assert_eq!(
        after - before,
        0,
        "warm pick path allocated {} times over 130 picks",
        after - before
    );
}

#[test]
fn warm_failing_picks_on_a_saturated_fleet_do_not_allocate() {
    let mut dir = Directory::new();
    for i in 0..64u64 {
        let gpus: Vec<GpuInfo> = vec![GpuModel::Rtx3090.into()];
        dir.register(&format!("m-{i}"), "h", gpus, SimTime::from_secs(0));
        // 4 GB left everywhere, except a few nodes left with 17 GB: inside
        // the 20 GB shape's bucket, so its picks verify (and reject) them.
        let held = if i % 16 == 3 { 7 } else { 20 };
        dir.reserve(gpunion_protocol::NodeUid(i), JobId(i), 1, held << 30, None);
    }
    // Three shapes, three class floors (the last above any 3090's bucket).
    let shapes = [spec(20, None), spec(18, Some((8, 6))), spec(40, None)];
    let mut sel = Selector::default();
    for s in &shapes {
        assert!(sel.pick(&dir, s, &[]).is_none(), "warm-up pick");
    }

    let before = allocations();
    let mut hits = 0usize;
    for i in 0..200 {
        hits += usize::from(sel.pick(&dir, &shapes[i % 3], &[]).is_some());
    }
    let after = allocations();

    assert_eq!(hits, 0, "nothing fits a saturated fleet");
    assert_eq!(
        after - before,
        0,
        "failing pick path allocated {} times over 200 picks",
        after - before
    );
}
