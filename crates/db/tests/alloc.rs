//! Allocation discipline of the database's hot paths.
//!
//! `pending_in_order` is the walk every scheduling pass copies into the
//! buffer it keeps; it used to build a `Vec` per call. A logged write is
//! encoded straight into the log's own buffer; it used to build a payload
//! `Vec` per record. These tests pin both by counting real heap allocations
//! around the calls with a counting global allocator. The counter is per
//! thread (const-initialized TLS), so the tests of this binary cannot
//! perturb each other's counts.

use gpunion_db::{JobState, NodeRecord, NodeState, SystemDb, WriteIntent};
use gpunion_des::SimTime;
use gpunion_protocol::{JobId, NodeUid, UserId};
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

/// 64 nodes, `jobs` jobs: the first 64 allocated, the rest pending.
fn campus(jobs: u64) -> SystemDb {
    let mut db = SystemDb::new();
    let t0 = SimTime::ZERO;
    for uid in 0..64u64 {
        let state = if uid % 2 == 0 {
            NodeState::Active
        } else {
            NodeState::Paused
        };
        db.apply(
            t0,
            WriteIntent::UpsertNode(NodeRecord {
                uid: NodeUid(uid),
                hostname: format!("ws-{uid}"),
                gpu_count: 1,
                registered_at: t0,
                last_seen: t0,
                state,
            }),
        );
    }
    for job in 0..jobs {
        db.apply(
            t0,
            WriteIntent::SubmitJob {
                job: JobId(job),
                submitted_at: t0,
                priority: 1,
                user: UserId::SYSTEM,
            },
        );
    }
    for job in 0..64u64 {
        db.apply(
            t0,
            WriteIntent::Allocate {
                job: JobId(job),
                node: NodeUid(job % 8),
                gpu_indices: vec![0],
                at: t0,
            },
        );
    }
    db
}

#[test]
fn state_and_node_queries_do_not_allocate() {
    let mut db = campus(96);
    // Warm up any lazy statics outside the measured window.
    assert_eq!(db.pending_in_order().count(), 32);

    let before = allocations();
    let pending = db.pending_in_order().count();
    let sum: u64 = db.pending_in_order().map(|j| j.0).sum();
    let after = allocations();

    assert_eq!(pending, 32);
    assert_eq!(sum, (64..96).sum::<u64>());
    assert_eq!(
        after - before,
        0,
        "hot-path queries allocated {} times per sweep",
        after - before
    );
    // Keep terminal states exercised through the same non-allocating path.
    db.apply(
        SimTime::ZERO,
        WriteIntent::SetJobState(JobId(1), JobState::Completed),
    );
}

/// A logged write encodes into the log's own buffer: 1 000 job-state
/// writes to existing jobs allocate at most the buffer's doubling, not one
/// payload per record — and every one of them is logged.
#[test]
fn warm_logged_writes_allocate_at_most_the_logs_doubling() {
    let mut db = campus(2_000);
    let states = [JobState::Completed, JobState::Failed, JobState::Pending];
    let at = SimTime::from_secs(1);
    let log_before = db.log().len();

    let before = allocations();
    for i in 0..1_000u64 {
        let intent = WriteIntent::SetJobState(JobId(i), states[i as usize % 3]);
        assert!(db.apply(at, intent));
    }
    let after = allocations();

    // Each record: an 8-byte header, then a tag, the job id and the state.
    assert_eq!(db.log().len() - log_before, 1_000 * (8 + 1 + 8 + 1));
    assert!(
        after - before <= 2,
        "1 000 logged writes allocated {} times",
        after - before
    );
}
