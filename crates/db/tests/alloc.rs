//! Allocation discipline of the hot-path queries.
//!
//! `pending_in_order` is the walk every scheduling pass copies into the
//! buffer it keeps, and `jobs_on_node` answers "what runs here"; both used
//! to build a `Vec` per call. This test pins the fix — both return lazy
//! iterators — by counting real heap allocations around the calls with a
//! counting global allocator. It lives alone in its own test binary so no
//! concurrent test can perturb the counter.

use gpunion_db::{JobState, NodeRecord, NodeState, SystemDb};
use gpunion_des::SimTime;
use gpunion_protocol::{JobId, NodeUid, UserId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

#[test]
fn state_and_node_queries_do_not_allocate() {
    let mut db = SystemDb::new();
    for uid in 0..64u64 {
        db.upsert_node(NodeRecord {
            uid: NodeUid(uid),
            hostname: format!("ws-{uid}"),
            gpu_count: 1,
            registered_at: SimTime::ZERO,
            last_seen: SimTime::ZERO,
            state: if uid % 2 == 0 {
                NodeState::Active
            } else {
                NodeState::Paused
            },
        });
    }
    for job in 0..64u64 {
        db.submit_job(JobId(job), SimTime::ZERO, 1, UserId::SYSTEM);
        db.allocate(JobId(job), NodeUid(job % 8), vec![0], SimTime::ZERO);
    }
    // A backlog of 32 still pending.
    for job in 64..96u64 {
        db.submit_job(JobId(job), SimTime::ZERO, 1, UserId::SYSTEM);
    }
    // Warm up any lazy statics outside the measured window.
    assert_eq!(db.pending_in_order().count(), 32);
    assert_eq!(db.jobs_on_node(NodeUid(3)).count(), 8);
    assert_eq!(
        db.jobs_on_node(NodeUid(3)).fold(0u64, |acc, j| acc + j.0),
        3 + 11 + 19 + 27 + 35 + 43 + 51 + 59
    );

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let pending = db.pending_in_order().count();
    let on_node = db.jobs_on_node(NodeUid(3)).count();
    let sum: u64 = db.jobs_on_node(NodeUid(5)).map(|j| j.0).sum();
    let after = ALLOCATIONS.load(Ordering::Relaxed);

    assert_eq!(pending, 32);
    assert_eq!(on_node, 8);
    assert!(sum > 0);
    assert_eq!(
        after - before,
        0,
        "hot-path queries allocated {} times per sweep",
        after - before
    );
    // Keep terminal states exercised through the same non-allocating path.
    db.set_job_state(JobId(1), JobState::Completed);
}
