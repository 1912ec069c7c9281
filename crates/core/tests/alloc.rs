//! Allocation discipline of the platform's steady cycle.
//!
//! On a campus of idle providers the platform's whole load is the
//! heartbeat round trip: an agent's timer fires, the beat crosses the
//! network, takes a coordinator turn on arrival, and the ack comes back.
//! Every buffer on that path is one the platform, the network or the
//! coordinator keeps, and the wake index appends to a ring it reuses, so
//! what a warm round trip may still allocate is what travels: the beat's
//! `gpu_stats` vector and one boxed envelope each way — on a campus large
//! enough (64 hosts) that an ordered set under the beat's churn splits
//! leaves, over twenty periods. Counted with a counting global allocator; the
//! counter is per thread (const-initialized TLS), as in
//! `crates/scheduler/tests/alloc.rs`.

use gpunion_core::{Platform, PlatformConfig, PlatformSim};
use gpunion_des::{SimDuration, SimTime};
use gpunion_gpu::{GpuModel, ServerSpec};
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

/// What the one ordered set left on the path allocates over the window
/// below. `CapacityIndex::by_heartbeat` repositions each beat's node —
/// its oldest key out, the newest in — and a 64-entry B-tree under that
/// queue pattern splits a leaf every seven inserts or so: a
/// `BTreeSet<(u64, u64)>` of 64 driven through 1 280 such steps allocates
/// 182–183 times, by phase. It stays a tree on purpose (ISSUE 25: its
/// insert is 0.7 % of the profile); the platform's wake index, which
/// churned the same way at the parent, no longer does.
const BY_HEARTBEAT_LEAF_SPLITS: usize = 183;

#[test]
fn a_warm_heartbeat_round_trip_allocates_only_what_travels() {
    let specs: Vec<ServerSpec> = (0..64)
        .map(|i| ServerSpec::workstation(format!("ws-{i}"), GpuModel::Rtx3090))
        .collect();
    let (mut w, hosts) = Platform::deploy(&PlatformConfig::default(), &specs);
    let mut sim = PlatformSim::new();
    Platform::boot(&mut w, &mut sim);
    // Sixty periods: every buffer has seen its peak, and the traffic
    // accountant's minute buckets have room past the window's end.
    sim.run_until(&mut w, SimTime::from_secs(300));
    let period = SimDuration::from_secs(5);
    let sent = w.net.messages_sent();
    let events = sim.events_executed();

    let before = allocations();
    sim.run_until(&mut w, SimTime::from_secs(300) + period * 20);
    let spent = allocations() - before;

    let trips = hosts.len() * 20;
    assert_eq!(
        w.net.messages_sent() - sent,
        2 * trips as u64,
        "beats and acks only"
    );
    assert_eq!(
        sim.events_executed() - events,
        4 * trips as u64 + 20,
        "wake, beat in, its status write applied, ack in; one sweep a period"
    );
    // The parent allocated 4 206 times here: 3 × 1 280 + 2 × 183, its wake
    // index a B-tree churning like `by_heartbeat`.
    assert_eq!(
        spent - BY_HEARTBEAT_LEAF_SPLITS,
        3 * trips,
        "per round trip, the `gpu_stats` vector and two boxed envelopes, nothing else"
    );
}
