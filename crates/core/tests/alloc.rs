//! Allocation discipline of the platform's steady cycle.
//!
//! On a campus of idle providers the platform's whole load is the
//! heartbeat: an agent's timer fires, the beat crosses the network and
//! takes a coordinator turn on arrival. Nothing answers it. Every buffer on
//! that path is one the platform, the network or the coordinator keeps, and
//! the wake index appends to a ring it reuses, and the directory files a
//! beat's arrival time in a dense column, not an ordered set, so what a
//! warm beat may allocate is what travels: its `gpu_stats` vector and one
//! boxed envelope — exactly, over twenty periods of a 64-host campus.
//! Counted with a counting global allocator; the counter is per thread
//! (const-initialized TLS), as in `crates/scheduler/tests/alloc.rs`.

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

    let beats = hosts.len() * 20;
    assert_eq!(
        w.net.messages_sent() - sent,
        beats as u64,
        "beats only: the coordinator answers none"
    );
    assert_eq!(
        sim.events_executed() - events,
        2 * beats as u64 + 20,
        "wake, beat in; one sweep a period (a beat's status write applies \
         at the next coordinator turn, not at a wake of its own)"
    );
    assert_eq!(
        spent,
        2 * beats,
        "per beat, the `gpu_stats` vector and one boxed envelope, nothing else"
    );
}
