//! Allocation discipline of the platform's steady cycle.
//!
//! On a campus of idle providers the platform's whole load is the
//! heartbeat round trip: an agent's timer fires, the beat crosses the
//! network, takes a coordinator turn on arrival, and the ack comes back —
//! three pump events. Every buffer on that path is one the platform, the
//! network or the coordinator keeps, so what a warm round trip may still
//! allocate is what travels: the beat's `gpu_stats` vector and one boxed
//! envelope each way. Counted with a counting global allocator; the
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

#[test]
fn a_warm_heartbeat_round_trip_allocates_only_what_travels() {
    let specs: Vec<ServerSpec> = (1..=3)
        .map(|i| ServerSpec::workstation(format!("ws-{i}"), GpuModel::Rtx3090))
        .collect();
    let (mut w, hosts) = Platform::deploy(&PlatformConfig::default(), &specs);
    let mut sim = PlatformSim::new();
    Platform::boot(&mut w, &mut sim);
    // A dozen periods: every buffer has seen its peak, and the traffic
    // accountant is inside a minute it has already touched.
    sim.run_until(&mut w, SimTime::from_secs(62));

    // Boot staggers the agents 3 ms apart and a round trip takes a quarter
    // of one, so a 2 ms window around one agent's beat holds it alone.
    let beat = w.agent(hosts[0]).unwrap().next_wake().expect("beating");
    sim.run_until(&mut w, beat - SimDuration::from_micros(1));
    let sent = w.net.messages_sent();
    let events = sim.events_executed();

    let before = allocations();
    sim.run_until(&mut w, beat + SimDuration::from_millis(2));
    let spent = allocations() - before;

    assert_eq!(w.net.messages_sent() - sent, 2, "one beat, one ack");
    assert_eq!(sim.events_executed() - events, 3, "wake, beat in, ack in");
    assert_eq!(
        spent, 3,
        "the `gpu_stats` vector and two boxed envelopes, nothing else"
    );
}
