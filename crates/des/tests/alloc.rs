//! Allocation discipline of the warm typed-event schedule→fire path.
//!
//! The point of the typed-event slab + timer wheel is that the hot
//! recurring event kinds — pump wakes, heartbeats, periodic timers — cost
//! zero heap traffic at steady state: events recycle slab slots and wheel
//! entries recycle arena nodes through intrusive per-slot lists. This test
//! pins that with a counting global allocator (same idiom as
//! `scheduler/tests/alloc.rs` and `protocol/tests/alloc.rs`): warm the
//! capacities up, then assert ZERO allocations over a measured window that
//! covers level-0 inserts, multi-level cascades, cancels with slot reuse,
//! and self-re-arming heartbeats.
//! The counter is **per thread** (const-initialized TLS, so reading it
//! never recurses into the allocator): the libtest harness's main thread
//! lazily initializes channel state while it blocks waiting for a test,
//! and a process-global counter intermittently catches that bookkeeping
//! inside a measured window. The `Sim` under test is single-threaded, so
//! the calling thread's count is the whole story.

use gpunion_des::{Sim, SimDuration, SimTime, TypedEvent};
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

/// A node heartbeat: the shape of the hot recurring event in the platform.
enum Beat {
    Node { id: u32, period: SimDuration },
}

#[derive(Default)]
struct Fleet {
    beats: u64,
}

impl TypedEvent<Fleet> for Beat {
    fn fire(self, w: &mut Fleet, sim: &mut Sim<Fleet, Beat>) {
        let Beat::Node { id, period } = self;
        w.beats += 1;
        // Self-rescheduling heartbeat: the steady-state workload.
        sim.schedule_typed_in(period, Beat::Node { id, period });
    }
}

/// Drive `nodes` staggered heartbeats for `rounds` periods, with every
/// fourth node's timer cancelled and re-armed each round (slot reuse) —
/// the platform's pump/re-arm texture.
fn drive(sim: &mut Sim<Fleet, Beat>, w: &mut Fleet, nodes: u32, rounds: u64) {
    let period = SimDuration::from_secs(60);
    let base = w.beats;
    for round in 0..rounds {
        let deadline = sim.now() + period;
        sim.run_until(w, deadline);
        for id in (0..nodes).step_by(4) {
            // Cancel-and-re-arm: O(1) invalidation, recycled slot.
            let tentative =
                sim.schedule_typed_in(SimDuration::from_secs(1), Beat::Node { id, period });
            assert!(sim.cancel(tentative));
        }
        assert_eq!(w.beats, base + nodes as u64 * (round + 1));
    }
}

#[test]
fn warm_typed_schedule_fire_path_does_not_allocate() {
    let mut sim: Sim<Fleet, Beat> = Sim::new();
    let mut w = Fleet::default();
    let nodes = 64u32;
    let period = SimDuration::from_secs(60);
    for id in 0..nodes {
        // Staggered phases so level-0 slots, cascades, and slot vectors all
        // see traffic.
        let phase = SimTime::from_nanos(1 + id as u64 * 937_000_000);
        sim.schedule_typed_at(phase, Beat::Node { id, period });
    }

    // Warm up: reach steady-state capacities (slab, free list, wheel node
    // arena) across several full 60 s rounds — each one crosses multiple
    // wheel levels.
    drive(&mut sim, &mut w, nodes, 8);

    // Measured window: the same steady-state traffic must touch the
    // allocator exactly zero times.
    let before = allocations();
    drive(&mut sim, &mut w, nodes, 8);
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "warm typed schedule→fire path allocated {} times over 8 rounds × {} heartbeats",
        after - before,
        nodes
    );
    assert_eq!(w.beats, nodes as u64 * 16);
}
