//! Allocation discipline of the warm typed-event schedule→fire path.
//!
//! The point of typed events held by value in one heap, plus the armed
//! slot, is that the hot recurring event kinds — pump wakes, heartbeats,
//! periodic timers — cost zero heap traffic at steady state: the heap keeps
//! the capacity its high-water mark gave it, and the armed event re-arms
//! in place. These tests pin that with a counting global allocator (same
//! idiom as `scheduler/tests/alloc.rs` and `protocol/tests/alloc.rs`): warm
//! the capacity up, then assert ZERO allocations over a measured window
//! that covers self-rescheduling heartbeats at staggered phases and a
//! self-re-arming pump.
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

/// A node heartbeat, the shape of a hot recurring queued event, and the
/// pump, the platform's armed event.
enum Beat {
    Node { id: u32, period: SimDuration },
    Pump { every: SimDuration },
}

#[derive(Default)]
struct Fleet {
    beats: u64,
    pumps: u64,
}

impl TypedEvent<Fleet> for Beat {
    fn fire(self, w: &mut Fleet, sim: &mut Sim<Fleet, Beat>) {
        match self {
            Beat::Node { id, period } => {
                w.beats += 1;
                // Self-rescheduling heartbeat: the steady-state workload.
                sim.schedule_typed_in(period, Beat::Node { id, period });
            }
            Beat::Pump { every } => {
                w.pumps += 1;
                // Re-armed from its own firing, as the platform's pump is,
                // then offered a later wake it must refuse.
                sim.arm_at(sim.now() + every, Beat::Pump { every });
                sim.arm_at(sim.now() + every * 2, Beat::Pump { every });
            }
        }
    }
}

/// Drive `nodes` staggered heartbeats for `rounds` periods.
fn drive(sim: &mut Sim<Fleet, Beat>, w: &mut Fleet, nodes: u32, rounds: u64) {
    let period = SimDuration::from_secs(60);
    let base = w.beats;
    for round in 0..rounds {
        let deadline = sim.now() + period;
        sim.run_until(w, deadline);
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
        // Staggered phases, so pushes and pops land all over the heap.
        let phase = SimTime::from_nanos(1 + id as u64 * 937_000_000);
        sim.schedule_typed_at(phase, Beat::Node { id, period });
    }

    // Warm up: reach the heap's steady-state capacity across several full
    // 60 s rounds.
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

#[test]
fn a_warm_fire_re_arm_cycle_of_the_armed_event_allocates_nothing() {
    let mut sim: Sim<Fleet, Beat> = Sim::new();
    let mut w = Fleet::default();
    let nodes = 64u32;
    let period = SimDuration::from_secs(60);
    for id in 0..nodes {
        let phase = SimTime::from_nanos(1 + id as u64 * 937_000_000);
        sim.schedule_typed_at(phase, Beat::Node { id, period });
    }
    // A pump every 10 ms between the beats, each wake re-armed from the
    // last, and counted by kind as the benchmark counts the platform's.
    sim.profile_events();
    let every = SimDuration::from_millis(10);
    sim.arm_at(SimTime::ZERO + every, Beat::Pump { every });
    drive(&mut sim, &mut w, nodes, 2);

    let (beats, pumps) = (w.beats, w.pumps);
    let before = allocations();
    drive(&mut sim, &mut w, nodes, 2);
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "warm fire→re-arm cycle allocated {} times over {} pumps",
        after - before,
        w.pumps - pumps
    );
    assert_eq!(w.beats - beats, nodes as u64 * 2);
    assert_eq!(w.pumps - pumps, 12_000, "one pump per 10 ms for 120 s");
    assert_eq!(sim.pending(), nodes as usize + 1, "the pump stays armed");
}
