//! Allocation discipline of the message path.
//!
//! On a campus platform the control message is the workload: every
//! heartbeat is one `Network::send` each way, and each send looks a route
//! up and accounts its bytes on every hop. These tests pin what that path
//! may allocate once it is warm — the accountant and the route lookup
//! nothing at all, a send only the payload the caller boxed (the message
//! queue is a run and a heap, two vectors that have seen their peak), a new
//! minute one block of the accountant's per-link cells every
//! `Accounting::BUCKETS_PER_BLOCK` minutes — by counting real allocations
//! with a counting global allocator. The counter is per thread
//! (const-initialized TLS), as in `crates/scheduler/tests/alloc.rs`.

use gpunion_des::{SimDuration, SimTime};
use gpunion_simnet::{
    star_campus, Accounting, Bandwidth, LinkId, Network, NodeId, Topology, TrafficClass,
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

const HOSTS: usize = 1_000;

fn star() -> (Topology, Vec<NodeId>, NodeId) {
    let (topo, hosts, coord, _) = star_campus(
        HOSTS,
        Bandwidth::gbps(1.0),
        Bandwidth::gbps(10.0),
        SimDuration::from_micros(50),
    );
    (topo, hosts, coord)
}

#[test]
fn recording_into_a_touched_bucket_does_not_allocate() {
    let mut acct = Accounting::new(SimDuration::from_secs(60), 8);
    let at = |s: u64| SimTime::from_secs(s);
    // First touches grow the link table and the two series.
    for link in 0..8 {
        acct.record_instant(LinkId(link), TrafficClass::Control, at(125), 200.0);
    }

    let before = allocations();
    for beat in 0..1_000u64 {
        // Anywhere in the touched minute or an earlier one, any touched link.
        let link = LinkId((beat % 8) as u32);
        acct.record_instant(link, TrafficClass::Control, at(beat % 180), 200.0);
    }
    let spent = allocations() - before;

    assert_eq!(spent, 0, "{spent} allocations over 1000 warm records");
    assert_eq!(acct.total_bytes(), 200.0 * 1_008.0);
}

#[test]
fn a_new_minute_allocates_only_at_a_block_boundary() {
    let mut acct = Accounting::new(SimDuration::from_secs(60), 8);
    let minute = |m: u64| SimTime::from_secs(60 * m);
    let blocks = 3;
    let minutes = (blocks * Accounting::BUCKETS_PER_BLOCK) as u64;
    // Fix the row width and stretch the campus-wide series (and the block
    // list) past the window, so only the per-link cells are left to grow.
    for link in 0..8 {
        acct.record_instant(LinkId(link), TrafficClass::Control, minute(1_000), 200.0);
    }

    let mut allocating = Vec::new();
    for m in 0..minutes {
        let before = allocations();
        for link in 0..8 {
            acct.record_instant(LinkId(link), TrafficClass::Control, minute(m), 200.0);
        }
        if allocations() != before {
            allocating.push((m, allocations() - before));
        }
    }

    let boundaries: Vec<(u64, usize)> = (0..blocks)
        .map(|b| ((b * Accounting::BUCKETS_PER_BLOCK) as u64, 1))
        .collect();
    assert_eq!(
        allocating, boundaries,
        "one allocation per block, at its first minute"
    );
}

#[test]
fn looking_a_cached_route_up_does_not_allocate() {
    let (topo, hosts, coord) = star();
    for h in &hosts {
        assert_eq!(topo.route(*h, coord).expect("star is connected").len(), 2);
    }

    let before = allocations();
    let mut hops = 0;
    for h in &hosts {
        hops += topo.route(*h, coord).map_or(0, |path| path.len());
    }
    let spent = allocations() - before;

    assert_eq!(hops, 2 * HOSTS);
    assert_eq!(spent, 0, "{spent} allocations over {HOSTS} warm lookups");
}

#[test]
fn a_steady_state_send_allocates_only_its_payload_and_queue_nodes() {
    let (topo, hosts, coord) = star();
    let mut net: Network<Box<u64>> = Network::new(topo, Bandwidth::gbps(16.0), 7);
    let beat = |net: &mut Network<Box<u64>>, now: SimTime| {
        for (i, h) in hosts.iter().enumerate() {
            net.send(
                now,
                *h,
                coord,
                200,
                TrafficClass::Control,
                Box::new(i as u64),
            )
            .expect("star is connected");
        }
    };
    // One round warms every link's bucket of this minute and the queue.
    beat(&mut net, SimTime::from_secs(1));
    assert_eq!(net.poll(SimTime::from_secs(2)).len(), HOSTS);

    let before = allocations();
    beat(&mut net, SimTime::from_secs(6));
    let spent = allocations() - before;

    // One box per message is the caller's. The queue has no nodes to
    // allocate: its run and heap are vectors grown by the first round.
    assert_eq!(spent, HOSTS, "allocations over {HOSTS} warm sends");
    assert_eq!(net.poll(SimTime::from_secs(7)).len(), HOSTS);
}
