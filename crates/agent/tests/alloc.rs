//! Allocation discipline of the agent's heartbeat.
//!
//! An agent beats once per period for as long as it lives, so whatever a
//! beat allocates is paid fleet × beats times. `agent_heartbeats_total` is
//! a plain count on the agent, read into the registry at scrape; a beat
//! touches no registry. A registry lookup is visible to a counting
//! allocator (the family name, a label map and its two strings), so the
//! pin is stated in allocations: a whole timer-driven beat costs less than
//! one lookup of its own counter, so it cannot contain one. In fact it
//! costs exactly one allocation — the `gpu_stats` vector the message
//! carries: the timer is a field re-armed in place, and the action lands
//! in the caller's buffer.
//! The counter is per thread (const-initialized TLS), as in
//! `crates/scheduler/tests/alloc.rs`.

use gpunion_agent::{Action, Agent, AgentConfig};
use gpunion_container::standard_catalogue;
use gpunion_des::SimTime;
use gpunion_gpu::{GpuModel, GpuServer, ServerSpec};
use gpunion_protocol::{AuthToken, Control, Message, NodeUid};
use gpunion_telemetry::labels;
use rand::rngs::SmallRng;
use rand::SeedableRng;
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

fn is_heartbeat(actions: &[Action]) -> bool {
    matches!(
        actions,
        [Action::Send(Message::Control(Control::Heartbeat { .. }))]
    )
}

#[test]
fn a_timer_driven_heartbeat_performs_no_registry_lookup() {
    let (images, _) = standard_catalogue();
    let mut rng = SmallRng::seed_from_u64(1);
    let config = AgentConfig::new("ws-1", &mut rng);
    let server = GpuServer::new(ServerSpec::workstation("ws-1", GpuModel::Rtx3090));
    let mut agent = Agent::new(config, server);
    agent.start_registration(SimTime::ZERO);
    let ack: Message = Control::RegisterAck {
        node: NodeUid(7),
        token: AuthToken([9; 16]),
        heartbeat_period_ms: 5_000,
    }
    .into();

    // `/metrics` shows no heartbeat family until the first beat (sent on
    // the ack) has gone out.
    assert!(!agent.metrics().render().contains("agent_heartbeats_total"));
    let first = agent.handle_message(SimTime::from_secs(1), ack, &images);
    assert!(is_heartbeat(&first));
    assert!(agent.metrics().render().contains("agent_heartbeats_total"));

    // The later beats come off the heartbeat timer, into a buffer the
    // embedding loop keeps (warm from the beat before).
    let mut actions = first;
    let mut timer_beat = || {
        let at = agent.next_wake().expect("heartbeat timer armed");
        actions.clear();
        let before = allocations();
        agent.on_wake_into(at, &mut actions);
        let spent = allocations() - before;
        assert!(is_heartbeat(&actions));
        spent
    };
    let second_beat = timer_beat();
    let third_beat = timer_beat();

    // What looking the series up costs (the scrape above registered it).
    let before = allocations();
    let handle = agent.metrics().counter(
        "agent_heartbeats_total",
        "heartbeats sent",
        labels([("node", "ws-1")]),
    );
    let lookup = allocations() - before;
    assert_eq!(handle.expect("a counter family").get(), 3.0);

    assert!(
        second_beat < lookup,
        "a beat allocated {second_beat} times, a registry lookup alone {lookup}"
    );
    assert_eq!(second_beat, 1, "the `gpu_stats` vector and nothing else");
    assert_eq!(third_beat, second_beat, "every later beat costs the same");
}
