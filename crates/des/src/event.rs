//! Typed events.
//!
//! Every event a [`Sim`] queues is a [`TypedEvent`] value — plain enum
//! data held by value in the simulator's queue and fired by value — so
//! once the queue has reached its high-water mark the warm schedule→fire
//! path performs **zero heap allocations** (pinned by `tests/alloc.rs`).

use crate::sim::Sim;

/// A typed simulation event: plain data fired by value.
///
/// Implement this on an enum of your world's event kinds and schedule
/// values with [`Sim::schedule_typed_at`]; the warm path allocates nothing.
pub trait TypedEvent<W>: Sized {
    /// Consume the event, mutating the world and/or scheduling follow-ups.
    fn fire(self, world: &mut W, sim: &mut Sim<W, Self>);

    /// Static label for per-kind fired counters
    /// ([`Sim::profile_events`](crate::Sim::profile_events)). The default
    /// lumps every event under one bucket; worlds with hot event enums
    /// override it per variant so profiles show where the event budget
    /// goes.
    fn kind(&self) -> &'static str {
        "typed"
    }
}
