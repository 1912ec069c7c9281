//! Typed events and the generation-stamped event slab.
//!
//! Every scheduled event is a [`TypedEvent`] value — plain enum data fired
//! by value — living in a slot of an `EventSlab`; the timer wheel holds
//! only small copyable `(time, seq, slot, gen)` records. An [`EventId`] is
//! a `(slot, generation)` pair: cancelling is an O(1) slot invalidation
//! (bump the generation, free the slot), and a stale wheel record is
//! detected by a generation mismatch when it surfaces — no side-table, no
//! leak, and `pending()` is exact. Slots are recycled, so the warm
//! schedule→fire path performs **zero heap allocations** (pinned by
//! `tests/alloc.rs`).

use crate::sim::Sim;

/// Identifier for a scheduled event, used to cancel pending timers.
///
/// A generation-stamped slab slot: ids of fired or cancelled events go
/// stale (the slot's generation advances) and are rejected by
/// [`Sim::cancel`] in O(1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId {
    pub(crate) slot: u32,
    pub(crate) gen: u32,
}

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

struct Slot<E> {
    /// Advances every time the slot is freed (fire or cancel); an id or
    /// wheel record whose stamp disagrees is stale.
    gen: u32,
    event: Option<E>,
}

/// Slab of pending events with a free list; slots are reused, so the
/// steady-state schedule→fire cycle touches no allocator.
pub(crate) struct EventSlab<E> {
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    live: usize,
}

impl<E> EventSlab<E> {
    pub(crate) fn new() -> Self {
        EventSlab {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Number of live (pending) events — exact, by construction.
    pub(crate) fn live(&self) -> usize {
        self.live
    }

    /// Store an event, returning its `(slot, generation)` id.
    pub(crate) fn insert(&mut self, event: E) -> EventId {
        self.live += 1;
        if let Some(slot) = self.free.pop() {
            let s = &mut self.slots[slot as usize];
            debug_assert!(s.event.is_none());
            s.event = Some(event);
            EventId { slot, gen: s.gen }
        } else {
            let slot = self.slots.len() as u32;
            self.slots.push(Slot {
                gen: 0,
                event: Some(event),
            });
            EventId { slot, gen: 0 }
        }
    }

    /// Is the `(slot, gen)` stamp still the live incarnation of its slot?
    pub(crate) fn is_live(&self, slot: u32, gen: u32) -> bool {
        self.slots[slot as usize].gen == gen
    }

    /// Take the event out and retire the slot (generation bump + free
    /// list). Returns `None` if the stamp is stale.
    pub(crate) fn take(&mut self, slot: u32, gen: u32) -> Option<E> {
        let s = &mut self.slots[slot as usize];
        if s.gen != gen {
            return None;
        }
        let event = s.event.take().expect("live slot has an event");
        s.gen = s.gen.wrapping_add(1);
        self.free.push(slot);
        self.live -= 1;
        Some(event)
    }
}
