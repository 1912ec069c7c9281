//! Typed events and the event slab.
//!
//! Every event scheduled on the timer wheel is a [`TypedEvent`] value —
//! plain enum data fired by value — living in a slot of an `EventSlab`;
//! the wheel holds only small copyable `(time, seq, slot)` records. Slots
//! are recycled, so the warm schedule→fire path performs **zero heap
//! allocations** (pinned by `tests/alloc.rs`).

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

/// Slab of pending events with a free list; slots are reused, so the
/// steady-state schedule→fire cycle touches no allocator.
pub(crate) struct EventSlab<E> {
    slots: Vec<Option<E>>,
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

    /// Store an event, returning its slot.
    pub(crate) fn insert(&mut self, event: E) -> u32 {
        self.live += 1;
        if let Some(slot) = self.free.pop() {
            let s = &mut self.slots[slot as usize];
            debug_assert!(s.is_none());
            *s = Some(event);
            slot
        } else {
            self.slots.push(Some(event));
            (self.slots.len() - 1) as u32
        }
    }

    /// Take the event out and put the slot on the free list.
    pub(crate) fn take(&mut self, slot: u32) -> E {
        let event = self.slots[slot as usize]
            .take()
            .expect("a wheel record points at a live slot");
        self.free.push(slot);
        self.live -= 1;
        event
    }
}
