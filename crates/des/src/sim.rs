//! The discrete-event simulator core.
//!
//! A [`Sim<W, E>`] owns the virtual clock, a generation-stamped event slab
//! ([`crate::event`]), and a hierarchical timer wheel (`wheel` module).
//! Every event is a value of a world-specific enum `E` implementing
//! [`TypedEvent`], scheduled with [`Sim::schedule_typed_at`]: plain data in
//! a slab slot, so the warm schedule→fire cycle allocates nothing and
//! `cancel` is an O(1) generation bump.
//!
//! Determinism: events at the same instant fire in the order they were
//! scheduled (a monotonically increasing sequence number breaks ties), so a
//! simulation with a fixed seed is exactly reproducible. The timer wheel
//! preserves the `(time, seq)` FIFO contract bit-identically with the old
//! heap-backed queue — proven by a proptest in this crate that runs the
//! frozen heap implementation as a reference oracle.

use crate::event::{EventId, EventSlab, TypedEvent};
use crate::time::{SimDuration, SimTime};
use crate::wheel::{TimerWheel, WheelEntry};
use std::marker::PhantomData;

/// Discrete-event simulator over a world state `W` and a typed-event enum
/// `E`.
///
/// ```
/// use gpunion_des::{Sim, SimDuration, SimTime, TypedEvent};
///
/// #[derive(Default)]
/// struct World { pings: u32 }
///
/// struct Ping;
///
/// impl TypedEvent<World> for Ping {
///     fn fire(self, w: &mut World, _: &mut Sim<World, Ping>) {
///         w.pings += 1;
///     }
/// }
///
/// let mut sim: Sim<World, Ping> = Sim::new();
/// let mut world = World::default();
/// sim.schedule_typed_in(SimDuration::from_secs(1), Ping);
/// sim.schedule_typed_in(SimDuration::from_secs(2), Ping);
/// sim.run(&mut world);
/// assert_eq!(world.pings, 2);
/// assert_eq!(sim.now(), SimTime::from_secs(2));
/// ```
pub struct Sim<W, E> {
    now: SimTime,
    slab: EventSlab<E>,
    wheel: TimerWheel,
    next_seq: u64,
    executed: u64,
    /// Per-kind fired counters, `None` (the default) when profiling is
    /// off — the hot fire path then pays a single branch and no
    /// bookkeeping.
    fired: Option<std::collections::BTreeMap<&'static str, u64>>,
    /// The world is passed to each firing, never stored.
    world: PhantomData<fn(&mut W)>,
}

impl<W, E: TypedEvent<W>> Default for Sim<W, E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W, E: TypedEvent<W>> Sim<W, E> {
    /// A fresh simulator with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Sim {
            now: SimTime::ZERO,
            slab: EventSlab::new(),
            wheel: TimerWheel::new(),
            next_seq: 0,
            executed: 0,
            fired: None,
            world: PhantomData,
        }
    }

    /// Start counting fired events by [`TypedEvent::kind`].
    /// Costs one branch per fire when off; a map bump when on.
    pub fn profile_events(&mut self) {
        self.fired.get_or_insert_with(Default::default);
    }

    /// A copy of the per-kind fired counts, sorted by kind. Empty
    /// unless [`Sim::profile_events`] was called.
    pub fn fired_by_kind(&self) -> Vec<(&'static str, u64)> {
        self.fired
            .as_ref()
            .map(|m| m.iter().map(|(k, v)| (*k, *v)).collect())
            .unwrap_or_default()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far (diagnostics / cost accounting).
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Number of events still pending. Exact: fired and cancelled events
    /// leave the count the moment they retire (unlike the old heap's
    /// cancellation side-table, which made this an estimate).
    pub fn pending(&self) -> usize {
        self.slab.live()
    }

    /// Schedule a typed event at absolute time `at`. Scheduling in the past
    /// fires the event at the current instant instead (never rewinds the
    /// clock). No allocation on the warm path: the value lives in a
    /// recycled slab slot, and the `(time, seq)` order is the heap push
    /// order of the old queue.
    pub fn schedule_typed_at(&mut self, at: SimTime, event: E) -> EventId {
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        let id = self.slab.insert(event);
        self.wheel.insert(WheelEntry {
            at: at.as_nanos(),
            seq,
            slot: id.slot,
            gen: id.gen,
        });
        id
    }

    /// Schedule a typed event after a relative delay.
    pub fn schedule_typed_in(&mut self, delay: SimDuration, event: E) -> EventId {
        self.schedule_typed_at(self.now + delay, event)
    }

    /// Cancel a pending event. Returns `true` only if the event had not yet
    /// fired (and was not already cancelled): the slot's generation stamp
    /// went stale the moment it retired, so this is O(1) with no growing
    /// side-table, and ids of fired events are correctly refused.
    pub fn cancel(&mut self, id: EventId) -> bool {
        // Dropping the event frees the slot; the wheel entry is discarded
        // lazily when it surfaces (its generation stamp no longer matches).
        self.slab.take(id.slot, id.gen).is_some()
    }

    /// Run until the queue drains. Returns the number of events executed.
    pub fn run(&mut self, world: &mut W) -> u64 {
        self.run_until(world, SimTime::MAX)
    }

    /// Run until the queue drains or the next event lies strictly after
    /// `deadline`. The clock is left at the later of its current value and
    /// the deadline-capped last event time; it never exceeds `deadline`
    /// unless `deadline` is [`SimTime::MAX`].
    pub fn run_until(&mut self, world: &mut W, deadline: SimTime) -> u64 {
        let start_count = self.executed;
        while let Some(ev) = self.wheel.peek() {
            if !self.slab.is_live(ev.slot, ev.gen) {
                // Cancelled: its slab slot was already freed; drop the
                // stale wheel entry without touching the clock.
                self.wheel.pop();
                continue;
            }
            if SimTime::from_nanos(ev.at) > deadline {
                // Advance the clock to the deadline so callers observe a
                // consistent "simulated through `deadline`" view.
                if deadline != SimTime::MAX {
                    self.now = self.now.max(deadline);
                }
                break;
            }
            self.wheel.pop();
            self.fire(world, ev);
        }
        if self.wheel.is_empty() && deadline != SimTime::MAX && self.now < deadline {
            self.now = deadline;
        }
        self.executed - start_count
    }

    /// Execute exactly one event if any is pending. Returns the time the
    /// event fired at.
    pub fn step(&mut self, world: &mut W) -> Option<SimTime> {
        loop {
            let ev = self.wheel.pop()?;
            if !self.slab.is_live(ev.slot, ev.gen) {
                continue;
            }
            self.fire(world, ev);
            return Some(self.now);
        }
    }

    /// Advance the clock to `ev.at` and fire its (live) event.
    fn fire(&mut self, world: &mut W, ev: WheelEntry) {
        debug_assert!(ev.at >= self.now.as_nanos(), "event queue must be monotone");
        self.wheel.advance_to(ev.at);
        self.now = SimTime::from_nanos(ev.at);
        self.executed += 1;
        let event = self
            .slab
            .take(ev.slot, ev.gen)
            .expect("liveness checked before firing");
        if let Some(counts) = &mut self.fired {
            *counts.entry(event.kind()).or_insert(0) += 1;
        }
        event.fire(world, self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct W {
        log: Vec<(u64, &'static str)>,
    }

    /// The test world's event kinds: a plain record, a record that
    /// schedules a follow-up at an absolute time, and a self-re-arming
    /// chain.
    enum Ev {
        /// Log the tag at the firing instant.
        Rec(&'static str),
        /// Log `tag`, then schedule `Rec(child)` at absolute time `at`.
        Spawn {
            tag: &'static str,
            at: SimTime,
            child: &'static str,
        },
        /// Log, then re-schedule itself `step` later while hops remain.
        Chain { hops: u32, step: SimDuration },
    }

    impl TypedEvent<W> for Ev {
        fn kind(&self) -> &'static str {
            match self {
                Ev::Rec(_) => "rec",
                Ev::Spawn { .. } => "spawn",
                Ev::Chain { .. } => "chain",
            }
        }

        fn fire(self, w: &mut W, sim: &mut Sim<W, Ev>) {
            let now = sim.now().as_nanos();
            match self {
                Ev::Rec(tag) => w.log.push((now, tag)),
                Ev::Spawn { tag, at, child } => {
                    w.log.push((now, tag));
                    sim.schedule_typed_at(at, Ev::Rec(child));
                }
                Ev::Chain { hops, step } => {
                    w.log.push((now, "chain"));
                    if hops > 0 {
                        sim.schedule_typed_in(
                            step,
                            Ev::Chain {
                                hops: hops - 1,
                                step,
                            },
                        );
                    }
                }
            }
        }
    }

    fn at(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Sim::new();
        let mut w = W::default();
        sim.schedule_typed_at(at(30), Ev::Rec("c"));
        sim.schedule_typed_at(at(10), Ev::Rec("a"));
        sim.schedule_typed_at(at(20), Ev::Rec("b"));
        sim.run(&mut w);
        assert_eq!(w.log, vec![(10, "a"), (20, "b"), (30, "c")]);
    }

    #[test]
    fn ties_fire_in_schedule_order() {
        let mut sim = Sim::new();
        let mut w = W::default();
        sim.schedule_typed_at(at(5), Ev::Rec("first"));
        sim.schedule_typed_at(at(5), Ev::Rec("second"));
        // An earlier instant scheduled later still fires first.
        sim.schedule_typed_at(at(1), Ev::Rec("early"));
        sim.schedule_typed_at(at(5), Ev::Rec("third"));
        sim.run(&mut w);
        assert_eq!(
            w.log,
            vec![(1, "early"), (5, "first"), (5, "second"), (5, "third")]
        );
    }

    #[test]
    fn scheduling_in_past_clamps_to_now() {
        let mut sim = Sim::new();
        let mut w = W::default();
        // At t=100, try to schedule 50ns in the past: must fire at t=100.
        sim.schedule_typed_at(
            at(100),
            Ev::Spawn {
                tag: "outer",
                at: at(50),
                child: "late",
            },
        );
        sim.run(&mut w);
        assert_eq!(w.log, vec![(100, "outer"), (100, "late")]);
    }

    #[test]
    fn cancel_prevents_execution() {
        let mut sim = Sim::new();
        let mut w = W::default();
        let id = sim.schedule_typed_at(at(10), Ev::Rec("dropped"));
        sim.schedule_typed_at(at(20), Ev::Rec("kept"));
        assert!(sim.cancel(id));
        assert!(!sim.cancel(id), "double-cancel is a no-op");
        sim.run(&mut w);
        assert_eq!(w.log, vec![(20, "kept")]);
    }

    /// Regression: the old heap-backed queue let `cancel` of an
    /// already-fired id insert into its cancellation side-table forever —
    /// `pending()` undercounted and the set grew unbounded. Fired ids must
    /// be refused.
    #[test]
    fn cancel_after_fire_returns_false_and_keeps_pending_exact() {
        let mut sim = Sim::new();
        let mut w = W::default();
        let fired = sim.schedule_typed_at(at(1), Ev::Rec("fired"));
        sim.run(&mut w);
        assert_eq!(w.log, vec![(1, "fired")]);
        assert!(!sim.cancel(fired), "fired ids must not be cancellable");
        assert!(!sim.cancel(fired), "…no matter how often they are retried");

        // pending() stays exact through an interleaving of fires and
        // cancels (the old estimate would now undercount by one per
        // cancel-after-fire above).
        let a = sim.schedule_typed_at(at(10), Ev::Rec("a"));
        let b = sim.schedule_typed_at(at(20), Ev::Rec("b"));
        sim.schedule_typed_at(at(30), Ev::Rec("c"));
        assert_eq!(sim.pending(), 3);
        assert!(sim.cancel(b));
        assert_eq!(sim.pending(), 2);
        sim.run_until(&mut w, at(15));
        assert_eq!(sim.pending(), 1, "a fired, b cancelled, c remains");
        assert!(!sim.cancel(a), "fired after cancel of a sibling");
        assert_eq!(sim.pending(), 1);
        sim.run(&mut w);
        assert_eq!(sim.pending(), 0);
    }

    #[test]
    fn event_id_slots_are_generation_stamped_across_reuse() {
        let mut sim = Sim::new();
        let mut w = W::default();
        let first = sim.schedule_typed_at(at(1), Ev::Rec("one"));
        sim.run_until(&mut w, at(5));
        // The freed slot is reused; the stale id must not cancel the new
        // tenant.
        let second = sim.schedule_typed_at(at(10), Ev::Rec("two"));
        assert_eq!(second.slot, first.slot, "the slot is recycled");
        assert!(!sim.cancel(first));
        sim.run(&mut w);
        assert_eq!(w.log, vec![(1, "one"), (10, "two")]);
        assert!(!sim.cancel(second));
    }

    #[test]
    fn run_until_respects_deadline_and_resumes() {
        let mut sim = Sim::new();
        let mut w = W::default();
        sim.schedule_typed_at(SimTime::from_secs(1), Ev::Rec("one"));
        sim.schedule_typed_at(SimTime::from_secs(3), Ev::Rec("three"));
        let n = sim.run_until(&mut w, SimTime::from_secs(2));
        assert_eq!(n, 1);
        assert_eq!(sim.now(), SimTime::from_secs(2));
        let n = sim.run_until(&mut w, SimTime::from_secs(10));
        assert_eq!(n, 1);
        assert_eq!(
            w.log,
            vec![(1_000_000_000, "one"), (3_000_000_000, "three")]
        );
        // Queue empty: clock advances to the deadline.
        assert_eq!(sim.now(), SimTime::from_secs(10));
    }

    #[test]
    fn step_executes_single_event() {
        let mut sim = Sim::new();
        let mut w = W::default();
        let dropped = sim.schedule_typed_at(at(1), Ev::Rec("dropped"));
        sim.schedule_typed_at(at(2), Ev::Rec("a"));
        sim.schedule_typed_at(at(3), Ev::Rec("b"));
        assert!(sim.cancel(dropped));
        // A cancelled head is skipped, not fired.
        assert_eq!(sim.step(&mut w), Some(at(2)));
        assert_eq!(w.log, vec![(2, "a")]);
        assert_eq!(sim.step(&mut w), Some(at(3)));
        assert_eq!(sim.step(&mut w), None);
        assert_eq!(sim.events_executed(), 2);
    }

    #[test]
    fn nested_scheduling_from_handlers() {
        let mut sim = Sim::new();
        let mut w = W::default();
        sim.schedule_typed_at(
            at(10),
            Ev::Spawn {
                tag: "parent",
                at: at(15),
                child: "nested",
            },
        );
        sim.run(&mut w);
        assert_eq!(w.log, vec![(10, "parent"), (15, "nested")]);
    }

    #[test]
    fn pending_count_tracks_cancellations() {
        let mut sim: Sim<W, Ev> = Sim::new();
        let a = sim.schedule_typed_at(at(1), Ev::Rec("a"));
        sim.schedule_typed_at(at(2), Ev::Rec("b"));
        assert_eq!(sim.pending(), 2);
        sim.cancel(a);
        assert_eq!(sim.pending(), 1);
    }

    #[test]
    fn typed_event_cancel_is_exact() {
        let mut sim: Sim<W, Ev> = Sim::new();
        let mut w = W::default();
        let id = sim.schedule_typed_at(at(10), Ev::Rec("beat"));
        assert_eq!(sim.pending(), 1);
        assert!(sim.cancel(id));
        assert_eq!(sim.pending(), 0);
        sim.run(&mut w);
        assert!(w.log.is_empty());
        assert!(!sim.cancel(id));
    }

    /// A typed chain walking across wheel levels (steps far larger than one
    /// level span) fires at exactly the arithmetic instants.
    #[test]
    fn typed_chain_crosses_wheel_levels_exactly() {
        let step = SimDuration::from_nanos((1 << 20) + 17);
        let mut sim: Sim<W, Ev> = Sim::new();
        let mut w = W::default();
        sim.schedule_typed_at(SimTime::ZERO + step, Ev::Chain { hops: 9, step });
        sim.run(&mut w);
        assert_eq!(w.log.len(), 10);
        assert_eq!(w.log.last().unwrap().0, ((1u64 << 20) + 17) * 10);
    }

    /// Per-kind fired counters: off by default (empty snapshot), and once
    /// enabled they bucket events by `kind()` and account for every event
    /// executed from then on.
    #[test]
    fn fired_counters_bucket_by_kind() {
        let mut sim: Sim<W, Ev> = Sim::new();
        let mut w = W::default();
        sim.schedule_typed_at(at(1), Ev::Rec("unprofiled"));
        sim.run(&mut w);
        assert!(sim.fired_by_kind().is_empty(), "profiling starts off");

        sim.profile_events();
        let before = sim.events_executed();
        sim.schedule_typed_in(SimDuration::from_nanos(1), Ev::Rec("a"));
        sim.schedule_typed_in(SimDuration::from_nanos(2), Ev::Rec("b"));
        sim.schedule_typed_in(
            SimDuration::from_nanos(3),
            Ev::Chain {
                hops: 2,
                step: SimDuration::from_nanos(1),
            },
        );
        sim.schedule_typed_in(
            SimDuration::from_nanos(4),
            Ev::Spawn {
                tag: "s",
                at: at(9),
                child: "c",
            },
        );
        sim.run(&mut w);
        let fired = sim.fired_by_kind();
        assert_eq!(fired, vec![("chain", 3), ("rec", 3), ("spawn", 1)]);
        assert_eq!(
            fired.iter().map(|(_, n)| n).sum::<u64>(),
            sim.events_executed() - before,
            "per-kind counts sum to the events executed while profiling"
        );
    }

    /// Events at the `SimTime::MAX` horizon live in the far-future overflow
    /// and still fire, after everything else, with the clock landing on MAX.
    #[test]
    fn event_at_time_max_fires_last() {
        let mut sim = Sim::new();
        let mut w = W::default();
        sim.schedule_typed_at(SimTime::MAX, Ev::Rec("horizon"));
        sim.schedule_typed_at(SimTime::from_secs(1), Ev::Rec("near"));
        sim.run(&mut w);
        assert_eq!(w.log, vec![(1_000_000_000, "near"), (u64::MAX, "horizon")]);
        assert_eq!(sim.now(), SimTime::MAX);
    }

    /// Far-future events must be promoted out of the overflow heap even
    /// when nearer same-epoch events are scheduled after the clock has
    /// entered that epoch (the promotion-order trap).
    #[test]
    fn overflow_promotion_keeps_time_order() {
        const EPOCH: u64 = 1 << 42; // first time beyond the wheel horizon
        let mut sim = Sim::new();
        let mut w = W::default();
        // Later than the still-overflowed (EPOCH + 10) event: the wheel
        // must promote that one ahead of this same-epoch insert.
        sim.schedule_typed_at(
            at(EPOCH + 1),
            Ev::Spawn {
                tag: "m",
                at: at(EPOCH + 50),
                child: "w",
            },
        );
        sim.schedule_typed_at(at(EPOCH + 10), Ev::Rec("f"));
        sim.run(&mut w);
        assert_eq!(
            w.log,
            vec![(EPOCH + 1, "m"), (EPOCH + 10, "f"), (EPOCH + 50, "w")]
        );
    }
}
