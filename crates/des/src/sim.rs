//! The discrete-event simulator core.
//!
//! A [`Sim<W, E>`] owns the virtual clock, one [`TimeQueue`] of scheduled
//! events held by value, and one slot beside it for a re-armable event
//! ([`Sim::arm_at`]). Every event is a value of a world-specific enum `E`
//! implementing [`TypedEvent`]: plain data, so once the queue has grown to
//! its high-water mark the warm schedule→fire and fire→re-arm cycles
//! allocate nothing.
//!
//! Determinism: events at the same instant fire in the order they were
//! scheduled or armed (a monotonically increasing sequence number breaks
//! ties, and the armed event draws its number from the queue's counter),
//! so a simulation with a fixed seed is exactly reproducible. The queue
//! plus the armed slot preserve the `(time, seq)` FIFO contract
//! bit-identically with the old closure queue, where a re-arm was a
//! cancel plus a schedule — proven by a proptest in this crate that runs
//! that frozen implementation as a reference oracle.

use crate::event::TypedEvent;
use crate::queue::{TimeQueue, Timed};
use crate::time::{SimDuration, SimTime};
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
#[derive(Clone)]
pub struct Sim<W, E> {
    now: SimTime,
    /// Scheduled events by `(at, seq)`.
    queue: TimeQueue<E>,
    /// The re-armable event beside the queue.
    armed: Option<Timed<E>>,
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
            queue: TimeQueue::new(),
            armed: None,
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

    /// Number of events still pending, the armed one included.
    pub fn pending(&self) -> usize {
        self.queue.len() + usize::from(self.armed.is_some())
    }

    /// Schedule a typed event at absolute time `at`. Scheduling in the past
    /// fires the event at the current instant instead (never rewinds the
    /// clock). No allocation on the warm path: the queue keeps its
    /// capacity, and ties at one instant fire in scheduling order.
    pub fn schedule_typed_at(&mut self, at: SimTime, event: E) {
        self.queue.push(at.max(self.now), event);
    }

    /// Schedule a typed event after a relative delay.
    pub fn schedule_typed_in(&mut self, delay: SimDuration, event: E) {
        self.schedule_typed_at(self.now + delay, event)
    }

    /// Arm the one re-armable event for `at` (a past time means now),
    /// unless the armed event is already due at or before `at`; a replaced
    /// event is dropped unfired. A replacement draws the next sequence
    /// number, exactly as cancelling the old event and scheduling the new
    /// one would, so it ties with scheduled events the same way. The slot
    /// sits beside the queue: the warm fire→re-arm cycle never touches the
    /// queue and allocates nothing.
    pub fn arm_at(&mut self, at: SimTime, event: E) {
        let at = at.max(self.now);
        if self.armed.as_ref().is_some_and(|armed| armed.at <= at) {
            return;
        }
        let seq = self.queue.draw_seq();
        self.armed = Some(Timed {
            at,
            seq,
            item: event,
        });
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
        loop {
            // The armed event or the queue's head, whichever is first by
            // `(time, seq)`.
            let armed_first = match (&self.armed, self.queue.earliest()) {
                (Some(armed), Some(head)) => armed < head,
                (armed, _) => armed.is_some(),
            };
            let next = if armed_first {
                self.armed.take_if(|armed| armed.at <= deadline)
            } else {
                self.queue.pop_due(deadline)
            };
            let Some(Timed { at, item, .. }) = next else {
                break;
            };
            self.fire(world, at, item);
        }
        // Leave a consistent "simulated through `deadline`" view.
        if deadline != SimTime::MAX {
            self.now = self.now.max(deadline);
        }
        self.executed - start_count
    }

    /// Advance the clock to `at` and fire `event`.
    fn fire(&mut self, world: &mut W, at: SimTime, event: E) {
        debug_assert!(at >= self.now, "event queue must be monotone");
        self.now = at;
        self.executed += 1;
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
    /// schedules a follow-up at an absolute time, a self-rescheduling
    /// chain, and a self-re-arming one (the platform pump's shape).
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
        /// Log, then re-arm itself `step` later while hops remain.
        Rearm { hops: u32, step: SimDuration },
    }

    impl TypedEvent<W> for Ev {
        fn kind(&self) -> &'static str {
            match self {
                Ev::Rec(_) => "rec",
                Ev::Spawn { .. } => "spawn",
                Ev::Chain { .. } => "chain",
                Ev::Rearm { .. } => "rearm",
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
                Ev::Rearm { hops, step } => {
                    w.log.push((now, "rearm"));
                    if hops > 0 {
                        let hops = hops - 1;
                        sim.arm_at(sim.now() + step, Ev::Rearm { hops, step });
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

    /// Arming keeps whichever event is due first: a later arm is refused,
    /// an earlier one replaces the armed event, which never fires.
    #[test]
    fn arm_at_keeps_the_earlier_of_two_events() {
        let mut sim = Sim::new();
        let mut w = W::default();
        sim.arm_at(at(10), Ev::Rec("replaced"));
        sim.arm_at(at(20), Ev::Rec("refused"));
        sim.arm_at(at(10), Ev::Rec("refused too"));
        sim.arm_at(at(5), Ev::Rec("armed"));
        sim.schedule_typed_at(at(20), Ev::Rec("kept"));
        sim.run(&mut w);
        assert_eq!(w.log, vec![(5, "armed"), (20, "kept")]);
        assert_eq!(sim.events_executed(), 2);
    }

    /// The armed event ties with scheduled ones by the sequence number its
    /// arm drew — as the cancel + schedule it replaces would have — and a
    /// refused re-arm draws none.
    #[test]
    fn armed_and_scheduled_events_tie_by_sequence() {
        let mut sim = Sim::new();
        let mut w = W::default();
        sim.schedule_typed_at(at(5), Ev::Rec("before"));
        sim.arm_at(at(9), Ev::Rec("replaced"));
        sim.arm_at(at(5), Ev::Rec("armed"));
        sim.arm_at(at(5), Ev::Rec("refused"));
        sim.schedule_typed_at(at(5), Ev::Rec("after"));
        sim.run(&mut w);
        assert_eq!(w.log, vec![(5, "before"), (5, "armed"), (5, "after")]);
    }

    /// `pending()` counts the armed event, stays exact through replacing
    /// re-arms and refused ones, and drops it once it fires.
    #[test]
    fn pending_counts_the_armed_event() {
        let mut sim = Sim::new();
        let mut w = W::default();
        sim.schedule_typed_at(at(10), Ev::Rec("a"));
        sim.schedule_typed_at(at(30), Ev::Rec("c"));
        assert_eq!(sim.pending(), 2);
        sim.arm_at(at(20), Ev::Rec("b"));
        assert_eq!(sim.pending(), 3);
        sim.arm_at(at(15), Ev::Rec("b"));
        sim.arm_at(at(40), Ev::Rec("refused"));
        assert_eq!(sim.pending(), 3, "a re-arm replaces, it does not add");
        sim.run_until(&mut w, at(12));
        assert_eq!(sim.pending(), 2, "a fired");
        sim.run_until(&mut w, at(16));
        assert_eq!(sim.pending(), 1, "the armed event fired");
        sim.run(&mut w);
        assert_eq!(sim.pending(), 0);
        assert_eq!(w.log, vec![(10, "a"), (15, "b"), (30, "c")]);
    }

    /// Cancelling is replacing: an earlier arm drops the armed event
    /// unfired, and a second, later arm cannot bring it back.
    #[test]
    fn cancel_prevents_execution() {
        let mut sim = Sim::new();
        let mut w = W::default();
        sim.arm_at(at(10), Ev::Rec("dropped"));
        sim.schedule_typed_at(at(20), Ev::Rec("kept"));
        sim.arm_at(at(5), Ev::Rec("replacement"));
        sim.arm_at(at(10), Ev::Rec("dropped again"));
        sim.run(&mut w);
        assert_eq!(w.log, vec![(5, "replacement"), (20, "kept")]);
    }

    /// A fired armed event is gone: it neither refuses a later arm nor
    /// lingers in `pending()`, however often the slot is re-armed after.
    #[test]
    fn cancel_after_fire_returns_false_and_keeps_pending_exact() {
        let mut sim = Sim::new();
        let mut w = W::default();
        sim.arm_at(at(1), Ev::Rec("fired"));
        sim.run(&mut w);
        assert_eq!(w.log, vec![(1, "fired")]);
        assert_eq!(sim.pending(), 0, "the fired event is not pending");

        // pending() stays exact through an interleaving of fires and
        // replacing arms.
        sim.schedule_typed_at(at(10), Ev::Rec("a"));
        sim.arm_at(at(30), Ev::Rec("late"));
        assert_eq!(sim.pending(), 2, "a later arm after a fire is accepted");
        sim.arm_at(at(20), Ev::Rec("b"));
        assert_eq!(sim.pending(), 2);
        sim.run_until(&mut w, at(15));
        assert_eq!(sim.pending(), 1);
        sim.run(&mut w);
        assert_eq!(sim.pending(), 0);
        assert_eq!(w.log, vec![(1, "fired"), (10, "a"), (20, "b")]);
    }

    #[test]
    fn pending_count_tracks_cancellations() {
        let mut sim: Sim<W, Ev> = Sim::new();
        sim.arm_at(at(2), Ev::Rec("a"));
        sim.schedule_typed_at(at(2), Ev::Rec("b"));
        assert_eq!(sim.pending(), 2);
        sim.arm_at(at(1), Ev::Rec("a"));
        assert_eq!(sim.pending(), 2, "the replaced event left pending");
    }

    #[test]
    fn typed_event_cancel_is_exact() {
        let mut sim: Sim<W, Ev> = Sim::new();
        let mut w = W::default();
        sim.arm_at(at(10), Ev::Rec("beat"));
        assert_eq!(sim.pending(), 1);
        sim.arm_at(at(3), Ev::Rec("early beat"));
        assert_eq!(sim.pending(), 1);
        sim.run(&mut w);
        assert_eq!(w.log, vec![(3, "early beat")]);
        assert_eq!(sim.events_executed(), 1);
        assert_eq!(sim.pending(), 0);
    }

    /// A self-re-arming event interleaves with queued events at exactly the
    /// arithmetic instants, near ones and ones hours out alike, and its
    /// fires are counted by kind.
    #[test]
    fn a_self_re_arming_event_interleaves_with_the_wheel() {
        let step = SimDuration::from_nanos(1_000_003);
        let mut sim: Sim<W, Ev> = Sim::new();
        let mut w = W::default();
        sim.profile_events();
        sim.arm_at(SimTime::ZERO + step, Ev::Rearm { hops: 999, step });
        let mut expected: Vec<(u64, &str)> =
            (1..=1_000).map(|k| (k * 1_000_003, "rearm")).collect();
        // Queued events from 15 ms to 1.5 h out.
        for k in 1..=70u64 {
            let t = k * k * k * 15_625_001;
            sim.schedule_typed_at(at(t), Ev::Rec("queued"));
            expected.push((t, "queued"));
        }
        expected.sort_unstable();
        sim.run(&mut w);
        assert_eq!(w.log, expected);
        assert_eq!(sim.fired_by_kind(), vec![("rearm", 1_000), ("rec", 70)]);
        assert_eq!(sim.events_executed(), 1_070);
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

    /// A typed chain whose every link is scheduled from the previous one's
    /// firing fires at exactly the arithmetic instants.
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

    /// Events at the `SimTime::MAX` horizon still fire, after everything
    /// else, with the clock landing on MAX.
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

    /// A far-future event fires before a later one that a nearer firing
    /// schedules after it.
    #[test]
    fn overflow_promotion_keeps_time_order() {
        const EPOCH: u64 = 1 << 42; // ~73 simulated minutes
        let mut sim = Sim::new();
        let mut w = W::default();
        // Fires at EPOCH + 1 and schedules EPOCH + 50, after the
        // (EPOCH + 10) event was scheduled: that one still fires first.
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
