//! # gpunion-des — discrete-event simulation kernel
//!
//! The foundation of the GPUnion reproduction: a deterministic
//! discrete-event simulator with a nanosecond virtual clock, cancellable
//! timers, named reproducible RNG streams, and the statistics collectors the
//! paper's evaluation metrics are computed from.
//!
//! Everything above this crate — the campus network, GPU servers, container
//! runtime, provider agents, and the central scheduler — advances by
//! scheduling [`TypedEvent`] values on a [`Sim`]: plain data that can be
//! recorded and replayed, fired by value from a recycled slab slot.
//!
//! ## Determinism contract
//!
//! * Events at equal timestamps fire in scheduling order.
//! * All randomness flows through [`RngPool`] streams derived from one master
//!   seed, so runs are bit-reproducible and baselines can be compared on
//!   identical traces.

#![forbid(unsafe_code)]

pub mod event;
#[cfg(test)]
mod reference;
pub mod rng;
pub mod sim;
pub mod stats;
pub mod time;
mod wheel;

pub use event::{EventId, TypedEvent};
pub use rng::{chance, exponential, log_normal, RngPool};
pub use sim::Sim;
pub use stats::{Online, TimeWeighted};
pub use time::{earliest, SimDuration, SimTime};

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::reference::{HeapEventId, HeapSim};
    use proptest::prelude::*;

    /// One step of the equivalence workload driven against both queues.
    #[derive(Debug, Clone)]
    enum Op {
        /// Near-horizon event (exercises wheel levels 0–3).
        Schedule { dt: u64 },
        /// Far-future event (exercises the overflow heap + promotion).
        ScheduleFar { dt: u64 },
        /// Event whose handler schedules a follow-up (insert-during-fire).
        Chained { dt: u64, child_dt: u64 },
        /// Cancel one previously returned id (fired, pending, or repeat).
        Cancel { pick: usize },
        /// Bounded run with a relative deadline.
        RunUntil { dt: u64 },
        /// Fire exactly one event.
        Step,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        // The vendored prop_oneof! picks uniformly; repeated arms bias the
        // mix toward scheduling so runs stay event-rich.
        prop_oneof![
            (0u64..1 << 20).prop_map(|dt| Op::Schedule { dt }),
            (0u64..1 << 20).prop_map(|dt| Op::Schedule { dt }),
            (0u64..64).prop_map(|dt| Op::Schedule { dt }),
            (1u64 << 41..1 << 45).prop_map(|dt| Op::ScheduleFar { dt }),
            (0u64..1 << 14, 0u64..1 << 14).prop_map(|(dt, child_dt)| Op::Chained { dt, child_dt }),
            any::<u64>().prop_map(|pick| Op::Cancel {
                pick: pick as usize
            }),
            any::<u64>().prop_map(|pick| Op::Cancel {
                pick: pick as usize
            }),
            (0u64..1 << 21).prop_map(|dt| Op::RunUntil { dt }),
            (0u64..1 << 21).prop_map(|dt| Op::RunUntil { dt }),
            Just(Op::Step),
        ]
    }

    /// Fire log: (event label, fire time).
    type Log = Vec<(u64, u64)>;
    /// Labels ≥ this mark chained children (scheduled mid-fire).
    const CHILD: u64 = 1 << 32;

    /// The wheel side's event: log `(label, now)`; a chain parent then
    /// schedules one child `child` later.
    enum Rec {
        Leaf(u64),
        Chain { label: u64, child: SimDuration },
    }

    impl TypedEvent<Log> for Rec {
        fn fire(self, w: &mut Log, s: &mut Sim<Log, Rec>) {
            match self {
                Rec::Leaf(label) => w.push((label, s.now().as_nanos())),
                Rec::Chain { label, child } => {
                    w.push((label, s.now().as_nanos()));
                    s.schedule_typed_in(child, Rec::Leaf(label + CHILD));
                }
            }
        }
    }

    /// The oracle side's equivalent of `Rec::Leaf`.
    fn recorder_ref(label: u64) -> impl FnOnce(&mut Log, &mut HeapSim<Log>) {
        move |w, s| w.push((label, s.now().as_nanos()))
    }

    proptest! {
        /// The slab + timer-wheel [`Sim`] is observationally identical to the
        /// frozen heap-backed [`HeapSim`] oracle under random interleavings
        /// of schedule / far-schedule / chained-schedule / cancel /
        /// `run_until` / `step`: same fire logs (so the exact `(time, seq)`
        /// FIFO tie-break), same clock, same executed counts. `cancel`
        /// return values match wherever the old semantics were sound; for
        /// already-fired ids — the old leak — the new queue must refuse, and
        /// `pending()` must equal the exact live count throughout.
        #[test]
        fn wheel_matches_heap_oracle(ops in proptest::collection::vec(op_strategy(), 1..60)) {
            let mut sim: Sim<Log, Rec> = Sim::new();
            let mut oracle: HeapSim<Log> = HeapSim::new();
            let (mut wn, mut wo): (Log, Log) = (Vec::new(), Vec::new());
            // Parallel id tables: (label, new id, oracle id, is chain parent).
            let mut ids: Vec<(u64, EventId, HeapEventId, bool)> = Vec::new();
            let mut label = 0u64;
            let mut cancelled_ok = 0usize;
            let mut cancelled_labels = std::collections::HashSet::new();
            for op in ops {
                match op {
                    Op::Schedule { dt } | Op::ScheduleFar { dt } => {
                        let l = label;
                        label += 1;
                        let at = sim.now() + SimDuration::from_nanos(dt);
                        let a = sim.schedule_typed_at(at, Rec::Leaf(l));
                        let b = oracle.schedule_at(at, recorder_ref(l));
                        ids.push((l, a, b, false));
                    }
                    Op::Chained { dt, child_dt } => {
                        let l = label;
                        label += 1;
                        let at = sim.now() + SimDuration::from_nanos(dt);
                        let d = SimDuration::from_nanos(child_dt);
                        let a = sim.schedule_typed_at(at, Rec::Chain { label: l, child: d });
                        let b = oracle.schedule_at(at, move |w: &mut Log, s: &mut HeapSim<Log>| {
                            w.push((l, s.now().as_nanos()));
                            s.schedule_in(d, recorder_ref(l + CHILD));
                        });
                        ids.push((l, a, b, true));
                    }
                    Op::Cancel { pick } => {
                        if ids.is_empty() {
                            continue;
                        }
                        let (l, a, b, _) = ids[pick % ids.len()];
                        let fired = wn.iter().any(|(fl, _)| *fl == l);
                        let r_new = sim.cancel(a);
                        let r_ref = oracle.cancel(b);
                        if fired || cancelled_labels.contains(&l) {
                            // Retired ids: the old queue could still answer
                            // `true` here (cancel-after-fire leaks into the
                            // side-table; re-cancel after the entry popped
                            // re-inserts) — the warts this PR fixes. The new
                            // queue must refuse.
                            prop_assert!(!r_new, "cancel of retired id {l} must fail");
                        } else {
                            // Genuinely live: both must cancel it.
                            prop_assert!(r_new, "cancel of live id {l} must succeed");
                            prop_assert!(r_ref, "oracle refused a live id {l}");
                            cancelled_labels.insert(l);
                        }
                        cancelled_ok += usize::from(r_new);
                    }
                    Op::RunUntil { dt } => {
                        let deadline = sim.now() + SimDuration::from_nanos(dt);
                        let n = sim.run_until(&mut wn, deadline);
                        let m = oracle.run_until(&mut wo, deadline);
                        prop_assert_eq!(n, m, "run_until executed counts diverged");
                    }
                    Op::Step => {
                        prop_assert_eq!(sim.step(&mut wn), oracle.step(&mut wo));
                    }
                }
                prop_assert_eq!(sim.now(), oracle.now());
                prop_assert_eq!(&wn, &wo);
                // Every fired chain parent scheduled exactly one child.
                let chain_parents = wn
                    .iter()
                    .filter(|(fl, _)| *fl < CHILD && ids.iter().any(|(l, _, _, c)| l == fl && *c))
                    .count();
                let scheduled = label as usize + chain_parents;
                prop_assert_eq!(
                    sim.pending(),
                    scheduled - wn.len() - cancelled_ok,
                    "pending() must be the exact live count"
                );
            }
            sim.run(&mut wn);
            oracle.run(&mut wo);
            prop_assert_eq!(&wn, &wo);
            prop_assert_eq!(sim.now(), oracle.now());
            prop_assert_eq!(sim.events_executed(), oracle.events_executed());
            prop_assert_eq!(sim.pending(), 0usize);
        }
    }

    proptest! {
        /// Events always execute in non-decreasing time order, regardless of
        /// the order they were scheduled in, and events at one instant in
        /// the order they were scheduled.
        #[test]
        fn event_order_is_monotone(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
            let mut sim: Sim<Log, Rec> = Sim::new();
            let mut world: Log = Vec::new();
            for (label, t) in times.iter().enumerate() {
                sim.schedule_typed_at(SimTime::from_nanos(*t), Rec::Leaf(label as u64));
            }
            sim.run(&mut world);
            prop_assert_eq!(world.len(), times.len());
            for pair in world.windows(2) {
                prop_assert!(pair[0].1 <= pair[1].1);
                prop_assert!(pair[0].1 < pair[1].1 || pair[0].0 < pair[1].0);
            }
        }

        /// run_until never advances the clock past the deadline while events
        /// remain, and executes exactly the events at or before it.
        #[test]
        fn run_until_deadline_boundary(times in proptest::collection::vec(0u64..1_000, 1..100), cut in 0u64..1_000) {
            let mut sim: Sim<Log, Rec> = Sim::new();
            let mut world: Log = Vec::new();
            for t in &times {
                sim.schedule_typed_at(SimTime::from_nanos(*t), Rec::Leaf(0));
            }
            let deadline = SimTime::from_nanos(cut);
            let executed = sim.run_until(&mut world, deadline);
            let expected = times.iter().filter(|t| **t <= cut).count() as u64;
            prop_assert_eq!(executed, expected);
            prop_assert_eq!(world.len() as u64, expected);
            prop_assert!(sim.now() <= deadline);
        }

        /// TimeWeighted mean always lies within [min, max].
        #[test]
        fn time_weighted_mean_bounded(values in proptest::collection::vec(0.0f64..100.0, 2..50)) {
            let mut tw = TimeWeighted::new();
            for (i, v) in values.iter().enumerate() {
                tw.set(SimTime::from_secs(i as u64), *v);
            }
            tw.finish(SimTime::from_secs(values.len() as u64));
            let mean = tw.mean().unwrap();
            prop_assert!(mean >= tw.min().unwrap() - 1e-9);
            prop_assert!(mean <= tw.max().unwrap() + 1e-9);
        }

        /// RNG streams are reproducible: same pool+name ⇒ same sequence.
        #[test]
        fn rng_streams_reproducible(seed in any::<u64>(), name in "[a-z]{1,12}") {
            use rand::Rng;
            let pool = RngPool::new(seed);
            let a: Vec<u64> = pool.stream(&name).sample_iter(rand::distributions::Standard).take(4).collect();
            let b: Vec<u64> = pool.stream(&name).sample_iter(rand::distributions::Standard).take(4).collect();
            prop_assert_eq!(a, b);
            let mut s = pool.stream(&name);
            let _ = s.gen::<u64>();
        }
    }
}
