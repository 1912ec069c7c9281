//! # gpunion-des — discrete-event simulation kernel
//!
//! The foundation of the GPUnion reproduction: a deterministic
//! discrete-event simulator with a nanosecond virtual clock, a time-ordered
//! queue of events plus one re-armable event slot, named reproducible RNG
//! streams, and the statistics collectors the paper's evaluation metrics
//! are computed from.
//!
//! Everything above this crate — the campus network, GPU servers, container
//! runtime, provider agents, and the central scheduler — advances by
//! scheduling [`TypedEvent`] values on a [`Sim`]: plain data that can be
//! recorded and replayed, held by value in the queue and fired by value.
//! The platform's pump, the one event that is re-armed over and over,
//! waits in the armed slot instead ([`Sim::arm_at`]).
//!
//! [`TimeQueue`], the container under the simulator's events, is the one
//! time-ordered queue of the whole simulation: simnet's in-flight messages
//! and the platform pump's agent wakes ride it too.
//!
//! ## Determinism contract
//!
//! * Events at equal timestamps fire in scheduling (or arming) order.
//! * All randomness flows through [`RngPool`] streams derived from one master
//!   seed, so runs are bit-reproducible and baselines can be compared on
//!   identical traces.

#![forbid(unsafe_code)]

pub mod event;
pub mod queue;
#[cfg(test)]
mod reference;
pub mod rng;
pub mod sim;
pub mod stats;
pub mod time;

pub use event::TypedEvent;
pub use queue::{TimeQueue, Timed};
pub use rng::{chance, exponential, log_normal, RngPool};
pub use sim::Sim;
pub use stats::{Online, TimeWeighted};
pub use time::{earliest, SimDuration, SimTime};

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::reference::{HeapEventId, HeapSim};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// One step of the equivalence workload driven against both queues.
    #[derive(Debug, Clone)]
    enum Op {
        /// Event within ~1 ms of the clock.
        Schedule { dt: u64 },
        /// Event 37 minutes to 10 hours past the clock, far beyond any
        /// `RunUntil` step: it waits while nearer events fire around it.
        ScheduleFar { dt: u64 },
        /// Event whose handler schedules a follow-up (insert-during-fire).
        Chained { dt: u64, child_dt: u64 },
        /// Arm the re-armable event `dt` ahead; once it fires it re-arms
        /// itself `step` later, `hops` more times (the platform pump).
        Arm { dt: u64, hops: u8, step: u64 },
        /// Bounded run with a relative deadline.
        RunUntil { dt: u64 },
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        // The vendored prop_oneof! picks uniformly; repeated arms bias the
        // mix toward scheduling so runs stay event-rich, and the tiny
        // ranges make armed and scheduled events tie on one instant.
        prop_oneof![
            (0u64..1 << 20).prop_map(|dt| Op::Schedule { dt }),
            (0u64..1 << 20).prop_map(|dt| Op::Schedule { dt }),
            (0u64..64).prop_map(|dt| Op::Schedule { dt }),
            (0u64..4).prop_map(|dt| Op::Schedule { dt }),
            (1u64 << 41..1 << 45).prop_map(|dt| Op::ScheduleFar { dt }),
            (0u64..1 << 14, 0u64..1 << 14).prop_map(|(dt, child_dt)| Op::Chained { dt, child_dt }),
            (0u64..1 << 20, 0u8..4, 0u64..1 << 14).prop_map(|(dt, hops, step)| Op::Arm {
                dt,
                hops,
                step
            }),
            (0u64..4, 0u8..4, 0u64..4).prop_map(|(dt, hops, step)| Op::Arm { dt, hops, step }),
            (0u64..1 << 21).prop_map(|dt| Op::RunUntil { dt }),
            (0u64..1 << 21).prop_map(|dt| Op::RunUntil { dt }),
        ]
    }

    /// Fire log: (event label, fire time).
    type Log = Vec<(u64, u64)>;
    /// Labels ≥ this mark chained children (scheduled mid-fire).
    const CHILD: u64 = 1 << 32;

    /// The `Sim` side's event: log `(label, now)`; a chain parent then
    /// schedules one child `child` later, and an armed event re-arms
    /// itself `step` later while hops remain.
    enum Rec {
        Leaf(u64),
        Chain {
            label: u64,
            child: SimDuration,
        },
        Armed {
            label: u64,
            hops: u8,
            step: SimDuration,
        },
    }

    impl TypedEvent<Log> for Rec {
        fn kind(&self) -> &'static str {
            match self {
                Rec::Leaf(_) => "leaf",
                Rec::Chain { .. } => "chain",
                Rec::Armed { .. } => "armed",
            }
        }

        fn fire(self, w: &mut Log, s: &mut Sim<Log, Rec>) {
            let now = s.now();
            match self {
                Rec::Leaf(label) => w.push((label, now.as_nanos())),
                Rec::Chain { label, child } => {
                    w.push((label, now.as_nanos()));
                    s.schedule_typed_in(child, Rec::Leaf(label + CHILD));
                }
                Rec::Armed { label, hops, step } => {
                    w.push((label, now.as_nanos()));
                    if hops > 0 {
                        let hops = hops - 1;
                        s.arm_at(now + step, Rec::Armed { label, hops, step });
                    }
                }
            }
        }
    }

    /// The oracle side's world: the fire log plus what the oracle must
    /// model by hand — the armed event's id, the live count, and the
    /// per-kind fired counts.
    #[derive(Default)]
    struct Oracle {
        log: Log,
        armed: Option<(SimTime, HeapEventId)>,
        live: usize,
        fired: BTreeMap<&'static str, u64>,
    }

    type Ref = HeapSim<Oracle>;

    impl Oracle {
        fn fire(&mut self, kind: &'static str, label: u64, now: SimTime) {
            self.live -= 1;
            *self.fired.entry(kind).or_insert(0) += 1;
            self.log.push((label, now.as_nanos()));
        }

        fn schedule(
            &mut self,
            s: &mut Ref,
            at: SimTime,
            f: impl FnOnce(&mut Oracle, &mut Ref) + 'static,
        ) {
            self.live += 1;
            s.schedule_at(at, f);
        }

        fn leaf(&mut self, s: &mut Ref, at: SimTime, label: u64) {
            self.schedule(s, at, move |w, s| w.fire("leaf", label, s.now()));
        }

        /// A re-arm as the platform did it before the armed slot: keep an
        /// armed event due at or before `at`, else cancel it and schedule
        /// the new one.
        fn arm(&mut self, s: &mut Ref, at: SimTime, label: u64, hops: u8, step: SimDuration) {
            if let Some((armed_at, id)) = self.armed {
                if armed_at <= at {
                    return;
                }
                assert!(s.cancel(id), "the armed event is live");
                self.live -= 1;
            }
            self.live += 1;
            let id = s.schedule_at(at, move |w: &mut Oracle, s: &mut Ref| {
                w.armed = None;
                w.fire("armed", label, s.now());
                if hops > 0 {
                    w.arm(s, s.now() + step, label, hops - 1, step);
                }
            });
            self.armed = Some((at, id));
        }
    }

    proptest! {
        /// The typed-event [`Sim`], one time queue plus its armed slot, is
        /// observationally identical to the frozen closure-queue [`HeapSim`]
        /// oracle, where a re-arm is a cancel plus a schedule, under random
        /// interleavings of schedule / far-schedule / chained-schedule /
        /// arm (self-re-arming) / `run_until`: same fire logs (so the exact
        /// `(time, seq)` FIFO tie-break), same clock, same executed and
        /// per-kind fired counts, and `pending()` equal to the live count
        /// throughout.
        #[test]
        fn wheel_matches_heap_oracle(ops in proptest::collection::vec(op_strategy(), 1..60)) {
            let mut sim: Sim<Log, Rec> = Sim::new();
            sim.profile_events();
            let mut oracle: Ref = HeapSim::new();
            let mut wn: Log = Vec::new();
            let mut wo = Oracle::default();
            for (label, op) in (0u64..).zip(ops) {
                match op {
                    Op::Schedule { dt } | Op::ScheduleFar { dt } => {
                        let at = sim.now() + SimDuration::from_nanos(dt);
                        sim.schedule_typed_at(at, Rec::Leaf(label));
                        wo.leaf(&mut oracle, at, label);
                    }
                    Op::Chained { dt, child_dt } => {
                        let at = sim.now() + SimDuration::from_nanos(dt);
                        let d = SimDuration::from_nanos(child_dt);
                        sim.schedule_typed_at(at, Rec::Chain { label, child: d });
                        wo.schedule(&mut oracle, at, move |w, s| {
                            w.fire("chain", label, s.now());
                            w.leaf(s, s.now() + d, label + CHILD);
                        });
                    }
                    Op::Arm { dt, hops, step } => {
                        let at = sim.now() + SimDuration::from_nanos(dt);
                        let step = SimDuration::from_nanos(step);
                        sim.arm_at(at, Rec::Armed { label, hops, step });
                        wo.arm(&mut oracle, at, label, hops, step);
                    }
                    Op::RunUntil { dt } => {
                        let deadline = sim.now() + SimDuration::from_nanos(dt);
                        let n = sim.run_until(&mut wn, deadline);
                        let m = oracle.run_until(&mut wo, deadline);
                        prop_assert_eq!(n, m, "run_until executed counts diverged");
                    }
                }
                prop_assert_eq!(sim.now(), oracle.now());
                prop_assert_eq!(&wn, &wo.log);
                prop_assert_eq!(sim.pending(), wo.live, "pending() must be the exact live count");
            }
            sim.run(&mut wn);
            oracle.run(&mut wo);
            prop_assert_eq!(&wn, &wo.log);
            prop_assert_eq!(sim.now(), oracle.now());
            prop_assert_eq!(sim.events_executed(), oracle.events_executed());
            let fired: Vec<(&str, u64)> = wo.fired.into_iter().collect();
            prop_assert_eq!(sim.fired_by_kind(), fired);
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
