//! The original closure-queue simulator, kept as a test-only oracle.
//!
//! `HeapSim` is the simulator's first event queue, verbatim: a
//! `BinaryHeap` of boxed `FnOnce` closures ordered by `(time, seq)` with a
//! `HashSet` cancellation side-table. Its one job is the equivalence
//! proptest in this crate, which runs it side-by-side with the typed-event
//! `Sim` under random schedule / re-arm / `run_until` interleavings and
//! asserts identical fire logs and clocks. `Sim` arms
//! its re-armable event in a slot beside its queue; here a re-arm is what
//! it was before that slot existed, a `cancel` of the armed id plus a
//! schedule.
//!
//! It deliberately preserves the old `cancel` wart — cancelling an
//! already-fired id returns `true` and leaks a `cancelled` entry — because
//! that is the behaviour the oracle documents; the proptest only cancels
//! live ids. Do not "fix" this module: its value is being frozen.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

/// Identifier for an event scheduled on a [`HeapSim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HeapEventId(u64);

type Action<W> = Box<dyn FnOnce(&mut W, &mut HeapSim<W>)>;

struct Scheduled<W> {
    at: SimTime,
    seq: u64,
    action: Action<W>,
}

impl<W> PartialEq for Scheduled<W> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<W> Eq for Scheduled<W> {}
impl<W> PartialOrd for Scheduled<W> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<W> Ord for Scheduled<W> {
    // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops first.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// The frozen heap-backed simulator (see module docs).
pub struct HeapSim<W> {
    now: SimTime,
    heap: BinaryHeap<Scheduled<W>>,
    next_seq: u64,
    cancelled: HashSet<u64>,
    executed: u64,
}

impl<W> HeapSim<W> {
    /// A fresh simulator with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        HeapSim {
            now: SimTime::ZERO,
            heap: BinaryHeap::new(),
            next_seq: 0,
            cancelled: HashSet::new(),
            executed: 0,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Schedule `action` at absolute time `at`, clamping past times to now.
    pub fn schedule_at(
        &mut self,
        at: SimTime,
        action: impl FnOnce(&mut W, &mut HeapSim<W>) + 'static,
    ) -> HeapEventId {
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled {
            at,
            seq,
            action: Box::new(action),
        });
        HeapEventId(seq)
    }

    /// Old cancel semantics, wart included: any allocated id — fired or not —
    /// inserts into the side-table and returns whether it was newly inserted.
    pub fn cancel(&mut self, id: HeapEventId) -> bool {
        if id.0 >= self.next_seq {
            return false;
        }
        self.cancelled.insert(id.0)
    }

    /// Run until the queue drains.
    pub fn run(&mut self, world: &mut W) -> u64 {
        self.run_until(world, SimTime::MAX)
    }

    /// Run until the queue drains or the next event lies strictly after
    /// `deadline` (old implementation verbatim).
    pub fn run_until(&mut self, world: &mut W, deadline: SimTime) -> u64 {
        let start_count = self.executed;
        while let Some(ev) = self.heap.peek() {
            if ev.at > deadline {
                if deadline != SimTime::MAX {
                    self.now = self.now.max(deadline);
                }
                break;
            }
            let ev = self.heap.pop().expect("peeked");
            if self.cancelled.remove(&ev.seq) {
                continue;
            }
            debug_assert!(ev.at >= self.now, "event queue must be monotone");
            self.now = ev.at;
            self.executed += 1;
            (ev.action)(world, self);
        }
        if self.heap.is_empty() && deadline != SimTime::MAX && self.now < deadline {
            self.now = deadline;
        }
        self.executed - start_count
    }
}
