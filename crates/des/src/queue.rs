//! The one time-ordered container of the simulation.
//!
//! The DES's scheduled events, simnet's in-flight control messages and the
//! platform pump's agent wakes are all items due at an instant and handed
//! out earliest first, ties in the order they were pushed. A
//! [`TimeQueue`] holds each of them in two parts. An **append run** — a
//! ring in key order — takes every push not earlier than the last one it
//! holds, which is nearly all of them: heartbeats, control latencies and
//! re-armed timers are alike, so what is pushed later is due later. A
//! binary heap takes the rest (a job timer earlier than the last beat, a
//! provider's return, an injection filed ahead of time). The next item is
//! the smaller of the two fronts.
//!
//! Every entry is keyed `(instant, push sequence)`. The sequence never
//! repeats, so no two keys are equal, the order is total and the payload
//! never takes part in it: the queue pops exactly as any correct priority
//! queue on those keys does — the ordered map it replaced in simnet is
//! kept below as the oracle. Both parts are vectors that stop growing once
//! the peak of pending items has been seen, and an empty queue owns no
//! allocation.

use crate::time::SimTime;
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};

/// An item under its key: the instant it is due, then its push sequence.
/// Entries compare by that key alone; keys are unique within a queue.
#[derive(Debug, Clone)]
pub struct Timed<T> {
    /// When the item is due.
    pub at: SimTime,
    pub(crate) seq: u64,
    /// The payload.
    pub item: T,
}

impl<T> Timed<T> {
    /// The `(instant, push sequence)` the queue orders by.
    pub fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl<T> PartialEq for Timed<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<T> Eq for Timed<T> {}

impl<T> PartialOrd for Timed<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Timed<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

/// Items by due instant, ties in push order: an append run plus a heap
/// (see the module docs).
#[derive(Debug, Clone)]
pub struct TimeQueue<T> {
    /// Pushes at or after the run's last instant, in key order.
    run: VecDeque<Timed<T>>,
    /// Every push earlier than the run's last instant, earliest on top.
    heap: BinaryHeap<Reverse<Timed<T>>>,
    next_seq: u64,
}

impl<T> Default for TimeQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimeQueue<T> {
    /// An empty queue; allocates nothing.
    pub fn new() -> Self {
        TimeQueue {
            run: VecDeque::new(),
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Number of items pending.
    pub fn len(&self) -> usize {
        self.run.len() + self.heap.len()
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.run.is_empty() && self.heap.is_empty()
    }

    /// How many items sit in the append run and how many in the heap.
    pub fn lens(&self) -> (usize, usize) {
        (self.run.len(), self.heap.len())
    }

    /// Draw the next push sequence without pushing: an item kept beside
    /// the queue (the DES's armed event) ties with the queued ones by it.
    pub(crate) fn draw_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Push `item` due at `at`. Items pushed for one instant pop in push
    /// order.
    pub fn push(&mut self, at: SimTime, item: T) {
        let seq = self.draw_seq();
        let entry = Timed { at, seq, item };
        if self.run.back().is_none_or(|last| last.at <= at) {
            self.run.push_back(entry);
        } else {
            self.heap.push(Reverse(entry));
        }
    }

    /// The earliest entry. The heap is nearly always empty, and then the
    /// run's front is the only candidate.
    pub fn earliest(&self) -> Option<&Timed<T>> {
        match (self.run.front(), self.heap.peek()) {
            (Some(run), Some(Reverse(heap))) => Some(run.min(heap)),
            (run, heap) => run.or(heap.map(|Reverse(heap)| heap)),
        }
    }

    /// Remove and return the earliest entry if it is due at or before
    /// `now`: calling until `None` yields the due items in time order,
    /// push order within an instant.
    pub fn pop_due(&mut self, now: SimTime) -> Option<Timed<T>> {
        let from_run = match (self.run.front(), self.heap.peek()) {
            (Some(run), heap) if heap.is_none_or(|Reverse(heap)| run < heap) => {
                if run.at > now {
                    return None;
                }
                true
            }
            (_, Some(Reverse(heap))) if heap.at <= now => false,
            _ => return None,
        };
        if from_run {
            self.run.pop_front()
        } else {
            self.heap.pop().map(|Reverse(entry)| entry)
        }
    }

    /// Keep only the items `keep` accepts.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        self.run.retain(|entry| keep(&entry.item));
        self.heap.retain(|Reverse(entry)| keep(&entry.item));
    }

    /// Drop every item, keeping the capacity.
    pub fn clear(&mut self) {
        self.run.clear();
        self.heap.clear();
    }

    /// Every pending entry, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = &Timed<T>> {
        self.run
            .iter()
            .chain(self.heap.iter().map(|Reverse(entry)| entry))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn drain<T>(q: &mut TimeQueue<T>, now: SimTime) -> Vec<T> {
        std::iter::from_fn(|| q.pop_due(now))
            .map(|entry| entry.item)
            .collect()
    }

    /// A push earlier than the run's last goes to the heap; the two parts
    /// then interleave by key, and `retain` reaches into both.
    #[test]
    fn earlier_enqueues_go_to_the_heap_and_both_parts_drain_in_order() {
        let mut q = TimeQueue::new();
        q.push(t(2), (0, "run-2"));
        q.push(t(4), (2, "run-4"));
        q.push(t(3), (0, "heap-3"));
        q.push(t(1), (2, "heap-1"));
        q.push(t(4), (0, "run-4b"));
        assert_eq!(q.lens(), (3, 2));
        assert_eq!(q.earliest().map(|e| e.at), Some(t(1)));
        q.retain(|&(node, _)| node != 2);
        assert_eq!(q.lens(), (2, 1), "one from each part");
        let order: Vec<_> = drain(&mut q, SimTime::MAX)
            .into_iter()
            .map(|(_, tag)| tag)
            .collect();
        assert_eq!(order, ["run-2", "heap-3", "run-4b"]);
        assert!(q.is_empty());
    }

    /// The ordered map the message queue once was: the oracle for pop
    /// order.
    #[derive(Default)]
    struct MapQueue {
        pending: BTreeMap<(SimTime, u64), (u32, u32, u32)>,
        seq: u64,
    }

    impl MapQueue {
        fn push(&mut self, at: SimTime, item: (u32, u32, u32)) {
            self.pending.insert((at, self.seq), item);
            self.seq += 1;
        }

        fn pop_due(&mut self, now: SimTime) -> Option<(u32, u32, u32)> {
            let first = self.pending.first_entry()?;
            (first.key().0 <= now).then(|| first.remove())
        }
    }

    proptest::proptest! {
        /// Under random pushes (few distinct instants, so most share one
        /// — simnet's ack batches depend on push order within an instant —
        /// and about half earlier than the last, so the heap fills beside
        /// the run), drains up to a random instant and `retain`s of one
        /// node's messages (a node going down) reaching both parts, the
        /// queue hands out exactly the items the ordered map does, in the
        /// same order, and agrees on the earliest instant and the length
        /// after every step; the run stays in key order.
        #[test]
        fn run_and_heap_deliver_like_the_ordered_map(
            ops in proptest::collection::vec((0u8..8, 0u64..6, 0u32..5, 0u32..5), 1..200),
        ) {
            let mut queue = TimeQueue::new();
            let mut map = MapQueue::default();
            let mut tag = 0u32;
            for (op, s, a, b) in ops {
                let at = t(s);
                match op {
                    0 => loop {
                        let (q, m) = (queue.pop_due(at), map.pop_due(at));
                        proptest::prop_assert_eq!(q.as_ref().map(|e| e.item), m);
                        if q.is_none() {
                            break;
                        }
                    },
                    1 => {
                        let kept = |&(from, to, _): &(u32, u32, u32)| from != a && to != a;
                        queue.retain(kept);
                        map.pending.retain(|_, item| kept(item));
                    }
                    _ => {
                        queue.push(at, (a, b, tag));
                        map.push(at, (a, b, tag));
                        tag += 1;
                    }
                }
                proptest::prop_assert_eq!(queue.len(), map.pending.len());
                proptest::prop_assert_eq!(
                    queue.earliest().map(|e| e.at),
                    map.pending.keys().next().map(|k| k.0)
                );
                let keys: Vec<_> = queue.run.iter().map(Timed::key).collect();
                proptest::prop_assert!(keys.windows(2).all(|w| w[0] < w[1]));
            }
        }
    }
}
