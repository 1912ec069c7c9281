//! Control-plane message delivery queue.
//!
//! Heartbeats, dispatch orders, acknowledgements and other small messages are
//! delivered after the path's propagation + store-and-forward transmission
//! delay. Unlike flows they are not rate-shared: control traffic is tiny
//! relative to link capacity (the paper's agents exchange JSON over REST),
//! so queueing delay is negligible and modelling it would add noise, not
//! fidelity.

use crate::topology::NodeId;
use gpunion_des::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// A message awaiting delivery.
#[derive(Debug, Clone)]
pub struct Delivery<M> {
    /// Sender.
    pub from: NodeId,
    /// Recipient.
    pub to: NodeId,
    /// Opaque payload owned by the caller (protocol messages in GPUnion).
    pub payload: M,
    /// Wire size used for latency and accounting.
    pub size_bytes: u32,
}

/// A queued delivery under its key: due time, then enqueue order.
#[derive(Debug)]
struct Pending<M> {
    at: SimTime,
    seq: u64,
    delivery: Delivery<M>,
}

impl<M> Pending<M> {
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

// Reversed, so the max-heap's top is the smallest key. Keys are unique
// (`seq` never repeats), so the order is total and the payload never
// compared.
impl<M> Ord for Pending<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

impl<M> PartialOrd for Pending<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<M> PartialEq for Pending<M> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<M> Eq for Pending<M> {}

/// Time-ordered pending message queue on `(due, enqueue sequence)`, in two
/// parts. An **append run** — a ring in key order — takes every message
/// due at or after the last one it holds, which is nearly all of them:
/// control latencies are alike, so a message sent later is due later. A
/// binary heap takes the rest. The next message is the smaller of the two
/// fronts; the sequence number is part of the key, so no two messages
/// compare equal and the queue hands them out in exactly the order of the
/// ordered map it replaced (pinned against it below): time order, enqueue
/// order within an instant. Both parts are vectors that stop growing once
/// the in-flight peak has been seen.
#[derive(Debug)]
pub struct MessageQueue<M> {
    run: VecDeque<Pending<M>>,
    heap: BinaryHeap<Pending<M>>,
    seq: u64,
}

impl<M> Default for MessageQueue<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> MessageQueue<M> {
    /// Empty queue.
    pub fn new() -> Self {
        MessageQueue {
            run: VecDeque::new(),
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Number of undelivered messages.
    pub fn len(&self) -> usize {
        self.run.len() + self.heap.len()
    }

    /// True when nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.run.is_empty() && self.heap.is_empty()
    }

    /// Enqueue a message for delivery at `at`. Messages enqueued for the
    /// same instant are delivered in enqueue order.
    pub fn enqueue(&mut self, at: SimTime, delivery: Delivery<M>) {
        let seq = self.seq;
        self.seq += 1;
        let pending = Pending { at, seq, delivery };
        if self.run.back().is_none_or(|last| last.at <= at) {
            self.run.push_back(pending);
        } else {
            self.heap.push(pending);
        }
    }

    /// The earliest pending delivery time.
    pub fn next_at(&self) -> Option<SimTime> {
        let run = self.run.front().map(|p| p.at);
        match self.heap.peek() {
            None => run,
            Some(h) => gpunion_des::earliest(run, Some(h.at)),
        }
    }

    /// Remove and return the next message due at or before `now`: calling
    /// until `None` yields the due messages in time order, enqueue order
    /// within an instant. The heap is nearly always empty, and then the
    /// run's front is the only candidate.
    pub fn pop_due(&mut self, now: SimTime) -> Option<Delivery<M>> {
        let from_run = match (self.run.front(), self.heap.peek()) {
            (Some(r), h) if h.is_none_or(|h| r.key() < h.key()) => {
                if r.at > now {
                    return None;
                }
                true
            }
            (_, Some(h)) if h.at <= now => false,
            _ => return None,
        };
        let next = if from_run {
            self.run.pop_front()
        } else {
            self.heap.pop()
        };
        next.map(|p| p.delivery)
    }

    /// Drop every in-flight message `lost` picks (a node or link on its
    /// route went down while it was in the air). Returns how many were
    /// lost.
    pub fn drop_where(&mut self, lost: impl Fn(&Delivery<M>) -> bool) -> usize {
        let before = self.len();
        let keep = |p: &Pending<M>| !lost(&p.delivery);
        self.run.retain(keep);
        self.heap.retain(keep);
        before - self.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// Messages to or from `node`.
    fn involving<M>(node: NodeId) -> impl Fn(&Delivery<M>) -> bool {
        move |d| d.from == node || d.to == node
    }

    fn d(from: u32, to: u32, tag: &'static str) -> Delivery<&'static str> {
        Delivery {
            from: NodeId(from),
            to: NodeId(to),
            payload: tag,
            size_bytes: 100,
        }
    }

    #[test]
    fn drain_respects_time_and_order() {
        let mut q = MessageQueue::new();
        q.enqueue(SimTime::from_secs(2), d(0, 1, "b"));
        q.enqueue(SimTime::from_secs(1), d(0, 1, "a"));
        q.enqueue(SimTime::from_secs(1), d(0, 1, "a2"));
        q.enqueue(SimTime::from_secs(3), d(0, 1, "c"));
        assert_eq!(q.next_at(), Some(SimTime::from_secs(1)));

        let due: Vec<_> = std::iter::from_fn(|| q.pop_due(SimTime::from_secs(2))).collect();
        assert_eq!(
            due.iter().map(|m| m.payload).collect::<Vec<_>>(),
            vec!["a", "a2", "b"]
        );
        assert_eq!(q.len(), 1);
        assert_eq!(q.next_at(), Some(SimTime::from_secs(3)));
    }

    #[test]
    fn drain_when_empty() {
        let mut q: MessageQueue<()> = MessageQueue::new();
        assert!(q.pop_due(SimTime::MAX).is_none());
        assert_eq!(q.next_at(), None);
    }

    #[test]
    fn drop_involving_node() {
        let mut q = MessageQueue::new();
        q.enqueue(SimTime::from_secs(1), d(0, 1, "keep? no, from 0"));
        q.enqueue(SimTime::from_secs(1), d(1, 2, "involves 1"));
        q.enqueue(SimTime::from_secs(1), d(2, 3, "keep"));
        let dropped = q.drop_where(involving(NodeId(1)));
        assert_eq!(dropped, 2);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_due(SimTime::MAX).unwrap().payload, "keep");
    }

    /// A message due before the run's last goes to the heap; the two parts
    /// then interleave by key, and a node loss reaches into both.
    #[test]
    fn earlier_enqueues_go_to_the_heap_and_both_parts_drain_in_order() {
        let mut q = MessageQueue::new();
        q.enqueue(SimTime::from_secs(2), d(0, 1, "run-2"));
        q.enqueue(SimTime::from_secs(4), d(2, 1, "run-4"));
        q.enqueue(SimTime::from_secs(3), d(0, 1, "heap-3"));
        q.enqueue(SimTime::from_secs(1), d(2, 1, "heap-1"));
        q.enqueue(SimTime::from_secs(4), d(0, 1, "run-4b"));
        assert_eq!((q.run.len(), q.heap.len()), (3, 2));
        assert_eq!(q.next_at(), Some(SimTime::from_secs(1)));
        assert_eq!(q.drop_where(involving(NodeId(2))), 2, "one from each part");
        let order: Vec<_> = std::iter::from_fn(|| q.pop_due(SimTime::MAX))
            .map(|m| m.payload)
            .collect();
        assert_eq!(order, ["run-2", "heap-3", "run-4b"]);
        assert!(q.is_empty());
    }

    /// The ordered map the queue replaced: the oracle for delivery order.
    #[derive(Default)]
    struct MapQueue {
        pending: BTreeMap<(SimTime, u64), Delivery<u32>>,
        seq: u64,
    }

    impl MapQueue {
        fn enqueue(&mut self, at: SimTime, delivery: Delivery<u32>) {
            self.pending.insert((at, self.seq), delivery);
            self.seq += 1;
        }

        fn pop_due(&mut self, now: SimTime) -> Option<Delivery<u32>> {
            let first = self.pending.first_entry()?;
            (first.key().0 <= now).then(|| first.remove())
        }

        fn drop_involving(&mut self, node: NodeId) -> usize {
            let before = self.pending.len();
            self.pending.retain(|_, d| d.from != node && d.to != node);
            before - self.pending.len()
        }
    }

    proptest::proptest! {
        /// Under random enqueues (few distinct instants, so most share one
        /// — the ack batches depend on FIFO within an instant — and about
        /// half earlier than the last, so the heap fills beside the run),
        /// drains up to a random time and node losses reaching both parts,
        /// the queue hands out exactly the deliveries the ordered map does,
        /// in the same order, and agrees on `next_at` and `len` after every
        /// step; the run stays in key order.
        #[test]
        fn run_and_heap_deliver_like_the_ordered_map(
            ops in proptest::collection::vec((0u8..8, 0u64..6, 0u32..5, 0u32..5), 1..200),
        ) {
            let mut queue = MessageQueue::new();
            let mut map = MapQueue::default();
            let mut tag = 0u32;
            for (op, t, a, b) in ops {
                let at = SimTime::from_secs(t);
                match op {
                    0 => {
                        loop {
                            let (h, m) = (queue.pop_due(at), map.pop_due(at));
                            proptest::prop_assert_eq!(
                                h.as_ref().map(|d| d.payload),
                                m.as_ref().map(|d| d.payload)
                            );
                            if h.is_none() {
                                break;
                            }
                        }
                    }
                    1 => proptest::prop_assert_eq!(
                        queue.drop_where(involving(NodeId(a))),
                        map.drop_involving(NodeId(a))
                    ),
                    _ => {
                        let d = Delivery { from: NodeId(a), to: NodeId(b), payload: tag, size_bytes: 1 };
                        tag += 1;
                        queue.enqueue(at, d.clone());
                        map.enqueue(at, d);
                    }
                }
                proptest::prop_assert_eq!(queue.len(), map.pending.len());
                proptest::prop_assert_eq!(queue.next_at(), map.pending.keys().next().map(|k| k.0));
                let keys: Vec<_> = queue.run.iter().map(Pending::key).collect();
                proptest::prop_assert!(keys.windows(2).all(|w| w[0] < w[1]));
            }
        }
    }
}
