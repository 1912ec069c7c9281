//! Control-plane messages.
//!
//! Heartbeats, dispatch orders, acknowledgements and other small messages are
//! delivered after the path's propagation + store-and-forward transmission
//! delay. Unlike flows they are not rate-shared: control traffic is tiny
//! relative to link capacity (the paper's agents exchange JSON over REST),
//! so queueing delay is negligible and modelling it would add noise, not
//! fidelity. In flight, a message waits in a [`gpunion_des::TimeQueue`]
//! under its due instant, ties in send order.

use crate::topology::NodeId;

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

#[cfg(test)]
mod tests {
    use super::*;
    use gpunion_des::{SimTime, TimeQueue};

    /// What simnet relies on from the queue its messages wait in: due
    /// order, send order within an instant, and a node loss through
    /// `retain`.
    type InFlight = TimeQueue<Delivery<&'static str>>;

    fn d(from: u32, to: u32, tag: &'static str) -> Delivery<&'static str> {
        Delivery {
            from: NodeId(from),
            to: NodeId(to),
            payload: tag,
            size_bytes: 100,
        }
    }

    fn drain(q: &mut InFlight, now: SimTime) -> Vec<&'static str> {
        std::iter::from_fn(|| q.pop_due(now))
            .map(|m| m.item.payload)
            .collect()
    }

    #[test]
    fn drain_respects_time_and_order() {
        let mut q = InFlight::new();
        q.push(SimTime::from_secs(2), d(0, 1, "b"));
        q.push(SimTime::from_secs(1), d(0, 1, "a"));
        q.push(SimTime::from_secs(1), d(0, 1, "a2"));
        q.push(SimTime::from_secs(3), d(0, 1, "c"));
        assert_eq!(q.earliest().map(|m| m.at), Some(SimTime::from_secs(1)));
        assert_eq!(drain(&mut q, SimTime::from_secs(2)), ["a", "a2", "b"]);
        assert_eq!(q.len(), 1);
        assert_eq!(q.earliest().map(|m| m.at), Some(SimTime::from_secs(3)));
    }

    #[test]
    fn drain_when_empty() {
        let mut q = InFlight::new();
        assert!(q.pop_due(SimTime::MAX).is_none());
        assert!(q.earliest().is_none());
    }

    #[test]
    fn drop_involving_node() {
        let mut q = InFlight::new();
        q.push(SimTime::from_secs(1), d(0, 1, "keep? no, from 0"));
        q.push(SimTime::from_secs(1), d(1, 2, "involves 1"));
        q.push(SimTime::from_secs(1), d(2, 3, "keep"));
        let node = NodeId(1);
        q.retain(|m| m.from != node && m.to != node);
        assert_eq!(q.len(), 1);
        assert_eq!(drain(&mut q, SimTime::MAX), ["keep"]);
    }
}
