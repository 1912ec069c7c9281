//! The `Network` facade: one object combining topology, flows, messages,
//! loss injection and accounting.
//!
//! `Network` is a *passive* component: it never schedules events itself.
//! The embedding event loop (in `gpunion-core`) calls [`Network::poll`] when
//! the clock reaches [`Network::next_event_at`], and re-arms its wake timer
//! after every mutating call. This keeps the substrate deterministic and
//! directly unit-testable without an event loop.
//!
//! Bulk flows are event-driven (see [`crate::flow`]): `poll` touches them
//! only when a completion is due, so polling more often costs O(1) for
//! flows and cannot change a result. Traffic accounting of flows is
//! therefore exact as of the last settle — call [`Network::settle`] before
//! reading [`Network::accounting`] at the end of a run.

use crate::accounting::{Accounting, TrafficClass};
use crate::bandwidth::Bandwidth;
use crate::flow::{FlowEnd, FlowId, FlowOutcome, FlowTable};
use crate::message::{Delivery, MessageQueue};
use crate::topology::{LinkId, NodeId, Topology};
use gpunion_des::{earliest, SimDuration, SimTime};
use rand::rngs::SmallRng;
use rand::Rng;
use rand::SeedableRng;
use std::collections::HashMap;

/// Latency applied to node-local (loopback) messages.
const LOOPBACK_LATENCY: SimDuration = SimDuration::from_micros(10);

/// Events surfaced by [`Network::poll`].
#[derive(Debug, Clone)]
pub enum NetEvent<M> {
    /// A control message arrived at `to`.
    Delivered {
        /// Sender.
        from: NodeId,
        /// Recipient (still up at delivery time).
        to: NodeId,
        /// The payload handed to [`Network::send`].
        payload: M,
    },
    /// A bulk flow ended; `tag` is the context handed to [`Network::start_flow`].
    FlowEnded {
        /// The flow.
        id: FlowId,
        /// Completion, cancellation, or path loss.
        outcome: FlowOutcome,
        /// Caller context.
        tag: M,
    },
}

/// Errors from send/flow operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetError {
    /// No usable path between the endpoints (node/link down or partitioned).
    Unreachable,
    /// The referenced flow does not exist (already finished or cancelled).
    UnknownFlow,
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Unreachable => write!(f, "destination unreachable"),
            NetError::UnknownFlow => write!(f, "unknown flow"),
        }
    }
}

impl std::error::Error for NetError {}

/// The simulated campus network.
pub struct Network<M> {
    topo: Topology,
    flows: FlowTable,
    msgs: MessageQueue<M>,
    accounting: Accounting,
    tags: HashMap<FlowId, M>,
    /// Completions found while a mutator settled the flows; the next
    /// [`Network::poll`] surfaces them.
    ended: Vec<FlowEnd>,
    /// When the oldest entry of `ended` was found.
    ended_at: SimTime,
    /// Per-link message drop probability (fault injection).
    loss: HashMap<LinkId, f64>,
    default_loss: f64,
    rng: SmallRng,
    messages_sent: u64,
    messages_dropped: u64,
}

impl<M> Network<M> {
    /// Wrap a topology. `local_rate` bounds same-node copies (disk speed);
    /// `seed` drives loss-injection randomness.
    pub fn new(topo: Topology, local_rate: Bandwidth, seed: u64) -> Self {
        let accounting = Accounting::new(SimDuration::from_secs(60), topo.link_count());
        Network {
            topo,
            flows: FlowTable::new(local_rate),
            msgs: MessageQueue::new(),
            accounting,
            tags: HashMap::new(),
            ended: Vec::new(),
            ended_at: SimTime::ZERO,
            loss: HashMap::new(),
            default_loss: 0.0,
            rng: SmallRng::seed_from_u64(seed),
            messages_sent: 0,
            messages_dropped: 0,
        }
    }

    /// Read-only topology access.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Traffic accounting collected so far: every control message sent,
    /// and every flow byte delivered up to the last settle.
    pub fn accounting(&self) -> &Accounting {
        &self.accounting
    }

    /// Integrate the flows to `now`, so that [`Network::accounting`] holds
    /// every byte delivered by `now`. Flows that complete are surfaced by
    /// the next [`Network::poll`].
    pub fn settle(&mut self, now: SimTime) {
        self.integrate_flows(now);
        self.flows.reallocate(&self.topo);
    }

    /// Settle the flow table at `now` ahead of a change to the flow set,
    /// keeping the completions for the next `poll`. The caller reallocates.
    fn integrate_flows(&mut self, now: SimTime) {
        let done = self.flows.settle(now, &mut self.accounting);
        if self.ended.is_empty() {
            self.ended_at = now;
        }
        self.ended.extend(done);
    }

    /// Total control messages accepted by [`Network::send`].
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent
    }

    /// Messages lost to fault injection, or to a node or link on their
    /// route going down.
    pub fn messages_dropped(&self) -> u64 {
        self.messages_dropped
    }

    /// Set the default per-link drop probability for control messages.
    pub fn set_default_loss(&mut self, p: f64) {
        self.default_loss = p.clamp(0.0, 1.0);
    }

    /// Override the drop probability of one link.
    pub fn set_link_loss(&mut self, link: LinkId, p: f64) {
        self.loss.insert(link, p.clamp(0.0, 1.0));
    }

    fn link_loss(&self, link: LinkId) -> f64 {
        self.loss.get(&link).copied().unwrap_or(self.default_loss)
    }

    /// Send a control message of `size_bytes`. Latency is propagation plus
    /// store-and-forward transmission on each hop. The message may be lost
    /// to injected faults — the sender gets no error in that case, exactly
    /// like UDP on a real LAN; reliability is the protocol layer's job.
    pub fn send(
        &mut self,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        size_bytes: u32,
        class: TrafficClass,
        payload: M,
    ) -> Result<(), NetError> {
        let path = self.topo.route(from, to).ok_or(NetError::Unreachable)?;
        self.messages_sent += 1;
        let mut at = now;
        if from == to {
            at += LOOPBACK_LATENCY;
        }
        for ch in path.iter() {
            at += self.topo.link_latency(ch.link);
            at += SimDuration::from_secs_f64(
                self.topo
                    .link_capacity(ch.link)
                    .transfer_secs(size_bytes as u64),
            );
            self.accounting
                .record_instant(ch.link, class, at, size_bytes as f64);
            let p = self.link_loss(ch.link);
            if p > 0.0 && self.rng.gen_bool(p) {
                self.messages_dropped += 1;
                return Ok(()); // lost in transit; sender cannot tell
            }
        }
        self.msgs.enqueue(
            at,
            Delivery {
                from,
                to,
                payload,
                size_bytes,
            },
        );
        Ok(())
    }

    /// Start a bulk transfer; `tag` is returned in the completion event.
    pub fn start_flow(
        &mut self,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        bytes: u64,
        class: TrafficClass,
        tag: M,
    ) -> Result<FlowId, NetError> {
        let path = self.topo.route(from, to).ok_or(NetError::Unreachable)?;
        self.integrate_flows(now);
        let id = self.flows.add(path, bytes, class);
        self.flows.reallocate(&self.topo);
        self.tags.insert(id, tag);
        Ok(id)
    }

    /// Cancel an in-flight flow. The tag is returned for caller cleanup.
    pub fn cancel_flow(&mut self, now: SimTime, id: FlowId) -> Result<M, NetError> {
        self.integrate_flows(now);
        let existed = self.flows.remove(id);
        self.flows.reallocate(&self.topo);
        if !existed {
            return Err(NetError::UnknownFlow);
        }
        self.tags.remove(&id).ok_or(NetError::UnknownFlow)
    }

    /// Fraction of a flow delivered by `now`.
    pub fn flow_progress(&self, now: SimTime, id: FlowId) -> Option<f64> {
        self.flows.progress(now, id)
    }

    /// Bring a node up or down. Downing a node kills the in-flight
    /// messages and flows whose route crosses it — those to or from it, or
    /// every one between two nodes when it is the switch; the lost flows
    /// are returned as events (so the caller can fail the associated
    /// transfers immediately).
    pub fn set_node_up(&mut self, now: SimTime, node: NodeId, up: bool) -> Vec<NetEvent<M>> {
        self.integrate_flows(now);
        self.topo.set_node_up(node, up);
        self.after_flip(up)
    }

    /// Bring a link up or down; the messages and flows crossing a downed
    /// link are lost, as for [`Network::set_node_up`].
    pub fn set_link_up(&mut self, now: SimTime, link: LinkId, up: bool) -> Vec<NetEvent<M>> {
        self.integrate_flows(now);
        self.topo.set_link_up(link, up);
        self.after_flip(up)
    }

    /// After a node or link went `up` (or down): drop what crossed it — a
    /// message or flow is lost when its route no longer exists — and
    /// reallocate the flows.
    fn after_flip(&mut self, up: bool) -> Vec<NetEvent<M>> {
        let mut events = Vec::new();
        if !up {
            let topo = &self.topo;
            let lost = self.msgs.drop_where(|d| topo.route(d.from, d.to).is_none());
            self.messages_dropped += lost as u64;
            for end in self.flows.fail_broken_paths(&self.topo) {
                events.push(self.flow_end_event(end));
            }
        }
        self.flows.reallocate(&self.topo);
        events
    }

    fn flow_end_event(&mut self, end: FlowEnd) -> NetEvent<M> {
        let tag = self
            .tags
            .remove(&end.id)
            .expect("every flow has a tag until it ends");
        NetEvent::FlowEnded {
            id: end.id,
            outcome: end.outcome,
            tag,
        }
    }

    /// The next instant at which [`Network::poll`] would produce events:
    /// the earliest message delivery or flow completion — or an instant
    /// already past, while completions found by a mutator wait for a `poll`.
    pub fn next_event_at(&self) -> Option<SimTime> {
        let waiting = (!self.ended.is_empty()).then_some(self.ended_at);
        earliest(
            earliest(self.msgs.next_at(), self.flows.next_completion()),
            waiting,
        )
    }

    /// Advance internal state to `now` and return everything that happened
    /// ([`Network::poll_into`] with a fresh buffer).
    pub fn poll(&mut self, now: SimTime) -> Vec<NetEvent<M>> {
        let mut events = Vec::new();
        self.poll_into(now, &mut events);
        events
    }

    /// Advance internal state to `now` and append everything that happened
    /// to `events`: flow completions (in `FlowId` order within one settle),
    /// then message deliveries to still-up nodes. Flows are touched only if
    /// a completion is due. The event loop polls on every iteration, so it
    /// hands in a buffer it keeps.
    pub fn poll_into(&mut self, now: SimTime, events: &mut Vec<NetEvent<M>>) {
        if self.flows.next_completion().is_some_and(|due| due <= now) {
            self.settle(now);
        }
        for end in std::mem::take(&mut self.ended) {
            events.push(self.flow_end_event(end));
        }
        while let Some(d) = self.msgs.pop_due(now) {
            if self.topo.node_up(d.to) {
                events.push(NetEvent::Delivered {
                    from: d.from,
                    to: d.to,
                    payload: d.payload,
                });
            } else {
                self.messages_dropped += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::star_campus;

    fn campus(n: usize) -> (Network<&'static str>, Vec<NodeId>, NodeId) {
        let (topo, hosts, coord, _) = star_campus(
            n,
            Bandwidth::gbps(1.0),
            Bandwidth::gbps(10.0),
            SimDuration::from_micros(50),
        );
        (Network::new(topo, Bandwidth::gbps(16.0), 7), hosts, coord)
    }

    #[test]
    fn message_roundtrip_latency() {
        let (mut net, hosts, coord) = campus(3);
        net.send(
            SimTime::ZERO,
            hosts[0],
            coord,
            200,
            TrafficClass::Control,
            "hb",
        )
        .unwrap();
        let at = net.next_event_at().unwrap();
        // Two hops: 2×50 µs propagation + 2×(200 B / capacity) transmission.
        assert!(at > SimTime::from_nanos(100_000), "{at}");
        assert!(at < SimTime::from_nanos(120_000), "{at}");
        let evs = net.poll(at);
        assert_eq!(evs.len(), 1);
        match &evs[0] {
            NetEvent::Delivered { from, to, payload } => {
                assert_eq!(*from, hosts[0]);
                assert_eq!(*to, coord);
                assert_eq!(*payload, "hb");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn loopback_messages_work() {
        let (mut net, hosts, _) = campus(1);
        net.send(
            SimTime::ZERO,
            hosts[0],
            hosts[0],
            64,
            TrafficClass::Control,
            "self",
        )
        .unwrap();
        let at = net.next_event_at().unwrap();
        assert_eq!(at, SimTime::ZERO + LOOPBACK_LATENCY);
        assert_eq!(net.poll(at).len(), 1);
    }

    #[test]
    fn send_to_down_node_errors() {
        let (mut net, hosts, coord) = campus(2);
        net.set_node_up(SimTime::ZERO, hosts[1], false);
        let err = net
            .send(
                SimTime::ZERO,
                hosts[0],
                hosts[1],
                64,
                TrafficClass::Control,
                "x",
            )
            .unwrap_err();
        assert_eq!(err, NetError::Unreachable);
        // Coordinator still reachable.
        assert!(net
            .send(
                SimTime::ZERO,
                hosts[0],
                coord,
                64,
                TrafficClass::Control,
                "y"
            )
            .is_ok());
    }

    /// Both ends up but no path — the backbone is down — is a refused
    /// send: an error, and not counted as sent.
    #[test]
    fn a_send_with_no_path_is_refused_and_not_counted() {
        let (mut net, hosts, coord) = campus(2);
        let backbone = net.topology().link_of(coord);
        net.set_link_up(SimTime::ZERO, backbone, false);
        let send = |net: &mut Network<&'static str>| {
            net.send(
                SimTime::ZERO,
                hosts[0],
                coord,
                64,
                TrafficClass::Control,
                "hb",
            )
        };
        assert_eq!(send(&mut net), Err(NetError::Unreachable));
        assert_eq!(net.messages_sent(), 0);
        assert_eq!(net.next_event_at(), None, "nothing queued");
        net.set_link_up(SimTime::ZERO, backbone, true);
        assert_eq!(send(&mut net), Ok(()));
        assert_eq!(net.messages_sent(), 1);
    }

    #[test]
    fn message_to_node_that_dies_in_flight_is_dropped() {
        let (mut net, hosts, coord) = campus(2);
        net.send(
            SimTime::ZERO,
            coord,
            hosts[0],
            64,
            TrafficClass::Control,
            "kill-order",
        )
        .unwrap();
        // Node dies before delivery.
        net.set_node_up(SimTime::from_nanos(1), hosts[0], false);
        let evs = net.poll(SimTime::from_secs(1));
        assert!(evs.is_empty());
        assert_eq!(net.messages_dropped(), 1);
    }

    /// Sends a message each way between `host` and the coordinator, one
    /// from `other` to the coordinator, and a loopback at `host`.
    fn four_in_flight(net: &mut Network<&'static str>, host: NodeId, other: NodeId, coord: NodeId) {
        for (from, to, tag) in [
            (coord, host, "down"),
            (host, coord, "up"),
            (other, coord, "other"),
            (host, host, "loop"),
        ] {
            net.send(SimTime::ZERO, from, to, 64, TrafficClass::Control, tag)
                .unwrap();
        }
    }

    fn delivered(net: &mut Network<&'static str>) -> Vec<&'static str> {
        net.poll(SimTime::from_secs(1))
            .into_iter()
            .map(|ev| match ev {
                NetEvent::Delivered { payload, .. } => payload,
                other => panic!("unexpected {other:?}"),
            })
            .collect()
    }

    /// A link that goes down loses the messages crossing it — both ways
    /// between its leaf and the switch — and no other.
    #[test]
    fn a_downed_link_loses_the_messages_crossing_it() {
        let (mut net, hosts, coord) = campus(2);
        four_in_flight(&mut net, hosts[0], hosts[1], coord);
        let access = net.topology().link_of(hosts[0]);
        assert!(net
            .set_link_up(SimTime::from_nanos(1), access, false)
            .is_empty());
        assert_eq!(net.messages_dropped(), 2);
        net.set_link_up(SimTime::from_nanos(2), access, true);
        assert_eq!(delivered(&mut net), ["loop", "other"]);
        assert_eq!(net.messages_dropped(), 2);
    }

    /// A switch that goes down loses every message between two nodes; a
    /// loopback never reaches it.
    #[test]
    fn a_downed_switch_loses_every_message_but_loopbacks() {
        let (mut net, hosts, coord) = campus(2);
        four_in_flight(&mut net, hosts[0], hosts[1], coord);
        assert!(net
            .set_node_up(SimTime::from_nanos(1), Topology::SWITCH, false)
            .is_empty());
        assert_eq!(net.messages_dropped(), 3);
        net.set_node_up(SimTime::from_nanos(2), Topology::SWITCH, true);
        assert_eq!(delivered(&mut net), ["loop"]);
        assert_eq!(net.messages_dropped(), 3);
    }

    #[test]
    fn flow_completion_tag_returned() {
        let (mut net, hosts, coord) = campus(2);
        let id = net
            .start_flow(
                SimTime::ZERO,
                hosts[0],
                coord,
                125_000_000, // 1 Gb ⇒ 1 s on the access link
                TrafficClass::Checkpoint,
                "ckpt-42",
            )
            .unwrap();
        let at = net.next_event_at().unwrap();
        assert!((at.as_secs_f64() - 1.0).abs() < 0.01, "{at}");
        let evs = net.poll(at);
        assert_eq!(evs.len(), 1);
        match &evs[0] {
            NetEvent::FlowEnded {
                id: fid,
                outcome,
                tag,
            } => {
                assert_eq!(*fid, id);
                assert_eq!(*outcome, FlowOutcome::Completed);
                assert_eq!(*tag, "ckpt-42");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn node_down_fails_flow_with_event() {
        let (mut net, hosts, coord) = campus(2);
        let id = net
            .start_flow(
                SimTime::ZERO,
                hosts[0],
                coord,
                1 << 30,
                TrafficClass::Migration,
                "m",
            )
            .unwrap();
        let evs = net.set_node_up(SimTime::from_millis(100), hosts[0], false);
        assert_eq!(evs.len(), 1);
        match &evs[0] {
            NetEvent::FlowEnded {
                id: fid, outcome, ..
            } => {
                assert_eq!(*fid, id);
                assert_eq!(*outcome, FlowOutcome::PathLost);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn cancel_flow_returns_tag() {
        let (mut net, hosts, coord) = campus(2);
        let id = net
            .start_flow(
                SimTime::ZERO,
                hosts[0],
                coord,
                1 << 30,
                TrafficClass::ImagePull,
                "img",
            )
            .unwrap();
        let tag = net.cancel_flow(SimTime::from_millis(5), id).unwrap();
        assert_eq!(tag, "img");
        assert_eq!(
            net.cancel_flow(SimTime::from_millis(6), id).unwrap_err(),
            NetError::UnknownFlow
        );
    }

    #[test]
    fn total_loss_drops_all_messages() {
        let (mut net, hosts, coord) = campus(2);
        net.set_default_loss(1.0);
        for _ in 0..10 {
            net.send(
                SimTime::ZERO,
                hosts[0],
                coord,
                64,
                TrafficClass::Control,
                "x",
            )
            .unwrap();
        }
        assert!(net.poll(SimTime::from_secs(1)).is_empty());
        assert_eq!(net.messages_dropped(), 10);
        assert_eq!(net.messages_sent(), 10);
    }

    #[test]
    fn partial_loss_drops_some() {
        let (mut net, hosts, coord) = campus(2);
        net.set_default_loss(0.3);
        for _ in 0..200 {
            net.send(
                SimTime::ZERO,
                hosts[0],
                coord,
                64,
                TrafficClass::Control,
                "x",
            )
            .unwrap();
        }
        let delivered = net.poll(SimTime::from_secs(1)).len();
        // Two lossy hops at 30 % each ⇒ ~49 % delivery. Allow wide margin.
        assert!(delivered > 60 && delivered < 140, "delivered {delivered}");
    }

    #[test]
    fn concurrent_checkpoints_share_backbone_fairly() {
        // 4 hosts all pushing to the coordinator: each limited by its own
        // 1 Gb/s access link (backbone 10 Gb/s is not the bottleneck).
        let (mut net, hosts, coord) = campus(4);
        let bytes = 125_000_000u64; // 1 s at full access rate
        for h in &hosts {
            net.start_flow(
                SimTime::ZERO,
                *h,
                coord,
                bytes,
                TrafficClass::Checkpoint,
                "c",
            )
            .unwrap();
        }
        let at = net.next_event_at().unwrap();
        assert!((at.as_secs_f64() - 1.0).abs() < 0.01, "{at}");
        let evs = net.poll(at);
        assert_eq!(evs.len(), 4, "all four finish together");
    }

    /// A flow that completes inside a mutator's settle is not lost: the
    /// completion waits for the next `poll`, `next_event_at` asks for that
    /// poll at once, and the tag leaves `tags` with it.
    #[test]
    fn completion_found_by_a_mutator_is_surfaced_by_the_next_poll() {
        let (mut net, hosts, coord) = campus(3);
        let id = net
            .start_flow(
                SimTime::ZERO,
                hosts[0],
                coord,
                125_000_000,
                TrafficClass::Checkpoint,
                "ckpt",
            )
            .unwrap();
        let due = net.next_event_at().unwrap();
        // An unrelated node comes back at the very instant the flow is due,
        // ahead of the poll armed for it.
        assert!(net.set_node_up(due, hosts[2], true).is_empty());
        assert_eq!(net.next_event_at(), Some(due));
        assert_eq!(net.cancel_flow(due, id).unwrap_err(), NetError::UnknownFlow);
        let evs = net.poll(due);
        assert_eq!(evs.len(), 1);
        match &evs[0] {
            NetEvent::FlowEnded {
                id: fid,
                outcome,
                tag,
            } => {
                assert_eq!(*fid, id);
                assert_eq!(*outcome, FlowOutcome::Completed);
                assert_eq!(*tag, "ckpt");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(net.tags.is_empty());
        assert_eq!(net.next_event_at(), None);
        assert!(net.poll(due + SimDuration::from_secs(1)).is_empty());
    }

    /// N equal flows on N equal access links complete in one `poll`, in
    /// `FlowId` order — every time, not in the order of some hash map.
    #[test]
    fn same_instant_completions_leave_in_id_order() {
        for _ in 0..2 {
            let (mut net, hosts, coord) = campus(8);
            let started: Vec<FlowId> = hosts
                .iter()
                .map(|h| {
                    net.start_flow(
                        SimTime::ZERO,
                        coord,
                        *h,
                        50_000_000,
                        TrafficClass::ImagePull,
                        "img",
                    )
                    .unwrap()
                })
                .collect();
            let at = net.next_event_at().unwrap();
            let ended: Vec<FlowId> = net
                .poll(at)
                .iter()
                .map(|ev| match ev {
                    NetEvent::FlowEnded { id, .. } => *id,
                    other => panic!("unexpected {other:?}"),
                })
                .collect();
            assert_eq!(ended, started);
        }
    }

    /// Idle polls between two flow events neither move a completion nor
    /// account a byte; `settle` brings the accounting up to date.
    #[test]
    fn idle_polls_leave_flows_alone_and_settle_accounts() {
        let (mut net, hosts, coord) = campus(2);
        let id = net
            .start_flow(
                SimTime::ZERO,
                hosts[0],
                coord,
                125_000_000,
                TrafficClass::Checkpoint,
                "c",
            )
            .unwrap();
        let due = net.next_event_at().unwrap();
        for ms in 1..500 {
            assert!(net.poll(SimTime::from_millis(ms)).is_empty());
            assert_eq!(net.next_event_at(), Some(due));
        }
        assert_eq!(net.accounting().class_total(TrafficClass::Checkpoint), 0.0);
        let half = SimTime::from_millis(500);
        assert!((net.flow_progress(half, id).unwrap() - 0.5).abs() < 1e-9);
        net.settle(half);
        // Two hops, half the bytes on each.
        let settled = net.accounting().class_total(TrafficClass::Checkpoint);
        assert!((settled - 125e6).abs() < 1.0, "{settled}");
        assert_eq!(net.poll(due).len(), 1);
    }
}
