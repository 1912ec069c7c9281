//! # gpunion-simnet — the simulated campus LAN
//!
//! The paper deploys GPUnion on a university network: 11 GPU servers behind
//! campus switches, a CPU-only coordinator, 1 Gb/s access links and a fat
//! backbone. This crate reproduces that substrate as a flow-level network
//! model:
//!
//! * [`Topology`] — the campus star: leaves on full-duplex links around one
//!   switch, closed-form routes, nodes and links that go down and return.
//! * [`Network::send`] — control-plane messages with propagation +
//!   store-and-forward latency and optional loss injection.
//! * [`Network::start_flow`] — bulk transfers (checkpoints, migrations,
//!   image pulls) sharing links by **max-min fairness** (progressive
//!   filling), the standard fluid approximation for long-lived TCP flows.
//! * [`Accounting`] — every byte attributed to a [`TrafficClass`] and a time
//!   bucket, so the paper's "backup traffic < 2 % of campus bandwidth"
//!   analysis can be recomputed from a run.
//!
//! The crate is deliberately passive (no event scheduling): the embedding
//! event loop polls [`Network::next_event_at`] / [`Network::poll`].

#![forbid(unsafe_code)]

pub mod accounting;
pub mod bandwidth;
pub mod flow;
pub mod message;
pub mod network;
pub mod topology;

pub use accounting::{Accounting, TrafficClass};
pub use bandwidth::Bandwidth;
pub use flow::{FlowEnd, FlowId, FlowOutcome, FlowTable};
pub use message::{Delivery, MessageQueue};
pub use network::{NetError, NetEvent, Network};
pub use topology::{star_campus, Channel, LinkId, NodeId, Route, Topology};

#[cfg(test)]
mod proptests {
    use super::*;
    use gpunion_des::{SimDuration, SimTime};
    use proptest::prelude::*;

    /// Build a random star topology and a random flow set; check the
    /// max-min allocation invariants.
    fn star_with_flows(
        access_mbps: &[f64],
        flow_pairs: Vec<(usize, usize)>,
    ) -> (Topology, FlowTable) {
        let topo = Topology::star(
            access_mbps
                .iter()
                .map(|m| (Bandwidth::mbps(*m), SimDuration::ZERO)),
        );
        let n = access_mbps.len();
        let mut ft = FlowTable::new(Bandwidth::gbps(16.0));
        for (s, d) in flow_pairs {
            let (s, d) = (s % n, d % n);
            if s == d {
                continue;
            }
            let path = topo.route(Topology::leaf(s), Topology::leaf(d)).unwrap();
            ft.add(path, 1 << 40, TrafficClass::User);
        }
        ft.reallocate(&topo);
        (topo, ft)
    }

    /// One step of a flow script: `gap_ns` after the previous step, do
    /// `kind` (start a flow a→b, cancel the a-th started flow, flip node a,
    /// flip link a).
    #[derive(Debug, Clone)]
    struct ScriptOp {
        kind: u8,
        a: usize,
        b: usize,
        bytes: u64,
        gap_ns: u64,
    }

    /// Every flow end with its instant, then the bits of every accounting
    /// total after a final settle.
    type ScriptResult = (Vec<(SimTime, FlowId, FlowOutcome)>, Vec<u64>);

    /// Run `ops` on a star of `access` hosts (node 0 of the script is the
    /// coordinator), polling at every `next_event_at()` and additionally at
    /// every instant of `extra_polls`.
    fn run_script(access: &[f64], ops: &[ScriptOp], extra_polls: &[u64]) -> ScriptResult {
        let topo = Topology::star(
            std::iter::once(Bandwidth::gbps(1.0))
                .chain(access.iter().map(|m| Bandwidth::mbps(*m)))
                .map(|capacity| (capacity, SimDuration::ZERO)),
        );
        let nodes: Vec<NodeId> = (0..topo.link_count()).map(Topology::leaf).collect();
        let links = topo.link_count();
        let mut net: Network<u32> = Network::new(topo, Bandwidth::gbps(16.0), 1);

        let mut extra: Vec<SimTime> = extra_polls
            .iter()
            .map(|ns| SimTime::from_nanos(*ns))
            .collect();
        extra.sort_unstable();
        let mut extra = extra.into_iter().peekable();
        let mut log = Vec::new();
        let mut started: Vec<FlowId> = Vec::new();
        let mut record = |at: SimTime, events: Vec<NetEvent<u32>>| {
            for ev in events {
                if let NetEvent::FlowEnded { id, outcome, .. } = ev {
                    log.push((at, id, outcome));
                }
            }
        };
        // Poll at every network event and extra instant up to `until`.
        let mut poll_until =
            |net: &mut Network<u32>,
             until: SimTime,
             record: &mut dyn FnMut(SimTime, Vec<NetEvent<u32>>)| loop {
                let due = net.next_event_at().filter(|t| *t <= until);
                let idle = extra.peek().copied().filter(|t| *t <= until);
                let at = match (due, idle) {
                    (Some(d), Some(i)) if i < d => {
                        extra.next();
                        i
                    }
                    (Some(d), _) => d,
                    (None, Some(i)) => {
                        extra.next();
                        i
                    }
                    (None, None) => break,
                };
                record(at, net.poll(at));
            };

        let mut now = SimTime::ZERO;
        for op in ops {
            now += SimDuration::from_nanos(op.gap_ns);
            poll_until(&mut net, now, &mut record);
            match op.kind {
                0..=4 => {
                    let (from, to) = (nodes[op.a % nodes.len()], nodes[op.b % nodes.len()]);
                    if let Ok(id) =
                        net.start_flow(now, from, to, op.bytes, TrafficClass::Checkpoint, 0)
                    {
                        started.push(id);
                    }
                }
                5 => {
                    if !started.is_empty() {
                        let id = started[op.a % started.len()];
                        if net.cancel_flow(now, id).is_ok() {
                            record(
                                now,
                                vec![NetEvent::FlowEnded {
                                    id,
                                    outcome: FlowOutcome::Cancelled,
                                    tag: 0,
                                }],
                            );
                        }
                    }
                }
                6 => {
                    let node = nodes[op.a % nodes.len()];
                    let up = !net.topology().node_up(node);
                    let lost = net.set_node_up(now, node, up);
                    record(now, lost);
                }
                _ => {
                    let link = LinkId((op.a % links) as u32);
                    let up = !net.topology().link_up(link);
                    let lost = net.set_link_up(now, link, up);
                    record(now, lost);
                }
            }
        }
        let end = now + SimDuration::from_secs(120);
        poll_until(&mut net, end, &mut record);
        net.settle(end);
        let acct = net.accounting();
        let mut bits: Vec<u64> = TrafficClass::ALL
            .iter()
            .map(|c| acct.class_total(*c).to_bits())
            .collect();
        for l in 0..links {
            bits.push(
                acct.link_class_total(LinkId(l as u32), TrafficClass::Checkpoint)
                    .to_bits(),
            );
        }
        (log, bits)
    }

    proptest! {
        /// No channel is allocated beyond its capacity.
        #[test]
        fn max_min_never_oversubscribes(
            access in proptest::collection::vec(10.0f64..1000.0, 2..8),
            pairs in proptest::collection::vec((0usize..8, 0usize..8), 1..20),
        ) {
            let (topo, ft) = star_with_flows(&access, pairs);
            // Check every directed channel of every link.
            for l in 0..topo.link_count() {
                let link = LinkId(l as u32);
                let (a, bnode) = topo.link_endpoints(link);
                for (from, to) in [(a, bnode), (bnode, a)] {
                    let ch = Channel { link, from, to };
                    let load = ft.channel_load(ch);
                    let cap = topo.link_capacity(link).bytes_per_sec();
                    prop_assert!(load <= cap * 1.000001 + 1.0,
                        "channel load {load} exceeds cap {cap}");
                }
            }
        }

        /// Every flow gets a strictly positive rate when all links are up.
        #[test]
        fn max_min_starvation_free(
            access in proptest::collection::vec(10.0f64..1000.0, 2..8),
            pairs in proptest::collection::vec((0usize..8, 0usize..8), 1..20),
        ) {
            let (_topo, ft) = star_with_flows(&access, pairs);
            for (id, _) in ft.active() {
                prop_assert!(ft.rate(id).unwrap() > 0.0, "flow {id:?} starved");
            }
        }

        /// Conservation: bytes recorded in accounting after a settle equal
        /// bytes drained from flows (for network flows).
        #[test]
        fn settle_conserves_bytes(
            bytes in 1_000u64..100_000_000,
            secs in 1u64..20,
        ) {
            let (topo, hosts, coord, _) = star_campus(
                2, Bandwidth::gbps(1.0), Bandwidth::gbps(10.0), SimDuration::ZERO);
            let mut net: Network<u32> = Network::new(topo, Bandwidth::gbps(16.0), 1);
            let id = net.start_flow(SimTime::ZERO, hosts[0], coord, bytes, TrafficClass::Checkpoint, 0).unwrap();
            let now = SimTime::from_secs(secs);
            net.settle(now);
            let _ = net.poll(now);
            let acct_bytes = net.accounting().class_total(TrafficClass::Checkpoint);
            let path_len = 2.0; // host→switch→coord
            match net.flow_progress(now, id) {
                Some(p) => {
                    let moved = bytes as f64 * p;
                    prop_assert!((acct_bytes - moved * path_len).abs() < 16.0,
                        "acct {acct_bytes} vs moved {moved} × {path_len}");
                }
                None => {
                    // Completed: all bytes accounted on both links.
                    prop_assert!((acct_bytes - bytes as f64 * path_len).abs() < 16.0,
                        "acct {acct_bytes} vs total {bytes} × {path_len}");
                }
            }
        }

        /// Poll-cadence invariance: polling at arbitrary extra instants
        /// changes neither which flows end, nor when, nor one bit of the
        /// accounting.
        #[test]
        fn extra_polls_change_nothing(
            access in proptest::collection::vec(50.0f64..1000.0, 2..6),
            ops in proptest::collection::vec(
                (0u8..8, 0usize..8, 0usize..8, prop_oneof![1u64..10_000, 1_000_000u64..2_000_000_000], 0u64..3_000_000_000),
                1..40,
            ),
            extra in proptest::collection::vec(0u64..150_000_000_000, 0..200),
        ) {
            let ops: Vec<ScriptOp> = ops
                .into_iter()
                .map(|(kind, a, b, bytes, gap_ns)| ScriptOp { kind, a, b, bytes, gap_ns })
                .collect();
            let sparse = run_script(&access, &ops, &[]);
            let dense = run_script(&access, &ops, &extra);
            prop_assert_eq!(sparse, dense);
        }

        /// Routing never returns a path through a down node/link, for random
        /// up/down patterns.
        #[test]
        fn routes_avoid_down_elements(downs in proptest::collection::vec(any::<bool>(), 6)) {
            let (mut topo, hosts, coord, _) = star_campus(
                6, Bandwidth::gbps(1.0), Bandwidth::gbps(10.0), SimDuration::ZERO);
            for (h, down) in hosts.iter().zip(&downs) {
                if *down {
                    topo.set_node_up(*h, false);
                }
            }
            for (i, h) in hosts.iter().enumerate() {
                let r = topo.route(*h, coord);
                if downs[i] {
                    prop_assert!(r.is_none());
                } else {
                    let path = r.unwrap();
                    for ch in path.iter() {
                        prop_assert!(topo.node_up(ch.from) && topo.node_up(ch.to));
                        prop_assert!(topo.link_up(ch.link));
                    }
                }
            }
        }
    }
}
