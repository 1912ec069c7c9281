//! Campus network topology: a star of leaves around one switch, with
//! closed-form routes.
//!
//! The campus is one switch ([`Topology::SWITCH`], node 0) and its leaves
//! (servers, workstations, the coordinator): leaf *k* is `NodeId(k + 1)`
//! and hangs off the switch by its one link, `LinkId(k)`. Every pair of
//! nodes therefore has one path — up the source's link, down the
//! destination's — and [`Topology::route`] writes it down instead of
//! searching for it. Internally each undirected link is a pair of directed
//! channels so that full-duplex capacity is modelled correctly: a
//! checkpoint upload does not steal capacity from a concurrent image pull
//! in the other direction.

use crate::bandwidth::Bandwidth;
use gpunion_des::SimDuration;
use serde::{Deserialize, Serialize};
use std::ops::Deref;

/// A network endpoint (server, workstation, switch, or the coordinator).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u32);

/// An undirected link between a leaf and the switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LinkId(pub u32);

/// One direction of a link: `link` traversed from `from` towards `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Channel {
    /// The underlying undirected link.
    pub link: LinkId,
    /// Source endpoint of this direction.
    pub from: NodeId,
    /// Destination endpoint of this direction.
    pub to: NodeId,
}

/// A route as [`Topology::route`] hands it out: at most two hops, held in
/// place, so a route is copied rather than shared. Reads as the
/// `[Channel]` it stands for.
#[derive(Debug, Clone, Copy)]
pub struct Route {
    /// Hops in use.
    len: u8,
    /// The hops, in order; entries past `len` are filler.
    hops: [Channel; 2],
}

impl Route {
    /// The route from a node to itself: no hops.
    pub(crate) const EMPTY: Route = Route {
        len: 0,
        hops: [Channel {
            link: LinkId(0),
            from: NodeId(0),
            to: NodeId(0),
        }; 2],
    };

    fn push(&mut self, hop: Channel) {
        self.hops[self.len as usize] = hop;
        self.len += 1;
    }
}

impl Deref for Route {
    type Target = [Channel];

    fn deref(&self) -> &[Channel] {
        &self.hops[..self.len as usize]
    }
}

impl PartialEq for Route {
    fn eq(&self, other: &Route) -> bool {
        **self == **other
    }
}

#[derive(Debug, Clone)]
struct LinkInfo {
    capacity: Bandwidth,
    latency: SimDuration,
}

/// The campus star. Built once by [`Topology::star`], then queried for
/// routes; nodes and links may go down and come back.
///
/// Per-node and per-link state sits in one dense array per field, so the
/// reads a send makes — both ends and the switch up, each hop's link up,
/// its latency and capacity — touch only what they need.
#[derive(Debug, Clone)]
pub struct Topology {
    /// By `NodeId`: the switch, then the leaves.
    node_up: Vec<bool>,
    /// What a send reads per hop, by `LinkId`.
    links: Vec<LinkInfo>,
    link_up: Vec<bool>,
}

impl Topology {
    /// The switch every leaf hangs off.
    pub const SWITCH: NodeId = NodeId(0);

    /// A star with one leaf per `(capacity, latency)`, in order: leaf *k*
    /// is [`Topology::leaf`]`(k)` on link `LinkId(k)`, of symmetric
    /// capacity and propagation latency. Everything starts up.
    pub fn star(leaves: impl IntoIterator<Item = (Bandwidth, SimDuration)>) -> Topology {
        let links: Vec<LinkInfo> = leaves
            .into_iter()
            .map(|(capacity, latency)| LinkInfo { capacity, latency })
            .collect();
        Topology {
            node_up: vec![true; links.len() + 1],
            link_up: vec![true; links.len()],
            links,
        }
    }

    /// The node id of leaf `k`.
    pub fn leaf(k: usize) -> NodeId {
        NodeId(k as u32 + 1)
    }

    /// Number of nodes: the switch and the leaves.
    pub fn node_count(&self) -> usize {
        self.node_up.len()
    }

    /// Number of links: one per leaf.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Is the node currently up?
    pub fn node_up(&self, n: NodeId) -> bool {
        self.node_up[n.0 as usize]
    }

    /// Is the link currently up?
    pub fn link_up(&self, l: LinkId) -> bool {
        self.link_up[l.0 as usize]
    }

    /// Capacity of one direction of the link.
    pub fn link_capacity(&self, l: LinkId) -> Bandwidth {
        self.links[l.0 as usize].capacity
    }

    /// Propagation latency of the link.
    pub fn link_latency(&self, l: LinkId) -> SimDuration {
        self.links[l.0 as usize].latency
    }

    /// The two endpoints of a link: its leaf, then the switch.
    pub fn link_endpoints(&self, l: LinkId) -> (NodeId, NodeId) {
        (Topology::leaf(l.0 as usize), Topology::SWITCH)
    }

    /// The link joining a leaf to the switch.
    pub fn link_of(&self, leaf: NodeId) -> LinkId {
        assert!(
            leaf != Topology::SWITCH,
            "the switch has no link of its own"
        );
        LinkId(leaf.0 - 1)
    }

    /// Mark a node up or down.
    pub fn set_node_up(&mut self, n: NodeId, up: bool) {
        self.node_up[n.0 as usize] = up;
    }

    /// Mark a link up or down.
    pub fn set_link_up(&mut self, l: LinkId, up: bool) {
        self.link_up[l.0 as usize] = up;
    }

    /// The path from `src` to `dst` as directed channels: up the source's
    /// link and down the destination's, one hop when an end is the switch,
    /// none when they are one node. `None` when a node or link on it is
    /// down.
    pub fn route(&self, src: NodeId, dst: NodeId) -> Option<Route> {
        if !self.node_up(src) || !self.node_up(dst) {
            return None;
        }
        if src == dst {
            return Some(Route::EMPTY);
        }
        if !self.node_up(Topology::SWITCH) {
            return None;
        }
        let mut route = Route::EMPTY;
        if src != Topology::SWITCH {
            route.push(self.hop(src, src, Topology::SWITCH)?);
        }
        if dst != Topology::SWITCH {
            route.push(self.hop(dst, Topology::SWITCH, dst)?);
        }
        Some(route)
    }

    /// `leaf`'s link from `from` to `to`, if the link is up.
    fn hop(&self, leaf: NodeId, from: NodeId, to: NodeId) -> Option<Channel> {
        let link = self.link_of(leaf);
        self.link_up(link).then_some(Channel { link, from, to })
    }
}

/// Convenience constructor for the standard campus shape used throughout the
/// reproduction: `n_hosts` hosts hanging off one backbone switch, each via a
/// 1 Gb/s access link, with the given coordinator attached at 10 Gb/s. The
/// coordinator is leaf 0, the hosts leaves `1..=n_hosts`.
///
/// Returns `(topology, host_ids, coordinator_id, switch_id)`.
pub fn star_campus(
    n_hosts: usize,
    access: Bandwidth,
    backbone: Bandwidth,
    access_latency: SimDuration,
) -> (Topology, Vec<NodeId>, NodeId, NodeId) {
    let leaves = std::iter::once((backbone, access_latency))
        .chain(std::iter::repeat_n((access, access_latency), n_hosts));
    let hosts = (1..=n_hosts).map(Topology::leaf).collect();
    (
        Topology::star(leaves),
        hosts,
        Topology::leaf(0),
        Topology::SWITCH,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// Two leaves, `a` on 1 Gb/s and `c` on 10 Gb/s, and the switch `m`.
    fn pair() -> (Topology, NodeId, NodeId, NodeId, LinkId, LinkId) {
        let t = Topology::star([
            (Bandwidth::gbps(1.0), SimDuration::from_micros(10)),
            (Bandwidth::gbps(10.0), SimDuration::from_micros(20)),
        ]);
        let (a, c) = (Topology::leaf(0), Topology::leaf(1));
        (t, a, Topology::SWITCH, c, LinkId(0), LinkId(1))
    }

    #[test]
    fn route_through_middle() {
        let (t, a, m, c, l1, l2) = pair();
        let path = t.route(a, c).unwrap();
        assert_eq!(path.len(), 2);
        assert_eq!(path[0].link, l1);
        assert_eq!(path[0].from, a);
        assert_eq!(path[0].to, m);
        assert_eq!(path[1].link, l2);
        assert_eq!(path[1].from, m);
        assert_eq!(path[1].to, c);
        let latency = path
            .iter()
            .fold(SimDuration::ZERO, |acc, ch| acc + t.link_latency(ch.link));
        assert_eq!(latency, SimDuration::from_micros(30));
        assert_eq!(t.link_capacity(path[0].link), Bandwidth::gbps(1.0));
        // An end at the switch is one hop.
        assert_eq!(t.route(m, c).as_deref(), Some(&path[1..]));
    }

    #[test]
    fn route_to_self_is_empty() {
        let (t, a, ..) = pair();
        assert_eq!(t.route(a, a).as_deref(), Some(&[][..]));
    }

    #[test]
    fn down_link_breaks_route() {
        let (mut t, a, _, c, l1, _) = pair();
        t.set_link_up(l1, false);
        assert_eq!(t.route(a, c), None);
        t.set_link_up(l1, true);
        assert!(t.route(a, c).is_some(), "the link is back");
    }

    #[test]
    fn down_node_breaks_route() {
        let (mut t, a, m, c, ..) = pair();
        t.set_node_up(m, false);
        assert_eq!(t.route(a, c), None);
        assert_eq!(t.route(a, m), None, "down destination unreachable");
    }

    #[test]
    fn star_campus_shape() {
        let (t, hosts, coord, switch) = star_campus(
            11,
            Bandwidth::gbps(1.0),
            Bandwidth::gbps(10.0),
            SimDuration::from_micros(50),
        );
        assert_eq!(t.node_count(), 13);
        assert_eq!(t.link_count(), 12);
        assert_eq!(hosts.len(), 11);
        let backbone = t.link_of(coord);
        assert_eq!(t.link_endpoints(backbone), (coord, switch));
        assert_eq!(t.link_capacity(backbone), Bandwidth::gbps(10.0));
        let p = t.route(hosts[0], coord).unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p[0].to, switch);
        assert_eq!(p[1].link, backbone);
        // host-to-host goes via the switch
        let p = t.route(hosts[3], hosts[7]).unwrap();
        assert_eq!(p.len(), 2);
    }

    /// Breadth-first search over the links as `link_endpoints` names them,
    /// run until `dst` is popped: the router of a general graph, and the
    /// oracle for the closed form.
    fn bfs_exit_at_pop(t: &Topology, src: NodeId, dst: NodeId) -> Option<Vec<Channel>> {
        if !t.node_up(src) || !t.node_up(dst) {
            return None;
        }
        let n = t.node_count();
        let mut adjacency = vec![Vec::new(); n];
        for l in (0..t.link_count() as u32).map(LinkId) {
            let (a, b) = t.link_endpoints(l);
            adjacency[a.0 as usize].push((b, l));
            adjacency[b.0 as usize].push((a, l));
        }
        let mut prev: Vec<Option<(NodeId, LinkId)>> = vec![None; n];
        let mut visited = vec![false; n];
        let mut q = VecDeque::new();
        visited[src.0 as usize] = true;
        q.push_back(src);
        while let Some(u) = q.pop_front() {
            if u == dst {
                break;
            }
            for &(v, l) in &adjacency[u.0 as usize] {
                if visited[v.0 as usize] || !t.link_up(l) || !t.node_up(v) {
                    continue;
                }
                visited[v.0 as usize] = true;
                prev[v.0 as usize] = Some((u, l));
                q.push_back(v);
            }
        }
        if !visited[dst.0 as usize] {
            return None;
        }
        let mut path = Vec::new();
        let mut cur = dst;
        while cur != src {
            let (p, l) = prev[cur.0 as usize].expect("visited implies predecessor");
            path.push(Channel {
                link: l,
                from: p,
                to: cur,
            });
            cur = p;
        }
        path.reverse();
        Some(path)
    }

    proptest::proptest! {
        /// On a random star under random leaf, switch and link flips, every
        /// pair's closed-form route — a node to itself included — is the
        /// path a breadth-first search finds on the star as it stands
        /// after each flip.
        #[test]
        fn routes_match_the_exit_at_pop_search_after_every_flip(
            capacities in proptest::collection::vec(1.0f64..10_000.0, 1..10),
            flips in proptest::collection::vec((0u8..3, 0usize..10), 0..16),
        ) {
            let mut t = Topology::star(
                capacities.iter().map(|&mbps| (Bandwidth::mbps(mbps), SimDuration::ZERO)),
            );
            let check = |t: &Topology| {
                for src in (0..t.node_count() as u32).map(NodeId) {
                    for dst in (0..t.node_count() as u32).map(NodeId) {
                        let oracle = bfs_exit_at_pop(t, src, dst);
                        proptest::prop_assert_eq!(t.route(src, dst).as_deref(), oracle.as_deref());
                    }
                }
            };
            check(&t);
            for (what, i) in flips {
                match what {
                    0 => {
                        let leaf = Topology::leaf(i % t.link_count());
                        t.set_node_up(leaf, !t.node_up(leaf));
                    }
                    1 => {
                        let link = LinkId((i % t.link_count()) as u32);
                        t.set_link_up(link, !t.link_up(link));
                    }
                    _ => t.set_node_up(Topology::SWITCH, !t.node_up(Topology::SWITCH)),
                }
                check(&t);
            }
        }

        /// Routes queried one at a time, interleaved with flips, in the
        /// coordinator's pattern — mostly from the hub leaf to a leaf and
        /// back — depend on nothing but the state the star is in: each
        /// matches the route of a star built afresh in that state, and the
        /// breadth-first search.
        #[test]
        fn slot_routes_match_an_uncached_search(
            n in 1usize..9,
            ops in proptest::collection::vec((0u8..8, 0usize..9, 0usize..9), 1..80),
        ) {
            let leaves = vec![(Bandwidth::gbps(1.0), SimDuration::ZERO); n];
            let mut t = Topology::star(leaves.iter().copied());
            let hub = Topology::leaf(n - 1);
            for (op, i, j) in ops {
                let (x, y) = (Topology::leaf(i % n), Topology::leaf(j % n));
                let (src, dst) = match op {
                    0..=2 => (hub, x),
                    3 | 4 => (x, hub),
                    5 => (x, Topology::SWITCH),
                    6 => {
                        let node = if i % (n + 1) == n { Topology::SWITCH } else { x };
                        t.set_node_up(node, !t.node_up(node));
                        continue;
                    }
                    _ => {
                        let link = t.link_of(y);
                        t.set_link_up(link, !t.link_up(link));
                        continue;
                    }
                };
                let mut fresh = Topology::star(leaves.iter().copied());
                for k in 0..t.node_count() as u32 {
                    fresh.set_node_up(NodeId(k), t.node_up(NodeId(k)));
                }
                for k in 0..t.link_count() as u32 {
                    fresh.set_link_up(LinkId(k), t.link_up(LinkId(k)));
                }
                let route = t.route(src, dst);
                proptest::prop_assert_eq!(route, fresh.route(src, dst));
                let oracle = bfs_exit_at_pop(&t, src, dst);
                proptest::prop_assert_eq!(route.as_deref(), oracle.as_deref());
            }
        }
    }
}
