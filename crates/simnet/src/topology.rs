//! Campus network topology: nodes, links, and shortest-path routing.
//!
//! A topology is an undirected multigraph of nodes (servers, workstations,
//! switches) and links. Internally each undirected link is a pair of directed
//! channels so that full-duplex capacity is modelled correctly: a checkpoint
//! upload does not steal capacity from a concurrent image pull in the other
//! direction.

use crate::bandwidth::Bandwidth;
use gpunion_des::SimDuration;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::ops::Deref;
use std::rc::Rc;

/// A network endpoint (server, workstation, switch, or the coordinator).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u32);

/// An undirected link between two nodes.
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

/// A route as [`Topology::route`] hands it out. Routes of at most
/// [`Route::INLINE_HOPS`] hops — every route of a [`star_campus`] — are held
/// in place, so a cached lookup copies two channels out of the cache entry
/// instead of following a pointer and touching a reference count; longer
/// ones share one slice. Reads as the `[Channel]` it stands for.
#[derive(Debug, Clone)]
pub enum Route {
    /// The first `len` of `hops`.
    Inline {
        /// Hops in use.
        len: u8,
        /// The hops, in order; entries past `len` are filler.
        hops: [Channel; Route::INLINE_HOPS],
    },
    /// A longer path, shared between the cache and its readers.
    Shared(Rc<[Channel]>),
}

impl Route {
    /// The longest route held in place.
    pub const INLINE_HOPS: usize = 2;

    const FILLER: [Channel; Route::INLINE_HOPS] = [Channel {
        link: LinkId(0),
        from: NodeId(0),
        to: NodeId(0),
    }; Route::INLINE_HOPS];

    /// The route from a node to itself.
    const EMPTY: Route = Route::Inline {
        len: 0,
        hops: Route::FILLER,
    };
}

impl From<&[Channel]> for Route {
    fn from(path: &[Channel]) -> Self {
        if path.len() > Route::INLINE_HOPS {
            return Route::Shared(Rc::from(path));
        }
        let mut hops = Route::FILLER;
        hops[..path.len()].copy_from_slice(path);
        Route::Inline {
            len: path.len() as u8,
            hops,
        }
    }
}

impl Deref for Route {
    type Target = [Channel];

    fn deref(&self) -> &[Channel] {
        match self {
            Route::Inline { len, hops } => &hops[..*len as usize],
            Route::Shared(path) => path,
        }
    }
}

impl PartialEq for Route {
    fn eq(&self, other: &Route) -> bool {
        **self == **other
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct LinkInfo {
    pub capacity: Bandwidth,
    pub latency: SimDuration,
}

/// The route cache's entry for one pair: the slot of the pair's larger
/// node id holds both directions to one peer, the smaller id. Each
/// direction is its own search (ties may break differently each way), so
/// each is `None` until asked for, then the search's answer.
#[derive(Debug, Clone)]
struct RouteSlot {
    /// The topology's epoch when the slot was filled; an older stamp means
    /// a node or link has flipped since, and the slot is empty.
    epoch: u64,
    /// The smaller node id of the pair.
    peer: NodeId,
    /// `peer` → the slot's node.
    up: Option<Option<Route>>,
    /// The slot's node → `peer`.
    down: Option<Option<Route>>,
}

impl RouteSlot {
    /// Older than every epoch: empty.
    const EMPTY: RouteSlot = RouteSlot {
        epoch: 0,
        peer: NodeId(0),
        up: None,
        down: None,
    };
}

/// The campus graph. Built once via [`TopologyBuilder`], then queried for
/// routes. Routes are recomputed lazily after link/node state changes.
///
/// Per-node and per-link state sits in one dense array per field, so the
/// reads a send makes — both ends up, each hop's latency and capacity —
/// touch only what they need.
#[derive(Debug, Clone)]
pub struct Topology {
    names: Vec<String>,
    node_up: Vec<bool>,
    /// What a send reads per hop, by `LinkId`.
    links: Vec<LinkInfo>,
    ends: Vec<(NodeId, NodeId)>,
    link_up: Vec<bool>,
    adjacency: Vec<Vec<(NodeId, LinkId)>>,
    /// Bumped by every node or link flip: it empties every route slot at once.
    epoch: u64,
    /// The route cache, one [`RouteSlot`] per node id.
    routes: Vec<RouteSlot>,
    search: SearchScratch,
}

/// Buffers of the route search, kept between searches: a node counts as
/// discovered when its stamp equals the current search's round number, so
/// starting a search is one increment instead of clearing (or allocating)
/// two fleet-sized arrays.
#[derive(Debug, Clone, Default)]
struct SearchScratch {
    round: u64,
    stamp: Vec<u64>,
    prev: Vec<(NodeId, LinkId)>,
    queue: VecDeque<NodeId>,
    path: Vec<Channel>,
}

/// Incremental builder for [`Topology`].
#[derive(Debug, Default)]
pub struct TopologyBuilder {
    names: Vec<String>,
    links: Vec<LinkInfo>,
    ends: Vec<(NodeId, NodeId)>,
}

impl TopologyBuilder {
    /// Empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a named node; the name is for reports and debugging only.
    pub fn add_node(&mut self, name: impl Into<String>) -> NodeId {
        let id = NodeId(self.names.len() as u32);
        self.names.push(name.into());
        id
    }

    /// Add an undirected link with symmetric capacity and propagation latency.
    pub fn add_link(
        &mut self,
        a: NodeId,
        b: NodeId,
        capacity: Bandwidth,
        latency: SimDuration,
    ) -> LinkId {
        assert!(a != b, "self-links are not allowed");
        assert!((a.0 as usize) < self.names.len() && (b.0 as usize) < self.names.len());
        let id = LinkId(self.links.len() as u32);
        self.links.push(LinkInfo { capacity, latency });
        self.ends.push((a, b));
        id
    }

    /// Finalize into a queryable topology.
    pub fn build(self) -> Topology {
        let nodes = self.names.len();
        let mut adjacency = vec![Vec::new(); nodes];
        for (i, &(a, b)) in self.ends.iter().enumerate() {
            adjacency[a.0 as usize].push((b, LinkId(i as u32)));
            adjacency[b.0 as usize].push((a, LinkId(i as u32)));
        }
        Topology {
            names: self.names,
            node_up: vec![true; nodes],
            link_up: vec![true; self.links.len()],
            links: self.links,
            ends: self.ends,
            adjacency,
            epoch: 1,
            routes: vec![RouteSlot::EMPTY; nodes],
            search: SearchScratch::default(),
        }
    }
}

impl Topology {
    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.names.len()
    }

    /// Number of undirected links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Node name given at build time.
    pub fn node_name(&self, n: NodeId) -> &str {
        &self.names[n.0 as usize]
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

    /// The two endpoints of a link.
    pub fn link_endpoints(&self, l: LinkId) -> (NodeId, NodeId) {
        self.ends[l.0 as usize]
    }

    /// The link directly connecting two nodes, if one exists.
    pub fn link_between(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        (0..self.links.len() as u32).map(LinkId).find(|&l| {
            let (x, y) = self.link_endpoints(l);
            (x, y) == (a, b) || (x, y) == (b, a)
        })
    }

    /// Mark a node up or down. Invalidates the route cache.
    pub fn set_node_up(&mut self, n: NodeId, up: bool) {
        if self.node_up[n.0 as usize] != up {
            self.node_up[n.0 as usize] = up;
            self.epoch += 1;
        }
    }

    /// Mark a link up or down. Invalidates the route cache.
    pub fn set_link_up(&mut self, l: LinkId, up: bool) {
        if self.link_up[l.0 as usize] != up {
            self.link_up[l.0 as usize] = up;
            self.epoch += 1;
        }
    }

    /// Shortest path (fewest hops) from `src` to `dst` as directed channels,
    /// skipping down nodes and links. `None` when unreachable. Cached until
    /// the next topology change, or until the pair's slot goes to another
    /// pair.
    pub fn route(&mut self, src: NodeId, dst: NodeId) -> Option<Route> {
        if src == dst {
            return Some(Route::EMPTY);
        }
        let (lo, hi) = if src < dst { (src, dst) } else { (dst, src) };
        let slot = &self.routes[hi.0 as usize];
        if slot.epoch == self.epoch && slot.peer == lo {
            if let Some(route) = if src == lo { &slot.up } else { &slot.down } {
                return route.clone();
            }
        }
        self.route_miss(src, dst, lo, hi)
    }

    /// [`Self::route`] when the slot has no answer: take the slot over if it
    /// is stale or another pair's, search, and file the answer. Out of line
    /// so the hit path stays short.
    #[cold]
    #[inline(never)]
    fn route_miss(&mut self, src: NodeId, dst: NodeId, lo: NodeId, hi: NodeId) -> Option<Route> {
        let slot = &mut self.routes[hi.0 as usize];
        if slot.epoch != self.epoch || slot.peer != lo {
            *slot = RouteSlot {
                epoch: self.epoch,
                peer: lo,
                up: None,
                down: None,
            };
        }
        let computed = self.bfs(src, dst);
        let slot = &mut self.routes[hi.0 as usize];
        let entry = if src == lo {
            &mut slot.up
        } else {
            &mut slot.down
        };
        *entry = Some(computed.clone());
        computed
    }

    /// Breadth-first search that stops as soon as `dst` is *discovered*: a
    /// node's predecessor is fixed at discovery, so the chain read back is
    /// the one a search that runs until `dst` is popped would read — but a
    /// host's route to the coordinator of a star ends at the switch's
    /// second neighbour instead of after the whole fleet, and the
    /// coordinator's route to a host at the host's only link instead of
    /// after every host before it.
    fn bfs(&mut self, src: NodeId, dst: NodeId) -> Option<Route> {
        if !self.node_up(src) || !self.node_up(dst) {
            return None;
        }
        let mut s = std::mem::take(&mut self.search);
        s.round += 1;
        if s.stamp.len() < self.node_count() {
            s.stamp.resize(self.node_count(), 0);
            s.prev.resize(self.node_count(), (src, LinkId(0)));
        }
        s.queue.clear();
        s.stamp[src.0 as usize] = s.round;
        s.queue.push_back(src);
        'search: while let Some(u) = s.queue.pop_front() {
            // `dst` is discovered from `u` over the first up link to it in
            // `u`'s list. Lists are in link order (`build` files links
            // ascending), so that is the lowest up link between the two —
            // which `dst`'s list names as well, and on a star `dst`'s list
            // is one entry long where the switch's is the whole fleet.
            let around_dst = &self.adjacency[dst.0 as usize];
            if around_dst.len() < self.adjacency[u.0 as usize].len() {
                let direct = around_dst
                    .iter()
                    .filter(|&&(w, l)| w == u && self.link_up(l))
                    .map(|&(_, l)| l)
                    .min();
                if let Some(l) = direct {
                    s.stamp[dst.0 as usize] = s.round;
                    s.prev[dst.0 as usize] = (u, l);
                    break 'search;
                }
            }
            for &(v, l) in &self.adjacency[u.0 as usize] {
                if s.stamp[v.0 as usize] == s.round || !self.link_up(l) || !self.node_up(v) {
                    continue;
                }
                s.stamp[v.0 as usize] = s.round;
                s.prev[v.0 as usize] = (u, l);
                if v == dst {
                    break 'search;
                }
                s.queue.push_back(v);
            }
        }
        let path = (s.stamp[dst.0 as usize] == s.round).then(|| {
            s.path.clear();
            let mut cur = dst;
            while cur != src {
                let (p, l) = s.prev[cur.0 as usize];
                s.path.push(Channel {
                    link: l,
                    from: p,
                    to: cur,
                });
                cur = p;
            }
            s.path.reverse();
            Route::from(&s.path[..])
        });
        self.search = s;
        path
    }

    /// Sum of propagation latencies along a path.
    pub fn path_latency(&self, path: &[Channel]) -> SimDuration {
        path.iter()
            .fold(SimDuration::ZERO, |acc, c| acc + self.link_latency(c.link))
    }

    /// The minimum link capacity along a path (the path's bottleneck).
    pub fn path_bottleneck(&self, path: &[Channel]) -> Bandwidth {
        path.iter()
            .map(|c| self.link_capacity(c.link))
            .fold(Bandwidth::bps(f64::MAX), |a, b| if b < a { b } else { a })
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count() as u32).map(NodeId)
    }
}

/// Convenience constructor for the standard campus shape used throughout the
/// reproduction: `n_hosts` hosts hanging off one backbone switch, each via a
/// 1 Gb/s access link, with the given coordinator attached at 10 Gb/s.
///
/// Returns `(topology, host_ids, coordinator_id, switch_id)`.
pub fn star_campus(
    n_hosts: usize,
    access: Bandwidth,
    backbone: Bandwidth,
    access_latency: SimDuration,
) -> (Topology, Vec<NodeId>, NodeId, NodeId) {
    let mut b = TopologyBuilder::new();
    let switch = b.add_node("campus-switch");
    let coordinator = b.add_node("coordinator");
    b.add_link(coordinator, switch, backbone, access_latency);
    let mut hosts = Vec::with_capacity(n_hosts);
    for i in 0..n_hosts {
        let h = b.add_node(format!("host-{i}"));
        b.add_link(h, switch, access, access_latency);
        hosts.push(h);
    }
    (b.build(), hosts, coordinator, switch)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line3() -> (Topology, NodeId, NodeId, NodeId, LinkId, LinkId) {
        let mut b = TopologyBuilder::new();
        let a = b.add_node("a");
        let m = b.add_node("m");
        let c = b.add_node("c");
        let l1 = b.add_link(a, m, Bandwidth::gbps(1.0), SimDuration::from_micros(10));
        let l2 = b.add_link(m, c, Bandwidth::gbps(10.0), SimDuration::from_micros(20));
        (b.build(), a, m, c, l1, l2)
    }

    #[test]
    fn route_through_middle() {
        let (mut t, a, m, c, l1, l2) = line3();
        let path = t.route(a, c).unwrap();
        assert_eq!(path.len(), 2);
        assert_eq!(path[0].link, l1);
        assert_eq!(path[0].from, a);
        assert_eq!(path[0].to, m);
        assert_eq!(path[1].link, l2);
        assert_eq!(path[1].to, c);
        assert_eq!(t.path_latency(&path), SimDuration::from_micros(30));
        assert_eq!(t.path_bottleneck(&path), Bandwidth::gbps(1.0));
    }

    #[test]
    fn route_to_self_is_empty() {
        let (mut t, a, ..) = line3();
        assert_eq!(t.route(a, a).as_deref(), Some(&[][..]));
    }

    #[test]
    fn down_link_breaks_route() {
        let (mut t, a, _, c, l1, _) = line3();
        t.set_link_up(l1, false);
        assert_eq!(t.route(a, c), None);
        t.set_link_up(l1, true);
        assert!(t.route(a, c).is_some(), "cache must be invalidated");
    }

    #[test]
    fn down_node_breaks_route() {
        let (mut t, a, m, c, ..) = line3();
        t.set_node_up(m, false);
        assert_eq!(t.route(a, c), None);
        assert_eq!(t.route(a, m), None, "down destination unreachable");
    }

    #[test]
    fn star_campus_shape() {
        let (mut t, hosts, coord, switch) = star_campus(
            11,
            Bandwidth::gbps(1.0),
            Bandwidth::gbps(10.0),
            SimDuration::from_micros(50),
        );
        assert_eq!(t.node_count(), 13);
        assert_eq!(t.link_count(), 12);
        assert_eq!(hosts.len(), 11);
        let p = t.route(hosts[0], coord).unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p[0].to, switch);
        // host-to-host goes via the switch
        let p = t.route(hosts[3], hosts[7]).unwrap();
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn bfs_finds_shortest_of_multiple_paths() {
        let mut b = TopologyBuilder::new();
        let a = b.add_node("a");
        let x = b.add_node("x");
        let y = b.add_node("y");
        let d = b.add_node("d");
        // long path a-x-y-d, short path a-d
        b.add_link(a, x, Bandwidth::gbps(1.0), SimDuration::ZERO);
        b.add_link(x, y, Bandwidth::gbps(1.0), SimDuration::ZERO);
        b.add_link(y, d, Bandwidth::gbps(1.0), SimDuration::ZERO);
        b.add_link(a, d, Bandwidth::mbps(10.0), SimDuration::ZERO);
        let mut t = b.build();
        assert_eq!(t.route(a, d).unwrap().len(), 1);
    }

    /// Short routes sit in the cache entry, longer ones behind one shared
    /// slice; both read back as the path they were built from.
    #[test]
    fn routes_up_to_two_hops_are_held_in_place() {
        let mut b = TopologyBuilder::new();
        let nodes: Vec<NodeId> = (0..5).map(|i| b.add_node(format!("n{i}"))).collect();
        for pair in nodes.windows(2) {
            b.add_link(pair[0], pair[1], Bandwidth::gbps(1.0), SimDuration::ZERO);
        }
        let mut t = b.build();
        for (dst, hops) in nodes.iter().zip(0..) {
            let route = t.route(nodes[0], *dst).unwrap();
            assert_eq!(route.len(), hops);
            assert_eq!(
                matches!(route, Route::Inline { .. }),
                hops <= Route::INLINE_HOPS
            );
            assert_eq!(route.last().map(|c| c.to), (hops > 0).then_some(*dst));
            assert_eq!(t.route(nodes[0], *dst), Some(route), "cached copy");
        }
    }

    /// A slot holds one peer, both directions: asking the other direction
    /// fills the second half, a third node's pair takes the slot over, and a
    /// flip empties every slot at once.
    #[test]
    fn a_slot_holds_one_pair_in_both_directions() {
        let (mut t, hosts, coord, switch) = star_campus(
            3,
            Bandwidth::gbps(1.0),
            Bandwidth::gbps(10.0),
            SimDuration::from_micros(50),
        );
        let h = hosts[2];
        let slot = |t: &Topology| {
            let s = &t.routes[h.0 as usize];
            (s.epoch == t.epoch, s.peer, s.up.is_some(), s.down.is_some())
        };
        assert_eq!(t.route(h, coord).unwrap().len(), 2);
        assert_eq!(slot(&t), (true, coord, false, true));
        assert_eq!(t.route(coord, h).unwrap()[0].from, coord);
        assert_eq!(slot(&t), (true, coord, true, true));
        assert_eq!(t.route(hosts[0], h).unwrap().len(), 2);
        assert_eq!(slot(&t), (true, hosts[0], true, false), "evicted");
        t.set_node_up(switch, false);
        assert!(!slot(&t).0, "a flip empties the slot");
        assert_eq!(t.route(h, coord), None);
        t.set_node_up(switch, true);
        assert_eq!(t.route(h, coord).unwrap().len(), 2);
    }

    #[test]
    #[should_panic]
    fn self_link_rejected() {
        let mut b = TopologyBuilder::new();
        let a = b.add_node("a");
        b.add_link(a, a, Bandwidth::gbps(1.0), SimDuration::ZERO);
    }

    /// The search this file replaced: fresh buffers per call, and it runs
    /// until `dst` is popped. The oracle for the early exit.
    fn bfs_exit_at_pop(t: &Topology, src: NodeId, dst: NodeId) -> Option<Vec<Channel>> {
        if !t.node_up(src) || !t.node_up(dst) {
            return None;
        }
        let n = t.node_count();
        let mut prev: Vec<Option<(NodeId, LinkId)>> = vec![None; n];
        let mut visited = vec![false; n];
        let mut q = VecDeque::new();
        visited[src.0 as usize] = true;
        q.push_back(src);
        while let Some(u) = q.pop_front() {
            if u == dst {
                break;
            }
            for &(v, l) in &t.adjacency[u.0 as usize] {
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
        /// On a random multigraph under random node and link flips, every
        /// pair's route — computed by the early-exit search on reused
        /// buffers, or served from the cache — is the path the exit-at-pop
        /// search finds on the graph as it stands after each flip.
        #[test]
        fn routes_match_the_exit_at_pop_search_after_every_flip(
            n in 2usize..9,
            edges in proptest::collection::vec((0usize..9, 0usize..9), 1..24),
            flips in proptest::collection::vec((proptest::any::<bool>(), 0usize..24), 0..12),
        ) {
            let mut b = TopologyBuilder::new();
            let nodes: Vec<NodeId> = (0..n).map(|i| b.add_node(format!("n{i}"))).collect();
            for (x, y) in edges {
                let (x, y) = (nodes[x % n], nodes[y % n]);
                if x != y {
                    b.add_link(x, y, Bandwidth::gbps(1.0), SimDuration::ZERO);
                }
            }
            let mut t = b.build();
            let check = |t: &mut Topology| {
                // Twice: the second round reads every pair from the cache.
                for _ in 0..2 {
                    for &src in &nodes {
                        for &dst in &nodes {
                            if src != dst {
                                let fresh = bfs_exit_at_pop(t, src, dst);
                                proptest::prop_assert_eq!(t.route(src, dst).as_deref(), fresh.as_deref());
                            }
                        }
                    }
                }
            };
            check(&mut t);
            for (flip_node, i) in flips {
                if flip_node || t.link_count() == 0 {
                    let node = nodes[i % n];
                    t.set_node_up(node, !t.node_up(node));
                } else {
                    let link = LinkId((i % t.link_count()) as u32);
                    t.set_link_up(link, !t.link_up(link));
                }
                check(&mut t);
            }
        }

        /// One node asks several peers in turn, in both directions, while
        /// nodes and links flip: every answer — from the slot, or from a
        /// search after an eviction or an epoch bump — is the path a fresh
        /// uncached search finds on the graph as it stands.
        #[test]
        fn slot_routes_match_an_uncached_search(
            n in 2usize..9,
            edges in proptest::collection::vec((0usize..9, 0usize..9), 1..24),
            ops in proptest::collection::vec((0u8..8, 0usize..9, 0usize..24), 1..80),
        ) {
            let mut b = TopologyBuilder::new();
            let nodes: Vec<NodeId> = (0..n).map(|i| b.add_node(format!("n{i}"))).collect();
            for (x, y) in edges {
                let (x, y) = (nodes[x % n], nodes[y % n]);
                if x != y {
                    b.add_link(x, y, Bandwidth::gbps(1.0), SimDuration::ZERO);
                }
            }
            let mut t = b.build();
            let hub = nodes[n - 1];
            for (op, i, j) in ops {
                let (x, y) = (nodes[i % n], nodes[j % n]);
                let (src, dst) = match op {
                    0..=2 => (hub, x),
                    3 | 4 => (x, hub),
                    5 => (x, y),
                    6 => {
                        t.set_node_up(x, !t.node_up(x));
                        continue;
                    }
                    _ => {
                        if t.link_count() > 0 {
                            let link = LinkId((j % t.link_count()) as u32);
                            t.set_link_up(link, !t.link_up(link));
                        }
                        continue;
                    }
                };
                let fresh = t.clone().bfs(src, dst);
                let oracle = bfs_exit_at_pop(&t, src, dst);
                let cached = t.route(src, dst);
                if src == dst {
                    proptest::prop_assert_eq!(cached.as_deref(), Some(&[][..]));
                } else {
                    proptest::prop_assert_eq!(cached.as_deref(), fresh.as_deref());
                    proptest::prop_assert_eq!(cached.as_deref(), oracle.as_deref());
                }
            }
        }
    }
}
