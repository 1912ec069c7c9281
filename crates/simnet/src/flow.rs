//! Bulk transfers as fluid flows with max-min fair bandwidth sharing.
//!
//! Checkpoint backups, migrations, and image pulls are modelled as *flows*:
//! a byte count draining at a rate decided by a max-min fair allocation over
//! every directed channel the flow crosses (the classic progressive-filling
//! algorithm). Whenever the flow set or topology changes, rates are
//! recomputed and every flow's completion deadline moves accordingly — the
//! same fluid approximation used by flow-level network simulators.
//!
//! The table is **event-driven**. Between two changes of the flow set every
//! rate is constant, so a flow's state is `(remaining, rate)` as of the
//! instant of the last change — the *epoch* — and nothing happens until the
//! earliest completion ([`FlowTable::next_completion`], cached) or the next
//! mutation. Only then does [`FlowTable::settle`] integrate every flow over
//! the whole epoch at once. Asking in between changes nothing, so results
//! do not depend on how often the embedding loop polls.
//!
//! Flows live in a `Vec` in [`FlowId`] order and the allocator works on
//! dense per-channel arrays, so completions of one instant leave in id order
//! and every float sum is taken in one order: two runs of one input agree
//! bit for bit.
//!
//! Invariants (checked by property tests):
//! * no channel's summed allocation exceeds its capacity (within float dust);
//! * the allocation is Pareto-efficient: every flow is bottlenecked on at
//!   least one saturated channel (or runs at the local-copy rate).

use crate::accounting::{Accounting, TrafficClass};
use crate::bandwidth::Bandwidth;
use crate::topology::{Channel, Route, Topology};
use gpunion_des::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Identifier of an in-flight bulk transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FlowId(pub u64);

/// Why a flow left the flow table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowOutcome {
    /// All bytes delivered.
    Completed,
    /// Cancelled by the caller (e.g. workload killed mid-checkpoint).
    Cancelled,
    /// A node or link on the path went down and no reroute was possible.
    PathLost,
}

#[derive(Debug, Clone)]
struct Flow {
    id: FlowId,
    class: TrafficClass,
    path: Route,
    total_bytes: f64,
    /// Bytes left as of the table's epoch.
    remaining: f64,
    /// Allocated rate in bytes/sec, constant since the epoch.
    rate: f64,
}

/// A completed/failed flow notification produced by [`FlowTable::settle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowEnd {
    /// Which flow ended.
    pub id: FlowId,
    /// How it ended.
    pub outcome: FlowOutcome,
}

/// The set of active flows plus the fair-share allocator.
#[derive(Debug)]
pub struct FlowTable {
    /// Active flows in `FlowId` order (ids are handed out in ascending
    /// order and removal keeps order).
    flows: Vec<Flow>,
    next_id: u64,
    /// The instant `remaining` and `rate` of every flow are as of.
    epoch: SimTime,
    /// Rate applied to flows with an empty path (src == dst local copies):
    /// models local disk bandwidth rather than the network.
    local_rate: Bandwidth,
    /// The flow set changed since rates were last allocated.
    dirty: bool,
    /// Earliest completion at the current rates; `None` when a mutation or
    /// a settle has outdated it ([`FlowTable::reallocate`] refills it).
    next_done: Option<Option<SimTime>>,
    /// Allocator scratch, indexed by [`channel_index`] and reused across
    /// calls: capacity left on the channel, unfixed flows crossing it.
    cap: Vec<f64>,
    users: Vec<u32>,
    /// Allocator scratch: the channels in use, ascending.
    in_use: Vec<usize>,
    /// Allocator scratch: positions in `flows` not yet given a rate.
    unfixed: Vec<usize>,
}

/// Completion epsilon: a flow with less than half a byte left is done.
const EPSILON_BYTES: f64 = 0.5;

/// Dense index of a directed channel: `2·link + direction`. A link joins two
/// distinct nodes, so comparing the endpoints tells its directions apart.
fn channel_index(ch: &Channel) -> usize {
    2 * ch.link.0 as usize + usize::from(ch.from > ch.to)
}

impl FlowTable {
    /// Empty table. `local_rate` is used for same-node transfers.
    pub fn new(local_rate: Bandwidth) -> Self {
        FlowTable {
            flows: Vec::new(),
            next_id: 0,
            epoch: SimTime::ZERO,
            local_rate,
            dirty: false,
            next_done: Some(None),
            cap: Vec::new(),
            users: Vec::new(),
            in_use: Vec::new(),
            unfixed: Vec::new(),
        }
    }

    /// Number of active flows.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// True when no flows are active.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// Position of a flow in `flows` (sorted by id).
    fn position(&self, id: FlowId) -> Option<usize> {
        self.flows.binary_search_by_key(&id, |f| f.id).ok()
    }

    fn get(&self, id: FlowId) -> Option<&Flow> {
        self.position(id).map(|at| &self.flows[at])
    }

    fn invalidate(&mut self) {
        self.dirty = true;
        self.next_done = None;
    }

    /// Begin a flow of `bytes` along `path` (empty path = local copy).
    /// Call [`FlowTable::settle`] to `now` *before* adding, then
    /// [`FlowTable::reallocate`] after.
    pub fn add(&mut self, path: Route, bytes: u64, class: TrafficClass) -> FlowId {
        let id = FlowId(self.next_id);
        self.next_id += 1;
        self.flows.push(Flow {
            id,
            class,
            path,
            total_bytes: bytes as f64,
            remaining: bytes as f64,
            rate: 0.0,
        });
        self.invalidate();
        id
    }

    /// Remove a flow (cancellation). Returns true if it existed.
    pub fn remove(&mut self, id: FlowId) -> bool {
        let Some(at) = self.position(id) else {
            return false;
        };
        self.flows.remove(at);
        self.invalidate();
        true
    }

    /// Fraction of the flow delivered by `now`, if it is still active:
    /// extrapolated from the epoch at the flow's constant rate.
    pub fn progress(&self, now: SimTime, id: FlowId) -> Option<f64> {
        self.get(id).map(|f| {
            if f.total_bytes <= 0.0 {
                return 1.0;
            }
            let dt = now.since(self.epoch).as_secs_f64();
            1.0 - (f.remaining - f.rate * dt).max(0.0) / f.total_bytes
        })
    }

    /// Current rate (bytes/sec) of an active flow.
    pub fn rate(&self, id: FlowId) -> Option<f64> {
        self.get(id).map(|f| f.rate)
    }

    /// Integrate every flow over `[epoch, now]` and move the epoch to `now`:
    /// debit the delivered bytes into `accounting` — one span per hop for
    /// the whole interval, exact because the rate was constant — and return
    /// the flows that finished, in `FlowId` order.
    ///
    /// Completions are detected at `now`; the caller should settle at
    /// [`FlowTable::next_completion`] so no completion is observed late,
    /// and call [`FlowTable::reallocate`] afterwards.
    pub fn settle(&mut self, now: SimTime, accounting: &mut Accounting) -> Vec<FlowEnd> {
        let from = self.epoch;
        if now <= from {
            return Vec::new();
        }
        let dt = now.since(from).as_secs_f64();
        let mut done = Vec::new();
        self.flows.retain_mut(|f| {
            if f.rate <= 0.0 {
                return true;
            }
            let moved = (f.rate * dt).min(f.remaining);
            f.remaining -= moved;
            // Local copies never touch a link but still take time.
            for ch in f.path.iter() {
                accounting.record_span(ch.link, f.class, from, now, moved);
            }
            let finished = f.remaining <= EPSILON_BYTES;
            if finished {
                done.push(FlowEnd {
                    id: f.id,
                    outcome: FlowOutcome::Completed,
                });
            }
            !finished
        });
        self.epoch = now;
        self.next_done = None;
        if !done.is_empty() {
            self.dirty = true;
        }
        done
    }

    /// Drop every flow whose path crosses a now-down link or node; returns
    /// the lost flows in `FlowId` order. Call after topology changes.
    pub fn fail_broken_paths(&mut self, topo: &Topology) -> Vec<FlowEnd> {
        let mut lost = Vec::new();
        self.flows.retain(|f| {
            let broken = f
                .path
                .iter()
                .any(|ch| !topo.link_up(ch.link) || !topo.node_up(ch.from) || !topo.node_up(ch.to));
            if broken {
                lost.push(FlowEnd {
                    id: f.id,
                    outcome: FlowOutcome::PathLost,
                });
            }
            !broken
        });
        if !lost.is_empty() {
            self.invalidate();
        }
        lost
    }

    /// Recompute the max-min fair allocation if the flow set changed, and
    /// the cached earliest completion. Returns true when rates were
    /// recomputed.
    pub fn reallocate(&mut self, topo: &Topology) -> bool {
        let changed = self.dirty;
        if changed {
            self.dirty = false;
            self.max_min(topo);
        }
        self.next_done = Some(self.earliest_completion());
        changed
    }

    /// Progressive-filling max-min fairness over directed channels. Ties
    /// between bottlenecks go to the lowest channel index and flows are
    /// visited in id order, so equal inputs give bit-equal rates.
    fn max_min(&mut self, topo: &Topology) {
        let FlowTable {
            flows,
            local_rate,
            cap,
            users,
            in_use,
            unfixed,
            ..
        } = self;
        let channels = 2 * topo.link_count();
        if cap.len() < channels {
            cap.resize(channels, 0.0);
            users.resize(channels, 0);
        }
        in_use.clear();
        unfixed.clear();
        for (at, f) in flows.iter_mut().enumerate() {
            if f.path.is_empty() {
                f.rate = local_rate.bytes_per_sec();
                continue;
            }
            f.rate = 0.0;
            unfixed.push(at);
            for ch in f.path.iter() {
                let c = channel_index(ch);
                if users[c] == 0 {
                    cap[c] = topo.link_capacity(ch.link).bytes_per_sec();
                    in_use.push(c);
                }
                users[c] += 1;
            }
        }
        in_use.sort_unstable();

        while !unfixed.is_empty() {
            // The bottleneck channel: least capacity per unfixed user.
            let mut bottleneck: Option<(usize, f64)> = None;
            for &c in in_use.iter().filter(|&&c| users[c] > 0) {
                let fair = cap[c] / f64::from(users[c]);
                match bottleneck {
                    Some((_, best)) if fair >= best => {}
                    _ => bottleneck = Some((c, fair)),
                }
            }
            let (bottleneck, rate) = bottleneck.expect("an unfixed flow crosses a channel");
            let rate = rate.max(0.0);
            // Fix every unfixed flow crossing the bottleneck at `rate`.
            unfixed.retain(|&at| {
                let f = &mut flows[at];
                if !f.path.iter().any(|ch| channel_index(ch) == bottleneck) {
                    return true;
                }
                f.rate = rate;
                for ch in f.path.iter() {
                    let c = channel_index(ch);
                    cap[c] = (cap[c] - rate).max(0.0);
                    users[c] -= 1;
                }
                false
            });
        }
        // Every flow is fixed, so `users` is all zero again for the next call.
    }

    /// Earliest instant any draining flow completes at the current rates.
    fn earliest_completion(&self) -> Option<SimTime> {
        self.flows
            .iter()
            .filter(|f| f.rate > 0.0)
            .map(|f| {
                let secs = (f.remaining - EPSILON_BYTES).max(0.0) / f.rate;
                // Round up to the next nanosecond so the completion check at
                // the scheduled wake sees `remaining <= EPSILON_BYTES`. The
                // cast and both additions saturate: a flow of 2^62 bytes
                // completes "never", not at a wrapped instant.
                let ns = ((secs * 1e9).ceil() as u64).saturating_add(1);
                self.epoch.saturating_add(SimDuration::from_nanos(ns))
            })
            .min()
    }

    /// Earliest time any flow will complete at current rates, if any flow is
    /// active and draining. O(1) after [`FlowTable::reallocate`]; never
    /// stale: a mutation since then makes this rescan the flows.
    pub fn next_completion(&self) -> Option<SimTime> {
        self.next_done.unwrap_or_else(|| self.earliest_completion())
    }

    /// Iterate over active flow ids with their classes, in id order
    /// (diagnostics).
    pub fn active(&self) -> impl Iterator<Item = (FlowId, TrafficClass)> + '_ {
        self.flows.iter().map(|f| (f.id, f.class))
    }

    /// Sum of allocated rates crossing a channel.
    #[cfg(test)]
    pub fn channel_load(&self, ch: Channel) -> f64 {
        self.flows
            .iter()
            .filter(|f| f.path.contains(&ch))
            .map(|f| f.rate)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::star_campus;
    use gpunion_des::SimDuration;

    fn acct(links: usize) -> Accounting {
        Accounting::new(SimDuration::from_secs(60), links)
    }

    /// A star of one leaf on a link of `capacity`, and the leaf's route to
    /// the switch.
    fn one_link(capacity: Bandwidth) -> (Topology, Route) {
        let topo = Topology::star([(capacity, SimDuration::ZERO)]);
        let path = topo.route(Topology::leaf(0), Topology::SWITCH).unwrap();
        (topo, path)
    }

    /// Two flows sharing one 1 Gb/s channel each get 62.5 MB/s.
    #[test]
    fn equal_share_on_shared_link() {
        let (topo, path) = one_link(Bandwidth::gbps(1.0));

        let mut ft = FlowTable::new(Bandwidth::gbps(16.0));
        ft.add(path, 1_000_000_000, TrafficClass::Checkpoint);
        ft.add(path, 1_000_000_000, TrafficClass::Migration);
        ft.reallocate(&topo);

        let rates: Vec<f64> = ft.flows.iter().map(|f| f.rate).collect();
        for r in &rates {
            assert!((r - 62.5e6).abs() < 1.0, "rate {r}");
        }
    }

    /// A flow limited by a slow access link leaves backbone capacity to others.
    #[test]
    fn bottleneck_respected_max_min() {
        // h0 --100Mb-- sw --10Gb-- coord ; h1 --1Gb-- sw
        let topo = Topology::star([
            (Bandwidth::gbps(10.0), SimDuration::ZERO),
            (Bandwidth::mbps(100.0), SimDuration::ZERO),
            (Bandwidth::gbps(1.0), SimDuration::ZERO),
        ]);
        let (coord, h0, h1) = (Topology::leaf(0), Topology::leaf(1), Topology::leaf(2));

        let mut ft = FlowTable::new(Bandwidth::gbps(16.0));
        let p0 = topo.route(h0, coord).unwrap();
        let p1 = topo.route(h1, coord).unwrap();
        let f0 = ft.add(p0, u64::MAX / 4, TrafficClass::Checkpoint);
        let f1 = ft.add(p1, u64::MAX / 4, TrafficClass::Checkpoint);
        ft.reallocate(&topo);

        // f0 capped by its 100 Mb/s access link: 12.5 MB/s.
        assert!((ft.rate(f0).unwrap() - 12.5e6).abs() < 1.0);
        // f1 capped by its 1 Gb/s access link: 125 MB/s (backbone not limiting).
        assert!((ft.rate(f1).unwrap() - 125e6).abs() < 1.0);
        // 2^62 bytes take longer than the clock can say: the completion
        // instant saturates, it does not wrap.
        assert_eq!(ft.next_completion(), Some(SimTime::MAX));
    }

    /// Flow completion time equals bytes / fair rate; releasing a flow
    /// speeds up the survivor.
    #[test]
    fn completion_and_rate_rebalance() {
        let (topo, path) = one_link(Bandwidth::bps(8e6)); // 1 MB/s

        let mut ft = FlowTable::new(Bandwidth::gbps(16.0));
        let mut ac = acct(1);
        let small = ft.add(path, 1_000_000, TrafficClass::Checkpoint); // 1 MB
        let big = ft.add(path, 10_000_000, TrafficClass::Migration); // 10 MB
        ft.reallocate(&topo);

        // Both run at 0.5 MB/s; small finishes at t=2s.
        let next = ft.next_completion().unwrap();
        assert!((next.as_secs_f64() - 2.0).abs() < 1e-3, "{next}");

        let done = ft.settle(next, &mut ac);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, small);
        assert_eq!(done[0].outcome, FlowOutcome::Completed);

        ft.reallocate(&topo);
        // Big had 10 - 0.5*2 = 9 MB left, now at full 1 MB/s ⇒ 9 s more.
        let next2 = ft.next_completion().unwrap();
        assert!((next2.as_secs_f64() - 11.0).abs() < 1e-3, "next2 {next2}");
        let done2 = ft.settle(next2, &mut ac);
        assert_eq!(done2.len(), 1);
        assert_eq!(done2[0].id, big);
        assert!(ft.is_empty());
    }

    #[test]
    fn local_flows_use_disk_rate() {
        // The switch alone.
        let topo = Topology::star([]);
        let mut ft = FlowTable::new(Bandwidth::gbps(16.0)); // 2 GB/s
        let mut ac = acct(0);
        let f = ft.add(Route::EMPTY, 2_000_000_000, TrafficClass::Checkpoint);
        ft.reallocate(&topo);
        assert!((ft.rate(f).unwrap() - 2e9).abs() < 1.0);
        let next = ft.next_completion().unwrap();
        assert!((next.as_secs_f64() - 1.0).abs() < 1e-3);
        let done = ft.settle(next, &mut ac);
        assert_eq!(done.len(), 1);
        // Local copies generate no link traffic.
        assert_eq!(ac.total_bytes(), 0.0);
    }

    #[test]
    fn cancelled_flow_disappears() {
        let (topo, hosts, coord, _) = star_campus(
            2,
            Bandwidth::gbps(1.0),
            Bandwidth::gbps(10.0),
            SimDuration::ZERO,
        );
        let mut ft = FlowTable::new(Bandwidth::gbps(16.0));
        let p = topo.route(hosts[0], coord).unwrap();
        let f = ft.add(p, 1 << 30, TrafficClass::Migration);
        ft.reallocate(&topo);
        assert!(ft.next_completion().is_some());
        assert!(ft.remove(f));
        assert!(!ft.remove(f));
        // No `reallocate` yet: the cached instant must not outlive the flow.
        assert!(ft.next_completion().is_none());
    }

    #[test]
    fn down_link_kills_crossing_flows() {
        let (mut topo, hosts, coord, _) = star_campus(
            2,
            Bandwidth::gbps(1.0),
            Bandwidth::gbps(10.0),
            SimDuration::ZERO,
        );
        let mut ft = FlowTable::new(Bandwidth::gbps(16.0));
        let p0 = topo.route(hosts[0], coord).unwrap();
        let p1 = topo.route(hosts[1], coord).unwrap();
        let f0 = ft.add(p0, 1 << 30, TrafficClass::Checkpoint);
        let _f1 = ft.add(p1, 1 << 30, TrafficClass::Checkpoint);
        ft.reallocate(&topo);

        // Take down host-0's access link.
        let access0 = p0[0].link;
        topo.set_link_up(access0, false);
        let lost = ft.fail_broken_paths(&topo);
        assert_eq!(lost.len(), 1);
        assert_eq!(lost[0].id, f0);
        assert_eq!(lost[0].outcome, FlowOutcome::PathLost);
        assert_eq!(ft.len(), 1);
        // The survivor's completion is rescanned, not read from a cache
        // that still knows the lost flow.
        ft.reallocate(&topo);
        let survivor = ft.next_completion().unwrap();
        assert!((survivor.as_secs_f64() - (1u64 << 30) as f64 / 125e6).abs() < 1e-3);
    }

    #[test]
    fn accounting_receives_moved_bytes() {
        let (topo, path) = one_link(Bandwidth::bps(8e6)); // 1 MB/s
        let mut ft = FlowTable::new(Bandwidth::gbps(16.0));
        let mut ac = acct(1);
        ft.add(path, 3_000_000, TrafficClass::Checkpoint);
        ft.reallocate(&topo);
        ft.settle(SimTime::from_secs(3), &mut ac);
        assert!((ac.class_total(TrafficClass::Checkpoint) - 3e6).abs() < 10.0);
    }
}
