//! Allocation strategies over the capacity index.
//!
//! §3.2: "The scheduler implements multiple allocation strategies, including
//! distribution for fairness and assignment based on priority for
//! time-sensitive workloads", with "provider reliability predictions" folded
//! into placement (§3.5). Each strategy ranks the eligible nodes for one
//! job; the coordinator dispatches to the first and falls through on
//! rejection.
//!
//! [`Selector::pick`] — the hot path the batched scheduling pass drains
//! jobs through — pops from the directory's ordered views (each a lazy
//! k-way merge of the per-shard capacity indexes, bit-identical to the
//! unsharded order) and verifies each popped node exactly. What a pick
//! costs depends on the strategy and on how full the fleet is:
//!
//! * **Round-robin** (the paper's default) walks uid order over the
//!   members of the capacity classes that could serve the job's shape
//!   (free-VRAM bucket and compute capability at or above the spec's
//!   floor), not over every Active node. On a fleet where most nodes are
//!   eligible a pick is O(shards + log n), amortized over a pass by the
//!   gather buffer. On a **saturated** fleet — many pending jobs, no free
//!   node, the regime a campus short of GPUs lives in — a pick that finds
//!   nothing costs O(shards × classes) set lookups and verifies only the
//!   nodes of the floor bucket itself, instead of walking the fleet once
//!   per pending job.
//! * **Least-loaded** and **fastest-device** pop free-capacity and
//!   device-speed order over *all* Active nodes: near-O(shards) when the
//!   front of the order is eligible, O(fleet) when nothing is.
//! * **Reliability-aware** scores the index's pre-filtered candidate set.
//!
//! [`Selector::rank`] returns the full ordering (diagnostics, tests,
//! embedding loops that want fallbacks) over the same pre-filtered set.

use crate::directory::{ClassFloor, Directory, GatherPos, NodeEntry, RrGather};
use gpunion_protocol::{DispatchSpec, NodeUid};
use serde::{Deserialize, Serialize};

/// Uids gathered per round-robin refill: enough for a whole scheduling
/// pass's picks in one scatter–gather, small enough that a pass with a
/// single placement doesn't over-fetch much.
const RR_GATHER_CHUNK: usize = 32;

/// Selectable allocation strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Strategy {
    /// Rotate through eligible nodes — the paper's default ("a round-robin
    /// scheduler which processes pending resource requests from a priority
    /// queue").
    RoundRobin,
    /// Most free VRAM first (spreads load, helps interactive latency).
    LeastLoaded,
    /// Weight free capacity by the provider's reliability score — long jobs
    /// avoid flaky volunteers.
    ReliabilityAware,
    /// Fastest eligible device first (minimizes training makespan on
    /// heterogeneous fleets).
    FastestDevice,
}

/// Stateful selector (round-robin needs a cursor).
#[derive(Debug)]
pub struct Selector {
    strategy: Strategy,
    /// Round-robin resumes scanning at this uid.
    rr_cursor: NodeUid,
    /// Reusable round-robin scatter–gather buffer: one refill serves many
    /// picks, so a 20-job pass pays the per-shard stream setup once
    /// instead of once per pick.
    gather: RrGather,
}

impl Selector {
    /// New selector.
    pub fn new(strategy: Strategy) -> Self {
        Selector {
            strategy,
            rr_cursor: NodeUid(0),
            gather: RrGather::new(),
        }
    }

    /// Which strategy this selector implements.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    fn eligible<'a>(
        dir: &'a Directory,
        spec: &'a DispatchSpec,
        exclude: &'a [NodeUid],
    ) -> impl Iterator<Item = &'a NodeEntry> + 'a {
        dir.candidates(spec).filter(|e| !exclude.contains(&e.uid))
    }

    fn reliability_score(e: &NodeEntry) -> f64 {
        e.total_free() as f64 * e.reliability.score()
    }

    /// The single best node for `spec`, advancing round-robin state. This
    /// is the scheduling pass's fast path: ordered index views are popped
    /// and verified until one eligible node survives (costs per strategy
    /// in the module docs).
    pub fn pick(
        &mut self,
        dir: &Directory,
        spec: &DispatchSpec,
        exclude: &[NodeUid],
    ) -> Option<NodeUid> {
        let ok = |uid: &NodeUid| !exclude.contains(uid) && dir.is_candidate(*uid, spec);
        match self.strategy {
            Strategy::RoundRobin => {
                let hit = self.rr_pick(dir, ClassFloor::of(spec), ok)?;
                self.rr_cursor = NodeUid(hit.0 + 1);
                Some(hit)
            }
            Strategy::LeastLoaded => dir.by_free_desc().find(ok),
            Strategy::FastestDevice => dir.by_speed_desc().find(ok),
            Strategy::ReliabilityAware => Self::eligible(dir, spec, exclude)
                .max_by(|a, b| {
                    Self::reliability_score(a)
                        .partial_cmp(&Self::reliability_score(b))
                        .unwrap_or(std::cmp::Ordering::Equal)
                        // On equal score prefer the lower uid (rank order).
                        .then(b.uid.cmp(&a.uid))
                })
                .map(|e| e.uid),
        }
    }

    /// Round-robin pick through the scatter–gather buffer: exactly
    /// equivalent to `dir.round_robin_from(cursor).find(ok)` (tested
    /// against it) for any `ok` that only accepts nodes able to host a
    /// spec with class floor `floor`, but it enumerates that floor's
    /// candidates instead of every Active uid, and the per-shard stream
    /// setup is paid once per refill, not once per pick.
    ///
    /// Exactness argument. The buffer holds, in circle order, a suffix of
    /// `circle(origin)` = `[origin, ∞) ++ [0, origin)` restricted to the
    /// members of the classes `floor` admits — a superset of the nodes
    /// `ok` can accept, so skipping the rest skips only rejections. Reuse
    /// is allowed only when (a) the directory's gather epoch is unchanged:
    /// nothing since the fill can have *added* a node to those classes
    /// (membership changes, and capacity growth that lifts a node into a
    /// higher bucket, bump it; a capacity-shrinking reserve can only
    /// remove members, and a removed member still in the buffer is
    /// rejected by `ok`), (b) the buffer was
    /// gathered for the same `floor`, and (c) the pick's cursor is exactly
    /// where consumption stopped (`expected_cursor`). Under those
    /// conditions the remaining enumeration visits every node a fresh
    /// `circle(cursor)` scan could accept, in the same order — except the
    /// part already consumed by earlier picks, which a fresh scan
    /// re-checks (an earlier hit may still have room, and `ok` differs
    /// between picks: another job's exclusions, byte count or GPU count).
    /// So: if a hit occurs before the resumed enumeration runs dry, it is
    /// the fresh scan's hit; if it completes with no hit, the full circle
    /// is restarted at `cursor` — uids re-checked by the restart stay
    /// ineligible because nothing mutates mid-pick — and only a restarted
    /// (fresh-this-pick) scan that comes up dry may conclude `None`.
    ///
    /// Assumes the selector serves one directory for its lifetime (as
    /// the coordinator's does): the epoch clock is per-directory.
    fn rr_pick(
        &mut self,
        dir: &Directory,
        floor: ClassFloor,
        ok: impl Fn(&NodeUid) -> bool,
    ) -> Option<NodeUid> {
        let epoch = dir.gather_epoch();
        let g = &mut self.gather;
        let mut fresh =
            g.epoch != epoch || g.floor != floor || g.expected_cursor != Some(self.rr_cursor);
        if fresh {
            g.reset(epoch, self.rr_cursor, floor);
        }
        loop {
            while let Some(uid) = g.buf.pop_front() {
                if ok(&uid) {
                    g.expected_cursor = Some(NodeUid(uid.0 + 1));
                    return Some(uid);
                }
            }
            if g.pos == GatherPos::Done {
                if !fresh {
                    // The enumeration was partly consumed by earlier
                    // picks, so this pick never saw the full circle.
                    // Restart it at the cursor before concluding None.
                    g.reset(epoch, self.rr_cursor, floor);
                    fresh = true;
                    continue;
                }
                // Whole circle scanned this pick, nothing eligible. The
                // next pick must rescan (`ok` changes between picks).
                g.expected_cursor = None;
                return None;
            }
            dir.fill_round_robin(g, RR_GATHER_CHUNK);
        }
    }

    /// Rank eligible nodes for `spec`, best first. `exclude` lists nodes
    /// that already rejected this job (or just failed). Orders the index's
    /// candidate set without touching ineligible nodes. Like [`Self::pick`]
    /// this counts as a placement turn: under round-robin it advances the
    /// shared cursor, so don't interleave it with `pick` on one selector
    /// expecting the rotation to be unaffected.
    pub fn rank(
        &mut self,
        dir: &Directory,
        spec: &DispatchSpec,
        exclude: &[NodeUid],
    ) -> Vec<NodeUid> {
        let mut nodes: Vec<&NodeEntry> = Self::eligible(dir, spec, exclude).collect();
        match self.strategy {
            Strategy::RoundRobin => {
                // Uid order, starting from the cursor (wrapping).
                nodes.sort_by_key(|e| e.uid);
                let k = nodes.partition_point(|e| e.uid < self.rr_cursor);
                if k < nodes.len() {
                    nodes.rotate_left(k);
                }
                if let Some(front) = nodes.first() {
                    self.rr_cursor = NodeUid(front.uid.0 + 1);
                }
            }
            Strategy::LeastLoaded => {
                nodes.sort_by(|a, b| b.total_free().cmp(&a.total_free()).then(a.uid.cmp(&b.uid)));
            }
            Strategy::ReliabilityAware => {
                nodes.sort_by(|a, b| {
                    Self::reliability_score(b)
                        .partial_cmp(&Self::reliability_score(a))
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.uid.cmp(&b.uid))
                });
            }
            Strategy::FastestDevice => {
                nodes.sort_by(|a, b| {
                    b.best_tflops()
                        .partial_cmp(&a.best_tflops())
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.uid.cmp(&b.uid))
                });
            }
        }
        nodes.into_iter().map(|e| e.uid).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directory::NodeLiveness;
    use gpunion_des::SimTime;
    use gpunion_gpu::GpuModel;
    use gpunion_protocol::{ExecMode, GpuInfo, JobId, UserId};

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn spec(mem_gb: u64) -> DispatchSpec {
        DispatchSpec {
            job: JobId(1),
            image_repo: "r".into(),
            image_tag: "t".into(),
            image_digest: [0; 32],
            gpus: 1,
            gpu_mem_bytes: mem_gb << 30,
            min_cc: None,
            mode: ExecMode::Batch {
                entrypoint: vec!["x".into()],
            },
            checkpoint_interval_secs: 600,
            storage_nodes: vec![],
            state_bytes_hint: 0,
            restore_from_seq: None,
            priority: 1,
            user: UserId::SYSTEM,
        }
    }

    fn three_node_dir() -> (Directory, Vec<NodeUid>) {
        let mut d = Directory::new();
        let mut uids = Vec::new();
        for (i, model) in [GpuModel::Rtx3090, GpuModel::Rtx4090, GpuModel::A6000]
            .iter()
            .enumerate()
        {
            let gpus: Vec<GpuInfo> = vec![(*model).into()];
            let (uid, _) = d.register(&format!("m-{i}"), &format!("h-{i}"), gpus, t(0));
            uids.push(uid);
        }
        (d, uids)
    }

    #[test]
    fn round_robin_rotates() {
        let (d, uids) = three_node_dir();
        let mut sel = Selector::new(Strategy::RoundRobin);
        let first: Vec<NodeUid> = (0..3).map(|_| sel.rank(&d, &spec(4), &[])[0]).collect();
        assert_eq!(first, uids, "each pass starts at the next node");
        // The cursor wraps back around.
        assert_eq!(sel.rank(&d, &spec(4), &[])[0], uids[0]);
    }

    #[test]
    fn pick_matches_rank_front_for_every_strategy() {
        for strategy in [
            Strategy::RoundRobin,
            Strategy::LeastLoaded,
            Strategy::ReliabilityAware,
            Strategy::FastestDevice,
        ] {
            let (mut d, uids) = three_node_dir();
            d.reserve(uids[2], JobId(9), 1, 40 << 30, None);
            d.record_interruption(uids[1], t(9_000));
            // Two independent selectors must agree pick == rank[0].
            let mut a = Selector::new(strategy);
            let mut b = Selector::new(strategy);
            for round in 0..4 {
                let ranked = a.rank(&d, &spec(4), &[]);
                let picked = b.pick(&d, &spec(4), &[]);
                assert_eq!(
                    picked,
                    ranked.first().copied(),
                    "{strategy:?} round {round}"
                );
            }
        }
    }

    #[test]
    fn least_loaded_prefers_free_vram() {
        let (mut d, uids) = three_node_dir();
        // Reserve most of node 2 (A6000, 48 GB): big but busy.
        d.reserve(uids[2], JobId(9), 1, 40 << 30, None);
        let mut sel = Selector::new(Strategy::LeastLoaded);
        let ranked = sel.rank(&d, &spec(4), &[]);
        // 3090/4090 both 24 GB free > A6000's 8 GB remaining.
        assert_eq!(*ranked.last().unwrap(), uids[2]);
    }

    #[test]
    fn reliability_aware_penalizes_flaky() {
        let (mut d, uids) = three_node_dir();
        // Node 1 (4090) interrupts constantly.
        for day in 1..6 {
            d.record_interruption(uids[1], t(day * 10_000));
        }
        let mut sel = Selector::new(Strategy::ReliabilityAware);
        let ranked = sel.rank(&d, &spec(4), &[]);
        assert_eq!(*ranked.last().unwrap(), uids[1], "flaky node ranked last");
    }

    #[test]
    fn fastest_device_prefers_4090() {
        let (d, uids) = three_node_dir();
        let mut sel = Selector::new(Strategy::FastestDevice);
        let ranked = sel.rank(&d, &spec(4), &[]);
        assert_eq!(ranked[0], uids[1], "RTX 4090 has the highest TFLOPS");
        let mut sel = Selector::new(Strategy::FastestDevice);
        assert_eq!(sel.pick(&d, &spec(4), &[]), Some(uids[1]));
    }

    #[test]
    fn exclusion_and_capacity_filters() {
        let (d, uids) = three_node_dir();
        let mut sel = Selector::new(Strategy::LeastLoaded);
        // 30 GB only fits the A6000.
        let ranked = sel.rank(&d, &spec(30), &[]);
        assert_eq!(ranked, vec![uids[2]]);
        // Excluding it leaves nothing.
        let ranked = sel.rank(&d, &spec(30), &[uids[2]]);
        assert!(ranked.is_empty());
        assert_eq!(sel.pick(&d, &spec(30), &[uids[2]]), None);
    }

    #[test]
    fn paused_and_offline_nodes_excluded() {
        let (mut d, uids) = three_node_dir();
        d.set_liveness(uids[0], NodeLiveness::Paused);
        d.set_liveness(uids[1], NodeLiveness::Offline);
        let mut sel = Selector::new(Strategy::RoundRobin);
        let ranked = sel.rank(&d, &spec(4), &[]);
        assert_eq!(ranked, vec![uids[2]]);
    }

    #[test]
    fn round_robin_pick_spreads_across_the_fleet() {
        let (d, uids) = three_node_dir();
        let mut sel = Selector::new(Strategy::RoundRobin);
        let picks: Vec<NodeUid> = (0..6).filter_map(|_| sel.pick(&d, &spec(4), &[])).collect();
        assert_eq!(picks, [&uids[..], &uids[..]].concat(), "wraps twice");
    }

    /// `n` single-3090 nodes (24 GB each), uids `0..n`.
    fn uniform_dir(n: usize, shards: usize) -> Directory {
        let mut d = Directory::with_shards(shards);
        for i in 0..n {
            let gpus: Vec<GpuInfo> = vec![GpuModel::Rtx3090.into()];
            d.register(&format!("m-{i}"), "h", gpus, t(0));
        }
        d
    }

    /// The requalify hazard of a class-filtered buffer: a release moves a
    /// node into a qualifying class *ahead of* the buffer's position, so a
    /// resumed enumeration would never see it.
    #[test]
    fn released_node_inside_the_buffered_span_is_not_skipped() {
        let mut d = uniform_dir(3, 1);
        d.reserve(NodeUid(1), JobId(9), 1, 20 << 30, None);
        let mut sel = Selector::new(Strategy::RoundRobin);
        // Node 1 has 4 GB free: outside every class a 16 GB job can use,
        // so the gather buffers [0, 2] and this pick consumes 0.
        assert_eq!(sel.pick(&d, &spec(16), &[]), Some(NodeUid(0)));
        d.release(NodeUid(1), JobId(9));
        assert_eq!(
            sel.pick(&d, &spec(16), &[]),
            d.round_robin_from(NodeUid(1))
                .find(|u| d.is_candidate(*u, &spec(16))),
        );
        assert_eq!(sel.rr_cursor, NodeUid(2), "landed on the released node 1");
    }

    #[test]
    fn failing_pick_leaves_cursor_and_next_pick_exact() {
        let mut d = uniform_dir(8, 4);
        let mut sel = Selector::new(Strategy::RoundRobin);
        for _ in 0..3 {
            sel.pick(&d, &spec(4), &[]).expect("idle fleet");
        }
        assert_eq!(sel.rr_cursor, NodeUid(3));
        for uid in 0..8 {
            d.reserve(NodeUid(uid), JobId(100 + uid), 1, 20 << 30, None);
        }
        for _ in 0..5 {
            assert_eq!(sel.pick(&d, &spec(16), &[]), None, "saturated");
            assert_eq!(sel.rr_cursor, NodeUid(3), "a None pick is not a turn");
        }
        // One release behind the cursor: the wrap-around must find it.
        d.release(NodeUid(1), JobId(101));
        assert_eq!(sel.pick(&d, &spec(16), &[]), Some(NodeUid(1)));
        assert_eq!(sel.rr_cursor, NodeUid(2));
    }

    /// A failing pick asks the capacity classes, not every node: on a
    /// saturated 400-node fleet it verifies only the few nodes that share
    /// the spec's floor bucket without fitting it.
    #[test]
    fn failing_pick_on_a_saturated_fleet_verifies_a_handful_of_nodes() {
        let mut d = uniform_dir(400, 16);
        for uid in 0..400u64 {
            // Five nodes keep 17 GB free (the 20 GB job's own bucket, yet
            // too small); the rest keep 4 GB.
            let held = if uid % 80 == 3 { 7 } else { 20 };
            d.reserve(NodeUid(uid), JobId(uid), 1, held << 30, None);
        }
        let s = spec(20);
        let mut sel = Selector::new(Strategy::RoundRobin);
        let verified = std::cell::Cell::new(0usize);
        let ok = |uid: &NodeUid| {
            verified.set(verified.get() + 1);
            d.is_candidate(*uid, &s)
        };
        assert_eq!(sel.rr_pick(&d, ClassFloor::of(&s), ok), None);
        assert!(
            verified.get() <= 8,
            "a failing pick verified {} of 400 nodes",
            verified.get()
        );
        assert_eq!(verified.get(), 5, "exactly the floor bucket's members");
    }

    /// A pick-turn spec drawn from few class floors (3 byte counts in 3
    /// buckets × 2 compute capabilities) so consecutive picks often share
    /// one and the gather buffer really is reused; GPU count varies inside
    /// a floor.
    fn floor_spec(b: u64) -> DispatchSpec {
        let mut s = spec([4, 12, 20][(b % 3) as usize]);
        s.min_cc = [None, Some((8, 6))][(b / 3 % 2) as usize];
        s.gpus = 1 + (b / 6 % 2) as u8;
        s
    }

    proptest::proptest! {
        /// The gather-buffered, class-filtered round-robin pick is
        /// *exactly* the fresh enumeration
        /// `round_robin_from(cursor).find(ok)` over every Active uid,
        /// under any interleaving of picks with membership mutations
        /// (register, liveness flips) and capacity mutations (reserve,
        /// re-reserve, release) — the cases the epoch clock, the floor
        /// and `expected_cursor` checks, and the Done-restart rule each
        /// exist for — on an idle fleet and then on a saturated one
        /// (everything reserved, every pick on one class floor so each
        /// resumes the last one's buffer, mostly `None`, with staggered
        /// releases and shrunk holds freeing nodes between them).
        #[test]
        fn prop_gathered_pick_matches_fresh_enumeration(
            actions in proptest::collection::vec((0u8..10, 0u64..10, 0u64..32), 1..100),
            saturated in proptest::collection::vec((0u8..4, 0u64..10, 0u64..32), 0..80),
            sat_floor in 0u64..6,
            shards in 1usize..9,
        ) {
            let mut d = Directory::with_shards(shards);
            let mut sel = Selector::new(Strategy::RoundRobin);
            let mut cursor = NodeUid(0); // reference's mirror of rr_cursor
            let mut next_job = 10_000u64; // placements: never a re-reserve
            // One pick turn checked against the reference; `place` follows
            // a hit with the pass's capacity-shrinking reserve, which must
            // not invalidate the gather.
            let mut pick_turn = |d: &mut Directory, b: u64, place: bool| {
                let s = floor_spec(b);
                let want = d
                    .round_robin_from(cursor)
                    .find(|uid| d.is_candidate(*uid, &s));
                let got = sel.pick(d, &s, &[]);
                proptest::prop_assert_eq!(got, want, "pick at cursor {:?}", cursor);
                if let Some(hit) = want {
                    cursor = NodeUid(hit.0 + 1);
                    if place {
                        next_job += 1;
                        d.reserve(hit, JobId(next_job), s.gpus, s.gpu_mem_bytes, s.min_cc);
                    }
                }
            };
            for (kind, a, b) in actions {
                match kind {
                    0 | 1 => {
                        let model = GpuModel::ALL[(a % 5) as usize];
                        let gpus: Vec<GpuInfo> = vec![model.into(); 1 + (b % 2) as usize];
                        d.register(&format!("m-{a}"), "h", gpus, t(b));
                    }
                    2 => {
                        d.reserve(NodeUid(a), JobId(b % 4), 1 + (b % 2) as u8, (b % 24) << 30, None);
                    }
                    3 => d.release(NodeUid(a), JobId(b % 4)),
                    4 => {
                        let l = match b % 4 {
                            0 => NodeLiveness::Active,
                            1 => NodeLiveness::Paused,
                            2 => NodeLiveness::Departing,
                            _ => NodeLiveness::Offline,
                        };
                        d.set_liveness(NodeUid(a), l);
                    }
                    _ => pick_turn(&mut d, b, a % 2 == 0),
                }
            }
            // Saturate: 20 GB holds on every slot until none has 20 GB left.
            for uid in 0..d.len() as u64 {
                for k in 0..4 {
                    d.reserve(NodeUid(uid), JobId(1_000 + uid * 4 + k), 2, 20 << 30, None);
                }
            }
            for (kind, a, b) in saturated {
                let hold = JobId(1_000 + a * 4 + b % 4);
                match kind {
                    0 => d.release(NodeUid(a), hold),
                    1 => {
                        d.reserve(NodeUid(a), hold, 1, 2 << 30, None);
                    }
                    _ => pick_turn(&mut d, sat_floor + 6 * (b % 2), kind == 2),
                }
            }
        }
    }
}
