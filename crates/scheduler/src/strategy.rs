//! Round-robin placement over the capacity index.
//!
//! §3.5: the allocator is "a round-robin scheduler which processes pending
//! resource requests from a priority queue". [`Selector::pick`] — the hot
//! path the batched scheduling pass drains jobs through — walks uid order
//! from a cursor over the members of the capacity classes that could serve
//! the job's shape (free-VRAM bucket and compute capability at or above the
//! spec's floor), not over every Active node, and verifies each walked node
//! exactly.
//!
//! On a fleet where most nodes are eligible a pick is O(classes · log n)
//! per candidate it examines. On a **saturated** fleet — many pending jobs,
//! no free node, the regime a campus short of GPUs lives in — a pick that
//! finds nothing costs O(classes) set lookups and verifies only the nodes
//! of the floor bucket itself, instead of walking the fleet once per
//! pending job.

use crate::directory::{ClassFloor, Directory};
use gpunion_protocol::{DispatchSpec, NodeUid};

/// The round-robin selector: a cursor the next walk starts at.
#[derive(Debug)]
pub struct Selector {
    /// Round-robin resumes scanning at this uid.
    rr_cursor: NodeUid,
}

impl Default for Selector {
    fn default() -> Self {
        Selector {
            rr_cursor: NodeUid(0),
        }
    }
}

impl Selector {
    /// The next node in round-robin order that can host `spec` and is not
    /// in `exclude`; a hit advances the cursor past it, a miss leaves it.
    pub fn pick(
        &mut self,
        dir: &Directory,
        spec: &DispatchSpec,
        exclude: &[NodeUid],
    ) -> Option<NodeUid> {
        // Exactly `dir.round_robin_from(cursor).find(ok)` (tested against
        // it): the walk skips only nodes outside the classes that could
        // host `spec`, which `ok` rejects.
        let hit = dir
            .round_robin_candidates(ClassFloor::of(spec), self.rr_cursor)
            .find(|uid| !exclude.contains(uid) && dir.is_candidate(*uid, spec))?;
        self.rr_cursor = NodeUid(hit.0 + 1);
        Some(hit)
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

    /// The rotation skips a node that cannot host the job, and a node that
    /// frees up rejoins it at its place in uid order.
    #[test]
    fn round_robin_rotates() {
        let (mut d, uids) = three_node_dir();
        // 2 GB left on the 4090: too little for a 4 GB job.
        d.reserve(uids[1], JobId(9), 1, 22 << 30, None);
        let mut sel = Selector::default();
        let picks: Vec<_> = (0..3).map(|_| sel.pick(&d, &spec(4), &[])).collect();
        assert_eq!(picks, [Some(uids[0]), Some(uids[2]), Some(uids[0])]);
        d.release(uids[1], JobId(9));
        assert_eq!(sel.pick(&d, &spec(4), &[]), Some(uids[1]));
    }

    #[test]
    fn exclusion_and_capacity_filters() {
        let (d, uids) = three_node_dir();
        let mut sel = Selector::default();
        // 30 GB only fits the A6000, wherever the cursor stands.
        for _ in 0..3 {
            assert_eq!(sel.pick(&d, &spec(30), &[]), Some(uids[2]));
        }
        // Excluding it leaves nothing.
        assert_eq!(sel.pick(&d, &spec(30), &[uids[2]]), None);
        // An excluded node is passed over, not the end of the walk.
        assert_eq!(sel.pick(&d, &spec(4), &[uids[0]]), Some(uids[1]));
    }

    #[test]
    fn paused_and_offline_nodes_excluded() {
        let (mut d, uids) = three_node_dir();
        d.set_liveness(uids[0], NodeLiveness::Paused);
        d.set_liveness(uids[1], NodeLiveness::Offline);
        let mut sel = Selector::default();
        for _ in 0..2 {
            assert_eq!(sel.pick(&d, &spec(4), &[]), Some(uids[2]));
        }
    }

    #[test]
    fn round_robin_pick_spreads_across_the_fleet() {
        let (d, uids) = three_node_dir();
        let mut sel = Selector::default();
        let picks: Vec<NodeUid> = (0..6).filter_map(|_| sel.pick(&d, &spec(4), &[])).collect();
        assert_eq!(picks, [&uids[..], &uids[..]].concat(), "wraps twice");
    }

    /// `n` single-3090 nodes (24 GB each), uids `0..n`.
    fn uniform_dir(n: usize) -> Directory {
        let mut d = Directory::new();
        for i in 0..n {
            let gpus: Vec<GpuInfo> = vec![GpuModel::Rtx3090.into()];
            d.register(&format!("m-{i}"), "h", gpus, t(0));
        }
        d
    }

    /// A release between two picks moves a node into a qualifying class
    /// just past the cursor: the next pick's walk must see it.
    #[test]
    fn released_node_inside_the_buffered_span_is_not_skipped() {
        let mut d = uniform_dir(3);
        d.reserve(NodeUid(1), JobId(9), 1, 20 << 30, None);
        let mut sel = Selector::default();
        // Node 1 has 4 GB free: outside every class a 16 GB job can use,
        // so this pick's walk is [0, 2] and it takes 0.
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
        let mut d = uniform_dir(8);
        let mut sel = Selector::default();
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
        let mut d = uniform_dir(400);
        for uid in 0..400u64 {
            // Five nodes keep 17 GB free (the 20 GB job's own bucket, yet
            // too small); the rest keep 4 GB.
            let held = if uid % 80 == 3 { 7 } else { 20 };
            d.reserve(NodeUid(uid), JobId(uid), 1, held << 30, None);
        }
        let s = spec(20);
        assert_eq!(Selector::default().pick(&d, &s, &[]), None);
        let walked = d
            .round_robin_candidates(ClassFloor::of(&s), NodeUid(0))
            .count();
        assert_eq!(walked, 5, "exactly the floor bucket's members, of 400");
    }

    /// A pick-turn spec drawn from few class floors (3 byte counts in 3
    /// buckets × 2 compute capabilities) so consecutive picks often share
    /// one; GPU count varies inside a floor.
    fn floor_spec(b: u64) -> DispatchSpec {
        let mut s = spec([4, 12, 20][(b % 3) as usize]);
        s.min_cc = [None, Some((8, 6))][(b / 3 % 2) as usize];
        s.gpus = 1 + (b / 6 % 2) as u8;
        s
    }

    proptest::proptest! {
        /// The class-filtered round-robin pick is *exactly* the fresh
        /// enumeration `round_robin_from(cursor).find(ok)` over every
        /// Active uid, under any interleaving of picks with membership
        /// mutations (register, liveness flips) and capacity mutations
        /// (reserve, re-reserve, release) — on an idle fleet and then on
        /// a saturated one (everything reserved, every pick on one class
        /// floor, mostly `None`, with staggered releases and shrunk holds
        /// freeing nodes between them).
        #[test]
        fn prop_round_robin_pick_matches_fresh_enumeration(
            actions in proptest::collection::vec((0u8..10, 0u64..10, 0u64..32), 1..100),
            saturated in proptest::collection::vec((0u8..4, 0u64..10, 0u64..32), 0..80),
            sat_floor in 0u64..6,
        ) {
            let mut d = Directory::new();
            let mut sel = Selector::default();
            let mut cursor = NodeUid(0); // reference's mirror of rr_cursor
            let mut next_job = 10_000u64; // placements: never a re-reserve
            // One pick turn checked against the reference; `place` follows
            // a hit with the pass's capacity-shrinking reserve.
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
