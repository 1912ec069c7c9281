//! The coordinator's view of every registered node — one node map behind
//! one incrementally maintained capacity index.
//!
//! Built from registration inventories and refreshed by heartbeats, the
//! directory answers the placement question ("which node could run this
//! job right now?") and the failure detector's ("whose heartbeat is
//! stale?").
//!
//! Placement never rescans the world: every mutation (registration,
//! heartbeat, reservation, release, liveness change) updates the
//! `CapacityIndex` in place, and the read surface walks its two ordered
//! views (by capacity class, by heartbeat recency). The round-robin walk
//! prunes by free-VRAM bucket and compute capability and its caller
//! verifies each surviving node exactly, so its answers are identical to a
//! brute-force scan at a fraction of the cost.

mod entry;
mod index;

pub use entry::{NodeEntry, NodeLiveness};

use gpunion_des::{SimDuration, SimTime};
use gpunion_protocol::{DispatchSpec, GpuInfo, GpuStat, JobId, NodeUid};
use index::CapacityIndex;
pub(crate) use index::ClassFloor;
use std::collections::HashMap;
use std::ops::Bound;

/// The node directory.
///
/// Registration identity (machine-id → uid) is kept across
/// re-registrations: a returning machine keeps its uid, which is what the
/// paper's migrate-back depends on.
#[derive(Debug, Default)]
pub struct Directory {
    /// Indexed by uid: `register` hands uids out from a counter and never
    /// frees one, so entry `i` is node `NodeUid(i)` and iteration is in uid
    /// order.
    nodes: Vec<NodeEntry>,
    /// `nodes[i].liveness`, one byte a node: the inbox's shed test reads a
    /// heartbeat's liveness before it takes a turn — most of them are then
    /// shed — and this is a read of a 10 kB table where the entry is a
    /// 176-byte record. Written wherever liveness changes: `register`,
    /// `apply_heartbeat`, `set_liveness`.
    liveness: Vec<NodeLiveness>,
    /// The incremental index over those nodes.
    index: CapacityIndex,
    by_machine: HashMap<String, NodeUid>,
}

impl Directory {
    /// Empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or re-register) a machine. A known machine id keeps its
    /// uid — the paper's migrate-back depends on recognizing returners.
    /// Returns `(uid, is_returning)`.
    pub fn register(
        &mut self,
        machine_id: &str,
        hostname: &str,
        gpus: Vec<GpuInfo>,
        now: SimTime,
    ) -> (NodeUid, bool) {
        let known = self.by_machine.get(machine_id).copied();
        let uid = known.unwrap_or(NodeUid(self.nodes.len() as u64));
        let entry = NodeEntry::new(uid, machine_id.to_string(), hostname.to_string(), gpus, now);
        self.index.refresh(&entry);
        match known {
            // Returning provider: a fresh entry with the new inventory.
            Some(_) => {
                self.nodes[uid.slot()] = entry;
                self.liveness[uid.slot()] = NodeLiveness::Active;
            }
            None => {
                self.by_machine.insert(machine_id.to_string(), uid);
                self.nodes.push(entry);
                self.liveness.push(NodeLiveness::Active);
            }
        }
        (uid, known.is_some())
    }

    /// Entry by uid.
    pub fn get(&self, uid: NodeUid) -> Option<&NodeEntry> {
        self.nodes.get(uid.slot())
    }

    /// A node's liveness — `get(uid).map(NodeEntry::liveness)` without
    /// touching the entry.
    pub fn liveness(&self, uid: NodeUid) -> Option<NodeLiveness> {
        self.liveness.get(uid.slot()).copied()
    }

    /// Apply a heartbeat's telemetry. Returns false for unknown nodes.
    pub fn apply_heartbeat(
        &mut self,
        uid: NodeUid,
        now: SimTime,
        seq: u64,
        accepting: bool,
        stats: &[GpuStat],
    ) -> bool {
        let Some(e) = self.nodes.get_mut(uid.slot()) else {
            return false;
        };
        e.apply_heartbeat(now, seq, accepting, stats);
        self.liveness[uid.slot()] = e.liveness;
        self.index.refresh(e);
        true
    }

    /// Reserve capacity on a node for an in-flight offer (idempotent per
    /// job — re-reserving replaces the old reservation). Returns false if
    /// the node is unknown or could not cover all `gpus` slots (callers
    /// should release or avoid relying on a partial hold).
    pub fn reserve(
        &mut self,
        uid: NodeUid,
        job: JobId,
        gpus: u8,
        mem: u64,
        min_cc: Option<(u8, u8)>,
    ) -> bool {
        let Some(e) = self.nodes.get_mut(uid.slot()) else {
            return false;
        };
        let complete = e.reserve(job, gpus, mem, min_cc);
        self.index.refresh(e);
        complete
    }

    /// Release a job's reservation (offer rejected, job finished, node
    /// lost). No-op when none exists.
    pub fn release(&mut self, uid: NodeUid, job: JobId) {
        if let Some(e) = self.nodes.get_mut(uid.slot()) {
            e.release(job);
            self.index.refresh(e);
        }
    }

    /// Transition a node's liveness. Returns the previous liveness.
    pub fn set_liveness(&mut self, uid: NodeUid, liveness: NodeLiveness) -> Option<NodeLiveness> {
        let e = self.nodes.get_mut(uid.slot())?;
        let prev = e.liveness;
        e.liveness = liveness;
        self.liveness[uid.slot()] = liveness;
        self.index.refresh(e);
        Some(prev)
    }

    /// All entries, uid order.
    pub fn iter(&self) -> impl Iterator<Item = &NodeEntry> {
        self.nodes.iter()
    }

    /// Registered node count.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Is the directory empty?
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Is `uid` Active and able to host `spec`? (Preferred-node fast path.)
    pub fn is_candidate(&self, uid: NodeUid, spec: &DispatchSpec) -> bool {
        self.get(uid)
            .map(|e| e.liveness() == NodeLiveness::Active && e.eligible_for(spec))
            .unwrap_or(false)
    }

    /// [`Self::is_candidate`] for a job that may itself hold a reservation
    /// on `uid` (migrate-back home hold): the job's own held capacity
    /// counts as free, without mutating the directory.
    pub fn is_candidate_for_holder(&self, uid: NodeUid, spec: &DispatchSpec, job: JobId) -> bool {
        self.get(uid)
            .map(|e| e.liveness() == NodeLiveness::Active && e.eligible_for_holder(spec, job))
            .unwrap_or(false)
    }

    /// Nodes whose last heartbeat is older than `timeout`, among live ones.
    /// A range scan over the heartbeat-recency view — O(log n + stale), in
    /// (heartbeat, uid) order.
    pub fn stale_nodes(&self, now: SimTime, timeout: SimDuration) -> Vec<NodeUid> {
        let Some(cutoff) = now.checked_sub(timeout) else {
            return Vec::new();
        };
        self.index
            .heartbeat_stream(cutoff)
            .map(|(_, uid)| uid)
            .collect()
    }

    // ---- the round-robin walk ------------------------------------------

    /// Active uids starting at `cursor`, wrapping around once — the
    /// round-robin scan order, read off the node map without the index.
    /// This is the reference enumeration the class-filtered pick path
    /// (`Selector::pick` over [`Self::round_robin_candidates`]) is proven
    /// equivalent to; the equivalence tests walk it directly.
    #[cfg(test)]
    pub(crate) fn round_robin_from(&self, cursor: NodeUid) -> impl Iterator<Item = NodeUid> + '_ {
        let (before, from) = self.nodes.split_at(cursor.slot().min(self.nodes.len()));
        from.iter()
            .chain(before)
            .filter(|e| e.liveness() == NodeLiveness::Active)
            .map(|e| e.uid)
    }

    /// The round-robin walk: members of the classes `floor` admits, in uid
    /// order over `[cursor, ∞)` then `[0, cursor)` — a superset, in
    /// [`Self::round_robin_from`] order, of the nodes that can host a spec
    /// with that floor. Each step is one `first_candidate_in` strictly
    /// after the previous uid, so the walk holds no state a mutation could
    /// stale, allocates nothing (pinned by `tests/alloc.rs`), and on a
    /// fleet where no class can serve the floor costs O(classes) set
    /// lookups and yields nothing.
    pub(crate) fn round_robin_candidates(
        &self,
        floor: ClassFloor,
        cursor: NodeUid,
    ) -> impl Iterator<Item = NodeUid> + '_ {
        let segment = move |mut lo: Bound<NodeUid>, hi: Bound<NodeUid>| {
            std::iter::from_fn(move || {
                let uid = self.index.first_candidate_in(floor, (lo, hi))?;
                lo = Bound::Excluded(uid);
                Some(uid)
            })
        };
        segment(Bound::Included(cursor), Bound::Unbounded)
            .chain(segment(Bound::Unbounded, Bound::Excluded(cursor)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpunion_gpu::GpuModel;
    use gpunion_protocol::{ExecMode, UserId};

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn gpus(n: usize, model: GpuModel) -> Vec<GpuInfo> {
        (0..n).map(|_| model.into()).collect()
    }

    fn spec(mem: u64, gpus: u8, min_cc: Option<(u8, u8)>) -> DispatchSpec {
        DispatchSpec {
            job: JobId(1),
            image_repo: "r".into(),
            image_tag: "t".into(),
            image_digest: [0; 32],
            gpus,
            gpu_mem_bytes: mem,
            min_cc,
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

    /// The ground truth the index must match.
    fn brute_force(d: &Directory, s: &DispatchSpec) -> Vec<NodeUid> {
        let mut v: Vec<NodeUid> = d
            .iter()
            .filter(|e| e.liveness() == NodeLiveness::Active)
            .filter(|e| e.eligible_for(s))
            .map(|e| e.uid)
            .collect();
        v.sort();
        v
    }

    /// Every node the round-robin walk finds for `s`, verified as a pick
    /// verifies it, in uid order (the walk from uid 0 yields uid order).
    fn indexed(d: &Directory, s: &DispatchSpec) -> Vec<NodeUid> {
        d.round_robin_candidates(ClassFloor::of(s), NodeUid(0))
            .filter(|uid| d.is_candidate(*uid, s))
            .collect()
    }

    #[test]
    fn register_assigns_and_reuses_uids() {
        let mut d = Directory::new();
        let (a, ret) = d.register("m-1", "ws-1", gpus(1, GpuModel::Rtx3090), t(0));
        assert!(!ret);
        let (b, _) = d.register("m-2", "ws-2", gpus(1, GpuModel::Rtx3090), t(0));
        assert_ne!(a, b);
        // Same machine returns: same uid, flagged as returning.
        let (a2, ret) = d.register("m-1", "ws-1", gpus(1, GpuModel::Rtx3090), t(100));
        assert_eq!(a, a2);
        assert!(ret);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn heartbeat_updates_free_memory() {
        let mut d = Directory::new();
        let (uid, _) = d.register("m-1", "x", gpus(2, GpuModel::Rtx3090), t(0));
        let stats = vec![
            GpuStat {
                memory_used: 20 << 30,
                memory_total: 24 << 30,
                utilization: 0.9,
                temperature_c: 70.0,
                power_w: 300.0,
            },
            GpuStat {
                memory_used: 0,
                memory_total: 24 << 30,
                utilization: 0.0,
                temperature_c: 30.0,
                power_w: 25.0,
            },
        ];
        assert!(d.apply_heartbeat(uid, t(5), 1, true, &stats));
        let e = d.get(uid).unwrap();
        assert_eq!(e.eligible_gpus(8 << 30, None), 1);
        assert_eq!(e.eligible_gpus(1 << 30, None), 2);
        assert!(!d.apply_heartbeat(NodeUid(99), t(5), 1, true, &stats));
    }

    #[test]
    fn cc_constraint_filters() {
        let mut d = Directory::new();
        let (uid, _) = d.register("m-1", "x", gpus(1, GpuModel::A100_40), t(0));
        let e = d.get(uid).unwrap();
        assert_eq!(e.eligible_gpus(1, Some((8, 0))), 1);
        assert_eq!(e.eligible_gpus(1, Some((8, 6))), 0, "A100 is CC 8.0");
        // The index agrees on both queries.
        assert_eq!(indexed(&d, &spec(1, 1, Some((8, 0)))), vec![uid]);
        assert!(indexed(&d, &spec(1, 1, Some((8, 6)))).is_empty());
    }

    #[test]
    fn reservations_reduce_capacity_and_release() {
        let mut d = Directory::new();
        let (uid, _) = d.register("m-1", "x", gpus(1, GpuModel::Rtx3090), t(0));
        d.reserve(uid, JobId(1), 1, 20 << 30, None);
        assert_eq!(d.get(uid).unwrap().eligible_gpus(10 << 30, None), 0);
        assert!(indexed(&d, &spec(10 << 30, 1, None)).is_empty());
        d.release(uid, JobId(1));
        assert_eq!(d.get(uid).unwrap().eligible_gpus(10 << 30, None), 1);
        assert_eq!(indexed(&d, &spec(10 << 30, 1, None)), vec![uid]);
        // Double release is harmless.
        d.release(uid, JobId(1));
        assert_eq!(d.get(uid).unwrap().eligible_gpus(10 << 30, None), 1);
    }

    #[test]
    fn partial_reservation_release_cannot_strip_a_sibling_hold() {
        // One 24 GB GPU; two 16 GB holds. The second can't be satisfied —
        // its release must not dismantle the first hold's reservation.
        let mut d = Directory::new();
        let (uid, _) = d.register("m-1", "x", gpus(1, GpuModel::Rtx3090), t(0));
        assert!(
            d.reserve(uid, JobId(1), 1, 16 << 30, None),
            "first hold fits"
        );
        assert!(
            !d.reserve(uid, JobId(2), 1, 16 << 30, None),
            "second cannot"
        );
        d.release(uid, JobId(2));
        // Job 1's hold still stands: only 8 GB effectively free.
        assert_eq!(d.get(uid).unwrap().max_slot_free(), 8 << 30);
        assert!(indexed(&d, &spec(16 << 30, 1, None)).is_empty());
        d.release(uid, JobId(1));
        assert_eq!(d.get(uid).unwrap().max_slot_free(), 24 << 30);
    }

    #[test]
    fn re_reserving_a_job_is_idempotent() {
        let mut d = Directory::new();
        let (uid, _) = d.register("m-1", "x", gpus(1, GpuModel::Rtx3090), t(0));
        d.reserve(uid, JobId(1), 1, 8 << 30, None);
        d.reserve(uid, JobId(1), 1, 8 << 30, None);
        // One release restores everything: no double-counted slot bytes.
        d.release(uid, JobId(1));
        assert_eq!(d.get(uid).unwrap().max_slot_free(), 24 << 30);
    }

    #[test]
    fn stale_detection() {
        let mut d = Directory::new();
        let (a, _) = d.register("m-1", "x", gpus(1, GpuModel::Rtx3090), t(0));
        let (b, _) = d.register("m-2", "y", gpus(1, GpuModel::Rtx3090), t(0));
        d.apply_heartbeat(a, t(100), 1, true, &[]);
        // b never heartbeats after registration at t=0; a is 12 s fresh.
        let stale = d.stale_nodes(t(112), SimDuration::from_secs(15));
        assert_eq!(stale, vec![b]);
        // Early in the run nothing can be stale (no underflow).
        assert!(d.stale_nodes(t(5), SimDuration::from_secs(15)).is_empty());
        // Offline nodes leave the staleness view.
        d.set_liveness(b, NodeLiveness::Offline);
        assert!(d.stale_nodes(t(112), SimDuration::from_secs(15)).is_empty());
    }

    #[test]
    fn liveness_gates_candidacy() {
        let mut d = Directory::new();
        let (uid, _) = d.register("m-1", "x", gpus(1, GpuModel::Rtx3090), t(0));
        let s = spec(1 << 30, 1, None);
        assert!(d.is_candidate(uid, &s));
        assert_eq!(
            d.set_liveness(uid, NodeLiveness::Paused),
            Some(NodeLiveness::Active)
        );
        assert!(!d.is_candidate(uid, &s));
        assert!(indexed(&d, &s).is_empty());
        d.set_liveness(uid, NodeLiveness::Active);
        assert_eq!(indexed(&d, &s), vec![uid]);
    }

    #[test]
    fn candidates_match_brute_force_on_heterogeneous_fleet() {
        let mut d = Directory::new();
        let models = [
            GpuModel::Rtx3090,
            GpuModel::Rtx4090,
            GpuModel::A100_40,
            GpuModel::A100_80,
            GpuModel::A6000,
        ];
        for (i, m) in models.iter().cycle().take(25).enumerate() {
            d.register(
                &format!("m-{i}"),
                &format!("h-{i}"),
                gpus(1 + i % 3, *m),
                t(0),
            );
        }
        for mem_gb in [1u64, 8, 20, 30, 47, 60, 100] {
            for n_gpus in [1u8, 2, 3] {
                for cc in [None, Some((8, 0)), Some((8, 6)), Some((8, 9)), Some((9, 0))] {
                    let s = spec(mem_gb << 30, n_gpus, cc);
                    assert_eq!(
                        indexed(&d, &s),
                        brute_force(&d, &s),
                        "{mem_gb}GB×{n_gpus} {cc:?}"
                    );
                }
            }
        }
    }

    /// Apply one proptest op tuple to a directory.
    fn apply_op(d: &mut Directory, op: u8, a: u64, b: u64) {
        let models = GpuModel::ALL;
        match op {
            0 => {
                // A returning machine may come back with other hardware.
                let m = models[((a + b / 4) % 5) as usize];
                let n = 1 + (b % 4) as usize;
                d.register(&format!("m-{}", a), "h", gpus(n, m), t(b));
            }
            1 => {
                let stats: Vec<GpuStat> = (0..4)
                    .map(|i| GpuStat {
                        memory_used: (b.wrapping_mul(i + 1) % 48) << 30,
                        memory_total: 48 << 30,
                        utilization: 0.5,
                        temperature_c: 50.0,
                        power_w: 200.0,
                    })
                    .collect();
                d.apply_heartbeat(NodeUid(a), t(b), b, b % 3 != 0, &stats);
            }
            2 => {
                d.reserve(
                    NodeUid(a),
                    JobId(b),
                    1 + (b % 2) as u8,
                    (b % 24) << 30,
                    None,
                );
            }
            3 => d.release(NodeUid(a), JobId(b)),
            _ => {
                let l = match b % 4 {
                    0 => NodeLiveness::Active,
                    1 => NodeLiveness::Paused,
                    2 => NodeLiveness::Departing,
                    _ => NodeLiveness::Offline,
                };
                d.set_liveness(NodeUid(a), l);
            }
        }
    }

    proptest::proptest! {
        /// The round-robin walk, verified per node, must agree with the
        /// brute-force full scan after any interleaving of registrations,
        /// heartbeats, reservations, releases, and liveness flips.
        #[test]
        fn prop_candidates_agree_with_full_scan(
            ops in proptest::collection::vec((0u8..5, 0u64..12, 0u64..48), 1..120),
            mem_gb in 0u64..80,
            want_gpus in 1u8..4,
            cc_minor in proptest::option::of(0u8..10),
        ) {
            let mut d = Directory::new();
            for (op, a, b) in ops {
                apply_op(&mut d, op, a, b);
            }
            let s = spec(mem_gb << 30, want_gpus, cc_minor.map(|m| (8, m)));
            proptest::prop_assert_eq!(indexed(&d, &s), brute_force(&d, &s));
        }

        /// The index moves a node only in the views whose key changed;
        /// after every step of any interleaving — registrations and
        /// re-registrations with other hardware, heartbeats that pause,
        /// resume and revive, reservations, releases, liveness flips — it
        /// must equal the index filed from scratch from the entries: both
        /// views and how each node is filed (the uid table compared
        /// up to trailing empty slots — the rebuild never grew them). And
        /// the uid-indexed node table must stay the map it replaced, and
        /// the liveness table the entries' liveness.
        #[test]
        fn prop_diffed_index_equals_a_rebuild_after_every_step(
            ops in proptest::collection::vec((0u8..5, 0u64..12, 0u64..48), 1..120),
        ) {
            let mut d = Directory::new();
            for (op, a, b) in ops {
                // What a registration (op 0) of this machine must preserve.
                let known = d.by_machine.get(&format!("m-{a}")).copied().filter(|_| op == 0);
                let len = d.len();
                apply_op(&mut d, op, a, b);
                proptest::prop_assert_eq!(&d.index, &CapacityIndex::rebuilt(d.iter()));
                // The table: a known machine comes back to its own slot,
                // a new one takes the next uid, slot `i`
                // holds uid `i`, and a uid never issued has no entry.
                if let Some(uid) = known {
                    proptest::prop_assert_eq!(d.len(), len);
                    let e = d.get(uid).unwrap();
                    proptest::prop_assert_eq!(&e.machine_id, &format!("m-{a}"));
                    proptest::prop_assert_eq!(e.last_heartbeat, t(b));
                } else {
                    proptest::prop_assert_eq!(d.len(), len + usize::from(op == 0));
                }
                for (i, e) in d.iter().enumerate() {
                    proptest::prop_assert_eq!(e.uid, NodeUid(i as u64));
                    proptest::prop_assert_eq!(d.by_machine.get(&e.machine_id), Some(&e.uid));
                    // The liveness table is the entries' liveness.
                    proptest::prop_assert_eq!(d.liveness(e.uid), Some(e.liveness()));
                }
                proptest::prop_assert!(d.liveness(NodeUid(d.len() as u64)).is_none());
                proptest::prop_assert!(d.liveness(NodeUid(u64::MAX)).is_none());
                proptest::prop_assert!(d.get(NodeUid(d.len() as u64)).is_none());
                proptest::prop_assert!(d.get(NodeUid(u64::MAX)).is_none());
                proptest::prop_assert!(!d.apply_heartbeat(NodeUid(u64::MAX), t(b), b, true, &[]));
            }
        }
    }
}
