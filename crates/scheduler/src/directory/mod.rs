//! The coordinator's view of every registered node — a directory sharded
//! by node uid, each shard behind its own incrementally maintained
//! capacity index.
//!
//! Built from registration inventories and refreshed by heartbeats, the
//! directory answers the placement questions ("which nodes could run this
//! job right now?") and tracks per-provider reliability — the paper's
//! "provider reliability predictions and degradation mechanisms".
//!
//! Placement never rescans the world: every mutation (registration,
//! heartbeat, reservation, release, liveness change) routes to the shard
//! owning the node's uid and updates that shard's
//! `CapacityIndex` in place. The read surface composes shards
//! lazily: each ordered per-shard view (by candidate class, by free VRAM,
//! by device speed, by heartbeat recency) feeds a k-way merge
//! (`KWayMerge`) whose keys embed the node uid, so the merged
//! stream is **bit-identical** to what a single unsharded index would
//! produce (property-tested below across shard counts). The index prunes
//! by free-VRAM bucket / compute capability / GPU speed tier and verifies
//! each surviving node exactly, so its answers are identical to a
//! brute-force scan at a fraction of the cost.
//!
//! At the default `shard_count = 1` the merge degenerates to a
//! single-stream pass-through and the directory behaves exactly like the
//! pre-sharding implementation; larger counts keep every per-shard tree
//! small (cache-resident) as fleets grow past 10⁴ nodes.

mod entry;
mod index;
mod merge;
mod shard;

pub use entry::{NodeEntry, NodeLiveness, Reliability};

use gpunion_des::{SimDuration, SimTime};
use gpunion_protocol::{DispatchSpec, GpuInfo, GpuStat, JobId, NodeUid};
pub(crate) use index::ClassFloor;
use merge::KWayMerge;
pub(crate) use merge::{GatherPos, RrGather};
use shard::Shard;
use std::collections::HashMap;
use std::ops::Bound;

/// The node directory, sharded by node uid.
///
/// N independent `{node map + CapacityIndex}` shards keyed by a hash of
/// the node uid; all mutation methods route to the owning shard, and the
/// ordered read views are lazy k-way merges of the per-shard streams.
/// Registration identity (machine-id → uid) and uid allocation stay
/// global: a machine keeps its uid — and therefore its shard — across
/// re-registrations, which is what lets the coordinator cache a home
/// node's shard affinity in job metadata (DESIGN.md §3b).
#[derive(Debug)]
pub struct ShardedDirectory {
    shards: Vec<Shard>,
    by_machine: HashMap<String, NodeUid>,
    next_uid: u64,
    /// The round-robin gather buffer's invalidation clock: bumped on every
    /// mutation that can *add* a node to some class-filtered view —
    /// membership (register, heartbeat, liveness) and capacity growth that
    /// lifts a node into a higher free-VRAM bucket (a release, a reserve
    /// that replaces a larger hold of the same job). A buffered
    /// enumeration resumed across such a mutation could skip the node it
    /// requalified. Everything else — a capacity-shrinking reserve above
    /// all — only ever takes nodes *out* of a view or leaves them where
    /// they were (the pick re-verifies every uid it pops), so it leaves
    /// the epoch alone: that is what lets one gather survive a whole
    /// scheduling pass's placements.
    views_epoch: u64,
}

/// The directory under its historical name (one shard by default; the
/// coordinator picks the count from its config).
pub type Directory = ShardedDirectory;

impl Default for ShardedDirectory {
    fn default() -> Self {
        Self::with_shards(1)
    }
}

impl ShardedDirectory {
    /// Empty single-shard directory (the pre-sharding behaviour).
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty directory with `shards` independent shards (clamped to ≥ 1).
    pub fn with_shards(shards: usize) -> Self {
        ShardedDirectory {
            shards: (0..shards.max(1)).map(|_| Shard::default()).collect(),
            by_machine: HashMap::new(),
            next_uid: 0,
            views_epoch: 0,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The gather buffer's invalidation clock (see `views_epoch`).
    pub(crate) fn gather_epoch(&self) -> u64 {
        self.views_epoch
    }

    /// The shard owning `uid` — a Fibonacci hash of the uid, so
    /// sequentially assigned uids spread evenly. The coordinator records
    /// this next to a job's preferred home node (shard affinity), letting
    /// the migrate-back fast path read job + home-node state through the
    /// owning shard without re-hashing (see
    /// [`Self::is_candidate_for_holder_on`]).
    pub fn shard_of(&self, uid: NodeUid) -> u32 {
        self.shard_idx(uid) as u32
    }

    #[inline]
    fn shard_idx(&self, uid: NodeUid) -> usize {
        if self.shards.len() == 1 {
            0
        } else {
            (uid.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize % self.shards.len()
        }
    }

    /// Register (or re-register) a machine. A known machine id keeps its
    /// uid — the paper's migrate-back depends on recognizing returners —
    /// and therefore its shard. Returns `(uid, is_returning)`.
    pub fn register(
        &mut self,
        machine_id: &str,
        hostname: &str,
        gpus: Vec<GpuInfo>,
        now: SimTime,
    ) -> (NodeUid, bool) {
        self.views_epoch += 1;
        if let Some(&uid) = self.by_machine.get(machine_id) {
            // Returning provider: refresh inventory, preserve reliability.
            let sh = self.shard_idx(uid);
            let reliability = self.shards[sh]
                .nodes
                .get(&uid)
                .map(|e| e.reliability.clone())
                .unwrap_or(Reliability::new(now));
            let mut entry =
                NodeEntry::new(uid, machine_id.to_string(), hostname.to_string(), gpus, now);
            entry.reliability = reliability;
            self.shards[sh].insert(entry);
            return (uid, true);
        }
        let uid = NodeUid(self.next_uid);
        self.next_uid += 1;
        self.by_machine.insert(machine_id.to_string(), uid);
        let entry = NodeEntry::new(uid, machine_id.to_string(), hostname.to_string(), gpus, now);
        let sh = self.shard_idx(uid);
        self.shards[sh].insert(entry);
        (uid, false)
    }

    /// Entry by uid (routed to the owning shard).
    pub fn get(&self, uid: NodeUid) -> Option<&NodeEntry> {
        self.shards[self.shard_idx(uid)].nodes.get(&uid)
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
        self.views_epoch += 1;
        let sh = self.shard_idx(uid);
        self.shards[sh].apply_heartbeat(uid, now, seq, accepting, stats)
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
        let sh = self.shard_idx(uid);
        let (complete, grew) = self.shards[sh].reserve(uid, job, gpus, mem, min_cc);
        // Re-reserving drops the job's earlier hold first: a smaller new
        // hold can lift the node into a class it was not a member of.
        self.views_epoch += u64::from(grew);
        complete
    }

    /// Release a job's reservation (offer rejected, job finished, node
    /// lost). No-op when none exists. Whether the node rose a bucket
    /// decides the epoch bump.
    pub fn release(&mut self, uid: NodeUid, job: JobId) {
        let sh = self.shard_idx(uid);
        let grew = self.shards[sh].release(uid, job);
        self.views_epoch += u64::from(grew);
    }

    /// Transition a node's liveness. Returns the previous liveness.
    pub fn set_liveness(&mut self, uid: NodeUid, liveness: NodeLiveness) -> Option<NodeLiveness> {
        self.views_epoch += 1;
        let sh = self.shard_idx(uid);
        self.shards[sh].set_liveness(uid, liveness)
    }

    /// Record a provider interruption against a node's reliability stats.
    pub fn record_interruption(&mut self, uid: NodeUid, now: SimTime) {
        let sh = self.shard_idx(uid);
        self.shards[sh].record_interruption(uid, now);
    }

    /// All entries, uid order (k-way merge of the per-shard maps).
    pub fn iter(&self) -> impl Iterator<Item = &NodeEntry> {
        KWayMerge::new(
            self.shards
                .iter()
                .map(|s| s.nodes.iter().map(|(&uid, e)| (uid, e))),
        )
        .map(|(_, e)| e)
    }

    /// Registered node count.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.nodes.len()).sum()
    }

    /// Is the directory empty?
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.nodes.is_empty())
    }

    /// Schedulable (Active) node count, from the shard indexes.
    pub fn schedulable(&self) -> usize {
        self.shards.iter().map(|s| s.index.schedulable()).sum()
    }

    /// Nodes eligible to host `spec` right now: each shard's index prunes
    /// by (free-VRAM bucket, compute capability) class, the merged stream
    /// interleaves shards in global (class desc, uid asc) order — the
    /// unsharded candidate order — and every popped node is verified
    /// exactly. Agrees with a brute-force scan over all Active entries.
    pub fn candidates<'a>(
        &'a self,
        spec: &'a DispatchSpec,
    ) -> impl Iterator<Item = &'a NodeEntry> + 'a {
        let streams = self.shards.iter().map(move |sh| {
            sh.index
                .class_stream(ClassFloor::of(spec))
                .filter_map(move |(key, ())| sh.nodes.get(&key.1).map(|e| (key, e)))
        });
        KWayMerge::new(streams)
            .map(|(_, e)| e)
            .filter(move |e| e.eligible_for(spec))
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

    /// [`Self::is_candidate_for_holder`] routed through a cached shard
    /// affinity: §3b's invariant is that the migrate-back fast path reads
    /// job + home-node state together, so the coordinator stores the home
    /// node's shard next to the job's preference and phase-1 placements
    /// read the owning shard directly. `shard` must be the owner of `uid`
    /// (i.e. a value previously returned by [`Self::shard_of`]).
    pub fn is_candidate_for_holder_on(
        &self,
        shard: u32,
        uid: NodeUid,
        spec: &DispatchSpec,
        job: JobId,
    ) -> bool {
        debug_assert_eq!(
            shard,
            self.shard_of(uid),
            "stale shard affinity for {uid:?}"
        );
        let Some(sh) = self.shards.get(shard as usize) else {
            return false;
        };
        sh.nodes
            .get(&uid)
            .map(|e| e.liveness() == NodeLiveness::Active && e.eligible_for_holder(spec, job))
            .unwrap_or(false)
    }

    /// Nodes whose last heartbeat is older than `timeout`, among live ones.
    /// Merged range scans over the per-shard heartbeat-recency views —
    /// O(shards · log n + stale), in global (heartbeat, uid) order.
    pub fn stale_nodes(&self, now: SimTime, timeout: SimDuration) -> Vec<NodeUid> {
        let Some(cutoff) = now.checked_sub(timeout) else {
            return Vec::new();
        };
        KWayMerge::new(
            self.shards
                .iter()
                .map(move |s| s.index.heartbeat_stream(cutoff)),
        )
        .filter(|((at, _), ())| now.since(*at) > timeout)
        .map(|((_, uid), ())| uid)
        .collect()
    }

    // ---- merged ordered views (strategy-internal fast paths) ----------

    /// Active uids by total effective free VRAM, most-free first (uid
    /// ascending on ties) — the least-loaded pick order.
    pub(crate) fn by_free_desc(&self) -> impl Iterator<Item = NodeUid> + '_ {
        KWayMerge::new(self.shards.iter().map(|s| s.index.free_stream())).map(|((_, uid), ())| uid)
    }

    /// Active uids by best-device TFLOPS, fastest first (uid ascending on
    /// ties) — the fastest-device pick order.
    pub(crate) fn by_speed_desc(&self) -> impl Iterator<Item = NodeUid> + '_ {
        KWayMerge::new(self.shards.iter().map(|s| s.index.speed_stream())).map(|((_, uid), ())| uid)
    }

    /// Active uids starting at `cursor`, wrapping around once — the
    /// round-robin scan order, read off the node maps without the index.
    /// This is the reference enumeration the gather-buffered pick path
    /// (`Selector::pick` + [`Self::fill_round_robin`]) is proven
    /// equivalent to; the equivalence tests walk it directly.
    #[cfg(test)]
    pub(crate) fn round_robin_from(&self, cursor: NodeUid) -> impl Iterator<Item = NodeUid> + '_ {
        let active = |(_, e): &(NodeUid, &NodeEntry)| e.liveness() == NodeLiveness::Active;
        let tail = KWayMerge::new(
            self.shards
                .iter()
                .map(move |s| s.nodes.range(cursor..).map(|(&uid, e)| (uid, e))),
        );
        let head = KWayMerge::new(
            self.shards
                .iter()
                .map(move |s| s.nodes.range(..cursor).map(|(&uid, e)| (uid, e))),
        );
        tail.chain(head).filter(active).map(|(uid, _)| uid)
    }

    /// Refill a round-robin gather buffer with up to `max` more uids.
    ///
    /// Prime each shard's head (the smallest uid in the classes
    /// `g.floor` admits) for the current circle segment, then repeatedly
    /// take the smallest head — re-asking only the winning shard — until
    /// `max` uids are buffered or the circle is done. On a fleet where no
    /// class can serve the floor the whole circle is O(shards × classes)
    /// set lookups and buffers nothing. Uses only storage owned by `g`:
    /// the warm path allocates nothing (pinned by `tests/alloc.rs`).
    pub(crate) fn fill_round_robin(&self, g: &mut RrGather, max: usize) {
        if g.heads.len() != self.shards.len() {
            g.heads.clear();
            g.heads.resize(self.shards.len(), None);
            g.heads_primed = false;
        }
        let mut filled = 0usize;
        'segment: while filled < max {
            let (lo, hi): (Bound<NodeUid>, Bound<NodeUid>) = match g.pos {
                GatherPos::Done => return,
                GatherPos::Tail(None) => (Bound::Included(g.origin), Bound::Unbounded),
                GatherPos::Tail(Some(u)) => (Bound::Excluded(u), Bound::Unbounded),
                GatherPos::Head(None) => (Bound::Unbounded, Bound::Excluded(g.origin)),
                GatherPos::Head(Some(u)) => (Bound::Excluded(u), Bound::Excluded(g.origin)),
            };
            if !g.heads_primed {
                for (head, sh) in g.heads.iter_mut().zip(&self.shards) {
                    *head = sh.index.first_candidate_in(g.floor, (lo, hi));
                }
                g.heads_primed = true;
            }
            while filled < max {
                let mut best: Option<(NodeUid, usize)> = None;
                for (i, head) in g.heads.iter().enumerate() {
                    if let Some(u) = *head {
                        if best.is_none_or(|(b, _)| u < b) {
                            best = Some((u, i));
                        }
                    }
                }
                let Some((u, winner)) = best else {
                    // Segment dry: move to the next one and re-prime.
                    g.pos = match g.pos {
                        GatherPos::Tail(_) => GatherPos::Head(None),
                        _ => GatherPos::Done,
                    };
                    g.heads_primed = false;
                    continue 'segment;
                };
                g.buf.push_back(u);
                filled += 1;
                g.pos = match g.pos {
                    GatherPos::Tail(_) => GatherPos::Tail(Some(u)),
                    GatherPos::Head(_) => GatherPos::Head(Some(u)),
                    GatherPos::Done => unreachable!("popped from a done gather"),
                };
                g.heads[winner] = self.shards[winner]
                    .index
                    .first_candidate_in(g.floor, (Bound::Excluded(u), hi));
            }
        }
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

    /// The ground truth `candidates` must match.
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

    fn indexed(d: &Directory, s: &DispatchSpec) -> Vec<NodeUid> {
        let mut v: Vec<NodeUid> = d.candidates(s).map(|e| e.uid).collect();
        v.sort();
        v
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
        assert_eq!(d.schedulable(), 2);
    }

    #[test]
    fn returning_node_keeps_reliability_history() {
        let mut d = Directory::new();
        let (uid, _) = d.register("m-1", "ws-1", gpus(1, GpuModel::Rtx3090), t(0));
        d.record_interruption(uid, t(3600));
        let before = d.get(uid).unwrap().reliability.interruptions;
        let (_, ret) = d.register("m-1", "ws-1", gpus(1, GpuModel::Rtx3090), t(7200));
        assert!(ret);
        assert_eq!(d.get(uid).unwrap().reliability.interruptions, before);
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
        assert_eq!(d.get(uid).unwrap().total_free(), 8 << 30);
        assert!(indexed(&d, &spec(16 << 30, 1, None)).is_empty());
        d.release(uid, JobId(1));
        assert_eq!(d.get(uid).unwrap().total_free(), 24 << 30);
    }

    #[test]
    fn re_reserving_a_job_is_idempotent() {
        let mut d = Directory::new();
        let (uid, _) = d.register("m-1", "x", gpus(1, GpuModel::Rtx3090), t(0));
        d.reserve(uid, JobId(1), 1, 8 << 30, None);
        d.reserve(uid, JobId(1), 1, 8 << 30, None);
        // One release restores everything: no double-counted slot bytes.
        d.release(uid, JobId(1));
        assert_eq!(d.get(uid).unwrap().total_free(), 24 << 30);
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
        assert_eq!(d.schedulable(), 0);
        d.set_liveness(uid, NodeLiveness::Active);
        assert_eq!(indexed(&d, &s), vec![uid]);
    }

    #[test]
    fn reliability_score_decays_with_interruptions() {
        let mut r = Reliability::new(t(0));
        assert_eq!(r.score(), 1.0);
        r.record_interruption(t(86_400)); // 1/day
        let s1 = r.score();
        r.record_interruption(t(86_400 + 3_600));
        let s2 = r.score();
        assert!(s1 < 1.0);
        assert!(s2 < s1);
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

    /// Shard counts the equivalence suite exercises: the degenerate single
    /// shard, a power of two, a prime, and the bench default.
    const SHARD_COUNTS: [usize; 4] = [1, 2, 7, 16];

    /// Apply one proptest op tuple to a directory (shared by the sharded
    /// and unsharded equivalence proptests so both see identical worlds).
    fn apply_op(d: &mut Directory, op: u8, a: u64, b: u64) {
        let models = GpuModel::ALL;
        match op {
            0 => {
                let m = models[(a % 5) as usize];
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
            4 => {
                let l = match b % 4 {
                    0 => NodeLiveness::Active,
                    1 => NodeLiveness::Paused,
                    2 => NodeLiveness::Departing,
                    _ => NodeLiveness::Offline,
                };
                d.set_liveness(NodeUid(a), l);
            }
            _ => d.record_interruption(NodeUid(a), t(b)),
        }
    }

    /// Merged ordered views must be identical across shard counts — this
    /// is the "pick order is bit-identical" guarantee the scheduling pass
    /// depends on (candidate stream, least-loaded order, fastest-device
    /// order, round-robin order, staleness sweep order).
    fn assert_views_agree(reference: &Directory, sharded: &Directory, label: &str) {
        let s = spec(8 << 30, 1, None);
        let cand = |d: &Directory| d.candidates(&s).map(|e| e.uid).collect::<Vec<_>>();
        assert_eq!(cand(reference), cand(sharded), "{label}: candidate order");
        assert_eq!(
            reference.by_free_desc().collect::<Vec<_>>(),
            sharded.by_free_desc().collect::<Vec<_>>(),
            "{label}: by-free order"
        );
        assert_eq!(
            reference.by_speed_desc().collect::<Vec<_>>(),
            sharded.by_speed_desc().collect::<Vec<_>>(),
            "{label}: by-speed order"
        );
        for cursor in [0u64, 3, 11] {
            assert_eq!(
                reference
                    .round_robin_from(NodeUid(cursor))
                    .collect::<Vec<_>>(),
                sharded
                    .round_robin_from(NodeUid(cursor))
                    .collect::<Vec<_>>(),
                "{label}: round-robin order from {cursor}"
            );
        }
        assert_eq!(
            reference.stale_nodes(t(10_000), SimDuration::from_secs(15)),
            sharded.stale_nodes(t(10_000), SimDuration::from_secs(15)),
            "{label}: staleness sweep"
        );
        assert_eq!(
            reference.iter().map(|e| e.uid).collect::<Vec<_>>(),
            sharded.iter().map(|e| e.uid).collect::<Vec<_>>(),
            "{label}: iteration order"
        );
        assert_eq!(reference.len(), sharded.len(), "{label}: len");
        assert_eq!(
            reference.schedulable(),
            sharded.schedulable(),
            "{label}: schedulable"
        );
    }

    #[test]
    fn sharded_views_match_unsharded_on_heterogeneous_fleet() {
        let models = GpuModel::ALL;
        let mut dirs: Vec<Directory> = SHARD_COUNTS
            .iter()
            .map(|&n| Directory::with_shards(n))
            .collect();
        for d in &mut dirs {
            for (i, m) in models.iter().cycle().take(40).enumerate() {
                d.register(&format!("m-{i}"), "h", gpus(1 + i % 3, *m), t(i as u64));
            }
            // Perturb capacity so by-free ties and class moves exist.
            for i in 0..40u64 {
                if i % 3 == 0 {
                    d.reserve(NodeUid(i), JobId(i), 1, 8 << 30, None);
                }
                if i % 7 == 0 {
                    d.set_liveness(NodeUid(i), NodeLiveness::Paused);
                }
            }
        }
        let (reference, rest) = dirs.split_first().expect("non-empty");
        for (d, n) in rest.iter().zip(&SHARD_COUNTS[1..]) {
            assert_views_agree(reference, d, &format!("{n} shards"));
        }
    }

    proptest::proptest! {
        /// `candidates` must agree with the brute-force full scan after any
        /// interleaving of registrations, heartbeats, reservations,
        /// releases, and liveness flips.
        #[test]
        fn prop_candidates_agree_with_full_scan(
            ops in proptest::collection::vec((0u8..6, 0u64..12, 0u64..48), 1..120),
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

        /// Sharding is invisible: after any mutation interleaving, every
        /// shard count in [`SHARD_COUNTS`] produces candidate streams,
        /// ordered views, and staleness sweeps **bit-identical** to the
        /// single-shard directory, and `candidates` still equals the
        /// brute-force scan.
        #[test]
        fn prop_sharded_directory_is_equivalent(
            ops in proptest::collection::vec((0u8..6, 0u64..12, 0u64..48), 1..100),
            mem_gb in 0u64..80,
            want_gpus in 1u8..4,
            cc_minor in proptest::option::of(0u8..10),
        ) {
            let mut dirs: Vec<Directory> =
                SHARD_COUNTS.iter().map(|&n| Directory::with_shards(n)).collect();
            for (op, a, b) in ops {
                for d in &mut dirs {
                    apply_op(d, op, a, b);
                }
            }
            let s = spec(mem_gb << 30, want_gpus, cc_minor.map(|m| (8, m)));
            let (reference, rest) = dirs.split_first().expect("non-empty");
            let want = brute_force(reference, &s);
            for (d, n) in rest.iter().zip(&SHARD_COUNTS[1..]) {
                // Exact stream order matches the unsharded directory…
                let a: Vec<NodeUid> = reference.candidates(&s).map(|e| e.uid).collect();
                let b: Vec<NodeUid> = d.candidates(&s).map(|e| e.uid).collect();
                proptest::prop_assert_eq!(a, b, "candidate order at {} shards", n);
                // …and the set equals the brute-force scan.
                proptest::prop_assert_eq!(indexed(d, &s), want.clone(), "{} shards", n);
                assert_views_agree(reference, d, &format!("{n} shards"));
            }
        }
    }
}
