//! One directory shard: an independent `{node map + CapacityIndex}` pair.
//!
//! A shard owns every node whose uid hashes to it and nothing else; all
//! of a node's state — entry, reservations, index position — lives in
//! exactly one shard, so a mutation touches one shard's structures and a
//! read of one node routes to one shard. Shards know nothing about each
//! other; composition (k-way-merged views, global counts) happens in
//! [`super::ShardedDirectory`].

use super::entry::{NodeEntry, NodeLiveness};
use super::index::CapacityIndex;
use gpunion_des::SimTime;
use gpunion_protocol::{GpuStat, JobId, NodeUid};
use std::collections::BTreeMap;

/// One shard: the nodes it owns plus their capacity index.
#[derive(Debug, Default)]
pub(crate) struct Shard {
    /// Ordered by uid so per-shard iteration is deterministic (and
    /// merge-ready: the uid-keyed streams come straight off this map).
    pub(crate) nodes: BTreeMap<NodeUid, NodeEntry>,
    /// The shard's incremental index over those nodes.
    pub(crate) index: CapacityIndex,
}

impl Shard {
    /// Insert (or replace) an entry and index it.
    pub(crate) fn insert(&mut self, entry: NodeEntry) {
        self.index.refresh(&entry);
        self.nodes.insert(entry.uid, entry);
    }

    /// Apply a heartbeat's telemetry. Returns false for unknown nodes.
    pub(crate) fn apply_heartbeat(
        &mut self,
        uid: NodeUid,
        now: SimTime,
        seq: u64,
        accepting: bool,
        stats: &[GpuStat],
    ) -> bool {
        let Some(e) = self.nodes.get_mut(&uid) else {
            return false;
        };
        e.apply_heartbeat(now, seq, accepting, stats);
        self.index.refresh(e);
        true
    }

    /// Reserve capacity on a node (see
    /// [`super::ShardedDirectory::reserve`]). Returns `(complete, grew)`:
    /// whether all `gpus` slots were covered, and whether the node moved
    /// up a free-VRAM bucket (the new hold replaced a larger one).
    pub(crate) fn reserve(
        &mut self,
        uid: NodeUid,
        job: JobId,
        gpus: u8,
        mem: u64,
        min_cc: Option<(u8, u8)>,
    ) -> (bool, bool) {
        let Some(e) = self.nodes.get_mut(&uid) else {
            return (false, false);
        };
        let complete = e.reserve(job, gpus, mem, min_cc);
        (complete, self.index.update_capacity(e))
    }

    /// Release a job's reservation. No-op when none exists. Returns
    /// whether the node moved up a free-VRAM bucket.
    pub(crate) fn release(&mut self, uid: NodeUid, job: JobId) -> bool {
        let Some(e) = self.nodes.get_mut(&uid) else {
            return false;
        };
        e.release(job);
        self.index.update_capacity(e)
    }

    /// Transition a node's liveness. Returns the previous liveness.
    pub(crate) fn set_liveness(
        &mut self,
        uid: NodeUid,
        liveness: NodeLiveness,
    ) -> Option<NodeLiveness> {
        let e = self.nodes.get_mut(&uid)?;
        let prev = e.liveness;
        e.liveness = liveness;
        self.index.refresh(e);
        Some(prev)
    }

    /// Record a provider interruption against a node's reliability stats.
    pub(crate) fn record_interruption(&mut self, uid: NodeUid, now: SimTime) {
        if let Some(e) = self.nodes.get_mut(&uid) {
            e.reliability.record_interruption(now);
        }
    }
}
