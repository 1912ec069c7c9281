//! The incremental capacity index over the directory's nodes.
//!
//! Every mutation of the directory repositions the affected node here in
//! O(log n). The index keeps two *ordered* views: capacity classes whose
//! members sit in uid order (the round-robin walk), and heartbeat recency
//! (staleness sweeps).

use super::entry::{NodeEntry, NodeLiveness};
use gpunion_des::SimTime;
use gpunion_protocol::{DispatchSpec, NodeUid};
use std::collections::{BTreeMap, BTreeSet};

/// Free-VRAM bucket: floor(log2(bytes)), so bucket `b` holds nodes whose
/// largest free slot is in `[2^b, 2^(b+1))`. A job needing `mem` bytes can
/// only be served from buckets `>= bucket_of(mem)`.
pub(crate) fn vram_bucket(bytes: u64) -> u8 {
    if bytes == 0 {
        0
    } else {
        (63 - bytes.leading_zeros()) as u8
    }
}

/// Index class of a node: (free-VRAM bucket, compute capability).
///
/// Ordered by bucket first so a walk can range-scan "every class with at
/// least this much free per-slot VRAM". The compute capability is static
/// per node (it comes from the registration inventory); only `bucket`
/// moves as capacity changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct ClassKey {
    bucket: u8,
    cc: (u8, u8),
}

/// The weakest class that could host a spec: a node eligible for it has a
/// slot with at least `gpu_mem_bytes` free at `min_cc` or better, so its
/// class has `bucket >= floor.bucket` and `cc >= floor.min_cc`. Classes
/// the floor admits are a superset of the exact answer (the floor bucket
/// itself holds nodes on either side of the byte count, and `gpus` is not
/// a class dimension); callers verify per node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ClassFloor {
    bucket: u8,
    min_cc: Option<(u8, u8)>,
}

impl ClassFloor {
    /// Admits every class (what a spec asking for no GPU is eligible on).
    pub(crate) const ANY: ClassFloor = ClassFloor {
        bucket: 0,
        min_cc: None,
    };

    pub(crate) fn of(spec: &DispatchSpec) -> Self {
        if spec.gpus == 0 {
            return Self::ANY;
        }
        ClassFloor {
            bucket: vram_bucket(spec.gpu_mem_bytes),
            min_cc: spec.min_cc,
        }
    }
}

/// Where one node currently sits in the index (for in-place updates).
#[derive(Debug, Clone, Copy, PartialEq)]
struct IndexedAt {
    class: ClassKey,
    heartbeat: SimTime,
}

/// How one node is filed.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
enum Filed {
    /// Never seen, or Offline: in no view.
    #[default]
    Nowhere,
    /// Active: in every view, at these keys.
    Scheduled(IndexedAt),
    /// Paused or Departing: in `by_heartbeat` only, at this heartbeat.
    Unscheduled(SimTime),
}

/// The incremental capacity index.
///
/// Maintains a capacity-class view over the *schedulable* (Active) nodes
/// for eligibility pruning and round-robin (each class's members sit in uid
/// order), plus a heartbeat-recency view over all non-offline nodes for
/// staleness sweeps.
#[derive(Debug, Default)]
pub(crate) struct CapacityIndex {
    /// (bucket, cc) → members.
    by_class: BTreeMap<ClassKey, BTreeSet<NodeUid>>,
    /// (last heartbeat, uid) over non-offline nodes (staleness sweeps).
    by_heartbeat: BTreeSet<(SimTime, NodeUid)>,
    /// How every node is filed, indexed by uid (`NodeUid::slot`; uids are
    /// dense, so this is a table, not a hash per refresh). Grown on first
    /// sight; a slot past the end is `Nowhere`.
    filed: Vec<Filed>,
}

/// Equal views and an equal filing of every node: `filed` may end in
/// `Nowhere` slots a rebuilt index never grew.
#[cfg(test)]
impl PartialEq for CapacityIndex {
    fn eq(&self, other: &Self) -> bool {
        fn trimmed(f: &[Filed]) -> &[Filed] {
            let len = f.iter().rposition(|s| *s != Filed::Nowhere);
            &f[..len.map_or(0, |i| i + 1)]
        }
        self.by_class == other.by_class
            && self.by_heartbeat == other.by_heartbeat
            && trimmed(&self.filed) == trimmed(&other.filed)
    }
}

impl CapacityIndex {
    fn summarize(entry: &NodeEntry) -> IndexedAt {
        IndexedAt {
            class: ClassKey {
                bucket: vram_bucket(entry.max_slot_free()),
                cc: entry.max_cc(),
            },
            heartbeat: entry.last_heartbeat,
        }
    }

    /// Take `uid` out of every view it is filed in.
    fn unfile(&mut self, uid: NodeUid) {
        let Some(filed) = self.filed.get_mut(uid.slot()) else {
            return;
        };
        match std::mem::take(filed) {
            Filed::Nowhere => {}
            Filed::Scheduled(at) => {
                if let Some(set) = self.by_class.get_mut(&at.class) {
                    set.remove(&uid);
                    if set.is_empty() {
                        self.by_class.remove(&at.class);
                    }
                }
                self.by_heartbeat.remove(&(at.heartbeat, uid));
            }
            Filed::Unscheduled(hb) => {
                self.by_heartbeat.remove(&(hb, uid));
            }
        }
    }

    /// Move `uid` between class sets, dropping a set it leaves empty.
    fn move_class(&mut self, uid: NodeUid, from: ClassKey, to: ClassKey) {
        if let Some(set) = self.by_class.get_mut(&from) {
            set.remove(&uid);
            if set.is_empty() {
                self.by_class.remove(&from);
            }
        }
        self.by_class.entry(to).or_default().insert(uid);
    }

    /// Re-derive a node's index position from its current entry state.
    ///
    /// A node that was indexed as Active and still is keeps its place in
    /// every view whose key did not move — a heartbeat repositions it in
    /// `by_heartbeat`; a reservation, a release, telemetry or a
    /// re-registration with other hardware moves it in `by_class` only
    /// when its largest free slot crosses a bucket or its compute
    /// capability changes. Any other case —
    /// first sight, or liveness entering or leaving Active — takes the
    /// node out of every view and files it under its new liveness.
    pub(crate) fn refresh(&mut self, entry: &NodeEntry) {
        let uid = entry.uid;
        if entry.liveness() == NodeLiveness::Active {
            let now = Self::summarize(entry);
            if let Some(Filed::Scheduled(slot)) = self.filed.get_mut(uid.slot()) {
                let at = std::mem::replace(slot, now);
                if now.class != at.class {
                    self.move_class(uid, at.class, now.class);
                }
                if now.heartbeat != at.heartbeat {
                    self.by_heartbeat.remove(&(at.heartbeat, uid));
                    self.by_heartbeat.insert((now.heartbeat, uid));
                }
                return;
            }
        }
        self.unfile(uid);
        let filed = match entry.liveness() {
            NodeLiveness::Active => {
                let at = Self::summarize(entry);
                self.by_class.entry(at.class).or_default().insert(uid);
                self.by_heartbeat.insert((at.heartbeat, uid));
                Filed::Scheduled(at)
            }
            NodeLiveness::Paused | NodeLiveness::Departing => {
                self.by_heartbeat.insert((entry.last_heartbeat, uid));
                Filed::Unscheduled(entry.last_heartbeat)
            }
            NodeLiveness::Offline => return,
        };
        let slot = uid.slot();
        if slot >= self.filed.len() {
            self.filed.resize(slot + 1, Filed::Nowhere);
        }
        self.filed[slot] = filed;
    }

    /// The index a directory holding exactly `entries` must have: every
    /// entry filed from scratch. The oracle for the diffing `refresh`.
    #[cfg(test)]
    pub(crate) fn rebuilt<'a>(entries: impl Iterator<Item = &'a NodeEntry>) -> Self {
        let mut index = Self::default();
        for entry in entries {
            index.refresh(entry);
        }
        index
    }

    // ---- ordered read views -----------------------------------------

    /// The classes `floor` admits, ascending class order.
    fn classes_from(&self, floor: ClassFloor) -> impl Iterator<Item = &BTreeSet<NodeUid>> + '_ {
        let lowest = ClassKey {
            bucket: floor.bucket,
            cc: (0, 0),
        };
        self.by_class
            .range(lowest..)
            .filter(move |(k, _)| floor.min_cc.is_none_or(|cc| k.cc >= cc))
            .map(|(_, set)| set)
    }

    /// Smallest uid in `range` among the members of the classes `floor`
    /// admits — one tree descent per admitted class, no iterator state, and
    /// `None` without touching a node when no class can serve the floor.
    /// One step of the round-robin walk
    /// (`Directory::round_robin_candidates`).
    pub(crate) fn first_candidate_in(
        &self,
        floor: ClassFloor,
        range: (std::ops::Bound<NodeUid>, std::ops::Bound<NodeUid>),
    ) -> Option<NodeUid> {
        self.classes_from(floor)
            .filter_map(|set| set.range(range).next().copied())
            .min()
    }

    /// Non-offline `(last heartbeat, uid)` strictly before `cutoff`,
    /// ascending (staleness sweeps).
    pub(crate) fn heartbeat_stream(
        &self,
        cutoff: SimTime,
    ) -> impl Iterator<Item = (SimTime, NodeUid)> + '_ {
        self.by_heartbeat.range(..(cutoff, NodeUid(0))).copied()
    }
}
