//! The incremental capacity index over the directory's nodes.
//!
//! A mutation of the directory that moves a node's capacity class
//! repositions it here in O(log n). The index keeps one *ordered* view:
//! capacity classes whose members sit in uid order (the round-robin walk).
//! Staleness is not indexed: the sweep scans the directory's dense
//! heartbeat column once a period.

use super::entry::{NodeEntry, NodeLiveness};
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

/// The incremental capacity index.
///
/// Maintains a capacity-class view over the *schedulable* (Active) nodes
/// for eligibility pruning and round-robin: each class's members sit in
/// uid order.
#[derive(Debug, Clone, Default)]
pub(crate) struct CapacityIndex {
    /// (bucket, cc) → members.
    by_class: BTreeMap<ClassKey, BTreeSet<NodeUid>>,
    /// The class every Active node is filed under, indexed by uid
    /// (`NodeUid::slot`; uids are dense, so this is a table, not a hash per
    /// refresh). Grown when a node is first filed; a slot past the end,
    /// like a node that is not Active, is `None`.
    filed: Vec<Option<ClassKey>>,
}

/// Equal views and an equal filing of every node: `filed` may end in
/// `None` slots a rebuilt index never grew.
#[cfg(test)]
impl PartialEq for CapacityIndex {
    fn eq(&self, other: &Self) -> bool {
        fn trimmed(f: &[Option<ClassKey>]) -> &[Option<ClassKey>] {
            let len = f.iter().rposition(Option::is_some);
            &f[..len.map_or(0, |i| i + 1)]
        }
        self.by_class == other.by_class && trimmed(&self.filed) == trimmed(&other.filed)
    }
}

impl CapacityIndex {
    /// Re-derive a node's index position from its current entry state.
    ///
    /// An Active node moves between class sets only when its largest free
    /// slot crosses a bucket or its compute capability changes — a
    /// heartbeat, a reservation, a release or a re-registration with other
    /// hardware that does neither leaves the index untouched. A node
    /// entering Active is filed; one leaving it is taken out.
    pub(crate) fn refresh(&mut self, entry: &NodeEntry) {
        let uid = entry.uid;
        let slot = uid.slot();
        let class = (entry.liveness() == NodeLiveness::Active).then(|| ClassKey {
            bucket: vram_bucket(entry.max_slot_free()),
            cc: entry.max_cc(),
        });
        if slot >= self.filed.len() {
            if class.is_none() {
                return;
            }
            self.filed.resize(slot + 1, None);
        }
        let was = std::mem::replace(&mut self.filed[slot], class);
        if was == class {
            return;
        }
        if let Some(from) = was {
            if let Some(set) = self.by_class.get_mut(&from) {
                set.remove(&uid);
                if set.is_empty() {
                    self.by_class.remove(&from);
                }
            }
        }
        if let Some(to) = class {
            self.by_class.entry(to).or_default().insert(uid);
        }
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

    // ---- the ordered read view ---------------------------------------

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
}
