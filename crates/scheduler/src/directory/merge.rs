//! Lazy k-way merge of per-shard ordered streams.
//!
//! The sharded directory's read surface is built on this: each shard's
//! capacity index exposes its views as `(key, value)` streams in
//! ascending key order, and [`KWayMerge`] interleaves them into one
//! stream in global key order — so a merged view is bit-identical to the
//! view a single unsharded index would produce, while staying lazy (a
//! `Selector::pick` that accepts the first candidate pulls O(shards)
//! items, not a full materialization).
//!
//! Keys embed the node uid, so they are unique across shards and the
//! merge never has ties to break; when equal keys do occur the
//! lowest-indexed stream wins, keeping the order deterministic anyway.
//! With shard counts in the tens, the per-item linear scan over stream
//! heads beats a binary heap: no allocation per item, no sift traffic,
//! and the heads vector stays in cache.

use super::index::ClassFloor;
use gpunion_protocol::NodeUid;
use std::collections::VecDeque;

/// Where a round-robin gather enumeration stands inside its circle.
///
/// An enumeration of `circle(origin)` visits uids in `[origin, ∞)` (the
/// tail), then `[0, origin)` (the head). Each segment tracks the last
/// uid gathered so a refill resumes with `Excluded` bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum GatherPos {
    /// In `[origin, ∞)`; `Some(u)` = resume strictly after `u`.
    Tail(Option<NodeUid>),
    /// In `[0, origin)`; `Some(u)` = resume strictly after `u`.
    Head(Option<NodeUid>),
    /// The full circle has been gathered.
    Done,
}

/// The round-robin gather buffer.
///
/// Each refill (`ShardedDirectory::fill_round_robin`) asks every shard
/// for its next candidate — the smallest uid in the classes `floor`
/// admits — and merges the answers in ascending-uid order into `buf` —
/// the same embedded-uid key order `KWayMerge` uses, so consuming the
/// buffer visits, in `round_robin_from(origin)` order, a superset of the
/// nodes that can host a spec with that floor. All storage (`buf`, the
/// `heads` scratch) is reused across refills: the warm pass allocates
/// nothing on this path (pinned by `tests/alloc.rs`).
///
/// The buffer may outlive the pick that filled it; `Selector::pick`
/// guards reuse with three checks — `epoch` (any mutation that can add a
/// node to a class view invalidates), `floor` (the buffer holds one class
/// floor's candidates) and the expected cursor (consumption must continue
/// where the previous pick stopped) — and restarts the circle whenever an
/// in-progress enumeration could not serve the current pick exactly.
#[derive(Debug, Clone)]
pub(crate) struct RrGather {
    /// Gathered uids, merged order, not yet consumed by picks.
    pub(crate) buf: VecDeque<NodeUid>,
    /// Per-shard next-uid scratch for the refill merge.
    pub(crate) heads: Vec<Option<NodeUid>>,
    /// Heads correspond to `pos`'s segment (false forces a re-prime).
    pub(crate) heads_primed: bool,
    /// Directory gather epoch the enumeration was started under.
    pub(crate) epoch: u64,
    /// The class floor whose candidates the enumeration gathers.
    pub(crate) floor: ClassFloor,
    /// The circle's start (and wrap endpoint).
    pub(crate) origin: NodeUid,
    /// Refill resume position.
    pub(crate) pos: GatherPos,
    /// The cursor the next pick must present for the buffer to still
    /// correspond to its enumeration (`None` = must restart).
    pub(crate) expected_cursor: Option<NodeUid>,
}

impl RrGather {
    pub(crate) fn new() -> Self {
        RrGather {
            buf: VecDeque::new(),
            heads: Vec::new(),
            heads_primed: false,
            epoch: 0,
            floor: ClassFloor::ANY,
            origin: NodeUid(0),
            pos: GatherPos::Done,
            expected_cursor: None,
        }
    }

    /// Start a fresh enumeration of `floor`'s candidates on
    /// `circle(cursor)` under `epoch`.
    pub(crate) fn reset(&mut self, epoch: u64, cursor: NodeUid, floor: ClassFloor) {
        self.buf.clear();
        self.heads_primed = false;
        self.epoch = epoch;
        self.floor = floor;
        self.origin = cursor;
        self.pos = GatherPos::Tail(None);
        self.expected_cursor = Some(cursor);
    }
}

/// Merge `k` ascending `(K, V)` streams into one ascending stream.
pub(crate) struct KWayMerge<K: Ord, V, I: Iterator<Item = (K, V)>> {
    iters: Vec<I>,
    /// Buffered head of each stream (`None` = exhausted).
    heads: Vec<Option<(K, V)>>,
}

impl<K: Ord, V, I: Iterator<Item = (K, V)>> KWayMerge<K, V, I> {
    /// Build a merge over `streams`; each must yield ascending keys.
    pub(crate) fn new(streams: impl IntoIterator<Item = I>) -> Self {
        let mut iters: Vec<I> = streams.into_iter().collect();
        let heads = iters.iter_mut().map(Iterator::next).collect();
        KWayMerge { iters, heads }
    }
}

impl<K: Ord, V, I: Iterator<Item = (K, V)>> Iterator for KWayMerge<K, V, I> {
    type Item = (K, V);

    fn next(&mut self) -> Option<(K, V)> {
        let mut best: Option<usize> = None;
        for i in 0..self.heads.len() {
            let Some((key, _)) = self.heads[i].as_ref() else {
                continue;
            };
            let beats = match best {
                None => true,
                Some(b) => {
                    let (best_key, _) = self.heads[b].as_ref().expect("best head is live");
                    key < best_key
                }
            };
            if beats {
                best = Some(i);
            }
        }
        let b = best?;
        let item = self.heads[b].take();
        self.heads[b] = self.iters[b].next();
        item
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(streams: Vec<Vec<u32>>) -> Vec<u32> {
        KWayMerge::new(streams.into_iter().map(|s| s.into_iter().map(|k| (k, ()))))
            .map(|(k, ())| k)
            .collect()
    }

    #[test]
    fn merges_in_global_order() {
        assert_eq!(
            keys(vec![vec![1, 4, 9], vec![2, 3, 10], vec![5]]),
            vec![1, 2, 3, 4, 5, 9, 10]
        );
    }

    #[test]
    fn handles_empty_and_single_streams() {
        assert_eq!(keys(vec![]), Vec::<u32>::new());
        assert_eq!(keys(vec![vec![], vec![]]), Vec::<u32>::new());
        assert_eq!(keys(vec![vec![7, 8]]), vec![7, 8]);
        assert_eq!(keys(vec![vec![], vec![3], vec![]]), vec![3]);
    }

    #[test]
    fn equal_keys_prefer_the_first_stream() {
        let merged: Vec<(u32, &str)> = KWayMerge::new(vec![
            vec![(1u32, "a"), (2, "a")].into_iter(),
            vec![(1u32, "b")].into_iter(),
        ])
        .collect();
        assert_eq!(merged, vec![(1, "a"), (1, "b"), (2, "a")]);
    }

    #[test]
    fn is_lazy() {
        // An infinite stream merged with a finite one: taking a prefix
        // must not exhaust anything.
        let inf = (0u64..).map(|k| (k * 2, ()));
        let fin = vec![(1u64, ()), (3, ())].into_iter();
        let got: Vec<u64> = KWayMerge::new(vec![
            Box::new(inf) as Box<dyn Iterator<Item = (u64, ())>>,
            Box::new(fin),
        ])
        .map(|(k, ())| k)
        .take(5)
        .collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }
}
