//! Hierarchical timer wheel: the simulator's priority queue.
//!
//! Seven levels of 64 slots each (6 bits of the nanosecond clock per
//! level) cover the next ~73 simulated minutes (`2^42` ns) exactly;
//! anything further out sits in a small far-future overflow heap and is
//! promoted into the wheel when the clock gets close. Wheel entries are
//! nodes in one arena, threaded through per-slot intrusive singly-linked
//! lists: the arena grows to the high-water pending count and is then
//! recycled through an internal free list, so the warm schedule→fire
//! cycle performs **zero** allocations no matter which slots the cursor
//! rotates into. Each node is 24 bytes — `(time, seq, slot, next)` —
//! pointing at its payload in the event slab.
//!
//! ## Placement and ordering
//!
//! An entry for time `t` lives at the level of the *highest 6-bit group
//! in which `t` differs from the current wheel time* (`level_of(t ^
//! now)`), in the slot indexed by `t`'s group at that level. Because the
//! higher groups agree with `now`, slot ranges within a level are
//! disjoint and increasing from the cursor, and every level-`l` range is
//! finer than (and precedes) the remaining level-`l+1` ranges — so the
//! earliest pending entry is found by scanning levels bottom-up and
//! taking the first occupied slot at or after the cursor (a bitmap scan)
//! then the minimum `(time, seq)` within that slot's list. Entries in a
//! level-0 slot share one exact timestamp; the minimum `seq` among them
//! preserves the global `(time, seq)` FIFO tie-break **bit-identically**
//! with the old binary heap, including events cascading in from outer
//! levels next to events scheduled directly at the same instant.
//!
//! ## Advancing
//!
//! The wheel time only moves when one of its own entries fires
//! (`advance_to`); peeks and pops never move it, so late inserts below a
//! `run_until` deadline stay correctly placed. It may lag behind the
//! simulator's clock (the simulator's armed event fires without touching
//! the wheel), but it never passes the earliest entry. On advance, each
//! level whose cursor moved re-files the entries of its *new* cursor slot
//! into finer levels (relinking nodes — no copies, no allocation); slots
//! skipped over are provably empty because the firing time is the
//! wheel's minimum.

/// Bits of the clock consumed per wheel level.
const BITS: u32 = 6;
/// Slots per level (`2^BITS`).
const SLOTS: usize = 1 << BITS;
/// Number of wheel levels; beyond them lies the overflow heap.
const LEVELS: usize = 7;
/// Horizon of the wheel proper: times with `t ^ now >= SPAN` overflow.
const SPAN: u64 = 1 << (BITS * LEVELS as u32);
/// Null link / empty slot marker.
const NIL: u32 = u32::MAX;

/// A pending entry: when, FIFO tie-break, and the slab slot of its
/// payload. Ordered by `(at, seq)` (`seq` is unique).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct WheelEntry {
    pub at: u64,
    pub seq: u64,
    pub slot: u32,
}

/// Arena node: a [`WheelEntry`] threaded into its slot's list (or the
/// free list when vacant).
struct Node {
    at: u64,
    seq: u64,
    slot: u32,
    next: u32,
}

impl Node {
    fn entry(&self) -> WheelEntry {
        WheelEntry {
            at: self.at,
            seq: self.seq,
            slot: self.slot,
        }
    }
}

pub(crate) struct TimerWheel {
    /// Wheel time: the timestamp of the last fired entry (never ahead of
    /// the earliest pending entry).
    now: u64,
    /// Node arena; grows to the pending high-water mark, then recycles.
    nodes: Vec<Node>,
    /// Head of the intrusive free list through `Node::next`.
    free_head: u32,
    /// Per-level, per-slot list heads into the arena.
    heads: [[u32; SLOTS]; LEVELS],
    /// Per-level occupancy bitmaps (bit `s` ⇔ slot `s` non-empty).
    occupied: [u64; LEVELS],
    /// Far-future entries, min-ordered.
    overflow: std::collections::BinaryHeap<std::cmp::Reverse<WheelEntry>>,
}

impl TimerWheel {
    pub(crate) fn new() -> Self {
        TimerWheel {
            now: 0,
            nodes: Vec::new(),
            free_head: NIL,
            heads: [[NIL; SLOTS]; LEVELS],
            occupied: [0; LEVELS],
            overflow: std::collections::BinaryHeap::new(),
        }
    }

    /// Insert an entry with `at >= self.now` (callers schedule at or after
    /// the clock; the simulator clamps past times).
    pub(crate) fn insert(&mut self, e: WheelEntry) {
        debug_assert!(e.at >= self.now, "wheel inserts never predate the clock");
        if e.at ^ self.now >= SPAN {
            self.overflow.push(std::cmp::Reverse(e));
            return;
        }
        let i = self.alloc_node(e);
        self.link(i);
    }

    fn alloc_node(&mut self, e: WheelEntry) -> u32 {
        let node = Node {
            at: e.at,
            seq: e.seq,
            slot: e.slot,
            next: NIL,
        };
        if self.free_head != NIL {
            let i = self.free_head;
            self.free_head = self.nodes[i as usize].next;
            self.nodes[i as usize] = node;
            i
        } else {
            let i = self.nodes.len() as u32;
            self.nodes.push(node);
            i
        }
    }

    fn free_node(&mut self, i: u32) {
        self.nodes[i as usize].next = self.free_head;
        self.free_head = i;
    }

    /// Thread node `i` into the slot its time selects relative to the
    /// current wheel time. List order within a slot is irrelevant: the
    /// minimum `(at, seq)` is located by scan.
    fn link(&mut self, i: u32) {
        let at = self.nodes[i as usize].at;
        let diff = at ^ self.now;
        debug_assert!(diff < SPAN, "linked entries lie within the wheel horizon");
        let level = if diff == 0 {
            0
        } else {
            ((63 - diff.leading_zeros()) / BITS) as usize
        };
        let slot = ((at >> (BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        self.nodes[i as usize].next = self.heads[level][slot];
        self.heads[level][slot] = i;
        self.occupied[level] |= 1 << slot;
    }

    /// Pull overflow entries whose time now falls inside the wheel horizon.
    fn promote(&mut self) {
        while let Some(std::cmp::Reverse(head)) = self.overflow.peek() {
            if head.at ^ self.now >= SPAN {
                break;
            }
            let std::cmp::Reverse(o) = self.overflow.pop().expect("peeked");
            let i = self.alloc_node(o);
            self.link(i);
        }
    }

    /// Locate the earliest wheel entry: `(level, slot, prev-node, node)`,
    /// with `prev == NIL` when the node is its list's head.
    fn find_min(&self) -> Option<(usize, usize, u32, u32)> {
        for level in 0..LEVELS {
            let cursor = ((self.now >> (BITS * level as u32)) & (SLOTS as u64 - 1)) as u32;
            debug_assert_eq!(
                self.occupied[level] & !(u64::MAX << cursor),
                0,
                "no occupied slot may trail the cursor"
            );
            let mask = self.occupied[level] & (u64::MAX << cursor);
            if mask == 0 {
                continue;
            }
            let slot = mask.trailing_zeros() as usize;
            let head = self.heads[level][slot];
            debug_assert_ne!(head, NIL);
            let (mut best, mut best_prev) = (head, NIL);
            let mut prev = head;
            let mut cur = self.nodes[head as usize].next;
            while cur != NIL {
                let c = &self.nodes[cur as usize];
                let b = &self.nodes[best as usize];
                if (c.at, c.seq) < (b.at, b.seq) {
                    best = cur;
                    best_prev = prev;
                }
                prev = cur;
                cur = c.next;
            }
            return Some((level, slot, best_prev, best));
        }
        None
    }

    /// The earliest pending entry, if any. Promotes due overflow entries
    /// first; never advances the wheel time.
    pub(crate) fn peek(&mut self) -> Option<WheelEntry> {
        self.promote();
        if let Some((_, _, _, i)) = self.find_min() {
            let n = &self.nodes[i as usize];
            return Some(n.entry());
        }
        self.overflow.peek().map(|std::cmp::Reverse(o)| *o)
    }

    /// Remove and return the earliest entry. Never advances the wheel time:
    /// the simulator calls [`Self::advance_to`] when it fires the entry.
    pub(crate) fn pop(&mut self) -> Option<WheelEntry> {
        self.promote();
        if let Some((level, slot, prev, i)) = self.find_min() {
            let next = self.nodes[i as usize].next;
            if prev == NIL {
                self.heads[level][slot] = next;
                if next == NIL {
                    self.occupied[level] &= !(1 << slot);
                }
            } else {
                self.nodes[prev as usize].next = next;
            }
            let e = self.nodes[i as usize].entry();
            self.free_node(i);
            return Some(e);
        }
        self.overflow.pop().map(|std::cmp::Reverse(o)| o)
    }

    /// Move the wheel time to `t` (the timestamp of the entry being fired,
    /// i.e. the wheel's minimum) and cascade each level's new cursor slot
    /// into finer levels.
    pub(crate) fn advance_to(&mut self, t: u64) {
        let prev = self.now;
        if t <= prev {
            return;
        }
        self.now = t;
        // Descending: nodes re-filed from level l land strictly below l and
        // never on a lower level's new cursor slot, so one pass suffices.
        for level in (1..LEVELS).rev() {
            let shift = BITS * level as u32;
            if (prev >> shift) == (t >> shift) {
                continue;
            }
            let slot = ((t >> shift) & (SLOTS as u64 - 1)) as usize;
            // Detach the slot's whole list and relink each node relative to
            // the new wheel time (pointer surgery only — no allocation).
            let mut cur = self.heads[level][slot];
            if cur == NIL {
                continue;
            }
            self.heads[level][slot] = NIL;
            self.occupied[level] &= !(1 << slot);
            while cur != NIL {
                let next = self.nodes[cur as usize].next;
                debug_assert!(self.nodes[cur as usize].at >= t);
                self.link(cur);
                cur = next;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(at: u64, seq: u64) -> WheelEntry {
        WheelEntry {
            at,
            seq,
            slot: seq as u32,
        }
    }

    /// Drain the wheel the way the simulator does: pop the minimum, then
    /// advance to its time.
    fn drain(w: &mut TimerWheel) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some(ev) = w.pop() {
            w.advance_to(ev.at);
            out.push((ev.at, ev.seq));
        }
        out
    }

    #[test]
    fn pops_in_time_then_seq_order_across_levels() {
        let mut w = TimerWheel::new();
        // Spread across level 0 (3), level 2 (40_000), level 5 (2^31),
        // overflow (2^50), plus same-time seq ties.
        let mut ins = vec![
            e(3, 0),
            e(40_000, 1),
            e(1 << 31, 2),
            e(1 << 50, 3),
            e(3, 4),
            e(40_000, 5),
            e(1 << 50, 6),
        ];
        for ev in ins.drain(..) {
            w.insert(ev);
        }
        assert_eq!(
            drain(&mut w),
            vec![
                (3, 0),
                (3, 4),
                (40_000, 1),
                (40_000, 5),
                (1 << 31, 2),
                (1 << 50, 3),
                (1 << 50, 6),
            ]
        );
    }

    #[test]
    fn same_instant_fifo_across_wheel_levels() {
        // seq 0 is filed at level 2 (T is far from 0); firing at T-5 —
        // which shares T's 64 ns block — cascades it down to level 0,
        // where seq 2 is then filed directly for the same instant. The
        // cascade must not let the direct insert overtake it.
        const T: u64 = 0x1045; // level 2 when seen from t=0
        let mut w = TimerWheel::new();
        w.insert(e(T, 0));
        w.insert(e(T - 5, 1));
        let first = w.pop().expect("nearest");
        assert_eq!((first.at, first.seq), (T - 5, 1));
        w.advance_to(T - 5);
        // Scheduled directly into level 0 alongside the cascaded entry.
        w.insert(e(T, 2));
        assert_eq!(drain(&mut w), vec![(T, 0), (T, 2)]);
    }

    #[test]
    fn far_future_overflow_promotes_before_nearer_wheel_entries() {
        let mut w = TimerWheel::new();
        // Both beyond the 2^42 horizon from t=0: overflow.
        w.insert(e(SPAN + 1, 0));
        w.insert(e(SPAN + 10, 1));
        // Fire the first overflow entry; the clock lands in its epoch.
        let m = w.pop().expect("overflow head");
        assert_eq!((m.at, m.seq), (SPAN + 1, 0));
        w.advance_to(SPAN + 1);
        // A *later* same-epoch event goes straight into the wheel; the
        // remaining overflow entry (earlier) must be promoted past it.
        w.insert(e(SPAN + 50, 2));
        assert_eq!(drain(&mut w), vec![(SPAN + 10, 1), (SPAN + 50, 2)]);
    }

    #[test]
    fn u64_max_horizon_event_fires() {
        let mut w = TimerWheel::new();
        w.insert(e(5, 0));
        w.insert(e(u64::MAX, 1));
        assert_eq!(drain(&mut w), vec![(5, 0), (u64::MAX, 1)]);
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn peek_does_not_advance_placement() {
        let mut w = TimerWheel::new();
        w.insert(e(100_000, 0));
        assert_eq!(w.peek().map(|x| x.seq), Some(0));
        // Peeking must not have moved the wheel time: an earlier insert
        // still surfaces first.
        w.insert(e(7, 1));
        assert_eq!(drain(&mut w), vec![(7, 1), (100_000, 0)]);
    }

    #[test]
    fn mirrors_sorted_order_on_dense_random_load() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(11);
        let mut w = TimerWheel::new();
        let mut model: Vec<(u64, u64)> = Vec::new();
        let mut now = 0u64;
        for seq in 0..2_000u64 {
            // Mixed horizons: same instant, near, mid, far, overflow.
            let dt = match rng.gen_range(0..5) {
                0 => 0,
                1 => rng.gen_range(0..64),
                2 => rng.gen_range(0..1 << 18),
                3 => rng.gen_range(0..1 << 30),
                _ => rng.gen_range(0..u64::MAX - now),
            };
            w.insert(e(now + dt, seq));
            model.push((now + dt, seq));
            // Occasionally fire a few.
            if rng.gen_bool(0.4) {
                model.sort_unstable();
                for _ in 0..rng.gen_range(1..4) {
                    if model.is_empty() {
                        break;
                    }
                    let (at, s) = model.remove(0);
                    let got = w.pop().expect("model non-empty");
                    assert_eq!((got.at, got.seq), (at, s));
                    w.advance_to(at);
                    now = at;
                }
            }
        }
        model.sort_unstable();
        assert_eq!(drain(&mut w), model);
    }
}
