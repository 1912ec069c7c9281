//! The pump's wake index: which agents are due, and when the next one is.
//!
//! A heartbeat re-armed by a beat lands one period after `now`, at or after
//! every wake filed before it, so nearly every refresh is an append. The
//! index keeps those in an append-only run — a ring buffer, in
//! non-decreasing instant order, whose front is its earliest — and files
//! the rest (a job timer earlier than the last beat filed, a resync) in an
//! ordered set.
//!
//! Nothing is removed when an agent's wake moves or is cleared. The
//! agent's slot holds the one wake that counts, and every entry is
//! validated against it on the way out: the index may hold stale entries,
//! and for one agent the same `(instant, addr)` twice (filed again after
//! the first copy went stale, one copy in the run and one in the set).
//! Popping *takes* the slot's wake, so whichever copy comes out first wakes
//! the agent and the other is stale by then. The due set of an instant and
//! the earliest live wake are therefore exactly those of an index that
//! removed eagerly — the `BTreeSet<(SimTime, NodeId)>` this replaced, kept
//! below as the reference the property test drives it against.

use gpunion_des::{earliest, SimTime};
use gpunion_simnet::NodeId;
use std::collections::{BTreeSet, VecDeque};

/// Agents by wake instant, removed lazily (see the module docs).
#[derive(Debug, Default)]
pub(super) struct WakeIndex {
    /// Wakes at or after the last one filed here, in filing order.
    run: VecDeque<(SimTime, NodeId)>,
    /// Every wake filed earlier than the run's last instant.
    tree: BTreeSet<(SimTime, NodeId)>,
}

impl WakeIndex {
    /// File `addr` under `at`. The caller's record of the agent's wake
    /// must now say `Some(at)`.
    pub(super) fn file(&mut self, at: SimTime, addr: NodeId) {
        match self.run.back() {
            Some(&(last, _)) if at < last => {
                self.tree.insert((at, addr));
            }
            _ => self.run.push_back((at, addr)),
        }
    }

    /// Drop every entry (before every agent is filed again).
    pub(super) fn clear(&mut self) {
        self.run.clear();
        self.tree.clear();
    }

    /// The earliest live wake. `live(at, addr)` says whether the agent's
    /// wake is `Some(at)`; the stale entries in front of a live one are
    /// discarded on the way.
    pub(super) fn head(&mut self, live: impl Fn(SimTime, NodeId) -> bool) -> Option<SimTime> {
        while let Some(&(at, addr)) = self.run.front() {
            if live(at, addr) {
                break;
            }
            self.run.pop_front();
        }
        while let Some(&(at, addr)) = self.tree.first() {
            if live(at, addr) {
                break;
            }
            self.tree.pop_first();
        }
        earliest(
            self.run.front().map(|&(at, _)| at),
            self.tree.first().map(|&(at, _)| at),
        )
    }

    /// Remove every entry due at or before `now` and append the agents
    /// whose wake it was to `due`, in no particular order. `take(at, addr)`
    /// validates an entry like `head`'s `live` and, when it is live, clears
    /// the agent's wake — so a second copy of the same entry is stale.
    pub(super) fn pop_due(
        &mut self,
        now: SimTime,
        mut take: impl FnMut(SimTime, NodeId) -> bool,
        due: &mut Vec<NodeId>,
    ) {
        while let Some(&(at, addr)) = self.run.front() {
            if at > now {
                break;
            }
            self.run.pop_front();
            if take(at, addr) {
                due.push(addr);
            }
        }
        while let Some(&(at, addr)) = self.tree.first() {
            if at > now {
                break;
            }
            self.tree.pop_first();
            if take(at, addr) {
                due.push(addr);
            }
        }
    }

    /// Every distinct entry `live` accepts: what an eagerly removing index
    /// would hold.
    #[cfg(test)]
    pub(super) fn live_entries(
        &self,
        live: impl Fn(SimTime, NodeId) -> bool,
    ) -> BTreeSet<(SimTime, NodeId)> {
        self.run
            .iter()
            .chain(&self.tree)
            .copied()
            .filter(|&(at, addr)| live(at, addr))
            .collect()
    }

    /// How many entries sit in the run and in the tree.
    #[cfg(test)]
    fn lens(&self) -> (usize, usize) {
        (self.run.len(), self.tree.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The agents' slots as far as the index is concerned: each one's wake.
    struct Slots(Vec<Option<SimTime>>);

    impl Slots {
        fn live(&self, at: SimTime, addr: NodeId) -> bool {
            self.0[addr.0 as usize] == Some(at)
        }

        fn take(&mut self, at: SimTime, addr: NodeId) -> bool {
            let wake = &mut self.0[addr.0 as usize];
            let live = *wake == Some(at);
            if live {
                *wake = None;
            }
            live
        }
    }

    /// Move one agent's wake the way `Platform::refresh_wake` does: the
    /// slot first, then file the new instant; the old entry stays.
    fn refresh(index: &mut WakeIndex, slots: &mut Slots, addr: NodeId, wake: Option<SimTime>) {
        let slot = &mut slots.0[addr.0 as usize];
        if *slot == wake {
            return;
        }
        *slot = wake;
        if let Some(at) = wake {
            index.file(at, addr);
        }
    }

    /// The eager index this replaced, driven in lockstep.
    fn reference_refresh(
        reference: &mut BTreeSet<(SimTime, NodeId)>,
        old: Option<SimTime>,
        addr: NodeId,
        wake: Option<SimTime>,
    ) {
        if old == wake {
            return;
        }
        if let Some(at) = old {
            reference.remove(&(at, addr));
        }
        if let Some(at) = wake {
            reference.insert((at, addr));
        }
    }

    #[test]
    fn appends_go_to_the_run_and_earlier_wakes_to_the_tree() {
        let t = SimTime::from_secs;
        let (mut index, mut slots) = (WakeIndex::default(), Slots(vec![None; 4]));
        refresh(&mut index, &mut slots, NodeId(0), Some(t(5)));
        refresh(&mut index, &mut slots, NodeId(1), Some(t(5)));
        refresh(&mut index, &mut slots, NodeId(2), Some(t(7)));
        refresh(&mut index, &mut slots, NodeId(3), Some(t(6)));
        assert_eq!(index.lens(), (3, 1));
        assert_eq!(index.head(|at, a| slots.live(at, a)), Some(t(5)));
        // Moving agent 0 later leaves its old entry behind; the head skips it.
        refresh(&mut index, &mut slots, NodeId(0), Some(t(9)));
        refresh(&mut index, &mut slots, NodeId(1), None);
        assert_eq!(index.head(|at, a| slots.live(at, a)), Some(t(6)));
        assert_eq!(index.lens(), (2, 1), "two stale entries discarded");
        let mut due = Vec::new();
        index.pop_due(t(7), |at, a| slots.take(at, a), &mut due);
        due.sort_unstable();
        assert_eq!(due, vec![NodeId(2), NodeId(3)]);
        assert_eq!(index.head(|at, a| slots.live(at, a)), Some(t(9)));
    }

    /// The hazard a lazily removing index has: an agent's wake leaves an
    /// instant and comes back to it, so the same entry is filed twice —
    /// here a stale copy in the run and the live one in the tree. It must
    /// wake once.
    #[test]
    fn an_entry_filed_twice_wakes_its_agent_once() {
        let t = SimTime::from_secs;
        let (mut index, mut slots) = (WakeIndex::default(), Slots(vec![None; 2]));
        refresh(&mut index, &mut slots, NodeId(0), Some(t(5)));
        refresh(&mut index, &mut slots, NodeId(1), Some(t(8)));
        refresh(&mut index, &mut slots, NodeId(0), Some(t(9)));
        refresh(&mut index, &mut slots, NodeId(0), Some(t(5)));
        assert_eq!(index.lens(), (3, 1), "(5, 0) in the run and the tree");
        let mut due = Vec::new();
        index.pop_due(t(6), |at, a| slots.take(at, a), &mut due);
        assert_eq!(due, vec![NodeId(0)]);
        assert_eq!(index.head(|at, a| slots.live(at, a)), Some(t(8)));
    }

    proptest::proptest! {
        /// Random refreshes that move wakes earlier, later and to `None`
        /// over few agents and few instants (so entries are filed again
        /// after going stale, in the run and in the tree), out-of-order
        /// wakes that land in the tree, raw changes to the slots followed
        /// by a `clear` and a refile (the platform's resync), and pops at
        /// arbitrary instants: after every step the lazy index names the
        /// same earliest wake as the eager reference, each pop yields the
        /// same due set, and its live entries are exactly the reference.
        #[test]
        fn lazy_index_pops_like_the_eager_tree(
            ops in proptest::collection::vec((0u8..8, 0u32..6, 0u64..12), 1..200),
        ) {
            let agents = 6;
            let mut index = WakeIndex::default();
            let mut slots = Slots(vec![None; agents]);
            let mut reference: BTreeSet<(SimTime, NodeId)> = BTreeSet::new();
            for (op, a, t) in ops {
                let (addr, at) = (NodeId(a), SimTime::from_secs(t));
                match op {
                    0 | 1 => {
                        let mut due = Vec::new();
                        index.pop_due(at, |at, a| slots.take(at, a), &mut due);
                        due.sort_unstable();
                        let mut expected = Vec::new();
                        while let Some(&(wake, a)) = reference.first() {
                            if wake > at {
                                break;
                            }
                            reference.pop_first();
                            expected.push(a);
                        }
                        expected.sort_unstable();
                        proptest::prop_assert_eq!(due, expected);
                    }
                    2 => {
                        let old = slots.0[a as usize];
                        reference_refresh(&mut reference, old, addr, None);
                        refresh(&mut index, &mut slots, addr, None);
                    }
                    3 if t < 3 => {
                        // Raw access: some slots change behind the index's
                        // back, then the platform resyncs from the slots.
                        for (i, slot) in slots.0.iter_mut().enumerate() {
                            if (i as u64 + t) % 3 == 0 {
                                *slot = Some(SimTime::from_secs((t * 7 + i as u64) % 12));
                            }
                        }
                        index.clear();
                        reference.clear();
                        for (i, slot) in slots.0.iter().enumerate() {
                            if let Some(wake) = *slot {
                                index.file(wake, NodeId(i as u32));
                                reference.insert((wake, NodeId(i as u32)));
                            }
                        }
                    }
                    _ => {
                        let old = slots.0[a as usize];
                        reference_refresh(&mut reference, old, addr, Some(at));
                        refresh(&mut index, &mut slots, addr, Some(at));
                    }
                }
                proptest::prop_assert_eq!(
                    index.head(|at, a| slots.live(at, a)),
                    reference.first().map(|&(at, _)| at)
                );
                proptest::prop_assert_eq!(index.live_entries(|at, a| slots.live(at, a)), reference.clone());
            }
        }
    }
}
