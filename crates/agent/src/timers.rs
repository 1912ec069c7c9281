//! The agent's timers.
//!
//! Timers fire in `(due, arm order)` order. All but one live in an ordered
//! map; the heartbeat timer — the only one an idle agent has, re-armed on
//! every beat for as long as the agent lives — is a key held in place
//! beside the map and merged in by that same order, so an idle agent's
//! beat touches no tree. The slot is the heartbeat timer's only home:
//! arming it replaces the one already armed, which is what keeps a
//! duplicated `RegisterAck` from leaving two periodic timers behind.

use gpunion_des::SimTime;
use gpunion_protocol::JobId;
use std::collections::BTreeMap;

/// Timer kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Timer {
    Heartbeat,
    VerifyDone(JobId),
    StartDone(JobId),
    RestoreDone(JobId),
    CheckpointDue(JobId),
    CaptureDone(JobId),
    JobComplete(JobId),
    DepartureDeadline,
}

/// The armed timers of one agent.
#[derive(Debug, Clone, Default)]
pub(crate) struct Timers {
    /// Every armed timer but the heartbeat, by `(due, arm sequence)`.
    tree: BTreeMap<(SimTime, u64), Timer>,
    /// The heartbeat timer's key, when armed.
    beat: Option<(SimTime, u64)>,
    seq: u64,
}

impl Timers {
    /// Arm `timer` for `at`. At most one heartbeat timer is armed: arming
    /// another replaces it.
    pub(crate) fn arm(&mut self, at: SimTime, timer: Timer) {
        let key = (at, self.seq);
        self.seq += 1;
        if timer == Timer::Heartbeat {
            self.beat = Some(key);
        } else {
            self.tree.insert(key, timer);
        }
    }

    /// Disarm every timer `keep` rejects. The heartbeat is not offered:
    /// only [`Timers::clear`] and firing disarm it.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&Timer) -> bool) {
        self.tree.retain(|_, t| keep(t));
    }

    /// Disarm everything.
    pub(crate) fn clear(&mut self) {
        self.tree.clear();
        self.beat = None;
    }

    /// When the earliest timer is due.
    pub(crate) fn next_wake(&self) -> Option<SimTime> {
        let tree = self.tree.keys().next().map(|&(at, _)| at);
        match (self.beat, tree) {
            (Some((beat, _)), Some(tree)) => Some(beat.min(tree)),
            (Some((beat, _)), None) => Some(beat),
            (None, tree) => tree,
        }
    }

    /// Disarm and return the earliest timer if it is due at or before `now`.
    pub(crate) fn pop_due(&mut self, now: SimTime) -> Option<Timer> {
        let tree = self.tree.keys().next().copied();
        match (self.beat, tree) {
            (Some(beat), tree) if beat.0 <= now && tree.is_none_or(|tree| beat < tree) => {
                self.beat = None;
                Some(Timer::Heartbeat)
            }
            (_, Some(key)) if key.0 <= now => self.tree.remove(&key),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every timer in the tree, the heartbeat included — what `Timers`
    /// replaced, with the same replace-on-re-arm rule for the heartbeat.
    #[derive(Default)]
    struct AllInTree {
        tree: BTreeMap<(SimTime, u64), Timer>,
        seq: u64,
    }

    impl AllInTree {
        fn arm(&mut self, at: SimTime, timer: Timer) {
            if timer == Timer::Heartbeat {
                self.tree.retain(|_, t| *t != Timer::Heartbeat);
            }
            self.tree.insert((at, self.seq), timer);
            self.seq += 1;
        }

        fn retain(&mut self, mut keep: impl FnMut(&Timer) -> bool) {
            self.tree.retain(|_, t| keep(t));
        }

        fn next_wake(&self) -> Option<SimTime> {
            self.tree.keys().next().map(|&(at, _)| at)
        }

        fn pop_due(&mut self, now: SimTime) -> Option<Timer> {
            let first = self.tree.first_entry()?;
            (first.key().0 <= now).then(|| first.remove())
        }
    }

    fn timer(kind: u8, job: u64) -> Timer {
        let job = JobId(job);
        match kind {
            0..=2 => Timer::Heartbeat,
            3 => Timer::VerifyDone(job),
            4 => Timer::StartDone(job),
            5 => Timer::RestoreDone(job),
            6 => Timer::CheckpointDue(job),
            7 => Timer::CaptureDone(job),
            8 => Timer::JobComplete(job),
            _ => Timer::DepartureDeadline,
        }
    }

    /// What `Agent::disarm_job_timers` rejects.
    fn of_job(t: &Timer, job: JobId) -> bool {
        matches!(t,
            Timer::VerifyDone(j) | Timer::StartDone(j) | Timer::RestoreDone(j)
            | Timer::CheckpointDue(j) | Timer::CaptureDone(j) | Timer::JobComplete(j)
            if *j == job
        )
    }

    proptest::proptest! {
        /// Random arms (few distinct instants, heartbeat re-arms among
        /// them), per-job and per-kind disarms, clears (a reconnect, a
        /// finished departure) and wakes: the in-place beat slot fires the
        /// same timers in the same order as the tree that held them all,
        /// and names the same next wake after every step.
        #[test]
        fn beat_slot_fires_like_the_all_in_tree_timers(
            ops in proptest::collection::vec((0u8..8, 0u8..10, 0u64..3, 0u64..8), 1..160),
        ) {
            let mut timers = Timers::default();
            let mut reference = AllInTree::default();
            for (op, kind, job, t) in ops {
                let at = SimTime::from_secs(t);
                match op {
                    0 => loop {
                        let fired = timers.pop_due(at);
                        proptest::prop_assert_eq!(fired, reference.pop_due(at));
                        if fired.is_none() {
                            break;
                        }
                    },
                    1 => {
                        timers.retain(|t| !of_job(t, JobId(job)));
                        reference.retain(|t| !of_job(t, JobId(job)));
                    }
                    2 => {
                        let due = Timer::CheckpointDue(JobId(job));
                        timers.retain(|t| *t != due);
                        reference.retain(|t| *t != due);
                    }
                    3 if kind == 0 => {
                        timers.clear();
                        reference.tree.clear();
                    }
                    _ => {
                        timers.arm(at, timer(kind, job));
                        reference.arm(at, timer(kind, job));
                    }
                }
                proptest::prop_assert_eq!(timers.next_wake(), reference.next_wake());
            }
        }
    }
}
