//! The coordinator's system database: typed tables + the pending-request
//! priority queue.
//!
//! §3.5: allocation works through "a round-robin scheduler (which processes
//! pending resource requests from a priority queue stored in the central
//! database)". This module provides that queue plus the node / job /
//! allocation tables. Their one mutator is [`SystemDb::apply`]: it takes a
//! [`WriteIntent`] and appends each intent that finds its row to the WAL
//! (heartbeat status writes aside), so [`SystemDb::replay`] of the log
//! rebuilds the tables and the pending order.

use crate::intent::WriteIntent;
use crate::wal::Wal;
use gpunion_des::SimTime;
use gpunion_protocol::{JobId, NodeUid, UserId, WireError};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Liveness state of a registered node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeState {
    /// Heartbeating and accepting work.
    Active,
    /// Provider paused new allocations (existing workloads keep running).
    Paused,
    /// Missed heartbeats / announced departure.
    Unavailable,
    /// Gracefully departed (may return).
    Departed,
}

/// A registered node row.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeRecord {
    /// Uid assigned at registration.
    pub uid: NodeUid,
    /// Hostname.
    pub hostname: String,
    /// GPU count (inventory detail lives with the scheduler's directory).
    pub gpu_count: u8,
    /// Registration time.
    pub registered_at: SimTime,
    /// Last heartbeat status write (§3.2 monitoring; refreshed by
    /// [`WriteIntent::NodeSeen`]).
    pub last_seen: SimTime,
    /// Current liveness.
    pub state: NodeState,
}

/// A job row.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Job id.
    pub job: JobId,
    /// Submission time.
    pub submitted_at: SimTime,
    /// Priority (higher first).
    pub priority: u8,
    /// Submitting user.
    pub user: UserId,
    /// Wire-state of the job.
    pub state: JobState,
}

/// Job lifecycle as the database sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// In the pending queue.
    Pending,
    /// Placed on a node.
    Allocated,
    /// Finished.
    Completed,
    /// Failed permanently.
    Failed,
    /// Cancelled by user or provider with no requeue.
    Cancelled,
}

/// An allocation row.
#[derive(Debug, Clone, PartialEq)]
pub struct AllocationRecord {
    /// Job.
    pub job: JobId,
    /// Node the job runs on.
    pub node: NodeUid,
    /// GPU indices bound on that node.
    pub gpu_indices: Vec<u8>,
    /// When the allocation was made.
    pub at: SimTime,
}

/// The system database.
#[derive(Debug, Clone, Default)]
pub struct SystemDb {
    /// Node rows indexed by uid (`NodeUid::slot`: the coordinator issues
    /// uids from a counter, so the table is dense and a heartbeat's status
    /// write is an index, not a tree descent). Grown on first insert; a
    /// slot past the end is no row.
    nodes: Vec<Option<NodeRecord>>,
    /// Rows present in `nodes`.
    node_count: usize,
    jobs: BTreeMap<JobId, JobRecord>,
    allocations: BTreeMap<JobId, AllocationRecord>,
    /// Dispatch order is the natural set order: priority DESC (via
    /// `Reverse`), then FIFO sequence ASC.
    pending: BTreeSet<(Reverse<u8>, u64, JobId)>,
    /// Each pending job's key, so removal is O(log n) instead of a scan
    /// (the batched scheduling pass dequeues and requeues in bulk).
    pending_pos: HashMap<JobId, (Reverse<u8>, u64)>,
    pending_seq: u64,
    /// Every critical intent applied, in order.
    wal: Wal,
}

impl SystemDb {
    /// Empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuild a database from a log's bytes by applying its intact
    /// records in order; a torn or corrupt tail ends the replay at the last
    /// whole record. Heartbeat status writes are not logged, so a node's
    /// `last_seen` is what its last registration wrote. An intact record
    /// that is no [`WriteIntent`] is an error, and so is a node uid not
    /// below the log's length: uids are issued densely from 0 and each
    /// costs the log a record of more than 20 bytes, so a larger uid was
    /// never issued, and it would size the dense node table to itself.
    pub fn replay(bytes: &[u8]) -> Result<SystemDb, WireError> {
        let mut db = SystemDb::new();
        for record in Wal::recover(bytes).records {
            let intent = WriteIntent::decode(&record)?;
            if let WriteIntent::UpsertNode(row) = &intent {
                if row.uid.slot() >= bytes.len() {
                    let (declared, max) = (row.uid.0, bytes.len() as u64);
                    return Err(WireError::LengthOverflow { declared, max });
                }
            }
            db.apply(SimTime::ZERO, intent);
        }
        Ok(db)
    }

    /// The write-ahead log's bytes, what [`SystemDb::replay`] reads.
    pub fn log(&self) -> &[u8] {
        self.wal.bytes()
    }

    /// Apply one write submitted at `at` (the time a heartbeat status write
    /// stamps). Returns whether it found its row: an insert always does; a
    /// write to an unknown node or job, a job not pending or a freed
    /// allocation is a no-op. A write that finds its row is appended to the
    /// log, as the intent itself, before it applies — except
    /// [`WriteIntent::NodeSeen`], monitoring churn the next beat supersedes.
    pub fn apply(&mut self, at: SimTime, intent: WriteIntent) -> bool {
        use WriteIntent as W;
        let found = match &intent {
            W::UpsertNode(_) | W::SubmitJob { .. } | W::Allocate { .. } => true,
            W::SetNodeState(uid, _) | W::NodeSeen(uid) => self.node(*uid).is_some(),
            W::SetJobState(job, _) | W::RequeueJob(job) => self.jobs.contains_key(job),
            W::TakePending(job) => self.pending_pos.contains_key(job),
            W::Deallocate(job) => self.allocations.contains_key(job),
        };
        if !found {
            return false;
        }
        if !matches!(intent, W::NodeSeen(_)) {
            self.wal.append(|w| intent.encode(w)).expect("small record");
        }
        match intent {
            W::UpsertNode(rec) => {
                // `rec.uid` is a uid the coordinator issued: the table
                // grows to it.
                let slot = rec.uid.slot();
                assert!(slot < usize::MAX, "uids are table positions");
                if slot >= self.nodes.len() {
                    self.nodes.resize(slot + 1, None);
                }
                if self.nodes[slot].replace(rec).is_none() {
                    self.node_count += 1;
                }
            }
            W::SetNodeState(uid, state) => self.node_mut(uid).expect("found").state = state,
            W::NodeSeen(uid) => self.node_mut(uid).expect("found").last_seen = at,
            W::SubmitJob {
                job,
                submitted_at,
                priority,
                user,
            } => {
                let state = JobState::Pending;
                let row = JobRecord {
                    job,
                    submitted_at,
                    priority,
                    user,
                    state,
                };
                self.jobs.insert(job, row);
                self.enqueue(job, priority);
            }
            W::SetJobState(job, state) => self.jobs.get_mut(&job).expect("found").state = state,
            W::TakePending(job) => self.dequeue(job),
            W::RequeueJob(job) => {
                // Keeps its priority but goes to the back of its class.
                let rec = self.jobs.get_mut(&job).expect("found");
                rec.state = JobState::Pending;
                let priority = rec.priority;
                self.allocations.remove(&job);
                self.enqueue(job, priority);
            }
            W::Allocate {
                job,
                node,
                gpu_indices,
                at,
            } => {
                self.dequeue(job);
                if let Some(rec) = self.jobs.get_mut(&job) {
                    rec.state = JobState::Allocated;
                }
                let row = AllocationRecord {
                    job,
                    node,
                    gpu_indices,
                    at,
                };
                self.allocations.insert(job, row);
            }
            W::Deallocate(job) => {
                self.allocations.remove(&job);
            }
        }
        true
    }

    // ---- nodes ----

    /// Fetch a node row.
    pub fn node(&self, uid: NodeUid) -> Option<&NodeRecord> {
        self.nodes.get(uid.slot())?.as_ref()
    }

    fn node_mut(&mut self, uid: NodeUid) -> Option<&mut NodeRecord> {
        self.nodes.get_mut(uid.slot())?.as_mut()
    }

    /// Count of registered nodes.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    // ---- jobs + pending queue ----

    fn enqueue(&mut self, job: JobId, priority: u8) {
        // A job can be pending at most once.
        self.dequeue(job);
        let key = (Reverse(priority), self.pending_seq);
        self.pending_seq += 1;
        self.pending.insert((key.0, key.1, job));
        self.pending_pos.insert(job, key);
    }

    fn dequeue(&mut self, job: JobId) {
        if let Some((p, seq)) = self.pending_pos.remove(&job) {
            self.pending.remove(&(p, seq, job));
        }
    }

    /// Fetch a job row.
    pub fn job(&self, job: JobId) -> Option<&JobRecord> {
        self.jobs.get(&job)
    }

    /// Number of pending jobs.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Pending jobs in dispatch order (highest priority, then FIFO). The
    /// queue's natural order — one in-order walk, no sorting, and no
    /// allocation: the scheduling pass copies it into a buffer it keeps.
    pub fn pending_in_order(&self) -> impl Iterator<Item = JobId> + '_ {
        self.pending.iter().map(|&(_, _, j)| j)
    }

    // ---- allocations ----

    /// The allocation of a job, if placed.
    pub fn allocation(&self, job: JobId) -> Option<&AllocationRecord> {
        self.allocations.get(&job)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use WriteIntent as W;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// All nodes in a given state, in uid order.
    fn nodes_in_state(db: &SystemDb, state: NodeState) -> impl Iterator<Item = &NodeRecord> + '_ {
        db.nodes.iter().flatten().filter(move |n| n.state == state)
    }

    /// Peek the next pending job: highest priority first, then FIFO.
    fn peek_pending(db: &SystemDb) -> Option<JobId> {
        db.pending.first().map(|&(_, _, j)| j)
    }

    fn node(uid: u64) -> NodeRecord {
        NodeRecord {
            uid: NodeUid(uid),
            hostname: format!("ws-{uid}"),
            gpu_count: 1,
            registered_at: t(0),
            last_seen: t(0),
            state: NodeState::Active,
        }
    }

    /// Submit as the system user, the only submitter `Platform` has.
    fn submit(db: &mut SystemDb, job: u64, at: u64, priority: u8) {
        db.apply(
            t(at),
            W::SubmitJob {
                job: JobId(job),
                submitted_at: t(at),
                priority,
                user: UserId::SYSTEM,
            },
        );
    }

    fn allocate(db: &mut SystemDb, job: u64, node: u64, at: u64) {
        db.apply(
            t(at),
            W::Allocate {
                job: JobId(job),
                node: NodeUid(node),
                gpu_indices: vec![0],
                at: t(at),
            },
        );
    }

    #[test]
    fn node_crud() {
        let mut db = SystemDb::new();
        db.apply(t(0), W::UpsertNode(node(1)));
        db.apply(t(0), W::UpsertNode(node(2)));
        assert_eq!(db.node_count(), 2);
        assert_eq!(db.node(NodeUid(1)).unwrap().hostname, "ws-1");
        assert!(db.apply(t(0), W::SetNodeState(NodeUid(2), NodeState::Unavailable)));
        assert_eq!(nodes_in_state(&db, NodeState::Active).count(), 1);
        assert_eq!(nodes_in_state(&db, NodeState::Unavailable).count(), 1);
        assert!(!db.apply(t(0), W::SetNodeState(NodeUid(9), NodeState::Active)));
        // A re-registration replaces its row: one row per uid.
        db.apply(t(0), W::UpsertNode(node(1)));
        assert_eq!(db.node_count(), 2);
        // uid 0 was never written: the dense table holds no row there, nor
        // past its end.
        assert!(db.node(NodeUid(0)).is_none());
        assert!(db.node(NodeUid(u64::MAX)).is_none());
        assert!(!db.apply(t(1), W::NodeSeen(NodeUid(u64::MAX))));
    }

    #[test]
    fn heartbeat_write_updates_last_seen_only() {
        let mut db = SystemDb::new();
        db.apply(t(0), W::UpsertNode(node(1)));
        let wal0 = db.log().len();
        assert!(db.apply(t(42), W::NodeSeen(NodeUid(1))));
        assert_eq!(db.node(NodeUid(1)).unwrap().last_seen, t(42));
        assert_eq!(db.log().len(), wal0, "monitoring churn is not WAL-logged");
        assert!(!db.apply(t(42), W::NodeSeen(NodeUid(9))), "unknown node");
    }

    #[test]
    fn pending_queue_priority_then_fifo() {
        let mut db = SystemDb::new();
        submit(&mut db, 1, 0, 1);
        submit(&mut db, 2, 1, 5);
        submit(&mut db, 3, 2, 1);
        submit(&mut db, 4, 3, 5);
        assert_eq!(
            db.pending_in_order().collect::<Vec<_>>(),
            vec![JobId(2), JobId(4), JobId(1), JobId(3)]
        );
        assert_eq!(peek_pending(&db), Some(JobId(2)));
    }

    #[test]
    fn allocate_removes_from_pending() {
        let mut db = SystemDb::new();
        submit(&mut db, 1, 0, 1);
        assert_eq!(db.pending_count(), 1);
        allocate(&mut db, 1, 3, 5);
        assert_eq!(db.pending_count(), 0);
        assert_eq!(db.job(JobId(1)).unwrap().state, JobState::Allocated);
        let a = db.allocation(JobId(1)).unwrap();
        assert_eq!(a.node, NodeUid(3));
    }

    #[test]
    fn requeue_after_node_loss() {
        let mut db = SystemDb::new();
        submit(&mut db, 1, 0, 3);
        allocate(&mut db, 1, 3, 5);
        assert!(db.apply(t(6), W::RequeueJob(JobId(1))));
        assert_eq!(db.pending_count(), 1);
        assert_eq!(db.job(JobId(1)).unwrap().state, JobState::Pending);
        assert!(db.allocation(JobId(1)).is_none());
        // Priority preserved.
        assert_eq!(peek_pending(&db), Some(JobId(1)));
    }

    #[test]
    fn requeue_goes_behind_same_priority_peers() {
        let mut db = SystemDb::new();
        submit(&mut db, 1, 0, 1);
        submit(&mut db, 2, 1, 1);
        allocate(&mut db, 1, 3, 5);
        db.apply(t(6), W::RequeueJob(JobId(1)));
        assert_eq!(
            db.pending_in_order().collect::<Vec<_>>(),
            vec![JobId(2), JobId(1)]
        );
    }

    #[test]
    fn take_pending_unknown_is_false() {
        let mut db = SystemDb::new();
        assert!(!db.apply(t(0), W::TakePending(JobId(404))));
        assert!(!db.apply(t(0), W::RequeueJob(JobId(404))));
    }

    /// Failure paths must not leave partial state behind: an unknown-job
    /// take/requeue/deallocate/state change is a clean no-op (no WAL
    /// record, no phantom queue entry).
    #[test]
    fn unknown_job_operations_leave_no_trace() {
        let mut db = SystemDb::new();
        submit(&mut db, 1, 0, 1);
        let wal0 = db.log().len();
        assert!(!db.apply(t(1), W::TakePending(JobId(404))));
        assert!(!db.apply(t(1), W::RequeueJob(JobId(404))));
        assert!(!db.apply(t(1), W::Deallocate(JobId(404))));
        assert!(!db.apply(t(1), W::SetJobState(JobId(404), JobState::Failed)));
        assert_eq!(db.log().len(), wal0, "no WAL growth for no-ops");
        assert_eq!(db.pending_count(), 1, "real queue entry untouched");
    }

    /// WAL byte accounting across the allocation lifecycle: allocate and
    /// deallocate are both durable, and a second deallocate appends
    /// nothing.
    #[test]
    fn wal_accounts_deallocate_once() {
        let mut db = SystemDb::new();
        submit(&mut db, 1, 0, 1);
        allocate(&mut db, 1, 3, 5);
        let after_alloc = db.log().len();
        assert!(db.apply(t(6), W::Deallocate(JobId(1))));
        let after_dealloc = db.log().len();
        assert!(
            after_dealloc > after_alloc,
            "deallocate must be WAL-logged (recovery must not resurrect the slot)"
        );
        assert!(!db.apply(t(7), W::Deallocate(JobId(1))), "already gone");
        assert_eq!(db.log().len(), after_dealloc, "double-free appends nothing");
        assert!(db.allocation(JobId(1)).is_none());
    }

    #[test]
    fn requeue_while_pending_does_not_duplicate() {
        let mut db = SystemDb::new();
        submit(&mut db, 1, 0, 1);
        submit(&mut db, 2, 1, 1);
        assert!(
            db.apply(t(2), W::RequeueJob(JobId(1))),
            "requeue of a pending job"
        );
        assert_eq!(db.pending_count(), 2, "no duplicate entry");
        // It moved behind its peer.
        assert_eq!(
            db.pending_in_order().collect::<Vec<_>>(),
            vec![JobId(2), JobId(1)]
        );
        assert!(db.apply(t(3), W::TakePending(JobId(1))));
        assert!(
            !db.apply(t(3), W::TakePending(JobId(1))),
            "single entry to take"
        );
    }

    #[test]
    fn bulk_drain_preserves_dispatch_order() {
        let mut db = SystemDb::new();
        for i in 0..100u64 {
            submit(&mut db, i, i, (i % 3) as u8);
        }
        let order = db.pending_in_order().collect::<Vec<_>>();
        assert_eq!(order.len(), 100);
        // Priority classes descend; FIFO inside each class.
        let prio = |j: &JobId| db.job(*j).unwrap().priority;
        for w in order.windows(2) {
            assert!(
                prio(&w[0]) > prio(&w[1]) || (prio(&w[0]) == prio(&w[1]) && w[0].0 < w[1].0),
                "order violated at {w:?}"
            );
        }
        for j in order {
            assert!(db.apply(t(100), W::TakePending(j)));
        }
        assert_eq!(db.pending_count(), 0);
    }

    /// The queue has no fair-share ordering: priority dominates whoever
    /// submitted, however much that user already has queued.
    #[test]
    fn fair_share_priority_still_dominates() {
        let mut db = SystemDb::new();
        for (job, at, priority, user) in [(1, 0, 0, 1), (2, 1, 5, 1), (3, 2, 5, 1), (4, 3, 0, 2)] {
            let (job, submitted_at, user) = (JobId(job), t(at), UserId(user));
            let intent = W::SubmitJob {
                job,
                submitted_at,
                priority,
                user,
            };
            db.apply(submitted_at, intent);
        }
        assert_eq!(
            db.pending_in_order().collect::<Vec<_>>(),
            vec![JobId(2), JobId(3), JobId(1), JobId(4)]
        );
    }

    #[test]
    fn writes_counted_and_wal_grows() {
        let mut db = SystemDb::new();
        db.apply(t(0), W::UpsertNode(node(1)));
        submit(&mut db, 1, 0, 1);
        allocate(&mut db, 1, 1, 1);
        assert!(!db.log().is_empty());
        assert_eq!(
            Wal::recover(db.log()).records.len(),
            3,
            "one record a write"
        );
    }

    proptest! {
        /// Random submissions, takes, requeues of pending jobs and
        /// requeues of taken ones (a requeue goes to the back of its
        /// class) drain like a stable sort by priority DESC of the jobs in
        /// the order they last entered the queue.
        #[test]
        fn prop_pending_drains_by_priority_then_fifo(
            ops in proptest::collection::vec((0u8..4, 0u8..4, 0usize..64), 1..80),
        ) {
            let mut db = SystemDb::new();
            // (priority, job) in the order each last entered the queue.
            let mut queued: Vec<(u8, JobId)> = Vec::new();
            let mut taken: Vec<(u8, JobId)> = Vec::new();
            let mut next = 0u64;
            for (op, priority, pick) in ops {
                match op {
                    0 => {
                        submit(&mut db, next, next, priority);
                        queued.push((priority, JobId(next)));
                        next += 1;
                    }
                    1 if !queued.is_empty() => {
                        let entry = queued.remove(pick % queued.len());
                        prop_assert!(db.apply(t(next), W::TakePending(entry.1)));
                        taken.push(entry);
                    }
                    2 if !queued.is_empty() => {
                        let entry = queued.remove(pick % queued.len());
                        prop_assert!(db.apply(t(next), W::RequeueJob(entry.1)));
                        queued.push(entry);
                    }
                    3 if !taken.is_empty() => {
                        let entry = taken.remove(pick % taken.len());
                        prop_assert!(db.apply(t(next), W::RequeueJob(entry.1)));
                        queued.push(entry);
                    }
                    _ => {}
                }
            }
            queued.sort_by_key(|&(priority, _)| Reverse(priority));
            let expected: Vec<JobId> = queued.iter().map(|&(_, job)| job).collect();
            prop_assert_eq!(peek_pending(&db), expected.first().copied());
            prop_assert_eq!(db.pending_in_order().collect::<Vec<_>>(), expected);
        }
    }
}

#[cfg(test)]
mod fair_share_oracle {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The submitting user is stored on the job but plays no part in
        /// ordering: same-priority jobs from any mix of users drain in
        /// pure submission order.
        #[test]
        fn prop_fifo_ignores_fair_share_inputs(
            users in proptest::collection::vec(0u64..6, 1..40),
        ) {
            let mut db = SystemDb::new();
            for (i, user) in users.iter().enumerate() {
                let submitted_at = SimTime::from_secs(i as u64);
                let intent = WriteIntent::SubmitJob {
                    job: JobId(i as u64),
                    submitted_at,
                    priority: 1,
                    user: UserId(*user),
                };
                db.apply(submitted_at, intent);
            }
            let expected: Vec<JobId> = (0..users.len() as u64).map(JobId).collect();
            prop_assert_eq!(db.pending_in_order().collect::<Vec<_>>(), expected);
        }
    }
}

#[cfg(test)]
mod replay {
    use super::*;
    use gpunion_protocol::WireSink;
    use proptest::prelude::*;
    use WriteIntent as W;

    /// Everything a replay must rebuild: every table, the pending order
    /// and its sequence counter. Each node's `last_seen` is left out —
    /// only the unlogged heartbeat status write moves it.
    fn rows(db: &SystemDb) -> String {
        let nodes: Vec<_> = db
            .nodes
            .iter()
            .map(|n| {
                n.clone().map(|n| NodeRecord {
                    last_seen: SimTime::ZERO,
                    ..n
                })
            })
            .collect();
        let pending_pos: BTreeMap<_, _> = db.pending_pos.iter().collect();
        format!(
            "{nodes:?} {} {:?} {:?} {:?} {pending_pos:?} {}",
            db.node_count, db.jobs, db.allocations, db.pending, db.pending_seq
        )
    }

    /// One intent over a small id space, so most writes find their row.
    fn intent((kind, id, small, secs): (u8, u64, u8, u64)) -> WriteIntent {
        use JobState::*;
        use NodeState::*;
        let node_state = [Active, Paused, Unavailable, Departed][small as usize % 4];
        let at = SimTime::from_secs(secs);
        match kind {
            0 => W::UpsertNode(NodeRecord {
                uid: NodeUid(id),
                hostname: format!("ws-{id}-{small}"),
                gpu_count: small,
                registered_at: at,
                last_seen: at,
                state: node_state,
            }),
            1 => W::SetNodeState(NodeUid(id), node_state),
            2 => W::NodeSeen(NodeUid(id)),
            3 => W::SubmitJob {
                job: JobId(id),
                submitted_at: at,
                priority: small,
                user: UserId(secs % 3),
            },
            4 => {
                let state = [Pending, Allocated, Completed, Failed, Cancelled][small as usize];
                W::SetJobState(JobId(id), state)
            }
            5 => W::TakePending(JobId(id)),
            6 => W::RequeueJob(JobId(id)),
            7 => W::Allocate {
                job: JobId(id),
                node: NodeUid(secs % 8),
                gpu_indices: (0..small).collect(),
                at,
            },
            _ => W::Deallocate(JobId(id)),
        }
    }

    proptest! {
        /// Replaying the log rebuilds the live database; a log torn `tail`
        /// bytes short rebuilds it as of its last whole record. Heartbeat
        /// status writes (`NodeSeen`) are applied but never logged.
        #[test]
        fn prop_replay_of_the_log_is_the_database(
            ops in proptest::collection::vec((0u8..9, 0u64..8, 0u8..5, 0u64..1000), 1..80),
            tail in 0usize..4096,
        ) {
            let mut live = SystemDb::new();
            // The database as of each log length it passed through.
            let mut as_of = vec![(0, rows(&live))];
            for op in ops {
                let intent = intent(op);
                prop_assert_eq!(
                    WriteIntent::decode(&encoded(&intent)).expect("round trip"),
                    intent.clone()
                );
                live.apply(SimTime::from_secs(op.3), intent);
                as_of.push((live.log().len(), rows(&live)));
            }
            let replayed = SystemDb::replay(live.log()).expect("the log decodes");
            prop_assert_eq!(rows(&replayed), rows(&live));
            prop_assert_eq!(replayed.log(), live.log(), "the replay re-logs every record");

            let torn = &live.log()[..live.log().len() - tail % (live.log().len() + 1)];
            let replayed = SystemDb::replay(torn).expect("the log decodes");
            let (whole, expected) = as_of
                .iter()
                .rev()
                .find(|(len, _)| *len <= torn.len())
                .expect("the empty log is a record boundary");
            prop_assert_eq!(replayed.log(), &live.log()[..*whole]);
            prop_assert_eq!(&rows(&replayed), expected);
        }
    }

    /// A checksummed record that is no intent — an unknown tag, or an
    /// intent with bytes left over — fails the replay instead of being
    /// skipped.
    #[test]
    fn an_intact_record_that_is_no_intent_is_an_error() {
        let mut tail = encoded(&W::TakePending(JobId(1)));
        tail.push(0);
        for record in [vec![9, 0, 0, 0, 0, 0, 0, 0, 0], tail] {
            let mut wal = Wal::default();
            wal.append(|w| w.put_fixed(&record)).expect("small record");
            assert!(SystemDb::replay(wal.bytes()).is_err(), "{record:?}");
        }
    }

    /// A checksummed registration whose uid no coordinator issued — one
    /// past the platform's index type, or one far past the log's length —
    /// fails the replay instead of panicking or sizing the node table to
    /// it.
    #[test]
    fn a_node_uid_past_the_log_is_an_error() {
        for uid in [u64::MAX, 1 << 40] {
            let at = SimTime::ZERO;
            let row = NodeRecord {
                uid: NodeUid(uid),
                hostname: "ws".into(),
                gpu_count: 1,
                registered_at: at,
                last_seen: at,
                state: NodeState::Active,
            };
            let mut wal = Wal::default();
            wal.append(|w| W::UpsertNode(row).encode(w))
                .expect("small record");
            assert_eq!(Wal::recover(wal.bytes()).records.len(), 1, "intact");
            let max = wal.bytes().len() as u64;
            assert_eq!(
                SystemDb::replay(wal.bytes()).unwrap_err(),
                WireError::LengthOverflow { declared: uid, max }
            );
        }
    }

    fn encoded(intent: &WriteIntent) -> Vec<u8> {
        let mut w = gpunion_protocol::WireWriter::new();
        intent.encode(&mut w);
        w.finish().to_vec()
    }
}
