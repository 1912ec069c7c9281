//! The coordinator's system database: typed tables + the pending-request
//! priority queue.
//!
//! §3.5: allocation works through "a round-robin scheduler (which processes
//! pending resource requests from a priority queue stored in the central
//! database)". This module provides that queue plus the node / job /
//! allocation tables, all WAL-backed so the coordinator can recover its
//! state after a restart.

use crate::wal::Wal;
use gpunion_des::SimTime;
use gpunion_protocol::{JobId, NodeUid, UserId};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Liveness state of a registered node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
    /// [`SystemDb::record_heartbeat`]).
    pub last_seen: SimTime,
    /// Current liveness.
    pub state: NodeState,
}

/// A job row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Default)]
pub struct SystemDb {
    nodes: BTreeMap<NodeUid, NodeRecord>,
    jobs: BTreeMap<JobId, JobRecord>,
    allocations: BTreeMap<JobId, AllocationRecord>,
    /// Dispatch order is the natural set order: priority DESC (via
    /// `Reverse`), then FIFO sequence ASC.
    pending: BTreeSet<(Reverse<u8>, u64, JobId)>,
    /// Each pending job's key, so removal is O(log n) instead of a scan
    /// (the batched scheduling pass dequeues and requeues in bulk).
    pending_pos: HashMap<JobId, (Reverse<u8>, u64)>,
    pending_seq: u64,
    wal: Wal,
    /// Write operations performed (contention-model input).
    writes: u64,
}

impl SystemDb {
    /// Empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total write operations (inserts/updates) performed.
    pub fn write_count(&self) -> u64 {
        self.writes
    }

    /// WAL size in bytes.
    #[cfg(test)]
    fn wal_bytes(&self) -> usize {
        self.wal.len_bytes()
    }

    fn log(&mut self, tag: &str, key: u64) {
        // Durability record: tag + key. Payload content is secondary for the
        // simulation; the WAL's framing/recovery machinery is the real part.
        let mut payload = Vec::with_capacity(tag.len() + 8);
        payload.extend_from_slice(tag.as_bytes());
        payload.extend_from_slice(&key.to_le_bytes());
        self.wal.append(&payload).expect("small record");
        self.writes += 1;
    }

    // ---- nodes ----

    /// Insert or replace a node row.
    pub fn upsert_node(&mut self, rec: NodeRecord) {
        self.log("node", rec.uid.0);
        self.nodes.insert(rec.uid, rec);
    }

    /// Fetch a node row.
    pub fn node(&self, uid: NodeUid) -> Option<&NodeRecord> {
        self.nodes.get(&uid)
    }

    /// Set a node's liveness state. Returns false if unknown.
    pub fn set_node_state(&mut self, uid: NodeUid, state: NodeState) -> bool {
        let Some(n) = self.nodes.get_mut(&uid) else {
            return false;
        };
        n.state = state;
        self.writes += 1;
        true
    }

    /// Heartbeat status write: refresh a node's `last_seen` column.
    /// Monitoring churn is not WAL-logged (it needs no durability — the
    /// next heartbeat supersedes it), but it is a write transaction and
    /// counts as one. Returns false if the node is unknown.
    pub fn record_heartbeat(&mut self, uid: NodeUid, at: SimTime) -> bool {
        let Some(n) = self.nodes.get_mut(&uid) else {
            return false;
        };
        n.last_seen = at;
        self.writes += 1;
        true
    }

    /// All nodes in a given state, in uid order.
    #[cfg(test)]
    fn nodes_in_state(&self, state: NodeState) -> impl Iterator<Item = &NodeRecord> + '_ {
        self.nodes.values().filter(move |n| n.state == state)
    }

    /// Count of registered nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    // ---- jobs + pending queue ----

    /// Insert a job and enqueue it as pending, at the back of its priority
    /// class.
    pub fn submit_job(&mut self, job: JobId, submitted_at: SimTime, priority: u8, user: UserId) {
        self.log("job", job.0);
        self.jobs.insert(
            job,
            JobRecord {
                job,
                submitted_at,
                priority,
                user,
                state: JobState::Pending,
            },
        );
        self.enqueue(job, priority);
    }

    fn enqueue(&mut self, job: JobId, priority: u8) {
        // A job can be pending at most once.
        self.dequeue(job);
        let key = (Reverse(priority), self.pending_seq);
        self.pending_seq += 1;
        self.pending.insert((key.0, key.1, job));
        self.pending_pos.insert(job, key);
    }

    fn dequeue(&mut self, job: JobId) -> bool {
        match self.pending_pos.remove(&job) {
            Some((p, seq)) => {
                self.pending.remove(&(p, seq, job));
                true
            }
            None => false,
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

    /// Peek the next pending job: highest priority first, then FIFO.
    #[cfg(test)]
    fn peek_pending(&self) -> Option<JobId> {
        self.pending.first().map(|&(_, _, j)| j)
    }

    /// Pending jobs in dispatch order (highest priority, then FIFO). The
    /// queue's natural order — one in-order walk, no sorting, and no
    /// allocation: the scheduling pass copies it into a buffer it keeps.
    pub fn pending_in_order(&self) -> impl Iterator<Item = JobId> + '_ {
        self.pending.iter().map(|&(_, _, j)| j)
    }

    /// Remove a job from the pending queue (it was allocated or cancelled).
    /// Keyed lookup, O(log n). Returns false when it was not pending.
    pub fn take_pending(&mut self, job: JobId) -> bool {
        let removed = self.dequeue(job);
        if removed {
            self.writes += 1;
        }
        removed
    }

    /// Re-enqueue a job (migration after node loss, or an index miss in a
    /// batched pass). Keeps its priority but goes to the back of its class.
    pub fn requeue_job(&mut self, job: JobId) -> bool {
        let Some(rec) = self.jobs.get_mut(&job) else {
            return false;
        };
        rec.state = JobState::Pending;
        let priority = rec.priority;
        self.allocations.remove(&job);
        self.enqueue(job, priority);
        self.log("requeue", job.0);
        true
    }

    /// Update a job's state.
    pub fn set_job_state(&mut self, job: JobId, state: JobState) -> bool {
        let Some(rec) = self.jobs.get_mut(&job) else {
            return false;
        };
        rec.state = state;
        self.writes += 1;
        true
    }

    // ---- allocations ----

    /// Record an allocation (job leaves pending).
    pub fn allocate(&mut self, job: JobId, node: NodeUid, gpu_indices: Vec<u8>, at: SimTime) {
        self.take_pending(job);
        self.set_job_state(job, JobState::Allocated);
        self.log("alloc", job.0);
        self.allocations.insert(
            job,
            AllocationRecord {
                job,
                node,
                gpu_indices,
                at,
            },
        );
    }

    /// The allocation of a job, if placed.
    pub fn allocation(&self, job: JobId) -> Option<&AllocationRecord> {
        self.allocations.get(&job)
    }

    /// Jobs currently allocated on a node, in job-id order. Returns an
    /// iterator — node-loss sweeps call this per lost node and must not
    /// allocate per call.
    pub fn jobs_on_node(&self, node: NodeUid) -> impl Iterator<Item = JobId> + '_ {
        self.allocations
            .values()
            .filter(move |a| a.node == node)
            .map(|a| a.job)
    }

    /// Remove an allocation (job finished or was torn down). Durable:
    /// recovery must not resurrect a freed slot, so the removal is
    /// WAL-logged like the allocation was.
    pub fn deallocate(&mut self, job: JobId) -> bool {
        let existed = self.allocations.remove(&job).is_some();
        if existed {
            self.log("dealloc", job.0);
        }
        existed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
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
        db.submit_job(JobId(job), t(at), priority, UserId::SYSTEM);
    }

    #[test]
    fn node_crud() {
        let mut db = SystemDb::new();
        db.upsert_node(node(1));
        db.upsert_node(node(2));
        assert_eq!(db.node_count(), 2);
        assert_eq!(db.node(NodeUid(1)).unwrap().hostname, "ws-1");
        assert!(db.set_node_state(NodeUid(2), NodeState::Unavailable));
        assert_eq!(db.nodes_in_state(NodeState::Active).count(), 1);
        assert_eq!(db.nodes_in_state(NodeState::Unavailable).count(), 1);
        assert!(!db.set_node_state(NodeUid(9), NodeState::Active));
    }

    #[test]
    fn heartbeat_write_updates_last_seen_only() {
        let mut db = SystemDb::new();
        db.upsert_node(node(1));
        let wal0 = db.wal_bytes();
        let w0 = db.write_count();
        assert!(db.record_heartbeat(NodeUid(1), t(42)));
        assert_eq!(db.node(NodeUid(1)).unwrap().last_seen, t(42));
        assert_eq!(db.write_count(), w0 + 1, "status write counted");
        assert_eq!(db.wal_bytes(), wal0, "monitoring churn is not WAL-logged");
        assert!(!db.record_heartbeat(NodeUid(9), t(42)), "unknown node");
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
        assert_eq!(db.peek_pending(), Some(JobId(2)));
    }

    #[test]
    fn allocate_removes_from_pending() {
        let mut db = SystemDb::new();
        submit(&mut db, 1, 0, 1);
        assert_eq!(db.pending_count(), 1);
        db.allocate(JobId(1), NodeUid(3), vec![0], t(5));
        assert_eq!(db.pending_count(), 0);
        assert_eq!(db.job(JobId(1)).unwrap().state, JobState::Allocated);
        let a = db.allocation(JobId(1)).unwrap();
        assert_eq!(a.node, NodeUid(3));
        assert_eq!(
            db.jobs_on_node(NodeUid(3)).collect::<Vec<_>>(),
            vec![JobId(1)]
        );
    }

    #[test]
    fn requeue_after_node_loss() {
        let mut db = SystemDb::new();
        submit(&mut db, 1, 0, 3);
        db.allocate(JobId(1), NodeUid(3), vec![0], t(5));
        assert!(db.requeue_job(JobId(1)));
        assert_eq!(db.pending_count(), 1);
        assert_eq!(db.job(JobId(1)).unwrap().state, JobState::Pending);
        assert!(db.allocation(JobId(1)).is_none());
        // Priority preserved.
        assert_eq!(db.peek_pending(), Some(JobId(1)));
    }

    #[test]
    fn requeue_goes_behind_same_priority_peers() {
        let mut db = SystemDb::new();
        submit(&mut db, 1, 0, 1);
        submit(&mut db, 2, 1, 1);
        db.allocate(JobId(1), NodeUid(3), vec![0], t(5));
        db.requeue_job(JobId(1));
        assert_eq!(
            db.pending_in_order().collect::<Vec<_>>(),
            vec![JobId(2), JobId(1)]
        );
    }

    #[test]
    fn take_pending_unknown_is_false() {
        let mut db = SystemDb::new();
        assert!(!db.take_pending(JobId(404)));
        assert!(!db.requeue_job(JobId(404)));
    }

    /// Failure paths must not leave partial state behind: an unknown-job
    /// take/requeue/deallocate is a clean no-op (no write counted, no WAL
    /// growth, no phantom queue entry).
    #[test]
    fn unknown_job_operations_leave_no_trace() {
        let mut db = SystemDb::new();
        submit(&mut db, 1, 0, 1);
        let w0 = db.write_count();
        let wal0 = db.wal_bytes();
        assert!(!db.take_pending(JobId(404)));
        assert!(!db.requeue_job(JobId(404)));
        assert!(!db.deallocate(JobId(404)));
        assert!(!db.set_job_state(JobId(404), JobState::Failed));
        assert_eq!(db.write_count(), w0, "no write counted for no-ops");
        assert_eq!(db.wal_bytes(), wal0, "no WAL growth for no-ops");
        assert_eq!(db.pending_count(), 1, "real queue entry untouched");
    }

    /// WAL byte accounting across the allocation lifecycle: allocate and
    /// deallocate are both durable, and a second deallocate appends
    /// nothing.
    #[test]
    fn wal_accounts_deallocate_once() {
        let mut db = SystemDb::new();
        submit(&mut db, 1, 0, 1);
        db.allocate(JobId(1), NodeUid(3), vec![0], t(5));
        let after_alloc = db.wal_bytes();
        assert!(db.deallocate(JobId(1)));
        let after_dealloc = db.wal_bytes();
        assert!(
            after_dealloc > after_alloc,
            "deallocate must be WAL-logged (recovery must not resurrect the slot)"
        );
        assert!(!db.deallocate(JobId(1)), "already gone");
        assert_eq!(db.wal_bytes(), after_dealloc, "double-free appends nothing");
        assert!(db.jobs_on_node(NodeUid(3)).next().is_none());
    }

    #[test]
    fn requeue_while_pending_does_not_duplicate() {
        let mut db = SystemDb::new();
        submit(&mut db, 1, 0, 1);
        submit(&mut db, 2, 1, 1);
        assert!(db.requeue_job(JobId(1)), "requeue of a pending job");
        assert_eq!(db.pending_count(), 2, "no duplicate entry");
        // It moved behind its peer.
        assert_eq!(
            db.pending_in_order().collect::<Vec<_>>(),
            vec![JobId(2), JobId(1)]
        );
        assert!(db.take_pending(JobId(1)));
        assert!(!db.take_pending(JobId(1)), "single entry to take");
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
            assert!(db.take_pending(j));
        }
        assert_eq!(db.pending_count(), 0);
    }

    /// The queue has no fair-share ordering: priority dominates whoever
    /// submitted, however much that user already has queued.
    #[test]
    fn fair_share_priority_still_dominates() {
        let mut db = SystemDb::new();
        db.submit_job(JobId(1), t(0), 0, UserId(1));
        db.submit_job(JobId(2), t(1), 5, UserId(1));
        db.submit_job(JobId(3), t(2), 5, UserId(1));
        db.submit_job(JobId(4), t(3), 0, UserId(2));
        assert_eq!(
            db.pending_in_order().collect::<Vec<_>>(),
            vec![JobId(2), JobId(3), JobId(1), JobId(4)]
        );
    }

    #[test]
    fn writes_counted_and_wal_grows() {
        let mut db = SystemDb::new();
        let w0 = db.write_count();
        db.upsert_node(node(1));
        submit(&mut db, 1, 0, 1);
        db.allocate(JobId(1), NodeUid(1), vec![0], t(1));
        assert!(db.write_count() > w0);
        assert!(db.wal_bytes() > 0);
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
                        db.submit_job(JobId(next), t(next), priority, UserId::SYSTEM);
                        queued.push((priority, JobId(next)));
                        next += 1;
                    }
                    1 if !queued.is_empty() => {
                        let entry = queued.remove(pick % queued.len());
                        prop_assert!(db.take_pending(entry.1));
                        taken.push(entry);
                    }
                    2 if !queued.is_empty() => {
                        let entry = queued.remove(pick % queued.len());
                        prop_assert!(db.requeue_job(entry.1));
                        queued.push(entry);
                    }
                    3 if !taken.is_empty() => {
                        let entry = taken.remove(pick % taken.len());
                        prop_assert!(db.requeue_job(entry.1));
                        queued.push(entry);
                    }
                    _ => {}
                }
            }
            queued.sort_by_key(|&(priority, _)| Reverse(priority));
            let expected: Vec<JobId> = queued.iter().map(|&(_, job)| job).collect();
            prop_assert_eq!(db.peek_pending(), expected.first().copied());
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
                db.submit_job(JobId(i as u64), SimTime::from_secs(i as u64), 1, UserId(*user));
            }
            let expected: Vec<JobId> = (0..users.len() as u64).map(JobId).collect();
            prop_assert_eq!(db.pending_in_order().collect::<Vec<_>>(), expected);
        }
    }
}
