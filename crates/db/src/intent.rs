//! The database's one write vocabulary.
//!
//! A [`WriteIntent`] is what a writer queues at the [`crate::DbActor`],
//! what [`crate::SystemDb::apply`] applies, and what the write-ahead log records:
//! each logged record is one intent in the wire codec's encoding, so
//! [`crate::SystemDb::replay`] rebuilds the tables by decoding and applying the
//! log in order.

use crate::store::{JobState, NodeRecord, NodeState};
use gpunion_des::SimTime;
use gpunion_protocol::{JobId, NodeUid, UserId, WireError, WireReader, WireSink};

/// A typed write transaction bound for the system database.
///
/// Everything that mutates [`crate::SystemDb`] is one of these; readers use the
/// snapshot accessors ([`crate::DbActor::state`]) and never hold
/// references across a turn.
#[derive(Debug, Clone, PartialEq)]
pub enum WriteIntent {
    /// Insert or replace a node row (registration).
    UpsertNode(NodeRecord),
    /// Flip a node's liveness state.
    SetNodeState(NodeUid, NodeState),
    /// Heartbeat status write: refresh the node's `last_seen` column.
    /// Sheddable — the next heartbeat carries fresher data anyway.
    NodeSeen(NodeUid),
    /// Insert a job row and enqueue it as pending.
    SubmitJob {
        /// Job id (assigned by the coordinator).
        job: JobId,
        /// Submission time recorded in the row.
        submitted_at: SimTime,
        /// Dispatch priority.
        priority: u8,
        /// Submitting user.
        user: UserId,
    },
    /// Update a job's lifecycle state.
    SetJobState(JobId, JobState),
    /// Remove a job from the pending queue (dispatched or cancelled).
    TakePending(JobId),
    /// Re-enqueue a displaced job at the back of its priority class.
    RequeueJob(JobId),
    /// Record an allocation (job leaves pending).
    Allocate {
        /// The job.
        job: JobId,
        /// Hosting node.
        node: NodeUid,
        /// GPU indices bound on that node.
        gpu_indices: Vec<u8>,
        /// Allocation time recorded in the row.
        at: SimTime,
    },
    /// Remove an allocation (job finished or torn down).
    Deallocate(JobId),
}

const NODE_STATES: [NodeState; 4] = {
    use NodeState::*;
    [Active, Paused, Unavailable, Departed]
};
const JOB_STATES: [JobState; 5] = {
    use JobState::*;
    [Pending, Allocated, Completed, Failed, Cancelled]
};

impl WriteIntent {
    /// Whether applying this intent can add a job to the pending queue.
    pub(crate) fn enqueues(&self) -> bool {
        matches!(self, Self::SubmitJob { .. } | Self::RequeueJob(_))
    }

    /// Write this intent as one log record's payload: a tag, the node or
    /// job the write is keyed by, then the variant's other fields.
    pub(crate) fn encode<S: WireSink>(&self, w: &mut S) {
        use WriteIntent as W;
        let (tag, key) = match self {
            W::UpsertNode(n) => (0, n.uid.0),
            W::SetNodeState(uid, _) => (1, uid.0),
            W::NodeSeen(uid) => (2, uid.0),
            W::SubmitJob { job, .. } => (3, job.0),
            W::SetJobState(job, _) => (4, job.0),
            W::TakePending(job) => (5, job.0),
            W::RequeueJob(job) => (6, job.0),
            W::Allocate { job, .. } => (7, job.0),
            W::Deallocate(job) => (8, job.0),
        };
        w.put_u8(tag);
        w.put_u64(key);
        match self {
            W::UpsertNode(n) => {
                w.put_str(&n.hostname);
                w.put_u8(n.gpu_count);
                w.put_u64(n.registered_at.as_nanos());
                w.put_u64(n.last_seen.as_nanos());
                w.put_u8(n.state as u8);
            }
            W::SetNodeState(_, state) => w.put_u8(*state as u8),
            W::SubmitJob {
                submitted_at,
                priority,
                user,
                ..
            } => {
                w.put_u64(submitted_at.as_nanos());
                w.put_u8(*priority);
                w.put_u64(user.0);
            }
            W::SetJobState(_, state) => w.put_u8(*state as u8),
            W::Allocate {
                node,
                gpu_indices,
                at,
                ..
            } => {
                w.put_u64(node.0);
                w.put_bytes(gpu_indices);
                w.put_u64(at.as_nanos());
            }
            W::NodeSeen(_) | W::TakePending(_) | W::RequeueJob(_) | W::Deallocate(_) => {}
        }
    }

    /// Read one log record's payload back; the record must be consumed
    /// whole.
    pub(crate) fn decode(record: &[u8]) -> Result<Self, WireError> {
        use WriteIntent as W;
        let r = &mut WireReader::new(record);
        let tag = r.get_u8()?;
        let key = r.get_u64()?;
        let (uid, job) = (NodeUid(key), JobId(key));
        let time = |r: &mut WireReader| r.get_u64().map(SimTime::from_nanos);
        let node_state = |r: &mut WireReader| from_tag(&NODE_STATES, r.get_u8()?, "NodeState");
        let intent = match tag {
            0 => W::UpsertNode(NodeRecord {
                uid,
                hostname: r.get_str()?,
                gpu_count: r.get_u8()?,
                registered_at: time(r)?,
                last_seen: time(r)?,
                state: node_state(r)?,
            }),
            1 => W::SetNodeState(uid, node_state(r)?),
            2 => W::NodeSeen(uid),
            3 => W::SubmitJob {
                job,
                submitted_at: time(r)?,
                priority: r.get_u8()?,
                user: UserId(r.get_u64()?),
            },
            4 => W::SetJobState(job, from_tag(&JOB_STATES, r.get_u8()?, "JobState")?),
            5 => W::TakePending(job),
            6 => W::RequeueJob(job),
            7 => W::Allocate {
                job,
                node: NodeUid(r.get_u64()?),
                gpu_indices: r.get_bytes()?,
                at: time(r)?,
            },
            8 => W::Deallocate(job),
            tag => {
                let context = "WriteIntent";
                return Err(WireError::InvalidTag { context, tag });
            }
        };
        r.expect_end()?;
        Ok(intent)
    }
}

/// The variant of `all` whose discriminant (declaration order) is `tag`.
fn from_tag<T: Copy>(all: &[T], tag: u8, context: &'static str) -> Result<T, WireError> {
    all.get(tag as usize)
        .copied()
        .ok_or(WireError::InvalidTag { context, tag })
}
