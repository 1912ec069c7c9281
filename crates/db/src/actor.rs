//! The SystemDb write-queue actor (DESIGN.md §3b).
//!
//! §5.2 warns that "beyond 200 nodes, heartbeat monitoring and database
//! contention could become bottlenecks". Earlier revisions *modelled* that
//! wall with a closed-form M/M/1 formula ([`crate::contention`]); this
//! module makes it **emergent**: the database is an actor owning
//! [`SystemDb`] + WAL behind a bounded inbox of typed [`WriteIntent`]s.
//! Writers fire-and-forget an intent; the single-server queue drains one
//! intent per (stochastic) service time, and a write's latency is simply
//! when its turn comes — real queue depth, not a formula. The formula
//! survives as the validation oracle: the tests at the bottom drive the
//! actor with Poisson traffic and assert the emergent sojourn time tracks
//! `ContentionModel::transaction_latency` below the knee and blows up past
//! it.
//!
//! The actor is passive like every other component (DESIGN.md §1): the
//! embedding turn loop calls [`DbActor::next_wake`] / [`DbActor::advance`]
//! exactly as it does for the coordinator's timers, so intents complete as
//! ordinary DES events and no new scheduling machinery is needed.

use crate::store::{JobState, NodeRecord, NodeState, SystemDb};
use gpunion_des::{exponential, Online, SimDuration, SimTime};
use gpunion_protocol::{JobId, NodeUid, UserId};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::VecDeque;

/// A typed write transaction bound for the system database.
///
/// Everything that mutates [`SystemDb`] travels as one of these; readers
/// use the snapshot accessors ([`DbActor::state`]) and never hold
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

/// Write-queue actor parameters.
#[derive(Debug, Clone, Copy)]
pub struct DbActorConfig {
    /// Mean service time of one write transaction (row update + fsync).
    /// Matches [`crate::ContentionModel::default`] so the oracle comparison
    /// is like-for-like.
    pub mean_service_time: SimDuration,
    /// Inbox bound. Sheddable intents submitted past this depth are
    /// dropped (and counted). Critical intents are never dropped: writers
    /// probe [`DbActor::would_block`] and defer their own turn while the
    /// inbox is at bound — the DES analogue of a blocking database client
    /// (admissions past the bound are counted, never shed).
    pub inbox_capacity: usize,
}

impl Default for DbActorConfig {
    fn default() -> Self {
        DbActorConfig {
            // 12 ms per write: row update + WAL fsync on commodity SSD.
            mean_service_time: SimDuration::from_millis(12),
            inbox_capacity: 1024,
        }
    }
}

/// A queued write: accepted at `submitted`, applies at `applies_at`.
#[derive(Debug)]
struct QueuedWrite {
    submitted: SimTime,
    applies_at: SimTime,
    intent: WriteIntent,
}

/// The database actor: [`SystemDb`] + WAL behind a bounded write queue.
///
/// Single-server FIFO: an intent submitted at `t` begins service at
/// `max(t, busy_until)` and completes one exponential service draw later.
/// [`DbActor::submit`] returns that emergent sojourn time, which is what
/// callers quote as "database transaction latency" — the §5.2 quantity.
#[derive(Debug)]
pub struct DbActor {
    db: SystemDb,
    config: DbActorConfig,
    rng: SmallRng,
    inbox: VecDeque<QueuedWrite>,
    /// When the write currently in (or last to finish) service completes.
    busy_until: SimTime,
    /// Queued intents that can add pending jobs (SubmitJob / RequeueJob).
    /// A scheduling pass that runs while one is in flight cannot see the
    /// job yet, so the pass re-arms while this is non-zero.
    queued_enqueues: usize,
    depth_peak: usize,
    applied: u64,
    shed: u64,
    /// Critical intents admitted while the inbox was already at its bound.
    /// A writer that honours [`DbActor::would_block`] keeps this at zero up
    /// to the handful of writes a single deferred turn may still commit.
    over_bound: u64,
    sojourn: Online,
}

impl DbActor {
    /// An empty database behind an idle write queue. `seed` drives the
    /// service-time draws (deterministic given submission order).
    pub fn new(config: DbActorConfig, seed: u64) -> Self {
        DbActor {
            db: SystemDb::new(),
            config,
            rng: SmallRng::seed_from_u64(seed),
            inbox: VecDeque::new(),
            busy_until: SimTime::ZERO,
            queued_enqueues: 0,
            depth_peak: 0,
            applied: 0,
            shed: 0,
            over_bound: 0,
            sojourn: Online::new(),
        }
    }

    /// Read snapshot of the tables. Valid only within the current turn —
    /// callers must not hold it across [`DbActor::advance`].
    pub fn state(&self) -> &SystemDb {
        &self.db
    }

    /// Writes queued but not yet applied.
    pub fn depth(&self) -> usize {
        self.inbox.len()
    }

    /// In-flight writes that will add pending jobs once applied
    /// ([`WriteIntent::SubmitJob`] / [`WriteIntent::RequeueJob`]). While
    /// non-zero, a scheduling pass has more queue than it can see.
    pub fn pending_enqueues(&self) -> usize {
        self.queued_enqueues
    }

    /// Deepest the queue has been since the last telemetry reset.
    pub fn depth_peak(&self) -> usize {
        self.depth_peak
    }

    /// Writes applied to the tables so far.
    pub fn applied_writes(&self) -> u64 {
        self.applied
    }

    /// Sheddable writes dropped because the inbox was full.
    pub fn shed_writes(&self) -> u64 {
        self.shed
    }

    /// Whether a critical write submitted now would over-fill the bounded
    /// inbox. Critical intents are never dropped, so admission control is
    /// the *caller's* job: a writer that sees `true` must defer its turn
    /// (re-arm a timer and retry once a slot frees) instead of submitting —
    /// the DES-visible analogue of a blocking database client. The probe is
    /// how the coordinator actor implements critical-write backpressure.
    pub fn would_block(&self) -> bool {
        self.inbox.len() >= self.config.inbox_capacity
    }

    /// Critical intents admitted while [`DbActor::would_block`] was already
    /// `true`. A single deferred turn may still commit a couple of writes
    /// past the bound (it cannot tear its own transaction in half), so this
    /// stays within a small constant of zero under a well-behaved caller —
    /// the inbox-bound tests pin that.
    pub fn over_bound_writes(&self) -> u64 {
        self.over_bound
    }

    /// Sojourn-time statistics (submit → apply, in seconds) since the last
    /// telemetry reset. This is the measured counterpart of
    /// [`crate::ContentionModel::transaction_latency`].
    pub fn sojourn(&self) -> &Online {
        &self.sojourn
    }

    /// Clear the latency/backlog telemetry (steady-state measurements
    /// after a warm-up phase). The queue contents are untouched.
    pub fn reset_telemetry(&mut self) {
        self.depth_peak = self.inbox.len();
        self.shed = 0;
        self.over_bound = 0;
        self.sojourn = Online::new();
    }

    /// Latency a write submitted at `now` would see: residual backlog plus
    /// one mean service time. Used to pace work that must observe its own
    /// preceding writes (e.g. arming a scheduling pass).
    pub fn write_latency_estimate(&self, now: SimTime) -> SimDuration {
        self.busy_until.since(now) + self.config.mean_service_time
    }

    /// When the write at the head of the queue completes.
    pub fn next_wake(&self) -> Option<SimTime> {
        self.inbox.front().map(|w| w.applies_at)
    }

    fn service_draw(&mut self) -> SimDuration {
        let rate = 1.0 / self.config.mean_service_time.as_secs_f64();
        SimDuration::from_secs_f64(exponential(&mut self.rng, rate))
    }

    /// Enqueue a critical write. Returns the emergent sojourn time (queue
    /// wait + service) the write will experience. Critical intents are
    /// never dropped; callers are expected to probe
    /// [`DbActor::would_block`] first and defer their turn when the inbox
    /// is at bound (admissions past it are counted in
    /// [`DbActor::over_bound_writes`]).
    pub fn submit(&mut self, now: SimTime, intent: WriteIntent) -> SimDuration {
        if self.inbox.len() >= self.config.inbox_capacity {
            self.over_bound += 1;
        }
        let start = self.busy_until.max(now);
        let applies_at = start + self.service_draw();
        self.busy_until = applies_at;
        if matches!(
            intent,
            WriteIntent::SubmitJob { .. } | WriteIntent::RequeueJob(_)
        ) {
            self.queued_enqueues += 1;
        }
        self.inbox.push_back(QueuedWrite {
            submitted: now,
            applies_at,
            intent,
        });
        self.depth_peak = self.depth_peak.max(self.inbox.len());
        let latency = applies_at.since(now);
        self.sojourn.record(latency.as_secs_f64());
        latency
    }

    /// Enqueue a sheddable write (heartbeat/status traffic). Returns
    /// `None` — and drops the intent — when the inbox is at capacity;
    /// this is the backpressure the §5.2 experiment measures.
    pub fn try_submit(&mut self, now: SimTime, intent: WriteIntent) -> Option<SimDuration> {
        if self.inbox.len() >= self.config.inbox_capacity {
            self.shed += 1;
            return None;
        }
        Some(self.submit(now, intent))
    }

    /// Apply every write whose service completed by `now`. Returns how
    /// many were applied. The embedding turn loop calls this before any
    /// reads at the same instant, so a turn observes all of its due
    /// writes.
    pub fn advance(&mut self, now: SimTime) -> usize {
        let mut n = 0;
        while let Some(w) = self.inbox.front() {
            if w.applies_at > now {
                break;
            }
            let w = self.inbox.pop_front().expect("just peeked");
            if matches!(
                w.intent,
                WriteIntent::SubmitJob { .. } | WriteIntent::RequeueJob(_)
            ) {
                self.queued_enqueues -= 1;
            }
            Self::apply(&mut self.db, w.submitted, w.intent);
            self.applied += 1;
            n += 1;
        }
        n
    }

    fn apply(db: &mut SystemDb, submitted: SimTime, intent: WriteIntent) {
        match intent {
            WriteIntent::UpsertNode(rec) => db.upsert_node(rec),
            WriteIntent::SetNodeState(uid, state) => {
                db.set_node_state(uid, state);
            }
            WriteIntent::NodeSeen(uid) => {
                db.record_heartbeat(uid, submitted);
            }
            WriteIntent::SubmitJob {
                job,
                submitted_at,
                priority,
                user,
            } => db.submit_job(job, submitted_at, priority, user),
            WriteIntent::SetJobState(job, state) => {
                db.set_job_state(job, state);
            }
            WriteIntent::TakePending(job) => {
                db.take_pending(job);
            }
            WriteIntent::RequeueJob(job) => {
                db.requeue_job(job);
            }
            WriteIntent::Allocate {
                job,
                node,
                gpu_indices,
                at,
            } => db.allocate(job, node, gpu_indices, at),
            WriteIntent::Deallocate(job) => {
                db.deallocate(job);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn writes_apply_after_service_delay_in_order() {
        let mut a = DbActor::new(DbActorConfig::default(), 7);
        let l1 = a.submit(
            t(1),
            WriteIntent::SubmitJob {
                job: JobId(1),
                submitted_at: t(1),
                priority: 1,
                user: UserId::SYSTEM,
            },
        );
        let l2 = a.submit(
            t(1),
            WriteIntent::SubmitJob {
                job: JobId(2),
                submitted_at: t(1),
                priority: 1,
                user: UserId::SYSTEM,
            },
        );
        assert!(l2 > l1, "second write queues behind the first");
        // Nothing visible before the service completes.
        a.advance(t(1));
        assert_eq!(a.state().pending_count(), 0);
        assert_eq!(a.depth(), 2);
        // Both visible once their completions pass.
        a.advance(t(1) + l2);
        assert_eq!(a.state().pending_count(), 2);
        assert_eq!(a.depth(), 0);
        assert_eq!(a.applied_writes(), 2);
    }

    #[test]
    fn next_wake_tracks_head_of_queue() {
        let mut a = DbActor::new(DbActorConfig::default(), 7);
        assert_eq!(a.next_wake(), None);
        let l = a.submit(t(2), WriteIntent::NodeSeen(NodeUid(1)));
        assert_eq!(a.next_wake(), Some(t(2) + l));
        a.advance(t(2) + l);
        assert_eq!(a.next_wake(), None);
    }

    #[test]
    fn sheddable_writes_drop_at_capacity() {
        let mut a = DbActor::new(
            DbActorConfig {
                inbox_capacity: 2,
                ..Default::default()
            },
            7,
        );
        assert!(a
            .try_submit(t(1), WriteIntent::NodeSeen(NodeUid(1)))
            .is_some());
        assert!(a
            .try_submit(t(1), WriteIntent::NodeSeen(NodeUid(2)))
            .is_some());
        assert!(a
            .try_submit(t(1), WriteIntent::NodeSeen(NodeUid(3)))
            .is_none());
        assert_eq!(a.shed_writes(), 1);
        // Critical writes are never shed.
        a.submit(
            t(1),
            WriteIntent::SubmitJob {
                job: JobId(1),
                submitted_at: t(1),
                priority: 1,
                user: UserId::SYSTEM,
            },
        );
        assert_eq!(a.depth(), 3);
        assert_eq!(a.depth_peak(), 3);
    }

    #[test]
    fn latency_estimate_covers_backlog() {
        let mut a = DbActor::new(DbActorConfig::default(), 7);
        let idle = a.write_latency_estimate(t(1));
        assert_eq!(idle, a.config.mean_service_time);
        let mut last = SimDuration::ZERO;
        for i in 0..50 {
            last = a.submit(t(1), WriteIntent::NodeSeen(NodeUid(i)));
        }
        // A new write waits behind all fifty.
        assert!(a.write_latency_estimate(t(1)) > last - a.config.mean_service_time);
    }

    #[test]
    fn heartbeat_write_refreshes_last_seen() {
        let mut a = DbActor::new(DbActorConfig::default(), 7);
        let rec = NodeRecord {
            uid: NodeUid(9),
            hostname: "ws-9".into(),
            gpu_count: 1,
            registered_at: t(0),
            last_seen: t(0),
            state: NodeState::Active,
        };
        let l1 = a.submit(t(1), WriteIntent::UpsertNode(rec));
        a.advance(t(1) + l1);
        let l2 = a.submit(t(5), WriteIntent::NodeSeen(NodeUid(9)));
        a.advance(t(5) + l2);
        assert_eq!(a.state().node(NodeUid(9)).unwrap().last_seen, t(5));
    }

    #[test]
    fn would_block_tracks_the_bound_and_over_admissions_are_counted() {
        let mut a = DbActor::new(
            DbActorConfig {
                inbox_capacity: 2,
                ..Default::default()
            },
            7,
        );
        assert!(!a.would_block());
        let submit = |a: &mut DbActor, j: u64| {
            a.submit(
                t(1),
                WriteIntent::SubmitJob {
                    job: JobId(j),
                    submitted_at: t(1),
                    priority: 1,
                    user: UserId::SYSTEM,
                },
            )
        };
        submit(&mut a, 1);
        assert!(!a.would_block());
        submit(&mut a, 2);
        assert!(a.would_block(), "at the bound a critical write must defer");
        assert_eq!(a.over_bound_writes(), 0, "honouring the probe is free");
        // A caller that ignores the probe is tolerated (never dropped)
        // but the over-admission is visible.
        let l = submit(&mut a, 3);
        assert_eq!(a.over_bound_writes(), 1);
        assert_eq!(a.depth(), 3);
        // Draining past the bound re-opens admission.
        a.advance(t(1) + l);
        assert!(!a.would_block());
        assert_eq!(a.state().pending_count(), 3, "nothing critical was shed");
    }

    // ---- the M/M/1 validation oracle -----------------------------------
    //
    // `ContentionModel::transaction_latency` used to BE the latency; now
    // it predicts what the queue should produce. Drive the actor with
    // Poisson arrivals (exponential interarrivals) so the arrival process
    // matches the model's assumptions, and compare mean sojourn times.

    fn mm1_emergent_mean(rho: f64, seed: u64, samples: u64) -> f64 {
        let config = DbActorConfig {
            // Effectively unbounded: shedding would bias the mean down.
            inbox_capacity: usize::MAX,
            ..Default::default()
        };
        let s = config.mean_service_time.as_secs_f64();
        let lambda = rho / s;
        let mut actor = DbActor::new(config, seed);
        let mut arrivals = SmallRng::seed_from_u64(seed ^ 0xA11);
        let mut now = SimTime::ZERO;
        for i in 0..samples {
            now += SimDuration::from_secs_f64(exponential(&mut arrivals, lambda));
            actor.advance(now);
            actor.submit(now, WriteIntent::NodeSeen(NodeUid(i)));
        }
        actor.sojourn().mean().expect("samples recorded")
    }

    #[test]
    fn emergent_latency_tracks_mm1_below_knee() {
        let model = crate::ContentionModel::default();
        let s = model.service_time.as_secs_f64();
        for rho in [0.2, 0.5] {
            let predicted = model.transaction_latency(rho / s).as_secs_f64();
            let measured = mm1_emergent_mean(rho, 42, 40_000);
            let err = (measured - predicted).abs() / predicted;
            assert!(
                err < 0.15,
                "rho={rho}: emergent {measured:.4}s vs M/M/1 {predicted:.4}s (err {err:.3})"
            );
        }
    }

    #[test]
    fn emergent_latency_exhibits_the_knee() {
        let low = mm1_emergent_mean(0.3, 42, 40_000);
        let hot = mm1_emergent_mean(0.9, 42, 40_000);
        // M/M/1 predicts 7×; require a clear blow-up without pinning the
        // stochastic tail.
        assert!(
            hot > 4.0 * low,
            "no knee: sojourn {hot:.4}s at rho=0.9 vs {low:.4}s at rho=0.3"
        );
    }

    /// Seed-randomized variant (loose bounds): the oracle holds for any
    /// seed, not just the pinned one. The vendored proptest does not
    /// shrink; failures print the drawn seed and reproduce exactly.
    #[test]
    fn emergent_latency_tracks_mm1_across_seeds() {
        let model = crate::ContentionModel::default();
        let s = model.service_time.as_secs_f64();
        let predicted = model.transaction_latency(0.3 / s).as_secs_f64();
        let mut seeds = SmallRng::seed_from_u64(0xDB);
        for _ in 0..5 {
            let seed: u64 = seeds.gen();
            let measured = mm1_emergent_mean(0.3, seed, 30_000);
            let err = (measured - predicted).abs() / predicted;
            assert!(
                err < 0.30,
                "seed {seed}: emergent {measured:.4}s vs M/M/1 {predicted:.4}s"
            );
        }
    }
}
