//! The central scheduler and coordinator — an actor behind a typed inbox.
//!
//! "The central scheduler serves as the coordination hub for resource
//! discovery, allocation decisions, and workload management. It maintains a
//! real-time view of available GPU resources … through periodic status
//! updates from provider agents. … Unlike traditional cluster schedulers
//! that assume persistent resource availability, GPUnion's scheduler is
//! designed to handle dynamic resource volatility" (§3.2).
//!
//! The coordinator is a **single-owner actor** (DESIGN.md §3b): it owns
//! `{Directory + CapacityIndex, jobs, timers}` behind a bounded MPSC inbox
//! of typed [`CoordEnvelope`]s. Senders — the platform pump delivering
//! network envelopes, user clients submitting jobs, harnesses injecting
//! departures — call [`Coordinator::send`], which only enqueues. All state
//! mutation happens inside [`Coordinator::advance`], one envelope or timer
//! at a time, so every index mutation is single-threaded by construction:
//! the batched scheduling pass's "reserve, then the next decision sees it"
//! invariant *is* an actor turn. The embedding loop drives the actor
//! exactly like the [`DbActor`]: [`Coordinator::next_wake`] /
//! [`Coordinator::advance`], with [`CoordAction`]s coming out. Read-only
//! consumers (harness inspection, `CoordinatorStats`) use snapshot accessors,
//! never references into actor state held across a turn.
//!
//! Every mutation of the system database travels as a fire-and-forget
//! [`WriteIntent`] through the [`DbActor`]'s bounded write queue; a
//! dispatch decision's latency is the emergent sojourn time of its own
//! write — queue wait plus service — which is what the scalability
//! experiment (§5.2) measures as the node count grows.
//!
//! **Critical-write backpressure.** Sheddable status writes (heartbeat
//! `NodeSeen`) are dropped at the database inbox bound, but critical
//! intents must never be lost. When [`DbActor::would_block`] reports the
//! bound reached, the coordinator *defers its own turn* instead of
//! over-filling the queue: the inbox head stays queued (FIFO, so ordering
//! is preserved), due timers that would write are re-armed at the next
//! write completion, and a scheduling pass stops mid-drain and re-arms.
//! The stall is DES-visible as added pass latency and inbox sojourn time —
//! the single-threaded analogue of a blocking database client.
//!
//! A scheduling pass is batched: it drains the pending queue once against
//! the directory's capacity index, reserving capacity as it places so later
//! jobs in the same pass see the updated state — no per-job rescans, no
//! re-ranking between placements. Displaced jobs whose provider returned
//! take a preferred-node fast path that runs before the general drain, so
//! migrate-back can't lose its home slot to an earlier queue position.

use crate::directory::{Directory, NodeLiveness};
use crate::strategy::Selector;
use gpunion_db::{DbActor, DbActorConfig, JobState, NodeRecord, NodeState, SystemDb, WriteIntent};
use gpunion_des::{earliest, Online, SimDuration, SimTime};
use gpunion_protocol::{
    Control, DispatchSpec, Envelope, JobId, KillReason, Message, NodeUid, TokenRegistry, Work,
    WorkloadState,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// A typed envelope bound for the coordinator actor's inbox.
///
/// Everything that mutates coordinator state travels as one of these —
/// registration, heartbeat, and scheduling traffic ride [`Message`]s inside
/// [`CoordEnvelope::Net`] / [`CoordEnvelope::Msg`]; user submissions and
/// harness injections have their own variants. Timer wakes are internal to
/// the actor (they never cross the inbox); the DES pump only ever observes
/// them through [`Coordinator::next_wake`].
#[derive(Debug)]
pub enum CoordEnvelope {
    /// An authenticated-on-arrival network envelope (Register, Heartbeat,
    /// DispatchReply, WorkloadUpdate, CheckpointDone, DepartureNotice, …).
    /// Token validation happens at the actor turn, not at enqueue.
    Net(Box<Envelope>),
    /// A pre-authenticated message (trusted harness path — the equivalent
    /// of [`CoordEnvelope::Net`] with validation already done).
    Msg(Box<Message>),
    /// A user client submits a job. The job id is assigned at admission
    /// (see [`Coordinator::send`]); the spec's `job` field is overwritten.
    SubmitJob(Box<DispatchSpec>),
    /// A user client cancels a job.
    CancelJob(JobId),
    /// Harness-observed node loss (emergency departure injected out of
    /// band): displace everything the node was running.
    NodeDeparture(NodeUid),
    /// Reset latency/backlog telemetry (coordinator inbox + database
    /// write queue) — experiment harnesses send this after a warm-up phase
    /// so steady-state numbers exclude the boot-time registration storm.
    ResetTelemetry,
}

/// What [`Coordinator::send`] did with an envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// Accepted into the inbox. Job submissions get their id assigned at
    /// admission so the caller can track the job before its turn runs.
    Enqueued {
        /// The id assigned to a [`CoordEnvelope::SubmitJob`] (None for
        /// every other variant).
        job: Option<JobId>,
    },
    /// Sheddable envelope (heartbeat) dropped at the inbox bound — the
    /// next heartbeat carries fresher data. Critical envelopes are never
    /// shed.
    Shed,
}

/// Actions for the embedding loop.
#[derive(Debug)]
pub enum CoordAction {
    /// Send a message to a node's agent. `delay` models the scheduling /
    /// database latency accrued before the message leaves the coordinator.
    Send {
        /// Destination node.
        to: NodeUid,
        /// The message.
        msg: Message,
        /// Processing delay before transmission.
        delay: SimDuration,
    },
    /// Job lifecycle notification for user clients / experiment harnesses.
    JobEvent {
        /// The job.
        job: JobId,
        /// What happened.
        event: JobEvent,
    },
}

/// Job lifecycle events surfaced to the platform user.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobEvent {
    /// Accepted into the pending queue.
    Queued,
    /// Dispatched to a node (offer in flight).
    Dispatched {
        /// Target node.
        node: NodeUid,
    },
    /// Agent reported the workload running.
    Started {
        /// Hosting node.
        node: NodeUid,
    },
    /// Finished successfully.
    Completed,
    /// Permanently failed (retries exhausted).
    Failed,
    /// Displaced (kill-switch / departure / heartbeat loss) and requeued.
    Requeued {
        /// Checkpoint sequence it will restore from (None = from scratch).
        restore_seq: Option<u64>,
    },
    /// Displaced job placed back on its original node after the provider
    /// returned.
    MigratedBack {
        /// The original (returning) node.
        node: NodeUid,
    },
}

/// Coordinator configuration.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Heartbeat period agents must honour.
    pub heartbeat_period: SimDuration,
    /// Heartbeats missed before a node is marked unavailable (paper: 3).
    pub missed_beats: u32,
    /// How long after displacement a returning provider can reclaim its
    /// jobs (migrate-back window).
    pub migrate_back_window: SimDuration,
    /// Dispatch attempts per job before it is failed.
    pub max_retries: u32,
    /// How long to wait for a DispatchReply before treating it as a reject.
    pub offer_timeout: SimDuration,
    /// Coordinator inbox bound. Heartbeat envelopes submitted past this
    /// depth are shed (the next beat carries fresher data); critical
    /// envelopes are always accepted and counted if over the bound.
    pub inbox_capacity: usize,
    /// Database write-queue parameters (service time, inbox bound).
    pub db: DbActorConfig,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            heartbeat_period: SimDuration::from_secs(5),
            missed_beats: 3,
            migrate_back_window: SimDuration::from_mins(30),
            max_retries: 5,
            offer_timeout: SimDuration::from_secs(10),
            inbox_capacity: 4096,
            db: DbActorConfig::default(),
        }
    }
}

/// Scheduler-side job bookkeeping.
#[derive(Debug, Clone)]
struct JobMeta {
    spec: DispatchSpec,
    current_node: Option<NodeUid>,
    offered_to: Option<NodeUid>,
    /// Nodes that rejected this job in the current placement epoch.
    /// Cleared on displacement — a new epoch with a changed world.
    excluded: Vec<NodeUid>,
    preferred: Option<NodeUid>,
    /// Capacity held on the preferred home node while a migrate-back
    /// checkpoint round-trip is in flight: (node, held since).
    home_hold: Option<(NodeUid, SimTime)>,
    latest_checkpoint: Option<(u64, Vec<NodeUid>)>,
    displaced_from: Option<(NodeUid, SimTime)>,
    migrating_back: bool,
    retries: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CoordTimer {
    HeartbeatSweep,
    SchedulePass,
    OfferTimeout(JobId),
}

/// An inbox entry: accepted at `enqueued`, processed at its turn.
#[derive(Debug)]
struct QueuedEnvelope {
    enqueued: SimTime,
    env: CoordEnvelope,
}

/// One coherent snapshot of the coordinator's observable counters — the
/// replacement for the family of ad-hoc per-counter getters. Taken with
/// [`Coordinator::stats`] in a single call, so every field reflects the
/// same instant (readers previously interleaving getters could observe a
/// torn view across turns). Telemetry fields reset together on
/// [`CoordEnvelope::ResetTelemetry`].
#[derive(Debug, Clone)]
pub struct CoordinatorStats {
    /// Jobs not yet terminal (pending, offered, or running).
    pub live_jobs: usize,
    /// Envelopes waiting in the inbox right now.
    pub inbox_depth: usize,
    /// Deepest the inbox has been since the last telemetry reset.
    pub inbox_depth_peak: usize,
    /// Inbox sojourn statistics (enqueue → turn, seconds). Under
    /// critical-write backpressure this is where the database stall
    /// becomes visible to senders.
    pub inbox_sojourn: Online,
    /// Heartbeat envelopes shed at the inbox bound.
    pub shed_envelopes: u64,
    /// Critical envelopes accepted while the inbox was over its bound.
    pub over_bound_envelopes: u64,
    /// Turns deferred on database write-queue backpressure (envelope
    /// stalls, timer re-arms, and mid-pass stops all count).
    pub deferred_turns: u64,
    /// Always 0: every job submission is admitted. Kept only because the
    /// repo benchmark still reads it.
    pub admission_shed_jobs: u64,
    /// Scheduling decision latency statistics (the §5.2 quantity).
    pub decision_latency: Online,
    /// Database writes queued but not yet applied.
    pub db_depth: usize,
    /// Deepest the database write queue has been since the last reset.
    pub db_depth_peak: usize,
    /// Database writes applied to the tables so far.
    pub db_applied_writes: u64,
    /// Sheddable database writes dropped at the write-queue bound.
    pub db_shed_writes: u64,
    /// Critical database writes admitted while the queue was at bound.
    pub db_over_bound_writes: u64,
    /// Database write sojourn statistics (submit → apply, seconds).
    pub db_sojourn: Online,
}

/// The coordinator actor.
pub struct Coordinator {
    config: CoordinatorConfig,
    db: DbActor,
    dir: Directory,
    tokens: TokenRegistry,
    selector: Selector,
    /// The bounded MPSC inbox. Envelopes drain FIFO inside `advance`.
    inbox: VecDeque<QueuedEnvelope>,
    /// The inbox head is a critical envelope and the database write queue
    /// is at bound: the actor is waiting for a write completion before
    /// taking its next turn (critical-write backpressure).
    stalled: bool,
    /// Ordered by job id so displacement/migrate-back sweeps are
    /// deterministic (golden-output experiments depend on it).
    jobs: BTreeMap<JobId, JobMeta>,
    /// Jobs currently holding a migrate-back home slot — the sweep and
    /// node-loss scans walk this (holds are rare) instead of every job.
    held_jobs: BTreeSet<JobId>,
    next_job: u64,
    timers: BTreeMap<(SimTime, u64), CoordTimer>,
    timer_seq: u64,
    pass_armed: bool,
    decision_latency: Online,
    // Inbox telemetry (enqueue → turn).
    inbox_sojourn: Online,
    inbox_depth_peak: usize,
    shed_envelopes: u64,
    over_bound_envelopes: u64,
    deferred_turns: u64,
    rng: SmallRng,
}

impl Coordinator {
    /// A coordinator with the given config; `seed` drives token issuance.
    /// Periodic duties (the heartbeat sweep) are armed from `SimTime::ZERO`.
    pub fn new(config: CoordinatorConfig, seed: u64) -> Self {
        let db = DbActor::new(config.db, seed ^ 0xD8);
        let dir = Directory::new();
        let mut coord = Coordinator {
            config,
            db,
            dir,
            tokens: TokenRegistry::new(),
            selector: Selector::default(),
            inbox: VecDeque::new(),
            stalled: false,
            jobs: BTreeMap::new(),
            held_jobs: BTreeSet::new(),
            next_job: 1,
            timers: BTreeMap::new(),
            timer_seq: 0,
            pass_armed: false,
            decision_latency: Online::new(),
            inbox_sojourn: Online::new(),
            inbox_depth_peak: 0,
            shed_envelopes: 0,
            over_bound_envelopes: 0,
            deferred_turns: 0,
            rng: SmallRng::seed_from_u64(seed),
        };
        coord.arm(
            SimTime::ZERO + coord.config.heartbeat_period,
            CoordTimer::HeartbeatSweep,
        );
        coord
    }

    // ---- snapshot accessors (read-only consumers) ----------------------

    /// One coherent snapshot of every observable counter — coordinator
    /// inbox, scheduling, and database write-queue telemetry
    /// together. This is THE read surface for benches, harnesses,
    /// and experiment bins.
    pub fn stats(&self) -> CoordinatorStats {
        CoordinatorStats {
            live_jobs: self.jobs.len(),
            inbox_depth: self.inbox.len(),
            inbox_depth_peak: self.inbox_depth_peak,
            inbox_sojourn: self.inbox_sojourn.clone(),
            shed_envelopes: self.shed_envelopes,
            over_bound_envelopes: self.over_bound_envelopes,
            deferred_turns: self.deferred_turns,
            admission_shed_jobs: 0,
            decision_latency: self.decision_latency.clone(),
            db_depth: self.db.depth(),
            db_depth_peak: self.db.depth_peak(),
            db_applied_writes: self.db.applied_writes(),
            db_shed_writes: self.db.shed_writes(),
            db_over_bound_writes: self.db.over_bound_writes(),
            db_sojourn: self.db.sojourn().clone(),
        }
    }

    /// The node directory (read access for harnesses).
    pub fn directory(&self) -> &Directory {
        &self.dir
    }

    /// The system-database tables (read access for harnesses).
    /// Valid only within the current turn — in-flight writes apply on the
    /// next [`Coordinator::advance`].
    pub fn db(&self) -> &SystemDb {
        self.db.state()
    }

    /// The database write-queue actor (queue-depth / latency telemetry).
    pub fn db_actor(&self) -> &DbActor {
        &self.db
    }

    /// The emergent database write latency right now: residual write-queue
    /// backlog plus one mean service time (the §5.2 quantity).
    pub fn db_write_latency(&self, now: SimTime) -> SimDuration {
        self.db.write_latency_estimate(now)
    }

    /// The node currently hosting a job.
    pub fn job_node(&self, job: JobId) -> Option<NodeUid> {
        self.jobs.get(&job).and_then(|m| m.current_node)
    }

    /// Latest durable checkpoint of a job.
    pub fn job_checkpoint(&self, job: JobId) -> Option<(u64, Vec<NodeUid>)> {
        self.jobs
            .get(&job)
            .and_then(|m| m.latest_checkpoint.clone())
    }

    // ---- the inbox ------------------------------------------------------

    /// Enqueue an envelope for the actor's next turn. This is the ONLY
    /// entry point for mutating traffic: nothing is processed here — the
    /// turn runs inside [`Coordinator::advance`]. Heartbeats are shed at
    /// the inbox bound; every other envelope is always accepted. A
    /// [`CoordEnvelope::SubmitJob`] is never shed: it gets its job id
    /// assigned here so the caller can track it.
    pub fn send(&mut self, now: SimTime, env: CoordEnvelope) -> SendOutcome {
        let mut env = env;
        // The length test first: under the bound (the common case) it spares
        // the directory lookup `envelope_sheddable` makes per heartbeat.
        if self.inbox.len() >= self.config.inbox_capacity && self.envelope_sheddable(&env) {
            self.shed_envelopes += 1;
            return SendOutcome::Shed;
        }
        let job = if let CoordEnvelope::SubmitJob(spec) = &mut env {
            let id = JobId(self.next_job);
            self.next_job += 1;
            spec.job = id;
            Some(id)
        } else {
            None
        };
        if self.inbox.len() >= self.config.inbox_capacity {
            self.over_bound_envelopes += 1;
        }
        self.inbox.push_back(QueuedEnvelope { enqueued: now, env });
        self.inbox_depth_peak = self.inbox_depth_peak.max(self.inbox.len());
        SendOutcome::Enqueued { job }
    }

    /// Next wake time: the earliest of the inbox head (unless the actor is
    /// stalled on database backpressure), the earliest timer, and the next
    /// database write completion. While stalled, the next write completion
    /// *is* the wake — a slot frees and the turn retries.
    pub fn next_wake(&self) -> Option<SimTime> {
        let timer = self.timers.first_key_value().map(|(&(t, _), _)| t);
        let inbox = if self.stalled {
            None
        } else {
            self.inbox.front().map(|q| q.enqueued)
        };
        earliest(earliest(timer, inbox), self.db.next_wake())
    }

    /// Run the actor up to `now` ([`Coordinator::advance_into`] with a
    /// fresh buffer).
    pub fn advance(&mut self, now: SimTime) -> Vec<CoordAction> {
        let mut actions = Vec::new();
        self.advance_into(now, &mut actions);
        actions
    }

    /// Run the actor up to `now`: apply due database writes first (so
    /// every turn reads a database that reflects all writes whose service
    /// completed), then take turns — inbox envelopes and due timers merged
    /// in time order, timers first on ties (a timer armed *for* `t`
    /// precedes work enqueued *at* `t`; this makes turn order independent
    /// of how senders batch their same-instant sends — property-tested).
    ///
    /// Critical-write backpressure: when the database inbox is at bound, a
    /// turn that would submit critical intents is deferred — the envelope
    /// stays at the inbox head (FIFO order preserved) or the timer is
    /// re-armed at the next write completion — rather than over-filling
    /// the queue. Deferred work retries as completions free slots.
    ///
    /// The actions are appended to `actions`, a buffer the embedding loop
    /// keeps: a turn is usually one heartbeat and its ack.
    pub fn advance_into(&mut self, now: SimTime, actions: &mut Vec<CoordAction>) {
        loop {
            // Re-applied every turn: a turn may submit writes whose service
            // lands within this same instant, and deferral target times
            // must always be strictly in the future.
            self.db.advance(now);
            if self.stalled && !self.db.would_block() {
                self.stalled = false;
            }
            let env_due = self
                .inbox
                .front()
                .map(|q| q.enqueued)
                .filter(|&t| t <= now && !self.stalled);
            let timer_due = self
                .timers
                .first_key_value()
                .map(|(&(t, _), _)| t)
                .filter(|&t| t <= now);
            match (env_due, timer_due) {
                (None, None) => break,
                (Some(e), t) if t.is_none_or(|t| e < t) => {
                    if self.db.would_block() && self.head_turn_writes() {
                        // The head would over-fill the write queue: stall
                        // until a completion frees a slot. FIFO blocks the
                        // whole inbox so ordering is never violated.
                        self.stalled = true;
                        self.deferred_turns += 1;
                        continue;
                    }
                    let q = self.inbox.pop_front().expect("just peeked");
                    self.inbox_sojourn
                        .record(now.since(q.enqueued).as_secs_f64());
                    self.process_envelope(now, q.env, actions);
                }
                _ => {
                    let (&key, _) = self
                        .timers
                        .first_key_value()
                        .expect("non-envelope turn implies a due timer");
                    let timer = self.timers.remove(&key).expect("just observed");
                    if self.db.would_block() {
                        // Every timer's duty submits critical writes
                        // (requeues, state flips, dequeues): re-arm it at
                        // the next write completion instead of firing.
                        self.deferred_turns += 1;
                        let retry = self.db.next_wake().expect("full queue has completions");
                        self.arm(retry.max(now), timer);
                        continue;
                    }
                    self.fire_timer(now, timer, actions);
                }
            }
        }
    }

    fn process_envelope(
        &mut self,
        now: SimTime,
        env: CoordEnvelope,
        actions: &mut Vec<CoordAction>,
    ) {
        match env {
            CoordEnvelope::Net(e) => self.handle_envelope(now, *e, actions),
            CoordEnvelope::Msg(m) => self.handle_message(now, *m, actions),
            CoordEnvelope::SubmitJob(spec) => self.admit_job(now, *spec, actions),
            CoordEnvelope::CancelJob(job) => self.cancel_job(now, job, actions),
            CoordEnvelope::NodeDeparture(node) => self.node_lost(now, node, actions),
            CoordEnvelope::ResetTelemetry => {
                self.db.reset_telemetry();
                self.inbox_sojourn = Online::new();
                self.inbox_depth_peak = self.inbox.len();
                self.shed_envelopes = 0;
                self.over_bound_envelopes = 0;
                self.deferred_turns = 0;
            }
        }
    }

    fn fire_timer(&mut self, now: SimTime, timer: CoordTimer, actions: &mut Vec<CoordAction>) {
        match timer {
            CoordTimer::HeartbeatSweep => {
                self.heartbeat_sweep(now, actions);
                self.arm(
                    now + self.config.heartbeat_period,
                    CoordTimer::HeartbeatSweep,
                );
            }
            CoordTimer::SchedulePass => {
                self.pass_armed = false;
                self.scheduling_pass(now, actions);
            }
            CoordTimer::OfferTimeout(job) => {
                self.offer_timed_out(now, job, actions);
            }
        }
    }

    fn arm(&mut self, at: SimTime, t: CoordTimer) {
        self.timers.insert((at, self.timer_seq), t);
        self.timer_seq += 1;
    }

    fn arm_pass(&mut self, now: SimTime) {
        if !self.pass_armed {
            self.pass_armed = true;
            // A pass runs once the write queue has drained the transactions
            // submitted so far (its own enqueues included) — this is where
            // scheduling latency grows with scale: the deeper the backlog,
            // the later the pass.
            let delay = self.db.write_latency_estimate(now);
            self.arm(now + delay, CoordTimer::SchedulePass);
        }
    }

    /// Database backpressure hit mid-pass: stop draining and re-arm the
    /// pass at the next write completion. Placements already made in this
    /// pass keep their reservations and offers; the remainder of the
    /// queue is retried once a slot frees — the stall shows up as added
    /// pass latency, never as a dropped critical write.
    fn defer_pass(&mut self, now: SimTime) {
        self.deferred_turns += 1;
        self.pass_armed = true;
        let retry = self
            .db
            .next_wake()
            .map(|t| t.max(now))
            .unwrap_or(now + self.config.db.mean_service_time);
        self.arm(retry, CoordTimer::SchedulePass);
    }

    // ---- turn handlers ---------------------------------------------------

    /// Admission of a user job submission (the [`CoordEnvelope::SubmitJob`]
    /// turn). The id was assigned at enqueue; `now` is the turn time, so a
    /// backpressure stall is visible as later `submitted_at`.
    fn admit_job(&mut self, now: SimTime, spec: DispatchSpec, actions: &mut Vec<CoordAction>) {
        let job = spec.job;
        let priority = spec.priority;
        self.db.submit(
            now,
            WriteIntent::SubmitJob {
                job,
                submitted_at: now,
                priority,
                user: spec.user,
            },
        );
        self.jobs.insert(
            job,
            JobMeta {
                spec,
                current_node: None,
                offered_to: None,
                excluded: Vec::new(),
                preferred: None,
                home_hold: None,
                latest_checkpoint: None,
                displaced_from: None,
                migrating_back: false,
                retries: 0,
            },
        );
        actions.push(CoordAction::JobEvent {
            job,
            event: JobEvent::Queued,
        });
        self.arm_pass(now);
    }

    /// Cancel a job (the [`CoordEnvelope::CancelJob`] turn).
    fn cancel_job(&mut self, now: SimTime, job: JobId, actions: &mut Vec<CoordAction>) {
        self.drop_hold(job);
        let Some(meta) = self.jobs.remove(&job) else {
            return;
        };
        self.db.submit(now, WriteIntent::TakePending(job));
        let latency = self
            .db
            .submit(now, WriteIntent::SetJobState(job, JobState::Cancelled));
        if let Some(node) = meta.current_node.or(meta.offered_to) {
            self.dir.release(node, job);
            actions.push(CoordAction::Send {
                to: node,
                msg: Work::Kill {
                    job,
                    reason: KillReason::UserCancel,
                }
                .into(),
                // The kill follows the cancellation transaction.
                delay: latency,
            });
        }
    }

    /// Drop a job's migrate-back hold (and its reservation), if any.
    fn drop_hold(&mut self, job: JobId) {
        self.held_jobs.remove(&job);
        if let Some(meta) = self.jobs.get_mut(&job) {
            if let Some((node, _)) = meta.home_hold.take() {
                self.dir.release(node, job);
            }
        }
    }

    /// Abandon every live hold whose (node, held-since) matches `pred` —
    /// the expiry sweep and node-loss teardown share this walk over the
    /// (small) held-jobs set.
    fn abandon_holds_where(&mut self, now: SimTime, pred: impl Fn(NodeUid, SimTime) -> bool) {
        let doomed: Vec<JobId> = self
            .held_jobs
            .iter()
            .filter(|j| {
                self.jobs
                    .get(j)
                    .and_then(|m| m.home_hold)
                    .map(|(n, at)| pred(n, at))
                    .unwrap_or(false)
            })
            .copied()
            .collect();
        for job in doomed {
            self.abandon_migrate_back(now, job);
        }
    }

    /// Give up on moving a job back home: drop the hold, the preference,
    /// and the in-flight migrate-back flag, and arm a pass — a pending job
    /// was deliberately skipped by the drain while its hold lived, so
    /// releasing it must re-open general placement even on a quiet fleet.
    fn abandon_migrate_back(&mut self, now: SimTime, job: JobId) {
        self.drop_hold(job);
        if let Some(meta) = self.jobs.get_mut(&job) {
            meta.preferred = None;
            meta.migrating_back = false;
        }
        self.arm_pass(now);
    }

    // ---- message handling --------------------------------------------

    /// Validate and process a network envelope (one actor turn).
    fn handle_envelope(&mut self, now: SimTime, env: Envelope, actions: &mut Vec<CoordAction>) {
        // Register is the only unauthenticated message.
        if !matches!(env.msg, Message::Control(Control::Register { .. })) {
            let valid = self.tokens.validate(env.sender, &env.token)
                // Node-bearing messages must also claim the right sender.
                && message_source(&env.msg)
                    .map(|n| n == env.sender)
                    .unwrap_or(true);
            if !valid {
                actions.push(CoordAction::Send {
                    to: env.sender,
                    msg: Control::Error {
                        code: 401,
                        detail: "invalid token".into(),
                    }
                    .into(),
                    delay: SimDuration::ZERO,
                });
                return;
            }
        }
        self.handle_message(now, env.msg, actions);
    }

    /// Process an already-authenticated message (one actor turn).
    fn handle_message(&mut self, now: SimTime, msg: Message, actions: &mut Vec<CoordAction>) {
        match msg {
            Message::Control(c) => self.handle_control(now, c, actions),
            Message::Work(w) => self.handle_work(now, w, actions),
        }
    }

    /// Membership and status traffic: registration, heartbeats,
    /// departures, pause toggles.
    fn handle_control(&mut self, now: SimTime, msg: Control, actions: &mut Vec<CoordAction>) {
        match msg {
            Control::Register {
                machine_id,
                hostname,
                gpus,
                agent_version: _,
            } => {
                // The inventory is outside input (up to MAX_COLLECTION_LEN
                // entries off the wire): saturate, never wrap to 0.
                let gpu_count = u8::try_from(gpus.len()).unwrap_or(u8::MAX);
                let (uid, returning) = self.dir.register(&machine_id, &hostname, gpus, now);
                let token = self.tokens.issue(uid, &mut self.rng);
                let latency = self.db.submit(
                    now,
                    WriteIntent::UpsertNode(NodeRecord {
                        uid,
                        hostname,
                        gpu_count,
                        registered_at: now,
                        last_seen: now,
                        state: NodeState::Active,
                    }),
                );
                actions.push(CoordAction::Send {
                    to: uid,
                    msg: Control::RegisterAck {
                        node: uid,
                        token,
                        heartbeat_period_ms: self.config.heartbeat_period.as_millis() as u32,
                    }
                    .into(),
                    // The ack leaves once the registration row is durable:
                    // its own write's emergent sojourn time.
                    delay: latency,
                });
                if returning {
                    self.provider_returned(now, uid, actions);
                }
                self.arm_pass(now);
            }
            Control::Heartbeat {
                node,
                seq,
                accepting,
                gpu_stats,
                workloads,
            } => {
                let was_offline = self.heartbeat_revives(node);
                self.dir
                    .apply_heartbeat(node, now, seq, accepting, &gpu_stats);
                // Every heartbeat is one status write through the same
                // queue as scheduling transactions — §5.2's contention is
                // this traffic. Sheddable: a full inbox drops it and the
                // next heartbeat carries fresher data.
                self.db.try_submit(now, WriteIntent::NodeSeen(node));
                if was_offline {
                    // Node came back without re-registering (short blip).
                    self.db
                        .submit(now, WriteIntent::SetNodeState(node, NodeState::Active));
                    self.provider_returned(now, node, actions);
                }
                // Progress bookkeeping from piggybacked workload status.
                for ws in &workloads {
                    if let Some(meta) = self.jobs.get_mut(&ws.job) {
                        if ws.checkpoint_seq > 0 {
                            // Only the seq can be news here; where the
                            // checkpoint is stored comes from CheckpointDone.
                            match &mut meta.latest_checkpoint {
                                Some((seq, _)) => *seq = (*seq).max(ws.checkpoint_seq),
                                None => {
                                    meta.latest_checkpoint = Some((ws.checkpoint_seq, Vec::new()))
                                }
                            }
                        }
                    }
                }
                actions.push(CoordAction::Send {
                    to: node,
                    msg: Control::HeartbeatAck { node, seq }.into(),
                    delay: SimDuration::ZERO,
                });
            }
            Control::DepartureNotice { node, mode } if self.dir.get(node).is_some() => {
                match mode {
                    gpunion_protocol::DepartureMode::Graceful { .. } => {
                        self.dir.set_liveness(node, NodeLiveness::Departing);
                        self.db
                            .submit(now, WriteIntent::SetNodeState(node, NodeState::Departed));
                        // Jobs will checkpoint; displacement happens when
                        // the node goes offline (or per CheckpointDone).
                    }
                    gpunion_protocol::DepartureMode::Emergency => {
                        self.node_lost(now, node, actions);
                    }
                }
            }
            Control::PauseScheduling { node, paused } => {
                let liveness = self.dir.liveness(node);
                if liveness.is_some() && liveness != Some(NodeLiveness::Offline) {
                    self.dir.set_liveness(
                        node,
                        if paused {
                            NodeLiveness::Paused
                        } else {
                            NodeLiveness::Active
                        },
                    );
                }
                self.db.submit(
                    now,
                    WriteIntent::SetNodeState(
                        node,
                        if paused {
                            NodeState::Paused
                        } else {
                            NodeState::Active
                        },
                    ),
                );
                if !paused {
                    self.arm_pass(now);
                }
            }
            _ => {}
        }
    }

    /// Job placement and lifecycle traffic.
    fn handle_work(&mut self, now: SimTime, msg: Work, actions: &mut Vec<CoordAction>) {
        match msg {
            Work::DispatchReply {
                job,
                accepted,
                reason: _,
            } => {
                self.timers
                    .retain(|_, t| !matches!(t, CoordTimer::OfferTimeout(j) if *j == job));
                let Some(meta) = self.jobs.get_mut(&job) else {
                    return;
                };
                let node = meta.offered_to.take();
                let Some(node) = node else {
                    return;
                };
                if accepted {
                    meta.current_node = Some(node);
                    // `preferred` is only ever set to a returning provider's
                    // node, so landing there means the migrate-back worked.
                    let migrated_back = meta.preferred == Some(node);
                    if migrated_back {
                        meta.displaced_from = None;
                    }
                    // Either way the preference is spent: it belongs to the
                    // placement epoch in which the provider returned. Left
                    // in place, a placement on another node would let a much
                    // later, unrelated displacement still route home and
                    // count as a migrate-back.
                    meta.preferred = None;
                    meta.migrating_back = false;
                    // Release the offer reservation: the agent has allocated
                    // real VRAM, which the next heartbeat reports. Keeping
                    // the reservation would double-count the job's memory.
                    self.dir.release(node, job);
                    self.drop_hold(job);
                    self.db.submit(
                        now,
                        WriteIntent::Allocate {
                            job,
                            node,
                            gpu_indices: vec![],
                            at: now,
                        },
                    );
                    if migrated_back {
                        actions.push(CoordAction::JobEvent {
                            job,
                            event: JobEvent::MigratedBack { node },
                        });
                    }
                } else {
                    self.offer_failed(now, job, node, actions);
                }
            }
            Work::WorkloadUpdate { status, exit_code } => {
                let job = status.job;
                match status.state {
                    WorkloadState::Running => {
                        if let Some(meta) = self.jobs.get(&job) {
                            if let Some(node) = meta.current_node {
                                actions.push(CoordAction::JobEvent {
                                    job,
                                    event: JobEvent::Started { node },
                                });
                            }
                        }
                    }
                    WorkloadState::Completed => {
                        self.finish_job(now, job, actions);
                    }
                    WorkloadState::Killed => {
                        // Provider kill-switch or preemption: displace.
                        self.displace_job(now, job, actions);
                    }
                    WorkloadState::Failed => {
                        let retry = self
                            .jobs
                            .get_mut(&job)
                            .map(|m| {
                                m.retries += 1;
                                m.retries <= self.config.max_retries
                            })
                            .unwrap_or(false);
                        if retry {
                            self.displace_job(now, job, actions);
                        } else {
                            self.fail_job(now, job, actions);
                        }
                    }
                    _ => {}
                }
                let _ = exit_code;
            }
            Work::CheckpointDone {
                job,
                seq,
                transfer_bytes: _,
                stored_on,
            } => {
                let migrating_back = if let Some(meta) = self.jobs.get_mut(&job) {
                    meta.latest_checkpoint = Some((seq, stored_on));
                    meta.migrating_back
                } else {
                    false
                };
                if migrating_back {
                    // Fresh checkpoint durable: now preempt and move home.
                    if let Some(meta) = self.jobs.get_mut(&job) {
                        meta.migrating_back = false;
                    }
                    if let Some(node) = self.jobs.get(&job).and_then(|m| m.current_node) {
                        let delay = self.db.write_latency_estimate(now);
                        actions.push(CoordAction::Send {
                            to: node,
                            msg: Work::Kill {
                                job,
                                reason: KillReason::SchedulerPreempt,
                            }
                            .into(),
                            // The preempt order queues behind the current
                            // write backlog like any other transaction.
                            delay,
                        });
                    }
                }
            }
            _ => {}
        }
    }

    // ---- failure handling ----------------------------------------------

    fn heartbeat_sweep(&mut self, now: SimTime, actions: &mut Vec<CoordAction>) {
        let timeout = self.config.heartbeat_period * self.config.missed_beats as u64;
        for uid in self.dir.stale_nodes(now, timeout) {
            self.node_lost(now, uid, actions);
        }
        // Expire migrate-back holds whose window has passed: the held
        // capacity goes back to the pool and the preference lapses.
        let window = self.config.migrate_back_window;
        self.abandon_holds_where(now, |_, since| now.since(since) > window);
    }

    /// A node is gone (heartbeat loss or emergency departure): displace
    /// everything it was running.
    fn node_lost(&mut self, now: SimTime, node: NodeUid, actions: &mut Vec<CoordAction>) {
        if matches!(self.dir.liveness(node), None | Some(NodeLiveness::Offline)) {
            return;
        }
        self.dir.set_liveness(node, NodeLiveness::Offline);
        self.db
            .submit(now, WriteIntent::SetNodeState(node, NodeState::Unavailable));
        let displaced: Vec<JobId> = self
            .jobs
            .iter()
            .filter(|(_, m)| m.current_node == Some(node) || m.offered_to == Some(node))
            .map(|(j, _)| *j)
            .collect();
        for job in displaced {
            self.displace_job(now, job, actions);
        }
        // Migrate-back holds on the dead node are gone with it.
        self.abandon_holds_where(now, |n, _| n == node);
    }

    /// Requeue a displaced job for migration, restoring from its latest
    /// durable checkpoint when one exists.
    fn displace_job(&mut self, now: SimTime, job: JobId, actions: &mut Vec<CoordAction>) {
        let Some(meta) = self.jobs.get_mut(&job) else {
            return;
        };
        let from = meta.current_node.take().or(meta.offered_to.take());
        if let Some(n) = from {
            self.dir.release(n, job);
        }
        let meta = self.jobs.get_mut(&job).expect("still present");
        if let Some(n) = from {
            meta.displaced_from = Some((n, now));
        }
        let restore_seq = meta.latest_checkpoint.as_ref().map(|(s, _)| *s);
        meta.spec.restore_from_seq = restore_seq;
        meta.migrating_back = false;
        // New placement epoch: rejections collected while the job was last
        // being placed say nothing about the post-displacement world. In
        // particular the original node must be offerable again, or
        // migrate-back could never land (the fig3 gap).
        meta.excluded.clear();
        self.db.submit(now, WriteIntent::RequeueJob(job));
        actions.push(CoordAction::JobEvent {
            job,
            event: JobEvent::Requeued { restore_seq },
        });
        self.arm_pass(now);
    }

    fn finish_job(&mut self, now: SimTime, job: JobId, actions: &mut Vec<CoordAction>) {
        self.drop_hold(job);
        if let Some(meta) = self.jobs.remove(&job) {
            if let Some(node) = meta.current_node {
                self.dir.release(node, job);
            }
            self.db
                .submit(now, WriteIntent::SetJobState(job, JobState::Completed));
            self.db.submit(now, WriteIntent::Deallocate(job));
            actions.push(CoordAction::JobEvent {
                job,
                event: JobEvent::Completed,
            });
            self.arm_pass(now);
        }
    }

    fn fail_job(&mut self, now: SimTime, job: JobId, actions: &mut Vec<CoordAction>) {
        self.drop_hold(job);
        if let Some(meta) = self.jobs.remove(&job) {
            if let Some(node) = meta.current_node.or(meta.offered_to) {
                self.dir.release(node, job);
            }
            self.db.submit(now, WriteIntent::TakePending(job));
            self.db
                .submit(now, WriteIntent::SetJobState(job, JobState::Failed));
            actions.push(CoordAction::JobEvent {
                job,
                event: JobEvent::Failed,
            });
        }
    }

    fn offer_timed_out(&mut self, now: SimTime, job: JobId, actions: &mut Vec<CoordAction>) {
        let Some(meta) = self.jobs.get_mut(&job) else {
            return;
        };
        let Some(node) = meta.offered_to.take() else {
            return;
        };
        self.offer_failed(now, job, node, actions);
    }

    /// Shared tail of "the offer to `node` did not work out" — explicit
    /// rejection and silent timeout take the same path: release the offer
    /// reservation, exclude the node for this placement epoch, burn a
    /// retry, give up on migrate-back if the refusing node was the home,
    /// then requeue or fail.
    fn offer_failed(
        &mut self,
        now: SimTime,
        job: JobId,
        node: NodeUid,
        actions: &mut Vec<CoordAction>,
    ) {
        self.dir.release(node, job);
        let Some(meta) = self.jobs.get_mut(&job) else {
            return;
        };
        meta.excluded.push(node);
        meta.retries += 1;
        if meta.preferred == Some(node) {
            // The home node itself refused: give up migrating back rather
            // than spinning on a rejecting host.
            self.abandon_migrate_back(now, job);
        }
        let meta = self.jobs.get_mut(&job).expect("present");
        if meta.retries > self.config.max_retries {
            self.fail_job(now, job, actions);
        } else {
            self.db.submit(now, WriteIntent::RequeueJob(job));
            self.arm_pass(now);
        }
    }

    /// A displaced provider came back: try to move its jobs home.
    fn provider_returned(&mut self, now: SimTime, node: NodeUid, actions: &mut Vec<CoordAction>) {
        let window = self.config.migrate_back_window;
        let candidates: Vec<JobId> = self
            .jobs
            .iter()
            .filter(|(_, m)| {
                m.displaced_from
                    .map(|(n, at)| n == node && now.since(at) <= window)
                    .unwrap_or(false)
            })
            .map(|(j, _)| *j)
            .collect();
        for job in candidates {
            let meta = self.jobs.get_mut(&job).expect("just listed");
            meta.preferred = Some(node);
            // A rejection from a past epoch must not veto the return home.
            meta.excluded.retain(|u| *u != node);
            match meta.current_node {
                None => {
                    // Still queued: the preferred-node fast path in the next
                    // pass places it home before the general drain runs.
                    self.arm_pass(now);
                }
                Some(current) if current != node => {
                    // Running elsewhere: checkpoint there, then preempt and
                    // restore on the original node — but only after securing
                    // the home slot with a hold, so the pass can't give it
                    // away mid-round-trip. If the home can't cover the job
                    // right now (a sibling displaced job may have taken the
                    // capacity first), leave the healthy run alone; the
                    // preference stays set for any future displacement.
                    let spec = meta.spec.clone();
                    if self.dir.is_candidate(node, &spec)
                        && self
                            .dir
                            .reserve(node, job, spec.gpus, spec.gpu_mem_bytes, spec.min_cc)
                    {
                        let meta = self.jobs.get_mut(&job).expect("just listed");
                        meta.home_hold = Some((node, now));
                        meta.migrating_back = true;
                        self.held_jobs.insert(job);
                        let delay = self.db.write_latency_estimate(now);
                        actions.push(CoordAction::Send {
                            to: current,
                            msg: Work::CheckpointRequest { job }.into(),
                            delay,
                        });
                    }
                }
                _ => {}
            }
        }
    }

    // ---- the scheduling pass -------------------------------------------

    /// One batched pass over the pending queue (priority order, per §3.5),
    /// placing against the capacity index with incremental reservation
    /// updates — each placement is visible to the next decision without
    /// re-ranking anything.
    ///
    /// Runs in two phases: migrate-back candidates claim their preferred
    /// (returning) node first, then the general drain picks round-robin.
    ///
    /// Each placement submits its dequeue transaction to the write-queue
    /// actor and pays that write's *emergent* sojourn time as its decision
    /// latency — later decisions in the same pass queue behind earlier
    /// ones, which is exactly the §5.2 contention the M/M/1 formula used
    /// to simulate. If the write queue hits its bound mid-drain, the pass
    /// defers (see [`Coordinator::defer_pass`]) rather than over-filling.
    fn scheduling_pass(&mut self, now: SimTime, actions: &mut Vec<CoordAction>) {
        let pending = self.db.state().pending_in_order();

        // Phase 1: the preferred-node (migrate-back) fast path.
        for &job in &pending {
            if self.db.would_block() {
                self.defer_pass(now);
                return;
            }
            let Some(meta) = self.jobs.get(&job) else {
                continue;
            };
            if meta.offered_to.is_some() {
                continue;
            }
            let Some(pref) = meta.preferred else {
                continue;
            };
            if meta.excluded.contains(&pref) {
                continue;
            }
            if meta.home_hold.is_some_and(|(n, _)| n != pref) {
                // The preference re-pointed to a different returner since
                // this hold was taken: the old hold is obsolete — release
                // it so it can't pin capacity on the stale home or keep
                // phase 2 from placing the job.
                self.drop_hold(job);
            }
            let meta = self.jobs.get(&job).expect("present");
            // The job's own held home slot counts as free for its check
            // (read-only; a transient miss leaves the hold untouched).
            if self.dir.is_candidate_for_holder(pref, &meta.spec, job) {
                // Swap the hold (if any) for the offer reservation, taken
                // atomically within this pass by dispatch_offer.
                self.drop_hold(job);
                self.dispatch_offer(now, job, pref, actions);
            }
        }

        // Phase 2: drain the rest of the queue against the capacity index.
        for &job in &pending {
            if self.db.would_block() {
                self.defer_pass(now);
                return;
            }
            let Some(meta) = self.jobs.get(&job) else {
                // Job no longer tracked (cancelled/failed elsewhere):
                // scrub the orphan queue entry.
                self.db.submit(now, WriteIntent::TakePending(job));
                continue;
            };
            if meta.offered_to.is_some() {
                continue;
            }
            if meta.home_hold.is_some() {
                // A live home hold means this job was deliberately
                // preempted to move it home; don't scatter it to another
                // node while the hold stands. The heartbeat sweep expires
                // stale holds and re-opens general placement.
                continue;
            }
            let Some(target) = self.selector.pick(&self.dir, &meta.spec, &meta.excluded) else {
                continue; // nothing eligible; stays queued
            };
            self.dispatch_offer(now, job, target, actions);
        }

        // Writes that add pending jobs may still be in flight (submitted
        // after this pass was armed): they were invisible to the drain
        // above, so run another pass once the queue has drained them.
        if self.db.pending_enqueues() > 0 {
            self.arm_pass(now);
        }
    }

    /// Reserve, dequeue, and send one offer. Bails out (leaving the job
    /// pending, no offer) if the reservation cannot be fully covered —
    /// callers verify candidacy first, so this is a consistency backstop,
    /// not a placement policy.
    fn dispatch_offer(
        &mut self,
        now: SimTime,
        job: JobId,
        target: NodeUid,
        actions: &mut Vec<CoordAction>,
    ) {
        let spec = self.jobs.get(&job).expect("present").spec.clone();
        if !self
            .dir
            .reserve(target, job, spec.gpus, spec.gpu_mem_bytes, spec.min_cc)
        {
            self.dir.release(target, job);
            return;
        }
        self.jobs.get_mut(&job).expect("present").offered_to = Some(target);
        // The decision's latency is its dequeue transaction's emergent
        // sojourn: queue wait behind every earlier write (including this
        // pass's previous decisions) plus service.
        let latency = self.db.submit(now, WriteIntent::TakePending(job));
        self.decision_latency.record(latency.as_secs_f64());
        self.arm(
            now + latency + self.config.offer_timeout,
            CoordTimer::OfferTimeout(job),
        );
        actions.push(CoordAction::Send {
            to: target,
            msg: Work::Dispatch { spec }.into(),
            delay: latency,
        });
        actions.push(CoordAction::JobEvent {
            job,
            event: JobEvent::Dispatched { node: target },
        });
    }
}

/// Which node a message claims to come from (for token validation).
fn message_source(msg: &Message) -> Option<NodeUid> {
    match msg {
        Message::Control(
            Control::Heartbeat { node, .. }
            | Control::DepartureNotice { node, .. }
            | Control::PauseScheduling { node, .. },
        ) => Some(*node),
        _ => None,
    }
}

impl Coordinator {
    /// Heartbeats are status traffic: sheddable at the inbox bound — the
    /// next beat carries fresher data. The exception mirrors
    /// [`Coordinator::head_turn_writes`]: a heartbeat that would *revive*
    /// an Offline node carries a critical state flip (and migrate-back
    /// bookkeeping), so shedding it could leave the node dead at the
    /// coordinator indefinitely; it is admitted like any other critical
    /// envelope.
    fn envelope_sheddable(&self, env: &CoordEnvelope) -> bool {
        match env {
            CoordEnvelope::Net(e) => match &e.msg {
                Message::Control(Control::Heartbeat { node, .. }) => !self.heartbeat_revives(*node),
                _ => false,
            },
            CoordEnvelope::Msg(m) => match &**m {
                Message::Control(Control::Heartbeat { node, .. }) => !self.heartbeat_revives(*node),
                _ => false,
            },
            _ => false,
        }
    }
    /// Whether the inbox head's turn would submit critical database writes
    /// (and must therefore defer while the write queue is at bound).
    /// Heartbeats normally carry only a sheddable status write — except a
    /// heartbeat that *revives* an Offline node, whose turn submits a
    /// critical state flip (and may start migrate-back bookkeeping), so it
    /// defers like any other critical envelope. Telemetry resets write
    /// nothing.
    fn head_turn_writes(&self) -> bool {
        match &self.inbox.front().expect("head peeked by caller").env {
            CoordEnvelope::Net(e) => match &e.msg {
                Message::Control(Control::Heartbeat { node, .. }) => self.heartbeat_revives(*node),
                _ => true,
            },
            CoordEnvelope::Msg(m) => match &**m {
                Message::Control(Control::Heartbeat { node, .. }) => self.heartbeat_revives(*node),
                _ => true,
            },
            CoordEnvelope::ResetTelemetry => false,
            _ => true,
        }
    }

    fn heartbeat_revives(&self, node: NodeUid) -> bool {
        self.dir.liveness(node) == Some(NodeLiveness::Offline)
    }
}
