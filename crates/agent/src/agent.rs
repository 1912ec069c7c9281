//! The provider agent: a passive state machine implementing provider
//! supremacy.
//!
//! The agent owns the node's GPUs and container runtime and mediates between
//! three parties: the **provider** (absolute authority, via the REST API in
//! [`crate::rest`]), the **coordinator** (dispatch/kill/checkpoint messages),
//! and the **workloads** (training runs executing in containers).
//!
//! The embedding event loop drives it through four entry points —
//! [`Agent::handle_message`], [`Agent::on_wake`], [`Agent::on_flow_done`],
//! and the REST layer — and executes the returned [`Action`]s (send a
//! message, start a bulk transfer, disconnect). The agent never touches the
//! network itself, which is what lets the identical logic run over the
//! simulated campus LAN and over real TCP in live mode.

use crate::config::AgentConfig;
use crate::timers::{Timer, Timers};
use gpunion_container::{ContainerConfigBuilder, ContainerId, ContainerRuntime, ImageRegistry};
use gpunion_des::{SimDuration, SimTime};
use gpunion_gpu::{ComputeCapability, GpuIndex, GpuServer, MemAllocId};
use gpunion_protocol::{
    AuthToken, Control, DepartureMode, DispatchSpec, ExecMode, JobId, KillReason, Message, NodeUid,
    Work, WorkloadState, WorkloadStatus,
};
use gpunion_storage::CheckpointCostModel;
use gpunion_telemetry::{labels, Registry};
use gpunion_workload::TrainingRun;
use std::collections::BTreeMap;

/// Where a bulk transfer goes / comes from, as the agent sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowPeer {
    /// The coordinator node (also hosts the image registry and the campus
    /// shared filesystem in the paper's deployment).
    Coordinator,
    /// A specific provider node (user-designated checkpoint storage).
    Node(NodeUid),
}

/// Why a transfer is happening (returned in the completion callback).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowPurpose {
    /// Pulling the container image for a job.
    ImagePull {
        /// The job being provisioned.
        job: JobId,
    },
    /// Uploading a checkpoint (full or incremental).
    CheckpointUpload {
        /// Owning job.
        job: JobId,
        /// Snapshot sequence.
        seq: u64,
    },
    /// Fetching a checkpoint chain to restore a migrated job.
    RestoreFetch {
        /// The job being restored.
        job: JobId,
    },
}

/// Actions the embedding loop must perform on the agent's behalf.
#[derive(Debug)]
pub enum Action {
    /// Send a control message to the coordinator.
    Send(Message),
    /// Start a bulk transfer.
    StartFlow {
        /// Remote end.
        peer: FlowPeer,
        /// Direction: true = download to this node.
        inbound: bool,
        /// Bytes to move.
        bytes: u64,
        /// Purpose (echoed in [`Agent::on_flow_done`]).
        purpose: FlowPurpose,
    },
    /// Disconnect from the network (departure complete). The loop marks the
    /// node down.
    GoOffline,
}

/// Agent lifecycle phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AgentPhase {
    /// Not yet registered with the coordinator.
    Unregistered,
    /// Registration sent, waiting for ack.
    Registering,
    /// Heartbeating, accepting workloads.
    Active,
    /// Provider paused new allocations (workloads keep running).
    Paused,
    /// Graceful departure under way (checkpoint grace window).
    Departing,
    /// Gone.
    Departed,
}

/// Per-workload execution phase inside the agent.
#[derive(Debug, Clone, Copy, PartialEq)]
enum WorkPhase {
    /// Image pull in progress.
    Pulling,
    /// SHA256 verification timer running.
    Verifying,
    /// Container start timer running.
    Starting,
    /// Restore fetch / deserialize in progress.
    Restoring,
    /// Training (or interactive session) executing since the given time.
    Running { since: SimTime },
    /// ALC capture blocking the training loop.
    Checkpointing,
    /// Waiting for the stop timer after a completion.
    Finished,
}

/// One workload under agent management.
struct Workload {
    spec: DispatchSpec,
    container: ContainerId,
    phase: WorkPhase,
    run: Option<TrainingRun>,
    gpus: Vec<(GpuIndex, MemAllocId)>,
    /// Pending upload bytes for the checkpoint currently being captured.
    pending_upload: Option<(u64, u64)>, // (seq, bytes)
    /// True once the coordinator ordered a pre-migration checkpoint.
    departing_checkpoint: bool,
}

/// The provider agent.
pub struct Agent {
    config: AgentConfig,
    server: GpuServer,
    runtime: ContainerRuntime,
    cost: CheckpointCostModel,
    phase: AgentPhase,
    uid: Option<NodeUid>,
    token: AuthToken,
    heartbeat_seq: u64,
    /// Ordered by job id: heartbeat status vectors, kill-switch sweeps and
    /// departure checkpoints must iterate deterministically.
    workloads: BTreeMap<JobId, Workload>,
    timers: Timers,
    /// Heartbeats sent over the agent's life (a reconnect restarts
    /// `heartbeat_seq`, not this). `agent_heartbeats_total` is read from
    /// it at scrape: a beat is one add to a field the beat touches anyway.
    heartbeats_sent: u64,
    /// Set while a graceful departure is draining.
    departure_deadline: Option<SimTime>,
    /// Verifications that fired from a timer and await the image registry
    /// (drained by [`Agent::complete_verifications`]).
    pending_verifications: Vec<(SimTime, JobId, ContainerId)>,
}

impl Agent {
    /// A new, unregistered agent on the given hardware.
    pub fn new(config: AgentConfig, server: GpuServer) -> Self {
        Agent {
            config,
            server,
            runtime: ContainerRuntime::new(),
            cost: CheckpointCostModel::default(),
            phase: AgentPhase::Unregistered,
            uid: None,
            token: AuthToken::UNAUTHENTICATED,
            heartbeat_seq: 0,
            workloads: BTreeMap::new(),
            timers: Timers::default(),
            heartbeats_sent: 0,
            departure_deadline: None,
            pending_verifications: Vec::new(),
        }
    }

    /// Current phase.
    pub fn phase(&self) -> AgentPhase {
        self.phase
    }

    /// Node uid once registered.
    pub fn uid(&self) -> Option<NodeUid> {
        self.uid
    }

    /// The auth token (for envelope construction by the embedding loop).
    pub fn token(&self) -> AuthToken {
        self.token
    }

    /// The agent's hardware.
    pub fn server(&self) -> &GpuServer {
        &self.server
    }

    /// Mutable hardware access (the embedding loop advances device clocks).
    pub fn server_mut(&mut self) -> &mut GpuServer {
        &mut self.server
    }

    /// Number of live workloads.
    pub fn workload_count(&self) -> usize {
        self.workloads.len()
    }

    /// The jobs of the live workloads, ascending.
    pub fn workload_jobs(&self) -> impl Iterator<Item = JobId> + '_ {
        self.workloads.keys().copied()
    }

    /// What a `/metrics` scrape returns, built from the agent's fields at
    /// the call: `agent_heartbeats_total{node=…}` is the beats sent, and
    /// absent until the first beat.
    pub fn metrics(&self) -> Registry {
        let mut registry = Registry::new();
        if self.heartbeats_sent > 0 {
            let node = labels([("node", self.config.hostname.as_str())]);
            registry
                .counter(
                    "agent_heartbeats_total",
                    "heartbeats sent",
                    node,
                    self.heartbeats_sent as f64,
                )
                .expect("one family per name");
        }
        registry
    }

    /// The agent's config.
    pub fn config(&self) -> &AgentConfig {
        &self.config
    }

    /// Canonical run state of a job, if resident (simulation hook: the
    /// embedding loop extracts the restored run during migrations).
    pub fn take_run(&mut self, job: JobId) -> Option<TrainingRun> {
        self.workloads.get_mut(&job).and_then(|w| w.run.take())
    }

    // ---- timers -----------------------------------------------------

    fn disarm_job_timers(&mut self, job: JobId) {
        self.timers.retain(|t| {
            !matches!(t,
                Timer::VerifyDone(j) | Timer::StartDone(j) | Timer::RestoreDone(j)
                | Timer::CheckpointDue(j) | Timer::CaptureDone(j) | Timer::JobComplete(j)
                if *j == job
            )
        });
    }

    /// The next instant the agent needs waking.
    pub fn next_wake(&self) -> Option<SimTime> {
        self.timers.next_wake()
    }

    /// Fire all timers due at or before `now` ([`Agent::on_wake_into`] with
    /// a fresh buffer).
    pub fn on_wake(&mut self, now: SimTime) -> Vec<Action> {
        let mut actions = Vec::new();
        self.on_wake_into(now, &mut actions);
        actions
    }

    /// Fire all timers due at or before `now`, appending what they ask for
    /// to `actions`. Most wakes are one heartbeat, so the embedding loop
    /// hands in a buffer it keeps.
    pub fn on_wake_into(&mut self, now: SimTime, actions: &mut Vec<Action>) {
        while let Some(timer) = self.timers.pop_due(now) {
            self.fire(now, timer, actions);
        }
    }

    fn fire(&mut self, now: SimTime, timer: Timer, actions: &mut Vec<Action>) {
        match timer {
            Timer::Heartbeat => {
                if matches!(
                    self.phase,
                    AgentPhase::Active | AgentPhase::Paused | AgentPhase::Departing
                ) {
                    actions.push(Action::Send(self.heartbeat(now)));
                    self.timers
                        .arm(now + self.config.heartbeat_period, Timer::Heartbeat);
                }
            }
            Timer::VerifyDone(job) => self.verify_done(now, job, actions),
            Timer::StartDone(job) => self.start_done(now, job, actions),
            Timer::RestoreDone(job) => self.restore_done(now, job, actions),
            Timer::CheckpointDue(job) => self.checkpoint_due(now, job),
            Timer::CaptureDone(job) => self.capture_done(now, job, actions),
            Timer::JobComplete(job) => self.job_complete(now, job, actions),
            Timer::DepartureDeadline => self.departure_deadline_hit(now, actions),
        }
    }

    // ---- registration / heartbeat ------------------------------------

    /// Kick off registration (the embedding loop calls this once the node
    /// is connected).
    pub fn start_registration(&mut self, _now: SimTime) -> Vec<Action> {
        self.phase = AgentPhase::Registering;
        vec![Action::Send(
            Control::Register {
                machine_id: self.config.machine_id.clone(),
                hostname: self.config.hostname.clone(),
                gpus: self
                    .server
                    .spec()
                    .gpus
                    .iter()
                    .map(|m| (*m).into())
                    .collect(),
                agent_version: self.config.version,
            }
            .into(),
        )]
    }

    fn heartbeat(&mut self, now: SimTime) -> Message {
        self.heartbeat_seq += 1;
        let uid = self.uid.expect("heartbeat only after registration");
        let gpu_stats = self.server.telemetry_each(now).map(Into::into).collect();
        let workloads = self.workload_statuses(now);
        self.heartbeats_sent += 1;
        Control::Heartbeat {
            node: uid,
            seq: self.heartbeat_seq,
            accepting: self.phase == AgentPhase::Active,
            gpu_stats,
            workloads,
        }
        .into()
    }

    fn workload_statuses(&mut self, now: SimTime) -> Vec<WorkloadStatus> {
        self.advance_runs(now);
        self.workloads
            .iter()
            .map(|(job, w)| WorkloadStatus {
                job: *job,
                state: match w.phase {
                    WorkPhase::Pulling
                    | WorkPhase::Verifying
                    | WorkPhase::Starting
                    | WorkPhase::Restoring => WorkloadState::Provisioning,
                    WorkPhase::Running { .. } => WorkloadState::Running,
                    WorkPhase::Checkpointing => WorkloadState::Checkpointing,
                    WorkPhase::Finished => WorkloadState::Completed,
                },
                progress: w.run.as_ref().map(|r| r.progress()).unwrap_or(0.0),
                checkpoint_seq: w.run.as_ref().map(|r| r.checkpoint_seq()).unwrap_or(0),
            })
            .collect()
    }

    // ---- coordinator messages -----------------------------------------

    /// Process a message from the coordinator.
    pub fn handle_message(
        &mut self,
        now: SimTime,
        msg: Message,
        registry: &ImageRegistry,
    ) -> Vec<Action> {
        let mut actions = Vec::new();
        match msg {
            Message::Control(c) => self.handle_control(now, c, &mut actions),
            Message::Work(w) => self.handle_work(now, w, registry, &mut actions),
        }
        actions
    }

    fn handle_control(&mut self, now: SimTime, msg: Control, actions: &mut Vec<Action>) {
        match msg {
            Control::RegisterAck {
                node,
                token,
                heartbeat_period_ms,
            } => {
                self.uid = Some(node);
                self.token = token;
                self.config.heartbeat_period = SimDuration::from_millis(heartbeat_period_ms as u64);
                self.phase = AgentPhase::Active;
                // First heartbeat immediately; then periodic. Arming
                // replaces a heartbeat timer an earlier ack armed, so a
                // duplicated ack restarts the period and does not double it.
                actions.push(Action::Send(self.heartbeat(now)));
                self.timers
                    .arm(now + self.config.heartbeat_period, Timer::Heartbeat);
            }
            Control::HeartbeatAck { .. } => {}
            _ => {
                actions.push(Action::Send(
                    Control::Error {
                        code: 400,
                        detail: "unexpected message for agent".into(),
                    }
                    .into(),
                ));
            }
        }
    }

    fn handle_work(
        &mut self,
        now: SimTime,
        msg: Work,
        registry: &ImageRegistry,
        actions: &mut Vec<Action>,
    ) {
        match msg {
            Work::Dispatch { spec } => self.dispatch(now, spec, registry, actions),
            Work::Kill { job, reason } => self.kill_workload(now, job, reason, actions),
            Work::CheckpointRequest { job } => {
                if let Some(w) = self.workloads.get(&job) {
                    if matches!(w.phase, WorkPhase::Running { .. }) {
                        self.disarm_checkpoint_timer(job);
                        self.begin_capture(now, job);
                    }
                }
            }
            _ => {
                actions.push(Action::Send(
                    Control::Error {
                        code: 400,
                        detail: "unexpected message for agent".into(),
                    }
                    .into(),
                ));
            }
        }
    }

    fn disarm_checkpoint_timer(&mut self, job: JobId) {
        self.timers
            .retain(|t| !matches!(t, Timer::CheckpointDue(j) if *j == job));
    }

    fn dispatch(
        &mut self,
        now: SimTime,
        spec: DispatchSpec,
        registry: &ImageRegistry,
        actions: &mut Vec<Action>,
    ) {
        let job = spec.job;
        if self.phase != AgentPhase::Active {
            actions.push(Action::Send(
                Work::DispatchReply {
                    job,
                    accepted: false,
                    reason: format!("node not accepting (phase {:?})", self.phase),
                }
                .into(),
            ));
            return;
        }
        // Admission: GPUs available?
        let min_cc = spec.min_cc.map(|(a, b)| ComputeCapability::new(a, b));
        let candidates = self.server.find_gpus(spec.gpu_mem_bytes, min_cc);
        if candidates.len() < spec.gpus as usize {
            actions.push(Action::Send(
                Work::DispatchReply {
                    job,
                    accepted: false,
                    reason: format!(
                        "insufficient GPUs: need {}, have {}",
                        spec.gpus,
                        candidates.len()
                    ),
                }
                .into(),
            ));
            return;
        }
        // Build + validate the container config from the wire spec.
        let image_ref = match registry_lookup(registry, &spec) {
            Some(r) => r,
            None => {
                actions.push(Action::Send(
                    Work::DispatchReply {
                        job,
                        accepted: false,
                        reason: "image not in registry".into(),
                    }
                    .into(),
                ));
                return;
            }
        };
        let builder = ContainerConfigBuilder::new(image_ref).gpus(spec.gpus);
        let builder = match &spec.mode {
            ExecMode::Batch { entrypoint } => builder.entrypoint(entrypoint.clone()),
            ExecMode::Interactive { port } => builder.interactive(*port),
        };
        let config = match builder.build() {
            Ok(c) => c,
            Err(e) => {
                actions.push(Action::Send(
                    Work::DispatchReply {
                        job,
                        accepted: false,
                        reason: format!("config rejected: {e}"),
                    }
                    .into(),
                ));
                return;
            }
        };
        // Reserve the GPUs now (dispatch raced against local sessions
        // otherwise).
        let mut gpus = Vec::new();
        for idx in candidates.into_iter().take(spec.gpus as usize) {
            match self.server.alloc_on(idx, spec.gpu_mem_bytes) {
                Ok(alloc) => gpus.push((idx, alloc)),
                Err(e) => {
                    // Roll back partial reservations.
                    for (i, a) in gpus.drain(..) {
                        let _ = self.server.free_on(i, a);
                    }
                    actions.push(Action::Send(
                        Work::DispatchReply {
                            job,
                            accepted: false,
                            reason: format!("allocation failed: {e}"),
                        }
                        .into(),
                    ));
                    return;
                }
            }
        }
        let container = self.runtime.create(now, config);
        let pull_bytes = self
            .runtime
            .begin_pull(now, container)
            .expect("fresh container can pull");
        // Real pull size comes from the manifest.
        let manifest_bytes = registry
            .manifest(&registry_lookup(registry, &spec).expect("checked"))
            .map(|m| m.transfer_bytes())
            .unwrap_or(pull_bytes);
        actions.push(Action::Send(
            Work::DispatchReply {
                job,
                accepted: true,
                reason: String::new(),
            }
            .into(),
        ));
        self.workloads.insert(
            job,
            Workload {
                spec,
                container,
                phase: WorkPhase::Pulling,
                run: None,
                gpus,
                pending_upload: None,
                departing_checkpoint: false,
            },
        );
        if pull_bytes == 0 {
            // Cached image: skip the network, go straight to verification.
            self.pull_finished(now, job, registry, actions);
        } else {
            actions.push(Action::StartFlow {
                peer: FlowPeer::Coordinator,
                inbound: true,
                bytes: manifest_bytes,
                purpose: FlowPurpose::ImagePull { job },
            });
        }
    }

    /// Attach the canonical run state for a job — fresh runs right after an
    /// accepted dispatch, restored runs during migration (representing the
    /// state deserialized from the checkpoint chain).
    pub fn attach_run(&mut self, job: JobId, run: TrainingRun) {
        if let Some(w) = self.workloads.get_mut(&job) {
            w.run = Some(run);
        }
    }

    fn pull_finished(
        &mut self,
        now: SimTime,
        job: JobId,
        registry: &ImageRegistry,
        actions: &mut Vec<Action>,
    ) {
        // A `Kill` during a pull leaves its flow in flight, so a completion
        // can arrive for a job that is gone, or re-dispatched and already
        // past its own pull: only a `Pulling` workload has a pull to finish.
        let Some(w) = self
            .workloads
            .get(&job)
            .filter(|w| w.phase == WorkPhase::Pulling)
        else {
            return;
        };
        let image_ref = registry_lookup(registry, &w.spec);
        let manifest = image_ref.and_then(|r| registry.manifest(&r)).cloned();
        let container = w.container;
        match manifest {
            Some(m) => {
                let vdur = self
                    .runtime
                    .finish_pull(now, container, &m)
                    .expect("pulling container");
                if let Some(w) = self.workloads.get_mut(&job) {
                    w.phase = WorkPhase::Verifying;
                }
                self.timers.arm(now + vdur, Timer::VerifyDone(job));
            }
            None => self.fail_workload(now, job, "manifest disappeared", actions),
        }
    }

    fn verify_done(&mut self, now: SimTime, job: JobId, actions: &mut Vec<Action>) {
        // Registry is needed again; the embedding loop passes it to
        // handle_message/on_flow_done, but timers fire without it. The
        // verification result was computed at finish_pull time in the real
        // system; here we re-run admission inside `finish_verify` via the
        // stored manifest — the runtime keeps what it needs, so this step
        // only needs the registry snapshot taken at dispatch. To keep the
        // state machine honest we stash the verification in `pull_finished`
        // and treat this timer as "verification compute done".
        let Some(w) = self.workloads.get_mut(&job) else {
            return;
        };
        let container = w.container;
        w.phase = WorkPhase::Starting;
        // finish_verify needs the registry; the embedding loop provides it
        // via `complete_verification`. Agents in the simulator call it
        // directly from on_wake through the stored pending list.
        self.pending_verifications.push((now, job, container));
        let _ = actions;
    }

    fn start_done(&mut self, now: SimTime, job: JobId, actions: &mut Vec<Action>) {
        let Some(w) = self.workloads.get_mut(&job) else {
            return;
        };
        let gpu_indices: Vec<GpuIndex> = w.gpus.iter().map(|(i, _)| *i).collect();
        let container = w.container;
        if self.runtime.started(now, container, gpu_indices).is_err() {
            self.fail_workload(now, job, "container start failed", actions);
            return;
        }
        let w = self.workloads.get_mut(&job).expect("checked");
        if w.spec.restore_from_seq.is_some() {
            // Restored jobs must fetch + deserialize state first.
            w.phase = WorkPhase::Restoring;
            let bytes = w.spec.state_bytes_hint.max(1);
            let peer = w
                .spec
                .storage_nodes
                .first()
                .map(|n| FlowPeer::Node(*n))
                .unwrap_or(FlowPeer::Coordinator);
            actions.push(Action::StartFlow {
                peer,
                inbound: true,
                bytes,
                purpose: FlowPurpose::RestoreFetch { job },
            });
        } else {
            self.begin_running(now, job, actions);
        }
    }

    fn restore_done(&mut self, now: SimTime, job: JobId, actions: &mut Vec<Action>) {
        self.begin_running(now, job, actions);
    }

    fn begin_running(&mut self, now: SimTime, job: JobId, actions: &mut Vec<Action>) {
        let Some(w) = self.workloads.get_mut(&job) else {
            return;
        };
        w.phase = WorkPhase::Running { since: now };
        let indices: Vec<GpuIndex> = w.gpus.iter().map(|(i, _)| *i).collect();
        let interval_secs = w.spec.checkpoint_interval_secs;
        let has_run = w.run.is_some();
        for idx in indices {
            if let Some(d) = self.server.device_mut(idx) {
                d.set_utilization(now, 1.0);
            }
        }
        // Arm checkpoint + completion timers. The first checkpoint is
        // staggered by a per-job phase so co-starting jobs (lab deadline
        // bursts) don't capture and upload in lockstep — synchronized
        // cycles were saturating the backbone in 1-minute bursts (§4).
        if interval_secs > 0 && has_run {
            self.timers.arm(
                now + checkpoint_stagger(job, interval_secs),
                Timer::CheckpointDue(job),
            );
        }
        if let Some(eta) = self.eta_for(job) {
            self.timers.arm(now + eta, Timer::JobComplete(job));
        }
        let (progress, seq) = self.run_progress(job);
        actions.push(Action::Send(
            Work::WorkloadUpdate {
                status: WorkloadStatus {
                    job,
                    state: WorkloadState::Running,
                    progress,
                    checkpoint_seq: seq,
                },
                exit_code: None,
            }
            .into(),
        ));
    }

    /// Peak FP32 TFLOPS of the first GPU a job is bound to.
    fn job_tflops(&self, job: JobId) -> f64 {
        self.workloads
            .get(&job)
            .and_then(|w| w.gpus.first())
            .and_then(|(i, _)| self.server.device(*i))
            .map(|d| d.spec().fp32_tflops)
            .unwrap_or(35.6)
    }

    /// Remaining wall-clock for a job's run, if it has one.
    fn eta_for(&self, job: JobId) -> Option<SimDuration> {
        let tflops = self.job_tflops(job);
        self.workloads
            .get(&job)?
            .run
            .as_ref()
            .map(|r| r.remaining_time(tflops))
    }

    /// `(progress, checkpoint_seq)` of a job's run (0s when absent).
    fn run_progress(&self, job: JobId) -> (f64, u64) {
        self.workloads
            .get(&job)
            .and_then(|w| w.run.as_ref())
            .map(|r| (r.progress(), r.checkpoint_seq()))
            .unwrap_or((0.0, 0))
    }

    /// Integrate all running training jobs up to `now`.
    fn advance_runs(&mut self, now: SimTime) {
        let jobs: Vec<JobId> = self.workloads.keys().copied().collect();
        for job in jobs {
            let tflops = self.job_tflops(job);
            if let Some(w) = self.workloads.get_mut(&job) {
                if let WorkPhase::Running { since } = w.phase {
                    if let Some(run) = &mut w.run {
                        let dt = now.since(since);
                        if !dt.is_zero() {
                            let _ = run.advance(dt, tflops);
                            w.phase = WorkPhase::Running { since: now };
                        }
                    }
                }
            }
        }
    }

    fn checkpoint_due(&mut self, now: SimTime, job: JobId) {
        let Some(w) = self.workloads.get(&job) else {
            return;
        };
        if !matches!(w.phase, WorkPhase::Running { .. }) {
            return; // checkpoint collides with something else; skip cycle
        }
        self.begin_capture(now, job);
    }

    fn begin_capture(&mut self, now: SimTime, job: JobId) {
        self.advance_runs(now);
        let Some(w) = self.workloads.get_mut(&job) else {
            return;
        };
        let Some(run) = &mut w.run else {
            return;
        };
        let state_bytes = run.spec().model.profile().state_bytes;
        if self.runtime.begin_checkpoint(now, w.container).is_err() {
            return;
        }
        w.phase = WorkPhase::Checkpointing;
        // GPUs stall while torch.save serializes.
        let indices: Vec<GpuIndex> = w.gpus.iter().map(|(i, _)| *i).collect();
        let capture = self.cost.capture_time(state_bytes);
        for idx in indices {
            if let Some(d) = self.server.device_mut(idx) {
                d.set_utilization(now, 0.25);
            }
        }
        self.timers.arm(now + capture, Timer::CaptureDone(job));
        // Completion timer is stale now; it gets re-armed on resume.
        self.timers
            .retain(|t| !matches!(t, Timer::JobComplete(j) if *j == job));
    }

    fn capture_done(&mut self, now: SimTime, job: JobId, actions: &mut Vec<Action>) {
        let Some(w) = self.workloads.get_mut(&job) else {
            return;
        };
        let Some(run) = &mut w.run else {
            return;
        };
        let (_snapshot, transfer) = run.capture_checkpoint();
        let seq = run.checkpoint_seq();
        w.pending_upload = Some((seq, transfer));
        let container = w.container;
        let _ = self.runtime.finish_checkpoint(now, container);
        // Upload in the background; training resumes immediately.
        let peer = w
            .spec
            .storage_nodes
            .first()
            .map(|n| FlowPeer::Node(*n))
            .unwrap_or(FlowPeer::Coordinator);
        actions.push(Action::StartFlow {
            peer,
            inbound: false,
            bytes: transfer,
            purpose: FlowPurpose::CheckpointUpload { job, seq },
        });
        // Resume running.
        w.phase = WorkPhase::Running { since: now };
        let indices: Vec<GpuIndex> = w.gpus.iter().map(|(i, _)| *i).collect();
        let interval_secs = w.spec.checkpoint_interval_secs;
        let departing = w.departing_checkpoint;
        for idx in indices {
            if let Some(d) = self.server.device_mut(idx) {
                d.set_utilization(now, 1.0);
            }
        }
        if interval_secs > 0 && !departing {
            self.timers.arm(
                now + SimDuration::from_secs(interval_secs as u64),
                Timer::CheckpointDue(job),
            );
        }
        if let Some(eta) = self.eta_for(job) {
            self.timers.arm(now + eta, Timer::JobComplete(job));
        }
    }

    fn job_complete(&mut self, now: SimTime, job: JobId, actions: &mut Vec<Action>) {
        self.advance_runs(now);
        let done = self
            .workloads
            .get(&job)
            .and_then(|w| w.run.as_ref())
            .map(|r| r.is_complete())
            .unwrap_or(false);
        if !done {
            // Clock skew from checkpoint stalls; re-arm at the new ETA.
            if let Some(eta) = self.eta_for(job) {
                self.timers.arm(
                    now + eta.max(SimDuration::from_millis(100)),
                    Timer::JobComplete(job),
                );
            }
            return;
        }
        let (_, ckpt_seq) = self.run_progress(job);
        let container = {
            let w = self.workloads.get_mut(&job).expect("checked above");
            w.phase = WorkPhase::Finished;
            w.container
        };
        let _ = self.runtime.exited(now, container, 0);
        self.release_gpus(now, job);
        actions.push(Action::Send(
            Work::WorkloadUpdate {
                status: WorkloadStatus {
                    job,
                    state: WorkloadState::Completed,
                    progress: 1.0,
                    checkpoint_seq: ckpt_seq,
                },
                exit_code: Some(0),
            }
            .into(),
        ));
        self.disarm_job_timers(job);
        self.workloads.remove(&job);
    }

    fn release_gpus(&mut self, now: SimTime, job: JobId) {
        if let Some(w) = self.workloads.get_mut(&job) {
            for (idx, alloc) in w.gpus.drain(..) {
                let _ = self.server.free_on(idx, alloc);
                if let Some(d) = self.server.device_mut(idx) {
                    d.set_utilization(now, 0.0);
                }
            }
        }
    }

    /// Kill a workload (provider kill-switch, user cancel, or preemption).
    pub fn kill_workload(
        &mut self,
        now: SimTime,
        job: JobId,
        reason: KillReason,
        actions: &mut Vec<Action>,
    ) {
        self.advance_runs(now);
        let Some(w) = self.workloads.get_mut(&job) else {
            return;
        };
        let container = w.container;
        let _ = self.runtime.kill(now, container);
        self.release_gpus(now, job);
        self.disarm_job_timers(job);
        let w = self.workloads.get_mut(&job).expect("checked");
        if let Some(run) = &mut w.run {
            run.rollback_to_checkpoint();
        }
        actions.push(Action::Send(
            Work::WorkloadUpdate {
                status: WorkloadStatus {
                    job,
                    state: WorkloadState::Killed,
                    progress: w.run.as_ref().map(|r| r.progress()).unwrap_or(0.0),
                    checkpoint_seq: w.run.as_ref().map(|r| r.checkpoint_seq()).unwrap_or(0),
                },
                exit_code: Some(137),
            }
            .into(),
        ));
        let _ = reason;
        // Keep the entry until the embedding loop collects the rolled-back
        // run for requeue, unless nothing is recoverable.
        if self.workloads[&job].run.is_none() {
            self.workloads.remove(&job);
        }
    }

    /// Discard a workload entry after the loop migrated its run, freeing
    /// the GPUs it occupied. Without the free, a harvested-then-returning
    /// provider would advertise its VRAM as allocated forever and
    /// migrate-back could never place the job home.
    pub fn forget_workload(&mut self, now: SimTime, job: JobId) {
        self.release_gpus(now, job);
        self.disarm_job_timers(job);
        self.workloads.remove(&job);
    }

    fn fail_workload(&mut self, now: SimTime, job: JobId, why: &str, actions: &mut Vec<Action>) {
        if let Some(w) = self.workloads.get(&job) {
            let container = w.container;
            let _ = self.runtime.fail(now, container);
        }
        self.release_gpus(now, job);
        self.disarm_job_timers(job);
        self.workloads.remove(&job);
        actions.push(Action::Send(
            Work::WorkloadUpdate {
                status: WorkloadStatus {
                    job,
                    state: WorkloadState::Failed,
                    progress: 0.0,
                    checkpoint_seq: 0,
                },
                exit_code: None,
            }
            .into(),
        ));
        actions.push(Action::Send(
            Control::Error {
                code: 500,
                detail: format!("job {}: {why}", job.0),
            }
            .into(),
        ));
    }

    // ---- flows ---------------------------------------------------------

    /// A bulk transfer finished (or failed).
    pub fn on_flow_done(
        &mut self,
        now: SimTime,
        purpose: FlowPurpose,
        ok: bool,
        registry: &ImageRegistry,
    ) -> Vec<Action> {
        let mut actions = Vec::new();
        match purpose {
            FlowPurpose::ImagePull { job } => {
                if ok {
                    self.pull_finished(now, job, registry, &mut actions);
                } else {
                    self.fail_workload(now, job, "image pull aborted", &mut actions);
                }
            }
            FlowPurpose::CheckpointUpload { job, seq } => {
                if ok {
                    let (transfer, stored_on) = match self.workloads.get_mut(&job) {
                        Some(w) => {
                            let t = w.pending_upload.take().map(|(_, b)| b).unwrap_or(0);
                            (t, w.spec.storage_nodes.clone())
                        }
                        None => (0, Vec::new()),
                    };
                    actions.push(Action::Send(
                        Work::CheckpointDone {
                            job,
                            seq,
                            transfer_bytes: transfer,
                            stored_on,
                        }
                        .into(),
                    ));
                    self.maybe_finish_departure(now, &mut actions);
                } else if let Some(w) = self.workloads.get_mut(&job) {
                    // Failed upload: the last checkpoint isn't durable; the
                    // next cycle retries from scratch.
                    w.pending_upload = None;
                }
            }
            FlowPurpose::RestoreFetch { job } => {
                if ok {
                    let bytes = self
                        .workloads
                        .get(&job)
                        .map(|w| w.spec.state_bytes_hint)
                        .unwrap_or(0);
                    let dur = self.cost.restore_time(bytes);
                    self.timers.arm(now + dur, Timer::RestoreDone(job));
                } else {
                    self.fail_workload(now, job, "restore fetch aborted", &mut actions);
                }
            }
        }
        actions
    }

    // ---- provider controls (called from the REST layer) ----------------

    /// The kill-switch: terminate every guest workload immediately.
    pub fn kill_switch(&mut self, now: SimTime) -> Vec<Action> {
        let mut actions = Vec::new();
        let jobs: Vec<JobId> = self.workloads.keys().copied().collect();
        for job in jobs {
            self.kill_workload(now, job, KillReason::ProviderKillSwitch, &mut actions);
        }
        actions
    }

    /// Pause / resume new allocations.
    pub fn set_paused(&mut self, paused: bool) -> Vec<Action> {
        let mut actions = Vec::new();
        match (self.phase, paused) {
            (AgentPhase::Active, true) => {
                self.phase = AgentPhase::Paused;
            }
            (AgentPhase::Paused, false) => {
                self.phase = AgentPhase::Active;
            }
            _ => return actions,
        }
        if let Some(uid) = self.uid {
            actions.push(Action::Send(
                Control::PauseScheduling { node: uid, paused }.into(),
            ));
        }
        actions
    }

    /// Begin a departure. Graceful: notify, checkpoint everything, then
    /// leave at the deadline (or earlier if all uploads finish). Emergency:
    /// notify (best effort) and leave now.
    pub fn depart(&mut self, now: SimTime, mode: DepartureMode) -> Vec<Action> {
        let mut actions = Vec::new();
        let Some(uid) = self.uid else {
            self.phase = AgentPhase::Departed;
            actions.push(Action::GoOffline);
            return actions;
        };
        actions.push(Action::Send(
            Control::DepartureNotice { node: uid, mode }.into(),
        ));
        match mode {
            DepartureMode::Emergency => {
                self.phase = AgentPhase::Departed;
                actions.push(Action::GoOffline);
            }
            DepartureMode::Graceful { grace_secs } => {
                self.phase = AgentPhase::Departing;
                let deadline = now + SimDuration::from_secs(grace_secs as u64);
                self.departure_deadline = Some(deadline);
                self.timers.arm(deadline, Timer::DepartureDeadline);
                // Checkpoint every running stateful workload right now.
                let jobs: Vec<JobId> = self
                    .workloads
                    .iter()
                    .filter(|(_, w)| {
                        matches!(w.phase, WorkPhase::Running { .. }) && w.run.is_some()
                    })
                    .map(|(j, _)| *j)
                    .collect();
                for job in &jobs {
                    self.disarm_checkpoint_timer(*job);
                    if let Some(w) = self.workloads.get_mut(job) {
                        w.departing_checkpoint = true;
                    }
                    self.begin_capture(now, *job);
                }
                if jobs.is_empty() && self.no_pending_uploads() {
                    self.finish_departure(&mut actions);
                }
            }
        }
        actions
    }

    fn no_pending_uploads(&self) -> bool {
        self.workloads
            .values()
            .all(|w| w.pending_upload.is_none() && !matches!(w.phase, WorkPhase::Checkpointing))
    }

    fn maybe_finish_departure(&mut self, _now: SimTime, actions: &mut Vec<Action>) {
        if self.phase == AgentPhase::Departing && self.no_pending_uploads() {
            self.finish_departure(actions);
        }
    }

    fn finish_departure(&mut self, actions: &mut Vec<Action>) {
        self.phase = AgentPhase::Departed;
        self.departure_deadline = None;
        self.timers.clear();
        actions.push(Action::GoOffline);
    }

    fn departure_deadline_hit(&mut self, now: SimTime, actions: &mut Vec<Action>) {
        if self.phase != AgentPhase::Departing {
            return;
        }
        // Whatever didn't finish checkpointing is killed; the grace window
        // is the provider's promise, not the workloads'.
        let jobs: Vec<JobId> = self.workloads.keys().copied().collect();
        for job in jobs {
            self.kill_workload(now, job, KillReason::ProviderKillSwitch, actions);
        }
        self.finish_departure(actions);
    }

    /// Reconnect after temporary unavailability: reset to registration.
    pub fn reconnect(&mut self, now: SimTime) -> Vec<Action> {
        self.phase = AgentPhase::Unregistered;
        self.uid = None;
        self.token = AuthToken::UNAUTHENTICATED;
        self.timers.clear();
        self.heartbeat_seq = 0;
        // The machine rebooted: containers are gone, GPU memory is free.
        let jobs: Vec<JobId> = self.workloads.keys().copied().collect();
        for job in jobs {
            self.release_gpus(now, job);
        }
        self.workloads.clear();
        self.pending_verifications.clear();
        self.start_registration(now)
    }

    /// Are any verifications waiting for [`Agent::complete_verifications`]?
    pub fn has_pending_verifications(&self) -> bool {
        !self.pending_verifications.is_empty()
    }
    /// Complete deferred verifications (requires the image registry).
    /// Returns follow-up actions.
    pub fn complete_verifications(
        &mut self,
        now: SimTime,
        registry: &ImageRegistry,
    ) -> Vec<Action> {
        let mut actions = Vec::new();
        let pending = std::mem::take(&mut self.pending_verifications);
        for (_, job, container) in pending {
            let Some(w) = self.workloads.get(&job) else {
                continue;
            };
            let image_ref = registry_lookup(registry, &w.spec);
            let manifest = image_ref.and_then(|r| registry.manifest(&r)).cloned();
            match manifest {
                Some(m) => match self.runtime.finish_verify(now, container, registry, &m) {
                    Ok(start_dur) => {
                        self.timers.arm(now + start_dur, Timer::StartDone(job));
                    }
                    Err(e) => {
                        let why = format!("verification failed: {e}");
                        self.fail_workload(now, job, &why, &mut actions);
                    }
                },
                None => self.fail_workload(now, job, "manifest disappeared", &mut actions),
            }
        }
        actions
    }
}

/// First-checkpoint delay for a job: the base interval shifted by a
/// deterministic per-job phase in `[-interval/2, +interval/2)`, derived from
/// the job id (splitmix-style mix). Spreads checkpoint cycles of co-started
/// jobs uniformly across the interval while keeping the mean cadence — and
/// reruns of the same job id stagger identically, so experiment harnesses
/// stay reproducible.
fn checkpoint_stagger(job: JobId, interval_secs: u32) -> SimDuration {
    let interval = interval_secs as u64;
    let mixed = job.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
    let phase = mixed % interval.max(1);
    SimDuration::from_secs(interval / 2 + phase)
}

/// Resolve the wire image reference against the registry by digest.
fn registry_lookup(
    registry: &ImageRegistry,
    spec: &DispatchSpec,
) -> Option<gpunion_container::ImageRef> {
    let digest = gpunion_container::Digest(spec.image_digest);
    let r = gpunion_container::ImageRef {
        repository: spec.image_repo.clone(),
        tag: spec.image_tag.clone(),
        digest,
    };
    registry.manifest(&r).map(|_| r)
}
