//! The assembled GPUnion platform: coordinator + agents + campus network.
//!
//! `Platform` is the world type of the top-level discrete-event simulation.
//! It owns the simulated LAN, the coordinator, and one agent per GPU server,
//! and routes everything between them: control envelopes ride
//! [`gpunion_simnet::Network::send`], checkpoints/image pulls/restores ride
//! flows, provider interruptions drive agents' REST endpoints or yank nodes
//! off the network. A single self-rearming "pump" event advances all
//! passive components.

mod wake_index;

use gpunion_agent::{Action, Agent, AgentConfig, FlowPeer, FlowPurpose};
use gpunion_container::ImageRegistry;
use gpunion_des::{earliest, RngPool, Sim, SimDuration, SimTime, TypedEvent};
use gpunion_gpu::{GpuServer, ServerSpec};
use gpunion_protocol::{
    Control, DispatchSpec, Envelope, ExecMode, JobId, Message, NodeUid, UserId, Work, WorkloadState,
};
use gpunion_scheduler::{
    CoordAction, CoordEnvelope, Coordinator, CoordinatorConfig, JobEvent, SendOutcome,
};
use gpunion_simnet::{
    star_campus, Bandwidth, FlowOutcome, NetEvent, Network, NodeId, TrafficClass,
};
use gpunion_workload::{InteractiveSpec, InterruptionKind, TrainingJobSpec, TrainingRun};
use std::collections::{BTreeMap, HashMap};
use wake_index::WakeIndex;

/// The platform simulator: a [`Sim`] whose events — pump wakes, boot
/// registrations, harness injections — are all typed [`PlatformEvent`]
/// values (allocation-free on the warm path). Ad-hoc scenario actions are
/// not events; they run between `run_until` calls via
/// [`Scenario::act`](crate::Scenario::act).
pub type PlatformSim = Sim<Platform, PlatformEvent>;

/// Typed top-level simulation events.
///
/// These replace the boxed closures the platform used to schedule for its
/// recurring work: the values live by value in the simulator's queue, so
/// the steady-state schedule→fire cycle touches no allocator. The pump is
/// the simulator's armed event ([`Sim::arm_at`]): re-arming it never
/// touches the queue, which holds only boots and harness injections.
#[derive(Debug, Clone)]
pub enum PlatformEvent {
    /// Wake the pump: advance all passive components to `now`.
    Pump,
    /// Boot-time registration of the agent at this address.
    Boot(NodeId),
    /// A staged harness injection (arrivals, lifecycle steps, provider
    /// interruptions).
    Inject(Injection),
}

/// A harness injection: what `Scenario` used to encode as (triple-)nested
/// boxed closures, now plain data dispatched by [`Platform::run_injection`].
///
/// Arrival variants box their specs so every event stays small in the
/// simulator's queue; the boxing happens once at scenario construction (the
/// cold path), exactly where the old closure capture allocated.
#[derive(Debug, Clone)]
pub enum Injection {
    /// Submit a training job.
    Training {
        /// Harness trace index.
        tag: u64,
        /// The job.
        spec: Box<TrainingJobSpec>,
    },
    /// An interactive session arrives (starts its lifecycle chain).
    InteractiveArrive {
        /// Harness trace index.
        tag: u64,
        /// The session.
        spec: Box<InteractiveSpec>,
    },
    /// Patience check: abandon the session if it never started.
    InteractivePatience {
        /// The session's job id.
        job: JobId,
        /// How long it runs once started.
        duration: SimDuration,
    },
    /// A served session ends (user logs out).
    InteractiveEnd {
        /// The session's job id.
        job: JobId,
    },
    /// A provider interruption hits a host.
    Interrupt {
        /// The host.
        host: NodeId,
        /// Interruption class.
        kind: InterruptionKind,
    },
    /// The provider returns after an outage.
    ProviderReturn {
        /// The host.
        host: NodeId,
    },
}

impl TypedEvent<Platform> for PlatformEvent {
    fn kind(&self) -> &'static str {
        match self {
            PlatformEvent::Pump => "pump",
            PlatformEvent::Boot(_) => "boot",
            PlatformEvent::Inject(Injection::Training { .. }) => "inject-training",
            PlatformEvent::Inject(Injection::InteractiveArrive { .. }) => "inject-arrive",
            PlatformEvent::Inject(Injection::InteractivePatience { .. }) => "inject-patience",
            PlatformEvent::Inject(Injection::InteractiveEnd { .. }) => "inject-end",
            PlatformEvent::Inject(Injection::Interrupt { .. }) => "inject-interrupt",
            PlatformEvent::Inject(Injection::ProviderReturn { .. }) => "inject-return",
        }
    }

    fn fire(self, w: &mut Platform, sim: &mut PlatformSim) {
        match self {
            PlatformEvent::Pump => w.pump(sim),
            PlatformEvent::Boot(addr) => {
                let mut actions = w
                    .agents
                    .get_mut(addr)
                    .expect("agent exists")
                    .start_registration(sim.now());
                w.apply_agent_actions(sim.now(), addr, &mut actions);
                w.pump(sim);
            }
            PlatformEvent::Inject(inj) => w.run_injection(sim, inj),
        }
    }
}

/// What travels on the simulated network.
#[derive(Debug, Clone)]
pub enum Payload {
    /// A control-plane envelope.
    Ctrl(Box<Envelope>),
    /// Completion context of a bulk flow.
    FlowTag {
        /// The agent that initiated the transfer.
        agent_addr: NodeId,
        /// Why it was transferring.
        purpose: FlowPurpose,
    },
}

/// Per-displacement record for the Fig. 3 analysis.
#[derive(Debug, Clone)]
pub struct Displacement {
    /// The job.
    pub job: JobId,
    /// When it was displaced.
    pub at: SimTime,
    /// Checkpoint sequence it restores from (None = lost all work).
    pub restore_seq: Option<u64>,
    /// When it started running again (None = never within horizon).
    pub restarted_at: Option<SimTime>,
    /// Whether it restarted on its original (returning) node.
    pub migrated_back: bool,
}

/// Platform-level statistics collected during a run.
#[derive(Debug, Default, Clone)]
pub struct PlatformStats {
    /// Job lifecycle log (ordered so post-run sweeps are deterministic).
    pub job_log: BTreeMap<JobId, Vec<(SimTime, JobEvent)>>,
    /// Map from the caller's submission tag to the assigned job id.
    pub tag_to_job: HashMap<u64, JobId>,
    /// Reverse map.
    pub job_to_tag: HashMap<JobId, u64>,
    /// Interactive sessions that got a GPU within the user's patience.
    pub sessions_served: u64,
    /// Sessions whose users gave up.
    pub sessions_abandoned: u64,
    /// Completed training jobs.
    pub jobs_completed: u64,
    /// All displacements (kill-switch, departures, heartbeat loss).
    pub displacements: Vec<Displacement>,
    /// Last durable checkpoint time per job (lost-work accounting).
    pub last_checkpoint: HashMap<JobId, SimTime>,
}

impl PlatformStats {
    fn log(&mut self, now: SimTime, job: JobId, event: JobEvent) {
        self.job_log.entry(job).or_default().push((now, event));
        match event {
            JobEvent::Completed => self.jobs_completed += 1,
            JobEvent::Requeued { restore_seq } => self.displacements.push(Displacement {
                job,
                at: now,
                restore_seq,
                restarted_at: None,
                migrated_back: false,
            }),
            JobEvent::Started { .. } => {
                if let Some(d) = self
                    .displacements
                    .iter_mut()
                    .rev()
                    .find(|d| d.job == job && d.restarted_at.is_none())
                {
                    d.restarted_at = Some(now);
                }
            }
            JobEvent::MigratedBack { .. } => {
                if let Some(d) = self.displacements.iter_mut().rev().find(|d| d.job == job) {
                    d.migrated_back = true;
                }
            }
            _ => {}
        }
    }

    /// First time a given event kind appears for a job.
    pub fn first_event(&self, job: JobId, pred: impl Fn(&JobEvent) -> bool) -> Option<SimTime> {
        self.job_log
            .get(&job)?
            .iter()
            .find(|(_, e)| pred(e))
            .map(|(t, _)| *t)
    }
}

/// Platform configuration.
#[derive(Debug, Clone)]
pub struct PlatformConfig {
    /// Master seed for every stochastic stream.
    pub seed: u64,
    /// Coordinator settings (heartbeat period, retries, database queue, …).
    pub coordinator: CoordinatorConfig,
    /// Access link speed.
    pub access: Bandwidth,
    /// Backbone speed.
    pub backbone: Bandwidth,
    /// One-way link latency.
    pub link_latency: SimDuration,
    /// Local disk rate for same-node copies.
    pub local_disk: Bandwidth,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig {
            seed: 42,
            coordinator: CoordinatorConfig::default(),
            access: Bandwidth::gbps(1.0),
            backbone: Bandwidth::gbps(10.0),
            link_latency: SimDuration::from_micros(50),
            local_disk: Bandwidth::gbps(16.0),
        }
    }
}

/// One agent and the wake the platform's `wake_index` holds for it. The
/// agent is boxed so a slot is 24 bytes: the wake index validates every
/// entry against a slot's `wake`, and at 10 000 agents the table of those
/// is 240 KB rather than a cold line of a 600-byte agent per check.
#[derive(Clone)]
struct AgentSlot {
    agent: Box<Agent>,
    /// The instant under which this agent is due in `wake_index`, `None`
    /// when it is not: a refresh is a compare and at most one append. The
    /// index removes lazily, so this — not the index — is the truth every
    /// entry is validated against.
    wake: Option<SimTime>,
}

/// The agents, in a table indexed by simnet address. `star_campus` hands
/// out dense ids, so the switch and the coordinator are the only empty
/// slots; the table is sized once at deploy, and walking it visits agents
/// in ascending address order — the order boot staggering, uid assignment
/// and the utilisation sums depend on.
#[derive(Clone)]
struct AgentTable(Vec<Option<AgentSlot>>);

impl AgentTable {
    fn slot_mut(&mut self, addr: NodeId) -> Option<&mut AgentSlot> {
        self.0.get_mut(addr.0 as usize)?.as_mut()
    }

    fn get(&self, addr: NodeId) -> Option<&Agent> {
        Some(&self.0.get(addr.0 as usize)?.as_ref()?.agent)
    }

    fn get_mut(&mut self, addr: NodeId) -> Option<&mut Agent> {
        self.slot_mut(addr).map(|s| &mut *s.agent)
    }

    /// Is `addr`'s wake `at`? (A wake-index entry is live.)
    fn wakes_at(&self, addr: NodeId, at: SimTime) -> bool {
        self.0[addr.0 as usize]
            .as_ref()
            .is_some_and(|s| s.wake == Some(at))
    }

    /// [`Self::wakes_at`], clearing the wake when it is: the pump popped
    /// the agent.
    fn take_wake(&mut self, addr: NodeId, at: SimTime) -> bool {
        let slot = self.slot_mut(addr).expect("indexed agents exist");
        let live = slot.wake == Some(at);
        if live {
            slot.wake = None;
        }
        live
    }

    /// `(address, slot)` of every agent, ascending address.
    fn slots_mut(&mut self) -> impl Iterator<Item = (NodeId, &mut AgentSlot)> {
        self.0
            .iter_mut()
            .enumerate()
            .filter_map(|(i, s)| Some((NodeId(i as u32), s.as_mut()?)))
    }
}

/// The assembled platform (the simulation world). A value: cloning it
/// (with its [`PlatformSim`]) forks the run.
#[derive(Clone)]
pub struct Platform {
    /// The campus network.
    pub net: Network<Payload>,
    /// The central coordinator.
    pub coordinator: Coordinator,
    coordinator_addr: NodeId,
    /// One agent per GPU host, by address.
    agents: AgentTable,
    /// Uid → simnet address, indexed by `NodeUid::slot` (the coordinator
    /// issues uids densely); `None` until the uid's `RegisterAck` is routed.
    addr_of_uid: Vec<Option<NodeId>>,
    /// Machine id → simnet address, fixed at deploy time. Used to learn
    /// uid → address mappings when the coordinator acks a registration
    /// (the ack is the first action naming the new uid).
    addr_of_machine: HashMap<String, NodeId>,
    /// The shared campus image registry (hosted on the coordinator).
    pub registry: ImageRegistry,
    /// Image references published at boot.
    pub image_refs: Vec<gpunion_container::ImageRef>,
    /// Canonical runs for jobs between placements (displaced state).
    displaced_runs: HashMap<JobId, TrainingRun>,
    /// Fresh-job specs, attached at first dispatch acceptance.
    fresh_runs: HashMap<JobId, TrainingJobSpec>,
    /// Collected statistics.
    pub stats: PlatformStats,
    /// The coordinator–switch backbone link (traffic-share reporting).
    backbone_link: gpunion_simnet::LinkId,
    /// Wake-ordered index over agents with a pending timer: the pump pops
    /// only the due prefix — O(due), not O(agents).
    wake_index: WakeIndex,
    /// Set when `agent_mut` hands out raw access (timers may have changed
    /// behind the index's back); the next pump resyncs from scratch.
    wake_dirty: bool,
    /// Reusable buffer for the due agents of one pump iteration.
    due_scratch: Vec<NodeId>,
    /// What one pump phase produced, kept between iterations so the steady
    /// heartbeat cycle allocates no buffer: `Network::poll_into` fills
    /// `net_events` and `route_net_events` drains it, `advance_into` fills
    /// `coord_actions` for `apply_coord_actions`, `on_wake_into` fills
    /// `agent_actions` for `apply_agent_actions`.
    net_events: Vec<NetEvent<Payload>>,
    coord_actions: Vec<CoordAction>,
    agent_actions: Vec<Action>,
}

impl Platform {
    /// Deploy the platform on a star campus: one agent per server spec
    /// (CPU-only specs are skipped — the coordinator is separate).
    /// Returns the platform and the simnet addresses of the GPU hosts, in
    /// spec order.
    pub fn deploy(config: &PlatformConfig, specs: &[ServerSpec]) -> (Platform, Vec<NodeId>) {
        let gpu_specs: Vec<&ServerSpec> = specs.iter().filter(|s| !s.gpus.is_empty()).collect();
        let (topo, hosts, coord_addr, _) = star_campus(
            gpu_specs.len(),
            config.access,
            config.backbone,
            config.link_latency,
        );
        let pool = RngPool::new(config.seed);
        let net = Network::new(topo, config.local_disk, config.seed ^ 0x5151);
        let backbone_link = net.topology().link_of(coord_addr);
        let coordinator = Coordinator::new(config.coordinator.clone(), config.seed ^ 0xC0);
        let (registry, image_refs) = gpunion_container::standard_catalogue();
        let mut agents = AgentTable(Vec::new());
        agents.0.resize_with(net.topology().node_count(), || None);
        let mut addr_of_machine = HashMap::with_capacity(gpu_specs.len());
        for (i, spec) in gpu_specs.iter().enumerate() {
            let mut rng = pool.stream_n("agent-id", i as u64);
            let agent_config = AgentConfig::new(spec.hostname.clone(), &mut rng);
            addr_of_machine.insert(agent_config.machine_id.clone(), hosts[i]);
            let agent = Agent::new(agent_config, GpuServer::new((*spec).clone()));
            let agent = Box::new(agent);
            agents.0[hosts[i].0 as usize] = Some(AgentSlot { agent, wake: None });
        }
        let platform = Platform {
            net,
            coordinator,
            coordinator_addr: coord_addr,
            agents,
            addr_of_uid: Vec::new(),
            addr_of_machine,
            registry,
            image_refs,
            displaced_runs: HashMap::new(),
            fresh_runs: HashMap::new(),
            stats: PlatformStats::default(),
            backbone_link,
            wake_index: WakeIndex::default(),
            // Resync on the first pump: agents may carry deploy-time timers.
            wake_dirty: true,
            due_scratch: Vec::new(),
            net_events: Vec::new(),
            coord_actions: Vec::new(),
            agent_actions: Vec::new(),
        };
        (platform, hosts)
    }

    /// The campus backbone link (coordinator uplink), for traffic-share
    /// reporting against the backbone's capacity.
    pub fn backbone_link(&self) -> Option<gpunion_simnet::LinkId> {
        Some(self.backbone_link)
    }

    /// Agent access by address (tests/harnesses).
    pub fn agent(&self, addr: NodeId) -> Option<&Agent> {
        self.agents.get(addr)
    }

    /// Mutable agent access. Marks the wake index dirty: the caller may
    /// arm or clear agent timers directly, so the next pump resyncs.
    pub fn agent_mut(&mut self, addr: NodeId) -> Option<&mut Agent> {
        self.wake_dirty = true;
        self.agents.get_mut(addr)
    }

    /// The coordinator's simnet address.
    pub fn coordinator_addr(&self) -> NodeId {
        self.coordinator_addr
    }

    /// Mean GPU utilization per host address since boot.
    pub fn utilization_by_host(&mut self, now: SimTime) -> Vec<(NodeId, String, f64)> {
        self.agents
            .slots_mut()
            .map(|(addr, s)| {
                let name = s.agent.config().hostname.clone();
                (addr, name, s.agent.server_mut().mean_utilization(now))
            })
            .collect()
    }

    /// Campus-wide GPU-weighted mean utilization.
    pub fn mean_utilization(&mut self, now: SimTime) -> f64 {
        let mut weighted = 0.0;
        let mut total = 0usize;
        for (_, slot) in self.agents.slots_mut() {
            let a = &mut slot.agent;
            let n = a.server().gpu_count();
            weighted += a.server_mut().mean_utilization(now) * n as f64;
            total += n;
        }
        if total == 0 {
            0.0
        } else {
            weighted / total as f64
        }
    }

    // ---- boot ----------------------------------------------------------

    /// Kick everything off: agents register at slightly staggered times.
    pub fn boot(world: &mut Platform, sim: &mut PlatformSim) {
        for (i, (addr, _)) in world.agents.slots_mut().enumerate() {
            sim.schedule_typed_at(
                SimTime::from_millis(10 + i as u64 * 3),
                PlatformEvent::Boot(addr),
            );
        }
    }

    // ---- submissions -----------------------------------------------------

    /// Submit a training job right now. `tag` links the submission to the
    /// harness's trace index.
    pub fn submit_training(
        &mut self,
        now: SimTime,
        tag: u64,
        spec: &TrainingJobSpec,
        storage_nodes: Vec<NodeUid>,
    ) -> JobId {
        let profile = spec.model.profile();
        let image = &self.image_refs[0];
        let dispatch = DispatchSpec {
            job: JobId(0),
            image_repo: image.repository.clone(),
            image_tag: image.tag.clone(),
            image_digest: image.digest.0,
            gpus: spec.gpus,
            gpu_mem_bytes: profile.gpu_mem_bytes,
            min_cc: profile.min_cc.map(|cc| (cc.major, cc.minor)),
            mode: ExecMode::Batch {
                entrypoint: vec!["python".into(), "train.py".into()],
            },
            checkpoint_interval_secs: spec.checkpoint_interval.as_secs() as u32,
            storage_nodes,
            state_bytes_hint: profile.state_bytes,
            restore_from_seq: None,
            priority: spec.priority,
            user: UserId::SYSTEM,
        };
        let job = self.submit_envelope(now, dispatch);
        self.fresh_runs.insert(job, spec.clone());
        self.stats.tag_to_job.insert(tag, job);
        self.stats.job_to_tag.insert(job, tag);
        job
    }

    /// Enqueue a job submission on the coordinator's inbox. The id is
    /// assigned at admission; the turn itself (queue write, pass arming,
    /// the Queued event) runs on the next pump.
    fn submit_envelope(&mut self, now: SimTime, dispatch: DispatchSpec) -> JobId {
        let outcome = self
            .coordinator
            .send(now, CoordEnvelope::SubmitJob(Box::new(dispatch)));
        let SendOutcome::Enqueued { job: Some(job) } = outcome else {
            unreachable!("job submissions are critical envelopes, never shed");
        };
        job
    }

    /// Submit an interactive session; returns the job id. The caller is
    /// responsible for ending it (see `Scenario::submit_interactive_at`).
    pub fn submit_interactive(&mut self, now: SimTime, tag: u64, spec: &InteractiveSpec) -> JobId {
        let image = &self.image_refs[1];
        let dispatch = DispatchSpec {
            job: JobId(0),
            image_repo: image.repository.clone(),
            image_tag: image.tag.clone(),
            image_digest: image.digest.0,
            gpus: 1,
            gpu_mem_bytes: spec.gpu_mem_bytes,
            min_cc: None,
            mode: ExecMode::Interactive { port: 8888 },
            checkpoint_interval_secs: 0,
            storage_nodes: vec![],
            state_bytes_hint: 0,
            restore_from_seq: None,
            priority: 3, // humans waiting rank above batch
            user: UserId::SYSTEM,
        };
        let job = self.submit_envelope(now, dispatch);
        self.stats.tag_to_job.insert(tag, job);
        self.stats.job_to_tag.insert(job, tag);
        job
    }

    /// Cancel a job (user action / session end). Enqueued on the
    /// coordinator inbox; the turn runs on the next pump.
    pub fn cancel(&mut self, now: SimTime, job: JobId) {
        self.coordinator.send(now, CoordEnvelope::CancelJob(job));
    }

    // ---- provider interruptions ---------------------------------------

    /// Graceful (scheduled) departure of the host at `addr`.
    pub fn scheduled_departure(&mut self, now: SimTime, addr: NodeId) {
        let Some(agent) = self.agents.get_mut(addr) else {
            return;
        };
        let grace = agent.config().departure_grace;
        let mut actions = agent.depart(
            now,
            gpunion_protocol::DepartureMode::Graceful {
                grace_secs: grace.as_secs() as u32,
            },
        );
        self.apply_agent_actions(now, addr, &mut actions);
    }

    /// Emergency departure: the node vanishes without warning.
    pub fn emergency_departure(&mut self, now: SimTime, addr: NodeId) {
        // Harvest rolled-back runs for every workload on the node before the
        // lights go out (the durable checkpoints they restore from).
        self.harvest_runs(now, addr);
        let mut events = self.net.set_node_up(now, addr, false);
        self.route_net_events(now, &mut events);
    }

    /// The provider returns after an outage; the agent re-registers.
    pub fn provider_return(&mut self, now: SimTime, addr: NodeId) {
        let _ = self.net.set_node_up(now, addr, true);
        if let Some(agent) = self.agents.get_mut(addr) {
            let mut actions = agent.reconnect(now);
            self.apply_agent_actions(now, addr, &mut actions);
        }
    }

    fn harvest_runs(&mut self, now: SimTime, addr: NodeId) {
        // Jobs currently hosted by this agent whose state we must preserve
        // (rolled back to the last captured checkpoint).
        let Some(agent) = self.agents.get_mut(addr) else {
            return;
        };
        let jobs: Vec<JobId> = agent.workload_jobs().collect();
        for job in jobs {
            if let Some(mut run) = agent.take_run(job) {
                run.rollback_to_checkpoint();
                agent.forget_workload(now, job);
                self.displaced_runs.insert(job, run);
            }
        }
        self.refresh_wake(addr);
    }

    // ---- action routing -------------------------------------------------

    /// The address a uid's `RegisterAck` was routed to, if any.
    fn addr_of(&self, uid: NodeUid) -> Option<NodeId> {
        self.addr_of_uid.get(uid.slot()).copied().flatten()
    }

    /// Apply coordinator actions, draining `actions`: sends become network
    /// messages after their scheduling delay; job events are logged.
    pub fn apply_coord_actions(&mut self, now: SimTime, actions: &mut Vec<CoordAction>) {
        for action in actions.drain(..) {
            match action {
                CoordAction::Send { to, msg, .. } => {
                    // A RegisterAck is the first action naming a (possibly
                    // fresh) uid: learn its address from the directory's
                    // machine id before routing.
                    if let Message::Control(Control::RegisterAck { node, .. }) = &msg {
                        if let Some(&addr) = self
                            .coordinator
                            .directory()
                            .get(*node)
                            .and_then(|e| self.addr_of_machine.get(&e.machine_id))
                        {
                            let slot = node.slot();
                            if slot >= self.addr_of_uid.len() {
                                self.addr_of_uid.resize(slot + 1, None);
                            }
                            self.addr_of_uid[slot] = Some(addr);
                        }
                    }
                    let Some(addr) = self.addr_of(to) else {
                        // Destination not yet mapped (registration in
                        // flight); RegisterAck handles its own mapping below.
                        continue;
                    };
                    let env = Envelope::new(gpunion_protocol::AuthToken::UNAUTHENTICATED, msg);
                    let size = env.wire_size();
                    let from = self.coordinator_addr;
                    // The message leaves at `now`: `delay` is already
                    // accounted in the coordinator's pass timing.
                    let _ = self.net.send(
                        now,
                        from,
                        addr,
                        size,
                        TrafficClass::Control,
                        Payload::Ctrl(Box::new(env)),
                    );
                }
                CoordAction::JobEvent { job, event } => {
                    self.stats.log(now, job, event);
                }
            }
        }
    }

    /// Apply agent actions, draining `actions`.
    pub fn apply_agent_actions(&mut self, now: SimTime, addr: NodeId, actions: &mut Vec<Action>) {
        for action in actions.drain(..) {
            match action {
                Action::Send(msg) => {
                    // Harvest displaced runs on kill notifications before the
                    // message leaves (the coordinator may immediately
                    // redispatch).
                    if let Message::Work(Work::WorkloadUpdate { status, .. }) = &msg {
                        if status.state == WorkloadState::Killed {
                            if let Some(agent) = self.agents.get_mut(addr) {
                                if let Some(run) = agent.take_run(status.job) {
                                    agent.forget_workload(now, status.job);
                                    self.displaced_runs.insert(status.job, run);
                                }
                            }
                        }
                    }
                    let (token, uid) = self
                        .agents
                        .get(addr)
                        .map(|a| (a.token(), a.uid()))
                        .unwrap_or((gpunion_protocol::AuthToken::UNAUTHENTICATED, None));
                    let env = match uid {
                        Some(uid) => Envelope::from_node(uid, token, msg),
                        None => Envelope::new(token, msg),
                    };
                    let size = env.wire_size();
                    let _ = self.net.send(
                        now,
                        addr,
                        self.coordinator_addr,
                        size,
                        TrafficClass::Control,
                        Payload::Ctrl(Box::new(env)),
                    );
                }
                Action::StartFlow {
                    peer,
                    inbound,
                    bytes,
                    purpose,
                } => {
                    let peer_addr = match peer {
                        FlowPeer::Coordinator => self.coordinator_addr,
                        FlowPeer::Node(uid) => self.addr_of(uid).unwrap_or(self.coordinator_addr),
                    };
                    let (from, to) = if inbound {
                        (peer_addr, addr)
                    } else {
                        (addr, peer_addr)
                    };
                    let class = match purpose {
                        FlowPurpose::ImagePull { .. } => TrafficClass::ImagePull,
                        FlowPurpose::CheckpointUpload { .. } => TrafficClass::Checkpoint,
                        FlowPurpose::RestoreFetch { .. } => TrafficClass::Migration,
                    };
                    let tag = Payload::FlowTag {
                        agent_addr: addr,
                        purpose,
                    };
                    if self
                        .net
                        .start_flow(now, from, to, bytes.max(1), class, tag)
                        .is_err()
                    {
                        // Unreachable peer: fail the transfer immediately.
                        let mut actions = self
                            .agents
                            .get_mut(addr)
                            .map(|a| a.on_flow_done(now, purpose, false, &self.registry))
                            .unwrap_or_default();
                        self.apply_agent_actions(now, addr, &mut actions);
                    }
                }
                Action::GoOffline => {
                    let mut events = self.net.set_node_up(now, addr, false);
                    self.route_net_events(now, &mut events);
                }
            }
        }
        // Every path that mutates an agent's timers ends here (wakes,
        // deliveries, flow completions, departures), so re-indexing once per
        // call keeps the wake index exact.
        self.refresh_wake(addr);
    }

    fn route_net_events(&mut self, now: SimTime, events: &mut Vec<NetEvent<Payload>>) {
        for ev in events.drain(..) {
            match ev {
                NetEvent::Delivered { to, payload, .. } => match payload {
                    Payload::Ctrl(env) => {
                        if to == self.coordinator_addr {
                            // The box rides through to the coordinator's
                            // inbox untouched — no realloc per delivery.
                            self.deliver_to_coordinator(now, env);
                        } else {
                            self.deliver_to_agent(now, to, *env);
                        }
                    }
                    Payload::FlowTag { .. } => {
                        unreachable!("flow tags never ride messages")
                    }
                },
                NetEvent::FlowEnded { outcome, tag, .. } => {
                    if let Payload::FlowTag {
                        agent_addr,
                        purpose,
                    } = tag
                    {
                        let ok = outcome == FlowOutcome::Completed;
                        let mut actions = self
                            .agents
                            .get_mut(agent_addr)
                            .map(|a| a.on_flow_done(now, purpose, ok, &self.registry))
                            .unwrap_or_default();
                        self.apply_agent_actions(now, agent_addr, &mut actions);
                    }
                }
            }
        }
    }

    fn deliver_to_coordinator(&mut self, now: SimTime, env: Box<Envelope>) {
        if let Message::Work(Work::CheckpointDone { job, .. }) = &env.msg {
            self.stats.last_checkpoint.insert(*job, now);
        }
        // Enqueue only: the coordinator is an actor — its turn runs inside
        // the pump's `advance` call, which returns the actions to route.
        self.coordinator.send(now, CoordEnvelope::Net(env));
    }

    fn deliver_to_agent(&mut self, now: SimTime, addr: NodeId, env: Envelope) {
        // Fresh-run attachment: if this is a dispatch the agent accepts, the
        // canonical run must be attached immediately after.
        let dispatch_job = match &env.msg {
            Message::Work(Work::Dispatch { spec }) => Some((spec.job, spec.restore_from_seq)),
            _ => None,
        };
        let Some(agent) = self.agents.get_mut(addr) else {
            return;
        };
        let mut actions = agent.handle_message(now, env.msg, &self.registry);
        // Attach run on acceptance.
        if let Some((job, restore)) = dispatch_job {
            let accepted = actions.iter().any(|a| {
                matches!(
                    a,
                    Action::Send(Message::Work(Work::DispatchReply { accepted: true, .. }))
                )
            });
            if accepted {
                let run = if restore.is_some() {
                    self.displaced_runs.remove(&job)
                } else {
                    None
                };
                let run = run.or_else(|| {
                    self.fresh_runs
                        .get(&job)
                        .map(|spec| TrainingRun::new(spec.clone()))
                });
                if let Some(run) = run {
                    if let Some(agent) = self.agents.get_mut(addr) {
                        agent.attach_run(job, run);
                    }
                }
            }
        }
        self.apply_agent_actions(now, addr, &mut actions);
    }

    // ---- harness injections -------------------------------------------

    /// Run one staged injection: the bodies of the old scenario closures,
    /// verbatim — including the trailing pump and the order in which
    /// follow-up lifecycle events are scheduled, so event sequencing (and
    /// with it every golden) is unchanged.
    pub fn run_injection(&mut self, sim: &mut PlatformSim, inj: Injection) {
        let now = sim.now();
        match inj {
            Injection::Training { tag, spec } => {
                self.submit_training(now, tag, &spec, vec![]);
                self.pump(sim);
            }
            Injection::InteractiveArrive { tag, spec } => {
                let job = self.submit_interactive(now, tag, &spec);
                sim.schedule_typed_in(
                    spec.patience,
                    PlatformEvent::Inject(Injection::InteractivePatience {
                        job,
                        duration: spec.duration,
                    }),
                );
                self.pump(sim);
            }
            Injection::InteractivePatience { job, duration } => {
                let started = self
                    .stats
                    .first_event(job, |e| matches!(e, JobEvent::Started { .. }));
                match started {
                    Some(start) => {
                        self.stats.sessions_served += 1;
                        let end = start + duration;
                        sim.schedule_typed_at(
                            end.max(now),
                            PlatformEvent::Inject(Injection::InteractiveEnd { job }),
                        );
                    }
                    None => {
                        self.stats.sessions_abandoned += 1;
                        self.cancel(now, job);
                    }
                }
                self.pump(sim);
            }
            Injection::InteractiveEnd { job } => {
                self.cancel(now, job);
                self.pump(sim);
            }
            Injection::Interrupt { host, kind } => {
                match kind {
                    InterruptionKind::ScheduledDeparture => self.scheduled_departure(now, host),
                    InterruptionKind::EmergencyDeparture
                    | InterruptionKind::TemporaryUnavailability => {
                        self.emergency_departure(now, host)
                    }
                }
                self.pump(sim);
            }
            Injection::ProviderReturn { host } => {
                self.provider_return(now, host);
                self.pump(sim);
            }
        }
    }

    // ---- the pump ---------------------------------------------------------

    /// Re-index one agent's next wake after its timers may have changed.
    fn refresh_wake(&mut self, addr: NodeId) {
        let Some(slot) = self.agents.slot_mut(addr) else {
            return;
        };
        let wake = slot.agent.next_wake();
        if wake == slot.wake {
            return;
        }
        // The old entry, if any, goes stale: the index validates every
        // entry against `slot.wake` on the way out.
        slot.wake = wake;
        if let Some(t) = wake {
            self.wake_index.file(t, addr);
        }
    }

    /// Rebuild the wake index from every agent (after raw `agent_mut`
    /// access invalidated it).
    fn resync_wakes(&mut self) {
        self.wake_index.clear();
        for (addr, slot) in self.agents.slots_mut() {
            slot.wake = slot.agent.next_wake();
            if let Some(t) = slot.wake {
                self.wake_index.file(t, addr);
            }
        }
        self.wake_dirty = false;
    }

    /// Advance every passive component to `sim.now()` and re-arm the wake.
    ///
    /// Each iteration asks the three components when they are next due —
    /// the network, the coordinator, the wake index's head — once each, in
    /// that order (a delivery may make the coordinator due, and either an
    /// agent), and runs only the ones that are. The iteration in which none
    /// was due changed nothing, so the three instants it read are still
    /// true and the pump is armed from them.
    ///
    /// Agent wakes come off the wake index, a [`gpunion_des::TimeQueue`]
    /// validated against the agent slots: each iteration pops only the due
    /// prefix — amortised O(1) an entry for the append run that holds
    /// nearly every wake, O(log n) for its heap — and visits the due agents
    /// in ascending address order, exactly the order the old full scan
    /// produced. Agents woken *by* this iteration's processing (a delivery
    /// arming a timer at or before `now`) re-enter the index via
    /// `refresh_wake` and are caught by the next iteration, as before.
    pub fn pump(&mut self, sim: &mut PlatformSim) {
        if self.wake_dirty {
            self.resync_wakes();
        }
        let now = sim.now();
        let due = |at: Option<SimTime>| at.is_some_and(|t| t <= now);
        let next = loop {
            let net_at = self.net.next_event_at();
            if due(net_at) {
                let mut events = std::mem::take(&mut self.net_events);
                self.net.poll_into(now, &mut events);
                self.route_net_events(now, &mut events);
                self.net_events = events;
            }
            let coord_at = self.coordinator.next_wake();
            if due(coord_at) {
                let mut actions = std::mem::take(&mut self.coord_actions);
                self.coordinator.advance_into(now, &mut actions);
                self.apply_coord_actions(now, &mut actions);
                self.coord_actions = actions;
            }
            // The earliest agent wake is the index head — no per-agent scan.
            let agents = &self.agents;
            let agents_at = self.wake_index.head(|t, addr| agents.wakes_at(addr, t));
            if due(agents_at) {
                self.wake_due_agents(now);
            }
            if !(due(net_at) || due(coord_at) || due(agents_at)) {
                break earliest(earliest(net_at, coord_at), agents_at);
            }
        };
        if let Some(at) = next {
            sim.arm_at(at, PlatformEvent::Pump);
        }
    }

    /// Pop the due prefix of the wake index and wake those agents.
    fn wake_due_agents(&mut self, now: SimTime) {
        let mut due = std::mem::take(&mut self.due_scratch);
        let mut actions = std::mem::take(&mut self.agent_actions);
        let agents = &mut self.agents;
        self.wake_index
            .pop_due(now, |t, addr| agents.take_wake(addr, t), &mut due);
        // The index yields by time; the old scan woke due agents in pure
        // address order. Restore that order.
        due.sort_unstable();
        for addr in due.drain(..) {
            let agent = self.agents.get_mut(addr).expect("indexed agents exist");
            agent.on_wake_into(now, &mut actions);
            self.apply_agent_actions(now, addr, &mut actions);
        }
        self.due_scratch = due;
        self.agent_actions = actions;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpunion_gpu::GpuModel;
    use gpunion_protocol::{DepartureMode, KillReason};
    use gpunion_workload::ModelClass;

    /// Every slot's recorded wake is its agent's next wake, and the wake
    /// index's live entries are exactly those pairs (its stale ones are
    /// dropped on the way out).
    fn assert_wakes_exact(w: &mut Platform) {
        let mut expected = std::collections::BTreeSet::new();
        for (addr, slot) in w.agents.slots_mut() {
            assert_eq!(slot.wake, slot.agent.next_wake(), "slot of {addr:?}");
            expected.extend(slot.wake.map(|t| (t, addr)));
        }
        let agents = &w.agents;
        let live = w
            .wake_index
            .live_entries(|t, addr| agents.wakes_at(addr, t));
        assert_eq!(live, expected);
    }

    /// A coordinator send to a uid no `RegisterAck` has mapped — one the
    /// coordinator never issued, or one past every table — is dropped, as
    /// it was when the map answered: nothing is sent, nothing panics.
    #[test]
    fn a_send_to_an_unmapped_uid_is_dropped() {
        let specs = [ServerSpec::workstation("ws-1", GpuModel::Rtx3090)];
        let (mut w, hosts) = Platform::deploy(&PlatformConfig::default(), &specs);
        let mut sim = PlatformSim::new();
        Platform::boot(&mut w, &mut sim);
        sim.run_until(&mut w, SimTime::from_secs(1));
        assert_eq!(w.addr_of(NodeUid(0)), Some(hosts[0]), "the one issued uid");
        let sent = w.net.messages_sent();
        for uid in [NodeUid(7), NodeUid(u64::MAX)] {
            let kill = Work::Kill {
                job: JobId(1),
                reason: KillReason::UserCancel,
            };
            let mut actions = vec![CoordAction::Send {
                to: uid,
                msg: kill.into(),
                delay: SimDuration::ZERO,
            }];
            w.apply_coord_actions(sim.now(), &mut actions);
            assert!(actions.is_empty(), "drained");
        }
        assert_eq!(w.net.messages_sent(), sent);
        assert_eq!(w.addr_of_uid.len(), 1, "lookups grow nothing");
    }

    #[test]
    fn an_agent_slot_is_three_words() {
        assert_eq!(std::mem::size_of::<Option<AgentSlot>>(), 24);
    }

    /// The wake bookkeeping lives in the agent table's slots: it stays
    /// exact through boot, heartbeat periods, a running job, raw
    /// `agent_mut` access that clears timers behind the index's back
    /// (resynced by the next pump), an emergency departure and both
    /// providers' return.
    #[test]
    fn slot_wakes_and_the_wake_index_stay_exact() {
        let specs: Vec<ServerSpec> = (1..=3)
            .map(|i| ServerSpec::workstation(format!("ws-{i}"), GpuModel::Rtx3090))
            .collect();
        let (mut w, hosts) = Platform::deploy(&PlatformConfig::default(), &specs);
        let mut sim = PlatformSim::new();
        Platform::boot(&mut w, &mut sim);
        let at = |s: u64| SimTime::from_secs(s);
        let inject = |sim: &mut PlatformSim, s: u64, inj: Injection| {
            sim.schedule_typed_at(at(s), PlatformEvent::Inject(inj));
        };
        inject(
            &mut sim,
            5,
            Injection::Training {
                tag: 0,
                spec: Box::new(TrainingJobSpec::new(ModelClass::CnnSmall, 40_000)),
            },
        );
        sim.run_until(&mut w, at(200));
        assert!(hosts.iter().all(|h| w.agent(*h).unwrap().uid().is_some()));
        assert_wakes_exact(&mut w);

        // Raw access: an idle agent departs gracefully, which clears its
        // timers without the platform hearing of it.
        let busy = |w: &Platform, h: NodeId| w.agent(h).unwrap().workload_count() > 0;
        let idle = *hosts.iter().find(|h| !busy(&w, **h)).expect("one job");
        let hosting = *hosts.iter().find(|h| busy(&w, **h)).expect("placed");
        let mode = DepartureMode::Graceful { grace_secs: 60 };
        let mut actions = w.agent_mut(idle).unwrap().depart(sim.now(), mode);
        let slot = w.agents.slot_mut(idle).unwrap();
        assert_ne!(slot.wake, slot.agent.next_wake(), "stale until resynced");
        w.pump(&mut sim);
        assert_wakes_exact(&mut w);
        w.apply_agent_actions(sim.now(), idle, &mut actions);
        w.pump(&mut sim);
        assert_wakes_exact(&mut w);

        let kind = InterruptionKind::EmergencyDeparture;
        inject(
            &mut sim,
            260,
            Injection::Interrupt {
                host: hosting,
                kind,
            },
        );
        inject(&mut sim, 320, Injection::ProviderReturn { host: hosting });
        inject(&mut sim, 320, Injection::ProviderReturn { host: idle });
        sim.run_until(&mut w, at(300));
        assert_wakes_exact(&mut w);
        sim.run_until(&mut w, at(400));
        assert!(hosts.iter().all(|h| w.agent(*h).unwrap().uid().is_some()));
        assert_wakes_exact(&mut w);
    }
}
