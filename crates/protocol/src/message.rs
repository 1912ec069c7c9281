//! GPUnion control-plane messages and their binary codec.
//!
//! The protocol covers everything the paper's coordinator and agents exchange:
//! node registration with machine identifiers and auth tokens (§3.4),
//! heartbeats carrying PyNVML-style telemetry and workload status (§3.5),
//! dispatch/kill/checkpoint orders, and departure notices for the graceful
//! exit protocol. Wire types are deliberately decoupled from internal types
//! (scheduler/agent state) — this is the stable boundary of the system.

use crate::framing::MAX_FRAME_LEN;
use crate::wire::{CountingSink, WireError, WireReader, WireSink, WireWriter};
use bytes::{BufMut, Bytes, BytesMut};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Protocol version; bumped on incompatible changes.
pub const PROTOCOL_VERSION: u8 = 1;

/// Unique machine identifier assigned at registration (the paper's
/// "registration scripts that generate unique machine identifiers").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeUid(pub u64);

impl NodeUid {
    /// Position of this uid in a table indexed by uid (the coordinator
    /// issues uids from a counter, so its per-node tables are dense).
    /// A uid wider than the platform's index type — never one the
    /// coordinator issued — maps past the end of any table.
    pub fn slot(self) -> usize {
        usize::try_from(self.0).unwrap_or(usize::MAX)
    }
}

/// Platform-wide job identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct JobId(pub u64);

/// Platform-wide submitting-user identifier. It rides every
/// [`DispatchSpec`] and is stored in the coordinator's job row; nothing
/// orders or admits by it (every submission is admitted, and the pending
/// queue is priority then FIFO).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct UserId(pub u64);

impl UserId {
    /// The anonymous/system user (default for internal submissions).
    pub const SYSTEM: UserId = UserId(0);
}

/// 128-bit bearer token issued at registration.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AuthToken(pub [u8; 16]);

impl AuthToken {
    /// The all-zero token used only inside `Register` (no credential yet).
    pub const UNAUTHENTICATED: AuthToken = AuthToken([0; 16]);
}

impl fmt::Debug for AuthToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print token material; show only a fingerprint.
        write!(f, "AuthToken({:02x}{:02x}…)", self.0[0], self.0[1])
    }
}

/// Hardware inventory for one GPU, sent at registration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuInfo {
    /// Marketing name ("NVIDIA GeForce RTX 3090").
    pub model_name: String,
    /// VRAM bytes.
    pub vram_bytes: u64,
    /// Compute capability major.
    pub cc_major: u8,
    /// Compute capability minor.
    pub cc_minor: u8,
    /// FP32 TFLOPS (scheduler speed estimates).
    pub fp32_tflops: f64,
}

/// Telemetry for one GPU, carried in every heartbeat.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GpuStat {
    /// Bytes of VRAM in use.
    pub memory_used: u64,
    /// Total VRAM bytes.
    pub memory_total: u64,
    /// SM utilization in `[0,1]`.
    pub utilization: f64,
    /// Core temperature °C.
    pub temperature_c: f64,
    /// Board power W.
    pub power_w: f64,
}

/// Coarse workload state as reported over the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkloadState {
    /// Image pull / verify / container start.
    Provisioning,
    /// Executing.
    Running,
    /// Capturing an application-level checkpoint.
    Checkpointing,
    /// Finished successfully.
    Completed,
    /// Failed (infra or process error).
    Failed,
    /// Terminated by the provider kill-switch.
    Killed,
}

/// Status of one workload in a heartbeat.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkloadStatus {
    /// Job.
    pub job: JobId,
    /// Wire state.
    pub state: WorkloadState,
    /// Fraction of total work completed, `[0,1]`.
    pub progress: f64,
    /// Last completed checkpoint sequence (0 = none).
    pub checkpoint_seq: u64,
}

/// How a provider is leaving.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DepartureMode {
    /// Scheduled departure: workloads get `grace_secs` to checkpoint.
    Graceful {
        /// Grace window in seconds.
        grace_secs: u32,
    },
    /// Emergency departure: immediate disconnect, no checkpoint window.
    Emergency,
}

/// Why a workload was killed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum KillReason {
    /// The provider pressed the kill-switch.
    ProviderKillSwitch,
    /// The submitting user cancelled.
    UserCancel,
    /// The scheduler preempted (e.g. priority workload arrived).
    SchedulerPreempt,
}

/// Execution mode requested for a dispatch.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExecMode {
    /// Batch job with an entrypoint.
    Batch {
        /// argv.
        entrypoint: Vec<String>,
    },
    /// Interactive Jupyter session on the given port.
    Interactive {
        /// Notebook port.
        port: u16,
    },
}

/// Everything an agent needs to run a job — the payload of `Dispatch`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DispatchSpec {
    /// Job being placed.
    pub job: JobId,
    /// Image repository (must be allow-listed on the node).
    pub image_repo: String,
    /// Image tag.
    pub image_tag: String,
    /// Pinned manifest digest (raw 32 bytes).
    pub image_digest: [u8; 32],
    /// GPUs required.
    pub gpus: u8,
    /// Minimum free VRAM per GPU.
    pub gpu_mem_bytes: u64,
    /// Minimum compute capability, if constrained.
    pub min_cc: Option<(u8, u8)>,
    /// Batch or interactive.
    pub mode: ExecMode,
    /// Application-level checkpoint interval in seconds (0 = stateless).
    pub checkpoint_interval_secs: u32,
    /// User-designated storage/backup nodes (uids), preference ordered.
    pub storage_nodes: Vec<NodeUid>,
    /// Expected recoverable-state size in bytes (checkpoint cost hint).
    pub state_bytes_hint: u64,
    /// Restore from this checkpoint seq (migration); None = fresh start.
    pub restore_from_seq: Option<u64>,
    /// Priority class (higher = more urgent).
    pub priority: u8,
    /// Submitting user.
    pub user: UserId,
}

/// Node-membership and platform-status traffic: registration, liveness,
/// departure, provider pausing, and protocol errors. Everything here is
/// about *nodes joining/leaving/reporting*, never about a specific job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Control {
    /// Agent → coordinator: join the platform.
    Register {
        /// Self-generated machine identifier string.
        machine_id: String,
        /// Hostname for reports.
        hostname: String,
        /// GPU inventory.
        gpus: Vec<GpuInfo>,
        /// Agent software version.
        agent_version: u32,
    },
    /// Coordinator → agent: registration accepted.
    RegisterAck {
        /// Assigned node uid.
        node: NodeUid,
        /// Bearer token for all subsequent messages.
        token: AuthToken,
        /// Heartbeat period the agent must honour, in milliseconds.
        heartbeat_period_ms: u32,
    },
    /// Agent → coordinator: periodic liveness + telemetry.
    Heartbeat {
        /// Sender.
        node: NodeUid,
        /// Monotone heartbeat counter.
        seq: u64,
        /// Whether the provider currently accepts new workloads.
        accepting: bool,
        /// Per-GPU telemetry.
        gpu_stats: Vec<GpuStat>,
        /// Status of all live workloads on the node.
        workloads: Vec<WorkloadStatus>,
    },
    /// Coordinator → agent: heartbeat acknowledgement.
    HeartbeatAck {
        /// Receiver echo.
        node: NodeUid,
        /// Echoed counter.
        seq: u64,
    },
    /// Agent → coordinator: the provider is leaving.
    DepartureNotice {
        /// Leaving node.
        node: NodeUid,
        /// Graceful (with grace window) or emergency.
        mode: DepartureMode,
    },
    /// Agent → coordinator: provider paused/unpaused new allocations.
    PauseScheduling {
        /// Node.
        node: NodeUid,
        /// Paused?
        paused: bool,
    },
    /// Either direction: protocol-level error report.
    Error {
        /// Numeric code (HTTP-inspired).
        code: u16,
        /// Human-readable detail.
        detail: String,
    },
}

/// Job-placement and workload-lifecycle traffic: dispatch, kills,
/// checkpoints, and workload status. Everything here names a job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Work {
    /// Coordinator → agent: place this job.
    Dispatch {
        /// Full job spec.
        spec: DispatchSpec,
    },
    /// Agent → coordinator: dispatch outcome.
    DispatchReply {
        /// Job.
        job: JobId,
        /// Accepted?
        accepted: bool,
        /// Reject reason when not accepted.
        reason: String,
    },
    /// Coordinator → agent (or agent-internal from the kill-switch): stop.
    Kill {
        /// Job.
        job: JobId,
        /// Why.
        reason: KillReason,
    },
    /// Coordinator → agent: checkpoint now (pre-migration).
    CheckpointRequest {
        /// Job.
        job: JobId,
    },
    /// Agent → coordinator: checkpoint finished and stored.
    CheckpointDone {
        /// Job.
        job: JobId,
        /// Snapshot sequence.
        seq: u64,
        /// Bytes moved (incremental delta or full).
        transfer_bytes: u64,
        /// Nodes holding the checkpoint (primary first).
        stored_on: Vec<NodeUid>,
    },
    /// Agent → coordinator: workload state change.
    WorkloadUpdate {
        /// New status.
        status: WorkloadStatus,
        /// Exit code if terminal.
        exit_code: Option<i32>,
    },
}

/// The control-plane message set, grouped by concern: [`Control`] carries
/// node membership/status traffic, [`Work`] carries job placement and
/// lifecycle traffic. Wire tags are flat across both groups, so the
/// encoding of every pre-existing variant is unchanged by the grouping.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Message {
    /// Node membership / platform status.
    Control(Control),
    /// Job placement / workload lifecycle.
    Work(Work),
}

impl From<Control> for Message {
    fn from(c: Control) -> Message {
        Message::Control(c)
    }
}

impl From<Work> for Message {
    fn from(w: Work) -> Message {
        Message::Work(w)
    }
}

/// Sender uid placeholder for not-yet-registered nodes.
pub const UNREGISTERED_SENDER: NodeUid = NodeUid(u64::MAX);

/// Authenticated wrapper for every message on the wire. Carries the sender
/// principal explicitly so the receiver can validate `(sender, token)`
/// for *every* message type, not just those with a node field.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Protocol version.
    pub version: u8,
    /// The claimed sender ([`UNREGISTERED_SENDER`] before registration).
    pub sender: NodeUid,
    /// Bearer token ([`AuthToken::UNAUTHENTICATED`] only for `Register`).
    pub token: AuthToken,
    /// The message.
    pub msg: Message,
}

impl Envelope {
    /// Wrap a message with a token, sender unknown (registration, tests).
    pub fn new(token: AuthToken, msg: Message) -> Self {
        Envelope {
            version: PROTOCOL_VERSION,
            sender: UNREGISTERED_SENDER,
            token,
            msg,
        }
    }

    /// Wrap a message from a registered node.
    pub fn from_node(sender: NodeUid, token: AuthToken, msg: Message) -> Self {
        Envelope {
            version: PROTOCOL_VERSION,
            sender,
            token,
            msg,
        }
    }

    /// One structural walk over the envelope, generic over the sink: the
    /// same code path emits bytes ([`WireWriter`]) and counts them
    /// ([`CountingSink`]), so the two can never disagree.
    pub fn encode<S: WireSink>(&self, w: &mut S) {
        w.put_u8(self.version);
        w.put_u64(self.sender.0);
        w.put_fixed(&self.token.0);
        self.msg.encode(w);
    }

    /// Exact encoded length, computed without allocating or copying.
    pub fn encoded_len(&self) -> usize {
        let mut c = CountingSink::new();
        self.encode(&mut c);
        c.len()
    }

    /// Encode to bytes (the payload framed by `framing`). The buffer is
    /// pre-sized from [`Envelope::encoded_len`]: one allocation, no growth.
    pub fn to_bytes(&self) -> Bytes {
        let mut w = WireWriter::with_capacity(self.encoded_len());
        self.encode(&mut w);
        w.finish()
    }

    /// Encode one complete `[u32 LE length][payload]` frame into a caller
    /// (typically pool) owned buffer — the allocation-free transport send
    /// path. Rejects envelopes whose payload would exceed the protocol's
    /// [`MAX_FRAME_LEN`] instead of silently truncating the prefix.
    pub fn encode_framed_into(&self, buf: &mut BytesMut) -> Result<(), WireError> {
        let n = self.encoded_len();
        if n as u64 > MAX_FRAME_LEN as u64 {
            return Err(WireError::LengthOverflow {
                declared: n as u64,
                max: MAX_FRAME_LEN as u64,
            });
        }
        buf.reserve(4 + n);
        buf.put_u32_le(n as u32);
        let mut w = WireWriter::from_buf(std::mem::take(buf));
        self.encode(&mut w);
        *buf = w.into_buf();
        Ok(())
    }

    /// Decode from a complete frame payload.
    pub fn from_bytes(buf: &[u8]) -> Result<Envelope, WireError> {
        let mut r = WireReader::new(buf);
        let version = r.get_u8()?;
        let sender = NodeUid(r.get_u64()?);
        let token = AuthToken(r.get_fixed::<16>()?);
        let msg = Message::decode(&mut r)?;
        r.expect_end()?;
        Ok(Envelope {
            version,
            sender,
            token,
            msg,
        })
    }

    /// Size on the wire (used by the simulated network for latency) — an
    /// allocation-free [`CountingSink`] walk, checked instead of silently
    /// truncated: control messages are bounded well below [`MAX_FRAME_LEN`],
    /// so anything larger is a protocol bug.
    pub fn wire_size(&self) -> u32 {
        let n = self.encoded_len();
        debug_assert!(
            n as u64 <= MAX_FRAME_LEN as u64,
            "control message of {n} B exceeds MAX_FRAME_LEN"
        );
        u32::try_from(n).expect("wire size exceeds u32")
    }
}

// ---- codec ---------------------------------------------------------------

impl GpuInfo {
    fn encode<S: WireSink>(&self, w: &mut S) {
        w.put_str(&self.model_name);
        w.put_u64(self.vram_bytes);
        w.put_u8(self.cc_major);
        w.put_u8(self.cc_minor);
        w.put_f64(self.fp32_tflops);
    }

    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        Ok(GpuInfo {
            model_name: r.get_str()?,
            vram_bytes: r.get_u64()?,
            cc_major: r.get_u8()?,
            cc_minor: r.get_u8()?,
            fp32_tflops: r.get_f64()?,
        })
    }
}

impl GpuStat {
    fn encode<S: WireSink>(&self, w: &mut S) {
        w.put_u64(self.memory_used);
        w.put_u64(self.memory_total);
        w.put_f64(self.utilization);
        w.put_f64(self.temperature_c);
        w.put_f64(self.power_w);
    }

    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        Ok(GpuStat {
            memory_used: r.get_u64()?,
            memory_total: r.get_u64()?,
            utilization: r.get_f64()?,
            temperature_c: r.get_f64()?,
            power_w: r.get_f64()?,
        })
    }
}

impl WorkloadState {
    fn tag(self) -> u8 {
        match self {
            WorkloadState::Provisioning => 0,
            WorkloadState::Running => 1,
            WorkloadState::Checkpointing => 2,
            WorkloadState::Completed => 3,
            WorkloadState::Failed => 4,
            WorkloadState::Killed => 5,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, WireError> {
        Ok(match tag {
            0 => WorkloadState::Provisioning,
            1 => WorkloadState::Running,
            2 => WorkloadState::Checkpointing,
            3 => WorkloadState::Completed,
            4 => WorkloadState::Failed,
            5 => WorkloadState::Killed,
            t => {
                return Err(WireError::InvalidTag {
                    context: "WorkloadState",
                    tag: t,
                })
            }
        })
    }
}

impl WorkloadStatus {
    fn encode<S: WireSink>(&self, w: &mut S) {
        w.put_u64(self.job.0);
        w.put_u8(self.state.tag());
        w.put_f64(self.progress);
        w.put_u64(self.checkpoint_seq);
    }

    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        Ok(WorkloadStatus {
            job: JobId(r.get_u64()?),
            state: WorkloadState::from_tag(r.get_u8()?)?,
            progress: r.get_f64()?,
            checkpoint_seq: r.get_u64()?,
        })
    }
}

impl DepartureMode {
    fn encode<S: WireSink>(&self, w: &mut S) {
        match self {
            DepartureMode::Graceful { grace_secs } => {
                w.put_u8(0);
                w.put_u32(*grace_secs);
            }
            DepartureMode::Emergency => w.put_u8(1),
        }
    }

    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(DepartureMode::Graceful {
                grace_secs: r.get_u32()?,
            }),
            1 => Ok(DepartureMode::Emergency),
            t => Err(WireError::InvalidTag {
                context: "DepartureMode",
                tag: t,
            }),
        }
    }
}

impl KillReason {
    fn tag(self) -> u8 {
        match self {
            KillReason::ProviderKillSwitch => 0,
            KillReason::UserCancel => 1,
            KillReason::SchedulerPreempt => 2,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, WireError> {
        Ok(match tag {
            0 => KillReason::ProviderKillSwitch,
            1 => KillReason::UserCancel,
            2 => KillReason::SchedulerPreempt,
            t => {
                return Err(WireError::InvalidTag {
                    context: "KillReason",
                    tag: t,
                })
            }
        })
    }
}

impl ExecMode {
    fn encode<S: WireSink>(&self, w: &mut S) {
        match self {
            ExecMode::Batch { entrypoint } => {
                w.put_u8(0);
                w.put_count(entrypoint.len());
                for a in entrypoint {
                    w.put_str(a);
                }
            }
            ExecMode::Interactive { port } => {
                w.put_u8(1);
                w.put_u16(*port);
            }
        }
    }

    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => {
                let n = r.get_count()?;
                let mut entrypoint = Vec::with_capacity(n.min(64));
                for _ in 0..n {
                    entrypoint.push(r.get_str()?);
                }
                Ok(ExecMode::Batch { entrypoint })
            }
            1 => Ok(ExecMode::Interactive { port: r.get_u16()? }),
            t => Err(WireError::InvalidTag {
                context: "ExecMode",
                tag: t,
            }),
        }
    }
}

impl DispatchSpec {
    fn encode<S: WireSink>(&self, w: &mut S) {
        w.put_u64(self.job.0);
        w.put_str(&self.image_repo);
        w.put_str(&self.image_tag);
        w.put_fixed(&self.image_digest);
        w.put_u8(self.gpus);
        w.put_u64(self.gpu_mem_bytes);
        match self.min_cc {
            Some((maj, min)) => {
                w.put_u8(1);
                w.put_u8(maj);
                w.put_u8(min);
            }
            None => w.put_u8(0),
        }
        self.mode.encode(w);
        w.put_u32(self.checkpoint_interval_secs);
        w.put_count(self.storage_nodes.len());
        for n in &self.storage_nodes {
            w.put_u64(n.0);
        }
        w.put_u64(self.state_bytes_hint);
        match self.restore_from_seq {
            Some(s) => {
                w.put_u8(1);
                w.put_u64(s);
            }
            None => w.put_u8(0),
        }
        w.put_u8(self.priority);
        w.put_u64(self.user.0);
    }

    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        let job = JobId(r.get_u64()?);
        let image_repo = r.get_str()?;
        let image_tag = r.get_str()?;
        let image_digest = r.get_fixed::<32>()?;
        let gpus = r.get_u8()?;
        let gpu_mem_bytes = r.get_u64()?;
        let min_cc = match r.get_u8()? {
            0 => None,
            1 => Some((r.get_u8()?, r.get_u8()?)),
            t => {
                return Err(WireError::InvalidTag {
                    context: "DispatchSpec.min_cc",
                    tag: t,
                })
            }
        };
        let mode = ExecMode::decode(r)?;
        let checkpoint_interval_secs = r.get_u32()?;
        let n = r.get_count()?;
        let mut storage_nodes = Vec::with_capacity(n.min(64));
        for _ in 0..n {
            storage_nodes.push(NodeUid(r.get_u64()?));
        }
        let state_bytes_hint = r.get_u64()?;
        let restore_from_seq = match r.get_u8()? {
            0 => None,
            1 => Some(r.get_u64()?),
            t => {
                return Err(WireError::InvalidTag {
                    context: "DispatchSpec.restore_from_seq",
                    tag: t,
                })
            }
        };
        let priority = r.get_u8()?;
        let user = UserId(r.get_u64()?);
        Ok(DispatchSpec {
            job,
            image_repo,
            image_tag,
            image_digest,
            gpus,
            gpu_mem_bytes,
            min_cc,
            mode,
            checkpoint_interval_secs,
            storage_nodes,
            state_bytes_hint,
            restore_from_seq,
            priority,
            user,
        })
    }
}

impl Control {
    /// Encode the variant with its flat wire tag.
    fn encode<S: WireSink>(&self, w: &mut S) {
        match self {
            Control::Register {
                machine_id,
                hostname,
                gpus,
                agent_version,
            } => {
                w.put_u8(0x01);
                w.put_str(machine_id);
                w.put_str(hostname);
                w.put_count(gpus.len());
                for g in gpus {
                    g.encode(w);
                }
                w.put_u32(*agent_version);
            }
            Control::RegisterAck {
                node,
                token,
                heartbeat_period_ms,
            } => {
                w.put_u8(0x02);
                w.put_u64(node.0);
                w.put_fixed(&token.0);
                w.put_u32(*heartbeat_period_ms);
            }
            Control::Heartbeat {
                node,
                seq,
                accepting,
                gpu_stats,
                workloads,
            } => {
                w.put_u8(0x03);
                w.put_u64(node.0);
                w.put_u64(*seq);
                w.put_bool(*accepting);
                w.put_count(gpu_stats.len());
                for s in gpu_stats {
                    s.encode(w);
                }
                w.put_count(workloads.len());
                for s in workloads {
                    s.encode(w);
                }
            }
            Control::HeartbeatAck { node, seq } => {
                w.put_u8(0x04);
                w.put_u64(node.0);
                w.put_u64(*seq);
            }
            Control::DepartureNotice { node, mode } => {
                w.put_u8(0x05);
                w.put_u64(node.0);
                mode.encode(w);
            }
            Control::PauseScheduling { node, paused } => {
                w.put_u8(0x0C);
                w.put_u64(node.0);
                w.put_bool(*paused);
            }
            Control::Error { code, detail } => {
                w.put_u8(0x0D);
                w.put_u16(*code);
                w.put_str(detail);
            }
        }
    }

    /// Decode the body for a tag already known to belong to this group.
    fn decode_body(tag: u8, r: &mut WireReader) -> Result<Self, WireError> {
        Ok(match tag {
            0x01 => {
                let machine_id = r.get_str()?;
                let hostname = r.get_str()?;
                let n = r.get_count()?;
                let mut gpus = Vec::with_capacity(n.min(64));
                for _ in 0..n {
                    gpus.push(GpuInfo::decode(r)?);
                }
                Control::Register {
                    machine_id,
                    hostname,
                    gpus,
                    agent_version: r.get_u32()?,
                }
            }
            0x02 => Control::RegisterAck {
                node: NodeUid(r.get_u64()?),
                token: AuthToken(r.get_fixed::<16>()?),
                heartbeat_period_ms: r.get_u32()?,
            },
            0x03 => {
                let node = NodeUid(r.get_u64()?);
                let seq = r.get_u64()?;
                let accepting = r.get_bool()?;
                let n = r.get_count()?;
                let mut gpu_stats = Vec::with_capacity(n.min(64));
                for _ in 0..n {
                    gpu_stats.push(GpuStat::decode(r)?);
                }
                let n = r.get_count()?;
                let mut workloads = Vec::with_capacity(n.min(64));
                for _ in 0..n {
                    workloads.push(WorkloadStatus::decode(r)?);
                }
                Control::Heartbeat {
                    node,
                    seq,
                    accepting,
                    gpu_stats,
                    workloads,
                }
            }
            0x04 => Control::HeartbeatAck {
                node: NodeUid(r.get_u64()?),
                seq: r.get_u64()?,
            },
            0x05 => Control::DepartureNotice {
                node: NodeUid(r.get_u64()?),
                mode: DepartureMode::decode(r)?,
            },
            0x0C => Control::PauseScheduling {
                node: NodeUid(r.get_u64()?),
                paused: r.get_bool()?,
            },
            0x0D => Control::Error {
                code: r.get_u16()?,
                detail: r.get_str()?,
            },
            t => {
                return Err(WireError::InvalidTag {
                    context: "Control",
                    tag: t,
                })
            }
        })
    }
}

impl Work {
    /// Encode the variant with its flat wire tag.
    fn encode<S: WireSink>(&self, w: &mut S) {
        match self {
            Work::Dispatch { spec } => {
                w.put_u8(0x06);
                spec.encode(w);
            }
            Work::DispatchReply {
                job,
                accepted,
                reason,
            } => {
                w.put_u8(0x07);
                w.put_u64(job.0);
                w.put_bool(*accepted);
                w.put_str(reason);
            }
            Work::Kill { job, reason } => {
                w.put_u8(0x08);
                w.put_u64(job.0);
                w.put_u8(reason.tag());
            }
            Work::CheckpointRequest { job } => {
                w.put_u8(0x09);
                w.put_u64(job.0);
            }
            Work::CheckpointDone {
                job,
                seq,
                transfer_bytes,
                stored_on,
            } => {
                w.put_u8(0x0A);
                w.put_u64(job.0);
                w.put_u64(*seq);
                w.put_u64(*transfer_bytes);
                w.put_count(stored_on.len());
                for n in stored_on {
                    w.put_u64(n.0);
                }
            }
            Work::WorkloadUpdate { status, exit_code } => {
                w.put_u8(0x0B);
                status.encode(w);
                match exit_code {
                    Some(c) => {
                        w.put_u8(1);
                        w.put_i32(*c);
                    }
                    None => w.put_u8(0),
                }
            }
        }
    }

    /// Decode the body for a tag already known to belong to this group.
    fn decode_body(tag: u8, r: &mut WireReader) -> Result<Self, WireError> {
        Ok(match tag {
            0x06 => Work::Dispatch {
                spec: DispatchSpec::decode(r)?,
            },
            0x07 => Work::DispatchReply {
                job: JobId(r.get_u64()?),
                accepted: r.get_bool()?,
                reason: r.get_str()?,
            },
            0x08 => Work::Kill {
                job: JobId(r.get_u64()?),
                reason: KillReason::from_tag(r.get_u8()?)?,
            },
            0x09 => Work::CheckpointRequest {
                job: JobId(r.get_u64()?),
            },
            0x0A => {
                let job = JobId(r.get_u64()?);
                let seq = r.get_u64()?;
                let transfer_bytes = r.get_u64()?;
                let n = r.get_count()?;
                let mut stored_on = Vec::with_capacity(n.min(64));
                for _ in 0..n {
                    stored_on.push(NodeUid(r.get_u64()?));
                }
                Work::CheckpointDone {
                    job,
                    seq,
                    transfer_bytes,
                    stored_on,
                }
            }
            0x0B => {
                let status = WorkloadStatus::decode(r)?;
                let exit_code = match r.get_u8()? {
                    0 => None,
                    1 => Some(r.get_i32()?),
                    t => {
                        return Err(WireError::InvalidTag {
                            context: "WorkloadUpdate.exit_code",
                            tag: t,
                        })
                    }
                };
                Work::WorkloadUpdate { status, exit_code }
            }
            t => {
                return Err(WireError::InvalidTag {
                    context: "Work",
                    tag: t,
                })
            }
        })
    }
}

impl Message {
    /// Encode the message body (without envelope header). The tag space is
    /// flat across [`Control`] and [`Work`], so grouping never shows on the
    /// wire.
    pub fn encode<S: WireSink>(&self, w: &mut S) {
        match self {
            Message::Control(c) => c.encode(w),
            Message::Work(wk) => wk.encode(w),
        }
    }

    /// Decode a message body, dispatching on the flat tag to the owning
    /// group.
    pub fn decode(r: &mut WireReader) -> Result<Message, WireError> {
        let tag = r.get_u8()?;
        Ok(match tag {
            0x01..=0x05 | 0x0C | 0x0D => Message::Control(Control::decode_body(tag, r)?),
            // 0x0E–0x10 are retired `Work` tags: still routed to their group
            // so they stay reserved and fail there as unknown `Work` tags.
            0x06..=0x0B | 0x0E..=0x10 => Message::Work(Work::decode_body(tag, r)?),
            t => {
                return Err(WireError::InvalidTag {
                    context: "Message",
                    tag: t,
                })
            }
        })
    }
}

/// Convert the GPU crate's telemetry into the wire type.
impl From<gpunion_gpu::GpuTelemetry> for GpuStat {
    fn from(t: gpunion_gpu::GpuTelemetry) -> Self {
        GpuStat {
            memory_used: t.memory_used,
            memory_total: t.memory_total,
            utilization: t.utilization,
            temperature_c: t.temperature_c,
            power_w: t.power_w,
        }
    }
}

/// Convert a GPU model into its registration inventory record.
impl From<gpunion_gpu::GpuModel> for GpuInfo {
    fn from(m: gpunion_gpu::GpuModel) -> Self {
        let s = m.spec();
        GpuInfo {
            model_name: s.name.to_string(),
            vram_bytes: s.vram_bytes,
            cc_major: s.compute_capability.major,
            cc_minor: s.compute_capability.minor,
            fp32_tflops: s.fp32_tflops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: Message) -> Message {
        let env = Envelope::new(AuthToken([7; 16]), msg);
        let bytes = env.to_bytes();
        let back = Envelope::from_bytes(&bytes).expect("decode");
        assert_eq!(back.version, PROTOCOL_VERSION);
        assert_eq!(back.token, AuthToken([7; 16]));
        back.msg
    }

    #[test]
    fn register_roundtrip() {
        let msg: Message = Control::Register {
            machine_id: "ws-3-d34db33f".into(),
            hostname: "ws-3".into(),
            gpus: vec![gpunion_gpu::GpuModel::Rtx3090.into()],
            agent_version: 10203,
        }
        .into();
        assert_eq!(roundtrip(msg.clone()), msg);
    }

    #[test]
    fn heartbeat_roundtrip_with_payload() {
        let msg: Message = Control::Heartbeat {
            node: NodeUid(4),
            seq: 12345,
            accepting: true,
            gpu_stats: vec![GpuStat {
                memory_used: 10 << 30,
                memory_total: 24 << 30,
                utilization: 0.93,
                temperature_c: 71.5,
                power_w: 330.0,
            }],
            workloads: vec![WorkloadStatus {
                job: JobId(9),
                state: WorkloadState::Running,
                progress: 0.41,
                checkpoint_seq: 3,
            }],
        }
        .into();
        assert_eq!(roundtrip(msg.clone()), msg);
    }

    #[test]
    fn dispatch_roundtrip_full_options() {
        let msg: Message = Work::Dispatch {
            spec: DispatchSpec {
                job: JobId(77),
                image_repo: "pytorch/pytorch".into(),
                image_tag: "2.3-cuda12".into(),
                image_digest: [0xAB; 32],
                gpus: 2,
                gpu_mem_bytes: 20 << 30,
                min_cc: Some((8, 6)),
                mode: ExecMode::Batch {
                    entrypoint: vec!["python".into(), "train.py".into(), "--epochs=90".into()],
                },
                checkpoint_interval_secs: 600,
                storage_nodes: vec![NodeUid(1), NodeUid(5)],
                state_bytes_hint: 6 << 30,
                restore_from_seq: Some(17),
                priority: 3,
                user: UserId(4242),
            },
        }
        .into();
        assert_eq!(roundtrip(msg.clone()), msg);
    }

    #[test]
    fn interactive_dispatch_roundtrip() {
        let msg: Message = Work::Dispatch {
            spec: DispatchSpec {
                job: JobId(1),
                image_repo: "jupyter/gpu-notebook".into(),
                image_tag: "lab-4.2".into(),
                image_digest: [1; 32],
                gpus: 1,
                gpu_mem_bytes: 8 << 30,
                min_cc: None,
                mode: ExecMode::Interactive { port: 8888 },
                checkpoint_interval_secs: 0,
                storage_nodes: vec![],
                state_bytes_hint: 0,
                restore_from_seq: None,
                priority: 5,
                user: UserId::SYSTEM,
            },
        }
        .into();
        assert_eq!(roundtrip(msg.clone()), msg);
    }

    /// Tags `0x0E`–`0x10` carried the pull marketplace's `WorkRequest`,
    /// `WorkGrant` and `GrantNack` until that protocol was deleted. A peer
    /// that still sends one gets a decode error from the `Work` group; the
    /// body behind the tag (here a node id and a hostile slice count) is
    /// never read, so it can neither panic nor size an allocation.
    #[test]
    fn retired_work_tags_are_decode_errors() {
        let kill = Envelope::new(
            AuthToken([7; 16]),
            Work::Kill {
                job: JobId(4),
                reason: KillReason::UserCancel,
            }
            .into(),
        );
        for tag in [0x0E, 0x0F, 0x10] {
            // Header (1 version + 8 sender + 16 token), the tag, the body.
            let mut bytes = kill.to_bytes()[..25].to_vec();
            bytes.push(tag);
            bytes.extend_from_slice(&7u64.to_le_bytes());
            bytes.extend_from_slice(&u32::MAX.to_le_bytes());
            let retired = Err(WireError::InvalidTag {
                context: "Work",
                tag,
            });
            assert_eq!(Envelope::from_bytes(&bytes), retired);

            let mut decoder = crate::FrameDecoder::new();
            decoder.extend(&crate::encode_frame(&bytes));
            let frame = decoder.next_frame().unwrap().expect("one whole frame");
            assert_eq!(Envelope::from_bytes(&frame), retired);
        }
    }

    #[test]
    fn all_simple_messages_roundtrip() {
        let msgs: Vec<Message> = vec![
            Control::RegisterAck {
                node: NodeUid(3),
                token: AuthToken([9; 16]),
                heartbeat_period_ms: 5000,
            }
            .into(),
            Control::HeartbeatAck {
                node: NodeUid(3),
                seq: 8,
            }
            .into(),
            Control::DepartureNotice {
                node: NodeUid(3),
                mode: DepartureMode::Graceful { grace_secs: 120 },
            }
            .into(),
            Control::DepartureNotice {
                node: NodeUid(3),
                mode: DepartureMode::Emergency,
            }
            .into(),
            Work::DispatchReply {
                job: JobId(77),
                accepted: false,
                reason: "insufficient VRAM".into(),
            }
            .into(),
            Work::Kill {
                job: JobId(8),
                reason: KillReason::ProviderKillSwitch,
            }
            .into(),
            Work::CheckpointRequest { job: JobId(8) }.into(),
            Work::CheckpointDone {
                job: JobId(8),
                seq: 4,
                transfer_bytes: 190 << 20,
                stored_on: vec![NodeUid(2), NodeUid(11)],
            }
            .into(),
            Work::WorkloadUpdate {
                status: WorkloadStatus {
                    job: JobId(8),
                    state: WorkloadState::Completed,
                    progress: 1.0,
                    checkpoint_seq: 12,
                },
                exit_code: Some(0),
            }
            .into(),
            Control::PauseScheduling {
                node: NodeUid(3),
                paused: true,
            }
            .into(),
            Control::Error {
                code: 401,
                detail: "bad token".into(),
            }
            .into(),
        ];
        for msg in msgs {
            assert_eq!(roundtrip(msg.clone()), msg);
        }
    }

    #[test]
    fn corrupt_tag_rejected() {
        let env = Envelope::new(
            AuthToken::UNAUTHENTICATED,
            Work::CheckpointRequest { job: JobId(1) }.into(),
        );
        let mut bytes = env.to_bytes().to_vec();
        bytes[25] = 0xEE; // tag position: 1 version + 8 sender + 16 token
        assert!(matches!(
            Envelope::from_bytes(&bytes).unwrap_err(),
            WireError::InvalidTag { .. }
        ));
    }

    #[test]
    fn truncation_rejected_at_every_length() {
        let env = Envelope::new(
            AuthToken([3; 16]),
            Control::Heartbeat {
                node: NodeUid(1),
                seq: 2,
                accepting: true,
                gpu_stats: vec![GpuStat {
                    memory_used: 1,
                    memory_total: 2,
                    utilization: 0.5,
                    temperature_c: 60.0,
                    power_w: 200.0,
                }],
                workloads: vec![],
            }
            .into(),
        );
        let bytes = env.to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                Envelope::from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
        assert!(Envelope::from_bytes(&bytes).is_ok());
    }

    #[test]
    fn oversized_envelope_rejected_on_framed_encode() {
        // Eight max-length model names push the payload past MAX_FRAME_LEN
        // (4 MiB); the framed encode must refuse rather than truncate the
        // length prefix.
        let big = "x".repeat(1 << 20);
        let env = Envelope::new(
            AuthToken([1; 16]),
            Control::Register {
                machine_id: "m".into(),
                hostname: "h".into(),
                gpus: (0..8)
                    .map(|_| GpuInfo {
                        model_name: big.clone(),
                        vram_bytes: 1,
                        cc_major: 8,
                        cc_minor: 6,
                        fp32_tflops: 10.0,
                    })
                    .collect(),
                agent_version: 1,
            }
            .into(),
        );
        let mut buf = BytesMut::new();
        assert!(matches!(
            env.encode_framed_into(&mut buf).unwrap_err(),
            WireError::LengthOverflow { .. }
        ));
        assert!(buf.is_empty(), "nothing written on refusal");
    }

    #[test]
    fn token_never_in_debug_output() {
        let t = AuthToken([0xAA; 16]);
        let dbg = format!("{t:?}");
        assert!(
            !dbg.contains("aa, aa"),
            "debug must not dump token bytes: {dbg}"
        );
    }

    #[test]
    fn wire_size_reasonable() {
        let hb = Envelope::new(
            AuthToken([1; 16]),
            Control::Heartbeat {
                node: NodeUid(1),
                seq: 1,
                accepting: true,
                gpu_stats: vec![
                    GpuStat {
                        memory_used: 0,
                        memory_total: 24 << 30,
                        utilization: 0.0,
                        temperature_c: 30.0,
                        power_w: 25.0,
                    };
                    8
                ],
                workloads: vec![],
            }
            .into(),
        );
        let size = hb.wire_size();
        assert!(size > 100 && size < 600, "8-GPU heartbeat is {size} B");
    }
}
