//! The per-node container runtime (the simulated Docker + NVIDIA Container
//! Toolkit).
//!
//! Passive state machine driven by the provider agent: the agent starts an
//! image-pull flow on the network, then walks the container through
//! verification, GPU binding, execution, checkpointing and teardown. The
//! runtime enforces admission (allow list + SHA256) and the lifecycle rules;
//! it never schedules events itself.

use crate::config::{gpu_binding_env, ContainerConfig, ExecutionMode};
use crate::image::{ImageError, ImageManifest, ImageRegistry};
use crate::lifecycle::{ContainerId, ContainerState, Lifecycle, TransitionError};
use crate::sha256::Digest;
use gpunion_des::{SimDuration, SimTime};
use gpunion_gpu::GpuIndex;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Fixed runtime setup overhead (namespaces, cgroups, device nodes) once the
/// image is local and verified. Matches typical `docker run` cold-start.
pub const START_OVERHEAD: SimDuration = SimDuration::from_millis(2_500);

/// Extra provisioning time for interactive mode: Jupyter server boot plus
/// framework import warm-up.
pub const JUPYTER_PROVISION: SimDuration = SimDuration::from_millis(9_000);

/// Layer verification throughput (single-core SHA256 over page cache).
const VERIFY_BYTES_PER_SEC: f64 = 1.8e9;

/// Runtime-level errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// Unknown container id.
    NotFound,
    /// Lifecycle rule violation.
    Transition(TransitionError),
    /// Image admission failure (allow list / digest).
    Image(ImageError),
    /// Container is in the wrong state for the requested operation.
    WrongState {
        /// Observed state.
        state: ContainerState,
    },
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::NotFound => write!(f, "no such container"),
            RuntimeError::Transition(e) => write!(f, "{e}"),
            RuntimeError::Image(e) => write!(f, "image admission failed: {e}"),
            RuntimeError::WrongState { state } => {
                write!(f, "operation invalid in state {state}")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<TransitionError> for RuntimeError {
    fn from(e: TransitionError) -> Self {
        RuntimeError::Transition(e)
    }
}

impl From<ImageError> for RuntimeError {
    fn from(e: ImageError) -> Self {
        RuntimeError::Image(e)
    }
}

/// A container instance managed by the runtime.
#[derive(Debug, Clone)]
pub struct Container {
    /// Immutable configuration.
    pub config: ContainerConfig,
    /// Lifecycle state + history.
    pub lifecycle: Lifecycle,
    /// GPUs bound at start (empty before `Starting`).
    pub bound_gpus: Vec<GpuIndex>,
    /// Effective environment after runtime injection.
    pub effective_env: BTreeMap<String, String>,
}

/// Aggregate runtime counters (application metrics for the monitoring
/// system: container lifecycle events).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RuntimeCounters {
    /// Containers admitted.
    pub created: u64,
    /// Reached Running at least once.
    pub started: u64,
    /// Clean exits.
    pub exited: u64,
    /// Admission / infra failures.
    pub failed: u64,
    /// Provider kill-switch victims.
    pub killed: u64,
    /// Checkpoint cycles completed.
    pub checkpoints: u64,
}

/// The per-node runtime.
#[derive(Debug)]
pub struct ContainerRuntime {
    containers: HashMap<ContainerId, Container>,
    image_cache: HashSet<Digest>,
    next_id: u64,
    counters: RuntimeCounters,
}

impl Default for ContainerRuntime {
    fn default() -> Self {
        Self::new()
    }
}

impl ContainerRuntime {
    /// A runtime with an empty image cache.
    pub fn new() -> Self {
        ContainerRuntime {
            containers: HashMap::new(),
            image_cache: HashSet::new(),
            next_id: 0,
            counters: RuntimeCounters::default(),
        }
    }

    /// Counters snapshot.
    pub fn counters(&self) -> RuntimeCounters {
        self.counters
    }

    /// Look up a container.
    pub fn get(&self, id: ContainerId) -> Option<&Container> {
        self.containers.get(&id)
    }

    /// Iterate over live (non-terminal) containers.
    pub fn live(&self) -> impl Iterator<Item = (ContainerId, &Container)> {
        self.containers
            .iter()
            .filter(|(_, c)| !c.lifecycle.state().is_terminal())
            .map(|(id, c)| (*id, c))
    }

    /// Number of containers in any state.
    pub fn len(&self) -> usize {
        self.containers.len()
    }

    /// True when the runtime manages no containers.
    pub fn is_empty(&self) -> bool {
        self.containers.is_empty()
    }

    /// Admit a new container in `Created`.
    pub fn create(&mut self, now: SimTime, config: ContainerConfig) -> ContainerId {
        let id = ContainerId(self.next_id);
        self.next_id += 1;
        self.containers.insert(
            id,
            Container {
                effective_env: config.env.clone(),
                config,
                lifecycle: Lifecycle::new(now),
                bound_gpus: Vec::new(),
            },
        );
        self.counters.created += 1;
        id
    }

    /// Move to `Pulling`; returns the bytes that must be fetched over the
    /// network (0 when the image is already cached — the caller may then
    /// immediately call [`Self::finish_pull`]).
    pub fn begin_pull(&mut self, now: SimTime, id: ContainerId) -> Result<u64, RuntimeError> {
        let c = self.containers.get_mut(&id).ok_or(RuntimeError::NotFound)?;
        c.lifecycle.transition(now, ContainerState::Pulling)?;
        if self.image_cache.contains(&c.config.image.digest) {
            Ok(0)
        } else {
            Ok(c.config.image_transfer_hint())
        }
    }

    /// Pull finished: hand the received manifest over and move to
    /// `Verifying`. Returns how long verification will take; the agent
    /// schedules [`Self::finish_verify`] after that delay.
    pub fn finish_pull(
        &mut self,
        now: SimTime,
        id: ContainerId,
        received: &ImageManifest,
    ) -> Result<SimDuration, RuntimeError> {
        let c = self.containers.get_mut(&id).ok_or(RuntimeError::NotFound)?;
        c.lifecycle.transition(now, ContainerState::Verifying)?;
        let secs = received.transfer_bytes() as f64 / VERIFY_BYTES_PER_SEC;
        Ok(SimDuration::from_secs_f64(secs))
    }

    /// Run the admission check (allow list + manifest digest + layer SHA256).
    /// On success the image enters the local cache and the container moves to
    /// `Starting`; on failure it moves to `Failed` and the error is returned.
    pub fn finish_verify(
        &mut self,
        now: SimTime,
        id: ContainerId,
        registry: &ImageRegistry,
        received: &ImageManifest,
    ) -> Result<SimDuration, RuntimeError> {
        let c = self.containers.get_mut(&id).ok_or(RuntimeError::NotFound)?;
        match registry.admit(&c.config.image, received) {
            Ok(()) => {
                self.image_cache.insert(c.config.image.digest);
                c.lifecycle.transition(now, ContainerState::Starting)?;
                let extra = match c.config.mode {
                    ExecutionMode::Interactive { .. } => JUPYTER_PROVISION,
                    ExecutionMode::Batch { .. } => SimDuration::ZERO,
                };
                Ok(START_OVERHEAD + extra)
            }
            Err(e) => {
                c.lifecycle.transition(now, ContainerState::Failed)?;
                self.counters.failed += 1;
                Err(RuntimeError::Image(e))
            }
        }
    }

    /// Runtime setup done: bind GPUs and enter `Running`. Injects
    /// `NVIDIA_VISIBLE_DEVICES` / `CUDA_VISIBLE_DEVICES`.
    pub fn started(
        &mut self,
        now: SimTime,
        id: ContainerId,
        gpus: Vec<GpuIndex>,
    ) -> Result<(), RuntimeError> {
        let c = self.containers.get_mut(&id).ok_or(RuntimeError::NotFound)?;
        c.lifecycle.transition(now, ContainerState::Running)?;
        c.effective_env.extend(gpu_binding_env(&gpus));
        c.bound_gpus = gpus;
        self.counters.started += 1;
        Ok(())
    }

    /// Enter `Checkpointing` (the workload keeps its GPUs).
    pub fn begin_checkpoint(&mut self, now: SimTime, id: ContainerId) -> Result<(), RuntimeError> {
        let c = self.containers.get_mut(&id).ok_or(RuntimeError::NotFound)?;
        c.lifecycle.transition(now, ContainerState::Checkpointing)?;
        Ok(())
    }

    /// Checkpoint done, back to `Running`.
    pub fn finish_checkpoint(&mut self, now: SimTime, id: ContainerId) -> Result<(), RuntimeError> {
        let c = self.containers.get_mut(&id).ok_or(RuntimeError::NotFound)?;
        c.lifecycle.transition(now, ContainerState::Running)?;
        self.counters.checkpoints += 1;
        Ok(())
    }

    /// Begin a graceful stop (SIGTERM); the agent schedules
    /// [`Self::finish_stop`] after the grace period or earlier exit.
    pub fn begin_stop(&mut self, now: SimTime, id: ContainerId) -> Result<(), RuntimeError> {
        let c = self.containers.get_mut(&id).ok_or(RuntimeError::NotFound)?;
        c.lifecycle.transition(now, ContainerState::Stopping)?;
        Ok(())
    }

    /// Conclude a stop with the process exit code; frees GPU bindings.
    pub fn finish_stop(
        &mut self,
        now: SimTime,
        id: ContainerId,
        code: i32,
    ) -> Result<Vec<GpuIndex>, RuntimeError> {
        let c = self.containers.get_mut(&id).ok_or(RuntimeError::NotFound)?;
        c.lifecycle
            .transition(now, ContainerState::Exited { code })?;
        self.counters.exited += 1;
        Ok(std::mem::take(&mut c.bound_gpus))
    }

    /// Normal self-termination of a batch job.
    pub fn exited(
        &mut self,
        now: SimTime,
        id: ContainerId,
        code: i32,
    ) -> Result<Vec<GpuIndex>, RuntimeError> {
        let c = self.containers.get_mut(&id).ok_or(RuntimeError::NotFound)?;
        c.lifecycle
            .transition(now, ContainerState::Exited { code })?;
        self.counters.exited += 1;
        Ok(std::mem::take(&mut c.bound_gpus))
    }

    /// The provider kill-switch: instant SIGKILL, no grace, any live state.
    /// Returns the freed GPUs.
    pub fn kill(&mut self, now: SimTime, id: ContainerId) -> Result<Vec<GpuIndex>, RuntimeError> {
        let c = self.containers.get_mut(&id).ok_or(RuntimeError::NotFound)?;
        if c.lifecycle.state().is_terminal() {
            return Err(RuntimeError::WrongState {
                state: c.lifecycle.state(),
            });
        }
        c.lifecycle.transition(now, ContainerState::Killed)?;
        self.counters.killed += 1;
        Ok(std::mem::take(&mut c.bound_gpus))
    }

    /// Mark an infrastructure failure (e.g. pull aborted by network loss).
    pub fn fail(&mut self, now: SimTime, id: ContainerId) -> Result<Vec<GpuIndex>, RuntimeError> {
        let c = self.containers.get_mut(&id).ok_or(RuntimeError::NotFound)?;
        c.lifecycle.transition(now, ContainerState::Failed)?;
        self.counters.failed += 1;
        Ok(std::mem::take(&mut c.bound_gpus))
    }
}

impl ContainerConfig {
    /// Bytes the network must move to pull this image (from the image ref's
    /// published manifest — resolved by the caller; this is the config-level
    /// hint used before the manifest is fetched).
    ///
    /// The runtime does not know manifest sizes by itself; agents resolve the
    /// real size from the registry. This hint is a conservative placeholder
    /// used only when the registry is unreachable.
    pub fn image_transfer_hint(&self) -> u64 {
        5_000_000_000
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ContainerConfigBuilder;
    use crate::image::standard_catalogue;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn setup() -> (ContainerRuntime, ImageRegistry, ImageManifest, ContainerId) {
        let (reg, refs) = standard_catalogue();
        let manifest = reg.manifest(&refs[0]).unwrap().clone();
        let config = ContainerConfigBuilder::new(refs[0].clone())
            .build()
            .unwrap();
        let mut rt = ContainerRuntime::new();
        let id = rt.create(t(0), config);
        (rt, reg, manifest, id)
    }

    #[test]
    fn full_batch_lifecycle() {
        let (mut rt, reg, manifest, id) = setup();
        let bytes = rt.begin_pull(t(1), id).unwrap();
        assert!(bytes > 0, "cold cache must pull");
        let vdur = rt.finish_pull(t(60), id, &manifest).unwrap();
        assert!(vdur.as_secs_f64() > 1.0, "6.8 GB at 1.8 GB/s");
        let sdur = rt.finish_verify(t(64), id, &reg, &manifest).unwrap();
        assert_eq!(sdur, START_OVERHEAD);
        rt.started(t(67), id, vec![GpuIndex(0)]).unwrap();
        let c = rt.get(id).unwrap();
        assert_eq!(c.effective_env["NVIDIA_VISIBLE_DEVICES"], "0");
        assert_eq!(c.lifecycle.state(), ContainerState::Running);
        let gpus = rt.exited(t(100), id, 0).unwrap();
        assert_eq!(gpus, vec![GpuIndex(0)]);
        assert_eq!(rt.counters().exited, 1);
    }

    #[test]
    fn cached_image_skips_transfer() {
        let (mut rt, reg, manifest, id) = setup();
        rt.begin_pull(t(1), id).unwrap();
        rt.finish_pull(t(2), id, &manifest).unwrap();
        rt.finish_verify(t(3), id, &reg, &manifest).unwrap();
        rt.started(t(4), id, vec![GpuIndex(0)]).unwrap();
        rt.exited(t(5), id, 0).unwrap();

        // Second container with the same image: zero pull bytes.
        let config = ContainerConfigBuilder::new(manifest.image_ref())
            .build()
            .unwrap();
        let id2 = rt.create(t(10), config);
        assert_eq!(rt.begin_pull(t(11), id2).unwrap(), 0);
    }

    #[test]
    fn corrupted_manifest_fails_admission() {
        let (mut rt, reg, manifest, id) = setup();
        rt.begin_pull(t(1), id).unwrap();
        let mut corrupted = manifest.clone();
        corrupted.layers[0].content[0] ^= 0xFF;
        rt.finish_pull(t(2), id, &corrupted).unwrap();
        let err = rt.finish_verify(t(3), id, &reg, &corrupted).unwrap_err();
        assert!(matches!(
            err,
            RuntimeError::Image(ImageError::LayerDigestMismatch { layer: 0 })
        ));
        assert_eq!(
            rt.get(id).unwrap().lifecycle.state(),
            ContainerState::Failed
        );
        assert_eq!(rt.counters().failed, 1);
        // The corrupt image was not cached: a second container pulls again.
        let config = ContainerConfigBuilder::new(manifest.image_ref())
            .build()
            .unwrap();
        let id2 = rt.create(t(4), config);
        assert!(
            rt.begin_pull(t(5), id2).unwrap() > 0,
            "corrupt image not cached"
        );
    }

    #[test]
    fn kill_switch_is_instant_and_frees_gpus() {
        let (mut rt, reg, manifest, id) = setup();
        rt.begin_pull(t(1), id).unwrap();
        rt.finish_pull(t(2), id, &manifest).unwrap();
        rt.finish_verify(t(3), id, &reg, &manifest).unwrap();
        rt.started(t(4), id, vec![GpuIndex(0), GpuIndex(1)])
            .unwrap();
        let gpus = rt.kill(t(5), id).unwrap();
        assert_eq!(gpus.len(), 2);
        assert_eq!(
            rt.get(id).unwrap().lifecycle.state(),
            ContainerState::Killed
        );
        // Double-kill is an error.
        assert!(matches!(
            rt.kill(t(6), id),
            Err(RuntimeError::WrongState { .. })
        ));
    }

    #[test]
    fn checkpoint_cycle_counts() {
        let (mut rt, reg, manifest, id) = setup();
        rt.begin_pull(t(1), id).unwrap();
        rt.finish_pull(t(2), id, &manifest).unwrap();
        rt.finish_verify(t(3), id, &reg, &manifest).unwrap();
        rt.started(t(4), id, vec![GpuIndex(0)]).unwrap();
        for i in 0..3u64 {
            rt.begin_checkpoint(t(10 + i * 10), id).unwrap();
            rt.finish_checkpoint(t(12 + i * 10), id).unwrap();
        }
        assert_eq!(rt.counters().checkpoints, 3);
    }

    #[test]
    fn interactive_gets_provision_delay() {
        let (reg, refs) = standard_catalogue();
        let manifest = reg.manifest(&refs[1]).unwrap().clone();
        let config = ContainerConfigBuilder::new(refs[1].clone())
            .interactive(8888)
            .build()
            .unwrap();
        let mut rt = ContainerRuntime::new();
        let id = rt.create(t(0), config);
        rt.begin_pull(t(1), id).unwrap();
        rt.finish_pull(t(2), id, &manifest).unwrap();
        let d = rt.finish_verify(t(3), id, &reg, &manifest).unwrap();
        assert_eq!(d, START_OVERHEAD + JUPYTER_PROVISION);
        rt.started(t(15), id, vec![GpuIndex(0)]).unwrap();
        assert_eq!(
            rt.get(id).unwrap().config.mode,
            ExecutionMode::Interactive { jupyter_port: 8888 }
        );
    }

    #[test]
    fn live_iterator_excludes_terminal() {
        let (mut rt, _, _, id) = setup();
        assert_eq!(rt.live().count(), 1);
        rt.fail(t(1), id).unwrap();
        assert_eq!(rt.live().count(), 0);
        assert_eq!(rt.len(), 1);
    }

    #[test]
    fn unknown_container_errors() {
        let mut rt = ContainerRuntime::new();
        assert!(matches!(
            rt.begin_pull(t(0), ContainerId(99)),
            Err(RuntimeError::NotFound)
        ));
    }
}
