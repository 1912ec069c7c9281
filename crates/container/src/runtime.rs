//! The per-node container runtime (the simulated Docker + NVIDIA Container
//! Toolkit).
//!
//! The provider agent walks each workload through pull → verify → start
//! itself; the runtime keeps no record of a container. What it holds is the
//! node's cache of verified images, and what it computes is how long each
//! step of a start takes and whether a pulled image is admitted (allow list
//! + SHA256). It never schedules events.

use crate::config::ExecutionMode;
use crate::image::{ImageError, ImageManifest, ImageRef, ImageRegistry};
use crate::sha256::Digest;
use gpunion_des::SimDuration;
use std::collections::HashSet;

/// Fixed runtime setup overhead (namespaces, cgroups, device nodes) once the
/// image is local and verified. Matches typical `docker run` cold-start.
pub const START_OVERHEAD: SimDuration = SimDuration::from_millis(2_500);

/// Extra provisioning time for interactive mode: Jupyter server boot plus
/// framework import warm-up.
pub const JUPYTER_PROVISION: SimDuration = SimDuration::from_millis(9_000);

/// Layer verification throughput (single-core SHA256 over page cache).
const VERIFY_BYTES_PER_SEC: f64 = 1.8e9;

/// The per-node runtime: the images this node has verified.
#[derive(Debug, Clone, Default)]
pub struct ContainerRuntime {
    image_cache: HashSet<Digest>,
}

impl ContainerRuntime {
    /// A runtime with an empty image cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes the network must move before `image` can run here: none once
    /// it is cached, every layer of its `manifest` otherwise.
    pub fn pull_bytes(&self, image: &ImageRef, manifest: &ImageManifest) -> u64 {
        if self.image_cache.contains(&image.digest) {
            0
        } else {
            manifest.transfer_bytes()
        }
    }

    /// Verify a pulled image: how long the SHA256 pass over its layers
    /// takes, and the admission verdict (allow list, manifest digest, layer
    /// digests). Nothing is cached here; see [`Self::cache`].
    pub fn verify(
        registry: &ImageRegistry,
        image: &ImageRef,
        received: &ImageManifest,
    ) -> (SimDuration, Result<(), ImageError>) {
        let secs = received.transfer_bytes() as f64 / VERIFY_BYTES_PER_SEC;
        (
            SimDuration::from_secs_f64(secs),
            registry.admit(image, received),
        )
    }

    /// A verified image enters the cache: later pulls of it move nothing.
    pub fn cache(&mut self, image: Digest) {
        self.image_cache.insert(image);
    }

    /// Setup time from a verified image to a running container.
    pub fn start_time(mode: &ExecutionMode) -> SimDuration {
        match mode {
            ExecutionMode::Interactive { .. } => START_OVERHEAD + JUPYTER_PROVISION,
            ExecutionMode::Batch { .. } => START_OVERHEAD,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ContainerConfigBuilder;
    use crate::image::standard_catalogue;

    #[test]
    fn full_batch_lifecycle() {
        let (reg, refs) = standard_catalogue();
        let manifest = reg.manifest(&refs[0]).unwrap();
        let config = ContainerConfigBuilder::new(refs[0].clone())
            .build()
            .unwrap();
        let rt = ContainerRuntime::new();
        assert!(
            rt.pull_bytes(&config.image, manifest) > 0,
            "cold cache must pull"
        );
        let (verify, admitted) = ContainerRuntime::verify(&reg, &config.image, manifest);
        assert_eq!(admitted, Ok(()));
        assert!(verify.as_secs_f64() > 1.0, "6.8 GB at 1.8 GB/s");
        assert_eq!(
            verify,
            SimDuration::from_secs_f64(manifest.transfer_bytes() as f64 / 1.8e9)
        );
        assert_eq!(ContainerRuntime::start_time(&config.mode), START_OVERHEAD);
    }

    #[test]
    fn cached_image_skips_transfer() {
        let (reg, refs) = standard_catalogue();
        let manifest = reg.manifest(&refs[0]).unwrap();
        let mut rt = ContainerRuntime::new();
        assert_eq!(rt.pull_bytes(&refs[0], manifest), manifest.transfer_bytes());
        rt.cache(refs[0].digest);
        assert_eq!(rt.pull_bytes(&refs[0], manifest), 0);
        // Another image still pulls in full.
        let other = reg.manifest(&refs[1]).unwrap();
        assert_eq!(rt.pull_bytes(&refs[1], other), other.transfer_bytes());
    }

    #[test]
    fn corrupted_manifest_fails_admission() {
        let (reg, refs) = standard_catalogue();
        let manifest = reg.manifest(&refs[0]).unwrap();
        let mut corrupted = manifest.clone();
        corrupted.layers[0].content[0] ^= 0xFF;
        let rt = ContainerRuntime::new();
        let (_, admitted) = ContainerRuntime::verify(&reg, &refs[0], &corrupted);
        assert_eq!(admitted, Err(ImageError::LayerDigestMismatch { layer: 0 }));
        // A failed verification caches nothing: the next pull moves it all.
        assert_eq!(rt.pull_bytes(&refs[0], manifest), manifest.transfer_bytes());
    }

    #[test]
    fn interactive_gets_provision_delay() {
        let (_, refs) = standard_catalogue();
        let config = ContainerConfigBuilder::new(refs[1].clone())
            .interactive(8888)
            .build()
            .unwrap();
        assert_eq!(
            config.mode,
            ExecutionMode::Interactive { jupyter_port: 8888 }
        );
        assert_eq!(
            ContainerRuntime::start_time(&config.mode),
            START_OVERHEAD + JUPYTER_PROVISION
        );
    }
}
