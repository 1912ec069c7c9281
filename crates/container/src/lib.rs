//! # gpunion-container — the OCI-style container execution substrate
//!
//! Simulated equivalent of Docker + NVIDIA Container Toolkit as used by the
//! paper (§3.3):
//!
//! * [`sha256`] — SHA-256 implemented in-tree (FIPS 180-4 vectors) because
//!   image verification is a required security mechanism, not an accessory.
//! * [`image`] — digest-pinned references, manifests, the campus registry
//!   and the trusted-base-image allow list.
//! * [`config`] — namespaces / cgroups / seccomp / mounts / env validation
//!   enforcing host-guest isolation; interactive (Jupyter) and batch modes.
//! * [`runtime`] — the per-node runtime: the verified-image cache, the
//!   admission check and the verify and start timings. The provider agent
//!   walks each workload through its lifecycle; nothing here is kept per
//!   container.

#![forbid(unsafe_code)]

pub mod config;
pub mod image;
pub mod runtime;
pub mod sha256;

pub use config::{
    CgroupLimits, ConfigError, ContainerConfig, ContainerConfigBuilder, ExecutionMode, Mount,
    Namespaces, SeccompProfile,
};
pub use image::{standard_catalogue, ImageError, ImageManifest, ImageRef, ImageRegistry, Layer};
pub use runtime::{ContainerRuntime, JUPYTER_PROVISION, START_OVERHEAD};
pub use sha256::{Digest, Sha256};
