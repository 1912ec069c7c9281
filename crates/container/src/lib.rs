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
//! * [`lifecycle`] — the validated container state machine.
//! * [`runtime`] — the per-node runtime gluing those together, driven by the
//!   provider agent.

#![forbid(unsafe_code)]

pub mod config;
pub mod image;
pub mod lifecycle;
pub mod runtime;
pub mod sha256;

pub use config::{
    CgroupLimits, ConfigError, ContainerConfig, ContainerConfigBuilder, ExecutionMode, Mount,
    Namespaces, SeccompProfile,
};
pub use image::{standard_catalogue, ImageError, ImageManifest, ImageRef, ImageRegistry, Layer};
pub use lifecycle::{ContainerId, ContainerState, Lifecycle, LifecycleEvent, TransitionError};
pub use runtime::{
    Container, ContainerRuntime, RuntimeCounters, RuntimeError, JUPYTER_PROVISION, START_OVERHEAD,
};
pub use sha256::{Digest, Sha256};
