//! # gpunion-gpu — GPU hardware models
//!
//! The simulated equivalent of the paper's heterogeneous campus fleet:
//! spec-sheet device models ([`GpuModel`]), live devices with VRAM
//! accounting, utilization tracking and a first-order thermal model
//! ([`GpuDevice`]), and whole machines ([`GpuServer`]).
//!
//! The scheduler and provider agent only ever observe GPUs through the same
//! interfaces the real system has: NVML-style telemetry snapshots
//! ([`GpuTelemetry`]) and placement attributes (free VRAM,
//! [`ComputeCapability`]). [`server::paper_testbed`] reconstructs the exact
//! 11-server deployment of §4.

#![forbid(unsafe_code)]

pub mod device;
pub mod server;
pub mod specs;

pub use device::{GpuDevice, GpuError, GpuTelemetry, MemAllocId};
pub use server::{paper_testbed, GpuIndex, GpuServer, ServerSpec};
pub use specs::{ComputeCapability, GpuModel, GpuSpec};
