//! # gpunion — campus-scale autonomous GPU sharing
//!
//! A full Rust reproduction of *GPUnion: Autonomous GPU Sharing on Campus*
//! (HotNets '25). This façade crate re-exports the workspace so downstream
//! users depend on one crate:
//!
//! ```
//! use gpunion::core::{PlatformConfig, Scenario};
//! use gpunion::gpu::{GpuModel, ServerSpec};
//! use gpunion::workload::{ModelClass, TrainingJobSpec};
//! use gpunion::des::SimTime;
//!
//! let specs = vec![ServerSpec::workstation("ws-1", GpuModel::Rtx3090)];
//! let mut s = Scenario::new(PlatformConfig::default(), &specs);
//! s.submit_training_at(
//!     SimTime::from_secs(1),
//!     0,
//!     TrainingJobSpec::new(ModelClass::CnnSmall, 100),
//! );
//! s.run_until(SimTime::from_secs(600));
//! assert_eq!(s.world.stats.jobs_completed, 1);
//! ```
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-versus-measured record of every figure and table.

#![forbid(unsafe_code)]

pub use gpunion_agent as agent;
pub use gpunion_baselines as baselines;
pub use gpunion_container as container;
pub use gpunion_core as core;
pub use gpunion_db as db;
pub use gpunion_des as des;
pub use gpunion_gpu as gpu;
pub use gpunion_protocol as protocol;
pub use gpunion_scheduler as scheduler;
pub use gpunion_simnet as simnet;
pub use gpunion_telemetry as telemetry;
pub use gpunion_workload as workload;
