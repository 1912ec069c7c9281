//! # gpunion-workload — job models and campus demand traces
//!
//! Analytic equivalents of the paper's workloads:
//!
//! * [`job`] — model classes (CNN, transformer, memory-intensive) with the
//!   VRAM / state-size / FLOP parameters that all interruption and
//!   checkpoint costs derive from.
//! * [`training`] — live run state: progress, ALC checkpoints with
//!   dirty-page tracking (the bytes each incremental checkpoint moves),
//!   rollback on emergency departure.
//! * [`cost`] — checkpoint capture/restore latency from a profile's state
//!   size.
//! * [`trace`] — deterministic campus demand generation: per-lab imbalance,
//!   diurnal/weekly/semester patterns, interactive session bursts. GPUnion
//!   and the baselines replay identical traces.
//! * [`provider`] — churn models for the three interruption classes of §4.

#![forbid(unsafe_code)]

pub mod cost;
pub mod job;
pub mod provider;
pub mod trace;
pub mod training;

pub use cost::CheckpointCostModel;
pub use job::{iter_secs, InteractiveSpec, ModelClass, ModelProfile, TrainingJobSpec, MFU};
pub use provider::{ChurnModel, InterruptionEvent, InterruptionKind};
pub use trace::{
    diurnal_multiplier, generate, generate_into, paper_campus_labs, weekly_multiplier, LabId,
    LabProfile, Request, TraceConfig, TraceEvent,
};
pub use training::{fig3_job_set, RunProgress, TrainingRun};
