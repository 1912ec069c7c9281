//! # gpunion-baselines — the platforms GPUnion is compared against
//!
//! Capacity models of the paper's comparison points, replaying the same
//! campus traces as GPUnion:
//!
//! * **Manual coordination** (`PlatformPolicy::manual`) — the pre-GPUnion
//!   status quo of Fig. 2: labs see only their own machines and borrowing
//!   needs human negotiation.
//! * **Centralized orchestrator** (`PlatformPolicy::centralized`) —
//!   Kubernetes-like: global pool, but volatility is failure (jobs restart
//!   from scratch), owners wait for drains, node joins are slow.
//! * **Reservation system** (`PlatformPolicy::reservation`) — Slurm-like:
//!   padded walltime reservations block capacity, strict FIFO queueing.
//!
//! [`run_capacity_model`] executes any [`PlatformPolicy`] — including a
//! GPUnion-equivalent — over a trace and emits the [`Outcome`] rows used by
//! the Fig. 2 and Table 1 benches.

#![forbid(unsafe_code)]

pub mod model;
pub mod pool;

pub use model::{
    CampusShape, ChurnReaction, GpuShape, HostShape, Outcome, PlatformPolicy, Visibility,
};
pub use pool::run_capacity_model;
