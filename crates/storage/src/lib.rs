//! # gpunion-storage — checkpoints, incremental snapshots, placement
//!
//! The data layer behind the paper's resilient execution mechanism (§3.5):
//!
//! * [`snapshot`] — application state as dirty-tracked logical pages + file
//!   deltas; `base ⊕ delta = next` is property-tested, and
//!   [`Delta::transfer_bytes`](snapshot::Delta::transfer_bytes) is the
//!   quantity the network-traffic analysis (§4) depends on.
//! * [`repository`] — checkpoint metadata, full/incremental chains, restore
//!   planning with dead-node awareness, retention that never breaks chains,
//!   and user-designated replica placement.
//! * [`cost`] — capture/restore latency model (why memory-intensive models
//!   are more interruption-sensitive).
//! * [`datastore`] — capacity-bounded per-node object stores.

#![forbid(unsafe_code)]

pub mod cost;
pub mod datastore;
pub mod repository;
pub mod snapshot;

pub use cost::CheckpointCostModel;
pub use datastore::{ObjectKey, StoreError, TaskDataStore};
pub use repository::{
    CheckpointId, CheckpointKind, CheckpointMeta, CheckpointRepository, JobTag, RepoError,
    RestorePlan, StoragePolicy,
};
pub use snapshot::{Delta, FileChange, Snapshot, StateModel, DEFAULT_PAGE_BYTES};
