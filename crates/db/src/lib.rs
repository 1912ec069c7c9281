//! # gpunion-db — the coordinator's system database
//!
//! "State persistence is handled through a centralized database that
//! maintains node registrations, resource allocations, and historical
//! monitoring data" (§3.2). The pieces:
//!
//! * [`intent`] — [`WriteIntent`], the one write vocabulary: what writers
//!   queue, what the tables apply and what the log records.
//! * [`store`] — typed tables (nodes, jobs, allocations) plus the pending
//!   priority queue the round-robin scheduler consumes (§3.5). Their one
//!   mutator, [`SystemDb::apply`], logs each intent it applies, and
//!   [`SystemDb::replay`] rebuilds the tables from that log.
//! * [`wal`] — checksummed write-ahead log with torn-tail recovery.
//! * [`actor`] — the write-queue actor (DESIGN.md §3b): every mutation is
//!   a typed [`WriteIntent`] through a bounded inbox, so §5.2's write
//!   latency is emergent from real queue depth.
//! * [`contention`] — the M/M/1 formula, demoted from mechanism to
//!   validation oracle for the actor's emergent latency.

#![forbid(unsafe_code)]

pub mod actor;
pub mod contention;
pub mod intent;
pub mod store;
pub mod wal;

pub use actor::{DbActor, DbActorConfig};
pub use contention::ContentionModel;
pub use intent::WriteIntent;
pub use store::{AllocationRecord, JobRecord, JobState, NodeRecord, NodeState, SystemDb};
pub use wal::{Recovery, Wal};
