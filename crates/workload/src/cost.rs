//! Checkpoint cost model: how long capture and restore take on a node.
//!
//! The paper observes that "memory-intensive models showed higher sensitivity
//! to interruption due to longer checkpoint creation times". Creation time is
//! dominated by serializing model/optimizer state out of GPU memory and onto
//! local disk before (asynchronous) upload; restore adds process start and
//! framework re-initialization.

use gpunion_des::SimDuration;
use serde::{Deserialize, Serialize};

/// Cost parameters for application-level checkpointing on one node.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CheckpointCostModel {
    /// Serialization throughput to local disk, bytes/sec (NVMe-class).
    pub serialize_bytes_per_sec: f64,
    /// Deserialization throughput from local disk, bytes/sec.
    pub restore_bytes_per_sec: f64,
    /// Fixed framework overhead per capture (torch.save bookkeeping).
    pub capture_overhead: SimDuration,
    /// Fixed overhead per restore: process start, CUDA context,
    /// framework import and dataloader warm-up.
    pub restore_overhead: SimDuration,
}

impl Default for CheckpointCostModel {
    fn default() -> Self {
        CheckpointCostModel {
            serialize_bytes_per_sec: 2.0e9,
            restore_bytes_per_sec: 2.5e9,
            capture_overhead: SimDuration::from_millis(1_500),
            restore_overhead: SimDuration::from_millis(8_000),
        }
    }
}

impl CheckpointCostModel {
    /// Time to capture a checkpoint of `state_bytes` (GPU → host → disk).
    /// This is the window during which a graceful departure must wait.
    pub fn capture_time(&self, state_bytes: u64) -> SimDuration {
        self.capture_overhead
            + SimDuration::from_secs_f64(state_bytes as f64 / self.serialize_bytes_per_sec)
    }

    /// Time to load `state_bytes` from local disk and resume training
    /// (excludes the network fetch of the checkpoint, a separate flow).
    pub fn restore_time(&self, state_bytes: u64) -> SimDuration {
        self.restore_overhead
            + SimDuration::from_secs_f64(state_bytes as f64 / self.restore_bytes_per_sec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_scales_with_state_size() {
        let m = CheckpointCostModel::default();
        let small = m.capture_time(100 << 20); // 100 MB CNN
        let large = m.capture_time(12 << 30); // 12 GB memory-intensive
        assert!(small.as_secs_f64() < 2.0, "{small}");
        assert!(large.as_secs_f64() > 7.0, "{large}");
        assert!(large > small * 4);
    }

    #[test]
    fn restore_includes_fixed_overhead() {
        let m = CheckpointCostModel::default();
        let t = m.restore_time(0);
        assert_eq!(t, m.restore_overhead);
        let t = m.restore_time(5 << 30);
        assert!(t.as_secs_f64() > 9.0, "{t}");
    }
}
