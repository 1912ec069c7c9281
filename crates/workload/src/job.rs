//! Job specifications: model classes and resource requirements.
//!
//! The paper's interruption experiments use "PyTorch CNN and transformer
//! models"; the training-impact analysis distinguishes "memory-intensive
//! models" (longer checkpoint creation). Each [`ModelClass`] carries the
//! parameters those effects derive from: working-set VRAM, recoverable-state
//! size, and per-iteration compute.

use gpunion_des::SimDuration;
use gpunion_gpu::ComputeCapability;

const GIB: u64 = 1 << 30;
const MIB: u64 = 1 << 20;

/// Canonical workload classes used across experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelClass {
    /// ResNet-style CNN (~100 MB state): fast checkpoints.
    CnnSmall,
    /// Wide CNN / detection model (~800 MB state).
    CnnLarge,
    /// Mid-size transformer fine-tune (~1.5 GB state).
    TransformerSmall,
    /// Large transformer (~6 GB state).
    TransformerLarge,
    /// Memory-intensive training (~14 GB state): the paper's
    /// interruption-sensitive case.
    MemoryIntensive,
}

/// Static parameters of a model class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelProfile {
    /// Display name.
    pub name: &'static str,
    /// VRAM working set per GPU (weights + activations + optimizer).
    pub gpu_mem_bytes: u64,
    /// Recoverable state (what ALC checkpoints): weights + optimizer.
    pub state_bytes: u64,
    /// FP32 FLOPs per training iteration.
    pub flops_per_iter: f64,
    /// Fraction of state pages dirtied between two checkpoints at the
    /// default interval (drives incremental delta size).
    pub dirty_fraction: f64,
    /// Minimum CUDA compute capability (None = any).
    pub min_cc: Option<ComputeCapability>,
}

impl ModelClass {
    /// All classes.
    pub const ALL: [ModelClass; 5] = [
        ModelClass::CnnSmall,
        ModelClass::CnnLarge,
        ModelClass::TransformerSmall,
        ModelClass::TransformerLarge,
        ModelClass::MemoryIntensive,
    ];

    /// The class profile.
    pub const fn profile(self) -> ModelProfile {
        match self {
            ModelClass::CnnSmall => ModelProfile {
                name: "cnn-small",
                gpu_mem_bytes: 6 * GIB,
                state_bytes: 100 * MIB,
                flops_per_iter: 2.0e12,
                dirty_fraction: 1.0, // small states rewrite fully
                min_cc: None,
            },
            ModelClass::CnnLarge => ModelProfile {
                name: "cnn-large",
                gpu_mem_bytes: 12 * GIB,
                state_bytes: 800 * MIB,
                flops_per_iter: 9.0e12,
                dirty_fraction: 0.6,
                min_cc: None,
            },
            ModelClass::TransformerSmall => ModelProfile {
                name: "transformer-small",
                gpu_mem_bytes: 14 * GIB,
                state_bytes: 1536 * MIB,
                flops_per_iter: 1.6e13,
                dirty_fraction: 0.25,
                min_cc: Some(ComputeCapability::new(7, 0)),
            },
            ModelClass::TransformerLarge => ModelProfile {
                name: "transformer-large",
                gpu_mem_bytes: 22 * GIB,
                state_bytes: 6 * GIB,
                flops_per_iter: 6.0e13,
                dirty_fraction: 0.12,
                min_cc: Some(ComputeCapability::new(8, 0)),
            },
            ModelClass::MemoryIntensive => ModelProfile {
                name: "memory-intensive",
                gpu_mem_bytes: 38 * GIB,
                state_bytes: 14 * GIB,
                flops_per_iter: 4.0e13,
                dirty_fraction: 0.3,
                min_cc: Some(ComputeCapability::new(8, 0)),
            },
        }
    }
}

/// A batch training job request.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingJobSpec {
    /// Model class.
    pub model: ModelClass,
    /// Iterations to run.
    pub iterations: u64,
    /// GPUs required (data parallel).
    pub gpus: u8,
    /// ALC checkpoint interval (0 ⇒ stateless / no checkpointing).
    pub checkpoint_interval: SimDuration,
    /// Priority class, higher = more urgent.
    pub priority: u8,
}

impl TrainingJobSpec {
    /// A spec with the defaults the paper's deployment uses: 10-minute
    /// checkpoints, single GPU, normal priority.
    pub fn new(model: ModelClass, iterations: u64) -> Self {
        TrainingJobSpec {
            model,
            iterations,
            gpus: 1,
            checkpoint_interval: SimDuration::from_mins(10),
            priority: 1,
        }
    }

    /// Expected wall-clock on a device of the given FP32 TFLOPS (no
    /// interruptions, MFU-adjusted).
    pub fn expected_duration(&self, tflops: f64) -> SimDuration {
        let secs = self.iterations as f64 * iter_secs(self.model, tflops, self.gpus);
        SimDuration::from_secs_f64(secs)
    }
}

/// Achievable fraction of peak FLOPS (model FLOP utilization).
pub const MFU: f64 = 0.38;

/// Seconds per training iteration on a device of `tflops` peak FP32, with
/// `gpus`-way data parallelism (92 % scaling efficiency per the usual
/// all-reduce overhead on PCIe boxes).
pub fn iter_secs(model: ModelClass, tflops: f64, gpus: u8) -> f64 {
    assert!(tflops > 0.0);
    let p = model.profile();
    let scale = match gpus {
        0 | 1 => 1.0,
        n => 0.92 * n as f64,
    };
    p.flops_per_iter / (tflops * 1e12 * MFU * scale)
}

/// An interactive (Jupyter) session request.
#[derive(Debug, Clone, PartialEq)]
pub struct InteractiveSpec {
    /// VRAM the session needs on one GPU.
    pub gpu_mem_bytes: u64,
    /// How long the user intends to work.
    pub duration: SimDuration,
    /// How long the user will wait for a free GPU before giving up —
    /// the quantity behind the paper's "+40 % interactive sessions".
    pub patience: SimDuration,
}

impl InteractiveSpec {
    /// A typical debugging session: 8 GB, ~45 min, 10 min patience.
    pub fn typical() -> Self {
        InteractiveSpec {
            gpu_mem_bytes: 8 * GIB,
            duration: SimDuration::from_mins(45),
            patience: SimDuration::from_mins(10),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_are_sane() {
        for m in ModelClass::ALL {
            let p = m.profile();
            assert!(p.state_bytes <= p.gpu_mem_bytes, "{:?}", m);
            assert!(p.flops_per_iter > 0.0);
            assert!(p.dirty_fraction > 0.0 && p.dirty_fraction <= 1.0);
        }
    }

    #[test]
    fn memory_intensive_has_biggest_state() {
        let max_other = ModelClass::ALL
            .iter()
            .filter(|m| **m != ModelClass::MemoryIntensive)
            .map(|m| m.profile().state_bytes)
            .max()
            .unwrap();
        assert!(ModelClass::MemoryIntensive.profile().state_bytes > max_other);
    }

    #[test]
    fn iter_time_scales_with_device_speed() {
        // RTX 4090 (82.6 TF) runs ~2.3× faster than RTX 3090 (35.6 TF).
        let slow = iter_secs(ModelClass::TransformerSmall, 35.6, 1);
        let fast = iter_secs(ModelClass::TransformerSmall, 82.6, 1);
        assert!((slow / fast - 82.6 / 35.6).abs() < 1e-9);
    }

    #[test]
    fn multi_gpu_scaling_sub_linear() {
        let one = iter_secs(ModelClass::TransformerLarge, 35.6, 1);
        let four = iter_secs(ModelClass::TransformerLarge, 35.6, 4);
        let speedup = one / four;
        assert!(speedup > 3.5 && speedup < 4.0, "speedup {speedup}");
    }

    #[test]
    fn expected_duration_reasonable() {
        // CNN-small on a 3090: ~0.15 s/iter ⇒ 20 000 iters ≈ 49 min.
        let spec = TrainingJobSpec::new(ModelClass::CnnSmall, 20_000);
        let d = spec.expected_duration(35.6);
        let mins = d.as_secs_f64() / 60.0;
        assert!(mins > 30.0 && mins < 90.0, "{mins} min");
    }

    #[test]
    fn default_checkpoint_interval_matches_paper() {
        let spec = TrainingJobSpec::new(ModelClass::CnnSmall, 1);
        assert_eq!(spec.checkpoint_interval, SimDuration::from_mins(10));
    }
}
