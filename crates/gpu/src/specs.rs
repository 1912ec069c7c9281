//! GPU model spec sheets.
//!
//! The paper's campus deployment mixes consumer cards (RTX 3090/4090) with
//! data-centre parts (A100, A6000). Placement decisions in GPUnion depend on
//! VRAM capacity and CUDA compute capability; job speed depends on FP32
//! throughput; the thermal/power telemetry the agent reports via PyNVML
//! depends on TDP. The numbers below are the public spec-sheet values.

use std::fmt;

/// CUDA compute capability, e.g. 8.6 for Ampere consumer parts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ComputeCapability {
    /// Major version.
    pub major: u8,
    /// Minor version.
    pub minor: u8,
}

impl ComputeCapability {
    /// Construct from (major, minor).
    pub const fn new(major: u8, minor: u8) -> Self {
        ComputeCapability { major, minor }
    }
}

impl fmt::Display for ComputeCapability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.major, self.minor)
    }
}

/// The GPU models that appear in the paper's deployment, plus the A100 80 GB
/// variant for heterogeneity experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GpuModel {
    /// NVIDIA GeForce RTX 3090 (Ampere, 24 GB) — the 8 workstation cards.
    Rtx3090,
    /// NVIDIA GeForce RTX 4090 (Ada, 24 GB) — the 8-GPU server.
    Rtx4090,
    /// NVIDIA A100 40 GB (Ampere data centre) — the 2-GPU server.
    A100_40,
    /// NVIDIA A100 80 GB variant.
    A100_80,
    /// NVIDIA RTX A6000 (Ampere workstation, 48 GB) — the 4-GPU server.
    A6000,
}

/// Static properties of a GPU model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuSpec {
    /// Marketing name.
    pub name: &'static str,
    /// VRAM in bytes.
    pub vram_bytes: u64,
    /// CUDA compute capability.
    pub compute_capability: ComputeCapability,
    /// Peak FP32 throughput in TFLOPS (job-speed scaling).
    pub fp32_tflops: f64,
    /// Memory bandwidth in GB/s (checkpoint serialization speed bound).
    pub mem_bandwidth_gbps: f64,
    /// Board power limit in watts.
    pub tdp_watts: f64,
    /// Idle power draw in watts.
    pub idle_watts: f64,
}

const GIB: u64 = 1 << 30;

impl GpuModel {
    /// All models known to the simulator.
    pub const ALL: [GpuModel; 5] = [
        GpuModel::Rtx3090,
        GpuModel::Rtx4090,
        GpuModel::A100_40,
        GpuModel::A100_80,
        GpuModel::A6000,
    ];

    /// Spec sheet for this model.
    pub const fn spec(self) -> GpuSpec {
        match self {
            GpuModel::Rtx3090 => GpuSpec {
                name: "NVIDIA GeForce RTX 3090",
                vram_bytes: 24 * GIB,
                compute_capability: ComputeCapability::new(8, 6),
                fp32_tflops: 35.6,
                mem_bandwidth_gbps: 936.0,
                tdp_watts: 350.0,
                idle_watts: 25.0,
            },
            GpuModel::Rtx4090 => GpuSpec {
                name: "NVIDIA GeForce RTX 4090",
                vram_bytes: 24 * GIB,
                compute_capability: ComputeCapability::new(8, 9),
                fp32_tflops: 82.6,
                mem_bandwidth_gbps: 1008.0,
                tdp_watts: 450.0,
                idle_watts: 30.0,
            },
            GpuModel::A100_40 => GpuSpec {
                name: "NVIDIA A100 40GB",
                vram_bytes: 40 * GIB,
                compute_capability: ComputeCapability::new(8, 0),
                fp32_tflops: 19.5,
                mem_bandwidth_gbps: 1555.0,
                tdp_watts: 400.0,
                idle_watts: 40.0,
            },
            GpuModel::A100_80 => GpuSpec {
                name: "NVIDIA A100 80GB",
                vram_bytes: 80 * GIB,
                compute_capability: ComputeCapability::new(8, 0),
                fp32_tflops: 19.5,
                mem_bandwidth_gbps: 2039.0,
                tdp_watts: 400.0,
                idle_watts: 40.0,
            },
            GpuModel::A6000 => GpuSpec {
                name: "NVIDIA RTX A6000",
                vram_bytes: 48 * GIB,
                compute_capability: ComputeCapability::new(8, 6),
                fp32_tflops: 38.7,
                mem_bandwidth_gbps: 768.0,
                tdp_watts: 300.0,
                idle_watts: 22.0,
            },
        }
    }

    /// VRAM shorthand.
    pub const fn vram_bytes(self) -> u64 {
        self.spec().vram_bytes
    }

    /// Compute capability shorthand.
    pub const fn compute_capability(self) -> ComputeCapability {
        self.spec().compute_capability
    }
}

impl fmt::Display for GpuModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.spec().name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_capability_ordering() {
        let ada = ComputeCapability::new(8, 9);
        let ampere = ComputeCapability::new(8, 0);
        let hopper = ComputeCapability::new(9, 0);
        assert!(ampere < ada);
        assert!(ada < hopper);
        assert_eq!(ComputeCapability::new(8, 6), ComputeCapability::new(8, 6));
    }

    #[test]
    fn spec_sanity() {
        for m in GpuModel::ALL {
            let s = m.spec();
            assert!(s.vram_bytes >= 24 * GIB, "{m}");
            assert!(s.fp32_tflops > 0.0);
            assert!(s.tdp_watts > s.idle_watts);
            assert!(s.mem_bandwidth_gbps > 100.0);
        }
    }

    #[test]
    fn paper_testbed_models() {
        assert_eq!(GpuModel::Rtx3090.vram_bytes(), 24 * GIB);
        assert_eq!(GpuModel::A6000.vram_bytes(), 48 * GIB);
        assert_eq!(GpuModel::A100_40.vram_bytes(), 40 * GIB);
        assert_eq!(
            GpuModel::Rtx4090.compute_capability(),
            ComputeCapability::new(8, 9)
        );
    }

    #[test]
    fn display_names() {
        assert_eq!(GpuModel::Rtx3090.to_string(), "NVIDIA GeForce RTX 3090");
        assert_eq!(ComputeCapability::new(8, 6).to_string(), "8.6");
    }
}
