//! A GPU server: a host machine with one or more GPUs plus CPU/RAM/disk.
//!
//! The paper's testbed: 8 workstations with a single RTX 3090 each, one
//! server with 8× RTX 4090, one with 2× A100, one with 4× A6000, and a
//! CPU-only coordinator. [`ServerSpec`] describes a machine;
//! [`GpuServer`] is its live state, tracking per-device allocations.

use crate::device::{GpuDevice, GpuError, GpuTelemetry, MemAllocId};
use crate::specs::{ComputeCapability, GpuModel};
use gpunion_des::SimTime;
use serde::{Deserialize, Serialize};

/// Index of a GPU within one server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct GpuIndex(pub u8);

/// Static description of a machine.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServerSpec {
    /// Hostname, e.g. "lab3-ws1".
    pub hostname: String,
    /// Installed GPUs (empty for the CPU-only coordinator).
    pub gpus: Vec<GpuModel>,
    /// CPU core count (affects container startup concurrency, reporting only).
    pub cpu_cores: u32,
    /// Host RAM in bytes.
    pub ram_bytes: u64,
    /// Local disk capacity in bytes (task data store).
    pub disk_bytes: u64,
}

impl ServerSpec {
    /// A typical single-GPU workstation.
    pub fn workstation(hostname: impl Into<String>, gpu: GpuModel) -> Self {
        ServerSpec {
            hostname: hostname.into(),
            gpus: vec![gpu],
            cpu_cores: 16,
            ram_bytes: 64 << 30,
            disk_bytes: 2 << 40,
        }
    }

    /// A multi-GPU rack server.
    pub fn multi_gpu(hostname: impl Into<String>, gpu: GpuModel, count: usize) -> Self {
        ServerSpec {
            hostname: hostname.into(),
            gpus: vec![gpu; count],
            cpu_cores: 64,
            ram_bytes: 512 << 30,
            disk_bytes: 8 << 40,
        }
    }

    /// The CPU-only coordinator machine.
    pub fn cpu_only(hostname: impl Into<String>) -> Self {
        ServerSpec {
            hostname: hostname.into(),
            gpus: Vec::new(),
            cpu_cores: 32,
            ram_bytes: 128 << 30,
            disk_bytes: 4 << 40,
        }
    }
}

/// Live state of a machine's GPUs.
#[derive(Debug, Clone)]
pub struct GpuServer {
    spec: ServerSpec,
    devices: Vec<GpuDevice>,
}

impl GpuServer {
    /// Boot a server from its spec (all GPUs idle and cold).
    pub fn new(spec: ServerSpec) -> Self {
        let devices = spec.gpus.iter().map(|m| GpuDevice::new(*m)).collect();
        GpuServer { spec, devices }
    }

    /// The machine's static description.
    pub fn spec(&self) -> &ServerSpec {
        &self.spec
    }

    /// Hostname shorthand.
    pub fn hostname(&self) -> &str {
        &self.spec.hostname
    }

    /// Number of installed GPUs.
    pub fn gpu_count(&self) -> usize {
        self.devices.len()
    }

    /// Access one device.
    pub fn device(&self, idx: GpuIndex) -> Option<&GpuDevice> {
        self.devices.get(idx.0 as usize)
    }

    /// Mutable access to one device.
    pub fn device_mut(&mut self, idx: GpuIndex) -> Option<&mut GpuDevice> {
        self.devices.get_mut(idx.0 as usize)
    }

    /// Iterate over `(index, device)` pairs.
    pub fn devices(&self) -> impl Iterator<Item = (GpuIndex, &GpuDevice)> {
        self.devices
            .iter()
            .enumerate()
            .map(|(i, d)| (GpuIndex(i as u8), d))
    }

    /// Find GPUs satisfying a placement constraint: at least `min_free`
    /// bytes of free VRAM and compute capability ≥ `min_cc`. Returns
    /// indices sorted by free VRAM descending (best-fit-first for the
    /// scheduler's packing heuristics).
    pub fn find_gpus(&self, min_free: u64, min_cc: Option<ComputeCapability>) -> Vec<GpuIndex> {
        let mut out: Vec<(GpuIndex, u64)> = self
            .devices
            .iter()
            .enumerate()
            .filter(|(_, d)| {
                d.free_bytes() >= min_free
                    && min_cc.is_none_or(|cc| d.spec().compute_capability >= cc)
            })
            .map(|(i, d)| (GpuIndex(i as u8), d.free_bytes()))
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out.into_iter().map(|(i, _)| i).collect()
    }

    /// Allocate VRAM on a specific device.
    pub fn alloc_on(&mut self, idx: GpuIndex, bytes: u64) -> Result<MemAllocId, GpuError> {
        self.devices
            .get_mut(idx.0 as usize)
            .ok_or(GpuError::UnknownAllocation)?
            .alloc(bytes)
    }

    /// Free VRAM on a specific device.
    pub fn free_on(&mut self, idx: GpuIndex, id: MemAllocId) -> Result<u64, GpuError> {
        self.devices
            .get_mut(idx.0 as usize)
            .ok_or(GpuError::UnknownAllocation)?
            .free(id)
    }

    /// Telemetry for all devices at `now` — what one heartbeat carries.
    pub fn telemetry(&mut self, now: SimTime) -> Vec<GpuTelemetry> {
        self.telemetry_each(now).collect()
    }

    /// [`GpuServer::telemetry`] device by device, for a caller that
    /// converts each sample as it goes instead of holding the vector.
    pub fn telemetry_each(
        &mut self,
        now: SimTime,
    ) -> impl ExactSizeIterator<Item = GpuTelemetry> + '_ {
        self.devices.iter_mut().map(move |d| d.telemetry(now))
    }

    /// Server-level mean utilization across devices (Fig. 2's per-server
    /// quantity). CPU-only servers report 0.
    pub fn mean_utilization(&mut self, now: SimTime) -> f64 {
        if self.devices.is_empty() {
            return 0.0;
        }
        let sum: f64 = self
            .devices
            .iter_mut()
            .map(|d| d.mean_utilization(now))
            .sum();
        sum / self.devices.len() as f64
    }

    /// Total free VRAM across devices.
    pub fn total_free_vram(&self) -> u64 {
        self.devices.iter().map(|d| d.free_bytes()).sum()
    }
}

/// Build the exact 11-server GPU fleet from the paper's §4 deployment plus
/// its CPU-only coordinator (returned last).
pub fn paper_testbed() -> Vec<ServerSpec> {
    let mut specs = Vec::new();
    for i in 1..=8 {
        specs.push(ServerSpec::workstation(
            format!("ws-{i}"),
            GpuModel::Rtx3090,
        ));
    }
    specs.push(ServerSpec::multi_gpu("rack-4090", GpuModel::Rtx4090, 8));
    specs.push(ServerSpec::multi_gpu("rack-a100", GpuModel::A100_40, 2));
    specs.push(ServerSpec::multi_gpu("rack-a6000", GpuModel::A6000, 4));
    specs.push(ServerSpec::cpu_only("coordinator"));
    specs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_shape() {
        let t = paper_testbed();
        assert_eq!(t.len(), 12, "11 GPU servers + coordinator");
        let gpu_total: usize = t.iter().map(|s| s.gpus.len()).sum();
        assert_eq!(gpu_total, 8 + 8 + 2 + 4);
        assert!(t.last().unwrap().gpus.is_empty());
    }

    #[test]
    fn find_gpus_filters_by_vram_and_cc() {
        let mut srv = GpuServer::new(ServerSpec::multi_gpu("x", GpuModel::Rtx4090, 2));
        // Fill GPU 0 almost completely.
        srv.alloc_on(GpuIndex(0), 23 << 30).unwrap();
        let found = srv.find_gpus(10 << 30, None);
        assert_eq!(found, vec![GpuIndex(1)]);
        // CC 9.0 excludes Ada (8.9).
        let found = srv.find_gpus(1, Some(ComputeCapability::new(9, 0)));
        assert!(found.is_empty());
        // CC 8.9 matches.
        let found = srv.find_gpus(1, Some(ComputeCapability::new(8, 9)));
        assert_eq!(found.len(), 2);
    }

    #[test]
    fn find_gpus_orders_by_free_vram() {
        let mut srv = GpuServer::new(ServerSpec::multi_gpu("x", GpuModel::A6000, 3));
        srv.alloc_on(GpuIndex(0), 30 << 30).unwrap();
        srv.alloc_on(GpuIndex(1), 10 << 30).unwrap();
        let found = srv.find_gpus(1, None);
        assert_eq!(found, vec![GpuIndex(2), GpuIndex(1), GpuIndex(0)]);
    }

    #[test]
    fn cpu_only_has_no_gpus() {
        let mut srv = GpuServer::new(ServerSpec::cpu_only("coord"));
        assert_eq!(srv.gpu_count(), 0);
        assert!(srv.find_gpus(0, None).is_empty());
        assert_eq!(srv.mean_utilization(SimTime::from_secs(100)), 0.0);
        assert!(srv.telemetry(SimTime::ZERO).is_empty());
    }

    #[test]
    fn telemetry_covers_all_devices() {
        let mut srv = GpuServer::new(ServerSpec::multi_gpu("x", GpuModel::A100_40, 2));
        srv.device_mut(GpuIndex(0))
            .unwrap()
            .set_utilization(SimTime::ZERO, 1.0);
        let t = srv.telemetry(SimTime::from_secs(10));
        assert_eq!(t.len(), 2);
        assert!(t[0].utilization > t[1].utilization);
    }

    #[test]
    fn server_mean_utilization_averages_devices() {
        let mut srv = GpuServer::new(ServerSpec::multi_gpu("x", GpuModel::Rtx3090, 2));
        srv.device_mut(GpuIndex(0))
            .unwrap()
            .set_utilization(SimTime::ZERO, 1.0);
        // Device 0 at 100 %, device 1 at 0 % ⇒ server mean 50 %.
        let u = srv.mean_utilization(SimTime::from_secs(100));
        assert!((u - 0.5).abs() < 1e-9, "u={u}");
    }

    #[test]
    fn alloc_on_bad_index() {
        let mut srv = GpuServer::new(ServerSpec::workstation("x", GpuModel::Rtx3090));
        assert!(srv.alloc_on(GpuIndex(3), 1).is_err());
    }
}
