//! A single GPU device: memory accounting, utilization, thermals, telemetry.
//!
//! The provider agent in the paper collects "real-time GPU telemetry
//! including memory utilization, temperature, and power consumption" via
//! PyNVML. [`GpuDevice::telemetry`] reproduces that surface. Temperature
//! follows a first-order thermal model (exponential approach to the
//! utilization-dependent steady state), which is enough to make telemetry
//! dynamics realistic for monitoring and capacity-planning code paths.

use crate::specs::{GpuModel, GpuSpec};
use gpunion_des::{SimTime, TimeWeighted};
use std::collections::HashMap;

/// Handle to one VRAM allocation on a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MemAllocId(pub u64);

/// Errors from device operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GpuError {
    /// Not enough free VRAM for the requested allocation.
    OutOfMemory {
        /// Bytes requested.
        requested: u64,
        /// Bytes free at the time.
        free: u64,
    },
    /// The allocation handle is unknown (double free).
    UnknownAllocation,
}

impl std::fmt::Display for GpuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GpuError::OutOfMemory { requested, free } => {
                write!(
                    f,
                    "CUDA out of memory: requested {requested} B, free {free} B"
                )
            }
            GpuError::UnknownAllocation => write!(f, "unknown allocation handle"),
        }
    }
}

impl std::error::Error for GpuError {}

/// Point-in-time telemetry snapshot — the PyNVML surface the agent reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuTelemetry {
    /// VRAM in use, bytes.
    pub memory_used: u64,
    /// Total VRAM, bytes.
    pub memory_total: u64,
    /// SM utilization in [0, 1].
    pub utilization: f64,
    /// Core temperature, °C.
    pub temperature_c: f64,
    /// Board power draw, watts.
    pub power_w: f64,
}

/// Ambient (inlet) temperature assumed for all campus machine rooms.
const AMBIENT_C: f64 = 28.0;
/// Thermal resistance: °C above ambient per watt at steady state.
const THETA_C_PER_W: f64 = 0.13;
/// Thermal time constant in seconds (consumer blower cards ≈ a minute).
const TAU_SECS: f64 = 60.0;

/// One physical GPU.
#[derive(Debug, Clone)]
pub struct GpuDevice {
    model: GpuModel,
    allocations: HashMap<MemAllocId, u64>,
    next_alloc: u64,
    used_bytes: u64,
    utilization: f64,
    temperature_c: f64,
    last_thermal_update: SimTime,
    util_history: TimeWeighted,
}

impl GpuDevice {
    /// A cold, idle device.
    pub fn new(model: GpuModel) -> Self {
        let mut util_history = TimeWeighted::new();
        util_history.set(SimTime::ZERO, 0.0);
        GpuDevice {
            model,
            allocations: HashMap::new(),
            next_alloc: 0,
            used_bytes: 0,
            utilization: 0.0,
            temperature_c: AMBIENT_C,
            last_thermal_update: SimTime::ZERO,
            util_history,
        }
    }

    /// The device model.
    pub fn model(&self) -> GpuModel {
        self.model
    }

    /// Spec sheet shorthand.
    pub fn spec(&self) -> GpuSpec {
        self.model.spec()
    }

    /// Free VRAM in bytes.
    pub fn free_bytes(&self) -> u64 {
        self.model.vram_bytes() - self.used_bytes
    }

    /// Used VRAM in bytes.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Current SM utilization in [0, 1].
    pub fn utilization(&self) -> f64 {
        self.utilization
    }

    /// Number of live allocations.
    pub fn allocation_count(&self) -> usize {
        self.allocations.len()
    }

    /// Allocate `bytes` of VRAM.
    pub fn alloc(&mut self, bytes: u64) -> Result<MemAllocId, GpuError> {
        if bytes > self.free_bytes() {
            return Err(GpuError::OutOfMemory {
                requested: bytes,
                free: self.free_bytes(),
            });
        }
        let id = MemAllocId(self.next_alloc);
        self.next_alloc += 1;
        self.allocations.insert(id, bytes);
        self.used_bytes += bytes;
        Ok(id)
    }

    /// Release an allocation.
    pub fn free(&mut self, id: MemAllocId) -> Result<u64, GpuError> {
        let bytes = self
            .allocations
            .remove(&id)
            .ok_or(GpuError::UnknownAllocation)?;
        self.used_bytes -= bytes;
        Ok(bytes)
    }

    /// Set the instantaneous SM utilization (the running workload model
    /// drives this). Also advances the thermal state to `now` first so
    /// temperature history reflects the previous load level.
    pub fn set_utilization(&mut self, now: SimTime, util: f64) {
        self.advance_thermals(now);
        self.utilization = util.clamp(0.0, 1.0);
        self.util_history.set(now, self.utilization);
    }

    /// Instantaneous power draw: idle + (TDP − idle) × utilization.
    pub fn power_w(&self) -> f64 {
        let s = self.spec();
        s.idle_watts + (s.tdp_watts - s.idle_watts) * self.utilization
    }

    fn steady_state_temp(&self) -> f64 {
        AMBIENT_C + self.power_w() * THETA_C_PER_W
    }

    /// First-order thermal integration up to `now`.
    fn advance_thermals(&mut self, now: SimTime) {
        let dt = now.since(self.last_thermal_update).as_secs_f64();
        if dt > 0.0 {
            let target = self.steady_state_temp();
            let k = 1.0 - (-dt / TAU_SECS).exp();
            self.temperature_c += (target - self.temperature_c) * k;
            self.last_thermal_update = now;
        }
    }

    /// Telemetry snapshot at `now` (advances thermals).
    pub fn telemetry(&mut self, now: SimTime) -> GpuTelemetry {
        self.advance_thermals(now);
        GpuTelemetry {
            memory_used: self.used_bytes,
            memory_total: self.model.vram_bytes(),
            utilization: self.utilization,
            temperature_c: self.temperature_c,
            power_w: self.power_w(),
        }
    }

    /// Time-weighted mean utilization since device creation — the quantity
    /// Fig. 2 of the paper reports per research group.
    pub fn mean_utilization(&mut self, now: SimTime) -> f64 {
        self.util_history.finish(now);
        self.util_history.mean().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_accounting() {
        let mut d = GpuDevice::new(GpuModel::Rtx3090);
        let total = d.spec().vram_bytes;
        let a = d.alloc(10 << 30).unwrap();
        let b = d.alloc(8 << 30).unwrap();
        assert_eq!(d.used_bytes(), 18 << 30);
        assert_eq!(d.free_bytes(), total - (18 << 30));
        assert_eq!(d.free(a).unwrap(), 10 << 30);
        assert_eq!(d.used_bytes(), 8 << 30);
        assert_eq!(d.free(b).unwrap(), 8 << 30);
        assert_eq!(d.used_bytes(), 0);
    }

    #[test]
    fn oom_is_reported_with_sizes() {
        let mut d = GpuDevice::new(GpuModel::Rtx3090);
        d.alloc(20 << 30).unwrap();
        match d.alloc(8 << 30) {
            Err(GpuError::OutOfMemory { requested, free }) => {
                assert_eq!(requested, 8 << 30);
                assert_eq!(free, 4 << 30);
            }
            other => panic!("expected OOM, got {other:?}"),
        }
    }

    #[test]
    fn double_free_rejected() {
        let mut d = GpuDevice::new(GpuModel::A6000);
        let a = d.alloc(1 << 30).unwrap();
        d.free(a).unwrap();
        assert_eq!(d.free(a).unwrap_err(), GpuError::UnknownAllocation);
    }

    #[test]
    fn power_scales_with_utilization() {
        let mut d = GpuDevice::new(GpuModel::Rtx4090);
        assert_eq!(d.power_w(), 30.0);
        d.set_utilization(SimTime::ZERO, 1.0);
        assert_eq!(d.power_w(), 450.0);
        d.set_utilization(SimTime::ZERO, 0.5);
        assert_eq!(d.power_w(), 240.0);
    }

    #[test]
    fn thermal_model_converges_to_steady_state() {
        let mut d = GpuDevice::new(GpuModel::Rtx3090);
        d.set_utilization(SimTime::ZERO, 1.0);
        // After many time constants, temperature ≈ ambient + TDP·θ.
        let t = d.telemetry(SimTime::from_secs(3600)).temperature_c;
        let expect = 28.0 + 350.0 * 0.13;
        assert!((t - expect).abs() < 0.5, "t={t}, expect≈{expect}");
        // Cooling back down when idle.
        d.set_utilization(SimTime::from_secs(3600), 0.0);
        let t2 = d.telemetry(SimTime::from_secs(7200)).temperature_c;
        assert!(t2 < 35.0, "t2={t2}");
    }

    #[test]
    fn thermal_monotone_rise_under_load() {
        let mut d = GpuDevice::new(GpuModel::A100_40);
        d.set_utilization(SimTime::ZERO, 1.0);
        let mut last = 0.0;
        for s in [10u64, 30, 60, 120, 300] {
            let t = d.telemetry(SimTime::from_secs(s)).temperature_c;
            assert!(t > last, "temperature must rise: {t} after {s}s");
            last = t;
        }
    }

    #[test]
    fn mean_utilization_time_weighted() {
        let mut d = GpuDevice::new(GpuModel::Rtx3090);
        d.set_utilization(SimTime::ZERO, 0.0);
        d.set_utilization(SimTime::from_secs(100), 1.0); // idle 100 s, then busy 300 s
        let u = d.mean_utilization(SimTime::from_secs(400));
        assert!((u - 0.75).abs() < 1e-9, "u={u}");
    }

    #[test]
    fn telemetry_reflects_memory() {
        let mut d = GpuDevice::new(GpuModel::A100_80);
        d.alloc(60 << 30).unwrap();
        let t = d.telemetry(SimTime::from_secs(1));
        assert_eq!(t.memory_used, 60 << 30);
        assert_eq!(t.memory_total, 80 << 30);
    }

    #[test]
    fn utilization_clamped() {
        let mut d = GpuDevice::new(GpuModel::Rtx3090);
        d.set_utilization(SimTime::ZERO, 1.7);
        assert_eq!(d.utilization(), 1.0);
        d.set_utilization(SimTime::from_secs(1), -0.5);
        assert_eq!(d.utilization(), 0.0);
    }

    #[test]
    fn exact_fill_succeeds() {
        let mut d = GpuDevice::new(GpuModel::Rtx3090);
        let a = d.alloc(d.free_bytes());
        assert!(a.is_ok());
        assert_eq!(d.free_bytes(), 0);
        assert!(matches!(d.alloc(1), Err(GpuError::OutOfMemory { .. })));
    }

    proptest::proptest! {
        /// Memory accounting invariant: used + free == total, used ≥ 0,
        /// regardless of alloc/free interleaving.
        #[test]
        fn memory_conservation(ops in proptest::collection::vec((0u64..8 << 30, proptest::bool::ANY), 1..60)) {
            let mut d = GpuDevice::new(GpuModel::A6000);
            let total = d.spec().vram_bytes;
            let mut live: Vec<MemAllocId> = Vec::new();
            for (bytes, do_free) in ops {
                if do_free && !live.is_empty() {
                    let id = live.pop().unwrap();
                    d.free(id).unwrap();
                } else if let Ok(id) = d.alloc(bytes) {
                    live.push(id);
                }
                proptest::prop_assert_eq!(d.used_bytes() + d.free_bytes(), total);
            }
        }
    }
}
