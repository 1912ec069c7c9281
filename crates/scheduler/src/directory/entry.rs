//! Per-node directory state: liveness, GPU slots, and the reservation
//! ledger — everything the directory knows about one node.

use gpunion_protocol::{DispatchSpec, GpuInfo, GpuStat, JobId, NodeUid};
use std::collections::HashMap;

/// Liveness as seen from the coordinator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeLiveness {
    /// Heartbeating, accepting new work.
    Active,
    /// Heartbeating but the provider paused allocations.
    Paused,
    /// Graceful departure announced; draining.
    Departing,
    /// Heartbeats lost or departure completed.
    Offline,
}

/// One GPU slot as the directory models it: capacity plus reservations.
#[derive(Debug, Clone)]
struct GpuSlot {
    info: GpuInfo,
    /// Free bytes according to the last heartbeat.
    reported_free: u64,
    /// Bytes reserved by in-flight offers/allocations not yet visible in
    /// heartbeats.
    reserved: u64,
}

impl GpuSlot {
    fn effective_free(&self) -> u64 {
        self.reported_free.saturating_sub(self.reserved)
    }
}

/// Directory entry for one node.
#[derive(Debug, Clone)]
pub struct NodeEntry {
    /// Node uid.
    pub uid: NodeUid,
    /// The machine identifier (stable across re-registrations).
    pub machine_id: String,
    /// Hostname.
    pub hostname: String,
    /// Liveness. Mutations go through [`super::Directory::set_liveness`]
    /// so the capacity index stays consistent.
    pub(crate) liveness: NodeLiveness,
    /// Last heartbeat sequence.
    pub last_seq: u64,
    slots: Vec<GpuSlot>,
    /// Reservations per job: bytes per GPU plus the exact slot indices
    /// debited, so release undoes precisely what reserve did even when a
    /// reservation could only be partially satisfied.
    reservations: HashMap<JobId, (u64, Vec<usize>)>,
}

impl NodeEntry {
    /// New entry at registration time.
    pub(crate) fn new(
        uid: NodeUid,
        machine_id: String,
        hostname: String,
        gpus: Vec<GpuInfo>,
    ) -> Self {
        let slots = gpus
            .into_iter()
            .map(|info| GpuSlot {
                reported_free: info.vram_bytes,
                reserved: 0,
                info,
            })
            .collect();
        NodeEntry {
            uid,
            machine_id,
            hostname,
            liveness: NodeLiveness::Active,
            last_seq: 0,
            slots,
            reservations: HashMap::new(),
        }
    }

    /// Current liveness.
    pub fn liveness(&self) -> NodeLiveness {
        self.liveness
    }

    /// GPU count.
    pub fn gpu_count(&self) -> usize {
        self.slots.len()
    }

    pub(crate) fn apply_heartbeat(&mut self, seq: u64, accepting: bool, stats: &[GpuStat]) {
        self.last_seq = seq;
        if self.liveness != NodeLiveness::Departing {
            self.liveness = if accepting {
                NodeLiveness::Active
            } else {
                NodeLiveness::Paused
            };
        }
        for (slot, stat) in self.slots.iter_mut().zip(stats) {
            slot.reported_free = stat.memory_total.saturating_sub(stat.memory_used);
        }
    }

    /// How many GPUs could take a job needing `mem` bytes and `min_cc`?
    pub fn eligible_gpus(&self, mem: u64, min_cc: Option<(u8, u8)>) -> usize {
        self.slots
            .iter()
            .filter(|s| {
                s.effective_free() >= mem
                    && min_cc
                        .is_none_or(|(maj, min)| (s.info.cc_major, s.info.cc_minor) >= (maj, min))
            })
            .count()
    }

    /// Can this node host `spec` right now (liveness aside)?
    pub fn eligible_for(&self, spec: &DispatchSpec) -> bool {
        self.eligible_gpus(spec.gpu_mem_bytes, spec.min_cc) >= spec.gpus as usize
    }

    /// Like [`Self::eligible_for`], but counting capacity reserved by
    /// `holder` itself as free — a job's own held home slot must satisfy
    /// that job's eligibility check without mutating any state. The credit
    /// is applied to the slot's *reserved* bytes (what releasing the hold
    /// would actually restore), so a slot whose reported free VRAM shrank
    /// underneath the hold is not over-counted.
    pub fn eligible_for_holder(&self, spec: &DispatchSpec, holder: JobId) -> bool {
        let own = self.reservations.get(&holder);
        let eligible = self
            .slots
            .iter()
            .enumerate()
            .filter(|(i, s)| {
                let credit = match own {
                    Some((mem, taken)) if taken.contains(i) => *mem,
                    _ => 0,
                };
                let avail = s.reported_free.saturating_sub(s.reserved - credit);
                avail >= spec.gpu_mem_bytes
                    && spec
                        .min_cc
                        .is_none_or(|(maj, min)| (s.info.cc_major, s.info.cc_minor) >= (maj, min))
            })
            .count();
        eligible >= spec.gpus as usize
    }

    /// Largest single-slot effective free VRAM (the index bucket input).
    pub fn max_slot_free(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| s.effective_free())
            .max()
            .unwrap_or(0)
    }

    /// Highest compute capability present on the node.
    pub(crate) fn max_cc(&self) -> (u8, u8) {
        self.slots
            .iter()
            .map(|s| (s.info.cc_major, s.info.cc_minor))
            .max()
            .unwrap_or((0, 0))
    }

    /// Reserve `gpus` slots of `mem` bytes on slots meeting `min_cc` (the
    /// same per-slot criterion `eligible_gpus` counts, so a reservation
    /// paired with an eligibility check debits slots the job can actually
    /// use). Idempotent per job (a stale reservation is dropped first, so
    /// repeated migrate-back holds can't double-count). Records exactly
    /// which slots were debited; returns false when fewer than `gpus`
    /// qualifying slots had room — the partial debit is still tracked, so
    /// release stays exact.
    pub(crate) fn reserve(
        &mut self,
        job: JobId,
        gpus: u8,
        mem: u64,
        min_cc: Option<(u8, u8)>,
    ) -> bool {
        self.release(job);
        let mut taken = Vec::with_capacity(gpus as usize);
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if taken.len() == gpus as usize {
                break;
            }
            let cc_ok = min_cc
                .is_none_or(|(maj, min)| (slot.info.cc_major, slot.info.cc_minor) >= (maj, min));
            if cc_ok && slot.effective_free() >= mem {
                slot.reserved += mem;
                taken.push(i);
            }
        }
        let complete = taken.len() == gpus as usize;
        self.reservations.insert(job, (mem, taken));
        complete
    }

    /// Undo a reservation: credits back exactly the slots reserve debited,
    /// so one job's release can never strip bytes from another's. Returns
    /// whether `job` held one. A node holding no reservation — every beat
    /// lists its running jobs, which long since released theirs — answers
    /// without hashing.
    pub(crate) fn release(&mut self, job: JobId) -> bool {
        if self.reservations.is_empty() {
            return false;
        }
        let Some((mem, taken)) = self.reservations.remove(&job) else {
            return false;
        };
        for i in taken {
            if let Some(slot) = self.slots.get_mut(i) {
                slot.reserved = slot.reserved.saturating_sub(mem);
            }
        }
        true
    }

    /// Does `job` hold a reservation here?
    pub fn has_reservation(&self, job: JobId) -> bool {
        self.reservations.contains_key(&job)
    }
}
