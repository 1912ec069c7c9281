//! Shared shapes for platform comparison experiments.
//!
//! Fig. 2 compares GPUnion against the campus's previous manual coordination;
//! Table 1 positions it against centralized orchestrators (Kubernetes-like)
//! and reservation systems (Slurm-like). All platforms replay the *same*
//! demand trace over the *same* hardware, described by [`CampusShape`], and
//! report a common [`Outcome`].

use gpunion_des::{Online, SimDuration};
use gpunion_workload::LabId;

/// One GPU as the capacity models see it.
#[derive(Debug, Clone, Copy)]
pub struct GpuShape {
    /// VRAM bytes.
    pub vram_bytes: u64,
    /// Compute capability.
    pub cc: (u8, u8),
    /// Peak FP32 TFLOPS.
    pub fp32_tflops: f64,
}

/// One host.
#[derive(Debug, Clone)]
pub struct HostShape {
    /// Hostname for reports.
    pub name: String,
    /// Installed GPUs.
    pub gpus: Vec<GpuShape>,
    /// The lab that owns this machine.
    pub owner: LabId,
}

/// The whole campus.
#[derive(Debug, Clone)]
pub struct CampusShape {
    /// All GPU hosts (host index = position).
    pub hosts: Vec<HostShape>,
}

impl CampusShape {
    /// Total GPUs on campus.
    pub fn total_gpus(&self) -> usize {
        self.hosts.iter().map(|h| h.gpus.len()).sum()
    }

    /// Hosts owned by a lab.
    pub fn hosts_of(&self, lab: LabId) -> Vec<usize> {
        self.hosts
            .iter()
            .enumerate()
            .filter(|(_, h)| h.owner == lab)
            .map(|(i, _)| i)
            .collect()
    }
}

/// Common outcome every platform reports.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Platform label.
    pub platform: String,
    /// Campus-wide time-weighted mean GPU utilization in `[0,1]`.
    pub mean_utilization: f64,
    /// Per-host time-weighted utilization.
    pub per_host_utilization: Vec<f64>,
    /// Interactive sessions served before the user gave up.
    pub sessions_served: u64,
    /// Sessions abandoned waiting.
    pub sessions_abandoned: u64,
    /// Training jobs completed within the horizon.
    pub jobs_completed: u64,
    /// Training jobs that never finished (still queued/running or lost).
    pub jobs_unfinished: u64,
    /// Mean queue wait for training jobs.
    pub job_wait: Online,
    /// Job disruptions (kills/restarts caused by churn).
    pub disruptions: u64,
    /// Provider reclaim latency samples (how long until an owner gets the
    /// machine back) — the Table 1 "Provider Autonomy" quantity.
    pub reclaim_latency: Online,
    /// Time for a new node to start receiving work — Table 1's "Dynamic
    /// Node Joining".
    pub join_turnaround: Online,
}

impl Outcome {
    /// Served fraction of interactive sessions.
    pub fn session_service_rate(&self) -> f64 {
        let total = self.sessions_served + self.sessions_abandoned;
        if total == 0 {
            return 0.0;
        }
        self.sessions_served as f64 / total as f64
    }
}

/// How a platform reacts to a provider leaving.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChurnReaction {
    /// Jobs on the node are lost and restart from iteration zero elsewhere
    /// (a platform with infrastructure-level fault tolerance only).
    RestartFromScratch,
    /// Jobs resume from the last application-level checkpoint (GPUnion).
    CheckpointRestore {
        /// Checkpoint interval.
        interval: SimDuration,
    },
    /// Jobs are killed and the submitter must resubmit by hand after a
    /// human delay (manual coordination).
    ManualResubmit {
        /// Median resubmission delay.
        median_delay: SimDuration,
    },
}

/// Who can place work where.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Visibility {
    /// Labs see only their own machines; cross-lab borrowing succeeds with
    /// some probability after a negotiation delay (manual coordination).
    OwnLabOnly {
        /// Probability a borrowing attempt succeeds at all.
        borrow_success: f64,
        /// Median negotiation delay before borrowed capacity is usable.
        negotiation_median: SimDuration,
    },
    /// One shared pool (every orchestrated platform).
    Global,
}

/// Full policy description of one platform.
#[derive(Debug, Clone, Copy)]
pub struct PlatformPolicy {
    /// Placement visibility.
    pub visibility: Visibility,
    /// Reaction to provider churn.
    pub churn: ChurnReaction,
    /// Reservation padding factor: jobs block GPUs for
    /// `expected_duration × padding` regardless of actual completion
    /// (Slurm-style walltime requests). 1.0 = release on completion.
    pub reservation_padding: f64,
    /// Time between a node joining and the platform using it.
    pub join_overhead: SimDuration,
    /// Can an owner instantly reclaim (kill-switch)? Otherwise they wait
    /// for drain (running jobs/reservations to finish).
    pub instant_reclaim: bool,
}

impl PlatformPolicy {
    /// The paper's manual-coordination status quo.
    pub fn manual() -> Self {
        PlatformPolicy {
            visibility: Visibility::OwnLabOnly {
                borrow_success: 0.10,
                negotiation_median: SimDuration::from_hours(6),
            },
            churn: ChurnReaction::ManualResubmit {
                median_delay: SimDuration::from_hours(2),
            },
            reservation_padding: 1.0,
            join_overhead: SimDuration::from_hours(24), // "ask the admin"
            instant_reclaim: true,                      // it's your machine
        }
    }

    /// A Kubernetes-like centralized orchestrator.
    pub fn centralized() -> Self {
        PlatformPolicy {
            visibility: Visibility::Global,
            churn: ChurnReaction::RestartFromScratch,
            reservation_padding: 1.0,
            join_overhead: SimDuration::from_mins(12), // node provisioning
            instant_reclaim: false,                    // drain only
        }
    }

    /// A Slurm-like reservation system.
    pub fn reservation() -> Self {
        PlatformPolicy {
            visibility: Visibility::Global,
            churn: ChurnReaction::RestartFromScratch,
            reservation_padding: 1.5, // users pad walltime requests
            join_overhead: SimDuration::from_hours(4), // partition reconfig
            instant_reclaim: false,   // wait out the reservation
        }
    }

    /// GPUnion's policy expressed in the same vocabulary (used by the
    /// capacity-model variant for Table 1; the full protocol stack lives in
    /// `gpunion-core`).
    pub fn gpunion(checkpoint_interval: SimDuration) -> Self {
        PlatformPolicy {
            visibility: Visibility::Global,
            churn: ChurnReaction::CheckpointRestore {
                interval: checkpoint_interval,
            },
            reservation_padding: 1.0,
            join_overhead: SimDuration::from_secs(30), // agent registration
            instant_reclaim: true,                     // kill-switch
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campus_shape_queries() {
        let campus = CampusShape {
            hosts: vec![
                HostShape {
                    name: "a".into(),
                    gpus: vec![GpuShape {
                        vram_bytes: 24 << 30,
                        cc: (8, 6),
                        fp32_tflops: 35.6,
                    }],
                    owner: LabId(0),
                },
                HostShape {
                    name: "b".into(),
                    gpus: vec![
                        GpuShape {
                            vram_bytes: 40 << 30,
                            cc: (8, 0),
                            fp32_tflops: 19.5,
                        };
                        2
                    ],
                    owner: LabId(1),
                },
            ],
        };
        assert_eq!(campus.total_gpus(), 3);
        assert_eq!(campus.hosts_of(LabId(1)), vec![1]);
        assert!(campus.hosts_of(LabId(9)).is_empty());
    }

    #[test]
    fn policies_differ_where_table1_says() {
        let m = PlatformPolicy::manual();
        let k = PlatformPolicy::centralized();
        let s = PlatformPolicy::reservation();
        let g = PlatformPolicy::gpunion(SimDuration::from_mins(10));
        // Provider autonomy: only manual (own box) and GPUnion reclaim fast.
        assert!(m.instant_reclaim && g.instant_reclaim);
        assert!(!k.instant_reclaim && !s.instant_reclaim);
        // Voluntary-participation friction: join overhead ordering.
        assert!(g.join_overhead < k.join_overhead);
        assert!(k.join_overhead < s.join_overhead);
        assert!(s.join_overhead < m.join_overhead);
        // Only Slurm pads reservations.
        assert!(s.reservation_padding > 1.0);
        assert_eq!(k.reservation_padding, 1.0);
    }

    #[test]
    fn outcome_session_rate() {
        let mut o = Outcome::default();
        assert_eq!(o.session_service_rate(), 0.0);
        o.sessions_served = 3;
        o.sessions_abandoned = 1;
        assert_eq!(o.session_service_rate(), 0.75);
    }
}
