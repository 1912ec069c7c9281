//! # gpunion-core — the assembled GPUnion platform
//!
//! Public API of the reproduction: deploy a campus ([`Platform`]), drive
//! scenarios ([`Scenario`]), and regenerate the paper's case studies
//! ([`case_study`]). Everything below (network, GPUs, containers,
//! workloads and their checkpoints, protocol, telemetry, scheduler,
//! agents) is re-exported through the corresponding crates.

#![forbid(unsafe_code)]

pub mod case_study;
pub mod platform;
pub mod scenario;

pub use case_study::{
    attribute_displacements, campus_shape, run_fig2, run_fig3, run_table1, Fig2Report, Fig3Report,
    MigrationClassStats,
};
pub use platform::{
    Displacement, Injection, Payload, Platform, PlatformConfig, PlatformEvent, PlatformSim,
    PlatformStats,
};
pub use scenario::{InjectedInterruption, Scenario};

#[cfg(test)]
mod tests {
    use super::*;
    use gpunion_des::{SimDuration, SimTime};
    use gpunion_gpu::{GpuModel, ServerSpec};
    use gpunion_scheduler::JobEvent;
    use gpunion_workload::{InteractiveSpec, ModelClass, TrainingJobSpec};

    fn small_campus() -> Vec<ServerSpec> {
        vec![
            ServerSpec::workstation("ws-1", GpuModel::Rtx3090),
            ServerSpec::workstation("ws-2", GpuModel::Rtx3090),
        ]
    }

    #[test]
    fn end_to_end_job_completes() {
        let mut s = Scenario::new(PlatformConfig::default(), &small_campus());
        // ~10 min of work, checkpoint every 3 min.
        let mut spec = TrainingJobSpec::new(ModelClass::CnnSmall, 4_000);
        spec.checkpoint_interval = SimDuration::from_mins(3);
        s.submit_training_at(SimTime::from_secs(5), 0, spec);
        s.run_until(SimTime::from_secs(3_600));
        assert_eq!(s.world.stats.jobs_completed, 1);
        let job = s.job_of(0).unwrap();
        let started = s
            .world
            .stats
            .first_event(job, |e| matches!(e, JobEvent::Started { .. }))
            .expect("started");
        // Image pull (6.8 GB over 1 Gb/s ≈ 55 s) + verify + start.
        assert!(started.as_secs_f64() > 50.0, "{started}");
        assert!(started.as_secs_f64() < 180.0, "{started}");
        // Checkpoints were uploaded.
        assert!(s.world.stats.last_checkpoint.contains_key(&job));
    }

    #[test]
    fn emergency_departure_migrates_job() {
        let mut s = Scenario::new(PlatformConfig::default(), &small_campus());
        let mut spec = TrainingJobSpec::new(ModelClass::CnnSmall, 30_000); // ~74 min
        spec.checkpoint_interval = SimDuration::from_mins(5);
        s.submit_training_at(SimTime::from_secs(5), 0, spec);
        // Let it run ~20 min, then kill whichever node hosts it.
        s.run_until(SimTime::from_secs(1_200));
        let job = s.job_of(0).unwrap();
        let hosts = s.hosts().to_vec();
        let hosting = s
            .world
            .agent(hosts[0])
            .map(|a| a.workload_count())
            .unwrap_or(0);
        let victim = if hosting > 0 { hosts[0] } else { hosts[1] };
        s.run_until(SimTime::from_secs(1_201));
        s.act(|w, t| w.emergency_departure(t, victim));
        s.run_until(SimTime::from_secs(3 * 3600));
        // The job must have been displaced with a checkpoint and finished.
        assert_eq!(s.world.stats.jobs_completed, 1, "job finishes elsewhere");
        let d = s
            .world
            .stats
            .displacements
            .iter()
            .find(|d| d.job == job)
            .expect("displacement recorded");
        assert!(d.restore_seq.is_some(), "restored from checkpoint");
        assert!(d.restarted_at.is_some(), "restarted");
    }

    #[test]
    fn graceful_departure_checkpoints_before_leaving() {
        let mut s = Scenario::new(PlatformConfig::default(), &small_campus());
        let mut spec = TrainingJobSpec::new(ModelClass::CnnLarge, 50_000);
        spec.checkpoint_interval = SimDuration::from_mins(30); // rare periodic
        s.submit_training_at(SimTime::from_secs(5), 0, spec);
        s.run_until(SimTime::from_secs(900));
        let hosts = s.hosts().to_vec();
        let hosting = s
            .world
            .agent(hosts[0])
            .map(|a| a.workload_count())
            .unwrap_or(0);
        let victim = if hosting > 0 { hosts[0] } else { hosts[1] };
        s.run_until(SimTime::from_secs(901));
        s.act(|w, t| w.scheduled_departure(t, victim));
        s.run_until(SimTime::from_secs(4 * 3600));
        let job = s.job_of(0).unwrap();
        let d = s
            .world
            .stats
            .displacements
            .iter()
            .find(|d| d.job == job)
            .expect("displacement");
        // Graceful: the departure checkpoint made it out.
        assert!(
            d.restore_seq.is_some(),
            "graceful departure must preserve state"
        );
    }

    #[test]
    fn interactive_sessions_served_and_abandoned() {
        // One single-GPU node: 20 GB sessions exclude each other on a
        // 24 GB card, so the second one starves and gives up.
        let mut s = Scenario::new(
            PlatformConfig::default(),
            &[ServerSpec::workstation("ws-1", GpuModel::Rtx3090)],
        );
        let big = InteractiveSpec {
            gpu_mem_bytes: 20 << 30,
            duration: SimDuration::from_mins(45),
            patience: SimDuration::from_mins(5),
        };
        s.submit_interactive_at(SimTime::from_secs(10), 0, big.clone());
        s.submit_interactive_at(SimTime::from_secs(60), 1, big.clone());
        s.run_until(SimTime::from_secs(3_600));
        assert_eq!(s.world.stats.sessions_served, 1);
        assert_eq!(s.world.stats.sessions_abandoned, 1);
    }

    #[test]
    fn checkpoint_traffic_lands_in_accounting() {
        let mut s = Scenario::new(PlatformConfig::default(), &small_campus());
        let mut spec = TrainingJobSpec::new(ModelClass::TransformerSmall, 20_000);
        spec.checkpoint_interval = SimDuration::from_mins(2);
        s.submit_training_at(SimTime::from_secs(5), 0, spec);
        let end = SimTime::from_secs(1_800);
        s.run_until(end);
        // Count the transfers still in flight at the horizon too.
        s.world.net.settle(end);
        let ckpt = s
            .world
            .net
            .accounting()
            .class_total(gpunion_simnet::TrafficClass::Checkpoint);
        assert!(ckpt > 1e6, "checkpoint bytes on the wire: {ckpt}");
        let pulls = s
            .world
            .net
            .accounting()
            .class_total(gpunion_simnet::TrafficClass::ImagePull);
        assert!(pulls > 1e9, "image pull bytes: {pulls}");
    }

    #[test]
    fn utilization_reflects_running_jobs() {
        let mut s = Scenario::new(PlatformConfig::default(), &small_campus());
        s.submit_training_at(
            SimTime::from_secs(5),
            0,
            TrainingJobSpec::new(ModelClass::CnnSmall, 50_000),
        );
        s.run_until(SimTime::from_secs(3_600));
        let u = s.world.mean_utilization(SimTime::from_secs(3_600));
        // One of two single-GPU nodes busy most of the hour ≈ 0.4–0.5.
        assert!(u > 0.3 && u < 0.6, "mean utilization {u}");
    }
}
