//! Case-study runners reproducing §4's deployment and experiments.

use crate::platform::PlatformConfig;
use crate::scenario::Scenario;
use gpunion_baselines::{
    run_capacity_model, CampusShape, GpuShape, HostShape, Outcome, PlatformPolicy,
};
use gpunion_des::{RngPool, SimDuration, SimTime};
use gpunion_gpu::{paper_testbed, ServerSpec};
use gpunion_scheduler::JobEvent;
use gpunion_workload::{
    fig3_job_set, generate, paper_campus_labs, ChurnModel, InterruptionKind, Request, TraceConfig,
};

/// Convert server specs + lab ownership into the baselines' campus shape.
pub fn campus_shape(specs: &[ServerSpec]) -> CampusShape {
    let labs = paper_campus_labs();
    let mut owner_of_host = vec![gpunion_workload::LabId(0); specs.len()];
    for (i, lab) in labs.iter().enumerate() {
        for &h in &lab.owned_hosts {
            if h < owner_of_host.len() {
                owner_of_host[h] = gpunion_workload::LabId(i as u32);
            }
        }
    }
    CampusShape {
        hosts: specs
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.gpus.is_empty())
            .map(|(i, s)| HostShape {
                name: s.hostname.clone(),
                gpus: s
                    .gpus
                    .iter()
                    .map(|m| {
                        let sp = m.spec();
                        GpuShape {
                            vram_bytes: sp.vram_bytes,
                            cc: (sp.compute_capability.major, sp.compute_capability.minor),
                            fp32_tflops: sp.fp32_tflops,
                        }
                    })
                    .collect(),
                owner: owner_of_host[i],
            })
            .collect(),
    }
}

/// Fig. 2 report: utilization before (manual coordination) and after
/// (GPUnion) on the same trace, plus interactive-session service.
#[derive(Debug)]
pub struct Fig2Report {
    /// (hostname, manual utilization, gpunion utilization).
    pub per_server: Vec<(String, f64, f64)>,
    /// Campus mean under manual coordination.
    pub manual_mean: f64,
    /// Campus mean under GPUnion.
    pub gpunion_mean: f64,
    /// Sessions served manual / gpunion.
    pub sessions_manual: u64,
    /// Sessions served by GPUnion.
    pub sessions_gpunion: u64,
}

/// Run the Fig. 2 comparison. `weeks` ≤ 6 (the paper's horizon); smaller
/// values run faster with the same structure. `seed` fixes the trace.
pub fn run_fig2(weeks: u64, seed: u64) -> Fig2Report {
    let specs = paper_testbed();
    let labs = paper_campus_labs();
    let horizon = SimDuration::from_days(weeks * 7);
    let cfg = TraceConfig {
        horizon,
        ..Default::default()
    };
    let pool = RngPool::new(seed);
    let trace = generate(&labs, &cfg, &pool);

    // --- manual-coordination baseline (capacity model) ---
    let shape = campus_shape(&specs);
    let manual = run_capacity_model(
        "manual",
        &shape,
        &trace,
        &[],
        &[],
        &[],
        PlatformPolicy::manual(),
        horizon,
        &pool,
    );

    // --- GPUnion (full protocol stack) ---
    let mut config = PlatformConfig {
        seed,
        ..Default::default()
    };
    // Slow the heartbeat to keep the six-week event count tractable; the
    // failure-detection behaviour is unchanged (timeout is 3 beats).
    config.coordinator.heartbeat_period = SimDuration::from_secs(30);
    let mut scenario = Scenario::new(config, &specs);
    for (i, ev) in trace.iter().enumerate() {
        match &ev.request {
            Request::Training(spec) => scenario.submit_training_at(ev.at, i as u64, spec.clone()),
            Request::Interactive(spec) => {
                scenario.submit_interactive_at(ev.at, i as u64, spec.clone())
            }
        }
    }
    let end = SimTime::ZERO + horizon;
    scenario.run_until(end);

    let gpunion_mean = scenario.world.mean_utilization(end);
    let by_host = scenario.world.utilization_by_host(end);
    let per_server = by_host
        .into_iter()
        .enumerate()
        .map(|(i, (_, name, util))| {
            let manual_util = manual.per_host_utilization.get(i).copied().unwrap_or(0.0);
            (name, manual_util, util)
        })
        .collect();
    Fig2Report {
        per_server,
        manual_mean: manual.mean_utilization,
        gpunion_mean,
        sessions_manual: manual.sessions_served,
        sessions_gpunion: scenario.world.stats.sessions_served,
    }
}

/// Per-interruption-class migration outcomes (Fig. 3).
#[derive(Debug, Default, Clone)]
pub struct MigrationClassStats {
    /// Interruption events of this class.
    pub events: usize,
    /// Displacements attributed to the class.
    pub displacements: usize,
    /// Displacements that resumed from a durable checkpoint (restored
    /// state, then restarted) — the paper's "successful migration".
    pub restored: usize,
    /// Displacements that restarted **from scratch**: the job resumed,
    /// but before its first checkpoint existed, so all work was lost.
    /// Scored separately from `restored` per the emergency-departure
    /// semantics note (a from-scratch restart is a real recovery under
    /// "resumed at all" scoring, but not a checkpoint restore).
    pub restarted: usize,
    /// Mean downtime (displacement → running again), seconds.
    pub mean_downtime_secs: f64,
    /// Mean work lost (last checkpoint → displacement), seconds.
    pub mean_lost_secs: f64,
    /// Displacements that returned to their original node (temporary class).
    pub migrated_back: usize,
    /// Displacements excluded from attribution because they hit within one
    /// restart window of the horizon end: recovery (failure detection,
    /// requeue, redispatch, restore) takes up to that long, so tail events
    /// cannot be fairly scored and would read as false failures on small
    /// samples.
    pub tail_excluded: usize,
}

impl MigrationClassStats {
    /// Displacements that resumed at all — from a checkpoint or from
    /// scratch. The "resumed" scoring the ROADMAP's emergency-semantics
    /// note asks for: an emergency displacement that restarts before its
    /// first checkpoint recovered the *job*, just not its work.
    pub fn resumed(&self) -> usize {
        self.restored + self.restarted
    }
}

/// Fig. 3 report.
#[derive(Debug)]
pub struct Fig3Report {
    /// Scheduled / emergency / temporary stats.
    pub scheduled: MigrationClassStats,
    /// Emergency departures.
    pub emergency: MigrationClassStats,
    /// Temporary unavailability.
    pub temporary: MigrationClassStats,
    /// Jobs completed within the horizon.
    pub jobs_completed: u64,
    /// Total jobs.
    pub jobs_total: usize,
}

impl Fig3Report {
    /// Overall scheduled-departure migration success rate (the paper's
    /// 94 %): restored from a checkpoint and running again.
    pub fn scheduled_success_rate(&self) -> f64 {
        if self.scheduled.displacements == 0 {
            return 0.0;
        }
        self.scheduled.restored as f64 / self.scheduled.displacements as f64
    }

    /// Emergency-departure recovery under "resumed at all" semantics:
    /// restored-from-checkpoint plus restarted-from-scratch, over the
    /// fairly-scorable displacements.
    pub fn emergency_resumed_rate(&self) -> f64 {
        if self.emergency.displacements == 0 {
            return 0.0;
        }
        self.emergency.resumed() as f64 / self.emergency.displacements as f64
    }

    /// Migrate-back rate for temporary unavailability (the paper's 67 %).
    pub fn migrate_back_rate(&self) -> f64 {
        if self.temporary.displacements == 0 {
            return 0.0;
        }
        self.temporary.migrated_back as f64 / self.temporary.displacements as f64
    }
}

/// Run the Fig. 3 interruption experiment: the 20-job training mix cycled
/// over a small fleet with 2 volunteer (churning) nodes, over `days` days
/// at `events_per_day` interruptions per volunteer.
pub fn run_fig3(days: u64, events_per_day: f64, seed: u64) -> Fig3Report {
    let config = PlatformConfig {
        seed,
        ..Default::default()
    };
    // 4 workstations: hosts 0,1 are the churning volunteers; 2,3 are the
    // stable backstop migration targets.
    let specs: Vec<ServerSpec> = (0..4)
        .map(|i| ServerSpec::workstation(format!("vol-{i}"), gpunion_gpu::GpuModel::Rtx3090))
        .collect();
    let mut scenario = Scenario::new(config, &specs);

    let jobs = fig3_job_set();
    // Cycle the job mix so arrivals cover the whole horizon at ~90% fleet
    // occupancy (the paper's jobs run throughout the period): one ~6–14 h
    // job every ~3 h keeps the volunteers almost always hosting work (so
    // every interruption class gets displacement samples) while leaving
    // enough slack for displaced work to finish inside the horizon.
    let jobs_total = (days * 9).max(1) as usize;
    let spacing = (days * 86_400).saturating_sub(40_000) / jobs_total as u64;
    for i in 0..jobs_total {
        let spec = jobs[i % jobs.len()].clone();
        scenario.submit_training_at(SimTime::from_secs(60 + i as u64 * spacing), i as u64, spec);
    }

    let churn = ChurnModel {
        events_per_day,
        ..Default::default()
    };
    let horizon = SimDuration::from_days(days);
    let events = churn.generate(2, horizon, &RngPool::new(seed ^ 0xF16));
    let volunteers = [scenario.hosts()[0], scenario.hosts()[1]];
    scenario.inject_interruptions(&events, &volunteers);

    let end = SimTime::ZERO + horizon;
    scenario.run_until(end);

    let [scheduled, emergency, temporary] = attribute_displacements(
        &scenario.injected,
        &scenario.world.stats,
        end,
        // A displacement on a node within 10 min of that node losing its
        // workloads belongs to the triggering event. (Heartbeat-loss
        // detection adds up to 3 beats.)
        SimDuration::from_mins(10),
        // One restart window: the slack a displaced job needs before the
        // horizon to have a fair shot at restarting (failure detection,
        // requeue behind the backlog, redispatch, restore).
        SimDuration::from_mins(30),
    );
    Fig3Report {
        scheduled,
        emergency,
        temporary,
        jobs_completed: scenario.world.stats.jobs_completed,
        jobs_total,
    }
}

/// Attribute displacements to interruption classes (scheduled, emergency,
/// temporary — in that order), the Fig. 3 scoring pass.
///
/// A displacement belongs to the latest injection at or before it within
/// `attribution_window`. Displacements within `restart_window` of the
/// horizon `end` are **censored** — counted as `tail_excluded`, removed
/// from both numerator and denominator: recovery (failure detection,
/// requeue, redispatch, restore) takes up to that long, so a tail event
/// that "never restarted" is a measurement artifact, not a migration
/// failure, and on Fig. 3's small samples one such event distorts the
/// class rate by tens of points.
pub fn attribute_displacements(
    injected: &[crate::scenario::InjectedInterruption],
    stats: &crate::platform::PlatformStats,
    end: SimTime,
    attribution_window: SimDuration,
    restart_window: SimDuration,
) -> [MigrationClassStats; 3] {
    let mut per_class = [
        MigrationClassStats::default(),
        MigrationClassStats::default(),
        MigrationClassStats::default(),
    ];
    let class_idx = |k: InterruptionKind| match k {
        InterruptionKind::ScheduledDeparture => 0usize,
        InterruptionKind::EmergencyDeparture => 1,
        InterruptionKind::TemporaryUnavailability => 2,
    };
    for inj in injected {
        per_class[class_idx(inj.kind)].events += 1;
    }
    // Migrate-back is recorded on the *preemption* displacement (the
    // scheduler checkpoints and moves the job home), which happens well
    // after the triggering outage — credit it to the job instead.
    let jobs_migrated_back: std::collections::HashSet<_> = stats
        .displacements
        .iter()
        .filter(|d| d.migrated_back)
        .map(|d| d.job)
        .collect();
    let mut downtime_sums = [0.0f64; 3];
    let mut lost_sums = [0.0f64; 3];
    for d in &stats.displacements {
        // Find the triggering injection: latest injection at or before the
        // displacement within the window.
        let inj = injected
            .iter()
            .filter(|i| i.at <= d.at && d.at.since(i.at) <= attribution_window)
            .max_by_key(|i| i.at);
        let Some(inj) = inj else { continue };
        let idx = class_idx(inj.kind);
        let c = &mut per_class[idx];
        if end.since(d.at) <= restart_window {
            c.tail_excluded += 1;
            continue;
        }
        c.displacements += 1;
        // A displacement that resumed either restored from a durable
        // checkpoint or — displaced before its first checkpoint existed —
        // restarted from scratch. The two are scored separately.
        if d.restarted_at.is_some() {
            if d.restore_seq.is_some() {
                c.restored += 1;
            } else {
                c.restarted += 1;
            }
        }
        if let Some(r) = d.restarted_at {
            downtime_sums[idx] += r.since(d.at).as_secs_f64();
        }
        let last_ckpt = stats.last_checkpoint.get(&d.job).copied();
        let started = stats.first_event(d.job, |e| matches!(e, JobEvent::Started { .. }));
        let anchor = last_ckpt.or(started);
        if let Some(a) = anchor {
            lost_sums[idx] += d.at.since(a).as_secs_f64();
        }
        if d.migrated_back || jobs_migrated_back.contains(&d.job) {
            c.migrated_back += 1;
        }
    }
    for (i, c) in per_class.iter_mut().enumerate() {
        if c.displacements > 0 {
            c.mean_downtime_secs = downtime_sums[i] / c.displacements as f64;
            c.mean_lost_secs = lost_sums[i] / c.displacements as f64;
        }
    }
    per_class
}

/// Table 1 quantitative proxies: run every platform policy over the same
/// trace with churn and reclaim probes.
pub fn run_table1(weeks: u64, seed: u64) -> Vec<Outcome> {
    let specs = paper_testbed();
    let shape = campus_shape(&specs);
    let labs = paper_campus_labs();
    let horizon = SimDuration::from_days(weeks * 7);
    let pool = RngPool::new(seed);
    let trace = generate(
        &labs,
        &TraceConfig {
            horizon,
            ..Default::default()
        },
        &pool,
    );
    let churn = ChurnModel::default().generate(4, horizon, &RngPool::new(seed ^ 0x7AB));
    let churn_hosts: Vec<usize> = vec![0, 2, 5, 8];
    // Reclaim probes: owners of hosts 0..4 want their machines back daily.
    let mut probes = Vec::new();
    for day in 1..weeks * 7 {
        probes.push((
            SimTime::from_secs(day * 86_400 + 3600 * 14),
            (day % 4) as usize,
        ));
    }
    [
        ("manual-coordination", PlatformPolicy::manual()),
        ("kubernetes-like", PlatformPolicy::centralized()),
        ("slurm-like", PlatformPolicy::reservation()),
        (
            "gpunion",
            PlatformPolicy::gpunion(SimDuration::from_mins(10)),
        ),
    ]
    .into_iter()
    .map(|(name, policy)| {
        run_capacity_model(
            name,
            &shape,
            &trace,
            &churn,
            &churn_hosts,
            &probes,
            policy,
            horizon,
            &pool,
        )
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression for the fig3 emergency-departure attribution: a
    /// displacement hitting within one restart window of the horizon end
    /// never gets the chance to restart, and used to read as a migration
    /// failure (75% on 4-sample emergency rows). It must be censored —
    /// excluded from numerator AND denominator — so the corrected rate
    /// reflects only fairly-scored displacements.
    #[test]
    fn tail_displacements_are_censored_not_failed() {
        use crate::platform::{Displacement, PlatformStats};
        use crate::scenario::InjectedInterruption;
        use gpunion_protocol::JobId;
        use gpunion_simnet::NodeId;

        let t = |s: u64| SimTime::from_secs(s);
        let end = t(10_000);
        let host = NodeId(0);
        let injected = vec![
            InjectedInterruption {
                at: t(3_000),
                host,
                kind: InterruptionKind::EmergencyDeparture,
                returns_at: t(4_000),
            },
            InjectedInterruption {
                at: t(9_500),
                host,
                kind: InterruptionKind::EmergencyDeparture,
                returns_at: t(11_000),
            },
        ];
        let mut stats = PlatformStats::default();
        // Mid-run displacement: restored from a checkpoint and restarted.
        stats.displacements.push(Displacement {
            job: JobId(1),
            at: t(3_010),
            restore_seq: Some(4),
            restarted_at: Some(t(3_400)),
            migrated_back: false,
        });
        // Tail displacement: 490 s before the horizon — no restart window
        // left, so it never restarted. Not a migration failure.
        stats.displacements.push(Displacement {
            job: JobId(2),
            at: t(9_510),
            restore_seq: Some(9),
            restarted_at: None,
            migrated_back: false,
        });
        let [_, emergency, _] = attribute_displacements(
            &injected,
            &stats,
            end,
            SimDuration::from_mins(10),
            SimDuration::from_mins(30),
        );
        assert_eq!(emergency.events, 2);
        assert_eq!(emergency.tail_excluded, 1, "tail event censored");
        assert_eq!(emergency.displacements, 1, "denominator excludes the tail");
        assert_eq!(emergency.restored, 1, "mid-run event restored from ckpt");
        assert_eq!(emergency.restarted, 0, "nothing restarted from scratch");
        let rate = emergency.restored as f64 / emergency.displacements as f64;
        assert_eq!(rate, 1.0, "corrected rate: 100%, not the tail-biased 50%");
    }

    /// A displacement before the job's first checkpoint that resumes is a
    /// from-scratch `restarted`, not a checkpoint `restored` — the split
    /// the ROADMAP's emergency-semantics note asks for. Both count as
    /// "resumed"; neither inflates the other's rate.
    #[test]
    fn pre_first_checkpoint_restart_scores_as_restarted_not_restored() {
        use crate::platform::{Displacement, PlatformStats};
        use crate::scenario::InjectedInterruption;
        use gpunion_protocol::JobId;
        use gpunion_simnet::NodeId;

        let t = |s: u64| SimTime::from_secs(s);
        let injected = vec![InjectedInterruption {
            at: t(3_000),
            host: NodeId(0),
            kind: InterruptionKind::EmergencyDeparture,
            returns_at: t(4_000),
        }];
        let mut stats = PlatformStats::default();
        // Displaced before any checkpoint existed; resumed from scratch.
        stats.displacements.push(Displacement {
            job: JobId(1),
            at: t(3_010),
            restore_seq: None,
            restarted_at: Some(t(3_500)),
            migrated_back: false,
        });
        // Displaced with a durable checkpoint; restored.
        stats.displacements.push(Displacement {
            job: JobId(2),
            at: t(3_020),
            restore_seq: Some(3),
            restarted_at: Some(t(3_600)),
            migrated_back: false,
        });
        // Never resumed within the horizon: counts in neither bucket.
        stats.displacements.push(Displacement {
            job: JobId(3),
            at: t(3_030),
            restore_seq: Some(1),
            restarted_at: None,
            migrated_back: false,
        });
        let [_, emergency, _] = attribute_displacements(
            &injected,
            &stats,
            t(100_000),
            SimDuration::from_mins(10),
            SimDuration::from_mins(30),
        );
        assert_eq!(emergency.displacements, 3);
        assert_eq!(emergency.restored, 1);
        assert_eq!(emergency.restarted, 1);
        assert_eq!(emergency.resumed(), 2, "resumed = restored + restarted");
    }

    #[test]
    fn campus_shape_matches_testbed() {
        let shape = campus_shape(&paper_testbed());
        assert_eq!(shape.hosts.len(), 11);
        assert_eq!(shape.total_gpus(), 22);
    }

    #[test]
    fn table1_outcomes_ordered_as_paper_claims() {
        let outcomes = run_table1(1, 11);
        let find = |n: &str| outcomes.iter().find(|o| o.platform == n).unwrap();
        let manual = find("manual-coordination");
        let gpunion = find("gpunion");
        let k8s = find("kubernetes-like");
        // Pooling beats manual coordination on utilization.
        assert!(
            gpunion.mean_utilization > manual.mean_utilization + 0.1,
            "gpunion {} vs manual {}",
            gpunion.mean_utilization,
            manual.mean_utilization
        );
        // Kill-switch reclaim is orders faster than drain.
        let g = gpunion.reclaim_latency.mean().unwrap_or(0.0);
        let k = k8s.reclaim_latency.mean().unwrap_or(0.0);
        assert!(g < 10.0, "gpunion reclaim {g}");
        assert!(k > g * 10.0, "k8s reclaim {k} vs {g}");
    }
}
