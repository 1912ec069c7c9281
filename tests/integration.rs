//! Cross-crate integration tests: the full platform exercised end-to-end.

use gpunion::core::{PlatformConfig, Scenario};
use gpunion::des::{SimDuration, SimTime};
use gpunion::gpu::{GpuModel, ServerSpec};
use gpunion::scheduler::JobEvent;
use gpunion::simnet::TrafficClass;
use gpunion::workload::{
    ChurnModel, InteractiveSpec, InterruptionEvent, InterruptionKind, ModelClass, TrainingJobSpec,
};
use gpunion_des::RngPool;

fn campus(n: usize) -> Vec<ServerSpec> {
    (0..n)
        .map(|i| ServerSpec::workstation(format!("ws-{i}"), GpuModel::Rtx3090))
        .collect()
}

#[test]
fn many_jobs_complete_across_heterogeneous_fleet() {
    let specs = vec![
        ServerSpec::workstation("ws-1", GpuModel::Rtx3090),
        ServerSpec::multi_gpu("rack", GpuModel::Rtx4090, 4),
        ServerSpec::workstation("ws-2", GpuModel::A6000),
    ];
    let mut s = Scenario::new(PlatformConfig::default(), &specs);
    for i in 0..8u64 {
        let mut spec = TrainingJobSpec::new(ModelClass::CnnSmall, 8_000);
        spec.checkpoint_interval = SimDuration::from_mins(5);
        s.submit_training_at(SimTime::from_secs(10 + i * 30), i, spec);
    }
    s.run_until(SimTime::from_secs(4 * 3600));
    assert_eq!(s.world.stats.jobs_completed, 8, "all jobs finish");
}

#[test]
fn sustained_churn_never_loses_jobs() {
    // 4 nodes, all churning at 3 events/day for 2 days; jobs keep finishing.
    let specs = campus(4);
    let mut s = Scenario::new(PlatformConfig::default(), &specs);
    for i in 0..6u64 {
        let mut spec = TrainingJobSpec::new(ModelClass::CnnSmall, 20_000); // ~49 min
        spec.checkpoint_interval = SimDuration::from_mins(5);
        s.submit_training_at(SimTime::from_secs(10 + i * 600), i, spec);
    }
    let churn = ChurnModel {
        events_per_day: 3.0,
        ..Default::default()
    }
    .generate(2, SimDuration::from_days(2), &RngPool::new(5));
    let volunteers = [s.hosts()[0], s.hosts()[1]];
    s.inject_interruptions(&churn, &volunteers);
    s.run_until(SimTime::from_secs(2 * 86_400));
    let stats = &s.world.stats;
    // Every job either completed or is still live — none failed.
    let failed = stats
        .job_log
        .values()
        .filter(|log| log.iter().any(|(_, e)| matches!(e, JobEvent::Failed)))
        .count();
    assert_eq!(failed, 0, "resilient execution never hard-fails jobs");
    assert!(
        stats.jobs_completed >= 5,
        "most jobs complete despite churn: {}",
        stats.jobs_completed
    );
}

#[test]
fn displaced_jobs_restore_from_checkpoints_not_scratch() {
    let specs = campus(3);
    let mut s = Scenario::new(PlatformConfig::default(), &specs);
    let mut spec = TrainingJobSpec::new(ModelClass::TransformerSmall, 50_000);
    spec.checkpoint_interval = SimDuration::from_mins(5);
    s.submit_training_at(SimTime::from_secs(5), 0, spec);
    // Interrupt well after several checkpoint cycles.
    let victim = s.hosts()[0];
    let backup = [s.hosts()[1], s.hosts()[2]];
    s.run_until(SimTime::from_secs(2_000));
    s.act(|w, now| {
        // Kill whichever node actually hosts something.
        let mut target = victim;
        for h in [victim, backup[0], backup[1]] {
            if w.agent(h).map(|a| a.workload_count()).unwrap_or(0) > 0 {
                target = h;
                break;
            }
        }
        w.emergency_departure(now, target);
    });
    s.run_until(SimTime::from_secs(6 * 3600));
    let d = &s.world.stats.displacements;
    assert!(!d.is_empty(), "displacement recorded");
    assert!(
        d.iter().all(|d| d.restore_seq.is_some()),
        "jobs restore from checkpoints, not from scratch: {d:?}"
    );
}

#[test]
fn telemetry_pipeline_scrapes_agent_metrics() {
    use gpunion::protocol::{HttpRequest, Method};
    use gpunion::telemetry::{parse, SeriesKey, TimeSeriesStore};

    let specs = campus(1);
    let mut s = Scenario::new(PlatformConfig::default(), &specs);
    s.submit_training_at(
        SimTime::from_secs(5),
        0,
        TrainingJobSpec::new(ModelClass::CnnSmall, 5_000),
    );
    s.run_until(SimTime::from_secs(600));
    // Scrape the agent's /metrics endpoint and ingest into a TSDB.
    let host = s.hosts()[0];
    let now = s.now();
    let agent = s.world.agent_mut(host).unwrap();
    let (resp, _) =
        gpunion::agent::rest::handle(agent, now, &HttpRequest::new(Method::Get, "/metrics"));
    assert_eq!(resp.status, 200);
    let text = String::from_utf8(resp.body).unwrap();
    let samples = parse(&text).expect("valid exposition format");
    assert!(!samples.is_empty());
    let mut db = TimeSeriesStore::new(128);
    db.ingest(now, &samples);
    let beats: Vec<&SeriesKey> = db.keys_for("agent_heartbeats_total");
    assert_eq!(beats.len(), 1);
    assert!(
        db.latest(beats[0]).unwrap().value > 10.0,
        "heartbeats flowed"
    );
}

#[test]
fn kill_switch_via_rest_displaces_to_other_node() {
    use gpunion::protocol::{HttpRequest, Method};

    let specs = campus(2);
    let mut s = Scenario::new(PlatformConfig::default(), &specs);
    let mut spec = TrainingJobSpec::new(ModelClass::CnnSmall, 40_000);
    spec.checkpoint_interval = SimDuration::from_mins(3);
    s.submit_training_at(SimTime::from_secs(5), 0, spec);
    s.run_until(SimTime::from_secs(1_000));
    // Find the hosting node and hit its kill-switch over the REST API.
    let hosts = s.hosts().to_vec();
    s.run_until(SimTime::from_secs(1_001));
    s.act(|w, now| {
        for h in hosts {
            if w.agent(h).map(|a| a.workload_count()).unwrap_or(0) > 0 {
                let agent = w.agent_mut(h).unwrap();
                let (resp, mut actions) = gpunion::agent::rest::handle(
                    agent,
                    now,
                    &HttpRequest::new(Method::Post, "/kill-switch"),
                );
                assert_eq!(resp.status, 200);
                w.apply_agent_actions(now, h, &mut actions);
                break;
            }
        }
    });
    s.run_until(SimTime::from_secs(4 * 3600));
    assert_eq!(
        s.world.stats.jobs_completed, 1,
        "job survives the kill-switch"
    );
    assert!(!s.world.stats.displacements.is_empty());
}

#[test]
fn sessions_share_gpus_by_memory() {
    // Three 8 GB sessions fit on one 24 GB card simultaneously.
    let specs = campus(1);
    let mut s = Scenario::new(PlatformConfig::default(), &specs);
    for i in 0..3u64 {
        s.submit_interactive_at(
            SimTime::from_secs(10 + i),
            i,
            InteractiveSpec {
                gpu_mem_bytes: 7 << 30,
                duration: SimDuration::from_mins(30),
                patience: SimDuration::from_mins(5),
            },
        );
    }
    s.run_until(SimTime::from_secs(3_600));
    assert_eq!(s.world.stats.sessions_served, 3, "memory-aware sharing");
    assert_eq!(s.world.stats.sessions_abandoned, 0);
}

#[test]
fn deterministic_replay() {
    let run = |seed: u64| {
        let specs = campus(3);
        let mut s = Scenario::new(
            PlatformConfig {
                seed,
                ..Default::default()
            },
            &specs,
        );
        for i in 0..5u64 {
            s.submit_training_at(
                SimTime::from_secs(10 + i * 100),
                i,
                TrainingJobSpec::new(ModelClass::CnnSmall, 10_000),
            );
        }
        s.run_until(SimTime::from_secs(2 * 3600));
        (
            s.world.stats.jobs_completed,
            s.world.net.messages_sent(),
            s.world.mean_utilization(SimTime::from_secs(2 * 3600)),
        )
    };
    let a = run(7);
    let b = run(7);
    assert_eq!(a, b, "same seed ⇒ identical run");
}

/// A reclaim storm in miniature, staged: 20 hosts pull the same image at
/// the same instant (the pulls end in the same nanosecond), then half the
/// fleet leaves within a minute and returns five minutes on.
fn mini_storm() -> Scenario {
    let mut s = Scenario::new(PlatformConfig::default(), &campus(20));
    for i in 0..24u64 {
        let mut spec = TrainingJobSpec::new(ModelClass::CnnSmall, 60_000);
        spec.checkpoint_interval = SimDuration::from_mins(2);
        s.submit_training_at(SimTime::from_secs(30), i, spec);
    }
    let kinds = [
        InterruptionKind::ScheduledDeparture,
        InterruptionKind::EmergencyDeparture,
        InterruptionKind::TemporaryUnavailability,
    ];
    let storm: Vec<InterruptionEvent> = (0..10)
        .map(|host| {
            let at = SimTime::from_secs(1_200 + 6 * (host as u64 % 5));
            InterruptionEvent {
                at,
                node_index: host,
                kind: kinds[host % kinds.len()],
                returns_at: at + SimDuration::from_mins(5),
            }
        })
        .collect();
    let hosts = s.hosts().to_vec();
    s.inject_interruptions(&storm, &hosts);
    s
}

/// The mini storm, twice in one process. Flows that end together leave
/// simnet in `FlowId` order and every flow byte is summed in one order, so
/// the displacement records agree *in order* and the bulk byte totals bit
/// for bit — no sorting, no tolerance.
#[test]
fn reclaim_storm_replays_in_order_and_to_the_bit() {
    let run = || {
        let mut s = mini_storm();
        let end = SimTime::from_secs(3_600);
        s.run_until(end);
        s.world.net.settle(end);
        let acct = s.world.net.accounting();
        let bulk = [
            TrafficClass::ImagePull,
            TrafficClass::Checkpoint,
            TrafficClass::Migration,
        ]
        .map(|class| acct.class_total(class).to_bits());
        (format!("{:?}", s.world.stats.displacements), bulk)
    };
    let (displacements, bulk) = run();
    assert!(
        displacements.matches("Displacement {").count() >= 8,
        "the storm displaces running jobs: {displacements}"
    );
    assert!(
        bulk.iter().all(|bits| f64::from_bits(*bits) > 0.0),
        "pulls, checkpoints and restores all moved bytes"
    );
    assert_eq!((displacements, bulk), run());
}

/// The world is a value: a scenario cloned mid-run and run on to the
/// horizon ends exactly where the original does — the same job log and
/// displacements, the same messages sent and dropped, and every traffic
/// class's byte total to the bit. Forked at three instants each on the
/// 2-day Fig. 3 run (seed 42) and on the mini storm (mid-pull, mid-storm
/// and with half the fleet away), so the forks carry in-flight messages,
/// flows, armed timers and queued injections.
#[test]
fn a_forked_run_ends_where_the_original_does() {
    let outcome = |mut s: Scenario, end: SimTime| {
        s.run_until(end);
        s.world.net.settle(end);
        let net = &s.world.net;
        let bytes = TrafficClass::ALL.map(|class| net.accounting().class_total(class).to_bits());
        (
            format!("{:?}", s.world.stats.job_log),
            format!("{:?}", s.world.stats.displacements),
            net.messages_sent(),
            net.messages_dropped(),
            bytes,
        )
    };
    let fig3 = gpunion::core::fig3_scenario(2, 1.5, 42).0;
    let hours = |h: u64| SimTime::from_secs(h * 3_600);
    let storm_at = [60, 1_215, 1_500].map(SimTime::from_secs);
    let runs = [
        (fig3, [hours(6), hours(25), hours(40)], hours(48)),
        (mini_storm(), storm_at, SimTime::from_secs(3_600)),
    ];
    for (mut original, fork_at, end) in runs {
        let mut forks = Vec::new();
        for at in fork_at {
            original.run_until(at);
            forks.push(original.clone());
        }
        let expected = outcome(original, end);
        assert!(expected.2 > 0 && !expected.4.iter().all(|&b| b == 0));
        for (at, fork) in fork_at.iter().zip(forks) {
            assert_eq!(outcome(fork, end), expected, "forked at {at}");
        }
    }
}

/// Regression for the fig3 migrate-back gap: under temporary provider
/// unavailability, displaced workloads must return to their original node
/// when the provider reconnects, at a rate near the paper's 67 %. This
/// broke twice before: harvested workloads leaked their GPU allocation (the
/// returning node advertised zero free VRAM forever), and stale rejection
/// exclusions could veto the home node after a displacement.
#[test]
fn migrate_back_tracks_paper_rate_under_temporary_unavailability() {
    let report = gpunion::core::run_fig3(7, 1.5, 42);
    assert!(
        report.temporary.displacements > 0,
        "the scenario must displace work via temporary unavailability"
    );
    let rate = report.migrate_back_rate();
    assert!(
        (0.52..=0.82).contains(&rate),
        "migrate-back rate {:.0}% outside paper's 67% ± 15 points \
         ({} of {} temporary displacements)",
        rate * 100.0,
        report.temporary.migrated_back,
        report.temporary.displacements,
    );
}
