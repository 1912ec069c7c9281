//! One repetition of one workload on the real `Platform`: set-up, the timed
//! (sliced) `run_until`, and everything read off the finished world — the
//! simulated outcomes, the counts, the output checks and the digest.

use crate::clock::Stopwatch;
use crate::trace::Recorder;
use crate::workloads::{Plan, Staged, Workload, QUICK_DIVISOR};
use crate::{alloc, metrics};
use gpunion_core::{Injection, Platform, PlatformConfig, PlatformEvent, PlatformSim};
use gpunion_des::{SimDuration, SimTime};
use gpunion_protocol::JobId;
use gpunion_scheduler::JobEvent;
use gpunion_simnet::{NodeId, TrafficClass};
use std::collections::BTreeMap;

/// The timed region advances in this many equal simulated-time slices, a
/// clock probe between each pair.
pub const SLICES: u64 = 240;
/// The traced run groups them into this many `run_slice` spans.
pub const TRACE_SLICES: u64 = 24;
/// Registration is sampled in steps of this many simulated seconds.
const REGISTRATION_STEP_SECS: u64 = 10;
/// Displacements this close to the horizon are censored (fig3's rule).
const CENSOR_SECS: u64 = 30 * 60;

/// What one repetition measured.
pub struct Rep {
    /// Plan generation, deploy, boot and injection; compensated seconds.
    pub setup_s: f64,
    /// The timed `run_until` slices; compensated seconds.
    pub wall_s: f64,
    pub raw_wall_s: f64,
    /// Host speed during the timed region as a share of nominal.
    pub clock_ratio: f64,
    /// Compensated seconds of each of the [`TRACE_SLICES`] slice groups.
    pub slice_wall_s: Vec<f64>,
    /// Allocations and bytes requested in the timed region (traced only).
    pub allocs: (u64, u64),
    pub outcome: Outcome,
}

/// Everything simulated: exact for a seed, equal across repetitions.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub horizon_s: f64,
    pub digest: u64,
    /// Operations injected: training jobs + sessions + nodes booted.
    pub attempted: u64,
    /// Output-check violations; empty on a correct run.
    pub violations: Vec<String>,
    /// Operations whose own output check failed (a job that vanished or
    /// whose event sequence is illegal, a tag that maps to no job).
    pub failed_ops: u64,
    /// Simulated end-to-end metrics defined on this workload.
    pub sim: Vec<(&'static str, f64)>,
    pub counts: Counts,
}

/// Two runs of one seed may differ by this share in a float summed over
/// flows (see [`Outcome::difference`]).
pub const FLOW_SUM_TOLERANCE: f64 = 1e-9;

impl Outcome {
    /// How this outcome differs from another run of the same seed, `None`
    /// if the two simulated the same thing. Everything must be bit-equal
    /// but the bulk-flow byte totals: simnet advances its flows in hash-map
    /// order, so those float sums are taken in an order that changes from
    /// run to run and their last bits with it (seen on `reclaim_storm_200`
    /// seed 5). They must agree within [`FLOW_SUM_TOLERANCE`].
    pub fn difference(&self, other: &Outcome) -> Option<String> {
        let flow_sums = |c: &Counts| {
            [
                c.bytes_checkpoint,
                c.bytes_migration,
                c.bytes_image,
                c.flow_seconds_est,
            ]
        };
        let exact_part = |o: &Outcome| {
            let mut o = o.clone();
            o.counts.bytes_checkpoint = 0.0;
            o.counts.bytes_migration = 0.0;
            o.counts.bytes_image = 0.0;
            o.counts.flow_seconds_est = 0.0;
            o
        };
        let (ours, theirs) = (exact_part(self), exact_part(other));
        if ours != theirs {
            let (ours, theirs) = (format!("{ours:#?}"), format!("{theirs:#?}"));
            let lines: Vec<String> = ours
                .lines()
                .zip(theirs.lines())
                .filter(|(a, b)| a != b)
                .take(4)
                .map(|(a, b)| format!("{} vs {}", a.trim(), b.trim()))
                .collect();
            return Some(lines.join("; "));
        }
        flow_sums(&self.counts)
            .into_iter()
            .zip(flow_sums(&other.counts))
            .find(|(a, b)| (a - b).abs() > FLOW_SUM_TOLERANCE * a.abs().max(b.abs()))
            .map(|(a, b)| format!("flow byte totals {a} vs {b}"))
    }
}

/// Counts read from public accessors after the run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Counts {
    pub jobs_submitted: u64,
    pub sessions_submitted: u64,
    pub events_fired: u64,
    /// Per-kind fired counts (traced runs only; empty otherwise).
    pub pump_events: u64,
    pub inject_events: u64,
    pub msgs_sent: u64,
    pub msgs_dropped: u64,
    pub bytes_control: f64,
    pub bytes_checkpoint: f64,
    pub bytes_migration: f64,
    pub bytes_image: f64,
    /// Control bytes over the backbone link: every control message
    /// crosses it exactly once on the star topology.
    pub backbone_control_bytes: f64,
    pub db_applied_writes: u64,
    pub db_depth_peak: u64,
    pub db_over_bound_writes: u64,
    pub db_shed_writes: u64,
    pub db_sojourn_mean_ms: f64,
    pub inbox_depth_peak: u64,
    pub inbox_sojourn_mean_ms: f64,
    /// Envelopes the coordinator took a turn for.
    pub inbox_turns: u64,
    pub shed_envelopes: u64,
    pub deferred_turns: u64,
    pub live_jobs_end: u64,
    pub displacements: u64,
    pub migrated_back: u64,
    pub dispatches: u64,
    /// Events that arm a scheduling pass: queued, requeued, completed, and
    /// offers that did not start (`dispatches - starts`).
    pub pass_triggers: u64,
    /// Bulk flows, estimated from outside: one image pull per dispatch
    /// that started, one restore per restarted displacement with a
    /// checkpoint, one upload per checkpoint interval a job ran through.
    pub flows_est: u64,
    /// Placements in flight (dispatched, not yet started: pulling an image
    /// or a checkpoint) when a placement begins, averaged over placements —
    /// the concurrent flows a flow event of this workload meets.
    pub flow_concurrency_est: f64,
    /// Seconds bulk flows were active, summed over flows, from outside:
    /// every placement's dispatched → started interval, plus checkpoint
    /// bytes at the access-link rate.
    pub flow_seconds_est: f64,
}

/// A platform of the workload and what the probes need to know about it.
pub struct World {
    pub platform: Platform,
    /// Simnet addresses of the GPU hosts, in spec order.
    pub hosts: Vec<NodeId>,
    pub gpus_per_host: Vec<usize>,
    pub config: PlatformConfig,
    /// How far the world has been (or is to be) simulated.
    pub end: SimTime,
}

struct Submitted {
    tag: u64,
    at: SimTime,
    /// `Some((patience, duration))` for a session.
    session: Option<(SimDuration, SimDuration)>,
    checkpoint_interval: SimDuration,
}

/// Run one repetition. With a recorder the run is traced: spans, per-kind
/// event counters and the counting allocator are on.
pub fn execute(w: &Workload, seed: u64, quick: bool, mut rec: Option<&mut Recorder>) -> Rep {
    let setup_span = rec.as_deref_mut().map(|r| r.open("setup", "core", None));
    let mut watch = Stopwatch::start();
    let ((mut fin, mut sim, submitted), _, setup_s) = watch.time(|| set_up(w.plan(seed, quick)));
    let end = fin.end;
    if let (Some(r), Some(id)) = (rec.as_deref_mut(), setup_span) {
        r.close(id);
    }
    let traced = rec.is_some();
    if traced {
        sim.profile_events();
    }

    let mut watch = Stopwatch::start();
    let mut slice_wall_s = Vec::with_capacity(TRACE_SLICES as usize);
    let mut registered_at = None;
    let allocs_before = alloc::counted();
    alloc::set_counting(traced);
    let per_group = SLICES / TRACE_SLICES;
    for group in 0..TRACE_SLICES {
        let span = rec
            .as_deref_mut()
            .map(|r| r.open(format!("run_slice[{group}]"), "core", None));
        let before = (
            sim.events_executed(),
            fin.platform.net.messages_sent(),
            alloc::counted(),
        );
        let mut group_s = 0.0;
        for i in group * per_group + 1..=(group + 1) * per_group {
            let until = SimTime::from_nanos(end.as_nanos() / SLICES * i).max(sim.now());
            let until = if i == SLICES { end } else { until };
            // Until the fleet is registered, advance in short steps and
            // look (outside the timer) after each.
            while registered_at.is_none() && sim.now() < until {
                let step = (sim.now() + SimDuration::from_secs(REGISTRATION_STEP_SECS)).min(until);
                group_s += watch.time(|| sim.run_until(&mut fin.platform, step)).2;
                if registered_nodes(&fin) == fin.hosts.len() {
                    registered_at = Some(sim.now());
                }
            }
            group_s += watch.time(|| sim.run_until(&mut fin.platform, until)).2;
        }
        slice_wall_s.push(group_s);
        if let (Some(r), Some(id)) = (rec.as_deref_mut(), span) {
            r.close(id);
            let after = alloc::counted();
            r.spans[id].counters = vec![
                ("events", (sim.events_executed() - before.0) as f64),
                ("msgs", (fin.platform.net.messages_sent() - before.1) as f64),
                ("allocs", (after.0 - before.2 .0) as f64),
                ("wall_s", group_s),
            ];
        }
    }
    alloc::set_counting(false);
    let allocs_after = alloc::counted();

    let outcome = observe(&mut fin, &sim, &submitted, registered_at, quick);
    Rep {
        setup_s,
        wall_s: watch.compensated_s,
        raw_wall_s: watch.raw_s,
        clock_ratio: watch.clock_ratio(),
        slice_wall_s,
        allocs: (
            allocs_after.0 - allocs_before.0,
            allocs_after.1 - allocs_before.1,
        ),
        outcome,
    }
}

/// A fresh platform of the workload advanced (untimed) to the end of
/// slice group `group`: the world the fleet probes run on.
pub fn world_after_group(w: &Workload, seed: u64, quick: bool, group: u64) -> World {
    let (mut fin, mut sim, _) = set_up(w.plan(seed, quick));
    let groups = (group + 1).min(TRACE_SLICES);
    fin.end = SimTime::from_nanos(fin.end.as_nanos() / TRACE_SLICES * groups);
    sim.run_until(&mut fin.platform, fin.end);
    fin
}

/// Set up once more and throw the platform away: one more `setup_s` sample
/// (compensated seconds).
pub fn setup_only(w: &Workload, seed: u64, quick: bool) -> f64 {
    Stopwatch::start().time(|| set_up(w.plan(seed, quick))).2
}

/// Deploy, boot and stage every injection: the platform is ready to run.
fn set_up(plan: Plan) -> (World, PlatformSim, Vec<Submitted>) {
    let end = plan.end();
    let (mut world, hosts) = Platform::deploy(&plan.config, &plan.specs);
    let mut sim = PlatformSim::new();
    Platform::boot(&mut world, &mut sim);
    let mut submitted = Vec::new();
    for (at, staged) in plan.events {
        let injection = match staged {
            Staged::Training { tag, spec } => {
                submitted.push(Submitted {
                    tag,
                    at,
                    session: None,
                    checkpoint_interval: spec.checkpoint_interval,
                });
                Injection::Training {
                    tag,
                    spec: Box::new(spec),
                }
            }
            Staged::Session { tag, spec } => {
                submitted.push(Submitted {
                    tag,
                    at,
                    session: Some((spec.patience, spec.duration)),
                    checkpoint_interval: SimDuration::ZERO,
                });
                Injection::InteractiveArrive {
                    tag,
                    spec: Box::new(spec),
                }
            }
            Staged::Interrupt { host, kind } => Injection::Interrupt {
                host: hosts[host],
                kind,
            },
            Staged::Return { host } => Injection::ProviderReturn { host: hosts[host] },
        };
        sim.schedule_typed_at(at, PlatformEvent::Inject(injection));
    }
    let gpus_per_host = plan
        .specs
        .iter()
        .map(|s| s.gpus.len())
        .filter(|&g| g > 0)
        .collect();
    let fin = World {
        platform: world,
        hosts,
        gpus_per_host,
        config: plan.config,
        end,
    };
    (fin, sim, submitted)
}

/// Agents that hold a uid: their registration round trip completed.
fn registered_nodes(fin: &World) -> usize {
    fin.hosts
        .iter()
        .filter(|&&addr| fin.platform.agent(addr).is_some_and(|a| a.uid().is_some()))
        .count()
}

/// Where a job's event log leaves it.
#[derive(Debug, Clone, Copy, PartialEq)]
enum JobState {
    Pending,
    Offered,
    Running,
    Done,
}

/// Replay one job's log through the legal lifecycle. `Err` names the first
/// illegal step.
fn replay(log: &[(SimTime, JobEvent)]) -> Result<JobState, String> {
    use JobState::*;
    let mut state = None;
    let mut last = SimTime::ZERO;
    for (i, (at, event)) in log.iter().enumerate() {
        if *at < last {
            return Err(format!("event {i} goes back in time"));
        }
        last = *at;
        let next = match (state, event) {
            (None, JobEvent::Queued) => Pending,
            (None, _) => return Err("log does not start with Queued".into()),
            (Some(Done), _) => return Err(format!("event {i} follows a terminal event")),
            (Some(Pending | Offered), JobEvent::Dispatched { .. }) => Offered,
            (Some(Offered), JobEvent::MigratedBack { .. }) => Offered,
            (Some(Offered | Running), JobEvent::Started { .. }) => Running,
            (Some(_), JobEvent::Requeued { .. }) => Pending,
            (Some(Running), JobEvent::Completed) => Done,
            (Some(_), JobEvent::Failed) => Done,
            (Some(s), e) => return Err(format!("event {i}: {e:?} while {s:?}")),
        };
        state = Some(next);
    }
    state.ok_or_else(|| "empty log".into())
}

/// Mean number of placements in flight (dispatched → started) at the
/// moment a placement is dispatched, itself included; and the summed
/// length of those intervals in seconds.
fn placement_concurrency(job_log: &BTreeMap<JobId, Vec<(SimTime, JobEvent)>>) -> (f64, f64) {
    let (mut begins, mut ends) = (Vec::new(), Vec::new());
    for log in job_log.values() {
        let mut dispatched = None;
        for (at, event) in log {
            match event {
                JobEvent::Dispatched { .. } => dispatched = Some(*at),
                JobEvent::Started { .. } => {
                    if let Some(begin) = dispatched.take() {
                        begins.push(begin);
                        ends.push(*at);
                    }
                }
                JobEvent::Requeued { .. } | JobEvent::Failed => dispatched = None,
                _ => {}
            }
        }
    }
    let total_s: f64 = begins
        .iter()
        .zip(&ends)
        .map(|(b, e): (&SimTime, &SimTime)| e.since(*b).as_secs_f64())
        .sum();
    begins.sort_unstable();
    ends.sort_unstable();
    let (mut ended, mut in_flight_sum) = (0usize, 0usize);
    for (i, begin) in begins.iter().enumerate() {
        while ended < ends.len() && ends[ended] <= *begin {
            ended += 1;
        }
        in_flight_sum += i + 1 - ended;
    }
    if begins.is_empty() {
        (0.0, 0.0)
    } else {
        (in_flight_sum as f64 / begins.len() as f64, total_s)
    }
}

fn fnv(acc: u64, v: u64) -> u64 {
    let mut acc = acc;
    for byte in v.to_le_bytes() {
        acc = (acc ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    acc
}

fn event_code(event: &JobEvent) -> (u64, u64) {
    match event {
        JobEvent::Queued => (1, 0),
        JobEvent::Dispatched { node } => (2, node.0),
        JobEvent::Started { node } => (3, node.0),
        JobEvent::Completed => (4, 0),
        JobEvent::Failed => (5, 0),
        JobEvent::Requeued { restore_seq } => (6, restore_seq.map_or(0, |s| s + 1)),
        JobEvent::MigratedBack { node } => (7, node.0),
    }
}

fn observe(
    fin: &mut World,
    sim: &PlatformSim,
    submitted: &[Submitted],
    registered_at: Option<SimTime>,
    quick: bool,
) -> Outcome {
    let mut violations = Vec::new();
    let mut failed_ops = 0u64;
    let end = fin.end;
    let nodes = fin.hosts.len();
    let registered = registered_nodes(fin) as u64;
    let world = &mut fin.platform;
    let (flow_concurrency_est, placement_s) = placement_concurrency(&world.stats.job_log);
    let access_bytes_per_s = fin.config.access.bytes_per_sec();
    let util = world.mean_utilization(end);
    let coord = world.coordinator.stats();
    let stats = &world.stats;

    if sim.now() != end {
        violations.push(format!(
            "clock ended at {:?}, not the horizon {end:?}",
            sim.now()
        ));
    }
    if !(0.0..=1.0).contains(&util) {
        violations.push(format!("utilisation {util} outside [0, 1]"));
    }

    // ---- per-job checks: tag → job, legal sequence, nothing vanishes ----
    let mut live_by_log = 0u64;
    let mut failed_jobs = 0u64;
    let mut ckpt_uploads_est = 0u64;
    for s in submitted {
        let log = stats
            .tag_to_job
            .get(&s.tag)
            .and_then(|job| stats.job_log.get(job));
        let state = match log.map(|l| replay(l)) {
            None => Err("maps to no job with a log".to_string()),
            Some(r) => r,
        };
        let state = match state {
            Ok(state) => state,
            Err(why) => {
                failed_ops += 1;
                if violations.len() < 20 {
                    violations.push(format!("tag {}: {why}", s.tag));
                }
                continue;
            }
        };
        let log = log.expect("replayed");
        if log.last().is_some_and(|(_, e)| *e == JobEvent::Failed) {
            failed_jobs += 1;
        }
        let first_start = log
            .iter()
            .find(|(_, e)| matches!(e, JobEvent::Started { .. }))
            .map(|(t, _)| *t);
        let open = match s.session {
            None => state != JobState::Done,
            Some((patience, duration)) => {
                // The harness cancels a session at its patience check if it
                // never started, else when its duration is up.
                let check = s.at + patience;
                let closes = match first_start {
                    Some(start) if start <= check => (start + duration).max(check),
                    _ => check,
                };
                state != JobState::Done && closes > end
            }
        };
        live_by_log += open as u64;
        // Checkpoint uploads, from outside: one per interval a job ran.
        if s.checkpoint_interval > SimDuration::ZERO {
            let mut running_since = None;
            for (at, e) in log.iter() {
                match e {
                    JobEvent::Started { .. } => running_since = Some(*at),
                    JobEvent::Completed | JobEvent::Requeued { .. } | JobEvent::Failed => {
                        if let Some(since) = running_since.take() {
                            ckpt_uploads_est +=
                                at.since(since).as_nanos() / s.checkpoint_interval.as_nanos();
                        }
                    }
                    _ => {}
                }
            }
            if let Some(since) = running_since {
                ckpt_uploads_est += end.since(since).as_nanos() / s.checkpoint_interval.as_nanos();
            }
        }
    }
    if stats.job_log.len() != submitted.len() {
        violations.push(format!(
            "{} jobs have a log but {} were submitted",
            stats.job_log.len(),
            submitted.len()
        ));
    }
    if live_by_log != coord.live_jobs as u64 {
        violations.push(format!(
            "job conservation: the logs leave {live_by_log} jobs live, the coordinator holds {}",
            coord.live_jobs
        ));
    }

    // ---- displacements ----------------------------------------------------
    let censor = SimDuration::from_secs(CENSOR_SECS / if quick { QUICK_DIVISOR } else { 1 });
    let (mut uncensored, mut resumed, mut restores) = (0u64, 0u64, 0u64);
    let mut restart_s = Vec::new();
    for d in &stats.displacements {
        if let Some(r) = d.restarted_at {
            if r < d.at {
                violations.push(format!("{:?} restarted before it was displaced", d.job));
            }
            restart_s.push(r.since(d.at).as_secs_f64());
            restores += d.restore_seq.is_some() as u64;
        }
        if end.since(d.at) > censor {
            uncensored += 1;
            resumed += d.restarted_at.is_some() as u64;
        }
    }

    // ---- simulated end-to-end metrics ---------------------------------------
    let jobs_submitted = submitted.iter().filter(|s| s.session.is_none()).count() as u64;
    let sessions_submitted = submitted.len() as u64 - jobs_submitted;
    let mut wait_s = Vec::new();
    let (mut dispatches, mut starts, mut pass_triggers) = (0u64, 0u64, 0u64);
    for log in stats.job_log.values() {
        let queued = log.first().map(|(t, _)| *t);
        let started = log
            .iter()
            .find(|(_, e)| matches!(e, JobEvent::Started { .. }));
        if let (Some(q), Some((s, _))) = (queued, started) {
            wait_s.push(s.since(q).as_secs_f64());
        }
        for (_, e) in log {
            match e {
                JobEvent::Dispatched { .. } => dispatches += 1,
                JobEvent::Started { .. } => starts += 1,
                JobEvent::Queued | JobEvent::Requeued { .. } | JobEvent::Completed => {
                    pass_triggers += 1
                }
                _ => {}
            }
        }
    }
    let unregistered = nodes as u64 - registered;
    let attempted = jobs_submitted + sessions_submitted + nodes as u64;
    let model_failed = stats.sessions_abandoned
        + coord.admission_shed_jobs
        + failed_jobs
        + (uncensored - resumed)
        + unregistered;

    let mut sim_metrics: Vec<(&'static str, f64)> = Vec::new();
    if !submitted.is_empty() {
        sim_metrics.push(("gpu_util_mean", util));
        sim_metrics.push(("jobs_completed", stats.jobs_completed as f64));
        let decided = stats.sessions_served + stats.sessions_abandoned;
        if decided > 0 {
            sim_metrics.push((
                "sessions_served_frac",
                stats.sessions_served as f64 / decided as f64,
            ));
        }
        if uncensored > 0 {
            sim_metrics.push(("migration_resumed_frac", resumed as f64 / uncensored as f64));
        }
        if !wait_s.is_empty() {
            sim_metrics.push(("job_wait_p50_sim_s", metrics::median(&wait_s)));
            sim_metrics.push(("job_wait_p95_sim_s", metrics::percentile(&wait_s, 95.0)));
        }
        if !restart_s.is_empty() {
            sim_metrics.push(("restart_p50_sim_s", metrics::median(&restart_s)));
        }
        if let Some(mean) = coord.decision_latency.mean() {
            sim_metrics.push(("decision_latency_mean_sim_ms", mean * 1e3));
        }
    }
    if let Some(at) = registered_at {
        sim_metrics.push(("fleet_registered_sim_s", at.as_secs_f64()));
    }
    sim_metrics.push(("failed_frac", model_failed as f64 / attempted as f64));

    // ---- the digest -----------------------------------------------------------
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for (job, log) in &stats.job_log {
        digest = fnv(digest, job.0);
        for (at, event) in log {
            let (code, payload) = event_code(event);
            digest = fnv(fnv(fnv(digest, at.as_nanos()), code), payload);
        }
    }
    // Flows that complete in the same nanosecond leave simnet in hash-map
    // order, so displacement records of one instant may swap between two
    // runs that are otherwise identical: fold them in (time, job) order.
    let mut displaced: Vec<_> = stats.displacements.iter().collect();
    displaced.sort_by_key(|d| (d.at, d.job));
    for d in displaced {
        digest = fnv(digest, d.job.0);
        digest = fnv(digest, d.at.as_nanos());
        digest = fnv(digest, d.restore_seq.map_or(0, |s| s + 1));
        digest = fnv(digest, d.restarted_at.map_or(0, |t| t.as_nanos() + 1));
        digest = fnv(digest, d.migrated_back as u64);
    }
    digest = fnv(digest, world.net.messages_sent());
    digest = fnv(digest, coord.db_applied_writes);
    digest = fnv(digest, util.to_bits());

    // ---- counts ---------------------------------------------------------------
    let fired: BTreeMap<&str, u64> = sim.fired_by_kind().into_iter().collect();
    let acct = world.net.accounting();
    let backbone_control_bytes = world
        .backbone_link()
        .map_or(0.0, |l| acct.link_class_total(l, TrafficClass::Control));
    let counts = Counts {
        jobs_submitted,
        sessions_submitted,
        events_fired: sim.events_executed(),
        pump_events: fired.get("pump").copied().unwrap_or(0),
        inject_events: fired
            .iter()
            .filter(|(k, _)| k.starts_with("inject"))
            .map(|(_, v)| v)
            .sum(),
        msgs_sent: world.net.messages_sent(),
        msgs_dropped: world.net.messages_dropped(),
        bytes_control: acct.class_total(TrafficClass::Control),
        bytes_checkpoint: acct.class_total(TrafficClass::Checkpoint),
        bytes_migration: acct.class_total(TrafficClass::Migration),
        bytes_image: acct.class_total(TrafficClass::ImagePull),
        backbone_control_bytes,
        db_applied_writes: coord.db_applied_writes,
        db_depth_peak: coord.db_depth_peak as u64,
        db_over_bound_writes: coord.db_over_bound_writes,
        db_shed_writes: coord.db_shed_writes,
        db_sojourn_mean_ms: coord.db_sojourn.mean().unwrap_or(0.0) * 1e3,
        inbox_depth_peak: coord.inbox_depth_peak as u64,
        inbox_sojourn_mean_ms: coord.inbox_sojourn.mean().unwrap_or(0.0) * 1e3,
        inbox_turns: coord.inbox_sojourn.count(),
        shed_envelopes: coord.shed_envelopes,
        deferred_turns: coord.deferred_turns,
        live_jobs_end: coord.live_jobs as u64,
        displacements: stats.displacements.len() as u64,
        migrated_back: stats
            .displacements
            .iter()
            .filter(|d| d.migrated_back)
            .count() as u64,
        dispatches,
        pass_triggers: pass_triggers + dispatches.saturating_sub(starts),
        flows_est: starts + restores + ckpt_uploads_est,
        flow_concurrency_est,
        // Checkpoint bytes are accounted once per hop; host → coordinator
        // is two hops.
        flow_seconds_est: placement_s
            + acct.class_total(TrafficClass::Checkpoint) / 2.0 / access_bytes_per_s,
    };

    Outcome {
        horizon_s: end.as_secs_f64(),
        digest,
        attempted,
        violations,
        failed_ops,
        sim: sim_metrics,
        counts,
    }
}
