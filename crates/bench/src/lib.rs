//! # gpunion-bench — experiment harnesses
//!
//! One binary per paper artefact (see DESIGN.md §3):
//!
//! | binary               | regenerates                         |
//! |----------------------|-------------------------------------|
//! | `fig2_utilization`   | Fig. 2 utilization comparison       |
//! | `fig3_migration`     | Fig. 3 migration performance        |
//! | `training_impact`    | §4 training-impact paragraph        |
//! | `net_traffic`        | §4 network-traffic analysis         |
//! | `scalability`        | §5.2 scalability discussion         |
//! | `table1_comparison`  | Table 1 quantitative proxies        |
//!
//! Criterion benches measure the real data-structure costs: scheduling
//! pass, protocol codec, and max-min reallocation.
//!
//! Scenario construction shared between a figure binary and its golden
//! test lives here (e.g. [`net_traffic_run`]) so the test pins the same
//! experiment the binary prints, not a private copy of it.
//!
//! The `golden` test module pins the figure rows at fixed seeds: the
//! platform is deterministic end-to-end, so any behavioural change that
//! moves an EXPERIMENTS.md number fails here first and forces the number
//! to be re-recorded deliberately rather than drifting silently.

#![forbid(unsafe_code)]

use gpunion_core::{PlatformConfig, Scenario};
use gpunion_des::{RngPool, SimDuration, SimTime};
use gpunion_gpu::{paper_testbed, GpuModel};
use gpunion_protocol::{
    Control, DispatchSpec, ExecMode, GpuStat, JobId, Message, NodeUid, UserId, Work,
};
use gpunion_scheduler::{CoordAction, CoordEnvelope, Coordinator, CoordinatorConfig, SendOutcome};
use gpunion_workload::{
    generate, generate_into, paper_campus_labs, Request, TraceConfig, TraceEvent, TrainingJobSpec,
};
use std::time::Instant;

/// Schema version of `BENCH_scheduler.json`. Bumped whenever the gate's
/// row set changes shape; `bench_gate` refuses to compare against a
/// baseline recorded at any other version (see [`check_baseline_schema`]).
pub const BENCH_SCHEMA: u64 = 13;

/// Hard schema check for a bench baseline: the baseline JSON must carry a
/// `"schema"` key equal to `expected`, else the gate comparison is
/// meaningless (rows may have been renamed, re-scoped, or re-scaled) and
/// the caller must hard-fail rather than gate against stale numbers.
pub fn check_baseline_schema(baseline: &str, expected: u64) -> Result<(), String> {
    let pat = "\"schema\":";
    let Some(start) = baseline.find(pat) else {
        return Err(format!(
            "baseline has no \"schema\" key; re-record it (expected schema {expected})"
        ));
    };
    let rest = baseline[start + pat.len()..].trim_start();
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    match rest[..end].parse::<u64>() {
        Ok(found) if found == expected => Ok(()),
        Ok(found) => Err(format!(
            "baseline is schema {found}, binary expects schema {expected}; \
             re-record the baseline (`bench_gate --write-baseline <path>`)"
        )),
        Err(_) => Err(format!(
            "baseline \"schema\" value is not an integer (expected schema {expected})"
        )),
    }
}

/// The §4 network-traffic experiment, fully run: the scenario (for
/// accounting access), the horizon end, and the backbone capacity.
pub struct NetTrafficRun {
    /// The completed scenario; query `world.net.accounting()`.
    pub scenario: Scenario,
    /// End of the measured window.
    pub end: SimTime,
    /// Backbone link capacity in bytes/sec.
    pub backbone_bps: f64,
}

/// Build and run the §4 network-traffic experiment: the paper's 11-server
/// campus under `days` of generated demand at `seed`. Shared by the
/// `net_traffic` binary and the golden-output test.
pub fn net_traffic_run(days: u64, seed: u64) -> NetTrafficRun {
    let specs = paper_testbed();
    let labs = paper_campus_labs();
    let horizon = SimDuration::from_days(days);
    let trace = generate(
        &labs,
        &TraceConfig {
            horizon,
            ..Default::default()
        },
        &RngPool::new(seed),
    );
    let mut config = PlatformConfig {
        seed,
        ..Default::default()
    };
    // Slow heartbeat keeps the multi-day event count tractable; failure
    // detection is unchanged (timeout stays 3 beats).
    config.coordinator.heartbeat_period = SimDuration::from_secs(30);
    let backbone_bps = config.backbone.bytes_per_sec();
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
    // Flow bytes are accounted when a flow's rate changes; bring the
    // transfers still in flight at the horizon up to date.
    scenario.world.net.settle(end);
    NetTrafficRun {
        scenario,
        end,
        backbone_bps,
    }
}

/// One row of the §5.2 contention experiment: `nodes` heartbeating
/// through the coordinator's database write queue, measured against the
/// M/M/1 oracle.
#[derive(Debug, Clone, Copy)]
pub struct ContentionRow {
    /// Fleet size.
    pub nodes: usize,
    /// Oracle utilization ρ at this fleet's heartbeat write rate.
    pub utilization: f64,
    /// Oracle (M/M/1) transaction latency, milliseconds.
    pub model_latency_ms: f64,
    /// Emergent mean write sojourn (queue wait + service), milliseconds.
    pub measured_latency_ms: f64,
    /// Deepest the write queue got during the measured window.
    pub peak_queue_depth: usize,
    /// Heartbeat status writes shed by the bounded inbox (backpressure).
    pub shed_writes: u64,
}

/// Run the §5.2 contention-knee experiment at one fleet size: each node
/// registers at its phase within the first heartbeat period, heartbeats
/// roll for a warm-up, then two measured minutes of evenly-phased
/// heartbeat writes flow through the coordinator's database actor. The
/// emergent write latency is reported next to the M/M/1 oracle's
/// prediction. Shared by the `scalability` binary and the golden-output
/// test.
pub fn contention_knee_run(nodes: usize, seed: u64) -> ContentionRow {
    let config = CoordinatorConfig::default();
    let period = config.heartbeat_period;
    let service = config.db.mean_service_time;
    let mut coord = Coordinator::new(config, seed);
    drive_phased_fleet(&mut coord, nodes, period, &mut |_, _, _| {});
    let actor = coord.db_actor();
    let model = gpunion_db::ContentionModel {
        service_time: service,
        ..Default::default()
    };
    let rate = nodes as f64 / period.as_secs_f64();
    ContentionRow {
        nodes,
        utilization: model.utilization(rate),
        model_latency_ms: model.transaction_latency(rate).as_secs_f64() * 1e3,
        measured_latency_ms: actor.sojourn().mean().unwrap_or(0.0) * 1e3,
        peak_queue_depth: actor.depth_peak(),
        shed_writes: actor.shed_writes(),
    }
}

fn drain_wakes(coord: &mut Coordinator, until: SimTime) {
    while let Some(at) = coord.next_wake() {
        if at > until {
            break;
        }
        let _ = coord.advance(at);
    }
}

/// Warm-up beats before the measured window (drains the registration
/// backlog) and measured beats (two minutes at the default 5 s period) —
/// shared by the contention-knee and saturation experiments.
const WARM_BEATS: u64 = 6;
const MEASURED_BEATS: u64 = 24;

/// Drive an `nodes`-strong fleet through the coordinator's inbox: every
/// node registers at its phase within the first beat, heartbeats roll
/// for [`WARM_BEATS`] periods, telemetry resets as steady state begins,
/// then [`MEASURED_BEATS`] periods of evenly-phased heartbeats flow.
/// `at_beat(coord, k, beat_start)` runs at each beat boundary (after the
/// telemetry reset) — the saturation experiment injects job submissions
/// there, the knee experiment nothing. Shared so the two experiments
/// cannot drift apart in phasing or warm-up handling.
fn drive_phased_fleet(
    coord: &mut Coordinator,
    nodes: usize,
    period: SimDuration,
    at_beat: &mut dyn FnMut(&mut Coordinator, u64, SimTime),
) {
    let mut seqs = vec![1u64; nodes];
    // Uid per node, captured from each RegisterAck — the directory
    // assigns them, so assuming a numbering here would heartbeat a
    // ghost fleet.
    let mut uids = vec![NodeUid(u64::MAX); nodes];
    for k in 0..WARM_BEATS + MEASURED_BEATS {
        let beat_start = SimTime::ZERO + period * k;
        if k == WARM_BEATS {
            // Steady state begins: reset telemetry through the inbox so
            // the reset turn orders before the first measured heartbeat.
            drain_wakes(coord, beat_start);
            coord.send(beat_start, CoordEnvelope::ResetTelemetry);
            coord.advance(beat_start);
        }
        at_beat(coord, k, beat_start);
        for (i, seq) in seqs.iter_mut().enumerate() {
            // Evenly phased within the period, like a real fleet.
            let at = beat_start + (period * i as u64) / nodes as u64;
            drain_wakes(coord, at);
            if k == 0 {
                coord.send(
                    at,
                    CoordEnvelope::Msg(Box::new(Message::Control(Control::Register {
                        machine_id: format!("m-{i}"),
                        hostname: format!("h-{i}"),
                        gpus: vec![GpuModel::Rtx3090.into()],
                        agent_version: 1,
                    }))),
                );
                let actions = coord.advance(at);
                uids[i] = actions
                    .iter()
                    .find_map(|a| match a {
                        CoordAction::Send {
                            msg: Message::Control(Control::RegisterAck { node, .. }),
                            ..
                        } => Some(*node),
                        _ => None,
                    })
                    .expect("registration acked");
            } else {
                coord.send(
                    at,
                    CoordEnvelope::Msg(Box::new(Message::Control(Control::Heartbeat {
                        node: uids[i],
                        seq: *seq,
                        accepting: true,
                        gpu_stats: vec![],
                        workloads: vec![],
                    }))),
                );
                coord.advance(at);
                *seq += 1;
            }
        }
    }
    drain_wakes(
        coord,
        SimTime::ZERO + period * (WARM_BEATS + MEASURED_BEATS),
    );
}

/// A dispatch spec for scheduler benchmarks (1 GPU, 8 GB).
pub fn bench_spec() -> DispatchSpec {
    DispatchSpec {
        job: JobId(0),
        image_repo: "pytorch/pytorch".into(),
        image_tag: "2.3".into(),
        image_digest: [1; 32],
        gpus: 1,
        gpu_mem_bytes: 8 << 30,
        min_cc: None,
        mode: ExecMode::Batch {
            entrypoint: vec!["python".into()],
        },
        checkpoint_interval_secs: 600,
        storage_nodes: vec![],
        state_bytes_hint: 1 << 30,
        restore_from_seq: None,
        priority: 1,
        user: UserId::SYSTEM,
    }
}

/// A coordinator with `n` registered nodes and the registration storm
/// fully drained through the actor's inbox (shared scaffolding for
/// benches and the CI perf gate). The heartbeat period is stretched to a
/// day so sweep timers neither interleave with a timed turn nor mark the
/// never-heartbeating bench fleet stale; placement behaviour is
/// unaffected.
pub fn bench_coordinator(n: usize) -> Coordinator {
    let config = CoordinatorConfig {
        heartbeat_period: SimDuration::from_secs(24 * 3600),
        ..Default::default()
    };
    let mut c = Coordinator::new(config, 1);
    for i in 0..n {
        c.send(
            SimTime::from_secs(1),
            CoordEnvelope::Msg(Box::new(Message::Control(Control::Register {
                machine_id: format!("m-{i}"),
                hostname: format!("h-{i}"),
                gpus: vec![GpuModel::Rtx3090.into()],
                agent_version: 1,
            }))),
        );
    }
    // Large fleets hit critical-write backpressure: registration turns
    // defer while the write queue is at bound, so the storm admits one
    // turn per completion. Drain until every write has applied.
    drain_wakes(&mut c, SimTime::from_secs(3600));
    c
}

/// `bench_coordinator(n)` plus `jobs` pending submissions admitted
/// through the inbox with the scheduling pass armed but **not yet run** —
/// ready for one timed [`Coordinator::advance`] at `t ≥ 3700 s`, whose
/// turn applies the queue writes and drains the pass.
pub fn loaded_coordinator(n: usize, jobs: usize) -> Coordinator {
    loaded_coordinator_with(n, &mut std::iter::repeat_with(bench_spec).take(jobs))
}

/// [`bench_coordinator`] loaded with an explicit pending-job mix (the
/// trace-driven scale sweep feeds specs derived from generated campus
/// demand; the gate rows feed the uniform [`bench_spec`]).
pub fn loaded_coordinator_with(
    n: usize,
    specs: &mut dyn Iterator<Item = DispatchSpec>,
) -> Coordinator {
    let mut c = bench_coordinator(n);
    for spec in specs {
        let outcome = c.send(
            SimTime::from_secs(3601),
            CoordEnvelope::SubmitJob(Box::new(spec)),
        );
        assert!(
            matches!(outcome, SendOutcome::Enqueued { job: Some(_) }),
            "submissions are never shed"
        );
    }
    // Process the submission turns (this arms the pass one emergent write
    // latency later); the pass itself belongs to the caller's timed turn.
    c.advance(SimTime::from_secs(3601));
    c
}

/// Pending jobs of the saturated-fleet pass rows (criterion
/// `scheduling_pass/saturated_400`, gate row `pass_ns_400_saturated`).
pub const SATURATED_JOBS: usize = 50;

/// A **saturated** fleet with a backlog — the regime a campus short of
/// GPUs lives in, and the one `fleet400_day` spends its afternoon in: `n`
/// single-3090 nodes each running one accepted 22 GB job (2 GB left), plus
/// `jobs` pending submissions cycling through five shapes (4–20 GB, one
/// compute-capability-constrained, one two-GPU) none of which fits
/// anywhere, admitted with the pass armed but **not yet run**. The
/// caller's timed [`Coordinator::advance`] at `t ≥ 3900 s` is one turn
/// whose every pick fails: it must place nothing.
pub fn saturated_coordinator(n: usize, jobs: usize) -> Coordinator {
    let filler = || DispatchSpec {
        gpu_mem_bytes: 22 << 30,
        ..bench_spec()
    };
    let mut c = loaded_coordinator_with(n, &mut std::iter::repeat_with(filler).take(n));
    // Place the fillers (the pass defers while the write queue is at its
    // bound, so this can take several turns), accept every offer — which
    // hands the reservation over to the node's next heartbeat, so send
    // that too — all before the caller's window.
    let mut running = 0;
    while let Some(at) = c.next_wake().filter(|&at| at <= SimTime::from_secs(3800)) {
        for action in c.advance(at) {
            if let CoordAction::Send {
                to,
                msg: Message::Work(Work::Dispatch { spec }),
                ..
            } = action
            {
                let reply = Work::DispatchReply {
                    job: spec.job,
                    accepted: true,
                    reason: String::new(),
                };
                let beat = Control::Heartbeat {
                    node: to,
                    seq: 1,
                    accepting: true,
                    gpu_stats: vec![GpuStat {
                        memory_used: spec.gpu_mem_bytes,
                        memory_total: GpuModel::Rtx3090.vram_bytes(),
                        utilization: 1.0,
                        temperature_c: 70.0,
                        power_w: 300.0,
                    }],
                    workloads: vec![],
                };
                c.send(at, CoordEnvelope::Msg(Box::new(reply.into())));
                c.send(at, CoordEnvelope::Msg(Box::new(beat.into())));
                running += 1;
            }
        }
    }
    assert_eq!(running, n, "every node runs one filler job");
    let shape = |mem_gb: u64, gpus: u8, min_cc| DispatchSpec {
        gpu_mem_bytes: mem_gb << 30,
        gpus,
        min_cc,
        ..bench_spec()
    };
    let shapes = [
        shape(4, 1, None),
        shape(8, 1, None),
        shape(12, 2, None),
        shape(16, 1, Some((8, 6))),
        shape(20, 1, None),
    ];
    for spec in shapes.iter().cycle().take(jobs) {
        let outcome = c.send(
            SimTime::from_secs(3801),
            CoordEnvelope::SubmitJob(Box::new(spec.clone())),
        );
        assert!(
            matches!(outcome, SendOutcome::Enqueued { job: Some(_) }),
            "submissions are never shed"
        );
    }
    c.advance(SimTime::from_secs(3801));
    c
}

/// One row of the coordinator-inbox saturation experiment (the scale-out
/// quantity DESIGN.md §3b says to watch): a fleet past the database knee
/// (ρ > 1) heartbeating while a steady stream of job submissions — all
/// critical writes — flows through the actor. The database write queue
/// pins at its bound, so critical turns **defer** (never shed); the stall
/// surfaces as coordinator inbox sojourn.
#[derive(Debug, Clone, Copy)]
pub struct SaturationRow {
    /// Fleet size (heartbeat writers).
    pub nodes: usize,
    /// Job submissions injected during the measured window.
    pub submissions: usize,
    /// Submissions still tracked by the coordinator afterwards — must
    /// equal `submissions`: critical envelopes are never dropped.
    pub jobs_admitted: usize,
    /// Mean coordinator-inbox sojourn (enqueue → turn), milliseconds.
    pub inbox_sojourn_ms_mean: f64,
    /// Worst coordinator-inbox sojourn, milliseconds.
    pub inbox_sojourn_ms_max: f64,
    /// Deepest the coordinator inbox got.
    pub inbox_depth_peak: usize,
    /// Turns deferred on database backpressure.
    pub deferred_turns: u64,
    /// Heartbeat status writes shed by the database inbox bound.
    pub db_shed_status_writes: u64,
    /// Critical writes admitted past the database bound (bounded by the
    /// few writes a single turn commits — the probe is honoured).
    pub db_over_bound_writes: u64,
}

/// Run the saturation experiment: `nodes` evenly-phased heartbeats per
/// 5 s period (ρ > 1 for ≥ 420 nodes) plus a burst of job submissions —
/// one per simulated second of the beat, enqueued at each measured beat
/// boundary — a steady stream of critical writes competing with the
/// heartbeat flood. Deterministic at a fixed seed; shared by
/// `bench_gate` and the golden-output test.
pub fn saturation_run(nodes: usize, seed: u64) -> SaturationRow {
    let config = CoordinatorConfig::default();
    let period = config.heartbeat_period;
    let mut coord = Coordinator::new(config, seed);
    let mut submissions = Vec::new();
    drive_phased_fleet(&mut coord, nodes, period, &mut |coord, k, beat_start| {
        if k < WARM_BEATS {
            return;
        }
        for _ in 0..period.as_secs() {
            let outcome = coord.send(beat_start, CoordEnvelope::SubmitJob(Box::new(bench_spec())));
            let SendOutcome::Enqueued { job: Some(job) } = outcome else {
                panic!("critical envelope shed: {outcome:?}");
            };
            submissions.push(job);
        }
        coord.advance(beat_start);
    });
    // Let every deferred turn retry and every write complete.
    drain_wakes(
        &mut coord,
        SimTime::ZERO + period * (WARM_BEATS + MEASURED_BEATS) * 4,
    );
    let jobs_admitted = submissions
        .iter()
        .filter(|j| coord.db().job(**j).is_some())
        .count();
    SaturationRow {
        nodes,
        submissions: submissions.len(),
        jobs_admitted,
        inbox_sojourn_ms_mean: coord.stats().inbox_sojourn.mean().unwrap_or(0.0) * 1e3,
        inbox_sojourn_ms_max: coord.stats().inbox_sojourn.max().unwrap_or(0.0) * 1e3,
        inbox_depth_peak: coord.stats().inbox_depth_peak,
        deferred_turns: coord.stats().deferred_turns,
        db_shed_status_writes: coord.db_actor().shed_writes(),
        db_over_bound_writes: coord.db_actor().over_bound_writes(),
    }
}

/// Wall-clock statistics of a repeated measurement: the median (the
/// recorded row) and the minimum (the least-noisy estimator on a shared
/// runner — used for in-run cross-row ratio invariants, where one
/// cold-cache outlier must not fail the gate).
#[derive(Debug, Clone, Copy)]
pub struct PassStats {
    /// Median wall-clock nanoseconds.
    pub median_ns: u64,
    /// Minimum wall-clock nanoseconds.
    pub min_ns: u64,
}

impl PassStats {
    /// Reduce raw wall-clock samples (must be non-empty) to the gate's
    /// two estimators.
    pub fn from_samples(mut samples: Vec<u64>) -> Self {
        samples.sort_unstable();
        PassStats {
            median_ns: samples[samples.len() / 2],
            min_ns: samples[0],
        }
    }
}

/// The **warm steady-state** 20-job scheduling turn: one coordinator
/// serves `rounds` submit → pass → cancel cycles, so the capacity
/// index's caches and the write queue are hot — the per-turn cost a
/// long-lived deployment pays, as opposed to the cold `pass_ns` rows
/// which rebuild the coordinator per sample.
///
/// Protocol per round (offset so no round inherits another's timers):
/// submit 20 jobs at `base`, `advance(base)` to admit them (arming the
/// pass one emergent write latency later), time `advance(base + 5)` —
/// the turn that applies the queue writes and drains the pass — then
/// cancel all 20 offers and drain the leftover no-op offer-timeout
/// timers outside the timed window.
pub fn warm_pass_ns(nodes: usize, rounds: usize) -> PassStats {
    let mut coord = loaded_coordinator(nodes, PASS_JOBS);
    // Warm turn: drains the first pass untimed (grows every buffer).
    let _ = coord.advance(SimTime::from_secs(3700));
    let samples = (0..rounds.max(1) as u64)
        .map(|k| {
            let base = 3800 + k * 100;
            let jobs: Vec<JobId> = (0..PASS_JOBS)
                .map(|_| {
                    let out = coord.send(
                        SimTime::from_secs(base),
                        CoordEnvelope::SubmitJob(Box::new(bench_spec())),
                    );
                    let SendOutcome::Enqueued { job: Some(job) } = out else {
                        panic!("bench submission shed: {out:?}");
                    };
                    job
                })
                .collect();
            // Admit turns (arms the pass one emergent write latency in).
            let _ = coord.advance(SimTime::from_secs(base));
            let t0 = Instant::now();
            let actions = coord.advance(SimTime::from_secs(base + 5));
            let dt = t0.elapsed().as_nanos() as u64;
            assert!(!actions.is_empty(), "warm pass placed nothing");
            // Tear the round down: cancel every offer before it times
            // out, then burn the leftover no-op timers untimed.
            for job in jobs {
                coord.send(SimTime::from_secs(base + 6), CoordEnvelope::CancelJob(job));
            }
            let _ = coord.advance(SimTime::from_secs(base + 6));
            while let Some(at) = coord.next_wake() {
                if at > SimTime::from_secs(base + 99) {
                    break;
                }
                let _ = coord.advance(at);
            }
            dt
        })
        .collect();
    PassStats::from_samples(samples)
}

/// Jobs per measured scheduling turn (the paper-scale pending batch the
/// §5.2 rows quote).
pub const PASS_JOBS: usize = 20;

/// One row of the large-fleet (50k/100k-node) pass-latency sweep: the
/// wall-clock median of the actor turn that applies `jobs` queue writes
/// and drains the scheduling pass, at a given fleet size.
#[derive(Debug, Clone, Copy)]
pub struct ScaleRow {
    /// Fleet size (registered nodes).
    pub nodes: usize,
    /// Pending jobs drained by the timed pass.
    pub jobs: usize,
    /// Median wall-clock nanoseconds of the timed turn.
    pub pass_ns: u64,
}

/// A dispatch spec derived from a generated trace's training request —
/// the same conversion the platform's `submit_training` performs, so the
/// scale sweep's pending mix has the campus trace's VRAM/CC shape rather
/// than a uniform synthetic job.
fn trace_dispatch_spec(t: &TrainingJobSpec) -> DispatchSpec {
    let profile = t.model.profile();
    DispatchSpec {
        job: JobId(0),
        image_repo: "pytorch/pytorch".into(),
        image_tag: "2.3".into(),
        image_digest: [1; 32],
        gpus: t.gpus,
        gpu_mem_bytes: profile.gpu_mem_bytes,
        min_cc: profile.min_cc.map(|cc| (cc.major, cc.minor)),
        mode: ExecMode::Batch {
            entrypoint: vec!["python".into()],
        },
        checkpoint_interval_secs: t.checkpoint_interval.as_secs() as u32,
        storage_nodes: vec![],
        state_bytes_hint: profile.state_bytes,
        restore_from_seq: None,
        priority: t.priority,
        user: UserId::SYSTEM,
    }
}

/// Run the multi-fleet pass-latency sweep over `fleets` (node counts):
/// each fleet's pending mix comes from a freshly generated
/// campus demand trace, regenerated **into one warm buffer** per fleet
/// size ([`generate_into`] — zero allocations after the first fleet, the
/// PR 4 regeneration path), filtered to requests the single-model bench
/// fleet can host, and the timed quantity is one actor turn (apply the
/// queue writes + drain the pass), median of `iters` samples.
pub fn scale_pass_rows(fleets: &[usize], jobs: usize, iters: usize) -> Vec<ScaleRow> {
    let labs = paper_campus_labs();
    let mut events: Vec<TraceEvent> = Vec::new();
    let mut rows = Vec::new();
    for &nodes in fleets {
        // Regenerate this fleet's demand into the shared buffer; the seed
        // follows the fleet size so rows are independent but fixed.
        generate_into(
            &labs,
            &TraceConfig {
                horizon: SimDuration::from_days(1),
                ..Default::default()
            },
            &RngPool::new(nodes as u64),
            &mut events,
        );
        let specs: Vec<DispatchSpec> = events
            .iter()
            .filter_map(|ev| match &ev.request {
                Request::Training(t) => {
                    // The bench fleet is uniform RTX 3090s (24 GB): keep
                    // the trace's placeable subset so the timed pass
                    // dispatches every job instead of parking some.
                    let fits = t.model.profile().gpu_mem_bytes <= 24 << 30 && t.gpus == 1;
                    fits.then(|| trace_dispatch_spec(t))
                }
                Request::Interactive(_) => None,
            })
            .take(jobs)
            .collect();
        let mut samples: Vec<u64> = (0..iters.max(1))
            .map(|_| {
                let mut coord = loaded_coordinator_with(nodes, &mut specs.iter().cloned());
                let t0 = Instant::now();
                let actions = coord.advance(SimTime::from_secs(3700));
                let dt = t0.elapsed().as_nanos() as u64;
                assert!(!actions.is_empty(), "pass placed nothing at {nodes} nodes");
                dt
            })
            .collect();
        samples.sort_unstable();
        rows.push(ScaleRow {
            nodes,
            jobs: specs.len(),
            pass_ns: samples[samples.len() / 2],
        });
    }
    rows
}

/// One row of the codec micro-measurement behind the schema-7 gate: the
/// per-message cost of sizing and encoding the dominant control message (an
/// 8-GPU, 4-workload heartbeat) three ways.
#[derive(Debug, Clone, Copy)]
pub struct CodecRow {
    /// `Envelope::wire_size()` — the allocation-free counting walk paid by
    /// every simulated send.
    pub wire_size: PassStats,
    /// `Envelope::to_bytes()` and drop — the old wire-sizing cost, and the
    /// denominator of the gate's ≤ 0.25× ratio assert.
    pub encode_drop: PassStats,
    /// Pooled framed encode (`encode_framed_into` against a warm
    /// [`gpunion_protocol::BufferPool`] buffer) — the live transport path.
    pub encode_pooled: PassStats,
}

/// Measure the codec hot path: `passes` samples, each timing `iters`
/// back-to-back operations on the same heartbeat envelope (amortizing the
/// clock reads), reduced per-operation through [`PassStats`].
pub fn codec_cost_run(passes: usize, iters: usize) -> CodecRow {
    use gpunion_protocol::{
        AuthToken, BufferPool, Envelope, GpuStat, WorkloadState, WorkloadStatus,
    };
    let env = Envelope::from_node(
        NodeUid(3),
        AuthToken([7; 16]),
        Message::Control(Control::Heartbeat {
            node: NodeUid(3),
            seq: 12345,
            accepting: true,
            gpu_stats: vec![
                GpuStat {
                    memory_used: 10 << 30,
                    memory_total: 24 << 30,
                    utilization: 0.93,
                    temperature_c: 71.0,
                    power_w: 330.0,
                };
                8
            ],
            workloads: vec![
                WorkloadStatus {
                    job: JobId(9),
                    state: WorkloadState::Running,
                    progress: 0.41,
                    checkpoint_seq: 3,
                };
                4
            ],
        }),
    );
    let expect = env.to_bytes().len();
    let iters = iters.max(1) as u64;
    let per_op = |total_ns: u128| (total_ns as u64 / iters).max(1);

    let mut pool = BufferPool::new();
    // Warm the pool outside every timed window.
    let mut buf = pool.acquire();
    env.encode_framed_into(&mut buf).expect("heartbeat fits");
    pool.release(buf);

    let mut wire_size = Vec::with_capacity(passes);
    let mut encode_drop = Vec::with_capacity(passes);
    let mut encode_pooled = Vec::with_capacity(passes);
    for _ in 0..passes.max(1) {
        let t0 = Instant::now();
        let mut total = 0usize;
        for _ in 0..iters {
            total += env.wire_size() as usize;
        }
        wire_size.push(per_op(t0.elapsed().as_nanos()));
        assert_eq!(total, expect * iters as usize, "counting walk drifted");

        let t0 = Instant::now();
        for _ in 0..iters {
            let bytes = env.to_bytes();
            assert_eq!(bytes.len(), expect);
        }
        encode_drop.push(per_op(t0.elapsed().as_nanos()));

        let t0 = Instant::now();
        for _ in 0..iters {
            let mut buf = pool.acquire();
            env.encode_framed_into(&mut buf).expect("heartbeat fits");
            pool.release(buf);
        }
        encode_pooled.push(per_op(t0.elapsed().as_nanos()));
    }
    CodecRow {
        wire_size: PassStats::from_samples(wire_size),
        encode_drop: PassStats::from_samples(encode_drop),
        encode_pooled: PassStats::from_samples(encode_pooled),
    }
}

#[cfg(test)]
mod golden {
    use super::net_traffic_run;
    use gpunion_core::run_fig3;
    use gpunion_simnet::TrafficClass;

    /// |actual − expected| within `tol`, with a message naming the row.
    fn close(actual: f64, expected: f64, tol: f64, row: &str) {
        assert!(
            (actual - expected).abs() <= tol,
            "{row}: measured {actual} drifted from golden {expected} — if the \
             change is intentional, update this golden AND EXPERIMENTS.md"
        );
    }

    /// Fig. 3 rows at a reduced, fixed configuration (2 days, 3 events/day,
    /// seed 7). Guards the migration pipeline: displacement attribution,
    /// checkpoint restore, and migrate-back.
    #[test]
    fn fig3_migration_rows() {
        let r = run_fig3(2, 3.0, 7);
        assert_eq!(r.jobs_total, 18, "job-set size");
        assert_eq!(r.scheduled.events, 5, "scheduled events");
        assert_eq!(r.emergency.events, 0, "emergency events");
        assert_eq!(r.temporary.events, 2, "temporary events");
        assert_eq!(r.scheduled.displacements, 4, "scheduled displacements");
        assert_eq!(r.scheduled.restored, 4, "all scheduled restored from ckpt");
        assert_eq!(r.scheduled.restarted, 0, "none restarted from scratch");
        assert_eq!(r.temporary.displacements, 2, "temporary displacements");
        assert_eq!(r.temporary.migrated_back, 2, "temporary migrate-backs");
        assert_eq!(r.jobs_completed, 17, "jobs completed in horizon");
        close(r.scheduled_success_rate(), 1.0, 1e-9, "scheduled success");
        close(r.migrate_back_rate(), 1.0, 1e-9, "migrate-back rate");
    }

    /// Fig. 3 tail censoring at (2 days, 3 events/day, seed 12): the only
    /// emergency displacement hits within one restart window of the
    /// horizon end — it can never restart in time and must be excluded
    /// from attribution (it used to score the class as 0% recovery on a
    /// one-sample row).
    #[test]
    fn fig3_tail_displacement_censored() {
        let r = run_fig3(2, 3.0, 12);
        assert_eq!(r.emergency.tail_excluded, 1, "tail event censored");
        assert_eq!(
            r.emergency.displacements, 0,
            "no fairly-scorable emergency displacement remains"
        );
        assert_eq!(r.emergency.restored, 0);
        assert_eq!(r.emergency.restarted, 0);
        // The other classes are unaffected by the censoring.
        assert_eq!(r.scheduled.tail_excluded, 0);
        assert_eq!(r.temporary.tail_excluded, 0);
        close(r.scheduled_success_rate(), 1.0, 1e-9, "scheduled success");
    }

    /// §4 network-traffic rows at 1 day, seed 42: total checkpoint volume,
    /// sustained backbone share, and the staggered burst peak — through
    /// the same harness the `net_traffic` binary prints from.
    #[test]
    fn net_traffic_rows() {
        let run = net_traffic_run(1, 42);
        let backbone = run
            .scenario
            .world
            .backbone_link()
            .expect("star campus has a backbone");
        let acct = run.scenario.world.net.accounting();
        let total = acct.class_total(TrafficClass::Checkpoint);
        let sustained = acct.link_class_mean_rate(backbone, TrafficClass::Checkpoint, run.end)
            / run.backbone_bps;
        let burst =
            acct.link_class_peak_rate(backbone, TrafficClass::Checkpoint) / run.backbone_bps;
        // 2551.7 GB, pinned to the bit: every checkpoint's transfer size
        // feeds this sum.
        assert_eq!(
            total.to_bits(),
            0x4282_90fa_26a0_c600,
            "checkpoint total {total} bytes"
        );
        close(sustained, 0.0118, 5e-4, "sustained backbone share");
        close(burst, 0.115, 5e-3, "1-minute burst share");
        assert!(
            sustained < 0.02,
            "sustained checkpoint share {sustained} breaches the paper's 2% budget"
        );
    }

    /// §5.2 scalability rows, now **measured**: the emergent write
    /// latency of the coordinator's database actor under evenly-phased
    /// heartbeat traffic at a fixed seed, checked against the M/M/1
    /// oracle below the knee and for blow-up + backpressure past it.
    #[test]
    fn scalability_contention_knee_rows() {
        let r50 = super::contention_knee_run(50, 7);
        let r200 = super::contention_knee_run(200, 7);
        let r400 = super::contention_knee_run(400, 7);
        close(r50.utilization, 0.12, 0.005, "db utilization @ 50 nodes");
        close(r200.utilization, 0.48, 0.005, "db utilization @ 200 nodes");
        // Below the knee the emergent latency sits near the service time
        // and within the oracle's neighbourhood (deterministic arrivals
        // queue less than the Poisson model, so "tracks" means the same
        // regime, not equality).
        close(r50.measured_latency_ms, 12.7, 1.5, "measured tx @ 50 nodes");
        assert!(
            r50.measured_latency_ms < r50.model_latency_ms * 1.25,
            "below-knee latency should not exceed the oracle: {r50:?}"
        );
        close(
            r200.measured_latency_ms,
            14.4,
            2.0,
            "measured tx @ 200 nodes",
        );
        // The knee: 400 nodes (ρ ≈ 0.96) blows past the 200-node latency
        // by roughly an order of magnitude and builds a real backlog.
        close(
            r400.measured_latency_ms,
            142.6,
            30.0,
            "measured tx @ 400 nodes",
        );
        assert!(
            r400.measured_latency_ms > 8.0 * r200.measured_latency_ms,
            "no knee at 400 nodes: {r400:?}"
        );
        assert!(
            r400.peak_queue_depth > 30,
            "saturation must show up as queue depth: {r400:?}"
        );
        // Past saturation (ρ = 1.2) the bounded inbox must push back:
        // the queue hits its cap and heartbeat status writes are shed.
        let r500 = super::contention_knee_run(500, 7);
        assert!(
            r500.shed_writes > 0,
            "no backpressure past saturation: {r500:?}"
        );
        assert!(
            r500.peak_queue_depth >= 1024,
            "inbox bound never reached: {r500:?}"
        );
    }

    /// Critical-write backpressure under coordinator-inbox saturation
    /// (500 nodes, ρ = 1.2, one submission/s): every critical intent is
    /// deferred — DES-visible as inbox sojourn — and none is shed, while
    /// heartbeat status writes keep shedding at the database bound.
    #[test]
    fn saturation_defers_critical_intents_never_sheds() {
        let sat = super::saturation_run(500, 7);
        assert_eq!(
            sat.jobs_admitted, sat.submissions,
            "a critical intent was lost: {sat:?}"
        );
        assert!(sat.deferred_turns > 0, "no deferral at rho > 1: {sat:?}");
        assert!(
            sat.inbox_sojourn_ms_max > 1.0,
            "the stall must be DES-visible as inbox sojourn: {sat:?}"
        );
        assert!(
            sat.db_shed_status_writes > 0,
            "status writes still shed at the bound: {sat:?}"
        );
        // The probe is honoured: any over-bound admissions are the last
        // writes of single turns, not runaway fill.
        assert!(
            sat.db_over_bound_writes <= sat.deferred_turns * 2,
            "write queue over-filled past per-turn slack: {sat:?}"
        );
    }

    /// The gate must refuse to compare against a baseline recorded at a
    /// different schema — silently gating renamed or re-scoped rows is
    /// how the root baseline went stale at schema 6 while the checked-in
    /// one moved to 7.
    #[test]
    fn baseline_schema_mismatch_is_a_hard_failure() {
        use super::{check_baseline_schema, BENCH_SCHEMA};
        let current = format!("{{\n  \"schema\": {BENCH_SCHEMA},\n  \"x\": 1\n}}\n");
        assert!(check_baseline_schema(&current, BENCH_SCHEMA).is_ok());
        // Stale version: rejected with the version named in the error.
        let stale = "{\n  \"schema\": 6,\n  \"x\": 1\n}\n";
        let err = check_baseline_schema(stale, BENCH_SCHEMA).unwrap_err();
        assert!(err.contains("schema 6"), "{err}");
        assert!(err.contains(&format!("schema {BENCH_SCHEMA}")), "{err}");
        // Pre-versioning baseline without the key: also rejected.
        let unversioned = "{\n  \"x\": 1\n}\n";
        assert!(check_baseline_schema(unversioned, BENCH_SCHEMA).is_err());
        // Corrupt value: rejected, not parsed as zero.
        let corrupt = "{\n  \"schema\": \"seven\"\n}\n";
        assert!(check_baseline_schema(corrupt, BENCH_SCHEMA).is_err());
    }
}
