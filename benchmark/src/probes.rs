//! Probe spans: host nanoseconds per call of each layer's public
//! functions, timed from here on state shaped like the workload.
//!
//! The scheduler probes run on a world of the workload itself, advanced to
//! the end of its heaviest slice group — its coordinator holds exactly the
//! workload's fleet, live jobs and pending queue at the moment the run
//! costs most — and the stand-alone probes (DES, simnet, DB, agent) are
//! sized from the workload's counts. Nothing in here feeds an end-to-end
//! metric.

use crate::clock::Stopwatch;
use crate::run::{Outcome, World};
use crate::trace::Recorder;
use gpunion_agent::Action;
use gpunion_core::{Platform, PlatformConfig};
use gpunion_db::{DbActor, NodeRecord, NodeState, WriteIntent};
use gpunion_des::{Sim, SimDuration, SimTime, TypedEvent};
use gpunion_protocol::{
    AuthToken, Control, DispatchSpec, Envelope, ExecMode, GpuStat, JobId, Message, NodeUid, UserId,
    Work,
};
use gpunion_scheduler::{CoordAction, CoordEnvelope, Coordinator};
use gpunion_simnet::{star_campus, Network, NodeId, TrafficClass};
use gpunion_workload::ModelClass;
use std::hint::black_box;
use std::time::Instant;

/// Calls each probe aims to time (fewer only where state runs out).
const TARGET_CALLS: usize = 20_000;
/// Cap on concurrent flows in the flow probe (the per-event cost is linear
/// in the flow count; no workload here holds more at once).
const MAX_FLOWS: usize = 256;

/// Time `f`, record it as a span of `layer`, return compensated
/// nanoseconds per call.
fn probe(
    rec: &mut Recorder,
    name: &'static str,
    layer: &'static str,
    calls: usize,
    f: impl FnOnce(),
) -> f64 {
    let span = rec.open(name, layer, None);
    let mut watch = Stopwatch::start();
    watch.time(f);
    rec.close(span);
    rec.spans[span].counters = vec![("calls", calls as f64)];
    watch.compensated_s * 1e9 / calls.max(1) as f64
}

struct Noop;

impl TypedEvent<u64> for Noop {
    fn fire(self, fired: &mut u64, _: &mut Sim<u64, Noop>) {
        *fired += 1;
    }
}

/// Schedule + fire one no-op typed event with `timers` others pending.
fn des_schedule_fire(rec: &mut Recorder, timers: u64) -> f64 {
    let mut sim: Sim<u64, Noop> = Sim::new();
    let mut fired = 0u64;
    // The standing timers sit past everything the probe fires.
    let far = SimTime::from_secs(1_000_000);
    for i in 0..timers {
        sim.schedule_typed_at(far + SimDuration::from_millis(i), Noop);
    }
    let ns = probe(rec, "des.schedule_fire_ns", "des", TARGET_CALLS, || {
        for i in 1..=TARGET_CALLS as u64 {
            let at = SimTime::from_millis(5 * i);
            sim.schedule_typed_at(at, Noop);
            sim.run_until(&mut fired, at);
        }
    });
    assert_eq!(fired, TARGET_CALLS as u64, "every probe event fired");
    ns
}

fn campus(config: &PlatformConfig, nodes: usize) -> (Network<u32>, Vec<NodeId>, NodeId) {
    let (topo, hosts, coord, _) =
        star_campus(nodes, config.access, config.backbone, config.link_latency);
    let mut net = Network::new(topo, config.local_disk, config.seed);
    // Look every host's route up now: a run pays that once per host, then
    // millions of messages ride the cache.
    for &host in &hosts {
        let _ = net.send(SimTime::ZERO, host, coord, 1, TrafficClass::Control, 0);
    }
    net.poll(WARM);
    (net, hosts, coord)
}

/// When the probe networks are warm and the probes may start.
const WARM: SimTime = SimTime::from_secs(1);

/// `Network::send` + `poll` per control message on the star topology, one
/// message in flight at a time (a heartbeat is delivered long before the
/// next one leaves, at every fleet size here).
fn simnet_send_poll(rec: &mut Recorder, config: &PlatformConfig, nodes: usize, bytes: u32) -> f64 {
    let (mut net, hosts, coord) = campus(config, nodes);
    let mut delivered = 0usize;
    let ns = probe(rec, "simnet.send_poll_ns", "simnet", TARGET_CALLS, || {
        let mut now = WARM;
        for i in 0..TARGET_CALLS {
            let host = hosts[i % nodes];
            let _ = net.send(now, host, coord, bytes, TrafficClass::Control, i as u32);
            now = net.next_event_at().expect("a message is in flight");
            delivered += net.poll(now).len();
        }
    });
    assert_eq!(delivered, TARGET_CALLS, "every probe message arrived");
    ns
}

/// `start_flow` → completion via `poll`, with `concurrent` flows through
/// the backbone at once — what a flow event of this workload met on
/// average — and, while they are all active, `poll` with nothing due (the
/// pump polls on every iteration, and a poll walks the active flows).
/// Returns (µs per flow event — a start or a completion —, ns per active
/// flow per idle poll).
fn simnet_flows(
    rec: &mut Recorder,
    config: &PlatformConfig,
    nodes: usize,
    concurrent: f64,
) -> (f64, f64) {
    let flows = (concurrent.ceil() as usize).clamp(1, MAX_FLOWS.min(nodes));
    let (mut net, hosts, coord) = campus(config, nodes);
    let starts = probe(rec, "simnet.flow_event_us", "simnet", flows, || {
        for (i, &host) in hosts.iter().take(flows).enumerate() {
            // Distinct sizes: the flows end one by one, each end a recompute.
            let bytes = (i as u64 + 1) * (8 << 20);
            let _ = net.start_flow(WARM, host, coord, bytes, TrafficClass::Checkpoint, 0);
        }
    });
    const IDLE_POLLS: usize = 2_000;
    let idle = probe(rec, "simnet.poll_flow_ns", "simnet", IDLE_POLLS, || {
        for i in 1..=IDLE_POLLS as u64 {
            // A microsecond on: no flow of 8 MB or more ends this soon.
            black_box(net.poll(WARM + SimDuration::from_nanos(i)));
            black_box(net.next_event_at());
        }
    });
    let mut ended = 0usize;
    let ends = probe(rec, "simnet.flow_event_us", "simnet", flows, || {
        while let Some(at) = net.next_event_at() {
            ended += net.poll(at).len();
        }
    });
    assert_eq!(ended, flows, "every probe flow completed");
    ((starts + ends) / 2.0 / 1e3, idle / flows as f64)
}

/// `wire_size`, `to_bytes`, `from_bytes` over a heartbeat / ack / dispatch
/// mix in the workload's proportions. Returns (size, encode, decode) ns.
fn protocol_codec(
    rec: &mut Recorder,
    heartbeat: &Message,
    dispatch: &Message,
    dispatch_share: f64,
) -> (f64, f64, f64) {
    let (node, seq) = (NodeUid(7), 41);
    let token = AuthToken([7; 16]);
    let ack: Message = Control::HeartbeatAck { node, seq }.into();
    let every = if dispatch_share > 0.0 {
        (1.0 / dispatch_share).round().max(2.0) as usize
    } else {
        usize::MAX
    };
    // Heartbeats and acks come in pairs; a dispatch takes every n-th place.
    let mix: Vec<Envelope> = (0..256)
        .map(|i| {
            let msg = if i % every == every - 1 {
                dispatch
            } else if i % 2 == 0 {
                heartbeat
            } else {
                &ack
            };
            Envelope::from_node(node, token, msg.clone())
        })
        .collect();
    let rounds = TARGET_CALLS / mix.len();
    let calls = rounds * mix.len();
    let size = probe(rec, "protocol.wire_size_ns", "protocol", calls, || {
        for _ in 0..rounds {
            for env in &mix {
                black_box(black_box(env).wire_size());
            }
        }
    });
    let encode = probe(rec, "protocol.encode_ns", "protocol", calls, || {
        for _ in 0..rounds {
            for env in &mix {
                black_box(black_box(env).to_bytes());
            }
        }
    });
    let encoded: Vec<_> = mix.iter().map(Envelope::to_bytes).collect();
    let decode = probe(rec, "protocol.decode_ns", "protocol", calls, || {
        for _ in 0..rounds {
            for bytes in &encoded {
                black_box(Envelope::from_bytes(black_box(bytes)).expect("round trip"));
            }
        }
    });
    (size, encode, decode)
}

/// `DbActor::submit` + `advance` per status write, `nodes` rows in the table.
fn db_submit_advance(rec: &mut Recorder, config: &PlatformConfig, nodes: usize) -> f64 {
    let mut db = DbActor::new(config.coordinator.db, config.seed);
    let mut now = SimTime::ZERO;
    let step = config.coordinator.db.mean_service_time;
    for i in 0..nodes as u64 {
        db.submit(
            now,
            WriteIntent::UpsertNode(NodeRecord {
                uid: NodeUid(i),
                hostname: format!("ws-{i}"),
                gpu_count: 1,
                registered_at: now,
                last_seen: now,
                state: NodeState::Active,
            }),
        );
        now += step;
        db.advance(now);
    }
    probe(rec, "db.submit_advance_ns", "db", TARGET_CALLS, || {
        for i in 0..TARGET_CALLS as u64 {
            db.submit(now, WriteIntent::NodeSeen(NodeUid(i % nodes as u64)));
            now += step;
            black_box(db.advance(now));
        }
    })
}

/// What the probes on the workload's own world measured.
struct FleetProbes {
    heartbeat_turn_ns: f64,
    sweep_us: f64,
    pass_full_us: f64,
    pass_free_us: f64,
    /// `on_wake` of agents without / with a workload; `None` where the
    /// fleet has no such agent.
    on_wake_idle_ns: Option<f64>,
    on_wake_busy_ns: Option<f64>,
    /// `None` where no heartbeat of the fleet drew an ack.
    handle_message_ns: Option<f64>,
    /// A real heartbeat from the fleet, for the codec mix.
    heartbeat: Option<Message>,
}

fn heartbeat_of(actions: Vec<Action>) -> Option<Message> {
    actions.into_iter().find_map(|a| match a {
        Action::Send(msg @ Message::Control(Control::Heartbeat { .. })) => Some(msg),
        _ => None,
    })
}

fn ack_of(actions: Vec<CoordAction>) -> Option<Message> {
    actions.into_iter().find_map(|a| match a {
        CoordAction::Send {
            msg: msg @ Message::Control(Control::HeartbeatAck { .. }),
            ..
        } => Some(msg),
        _ => None,
    })
}

/// A heartbeat that reports every GPU of the node at `used` of its memory.
fn status_heartbeat(node: NodeUid, seq: u64, gpus: usize, used: f64) -> Message {
    let total = 24u64 << 30;
    Control::Heartbeat {
        node,
        seq,
        accepting: true,
        gpu_stats: vec![
            GpuStat {
                memory_used: (total as f64 * used) as u64,
                memory_total: total,
                utilization: used,
                temperature_c: 60.0,
                power_w: 200.0,
            };
            gpus
        ],
        workloads: Vec::new(),
    }
    .into()
}

fn training_spec(world: &Platform) -> DispatchSpec {
    let profile = ModelClass::CnnSmall.profile();
    let image = &world.image_refs[0];
    DispatchSpec {
        job: JobId(0),
        image_repo: image.repository.clone(),
        image_tag: image.tag.clone(),
        image_digest: image.digest.0,
        gpus: 1,
        gpu_mem_bytes: profile.gpu_mem_bytes,
        min_cc: None,
        mode: ExecMode::Batch {
            entrypoint: vec!["python".into(), "train.py".into()],
        },
        checkpoint_interval_secs: 1_800,
        storage_nodes: Vec::new(),
        state_bytes_hint: profile.state_bytes,
        restore_from_seq: None,
        priority: 1,
        user: UserId::SYSTEM,
    }
}

/// Run the coordinator until nothing is due by `until`; returns the raw
/// seconds of each turn taken.
fn drain(coord: &mut Coordinator, until: SimTime) -> Vec<f64> {
    let mut turns = Vec::new();
    while let Some(at) = coord.next_wake().filter(|&t| t <= until) {
        let t = Instant::now();
        black_box(coord.advance(at));
        turns.push(t.elapsed().as_secs_f64());
    }
    turns
}

/// Raw seconds of `f`.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// One heartbeat period after another on the workload's own world: every
/// agent wakes once per period (evenly spread), its real heartbeat takes a
/// coordinator turn, and the ack comes back to it — the platform's steady
/// cycle, driven from outside so each leg can be timed. Then the two
/// passes, on the same coordinator.
fn fleet(rec: &mut Recorder, fin: &mut World) -> FleetProbes {
    let period = fin.config.coordinator.heartbeat_period;
    let nodes = fin.hosts.len();
    let rounds = (TARGET_CALLS / nodes).clamp(2, 400);
    let step = SimDuration::from_nanos(period.as_nanos() / nodes as u64);
    let (registry, _) = gpunion_container::standard_catalogue();
    let mut watch = Stopwatch::start();
    let mut sample = None;
    // Compensated seconds and calls of: coordinator, idle and busy
    // `on_wake`, `handle_message`.
    let (mut coord_s, mut idle_s, mut busy_s, mut ack_s) = (0.0, 0.0, 0.0, 0.0);
    let (mut beats, mut idle_n, mut busy_n, mut ack_n) = (0usize, 0usize, 0usize, 0usize);
    let mut sweeps = Vec::new();
    let mut now = fin.end;

    // A heartbeat's cost to the coordinator is its own turn plus the turns
    // it causes later (its status write applying, the sweep reading what
    // it refreshed), so the figure is all coordinator time of a round over
    // the round's heartbeats. The slowest single turn that is not a
    // heartbeat's own is the `HeartbeatSweep` — or, past the DB knee, the
    // batch the coordinator drains when a stall ends.
    let span = rec.open("fleet_heartbeat_rounds", "core", None);
    for _ in 0..rounds {
        let round_start = now;
        let (mut coord_raw, mut idle_raw, mut busy_raw, mut ack_raw) = (0.0, 0.0, 0.0, 0.0);
        let mut slowest_other_s = 0.0f64;
        for &addr in &fin.hosts {
            now += step;
            let Some(agent) = fin.platform.agent_mut(addr) else {
                continue;
            };
            let busy = agent.workload_count() > 0;
            let (actions, s) = timed(|| agent.on_wake(now));
            let Some(beat) = heartbeat_of(actions) else {
                continue; // departed, or its timer is not due yet
            };
            if busy {
                busy_raw += s;
                busy_n += 1;
            } else {
                idle_raw += s;
                idle_n += 1;
            }
            if sample.is_none() {
                sample = Some(beat.clone());
            }
            let coord = &mut fin.platform.coordinator;
            let just_before = now.checked_sub(SimDuration::from_nanos(1)).unwrap_or(now);
            for s in drain(coord, just_before) {
                coord_raw += s;
                slowest_other_s = slowest_other_s.max(s);
            }
            let (actions, s) = timed(|| {
                coord.send(now, CoordEnvelope::Msg(Box::new(beat)));
                coord.advance(now)
            });
            coord_raw += s;
            beats += 1;
            if let (Some(ack), Some(agent)) = (ack_of(actions), fin.platform.agent_mut(addr)) {
                ack_raw += timed(|| agent.handle_message(now, ack, &registry)).1;
                ack_n += 1;
            }
        }
        // One clock probe per round covers all its short calls.
        let raw = coord_raw + idle_raw + busy_raw + ack_raw;
        let scale = if raw > 0.0 {
            watch.book(raw) / raw
        } else {
            1.0
        };
        coord_s += coord_raw * scale;
        idle_s += idle_raw * scale;
        busy_s += busy_raw * scale;
        ack_s += ack_raw * scale;
        if slowest_other_s > 0.0 {
            sweeps.push(slowest_other_s * scale);
        }
        now = round_start + period;
    }
    rec.close(span);
    rec.spans[span].counters = vec![("calls", beats as f64)];

    // ---- passes: one job submission, drained until its pass has run -------
    let spec = training_spec(&fin.platform);
    let uids: Vec<(NodeUid, usize)> = fin
        .hosts
        .iter()
        .zip(&fin.gpus_per_host)
        .filter_map(|(&addr, &gpus)| Some((fin.platform.agent(addr)?.uid()?, gpus)))
        .collect();
    let coord = &mut fin.platform.coordinator;
    let mut pass = |name: &'static str, free_share: f64, now: &mut SimTime| {
        // Telemetry decides capacity: report the first `free_share` of the
        // fleet empty and the rest full, then let one submission arm a pass.
        let free = (uids.len() as f64 * free_share) as usize;
        for (i, &(uid, gpus)) in uids.iter().enumerate() {
            *now += SimDuration::from_micros(10);
            let used = if i < free { 0.0 } else { 1.0 };
            let beat = status_heartbeat(uid, u64::MAX / 2 + i as u64, gpus, used);
            coord.send(*now, CoordEnvelope::Msg(Box::new(beat)));
            coord.advance(*now);
        }
        let span = rec.open(name, "scheduler", None);
        let mut watch = Stopwatch::start();
        let (_, submit_s) =
            timed(|| coord.send(*now, CoordEnvelope::SubmitJob(Box::new(spec.clone()))));
        // The pass is armed one write-queue latency out. Stay inside two
        // heartbeat periods: no beats arrive meanwhile, and past three the
        // sweep would declare the fleet lost.
        let wait = coord.db_write_latency(*now) + SimDuration::from_secs(1);
        *now += wait.min(period * 2);
        let raw_s = submit_s + drain(coord, *now).iter().sum::<f64>();
        rec.close(span);
        watch.book(raw_s) * 1e6
    };
    let pass_full_us = pass("scheduler.pass_full_us", 0.0, &mut now);
    let pass_free_us = pass("scheduler.pass_free_us", 0.5, &mut now);

    let per_call = |s: f64, n: usize| (n > 0).then(|| s * 1e9 / n as f64);
    FleetProbes {
        heartbeat_turn_ns: per_call(coord_s, beats).unwrap_or(0.0),
        // No turn but the heartbeats' own: nothing to call a sweep.
        sweep_us: if sweeps.is_empty() {
            0.0
        } else {
            crate::metrics::median(&sweeps) * 1e6
        },
        pass_full_us,
        pass_free_us,
        on_wake_idle_ns: per_call(idle_s, idle_n),
        on_wake_busy_ns: per_call(busy_s, busy_n),
        handle_message_ns: per_call(ack_s, ack_n),
        heartbeat: sample,
    }
}

/// Every probe span, then the shares they imply. `fin` is the workload's
/// own world at its heaviest; `outcome` and `wall_s` (compensated) are the
/// traced run's.
pub fn run_all(
    rec: &mut Recorder,
    mut fin: World,
    outcome: &Outcome,
    wall_s: f64,
) -> Vec<(&'static str, f64)> {
    let counts = &outcome.counts;
    let util = outcome
        .sim
        .iter()
        .find(|(name, _)| *name == "gpu_util_mean")
        .map_or(0.0, |&(_, v)| v);
    let config = fin.config.clone();
    let nodes = fin.hosts.len();
    let dispatch: Message = Work::Dispatch {
        spec: training_spec(&fin.platform),
    }
    .into();
    let msgs = counts.msgs_sent.max(1) as f64;
    let dispatch_share = counts.dispatches as f64 / msgs;
    let bytes_per_msg = counts.backbone_control_bytes / msgs;

    let fleet = fleet(rec, &mut fin);
    drop(fin);
    let heartbeat = fleet
        .heartbeat
        .unwrap_or_else(|| status_heartbeat(NodeUid(7), 1, 1, 0.5));

    let schedule_fire_ns = des_schedule_fire(rec, nodes as u64);
    let send_poll_ns = simnet_send_poll(rec, &config, nodes, bytes_per_msg.max(1.0) as u32);
    let (flow_event_us, poll_flow_ns) =
        simnet_flows(rec, &config, nodes, counts.flow_concurrency_est);
    let (wire_size_ns, encode_ns, decode_ns) =
        protocol_codec(rec, &heartbeat, &dispatch, dispatch_share);
    let submit_advance_ns = db_submit_advance(rec, &config, nodes);

    // Shares: count × probe time ÷ wall. An estimate from outside — what
    // it leaves over is `core.unattributed_share`.
    let wall_ns = wall_s * 1e9;
    let turns = counts.inbox_turns as f64;
    // Agents send every heartbeat the coordinator then takes a turn for or
    // sheds at its inbox bound; only the former draw an ack.
    let beats = turns + counts.shed_envelopes as f64;
    // Every pump iteration polls the network, and a poll walks the active
    // flows: pump events × the flows active on average × the cost of one.
    let flows_active = counts.flow_seconds_est / outcome.horizon_s;
    let on_wake_ns = match (fleet.on_wake_idle_ns, fleet.on_wake_busy_ns) {
        (Some(idle), Some(busy)) => idle + (busy - idle) * util,
        (idle, busy) => idle.or(busy).unwrap_or(0.0),
    };
    let shares = [
        (
            "des.est_share",
            counts.events_fired as f64 * schedule_fire_ns,
        ),
        (
            "simnet.est_share",
            msgs * send_poll_ns
                + counts.flows_est as f64 * 2.0 * flow_event_us * 1e3
                + counts.pump_events as f64 * flows_active * poll_flow_ns,
        ),
        ("protocol.est_share", msgs * wire_size_ns),
        (
            "db.est_share",
            counts.db_applied_writes as f64 * submit_advance_ns,
        ),
        (
            "scheduler.est_share",
            // Sweeps are inside `heartbeat_turn_ns` already.
            turns * fleet.heartbeat_turn_ns
                + counts.pass_triggers as f64 * fleet.pass_full_us * 1e3,
        ),
        (
            "agent.est_share",
            beats * on_wake_ns + turns * fleet.handle_message_ns.unwrap_or(0.0),
        ),
    ]
    .map(|(name, ns)| (name, ns / wall_ns));
    let attributed: f64 = shares.iter().map(|(_, s)| s).sum();

    let mut out = vec![
        ("des.schedule_fire_ns", schedule_fire_ns),
        ("simnet.send_poll_ns", send_poll_ns),
        ("simnet.flow_event_us", flow_event_us),
        ("simnet.poll_flow_ns", poll_flow_ns),
        ("protocol.wire_size_ns", wire_size_ns),
        ("protocol.encode_ns", encode_ns),
        ("protocol.decode_ns", decode_ns),
        ("db.submit_advance_ns", submit_advance_ns),
        ("scheduler.heartbeat_turn_ns", fleet.heartbeat_turn_ns),
        ("scheduler.pass_full_us", fleet.pass_full_us),
        ("scheduler.pass_free_us", fleet.pass_free_us),
        ("scheduler.sweep_us", fleet.sweep_us),
    ];
    out.extend(
        fleet
            .handle_message_ns
            .map(|ns| ("agent.handle_message_ns", ns)),
    );
    out.extend(
        fleet
            .on_wake_idle_ns
            .map(|ns| ("agent.on_wake_idle_ns", ns)),
    );
    out.extend(
        fleet
            .on_wake_busy_ns
            .map(|ns| ("agent.on_wake_busy_ns", ns)),
    );
    out.extend(shares);
    out.push(("core.unattributed_share", 1.0 - attributed));
    out
}
