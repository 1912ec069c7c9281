//! # gpunion-scheduler — the central coordinator
//!
//! The coordination hub of §3.2 as a single-owner actor: node
//! [`directory::Directory`] fed by registrations and heartbeats, round-robin
//! placement ([`strategy::Selector`]) over the database-resident pending
//! queue,
//! heartbeat-loss failure detection (three missed beats), displacement +
//! checkpoint-restore migration, and migrate-back when providers return.
//! All mutating traffic enters through the coordinator's bounded inbox of
//! typed [`coordinator::CoordEnvelope`]s and is processed one actor turn at
//! a time inside [`coordinator::Coordinator::advance`] — with every
//! decision paying the emergent sojourn time of its own write through the
//! database actor's bounded queue, the contention that bounds scalability
//! (§5.2). When that queue is at bound, the coordinator defers its own
//! turns instead of over-filling it: critical writes are delayed, never
//! dropped.

#![forbid(unsafe_code)]

pub mod coordinator;
pub mod directory;
pub mod strategy;

pub use coordinator::{
    CoordAction, CoordEnvelope, Coordinator, CoordinatorConfig, CoordinatorStats, JobEvent,
    SendOutcome,
};
pub use directory::{Directory, NodeEntry, NodeLiveness};
pub use strategy::Selector;

#[cfg(test)]
mod tests {
    use super::*;
    use gpunion_des::{SimDuration, SimTime};
    use gpunion_gpu::GpuModel;
    use gpunion_protocol::{
        Control, DispatchSpec, ExecMode, GpuStat, JobId, Message, NodeUid, UserId, Work,
        WorkloadState, WorkloadStatus,
    };

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn spec() -> DispatchSpec {
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

    /// Enqueue a pre-authenticated message and run the actor's turn at
    /// `now`. Due timers at or before `now` fire in the same call — the
    /// actor merges envelopes and timer wakes in time order.
    fn msg(coord: &mut Coordinator, now: SimTime, m: Message) -> Vec<CoordAction> {
        coord.send(now, CoordEnvelope::Msg(Box::new(m)));
        coord.advance(now)
    }

    /// Enqueue a job submission and run its turn; returns the assigned id
    /// (handed out at admission) and the turn's actions.
    fn submit(
        coord: &mut Coordinator,
        now: SimTime,
        spec: DispatchSpec,
    ) -> (JobId, Vec<CoordAction>) {
        let outcome = coord.send(now, CoordEnvelope::SubmitJob(Box::new(spec)));
        let SendOutcome::Enqueued { job: Some(job) } = outcome else {
            panic!("job submissions are never shed: {outcome:?}");
        };
        (job, coord.advance(now))
    }

    fn register(coord: &mut Coordinator, now: SimTime, machine: &str) -> NodeUid {
        let actions = msg(
            coord,
            now,
            Control::Register {
                machine_id: machine.into(),
                hostname: machine.into(),
                gpus: vec![GpuModel::Rtx3090.into()],
                agent_version: 1,
            }
            .into(),
        );
        actions
            .iter()
            .find_map(|a| match a {
                CoordAction::Send {
                    msg: Message::Control(Control::RegisterAck { node, .. }),
                    ..
                } => Some(*node),
                _ => None,
            })
            .expect("ack")
    }

    fn heartbeat(
        coord: &mut Coordinator,
        now: SimTime,
        node: NodeUid,
        seq: u64,
    ) -> Vec<CoordAction> {
        heartbeat_reporting(coord, now, node, seq, vec![])
    }

    /// A heartbeat whose workload report includes `job` running on `node`.
    fn heartbeat_with_workload(
        coord: &mut Coordinator,
        now: SimTime,
        node: NodeUid,
        seq: u64,
        job: JobId,
    ) -> Vec<CoordAction> {
        let running = WorkloadStatus {
            job,
            state: WorkloadState::Running,
            progress: 0.1,
            checkpoint_seq: 0,
        };
        heartbeat_reporting(coord, now, node, seq, vec![running])
    }

    fn heartbeat_reporting(
        coord: &mut Coordinator,
        now: SimTime,
        node: NodeUid,
        seq: u64,
        workloads: Vec<WorkloadStatus>,
    ) -> Vec<CoordAction> {
        let stats = vec![GpuStat {
            memory_used: 0,
            memory_total: 24 << 30,
            utilization: 0.0,
            temperature_c: 30.0,
            power_w: 25.0,
        }];
        msg(
            coord,
            now,
            Control::Heartbeat {
                node,
                seq,
                accepting: true,
                gpu_stats: stats,
                workloads,
            }
            .into(),
        )
    }

    /// Drain all coordinator wakes up to `until`, then take the turn at
    /// `until` itself, so the database reads as of `until` (a write that
    /// completes between wakes applies at the next turn, not at its own
    /// wake).
    fn drive(coord: &mut Coordinator, until: SimTime) -> Vec<CoordAction> {
        let mut out = Vec::new();
        while let Some(at) = coord.next_wake() {
            if at > until {
                break;
            }
            out.extend(coord.advance(at));
        }
        out.extend(coord.advance(until));
        out
    }

    fn find_dispatch(actions: &[CoordAction]) -> Option<(NodeUid, JobId)> {
        actions.iter().find_map(|a| match a {
            CoordAction::Send {
                to,
                msg: Message::Work(Work::Dispatch { spec }),
                ..
            } => Some((*to, spec.job)),
            _ => None,
        })
    }

    fn all_dispatches(actions: &[CoordAction]) -> Vec<(NodeUid, JobId)> {
        actions
            .iter()
            .filter_map(|a| match a {
                CoordAction::Send {
                    to,
                    msg: Message::Work(Work::Dispatch { spec }),
                    ..
                } => Some((*to, spec.job)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn submit_dispatch_accept_cycle() {
        let mut coord = Coordinator::new(CoordinatorConfig::default(), 1);
        let node = register(&mut coord, t(1), "m-1");
        heartbeat(&mut coord, t(2), node, 1);
        let (job, actions) = submit(&mut coord, t(3), spec());
        assert!(actions.iter().any(|a| matches!(
            a,
            CoordAction::JobEvent {
                event: JobEvent::Queued,
                ..
            }
        )));
        // The pass fires shortly after.
        let actions = drive(&mut coord, t(4));
        let (to, j) = find_dispatch(&actions).expect("dispatch");
        assert_eq!(to, node);
        assert_eq!(j, job);
        // Accept.
        msg(
            &mut coord,
            t(5),
            Work::DispatchReply {
                job,
                accepted: true,
                reason: String::new(),
            }
            .into(),
        );
        assert_eq!(coord.job_node(job), Some(node));
        // The allocation row lands once its write's service completes.
        drive(&mut coord, t(6));
        assert!(coord.db().allocation(job).is_some());
    }

    #[test]
    fn rejection_retries_on_other_node() {
        let mut coord = Coordinator::new(CoordinatorConfig::default(), 1);
        let n1 = register(&mut coord, t(1), "m-1");
        let n2 = register(&mut coord, t(1), "m-2");
        heartbeat(&mut coord, t(2), n1, 1);
        heartbeat(&mut coord, t(2), n2, 1);
        let (job, _) = submit(&mut coord, t(3), spec());
        let actions = drive(&mut coord, t(4));
        let (first, _) = find_dispatch(&actions).expect("dispatch");
        let actions = msg(
            &mut coord,
            t(5),
            Work::DispatchReply {
                job,
                accepted: false,
                reason: "busy".into(),
            }
            .into(),
        );
        assert!(
            find_dispatch(&actions).is_none(),
            "pass is re-armed, not inline"
        );
        let actions = drive(&mut coord, t(6));
        let (second, _) = find_dispatch(&actions).expect("second dispatch");
        assert_ne!(first, second, "rejected node excluded");
        let _ = (n1, n2);
    }

    #[test]
    fn heartbeat_loss_displaces_jobs() {
        let mut coord = Coordinator::new(CoordinatorConfig::default(), 1);
        let node = register(&mut coord, t(1), "m-1");
        heartbeat(&mut coord, t(2), node, 1);
        let (job, _) = submit(&mut coord, t(3), spec());
        drive(&mut coord, t(4));
        msg(
            &mut coord,
            t(5),
            Work::DispatchReply {
                job,
                accepted: true,
                reason: String::new(),
            }
            .into(),
        );
        // Stay alive until t=400 (the actor fires sweeps in time order, so
        // the checkpoint must land before the node goes stale).
        for (i, s) in (7..=400).step_by(5).enumerate() {
            heartbeat(&mut coord, t(s), node, 2 + i as u64);
        }
        // Record a checkpoint so the requeue can restore.
        msg(
            &mut coord,
            t(400),
            Work::CheckpointDone {
                job,
                seq: 3,
                transfer_bytes: 1 << 20,
                stored_on: vec![],
            }
            .into(),
        );
        // No heartbeats after t=397 ⇒ sweep marks it lost (timeout = 3 × 5 s).
        let actions = drive(&mut coord, t(430));
        assert!(
            actions.iter().any(|a| matches!(
                a,
                CoordAction::JobEvent {
                    event: JobEvent::Requeued {
                        restore_seq: Some(3)
                    },
                    ..
                }
            )),
            "job requeued with checkpoint restore"
        );
        assert_eq!(coord.job_node(job), None);
    }

    #[test]
    fn graceful_departure_then_offline_migrates() {
        let mut coord = Coordinator::new(CoordinatorConfig::default(), 1);
        let n1 = register(&mut coord, t(1), "m-1");
        let n2 = register(&mut coord, t(1), "m-2");
        heartbeat(&mut coord, t(2), n1, 1);
        heartbeat(&mut coord, t(2), n2, 1);
        let (job, _) = submit(&mut coord, t(3), spec());
        let actions = drive(&mut coord, t(4));
        let (target, _) = find_dispatch(&actions).expect("dispatch");
        msg(
            &mut coord,
            t(5),
            Work::DispatchReply {
                job,
                accepted: true,
                reason: String::new(),
            }
            .into(),
        );
        // Provider announces graceful departure; checkpoint lands; node
        // goes silent.
        msg(
            &mut coord,
            t(10),
            Control::DepartureNotice {
                node: target,
                mode: gpunion_protocol::DepartureMode::Graceful { grace_secs: 120 },
            }
            .into(),
        );
        msg(
            &mut coord,
            t(15),
            Work::CheckpointDone {
                job,
                seq: 1,
                transfer_bytes: 1 << 20,
                stored_on: vec![],
            }
            .into(),
        );
        // Keep the survivor alive while the departed node goes stale; the
        // sweeps (and the re-dispatch they trigger) fire during these
        // turns, so collect everything.
        let other = if target == n1 { n2 } else { n1 };
        let mut actions = Vec::new();
        for (i, s) in (20..60).step_by(5).enumerate() {
            actions.extend(heartbeat(&mut coord, t(s), other, 2 + i as u64));
        }
        actions.extend(drive(&mut coord, t(60)));
        // The job must have been requeued with restore and re-dispatched to
        // the other node.
        let dispatches = all_dispatches(&actions);
        assert!(
            dispatches.iter().any(|(to, j)| *to == other && *j == job),
            "dispatches: {dispatches:?}"
        );
    }

    #[test]
    fn kill_switch_update_requeues() {
        let mut coord = Coordinator::new(CoordinatorConfig::default(), 1);
        let n1 = register(&mut coord, t(1), "m-1");
        heartbeat(&mut coord, t(2), n1, 1);
        let (job, _) = submit(&mut coord, t(3), spec());
        drive(&mut coord, t(4));
        msg(
            &mut coord,
            t(5),
            Work::DispatchReply {
                job,
                accepted: true,
                reason: String::new(),
            }
            .into(),
        );
        let actions = msg(
            &mut coord,
            t(50),
            Work::WorkloadUpdate {
                status: WorkloadStatus {
                    job,
                    state: WorkloadState::Killed,
                    progress: 0.2,
                    checkpoint_seq: 0,
                },
                exit_code: Some(137),
            }
            .into(),
        );
        assert!(actions.iter().any(|a| matches!(
            a,
            CoordAction::JobEvent {
                event: JobEvent::Requeued { restore_seq: None },
                ..
            }
        )));
    }

    #[test]
    fn completion_cleans_up() {
        let mut coord = Coordinator::new(CoordinatorConfig::default(), 1);
        let n1 = register(&mut coord, t(1), "m-1");
        heartbeat(&mut coord, t(2), n1, 1);
        let (job, _) = submit(&mut coord, t(3), spec());
        drive(&mut coord, t(4));
        msg(
            &mut coord,
            t(5),
            Work::DispatchReply {
                job,
                accepted: true,
                reason: String::new(),
            }
            .into(),
        );
        let actions = msg(
            &mut coord,
            t(100),
            Work::WorkloadUpdate {
                status: WorkloadStatus {
                    job,
                    state: WorkloadState::Completed,
                    progress: 1.0,
                    checkpoint_seq: 2,
                },
                exit_code: Some(0),
            }
            .into(),
        );
        assert!(actions.iter().any(|a| matches!(
            a,
            CoordAction::JobEvent {
                event: JobEvent::Completed,
                ..
            }
        )));
        assert_eq!(coord.stats().live_jobs, 0);
        // The completion write is fire-and-forget; let it apply.
        drive(&mut coord, t(101));
        assert_eq!(
            coord.db().job(job).unwrap().state,
            gpunion_db::JobState::Completed
        );
    }

    #[test]
    fn heartbeat_only_advances_the_checkpoint_seq() {
        let mut coord = Coordinator::new(CoordinatorConfig::default(), 1);
        let n1 = register(&mut coord, t(1), "m-1");
        heartbeat(&mut coord, t(2), n1, 1);
        let (job, _) = submit(&mut coord, t(3), spec());
        drive(&mut coord, t(4));
        msg(
            &mut coord,
            t(5),
            Work::DispatchReply {
                job,
                accepted: true,
                reason: String::new(),
            }
            .into(),
        );
        let report = |coord: &mut Coordinator, now: u64, checkpoint_seq: u64| {
            msg(
                coord,
                t(now),
                Control::Heartbeat {
                    node: n1,
                    seq: now,
                    accepting: true,
                    gpu_stats: vec![],
                    workloads: vec![WorkloadStatus {
                        job,
                        state: WorkloadState::Running,
                        progress: 0.1,
                        checkpoint_seq,
                    }],
                }
                .into(),
            );
            coord.job_checkpoint(job)
        };
        assert_eq!(report(&mut coord, 6, 0), None, "seq 0 = no checkpoint yet");
        assert_eq!(report(&mut coord, 7, 2), Some((2, vec![])));
        let stored = vec![NodeUid(7), NodeUid(9)];
        msg(
            &mut coord,
            t(8),
            Work::CheckpointDone {
                job,
                seq: 3,
                transfer_bytes: 1 << 20,
                stored_on: stored.clone(),
            }
            .into(),
        );
        // A repeated or older seq leaves the record untouched…
        assert_eq!(report(&mut coord, 9, 3), Some((3, stored.clone())));
        assert_eq!(report(&mut coord, 10, 2), Some((3, stored.clone())));
        // …a newer one advances the seq and keeps the storage nodes.
        assert_eq!(report(&mut coord, 11, 4), Some((4, stored)));
    }

    #[test]
    fn migrate_back_on_provider_return() {
        let mut coord = Coordinator::new(CoordinatorConfig::default(), 1);
        let n1 = register(&mut coord, t(1), "m-1");
        let n2 = register(&mut coord, t(1), "m-2");
        heartbeat(&mut coord, t(2), n1, 1);
        heartbeat(&mut coord, t(2), n2, 1);
        let (job, _) = submit(&mut coord, t(3), spec());
        let actions = drive(&mut coord, t(4));
        let (home, _) = find_dispatch(&actions).expect("dispatch");
        msg(
            &mut coord,
            t(5),
            Work::DispatchReply {
                job,
                accepted: true,
                reason: String::new(),
            }
            .into(),
        );
        // Home node dies; job migrates to the other node.
        coord.send(t(10), CoordEnvelope::NodeDeparture(home));
        let mut actions = coord.advance(t(10));
        let other = if home == n1 { n2 } else { n1 };
        actions.extend(heartbeat(&mut coord, t(11), other, 2));
        actions.extend(drive(&mut coord, t(12)));
        let (second, _) = find_dispatch(&actions).expect("re-dispatch");
        assert_eq!(second, other);
        msg(
            &mut coord,
            t(13),
            Work::DispatchReply {
                job,
                accepted: true,
                reason: String::new(),
            }
            .into(),
        );
        // Keep the surviving node heartbeating while time passes (sweep
        // timers fire inside these turns, as in a real event loop).
        let mut hb_seq = 3u64;
        for s in (15..300).step_by(5) {
            heartbeat(&mut coord, t(s), other, hb_seq);
            hb_seq += 1;
        }
        // Home provider returns within the window.
        let actions = msg(
            &mut coord,
            t(300),
            Control::Register {
                machine_id: if home == n1 {
                    "m-1".into()
                } else {
                    "m-2".into()
                },
                hostname: "back".into(),
                gpus: vec![GpuModel::Rtx3090.into()],
                agent_version: 1,
            }
            .into(),
        );
        // Coordinator orders a checkpoint on the current host.
        assert!(
            actions.iter().any(|a| matches!(
                a,
                CoordAction::Send {
                    to,
                    msg: Message::Work(Work::CheckpointRequest { job: j }),
                    ..
                } if *to == other && *j == job
            )),
            "checkpoint request for migrate-back"
        );
        // Let the registration's scheduling pass fire (nothing pending yet).
        drive(&mut coord, t(305));
        // Checkpoint lands → preempt on current node.
        let actions = msg(
            &mut coord,
            t(310),
            Work::CheckpointDone {
                job,
                seq: 5,
                transfer_bytes: 1 << 20,
                stored_on: vec![],
            }
            .into(),
        );
        assert!(actions.iter().any(|a| matches!(
            a,
            CoordAction::Send {
                msg: Message::Work(Work::Kill { .. }),
                ..
            }
        )));
        // Kill lands → requeue → dispatched home with restore.
        msg(
            &mut coord,
            t(311),
            Work::WorkloadUpdate {
                status: WorkloadStatus {
                    job,
                    state: WorkloadState::Killed,
                    progress: 0.4,
                    checkpoint_seq: 5,
                },
                exit_code: Some(137),
            }
            .into(),
        );
        let mut actions = heartbeat(&mut coord, t(312), home, 1);
        actions.extend(heartbeat(&mut coord, t(312), other, hb_seq));
        actions.extend(drive(&mut coord, t(315)));
        let dispatch_spec = actions.iter().find_map(|a| match a {
            CoordAction::Send {
                to,
                msg: Message::Work(Work::Dispatch { spec }),
                ..
            } if *to == home => Some(spec.clone()),
            _ => None,
        });
        let s = dispatch_spec.expect("dispatched back home");
        assert_eq!(s.restore_from_seq, Some(5));
        // Accepting yields the MigratedBack event.
        let actions = msg(
            &mut coord,
            t(316),
            Work::DispatchReply {
                job,
                accepted: true,
                reason: String::new(),
            }
            .into(),
        );
        assert!(actions.iter().any(|a| matches!(
            a,
            CoordAction::JobEvent {
                event: JobEvent::MigratedBack { .. },
                ..
            }
        )));
    }

    #[test]
    fn invalid_token_rejected() {
        let mut coord = Coordinator::new(CoordinatorConfig::default(), 1);
        let node = register(&mut coord, t(1), "m-1");
        let env = gpunion_protocol::Envelope::new(
            gpunion_protocol::AuthToken([0xBB; 16]),
            Control::Heartbeat {
                node,
                seq: 1,
                accepting: true,
                gpu_stats: vec![],
                workloads: vec![],
            }
            .into(),
        );
        coord.send(t(2), CoordEnvelope::Net(Box::new(env)));
        let actions = coord.advance(t(2));
        assert!(actions.iter().any(|a| matches!(
            a,
            CoordAction::Send {
                msg: Message::Control(Control::Error { code: 401, .. }),
                ..
            }
        )));
    }

    /// An unanswered `Dispatch` requeues through `OfferTimeout` onto the
    /// other node, and an accepted one stays placed through three sweeps
    /// while its node keeps reporting the workload — at the default 5 s
    /// beat and at the paper's 30 s beat, which is longer than the 10 s
    /// `offer_timeout`: a placement must never depend on a heartbeat
    /// arriving inside the dispatch timeout.
    #[test]
    fn offer_timeout_excludes_silent_node() {
        for period in [5u64, 30] {
            let cfg = CoordinatorConfig {
                heartbeat_period: SimDuration::from_secs(period),
                ..CoordinatorConfig::default()
            };
            let mut coord = Coordinator::new(cfg, 1);
            let n1 = register(&mut coord, t(1), "m-1");
            let n2 = register(&mut coord, t(1), "m-2");
            heartbeat(&mut coord, t(2), n1, 1);
            heartbeat(&mut coord, t(2), n2, 1);
            let (job, _) = submit(&mut coord, t(3), spec());
            let mut offered = Vec::new();
            let mut accepted_at = None;
            let mut all = Vec::new();
            let mut seq = 1;
            for s in 4..=(20 + 3 * period) {
                let mut actions = drive(&mut coord, t(s));
                // Both nodes beat every period, so neither is marked lost;
                // the hosting node reports the workload.
                if s % period == 0 {
                    seq += 1;
                    for n in [n1, n2] {
                        actions.extend(if coord.job_node(job) == Some(n) {
                            heartbeat_with_workload(&mut coord, t(s), n, seq, job)
                        } else {
                            heartbeat(&mut coord, t(s), n, seq)
                        });
                    }
                }
                for (to, j) in all_dispatches(&actions) {
                    assert_eq!(j, job);
                    offered.push(to);
                    // The first offer is never answered; the second is accepted.
                    if offered.len() == 2 {
                        accepted_at = Some(s);
                        let reply = Work::DispatchReply {
                            job,
                            accepted: true,
                            reason: String::new(),
                        };
                        actions.extend(msg(&mut coord, t(s), reply.into()));
                    }
                }
                all.extend(actions);
            }
            // First offer never answered → timeout (10 s) → second offer to
            // the other node.
            assert_eq!(offered.len(), 2, "period {period}: {offered:?}");
            assert_ne!(offered[0], offered[1]);
            let accepted_at = accepted_at.expect("second offer after timeout");
            assert!(accepted_at < 16, "requeued by OfferTimeout, not by a sweep");
            // The loop ran three more sweeps; the accepted placement stands.
            assert_eq!(coord.job_node(job), Some(offered[1]), "period {period}");
            assert_eq!(coord.stats().live_jobs, 1);
            assert!(
                !all.iter().any(|a| matches!(
                    a,
                    CoordAction::JobEvent {
                        event: JobEvent::Requeued { .. },
                        ..
                    } | CoordAction::Send {
                        msg: Message::Work(Work::Kill { .. }),
                        ..
                    }
                )),
                "period {period}: the placement is never displaced or killed"
            );
        }
    }

    /// Write latency is emergent from queue depth: a registration storm
    /// of 400 nodes leaves a far deeper write backlog than 10 nodes, so
    /// the next transaction waits proportionally longer.
    #[test]
    fn decision_latency_grows_with_node_count() {
        let mut small = Coordinator::new(CoordinatorConfig::default(), 1);
        for i in 0..10 {
            register(&mut small, t(1), &format!("s-{i}"));
        }
        let mut big = Coordinator::new(CoordinatorConfig::default(), 1);
        for i in 0..400 {
            register(&mut big, t(1), &format!("b-{i}"));
        }
        assert!(big.db_write_latency(t(1)) > small.db_write_latency(t(1)) * 4);
        assert!(big.db_actor().depth() > small.db_actor().depth());
    }

    /// A registration's inventory is outside input: a node reporting more
    /// GPUs than the `NodeRecord`'s `u8` can count saturates the stored
    /// count instead of wrapping to 0.
    #[test]
    fn oversized_inventory_saturates_the_stored_gpu_count() {
        let mut coord = Coordinator::new(CoordinatorConfig::default(), 1);
        msg(
            &mut coord,
            t(1),
            Control::Register {
                machine_id: "m-big".into(),
                hostname: "m-big".into(),
                gpus: vec![GpuModel::Rtx3090.into(); 300],
                agent_version: 1,
            }
            .into(),
        );
        drive(&mut coord, t(2));
        let uid = NodeUid(0);
        assert_eq!(
            coord.directory().get(uid).expect("indexed").gpu_count(),
            300
        );
        assert_eq!(coord.db().node(uid).expect("row applied").gpu_count, 255);
    }

    #[test]
    fn cancel_pending_and_running_jobs() {
        let mut coord = Coordinator::new(CoordinatorConfig::default(), 1);
        let n1 = register(&mut coord, t(1), "m-1");
        heartbeat(&mut coord, t(2), n1, 1);
        // Pending cancel (same instant: the pass a submission arms fires a
        // write-latency later, so the job is still queued).
        let (j1, _) = submit(&mut coord, t(3), spec());
        coord.send(t(3), CoordEnvelope::CancelJob(j1));
        let actions = coord.advance(t(3));
        assert!(actions.is_empty(), "pending job cancels without messages");
        // Running cancel.
        let (j2, _) = submit(&mut coord, t(5), spec());
        drive(&mut coord, t(6));
        msg(
            &mut coord,
            t(7),
            Work::DispatchReply {
                job: j2,
                accepted: true,
                reason: String::new(),
            }
            .into(),
        );
        coord.send(t(8), CoordEnvelope::CancelJob(j2));
        let actions = coord.advance(t(8));
        assert!(actions.iter().any(|a| matches!(
            a,
            CoordAction::Send {
                msg: Message::Work(Work::Kill {
                    reason: gpunion_protocol::KillReason::UserCancel,
                    ..
                }),
                ..
            }
        )));
    }

    /// The migrate-back fast path must claim the returning node before the
    /// general drain hands its slot to an earlier queue position.
    #[test]
    fn migrate_back_fast_path_beats_queue_order() {
        // 16 GB jobs: one per 24 GB node, so the home slot is contended.
        let big_spec = || DispatchSpec {
            gpu_mem_bytes: 16 << 30,
            ..spec()
        };
        let mut coord = Coordinator::new(CoordinatorConfig::default(), 1);
        let n1 = register(&mut coord, t(1), "m-1");
        let n2 = register(&mut coord, t(1), "m-2");
        heartbeat(&mut coord, t(2), n1, 1);
        heartbeat(&mut coord, t(2), n2, 1);
        // Fill both nodes.
        let (job_a, _) = submit(&mut coord, t(3), big_spec());
        drive(&mut coord, t(4));
        let home = coord
            .directory()
            .iter()
            .find(|e| e.has_reservation(job_a))
            .map(|e| e.uid)
            .expect("offered somewhere");
        msg(
            &mut coord,
            t(5),
            Work::DispatchReply {
                job: job_a,
                accepted: true,
                reason: String::new(),
            }
            .into(),
        );
        let other = if home == n1 { n2 } else { n1 };
        let (job_b, _) = submit(&mut coord, t(6), big_spec());
        drive(&mut coord, t(7));
        msg(
            &mut coord,
            t(8),
            Work::DispatchReply {
                job: job_b,
                accepted: true,
                reason: String::new(),
            }
            .into(),
        );
        // Heartbeats report both nodes fully used; a backlog job queues
        // ahead of everything.
        let full = GpuStat {
            memory_used: 24 << 30,
            memory_total: 24 << 30,
            utilization: 1.0,
            temperature_c: 70.0,
            power_w: 300.0,
        };
        msg(
            &mut coord,
            t(9),
            Control::Heartbeat {
                node: home,
                seq: 2,
                accepting: true,
                gpu_stats: vec![full],
                workloads: vec![],
            }
            .into(),
        );
        msg(
            &mut coord,
            t(9),
            Control::Heartbeat {
                node: other,
                seq: 2,
                accepting: true,
                gpu_stats: vec![full],
                workloads: vec![],
            }
            .into(),
        );
        let (backlog, _) = submit(&mut coord, t(10), big_spec());
        drive(&mut coord, t(11));
        // Home dies: job_a displaced, queued BEHIND the backlog job.
        coord.send(t(12), CoordEnvelope::NodeDeparture(home));
        coord.advance(t(12));
        // Let the requeue write apply (both nodes are full, so the armed
        // pass places nothing).
        drive(&mut coord, t(13));
        assert_eq!(
            coord.db().pending_in_order().collect::<Vec<_>>(),
            vec![backlog, job_a],
            "displaced job re-queues behind the backlog"
        );
        // Home returns fresh: the fast path must place job_a there even
        // though the backlog job is first in dispatch order.
        let machine = if home == n1 { "m-1" } else { "m-2" };
        let mut actions = msg(
            &mut coord,
            t(20),
            Control::Register {
                machine_id: machine.into(),
                hostname: "back".into(),
                gpus: vec![GpuModel::Rtx3090.into()],
                agent_version: 1,
            }
            .into(),
        );
        actions.extend(heartbeat(&mut coord, t(21), home, 1));
        actions.extend(drive(&mut coord, t(22)));
        let dispatches = all_dispatches(&actions);
        assert_eq!(
            dispatches,
            vec![(home, job_a)],
            "displaced job goes home; backlog job must not steal the slot"
        );
    }

    /// Rejections accumulated before a displacement are a stale epoch: the
    /// node that once refused the job (e.g. while full) must be offerable
    /// again after the job is displaced.
    #[test]
    fn displacement_resets_rejection_exclusions() {
        let mut coord = Coordinator::new(CoordinatorConfig::default(), 1);
        let n1 = register(&mut coord, t(1), "m-1");
        let n2 = register(&mut coord, t(1), "m-2");
        heartbeat(&mut coord, t(2), n1, 1);
        heartbeat(&mut coord, t(2), n2, 1);
        let (job, _) = submit(&mut coord, t(3), spec());
        let actions = drive(&mut coord, t(4));
        let (first, _) = find_dispatch(&actions).expect("dispatch");
        // First target rejects; retry lands on the second node.
        msg(
            &mut coord,
            t(5),
            Work::DispatchReply {
                job,
                accepted: false,
                reason: "busy".into(),
            }
            .into(),
        );
        let actions = drive(&mut coord, t(6));
        let (second, _) = find_dispatch(&actions).expect("second dispatch");
        assert_ne!(first, second);
        msg(
            &mut coord,
            t(7),
            Work::DispatchReply {
                job,
                accepted: true,
                reason: String::new(),
            }
            .into(),
        );
        // The hosting node dies; the once-rejecting node is the only one
        // left and must be offered the displaced job.
        coord.send(t(10), CoordEnvelope::NodeDeparture(second));
        let mut actions = coord.advance(t(10));
        actions.extend(heartbeat(&mut coord, t(11), first, 2));
        actions.extend(drive(&mut coord, t(12)));
        let (target, j) = find_dispatch(&actions).expect("re-dispatch after displacement");
        assert_eq!((target, j), (first, job), "stale exclusion was cleared");
    }

    // ---- actor-turn invariants ------------------------------------------

    /// Heartbeats are shed at the coordinator inbox bound; critical
    /// envelopes are always admitted (and counted when over the bound).
    #[test]
    fn inbox_sheds_heartbeats_but_never_critical_envelopes() {
        let mut coord = Coordinator::new(
            CoordinatorConfig {
                inbox_capacity: 2,
                ..Default::default()
            },
            1,
        );
        let hb = |n: u64, s: u64| {
            Box::new(
                Control::Heartbeat {
                    node: NodeUid(n),
                    seq: s,
                    accepting: true,
                    gpu_stats: vec![],
                    workloads: vec![],
                }
                .into(),
            )
        };
        assert!(matches!(
            coord.send(t(1), CoordEnvelope::Msg(hb(1, 1))),
            SendOutcome::Enqueued { .. }
        ));
        assert!(matches!(
            coord.send(t(1), CoordEnvelope::Msg(hb(2, 1))),
            SendOutcome::Enqueued { .. }
        ));
        assert_eq!(
            coord.send(t(1), CoordEnvelope::Msg(hb(3, 1))),
            SendOutcome::Shed,
            "heartbeat past the bound is shed"
        );
        assert_eq!(coord.stats().shed_envelopes, 1);
        // A job submission is critical: admitted past the bound, counted.
        let outcome = coord.send(t(1), CoordEnvelope::SubmitJob(Box::new(spec())));
        assert!(matches!(outcome, SendOutcome::Enqueued { job: Some(_) }));
        assert_eq!(coord.stats().over_bound_envelopes, 1);
        assert_eq!(coord.stats().inbox_depth, 3);
        // Draining empties the inbox; the submission survived.
        coord.advance(t(1));
        assert_eq!(coord.stats().inbox_depth, 0);
        assert_eq!(coord.stats().live_jobs, 1);
    }

    /// With the database write queue at bound, the coordinator defers its
    /// turns instead of over-filling: every critical write is delayed,
    /// never dropped, and the stall is visible as inbox sojourn.
    #[test]
    fn deferred_turns_never_drop_critical_writes() {
        let mut config = CoordinatorConfig::default();
        config.db.inbox_capacity = 4; // tiny bound: stalls are immediate
        let mut coord = Coordinator::new(config, 1);
        let node = register(&mut coord, t(1), "m-1");
        heartbeat(&mut coord, t(2), node, 1);
        // A burst of submissions: 4 writes fill the queue; the rest of the
        // envelopes must wait for completions.
        let mut jobs = Vec::new();
        for _ in 0..16 {
            let SendOutcome::Enqueued { job: Some(j) } =
                coord.send(t(3), CoordEnvelope::SubmitJob(Box::new(spec())))
            else {
                panic!("critical envelopes are never shed");
            };
            jobs.push(j);
        }
        coord.advance(t(3));
        assert!(
            coord.stats().inbox_depth > 0,
            "the burst cannot be admitted in one turn against a 4-deep queue"
        );
        assert!(coord.stats().deferred_turns > 0, "stalls were recorded");
        // Let the world run: completions free slots, deferred turns retry.
        drive(&mut coord, t(3600));
        assert_eq!(
            coord.stats().inbox_depth,
            0,
            "every envelope eventually ran"
        );
        // No submission was lost: every job is tracked (pending, offered,
        // or placed) and every SubmitJob write applied.
        assert_eq!(coord.stats().live_jobs, 16);
        for j in &jobs {
            assert!(coord.db().job(*j).is_some(), "job {j:?} row exists");
        }
        // The write queue never ran away past its bound by more than the
        // handful of writes one turn commits.
        assert!(
            coord.db_actor().depth_peak() <= 4 + 2,
            "depth peak {} breaches the bound + one turn's writes",
            coord.db_actor().depth_peak()
        );
        assert!(
            coord.stats().inbox_sojourn.max().unwrap_or(0.0) > 0.0,
            "backpressure must be visible as inbox sojourn"
        );
    }

    /// A heartbeat that would revive an Offline node is critical, not
    /// status traffic: at the coordinator inbox bound it must be admitted
    /// (ordinary heartbeats shed), or an overloaded coordinator could
    /// keep a returned provider dead indefinitely.
    #[test]
    fn reviving_heartbeats_are_not_shed_at_the_inbox_bound() {
        let mut coord = Coordinator::new(
            CoordinatorConfig {
                inbox_capacity: 1,
                ..Default::default()
            },
            1,
        );
        let node = register(&mut coord, t(1), "m-1");
        coord.send(t(2), CoordEnvelope::NodeDeparture(node));
        coord.advance(t(2));
        // Fill the inbox to its bound with a critical envelope.
        coord.send(t(3), CoordEnvelope::SubmitJob(Box::new(spec())));
        assert_eq!(coord.stats().inbox_depth, 1);
        let hb = |n: NodeUid, s: u64| {
            Box::new(
                Control::Heartbeat {
                    node: n,
                    seq: s,
                    accepting: true,
                    gpu_stats: vec![],
                    workloads: vec![],
                }
                .into(),
            )
        };
        // An ordinary heartbeat (node is fine... here: unknown uid 99)
        // sheds at the bound.
        assert_eq!(
            coord.send(t(3), CoordEnvelope::Msg(hb(NodeUid(99), 1))),
            SendOutcome::Shed
        );
        // The Offline node's reviving heartbeat is admitted past it.
        assert!(matches!(
            coord.send(t(3), CoordEnvelope::Msg(hb(node, 2))),
            SendOutcome::Enqueued { .. }
        ));
        drive(&mut coord, t(4));
        assert_eq!(
            coord.directory().get(node).map(|e| e.liveness()),
            Some(NodeLiveness::Active),
            "the revival landed despite the saturated inbox"
        );
    }

    /// A heartbeat that revives an Offline node submits a critical state
    /// flip, so unlike ordinary (sheddable-status) heartbeats it must
    /// defer at the database bound rather than bypass the backpressure.
    #[test]
    fn reviving_heartbeats_defer_like_critical_envelopes() {
        let mut config = CoordinatorConfig::default();
        config.db.inbox_capacity = 1;
        let mut coord = Coordinator::new(config, 1);
        let node = register(&mut coord, t(1), "m-1");
        drive(&mut coord, t(2)); // settle the registration write
                                 // Node loss marks it Offline; the SetNodeState(Unavailable) write
                                 // fills the 1-deep queue.
        coord.send(t(3), CoordEnvelope::NodeDeparture(node));
        coord.advance(t(3));
        assert!(coord.db_actor().would_block());
        let over_before = coord.db_actor().over_bound_writes();
        coord.send(
            t(3),
            CoordEnvelope::Msg(Box::new(
                Control::Heartbeat {
                    node,
                    seq: 9,
                    accepting: true,
                    gpu_stats: vec![],
                    workloads: vec![],
                }
                .into(),
            )),
        );
        let actions = coord.advance(t(3));
        assert!(actions.is_empty(), "reviving turn deferred, no ack yet");
        assert_eq!(coord.stats().inbox_depth, 1, "heartbeat waits at the head");
        assert!(coord.stats().deferred_turns > 0);
        // Once the queue drains, the turn runs and the node revives. The
        // turn was admitted against a free slot; its own status write may
        // fill that slot before the critical flip (the documented
        // one-turn slack on a 1-deep queue), but the turn itself never
        // started against a full queue.
        drive(&mut coord, t(4));
        assert_eq!(coord.stats().inbox_depth, 0);
        assert!(coord.db_actor().over_bound_writes() <= over_before + 1);
        assert_eq!(
            coord.directory().get(node).map(|e| e.liveness()),
            Some(NodeLiveness::Active)
        );
    }

    /// Build the op stream for the drive-equivalence proptest: a mixed
    /// sequence of registrations, heartbeats, submissions, replies, kills,
    /// cancels, and departures at non-decreasing integer times — including
    /// same-instant batches, and including instants where a (drifted)
    /// sweep timer is due, so the timer-first tie rule is exercised.
    fn turn_events(ops: &[(u8, u64, u64)]) -> Vec<(SimTime, CoordEnvelope)> {
        let mut now = 1u64;
        let mut out = Vec::new();
        for &(op, a, b) in ops {
            // 0–3 s steps; same-instant batches when the step is 0.
            now += b % 4;
            if now % 5 == 0 {
                now += 1;
            }
            let at = t(now);
            let env = match op % 7 {
                0 => CoordEnvelope::Msg(Box::new(
                    Control::Register {
                        machine_id: format!("m-{}", a % 8),
                        hostname: format!("h-{}", a % 8),
                        gpus: vec![GpuModel::Rtx3090.into()],
                        agent_version: 1,
                    }
                    .into(),
                )),
                1 => CoordEnvelope::Msg(Box::new(
                    Control::Heartbeat {
                        node: NodeUid(a % 10),
                        seq: b,
                        accepting: b % 5 != 0,
                        gpu_stats: vec![GpuStat {
                            memory_used: (b % 24) << 30,
                            memory_total: 24 << 30,
                            utilization: 0.5,
                            temperature_c: 50.0,
                            power_w: 200.0,
                        }],
                        workloads: vec![],
                    }
                    .into(),
                )),
                2 => CoordEnvelope::SubmitJob(Box::new(DispatchSpec {
                    gpu_mem_bytes: (1 + b % 20) << 30,
                    ..spec()
                })),
                3 => CoordEnvelope::Msg(Box::new(
                    Work::DispatchReply {
                        job: JobId(1 + b % 24),
                        accepted: a % 2 == 0,
                        reason: String::new(),
                    }
                    .into(),
                )),
                4 => CoordEnvelope::Msg(Box::new(
                    Work::WorkloadUpdate {
                        status: WorkloadStatus {
                            job: JobId(1 + b % 24),
                            state: if a % 3 == 0 {
                                WorkloadState::Killed
                            } else {
                                WorkloadState::Completed
                            },
                            progress: 0.5,
                            checkpoint_seq: b % 3,
                        },
                        exit_code: None,
                    }
                    .into(),
                )),
                5 => CoordEnvelope::CancelJob(JobId(1 + b % 24)),
                _ => CoordEnvelope::NodeDeparture(NodeUid(a % 10)),
            };
            out.push((at, env));
        }
        out
    }

    proptest::proptest! {
        /// Driving the actor one envelope per `advance` (the pre-refactor
        /// call-sequence cadence: handle a message, then run due wakes)
        /// and batching all same-instant envelopes into a single `advance`
        /// must produce IDENTICAL decisions — the action stream, job
        /// bookkeeping, and database state cannot depend on how senders
        /// group their sends. This is the actor-turn invariant the §3b
        /// refactor relies on.
        #[test]
        fn prop_envelope_batching_is_turn_equivalent(
            ops in proptest::collection::vec((0u8..7, 0u64..16, 0u64..32), 1..60),
        ) {
            let mut one_by_one = Coordinator::new(CoordinatorConfig::default(), 9);
            let mut batched = Coordinator::new(CoordinatorConfig::default(), 9);
            let mut log_a = Vec::new();
            let mut log_b = Vec::new();

            // Style A: send + advance per envelope.
            let mut horizon = SimTime::ZERO;
            for (at, env) in turn_events(&ops) {
                one_by_one.send(at, env);
                log_a.extend(one_by_one.advance(at));
                horizon = at;
            }
            // Style B: batch every same-instant group, one advance each.
            let mut it = turn_events(&ops).into_iter().peekable();
            while let Some((at, env)) = it.next() {
                batched.send(at, env);
                while it.peek().map(|(bt, _)| *bt == at).unwrap_or(false) {
                    let (bt, env) = it.next().expect("just peeked");
                    batched.send(bt, env);
                }
                log_b.extend(batched.advance(at));
            }
            // Settle both worlds identically (in-flight writes, passes,
            // offer timeouts) before comparing.
            let end = horizon + SimDuration::from_secs(60);
            log_a.extend(drive(&mut one_by_one, end));
            log_b.extend(drive(&mut batched, end));

            proptest::prop_assert_eq!(format!("{log_a:?}"), format!("{log_b:?}"));
            proptest::prop_assert_eq!(
                one_by_one.db().pending_in_order().collect::<Vec<_>>(),
                batched.db().pending_in_order().collect::<Vec<_>>()
            );
            proptest::prop_assert_eq!(one_by_one.stats().live_jobs, batched.stats().live_jobs);
        }
    }
}
