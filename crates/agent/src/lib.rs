//! # gpunion-agent — the provider agent
//!
//! "Each participating node runs a lightweight agent that implements the
//! provider supremacy model through local control mechanisms and real-time
//! monitoring" (§3.2). The agent here is a passive, event-driven state
//! machine:
//!
//! * [`Agent`] — registration, heartbeats with NVML-style telemetry,
//!   workload lifecycle (pull → verify → start → run → checkpoint →
//!   complete), application-level checkpointing, and the three provider
//!   powers: kill-switch, pause, and graceful/emergency departure.
//! * [`rest`] — the local HTTP control panel (`/kill-switch`, `/pause`,
//!   `/depart`, `/status`, `/metrics`).
//!
//! The agent returns [`Action`]s instead of touching the network, so the
//! identical logic drives both the simulated campus and real TCP sockets.

#![forbid(unsafe_code)]

pub mod agent;
pub mod config;
pub mod rest;
mod timers;

pub use agent::{Action, Agent, AgentPhase, FlowPeer, FlowPurpose};
pub use config::{generate_machine_id, AgentConfig};

#[cfg(test)]
mod tests {
    use super::*;
    use gpunion_container::standard_catalogue;
    use gpunion_des::{SimDuration, SimTime};
    use gpunion_gpu::{GpuModel, GpuServer, ServerSpec};
    use gpunion_protocol::{
        AuthToken, Control, DepartureMode, DispatchSpec, ExecMode, HttpRequest, JobId, KillReason,
        Message, Method, NodeUid, UserId, Work, WorkloadState,
    };
    use gpunion_workload::{ModelClass, TrainingJobSpec, TrainingRun};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn new_agent() -> Agent {
        let mut rng = SmallRng::seed_from_u64(1);
        let config = AgentConfig::new("ws-1", &mut rng);
        let server = GpuServer::new(ServerSpec::workstation("ws-1", GpuModel::Rtx3090));
        Agent::new(config, server)
    }

    fn registered_agent() -> (
        Agent,
        gpunion_container::ImageRegistry,
        Vec<gpunion_container::ImageRef>,
    ) {
        let (registry, refs) = standard_catalogue();
        let mut agent = new_agent();
        let actions = agent.start_registration(t(0));
        assert_eq!(actions.len(), 1);
        let ack = Control::RegisterAck {
            node: NodeUid(7),
            token: AuthToken([9; 16]),
            heartbeat_period_ms: 5_000,
        }
        .into();
        let actions = agent.handle_message(t(1), ack, &registry);
        assert!(matches!(
            actions[0],
            Action::Send(Message::Control(Control::Heartbeat { .. }))
        ));
        assert_eq!(agent.phase(), AgentPhase::Active);
        (agent, registry, refs)
    }

    fn dispatch_spec(refs: &[gpunion_container::ImageRef], job: u64) -> DispatchSpec {
        DispatchSpec {
            job: JobId(job),
            image_repo: refs[0].repository.clone(),
            image_tag: refs[0].tag.clone(),
            image_digest: refs[0].digest.0,
            gpus: 1,
            gpu_mem_bytes: 6 << 30,
            min_cc: None,
            mode: ExecMode::Batch {
                entrypoint: vec!["python".into(), "train.py".into()],
            },
            checkpoint_interval_secs: 600,
            storage_nodes: vec![],
            state_bytes_hint: 100 << 20,
            restore_from_seq: None,
            priority: 1,
            user: UserId::SYSTEM,
        }
    }

    /// Run an agent forward through its timers until `until`, collecting
    /// actions: each wake fires every timer due by then, as the embedding
    /// loop's does.
    fn drive(agent: &mut Agent, until: SimTime) -> Vec<Action> {
        let mut all = Vec::new();
        while let Some(at) = agent.next_wake() {
            if at > until {
                break;
            }
            all.extend(agent.on_wake(at));
        }
        all
    }

    #[test]
    fn registration_handshake() {
        let (agent, _, _) = registered_agent();
        assert_eq!(agent.uid(), Some(NodeUid(7)));
        assert_eq!(agent.token(), AuthToken([9; 16]));
    }

    #[test]
    fn heartbeats_fire_periodically() {
        let (mut agent, _, _) = registered_agent();
        let actions = drive(&mut agent, t(26));
        let beats = actions
            .iter()
            .filter(|a| matches!(a, Action::Send(Message::Control(Control::Heartbeat { .. }))))
            .count();
        // Heartbeats at 6, 11, 16, 21, 26 (first was at ack time).
        assert_eq!(beats, 5);
    }

    /// A duplicated `RegisterAck` (a retransmission, an injected fault)
    /// answers with a beat of its own and restarts the period; it must not
    /// leave a second periodic timer behind, beating twice per period for
    /// the rest of the agent's life.
    #[test]
    fn duplicate_register_ack_does_not_double_the_heartbeat_rate() {
        let (mut agent, registry, _) = registered_agent();
        let ack: Message = Control::RegisterAck {
            node: NodeUid(7),
            token: AuthToken([9; 16]),
            heartbeat_period_ms: 5_000,
        }
        .into();
        let again = t(1) + SimDuration::from_millis(1);
        let actions = agent.handle_message(again, ack, &registry);
        assert_eq!(actions.len(), 1, "the ack's own beat");
        let ten_periods = again + SimDuration::from_secs(50);
        let beats: Vec<u64> = drive(&mut agent, ten_periods)
            .iter()
            .filter_map(|a| match a {
                Action::Send(Message::Control(Control::Heartbeat { seq, .. })) => Some(*seq),
                _ => None,
            })
            .collect();
        // Seqs 1 and 2 answered the two acks; one beat per period follows.
        assert_eq!(beats, (3..=12).collect::<Vec<u64>>());
        assert_eq!(
            agent.next_wake(),
            Some(ten_periods + SimDuration::from_secs(5))
        );
    }

    #[test]
    fn dispatch_pipeline_reaches_running() {
        let (mut agent, registry, refs) = registered_agent();
        let spec = dispatch_spec(&refs, 42);
        let actions = agent.handle_message(t(2), Work::Dispatch { spec }.into(), &registry);
        // Accepted + image pull flow.
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::Send(Message::Work(Work::DispatchReply { accepted: true, .. }))
        )));
        let flow = actions.iter().find_map(|a| match a {
            Action::StartFlow {
                bytes,
                purpose,
                inbound,
                ..
            } => Some((*bytes, *purpose, *inbound)),
            _ => None,
        });
        let (bytes, purpose, inbound) = flow.expect("image pull flow");
        assert!(inbound);
        assert!(bytes > 1_000_000_000, "pull is GBs: {bytes}");
        assert!(matches!(purpose, FlowPurpose::ImagePull { job: JobId(42) }));

        // Attach the canonical run, then finish the pull.
        agent.attach_run(
            JobId(42),
            TrainingRun::new(TrainingJobSpec::new(ModelClass::CnnSmall, 50_000)),
        );
        let actions = agent.on_flow_done(t(60), purpose, true, &registry);
        assert!(actions.is_empty(), "verify timer armed instead");
        // Verification + container start.
        let actions = drive(&mut agent, t(90));
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::Send(Message::Work(Work::WorkloadUpdate {
                status: gpunion_protocol::WorkloadStatus {
                    state: WorkloadState::Running,
                    ..
                },
                ..
            }))
        )));
        assert_eq!(agent.workload_count(), 1);
        // The GPU is now allocated and busy.
        assert!(
            agent
                .server()
                .device(gpunion_gpu::GpuIndex(0))
                .unwrap()
                .used_bytes()
                > 0
        );
    }

    #[test]
    fn dispatch_rejected_when_paused() {
        let (mut agent, registry, refs) = registered_agent();
        agent.set_paused(true);
        let actions = agent.handle_message(
            t(2),
            Work::Dispatch {
                spec: dispatch_spec(&refs, 1),
            }
            .into(),
            &registry,
        );
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::Send(Message::Work(Work::DispatchReply {
                accepted: false,
                ..
            }))
        )));
    }

    #[test]
    fn dispatch_rejected_without_vram() {
        let (mut agent, registry, refs) = registered_agent();
        let mut spec = dispatch_spec(&refs, 1);
        spec.gpu_mem_bytes = 100 << 30; // > 24 GB
        let actions = agent.handle_message(t(2), Work::Dispatch { spec }.into(), &registry);
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::Send(Message::Work(Work::DispatchReply {
                accepted: false,
                ..
            }))
        )));
        assert_eq!(agent.workload_count(), 0);
    }

    #[test]
    fn kill_switch_frees_everything() {
        let (mut agent, registry, refs) = registered_agent();
        let spec = dispatch_spec(&refs, 5);
        agent.handle_message(t(2), Work::Dispatch { spec }.into(), &registry);
        agent.attach_run(
            JobId(5),
            TrainingRun::new(TrainingJobSpec::new(ModelClass::CnnSmall, 50_000)),
        );
        let purpose = FlowPurpose::ImagePull { job: JobId(5) };
        agent.on_flow_done(t(60), purpose, true, &registry);
        drive(&mut agent, t(90));

        let req = HttpRequest::new(Method::Post, "/kill-switch");
        let (resp, actions) = rest::handle(&mut agent, t(100), &req);
        assert_eq!(resp.status, 200);
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::Send(Message::Work(Work::WorkloadUpdate {
                status: gpunion_protocol::WorkloadStatus {
                    state: WorkloadState::Killed,
                    ..
                },
                ..
            }))
        )));
        // GPU memory released.
        assert_eq!(
            agent
                .server()
                .device(gpunion_gpu::GpuIndex(0))
                .unwrap()
                .used_bytes(),
            0
        );
    }

    #[test]
    fn graceful_departure_checkpoints_then_leaves() {
        let (mut agent, registry, refs) = registered_agent();
        agent.handle_message(
            t(2),
            Work::Dispatch {
                spec: dispatch_spec(&refs, 9),
            }
            .into(),
            &registry,
        );
        agent.attach_run(
            JobId(9),
            TrainingRun::new(TrainingJobSpec::new(ModelClass::CnnSmall, 500_000)),
        );
        agent.on_flow_done(
            t(60),
            FlowPurpose::ImagePull { job: JobId(9) },
            true,
            &registry,
        );
        drive(&mut agent, t(90));

        let req = HttpRequest::new(Method::Post, "/depart?mode=graceful");
        let (resp, actions) = rest::handle(&mut agent, t(100), &req);
        assert_eq!(resp.status, 202);
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::Send(Message::Control(Control::DepartureNotice {
                mode: DepartureMode::Graceful { .. },
                ..
            }))
        )));
        assert_eq!(agent.phase(), AgentPhase::Departing);

        // Capture completes (CNN-small: ~1.5 s overhead + serialize).
        let actions = drive(&mut agent, t(110));
        let upload = actions.iter().find_map(|a| match a {
            Action::StartFlow {
                purpose: FlowPurpose::CheckpointUpload { job, seq },
                bytes,
                ..
            } => Some((*job, *seq, *bytes)),
            _ => None,
        });
        let (job, seq, bytes) = upload.expect("departure checkpoint upload");
        assert_eq!(job, JobId(9));
        assert!(bytes > 0);

        // Upload completes → CheckpointDone + departure finishes.
        let actions = agent.on_flow_done(
            t(120),
            FlowPurpose::CheckpointUpload { job, seq },
            true,
            &registry,
        );
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::Send(Message::Work(Work::CheckpointDone { .. })))));
        assert!(actions.iter().any(|a| matches!(a, Action::GoOffline)));
        assert_eq!(agent.phase(), AgentPhase::Departed);
    }

    #[test]
    fn emergency_departure_is_immediate() {
        let (mut agent, _registry, _) = registered_agent();
        let req = HttpRequest::new(Method::Post, "/depart?mode=emergency");
        let (resp, actions) = rest::handle(&mut agent, t(50), &req);
        assert_eq!(resp.status, 202);
        assert!(actions.iter().any(|a| matches!(a, Action::GoOffline)));
        assert_eq!(agent.phase(), AgentPhase::Departed);
    }

    #[test]
    fn departure_deadline_kills_stragglers() {
        let (mut agent, registry, refs) = registered_agent();
        // A memory-intensive job would need a long capture.
        let mut spec = dispatch_spec(&refs, 3);
        spec.state_bytes_hint = 14 << 30;
        spec.gpu_mem_bytes = 20 << 30;
        agent.handle_message(t(2), Work::Dispatch { spec }.into(), &registry);
        agent.attach_run(
            JobId(3),
            TrainingRun::new(TrainingJobSpec::new(ModelClass::MemoryIntensive, 500_000)),
        );
        agent.on_flow_done(
            t(60),
            FlowPurpose::ImagePull { job: JobId(3) },
            true,
            &registry,
        );
        drive(&mut agent, t(120));

        // Depart with a 1-second grace — far too short for a 14 GB capture.
        let actions = agent.depart(t(130), DepartureMode::Graceful { grace_secs: 1 });
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::Send(Message::Control(Control::DepartureNotice { .. }))
        )));
        let actions = drive(&mut agent, t(140));
        assert!(
            actions.iter().any(|a| matches!(a, Action::GoOffline)),
            "deadline forces departure"
        );
        assert_eq!(agent.phase(), AgentPhase::Departed);
    }

    /// `/status` reports the phase; `/metrics` is empty before the first
    /// beat, then counts every beat sent — across a reconnect, which
    /// restarts the beats' sequence numbers but not the count.
    #[test]
    fn rest_status_and_metrics() {
        let scrape = |agent: &mut Agent, at| {
            let get = HttpRequest::new(Method::Get, "/metrics");
            let (resp, _) = rest::handle(agent, at, &get);
            assert_eq!(resp.status, 200);
            assert_eq!(resp.content_type, "text/plain; version=0.0.4");
            String::from_utf8(resp.body).unwrap()
        };
        let exposition = |beats: u64| {
            format!(
                "# HELP agent_heartbeats_total heartbeats sent\n\
                 # TYPE agent_heartbeats_total counter\n\
                 agent_heartbeats_total{{node=\"ws-1\"}} {beats}\n"
            )
        };
        let (registry, _) = standard_catalogue();
        let mut agent = new_agent();
        agent.start_registration(t(0));
        assert_eq!(scrape(&mut agent, t(0)), "", "no family before a beat");
        let ack = || -> Message {
            Control::RegisterAck {
                node: NodeUid(7),
                token: AuthToken([9; 16]),
                heartbeat_period_ms: 5_000,
            }
            .into()
        };
        let beats = |actions: &[Action]| -> Vec<u64> {
            actions
                .iter()
                .filter_map(|a| match a {
                    Action::Send(Message::Control(Control::Heartbeat { seq, .. })) => Some(*seq),
                    _ => None,
                })
                .collect()
        };
        let mut seqs = beats(&agent.handle_message(t(1), ack(), &registry));
        seqs.extend(beats(&drive(&mut agent, t(26))));
        assert_eq!(seqs, [1, 2, 3, 4, 5, 6]);
        let (resp, _) = rest::handle(&mut agent, t(26), &HttpRequest::new(Method::Get, "/status"));
        assert_eq!(resp.status, 200);
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("\"phase\":\"Active\""), "{body}");
        assert_eq!(scrape(&mut agent, t(26)), exposition(6));
        assert_eq!(
            scrape(&mut agent, t(26)),
            exposition(6),
            "a read changes nothing"
        );

        agent.reconnect(t(30));
        let after = beats(&agent.handle_message(t(31), ack(), &registry));
        assert_eq!(after, [1], "the sequence restarts");
        assert_eq!(
            scrape(&mut agent, t(31)),
            exposition(7),
            "the count does not"
        );
    }

    #[test]
    fn rest_pause_resume_cycle() {
        let (mut agent, _, _) = registered_agent();
        let (resp, actions) =
            rest::handle(&mut agent, t(5), &HttpRequest::new(Method::Post, "/pause"));
        assert_eq!(resp.status, 200);
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::Send(Message::Control(Control::PauseScheduling {
                paused: true,
                ..
            }))
        )));
        assert_eq!(agent.phase(), AgentPhase::Paused);
        let (resp, _) = rest::handle(&mut agent, t(6), &HttpRequest::new(Method::Post, "/resume"));
        assert_eq!(resp.status, 200);
        assert_eq!(agent.phase(), AgentPhase::Active);
    }

    #[test]
    fn rest_unknown_route_404() {
        let (mut agent, _, _) = registered_agent();
        let (resp, _) = rest::handle(&mut agent, t(5), &HttpRequest::new(Method::Get, "/nope"));
        assert_eq!(resp.status, 404);
    }

    #[test]
    fn rest_kill_unhosted_workload_404() {
        let (mut agent, _, _) = registered_agent();
        let delete = HttpRequest::new(Method::Delete, "/workloads/30");
        let (resp, actions) = rest::handle(&mut agent, t(5), &delete);
        assert_eq!(resp.status, 404);
        assert!(actions.is_empty(), "nothing to kill, nothing sent");
    }

    #[test]
    fn rest_depart_requires_mode() {
        let (mut agent, _, _) = registered_agent();
        let (resp, _) = rest::handle(&mut agent, t(5), &HttpRequest::new(Method::Post, "/depart"));
        assert_eq!(resp.status, 400);
    }

    #[test]
    fn periodic_checkpoint_cycle_produces_uploads() {
        let (mut agent, registry, refs) = registered_agent();
        let mut spec = dispatch_spec(&refs, 11);
        spec.checkpoint_interval_secs = 60;
        agent.handle_message(t(2), Work::Dispatch { spec }.into(), &registry);
        agent.attach_run(
            JobId(11),
            TrainingRun::new(TrainingJobSpec::new(ModelClass::CnnLarge, 2_000_000)),
        );
        agent.on_flow_done(
            t(30),
            FlowPurpose::ImagePull { job: JobId(11) },
            true,
            &registry,
        );
        drive(&mut agent, t(40));
        // Two checkpoint intervals later there should be ≥ 2 uploads.
        let actions = drive(&mut agent, t(40 + 150));
        let uploads: Vec<u64> = actions
            .iter()
            .filter_map(|a| match a {
                Action::StartFlow {
                    purpose: FlowPurpose::CheckpointUpload { seq, .. },
                    ..
                } => Some(*seq),
                _ => None,
            })
            .collect();
        assert!(uploads.len() >= 2, "uploads: {uploads:?}");
        assert_eq!(uploads[0], 1);
    }

    #[test]
    fn job_completion_reports_and_cleans_up() {
        let (mut agent, registry, refs) = registered_agent();
        let mut spec = dispatch_spec(&refs, 21);
        spec.checkpoint_interval_secs = 0; // keep timers simple
        agent.handle_message(t(2), Work::Dispatch { spec }.into(), &registry);
        // Tiny job: finishes in seconds.
        agent.attach_run(
            JobId(21),
            TrainingRun::new(TrainingJobSpec::new(ModelClass::CnnSmall, 10)),
        );
        agent.on_flow_done(
            t(30),
            FlowPurpose::ImagePull { job: JobId(21) },
            true,
            &registry,
        );
        let actions = drive(&mut agent, t(600));
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::Send(Message::Work(Work::WorkloadUpdate {
                status: gpunion_protocol::WorkloadStatus {
                    state: WorkloadState::Completed,
                    ..
                },
                exit_code: Some(0),
            }))
        )));
        assert_eq!(agent.workload_count(), 0);
        assert_eq!(
            agent
                .server()
                .device(gpunion_gpu::GpuIndex(0))
                .unwrap()
                .used_bytes(),
            0
        );
    }

    #[test]
    fn kill_single_workload_via_rest() {
        let (mut agent, registry, refs) = registered_agent();
        agent.handle_message(
            t(2),
            Work::Dispatch {
                spec: dispatch_spec(&refs, 30),
            }
            .into(),
            &registry,
        );
        agent.attach_run(
            JobId(30),
            TrainingRun::new(TrainingJobSpec::new(ModelClass::CnnSmall, 1_000_000)),
        );
        agent.on_flow_done(
            t(30),
            FlowPurpose::ImagePull { job: JobId(30) },
            true,
            &registry,
        );
        drive(&mut agent, t(60));
        let (resp, actions) = rest::handle(
            &mut agent,
            t(70),
            &HttpRequest::new(Method::Delete, "/workloads/30"),
        );
        assert_eq!(resp.status, 200);
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::Send(Message::Work(Work::WorkloadUpdate { status, .. }))
                if status.state == WorkloadState::Killed
        )));
        let _ = KillReason::ProviderKillSwitch;
    }

    /// A `Kill` during a pull leaves the pull's flow in flight; when the
    /// same job is dispatched here again, both completions arrive under the
    /// same `ImagePull { job }` purpose. The second finds the workload past
    /// `Pulling` and must be ignored.
    #[test]
    fn stale_image_pull_completion_is_ignored() {
        let (mut agent, registry, refs) = registered_agent();
        let dispatch = || Work::Dispatch {
            spec: dispatch_spec(&refs, 50),
        };
        agent.handle_message(t(2), dispatch().into(), &registry);
        agent.handle_message(
            t(3),
            Work::Kill {
                job: JobId(50),
                reason: KillReason::SchedulerPreempt,
            }
            .into(),
            &registry,
        );
        assert_eq!(agent.workload_count(), 0);
        let actions = agent.handle_message(t(4), dispatch().into(), &registry);
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::Send(Message::Work(Work::DispatchReply { accepted: true, .. }))
        )));
        agent.attach_run(
            JobId(50),
            TrainingRun::new(TrainingJobSpec::new(ModelClass::CnnSmall, 50_000)),
        );
        let purpose = FlowPurpose::ImagePull { job: JobId(50) };
        assert!(agent
            .on_flow_done(t(30), purpose, true, &registry)
            .is_empty());
        assert!(agent
            .on_flow_done(t(31), purpose, true, &registry)
            .is_empty());
        // One verification, one start: the workload runs exactly once.
        let actions = drive(&mut agent, t(90));
        let running = actions
            .iter()
            .filter(|a| {
                matches!(
                    a,
                    Action::Send(Message::Work(Work::WorkloadUpdate { status, .. }))
                        if status.state == WorkloadState::Running
                )
            })
            .count();
        assert_eq!(running, 1);
        assert_eq!(agent.workload_count(), 1);
    }

    /// A workload killed mid-pull is kept while its run waits for the
    /// embedding to collect it, and its pull's flow is still in flight. The
    /// pull's completion must not verify it, and a checkpoint request must
    /// not capture it: a killed workload goes nowhere.
    #[test]
    fn kill_mid_pull_then_pull_completion_is_ignored() {
        let (mut agent, registry, refs) = registered_agent();
        agent.handle_message(
            t(2),
            Work::Dispatch {
                spec: dispatch_spec(&refs, 60),
            }
            .into(),
            &registry,
        );
        agent.attach_run(
            JobId(60),
            TrainingRun::new(TrainingJobSpec::new(ModelClass::CnnSmall, 50_000)),
        );
        let mut actions = Vec::new();
        agent.kill_workload(t(3), JobId(60), KillReason::SchedulerPreempt, &mut actions);
        assert_eq!(agent.workload_count(), 1, "kept until its run is collected");
        let heartbeat_only = agent.next_wake();

        let purpose = FlowPurpose::ImagePull { job: JobId(60) };
        assert!(agent
            .on_flow_done(t(30), purpose, true, &registry)
            .is_empty());
        assert_eq!(agent.next_wake(), heartbeat_only, "no verification armed");

        let request = Work::CheckpointRequest { job: JobId(60) };
        assert!(agent
            .handle_message(t(31), request.into(), &registry)
            .is_empty());
        assert_eq!(agent.next_wake(), heartbeat_only, "no capture armed");
        let later = drive(&mut agent, t(120));
        assert!(later
            .iter()
            .all(|a| matches!(a, Action::Send(Message::Control(Control::Heartbeat { .. })))));
        let states: Vec<WorkloadState> = later
            .iter()
            .flat_map(|a| match a {
                Action::Send(Message::Control(Control::Heartbeat { workloads, .. })) => {
                    workloads.iter().map(|w| w.state).collect()
                }
                _ => Vec::new(),
            })
            .collect();
        assert!(!states.is_empty());
        assert!(states.iter().all(|s| *s == WorkloadState::Killed));
        assert!(agent.take_run(JobId(60)).is_some());
    }

    /// Admission is decided when the pull finishes and acted on when the
    /// verification timer fires: a published image whose repository is not
    /// on the allow list is accepted at dispatch, fails exactly at
    /// verification's end, and is never cached.
    #[test]
    fn unlisted_repository_fails_at_verification_and_is_not_cached() {
        let (catalogue, refs) = standard_catalogue();
        let manifest = catalogue.manifest(&refs[0]).unwrap().clone();
        let bytes = manifest.transfer_bytes();
        let mut registry = gpunion_container::ImageRegistry::new();
        registry.publish(manifest);
        let (mut agent, _, _) = registered_agent();
        let pull_bytes = |actions: &[Action]| {
            actions.iter().find_map(|a| match a {
                Action::StartFlow {
                    bytes,
                    purpose: FlowPurpose::ImagePull { .. },
                    ..
                } => Some(*bytes),
                _ => None,
            })
        };
        let failed = |actions: &[Action]| {
            actions.iter().any(|a| {
                matches!(
                    a,
                    Action::Send(Message::Work(Work::WorkloadUpdate { status, .. }))
                        if status.state == WorkloadState::Failed
                )
            })
        };

        let dispatch = |job| Work::Dispatch {
            spec: dispatch_spec(&refs, job),
        };
        let actions = agent.handle_message(t(2), dispatch(42).into(), &registry);
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::Send(Message::Work(Work::DispatchReply { accepted: true, .. }))
        )));
        assert_eq!(pull_bytes(&actions), Some(bytes));
        let purpose = FlowPurpose::ImagePull { job: JobId(42) };
        assert!(agent
            .on_flow_done(t(60), purpose, true, &registry)
            .is_empty());

        let verified_at = t(60) + SimDuration::from_secs_f64(bytes as f64 / 1.8e9);
        let before = verified_at - SimDuration::from_nanos(1);
        assert!(!failed(&drive(&mut agent, before)));
        assert_eq!(agent.workload_count(), 1);
        let actions = drive(&mut agent, verified_at);
        assert!(failed(&actions));
        let detail = actions.iter().find_map(|a| match a {
            Action::Send(Message::Control(Control::Error { detail, .. })) => Some(detail.as_str()),
            _ => None,
        });
        assert_eq!(
            detail,
            Some(
                "job 42: verification failed: image admission failed: \
                 repository 'pytorch/pytorch' is not on the trusted allow list"
            )
        );
        assert_eq!(agent.workload_count(), 0);
        assert_eq!(
            agent
                .server()
                .device(gpunion_gpu::GpuIndex(0))
                .unwrap()
                .used_bytes(),
            0
        );

        let actions = agent.handle_message(verified_at, dispatch(43).into(), &registry);
        assert_eq!(pull_bytes(&actions), Some(bytes), "nothing was cached");
    }

    #[test]
    fn reconnect_resets_identity() {
        let (mut agent, _, _) = registered_agent();
        let actions = agent.reconnect(t(500));
        assert_eq!(agent.phase(), AgentPhase::Registering);
        assert_eq!(agent.uid(), None);
        assert!(matches!(
            actions[0],
            Action::Send(Message::Control(Control::Register { .. }))
        ));
    }

    #[test]
    fn rolled_back_run_extractable_after_kill() {
        let (mut agent, registry, refs) = registered_agent();
        agent.handle_message(
            t(2),
            Work::Dispatch {
                spec: dispatch_spec(&refs, 40),
            }
            .into(),
            &registry,
        );
        agent.attach_run(
            JobId(40),
            TrainingRun::new(TrainingJobSpec::new(ModelClass::CnnSmall, 1_000_000)),
        );
        agent.on_flow_done(
            t(30),
            FlowPurpose::ImagePull { job: JobId(40) },
            true,
            &registry,
        );
        drive(&mut agent, t(60));
        // Run for a while, checkpoint once.
        let _ = drive(&mut agent, t(60 + 700));
        let mut kill_actions = Vec::new();
        agent.kill_workload(
            t(800),
            JobId(40),
            KillReason::ProviderKillSwitch,
            &mut kill_actions,
        );
        let run = agent.take_run(JobId(40)).expect("rolled-back run");
        assert_eq!(run.done_iters(), run.checkpointed_iters());
        agent.forget_workload(t(800), JobId(40));
        assert_eq!(agent.workload_count(), 0);
    }
}
