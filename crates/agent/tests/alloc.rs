//! Allocation discipline of the agent's heartbeat.
//!
//! An agent beats once per period for as long as it lives, so whatever a
//! beat allocates is paid fleet × beats times. `agent_heartbeats_total` is
//! a plain count on the agent, read into a registry built at scrape; a
//! beat touches no registry. The pin is stated in allocations: a whole
//! timer-driven beat costs exactly one — the `gpu_stats` vector the
//! message carries: the timer is a field re-armed in place, and the action
//! lands in the caller's buffer.
//! The counter is per thread (const-initialized TLS), as in
//! `crates/scheduler/tests/alloc.rs`.
//!
//! The same allocator keeps a per-thread count of live heap bytes, which
//! pins that a finished job leaves nothing behind on its agent.

use gpunion_agent::{Action, Agent, AgentConfig, FlowPurpose};
use gpunion_container::{standard_catalogue, ImageRef};
use gpunion_des::{SimDuration, SimTime};
use gpunion_gpu::{GpuModel, GpuServer, ServerSpec};
use gpunion_protocol::{
    AuthToken, Control, DispatchSpec, ExecMode, JobId, Message, NodeUid, UserId, Work,
    WorkloadState,
};
use gpunion_workload::{ModelClass, TrainingJobSpec, TrainingRun};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static LOCAL_ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static LOCAL_LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
}

/// Allocations charged to the calling thread so far.
fn allocations() -> usize {
    LOCAL_ALLOCATIONS.with(Cell::get)
}

/// Heap bytes the calling thread allocated and has not freed.
fn live_bytes() -> isize {
    LOCAL_LIVE_BYTES.with(Cell::get)
}

/// Charge `bytes` (negative: a free) to the calling thread's live count.
/// `try_with` so allocations during TLS teardown are not a panic.
fn charge_live(bytes: isize) {
    let _ = LOCAL_LIVE_BYTES.try_with(|c| c.set(c.get() + bytes));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LOCAL_ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        charge_live(layout.size() as isize);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        charge_live(-(layout.size() as isize));
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = LOCAL_ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        charge_live(new_size as isize - layout.size() as isize);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

fn is_heartbeat(actions: &[Action]) -> bool {
    matches!(
        actions,
        [Action::Send(Message::Control(Control::Heartbeat { .. }))]
    )
}

fn new_agent() -> Agent {
    let mut rng = SmallRng::seed_from_u64(1);
    let config = AgentConfig::new("ws-1", &mut rng);
    let server = GpuServer::new(ServerSpec::workstation("ws-1", GpuModel::Rtx3090));
    let mut agent = Agent::new(config, server);
    agent.start_registration(SimTime::ZERO);
    agent
}

fn register_ack() -> Message {
    Control::RegisterAck {
        node: NodeUid(7),
        token: AuthToken([9; 16]),
        heartbeat_period_ms: 5_000,
    }
    .into()
}

#[test]
fn a_timer_driven_heartbeat_performs_no_registry_lookup() {
    let (images, _) = standard_catalogue();
    let mut agent = new_agent();
    let ack = register_ack();

    // `/metrics` shows no heartbeat family until the first beat (sent on
    // the ack) has gone out.
    assert!(!agent.metrics().render().contains("agent_heartbeats_total"));
    let first = agent.handle_message(SimTime::from_secs(1), ack, &images);
    assert!(is_heartbeat(&first));
    assert!(agent.metrics().render().contains("agent_heartbeats_total"));

    // The later beats come off the heartbeat timer, into a buffer the
    // embedding loop keeps (warm from the beat before).
    let mut actions = first;
    let mut timer_beat = || {
        let at = agent.next_wake().expect("heartbeat timer armed");
        actions.clear();
        let before = allocations();
        agent.on_wake_into(at, &mut actions);
        let spent = allocations() - before;
        assert!(is_heartbeat(&actions));
        spent
    };
    let second_beat = timer_beat();
    let third_beat = timer_beat();
    assert!(agent
        .metrics()
        .render()
        .contains("agent_heartbeats_total{node=\"ws-1\"} 3\n"));

    assert_eq!(second_beat, 1, "the `gpu_stats` vector and nothing else");
    assert_eq!(third_beat, second_beat, "every later beat costs the same");
}

/// A batch job on one GPU, 6 GB of it, checkpointing every `checkpoint_secs`.
fn batch_spec(job: u64, image: &ImageRef, checkpoint_secs: u32) -> DispatchSpec {
    DispatchSpec {
        job: JobId(job),
        image_repo: image.repository.clone(),
        image_tag: image.tag.clone(),
        image_digest: image.digest.0,
        gpus: 1,
        gpu_mem_bytes: 6 << 30,
        min_cc: None,
        mode: ExecMode::Batch {
            entrypoint: vec!["python".into(), "train.py".into()],
        },
        checkpoint_interval_secs: checkpoint_secs,
        storage_nodes: vec![],
        state_bytes_hint: 100 << 20,
        restore_from_seq: None,
        priority: 1,
        user: UserId::SYSTEM,
    }
}

/// A beat from an agent running several training jobs integrates every run
/// in one walk of its workload map: it allocates the two vectors the
/// message carries — `gpu_stats` and `workloads` — and nothing else (no
/// list of job ids to walk).
#[test]
fn a_warm_heartbeat_with_running_jobs_allocates_only_what_it_sends() {
    let (images, refs) = standard_catalogue();
    let mut rng = SmallRng::seed_from_u64(1);
    let config = AgentConfig::new("ws-4", &mut rng);
    let server = GpuServer::new(ServerSpec::multi_gpu("ws-4", GpuModel::Rtx3090, 4));
    let mut agent = Agent::new(config, server);
    agent.start_registration(SimTime::ZERO);
    let mut now = SimTime::from_secs(1);
    agent.handle_message(now, register_ack(), &images);

    const JOBS: u64 = 3;
    let mut pulls = Vec::new();
    for job in 1..=JOBS {
        let spec = batch_spec(job, &refs[0], 3_600);
        let actions = agent.handle_message(now, Work::Dispatch { spec }.into(), &images);
        agent.attach_run(
            JobId(job),
            TrainingRun::new(TrainingJobSpec::new(ModelClass::CnnSmall, 10_000_000)),
        );
        pulls.extend(actions.iter().filter_map(|a| match a {
            Action::StartFlow {
                purpose: purpose @ FlowPurpose::ImagePull { .. },
                ..
            } => Some(*purpose),
            _ => None,
        }));
    }
    now += SimDuration::from_secs(30);
    for purpose in pulls {
        agent.on_flow_done(now, purpose, true, &images);
    }

    // Wake until a beat reports every job Running, then time the next
    // beats into a buffer kept warm from the ones before.
    let running = |actions: &[Action]| match actions {
        [Action::Send(Message::Control(Control::Heartbeat { workloads, .. }))] => workloads
            .iter()
            .filter(|w| w.state == WorkloadState::Running)
            .count(),
        _ => 0,
    };
    let mut actions = Vec::new();
    let mut wakes = 0;
    while running(&actions) < JOBS as usize {
        wakes += 1;
        assert!(wakes < 100, "the jobs never all ran");
        now = agent.next_wake().expect("a timer is armed");
        actions.clear();
        agent.on_wake_into(now, &mut actions);
    }
    for _ in 0..3 {
        now = agent.next_wake().expect("heartbeat timer armed");
        actions.clear();
        let before = allocations();
        agent.on_wake_into(now, &mut actions);
        let spent = allocations() - before;
        assert_eq!(running(&actions), JOBS as usize, "a beat listing every job");
        assert_eq!(
            spent, 2,
            "the `gpu_stats` and `workloads` vectors, nothing else"
        );
    }
}

/// A job that has run to completion leaves nothing behind on its agent:
/// after one warm-up job (which also caches the image), a hundred more
/// dispatch → run → complete cycles hold the agent's live heap bytes within
/// a bound that does not grow with the number of cycles.
#[test]
fn finished_jobs_leave_nothing_behind() {
    let (images, refs) = standard_catalogue();
    let mut agent = new_agent();
    let mut now = SimTime::from_secs(1);
    agent.handle_message(now, register_ack(), &images);

    let cycle = |agent: &mut Agent, now: &mut SimTime, job: u64| {
        let spec = batch_spec(job, &refs[0], 60);
        let mut actions = agent.handle_message(*now, Work::Dispatch { spec }.into(), &images);
        agent.attach_run(
            JobId(job),
            TrainingRun::new(TrainingJobSpec::new(ModelClass::CnnSmall, 2_000)),
        );
        let pull = actions.iter().find_map(|a| match a {
            Action::StartFlow {
                purpose: purpose @ FlowPurpose::ImagePull { .. },
                ..
            } => Some(*purpose),
            _ => None,
        });
        if let Some(purpose) = pull {
            *now += SimDuration::from_secs(30);
            actions.extend(agent.on_flow_done(*now, purpose, true, &images));
        }
        let completed = |actions: &[Action]| {
            actions.iter().any(|a| {
                matches!(
                    a,
                    Action::Send(Message::Work(Work::WorkloadUpdate { status, .. }))
                        if status.state == WorkloadState::Completed
                )
            })
        };
        let mut wakes = 0;
        while !completed(&actions) {
            wakes += 1;
            assert!(wakes < 1_000, "job {job} did not complete");
            *now = agent.next_wake().expect("a timer is armed");
            actions = agent.on_wake(*now);
            // Checkpoint uploads finish at once.
            let uploads: Vec<FlowPurpose> = actions
                .iter()
                .filter_map(|a| match a {
                    Action::StartFlow { purpose, .. } => Some(*purpose),
                    _ => None,
                })
                .collect();
            for purpose in uploads {
                agent.on_flow_done(*now, purpose, true, &images);
            }
        }
        assert_eq!(agent.workload_count(), 0);
    };

    cycle(&mut agent, &mut now, 1);
    let warm = live_bytes();
    for job in 2..=101 {
        cycle(&mut agent, &mut now, job);
    }
    let grown = live_bytes() - warm;
    assert!(
        grown < 4096,
        "100 finished jobs left {grown} live bytes behind"
    );
}
