//! Scenario driver: a [`PlatformSim`] plus injection helpers.
//!
//! Harnesses describe *what happens when* (job arrivals, session arrivals,
//! provider interruptions) as typed events; the scenario schedules them and
//! runs the event loop. Ad-hoc actions run between `run_until` calls via
//! [`Scenario::act`].

use crate::platform::{Injection, Platform, PlatformConfig, PlatformEvent, PlatformSim};
use gpunion_des::SimTime;
use gpunion_gpu::ServerSpec;
use gpunion_protocol::JobId;
use gpunion_simnet::NodeId;
use gpunion_workload::{InteractiveSpec, InterruptionEvent, InterruptionKind, TrainingJobSpec};

/// An attributed interruption (for per-class migration analysis).
#[derive(Debug, Clone, Copy)]
pub struct InjectedInterruption {
    /// When it hit.
    pub at: SimTime,
    /// Which host.
    pub host: NodeId,
    /// Class.
    pub kind: InterruptionKind,
    /// When the provider returned.
    pub returns_at: SimTime,
}

/// The scenario runner.
pub struct Scenario {
    sim: PlatformSim,
    /// The platform under test (public for report extraction).
    pub world: Platform,
    hosts: Vec<NodeId>,
    /// Everything injected, for later attribution.
    pub injected: Vec<InjectedInterruption>,
}

impl Scenario {
    /// Deploy and boot a platform on the given server specs.
    pub fn new(config: PlatformConfig, specs: &[ServerSpec]) -> Self {
        let (mut world, hosts) = Platform::deploy(&config, specs);
        let mut sim = PlatformSim::new();
        Platform::boot(&mut world, &mut sim);
        Scenario {
            sim,
            world,
            hosts,
            injected: Vec::new(),
        }
    }

    /// Simnet addresses of the GPU hosts, in spec order.
    pub fn hosts(&self) -> &[NodeId] {
        &self.hosts
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Run the world forward to `t`.
    pub fn run_until(&mut self, t: SimTime) {
        self.sim.run_until(&mut self.world, t);
    }

    /// Run `f` against the platform at the current instant, then pump so
    /// its effects propagate. Not a DES event: a harness that wants an
    /// action at `t` calls `run_until(t)` first. Trace injections go
    /// through the typed events below.
    pub fn act(&mut self, f: impl FnOnce(&mut Platform, SimTime)) {
        f(&mut self.world, self.sim.now());
        self.world.pump(&mut self.sim);
    }

    /// Submit a training job at `at`, tagged with the caller's index.
    pub fn submit_training_at(&mut self, at: SimTime, tag: u64, spec: TrainingJobSpec) {
        self.sim.schedule_typed_at(
            at,
            PlatformEvent::Inject(Injection::Training {
                tag,
                spec: Box::new(spec),
            }),
        );
    }

    /// Submit an interactive session at `at` with full lifecycle management:
    /// abandoned if not running within patience, otherwise ended after its
    /// duration. The whole chain — arrival, patience check, session end —
    /// runs as typed injection events (`Platform::run_injection`), not
    /// nested boxed closures.
    pub fn submit_interactive_at(&mut self, at: SimTime, tag: u64, spec: InteractiveSpec) {
        self.sim.schedule_typed_at(
            at,
            PlatformEvent::Inject(Injection::InteractiveArrive {
                tag,
                spec: Box::new(spec),
            }),
        );
    }

    /// Inject provider interruptions. `volunteer_hosts` maps the event's
    /// `node_index` to a simnet host address.
    pub fn inject_interruptions(
        &mut self,
        events: &[InterruptionEvent],
        volunteer_hosts: &[NodeId],
    ) {
        for ev in events {
            let Some(&host) = volunteer_hosts.get(ev.node_index) else {
                continue;
            };
            self.injected.push(InjectedInterruption {
                at: ev.at,
                host,
                kind: ev.kind,
                returns_at: ev.returns_at,
            });
            self.sim.schedule_typed_at(
                ev.at,
                PlatformEvent::Inject(Injection::Interrupt {
                    host,
                    kind: ev.kind,
                }),
            );
            self.sim.schedule_typed_at(
                ev.returns_at,
                PlatformEvent::Inject(Injection::ProviderReturn { host }),
            );
        }
    }

    /// Look up the job id assigned to a submission tag.
    pub fn job_of(&self, tag: u64) -> Option<JobId> {
        self.world.stats.tag_to_job.get(&tag).copied()
    }
}
