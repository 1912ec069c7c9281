//! The four workloads: pure functions from a seed to a [`Plan`].
//!
//! A plan is plain data — fleet, platform configuration, horizon and the
//! staged injections — so the platform under test only ever sees generated
//! inputs, and two plans from one seed compare equal.

use gpunion_core::PlatformConfig;
use gpunion_des::{RngPool, SimDuration, SimTime};
use gpunion_gpu::{paper_testbed, GpuModel, ServerSpec};
use gpunion_workload::{
    fig3_job_set, generate, paper_campus_labs, ChurnModel, InteractiveSpec, InterruptionEvent,
    InterruptionKind, LabProfile, Request, TraceConfig, TraceEvent, TrainingJobSpec,
};
use rand::Rng;

/// `--quick` divides every horizon (and every time inside it) by this.
pub const QUICK_DIVISOR: u64 = 20;

/// One staged injection. Hosts are indices into the deployed GPU hosts, in
/// spec order; the runner maps them to simnet addresses after deploy.
#[derive(Debug, Clone, PartialEq)]
pub enum Staged {
    Training { tag: u64, spec: TrainingJobSpec },
    Session { tag: u64, spec: InteractiveSpec },
    Interrupt { host: usize, kind: InterruptionKind },
    Return { host: usize },
}

/// Everything one run of a workload feeds the platform.
#[derive(Debug, Clone)]
pub struct Plan {
    pub specs: Vec<ServerSpec>,
    pub config: PlatformConfig,
    pub horizon: SimDuration,
    /// Staged injections in schedule order (ties fire in this order).
    pub events: Vec<(SimTime, Staged)>,
}

impl Plan {
    pub fn end(&self) -> SimTime {
        SimTime::ZERO + self.horizon
    }
}

/// A benchmark workload: its name, why it exists, and its generator.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Full-size simulated horizon in seconds.
    horizon_secs: u64,
    build: fn(seed: u64, scale: Scale) -> Plan,
}

impl Workload {
    /// The plan for `seed`; `quick` shrinks every time by [`QUICK_DIVISOR`].
    pub fn plan(&self, seed: u64, quick: bool) -> Plan {
        let scale = Scale {
            horizon_secs: self.horizon_secs,
            div: if quick { QUICK_DIVISOR } else { 1 },
        };
        (self.build)(seed, scale)
    }
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "paper_campus_6w",
        why: "the paper's own 11-server deployment over six weeks: the only workload whose \
              simulated outcomes compare to Fig. 2 / Fig. 3; host time spreads over all layers",
        horizon_secs: 42 * 86_400,
        build: paper_campus_6w,
    },
    Workload {
        name: "fleet400_day",
        why: "400 workstations under a standing backlog for 12 h (ROADMAP's headline scale): \
              coordinator turns with hundreds of live jobs dominate; few flows, light agents",
        horizon_secs: 24 * 3_600,
        build: fleet400_day,
    },
    Workload {
        name: "reclaim_storm_200",
        why: "a whole lab of 100 hosts leaves at class start, twice in 3 h (ReclaimNet): bursty \
              critical writes and hundreds of concurrent flows instead of steady heartbeats",
        horizon_secs: 3 * 3_600,
        build: reclaim_storm_200,
    },
    Workload {
        name: "overload_10k",
        why: "10 000 nodes register past the DB knee with no demand: inbox bound, shedding and \
              backpressure; no jobs, no flows, so pass/flow/storage changes must not move it",
        horizon_secs: 20 * 60,
        build: overload_10k,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Full-size times divided by the quick divisor.
#[derive(Clone, Copy)]
struct Scale {
    horizon_secs: u64,
    div: u64,
}

impl Scale {
    fn horizon(self) -> SimDuration {
        self.dur(self.horizon_secs as f64)
    }

    fn dur(self, full_secs: f64) -> SimDuration {
        SimDuration::from_secs_f64(full_secs / self.div as f64)
    }

    fn at(self, full_secs: f64) -> SimTime {
        SimTime::ZERO + self.dur(full_secs)
    }
}

fn config(seed: u64, heartbeat_secs: Option<u64>) -> PlatformConfig {
    // Every mode switch comes from `Default`: the benchmark measures the
    // shipped defaults and never names a switch the ROADMAP may delete.
    let mut config = PlatformConfig {
        seed,
        ..PlatformConfig::default()
    };
    if let Some(secs) = heartbeat_secs {
        config.coordinator.heartbeat_period = SimDuration::from_secs(secs);
    }
    config
}

fn workstations(n: usize) -> Vec<ServerSpec> {
    (0..n)
        .map(|i| ServerSpec::workstation(format!("ws-{i}"), GpuModel::Rtx3090))
        .collect()
}

fn stage_trace(trace: Vec<TraceEvent>, events: &mut Vec<(SimTime, Staged)>) {
    for (tag, ev) in trace.into_iter().enumerate() {
        let tag = tag as u64;
        let staged = match ev.request {
            Request::Training(spec) => Staged::Training { tag, spec },
            Request::Interactive(spec) => Staged::Session { tag, spec },
        };
        events.push((ev.at, staged));
    }
}

fn stage_churn(churn: &[InterruptionEvent], events: &mut Vec<(SimTime, Staged)>) {
    for ev in churn {
        let host = ev.node_index;
        events.push((
            ev.at,
            Staged::Interrupt {
                host,
                kind: ev.kind,
            },
        ));
        events.push((ev.returns_at, Staged::Return { host }));
    }
}

/// Campus demand over `labs` plus default-mix churn at 1.5 events/day on
/// the first `churned` hosts.
fn campus(
    seed: u64,
    labs: &[LabProfile],
    churned: usize,
    horizon: SimDuration,
) -> Vec<(SimTime, Staged)> {
    let cfg = TraceConfig {
        horizon,
        ..TraceConfig::default()
    };
    let mut events = Vec::new();
    stage_trace(generate(labs, &cfg, &RngPool::new(seed)), &mut events);
    let churn = ChurnModel {
        events_per_day: 1.5,
        ..ChurnModel::default()
    };
    stage_churn(
        &churn.generate(churned, horizon, &RngPool::new(seed ^ 0xC4_0521)),
        &mut events,
    );
    events
}

fn paper_campus_6w(seed: u64, scale: Scale) -> Plan {
    let horizon = scale.horizon();
    Plan {
        specs: paper_testbed(),
        // 30 s heartbeat: the Fig. 2 setting.
        config: config(seed, Some(30)),
        horizon,
        // The 8 workstations are the volunteers that churn.
        events: campus(seed, &paper_campus_labs(), 8, horizon),
    }
}

fn fleet400_day(seed: u64, scale: Scale) -> Plan {
    const NODES: usize = 400;
    let horizon = scale.horizon();
    let base = paper_campus_labs();
    let replicas = NODES.div_ceil(base.len());
    let labs: Vec<LabProfile> = (0..replicas)
        .flat_map(|r| {
            base.iter().map(move |lab| LabProfile {
                name: format!("{}#{r}", lab.name),
                owned_hosts: Vec::new(),
                ..lab.clone()
            })
        })
        .collect();
    Plan {
        specs: workstations(NODES),
        config: config(seed, Some(30)),
        horizon,
        events: campus(seed, &labs, NODES / 2, horizon),
    }
}

fn reclaim_storm_200(seed: u64, scale: Scale) -> Plan {
    const NODES: usize = 200;
    const JOBS: usize = 220;
    const LAB: usize = 100;
    let mut events = Vec::new();
    let mix = fig3_job_set();
    for i in 0..JOBS {
        events.push((
            scale.at(300.0 + i as f64 * 0.5),
            Staged::Training {
                tag: i as u64,
                spec: mix[i % mix.len()].clone(),
            },
        ));
    }
    let kinds = [
        InterruptionKind::ScheduledDeparture,
        InterruptionKind::EmergencyDeparture,
        InterruptionKind::TemporaryUnavailability,
    ];
    let mut rng = RngPool::new(seed).stream("reclaim-storm");
    for storm_at in [3_600.0, 7_200.0] {
        for host in 0..LAB {
            // The lab empties within one minute and is back 20 minutes on.
            let leave = storm_at + rng.gen_range(0.0..60.0);
            events.push((
                scale.at(leave),
                Staged::Interrupt {
                    host,
                    kind: kinds[host % kinds.len()],
                },
            ));
            events.push((scale.at(leave + 1_200.0), Staged::Return { host }));
        }
    }
    events.sort_by_key(|(at, _)| *at);
    Plan {
        specs: workstations(NODES),
        config: config(seed, None),
        horizon: scale.horizon(),
        events,
    }
}

fn overload_10k(seed: u64, scale: Scale) -> Plan {
    Plan {
        specs: workstations(10_000),
        config: config(seed, None),
        horizon: scale.horizon(),
        events: Vec::new(),
    }
}
