//! Campus demand traces: who asks for GPUs, when, and how much.
//!
//! The paper's premise is *structural imbalance*: "some laboratories run
//! sizeable GPU clusters while others have only minimal capacity", with
//! "temporal underutilization … between experiment cycles or during semester
//! breaks". The trace generator reproduces those dynamics: per-lab demand
//! rates modulated by diurnal/weekly/semester patterns, a heavy-tailed job
//! size mix, and bursts of interactive sessions in working hours.
//!
//! Traces are deterministic functions of a [`RngPool`] seed, so GPUnion and
//! every baseline platform replay *exactly* the same demand — the comparison
//! in Fig. 2 is paired, not statistical.

use crate::job::{InteractiveSpec, ModelClass, TrainingJobSpec};
use gpunion_des::{exponential, log_normal, RngPool, SimDuration, SimTime};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Identifies a research group in the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LabId(pub u32);

/// A research group and its demand characteristics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LabProfile {
    /// Group name for reports.
    pub name: String,
    /// Indices (into the campus host list) of servers this lab owns.
    pub owned_hosts: Vec<usize>,
    /// Long-run average GPU demand in "GPUs busy" units (e.g. 2.5 means the
    /// lab would keep 2.5 GPUs busy around the clock if it could).
    pub mean_gpu_demand: f64,
    /// Interactive sessions per weekday (students debugging).
    pub interactive_per_day: f64,
    /// Mix of model classes this lab submits (weights, need not sum to 1).
    pub model_mix: Vec<(ModelClass, f64)>,
}

/// One demand event in the trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Arrival time.
    pub at: SimTime,
    /// Submitting lab.
    pub lab: LabId,
    /// What arrived.
    pub request: Request,
}

/// The two request kinds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Batch training job.
    Training(TrainingJobSpec),
    /// Interactive session.
    Interactive(InteractiveSpec),
}

/// Trace-level configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceConfig {
    /// Simulated horizon.
    pub horizon: SimDuration,
    /// Mean training-job length in hours (log-normal median).
    pub mean_job_hours: f64,
    /// Week index (0-based) when semester break starts, if any.
    pub break_start_week: Option<u32>,
    /// Demand multiplier during the break.
    pub break_multiplier: f64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            horizon: SimDuration::from_days(42), // the paper's six weeks
            mean_job_hours: 7.0,
            break_start_week: None,
            break_multiplier: 0.3,
        }
    }
}

/// Hour-of-day demand multiplier: low at night, peaking mid-afternoon.
pub fn diurnal_multiplier(hour: f64) -> f64 {
    // Smooth two-bump curve: main peak 15:00, minor 21:00 (evening students).
    let main = (-((hour - 15.0) * (hour - 15.0)) / 18.0).exp();
    let evening = 0.5 * (-((hour - 21.0) * (hour - 21.0)) / 8.0).exp();
    0.25 + 1.5 * main + evening
}

/// Day-of-week multiplier (0 = Monday).
pub fn weekly_multiplier(day: u32) -> f64 {
    match day % 7 {
        5 => 0.55, // Saturday
        6 => 0.45, // Sunday
        _ => 1.0,
    }
}

fn demand_multiplier(cfg: &TraceConfig, at: SimTime) -> f64 {
    let secs = at.as_secs_f64();
    let hour = (secs / 3600.0) % 24.0;
    let day = ((secs / 86_400.0) as u32) % 7;
    let week = (secs / (7.0 * 86_400.0)) as u32;
    let mut m = diurnal_multiplier(hour) * weekly_multiplier(day);
    if let Some(start) = cfg.break_start_week {
        if week >= start {
            m *= cfg.break_multiplier;
        }
    }
    m
}

/// Generate the full campus demand trace for a set of labs.
///
/// Arrivals are a non-homogeneous Poisson process per lab, produced by
/// thinning a homogeneous process at the peak rate. Allocates a fresh
/// event buffer; semester-scale callers regenerating traces in a loop
/// should reuse one through [`generate_into`].
pub fn generate(labs: &[LabProfile], cfg: &TraceConfig, pool: &RngPool) -> Vec<TraceEvent> {
    let mut events = Vec::new();
    generate_into(labs, cfg, pool, &mut events);
    events
}

/// [`generate`] into a caller-owned buffer (cleared first, capacity
/// reused). The generation loop itself is allocation-free — every event
/// is plain data, the per-lab RNG streams live on the stack, and the
/// final ordering pass is an in-place unstable sort on a total key — so
/// regenerating into a warm buffer performs **zero** heap allocations
/// (pinned by the counting-allocator test in `tests/alloc.rs`). This is
/// what keeps multi-campus, semester-length sweeps from thrashing the
/// allocator once traces are produced per scenario in a loop.
pub fn generate_into(
    labs: &[LabProfile],
    cfg: &TraceConfig,
    pool: &RngPool,
    events: &mut Vec<TraceEvent>,
) {
    events.clear();
    // Peak multiplier bound for thinning.
    let peak = 0.25 + 1.5 + 0.5;
    // Size the buffer for the expected accepted-event count (thinning
    // keeps ≈ mean-multiplier/peak of the homogeneous arrivals) so the
    // cold path takes O(1) growths instead of O(log n).
    let horizon_h = cfg.horizon.as_secs_f64() / 3600.0;
    let expected: f64 = labs
        .iter()
        .map(|l| {
            let train = l.mean_gpu_demand / (cfg.mean_job_hours * 0.85);
            let interactive = l.interactive_per_day / 24.0;
            (train + interactive) * horizon_h * 0.75
        })
        .sum();
    events.reserve(expected as usize);
    for (i, lab) in labs.iter().enumerate() {
        let lab_id = LabId(i as u32);
        let mut rng = pool.stream_n("trace-lab", i as u64);

        // --- training jobs ---
        // mean demand D (gpu-duty) = rate/hour × mean_job_gpu_hours ⇒
        // base hourly rate = D / (mean_job_hours × calibration).
        // Calibration folds two biases: the weekly mean of the thinning
        // multiplier (≈ 0.706 diurnal × 0.857 weekly = 0.605… but thinning
        // uses multiplier/peak, cancelling peak) and the log-normal
        // mean/median ratio exp(σ²/2) ≈ 1.197 for σ = 0.6. Net ≈ 0.85.
        const DEMAND_CALIBRATION: f64 = 0.85;
        let base_rate_per_hour = lab.mean_gpu_demand / (cfg.mean_job_hours * DEMAND_CALIBRATION);
        if base_rate_per_hour > 0.0 && !lab.model_mix.is_empty() {
            let peak_rate = base_rate_per_hour * peak;
            let mut t = 0.0f64;
            loop {
                t += exponential(&mut rng, peak_rate);
                if t >= horizon_h {
                    break;
                }
                let at = SimTime::from_nanos((t * 3.6e12) as u64);
                let accept = demand_multiplier(cfg, at) / peak;
                if !rng.gen_bool(accept.clamp(0.0, 1.0)) {
                    continue;
                }
                let model = pick_model(&mut rng, &lab.model_mix);
                let hours = log_normal(&mut rng, cfg.mean_job_hours, 0.6).clamp(0.5, 48.0);
                let per_iter = crate::job::iter_secs(model, 35.6, 1);
                let iterations = ((hours * 3600.0) / per_iter).max(1.0) as u64;
                events.push(TraceEvent {
                    at,
                    lab: lab_id,
                    request: Request::Training(TrainingJobSpec::new(model, iterations)),
                });
            }
        }

        // --- interactive sessions ---
        if lab.interactive_per_day > 0.0 {
            // Session *counts* carry no job-size bias; only the thinning
            // mean (≈ 0.71 diurnal×weekly) needs compensating.
            const ARRIVAL_CALIBRATION: f64 = 0.71;
            let base_rate_per_hour = lab.interactive_per_day / (24.0 * ARRIVAL_CALIBRATION);
            let peak_rate = base_rate_per_hour * peak;
            let mut t = 0.0f64;
            loop {
                t += exponential(&mut rng, peak_rate);
                if t >= horizon_h {
                    break;
                }
                let at = SimTime::from_nanos((t * 3.6e12) as u64);
                let accept = demand_multiplier(cfg, at) / peak;
                if !rng.gen_bool(accept.clamp(0.0, 1.0)) {
                    continue;
                }
                let mins = log_normal(&mut rng, 45.0, 0.7).clamp(10.0, 360.0);
                events.push(TraceEvent {
                    at,
                    lab: lab_id,
                    request: Request::Interactive(InteractiveSpec {
                        gpu_mem_bytes: 8 << 30,
                        duration: SimDuration::from_secs_f64(mins * 60.0),
                        patience: SimDuration::from_mins(10),
                    }),
                });
            }
        }
    }
    // In-place, allocation-free sort. The key is total over the push
    // order's tie candidates — (time, lab index, training-before-
    // interactive) — so the result matches what a stable sort over the
    // generation order produced (golden traces depend on it).
    events.sort_unstable_by_key(|e| {
        (
            e.at,
            e.lab,
            match e.request {
                Request::Training(_) => 0u8,
                Request::Interactive(_) => 1,
            },
        )
    });
}

fn pick_model(rng: &mut impl Rng, mix: &[(ModelClass, f64)]) -> ModelClass {
    let total: f64 = mix.iter().map(|(_, w)| w).sum();
    let mut x = rng.gen_range(0.0..total);
    for (m, w) in mix {
        if x < *w {
            return *m;
        }
        x -= w;
    }
    mix.last().expect("non-empty mix").0
}

/// The paper's campus: 11 GPU servers (host indices 0..=10 matching
/// [`gpunion_gpu::paper_testbed`]) shared by four GPU-rich labs, plus five
/// GPU-poor groups that own nothing. Calibrated so that manual coordination
/// yields ≈ 34 % average utilization and pooled scheduling ≈ 67 % (Fig. 2).
pub fn paper_campus_labs() -> Vec<LabProfile> {
    let cnn_mix = vec![
        (ModelClass::CnnSmall, 0.5),
        (ModelClass::CnnLarge, 0.3),
        (ModelClass::TransformerSmall, 0.2),
    ];
    let nlp_mix = vec![
        (ModelClass::TransformerSmall, 0.4),
        (ModelClass::TransformerLarge, 0.4),
        (ModelClass::MemoryIntensive, 0.2),
    ];
    let sys_mix = vec![
        (ModelClass::CnnSmall, 0.4),
        (ModelClass::CnnLarge, 0.4),
        (ModelClass::TransformerSmall, 0.2),
    ];
    let mut labs = vec![
        // Workstation owners: ws-1..8 are hosts 0..7, one 3090 each; owners
        // use their own boxes in bursts (~25 % duty).
        LabProfile {
            name: "vision-group-A".into(),
            owned_hosts: vec![0, 1, 2],
            mean_gpu_demand: 0.8,
            interactive_per_day: 3.0,
            model_mix: cnn_mix.clone(),
        },
        LabProfile {
            name: "vision-group-B".into(),
            owned_hosts: vec![3, 4],
            mean_gpu_demand: 0.5,
            interactive_per_day: 2.0,
            model_mix: cnn_mix.clone(),
        },
        LabProfile {
            name: "robotics-group".into(),
            owned_hosts: vec![5, 6, 7],
            mean_gpu_demand: 0.7,
            interactive_per_day: 2.0,
            model_mix: sys_mix.clone(),
        },
        // Rack owners.
        LabProfile {
            name: "ml-lab (8×4090)".into(),
            owned_hosts: vec![8],
            mean_gpu_demand: 2.8,
            interactive_per_day: 4.0,
            model_mix: cnn_mix,
        },
        LabProfile {
            name: "nlp-lab (2×A100)".into(),
            owned_hosts: vec![9],
            mean_gpu_demand: 1.0,
            interactive_per_day: 2.0,
            model_mix: nlp_mix.clone(),
        },
        LabProfile {
            name: "systems-lab (4×A6000)".into(),
            owned_hosts: vec![10],
            mean_gpu_demand: 1.2,
            interactive_per_day: 2.0,
            model_mix: sys_mix,
        },
    ];
    // GPU-poor groups: sustained unmet demand, no hardware.
    for (i, (name, demand, interactive)) in [
        ("theory-group", 3.2, 2.0),
        ("bio-ai-group", 4.4, 3.0),
        ("undergrad-cohort", 5.2, 8.0),
        ("med-imaging-group", 3.6, 2.0),
        ("early-stage-researchers", 3.0, 4.0),
    ]
    .into_iter()
    .enumerate()
    {
        labs.push(LabProfile {
            name: name.into(),
            owned_hosts: vec![],
            mean_gpu_demand: demand,
            interactive_per_day: interactive,
            model_mix: vec![
                (ModelClass::CnnSmall, 0.5),
                (ModelClass::CnnLarge, 0.25),
                (ModelClass::TransformerSmall, 0.25),
            ],
        });
        let _ = i;
    }
    labs
}

/// A campus-federation-scale synthetic user population with heavy-tailed
/// demand — the "million-user" workload behind fair-share admission
/// (DESIGN.md §3c). Everything is a pure integer
/// function of `(seed, index)`: no allocation, no floats, no RNG state,
/// so a 10⁶-user population costs nothing to "hold" and two replays are
/// bit-identical on any platform.
///
/// The heavy tails use an octave trick instead of `powf`: pick an octave
/// `[N/2^(o+1), N/2^o)` uniformly, then a point inside it uniformly.
/// Each octave carries equal mass, so density falls off as `1/x` — a
/// discrete Zipf/Pareto(α≈1) shape, matching the few-heavy-labs /
/// many-light-users imbalance the paper describes, with none of the
/// cross-libm reproducibility risk of floating-point inverse CDFs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UserPopulation {
    /// Population seed: distinct seeds give independent populations.
    pub seed: u64,
    /// Number of users (ids `0..users`).
    pub users: u64,
}

/// splitmix64: the standard 64-bit finalizer over a golden-ratio step.
/// Public because the bench harness reuses it for derived streams.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl UserPopulation {
    /// Fair-share weight ceiling (a funded lab vs. a single student).
    pub const MAX_WEIGHT: u64 = 10_000;
    /// Largest per-job VRAM demand, in GiB.
    pub const MAX_DEMAND_GB: u64 = 48;

    /// A population of `users` ids with weights/demands derived from `seed`.
    pub fn new(seed: u64, users: u64) -> Self {
        assert!(users > 0, "population needs at least one user");
        UserPopulation { seed, users }
    }

    /// Fair-share weight of `user`, in `1..=MAX_WEIGHT`, discrete
    /// Pareto-tailed: P(weight ≥ w) ≈ 1/w. Most users sit at weight 1;
    /// a vanishing fraction hold lab-scale shares.
    pub fn weight(&self, user: u64) -> u64 {
        let h = splitmix64(self.seed ^ user.wrapping_mul(0x2545_f491_4f6c_dd1d));
        Self::MAX_WEIGHT / (1 + h % Self::MAX_WEIGHT)
    }

    /// Submitting user of the `k`-th job: Zipf-ish rank frequency via the
    /// octave trick (low ids submit ~1/rank as often as rank grows).
    pub fn submitter(&self, k: u64) -> u64 {
        let h = splitmix64(self.seed ^ splitmix64(k));
        let octaves = 64 - self.users.leading_zeros() as u64; // ≥ 1
        let oct = h % octaves;
        let hi = self.users >> oct; // ≥ 1 (oct < bit-length)
        let lo = self.users >> (oct + 1);
        lo + splitmix64(h) % (hi - lo).max(1)
    }

    /// VRAM demand of the `k`-th job, in bytes: heavy-tailed over
    /// `1..=MAX_DEMAND_GB` GiB (most jobs are small; a few want the
    /// whole card).
    pub fn demand_bytes(&self, k: u64) -> u64 {
        let h = splitmix64(self.seed ^ splitmix64(k ^ 0x5bf0_3635));
        (Self::MAX_DEMAND_GB / (1 + h % Self::MAX_DEMAND_GB)) << 30
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diurnal_peaks_mid_afternoon() {
        assert!(diurnal_multiplier(15.0) > diurnal_multiplier(4.0) * 4.0);
        assert!(diurnal_multiplier(21.0) > diurnal_multiplier(4.0));
        for h in 0..24 {
            let m = diurnal_multiplier(h as f64);
            assert!(m > 0.0 && m < 2.5, "hour {h}: {m}");
        }
    }

    #[test]
    fn weekend_lower_than_weekday() {
        assert!(weekly_multiplier(5) < weekly_multiplier(2));
        assert!(weekly_multiplier(6) < weekly_multiplier(5));
    }

    #[test]
    fn trace_is_deterministic() {
        let labs = paper_campus_labs();
        let cfg = TraceConfig {
            horizon: SimDuration::from_days(3),
            ..Default::default()
        };
        let a = generate(&labs, &cfg, &RngPool::new(42));
        let b = generate(&labs, &cfg, &RngPool::new(42));
        assert_eq!(a, b);
        let c = generate(&labs, &cfg, &RngPool::new(43));
        assert_ne!(a, c);
    }

    #[test]
    fn trace_sorted_and_in_horizon() {
        let labs = paper_campus_labs();
        let cfg = TraceConfig {
            horizon: SimDuration::from_days(7),
            ..Default::default()
        };
        let events = generate(&labs, &cfg, &RngPool::new(7));
        assert!(!events.is_empty());
        for w in events.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        let end = SimTime::ZERO + cfg.horizon;
        assert!(events.iter().all(|e| e.at < end));
    }

    #[test]
    fn realized_demand_close_to_profile() {
        // Over 4 weeks, total training GPU-hours should be within 30 % of
        // sum(mean_gpu_demand) × horizon.
        let labs = paper_campus_labs();
        let cfg = TraceConfig {
            horizon: SimDuration::from_days(28),
            ..Default::default()
        };
        let events = generate(&labs, &cfg, &RngPool::new(1));
        let gpu_hours: f64 = events
            .iter()
            .filter_map(|e| match &e.request {
                Request::Training(t) => {
                    Some(t.expected_duration(35.6).as_secs_f64() / 3600.0 * t.gpus as f64)
                }
                _ => None,
            })
            .sum();
        let expect: f64 = labs.iter().map(|l| l.mean_gpu_demand).sum::<f64>() * 28.0 * 24.0;
        let ratio = gpu_hours / expect;
        assert!(ratio > 0.7 && ratio < 1.3, "ratio {ratio}");
    }

    #[test]
    fn semester_break_reduces_demand() {
        let labs = paper_campus_labs();
        let with_break = TraceConfig {
            horizon: SimDuration::from_days(28),
            break_start_week: Some(2),
            break_multiplier: 0.3,
            ..Default::default()
        };
        let no_break = TraceConfig {
            horizon: SimDuration::from_days(28),
            ..Default::default()
        };
        let a = generate(&labs, &with_break, &RngPool::new(5));
        let b = generate(&labs, &no_break, &RngPool::new(5));
        let count_late = |evs: &[TraceEvent]| {
            evs.iter()
                .filter(|e| e.at >= SimTime::ZERO + SimDuration::from_days(14))
                .count()
        };
        assert!(
            (count_late(&a) as f64) < count_late(&b) as f64 * 0.6,
            "break must suppress post-week-2 arrivals: {} vs {}",
            count_late(&a),
            count_late(&b)
        );
    }

    #[test]
    fn paper_campus_has_rich_and_poor() {
        let labs = paper_campus_labs();
        let owned: usize = labs.iter().map(|l| l.owned_hosts.len()).sum();
        assert_eq!(owned, 11, "all 11 GPU hosts owned by someone");
        let poor: Vec<_> = labs.iter().filter(|l| l.owned_hosts.is_empty()).collect();
        assert_eq!(poor.len(), 5);
        let poor_demand: f64 = poor.iter().map(|l| l.mean_gpu_demand).sum();
        assert!(poor_demand > 12.0, "structural unmet demand");
    }

    #[test]
    fn interactive_events_present() {
        let labs = paper_campus_labs();
        let cfg = TraceConfig {
            horizon: SimDuration::from_days(7),
            ..Default::default()
        };
        let events = generate(&labs, &cfg, &RngPool::new(3));
        let n = events
            .iter()
            .filter(|e| matches!(e.request, Request::Interactive(_)))
            .count();
        assert!(n > 50, "expected many sessions/week, got {n}");
    }

    #[test]
    fn user_population_is_deterministic_and_bounded() {
        let p = UserPopulation::new(42, 1 << 16);
        let q = UserPopulation::new(42, 1 << 16);
        for k in 0..1000u64 {
            assert_eq!(p.weight(k), q.weight(k));
            assert_eq!(p.submitter(k), q.submitter(k));
            assert_eq!(p.demand_bytes(k), q.demand_bytes(k));
            assert!((1..=UserPopulation::MAX_WEIGHT).contains(&p.weight(k)));
            assert!(p.submitter(k) < p.users);
            let gb = p.demand_bytes(k) >> 30;
            assert!((1..=UserPopulation::MAX_DEMAND_GB).contains(&gb));
        }
        assert_ne!(
            (0..100)
                .map(|k| UserPopulation::new(7, 1 << 16).submitter(k))
                .collect::<Vec<_>>(),
            (0..100)
                .map(|k| UserPopulation::new(8, 1 << 16).submitter(k))
                .collect::<Vec<_>>(),
            "distinct seeds give distinct populations"
        );
    }

    #[test]
    fn user_population_is_heavy_tailed() {
        let p = UserPopulation::new(1, 1 << 16);
        // Weights: the top 1% of users hold a disproportionate share.
        let mut weights: Vec<u64> = (0..p.users).map(|u| p.weight(u)).collect();
        weights.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = weights.iter().sum();
        let top1: u64 = weights[..weights.len() / 100].iter().sum();
        assert!(
            top1 * 5 > total,
            "top 1% holds {top1} of {total} — not heavy-tailed"
        );
        // Submissions: low-id users dominate (Zipf rank frequency).
        let jobs = 100_000u64;
        let low_half = (0..jobs)
            .filter(|&k| p.submitter(k) < p.users / 256)
            .count();
        assert!(
            low_half * 3 > jobs as usize,
            "the 1/256 head got {low_half}/{jobs} submissions — not Zipfian"
        );
    }
}
