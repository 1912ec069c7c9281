//! The metric table — every metric's unit, direction and regression bound —
//! and the order statistics reports are built from.
//!
//! `BENCHMARK.json` is the driver-facing projection of this table (a test
//! keeps the two in step). It can only express relative bounds on metrics
//! that are defined and non-zero on every workload, so the simulated
//! outcomes are bounded here and checked by `compare`.

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Higher,
    Lower,
}

/// How far a metric may move the wrong way before `compare` calls it a
/// regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// A share of the baseline median.
    Rel(f64),
    /// An absolute amount in the metric's unit.
    Abs(f64),
    /// Reported, never gated.
    None,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Family {
    EndToEnd,
    PerLayer,
}

/// Where a value comes from, which decides how two runs may differ.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Source {
    /// Host time or memory: noisy, compared by medians within a bound.
    Host,
    /// A simulated statistic or a count: exact for a seed, so two runs of
    /// one commit must agree bit for bit.
    Sim,
    /// A simulated byte total summed over simnet's bulk flows. Simnet
    /// advances flows in hash-map order, so the sum's last bits change from
    /// run to run: two runs of one commit agree within
    /// `run::FLOW_SUM_TOLERANCE`.
    SimFlowSum,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Bound,
    pub family: Family,
    pub source: Source,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: Bound,
    source: Source,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        family: Family::EndToEnd,
        source,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    source: Source,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Bound::None,
        family: Family::PerLayer,
        source,
    }
}

use Better::{Higher, Lower};
use Source::{Host, Sim, SimFlowSum};

pub const METRICS: &[MetricDef] = &[
    // ---- end to end: the simulator (host) --------------------------------
    e2e(
        "sim_s_per_wall_s",
        "sim_s/s",
        Higher,
        Bound::Rel(0.10),
        Host,
    ),
    e2e("peak_rss_mb", "MB", Lower, Bound::Rel(0.10), Host),
    e2e("setup_s", "s", Lower, Bound::Abs(0.05), Host),
    // ---- end to end: the modelled platform (simulated) --------------------
    e2e("gpu_util_mean", "frac", Higher, Bound::Abs(0.01), Sim),
    e2e(
        "sessions_served_frac",
        "frac",
        Higher,
        Bound::Abs(0.01),
        Sim,
    ),
    e2e("jobs_completed", "count", Higher, Bound::Rel(0.01), Sim),
    e2e(
        "migration_resumed_frac",
        "frac",
        Higher,
        Bound::Abs(0.02),
        Sim,
    ),
    e2e("job_wait_p50_sim_s", "sim_s", Lower, Bound::Rel(0.10), Sim),
    e2e("job_wait_p95_sim_s", "sim_s", Lower, Bound::Rel(0.10), Sim),
    e2e("restart_p50_sim_s", "sim_s", Lower, Bound::Rel(0.10), Sim),
    e2e(
        "decision_latency_mean_sim_ms",
        "sim_ms",
        Lower,
        Bound::Rel(0.10),
        Sim,
    ),
    e2e(
        "fleet_registered_sim_s",
        "sim_s",
        Lower,
        Bound::Rel(0.10),
        Sim,
    ),
    e2e("failed_frac", "frac", Lower, Bound::Abs(0.005), Sim),
    // ---- per layer ----------------------------------------------------------
    layer("des.events_fired", "count", Lower, Sim),
    layer("des.pump_events", "count", Lower, Sim),
    layer("des.inject_events", "count", Lower, Sim),
    layer("des.events_per_wall_s", "1/s", Higher, Host),
    layer("des.schedule_fire_ns", "ns", Lower, Host),
    layer("des.est_share", "frac", Lower, Host),
    layer("simnet.msgs_sent", "count", Lower, Sim),
    layer("simnet.msgs_dropped", "count", Lower, Sim),
    layer("simnet.msgs_per_wall_s", "1/s", Higher, Host),
    layer("simnet.bytes_control", "bytes", Lower, Sim),
    layer("simnet.bytes_checkpoint", "bytes", Lower, SimFlowSum),
    layer("simnet.bytes_migration", "bytes", Lower, SimFlowSum),
    layer("simnet.bytes_image", "bytes", Lower, SimFlowSum),
    layer("simnet.send_poll_ns", "ns", Lower, Host),
    layer("simnet.flow_event_us", "us", Lower, Host),
    layer("simnet.poll_flow_ns", "ns", Lower, Host),
    layer("simnet.est_share", "frac", Lower, Host),
    layer("protocol.bytes_per_msg_mean", "bytes", Lower, Sim),
    layer("protocol.wire_size_ns", "ns", Lower, Host),
    layer("protocol.encode_ns", "ns", Lower, Host),
    layer("protocol.decode_ns", "ns", Lower, Host),
    layer("protocol.est_share", "frac", Lower, Host),
    layer("db.applied_writes", "count", Lower, Sim),
    layer("db.depth_peak", "count", Lower, Sim),
    layer("db.over_bound_writes", "count", Lower, Sim),
    layer("db.shed_writes", "count", Lower, Sim),
    layer("db.sojourn_mean_sim_ms", "sim_ms", Lower, Sim),
    layer("db.submit_advance_ns", "ns", Lower, Host),
    layer("db.est_share", "frac", Lower, Host),
    layer("scheduler.inbox_depth_peak", "count", Lower, Sim),
    layer("scheduler.inbox_sojourn_mean_sim_ms", "sim_ms", Lower, Sim),
    layer("scheduler.shed_envelopes", "count", Lower, Sim),
    layer("scheduler.hb_shed_frac", "frac", Lower, Sim),
    layer("scheduler.deferred_turns", "count", Lower, Sim),
    layer("scheduler.live_jobs_end", "count", Lower, Sim),
    layer("scheduler.heartbeat_turn_ns", "ns", Lower, Host),
    layer("scheduler.pass_full_us", "us", Lower, Host),
    layer("scheduler.pass_free_us", "us", Lower, Host),
    layer("scheduler.sweep_us", "us", Lower, Host),
    layer("scheduler.est_share", "frac", Lower, Host),
    layer("agent.on_wake_idle_ns", "ns", Lower, Host),
    layer("agent.on_wake_busy_ns", "ns", Lower, Host),
    layer("agent.handle_message_ns", "ns", Lower, Host),
    layer("agent.est_share", "frac", Lower, Host),
    layer("core.jobs_submitted", "count", Higher, Sim),
    layer("core.sessions_submitted", "count", Higher, Sim),
    layer("core.displacements", "count", Lower, Sim),
    layer("core.migrated_back", "count", Higher, Sim),
    layer("core.ns_per_msg", "ns", Lower, Host),
    layer("core.ns_per_pump_event", "ns", Lower, Host),
    layer("core.slice_wall_s_p50", "s", Lower, Host),
    layer("core.slice_wall_s_max", "s", Lower, Host),
    layer("core.unattributed_share", "frac", Lower, Host),
    layer("host.allocs_per_sim_s", "1/sim_s", Lower, Host),
    layer("host.alloc_bytes_per_sim_s", "bytes/sim_s", Lower, Host),
    layer("host.tracing_overhead_frac", "frac", Lower, Host),
    layer("host.raw_sim_s_per_wall_s", "sim_s/s", Higher, Host),
    layer("host.clock_ratio", "frac", Higher, Host),
];

/// The end-to-end metrics `BENCHMARK.json` lists as such: host metrics
/// defined and non-zero on every workload. Every other metric of the
/// table goes into its `per_layer` list, which carries no bound.
pub const CONTRACT_END_TO_END: [&str; 3] = ["sim_s_per_wall_s", "peak_rss_mb", "setup_s"];

pub fn def(name: &str) -> Option<&'static MetricDef> {
    METRICS.iter().find(|m| m.name == name)
}

/// Median by linear interpolation between the middle pair.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The `p`-th percentile (0–100), linear interpolation between closest
/// ranks. NaN for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the exclusive method); a single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let n = values.len();
    if n == 0 {
        return (f64::NAN, f64::NAN);
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if n == 1 {
        return (sorted[0], sorted[0]);
    }
    let cut = |k: usize| {
        // j in 1..=n-1 is the rank whose interval holds the k-th cut.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median (0 for a constant).
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if q3 == q1 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_fit_the_contract() {
        for (i, m) in METRICS.iter().enumerate() {
            assert!(METRICS[..i].iter().all(|o| o.name != m.name), "{}", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            let ok = |s: &str, extra: &str| {
                s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
            };
            assert!(ok(m.name, "_.-"), "{}", m.name);
            assert!(ok(m.unit, "_/%.-"), "{}", m.unit);
        }
    }

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[10.0, 20.0, 30.0, 40.0, 50.0], 95.0), 48.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), (1.0, 4.0));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), (0.5, 3.5));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
        assert_eq!(spread(&[2.0, 2.0, 2.0]), 0.0);
    }
}
