//! CI bench-regression gate.
//!
//! Measures the scheduler's headline performance numbers — wall-clock
//! latency of the actor turn that drains a 20-job scheduling pass at 400,
//! 10 000, and 100 000 nodes (the quantities EXPERIMENTS.md §5.2 quotes;
//! the 100k turn is timed cold and warm),
//! the same turn on a **saturated** 400-node fleet (50 pending jobs of
//! five shapes, every pick fails — `pass_ns_400_saturated`),
//! plus the simulated database write-queue figures at 400 nodes, the
//! coordinator-inbox saturation figures at 500 nodes (ρ = 1.2), and the
//! codec hot-path rows (allocation-free `wire_size()` walk and pooled
//! framed encode of the dominant heartbeat message) — writes
//! them to `BENCH_scheduler.json` (schema 13), and fails (exit 1) on
//! regression over the checked-in baseline. The baseline's `schema` key
//! must match this binary's [`BENCH_SCHEMA`] exactly — a mismatched or
//! missing version is a hard failure, not a silent row-by-row gate
//! against renamed numbers. Wall-clock rows get
//! `BENCH_GATE_FACTOR`× headroom (default 2×, absorbing runner-to-runner
//! hardware variance); the simulated saturation rows are deterministic,
//! so they must match the baseline to a 1% epsilon — any drift, in either
//! direction, is a behavioural change that must be re-recorded
//! deliberately.
//!
//! Cross-row invariants are asserted in-run (same machine, same
//! build, so the ratios are hardware-independent; they compare sample
//! **minima** — the least-noisy estimator on a shared runner — so a
//! single cold-cache outlier cannot fail the gate):
//!
//! * **Sub-linear scale**: the cold 100k-node turn must stay within
//!   `BENCH_GATE_SCALE_FACTOR`× (default 3×) of the 10k-node turn — a
//!   10× fleet cannot cost 10× (the capacity index is logarithmic).
//! * **Warm turn beats the small fleet**: the steady-state 100k-node
//!   turn must cost at most `BENCH_GATE_WARM_FACTOR`× (default 1×) the
//!   **cold 10k** turn: a 10× fleet at steady state is no slower than a
//!   small fleet from scratch.
//! * **Critical-write backpressure**: at ρ > 1 every job submission is
//!   deferred behind the database bound — visible as inbox sojourn — and
//!   **none is shed**.
//! * **Counting walk beats encode-and-drop**: `wire_size()` — the pure
//!   arithmetic `CountingSink` walk both Platform delivery paths run per
//!   simulated message — must cost at most `BENCH_GATE_WIRE_SIZE_FACTOR`×
//!   (default 0.25×) the old encode-and-drop way of learning a frame's
//!   length (`to_bytes()` then discard), measured like-for-like in-run.
//!
//! Usage:
//!
//! ```console
//! bench_gate                          # gate against the default baseline
//! bench_gate --write-baseline <path>  # re-record the baseline (no gate)
//! bench_gate --baseline <p> --out <p> # explicit paths
//! ```

use gpunion_bench::{
    check_baseline_schema, codec_cost_run, contention_knee_run, loaded_coordinator,
    saturated_coordinator, saturation_run, warm_pass_ns, PassStats, BENCH_SCHEMA, PASS_JOBS,
    SATURATED_JOBS,
};
use gpunion_des::SimTime;
use gpunion_scheduler::CoordAction;
use std::time::Instant;

const DEFAULT_BASELINE: &str = "crates/bench/baseline/BENCH_scheduler.json";
const DEFAULT_OUT: &str = "BENCH_scheduler.json";

/// Env-tunable factor with a default.
fn env_factor(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Wall-clock statistics of the **cold** actor turn that applies the
/// 20-job queue writes and drains one scheduling pass at `n` nodes: the
/// coordinator is rebuilt per sample (setup excluded, like the criterion
/// harness).
fn pass_ns(n: usize, iters: usize) -> PassStats {
    let samples: Vec<u64> = (0..iters)
        .map(|_| {
            let mut coord = loaded_coordinator(n, PASS_JOBS);
            let t0 = Instant::now();
            let actions = coord.advance(SimTime::from_secs(3700));
            let dt = t0.elapsed().as_nanos() as u64;
            assert!(!actions.is_empty(), "pass placed nothing at {n} nodes");
            dt
        })
        .collect();
    PassStats::from_samples(samples)
}

/// The same cold turn on a **saturated** fleet: `n` full nodes and a
/// [`SATURATED_JOBS`]-job backlog of five shapes, none of which fits —
/// every pick of the pass fails, so the turn must offer nothing.
fn saturated_pass_ns(n: usize, iters: usize) -> PassStats {
    let samples: Vec<u64> = (0..iters)
        .map(|_| {
            let mut coord = saturated_coordinator(n, SATURATED_JOBS);
            let t0 = Instant::now();
            let actions = coord.advance(SimTime::from_secs(3900));
            let dt = t0.elapsed().as_nanos() as u64;
            assert!(
                !actions
                    .iter()
                    .any(|a| matches!(a, CoordAction::JobEvent { .. })),
                "saturated pass placed a job at {n} nodes"
            );
            assert_eq!(coord.db().pending_count(), SATURATED_JOBS, "backlog intact");
            dt
        })
        .collect();
    PassStats::from_samples(samples)
}

/// Minimal extractor for the flat JSON this binary writes.
fn json_f64(s: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = s.find(&pat)? + pat.len();
    let rest = s[start..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let baseline_path = flag("--baseline").unwrap_or_else(|| DEFAULT_BASELINE.into());
    let out_path = flag("--out").unwrap_or_else(|| DEFAULT_OUT.into());
    let write_baseline = flag("--write-baseline");

    eprintln!("bench_gate: measuring scheduling pass (400 / 10k / 100k nodes)…");
    let p400 = pass_ns(400, 31);
    let p400_sat = saturated_pass_ns(400, 31);
    let p10k = pass_ns(10_000, 11);
    let p100k = pass_ns(100_000, 7);
    eprintln!("bench_gate: measuring warm turn (100k nodes)…");
    let pwarm = warm_pass_ns(100_000, 15);
    // Sub-linear scale invariant, measured in-run so it is independent of
    // runner hardware: a 10× fleet must cost nowhere near 10×.
    let scale_factor = env_factor("BENCH_GATE_SCALE_FACTOR", 3.0);
    let growth = p100k.min_ns as f64 / p10k.min_ns as f64;
    assert!(
        growth <= scale_factor,
        "100k-node turn grew {growth:.2}× over the 10k turn \
         (bound {scale_factor}×): {} ns vs {} ns (minima)",
        p100k.min_ns,
        p10k.min_ns
    );
    eprintln!(
        "bench_gate: scale ok — 100k turn {} ns is {growth:.2}× \
         the 10k turn ({} ns), bound {scale_factor}× (minima)",
        p100k.min_ns, p10k.min_ns
    );
    // Warm invariant: the steady-state 100k turn is at or below the cold
    // 10k turn.
    let warm_factor = env_factor("BENCH_GATE_WARM_FACTOR", 1.0);
    let warm_ratio = pwarm.min_ns as f64 / p10k.min_ns as f64;
    assert!(
        warm_ratio <= warm_factor,
        "warm 100k-node turn is {warm_ratio:.2}× the cold 10k turn \
         (bound {warm_factor}×): {} ns vs {} ns (minima)",
        pwarm.min_ns,
        p10k.min_ns
    );
    eprintln!(
        "bench_gate: warm ok — warm 100k turn {} ns is {warm_ratio:.2}× \
         the cold 10k turn ({} ns), bound {warm_factor}× (minima)",
        pwarm.min_ns, p10k.min_ns
    );
    eprintln!("bench_gate: measuring db write queue at 400 nodes…");
    let knee = contention_knee_run(400, 7);
    eprintln!("bench_gate: measuring inbox sojourn under saturation (500 nodes, rho = 1.2)…");
    let sat = saturation_run(500, 7);
    // Critical-write backpressure invariant: at rho > 1 submissions are
    // deferred (DES-visible as inbox sojourn), never shed.
    assert!(
        sat.deferred_turns > 0,
        "saturation produced no deferred turns: {sat:?}"
    );
    assert!(
        sat.inbox_sojourn_ms_max > 0.0,
        "backpressure left no inbox-sojourn trace: {sat:?}"
    );
    assert_eq!(
        sat.jobs_admitted, sat.submissions,
        "critical intents must be deferred, never shed: {sat:?}"
    );
    eprintln!(
        "bench_gate: saturation ok — {} submissions all admitted, {} deferred turns, \
         inbox sojourn mean {:.2} ms / max {:.2} ms, {} status writes shed",
        sat.submissions,
        sat.deferred_turns,
        sat.inbox_sojourn_ms_mean,
        sat.inbox_sojourn_ms_max,
        sat.db_shed_status_writes
    );
    eprintln!("bench_gate: measuring codec hot path (8-GPU heartbeat, counting walk vs encode)…");
    let codec = codec_cost_run(15, 10_000);
    // Counting-walk invariant, in-run so it is hardware-independent: sizing
    // a frame without materializing it must be far cheaper than the old
    // encode-and-drop — the tentpole's reason to exist.
    let wire_factor = env_factor("BENCH_GATE_WIRE_SIZE_FACTOR", 0.25);
    let wire_ratio = codec.wire_size.min_ns as f64 / codec.encode_drop.min_ns as f64;
    assert!(
        wire_ratio <= wire_factor,
        "wire_size counting walk is {wire_ratio:.2}× the encode-and-drop cost \
         (bound {wire_factor}×): {} ns vs {} ns (minima)",
        codec.wire_size.min_ns,
        codec.encode_drop.min_ns
    );
    eprintln!(
        "bench_gate: codec ok — wire_size {} ns is {wire_ratio:.2}× encode-and-drop \
         ({} ns), pooled framed encode {} ns, bound {wire_factor}× (minima)",
        codec.wire_size.min_ns, codec.encode_drop.min_ns, codec.encode_pooled.min_ns
    );

    let json = format!(
        "{{\n  \"schema\": {BENCH_SCHEMA},\n  \"pass_ns_400\": {},\n  \
         \"pass_ns_400_saturated\": {},\n  \"pass_ns_10k\": {},\n  \
         \"pass_ns_100k\": {},\n  \"pass_ns_100k_warm\": {},\n  \
         \"wire_size_ns\": {},\n  \"encode_ns_pooled\": {},\n  \
         \"db_write_latency_ms_400\": {:.3},\n  \"db_queue_depth_peak_400\": {},\n  \
         \"inbox_sojourn_ms_sat500\": {:.6},\n  \"deferred_turns_sat500\": {}\n}}\n",
        p400.median_ns,
        p400_sat.median_ns,
        p10k.median_ns,
        p100k.median_ns,
        pwarm.median_ns,
        codec.wire_size.median_ns,
        codec.encode_pooled.median_ns,
        knee.measured_latency_ms,
        knee.peak_queue_depth,
        sat.inbox_sojourn_ms_mean,
        sat.deferred_turns
    );
    let target = write_baseline.clone().unwrap_or_else(|| out_path.clone());
    std::fs::write(&target, &json).unwrap_or_else(|e| panic!("write {target}: {e}"));
    println!("{json}");

    if write_baseline.is_some() {
        eprintln!("bench_gate: baseline re-recorded at {target}; no gate applied");
        return;
    }

    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bench_gate: no baseline at {baseline_path} ({e}); failing");
            std::process::exit(1);
        }
    };
    // Hard schema gate: comparing rows across schema versions gates
    // renamed or re-scoped numbers against each other — refuse outright.
    if let Err(e) = check_baseline_schema(&baseline, BENCH_SCHEMA) {
        eprintln!("bench_gate: {baseline_path}: {e}");
        std::process::exit(1);
    }
    let factor = env_factor("BENCH_GATE_FACTOR", 2.0);
    let mut failed = false;
    for (key, measured) in [
        ("pass_ns_400", p400.median_ns as f64),
        ("pass_ns_400_saturated", p400_sat.median_ns as f64),
        ("pass_ns_10k", p10k.median_ns as f64),
        ("pass_ns_100k", p100k.median_ns as f64),
        ("pass_ns_100k_warm", pwarm.median_ns as f64),
        ("wire_size_ns", codec.wire_size.median_ns as f64),
        ("encode_ns_pooled", codec.encode_pooled.median_ns as f64),
    ] {
        let Some(base) = json_f64(&baseline, key) else {
            eprintln!("bench_gate: baseline missing {key}; failing");
            failed = true;
            continue;
        };
        let ratio = measured / base;
        // Signed delta so a passing run still shows drift direction at a
        // glance (negative = faster than baseline).
        let delta = (ratio - 1.0) * 100.0;
        let verdict = if ratio > factor { "REGRESSED" } else { "ok" };
        eprintln!(
            "bench_gate: {key}: {measured:.0} vs baseline {base:.0} \
             ({ratio:.2}×, {delta:+.1}%) {verdict}"
        );
        if ratio > factor {
            failed = true;
        }
    }
    // Simulated and deterministic: any drift — up or down — is a
    // behavioural change in the backpressure path that must be
    // re-recorded deliberately, so these rows match the baseline to a 1%
    // epsilon (absorbing the baseline's decimal rounding), not the
    // wall-clock headroom factor.
    for (key, measured) in [
        ("inbox_sojourn_ms_sat500", sat.inbox_sojourn_ms_mean),
        ("deferred_turns_sat500", sat.deferred_turns as f64),
    ] {
        let Some(base) = json_f64(&baseline, key) else {
            eprintln!("bench_gate: baseline missing {key}; failing");
            failed = true;
            continue;
        };
        let tol = (base.abs() * 0.01).max(1e-5);
        let delta = measured - base;
        let drifted = delta.abs() > tol;
        let verdict = if drifted { "DRIFTED" } else { "ok" };
        eprintln!(
            "bench_gate: {key}: {measured:.6} vs baseline {base:.6} \
             (deterministic, {delta:+.6}) {verdict}"
        );
        if drifted {
            failed = true;
        }
    }
    if failed {
        eprintln!("bench_gate: FAIL — latency regressed more than {factor}× over {baseline_path}");
        std::process::exit(1);
    }
    eprintln!("bench_gate: PASS");
}
