//! Tests of the benchmark itself: generators are pure, quick runs are
//! deterministic and pass their own output checks, the driver's command
//! line parses, and `BENCHMARK.json` matches the metric table.

use super::*;
use crate::metrics::{Better, Family};

#[test]
fn workload_generators_are_pure_functions_of_the_seed() {
    for w in &WORKLOADS {
        let a = format!("{:?}", w.plan(42, true));
        let b = format!("{:?}", w.plan(42, true));
        assert_eq!(a, b, "{}: same seed, same plan", w.name);
        let other = format!("{:?}", w.plan(7, true));
        assert_ne!(a, other, "{}: the seed reaches the plan", w.name);
    }
}

#[test]
fn quick_runs_repeat_exactly_and_pass_their_output_checks() {
    let started = std::time::Instant::now();
    for w in &WORKLOADS {
        let first = run::execute(w, 42, true, None);
        let second = run::execute(w, 42, true, None);
        assert_eq!(
            first.outcome.difference(&second.outcome),
            None,
            "{}",
            w.name
        );
        assert_eq!(first.outcome.violations, Vec::<String>::new(), "{}", w.name);
        assert_eq!(first.outcome.failed_ops, 0, "{}", w.name);
        assert_eq!(first.slice_wall_s.len(), run::TRACE_SLICES as usize);
    }
    // ISSUE 11 hoped for 10 s; the quick storm alone costs 2.5 s a run
    // (image sizes do not shrink with the horizon, so its 220 pulls stay
    // concurrent throughout), and tests share two noisy cores.
    let took = started.elapsed().as_secs_f64();
    assert!(took < 30.0, "quick suite took {took:.1} s");
}

#[test]
fn tracing_and_slicing_do_not_change_what_is_simulated() {
    let w = workloads::find("reclaim_storm_200").expect("workload");
    let plain = run::execute(w, 7, true, None);
    let mut rec = trace::Recorder::new(w.name);
    let traced = run::execute(w, 7, true, Some(&mut rec));
    assert_eq!(plain.outcome.digest, traced.outcome.digest);
    assert_eq!(plain.outcome.sim, traced.outcome.sim);
    // `setup`, then one span per slice group, each with its counter deltas.
    assert_eq!(rec.spans.len(), 1 + run::TRACE_SLICES as usize);
    assert!(
        traced.outcome.counts.pump_events > 0,
        "per-kind counters are on"
    );
    assert_eq!(plain.outcome.counts.pump_events, 0, "and off when untraced");
    let events: f64 = rec.spans[1..]
        .iter()
        .map(|s| {
            s.counters
                .iter()
                .find(|(k, _)| *k == "events")
                .expect("delta")
                .1
        })
        .sum();
    assert_eq!(events as u64, traced.outcome.counts.events_fired);

    // Two runs may differ in the last bits of a flow byte total, and in
    // nothing else.
    let mut other = plain.outcome.clone();
    assert!(other.counts.bytes_image > 0.0);
    other.counts.bytes_image *= 1.0 + 1e-13;
    assert_eq!(plain.outcome.difference(&other), None);
    other.counts.bytes_image *= 1.0 + 1e-6;
    assert!(plain.outcome.difference(&other).is_some());
    let mut other = plain.outcome.clone();
    other.counts.msgs_sent += 1;
    let difference = plain.outcome.difference(&other).expect("differs");
    assert!(difference.contains("msgs_sent"), "{difference}");
}

#[test]
fn metrics_a_workload_does_not_define_are_omitted() {
    let sim_names = |w: &str| -> Vec<&'static str> {
        let rep = run::execute(workloads::find(w).expect("workload"), 42, true, None);
        rep.outcome.sim.iter().map(|(name, _)| *name).collect()
    };
    // No demand, so no job metric is defined — omitted, not zero.
    assert_eq!(sim_names("overload_10k"), ["failed_frac"]);
    let storm = sim_names("reclaim_storm_200");
    assert!(storm.contains(&"gpu_util_mean") && storm.contains(&"fleet_registered_sim_s"));
    assert!(
        !storm.contains(&"sessions_served_frac"),
        "the storm has no sessions"
    );
}

/// The checked-in full-size baseline shows the workloads exercise what
/// they claim (ISSUE 11's acceptance criteria).
#[test]
fn baseline_workloads_exercise_what_they_claim() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("baseline/seed42.json");
    let report = load(&path).expect("baseline/seed42.json");
    let value = |w: &str, metric: &str| {
        let w = report
            .workloads
            .iter()
            .find(|r| r.name == w)
            .expect("workload");
        assert!(w.correct() && w.failed == 0, "{}", w.name);
        w.metric(metric).map(report::Samples::median)
    };
    assert_eq!(report.workloads.len(), WORKLOADS.len());
    for job_metric in ["gpu_util_mean", "jobs_completed", "job_wait_p50_sim_s"] {
        assert_eq!(value("overload_10k", job_metric), None);
    }
    assert_eq!(value("overload_10k", "simnet.bytes_checkpoint"), Some(0.0));
    assert!(value("reclaim_storm_200", "core.displacements") >= Some(300.0));
    let util = value("paper_campus_6w", "gpu_util_mean").expect("defined");
    assert!(
        (util - 0.634).abs() <= 0.05,
        "fig2 measures 0.634, baseline {util}"
    );
    // The shares and the remainder add up by construction.
    for w in &report.workloads {
        let shares: f64 = w
            .per_layer
            .iter()
            .filter(|s| s.name.ends_with("_share"))
            .map(report::Samples::median)
            .sum();
        assert!((shares - 1.0).abs() < 1e-9, "{}: {shares}", w.name);
    }
}

#[test]
fn parses_the_driver_and_the_native_command_lines() {
    let parse = |line: &str| {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_run(&args)
    };
    let driver = parse("--workload fleet400_day --seed 9 --seconds 15 --trace 0").unwrap();
    assert_eq!(driver.workload.as_deref(), Some("fleet400_day"));
    assert_eq!(
        (driver.seed, driver.seconds, driver.trace),
        (9, Some(15.0), Some(false))
    );
    assert_eq!(parse("--trace 1").unwrap().trace, Some(true));
    assert_eq!(parse("--trace --quick").unwrap().trace, Some(true));
    assert_eq!(parse("").unwrap().trace, None);
    assert_eq!(parse("--reps 0").unwrap().reps, Some(1));
    assert!(parse("--workload nope").is_err());
    assert!(parse("--seed").is_err());
    assert!(parse("--frobnicate").is_err());
}

#[test]
fn contract_line_carries_every_metric_asked_for() {
    let w = workloads::find("overload_10k").expect("workload");
    let args = RunArgs {
        workload: Some(w.name.into()),
        seed: 42,
        reps: Some(1),
        seconds: None,
        trace: Some(false),
        quick: true,
        out: None,
    };
    let measured = measure(w, &args);
    assert!(measured.correct() && measured.per_layer.is_empty());
    for trace in [Some(false), Some(true)] {
        let wanted = contract_metrics(trace);
        let line = report::contract_line(&measured, &wanted);
        let metrics = line.get("metrics").expect("metrics");
        assert_eq!(metrics.fields().len(), wanted.len());
        assert_eq!(line.get("correct"), Some(&json::Value::Bool(true)));
        assert!(line.get("attempted").and_then(json::Value::as_f64) >= Some(1.0));
    }
    // A metric the workload does not define reads −1 in the line only.
    let line = report::contract_line(&measured, &contract_metrics(Some(true)));
    let value = |name: &str| {
        line.get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(json::Value::as_f64)
    };
    assert_eq!(value("gpu_util_mean"), Some(-1.0));
    assert!(
        value("failed_frac") >= Some(0.0),
        "defined on every workload"
    );
    assert!(measured.metric("gpu_util_mean").is_none());
    // Reports survive the trip through JSON.
    let report = report_of(&args, vec![measured]);
    assert_eq!(Report::from_json(&report.to_json()).unwrap(), report);
}

/// `BENCHMARK.json` is the contract's view of the metric and workload
/// tables: same names, units and directions, in table order.
#[test]
fn benchmark_json_matches_the_tables() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    let spec = json::parse(&text).expect("valid JSON");
    let list = |key: &str| {
        spec.get(key)
            .and_then(json::Value::as_arr)
            .expect(key)
            .to_vec()
    };
    let field = |v: &json::Value, key: &str| {
        v.get(key)
            .and_then(json::Value::as_str)
            .expect(key)
            .to_string()
    };

    let names: Vec<String> = list("workloads").iter().map(|w| field(w, "name")).collect();
    assert_eq!(names, WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>());
    for w in list("workloads") {
        assert!(field(&w, "why").len() <= 200);
    }

    let check = |listed: Vec<json::Value>, wanted: Vec<&MetricDef>, bounded: bool| {
        assert_eq!(listed.len(), wanted.len());
        for (got, def) in listed.iter().zip(wanted) {
            assert_eq!(field(got, "name"), def.name);
            assert_eq!(field(got, "unit"), def.unit, "{}", def.name);
            let better = if def.better == Better::Higher {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(field(got, "better"), better, "{}", def.name);
            let bound = got.get("bound").and_then(json::Value::as_f64);
            assert_eq!(bound.is_some(), bounded, "{}", def.name);
            assert!(bound.is_none_or(|b| b > 0.0 && b <= 0.25), "{}", def.name);
        }
    };
    check(list("end_to_end"), contract_metrics(Some(false)), true);
    check(list("per_layer"), contract_metrics(Some(true)), false);
    assert!(contract_metrics(Some(false))
        .iter()
        .all(|m| m.family == Family::EndToEnd));
    assert!(CONTRACT_END_TO_END.contains(&"setup_s"));
}
