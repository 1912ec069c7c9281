//! The repo benchmark: four workloads on the real `Platform`, end-to-end
//! and per-layer metrics, output checks, and a `compare` for two reports.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     run [--workload W] [--seed S] [--reps R | --seconds T] [--trace [0|1]] [--quick] [--out FILE]
//!     compare A.json B.json [--same-commit]
//! ```
//!
//! **API-surface rule.** So that the deletions ROADMAP plans cannot break
//! the benchmark, this crate drives the layers only through
//! `Platform::{deploy, boot}`, `PlatformSim`, `PlatformEvent::Inject`,
//! `Coordinator::{send, next_wake, advance, stats, db_write_latency}`,
//! `Network::{new, send, poll, start_flow, next_event_at, accounting,
//! messages_sent, messages_dropped}`, `DbActor::{new, submit, advance}`,
//! `Agent::{on_wake, handle_message}`,
//! `Envelope::{wire_size, to_bytes, from_bytes}` and `Sim::{schedule_typed_at,
//! run_until, events_executed, profile_events, fired_by_kind}`, and reads
//! results through `Platform::{agent, agent_mut, mean_utilization,
//! backbone_link}`, the public fields `Platform::{net, coordinator, stats,
//! image_refs}` and `Agent::{uid, workload_count}`. It never calls a
//! `#[deprecated]` getter or a `gpunion-bench` helper, and never names
//! `placement_mode`, `shard_count`, `worker_threads` or `pump_workers`:
//! every mode switch comes from `Default`, so the benchmark measures what
//! ships.
//!
//! Host time says how fast the simulator is; simulated statistics say how
//! good the modelled platform is. A change that only speeds the simulator
//! must leave every simulated statistic — and the `sim_digest` — identical.

mod alloc;
mod clock;
mod compare;
mod json;
mod metrics;
mod probes;
mod report;
mod run;
mod trace;
mod workloads;

use metrics::{MetricDef, CONTRACT_END_TO_END, METRICS};
use report::{Report, WorkloadReport};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workloads::{Workload, WORKLOADS};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Repetitions when neither `--reps` nor `--seconds` is given.
const DEFAULT_REPS: usize = 3;
/// `setup_s` is the median of at least this many set-ups.
const SETUP_SAMPLES: usize = 21;

#[derive(Debug, Clone, PartialEq)]
struct RunArgs {
    workload: Option<String>,
    seed: u64,
    reps: Option<usize>,
    seconds: Option<f64>,
    /// `None`: repetitions plus a traced pass. `Some(false)`: repetitions
    /// only. `Some(true)`: one repetition plus the traced pass.
    trace: Option<bool>,
    quick: bool,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        workload: None,
        seed: 42,
        reps: None,
        seconds: None,
        trace: None,
        quick: false,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("`{arg}` needs {what}"))
        };
        match arg.as_str() {
            "--workload" => out.workload = Some(value("a workload name")?),
            "--seed" => {
                out.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--reps" => {
                let reps: usize = value("a count")?
                    .parse()
                    .map_err(|e| format!("--reps: {e}"))?;
                out.reps = Some(reps.max(1));
            }
            "--seconds" => {
                out.seconds = Some(
                    value("a number")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--out" => out.out = Some(PathBuf::from(value("a path")?)),
            "--quick" => out.quick = true,
            "--trace" => {
                // Bare `--trace` means on; the driver passes `--trace 0|1`.
                out.trace = Some(match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                });
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(name) = &out.workload {
        if workloads::find(name).is_none() {
            let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload `{name}` (have: {})",
                names.join(", ")
            ));
        }
    }
    Ok(out)
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_file(path: &Path, text: &str) {
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, text));
    if let Err(e) = written {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// Peak resident set of this process so far, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn host_info() -> (u64, String) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    (nproc, model)
}

/// Measure one workload in this process.
fn measure(w: &'static Workload, args: &RunArgs) -> WorkloadReport {
    let traced_pass = args.trace != Some(false);
    let fixed_reps = match (args.reps, args.seconds, args.trace) {
        (Some(reps), _, _) => Some(reps),
        // The traced invocation spends its time on the traced pass.
        (None, _, Some(true)) => Some(1),
        (None, Some(_), _) => None,
        (None, None, _) => Some(DEFAULT_REPS),
    };
    let mut reps = Vec::new();
    let mut timed_s = 0.0;
    loop {
        let rep = run::execute(w, args.seed, args.quick, None);
        timed_s += rep.raw_wall_s;
        reps.push(rep);
        let done = match fixed_reps {
            Some(n) => reps.len() >= n,
            None => timed_s >= args.seconds.unwrap_or(0.0),
        };
        if done {
            break;
        }
    }
    let mut setup_s: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    while setup_s.len() < SETUP_SAMPLES {
        setup_s.push(run::setup_only(w, args.seed, args.quick));
    }
    // Before the traced pass, so spans and probes do not count.
    let peak_rss_mb = peak_rss_mb();

    let first = &reps[0].outcome;
    let mut violations = first.violations.clone();
    for (i, rep) in reps.iter().enumerate().skip(1) {
        if let Some(difference) = rep.outcome.difference(first) {
            violations.push(format!(
                "repetition {i} is not deterministic: digest {:#018x} vs {:#018x}; {difference}",
                rep.outcome.digest, first.digest
            ));
        }
    }

    let mut per_layer = Vec::new();
    if traced_pass {
        let mut rec = trace::Recorder::new(w.name);
        let traced = run::execute(w, args.seed, args.quick, Some(&mut rec));
        // Tracing must not change what is simulated (the per-kind event
        // counters exist only in the traced run).
        if traced.outcome.digest != first.digest || traced.outcome.sim != first.sim {
            violations.push(format!(
                "the traced run simulated something else: digest {:#018x} vs {:#018x}",
                traced.outcome.digest, first.digest
            ));
        }
        // The scheduler probes run on the workload's own world at the end
        // of its heaviest slice group: the state that costs most.
        let heaviest = (0..reps[0].slice_wall_s.len())
            .max_by(|&a, &b| reps[0].slice_wall_s[a].total_cmp(&reps[0].slice_wall_s[b]))
            .unwrap_or(0) as u64;
        let span = rec.open(format!("probe_world[{heaviest}]"), "core", None);
        let fin = run::world_after_group(w, args.seed, args.quick, heaviest);
        rec.close(span);
        let probes = probes::run_all(&mut rec, fin, &traced.outcome, traced.wall_s);
        per_layer = report::per_layer(&traced, &reps, probes);
        let path = out_dir().join(format!("trace-{}.json", w.name));
        write_file(&path, &rec.to_json().pretty());
    }

    WorkloadReport {
        name: w.name.to_string(),
        reps: reps.len() as u64,
        sim_digest: first.digest,
        attempted: first.attempted,
        failed: first.failed_ops,
        violations,
        end_to_end: report::end_to_end(&reps, setup_s, peak_rss_mb),
        per_layer,
    }
}

fn report_of(args: &RunArgs, workloads: Vec<WorkloadReport>) -> Report {
    let (nproc, cpu_model) = host_info();
    Report {
        seed: args.seed,
        quick: args.quick,
        nproc,
        cpu_model,
        workloads,
    }
}

/// The metrics the contract line carries for this invocation.
fn contract_metrics(trace: Option<bool>) -> Vec<&'static MetricDef> {
    let end_to_end = |m: &&MetricDef| CONTRACT_END_TO_END.contains(&m.name);
    if trace == Some(true) {
        METRICS.iter().filter(|m| !end_to_end(m)).collect()
    } else {
        METRICS.iter().filter(end_to_end).collect()
    }
}

/// `run --workload W`: measure here, print the table, write
/// `out/<W>.json`, and end with the contract's one-line result.
fn run_one(w: &'static Workload, args: &RunArgs) -> ExitCode {
    println!("{}: {}", w.name, w.why);
    let measured = measure(w, args);
    measured.print();
    let line = report::contract_line(&measured, &contract_metrics(args.trace));
    let correct = measured.correct();
    let report = report_of(args, vec![measured]);
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join(format!("{}.json", w.name)));
    write_file(&path, &report.to_json().pretty());
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `run` without `--workload`: each workload in a fresh process of this
/// program (so `peak_rss_mb` and allocator state are per workload, as when
/// the driver runs them), then one merged report.
fn run_suite(args: &RunArgs) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut merged = Vec::new();
    let mut ok = true;
    for w in &WORKLOADS {
        let part = out_dir().join(format!("{}.json", w.name));
        let mut child = Command::new(&exe);
        child.args([
            "run",
            "--workload",
            w.name,
            "--seed",
            &args.seed.to_string(),
        ]);
        child.arg("--out").arg(&part);
        if let Some(reps) = args.reps {
            child.args(["--reps", &reps.to_string()]);
        }
        if let Some(seconds) = args.seconds {
            child.args(["--seconds", &seconds.to_string()]);
        }
        if let Some(trace) = args.trace {
            child.args(["--trace", if trace { "1" } else { "0" }]);
        }
        if args.quick {
            child.arg("--quick");
        }
        // `status` waits for the child to end.
        match child.status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("{}: {status}", w.name);
                ok = false;
            }
            Err(e) => {
                eprintln!("{}: could not start: {e}", w.name);
                return ExitCode::FAILURE;
            }
        }
        match load(&part) {
            Ok(report) => merged.extend(report.workloads),
            Err(e) => {
                eprintln!("{e}");
                ok = false;
            }
        }
    }
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join(format!("suite-seed{}.json", args.seed)));
    write_file(&path, &report_of(args, merged).to_json().pretty());
    println!("suite report: {}", path.display());
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn load(path: &Path) -> Result<Report, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text)
        .and_then(|v| Report::from_json(&v))
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn compare_cmd(args: &[String]) -> Result<bool, String> {
    let same_commit = args.iter().any(|a| a == "--same-commit");
    let files: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let [a, b] = files[..] else {
        return Err("compare needs exactly two report files".into());
    };
    let (a, b) = (load(Path::new(a))?, load(Path::new(b))?);
    if a.seed != b.seed || a.quick != b.quick {
        return Err("the two reports were not made with the same seed and size".into());
    }
    Ok(compare::print(&compare::compare(&a, &b, same_commit)))
}

fn main() -> ExitCode {
    // The benchmark is single-process and single-threaded and measures the
    // shipped defaults: no thread-count override may leak in.
    std::env::remove_var("GPUNION_PUMP_THREADS");
    std::env::remove_var("GPUNION_WORKER_THREADS");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: run [--workload W] [--seed S] [--reps R | --seconds T] [--trace [0|1]] \
                 [--quick] [--out FILE] | compare A.json B.json [--same-commit]";
    match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => match parse_run(rest) {
            Ok(run_args) => match run_args.workload.as_deref().and_then(workloads::find) {
                Some(w) => run_one(w, &run_args),
                None => run_suite(&run_args),
            },
            Err(e) => {
                eprintln!("{e}\n{usage}");
                ExitCode::from(2)
            }
        },
        Some((cmd, rest)) if cmd == "compare" => match compare_cmd(rest) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("{e}\n{usage}");
                ExitCode::from(2)
            }
        },
        _ => {
            eprintln!("{usage}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests;
