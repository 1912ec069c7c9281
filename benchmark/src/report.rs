//! Reports: what one invocation measured, as a table for people and as the
//! JSON that `out/`, `baseline/` and `compare` share.

use crate::json::Value;
use crate::metrics::{self, Family, MetricDef, METRICS};
use crate::run::{Outcome, Rep};

pub const SCHEMA: u64 = 1;

/// One metric's samples: every repetition's value for a host metric, the
/// one exact value for a simulated metric or a count.
#[derive(Debug, Clone, PartialEq)]
pub struct Samples {
    pub name: String,
    pub unit: String,
    pub values: Vec<f64>,
}

impl Samples {
    pub fn median(&self) -> f64 {
        metrics::median(&self.values)
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadReport {
    pub name: String,
    pub reps: u64,
    pub sim_digest: u64,
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    pub end_to_end: Vec<Samples>,
    /// Empty unless a traced pass ran.
    pub per_layer: Vec<Samples>,
}

impl WorkloadReport {
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    pub fn metric(&self, name: &str) -> Option<&Samples> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|s| s.name == name)
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    pub seed: u64,
    pub quick: bool,
    pub nproc: u64,
    pub cpu_model: String,
    pub workloads: Vec<WorkloadReport>,
}

fn samples(name: &str, values: Vec<f64>) -> Samples {
    let def = metrics::def(name).unwrap_or_else(|| panic!("metric `{name}` is not in the table"));
    Samples {
        name: name.to_string(),
        unit: def.unit.to_string(),
        values,
    }
}

/// The end-to-end metrics of the untraced repetitions. `setup_s` carries
/// the repetitions' set-ups plus any extra set-up-only samples.
pub fn end_to_end(reps: &[Rep], setup_s: Vec<f64>, peak_rss_mb: f64) -> Vec<Samples> {
    let outcome = &reps[0].outcome;
    let mut out = vec![
        samples(
            "sim_s_per_wall_s",
            reps.iter().map(|r| outcome.horizon_s / r.wall_s).collect(),
        ),
        samples("peak_rss_mb", vec![peak_rss_mb]),
        samples("setup_s", setup_s),
    ];
    out.extend(outcome.sim.iter().map(|&(name, v)| samples(name, vec![v])));
    out
}

/// The per-layer metrics of the traced pass: counts from its outcome,
/// wall ÷ count figures, and the probe results.
pub fn per_layer(traced: &Rep, untraced: &[Rep], probes: Vec<(&'static str, f64)>) -> Vec<Samples> {
    let median_of =
        |f: fn(&Rep) -> f64| metrics::median(&untraced.iter().map(f).collect::<Vec<_>>());
    let Outcome {
        counts: c,
        horizon_s,
        ..
    } = &traced.outcome;
    let wall = traced.wall_s;
    let per = |count: u64| {
        if count > 0 {
            wall * 1e9 / count as f64
        } else {
            0.0
        }
    };
    let beats = c.inbox_turns + c.shed_envelopes;
    let mut values: Vec<(&'static str, f64)> = vec![
        ("des.events_fired", c.events_fired as f64),
        ("des.pump_events", c.pump_events as f64),
        ("des.inject_events", c.inject_events as f64),
        ("des.events_per_wall_s", c.events_fired as f64 / wall),
        ("simnet.msgs_sent", c.msgs_sent as f64),
        ("simnet.msgs_dropped", c.msgs_dropped as f64),
        ("simnet.msgs_per_wall_s", c.msgs_sent as f64 / wall),
        ("simnet.bytes_control", c.bytes_control),
        ("simnet.bytes_checkpoint", c.bytes_checkpoint),
        ("simnet.bytes_migration", c.bytes_migration),
        ("simnet.bytes_image", c.bytes_image),
        (
            "protocol.bytes_per_msg_mean",
            c.backbone_control_bytes / c.msgs_sent.max(1) as f64,
        ),
        ("db.applied_writes", c.db_applied_writes as f64),
        ("db.depth_peak", c.db_depth_peak as f64),
        ("db.over_bound_writes", c.db_over_bound_writes as f64),
        ("db.shed_writes", c.db_shed_writes as f64),
        ("db.sojourn_mean_sim_ms", c.db_sojourn_mean_ms),
        ("scheduler.inbox_depth_peak", c.inbox_depth_peak as f64),
        (
            "scheduler.inbox_sojourn_mean_sim_ms",
            c.inbox_sojourn_mean_ms,
        ),
        ("scheduler.shed_envelopes", c.shed_envelopes as f64),
        (
            "scheduler.hb_shed_frac",
            c.shed_envelopes as f64 / beats.max(1) as f64,
        ),
        ("scheduler.deferred_turns", c.deferred_turns as f64),
        ("scheduler.live_jobs_end", c.live_jobs_end as f64),
        ("core.jobs_submitted", c.jobs_submitted as f64),
        ("core.sessions_submitted", c.sessions_submitted as f64),
        ("core.displacements", c.displacements as f64),
        ("core.migrated_back", c.migrated_back as f64),
        ("core.ns_per_msg", per(c.msgs_sent)),
        ("core.ns_per_pump_event", per(c.pump_events)),
        (
            "core.slice_wall_s_p50",
            metrics::median(&traced.slice_wall_s),
        ),
        (
            "core.slice_wall_s_max",
            traced.slice_wall_s.iter().copied().fold(0.0, f64::max),
        ),
        ("host.allocs_per_sim_s", traced.allocs.0 as f64 / horizon_s),
        (
            "host.alloc_bytes_per_sim_s",
            traced.allocs.1 as f64 / horizon_s,
        ),
        (
            "host.tracing_overhead_frac",
            wall / median_of(|r| r.wall_s) - 1.0,
        ),
        (
            "host.raw_sim_s_per_wall_s",
            horizon_s / median_of(|r| r.raw_wall_s),
        ),
        ("host.clock_ratio", median_of(|r| r.clock_ratio)),
    ];
    values.extend(probes);
    // Table order, so every report lists layers the same way.
    METRICS
        .iter()
        .filter(|m| m.family == Family::PerLayer)
        .filter_map(|m| {
            values
                .iter()
                .find(|(name, _)| *name == m.name)
                .map(|&(name, v)| samples(name, vec![v]))
        })
        .collect()
}

// ---- rendering -------------------------------------------------------------

fn fmt_num(v: f64) -> String {
    let a = v.abs();
    if v == 0.0 {
        "0".into()
    } else if a >= 1e6 || v.fract() == 0.0 && a >= 1e3 {
        format!("{v:.0}")
    } else if a >= 100.0 {
        format!("{v:.1}")
    } else if a >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.5}")
    }
}

impl WorkloadReport {
    pub fn print(&self) {
        println!(
            "== {}: {} reps, digest {:#018x}, attempted {}, failed {}, {}",
            self.name,
            self.reps,
            self.sim_digest,
            self.attempted,
            self.failed,
            if self.correct() {
                "outputs correct"
            } else {
                "OUTPUTS WRONG"
            }
        );
        for v in &self.violations {
            println!("   violation: {v}");
        }
        for (title, list) in [
            ("end to end", &self.end_to_end),
            ("per layer", &self.per_layer),
        ] {
            if list.is_empty() {
                continue;
            }
            println!("   -- {title}");
            for s in list {
                let (q1, q3) = metrics::quartiles(&s.values);
                let spread = if s.values.len() > 1 {
                    format!(
                        "  [q1 {} q3 {} n={}]",
                        fmt_num(q1),
                        fmt_num(q3),
                        s.values.len()
                    )
                } else {
                    String::new()
                };
                println!(
                    "   {:<36} {:>16} {}{spread}",
                    s.name,
                    fmt_num(s.median()),
                    s.unit
                );
            }
        }
    }
}

// ---- JSON --------------------------------------------------------------------

fn samples_json(list: &[Samples]) -> Value {
    Value::Obj(
        list.iter()
            .map(|s| {
                (
                    s.name.clone(),
                    Value::obj([
                        ("unit", Value::str(s.unit.as_str())),
                        (
                            "samples",
                            Value::Arr(s.values.iter().map(|&v| Value::Num(v)).collect()),
                        ),
                    ]),
                )
            })
            .collect(),
    )
}

fn samples_from(v: Option<&Value>) -> Result<Vec<Samples>, String> {
    let Some(v) = v else {
        return Ok(Vec::new());
    };
    v.fields()
        .iter()
        .map(|(name, m)| {
            let values = m
                .get("samples")
                .and_then(Value::as_arr)
                .ok_or_else(|| format!("metric `{name}` has no samples"))?
                .iter()
                .map(|x| {
                    x.as_f64()
                        .ok_or_else(|| format!("metric `{name}`: bad sample"))
                })
                .collect::<Result<_, _>>()?;
            Ok(Samples {
                name: name.clone(),
                unit: m
                    .get("unit")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string(),
                values,
            })
        })
        .collect()
}

impl Report {
    pub fn to_json(&self) -> Value {
        let workloads = self
            .workloads
            .iter()
            .map(|w| {
                (
                    w.name.clone(),
                    Value::obj([
                        ("reps", Value::from(w.reps)),
                        // A string: JSON numbers cannot hold 64 bits.
                        ("sim_digest", Value::str(format!("{:#018x}", w.sim_digest))),
                        ("attempted", Value::from(w.attempted)),
                        ("failed", Value::from(w.failed)),
                        ("correct", Value::Bool(w.correct())),
                        (
                            "violations",
                            Value::Arr(w.violations.iter().map(Value::str).collect()),
                        ),
                        ("end_to_end", samples_json(&w.end_to_end)),
                        ("per_layer", samples_json(&w.per_layer)),
                    ]),
                )
            })
            .collect();
        Value::obj([
            ("schema", Value::from(SCHEMA)),
            ("seed", Value::from(self.seed)),
            ("quick", Value::Bool(self.quick)),
            (
                "host",
                Value::obj([
                    ("nproc", Value::from(self.nproc)),
                    ("cpu_model", Value::str(self.cpu_model.as_str())),
                ]),
            ),
            ("workloads", Value::Obj(workloads)),
        ])
    }

    pub fn from_json(v: &Value) -> Result<Report, String> {
        let num = |v: &Value, key: &str| {
            v.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("missing number `{key}`"))
        };
        if num(v, "schema")? as u64 != SCHEMA {
            return Err(format!("report schema is not {SCHEMA}"));
        }
        let host = v.get("host").ok_or("missing `host`")?;
        let workloads = v
            .get("workloads")
            .ok_or("missing `workloads`")?
            .fields()
            .iter()
            .map(|(name, w)| {
                let digest = w
                    .get("sim_digest")
                    .and_then(Value::as_str)
                    .and_then(|s| u64::from_str_radix(s.trim_start_matches("0x"), 16).ok())
                    .ok_or_else(|| format!("{name}: bad sim_digest"))?;
                Ok(WorkloadReport {
                    name: name.clone(),
                    reps: num(w, "reps")? as u64,
                    sim_digest: digest,
                    attempted: num(w, "attempted")? as u64,
                    failed: num(w, "failed")? as u64,
                    violations: w
                        .get("violations")
                        .and_then(Value::as_arr)
                        .unwrap_or(&[])
                        .iter()
                        .filter_map(|s| s.as_str().map(str::to_string))
                        .collect(),
                    end_to_end: samples_from(w.get("end_to_end"))?,
                    per_layer: samples_from(w.get("per_layer"))?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Report {
            seed: num(v, "seed")? as u64,
            quick: matches!(v.get("quick"), Some(Value::Bool(true))),
            nproc: num(host, "nproc")? as u64,
            cpu_model: host
                .get("cpu_model")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string(),
            workloads,
        })
    }
}

/// The one-line result the benchmark contract asks for: `metrics` holds
/// every name in `wanted`; a metric this workload does not define reads −1
/// there (the line must carry every name; the report files omit it).
pub fn contract_line(w: &WorkloadReport, wanted: &[&MetricDef]) -> Value {
    let metrics = wanted
        .iter()
        .map(|def| {
            let value = w.metric(def.name).map_or(-1.0, Samples::median);
            (
                def.name.to_string(),
                Value::obj([("value", Value::Num(value)), ("unit", Value::str(def.unit))]),
            )
        })
        .collect();
    Value::obj([
        ("correct", Value::Bool(w.correct())),
        ("attempted", Value::from(w.attempted)),
        ("failed", Value::from(w.failed)),
        ("metrics", Value::Obj(metrics)),
    ])
}
