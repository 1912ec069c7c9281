//! `compare A.json B.json`: B against the baseline A, metric by metric,
//! under the bounds of the metric table.

use crate::metrics::{self, Better, Bound, Source};
use crate::report::{Report, Samples};
use crate::run;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// Within the bound (or unbounded, or better).
    Ok,
    /// Worse than the baseline by more than the bound.
    Regressed,
    /// A side's own spread exceeds the bound: the data cannot say.
    Unresolved,
    /// A simulated metric or count differs where `--same-commit` demands
    /// equality (bit for bit, but for the flow byte totals).
    Differs,
}

pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: Samples,
    pub b: Samples,
    pub verdict: Verdict,
}

/// How much worse `b` is than `a`, in the metric's unit (≤ 0 is no worse).
fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Higher => a - b,
        Better::Lower => b - a,
    }
}

fn judge(def: &metrics::MetricDef, a: &Samples, b: &Samples, same_commit: bool) -> Verdict {
    if same_commit {
        let close =
            |(x, y): (&f64, &f64)| (x - y).abs() <= run::FLOW_SUM_TOLERANCE * x.abs().max(y.abs());
        let same = match def.source {
            Source::Host => true,
            Source::Sim => a.values == b.values,
            Source::SimFlowSum => {
                a.values.len() == b.values.len() && a.values.iter().zip(&b.values).all(close)
            }
        };
        if !same {
            return Verdict::Differs;
        }
    }
    let (ma, mb) = (a.median(), b.median());
    let (limit, spread_of): (f64, fn(&[f64]) -> f64) = match def.bound {
        Bound::None => return Verdict::Ok,
        Bound::Rel(r) => (r * ma.abs(), |v| {
            metrics::spread(v) * metrics::median(v).abs()
        }),
        Bound::Abs(x) => (x, |v| {
            let (q1, q3) = metrics::quartiles(v);
            q3 - q1
        }),
    };
    if spread_of(&a.values) > limit || spread_of(&b.values) > limit {
        Verdict::Unresolved
    } else if worsening(def.better, ma, mb) > limit {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// One row per (workload, metric) present on both sides, in report order.
pub fn compare(a: &Report, b: &Report, same_commit: bool) -> Vec<Row> {
    let mut rows = Vec::new();
    for wa in &a.workloads {
        let Some(wb) = b.workloads.iter().find(|w| w.name == wa.name) else {
            continue;
        };
        if same_commit && wa.sim_digest != wb.sim_digest {
            let digest = |d: u64| Samples {
                name: "sim_digest".into(),
                unit: String::new(),
                values: vec![d as f64],
            };
            rows.push(Row {
                workload: wa.name.clone(),
                metric: "sim_digest".into(),
                a: digest(wa.sim_digest),
                b: digest(wb.sim_digest),
                verdict: Verdict::Differs,
            });
        }
        for sa in wa.end_to_end.iter().chain(&wa.per_layer) {
            let (Some(sb), Some(def)) = (wb.metric(&sa.name), metrics::def(&sa.name)) else {
                continue;
            };
            rows.push(Row {
                workload: wa.name.clone(),
                metric: sa.name.clone(),
                a: sa.clone(),
                b: sb.clone(),
                verdict: judge(def, sa, sb, same_commit),
            });
        }
    }
    rows
}

/// Print the rows; returns whether the comparison passes.
pub fn print(rows: &[Row]) -> bool {
    println!(
        "{:<18} {:<36} {:>14} {:>26} {:>14} {:>26}  verdict",
        "workload", "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]"
    );
    let cell = |s: &Samples| {
        let (q1, q3) = metrics::quartiles(&s.values);
        (
            format!("{:.6e}", s.median()),
            format!("[{q1:.4e}, {q3:.4e}]"),
        )
    };
    for r in rows {
        let ((ma, qa), (mb, qb)) = (cell(&r.a), cell(&r.b));
        let verdict = match r.verdict {
            Verdict::Ok => "ok",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
            Verdict::Differs => "DIFFERS",
        };
        println!(
            "{:<18} {:<36} {ma:>14} {qa:>26} {mb:>14} {qb:>26}  {verdict}",
            r.workload, r.metric
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    let (regressed, differs, unresolved) = (
        count(Verdict::Regressed),
        count(Verdict::Differs),
        count(Verdict::Unresolved),
    );
    println!(
        "{} rows: {regressed} regressed, {differs} differ, {unresolved} unresolved",
        rows.len()
    );
    regressed == 0 && differs == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::WorkloadReport;

    fn report(sim_s_per_wall_s: &[f64], util: f64) -> Report {
        let s = |name: &str, values: &[f64]| Samples {
            name: name.into(),
            unit: metrics::def(name).unwrap().unit.into(),
            values: values.to_vec(),
        };
        Report {
            seed: 42,
            quick: false,
            nproc: 2,
            cpu_model: "test".into(),
            workloads: vec![WorkloadReport {
                name: "fleet400_day".into(),
                reps: sim_s_per_wall_s.len() as u64,
                sim_digest: 7,
                attempted: 10,
                failed: 0,
                violations: vec![],
                end_to_end: vec![
                    s("sim_s_per_wall_s", sim_s_per_wall_s),
                    s("gpu_util_mean", &[util]),
                ],
                per_layer: vec![s("des.events_fired", &[1000.0])],
            }],
        }
    }

    fn verdict_of(rows: &[Row], metric: &str) -> Verdict {
        rows.iter().find(|r| r.metric == metric).unwrap().verdict
    }

    #[test]
    fn flags_a_15_percent_slowdown_and_passes_a_3_percent_one() {
        let base = report(&[1000.0, 1010.0, 990.0], 0.7);
        let slow = report(&[850.0, 858.0, 842.0], 0.7);
        let rows = compare(&base, &slow, false);
        assert_eq!(verdict_of(&rows, "sim_s_per_wall_s"), Verdict::Regressed);
        assert!(!print(&rows));

        let near = report(&[970.0, 980.0, 960.0], 0.7);
        let rows = compare(&base, &near, false);
        assert_eq!(verdict_of(&rows, "sim_s_per_wall_s"), Verdict::Ok);
        assert!(print(&rows));
        // Faster is never a regression.
        let rows = compare(&slow, &base, false);
        assert_eq!(verdict_of(&rows, "sim_s_per_wall_s"), Verdict::Ok);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let base = report(&[1000.0, 1010.0, 990.0], 0.7);
        let noisy = report(&[700.0, 1000.0, 1300.0], 0.7);
        let rows = compare(&base, &noisy, false);
        assert_eq!(verdict_of(&rows, "sim_s_per_wall_s"), Verdict::Unresolved);
        assert!(print(&rows), "unresolved is reported, not failed");
    }

    #[test]
    fn absolute_bounds_and_same_commit_equality() {
        let base = report(&[1000.0], 0.70);
        let worse = report(&[1000.0], 0.68);
        let rows = compare(&base, &worse, false);
        assert_eq!(verdict_of(&rows, "gpu_util_mean"), Verdict::Regressed);
        let close = report(&[1000.0], 0.695);
        assert_eq!(
            verdict_of(&compare(&base, &close, false), "gpu_util_mean"),
            Verdict::Ok
        );
        // The same commit must reproduce simulated metrics bit for bit.
        assert_eq!(
            verdict_of(&compare(&base, &close, true), "gpu_util_mean"),
            Verdict::Differs
        );
        assert_eq!(
            verdict_of(&compare(&base, &base, true), "gpu_util_mean"),
            Verdict::Ok
        );
    }
}
