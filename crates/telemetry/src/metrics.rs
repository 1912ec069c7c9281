//! The exporter library: a registry of labelled metric values.
//!
//! The paper's monitoring system collects "both hardware metrics (GPU
//! utilization, memory usage, temperature, etc.) and application metrics
//! (container lifecycle events, resource allocation history, etc.)" through
//! Prometheus exporters. Here an exporter keeps its numbers in its own
//! fields; a scrape builds a [`Registry`] from them, sets each series once
//! and renders the Prometheus text exposition format.

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write;

/// A label set: ordered (name, value) pairs.
pub type Labels = BTreeMap<String, String>;

/// Build a label set from pairs.
pub fn labels<const N: usize>(pairs: [(&str, &str); N]) -> Labels {
    pairs
        .into_iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

/// Metric kind tag for TYPE lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone counter.
    Counter,
    /// Instantaneous gauge.
    Gauge,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
        }
    }
}

#[derive(Debug)]
struct Family {
    help: String,
    kind: MetricKind,
    series: BTreeMap<Labels, f64>,
}

/// The values one scrape of an exporter returns, by family and label set.
#[derive(Debug, Default)]
pub struct Registry {
    families: BTreeMap<String, Family>,
}

/// Registry errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricError {
    /// A family was registered twice with different kinds.
    KindMismatch {
        /// Family name.
        name: String,
    },
}

impl fmt::Display for MetricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetricError::KindMismatch { name } => {
                write!(f, "metric '{name}' already registered with another kind")
            }
        }
    }
}

impl std::error::Error for MetricError {}

impl Registry {
    /// Fresh registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set a counter series to `value`.
    pub fn counter(
        &mut self,
        name: &str,
        help: &str,
        labels: Labels,
        value: f64,
    ) -> Result<(), MetricError> {
        self.set(MetricKind::Counter, name, help, labels, value)
    }

    /// Set a gauge series to `value`.
    pub fn gauge(
        &mut self,
        name: &str,
        help: &str,
        labels: Labels,
        value: f64,
    ) -> Result<(), MetricError> {
        self.set(MetricKind::Gauge, name, help, labels, value)
    }

    fn set(
        &mut self,
        kind: MetricKind,
        name: &str,
        help: &str,
        labels: Labels,
        value: f64,
    ) -> Result<(), MetricError> {
        let fam = self
            .families
            .entry(name.to_string())
            .or_insert_with(|| Family {
                help: help.to_string(),
                kind,
                series: BTreeMap::new(),
            });
        if fam.kind != kind {
            return Err(MetricError::KindMismatch {
                name: name.to_string(),
            });
        }
        fam.series.insert(labels, value);
        Ok(())
    }

    /// Render the Prometheus text exposition format. Label values are
    /// escaped (`\` → `\\`, `"` → `\"`, newline → `\n`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, fam) in &self.families {
            let _ = writeln!(out, "# HELP {name} {}", fam.help);
            let _ = writeln!(out, "# TYPE {name} {}", fam.kind.as_str());
            for (labels, value) in &fam.series {
                out.push_str(name);
                for (i, (k, v)) in labels.iter().enumerate() {
                    out.push(if i == 0 { '{' } else { ',' });
                    out.push_str(k);
                    out.push_str("=\"");
                    for c in v.chars() {
                        match c {
                            '\\' => out.push_str("\\\\"),
                            '"' => out.push_str("\\\""),
                            '\n' => out.push_str("\\n"),
                            c => out.push(c),
                        }
                    }
                    out.push('"');
                }
                if !labels.is_empty() {
                    out.push('}');
                }
                let _ = writeln!(out, " {value}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_same_series_shares_handle() {
        let mut r = Registry::new();
        let ws1 = || labels([("node", "ws-1")]);
        r.counter("jobs_total", "jobs", ws1(), 1.0).unwrap();
        r.counter("jobs_total", "jobs", ws1(), 2.0).unwrap();
        r.counter("jobs_total", "jobs", labels([("node", "ws-2")]), 5.0)
            .unwrap();
        assert_eq!(
            r.render(),
            "# HELP jobs_total jobs\n# TYPE jobs_total counter\n\
             jobs_total{node=\"ws-1\"} 2\njobs_total{node=\"ws-2\"} 5\n"
        );
    }

    #[test]
    fn registry_kind_mismatch_rejected() {
        let mut r = Registry::new();
        r.counter("x_total", "x", Labels::new(), 1.0).unwrap();
        assert!(matches!(
            r.gauge("x_total", "x", Labels::new(), 1.0),
            Err(MetricError::KindMismatch { .. })
        ));
    }

    #[test]
    fn render_text_format() {
        let mut r = Registry::new();
        r.gauge(
            "gpu_utilization",
            "SM utilization",
            labels([("node", "ws-1"), ("gpu", "0")]),
            0.93,
        )
        .unwrap();
        r.counter("heartbeats_total", "heartbeats", Labels::new(), 42.0)
            .unwrap();
        let text = r.render();
        assert!(text.contains("# TYPE gpu_utilization gauge"));
        assert!(text.contains("gpu_utilization{gpu=\"0\",node=\"ws-1\"} 0.93"));
        assert!(text.contains("heartbeats_total 42"));
    }
}
