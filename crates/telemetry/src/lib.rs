//! # gpunion-telemetry — Prometheus-style monitoring
//!
//! The paper's "Distributed State Management and Monitoring" subsystem:
//! metric registries with counters/gauges/histograms ([`metrics`]), the text
//! exposition format renderer and parser ([`expo`]), and a bounded
//! time-series store with PromQL-like window queries ([`tsdb`]). Agents
//! expose a registry; the coordinator scrapes, parses, and stores — the
//! pipeline is exercised end-to-end in the integration tests.

#![forbid(unsafe_code)]

pub mod expo;
pub mod metrics;
pub mod tsdb;

pub use expo::{parse, ParseError, Sample};
pub use metrics::{
    labels, Counter, Gauge, Labels, MetricError, MetricHistogram, MetricKind, Registry,
};
pub use tsdb::{Point, SeriesKey, TimeSeriesStore};
