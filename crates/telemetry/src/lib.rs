//! # gpunion-telemetry — Prometheus-style monitoring
//!
//! The paper's "Distributed State Management and Monitoring" subsystem:
//! a registry of counter and gauge values that an exporter fills at scrape
//! time and renders once ([`metrics`]), the text exposition format parser
//! ([`expo`]), and a bounded time-series store with PromQL-like window
//! queries ([`tsdb`]). The one exporter is the agent's `/metrics`; the
//! scrape → parse → store pipeline runs in the integration tests only —
//! no part of `Platform` scrapes.

#![forbid(unsafe_code)]

pub mod expo;
pub mod metrics;
pub mod tsdb;

pub use expo::{parse, ParseError, Sample};
pub use metrics::{labels, Labels, MetricError, MetricKind, Registry};
pub use tsdb::{Point, SeriesKey, TimeSeriesStore};
