//! In-memory spans, written out when the benchmark ends.
//!
//! Spans are recorded from the benchmark's own files around its calls into
//! each layer; spans inside the program are a later change.

use crate::json::Value;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    /// Counter deltas over the span (run slices carry these).
    pub counters: Vec<(&'static str, f64)>,
}

pub struct Recorder {
    workload: &'static str,
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(workload: &'static str) -> Recorder {
        Recorder {
            workload,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Recorder::close`].
    pub fn open(
        &mut self,
        name: impl Into<String>,
        layer: &'static str,
        parent: Option<usize>,
    ) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            layer,
            start_ns,
            end_ns: start_ns,
            parent,
            counters: Vec::new(),
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    pub fn to_json(&self) -> Value {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                let mut fields = vec![
                    ("name".to_string(), Value::str(s.name.as_str())),
                    ("layer".to_string(), Value::str(s.layer)),
                    ("workload".to_string(), Value::str(self.workload)),
                    ("start_ns".to_string(), Value::from(s.start_ns)),
                    ("end_ns".to_string(), Value::from(s.end_ns)),
                    (
                        "parent".to_string(),
                        s.parent.map_or(Value::Null, |p| Value::from(p as u64)),
                    ),
                ];
                fields.extend(
                    s.counters
                        .iter()
                        .map(|(k, v)| (k.to_string(), Value::Num(*v))),
                );
                Value::Obj(fields)
            })
            .collect();
        Value::obj([
            ("workload", Value::str(self.workload)),
            ("spans", Value::Arr(spans)),
        ])
    }
}
