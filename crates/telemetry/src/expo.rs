//! Parser for the Prometheus text exposition format.
//!
//! The scraper pulls `/metrics` from each agent over the (simulated or real)
//! network and parses the text back into samples. Having both the renderer
//! (in [`crate::metrics`]) and this parser means the scrape pipeline is
//! closed under round-trips — which the tests verify.

use crate::metrics::Labels;
use std::fmt;

/// One parsed sample line.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric name (including `_bucket`/`_sum`/`_count` suffixes).
    pub name: String,
    /// Labels.
    pub labels: Labels,
    /// Value.
    pub value: f64,
}

/// Parse errors with line context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub reason: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for ParseError {}

/// Parse an exposition document into samples (comments/TYPE/HELP skipped).
pub fn parse(text: &str) -> Result<Vec<Sample>, ParseError> {
    let mut out = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        out.push(parse_line(line).map_err(|reason| ParseError {
            line: i + 1,
            reason,
        })?);
    }
    Ok(out)
}

fn parse_line(line: &str) -> Result<Sample, &'static str> {
    // name{l="v",...} value   |   name value
    let (head, value_str) = match line.rfind(' ') {
        Some(idx) => (&line[..idx], &line[idx + 1..]),
        None => return Err("missing value"),
    };
    let value: f64 = match value_str {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        s => s.parse().map_err(|_| "bad value")?,
    };
    let (name, labels) = match head.find('{') {
        Some(open) => {
            if !head.ends_with('}') {
                return Err("unterminated label set");
            }
            let name = &head[..open];
            let body = &head[open + 1..head.len() - 1];
            (name, parse_labels(body)?)
        }
        None => (head, Labels::new()),
    };
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    {
        return Err("bad metric name");
    }
    Ok(Sample {
        name: name.to_string(),
        labels,
        value,
    })
}

/// Parse a label set body (`a="x",b="y"`), undoing the value escapes
/// `\\`, `\"` and `\n`. A value may hold `,`, `=` or `}`.
fn parse_labels(body: &str) -> Result<Labels, &'static str> {
    let mut labels = Labels::new();
    let mut rest = body;
    while !rest.is_empty() {
        let (k, after) = rest.split_once('=').ok_or("label without '='")?;
        if k.is_empty() {
            return Err("empty label name");
        }
        let quoted = after.strip_prefix('"').ok_or("unquoted label value")?;
        let mut chars = quoted.char_indices();
        let mut v = String::new();
        let close = loop {
            match chars.next().ok_or("unquoted label value")? {
                (i, '"') => break i,
                (_, '\\') => v.push(match chars.next() {
                    Some((_, 'n')) => '\n',
                    Some((_, c @ ('\\' | '"'))) => c,
                    _ => return Err("bad escape in label value"),
                }),
                (_, c) => v.push(c),
            }
        };
        let tail = &quoted[close + 1..];
        rest = match tail.strip_prefix(',') {
            Some(next) => next,
            None if tail.is_empty() => tail,
            None => return Err("expected ',' after label value"),
        };
        labels.insert(k.to_string(), v);
    }
    Ok(labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{labels, Registry};

    #[test]
    fn parse_simple_lines() {
        let samples = parse(
            "# HELP x help text\n# TYPE x gauge\nx 1.5\ny{a=\"b\"} 2\nz{a=\"b\",c=\"d\"} -0.5\n",
        )
        .unwrap();
        assert_eq!(samples.len(), 3);
        assert_eq!(samples[0].name, "x");
        assert_eq!(samples[0].value, 1.5);
        assert_eq!(samples[1].labels["a"], "b");
        assert_eq!(samples[2].labels.len(), 2);
        assert_eq!(samples[2].value, -0.5);
    }

    #[test]
    fn parse_inf_values() {
        let samples = parse("h_bucket{le=\"+Inf\"} 10\n").unwrap();
        assert_eq!(samples[0].labels["le"], "+Inf");
        assert_eq!(samples[0].value, 10.0);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse("good 1\nbad_line\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(err.reason, "missing value");
    }

    #[test]
    fn bad_labels_rejected() {
        assert!(parse("x{a=b} 1\n").is_err());
        assert!(parse("x{=\"v\"} 1\n").is_err());
        assert!(parse("x{a=\"v\" 1\n").is_err());
    }

    #[test]
    fn render_parse_roundtrip() {
        let mut r = Registry::new();
        r.gauge(
            "gpu_util",
            "u",
            labels([("node", "ws-1"), ("gpu", "0")]),
            0.5,
        )
        .unwrap();
        r.counter("beats_total", "b", Labels::new(), 7.0).unwrap();

        let samples = parse(&r.render()).unwrap();
        let find = |name: &str| samples.iter().find(|s| s.name == name).unwrap();
        assert_eq!(find("gpu_util").value, 0.5);
        assert_eq!(find("gpu_util").labels["node"], "ws-1");
        assert_eq!(find("beats_total").value, 7.0);

        // Histogram series from other exporters parse too.
        let text = "# TYPE lat_seconds histogram\n\
                    lat_seconds_bucket{le=\"0.025\"} 1\n\
                    lat_seconds_bucket{le=\"+Inf\"} 1\n\
                    lat_seconds_sum 0.02\nlat_seconds_count 1\n";
        let samples = parse(text).unwrap();
        assert_eq!(samples.len(), 4);
        assert!(samples
            .iter()
            .any(|s| s.name == "lat_seconds_bucket" && s.labels["le"] == "+Inf" && s.value == 1.0));
        assert_eq!(samples[3].name, "lat_seconds_count");
    }

    #[test]
    fn escaped_label_values_roundtrip() {
        let value = "lab-a,rack-2 \"B\" C:\\tmp\nnext";
        let mut r = Registry::new();
        r.counter(
            "beats_total",
            "b",
            labels([("node", value), ("z", "=}")]),
            1.0,
        )
        .unwrap();
        let text = r.render();
        assert!(
            text.contains("node=\"lab-a,rack-2 \\\"B\\\" C:\\\\tmp\\nnext\""),
            "{text}"
        );
        let samples = parse(&text).unwrap();
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].labels["node"], value);
        assert_eq!(samples[0].labels["z"], "=}");
        assert_eq!(samples[0].value, 1.0);
        assert!(parse("x{a=\"\\q\"} 1\n").is_err(), "unknown escape");
        assert!(parse("x{a=\"v\"b=\"w\"} 1\n").is_err(), "missing comma");
    }
}
