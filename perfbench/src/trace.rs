//! In-memory spans recorded around the benchmark's calls into the library.
//!
//! A span has a name (`<layer>.<call>`), a key (the scenario label, or the
//! sweep label for per-document calls), start and end offsets from the trace's
//! epoch, and the index of its parent span. Spans stay in memory until the run
//! ends and are then written out as one JSON document.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub key: String,
    pub pass: usize,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// The spans of one run.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    pass: usize,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            epoch: Instant::now(),
            pass: 0,
            spans: Vec::new(),
        }
    }

    /// Starts attributing new spans to traced pass `pass`.
    pub fn set_pass(&mut self, pass: usize) {
        self.pass = pass;
    }

    /// Opens a span and returns its index, to be passed to [`Trace::end`].
    pub fn begin(&mut self, name: &'static str, key: &str, parent: Option<usize>) -> usize {
        let now = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            key: key.to_string(),
            pass: self.pass,
            start: now,
            end: now,
            parent,
        });
        self.spans.len() - 1
    }

    /// Closes span `index`.
    pub fn end(&mut self, index: usize) {
        self.spans[index].end = self.epoch.elapsed();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part its children cover.
    pub fn self_times(&self) -> Vec<Duration> {
        let mut own: Vec<Duration> = self.spans.iter().map(Span::duration).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(span.duration());
            }
        }
        own
    }

    /// Self time summed per span name, for one traced pass.
    pub fn self_time_by_name(&self, pass: usize) -> BTreeMap<&'static str, Duration> {
        let mut totals = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times()) {
            if span.pass == pass {
                *totals.entry(span.name).or_default() += own;
            }
        }
        totals
    }

    /// The spans as a JSON array (times in seconds from the trace's epoch).
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                format!(
                    "{{\"id\": {id}, \"name\": \"{}\", \"key\": {}, \"pass\": {}, \"start_s\": {}, \"end_s\": {}, \"parent\": {}}}",
                    s.name,
                    json_string(&s.key),
                    s.pass,
                    s.start.as_secs_f64(),
                    s.end.as_secs_f64(),
                    s.parent.map_or("null".to_string(), |p| p.to_string())
                )
            })
            .collect();
        format!("[\n  {}\n]", rows.join(",\n  "))
    }
}

/// Quotes `s` as a JSON string.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
