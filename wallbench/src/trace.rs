//! The benchmark's own span recorder.
//!
//! Spans are taken around calls into each layer, from the benchmark's code
//! only; they live in memory until the run ends and are then written as
//! Chrome-trace JSON and folded into a self-time table per layer (a span's
//! duration minus the part its children cover).

use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// The layer (crate) the call went into; `stage` for grouping parents.
    pub layer: &'static str,
    /// The call.
    pub name: &'static str,
    /// Granule or tenant id shared by the spans of one request.
    pub trace_id: String,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// In-memory span store for one thread of benchmark code.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, layer: &'static str, name: &'static str, trace_id: &str) {
        let now = self.ns(Instant::now());
        self.open.push(self.spans.len());
        self.spans.push(Span {
            layer,
            name,
            trace_id: trace_id.to_string(),
            start_ns: now,
            end_ns: now,
            parent: self.open.iter().rev().nth(1).copied(),
        });
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        let now = self.ns(Instant::now());
        let idx = self.open.pop().expect("exit without enter");
        self.spans[idx].end_ns = now;
    }

    /// Time one call into a layer as a leaf span.
    pub fn call<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        trace_id: &str,
        f: impl FnOnce() -> R,
    ) -> R {
        self.enter(layer, name, trace_id);
        let out = f();
        self.exit();
        out
    }

    /// Record a span timed elsewhere, under the innermost open one.
    pub fn add(
        &mut self,
        layer: &'static str,
        name: &'static str,
        trace_id: &str,
        start: Instant,
        end: Instant,
    ) {
        self.spans.push(Span {
            layer,
            name,
            trace_id: trace_id.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.open.last().copied(),
        });
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in seconds, of the spans called `name`.
    pub fn secs_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto).
    pub fn chrome_json(&self) -> Value {
        let events: Vec<Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                json!({
                    "name": s.name,
                    "cat": s.layer,
                    "ph": "X",
                    "pid": 1,
                    "tid": 1,
                    "ts": s.start_ns as f64 / 1e3,
                    "dur": (s.end_ns - s.start_ns) as f64 / 1e3,
                    "args": {
                        "id": id,
                        "parent": s.parent.map(|p| p as i64).unwrap_or(-1),
                        "trace_id": s.trace_id.as_str(),
                    },
                })
            })
            .collect();
        json!({ "traceEvents": events, "displayTimeUnit": "ms" })
    }

    /// Per-layer self time: `(layer, spans, self seconds)`, largest first.
    pub fn self_times(&self) -> Vec<(&'static str, usize, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_layer: BTreeMap<&'static str, (usize, f64)> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            let entry = by_layer.entry(s.layer).or_default();
            entry.0 += 1;
            entry.1 += own as f64 / 1e9;
        }
        let mut rows: Vec<_> = by_layer.into_iter().map(|(l, (n, t))| (l, n, t)).collect();
        rows.sort_by(|a, b| b.2.total_cmp(&a.2));
        rows
    }

    /// The self-time table as text.
    pub fn self_time_table(&self) -> String {
        let rows = self.self_times();
        let total: f64 = rows.iter().map(|r| r.2).sum();
        let mut out = format!(
            "{:<18} {:>7} {:>12} {:>7}\n",
            "layer", "spans", "self_s", "share"
        );
        for (layer, spans, secs) in rows {
            let share = if total > 0.0 {
                100.0 * secs / total
            } else {
                0.0
            };
            out.push_str(&format!(
                "{layer:<18} {spans:>7} {secs:>12.6} {share:>6.1}%\n"
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new();
        let e = t.epoch;
        let at = |ms: u64| e + std::time::Duration::from_millis(ms);
        t.enter("stage", "download", "run");
        t.add("eoml-modis", "synthesize", "g1", at(10), at(40));
        t.add("fs", "write", "g1", at(40), at(50));
        t.exit();
        t.spans[0].start_ns = 0;
        t.spans[0].end_ns = 100_000_000;
        let rows = t.self_times();
        let get = |layer: &str| rows.iter().find(|r| r.0 == layer).unwrap().2;
        assert!((get("stage") - 0.060).abs() < 1e-9);
        assert!((get("eoml-modis") - 0.030).abs() < 1e-9);
        assert!((get("fs") - 0.010).abs() < 1e-9);
        assert_eq!(t.spans()[1].parent, Some(0));
        let doc = t.chrome_json();
        assert_eq!(doc["traceEvents"].as_array().unwrap().len(), 3);
    }
}
