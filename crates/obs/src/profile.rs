//! Deterministic span profiler: per-span *self time*, hot-path tables,
//! and a collapsed-stack exporter.
//!
//! The span store records where wall/sim time went *inclusively*; for
//! optimization work the question is exclusive: a parent span that merely
//! awaits its children is not hot, however long it is. [`SpanProfile`]
//! computes each span's **self time** — its duration minus the summed
//! durations of its direct children — aggregates it into a hot-path table
//! keyed by `(stage, name)`, and renders the whole tree in the `folded`
//! collapsed-stack format that `inferno-flamegraph` / `flamegraph.pl`
//! consume directly.
//!
//! Invariant (tested): for a well-nested trace, the self times of a span's
//! subtree sum exactly to the span's own duration, so no time is double
//! counted or lost by the decomposition.

use std::collections::{BTreeMap, HashMap};

use crate::span::SpanRecord;
use crate::table::{Cell, Table};
use crate::Obs;

/// Aggregated self-time entry for one `(stage, name)` label pair.
#[derive(Debug, Clone, PartialEq)]
pub struct HotPathEntry {
    /// Pipeline stage label.
    pub stage: String,
    /// Component name within the stage.
    pub name: String,
    /// Spans aggregated into this entry.
    pub count: u64,
    /// Summed inclusive duration, seconds.
    pub total_s: f64,
    /// Summed exclusive (self) duration, seconds.
    pub self_s: f64,
}

/// Self-time decomposition of one recorded span store.
///
/// Durations follow [`SpanRecord::duration_seconds`]: sim time when the
/// span is sim-stamped (virtual campaigns), wall time otherwise. Children
/// that overlap each other or spill past their parent can only *shrink* a
/// parent's self time — it is clamped at zero, never negative.
#[derive(Debug, Clone)]
pub struct SpanProfile {
    entries: Vec<HotPathEntry>,
    self_by_id: HashMap<u64, f64>,
    /// `(stack, micros)` pairs, stack frames root-first, deterministic order.
    folded: BTreeMap<String, u64>,
    total_self_s: f64,
}

impl SpanProfile {
    /// Profile everything an [`Obs`] hub recorded.
    pub fn from_obs(obs: &Obs) -> SpanProfile {
        SpanProfile::from_spans(&obs.spans())
    }

    /// Profile a span snapshot.
    pub fn from_spans(spans: &[SpanRecord]) -> SpanProfile {
        // Sum of direct-child durations per parent id.
        let mut child_sum: HashMap<u64, f64> = HashMap::new();
        for span in spans {
            if let Some(parent) = span.parent {
                *child_sum.entry(parent).or_insert(0.0) += span.duration_seconds();
            }
        }
        let mut self_by_id = HashMap::with_capacity(spans.len());
        let mut groups: BTreeMap<(String, String), HotPathEntry> = BTreeMap::new();
        let mut total_self_s = 0.0;
        for span in spans {
            let own = span.duration_seconds();
            let self_s = (own - child_sum.get(&span.id).copied().unwrap_or(0.0)).max(0.0);
            self_by_id.insert(span.id, self_s);
            total_self_s += self_s;
            let entry = groups
                .entry((span.stage.clone(), span.name.clone()))
                .or_insert_with(|| HotPathEntry {
                    stage: span.stage.clone(),
                    name: span.name.clone(),
                    count: 0,
                    total_s: 0.0,
                    self_s: 0.0,
                });
            entry.count += 1;
            entry.total_s += own;
            entry.self_s += self_s;
        }
        let mut entries: Vec<HotPathEntry> = groups.into_values().collect();
        entries.sort_by(|a, b| {
            b.self_s
                .total_cmp(&a.self_s)
                .then_with(|| (&a.stage, &a.name).cmp(&(&b.stage, &b.name)))
        });

        // Collapsed stacks: walk each span's parent chain to the root and
        // attribute its *self* time to the full stack path.
        let by_id: HashMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();
        let mut folded: BTreeMap<String, u64> = BTreeMap::new();
        for span in spans {
            let micros = (self_by_id[&span.id] * 1e6).round() as u64;
            if micros == 0 {
                continue;
            }
            let mut frames = vec![frame_label(span)];
            let mut cursor = span.parent;
            while let Some(pid) = cursor {
                // A parent missing from the snapshot (guard still open when
                // the snapshot was taken) truncates the stack there.
                let Some(parent) = by_id.get(&pid) else { break };
                frames.push(frame_label(parent));
                cursor = parent.parent;
            }
            frames.reverse();
            *folded.entry(frames.join(";")).or_insert(0) += micros;
        }

        SpanProfile {
            entries,
            self_by_id,
            folded,
            total_self_s,
        }
    }

    /// Hot-path entries, sorted by self time descending.
    pub fn entries(&self) -> &[HotPathEntry] {
        &self.entries
    }

    /// Self time of one span by id, seconds.
    pub fn self_time(&self, span_id: u64) -> Option<f64> {
        self.self_by_id.get(&span_id).copied()
    }

    /// Sum of all self times — equals the summed duration of the root
    /// spans for a well-nested trace.
    pub fn total_self_seconds(&self) -> f64 {
        self.total_self_s
    }

    /// Top-`n` self-time table (`profile_self_time`): stage, component,
    /// span count, inclusive total, exclusive self time, and self share.
    pub fn top_table(&self, n: usize) -> Table {
        let mut table = Table::new(
            "profile_self_time",
            &[
                "stage",
                "component",
                "count",
                "total_s",
                "self_s",
                "self_pct",
            ],
        );
        let denom = if self.total_self_s > 0.0 {
            self.total_self_s
        } else {
            1.0
        };
        for entry in self.entries.iter().take(n) {
            table.row(vec![
                Cell::str(&entry.stage),
                Cell::str(&entry.name),
                Cell::int(entry.count as i64),
                Cell::num(entry.total_s, 3),
                Cell::num(entry.self_s, 3),
                Cell::num(100.0 * entry.self_s / denom, 1),
            ]);
        }
        table
    }

    /// Collapsed-stack (`folded`) rendering: one line per unique stack,
    /// `stage:name;stage:name <self-micros>`, feedable to
    /// `inferno-flamegraph` / `flamegraph.pl` unchanged. Lines are sorted
    /// by stack for deterministic output; zero-self-time stacks are
    /// omitted.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for (stack, micros) in &self.folded {
            out.push_str(stack);
            out.push(' ');
            out.push_str(&micros.to_string());
            out.push('\n');
        }
        out
    }
}

/// One collapsed-stack frame: `stage:name`, with the structural
/// characters of the folded format (`;` between frames, space before the
/// count, and the newline that terminates a stack line) replaced so
/// frames always round-trip — a hostile span name must corrupt at most
/// its own label, never the frame boundaries of the document.
fn frame_label(span: &SpanRecord) -> String {
    let clean = |s: &str| s.replace([';', ' ', '\n', '\r'], "_");
    format!("{}:{}", clean(&span.stage), clean(&span.name))
}

/// Parse a collapsed-stack document back into `(frames, micros)` pairs —
/// the round-trip counterpart of [`SpanProfile::folded`].
pub fn parse_folded(text: &str) -> Result<Vec<(Vec<String>, u64)>, String> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let (stack, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no value separator in {line:?}", lineno + 1))?;
        let micros: u64 = value
            .parse()
            .map_err(|e| format!("line {}: bad sample count {value:?}: {e}", lineno + 1))?;
        let frames: Vec<String> = stack.split(';').map(str::to_string).collect();
        if frames.iter().any(|f| f.is_empty()) {
            return Err(format!("line {}: empty frame in {stack:?}", lineno + 1));
        }
        out.push((frames, micros));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eoml_simtime::SimTime;

    fn sim_span(
        id: u64,
        parent: Option<u64>,
        stage: &str,
        name: &str,
        a: f64,
        b: f64,
    ) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            stage: stage.to_string(),
            name: name.to_string(),
            tid: 0,
            sim_start: Some(SimTime::from_secs_f64(a)),
            sim_end: Some(SimTime::from_secs_f64(b)),
            wall_start_ns: 0,
            wall_end_ns: 0,
            trace_id: None,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn self_time_excludes_children() {
        // root [0,10] with children [1,4] and [5,7]; grandchild [2,3].
        let spans = vec![
            sim_span(1, None, "campaign", "run", 0.0, 10.0),
            sim_span(2, Some(1), "download", "file", 1.0, 4.0),
            sim_span(3, Some(1), "preprocess", "granule", 5.0, 7.0),
            sim_span(4, Some(2), "download", "connect", 2.0, 3.0),
        ];
        let p = SpanProfile::from_spans(&spans);
        assert_eq!(p.self_time(1), Some(5.0)); // 10 - (3 + 2)
        assert_eq!(p.self_time(2), Some(2.0)); // 3 - 1
        assert_eq!(p.self_time(3), Some(2.0));
        assert_eq!(p.self_time(4), Some(1.0));
        // Subtree self times sum to the root duration.
        assert!((p.total_self_seconds() - 10.0).abs() < 1e-9);
        // Hot paths are sorted by self time.
        assert_eq!(p.entries()[0].stage, "campaign");
        assert_eq!(p.entries()[0].self_s, 5.0);
    }

    #[test]
    fn overlapping_children_clamp_at_zero() {
        let spans = vec![
            sim_span(1, None, "s", "parent", 0.0, 2.0),
            sim_span(2, Some(1), "s", "a", 0.0, 2.0),
            sim_span(3, Some(1), "s", "b", 0.0, 2.0),
        ];
        let p = SpanProfile::from_spans(&spans);
        assert_eq!(p.self_time(1), Some(0.0));
    }

    #[test]
    fn folded_round_trips_and_aggregates_stacks() {
        let spans = vec![
            sim_span(1, None, "campaign", "run", 0.0, 10.0),
            sim_span(2, Some(1), "download", "file", 1.0, 4.0),
            sim_span(3, Some(1), "download", "file", 5.0, 7.0),
        ];
        let p = SpanProfile::from_spans(&spans);
        let folded = p.folded();
        let parsed = parse_folded(&folded).expect("round trip");
        // Two distinct stacks: root alone, root;download:file (merged).
        assert_eq!(parsed.len(), 2);
        let total: u64 = parsed.iter().map(|(_, v)| *v).sum();
        assert_eq!(total, 10_000_000); // 10 s of self time in µs
        let leaf = parsed
            .iter()
            .find(|(frames, _)| frames.len() == 2)
            .expect("nested stack");
        assert_eq!(leaf.0, vec!["campaign:run", "download:file"]);
        assert_eq!(leaf.1, 5_000_000);
    }

    #[test]
    fn frames_with_separator_characters_still_round_trip() {
        let spans = vec![sim_span(1, None, "weird stage", "a;b c", 0.0, 1.0)];
        let p = SpanProfile::from_spans(&spans);
        let parsed = parse_folded(&p.folded()).expect("round trip");
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].0, vec!["weird_stage:a_b_c"]);
        assert_eq!(parsed[0].1, 1_000_000);
    }

    #[test]
    fn hostile_names_with_newlines_cannot_break_frame_boundaries() {
        // A span name smuggling the folded format's own structure: frame
        // separators, a sample-count separator, and a forged second line
        // claiming a bogus stack. All of it must stay inside one label.
        let spans = vec![
            sim_span(
                1,
                None,
                "stage\nls",
                "evil;frame 99\nfake:stack 1",
                0.0,
                2.0,
            ),
            sim_span(2, Some(1), "child", "with\r\ncrlf", 0.0, 1.0),
        ];
        let p = SpanProfile::from_spans(&spans);
        let doc = p.folded();
        // Exactly the two real stacks — the forged newline produced no
        // extra document line.
        assert_eq!(doc.lines().count(), 2);
        let parsed = parse_folded(&doc).expect("hostile names still round-trip");
        assert_eq!(parsed.len(), 2);
        let flat: Vec<(String, u64)> = parsed
            .iter()
            .map(|(frames, micros)| (frames.join(";"), *micros))
            .collect();
        assert!(flat.contains(&("stage_ls:evil_frame_99_fake:stack_1".to_string(), 1_000_000)));
        assert!(flat.contains(&(
            "stage_ls:evil_frame_99_fake:stack_1;child:with__crlf".to_string(),
            1_000_000
        )));
    }

    #[test]
    fn parse_folded_rejects_malformed_lines() {
        assert!(parse_folded("no-value-line").is_err());
        assert!(parse_folded("a;b not-a-number").is_err());
        assert!(parse_folded("a;;b 10").is_err());
        assert!(parse_folded("").unwrap().is_empty());
    }

    #[test]
    fn top_table_has_share_column() {
        let spans = vec![
            sim_span(1, None, "s", "hot", 0.0, 3.0),
            sim_span(2, None, "s", "cold", 0.0, 1.0),
        ];
        let t = SpanProfile::from_spans(&spans).top_table(10);
        assert_eq!(t.name, "profile_self_time");
        assert_eq!(t.rows.len(), 2);
        // First row is the hottest; 3s of 4s total = 75%.
        assert_eq!(t.rows[0][1], Cell::str("hot"));
        assert_eq!(t.rows[0][5], Cell::num(75.0, 1));
    }
}
