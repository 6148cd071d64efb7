//! Noise-aware differencing of two [`RunArchive`]s: turn a "Regressed"
//! verdict into an attributed answer.
//!
//! [`diff_archives`] joins two archives on every axis the telemetry
//! supports and emits a ranked [`AttributionReport`]:
//!
//! - **self time** — per-`(stage, name)` exclusive seconds from each
//!   archive's [`crate::profile::SpanProfile`]. Self time is already
//!   overlap-clamped (children can only shrink a parent, never drive it
//!   negative), so the deltas attribute without double counting.
//! - **queue wait** — per-stage queueing seconds summed over every
//!   granule's critical path ([`crate::analysis::GranuleTrace::critical_path`]);
//!   a stage whose *service* time is flat but whose *queue* exploded
//!   shows up here, not in self time.
//! - **allocation** — per-stage `alloc_bytes` / `allocs` / `alloc_peak_bytes`
//!   deltas from the archived counters and gauges.
//! - **headline** — the `tiles_per_s` row of the archived summary table,
//!   when both archives carry one.
//!
//! Every axis is gated by a [`Tolerance`] so same-seed/same-config runs
//! diff to *zero attributed deltas* rather than a page of float dust.
//! Ranked entries carry a `share_pct` over the total attributed shift,
//! yielding reports like: "headline tiles/s −18%: 71% preprocess
//! queue-wait, 22% download self-time, alloc_peak +34 MiB in preprocess".
//!
//! [`flame_diff`] additionally renders the two folded profiles as a
//! differential collapsed-stack document (`stack base_µs cur_µs`) that
//! flamegraph difffolded tooling consumes directly.

use std::collections::{BTreeMap, BTreeSet};

use serde_json::{Map, Value};

use crate::analysis::{SegmentKind, TraceAnalysis};
use crate::archive::RunArchive;
use crate::baseline::Tolerance;
use crate::profile::parse_folded;
use crate::resource::{ALLOC_BYTES_COUNTER, ALLOC_COUNT_COUNTER, ALLOC_PEAK_GAUGE};
use crate::table::Cell;

/// Default gate for time-valued deltas: 1 % relative *and* 10 ms
/// absolute must both be exceeded. Much tighter than the baseline
/// store's default — archives from the same seed and config are
/// bit-identical in sim time, so the gate exists only to eat float dust
/// and wall-clock jitter in unstamped spans.
pub const DEFAULT_DIFF_TOLERANCE: Tolerance = Tolerance {
    rel: 0.01,
    abs: 0.01,
};

/// Default gate for byte-valued deltas: 2 % relative and 1 MiB absolute.
pub const DEFAULT_ALLOC_TOLERANCE: Tolerance = Tolerance {
    rel: 0.02,
    abs: 1_048_576.0,
};

/// Report JSON schema version (`schema_version` in [`AttributionReport::to_json`]).
pub const REPORT_SCHEMA_VERSION: u32 = 1;

/// One `(stage, name)` exclusive-time delta that cleared the gate.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfTimeDelta {
    /// Pipeline stage label.
    pub stage: String,
    /// Component name within the stage.
    pub name: String,
    /// Baseline self seconds.
    pub base_s: f64,
    /// Current self seconds.
    pub cur_s: f64,
}

impl SelfTimeDelta {
    /// Signed shift, seconds (positive = current is slower).
    pub fn delta_s(&self) -> f64 {
        self.cur_s - self.base_s
    }
}

/// One per-stage allocation delta that cleared the byte gate.
#[derive(Debug, Clone, PartialEq)]
pub struct AllocDelta {
    /// Pipeline stage label.
    pub stage: String,
    /// Baseline / current cumulative allocated bytes.
    pub base_bytes: u64,
    /// Current cumulative allocated bytes.
    pub cur_bytes: u64,
    /// Baseline allocation count.
    pub base_allocs: u64,
    /// Current allocation count.
    pub cur_allocs: u64,
    /// Baseline peak live bytes.
    pub base_peak: f64,
    /// Current peak live bytes.
    pub cur_peak: f64,
}

impl AllocDelta {
    /// Signed cumulative-bytes shift.
    pub fn delta_bytes(&self) -> i64 {
        self.cur_bytes as i64 - self.base_bytes as i64
    }

    /// Signed peak shift, bytes.
    pub fn delta_peak(&self) -> f64 {
        self.cur_peak - self.base_peak
    }
}

/// One per-`(stage, kind)` critical-path composition row — where the
/// granules' end-to-end time was spent, both runs side by side. All
/// rows are reported (this is the composition view); only queue rows
/// beyond tolerance become ranked [`AttributionEntry`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct CompositionRow {
    /// Pipeline stage label.
    pub stage: String,
    /// `"service"` or `"queue"`.
    pub kind: &'static str,
    /// Baseline seconds on the critical paths.
    pub base_s: f64,
    /// Current seconds on the critical paths.
    pub cur_s: f64,
}

impl CompositionRow {
    /// Signed shift, seconds.
    pub fn delta_s(&self) -> f64 {
        self.cur_s - self.base_s
    }
}

/// Headline-metric shift pulled from the archived summary table.
#[derive(Debug, Clone, PartialEq)]
pub struct HeadlineDelta {
    /// Metric row name (`"tiles_per_s"`).
    pub metric: String,
    /// Baseline value.
    pub base: f64,
    /// Current value.
    pub cur: f64,
}

impl HeadlineDelta {
    /// Percent change from baseline (negative = throughput regressed).
    pub fn pct_change(&self) -> f64 {
        if self.base == 0.0 {
            return 0.0;
        }
        (self.cur - self.base) / self.base * 100.0
    }
}

/// One ranked line of the attribution: a time-valued shift with its
/// share of the total attributed movement.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributionEntry {
    /// 1-based rank (largest absolute shift first).
    pub rank: usize,
    /// `"self_time"` or `"queue_wait"`.
    pub kind: &'static str,
    /// Pipeline stage label.
    pub stage: String,
    /// Component name (`""` for queue-wait rows, which aggregate a stage).
    pub name: String,
    /// Baseline seconds.
    pub base_s: f64,
    /// Current seconds.
    pub cur_s: f64,
    /// Share of the summed absolute attributed shift, percent.
    pub share_pct: f64,
}

impl AttributionEntry {
    /// Signed shift, seconds.
    pub fn delta_s(&self) -> f64 {
        self.cur_s - self.base_s
    }
}

/// The ranked answer to "what changed between these two runs".
#[derive(Debug, Clone, PartialEq)]
pub struct AttributionReport {
    /// Baseline archive label.
    pub base_label: String,
    /// Current archive label.
    pub cur_label: String,
    /// Baseline archive config digest.
    pub base_config: String,
    /// Current archive config digest.
    pub cur_config: String,
    /// Baseline sim seed.
    pub base_seed: u64,
    /// Current sim seed.
    pub cur_seed: u64,
    /// Headline metric shift, when both archives carried a summary row.
    pub headline: Option<HeadlineDelta>,
    /// Ranked time-valued shifts (self time + queue wait), largest first.
    pub entries: Vec<AttributionEntry>,
    /// Per-stage allocation shifts beyond the byte gate, largest first.
    pub alloc: Vec<AllocDelta>,
    /// Full critical-path composition, both runs, all stages.
    pub composition: Vec<CompositionRow>,
    /// Time gate the diff ran with.
    pub tolerance: Tolerance,
}

impl AttributionReport {
    /// Attributed deltas across all gated axes.
    pub fn attributed_count(&self) -> usize {
        self.entries.len() + self.alloc.len()
    }

    /// No axis moved beyond tolerance — the runs are equivalent.
    pub fn is_clean(&self) -> bool {
        self.attributed_count() == 0
    }

    /// Whether the two archives claim the same experiment configuration.
    pub fn config_changed(&self) -> bool {
        self.base_config != self.cur_config
    }

    /// Human-readable report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "attribution: {} ({}, seed {}) -> {} ({}, seed {})\n",
            self.base_label,
            self.base_config,
            self.base_seed,
            self.cur_label,
            self.cur_config,
            self.cur_seed
        ));
        if self.config_changed() {
            out.push_str("note: config digests differ — this is a cross-configuration diff\n");
        }
        if let Some(h) = &self.headline {
            out.push_str(&format!(
                "headline {}: {:.2} -> {:.2} ({:+.1}%)\n",
                h.metric,
                h.base,
                h.cur,
                h.pct_change()
            ));
        }
        if self.is_clean() {
            out.push_str("clean: no attributed deltas beyond tolerance\n");
            return out;
        }
        for e in &self.entries {
            let label = if e.name.is_empty() {
                e.stage.clone()
            } else {
                format!("{}/{}", e.stage, e.name)
            };
            out.push_str(&format!(
                "  {:>2}. {:<10} {:<28} {:>10.3} s -> {:>10.3} s  ({:+.3} s, {:.1}% of shift)\n",
                e.rank,
                e.kind,
                label,
                e.base_s,
                e.cur_s,
                e.delta_s(),
                e.share_pct
            ));
        }
        if !self.alloc.is_empty() {
            out.push_str("alloc:\n");
            for a in &self.alloc {
                out.push_str(&format!(
                    "  {:<12} bytes {:+.1} MiB (allocs {:+}), peak {:+.1} MiB\n",
                    a.stage,
                    a.delta_bytes() as f64 / (1024.0 * 1024.0),
                    a.cur_allocs as i64 - a.base_allocs as i64,
                    a.delta_peak() / (1024.0 * 1024.0),
                ));
            }
        }
        if !self.composition.is_empty() {
            out.push_str("critical-path composition (base -> cur, per stage):\n");
            for row in &self.composition {
                out.push_str(&format!(
                    "  {:<12} {:<8} {:>10.3} s -> {:>10.3} s  ({:+.3} s)\n",
                    row.stage,
                    row.kind,
                    row.base_s,
                    row.cur_s,
                    row.delta_s()
                ));
            }
        }
        out
    }

    /// Machine-readable report (schema v[`REPORT_SCHEMA_VERSION`]).
    pub fn to_json(&self) -> Value {
        let side = |label: &str, config: &str, seed: u64| {
            let mut obj = Map::new();
            obj.insert("label".to_string(), Value::from(label));
            obj.insert("config_digest".to_string(), Value::from(config));
            obj.insert("sim_seed".to_string(), Value::from(seed as f64));
            Value::Object(obj)
        };
        let mut obj = Map::new();
        obj.insert(
            "schema_version".to_string(),
            Value::from(REPORT_SCHEMA_VERSION as f64),
        );
        obj.insert(
            "base".to_string(),
            side(&self.base_label, &self.base_config, self.base_seed),
        );
        obj.insert(
            "cur".to_string(),
            side(&self.cur_label, &self.cur_config, self.cur_seed),
        );
        obj.insert(
            "config_changed".to_string(),
            Value::Bool(self.config_changed()),
        );
        let mut tol = Map::new();
        tol.insert("rel".to_string(), Value::from(self.tolerance.rel));
        tol.insert("abs".to_string(), Value::from(self.tolerance.abs));
        obj.insert("tolerance".to_string(), Value::Object(tol));
        obj.insert(
            "headline".to_string(),
            match &self.headline {
                Some(h) => {
                    let mut o = Map::new();
                    o.insert("metric".to_string(), Value::from(h.metric.as_str()));
                    o.insert("base".to_string(), Value::from(h.base));
                    o.insert("cur".to_string(), Value::from(h.cur));
                    o.insert("pct_change".to_string(), Value::from(h.pct_change()));
                    Value::Object(o)
                }
                None => Value::Null,
            },
        );
        obj.insert(
            "attributed".to_string(),
            Value::from(self.attributed_count() as f64),
        );
        obj.insert(
            "entries".to_string(),
            Value::Array(
                self.entries
                    .iter()
                    .map(|e| {
                        let mut o = Map::new();
                        o.insert("rank".to_string(), Value::from(e.rank as f64));
                        o.insert("kind".to_string(), Value::from(e.kind));
                        o.insert("stage".to_string(), Value::from(e.stage.as_str()));
                        o.insert("name".to_string(), Value::from(e.name.as_str()));
                        o.insert("base_s".to_string(), Value::from(e.base_s));
                        o.insert("cur_s".to_string(), Value::from(e.cur_s));
                        o.insert("delta_s".to_string(), Value::from(e.delta_s()));
                        o.insert("share_pct".to_string(), Value::from(e.share_pct));
                        Value::Object(o)
                    })
                    .collect(),
            ),
        );
        obj.insert(
            "alloc".to_string(),
            Value::Array(
                self.alloc
                    .iter()
                    .map(|a| {
                        let mut o = Map::new();
                        o.insert("stage".to_string(), Value::from(a.stage.as_str()));
                        o.insert("base_bytes".to_string(), Value::from(a.base_bytes as f64));
                        o.insert("cur_bytes".to_string(), Value::from(a.cur_bytes as f64));
                        o.insert("base_allocs".to_string(), Value::from(a.base_allocs as f64));
                        o.insert("cur_allocs".to_string(), Value::from(a.cur_allocs as f64));
                        o.insert("base_peak_bytes".to_string(), Value::from(a.base_peak));
                        o.insert("cur_peak_bytes".to_string(), Value::from(a.cur_peak));
                        Value::Object(o)
                    })
                    .collect(),
            ),
        );
        obj.insert(
            "composition".to_string(),
            Value::Array(
                self.composition
                    .iter()
                    .map(|row| {
                        let mut o = Map::new();
                        o.insert("stage".to_string(), Value::from(row.stage.as_str()));
                        o.insert("kind".to_string(), Value::from(row.kind));
                        o.insert("base_s".to_string(), Value::from(row.base_s));
                        o.insert("cur_s".to_string(), Value::from(row.cur_s));
                        o.insert("delta_s".to_string(), Value::from(row.delta_s()));
                        Value::Object(o)
                    })
                    .collect(),
            ),
        );
        Value::Object(obj)
    }
}

fn self_time_by_key(archive: &RunArchive) -> BTreeMap<(String, String), f64> {
    archive
        .profile()
        .entries()
        .iter()
        .map(|e| ((e.stage.clone(), e.name.clone()), e.self_s))
        .collect()
}

fn composition_by_key(archive: &RunArchive) -> BTreeMap<(String, &'static str), f64> {
    let mut out: BTreeMap<(String, &'static str), f64> = BTreeMap::new();
    let analysis = TraceAnalysis::from_spans(&archive.spans);
    for trace in analysis.traces() {
        for seg in trace.critical_path() {
            let kind = match seg.kind {
                SegmentKind::Service => "service",
                SegmentKind::Queue => "queue",
            };
            *out.entry((seg.stage.clone(), kind)).or_insert(0.0) += seg.seconds();
        }
    }
    out
}

fn alloc_by_stage(archive: &RunArchive) -> BTreeMap<String, (u64, u64, f64)> {
    let mut out: BTreeMap<String, (u64, u64, f64)> = BTreeMap::new();
    for (key, value) in &archive.counters {
        let slot = out.entry(key.stage.clone()).or_insert((0, 0, 0.0));
        if key.name == ALLOC_BYTES_COUNTER {
            slot.0 += value;
        } else if key.name == ALLOC_COUNT_COUNTER {
            slot.1 += value;
        }
    }
    for (key, value) in &archive.gauges {
        if key.name == ALLOC_PEAK_GAUGE {
            out.entry(key.stage.clone()).or_insert((0, 0, 0.0)).2 = *value;
        }
    }
    out.retain(|_, (bytes, allocs, peak)| *bytes > 0 || *allocs > 0 || *peak > 0.0);
    out
}

/// Find the headline `tiles_per_s` row in either the bench `headline`
/// table or the obsctl `run_summary` table: first numeric cell after a
/// `"tiles_per_s"` string cell.
fn headline_value(archive: &RunArchive) -> Option<f64> {
    for name in ["run_summary", "headline"] {
        let Some(table) = archive.table(name) else {
            continue;
        };
        for row in &table.rows {
            let mut is_headline = false;
            for cell in row {
                match cell {
                    Cell::Str(s) if s == "tiles_per_s" => is_headline = true,
                    Cell::Int(v) if is_headline => return Some(*v as f64),
                    Cell::Num { value, .. } if is_headline => return Some(*value),
                    _ => {}
                }
            }
        }
    }
    None
}

/// Diff two archives into a ranked [`AttributionReport`].
///
/// `tolerance` gates every time-valued axis ([`DEFAULT_DIFF_TOLERANCE`]
/// when in doubt); allocation deltas are gated by
/// [`DEFAULT_ALLOC_TOLERANCE`]. The output is deterministic: equal
/// inputs produce an identical report, and ties rank by key order.
pub fn diff_archives(
    base: &RunArchive,
    cur: &RunArchive,
    tolerance: Tolerance,
) -> AttributionReport {
    // Per-(stage, name) self time.
    let base_self = self_time_by_key(base);
    let cur_self = self_time_by_key(cur);
    let mut self_deltas: Vec<SelfTimeDelta> = Vec::new();
    let keys: BTreeSet<_> = base_self.keys().chain(cur_self.keys()).collect();
    for key in keys {
        let b = base_self.get(key).copied().unwrap_or(0.0);
        let c = cur_self.get(key).copied().unwrap_or(0.0);
        if tolerance.exceeded(b, c) {
            self_deltas.push(SelfTimeDelta {
                stage: key.0.clone(),
                name: key.1.clone(),
                base_s: b,
                cur_s: c,
            });
        }
    }

    // Critical-path composition, all rows; queue rows feed the ranking.
    let base_comp = composition_by_key(base);
    let cur_comp = composition_by_key(cur);
    let comp_keys: BTreeSet<_> = base_comp.keys().chain(cur_comp.keys()).collect();
    let mut composition = Vec::new();
    let mut queue_shifts: Vec<CompositionRow> = Vec::new();
    for key in comp_keys {
        let row = CompositionRow {
            stage: key.0.clone(),
            kind: key.1,
            base_s: base_comp.get(key).copied().unwrap_or(0.0),
            cur_s: cur_comp.get(key).copied().unwrap_or(0.0),
        };
        if row.kind == "queue" && tolerance.exceeded(row.base_s, row.cur_s) {
            queue_shifts.push(row.clone());
        }
        composition.push(row);
    }

    // Allocation axes, gated in bytes.
    let base_alloc = alloc_by_stage(base);
    let cur_alloc = alloc_by_stage(cur);
    let alloc_keys: BTreeSet<_> = base_alloc.keys().chain(cur_alloc.keys()).collect();
    let mut alloc = Vec::new();
    for stage in alloc_keys {
        let b = base_alloc.get(stage).copied().unwrap_or((0, 0, 0.0));
        let c = cur_alloc.get(stage).copied().unwrap_or((0, 0, 0.0));
        let gate = DEFAULT_ALLOC_TOLERANCE;
        if gate.exceeded(b.0 as f64, c.0 as f64) || gate.exceeded(b.2, c.2) {
            alloc.push(AllocDelta {
                stage: stage.clone(),
                base_bytes: b.0,
                cur_bytes: c.0,
                base_allocs: b.1,
                cur_allocs: c.1,
                base_peak: b.2,
                cur_peak: c.2,
            });
        }
    }
    alloc.sort_by(|a, b| {
        b.delta_bytes()
            .abs()
            .cmp(&a.delta_bytes().abs())
            .then_with(|| a.stage.cmp(&b.stage))
    });

    // Ranked entries: self-time + queue-wait shifts, share over the
    // summed absolute attributed movement.
    let mut entries: Vec<AttributionEntry> = Vec::new();
    for d in &self_deltas {
        entries.push(AttributionEntry {
            rank: 0,
            kind: "self_time",
            stage: d.stage.clone(),
            name: d.name.clone(),
            base_s: d.base_s,
            cur_s: d.cur_s,
            share_pct: 0.0,
        });
    }
    for q in &queue_shifts {
        entries.push(AttributionEntry {
            rank: 0,
            kind: "queue_wait",
            stage: q.stage.clone(),
            name: String::new(),
            base_s: q.base_s,
            cur_s: q.cur_s,
            share_pct: 0.0,
        });
    }
    let total: f64 = entries.iter().map(|e| e.delta_s().abs()).sum();
    for e in &mut entries {
        e.share_pct = if total > 0.0 {
            e.delta_s().abs() / total * 100.0
        } else {
            0.0
        };
    }
    entries.sort_by(|a, b| {
        b.delta_s()
            .abs()
            .partial_cmp(&a.delta_s().abs())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.kind.cmp(b.kind))
            .then_with(|| a.stage.cmp(&b.stage))
            .then_with(|| a.name.cmp(&b.name))
    });
    for (i, e) in entries.iter_mut().enumerate() {
        e.rank = i + 1;
    }

    let headline = match (headline_value(base), headline_value(cur)) {
        (Some(b), Some(c)) => Some(HeadlineDelta {
            metric: "tiles_per_s".to_string(),
            base: b,
            cur: c,
        }),
        _ => None,
    };

    AttributionReport {
        base_label: base.meta.label.clone(),
        cur_label: cur.meta.label.clone(),
        base_config: base.meta.config_digest.clone(),
        cur_config: cur.meta.config_digest.clone(),
        base_seed: base.meta.sim_seed,
        cur_seed: cur.meta.sim_seed,
        headline,
        entries,
        alloc,
        composition,
        tolerance,
    }
}

/// Render the two archives' folded profiles as a differential
/// collapsed-stack document: one line per stack, `stack base_µs cur_µs`,
/// stacks in lexicographic order. Stacks present in only one run carry a
/// zero on the other side, so downstream difffolded tooling annotates
/// them as pure grow/shrink.
pub fn flame_diff(base: &RunArchive, cur: &RunArchive) -> Result<String, String> {
    let mut stacks: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for (frames, micros) in parse_folded(&base.folded)? {
        stacks.entry(frames.join(";")).or_insert((0, 0)).0 += micros;
    }
    for (frames, micros) in parse_folded(&cur.folded)? {
        stacks.entry(frames.join(";")).or_insert((0, 0)).1 += micros;
    }
    let mut out = String::new();
    for (stack, (b, c)) in &stacks {
        out.push_str(&format!("{stack} {b} {c}\n"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive::{config_digest, RunMeta};
    use crate::{Obs, TraceContext};
    use eoml_simtime::SimTime;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("eoml_diff_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    /// One granule through download → preprocess → inference, with an
    /// adjustable preprocess service time and queue gap before it.
    fn run_obs(preprocess_s: f64, queue_gap_s: f64) -> Obs {
        let obs = Obs::new();
        let t = TraceContext::new("g1");
        let span = |stage: &str, name: &str, a: f64, b: f64| {
            obs.record_sim_span_traced(
                stage,
                name,
                SimTime::from_secs_f64(a),
                SimTime::from_secs_f64(b),
                Some(&t),
                &[],
            );
        };
        span("download", "transfer", 0.0, 10.0);
        let p0 = 10.0 + queue_gap_s;
        span("preprocess", "decompose", p0, p0 + preprocess_s);
        span(
            "inference",
            "infer",
            p0 + preprocess_s,
            p0 + preprocess_s + 5.0,
        );
        obs
    }

    fn archive_of(tag: &str, obs: &Obs, seed: u64, cfg: &str) -> RunArchive {
        let dir = tmpdir(tag);
        let meta = RunMeta::new(tag, &config_digest(cfg), seed);
        RunArchive::record_obs(&dir, &meta, obs, &[], &[]).expect("record")
    }

    #[test]
    fn identical_runs_diff_clean() {
        let a = archive_of("clean_a", &run_obs(20.0, 0.0), 7, "cfg");
        let b = archive_of("clean_b", &run_obs(20.0, 0.0), 7, "cfg");
        let report = diff_archives(&a, &b, DEFAULT_DIFF_TOLERANCE);
        assert!(report.is_clean(), "{}", report.render_text());
        assert_eq!(report.attributed_count(), 0);
        assert!(!report.config_changed());
        assert!(report.render_text().contains("clean"));
        std::fs::remove_dir_all(&a.dir).ok();
        std::fs::remove_dir_all(&b.dir).ok();
    }

    #[test]
    fn self_time_regression_is_attributed_and_ranked() {
        let a = archive_of("self_a", &run_obs(20.0, 0.0), 7, "cfg");
        let b = archive_of("self_b", &run_obs(30.0, 0.0), 7, "cfg");
        let report = diff_archives(&a, &b, DEFAULT_DIFF_TOLERANCE);
        assert!(!report.is_clean());
        let top = &report.entries[0];
        assert_eq!(top.rank, 1);
        assert_eq!(top.kind, "self_time");
        assert_eq!(top.stage, "preprocess");
        assert_eq!(top.name, "decompose");
        assert!((top.delta_s() - 10.0).abs() < 1e-9);
        assert!(top.share_pct > 50.0);
        // Composition view carries the service-side shift too.
        let svc = report
            .composition
            .iter()
            .find(|r| r.stage == "preprocess" && r.kind == "service")
            .expect("composition row");
        assert!((svc.delta_s() - 10.0).abs() < 1e-9);
        std::fs::remove_dir_all(&a.dir).ok();
        std::fs::remove_dir_all(&b.dir).ok();
    }

    #[test]
    fn queue_growth_is_attributed_as_queue_wait() {
        let a = archive_of("queue_a", &run_obs(20.0, 0.5), 7, "cfg");
        let b = archive_of("queue_b", &run_obs(20.0, 40.0), 7, "cfg");
        let report = diff_archives(&a, &b, DEFAULT_DIFF_TOLERANCE);
        let top = &report.entries[0];
        assert_eq!(top.kind, "queue_wait");
        assert_eq!(top.stage, "preprocess");
        assert!((top.delta_s() - 39.5).abs() < 1e-9);
        std::fs::remove_dir_all(&a.dir).ok();
        std::fs::remove_dir_all(&b.dir).ok();
    }

    #[test]
    fn alloc_deltas_are_gated_in_bytes() {
        let small = Obs::new();
        small.counter_add(ALLOC_BYTES_COUNTER, "preprocess", 10 << 20);
        small.gauge_set(ALLOC_PEAK_GAUGE, "preprocess", (2 << 20) as f64);
        let big = Obs::new();
        big.counter_add(ALLOC_BYTES_COUNTER, "preprocess", 60 << 20);
        big.gauge_set(ALLOC_PEAK_GAUGE, "preprocess", (36 << 20) as f64);
        let a = archive_of("alloc_a", &small, 7, "cfg");
        let b = archive_of("alloc_b", &big, 7, "cfg");
        let report = diff_archives(&a, &b, DEFAULT_DIFF_TOLERANCE);
        assert_eq!(report.alloc.len(), 1);
        let d = &report.alloc[0];
        assert_eq!(d.stage, "preprocess");
        assert_eq!(d.delta_bytes(), 50 << 20);
        assert!((d.delta_peak() - (34 << 20) as f64).abs() < 1.0);
        assert!(report.render_text().contains("alloc:"));
        // Same stores diff clean despite nonzero absolute values.
        let clean = diff_archives(&a, &a, DEFAULT_DIFF_TOLERANCE);
        assert!(clean.is_clean());
        std::fs::remove_dir_all(&a.dir).ok();
        std::fs::remove_dir_all(&b.dir).ok();
    }

    #[test]
    fn report_json_is_schema_stable() {
        let a = archive_of("json_a", &run_obs(20.0, 0.0), 7, "cfg-a");
        let b = archive_of("json_b", &run_obs(30.0, 0.0), 7, "cfg-b");
        let report = diff_archives(&a, &b, DEFAULT_DIFF_TOLERANCE);
        let json = report.to_json();
        assert_eq!(
            json.get("schema_version").and_then(Value::as_f64),
            Some(REPORT_SCHEMA_VERSION as f64)
        );
        assert_eq!(
            json.get("config_changed").and_then(Value::as_bool),
            Some(true)
        );
        let entries = json.get("entries").and_then(Value::as_array).unwrap();
        assert!(!entries.is_empty());
        for key in [
            "rank",
            "kind",
            "stage",
            "name",
            "base_s",
            "cur_s",
            "delta_s",
            "share_pct",
        ] {
            assert!(entries[0].get(key).is_some(), "missing {key}");
        }
        // Determinism: diffing again yields the identical report.
        assert_eq!(report, diff_archives(&a, &b, DEFAULT_DIFF_TOLERANCE));
        std::fs::remove_dir_all(&a.dir).ok();
        std::fs::remove_dir_all(&b.dir).ok();
    }

    #[test]
    fn flame_diff_lists_both_sides_with_zero_fill() {
        let a = archive_of("flame_a", &run_obs(20.0, 0.0), 7, "cfg");
        let only_b = Obs::new();
        only_b.record_sim_span_traced(
            "labeling",
            "write",
            SimTime::from_secs_f64(0.0),
            SimTime::from_secs_f64(1.0),
            None,
            &[],
        );
        let b = archive_of("flame_b", &only_b, 7, "cfg");
        let doc = flame_diff(&a, &b).expect("flame diff");
        let labeling = doc
            .lines()
            .find(|l| l.starts_with("labeling:write"))
            .expect("grow stack present");
        assert!(labeling.ends_with(" 0 1000000"), "{labeling}");
        let download = doc
            .lines()
            .find(|l| l.starts_with("download:transfer"))
            .expect("shrink stack present");
        assert!(download.ends_with(" 10000000 0"), "{download}");
        std::fs::remove_dir_all(&a.dir).ok();
        std::fs::remove_dir_all(&b.dir).ok();
    }
}
