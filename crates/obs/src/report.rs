//! `obs-report`: render a recorded run as the paper's evaluation
//! figures — Fig. 6 (per-stage active-worker timeline) and Fig. 7
//! (component latency breakdown) — as [`Table`]s for the terminal and
//! `BENCH_*.json` documents for the figure trajectory.
//!
//! The breakdown is computed from the span store, so its per-stage span
//! counts agree with the registry's `spans_closed` counters by
//! construction; [`ObsReport::verify_against`] asserts exactly that and
//! is run by the acceptance tests.

use std::collections::BTreeMap;

use eoml_util::stats::Summary;

use crate::analysis::{stage_timelines, StageTimeline};
use crate::metrics::MetricsSnapshot;
use crate::profile::SpanProfile;
use crate::resource::memory_table;
use crate::span::SpanRecord;
use crate::table::{Cell, Table};
use crate::Obs;

/// Sample points in the Fig. 6 timeline table.
const TIMELINE_SAMPLES: usize = 24;

/// Rows in the hot-path self-time table.
const PROFILE_TOP_N: usize = 15;

/// Fig. 6 + Fig. 7 style report over one recorded run.
#[derive(Debug, Clone)]
pub struct ObsReport {
    /// Fig. 6: active workers per stage over sampled time.
    pub fig6_timeline: Table,
    /// Fig. 7: per-(stage, name) latency breakdown.
    pub fig7_breakdown: Table,
    /// Per-stage utilization/idle summary backing Fig. 6.
    pub stage_stats: Table,
    /// Top-N hot paths by exclusive self time (see [`SpanProfile`]).
    pub profile_hot: Table,
    /// Fig.-7-style memory breakdown from the resource counters; empty
    /// when no [`crate::ResourceGuard`] reported (e.g. the counting
    /// allocator is not installed).
    pub memory: Table,
    /// Per-stage span totals the breakdown table sums to.
    stage_span_counts: BTreeMap<String, u64>,
}

impl ObsReport {
    /// Build the report from everything an [`Obs`] hub recorded,
    /// including the memory breakdown from its metrics registry.
    pub fn from_obs(obs: &Obs) -> ObsReport {
        ObsReport::from_parts(&obs.spans(), &obs.metrics().snapshot())
    }

    /// The per-tenant slice of a shared hub: the report built only from
    /// spans and metrics whose stage label matches `prefix` on a
    /// delimiter-aware boundary (see
    /// [`crate::metrics::stage_matches_prefix`] — tenant `t1` never
    /// captures `t10`). A multi-tenant service records every tenant's
    /// telemetry under a `tenant:<id>` stage label into one [`Obs`], then
    /// serves each tenant its own report through this constructor.
    pub fn for_stage_prefix(obs: &Obs, prefix: &str) -> ObsReport {
        let spans: Vec<SpanRecord> = obs
            .spans()
            .into_iter()
            .filter(|s| crate::metrics::stage_matches_prefix(&s.stage, prefix))
            .collect();
        let snapshot = obs.metrics().snapshot().filter_stage_prefix(prefix);
        ObsReport::from_parts(&spans, &snapshot)
    }

    /// Build the report from a span snapshot plus a metrics snapshot.
    pub fn from_parts(spans: &[SpanRecord], snapshot: &MetricsSnapshot) -> ObsReport {
        let timelines = stage_timelines(spans);
        ObsReport {
            fig6_timeline: fig6_table(&timelines),
            fig7_breakdown: fig7_table(spans),
            stage_stats: stage_stats_table(&timelines),
            profile_hot: SpanProfile::from_spans(spans).top_table(PROFILE_TOP_N),
            memory: memory_table(snapshot),
            stage_span_counts: span_counts(spans),
        }
    }

    /// Per-stage span totals (every span, marks included).
    pub fn stage_span_counts(&self) -> &BTreeMap<String, u64> {
        &self.stage_span_counts
    }

    /// Check the report's per-stage totals against the registry's
    /// `spans_closed` counters; returns the mismatches (empty = agree).
    pub fn verify_against(&self, snapshot: &MetricsSnapshot) -> Vec<String> {
        let mut problems = Vec::new();
        let counters: BTreeMap<&str, u64> = snapshot
            .counters
            .iter()
            .filter(|(k, _)| k.name == "spans_closed")
            .map(|(k, v)| (k.stage.as_str(), *v))
            .collect();
        for (stage, &count) in &self.stage_span_counts {
            match counters.get(stage.as_str()) {
                Some(&expected) if expected == count => {}
                Some(&expected) => problems.push(format!(
                    "stage '{stage}': report has {count} spans, registry counted {expected}"
                )),
                None => problems.push(format!(
                    "stage '{stage}': report has {count} spans, registry has no counter"
                )),
            }
        }
        for (stage, &expected) in &counters {
            if !self.stage_span_counts.contains_key(*stage) {
                problems.push(format!(
                    "stage '{stage}': registry counted {expected} spans, report has none"
                ));
            }
        }
        problems
    }

    /// Terminal rendering of every table, `indent` spaces deep. The
    /// memory breakdown appears only when resource counters exist.
    pub fn render_text(&self, indent: usize) -> String {
        let pad = " ".repeat(indent);
        let mut out = format!(
            "{pad}Fig. 6 — active workers per stage:\n{}\n{pad}Stage utilization:\n{}\n{pad}Fig. 7 — component latency breakdown:\n{}\n{pad}Hot paths by self time:\n{}",
            self.fig6_timeline.render_text(indent + 2),
            self.stage_stats.render_text(indent + 2),
            self.fig7_breakdown.render_text(indent + 2),
            self.profile_hot.render_text(indent + 2),
        );
        if !self.memory.rows.is_empty() {
            out.push_str(&format!(
                "\n{pad}Memory breakdown (counting allocator):\n{}",
                self.memory.render_text(indent + 2)
            ));
        }
        out
    }

    /// Write `BENCH_<table>.json` for each table into `dir`; returns the
    /// paths written. The memory table is written only when it has rows,
    /// so runs without the counting allocator don't emit an empty file.
    pub fn write_json(
        &self,
        dir: impl AsRef<std::path::Path>,
    ) -> std::io::Result<Vec<std::path::PathBuf>> {
        let dir = dir.as_ref();
        let mut paths = vec![
            self.fig6_timeline.write_json(dir)?,
            self.stage_stats.write_json(dir)?,
            self.fig7_breakdown.write_json(dir)?,
            self.profile_hot.write_json(dir)?,
        ];
        if !self.memory.rows.is_empty() {
            paths.push(self.memory.write_json(dir)?);
        }
        Ok(paths)
    }
}

fn span_counts(spans: &[SpanRecord]) -> BTreeMap<String, u64> {
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    for span in spans {
        *counts.entry(span.stage.clone()).or_insert(0) += 1;
    }
    counts
}

/// Fig. 6: `t_s` plus one active-worker column per stage, sampled on a
/// uniform grid across the run.
fn fig6_table(timelines: &[StageTimeline]) -> Table {
    let mut columns: Vec<String> = vec!["t_s".to_string()];
    columns.extend(timelines.iter().map(|t| t.stage.clone()));
    let column_refs: Vec<&str> = columns.iter().map(|c| c.as_str()).collect();
    let mut table = Table::new("fig6_timeline", &column_refs);
    if timelines.is_empty() {
        return table;
    }
    let start = timelines
        .iter()
        .map(|t| t.first_s)
        .fold(f64::INFINITY, f64::min);
    let end = timelines
        .iter()
        .map(|t| t.last_s)
        .fold(f64::NEG_INFINITY, f64::max);
    if end <= start {
        return table;
    }
    for i in 0..=TIMELINE_SAMPLES {
        let t = start + (end - start) * i as f64 / TIMELINE_SAMPLES as f64;
        let mut row = vec![Cell::num(t, 1)];
        row.extend(timelines.iter().map(|tl| Cell::int(tl.active_at(t) as i64)));
        table.row(row);
    }
    table
}

/// Fig. 7: per-(stage, name) count, total seconds, and exact mean/p50/
/// p95/max over span durations.
fn fig7_table(spans: &[SpanRecord]) -> Table {
    let mut table = Table::new(
        "fig7_breakdown",
        &[
            "stage",
            "component",
            "count",
            "total_s",
            "mean_s",
            "p50_s",
            "p95_s",
            "max_s",
        ],
    );
    let mut groups: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for span in spans {
        groups
            .entry((span.stage.clone(), span.name.clone()))
            .or_default()
            .push(span.duration_seconds());
    }
    for ((stage, name), durations) in groups {
        let count = durations.len() as i64;
        let total: f64 = durations.iter().sum();
        let summary = Summary::from_samples(durations);
        table.row(vec![
            Cell::str(stage),
            Cell::str(name),
            Cell::int(count),
            Cell::num(total, 3),
            Cell::num(summary.mean(), 3),
            Cell::num(summary.median(), 3),
            Cell::num(summary.percentile(95.0), 3),
            Cell::num(summary.max(), 3),
        ]);
    }
    table
}

/// Per-stage utilization behind Fig. 6: extent, busy/idle split, peak.
fn stage_stats_table(timelines: &[StageTimeline]) -> Table {
    let mut table = Table::new(
        "fig6_stage_stats",
        &[
            "stage",
            "first_s",
            "last_s",
            "busy_s",
            "idle_s",
            "idle_gaps",
            "peak",
            "utilization",
        ],
    );
    for tl in timelines {
        table.row(vec![
            Cell::str(&tl.stage),
            Cell::num(tl.first_s, 1),
            Cell::num(tl.last_s, 1),
            Cell::num(tl.busy_seconds, 1),
            Cell::num(tl.idle_seconds, 1),
            Cell::int(tl.idle_gaps.len() as i64),
            Cell::int(tl.peak as i64),
            Cell::num(tl.utilization(), 3),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceContext;
    use eoml_simtime::SimTime;
    use serde_json::Value;

    fn build_obs() -> Obs {
        let obs = Obs::new();
        let t = TraceContext::new("g1");
        for (stage, name, a, b) in [
            ("download", "file", 0.0, 10.0),
            ("download", "file", 2.0, 12.0),
            ("preprocess", "granule", 12.0, 30.0),
            ("inference", "infer", 32.0, 40.0),
        ] {
            obs.record_sim_span(
                stage,
                name,
                SimTime::from_secs_f64(a),
                SimTime::from_secs_f64(b),
                Some(&t),
                &[],
            );
        }
        obs
    }

    #[test]
    fn report_tables_cover_stages_and_agree_with_registry() {
        let obs = build_obs();
        let report = ObsReport::from_obs(&obs);
        assert!(report
            .fig6_timeline
            .columns
            .contains(&"download".to_string()));
        assert_eq!(report.fig6_timeline.rows.len(), TIMELINE_SAMPLES + 1);
        assert_eq!(report.fig7_breakdown.rows.len(), 3); // 3 (stage,name) groups
        assert_eq!(report.stage_stats.rows.len(), 3);
        assert_eq!(report.stage_span_counts()["download"], 2);
        // The acceptance check: report totals == registry counters.
        assert!(report.verify_against(&obs.metrics().snapshot()).is_empty());
        // A doctored snapshot is caught.
        let mut snap = obs.metrics().snapshot();
        for (key, value) in snap.counters.iter_mut() {
            if key.name == "spans_closed" && key.stage == "download" {
                *value += 1;
            }
        }
        assert_eq!(report.verify_against(&snap).len(), 1);
    }

    #[test]
    fn report_renders_text_and_writes_json() {
        let obs = build_obs();
        let report = ObsReport::from_obs(&obs);
        let text = report.render_text(0);
        assert!(text.contains("Fig. 6"));
        assert!(text.contains("Fig. 7"));
        assert!(text.contains("preprocess"));
        assert!(text.contains("Hot paths by self time"));
        // No resource counters in this run: the memory table is omitted.
        assert!(!text.contains("Memory breakdown"));
        let dir = std::env::temp_dir().join(format!("obs_report_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let paths = report.write_json(&dir).unwrap();
        assert_eq!(paths.len(), 4);
        assert!(paths
            .iter()
            .any(|p| p.ends_with("BENCH_profile_self_time.json")));
        for path in &paths {
            let body = std::fs::read_to_string(path).unwrap();
            let value: Value = serde_json::from_str(&body).unwrap();
            assert!(value.get("columns").is_some());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stage_prefix_slice_isolates_one_tenant() {
        let obs = build_obs(); // records download/preprocess/inference stages
        for (tenant, a, b) in [
            ("tenant:acme", 0.0, 5.0),
            ("tenant:acme", 5.0, 6.0),
            ("tenant:zip", 1.0, 2.0),
        ] {
            obs.record_sim_span(
                tenant,
                "quantum",
                SimTime::from_secs_f64(a),
                SimTime::from_secs_f64(b),
                None,
                &[],
            );
        }
        obs.metrics().counter_add("granules", "tenant:acme", 7);
        obs.metrics().counter_add("granules", "tenant:zip", 1);

        let acme = ObsReport::for_stage_prefix(&obs, "tenant:acme");
        assert_eq!(acme.stage_span_counts().len(), 1);
        assert_eq!(acme.stage_span_counts()["tenant:acme"], 2);
        // The slice verifies against the equally sliced registry, and the
        // pipeline stages / other tenants are invisible in it.
        let snap = obs.metrics().snapshot().filter_stage_prefix("tenant:acme");
        assert!(acme.verify_against(&snap).is_empty());
        assert_eq!(snap.counters.len(), 2); // granules + spans_closed
        assert!(!acme.render_text(0).contains("tenant:zip"));
        assert!(!acme.render_text(0).contains("download"));
    }

    #[test]
    fn stage_prefix_slice_never_captures_sibling_with_shared_prefix() {
        let obs = Obs::new();
        obs.record_sim_span(
            "tenant:t1",
            "quantum",
            SimTime::from_secs_f64(0.0),
            SimTime::from_secs_f64(5.0),
            None,
            &[],
        );
        obs.record_sim_span(
            "tenant:t10",
            "quantum",
            SimTime::from_secs_f64(0.0),
            SimTime::from_secs_f64(50.0),
            None,
            &[],
        );
        obs.metrics().counter_add("granules", "tenant:t1", 1);
        obs.metrics().counter_add("granules", "tenant:t10", 99);
        let t1 = ObsReport::for_stage_prefix(&obs, "tenant:t1");
        assert_eq!(t1.stage_span_counts().len(), 1);
        assert_eq!(t1.stage_span_counts()["tenant:t1"], 1);
        assert!(!t1.render_text(0).contains("tenant:t10"));
        let snap = obs.metrics().snapshot().filter_stage_prefix("tenant:t1");
        assert!(t1.verify_against(&snap).is_empty());
    }

    #[test]
    fn report_includes_memory_table_when_counters_exist() {
        let obs = build_obs();
        obs.metrics().counter_add("alloc_bytes", "preprocess", 1024);
        obs.metrics().counter_add("allocs", "preprocess", 2);
        let report = ObsReport::from_obs(&obs);
        assert_eq!(report.memory.rows.len(), 1);
        assert!(report.render_text(0).contains("Memory breakdown"));
        // Profile table: the 3 (stage,name) groups, hottest first —
        // download has two 10 s spans (20 s self) vs preprocess's 18 s.
        assert_eq!(report.profile_hot.rows.len(), 3);
        assert_eq!(report.profile_hot.rows[0][0], Cell::str("download"));
        assert_eq!(report.profile_hot.rows[1][0], Cell::str("preprocess"));
    }
}
