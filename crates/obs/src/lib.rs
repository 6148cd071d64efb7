//! `eoml-obs` — unified tracing, metrics, and export layer for the
//! multi-facility pipeline.
//!
//! The paper's whole evaluation is observability: Fig. 6 is per-stage
//! active-worker timelines, Fig. 7 is a component latency breakdown, and
//! §V-A calls for "telemetry tools for real-time workflow insights".
//! This crate is the substrate those reproductions (and every later perf
//! PR) report against:
//!
//! - **Spans** ([`SpanRecord`], [`SpanGuard`]) — hierarchical, labelled
//!   `(stage, name)`, carrying both sim-time and wall-clock bounds, and
//!   recorded through a lock-sharded collector so concurrent pools can
//!   trace without contending.
//! - **Metrics** ([`MetricsRegistry`]) — counters, gauges, and
//!   log-bucketed histograms (p50/p90/p99/max) keyed by `(name, stage)`.
//! - **Stage health** ([`Obs::stage_health`]) — per-stage workers, closed
//!   spans and busy seconds read back from the registry mid-run.
//! - **Exporters** — Chrome `trace_event` JSON (open in Perfetto or
//!   `chrome://tracing`), Prometheus text exposition, and JSON-lines.
//!
//! One [`Obs`] instance (usually behind an `Arc`) observes a whole
//! campaign; every pipeline crate takes an optional handle and records
//! into it. It is the only span store: `eoml-core`'s `Telemetry` forwards
//! every simulated interval here and keeps only the Fig. 6 worker
//! timelines, so a campaign run without a hub records no spans at all.
//!
//! ```
//! use eoml_obs::Obs;
//! use eoml_simtime::SimTime;
//!
//! let obs = Obs::new();
//! {
//!     let mut outer = obs.span("preprocess", "batch");
//!     outer.attr("granules", 4);
//!     let _inner = obs.span("preprocess", "tile_creation");
//! } // guards record on drop, innermost first
//! obs.record_sim_span(
//!     "download",
//!     "transfer",
//!     SimTime::ZERO,
//!     SimTime::from_secs_f64(12.5),
//!     None,
//!     &[],
//! );
//! obs.metrics().counter_add("files", "download", 1);
//! let trace = obs.chrome_trace_json(); // paste into Perfetto
//! assert!(trace.contains("traceEvents"));
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod archive;
pub mod baseline;
mod collector;
pub mod diff;
pub mod export;
pub mod metrics;
pub mod ops;
pub mod profile;
pub mod report;
pub mod resource;
pub mod span;
pub mod table;
pub mod trace;
pub mod xfac;

pub use analysis::{
    GranuleTrace, PathSegment, SegmentKind, StageAttribution, StageTimeline, Straggler,
    StragglerConfig, TraceAnalysis,
};
pub use archive::{config_digest, RunArchive, RunMeta, ARCHIVE_SCHEMA_VERSION};
pub use baseline::{
    Baseline, BaselineStore, CellDelta, RunComparison, TableVerdict, Tolerance, Verdict,
};
pub use diff::{
    diff_archives, flame_diff, AllocDelta, AttributionEntry, AttributionReport, CompositionRow,
    HeadlineDelta, SelfTimeDelta, DEFAULT_DIFF_TOLERANCE,
};
pub use metrics::{
    stage_matches_prefix, LogHistogram, MetricKey, MetricsRegistry, MetricsSnapshot,
};
pub use ops::audit::AuditRecord;
pub use ops::health::{FacilityStatus, HealthPolicy, HealthReport, HealthState};
pub use ops::oplog::{read_all as read_ops_log, replay_final_health, OpsEvent, OpsLog};
pub use ops::slo::{SloKind, SloSpec, SloStatus, SloTracker, SloWindowResult};
pub use ops::window::{WindowDelta, WindowSpec, WindowedMetrics};
pub use ops::{OpsConfig, OpsPlane};
pub use profile::{parse_folded, HotPathEntry, SpanProfile};
pub use report::ObsReport;
pub use resource::{AllocSnapshot, CountingAlloc, ResourceGuard, ResourceReport};
pub use span::{SpanGuard, SpanRecord};
pub use table::{Cell, Table};
pub use trace::TraceContext;
pub use xfac::{tag_facility, FacilitySpans, WanBreakdown, XfacAnalysis, FACILITY_ATTR};

use collector::Collector;
use eoml_simtime::SimTime;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Process-wide dense thread ids (Chrome-trace `tid`s): the first thread
/// that records gets 0, the next 1, and so on.
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    /// Stack of open spans on this thread: `(obs identity, span id)`.
    /// Tagging with the Obs pointer keeps two instances on one thread
    /// from cross-linking parents.
    static SPAN_STACK: RefCell<Vec<(usize, u64)>> = const { RefCell::new(Vec::new()) };
}

fn current_tid() -> u64 {
    TID.with(|t| *t)
}

/// Point-in-time health summary for one stage, derived from the standard
/// instrumentation (`active_workers` gauge, `spans_closed` counter).
#[derive(Debug, Clone, PartialEq)]
pub struct StageHealth {
    /// Stage label.
    pub stage: String,
    /// Workers currently active (latest `active_workers` gauge), if known.
    pub active_workers: Option<f64>,
    /// Spans closed in this stage so far.
    pub spans_closed: u64,
    /// Seconds of span time accumulated in this stage so far.
    pub busy_seconds: f64,
}

/// The observability hub: span collector + metrics registry. It only
/// records: nothing subscribes to what goes in, and readers take
/// snapshots.
///
/// Thread-safe; shared as `Arc<Obs>` across the pipeline. Closing a span
/// costs an atomic id, the registry's histogram and counter locks (one
/// each) and one sharded collector push; a counter, gauge or observation
/// is one registry lock. Exporting ([`Obs::chrome_trace_json`],
/// [`Obs::prometheus_text`]) is the slow path and snapshots under the
/// locks.
pub struct Obs {
    epoch: Instant,
    next_span_id: AtomicU64,
    collector: Collector,
    metrics: MetricsRegistry,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("spans", &self.collector.len())
            .finish_non_exhaustive()
    }
}

impl Default for Obs {
    fn default() -> Obs {
        Obs::new()
    }
}

impl Obs {
    /// Fresh hub; the wall-clock epoch (timestamp zero) is now.
    pub fn new() -> Obs {
        Obs {
            epoch: Instant::now(),
            next_span_id: AtomicU64::new(1),
            collector: Collector::new(),
            metrics: MetricsRegistry::default(),
        }
    }

    /// Convenience: a fresh hub already wrapped for sharing.
    pub fn shared() -> Arc<Obs> {
        Arc::new(Obs::new())
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn obs_key(&self) -> usize {
        self as *const Obs as usize
    }

    fn alloc_id(&self) -> u64 {
        self.next_span_id.fetch_add(1, Ordering::Relaxed)
    }

    fn current_parent(&self) -> Option<u64> {
        let key = self.obs_key();
        SPAN_STACK.with(|s| {
            s.borrow()
                .iter()
                .rev()
                .find(|&&(k, _)| k == key)
                .map(|&(_, id)| id)
        })
    }

    /// Open a wall-clock span; it records when the returned guard drops.
    /// The innermost guard open on this thread becomes the parent.
    pub fn span(&self, stage: &str, name: &str) -> SpanGuard<'_> {
        self.span_with_parent(self.current_parent(), stage, name)
    }

    /// [`Obs::span`] under the span `parent` instead of this thread's
    /// innermost guard: for work a stage hands to a worker thread, whose own
    /// stack knows nothing of the stage span open on the thread that
    /// dispatched it. Spans opened on the worker meanwhile nest under the
    /// returned guard as usual.
    pub fn span_under(&self, parent: u64, stage: &str, name: &str) -> SpanGuard<'_> {
        self.span_with_parent(Some(parent), stage, name)
    }

    fn span_with_parent(&self, parent: Option<u64>, stage: &str, name: &str) -> SpanGuard<'_> {
        let id = self.alloc_id();
        SPAN_STACK.with(|s| s.borrow_mut().push((self.obs_key(), id)));
        SpanGuard {
            obs: self,
            id,
            parent,
            stage: stage.to_string(),
            name: name.to_string(),
            wall_start_ns: self.now_ns(),
            trace_id: None,
            attrs: Vec::new(),
        }
    }

    pub(crate) fn finish_guard(&self, guard: &mut SpanGuard<'_>) {
        let key = self.obs_key();
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(pos) = stack
                .iter()
                .rposition(|&(k, id)| k == key && id == guard.id)
            {
                stack.remove(pos);
            }
        });
        let record = SpanRecord {
            id: guard.id,
            parent: guard.parent,
            stage: std::mem::take(&mut guard.stage),
            name: std::mem::take(&mut guard.name),
            tid: current_tid(),
            sim_start: None,
            sim_end: None,
            wall_start_ns: guard.wall_start_ns,
            wall_end_ns: self.now_ns(),
            trace_id: guard.trace_id.take(),
            attrs: std::mem::take(&mut guard.attrs),
        };
        self.commit(record);
    }

    /// Record a span whose interval is known in simulation time (the
    /// virtual-time campaigns), tagged with the pipeline item (granule)
    /// the work belonged to, if any — the per-granule trace analysis
    /// ([`analysis::TraceAnalysis`]) groups spans by this id. Wall-clock
    /// bounds collapse to "now". Returns the span id.
    pub fn record_sim_span(
        &self,
        stage: &str,
        name: &str,
        start: SimTime,
        end: SimTime,
        trace: Option<&TraceContext>,
        attrs: &[(&str, &str)],
    ) -> u64 {
        let id = self.alloc_id();
        let now = self.now_ns();
        let record = SpanRecord {
            id,
            parent: self.current_parent(),
            stage: stage.to_string(),
            name: name.to_string(),
            tid: current_tid(),
            sim_start: Some(start),
            sim_end: Some(end),
            wall_start_ns: now,
            wall_end_ns: now,
            trace_id: trace.map(|t| t.id().to_string()),
            attrs: attrs
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        };
        self.commit(record);
        id
    }

    /// Every span lands here: duration histogram, stage accounting,
    /// collector push.
    fn commit(&self, record: SpanRecord) {
        self.metrics
            .observe(&record.name, &record.stage, record.duration_seconds());
        self.metrics.counter_add("spans_closed", &record.stage, 1);
        self.collector.push(record);
    }

    /// Increment a counter.
    pub fn counter_add(&self, name: &str, stage: &str, delta: u64) {
        self.metrics.counter_add(name, stage, delta);
    }

    /// Set a gauge.
    pub fn gauge_set(&self, name: &str, stage: &str, value: f64) {
        self.metrics.gauge_set(name, stage, value);
    }

    /// Record a histogram observation.
    pub fn observe(&self, name: &str, stage: &str, value: f64) {
        self.metrics.observe(name, stage, value);
    }

    /// Snapshot of every recorded span, in open order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.collector.snapshot()
    }

    /// Number of spans recorded so far.
    pub fn span_count(&self) -> usize {
        self.collector.len()
    }

    /// The metrics registry (counters/gauges/histograms).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Per-stage health snapshot derived from the standard
    /// instrumentation: `active_workers` gauges, `spans_closed` counters,
    /// and accumulated span seconds.
    pub fn stage_health(&self) -> Vec<StageHealth> {
        let snap = self.metrics.snapshot();
        let mut stages: BTreeMap<String, StageHealth> = BTreeMap::new();
        let entry = |m: &mut BTreeMap<String, StageHealth>, stage: &str| {
            m.entry(stage.to_string()).or_insert_with(|| StageHealth {
                stage: stage.to_string(),
                active_workers: None,
                spans_closed: 0,
                busy_seconds: 0.0,
            });
        };
        for (key, value) in &snap.counters {
            if key.name == "spans_closed" {
                entry(&mut stages, &key.stage);
                stages.get_mut(&key.stage).unwrap().spans_closed = *value;
            }
        }
        for (key, value) in &snap.gauges {
            if key.name == "active_workers" {
                entry(&mut stages, &key.stage);
                stages.get_mut(&key.stage).unwrap().active_workers = Some(*value);
            }
        }
        for (key, hist) in &snap.histograms {
            entry(&mut stages, &key.stage);
            stages.get_mut(&key.stage).unwrap().busy_seconds += hist.sum();
        }
        stages.into_values().collect()
    }

    /// Chrome `trace_event` JSON for the whole run — load it in
    /// Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`.
    pub fn chrome_trace_json(&self) -> String {
        export::chrome::render(&self.spans())
    }

    /// Prometheus text exposition of every metric.
    pub fn prometheus_text(&self) -> String {
        export::prometheus::render(&self.metrics.snapshot())
    }

    /// JSON-lines dump: one line per span, then one per metric.
    pub fn jsonl(&self) -> String {
        export::jsonl::render(&self.spans(), &self.metrics.snapshot())
    }

    /// Self-time profile of everything recorded so far.
    pub fn profile(&self) -> SpanProfile {
        SpanProfile::from_obs(self)
    }

    /// Collapsed-stack (`folded`) rendering of the self-time profile —
    /// pipe into `inferno-flamegraph` / `flamegraph.pl` for a flamegraph.
    pub fn folded(&self) -> String {
        self.profile().folded()
    }

    /// Write the collapsed-stack profile to `path`.
    pub fn write_folded(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.folded())
    }

    /// Write the Chrome trace to `path`.
    pub fn write_chrome_trace(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.chrome_trace_json())
    }

    /// Write the Prometheus text dump to `path`.
    pub fn write_prometheus(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.prometheus_text())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guards_nest_and_record_on_drop() {
        let obs = Obs::new();
        let outer_id;
        {
            let mut outer = obs.span("preprocess", "batch");
            outer.attr("granules", 4);
            outer_id = outer.id();
            {
                let inner = obs.span("preprocess", "tile_creation");
                assert_ne!(inner.id(), outer_id);
            }
        }
        let spans = obs.spans();
        assert_eq!(spans.len(), 2);
        // Inner closed first but ids preserve open order after sort.
        let outer = spans.iter().find(|s| s.id == outer_id).unwrap();
        let inner = spans.iter().find(|s| s.id != outer_id).unwrap();
        assert_eq!(outer.parent, None);
        assert_eq!(inner.parent, Some(outer_id));
        assert_eq!(outer.attr("granules"), Some("4"));
        assert!(outer.wall_end_ns >= inner.wall_end_ns);
    }

    #[test]
    fn a_span_opened_on_a_worker_nests_under_the_span_it_was_handed() {
        let obs = Obs::new();
        let stage = obs.span("monitor", "crawl");
        let stage_id = stage.id();
        std::thread::scope(|s| {
            s.spawn(|| {
                let flow = obs.span_under(stage_id, "inference", "flow");
                obs.record_sim_span(
                    "flow",
                    "Infer",
                    SimTime::from_secs_f64(0.0),
                    SimTime::from_secs_f64(0.05),
                    None,
                    &[],
                );
                drop(flow);
                drop(obs.span("inference", "unparented"));
            });
        });
        drop(stage);
        let spans = obs.spans();
        let by_name = |name: &str| spans.iter().find(|s| s.name == name).unwrap();
        assert_eq!(by_name("flow").parent, Some(stage_id));
        assert_eq!(by_name("Infer").parent, Some(by_name("flow").id));
        assert_eq!(by_name("unparented").parent, None);
    }

    #[test]
    fn sim_spans_carry_both_clocks() {
        let obs = Obs::new();
        obs.record_sim_span(
            "download",
            "transfer",
            SimTime::from_secs_f64(10.0),
            SimTime::from_secs_f64(22.5),
            None,
            &[],
        );
        let spans = obs.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].sim_seconds(), Some(12.5));
        assert_eq!(spans[0].duration_seconds(), 12.5);
        // Span durations feed the (name, stage) histogram automatically.
        let h = obs.metrics().histogram("transfer", "download").unwrap();
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), 12.5);
        assert_eq!(
            obs.metrics().counter_value("spans_closed", "download"),
            Some(1)
        );
    }

    #[test]
    fn traced_sim_spans_carry_the_trace_id() {
        let obs = Obs::new();
        let trace = TraceContext::new("MOD.A2022001.0610");
        obs.record_sim_span(
            "download",
            "file",
            SimTime::ZERO,
            SimTime::from_secs_f64(3.0),
            Some(&trace),
            &[("file", "MOD021KM.A2022001.0610.hdf")],
        );
        let mut guard = obs.span("inference", "flow");
        guard.set_trace(&trace);
        drop(guard);
        obs.record_sim_span("monitor", "poll", SimTime::ZERO, SimTime::ZERO, None, &[]);
        let spans = obs.spans();
        assert_eq!(spans.len(), 3);
        let traced: Vec<_> = spans
            .iter()
            .filter(|s| s.trace_id.as_deref() == Some("MOD.A2022001.0610"))
            .collect();
        assert_eq!(traced.len(), 2);
        assert!(spans
            .iter()
            .any(|s| s.name == "poll" && s.trace_id.is_none()));
    }

    #[test]
    fn stage_health_reflects_instrumentation() {
        let obs = Obs::new();
        obs.gauge_set("active_workers", "download", 6.0);
        obs.record_sim_span(
            "download",
            "transfer",
            SimTime::ZERO,
            SimTime::from_secs_f64(2.0),
            None,
            &[],
        );
        obs.record_sim_span(
            "inference",
            "flow_action",
            SimTime::ZERO,
            SimTime::from_secs_f64(1.0),
            None,
            &[],
        );
        let health = obs.stage_health();
        let dl = health.iter().find(|h| h.stage == "download").unwrap();
        assert_eq!(dl.active_workers, Some(6.0));
        assert_eq!(dl.spans_closed, 1);
        assert!((dl.busy_seconds - 2.0).abs() < 1e-9);
        assert!(health.iter().any(|h| h.stage == "inference"));
    }
}
