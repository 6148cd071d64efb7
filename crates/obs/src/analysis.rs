//! Post-hoc trace analysis: per-granule end-to-end traces, critical
//! paths, service/queue latency attribution, straggler detection, and
//! per-stage active-worker timelines (the paper's Fig. 6).
//!
//! The input is the flat span store ([`crate::Obs::spans`]). Spans tagged
//! with a `trace_id` (see [`crate::TraceContext`]) group into one
//! [`GranuleTrace`] per pipeline item; untagged spans still feed the
//! stage timelines, which are item-agnostic.
//!
//! **Clock domain:** all analysis runs in "trace seconds" — the sim
//! clock when a span is sim-stamped (virtual campaigns), the wall clock
//! otherwise (real runs). A single trace should stay in one domain;
//! mixing them produces intervals that never overlap sensibly.

use std::collections::BTreeMap;

use eoml_util::stats::Summary;

use crate::span::SpanRecord;
use crate::Obs;

/// Comparison slack for interval endpoints, in seconds.
const EPS: f64 = 1e-9;

/// Seconds-domain bounds of a span: sim clock when stamped, wall
/// otherwise.
pub(crate) fn span_bounds(s: &SpanRecord) -> (f64, f64) {
    match (s.sim_start, s.sim_end) {
        (Some(a), Some(b)) => (a.as_secs_f64(), b.as_secs_f64()),
        _ => (s.wall_start_ns as f64 * 1e-9, s.wall_end_ns as f64 * 1e-9),
    }
}

/// What a critical-path segment spent its time on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentKind {
    /// Work was running (covered by at least one span).
    Service,
    /// Nothing ran; the item was waiting for the next stage to pick it
    /// up. Attributed to the stage of the next span to start.
    Queue,
}

/// One segment of a granule's critical path. Segments tile the trace's
/// `[start, end]` interval exactly: service while a span covers the
/// sweep point (ties broken toward the span reaching furthest), queue
/// across uncovered gaps.
#[derive(Debug, Clone, PartialEq)]
pub struct PathSegment {
    /// Service or queueing delay.
    pub kind: SegmentKind,
    /// Stage charged with this segment.
    pub stage: String,
    /// Span name for service segments; the *next* span's name for queue
    /// segments (what the item was waiting for).
    pub name: String,
    /// Segment start, trace seconds.
    pub start_s: f64,
    /// Segment end, trace seconds.
    pub end_s: f64,
}

impl PathSegment {
    /// Segment length in seconds.
    pub fn seconds(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Critical-path time charged to one stage, split service vs. queue.
/// Summing `service_s + queue_s` over all stages reproduces the trace's
/// end-to-end latency exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct StageAttribution {
    /// Stage label.
    pub stage: String,
    /// Seconds the critical path spent inside this stage's spans.
    pub service_s: f64,
    /// Seconds the critical path spent waiting for this stage to start.
    pub queue_s: f64,
}

/// Every span one pipeline item (granule) produced, reconstructed from
/// the flat span store by trace id.
#[derive(Debug, Clone)]
pub struct GranuleTrace {
    /// The item's trace id (granule display form).
    pub trace_id: String,
    /// The item's spans, sorted by start then by descending end.
    pub spans: Vec<SpanRecord>,
}

impl GranuleTrace {
    /// Earliest span start, trace seconds.
    pub fn start_s(&self) -> f64 {
        self.spans
            .iter()
            .map(|s| span_bounds(s).0)
            .fold(f64::INFINITY, f64::min)
    }

    /// Latest span end, trace seconds.
    pub fn end_s(&self) -> f64 {
        self.spans
            .iter()
            .map(|s| span_bounds(s).1)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// End-to-end latency: last span end minus first span start.
    pub fn e2e_seconds(&self) -> f64 {
        if self.spans.is_empty() {
            return 0.0;
        }
        self.end_s() - self.start_s()
    }

    /// Stages this trace touched, in pipeline-agnostic sorted order.
    pub fn stages(&self) -> Vec<&str> {
        let mut out: Vec<&str> = self.spans.iter().map(|s| s.stage.as_str()).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Total span-seconds this trace spent in `stage` (sum over spans;
    /// overlapping spans count double — this is work, not wall coverage).
    pub fn stage_service_seconds(&self, stage: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.stage == stage)
            .map(|s| {
                let (a, b) = span_bounds(s);
                b - a
            })
            .sum()
    }

    /// The trace's critical path: a time sweep from first start to last
    /// end. At each point the active span reaching furthest contributes
    /// a service segment; uncovered gaps become queue segments charged
    /// to the next span to start. Zero-length spans (marks) never carry
    /// service, but they *split* queue segments — a gap before a monitor
    /// trigger mark is monitor queueing, the gap after it belongs to the
    /// stage the mark handed off to.
    pub fn critical_path(&self) -> Vec<PathSegment> {
        let mut iv: Vec<(f64, f64, &SpanRecord)> = self
            .spans
            .iter()
            .map(|s| {
                let (a, b) = span_bounds(s);
                (a, b, s)
            })
            .collect();
        if iv.is_empty() {
            return Vec::new();
        }
        iv.sort_by(|x, y| {
            x.0.partial_cmp(&y.0)
                .unwrap()
                .then(y.1.partial_cmp(&x.1).unwrap())
        });
        let end = iv.iter().map(|s| s.1).fold(f64::NEG_INFINITY, f64::max);
        let mut t = iv[0].0;
        let mut path = Vec::new();
        while t < end - EPS {
            let active = iv
                .iter()
                .filter(|(a, b, _)| *a <= t + EPS && *b > t + EPS)
                .max_by(|x, y| x.1.partial_cmp(&y.1).unwrap());
            if let Some(&(_, b, s)) = active {
                path.push(PathSegment {
                    kind: SegmentKind::Service,
                    stage: s.stage.clone(),
                    name: s.name.clone(),
                    start_s: t,
                    end_s: b,
                });
                t = b;
            } else {
                let next = iv
                    .iter()
                    .filter(|(a, _, _)| *a > t + EPS)
                    .min_by(|x, y| x.0.partial_cmp(&y.0).unwrap());
                match next {
                    Some(&(a, _, s)) => {
                        path.push(PathSegment {
                            kind: SegmentKind::Queue,
                            stage: s.stage.clone(),
                            name: s.name.clone(),
                            start_s: t,
                            end_s: a,
                        });
                        t = a;
                    }
                    None => break,
                }
            }
        }
        path
    }

    /// Critical-path latency attribution per stage (service vs. queue).
    /// The per-stage sums tile [`GranuleTrace::e2e_seconds`] exactly.
    pub fn stage_attribution(&self) -> Vec<StageAttribution> {
        let mut map: BTreeMap<String, StageAttribution> = BTreeMap::new();
        for seg in self.critical_path() {
            let slot = map
                .entry(seg.stage.clone())
                .or_insert_with(|| StageAttribution {
                    stage: seg.stage.clone(),
                    service_s: 0.0,
                    queue_s: 0.0,
                });
            match seg.kind {
                SegmentKind::Service => slot.service_s += seg.seconds(),
                SegmentKind::Queue => slot.queue_s += seg.seconds(),
            }
        }
        map.into_values().collect()
    }

    /// The stage charged with the most critical-path service time —
    /// "which stage is the bottleneck for this granule".
    pub fn bottleneck(&self) -> Option<StageAttribution> {
        self.stage_attribution()
            .into_iter()
            .max_by(|a, b| a.service_s.partial_cmp(&b.service_s).unwrap())
    }
}

/// Straggler-detection knobs.
#[derive(Debug, Clone)]
pub struct StragglerConfig {
    /// An item is a straggler in a stage when its service seconds exceed
    /// `multiple ×` the stage median across traces.
    pub multiple: f64,
    /// Minimum traces touching a stage before medians mean anything.
    pub min_samples: usize,
}

impl Default for StragglerConfig {
    fn default() -> StragglerConfig {
        StragglerConfig {
            multiple: 2.0,
            min_samples: 4,
        }
    }
}

/// One detected straggler: a trace far beyond its stage's median.
#[derive(Debug, Clone, PartialEq)]
pub struct Straggler {
    /// Stage where the item lagged.
    pub stage: String,
    /// The lagging item.
    pub trace_id: String,
    /// The item's service seconds in the stage.
    pub seconds: f64,
    /// The stage's median service seconds across all traces (exact
    /// percentile via [`Summary`]).
    pub median_s: f64,
}

/// All per-granule traces reconstructed from a span store.
#[derive(Debug, Default)]
pub struct TraceAnalysis {
    traces: BTreeMap<String, GranuleTrace>,
}

impl TraceAnalysis {
    /// Group a span snapshot by trace id. Untagged spans are ignored
    /// here (they still feed [`stage_timelines`]).
    pub fn from_spans(spans: &[SpanRecord]) -> TraceAnalysis {
        let mut traces: BTreeMap<String, GranuleTrace> = BTreeMap::new();
        for span in spans {
            let Some(id) = span.trace_id.as_deref() else {
                continue;
            };
            traces
                .entry(id.to_string())
                .or_insert_with(|| GranuleTrace {
                    trace_id: id.to_string(),
                    spans: Vec::new(),
                })
                .spans
                .push(span.clone());
        }
        for trace in traces.values_mut() {
            trace.spans.sort_by(|x, y| {
                let (xa, xb) = span_bounds(x);
                let (ya, yb) = span_bounds(y);
                xa.partial_cmp(&ya)
                    .unwrap()
                    .then(yb.partial_cmp(&xb).unwrap())
                    .then(x.id.cmp(&y.id))
            });
        }
        TraceAnalysis { traces }
    }

    /// Analyze everything an [`Obs`] hub recorded.
    pub fn from_obs(obs: &Obs) -> TraceAnalysis {
        TraceAnalysis::from_spans(&obs.spans())
    }

    /// Number of distinct traces.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// True when no span carried a trace id.
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// One item's trace, if recorded.
    pub fn trace(&self, id: &str) -> Option<&GranuleTrace> {
        self.traces.get(id)
    }

    /// Iterate all traces in id order.
    pub fn traces(&self) -> impl Iterator<Item = &GranuleTrace> {
        self.traces.values()
    }

    /// Items beyond `cfg.multiple ×` their stage's median service time,
    /// sorted by stage then by descending excess.
    pub fn stragglers(&self, cfg: &StragglerConfig) -> Vec<Straggler> {
        let mut stages: Vec<&str> = self
            .traces
            .values()
            .flat_map(|t| t.spans.iter().map(|s| s.stage.as_str()))
            .collect();
        stages.sort_unstable();
        stages.dedup();

        let mut out = Vec::new();
        for stage in stages {
            let per_trace: Vec<(&str, f64)> = self
                .traces
                .values()
                .map(|t| (t.trace_id.as_str(), t.stage_service_seconds(stage)))
                .filter(|&(_, s)| s > 0.0)
                .collect();
            if per_trace.len() < cfg.min_samples {
                continue;
            }
            let summary =
                Summary::from_samples(per_trace.iter().map(|&(_, s)| s).collect::<Vec<_>>());
            let median = summary.median();
            if median <= 0.0 {
                continue;
            }
            let mut hits: Vec<Straggler> = per_trace
                .into_iter()
                .filter(|&(_, s)| s > cfg.multiple * median)
                .map(|(id, s)| Straggler {
                    stage: stage.to_string(),
                    trace_id: id.to_string(),
                    seconds: s,
                    median_s: median,
                })
                .collect();
            hits.sort_by(|a, b| b.seconds.partial_cmp(&a.seconds).unwrap());
            out.extend(hits);
        }
        out
    }
}

/// Active-worker timeline for one stage (one row of the paper's Fig. 6):
/// concurrency change-points plus utilization and idle-gap stats.
#[derive(Debug, Clone)]
pub struct StageTimeline {
    /// Stage label.
    pub stage: String,
    /// `(time, active count after time)` at every change point.
    pub points: Vec<(f64, usize)>,
    /// First span start in the stage.
    pub first_s: f64,
    /// Last span end in the stage.
    pub last_s: f64,
    /// Seconds with ≥ 1 span active (interval union).
    pub busy_seconds: f64,
    /// Seconds with 0 spans active inside `[first_s, last_s]`.
    pub idle_seconds: f64,
    /// The idle gaps themselves, `(start, end)`.
    pub idle_gaps: Vec<(f64, f64)>,
    /// Peak concurrency.
    pub peak: usize,
}

impl StageTimeline {
    /// Active span count at time `t` (0 outside the stage's extent).
    pub fn active_at(&self, t: f64) -> usize {
        if t < self.first_s - EPS {
            return 0;
        }
        let idx = self.points.partition_point(|&(pt, _)| pt <= t + EPS);
        if idx == 0 {
            0
        } else {
            self.points[idx - 1].1
        }
    }

    /// Fraction of `[first_s, last_s]` with at least one active span.
    pub fn utilization(&self) -> f64 {
        let extent = self.last_s - self.first_s;
        if extent <= 0.0 {
            0.0
        } else {
            self.busy_seconds / extent
        }
    }
}

/// Build one [`StageTimeline`] per stage from a span snapshot (traced or
/// not). Zero-length spans (marks) are excluded — they carry no worker
/// occupancy.
pub fn stage_timelines(spans: &[SpanRecord]) -> Vec<StageTimeline> {
    let mut per_stage: BTreeMap<&str, Vec<(f64, f64)>> = BTreeMap::new();
    for span in spans {
        let (a, b) = span_bounds(span);
        if b > a + EPS {
            per_stage
                .entry(span.stage.as_str())
                .or_default()
                .push((a, b));
        }
    }
    let mut out = Vec::new();
    for (stage, intervals) in per_stage {
        let mut events: Vec<(f64, i64)> = Vec::with_capacity(intervals.len() * 2);
        for &(a, b) in &intervals {
            events.push((a, 1));
            events.push((b, -1));
        }
        // Ends sort before starts at equal times so back-to-back spans
        // don't fabricate a concurrency-2 instant.
        events.sort_by(|x, y| x.0.partial_cmp(&y.0).unwrap().then(x.1.cmp(&y.1)));
        let first_s = events.first().map(|e| e.0).unwrap_or(0.0);
        let last_s = events.last().map(|e| e.0).unwrap_or(0.0);

        let mut points = Vec::new();
        let mut idle_gaps = Vec::new();
        let mut busy = 0.0;
        let mut active: i64 = 0;
        let mut peak: i64 = 0;
        let mut prev_t = first_s;
        let mut i = 0;
        while i < events.len() {
            let t = events[i].0;
            if t > prev_t + EPS {
                if active > 0 {
                    busy += t - prev_t;
                } else {
                    idle_gaps.push((prev_t, t));
                }
            }
            while i < events.len() && (events[i].0 - t).abs() <= EPS {
                active += events[i].1;
                i += 1;
            }
            peak = peak.max(active);
            points.push((t, active.max(0) as usize));
            prev_t = t;
        }
        let idle_seconds = idle_gaps.iter().map(|(a, b)| b - a).sum();
        out.push(StageTimeline {
            stage: stage.to_string(),
            points,
            first_s,
            last_s,
            busy_seconds: busy,
            idle_seconds,
            idle_gaps,
            peak: peak.max(0) as usize,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceContext;
    use eoml_simtime::SimTime;

    fn sim_span(obs: &Obs, stage: &str, name: &str, start: f64, end: f64, trace: &TraceContext) {
        obs.record_sim_span(
            stage,
            name,
            SimTime::from_secs_f64(start),
            SimTime::from_secs_f64(end),
            Some(trace),
            &[],
        );
    }

    #[test]
    fn critical_path_tiles_the_trace_and_charges_queues() {
        let obs = Obs::new();
        let t = TraceContext::new("g1");
        // download 0..10, gap, preprocess 12..20, overlapping longer
        // preprocess 15..25, gap, inference 30..40.
        sim_span(&obs, "download", "file", 0.0, 10.0, &t);
        sim_span(&obs, "preprocess", "granule", 12.0, 20.0, &t);
        sim_span(&obs, "preprocess", "granule", 15.0, 25.0, &t);
        sim_span(&obs, "inference", "infer", 30.0, 40.0, &t);
        let analysis = TraceAnalysis::from_obs(&obs);
        let trace = analysis.trace("g1").unwrap();
        assert!((trace.e2e_seconds() - 40.0).abs() < 1e-9);

        let path = trace.critical_path();
        let kinds: Vec<(SegmentKind, &str)> =
            path.iter().map(|s| (s.kind, s.stage.as_str())).collect();
        assert_eq!(
            kinds,
            vec![
                (SegmentKind::Service, "download"),
                (SegmentKind::Queue, "preprocess"),
                (SegmentKind::Service, "preprocess"),
                (SegmentKind::Service, "preprocess"),
                (SegmentKind::Queue, "inference"),
                (SegmentKind::Service, "inference"),
            ]
        );
        // Segments tile [0, 40] exactly.
        let total: f64 = path.iter().map(|s| s.seconds()).sum();
        assert!((total - 40.0).abs() < 1e-9);
        let attribution = trace.stage_attribution();
        let pp = attribution
            .iter()
            .find(|a| a.stage == "preprocess")
            .unwrap();
        assert!((pp.service_s - 13.0).abs() < 1e-9); // 12..25
        assert!((pp.queue_s - 2.0).abs() < 1e-9); // 10..12
        let inf = attribution.iter().find(|a| a.stage == "inference").unwrap();
        assert!((inf.queue_s - 5.0).abs() < 1e-9); // 25..30
        assert_eq!(trace.bottleneck().unwrap().stage, "preprocess");
    }

    #[test]
    fn zero_length_marks_split_queue_attribution() {
        let obs = Obs::new();
        let t = TraceContext::new("g1");
        sim_span(&obs, "preprocess", "granule", 0.0, 10.0, &t);
        sim_span(&obs, "monitor", "trigger", 13.0, 13.0, &t); // mark
        sim_span(&obs, "inference", "infer", 15.0, 20.0, &t);
        let analysis = TraceAnalysis::from_obs(&obs);
        let path = analysis.trace("g1").unwrap().critical_path();
        let queues: Vec<(&str, f64)> = path
            .iter()
            .filter(|s| s.kind == SegmentKind::Queue)
            .map(|s| (s.stage.as_str(), s.seconds()))
            .collect();
        assert_eq!(queues.len(), 2);
        assert_eq!(queues[0].0, "monitor");
        assert!((queues[0].1 - 3.0).abs() < 1e-9);
        assert_eq!(queues[1].0, "inference");
        assert!((queues[1].1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn stragglers_found_beyond_multiple_of_median() {
        let obs = Obs::new();
        for (i, dur) in [10.0, 11.0, 9.0, 10.5, 50.0].iter().enumerate() {
            let t = TraceContext::new(format!("g{i}"));
            sim_span(&obs, "download", "file", 0.0, *dur, &t);
        }
        let analysis = TraceAnalysis::from_obs(&obs);
        let stragglers = analysis.stragglers(&StragglerConfig::default());
        assert_eq!(stragglers.len(), 1);
        assert_eq!(stragglers[0].trace_id, "g4");
        assert_eq!(stragglers[0].stage, "download");
        assert!((stragglers[0].median_s - 10.5).abs() < 1e-9);
        // Below min_samples nothing is flagged.
        let strict = StragglerConfig {
            min_samples: 6,
            ..StragglerConfig::default()
        };
        assert!(analysis.stragglers(&strict).is_empty());
    }

    #[test]
    fn timeline_tracks_concurrency_and_idle_gaps() {
        let obs = Obs::new();
        let t = TraceContext::new("g1");
        sim_span(&obs, "download", "file", 0.0, 10.0, &t);
        sim_span(&obs, "download", "file", 5.0, 15.0, &t);
        sim_span(&obs, "download", "file", 20.0, 30.0, &t);
        sim_span(&obs, "monitor", "trigger", 7.0, 7.0, &t); // excluded mark
        let timelines = stage_timelines(&obs.spans());
        assert_eq!(timelines.len(), 1);
        let dl = &timelines[0];
        assert_eq!(dl.stage, "download");
        assert_eq!(dl.peak, 2);
        assert_eq!(dl.active_at(6.0), 2);
        assert_eq!(dl.active_at(12.0), 1);
        assert_eq!(dl.active_at(17.0), 0);
        assert_eq!(dl.active_at(25.0), 1);
        assert!((dl.busy_seconds - 25.0).abs() < 1e-9);
        assert!((dl.idle_seconds - 5.0).abs() < 1e-9);
        assert_eq!(dl.idle_gaps, vec![(15.0, 20.0)]);
        assert!((dl.utilization() - 25.0 / 30.0).abs() < 1e-9);
    }
}
