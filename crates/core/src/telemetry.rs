//! Workflow instrumentation: worker-activity timelines and the span hub.
//!
//! Everything the paper's Figs. 6 and 7 plot comes through here: Fig. 6 is
//! the per-stage active-worker count over time, kept in [`Telemetry`];
//! Fig. 7 is the latency of each workflow component and the communication
//! hops between them, read from the attached hub's span histograms.

use eoml_obs::{Obs, TraceContext};
use eoml_simtime::SimTime;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The per-stage worker timelines of one campaign, plus the hub its spans
/// go to.
///
/// Every interval a campaign records is an `eoml-obs` span: [`Telemetry::span`]
/// forwards it to the attached [`Obs`] hub, whose per-`(name, stage)`
/// duration histograms are what Fig. 7 reads, and a run with no hub records
/// no spans at all. What only this struct keeps is the per-stage
/// `(time, active workers)` series behind Fig. 6.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    /// Per-stage `(time, active workers)` change points.
    pub activity: BTreeMap<String, Vec<(SimTime, usize)>>,
    obs: Option<Arc<Obs>>,
}

impl Telemetry {
    /// Empty telemetry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Send everything recorded from now on to `obs`.
    pub fn attach_obs(&mut self, obs: Arc<Obs>) {
        self.obs = Some(obs);
    }

    /// The attached observability hub, if any.
    pub fn obs(&self) -> Option<&Arc<Obs>> {
        self.obs.as_ref()
    }

    /// Record a completed span on the hub, stamped with the granule `trace`
    /// it belongs to, if any. An instantaneous event (a monitor trigger) is
    /// a span with `start == end`. No-op when no hub is attached.
    pub fn span(
        &mut self,
        stage: &str,
        name: &str,
        start: SimTime,
        end: SimTime,
        trace: Option<&TraceContext>,
    ) {
        assert!(end >= start, "span ends before it starts");
        if let Some(obs) = &self.obs {
            obs.record_sim_span(stage, name, start, end, trace, &[]);
        }
    }

    /// Bump an obs counter; no-op when no hub is attached.
    pub fn count(&self, name: &str, stage: &str, delta: u64) {
        if let Some(obs) = &self.obs {
            obs.counter_add(name, stage, delta);
        }
    }

    /// Record an obs histogram observation; no-op when no hub is attached.
    pub fn observe(&self, name: &str, stage: &str, value: f64) {
        if let Some(obs) = &self.obs {
            obs.observe(name, stage, value);
        }
    }

    /// Open a [`ResourceGuard`] attributing allocator activity to
    /// `(stage, name)` until the guard drops; `None` when no hub is
    /// attached. With no counting allocator installed the guard measures
    /// zeros and writes nothing, so callers can scope unconditionally.
    ///
    /// [`ResourceGuard`]: eoml_obs::ResourceGuard
    pub fn resource_scope(&self, stage: &str, name: &str) -> Option<eoml_obs::ResourceGuard> {
        self.obs
            .as_ref()
            .map(|obs| eoml_obs::ResourceGuard::enter(Arc::clone(obs), stage, name))
    }

    /// `stage`'s series; its key is allocated only when the stage is new.
    fn series(&mut self, stage: &str) -> &mut Vec<(SimTime, usize)> {
        if !self.activity.contains_key(stage) {
            self.activity.insert(stage.to_string(), Vec::new());
        }
        self.activity.get_mut(stage).expect("inserted above")
    }

    /// Record a worker-count change for a stage.
    pub fn activity_change(&mut self, stage: &str, t: SimTime, active: usize) {
        if let Some(obs) = &self.obs {
            obs.gauge_set("active_workers", stage, active as f64);
        }
        self.series(stage).push((t, active));
    }

    /// Merge a whole activity series (e.g. a batch report's) into a stage.
    pub fn merge_activity(&mut self, stage: &str, series: &[(SimTime, usize)]) {
        let entry = self.series(stage);
        entry.extend_from_slice(series);
        entry.sort_by_key(|&(t, _)| t);
    }

    /// Active workers of `stage` at time `t` (step function lookup).
    ///
    /// O(log n) binary search — the series is kept time-sorted by
    /// [`Telemetry::activity_change`] (monotone sim time) and
    /// [`Telemetry::merge_activity`] (explicit sort).
    pub fn activity_at(&self, stage: &str, t: SimTime) -> usize {
        match self.activity.get(stage) {
            None => 0,
            Some(series) => {
                let idx = series.partition_point(|&(st, _)| st <= t);
                if idx == 0 {
                    0
                } else {
                    series[idx - 1].1
                }
            }
        }
    }

    /// Peak concurrency of a stage.
    pub fn peak(&self, stage: &str) -> usize {
        self.activity
            .get(stage)
            .map(|s| s.iter().map(|&(_, a)| a).max().unwrap_or(0))
            .unwrap_or(0)
    }

    /// Whether two stages' activity overlapped in time (both nonzero at
    /// some change point) — how Fig. 6's preprocess/inference overlap is
    /// checked.
    /// O(n log n): one [`Telemetry::activity_at`] binary search per
    /// change point, instead of the linear rescan per point this used
    /// to do (O(n²) on long campaigns).
    pub fn stages_overlap(&self, a: &str, b: &str) -> bool {
        let probe = |x: &str, y: &str| {
            self.activity.get(x).is_some_and(|series| {
                series
                    .iter()
                    .any(|&(t, active)| active > 0 && self.activity_at(y, t) > 0)
            })
        };
        probe(a, b) || probe(b, a)
    }

    /// Export the activity timelines as JSON for external plotting tooling
    /// (the paper's §V-A "telemetry tools for real-time workflow insights");
    /// the spans export from the hub ([`Obs::jsonl`], [`Obs::chrome_trace_json`]).
    pub fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "activity": self.activity.iter().map(|(stage, series)| {
                (stage.clone(), series.iter().map(|&(t, a)| {
                    serde_json::json!([t.as_secs_f64(), a])
                }).collect::<Vec<_>>())
            }).collect::<std::collections::BTreeMap<_, _>>(),
        })
    }

    /// Resample a stage's activity onto a uniform grid of `n` samples over
    /// `[t0, t1]` — convenient for plotting Fig. 6-style timelines.
    pub fn sample_activity(
        &self,
        stage: &str,
        t0: SimTime,
        t1: SimTime,
        n: usize,
    ) -> Vec<(f64, usize)> {
        assert!(n >= 2 && t1 >= t0);
        let span = (t1 - t0).as_secs_f64();
        (0..n)
            .map(|i| {
                let dt = span * i as f64 / (n - 1) as f64;
                let t = t0 + std::time::Duration::from_secs_f64(dt);
                (t.as_secs_f64(), self.activity_at(stage, t))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn spans_record_and_aggregate() {
        let obs = Obs::shared();
        let mut tel = Telemetry::new();
        tel.attach_obs(Arc::clone(&obs));
        tel.span("download", "launch", t(0.0), t(5.63), None);
        tel.span("download", "transfer", t(5.63), t(30.0), None);
        tel.span("inference", "flow_action", t(40.0), t(40.05), None);
        tel.span("inference", "flow_action", t(41.0), t(41.07), None);
        assert_eq!(obs.span_count(), 4);
        let m = obs.metrics();
        let launch = m.histogram("launch", "download").unwrap();
        assert!((launch.sum() - 5.63).abs() < 1e-9);
        let action = m.histogram("flow_action", "inference").unwrap();
        assert!((action.sum() / action.count() as f64 - 0.06).abs() < 1e-9);
        assert!(m.histogram("x", "nope").is_none());
    }

    #[test]
    fn activity_step_function() {
        let mut tel = Telemetry::new();
        tel.activity_change("preprocess", t(10.0), 8);
        tel.activity_change("preprocess", t(20.0), 32);
        tel.activity_change("preprocess", t(30.0), 0);
        assert_eq!(tel.activity_at("preprocess", t(5.0)), 0);
        assert_eq!(tel.activity_at("preprocess", t(10.0)), 8);
        assert_eq!(tel.activity_at("preprocess", t(25.0)), 32);
        assert_eq!(tel.activity_at("preprocess", t(35.0)), 0);
        assert_eq!(tel.peak("preprocess"), 32);
        assert_eq!(tel.peak("unknown"), 0);
    }

    #[test]
    fn merge_activity_sorts() {
        let mut tel = Telemetry::new();
        tel.activity_change("s", t(5.0), 1);
        tel.merge_activity("s", &[(t(1.0), 2), (t(9.0), 0)]);
        let series = &tel.activity["s"];
        for w in series.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
        assert_eq!(tel.activity_at("s", t(2.0)), 2);
    }

    #[test]
    fn overlap_detection() {
        let mut tel = Telemetry::new();
        tel.activity_change("preprocess", t(0.0), 32);
        tel.activity_change("preprocess", t(100.0), 0);
        tel.activity_change("inference", t(50.0), 1);
        tel.activity_change("inference", t(60.0), 0);
        assert!(tel.stages_overlap("preprocess", "inference"));
        let mut tel2 = Telemetry::new();
        tel2.activity_change("a", t(0.0), 1);
        tel2.activity_change("a", t(10.0), 0);
        tel2.activity_change("b", t(20.0), 1);
        tel2.activity_change("b", t(30.0), 0);
        assert!(!tel2.stages_overlap("a", "b"));
    }

    #[test]
    fn sample_activity_grid() {
        let mut tel = Telemetry::new();
        tel.activity_change("s", t(0.0), 3);
        tel.activity_change("s", t(50.0), 0);
        let samples = tel.sample_activity("s", t(0.0), t(100.0), 5);
        assert_eq!(samples.len(), 5);
        assert_eq!(samples[0], (0.0, 3));
        assert_eq!(samples[1], (25.0, 3));
        assert_eq!(samples[2].1, 0);
        assert_eq!(samples[4], (100.0, 0));
    }

    #[test]
    fn json_export_contains_spans_and_activity() {
        let obs = Obs::shared();
        let mut tel = Telemetry::new();
        tel.attach_obs(Arc::clone(&obs));
        tel.span("download", "launch", t(0.0), t(5.0), None);
        tel.activity_change("preprocess", t(10.0), 8);
        let spans = obs.spans();
        assert_eq!(spans[0].stage, "download");
        assert_eq!(spans[0].sim_end, Some(t(5.0)));
        let j = tel.to_json();
        assert!(j.get("spans").is_none());
        assert_eq!(j["activity"]["preprocess"][0][0], 10.0);
        assert_eq!(j["activity"]["preprocess"][0][1], 8);
    }

    #[test]
    #[should_panic(expected = "ends before it starts")]
    fn inverted_span_panics() {
        let mut tel = Telemetry::new();
        tel.span("x", "y", t(2.0), t(1.0), None);
    }
}
