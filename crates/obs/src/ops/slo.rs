//! Declarative SLOs evaluated per rolled window, with error-budget burn.
//!
//! An [`SloSpec`] names a condition over one window's metrics (a counter
//! rate floor, a latency quantile ceiling); the [`SloTracker`] evaluates
//! every spec against every *active* stage each time a window rolls and
//! keeps a bounded good/bad history per `(slo, stage)`. The burn rate is
//! the classic error-budget form: with target `t` (the fraction of
//! windows that must be good), budget `1 - t`, and observed bad fraction
//! `b`, `burn = b / (1 - t)` — burn 1.0 consumes the budget exactly as
//! fast as it refills, and a sustained burn above it eventually violates
//! the SLO.
//!
//! Stages are evaluated only while **active** (the caller passes the set
//! — for the campaign service, tenants with running or paused work), so
//! a tenant that has simply finished its campaigns stops accruing
//! windows instead of being scored on idleness — and its accumulated
//! history is dropped, so finished work cannot pin health afterwards.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use serde_json::{json, Value};

use crate::metrics::MetricKey;

use super::window::WindowDelta;

/// The measurable condition one SLO window-checks.
#[derive(Debug, Clone, PartialEq)]
pub enum SloKind {
    /// Good when the window's quantile of histogram family `name` (at the
    /// evaluated stage) is at most `max` — e.g. p95 queue wait below a
    /// bound. A window with no observations is good (no waiting at all).
    QuantileBelow {
        /// Histogram family (must be opted into the window spec).
        name: String,
        /// Quantile in `[0, 1]` (0.95 = p95).
        q: f64,
        /// Ceiling the quantile must not exceed.
        max: f64,
    },
    /// Good when counter family `name` increased by at least
    /// `min_per_window` in the window — e.g. campaign-day throughput.
    RateAtLeast {
        /// Counter family.
        name: String,
        /// Minimum delta per window.
        min_per_window: f64,
    },
}

/// One declared SLO: an id, a per-window condition, and the target
/// fraction of windows that must satisfy it.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// Stable id (appears in ops-log events and health reports).
    pub id: String,
    /// The per-window condition.
    pub kind: SloKind,
    /// Fraction of windows that must be good, in `(0, 1)`.
    pub target: f64,
}

/// One `(slo, stage)` evaluation for one window.
#[derive(Debug, Clone, PartialEq)]
pub struct SloWindowResult {
    /// The SLO's id.
    pub slo: String,
    /// Stage evaluated (e.g. `tenant:<id>`).
    pub stage: String,
    /// Whether the window satisfied the condition.
    pub good: bool,
    /// The measured value (quantile seconds or counter delta).
    pub value: f64,
}

impl SloWindowResult {
    /// Durable JSON form (carried inside `window_roll` ops events).
    pub fn to_json(&self) -> Value {
        json!({
            "slo": self.slo,
            "stage": self.stage,
            "good": self.good,
            "value": self.value,
        })
    }

    /// Parse the durable form.
    pub fn from_json(v: &Value) -> Result<SloWindowResult, String> {
        Ok(SloWindowResult {
            slo: v["slo"]
                .as_str()
                .ok_or("slo result missing slo")?
                .to_string(),
            stage: v["stage"]
                .as_str()
                .ok_or("slo result missing stage")?
                .to_string(),
            good: v["good"].as_bool().ok_or("slo result missing good")?,
            value: v["value"].as_f64().unwrap_or(0.0),
        })
    }
}

/// Rolled-up state of one `(slo, stage)` pair over the lookback.
#[derive(Debug, Clone, PartialEq)]
pub struct SloStatus {
    /// The SLO's id.
    pub slo: String,
    /// Stage the status describes.
    pub stage: String,
    /// Windows in the lookback.
    pub windows: usize,
    /// Bad windows in the lookback.
    pub bad: usize,
    /// Error-budget burn rate (`bad_fraction / (1 - target)`).
    pub burn: f64,
}

impl SloStatus {
    /// JSON form for health reports.
    pub fn to_json(&self) -> Value {
        json!({
            "slo": self.slo,
            "stage": self.stage,
            "windows": self.windows,
            "bad": self.bad,
            "burn": self.burn,
        })
    }

    /// Parse the JSON form.
    pub fn from_json(v: &Value) -> Result<SloStatus, String> {
        Ok(SloStatus {
            slo: v["slo"]
                .as_str()
                .ok_or("slo status missing slo")?
                .to_string(),
            stage: v["stage"]
                .as_str()
                .ok_or("slo status missing stage")?
                .to_string(),
            windows: v["windows"].as_u64().ok_or("slo status missing windows")? as usize,
            bad: v["bad"].as_u64().ok_or("slo status missing bad")? as usize,
            burn: v["burn"].as_f64().unwrap_or(0.0),
        })
    }
}

/// Evaluates declared SLOs per window and tracks burn per `(slo, stage)`.
#[derive(Debug)]
pub struct SloTracker {
    specs: Vec<SloSpec>,
    lookback: usize,
    /// Good/bad history per `(slo id, stage)`, newest at the back.
    state: BTreeMap<(String, String), VecDeque<bool>>,
}

impl SloTracker {
    /// Tracker over `specs` with a `lookback`-window history per pair.
    pub fn new(specs: Vec<SloSpec>, lookback: usize) -> SloTracker {
        SloTracker {
            specs,
            lookback: lookback.max(1),
            state: BTreeMap::new(),
        }
    }

    /// Evaluate every spec against every active stage for one rolled
    /// window, updating the histories. Returns the per-pair results.
    ///
    /// Stages absent from `active_stages` are dropped from the tracked
    /// state: burn describes *outstanding* work, and a tenant whose
    /// campaigns all finished must not pin health on stale history.
    pub fn observe_window(
        &mut self,
        window: &WindowDelta,
        active_stages: &BTreeSet<String>,
    ) -> Vec<SloWindowResult> {
        self.state
            .retain(|(_, stage), _| active_stages.contains(stage));
        let mut results = Vec::new();
        for spec in &self.specs {
            for stage in active_stages {
                let (good, value) = evaluate(&spec.kind, window, stage);
                results.push(SloWindowResult {
                    slo: spec.id.clone(),
                    stage: stage.clone(),
                    good,
                    value,
                });
            }
        }
        for r in &results {
            self.record(&r.slo, &r.stage, r.good);
        }
        results
    }

    /// Append one recovered result to a pair's history (ops-log
    /// rehydration path; [`SloTracker::observe_window`] uses it too).
    pub fn record(&mut self, slo: &str, stage: &str, good: bool) {
        let hist = self
            .state
            .entry((slo.to_string(), stage.to_string()))
            .or_default();
        hist.push_back(good);
        while hist.len() > self.lookback {
            hist.pop_front();
        }
    }

    /// Current burn per `(slo, stage)` pair, sorted by key. Pairs whose
    /// spec is no longer declared still report (their history came from a
    /// previous configuration via the ops log) with target 0.5.
    pub fn statuses(&self) -> Vec<SloStatus> {
        self.state
            .iter()
            .map(|((slo, stage), hist)| {
                let windows = hist.len();
                let bad = hist.iter().filter(|g| !**g).count();
                let target = self
                    .specs
                    .iter()
                    .find(|s| s.id == *slo)
                    .map(|s| s.target)
                    .unwrap_or(0.5);
                let budget = (1.0 - target).max(1e-9);
                SloStatus {
                    slo: slo.clone(),
                    stage: stage.clone(),
                    windows,
                    bad,
                    burn: if windows == 0 {
                        0.0
                    } else {
                        (bad as f64 / windows as f64) / budget
                    },
                }
            })
            .collect()
    }
}

/// Evaluate one condition against one window and stage.
fn evaluate(kind: &SloKind, window: &WindowDelta, stage: &str) -> (bool, f64) {
    match kind {
        SloKind::QuantileBelow { name, q, max } => {
            match window.histograms.get(&MetricKey::new(name, stage)) {
                Some(h) if h.count() > 0 => {
                    let v = h.quantile(*q);
                    (v <= *max, v)
                }
                _ => (true, 0.0), // nothing waited: vacuously good
            }
        }
        SloKind::RateAtLeast {
            name,
            min_per_window,
        } => {
            let delta = window.counter(name, stage) as f64;
            (delta >= *min_per_window, delta)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;
    use crate::ops::window::{WindowSpec, WindowedMetrics};

    fn active(stages: &[&str]) -> BTreeSet<String> {
        stages.iter().map(|s| s.to_string()).collect()
    }

    fn throughput_slo() -> SloSpec {
        SloSpec {
            id: "tenant-throughput".to_string(),
            kind: SloKind::RateAtLeast {
                name: "granules".to_string(),
                min_per_window: 1.0,
            },
            target: 0.5,
        }
    }

    #[test]
    fn burn_rises_on_bad_windows_and_dilutes_on_good_ones() {
        let reg = MetricsRegistry::default();
        let mut win = WindowedMetrics::new(WindowSpec {
            window_s: 0.0,
            ring: 16,
            histogram_names: Vec::new(),
        });
        let mut slo = SloTracker::new(vec![throughput_slo()], 8);
        let stages = active(&["tenant:whale"]);

        // Two idle windows: the whale is active but produced nothing.
        for _ in 0..2 {
            let w = win.advance(1.0, &reg).unwrap();
            let results = slo.observe_window(&w, &stages);
            assert_eq!(results.len(), 1);
            assert!(!results[0].good);
        }
        // bad_frac 1.0 over budget 0.5 => burn 2.0.
        let s = &slo.statuses()[0];
        assert_eq!((s.windows, s.bad), (2, 2));
        assert!((s.burn - 2.0).abs() < 1e-9);

        // Six productive windows dilute the history below burn 1.0.
        for _ in 0..6 {
            reg.counter_add("granules", "tenant:whale", 3);
            let w = win.advance(1.0, &reg).unwrap();
            let results = slo.observe_window(&w, &stages);
            assert!(results[0].good);
        }
        let s = &slo.statuses()[0];
        assert_eq!((s.windows, s.bad), (8, 2));
        assert!((s.burn - 0.5).abs() < 1e-9);
    }

    #[test]
    fn quantile_slo_reads_the_window_histogram_and_is_vacuous_when_empty() {
        let reg = MetricsRegistry::default();
        let mut win = WindowedMetrics::new(WindowSpec {
            window_s: 0.0,
            ring: 8,
            histogram_names: vec!["lease_wait_seconds".to_string()],
        });
        let spec = SloSpec {
            id: "queue-wait".to_string(),
            kind: SloKind::QuantileBelow {
                name: "lease_wait_seconds".to_string(),
                q: 0.95,
                max: 2.0,
            },
            target: 0.9,
        };
        let mut slo = SloTracker::new(vec![spec], 8);
        let stages = active(&["tenant:a"]);

        // Empty window: vacuously good.
        let w = win.advance(1.0, &reg).unwrap();
        assert!(slo.observe_window(&w, &stages)[0].good);

        // Fast waits: good with a real measured value.
        for _ in 0..10 {
            reg.observe("lease_wait_seconds", "tenant:a", 0.1);
        }
        let w = win.advance(1.0, &reg).unwrap();
        let r = &slo.observe_window(&w, &stages)[0];
        assert!(r.good);
        assert!(r.value > 0.0 && r.value <= 2.0);

        // A window of gross waits breaches the ceiling.
        for _ in 0..10 {
            reg.observe("lease_wait_seconds", "tenant:a", 50.0);
        }
        let w = win.advance(1.0, &reg).unwrap();
        let r = &slo.observe_window(&w, &stages)[0];
        assert!(!r.good);
        assert!(r.value > 2.0);
    }

    #[test]
    fn inactive_stages_are_not_scored_and_results_round_trip() {
        let reg = MetricsRegistry::default();
        let mut win = WindowedMetrics::new(WindowSpec {
            window_s: 0.0,
            ring: 8,
            histogram_names: Vec::new(),
        });
        let mut slo = SloTracker::new(vec![throughput_slo()], 4);
        let w = win.advance(1.0, &reg).unwrap();
        assert!(slo.observe_window(&w, &active(&[])).is_empty());
        assert!(slo.statuses().is_empty());

        let results = slo.observe_window(&w, &active(&["tenant:a"]));
        let back = SloWindowResult::from_json(&results[0].to_json()).unwrap();
        assert_eq!(back, results[0]);
        let status = &slo.statuses()[0];
        assert_eq!(SloStatus::from_json(&status.to_json()).unwrap(), *status);

        // Once tenant:a goes inactive its history is dropped — stale
        // burn must not survive the tenant's work.
        let w = win.advance(1.0, &reg).unwrap();
        slo.observe_window(&w, &active(&["tenant:b"]));
        let statuses = slo.statuses();
        let stages: Vec<&str> = statuses.iter().map(|s| s.stage.as_str()).collect();
        assert_eq!(stages, vec!["tenant:b"]);
    }
}
