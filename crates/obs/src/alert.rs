//! Live monitoring: a [`ProgressSink`] that watches the event stream and
//! fires [`Alert`]s from rolling-window [`AlertRule`]s — the "real-time
//! workflow insights" the paper's §V-A calls for, without waiting for a
//! post-hoc export.
//!
//! The sink's clock is the **event stream itself**: it advances to the
//! latest span end (sim seconds for virtual campaigns, wall seconds for
//! real runs) seen on *any* stage. A stalled stage emits nothing, so the
//! other stages' events are what move time forward past its `idle_s`
//! threshold. Drivers with their own clock (or fully quiesced pipelines)
//! can pump [`ProgressSink::check_at`] explicitly.
//!
//! Alerts have **edge semantics**: a rule transitions to firing when its
//! condition first holds and back to cleared when it stops holding — it
//! never re-fires while already active, so identical `(rule, stage)`
//! breaches are deduplicated into one [`Alert`] whose `cleared_at` is
//! stamped on the falling edge. Consumers that want the raw transition
//! stream (the ops log does) read [`ProgressSink::transitions`].

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};

use eoml_util::stats::Summary;

use crate::analysis::span_bounds;
use crate::sink::{EventSink, ObsEvent};

/// A live-monitoring rule evaluated over the event stream.
#[derive(Debug, Clone)]
pub enum AlertRule {
    /// Fire when a stage that has produced at least one span goes silent
    /// for more than `idle_s` seconds while other stages keep running.
    StageStalled {
        /// Stage to watch.
        stage: String,
        /// Max tolerated silence, seconds.
        idle_s: f64,
    },
    /// Fire when, over the last `window` spans of a stage, more than
    /// `max_fraction` of them exceed `multiple ×` the window median.
    StragglerRate {
        /// Stage to watch.
        stage: String,
        /// Rolling window length, in spans.
        window: usize,
        /// Straggler threshold as a multiple of the window median.
        multiple: f64,
        /// Max tolerated straggler fraction in the window.
        max_fraction: f64,
        /// Spans required in the window before evaluating.
        min_samples: usize,
    },
    /// Fire when a counter's rate over the last `window_s` seconds drops
    /// below `(1 - drop_fraction) ×` its rate over the window before
    /// that.
    ThroughputDrop {
        /// Counter name to watch (e.g. `files`).
        counter: String,
        /// Stage label of the counter.
        stage: String,
        /// Comparison window, seconds.
        window_s: f64,
        /// Fractional drop that triggers the alert (0.5 = halved).
        drop_fraction: f64,
    },
}

impl AlertRule {
    fn kind(&self) -> &'static str {
        match self {
            AlertRule::StageStalled { .. } => "stage_stalled",
            AlertRule::StragglerRate { .. } => "straggler_rate",
            AlertRule::ThroughputDrop { .. } => "throughput_drop",
        }
    }

    fn stage(&self) -> &str {
        match self {
            AlertRule::StageStalled { stage, .. }
            | AlertRule::StragglerRate { stage, .. }
            | AlertRule::ThroughputDrop { stage, .. } => stage,
        }
    }
}

/// One fired alert.
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    /// Rule kind (`stage_stalled`, `straggler_rate`, `throughput_drop`).
    pub rule: String,
    /// Stage the rule watched.
    pub stage: String,
    /// Stream time when the rule fired, seconds.
    pub at_s: f64,
    /// Human-readable description with the numbers that tripped it.
    pub message: String,
    /// Stream time the condition stopped holding; `None` while firing.
    pub cleared_at: Option<f64>,
}

impl Alert {
    /// Whether the alert is still in the firing state.
    pub fn is_active(&self) -> bool {
        self.cleared_at.is_none()
    }
}

/// Direction of an alert edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertTransitionKind {
    /// The rule's condition started holding.
    Fired,
    /// The rule's condition stopped holding.
    Cleared,
}

/// One edge in the alert stream — what the ops log records instead of
/// per-check spam.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertTransition {
    /// Edge direction.
    pub kind: AlertTransitionKind,
    /// Rule kind (`stage_stalled`, …).
    pub rule: String,
    /// Stage the rule watched.
    pub stage: String,
    /// Stream time of the edge, seconds.
    pub at_s: f64,
    /// The firing message (empty on clears).
    pub message: String,
}

struct RuleState {
    rule: AlertRule,
    /// Whether the condition currently holds (we are between edges).
    active: bool,
    /// Index into the shared alert list of the alert opened by the most
    /// recent rising edge, so the falling edge can stamp `cleared_at`.
    last_alert_idx: Option<usize>,
    /// StragglerRate: rolling span durations.
    durations: VecDeque<f64>,
}

/// Per-stage progress digest maintained live.
#[derive(Debug, Clone, PartialEq)]
pub struct StageProgress {
    /// Stage label.
    pub stage: String,
    /// Spans closed so far.
    pub spans_closed: u64,
    /// Stream time of the stage's latest span end.
    pub last_event_s: f64,
}

/// Live event subscriber: progress digest plus alert evaluation.
/// Register with [`crate::Obs::add_sink`]; read alerts through the
/// handle returned by [`ProgressSink::alerts`].
pub struct ProgressSink {
    rules: Vec<RuleState>,
    alerts: Arc<Mutex<Vec<Alert>>>,
    transitions: Arc<Mutex<Vec<AlertTransition>>>,
    /// Stream clock: latest span end seen anywhere.
    now_s: f64,
    /// Per-stage (spans closed, last span end).
    stages: BTreeMap<String, (u64, f64)>,
    /// Per-(counter, stage) history of (stream time, total).
    counters: BTreeMap<(String, String), Vec<(f64, u64)>>,
}

impl ProgressSink {
    /// Empty sink; add rules with [`ProgressSink::with_rule`].
    #[allow(clippy::new_without_default)]
    pub fn new() -> ProgressSink {
        ProgressSink {
            rules: Vec::new(),
            alerts: Arc::new(Mutex::new(Vec::new())),
            transitions: Arc::new(Mutex::new(Vec::new())),
            now_s: 0.0,
            stages: BTreeMap::new(),
            counters: BTreeMap::new(),
        }
    }

    /// Builder-style rule registration.
    pub fn with_rule(mut self, rule: AlertRule) -> ProgressSink {
        self.rules.push(RuleState {
            rule,
            active: false,
            last_alert_idx: None,
            durations: VecDeque::new(),
        });
        self
    }

    /// Shared handle to the fired alerts (clone before `add_sink`).
    pub fn alerts(&self) -> Arc<Mutex<Vec<Alert>>> {
        Arc::clone(&self.alerts)
    }

    /// Shared handle to the edge stream (clone before `add_sink`).
    /// Consumers may drain the vector; indices are not meaningful.
    pub fn transitions(&self) -> Arc<Mutex<Vec<AlertTransition>>> {
        Arc::clone(&self.transitions)
    }

    /// Per-stage progress digest at the current stream time.
    pub fn progress(&self) -> Vec<StageProgress> {
        self.stages
            .iter()
            .map(|(stage, &(spans_closed, last_event_s))| StageProgress {
                stage: stage.clone(),
                spans_closed,
                last_event_s,
            })
            .collect()
    }

    /// Advance the stream clock to `now_s` and re-evaluate time-driven
    /// rules (stalls, throughput). Use when the driver has a clock of
    /// its own, e.g. at virtual-campaign poll points.
    pub fn check_at(&mut self, now_s: f64) {
        if now_s > self.now_s {
            self.now_s = now_s;
        }
        self.evaluate();
    }

    /// Counter total at stream time `t` (step interpolation).
    fn counter_at(history: &[(f64, u64)], t: f64) -> u64 {
        match history.partition_point(|&(ht, _)| ht <= t) {
            0 => 0,
            idx => history[idx - 1].1,
        }
    }

    /// Whether a rule's condition currently holds; `Some(message)` while
    /// breached. Pure with respect to the rule state.
    fn breach(
        rule: &AlertRule,
        durations: &VecDeque<f64>,
        stages: &BTreeMap<String, (u64, f64)>,
        counters: &BTreeMap<(String, String), Vec<(f64, u64)>>,
        now: f64,
    ) -> Option<String> {
        match rule {
            AlertRule::StageStalled { stage, idle_s } => {
                let &(spans, last) = stages.get(stage)?;
                let idle = now - last;
                if spans > 0 && idle > *idle_s {
                    Some(format!(
                        "stage '{stage}' silent for {idle:.1}s \
                         (threshold {idle_s:.1}s, {spans} spans closed)"
                    ))
                } else {
                    None
                }
            }
            AlertRule::StragglerRate {
                stage,
                multiple,
                max_fraction,
                min_samples,
                ..
            } => {
                if durations.len() < (*min_samples).max(1) {
                    return None;
                }
                let samples: Vec<f64> = durations.iter().copied().collect();
                let median = Summary::from_samples(samples.clone()).median();
                if median <= 0.0 {
                    return None;
                }
                let over = samples.iter().filter(|&&d| d > multiple * median).count();
                let fraction = over as f64 / samples.len() as f64;
                if fraction > *max_fraction {
                    Some(format!(
                        "stage '{stage}': {over}/{} spans beyond \
                         {multiple:.1}x median {median:.2}s \
                         (fraction {fraction:.2} > {max_fraction:.2})",
                        samples.len()
                    ))
                } else {
                    None
                }
            }
            AlertRule::ThroughputDrop {
                counter,
                stage,
                window_s,
                drop_fraction,
            } => {
                if now < 2.0 * window_s {
                    return None;
                }
                let history = counters.get(&(counter.clone(), stage.clone()))?;
                let at_now = Self::counter_at(history, now);
                let at_mid = Self::counter_at(history, now - window_s);
                let at_old = Self::counter_at(history, now - 2.0 * window_s);
                let recent = (at_now - at_mid) as f64;
                let previous = (at_mid - at_old) as f64;
                if previous > 0.0 && recent < (1.0 - drop_fraction) * previous {
                    Some(format!(
                        "counter '{counter}' in stage '{stage}' dropped: \
                         {recent:.0} vs {previous:.0} per {window_s:.0}s window"
                    ))
                } else {
                    None
                }
            }
        }
    }

    fn evaluate(&mut self) {
        let now = self.now_s;
        for state in &mut self.rules {
            let breach = Self::breach(
                &state.rule,
                &state.durations,
                &self.stages,
                &self.counters,
                now,
            );
            match (state.active, breach) {
                // Rising edge: open an alert, record the transition.
                (false, Some(message)) => {
                    state.active = true;
                    let mut alerts = self.alerts.lock().expect("alert list poisoned");
                    state.last_alert_idx = Some(alerts.len());
                    alerts.push(Alert {
                        rule: state.rule.kind().to_string(),
                        stage: state.rule.stage().to_string(),
                        at_s: now,
                        message: message.clone(),
                        cleared_at: None,
                    });
                    self.transitions
                        .lock()
                        .expect("transition list poisoned")
                        .push(AlertTransition {
                            kind: AlertTransitionKind::Fired,
                            rule: state.rule.kind().to_string(),
                            stage: state.rule.stage().to_string(),
                            at_s: now,
                            message,
                        });
                }
                // Falling edge: stamp `cleared_at`, record the transition.
                (true, None) => {
                    state.active = false;
                    if let Some(idx) = state.last_alert_idx.take() {
                        let mut alerts = self.alerts.lock().expect("alert list poisoned");
                        if let Some(alert) = alerts.get_mut(idx) {
                            alert.cleared_at = Some(now);
                        }
                    }
                    self.transitions
                        .lock()
                        .expect("transition list poisoned")
                        .push(AlertTransition {
                            kind: AlertTransitionKind::Cleared,
                            rule: state.rule.kind().to_string(),
                            stage: state.rule.stage().to_string(),
                            at_s: now,
                            message: String::new(),
                        });
                }
                // Steady state in either direction: no spam.
                _ => {}
            }
        }
    }
}

impl EventSink for ProgressSink {
    fn on_event(&mut self, event: &ObsEvent) {
        match event {
            ObsEvent::SpanClosed(span) => {
                let (start, end) = span_bounds(span);
                if end > self.now_s {
                    self.now_s = end;
                }
                let slot = self.stages.entry(span.stage.clone()).or_insert((0, end));
                slot.0 += 1;
                if end > slot.1 {
                    slot.1 = end;
                }
                for state in &mut self.rules {
                    if let AlertRule::StragglerRate { stage, window, .. } = &state.rule {
                        if stage == &span.stage {
                            state.durations.push_back(end - start);
                            while state.durations.len() > (*window).max(1) {
                                state.durations.pop_front();
                            }
                        }
                    }
                }
            }
            ObsEvent::Counter {
                name, stage, total, ..
            } => {
                let now = self.now_s;
                self.counters
                    .entry((name.clone(), stage.clone()))
                    .or_default()
                    .push((now, *total));
            }
            ObsEvent::Gauge { .. } => {}
        }
        self.evaluate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Obs, TraceContext};
    use eoml_simtime::SimTime;

    fn record(obs: &Obs, stage: &str, start: f64, end: f64) {
        obs.record_sim_span(
            stage,
            "work",
            SimTime::from_secs_f64(start),
            SimTime::from_secs_f64(end),
            Some(&TraceContext::new("g")),
            &[],
        );
    }

    #[test]
    fn stalled_stage_alert_fires_while_other_stages_advance() {
        let sink = ProgressSink::new().with_rule(AlertRule::StageStalled {
            stage: "preprocess".to_string(),
            idle_s: 60.0,
        });
        let alerts = sink.alerts();
        let obs = Obs::new();
        obs.add_sink(Box::new(sink));

        record(&obs, "preprocess", 0.0, 10.0);
        // Downloads keep flowing; preprocess goes silent — simulating an
        // artificially stalled stage.
        record(&obs, "download", 10.0, 30.0);
        assert!(alerts.lock().unwrap().is_empty());
        record(&obs, "download", 30.0, 120.0);
        let fired = alerts.lock().unwrap();
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].rule, "stage_stalled");
        assert_eq!(fired[0].stage, "preprocess");
        assert!(fired[0].at_s >= 120.0 - 1e-9);
    }

    #[test]
    fn stalled_alert_fires_once_even_as_silence_grows() {
        let sink = ProgressSink::new().with_rule(AlertRule::StageStalled {
            stage: "preprocess".to_string(),
            idle_s: 60.0,
        });
        let alerts = sink.alerts();
        let obs = Obs::new();
        obs.add_sink(Box::new(sink));
        record(&obs, "preprocess", 0.0, 10.0);
        record(&obs, "download", 10.0, 120.0);
        record(&obs, "download", 120.0, 500.0);
        assert_eq!(alerts.lock().unwrap().len(), 1);
    }

    #[test]
    fn straggler_rate_alert_fires_on_slow_window() {
        let sink = ProgressSink::new().with_rule(AlertRule::StragglerRate {
            stage: "download".to_string(),
            window: 8,
            multiple: 2.0,
            max_fraction: 0.2,
            min_samples: 6,
        });
        let alerts = sink.alerts();
        let obs = Obs::new();
        let mut t = 0.0;
        obs.add_sink(Box::new(sink));
        for _ in 0..5 {
            record(&obs, "download", t, t + 10.0);
            t += 10.0;
        }
        assert!(alerts.lock().unwrap().is_empty());
        // Two gross outliers out of 7-8 in-window spans: fraction > 0.2.
        record(&obs, "download", t, t + 100.0);
        record(&obs, "download", t + 100.0, t + 250.0);
        let fired = alerts.lock().unwrap();
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].rule, "straggler_rate");
    }

    #[test]
    fn throughput_drop_alert_fires_when_rate_halves() {
        let sink = ProgressSink::new().with_rule(AlertRule::ThroughputDrop {
            counter: "files".to_string(),
            stage: "download".to_string(),
            window_s: 100.0,
            drop_fraction: 0.5,
        });
        let alerts = sink.alerts();
        let obs = Obs::new();
        obs.add_sink(Box::new(sink));
        // 10 files in the first 100 s window, 1 in the second.
        for i in 0..10 {
            record(&obs, "download", i as f64 * 10.0, (i + 1) as f64 * 10.0);
            obs.counter_add("files", "download", 1);
        }
        record(&obs, "download", 100.0, 199.0);
        obs.counter_add("files", "download", 1);
        assert!(alerts.lock().unwrap().is_empty());
        // The clock reaching 200 s completes the comparison window.
        record(&obs, "monitor", 199.0, 205.0);
        let fired = alerts.lock().unwrap();
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].rule, "throughput_drop");
        assert!(fired[0].message.contains("files"));
    }

    #[test]
    fn alerts_clear_on_recovery_and_refire_as_distinct_edges() {
        let sink = ProgressSink::new().with_rule(AlertRule::StageStalled {
            stage: "preprocess".to_string(),
            idle_s: 60.0,
        });
        let alerts = sink.alerts();
        let transitions = sink.transitions();
        let obs = Obs::new();
        obs.add_sink(Box::new(sink));

        // Stall: preprocess silent while downloads advance the clock.
        record(&obs, "preprocess", 0.0, 10.0);
        record(&obs, "download", 10.0, 120.0);
        assert_eq!(alerts.lock().unwrap().len(), 1);
        assert!(alerts.lock().unwrap()[0].is_active());

        // Recovery: preprocess produces again — the alert clears in
        // place instead of a new one being appended.
        record(&obs, "preprocess", 120.0, 125.0);
        {
            let fired = alerts.lock().unwrap();
            assert_eq!(fired.len(), 1);
            assert_eq!(fired[0].cleared_at, Some(125.0));
            assert!(!fired[0].is_active());
        }

        // A second stall is a fresh alert, not a duplicate of the first.
        record(&obs, "download", 125.0, 300.0);
        {
            let fired = alerts.lock().unwrap();
            assert_eq!(fired.len(), 2);
            assert!(fired[1].is_active());
        }
        let kinds: Vec<AlertTransitionKind> =
            transitions.lock().unwrap().iter().map(|t| t.kind).collect();
        assert_eq!(
            kinds,
            vec![
                AlertTransitionKind::Fired,
                AlertTransitionKind::Cleared,
                AlertTransitionKind::Fired,
            ]
        );
    }

    #[test]
    fn check_at_drives_time_rules_without_events() {
        let mut sink = ProgressSink::new().with_rule(AlertRule::StageStalled {
            stage: "shipment".to_string(),
            idle_s: 30.0,
        });
        let alerts = sink.alerts();
        let span = crate::SpanRecord {
            id: 1,
            parent: None,
            stage: "shipment".to_string(),
            name: "ship".to_string(),
            tid: 0,
            sim_start: Some(SimTime::ZERO),
            sim_end: Some(SimTime::from_secs_f64(5.0)),
            wall_start_ns: 0,
            wall_end_ns: 0,
            trace_id: None,
            attrs: Vec::new(),
        };
        sink.on_event(&ObsEvent::SpanClosed(span));
        sink.check_at(20.0);
        assert!(alerts.lock().unwrap().is_empty());
        sink.check_at(50.0);
        assert_eq!(alerts.lock().unwrap().len(), 1);
        assert_eq!(sink.progress()[0].stage, "shipment");
        assert_eq!(sink.progress()[0].spans_closed, 1);
    }
}
