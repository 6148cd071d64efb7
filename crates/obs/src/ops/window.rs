//! Rolling-window metric aggregation.
//!
//! A [`WindowedMetrics`] periodically diffs the cumulative
//! [`MetricsRegistry`] against the baseline taken at the previous roll,
//! producing a ring of [`WindowDelta`]s: what happened *in* each window,
//! not since process start. Windows are bounded to the configured ring
//! size, so a service that runs for months holds a constant amount of
//! window state — the continuous counterpart to the batch-shaped
//! snapshot exporters.
//!
//! The clock is **sim time**: the driver advances it by each scheduler
//! quantum's makespan, and a window rolls at the first quantum boundary
//! on or after `window_s` elapsed. One roll covers the whole elapsed
//! interval (windows are variable-length, never empty-by-construction),
//! so each window's `counter`/`counter_prefix` deltas cover its real
//! `start_s..end_s` span.

use std::collections::BTreeMap;
use std::collections::VecDeque;

use serde_json::{json, Value};

use crate::metrics::{stage_matches_prefix, LogHistogram, MetricKey, MetricsRegistry};

/// Shape of the rolling-window aggregator.
#[derive(Debug, Clone)]
pub struct WindowSpec {
    /// Minimum window length, sim seconds. `0.0` rolls a window on every
    /// tick that advanced the clock (one window per scheduler quantum).
    pub window_s: f64,
    /// Windows retained in the in-memory ring.
    pub ring: usize,
    /// Histogram families diffed per window (quantile SLOs read these);
    /// counters and gauges are always captured.
    pub histogram_names: Vec<String>,
}

impl Default for WindowSpec {
    fn default() -> WindowSpec {
        WindowSpec {
            window_s: 3600.0,
            ring: 64,
            histogram_names: Vec::new(),
        }
    }
}

/// What one rolled window observed: sparse counter deltas, end-of-window
/// gauge values, and per-family histogram deltas.
#[derive(Debug, Clone, Default)]
pub struct WindowDelta {
    /// Monotone window index (strictly increasing across restarts).
    pub index: u64,
    /// Window start, sim seconds.
    pub start_s: f64,
    /// Window end, sim seconds (`end_s > start_s` always).
    pub end_s: f64,
    /// Counter increments inside the window (zero deltas omitted).
    pub counters: BTreeMap<MetricKey, u64>,
    /// Gauge values at the window's end.
    pub gauges: BTreeMap<MetricKey, f64>,
    /// Histogram-of-the-window for the opted-in families.
    pub histograms: BTreeMap<MetricKey, LogHistogram>,
}

impl WindowDelta {
    /// One counter's delta in this window.
    pub fn counter(&self, name: &str, stage: &str) -> u64 {
        self.counters
            .get(&MetricKey::new(name, stage))
            .copied()
            .unwrap_or(0)
    }

    /// Sum of one counter family's deltas over every stage matching
    /// `prefix` (delimiter-aware; see
    /// [`crate::metrics::stage_matches_prefix`]).
    pub fn counter_prefix(&self, name: &str, prefix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.name == name && stage_matches_prefix(&k.stage, prefix))
            .map(|(_, v)| v)
            .sum()
    }

    /// The durable JSON form carried by the ops log's `window_roll`
    /// events: index, bounds, and the sparse counter deltas. Gauges and
    /// histograms are point-in-time/derived state and are not persisted.
    pub fn to_json(&self) -> Value {
        let counters: Vec<Value> = self
            .counters
            .iter()
            .map(|(k, v)| json!({ "name": k.name, "stage": k.stage, "delta": v }))
            .collect();
        json!({
            "index": self.index,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "counters": counters,
        })
    }

    /// Parse the durable form; `Err` names the missing field.
    pub fn from_json(v: &Value) -> Result<WindowDelta, String> {
        let mut counters = BTreeMap::new();
        if let Some(items) = v["counters"].as_array() {
            for item in items {
                let name = item["name"].as_str().ok_or("window counter missing name")?;
                let stage = item["stage"]
                    .as_str()
                    .ok_or("window counter missing stage")?;
                let delta = item["delta"]
                    .as_u64()
                    .ok_or("window counter missing delta")?;
                counters.insert(MetricKey::new(name, stage), delta);
            }
        }
        Ok(WindowDelta {
            index: v["index"].as_u64().ok_or("window missing index")?,
            start_s: v["start_s"].as_f64().ok_or("window missing start_s")?,
            end_s: v["end_s"].as_f64().ok_or("window missing end_s")?,
            counters,
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
        })
    }
}

/// The rolling-window aggregator: a sim-time clock, cumulative baselines
/// from the last roll, and the bounded ring of rolled windows.
#[derive(Debug)]
pub struct WindowedMetrics {
    spec: WindowSpec,
    now_s: f64,
    window_start_s: f64,
    next_index: u64,
    counter_base: BTreeMap<MetricKey, u64>,
    hist_base: BTreeMap<MetricKey, LogHistogram>,
    ring: VecDeque<WindowDelta>,
}

impl WindowedMetrics {
    /// Fresh aggregator: clock at zero, empty baselines (a fresh process
    /// has a fresh registry, so the first window measures from zero).
    pub fn new(spec: WindowSpec) -> WindowedMetrics {
        WindowedMetrics {
            spec,
            now_s: 0.0,
            window_start_s: 0.0,
            next_index: 0,
            counter_base: BTreeMap::new(),
            hist_base: BTreeMap::new(),
            ring: VecDeque::new(),
        }
    }

    /// Current sim-time clock, seconds.
    pub fn now_s(&self) -> f64 {
        self.now_s
    }

    /// Windows rolled so far (lifetime, including seeded history).
    pub fn windows_rolled(&self) -> u64 {
        self.next_index
    }

    /// The retained windows, oldest first.
    pub fn windows(&self) -> impl Iterator<Item = &WindowDelta> {
        self.ring.iter()
    }

    /// Re-adopt a window recovered from the ops log, in index order. The
    /// clock fast-forwards to the window's end and later live windows
    /// continue the index sequence, so the ring spans the restart.
    pub fn seed(&mut self, delta: WindowDelta) {
        self.next_index = self.next_index.max(delta.index + 1);
        self.now_s = self.now_s.max(delta.end_s);
        self.window_start_s = self.now_s;
        self.push(delta);
    }

    /// Advance the clock by `dt_s` (one scheduler quantum's makespan) and
    /// roll a window if at least `window_s` has elapsed since the last
    /// roll. Returns the rolled window.
    pub fn advance(&mut self, dt_s: f64, registry: &MetricsRegistry) -> Option<WindowDelta> {
        if dt_s.is_finite() && dt_s > 0.0 {
            self.now_s += dt_s;
        }
        let elapsed = self.now_s - self.window_start_s;
        if elapsed > 0.0 && elapsed >= self.spec.window_s {
            return Some(self.roll(registry));
        }
        None
    }

    /// Roll whatever has elapsed since the last window, regardless of
    /// `window_s` — the end-of-drain flush, so a final partial window is
    /// never silently dropped. No-op when the clock has not advanced.
    pub fn force_roll(&mut self, registry: &MetricsRegistry) -> Option<WindowDelta> {
        if self.now_s > self.window_start_s {
            return Some(self.roll(registry));
        }
        None
    }

    fn roll(&mut self, registry: &MetricsRegistry) -> WindowDelta {
        let snap = registry.snapshot_lean(&self.spec.histogram_names);
        let mut delta = WindowDelta {
            index: self.next_index,
            start_s: self.window_start_s,
            end_s: self.now_s,
            ..WindowDelta::default()
        };
        let mut counter_base = BTreeMap::new();
        for (key, total) in snap.counters {
            let base = self.counter_base.get(&key).copied().unwrap_or(0);
            let d = total.saturating_sub(base);
            if d > 0 {
                delta.counters.insert(key.clone(), d);
            }
            counter_base.insert(key, total);
        }
        self.counter_base = counter_base;
        for (key, value) in snap.gauges {
            delta.gauges.insert(key, value);
        }
        let mut hist_base = BTreeMap::new();
        for (key, hist) in snap.histograms {
            let windowed = match self.hist_base.get(&key) {
                Some(base) => hist.saturating_diff(base),
                None => hist.clone(),
            };
            if windowed.count() > 0 {
                delta.histograms.insert(key.clone(), windowed);
            }
            hist_base.insert(key, hist);
        }
        self.hist_base = hist_base;

        self.window_start_s = self.now_s;
        self.next_index += 1;
        self.push(delta.clone());
        delta
    }

    fn push(&mut self, delta: WindowDelta) {
        self.ring.push_back(delta);
        while self.ring.len() > self.spec.ring.max(1) {
            self.ring.pop_front();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(window_s: f64, ring: usize) -> WindowSpec {
        WindowSpec {
            window_s,
            ring,
            histogram_names: vec!["lease_wait_seconds".to_string()],
        }
    }

    #[test]
    fn windows_roll_on_quantum_boundaries_and_carry_deltas() {
        let reg = MetricsRegistry::default();
        let mut w = WindowedMetrics::new(spec(10.0, 8));
        reg.counter_add("granules", "tenant:a", 3);
        // 4s elapsed: below the window length, nothing rolls.
        assert!(w.advance(4.0, &reg).is_none());
        reg.counter_add("granules", "tenant:a", 2);
        // The quantum that crosses the boundary rolls one window covering
        // the whole elapsed interval.
        let first = w.advance(8.0, &reg).expect("rolls at 12s");
        assert_eq!(first.index, 0);
        assert_eq!(first.start_s, 0.0);
        assert_eq!(first.end_s, 12.0);
        assert_eq!(first.counter("granules", "tenant:a"), 5);
        // The next window measures only what happened after the roll.
        reg.counter_add("granules", "tenant:a", 7);
        let second = w.advance(11.0, &reg).expect("rolls at 23s");
        assert_eq!(second.index, 1);
        assert_eq!(second.counter("granules", "tenant:a"), 7);
        assert_eq!(w.windows_rolled(), 2);
    }

    #[test]
    fn zero_window_rolls_every_tick_but_never_an_empty_interval() {
        let reg = MetricsRegistry::default();
        let mut w = WindowedMetrics::new(spec(0.0, 8));
        assert!(w.advance(0.0, &reg).is_none(), "no time, no window");
        assert!(w.advance(1.5, &reg).is_some());
        assert!(w.advance(2.5, &reg).is_some());
        assert!(w.force_roll(&reg).is_none(), "nothing pending after roll");
        assert_eq!(w.windows_rolled(), 2);
    }

    #[test]
    fn histogram_families_are_diffed_per_window() {
        let reg = MetricsRegistry::default();
        let mut w = WindowedMetrics::new(spec(0.0, 4));
        reg.observe("lease_wait_seconds", "tenant:a", 1.0);
        reg.observe("file_seconds", "download", 9.0); // not opted in
        let first = w.advance(1.0, &reg).unwrap();
        assert_eq!(first.histograms.len(), 1);
        reg.observe("lease_wait_seconds", "tenant:a", 3.0);
        reg.observe("lease_wait_seconds", "tenant:a", 5.0);
        let second = w.advance(1.0, &reg).unwrap();
        let h = &second.histograms[&MetricKey::new("lease_wait_seconds", "tenant:a")];
        assert_eq!(h.count(), 2);
        assert!((h.sum() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn ring_is_bounded_and_seed_resumes_the_sequence() {
        let reg = MetricsRegistry::default();
        let mut w = WindowedMetrics::new(spec(0.0, 3));
        for _ in 0..5 {
            reg.counter_add("granules", "tenant:a", 1);
            w.advance(1.0, &reg);
        }
        assert_eq!(w.windows().count(), 3);
        assert_eq!(w.windows_rolled(), 5);

        // Restart: a fresh aggregator re-adopts the persisted windows.
        let mut resumed = WindowedMetrics::new(spec(0.0, 3));
        for win in w.windows() {
            let json = win.to_json();
            resumed.seed(WindowDelta::from_json(&json).unwrap());
        }
        assert_eq!(resumed.windows_rolled(), 5);
        assert_eq!(resumed.now_s(), w.now_s());
        // The next live window continues the index sequence.
        let reg2 = MetricsRegistry::default();
        reg2.counter_add("granules", "tenant:a", 2);
        let next = resumed.advance(1.0, &reg2).unwrap();
        assert_eq!(next.index, 5);
        assert_eq!(next.counter("granules", "tenant:a"), 2);
    }
}
