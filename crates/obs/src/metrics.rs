//! Metrics registry: counters, gauges, and log-bucketed histograms keyed
//! by `(name, stage)` labels.
//!
//! Histograms use geometric buckets — four per octave starting at 1 µs —
//! so p50/p90/p99 queries are O(buckets) with ≤ 19 % relative error over
//! twelve decades of dynamic range, and the exact maximum is tracked on
//! the side. That resolution is what the paper's Fig. 7 latency table
//! needs (component latencies spread from milliseconds to hours).

use std::collections::BTreeMap;
use std::sync::Mutex;

use eoml_util::stats::Summary;

/// Label pair every metric is keyed by.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Metric name (`files`, `retries`, `span_seconds`, ...).
    pub name: String,
    /// Pipeline stage or subsystem label.
    pub stage: String,
}

impl MetricKey {
    /// Build a key from `name` and `stage` labels.
    pub fn new(name: &str, stage: &str) -> MetricKey {
        MetricKey {
            name: name.to_string(),
            stage: stage.to_string(),
        }
    }
}

/// Buckets per factor-of-two of value.
const SUB_BUCKETS: usize = 4;
/// Lower edge of the first bucket (seconds): 1 µs.
const FIRST_BOUND: f64 = 1e-6;
/// Bucket count: 40 octaves × 4 ≈ values up to 2^40 µs ≈ 12 days.
const BUCKETS: usize = 160;
/// Raw samples kept per histogram for exact small-n percentiles. Beyond
/// this the histogram drops the sample buffer and quantiles fall back to
/// the ≤ 19 % log-bucket approximation.
const EXACT_SAMPLE_CAP: usize = 1024;

/// Log-bucketed histogram with approximate quantiles and an exact max.
///
/// Up to [`EXACT_SAMPLE_CAP`] raw observations are retained on the side,
/// so small histograms answer [`LogHistogram::exact_summary`] with exact
/// order statistics; larger ones keep only the buckets.
#[derive(Debug, Clone, PartialEq)]
pub struct LogHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    max: f64,
    /// `Some` while every observation is retained (`count ≤ cap`).
    samples: Option<Vec<f64>>,
}

impl Default for LogHistogram {
    fn default() -> LogHistogram {
        LogHistogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0.0,
            max: 0.0,
            samples: Some(Vec::new()),
        }
    }
}

/// Upper bound of bucket `i` (inclusive): `FIRST_BOUND * 2^((i+1)/SUB)`.
fn bucket_bound(i: usize) -> f64 {
    FIRST_BOUND * ((i + 1) as f64 / SUB_BUCKETS as f64).exp2()
}

/// Index of the bucket whose `(lower, upper]` range contains `v`.
fn bucket_index(v: f64) -> usize {
    if v <= FIRST_BOUND {
        return 0;
    }
    let idx = ((v / FIRST_BOUND).log2() * SUB_BUCKETS as f64).ceil() as usize;
    idx.saturating_sub(1).min(BUCKETS - 1)
}

impl LogHistogram {
    /// Record one observation (seconds, bytes, whatever the metric is).
    pub fn observe(&mut self, v: f64) {
        let v = if v.is_finite() && v >= 0.0 { v } else { 0.0 };
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum += v;
        if v > self.max {
            self.max = v;
        }
        if let Some(samples) = self.samples.as_mut() {
            if samples.len() < EXACT_SAMPLE_CAP {
                samples.push(v);
            } else {
                self.samples = None;
            }
        }
    }

    /// Exact order statistics over the retained samples, or `None` when
    /// the histogram outgrew the sample buffer (fall back to
    /// [`LogHistogram::quantile`]).
    pub fn exact_summary(&self) -> Option<Summary> {
        match self.samples.as_deref() {
            Some([]) | None => None,
            Some(samples) => Some(Summary::from_samples(samples.to_vec())),
        }
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Exact maximum observation.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Approximate quantile `q in [0, 1]`: the upper bound of the bucket
    /// holding the q-th observation, clamped to the exact max.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Median (approximate).
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 90th percentile (approximate).
    pub fn p90(&self) -> f64 {
        self.quantile(0.90)
    }

    /// 99th percentile (approximate).
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// The histogram of observations recorded since `baseline` was taken
    /// of this same histogram: bucket-wise saturating subtraction. Used by
    /// rolling-window aggregators to answer "what did this window's
    /// latency distribution look like" from two cumulative snapshots.
    ///
    /// The delta keeps no exact-sample buffer (samples cannot be
    /// un-merged), and `max` is the cumulative maximum — an upper bound
    /// on the window's true maximum, exact whenever the window contains
    /// the all-time max.
    pub fn saturating_diff(&self, baseline: &LogHistogram) -> LogHistogram {
        let counts: Vec<u64> = self
            .counts
            .iter()
            .enumerate()
            .map(|(i, &c)| c.saturating_sub(baseline.counts.get(i).copied().unwrap_or(0)))
            .collect();
        LogHistogram {
            counts,
            count: self.count.saturating_sub(baseline.count),
            sum: (self.sum - baseline.sum).max(0.0),
            max: self.max,
            samples: None,
        }
    }

    /// Cumulative `(upper_bound, count ≤ bound)` pairs up to the highest
    /// occupied bucket — the Prometheus `le` series.
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let last = match self.counts.iter().rposition(|&c| c > 0) {
            Some(i) => i,
            None => return Vec::new(),
        };
        let mut out = Vec::with_capacity(last + 1);
        let mut cum = 0u64;
        for i in 0..=last {
            cum += self.counts[i];
            out.push((bucket_bound(i), cum));
        }
        out
    }
}

/// Whether `stage` belongs to the slice named by `prefix`: either the
/// exact stage, or a sub-stage extending it across a `/` boundary
/// (`tenant:t1` matches `tenant:t1` and `tenant:t1/download`, but never
/// `tenant:t10` — raw string prefixing would leak sibling labels that
/// merely share leading characters).
pub fn stage_matches_prefix(stage: &str, prefix: &str) -> bool {
    match stage.strip_prefix(prefix) {
        Some(rest) => rest.is_empty() || rest.starts_with('/'),
        None => false,
    }
}

/// Point-in-time copy of every metric, for exporters.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Monotone counters.
    pub counters: Vec<(MetricKey, u64)>,
    /// Last-write-wins gauges.
    pub gauges: Vec<(MetricKey, f64)>,
    /// Histograms.
    pub histograms: Vec<(MetricKey, LogHistogram)>,
}

impl MetricsSnapshot {
    /// The sub-snapshot whose stage labels match `prefix` (see
    /// [`stage_matches_prefix`]) — the slice a multi-tenant service uses
    /// to report one tenant (all its metrics carry a `tenant:<id>`-style
    /// stage label) without the rest of the registry bleeding in.
    pub fn filter_stage_prefix(&self, prefix: &str) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .filter(|(k, _)| stage_matches_prefix(&k.stage, prefix))
                .cloned()
                .collect(),
            gauges: self
                .gauges
                .iter()
                .filter(|(k, _)| stage_matches_prefix(&k.stage, prefix))
                .cloned()
                .collect(),
            histograms: self
                .histograms
                .iter()
                .filter(|(k, _)| stage_matches_prefix(&k.stage, prefix))
                .cloned()
                .collect(),
        }
    }
}

/// Thread-safe registry of counters, gauges, and histograms.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<MetricKey, u64>>,
    gauges: Mutex<BTreeMap<MetricKey, f64>>,
    histograms: Mutex<BTreeMap<MetricKey, LogHistogram>>,
}

impl MetricsRegistry {
    /// Add `delta` to the `(name, stage)` counter.
    pub fn counter_add(&self, name: &str, stage: &str, delta: u64) {
        *self
            .counters
            .lock()
            .expect("counters poisoned")
            .entry(MetricKey::new(name, stage))
            .or_insert(0) += delta;
    }

    /// Current value of a counter, if it exists.
    pub fn counter_value(&self, name: &str, stage: &str) -> Option<u64> {
        self.counters
            .lock()
            .expect("counters poisoned")
            .get(&MetricKey::new(name, stage))
            .copied()
    }

    /// Set the `(name, stage)` gauge.
    pub fn gauge_set(&self, name: &str, stage: &str, value: f64) {
        self.gauges
            .lock()
            .expect("gauges poisoned")
            .insert(MetricKey::new(name, stage), value);
    }

    /// Current value of a gauge, if it exists.
    pub fn gauge_value(&self, name: &str, stage: &str) -> Option<f64> {
        self.gauges
            .lock()
            .expect("gauges poisoned")
            .get(&MetricKey::new(name, stage))
            .copied()
    }

    /// Record an observation into the `(name, stage)` histogram.
    pub fn observe(&self, name: &str, stage: &str, value: f64) {
        self.histograms
            .lock()
            .expect("histograms poisoned")
            .entry(MetricKey::new(name, stage))
            .or_default()
            .observe(value);
    }

    /// Copy of one histogram, if it exists.
    pub fn histogram(&self, name: &str, stage: &str) -> Option<LogHistogram> {
        self.histograms
            .lock()
            .expect("histograms poisoned")
            .get(&MetricKey::new(name, stage))
            .cloned()
    }

    /// Point-in-time copy of everything, sorted by key.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .lock()
                .expect("counters poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .expect("gauges poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .expect("histograms poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        }
    }

    /// A lean snapshot for periodic pollers: every counter and gauge, but
    /// histograms only for the named families. Rolling-window aggregators
    /// snapshot on every scheduler quantum; cloning each histogram's
    /// bucket array and sample buffer at that cadence would dominate the
    /// roll cost, so they opt in per family instead.
    pub fn snapshot_lean(&self, histogram_names: &[String]) -> MetricsSnapshot {
        let histograms = if histogram_names.is_empty() {
            Vec::new()
        } else {
            self.histograms
                .lock()
                .expect("histograms poisoned")
                .iter()
                .filter(|(k, _)| histogram_names.contains(&k.name))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect()
        };
        MetricsSnapshot {
            counters: self
                .counters
                .lock()
                .expect("counters poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .expect("gauges poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            histograms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_geometric_and_indexable() {
        // The bucket containing v must have lower < v <= upper.
        for v in [1e-7, 1e-6, 2e-6, 1e-3, 0.5, 1.0, 3.7, 1000.0, 9e4] {
            let i = bucket_index(v);
            let upper = bucket_bound(i);
            assert!(v <= upper * (1.0 + 1e-12), "v={v} upper={upper}");
            if i > 0 {
                let lower = bucket_bound(i - 1);
                assert!(v > lower * (1.0 - 1e-12), "v={v} lower={lower}");
            }
        }
    }

    #[test]
    fn quantiles_are_within_bucket_resolution() {
        let mut h = LogHistogram::default();
        for i in 1..=1000 {
            h.observe(i as f64 / 1000.0); // 1 ms .. 1 s, uniform
        }
        assert_eq!(h.count(), 1000);
        // One sub-bucket spans a factor of 2^(1/4) ≈ 1.19.
        assert!((h.p50() / 0.5 - 1.0).abs() < 0.2, "p50={}", h.p50());
        assert!((h.p90() / 0.9 - 1.0).abs() < 0.2, "p90={}", h.p90());
        assert!((h.p99() / 0.99 - 1.0).abs() < 0.2, "p99={}", h.p99());
        assert_eq!(h.max(), 1.0);
    }

    #[test]
    fn cumulative_buckets_end_at_total_count() {
        let mut h = LogHistogram::default();
        for v in [0.001, 0.002, 0.004, 1.0, 2.0] {
            h.observe(v);
        }
        let buckets = h.cumulative_buckets();
        assert_eq!(buckets.last().unwrap().1, 5);
        // Cumulative counts never decrease.
        assert!(buckets.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn exact_samples_survive_until_cap_then_drop() {
        let mut h = LogHistogram::default();
        for i in 0..EXACT_SAMPLE_CAP {
            h.observe(i as f64);
        }
        let s = h.exact_summary().expect("within cap");
        assert_eq!(s.len(), EXACT_SAMPLE_CAP);
        assert_eq!(s.max(), (EXACT_SAMPLE_CAP - 1) as f64);
        h.observe(5.0);
        assert!(h.exact_summary().is_none());
        assert_eq!(h.count(), EXACT_SAMPLE_CAP as u64 + 1);
    }

    #[test]
    fn percentiles_cross_from_exact_to_log_buckets_at_the_cap() {
        let mut h = LogHistogram::default();
        // Exactly at the cap: every sample retained, percentiles exact.
        for i in 1..=EXACT_SAMPLE_CAP {
            h.observe(i as f64);
        }
        let exact = h.exact_summary().expect("at the cap, still exact");
        let exact_p50 = exact.percentile(50.0);
        assert!((exact_p50 - 512.5).abs() < 1e-9, "p50={exact_p50}");

        // One more observation crosses into log-bucket approximation.
        h.observe((EXACT_SAMPLE_CAP + 1) as f64);
        assert!(h.exact_summary().is_none());
        let approx_p50 = h.p50();
        // The approximation must stay within one sub-bucket (≤ 19 %
        // relative error) of the exact value it replaced.
        let rel = (approx_p50 - exact_p50).abs() / exact_p50;
        assert!(
            rel <= 0.19,
            "approx={approx_p50} exact={exact_p50} rel={rel}"
        );
        // Count and max stay exact across the crossover.
        assert_eq!(h.count(), EXACT_SAMPLE_CAP as u64 + 1);
        assert_eq!(h.max(), (EXACT_SAMPLE_CAP + 1) as f64);
    }

    #[test]
    fn stage_prefix_matching_stops_at_the_delimiter_boundary() {
        // The t1/t10 collision: raw starts_with would leak t10 into t1.
        assert!(stage_matches_prefix("tenant:t1", "tenant:t1"));
        assert!(stage_matches_prefix("tenant:t1/download", "tenant:t1"));
        assert!(!stage_matches_prefix("tenant:t10", "tenant:t1"));
        assert!(!stage_matches_prefix("tenant:t10/download", "tenant:t1"));
        assert!(!stage_matches_prefix("tenant:t2", "tenant:t1"));

        let reg = MetricsRegistry::default();
        reg.counter_add("granules", "tenant:t1", 3);
        reg.counter_add("granules", "tenant:t10", 40);
        reg.gauge_set("queue_depth", "tenant:t10", 2.0);
        reg.observe("lease_wait_seconds", "tenant:t10", 1.0);
        let slice = reg.snapshot().filter_stage_prefix("tenant:t1");
        assert_eq!(slice.counters.len(), 1);
        assert_eq!(slice.counters[0].0.stage, "tenant:t1");
        assert_eq!(slice.counters[0].1, 3);
        assert!(slice.gauges.is_empty());
        assert!(slice.histograms.is_empty());
    }

    #[test]
    fn saturating_diff_isolates_the_window() {
        let mut h = LogHistogram::default();
        for v in [0.001, 0.01] {
            h.observe(v);
        }
        let baseline = h.clone();
        for v in [0.1, 1.0, 10.0] {
            h.observe(v);
        }
        let delta = h.saturating_diff(&baseline);
        assert_eq!(delta.count(), 3);
        assert!((delta.sum() - 11.1).abs() < 1e-9);
        // Quantiles reflect only the window's observations.
        assert!(delta.p50() >= 0.1 * 0.8, "p50={}", delta.p50());
        // The delta carries no sample buffer and diffing against a newer
        // snapshot saturates at zero instead of underflowing.
        assert!(delta.exact_summary().is_none());
        let empty = baseline.saturating_diff(&h);
        assert_eq!(empty.count(), 0);
        assert_eq!(empty.sum(), 0.0);
    }

    #[test]
    fn lean_snapshot_skips_unrequested_histograms() {
        let reg = MetricsRegistry::default();
        reg.counter_add("granules", "tenant:a", 2);
        reg.gauge_set("queue_depth", "tenant:a", 1.0);
        reg.observe("lease_wait_seconds", "tenant:a", 0.5);
        reg.observe("file_seconds", "download", 2.0);
        let lean = reg.snapshot_lean(&["lease_wait_seconds".to_string()]);
        assert_eq!(lean.counters.len(), 1);
        assert_eq!(lean.gauges.len(), 1);
        assert_eq!(lean.histograms.len(), 1);
        assert_eq!(lean.histograms[0].0.name, "lease_wait_seconds");
        assert!(reg.snapshot_lean(&[]).histograms.is_empty());
    }

    #[test]
    fn registry_counters_gauges_histograms() {
        let reg = MetricsRegistry::default();
        reg.counter_add("files", "download", 3);
        assert_eq!(reg.counter_value("files", "download"), Some(3));
        reg.counter_add("files", "download", 2);
        assert_eq!(reg.counter_value("files", "download"), Some(5));
        assert_eq!(reg.counter_value("files", "preprocess"), None);
        reg.gauge_set("active_workers", "download", 6.0);
        assert_eq!(reg.gauge_value("active_workers", "download"), Some(6.0));
        reg.observe("file_seconds", "download", 12.5);
        let h = reg.histogram("file_seconds", "download").unwrap();
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), 12.5);
    }
}
