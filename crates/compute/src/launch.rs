//! Remote-worker launch latency model.
//!
//! The paper's Fig. 7 measures the cost of *starting* the download step:
//! "launches workers with Globus Compute, establishes a connection to the
//! LAADS server, and configures the list of files to be downloaded in just
//! 5.63 s". This model decomposes that overhead so the latency-breakdown
//! experiment can report its parts.

use eoml_util::rng::{Rng64, Xoshiro256};
use std::time::Duration;

/// Components of a remote launch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaunchBreakdown {
    /// Authenticate and dispatch to the endpoint.
    pub dispatch: Duration,
    /// Provision/attach workers.
    pub worker_startup: Duration,
    /// Open the connection to the remote archive.
    pub remote_connect: Duration,
    /// Build the file list / task queue.
    pub configure: Duration,
}

impl LaunchBreakdown {
    /// Total launch latency.
    pub fn total(&self) -> Duration {
        self.dispatch + self.worker_startup + self.remote_connect + self.configure
    }
}

/// Stochastic launch model with means calibrated to Fig. 7's 5.63 s
/// download-launch figure.
#[derive(Debug, Clone)]
pub struct LaunchModel {
    rng: Xoshiro256,
    /// Mean seconds per component: dispatch, worker startup, remote
    /// connect, configure.
    pub means: [f64; 4],
    /// Jitter (coefficient of variation) applied to each component.
    pub cv: f64,
}

impl LaunchModel {
    /// Calibrated model: 0.9 + 2.8 + 1.2 + 0.7 ≈ 5.6 s mean total.
    pub fn globus_compute(seed: u64) -> Self {
        Self {
            rng: Xoshiro256::seed_from(seed ^ 0x1A07C4),
            means: [0.9, 2.8, 1.2, 0.7],
            cv: 0.18,
        }
    }

    /// Flow-action overhead: the ~50 ms Globus Flows step transition the
    /// paper measures between monitor and inference.
    pub fn flows_action(seed: u64) -> Self {
        Self {
            rng: Xoshiro256::seed_from(seed ^ 0xF10A5),
            means: [0.02, 0.0, 0.02, 0.01],
            cv: 0.25,
        }
    }

    /// Sample one launch.
    pub fn sample(&mut self) -> LaunchBreakdown {
        let mut draw = |mean: f64| -> Duration {
            if mean <= 0.0 {
                return Duration::ZERO;
            }
            Duration::from_secs_f64(self.rng.lognormal_mean_cv(mean, self.cv))
        };
        LaunchBreakdown {
            dispatch: draw(self.means[0]),
            worker_startup: draw(self.means[1]),
            remote_connect: draw(self.means[2]),
            configure: draw(self.means[3]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Mean total latency of the model, seconds.
    fn mean_total(m: &LaunchModel) -> f64 {
        m.means.iter().sum()
    }

    #[test]
    fn globus_compute_mean_matches_fig7() {
        let total = mean_total(&LaunchModel::globus_compute(1));
        assert!((total - 5.6).abs() < 0.2, "mean launch {total}");
    }

    #[test]
    fn sampled_totals_cluster_around_the_mean() {
        let mut m = LaunchModel::globus_compute(2);
        let n = 2000;
        let mean: f64 = (0..n)
            .map(|_| m.sample().total().as_secs_f64())
            .sum::<f64>()
            / n as f64;
        assert!((mean - 5.6).abs() < 0.3, "sampled mean {mean}");
    }

    #[test]
    fn flows_action_is_tens_of_milliseconds() {
        let mut m = LaunchModel::flows_action(3);
        for _ in 0..100 {
            let t = m.sample().total().as_secs_f64();
            assert!((0.01..0.25).contains(&t), "flow action {t}");
        }
        assert!((mean_total(&m) - 0.05).abs() < 0.01);
    }

    #[test]
    fn samples_are_deterministic_per_seed() {
        let mut a = LaunchModel::globus_compute(7);
        let mut b = LaunchModel::globus_compute(7);
        for _ in 0..10 {
            assert_eq!(a.sample(), b.sample());
        }
    }

    #[test]
    fn breakdown_total_is_sum() {
        let mut m = LaunchModel::globus_compute(4);
        let s = m.sample();
        let sum = s.dispatch + s.worker_startup + s.remote_connect + s.configure;
        assert_eq!(s.total(), sum);
    }
}
