//! A Globus-Transfer-like batch transfer service.
//!
//! A *task* names a source endpoint, a destination endpoint and a list of
//! files. The service moves the files with up to `parallel_streams`
//! concurrent flows, verifies integrity, retries failed files up to
//! `retry_limit` times, and reports aggregate statistics — the behaviour the
//! paper's stage 5 (shipment to Frontier's Orion) relies on.

use crate::backoff::BackoffPolicy;
use crate::flownet::HasNetwork;
use crate::pool::DownloadPool;
use eoml_simtime::{SimTime, Simulation};
use eoml_util::units::ByteSize;

eoml_util::typed_id!(
    /// Identifier of a submitted transfer task.
    TransferTaskId,
    "xfer"
);

/// Task-level options.
#[derive(Debug, Clone, Copy)]
pub struct TransferOptions {
    /// Maximum concurrent file flows (Globus's `parallelism`).
    pub parallel_streams: usize,
    /// Retry budget per file *after* its first attempt: a file is tried
    /// at most `retry_limit + 1` times in total before it counts as
    /// failed — the same convention as
    /// [`DownloadPool::run`](crate::pool::DownloadPool::run).
    pub retry_limit: usize,
    /// Wait applied before each retry. The default is the bounded
    /// exponential [`BackoffPolicy::wan_default`]; use
    /// [`BackoffPolicy::immediate`] for the legacy no-wait loop.
    pub backoff: BackoffPolicy,
}

impl Default for TransferOptions {
    fn default() -> Self {
        Self {
            parallel_streams: 4,
            retry_limit: 3,
            backoff: BackoffPolicy::wan_default(),
        }
    }
}

/// Final report for a transfer task.
#[derive(Debug, Clone)]
pub struct TransferReport {
    /// Task id.
    pub task: TransferTaskId,
    /// Files delivered successfully.
    pub files_ok: usize,
    /// Files abandoned after exhausting retries.
    pub files_failed: usize,
    /// Bytes of successfully delivered files.
    pub bytes: ByteSize,
    /// Total retry attempts made.
    pub retries: usize,
    /// Submission time.
    pub submitted: SimTime,
    /// Completion time.
    pub finished: SimTime,
    /// Per-file `(name, seconds)` for delivered files.
    pub file_times: Vec<(String, f64)>,
    /// Per-file `(name, started, finished)` windows for delivered files —
    /// what per-granule shipment spans are recorded from.
    pub file_windows: Vec<(String, SimTime, SimTime)>,
}

impl TransferReport {
    /// Wall-clock duration of the whole task.
    pub fn duration_s(&self) -> f64 {
        (self.finished - self.submitted).as_secs_f64()
    }

    /// Effective aggregate throughput (delivered bytes / task duration).
    pub fn effective_rate(&self) -> eoml_util::units::Rate {
        let d = self.duration_s();
        if d <= 0.0 {
            return eoml_util::units::Rate::bytes_per_sec(0.0);
        }
        eoml_util::units::Rate::bytes_per_sec(self.bytes.as_u64() as f64 / d)
    }
}

/// Submit a batch transfer; `on_done` receives the final report.
pub fn submit_transfer<S: HasNetwork>(
    sim: &mut Simulation<S>,
    src: &str,
    dst: &str,
    files: Vec<(String, ByteSize)>,
    options: TransferOptions,
    on_done: impl FnOnce(&mut Simulation<S>, TransferReport) + 'static,
) -> TransferTaskId {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
    let id = TransferTaskId::from_raw(NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed));
    DownloadPool::run_full(
        sim,
        src,
        dst,
        files,
        options.parallel_streams,
        options.retry_limit,
        options.backoff,
        None,
        |_| None,
        |_, _| {},
        move |sim, moved| {
            let report = TransferReport {
                task: id,
                files_ok: moved.files.len(),
                files_failed: moved.failed.len(),
                bytes: moved.bytes,
                retries: moved.retries,
                submitted: moved.started,
                finished: moved.finished,
                file_times: moved
                    .files
                    .iter()
                    .map(|f| (f.name.clone(), (f.finished - f.started).as_secs_f64()))
                    .collect(),
                file_windows: moved
                    .files
                    .into_iter()
                    .map(|f| (f.name, f.started, f.finished))
                    .collect(),
            };
            on_done(sim, report);
        },
    );
    id
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::Endpoint;
    use crate::faults::FaultPlan;
    use crate::flownet::FlowNetwork;
    use eoml_util::units::Rate;
    use std::time::Duration;

    struct St {
        net: FlowNetwork<St>,
        report: Option<TransferReport>,
    }

    impl HasNetwork for St {
        fn network(&mut self) -> &mut FlowNetwork<St> {
            &mut self.net
        }
    }

    fn sim(fault: FaultPlan) -> Simulation<St> {
        let mut net = FlowNetwork::new(11, fault);
        net.add_endpoint(Endpoint::new(
            "src",
            Rate::mb_per_sec(40.0),
            Rate::mb_per_sec(40.0),
            Rate::mb_per_sec(10.0),
            Duration::ZERO,
        ));
        net.add_endpoint(Endpoint::new(
            "dst",
            Rate::mb_per_sec(1000.0),
            Rate::mb_per_sec(1000.0),
            Rate::mb_per_sec(1000.0),
            Duration::ZERO,
        ));
        Simulation::new(St { net, report: None })
    }

    fn files(n: usize, mb: u64) -> Vec<(String, ByteSize)> {
        (0..n)
            .map(|i| (format!("file{i}"), ByteSize::mb(mb)))
            .collect()
    }

    #[test]
    fn all_files_delivered() {
        let mut s = sim(FaultPlan::none());
        submit_transfer(
            &mut s,
            "src",
            "dst",
            files(8, 10),
            TransferOptions::default(),
            |sim, r| sim.state_mut().report = Some(r),
        );
        s.run();
        let r = s.state().report.as_ref().expect("report");
        assert_eq!(r.files_ok, 8);
        assert_eq!(r.files_failed, 0);
        assert_eq!(r.retries, 0);
        assert_eq!(r.bytes, ByteSize::mb(80));
        // 4 streams × 10 MB/s (cap) = 40 MB/s aggregate → 80 MB in 2 s.
        assert!((r.duration_s() - 2.0).abs() < 1e-6, "{}", r.duration_s());
        assert!((r.effective_rate().as_mb_per_sec() - 40.0).abs() < 0.01);
    }

    #[test]
    fn parallel_streams_bound_concurrency() {
        let mut s = sim(FaultPlan::none());
        submit_transfer(
            &mut s,
            "src",
            "dst",
            files(6, 10),
            TransferOptions {
                parallel_streams: 1,
                retry_limit: 0,
                ..TransferOptions::default()
            },
            |sim, r| sim.state_mut().report = Some(r),
        );
        s.run();
        let r = s.state().report.as_ref().expect("report");
        // Serial: 6 files × 1 s each at 10 MB/s.
        assert!((r.duration_s() - 6.0).abs() < 1e-6, "{}", r.duration_s());
    }

    #[test]
    fn failures_are_retried_until_delivered() {
        // 100 % drop on first attempts is impossible to recover from, so use
        // a seeded moderate drop rate and a generous retry budget.
        let mut s = sim(FaultPlan {
            drop_probability: 0.4,
            corrupt_probability: 0.1,
        });
        submit_transfer(
            &mut s,
            "src",
            "dst",
            files(20, 5),
            TransferOptions {
                parallel_streams: 4,
                retry_limit: 50,
                ..TransferOptions::default()
            },
            |sim, r| sim.state_mut().report = Some(r),
        );
        s.run();
        let r = s.state().report.as_ref().expect("report");
        assert_eq!(r.files_ok, 20);
        assert_eq!(r.files_failed, 0);
        assert!(
            r.retries > 0,
            "with 50 % fault rate some retries must happen"
        );
        assert_eq!(r.bytes, ByteSize::mb(100));
    }

    #[test]
    fn retry_exhaustion_counts_failures() {
        let mut s = sim(FaultPlan {
            drop_probability: 1.0,
            corrupt_probability: 0.0,
        });
        submit_transfer(
            &mut s,
            "src",
            "dst",
            files(3, 5),
            TransferOptions {
                parallel_streams: 2,
                retry_limit: 2,
                ..TransferOptions::default()
            },
            |sim, r| sim.state_mut().report = Some(r),
        );
        s.run();
        let r = s.state().report.as_ref().expect("report");
        assert_eq!(r.files_ok, 0);
        assert_eq!(r.files_failed, 3);
        assert_eq!(r.retries, 6, "3 files × 2 retries");
        assert_eq!(r.bytes, ByteSize::ZERO);
    }

    #[test]
    fn empty_task_completes_immediately() {
        let mut s = sim(FaultPlan::none());
        submit_transfer(
            &mut s,
            "src",
            "dst",
            Vec::new(),
            TransferOptions::default(),
            |sim, r| sim.state_mut().report = Some(r),
        );
        s.run();
        let r = s.state().report.as_ref().expect("report");
        assert_eq!(r.files_ok, 0);
        assert_eq!(r.duration_s(), 0.0);
    }

    #[test]
    fn file_times_recorded_for_successes() {
        let mut s = sim(FaultPlan::none());
        submit_transfer(
            &mut s,
            "src",
            "dst",
            files(4, 10),
            TransferOptions::default(),
            |sim, r| sim.state_mut().report = Some(r),
        );
        s.run();
        let r = s.state().report.as_ref().expect("report");
        assert_eq!(r.file_times.len(), 4);
        for (name, t) in &r.file_times {
            assert!(name.starts_with("file"));
            assert!((t - 1.0).abs() < 1e-6, "{name}: {t}");
        }
        // Windows agree with the elapsed times and the task bounds.
        assert_eq!(r.file_windows.len(), 4);
        for ((name, t), (wname, started, finished)) in r.file_times.iter().zip(&r.file_windows) {
            assert_eq!(name, wname);
            assert!(((*finished - *started).as_secs_f64() - t).abs() < 1e-9);
            assert!(*started >= r.submitted && *finished <= r.finished);
        }
    }
}
