//! The LAADS download pool — stage 1 of the workflow.
//!
//! The paper implements downloads as a remotely executable Globus Compute
//! function: a pool of workers pulls file requests off a shared queue, each
//! worker fetching one file at a time over HTTPS; when a worker finishes and
//! more work is queued it takes the next item, otherwise it terminates.
//! This module reproduces that structure on the flow network, and records
//! the per-worker activity timeline the paper's Fig. 6 plots.

use crate::backoff::BackoffPolicy;
use crate::flownet::HasNetwork;
use crate::mover::{open_mover, FileJob};
use crate::service::TransferOptions;
use eoml_obs::{Obs, TraceContext};
use eoml_simtime::{SimTime, Simulation};
use eoml_util::units::{ByteSize, Rate};
use std::sync::Arc;

/// Timing of one delivered file.
#[derive(Debug, Clone, PartialEq)]
pub struct FileTiming {
    /// Archive file name.
    pub name: String,
    /// File size.
    pub size: ByteSize,
    /// When the first attempt started.
    pub started: SimTime,
    /// When the file was fully delivered.
    pub finished: SimTime,
    /// Attempts used (1 = no retries).
    pub attempts: usize,
}

impl FileTiming {
    /// Effective speed for this file including overhead and retries.
    pub fn speed(&self) -> Rate {
        let d = (self.finished - self.started).as_secs_f64();
        if d <= 0.0 {
            return Rate::bytes_per_sec(0.0);
        }
        Rate::bytes_per_sec(self.size.as_u64() as f64 / d)
    }
}

/// Final report of a download pool run.
#[derive(Debug, Clone)]
pub struct DownloadReport {
    /// Per-file timings for delivered files.
    pub files: Vec<FileTiming>,
    /// Files abandoned after the retry budget.
    pub failed: Vec<String>,
    /// Total delivered bytes.
    pub bytes: ByteSize,
    /// Pool start time.
    pub started: SimTime,
    /// Time the last worker terminated.
    pub finished: SimTime,
    /// `(time, active workers)` change points — the Fig. 6 timeline.
    pub activity: Vec<(SimTime, usize)>,
    /// Total retry attempts.
    pub retries: usize,
}

impl DownloadReport {
    /// Aggregate download speed: delivered bytes over pool wall time.
    pub fn aggregate_speed(&self) -> Rate {
        let d = (self.finished - self.started).as_secs_f64();
        if d <= 0.0 {
            return Rate::bytes_per_sec(0.0);
        }
        Rate::bytes_per_sec(self.bytes.as_u64() as f64 / d)
    }

    /// Mean per-file speed (the statistic plotted in the paper's Fig. 3).
    pub fn mean_file_speed(&self) -> Rate {
        if self.files.is_empty() {
            return Rate::bytes_per_sec(0.0);
        }
        Rate::bytes_per_sec(
            self.files
                .iter()
                .map(|f| f.speed().as_bytes_per_sec())
                .sum::<f64>()
                / self.files.len() as f64,
        )
    }
}

/// The download pool entry points: a closed file list through the one
/// [file mover](crate::mover).
pub struct DownloadPool<S>(std::marker::PhantomData<S>);

impl<S: HasNetwork> DownloadPool<S> {
    /// Start `workers` download workers pulling `files` from `src` into
    /// `dst`. `on_done` fires when the last worker terminates.
    ///
    /// **Retry semantics:** `retry_limit` is the number of *re*-attempts
    /// granted per file after its first try, so a file is attempted at
    /// most `retry_limit + 1` times in total and [`FileTiming::attempts`]
    /// counts total tries (`1` = no retries). Retries wait out
    /// [`BackoffPolicy::wan_default`]. Files that exhaust the budget are
    /// *abandoned*: listed in [`DownloadReport::failed`].
    pub fn run(
        sim: &mut Simulation<S>,
        src: &str,
        dst: &str,
        files: Vec<(String, ByteSize)>,
        workers: usize,
        retry_limit: usize,
        on_done: impl FnOnce(&mut Simulation<S>, DownloadReport) + 'static,
    ) {
        Self::run_full(
            sim,
            src,
            dst,
            files,
            workers,
            retry_limit,
            BackoffPolicy::wan_default(),
            None,
            |_| None,
            |_, _| {},
            on_done,
        );
    }

    /// [`DownloadPool::run`] with everything spelled out: the `backoff`
    /// before each retry ([`BackoffPolicy::immediate`] is the no-wait
    /// loop), and the `obs` hub, per-file `trace_for` and per-file
    /// `on_file` hook of [`open_mover`] — journaling drivers make each
    /// download durable in the hook, before the pool finishes; abandoned
    /// files reach `files_abandoned{stage="download"}` and through it the
    /// ops plane's `health::evaluate`.
    #[allow(clippy::too_many_arguments)]
    pub fn run_full(
        sim: &mut Simulation<S>,
        src: &str,
        dst: &str,
        files: Vec<(String, ByteSize)>,
        workers: usize,
        retry_limit: usize,
        backoff: BackoffPolicy,
        obs: Option<Arc<Obs>>,
        trace_for: impl Fn(&str) -> Option<TraceContext> + 'static,
        on_file: impl FnMut(&mut Simulation<S>, &FileTiming) + 'static,
        on_done: impl FnOnce(&mut Simulation<S>, DownloadReport) + 'static,
    ) {
        let options = TransferOptions {
            parallel_streams: workers,
            retry_limit,
            backoff,
        };
        let mover = open_mover(sim, src, dst, options, obs, trace_for, on_file, on_done);
        for (name, size) in files {
            mover.push(sim, FileJob::new(name, size));
        }
        mover.close(sim);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::Endpoint;
    use crate::faults::FaultPlan;
    use crate::flownet::FlowNetwork;
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::time::Duration;

    struct St {
        net: FlowNetwork<St>,
        report: Option<DownloadReport>,
    }

    impl HasNetwork for St {
        fn network(&mut self) -> &mut FlowNetwork<St> {
            &mut self.net
        }
    }

    fn sim(fault: FaultPlan, overhead_ms: u64) -> Simulation<St> {
        let mut net = FlowNetwork::new(5, fault);
        net.add_endpoint(Endpoint::new(
            "laads",
            Rate::mb_per_sec(60.0),
            Rate::mb_per_sec(60.0),
            Rate::mb_per_sec(9.0),
            Duration::from_millis(overhead_ms),
        ));
        net.add_endpoint(Endpoint::ace_defiant());
        Simulation::new(St { net, report: None })
    }

    fn files(n: usize, mb: u64) -> Vec<(String, ByteSize)> {
        (0..n)
            .map(|i| (format!("g{i}.eogr"), ByteSize::mb(mb)))
            .collect()
    }

    #[test]
    fn pool_drains_queue() {
        let mut s = sim(FaultPlan::none(), 0);
        DownloadPool::run(
            &mut s,
            "laads",
            "ace-defiant",
            files(10, 90),
            3,
            2,
            |sim, r| sim.state_mut().report = Some(r),
        );
        s.run();
        let r = s.state().report.as_ref().expect("report");
        assert_eq!(r.files.len(), 10);
        assert!(r.failed.is_empty());
        assert_eq!(r.bytes, ByteSize::mb(900));
        // 3 workers × 9 MB/s = 27 MB/s; 900 MB ≈ 33.3 s; ceil to the
        // 4-round structure: rounds of 3 files, each 10 s → ~40 s with the
        // last round of 1 file... actually files dispatch greedily, so
        // total ≈ 900/27 = 33.3 s plus tail effects.
        let d = (r.finished - r.started).as_secs_f64();
        assert!((33.0..45.0).contains(&d), "duration {d}");
    }

    #[test]
    fn more_workers_download_faster() {
        let mut speeds = Vec::new();
        for workers in [3, 6] {
            let mut s = sim(FaultPlan::none(), 200);
            DownloadPool::run(
                &mut s,
                "laads",
                "ace-defiant",
                files(12, 100),
                workers,
                2,
                |sim, r| sim.state_mut().report = Some(r),
            );
            s.run();
            let r = s.state().report.as_ref().expect("report");
            speeds.push(r.aggregate_speed().as_mb_per_sec());
        }
        assert!(
            speeds[1] > speeds[0] + 3.0,
            "6 workers ({} MB/s) should beat 3 workers ({} MB/s)",
            speeds[1],
            speeds[0]
        );
    }

    #[test]
    fn single_file_gains_nothing_from_more_workers() {
        let mut speeds = Vec::new();
        for workers in [3, 6] {
            let mut s = sim(FaultPlan::none(), 0);
            DownloadPool::run(
                &mut s,
                "laads",
                "ace-defiant",
                files(1, 100),
                workers,
                2,
                |sim, r| sim.state_mut().report = Some(r),
            );
            s.run();
            let r = s.state().report.as_ref().expect("report");
            speeds.push(r.aggregate_speed().as_mb_per_sec());
        }
        assert!(
            (speeds[0] - speeds[1]).abs() < 0.5,
            "one file cannot use extra workers: {speeds:?}"
        );
    }

    #[test]
    fn activity_timeline_tracks_workers() {
        let mut s = sim(FaultPlan::none(), 0);
        DownloadPool::run(
            &mut s,
            "laads",
            "ace-defiant",
            files(6, 45),
            3,
            2,
            |sim, r| sim.state_mut().report = Some(r),
        );
        s.run();
        let r = s.state().report.as_ref().expect("report");
        let max_active = r.activity.iter().map(|&(_, a)| a).max().unwrap();
        assert_eq!(max_active, 3, "all 3 workers busy at peak");
        assert_eq!(r.activity.last().unwrap().1, 0, "ends idle");
        // Timeline is time-ordered.
        for w in r.activity.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
    }

    #[test]
    fn excess_workers_terminate_gracefully() {
        let mut s = sim(FaultPlan::none(), 0);
        DownloadPool::run(
            &mut s,
            "laads",
            "ace-defiant",
            files(2, 9),
            8,
            2,
            |sim, r| sim.state_mut().report = Some(r),
        );
        s.run();
        let r = s.state().report.as_ref().expect("report");
        assert_eq!(r.files.len(), 2);
        let max_active = r.activity.iter().map(|&(_, a)| a).max().unwrap();
        assert_eq!(max_active, 2, "only 2 workers ever had work");
    }

    #[test]
    fn faults_retried_and_failures_reported() {
        let mut s = sim(
            FaultPlan {
                drop_probability: 1.0,
                corrupt_probability: 0.0,
            },
            0,
        );
        DownloadPool::run(
            &mut s,
            "laads",
            "ace-defiant",
            files(2, 9),
            2,
            3,
            |sim, r| sim.state_mut().report = Some(r),
        );
        s.run();
        let r = s.state().report.as_ref().expect("report");
        assert_eq!(r.files.len(), 0);
        assert_eq!(r.failed.len(), 2);
        assert_eq!(r.retries, 6, "2 files × 3 retries");
    }

    #[test]
    fn per_file_hook_fires_once_per_delivery_in_finish_order() {
        let mut s = sim(FaultPlan::none(), 0);
        let seen = Rc::new(RefCell::new(Vec::<(String, SimTime)>::new()));
        let seen2 = Rc::clone(&seen);
        DownloadPool::run_full(
            &mut s,
            "laads",
            "ace-defiant",
            files(5, 45),
            2,
            2,
            BackoffPolicy::wan_default(),
            None,
            |_| None,
            move |_sim, t: &FileTiming| seen2.borrow_mut().push((t.name.clone(), t.finished)),
            |sim, r| sim.state_mut().report = Some(r),
        );
        s.run();
        let r = s.state().report.as_ref().expect("report");
        let seen = seen.borrow();
        assert_eq!(seen.len(), 5, "one hook call per delivered file");
        let from_report: Vec<(String, SimTime)> = r
            .files
            .iter()
            .map(|f| (f.name.clone(), f.finished))
            .collect();
        assert_eq!(*seen, from_report, "hook order matches delivery order");
        for w in seen.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn observed_run_records_per_file_metrics_and_spans() {
        let mut s = sim(
            FaultPlan {
                drop_probability: 0.4,
                corrupt_probability: 0.0,
            },
            0,
        );
        let obs = Obs::shared();
        DownloadPool::run_full(
            &mut s,
            "laads",
            "ace-defiant",
            files(6, 45),
            3,
            8,
            BackoffPolicy::wan_default(),
            Some(Arc::clone(&obs)),
            |_| None,
            |_, _| {},
            |sim, r| sim.state_mut().report = Some(r),
        );
        s.run();
        let r = s.state().report.as_ref().expect("report");
        assert_eq!(r.files.len(), 6, "retry budget covers the flaky WAN");
        let counter = |name: &str| obs.metrics().counter_value(name, "download").unwrap_or(0);
        assert_eq!(counter("files"), 6);
        assert_eq!(counter("bytes"), r.bytes.as_u64());
        assert_eq!(counter("retries"), r.retries as u64);
        // One download/file span per delivery, sim-stamped.
        let spans: Vec<_> = obs
            .spans()
            .into_iter()
            .filter(|sp| sp.stage == "download" && sp.name == "file")
            .collect();
        assert_eq!(spans.len(), 6);
        assert!(spans.iter().all(|sp| sp.sim_seconds().is_some()));
        let h = obs
            .metrics()
            .histogram("file_attempts", "download")
            .unwrap();
        assert_eq!(h.count(), 6);
        assert!(h.max() >= 1.0);
        // Worker-count gauge saw activity and ended at zero.
        assert_eq!(
            obs.metrics().gauge_value("active_workers", "download"),
            Some(0.0)
        );
    }

    #[test]
    fn traced_run_tags_spans_with_granule_ids() {
        let mut s = sim(FaultPlan::none(), 0);
        let obs = Obs::shared();
        DownloadPool::run_full(
            &mut s,
            "laads",
            "ace-defiant",
            files(4, 45),
            2,
            2,
            BackoffPolicy::wan_default(),
            Some(Arc::clone(&obs)),
            |name| name.strip_suffix(".eogr").map(TraceContext::new),
            |_, _| {},
            |sim, r| sim.state_mut().report = Some(r),
        );
        s.run();
        let spans: Vec<_> = obs
            .spans()
            .into_iter()
            .filter(|sp| sp.stage == "download" && sp.name == "file")
            .collect();
        assert_eq!(spans.len(), 4);
        for sp in &spans {
            let trace = sp.trace_id.as_deref().expect("every file span traced");
            assert_eq!(sp.attr("file"), Some(format!("{trace}.eogr").as_str()));
        }
    }

    #[test]
    fn empty_file_list_finishes_immediately() {
        let mut s = sim(FaultPlan::none(), 0);
        DownloadPool::run(
            &mut s,
            "laads",
            "ace-defiant",
            Vec::new(),
            4,
            2,
            |sim, r| sim.state_mut().report = Some(r),
        );
        s.run();
        let r = s.state().report.as_ref().expect("report");
        assert!(r.files.is_empty());
        assert_eq!(r.started, r.finished);
    }

    #[test]
    fn per_file_speed_reflects_overhead() {
        // With large per-request overhead, small files report much lower
        // effective speeds than large ones — the Fig. 3 left-edge effect.
        let mut s = sim(FaultPlan::none(), 2000);
        let mut all = files(1, 9);
        all.extend(
            files(1, 900)
                .into_iter()
                .map(|(n, s)| (format!("big-{n}"), s)),
        );
        DownloadPool::run(&mut s, "laads", "ace-defiant", all, 2, 2, |sim, r| {
            sim.state_mut().report = Some(r)
        });
        s.run();
        let r = s.state().report.as_ref().expect("report");
        let small = r.files.iter().find(|f| f.size == ByteSize::mb(9)).unwrap();
        let big = r
            .files
            .iter()
            .find(|f| f.size == ByteSize::mb(900))
            .unwrap();
        assert!(
            small.speed().as_mb_per_sec() < big.speed().as_mb_per_sec() * 0.6,
            "small {} vs big {}",
            small.speed(),
            big.speed()
        );
    }
}
