//! The one file mover: a [`Pool`] of flows between two endpoints.
//!
//! A download pool and a Globus-Transfer task are the same machine — a
//! bounded number of concurrent flows pulling files off a queue, failed
//! files retried after a [`BackoffPolicy`](crate::backoff::BackoffPolicy)
//! delay up to a budget, then abandoned. [`open_mover`] builds that machine:
//! [`DownloadPool`](crate::pool::DownloadPool) and
//! [`submit_transfer`](crate::service::submit_transfer) feed it a closed
//! file list, the streaming campaign feeds it as the archive releases
//! granules. The slots, queue, requeue delays, activity series and the
//! "am I drained?" guard are the pool's; this module adds the flows, the
//! retry verdict, per-file timing, the obs records and the per-file hook.

use crate::faults::FlowOutcome;
use crate::flownet::{start_flow, HasNetwork};
use crate::pool::{DownloadReport, FileTiming};
use crate::service::TransferOptions;
use eoml_obs::{Obs, TraceContext};
use eoml_simtime::{Pool, SimTime, Simulation, Verdict};
use eoml_util::units::ByteSize;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

/// One queued file.
pub struct FileJob {
    name: String,
    size: ByteSize,
    /// When the first attempt started; `None` until then.
    started: Option<SimTime>,
}

impl FileJob {
    /// A file that has not been attempted yet.
    pub fn new(name: String, size: ByteSize) -> Self {
        Self {
            name,
            size,
            started: None,
        }
    }
}

/// Handle to a running file mover: `push` [`FileJob`]s while it is open,
/// then `close` it.
pub type FileMover<S> = Pool<S, FileJob>;

type FileFn<S> = Box<dyn FnMut(&mut Simulation<S>, &FileTiming)>;
type TraceFn = Box<dyn Fn(&str) -> Option<TraceContext>>;

struct Mover<S> {
    options: TransferOptions,
    obs: Option<Arc<Obs>>,
    trace_for: TraceFn,
    on_file: RefCell<FileFn<S>>,
    files: RefCell<Vec<FileTiming>>,
    failed: RefCell<Vec<String>>,
}

/// Open a mover of `options.parallel_streams` concurrent flows from `src`
/// to `dst`.
///
/// A file is attempted at most `options.retry_limit + 1` times, each retry
/// waiting out `options.backoff`; one that exhausts the budget is listed
/// in [`DownloadReport::failed`]. `on_file` fires once per delivered file,
/// as it lands; `on_done` fires once, after the mover is closed, when
/// every pushed file is delivered or abandoned.
///
/// With `obs`, each delivered file becomes a `download/file` span (tagged
/// with `trace_for(name)`) plus the `files`, `bytes`, `retries`,
/// `files_failed` and `files_abandoned` counters, a `file_attempts`
/// histogram and the `active_workers` gauge, all under stage `download` —
/// a shipment's caller records its own stage from the report instead.
#[allow(clippy::too_many_arguments)]
pub fn open_mover<S: HasNetwork>(
    sim: &mut Simulation<S>,
    src: &str,
    dst: &str,
    options: TransferOptions,
    obs: Option<Arc<Obs>>,
    trace_for: impl Fn(&str) -> Option<TraceContext> + 'static,
    on_file: impl FnMut(&mut Simulation<S>, &FileTiming) + 'static,
    on_done: impl FnOnce(&mut Simulation<S>, DownloadReport) + 'static,
) -> FileMover<S> {
    let mover = Rc::new(Mover {
        options,
        obs: obs.clone(),
        trace_for: Box::new(trace_for),
        on_file: RefCell::new(Box::new(on_file)),
        files: RefCell::new(Vec::new()),
        failed: RefCell::new(Vec::new()),
    });
    let (src, dst) = (src.to_string(), dst.to_string());
    let started = sim.now();
    let starter = Rc::clone(&mover);
    Pool::new(
        sim,
        options.parallel_streams,
        move |sim, pool: &FileMover<S>, slot, mut job: FileJob, attempt| {
            job.started.get_or_insert(sim.now());
            let (mover, pool) = (Rc::clone(&starter), pool.clone());
            start_flow(sim, &src, &dst, job.size, move |sim, outcome| {
                let verdict = mover.flow_done(sim, job, attempt, outcome);
                pool.complete(sim, slot, verdict);
            });
        },
        move |_, active| {
            if let Some(obs) = &obs {
                obs.gauge_set("active_workers", "download", active as f64);
            }
        },
        move |sim, summary| {
            let files = mover.files.take();
            let report = DownloadReport {
                bytes: files.iter().map(|f| f.size).sum(),
                files,
                failed: mover.failed.take(),
                started,
                finished: sim.now(),
                activity: summary.activity,
                retries: summary.requeues,
            };
            on_done(sim, report);
        },
    )
}

impl<S: HasNetwork> Mover<S> {
    /// One flow ended: record a delivery (timing, obs, delivered bytes,
    /// hook) or decide between retry and abandonment.
    fn flow_done(
        &self,
        sim: &mut Simulation<S>,
        job: FileJob,
        attempt: usize,
        outcome: FlowOutcome,
    ) -> Verdict<FileJob> {
        if outcome.is_success() {
            let timing = FileTiming {
                name: job.name,
                size: job.size,
                started: job.started.expect("set when the first attempt started"),
                finished: sim.now(),
                attempts: attempt,
            };
            if let Some(obs) = &self.obs {
                let trace = (self.trace_for)(&timing.name);
                obs.record_sim_span(
                    "download",
                    "file",
                    timing.started,
                    timing.finished,
                    trace.as_ref(),
                    &[
                        ("file", &timing.name),
                        ("attempts", &timing.attempts.to_string()),
                    ],
                );
                obs.counter_add("files", "download", 1);
                obs.counter_add("bytes", "download", timing.size.as_u64());
                obs.observe("file_attempts", "download", timing.attempts as f64);
            }
            self.files.borrow_mut().push(timing.clone());
            sim.state_mut().network().note_delivered(timing.size);
            (self.on_file.borrow_mut())(sim, &timing);
            return Verdict::Done;
        }
        // `attempt` is 1-based, so `attempt <= retry_limit` grants exactly
        // `retry_limit` retries beyond the first try, and retry number ==
        // attempt (attempt 1 failing earns retry 1).
        if attempt <= self.options.retry_limit {
            if let Some(obs) = &self.obs {
                obs.counter_add("retries", "download", 1);
            }
            let after = Duration::from_secs_f64(self.options.backoff.delay_s(attempt).max(0.0));
            return Verdict::Requeue { job, after };
        }
        if let Some(obs) = &self.obs {
            obs.counter_add("files_failed", "download", 1);
            // Abandonment is a health signal: this counter feeds the ops
            // plane's `health::evaluate`.
            obs.counter_add("files_abandoned", "download", 1);
        }
        self.failed.borrow_mut().push(job.name);
        Verdict::Abandon
    }
}
