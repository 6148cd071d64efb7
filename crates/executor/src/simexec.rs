//! Virtual-time batch execution on the cluster model.
//!
//! This is Parsl's worker pool seen from the simulator's side: a batch of
//! tasks (one per granule, work measured in tiles) is distributed over
//! `nodes × workers_per_node` worker slots; a slot that finishes a task
//! immediately pulls the next queued one. The slots, queue, requeues and
//! activity series are an `eoml-simtime` [`Pool`]; [`open_batch`] adds
//! the cluster tasks, the crash-retry verdict, per-task timing and the
//! per-task hook. The report carries everything the scaling figures need —
//! per-task timings, worker-activity change points, and total completion
//! time.

use eoml_cluster::exec::{submit_task, HasCluster};
use eoml_simtime::{Pool, SimTime, Simulation, Verdict};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

/// Start/end of one executed task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskTiming {
    /// Node the task ran on.
    pub node: usize,
    /// Task start.
    pub started: SimTime,
    /// Task end.
    pub finished: SimTime,
    /// Nominal work in tiles.
    pub tiles: f64,
}

/// Result of a batch run.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Batch submission time.
    pub started: SimTime,
    /// Last task completion.
    pub finished: SimTime,
    /// Per-task records in completion order.
    pub tasks: Vec<TaskTiming>,
    /// `(time, active workers)` change points.
    pub activity: Vec<(SimTime, usize)>,
    /// Total nominal tiles processed.
    pub total_tiles: f64,
    /// Re-executions caused by injected worker crashes.
    pub retries: usize,
    /// Tasks abandoned after exhausting the retry budget.
    pub abandoned: usize,
}

impl BatchReport {
    /// Completion time of the whole batch, seconds.
    pub fn completion_s(&self) -> f64 {
        (self.finished - self.started).as_secs_f64()
    }

    /// Aggregate throughput in tiles/s — the Table I metric.
    pub fn throughput(&self) -> f64 {
        let d = self.completion_s();
        if d <= 0.0 {
            return 0.0;
        }
        self.total_tiles / d
    }

    /// Peak concurrent workers.
    pub fn peak_workers(&self) -> usize {
        self.activity.iter().map(|&(_, w)| w).max().unwrap_or(0)
    }
}

/// Handle to an open task batch: `push` `(tag, tiles)` tasks while it is
/// open, then `close` it.
pub type TaskBatch<S, T> = Pool<S, (T, f64)>;

/// Open the one task batch: a [`Pool`] of `nodes × workers_per_node` worker
/// slots running tasks on the cluster model, with Parsl-style crash
/// retries. Slot `i` lives on `nodes[i % nodes.len()]`, so slots spread
/// node-major and a slot never changes node.
///
/// Each task execution crashes with probability `crash_probability` (the
/// work is lost and the task re-queued, up to `retry_limit` retries per
/// task, then abandoned) — the failure handling Parsl provides via app
/// retries. `on_active` hears every change of the busy-worker count;
/// `on_task` fires once per task that completes without crashing, with the
/// tag it was pushed under; `on_done` fires once, after the batch is
/// closed, when every pushed task has completed or been abandoned.
#[allow(clippy::too_many_arguments)]
pub fn open_batch<S: HasCluster, T: 'static>(
    sim: &mut Simulation<S>,
    nodes: Vec<usize>,
    workers_per_node: usize,
    crash_probability: f64,
    retry_limit: usize,
    on_active: impl Fn(&mut Simulation<S>, usize) + 'static,
    on_task: impl FnMut(&mut Simulation<S>, &T, &TaskTiming) + 'static,
    on_done: impl FnOnce(&mut Simulation<S>, BatchReport) + 'static,
) -> TaskBatch<S, T> {
    assert!(!nodes.is_empty() && workers_per_node > 0);
    assert!((0.0..1.0).contains(&crash_probability));
    let started = sim.now();
    let on_task = Rc::new(RefCell::new(on_task));
    let tasks = Rc::new(RefCell::new(Vec::new()));
    let done_tasks = Rc::clone(&tasks);
    Pool::new(
        sim,
        nodes.len() * workers_per_node,
        move |sim, pool: &TaskBatch<S, T>, slot, (tag, tiles): (T, f64), attempt| {
            let node = nodes[slot % nodes.len()];
            let task_started = sim.now();
            let (pool, on_task, tasks) = (pool.clone(), Rc::clone(&on_task), Rc::clone(&tasks));
            submit_task(sim, node, tiles, move |sim| {
                let p = crash_probability;
                let verdict = if p > 0.0 && sim.state_mut().cluster().chance(p) {
                    // `attempt` is 1-based: `attempt <= retry_limit` grants
                    // exactly `retry_limit` re-executions beyond the first.
                    if attempt <= retry_limit {
                        let job = (tag, tiles);
                        Verdict::Requeue {
                            job,
                            after: Duration::ZERO,
                        }
                    } else {
                        Verdict::Abandon
                    }
                } else {
                    let timing = TaskTiming {
                        node,
                        started: task_started,
                        finished: sim.now(),
                        tiles,
                    };
                    tasks.borrow_mut().push(timing);
                    sim.state_mut().cluster().note_tiles(tiles);
                    (on_task.borrow_mut())(sim, &tag, &timing);
                    Verdict::Done
                };
                pool.complete(sim, slot, verdict);
            });
        },
        on_active,
        move |sim, summary| {
            let tasks = done_tasks.take();
            let report = BatchReport {
                started,
                finished: sim.now(),
                total_tiles: tasks.iter().fold(0.0, |sum, t| sum + t.tiles),
                tasks,
                activity: summary.activity,
                retries: summary.requeues,
                abandoned: summary.abandoned,
            };
            on_done(sim, report);
        },
    )
}

/// Run a batch of `work` tasks (tiles each) over `workers_per_node` worker
/// slots on each of `nodes`. `on_done` fires when the queue drains.
pub fn run_batch<S: HasCluster>(
    sim: &mut Simulation<S>,
    nodes: Vec<usize>,
    workers_per_node: usize,
    work: Vec<f64>,
    on_done: impl FnOnce(&mut Simulation<S>, BatchReport) + 'static,
) {
    run_batch_faulty(sim, nodes, workers_per_node, work, 0.0, 0, on_done)
}

/// Like [`run_batch`], with worker-crash fault injection (see
/// [`open_batch`]).
pub fn run_batch_faulty<S: HasCluster>(
    sim: &mut Simulation<S>,
    nodes: Vec<usize>,
    workers_per_node: usize,
    work: Vec<f64>,
    crash_probability: f64,
    retry_limit: usize,
    on_done: impl FnOnce(&mut Simulation<S>, BatchReport) + 'static,
) {
    let batch = open_batch(
        sim,
        nodes,
        workers_per_node,
        crash_probability,
        retry_limit,
        |_, _| {},
        |_, _: &(), _| {},
        on_done,
    );
    for tiles in work {
        batch.push(sim, ((), tiles));
    }
    batch.close(sim);
}

#[cfg(test)]
mod tests {
    use super::*;
    use eoml_cluster::contention::ContentionModel;
    use eoml_cluster::exec::ClusterModel;
    use eoml_cluster::spec::ClusterSpec;

    struct St {
        cl: ClusterModel<St>,
        report: Option<BatchReport>,
    }

    impl HasCluster for St {
        fn cluster(&mut self) -> &mut ClusterModel<St> {
            &mut self.cl
        }
    }

    fn sim(nodes: usize, jitter: bool) -> Simulation<St> {
        let mut spec = ClusterSpec::defiant();
        spec.nodes = nodes;
        let model = ContentionModel {
            work_cv: if jitter { 0.25 } else { 0.0 },
            ..ContentionModel::defiant()
        };
        Simulation::new(St {
            cl: ClusterModel::new(spec, model, 77),
            report: None,
        })
    }

    fn run(
        s: &mut Simulation<St>,
        nodes: Vec<usize>,
        wpn: usize,
        files: usize,
        tiles: f64,
    ) -> BatchReport {
        run_batch(s, nodes, wpn, vec![tiles; files], |sim, r| {
            sim.state_mut().report = Some(r)
        });
        s.run();
        s.state().report.clone().expect("report")
    }

    #[test]
    fn batch_processes_all_tasks() {
        let mut s = sim(1, false);
        let r = run(&mut s, vec![0], 4, 16, 150.0);
        assert_eq!(r.tasks.len(), 16);
        assert!((r.total_tiles - 2400.0).abs() < 1e-9);
        assert_eq!(r.peak_workers(), 4);
        assert_eq!(r.activity.last().unwrap().1, 0);
    }

    #[test]
    fn throughput_matches_contention_model_when_saturated() {
        let mut s = sim(1, false);
        let r = run(&mut s, vec![0], 8, 64, 150.0);
        let model = ContentionModel::defiant();
        let expected = model.node_throughput(8);
        assert!(
            (r.throughput() - expected).abs() / expected < 0.03,
            "throughput {} vs {}",
            r.throughput(),
            expected
        );
    }

    #[test]
    fn more_nodes_scale_nearly_linearly() {
        let t1 = {
            let mut s = sim(10, false);
            run(&mut s, vec![0], 8, 80, 150.0).throughput()
        };
        let t10 = {
            let mut s = sim(10, false);
            run(&mut s, (0..10).collect(), 8, 80, 150.0).throughput()
        };
        let speedup = t10 / t1;
        assert!(
            (6.0..10.0).contains(&speedup),
            "10-node speedup {speedup} (t1={t1:.1}, t10={t10:.1})"
        );
    }

    #[test]
    fn worker_scaling_saturates_on_one_node() {
        let tp = |w: usize| {
            let mut s = sim(1, false);
            run(&mut s, vec![0], w, 128, 150.0).throughput()
        };
        let t1 = tp(1);
        let t8 = tp(8);
        let t32 = tp(32);
        assert!(
            t8 > 3.0 * t1,
            "1→8 workers should speed up ({t1:.1}→{t8:.1})"
        );
        assert!(
            t32 < t8 * 1.15,
            "8→32 workers should saturate ({t8:.1}→{t32:.1})"
        );
    }

    #[test]
    fn headline_12000_tiles_in_about_44s() {
        // 80 granules × 150 tiles = 12 000 tiles on 10 nodes × 8 workers.
        let mut s = sim(10, false);
        let r = run(&mut s, (0..10).collect(), 8, 80, 150.0);
        assert!((r.total_tiles - 12_000.0).abs() < 1e-9);
        let t = r.completion_s();
        assert!(
            (38.0..52.0).contains(&t),
            "12k tiles took {t:.1}s (paper: 44s)"
        );
    }

    #[test]
    fn jitter_changes_completion_but_not_task_count() {
        let mut s = sim(2, true);
        let r = run(&mut s, vec![0, 1], 4, 20, 150.0);
        assert_eq!(r.tasks.len(), 20);
        // Tasks have unequal durations under jitter.
        let durs: Vec<f64> = r
            .tasks
            .iter()
            .map(|t| (t.finished - t.started).as_secs_f64())
            .collect();
        let min = durs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = durs.iter().cloned().fold(0.0, f64::max);
        assert!(max > min * 1.1, "expected spread, got {min}..{max}");
    }

    #[test]
    fn activity_timeline_is_monotone_in_time() {
        let mut s = sim(2, false);
        let r = run(&mut s, vec![0, 1], 3, 10, 100.0);
        for w in r.activity.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
        assert_eq!(r.activity.first().unwrap().1, 0);
    }

    #[test]
    fn crashes_are_retried_and_work_completes() {
        let mut s = sim(2, false);
        run_batch_faulty(&mut s, vec![0, 1], 4, vec![150.0; 20], 0.3, 10, |sim, r| {
            sim.state_mut().report = Some(r)
        });
        s.run();
        let r = s.state().report.clone().expect("report");
        assert_eq!(r.tasks.len(), 20, "all tasks eventually succeed");
        assert!(r.retries > 0, "30% crash rate must trigger retries");
        assert_eq!(r.abandoned, 0);
        assert!((r.total_tiles - 3000.0).abs() < 1e-9);
    }

    #[test]
    fn retry_exhaustion_abandons_tasks() {
        let mut s = sim(1, false);
        run_batch_faulty(&mut s, vec![0], 2, vec![150.0; 4], 0.999, 2, |sim, r| {
            sim.state_mut().report = Some(r)
        });
        s.run();
        let r = s.state().report.clone().expect("report");
        assert!(r.abandoned > 0, "near-certain crashes exhaust retries");
        assert_eq!(r.tasks.len() + r.abandoned, 4);
    }

    #[test]
    fn zero_crash_probability_matches_plain_run_batch() {
        let run_with = |faulty: bool| {
            let mut s = sim(1, false);
            if faulty {
                run_batch_faulty(&mut s, vec![0], 4, vec![150.0; 12], 0.0, 3, |sim, r| {
                    sim.state_mut().report = Some(r)
                });
            } else {
                run_batch(&mut s, vec![0], 4, vec![150.0; 12], |sim, r| {
                    sim.state_mut().report = Some(r)
                });
            }
            s.run();
            s.state().report.clone().expect("report").completion_s()
        };
        assert_eq!(run_with(true), run_with(false));
    }

    #[test]
    fn empty_batch_finishes_immediately() {
        let mut s = sim(1, false);
        let r = run(&mut s, vec![0], 4, 0, 150.0);
        assert!(r.tasks.is_empty());
        assert_eq!(r.started, r.finished);
        assert_eq!(r.throughput(), 0.0);
    }
}
