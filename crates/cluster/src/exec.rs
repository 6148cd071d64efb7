//! Fluid task execution on the virtual cluster.
//!
//! Tasks are units of preprocessing/inference work measured in tiles. An
//! active task occupies one worker slot on a node and progresses at the
//! contention model's per-worker rate, which changes whenever any task
//! starts or finishes anywhere on the cluster — so, exactly like the
//! transfer flow network, progress is advanced and rates recomputed on
//! every change, and a single "next completion" event is kept scheduled.
//!
//! Active tasks are kept in the order they were submitted, and tasks that
//! finish in the same event fire their callbacks in that order. All tasks
//! on a node share one rate, so it is computed once per node per change.

use crate::contention::ContentionModel;
use crate::spec::ClusterSpec;
use eoml_simtime::{EventHandle, SimTime, Simulation};
use eoml_util::rng::{Rng64, Xoshiro256};

eoml_util::typed_id!(
    /// Identifier of a running cluster task.
    TaskId,
    "ctask"
);

/// Implemented by simulation states embedding a [`ClusterModel`].
pub trait HasCluster: Sized + 'static {
    /// Access the embedded cluster.
    fn cluster(&mut self) -> &mut ClusterModel<Self>;
}

type DoneFn<S> = Box<dyn FnOnce(&mut Simulation<S>)>;

struct Task<S> {
    node: usize,
    remaining: f64, // tiles
    rate: f64,      // tiles/s
    on_complete: DoneFn<S>,
}

/// The running cluster: occupancy, active tasks, statistics.
pub struct ClusterModel<S> {
    spec: ClusterSpec,
    model: ContentionModel,
    /// Active workers per node.
    occupancy: Vec<usize>,
    /// Active tasks, in submission order.
    tasks: Vec<Task<S>>,
    next_id: u64,
    completion_event: Option<EventHandle>,
    last_progress: SimTime,
    rng: Xoshiro256,
    tiles_done: f64,
    /// Per-worker rate of each node, refreshed on every change.
    node_rate: Vec<f64>,
    /// Callbacks of the tasks ending in one completion event.
    done: Vec<DoneFn<S>>,
}

impl<S> std::fmt::Debug for ClusterModel<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterModel")
            .field("cluster", &self.spec.name)
            .field("active_tasks", &self.tasks.len())
            .field("tiles_done", &self.tiles_done)
            .finish()
    }
}

impl<S> ClusterModel<S> {
    /// A cluster with the given spec, contention model and seed.
    pub fn new(spec: ClusterSpec, model: ContentionModel, seed: u64) -> Self {
        let nodes = spec.nodes;
        Self {
            spec,
            model,
            occupancy: vec![0; nodes],
            tasks: Vec::new(),
            next_id: 1,
            completion_event: None,
            last_progress: SimTime::ZERO,
            rng: Xoshiro256::seed_from(seed ^ 0x0C10_57E2),
            tiles_done: 0.0,
            node_rate: vec![0.0; nodes],
            done: Vec::new(),
        }
    }

    /// The cluster's static description.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// The contention model in effect.
    pub fn model(&self) -> &ContentionModel {
        &self.model
    }

    /// Number of active workers on `node`.
    pub fn node_occupancy(&self, node: usize) -> usize {
        self.occupancy[node]
    }

    /// Number of nodes with at least one active worker.
    pub fn active_nodes(&self) -> usize {
        self.occupancy.iter().filter(|&&w| w > 0).count()
    }

    /// Total active workers.
    pub fn active_workers(&self) -> usize {
        self.occupancy.iter().sum()
    }

    /// Tiles completed so far (including fractional progress of finished
    /// tasks only).
    pub fn tiles_done(&self) -> f64 {
        self.tiles_done
    }

    fn progress_to(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last_progress).as_secs_f64();
        if dt > 0.0 {
            for t in &mut self.tasks {
                t.remaining = (t.remaining - t.rate * dt).max(0.0);
            }
        }
        self.last_progress = now;
    }

    fn recompute_rates(&mut self) {
        let active_nodes = self.active_nodes();
        for (rate, &workers) in self.node_rate.iter_mut().zip(&self.occupancy) {
            if workers > 0 {
                *rate = self.model.per_worker_rate(workers, active_nodes);
            }
        }
        for t in &mut self.tasks {
            t.rate = self.node_rate[t.node];
        }
    }

    fn next_completion_in(&self) -> Option<std::time::Duration> {
        self.tasks
            .iter()
            .filter(|t| t.rate > 0.0)
            .map(|t| t.remaining / t.rate)
            .min_by(|a, b| a.partial_cmp(b).expect("finite"))
            .map(std::time::Duration::from_secs_f64)
    }
}

const COMPLETE_EPS: f64 = 1e-6;

/// Start a task of `work_tiles` tiles on `node`, occupying one worker slot.
/// Per-task work jitter (the contention model's `work_cv`) is applied here.
/// Tasks ending in the same event fire `on_complete` in submission order.
/// Panics if the node is out of range or already fully occupied (one worker
/// per core).
pub fn submit_task<S: HasCluster>(
    sim: &mut Simulation<S>,
    node: usize,
    work_tiles: f64,
    on_complete: impl FnOnce(&mut Simulation<S>) + 'static,
) -> TaskId {
    let now = sim.now();
    let cl = sim.state_mut().cluster();
    assert!(node < cl.spec.nodes, "node {node} out of range");
    assert!(
        cl.occupancy[node] < cl.spec.node.cores,
        "node {node} has no free cores"
    );
    let id = cl.next_id;
    cl.next_id += 1;
    let work = if cl.model.work_cv > 0.0 {
        cl.rng.lognormal_mean_cv(work_tiles, cl.model.work_cv)
    } else {
        work_tiles
    };
    cl.progress_to(now);
    cl.occupancy[node] += 1;
    cl.tasks.push(Task {
        node,
        remaining: work.max(1e-9),
        rate: 0.0,
        on_complete: Box::new(on_complete),
    });
    cl.recompute_rates();
    reschedule::<S>(sim);
    TaskId::from_raw(id)
}

fn reschedule<S: HasCluster>(sim: &mut Simulation<S>) {
    let now = sim.now();
    let cl = sim.state_mut().cluster();
    if let Some(h) = cl.completion_event.take() {
        sim.cancel(h);
    }
    let cl = sim.state_mut().cluster();
    if let Some(dt) = cl.next_completion_in() {
        let h = sim.schedule_at(now + dt, complete_due::<S>);
        sim.state_mut().cluster().completion_event = Some(h);
    }
}

fn complete_due<S: HasCluster>(sim: &mut Simulation<S>) {
    let now = sim.now();
    let cl = sim.state_mut().cluster();
    cl.completion_event = None;
    cl.progress_to(now);
    let mut done = std::mem::take(&mut cl.done);
    let mut i = 0;
    while i < cl.tasks.len() {
        if cl.tasks[i].remaining <= COMPLETE_EPS {
            let task = cl.tasks.remove(i);
            cl.occupancy[task.node] -= 1;
            done.push(task.on_complete);
        } else {
            i += 1;
        }
    }
    cl.recompute_rates();
    for cb in done.drain(..) {
        cb(sim);
    }
    sim.state_mut().cluster().done = done;
    reschedule::<S>(sim);
}

/// Record completed tiles (called by the executor layer, which knows the
/// logical tile counts).
impl<S> ClusterModel<S> {
    /// Add to the completed-tiles counter.
    pub fn note_tiles(&mut self, tiles: f64) {
        self.tiles_done += tiles;
    }

    /// Deterministic Bernoulli draw from the cluster's RNG stream — used by
    /// the executor layer for worker-crash fault injection.
    pub fn chance(&mut self, p: f64) -> bool {
        self.rng.chance(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    struct St {
        cl: ClusterModel<St>,
    }

    impl HasCluster for St {
        fn cluster(&mut self) -> &mut ClusterModel<St> {
            &mut self.cl
        }
    }

    fn sim(nodes: usize, model: ContentionModel) -> Simulation<St> {
        let mut spec = ClusterSpec::defiant();
        spec.nodes = nodes;
        Simulation::new(St {
            cl: ClusterModel::new(spec, model, 9),
        })
    }

    fn no_jitter() -> ContentionModel {
        ContentionModel {
            work_cv: 0.0,
            ..ContentionModel::defiant()
        }
    }

    #[test]
    fn single_task_duration_matches_model() {
        let mut s = sim(1, no_jitter());
        let done = Rc::new(RefCell::new(0.0));
        let d = Rc::clone(&done);
        submit_task(&mut s, 0, 150.0, move |sim| {
            *d.borrow_mut() = sim.now().as_secs_f64();
        });
        s.run();
        let expected = 150.0 / no_jitter().per_worker_rate(1, 1);
        assert!(
            (*done.borrow() - expected).abs() < 1e-6,
            "{} vs {expected}",
            *done.borrow()
        );
    }

    #[test]
    fn two_tasks_one_node_share_bandwidth() {
        let mut s = sim(2, no_jitter());
        let same = Rc::new(RefCell::new(Vec::new()));
        for _ in 0..2 {
            let same = Rc::clone(&same);
            submit_task(&mut s, 0, 150.0, move |sim| {
                same.borrow_mut().push(sim.now().as_secs_f64());
            });
        }
        s.run();
        let same_node_time = same.borrow()[1];

        let mut s = sim(2, no_jitter());
        let split = Rc::new(RefCell::new(Vec::new()));
        for node in 0..2 {
            let split = Rc::clone(&split);
            submit_task(&mut s, node, 150.0, move |sim| {
                split.borrow_mut().push(sim.now().as_secs_f64());
            });
        }
        s.run();
        let split_time = split.borrow()[1];
        assert!(
            same_node_time > split_time * 1.05,
            "same node {same_node_time} vs split {split_time}"
        );
    }

    #[test]
    fn occupancy_tracks_tasks() {
        let mut s = sim(2, no_jitter());
        submit_task(&mut s, 0, 1000.0, |_| {});
        submit_task(&mut s, 0, 1000.0, |_| {});
        submit_task(&mut s, 1, 1000.0, |_| {});
        {
            let cl = s.state_mut().cluster();
            assert_eq!(cl.node_occupancy(0), 2);
            assert_eq!(cl.node_occupancy(1), 1);
            assert_eq!(cl.active_nodes(), 2);
            assert_eq!(cl.active_workers(), 3);
        }
        s.run();
        let cl = s.state_mut().cluster();
        assert_eq!(cl.active_workers(), 0);
        assert_eq!(cl.active_nodes(), 0);
    }

    #[test]
    fn rates_rebalance_when_task_joins() {
        // Task A alone then joined by B on the same node: A slows down.
        // With the saturating model, adding the 2nd worker raises node
        // throughput from 10.70 to 18.45, so per-worker drops 10.70→9.22.
        let mut s = sim(1, no_jitter());
        let done = Rc::new(RefCell::new(Vec::new()));
        let d1 = Rc::clone(&done);
        submit_task(&mut s, 0, 107.0, move |sim| {
            d1.borrow_mut().push(("A", sim.now().as_secs_f64()));
        });
        let d2 = Rc::clone(&done);
        s.schedule_at(SimTime::from_secs_f64(5.0), move |sim| {
            let d2 = Rc::clone(&d2);
            submit_task(sim, 0, 92.2, move |sim| {
                d2.borrow_mut().push(("B", sim.now().as_secs_f64()));
            });
        });
        s.run();
        let m = no_jitter();
        let r1 = m.per_worker_rate(1, 1);
        let r2 = m.per_worker_rate(2, 1);
        // A: 5 s at r1 then (107 − 5·r1)/r2 more.
        let expect_a = 5.0 + (107.0 - 5.0 * r1) / r2;
        let f = done.borrow();
        let a = f.iter().find(|(n, _)| *n == "A").unwrap().1;
        assert!((a - expect_a).abs() < 0.05, "A at {a}, expected {expect_a}");
    }

    #[test]
    fn simultaneous_completions_fire_in_start_order() {
        // Four tasks of equal work on one node, no work jitter: all four
        // end in the same completion event, and their callbacks fire in
        // the order the tasks were submitted, in every repetition.
        for _ in 0..30 {
            let mut s = sim(1, no_jitter());
            let order = Rc::new(RefCell::new(Vec::new()));
            for i in 0..4 {
                let order = Rc::clone(&order);
                submit_task(&mut s, 0, 150.0, move |sim| {
                    order.borrow_mut().push((i, sim.now()));
                });
            }
            s.run();
            let order = order.borrow();
            let starts: Vec<u32> = order.iter().map(|&(i, _)| i).collect();
            assert_eq!(starts, [0, 1, 2, 3]);
            assert!(order.iter().all(|&(_, t)| t == order[0].1));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_node_panics() {
        let mut s = sim(1, no_jitter());
        submit_task(&mut s, 5, 1.0, |_| {});
    }

    #[test]
    fn core_limit_enforced() {
        let mut spec = ClusterSpec::tiny(1); // 8 cores
        spec.node.cores = 2;
        let mut s = Simulation::new(St {
            cl: ClusterModel::new(spec, no_jitter(), 1),
        });
        submit_task(&mut s, 0, 10.0, |_| {});
        submit_task(&mut s, 0, 10.0, |_| {});
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            submit_task(&mut s, 0, 10.0, |_| {});
        }));
        assert!(result.is_err(), "third task on a 2-core node must panic");
    }

    #[test]
    fn work_jitter_changes_durations_but_is_deterministic() {
        fn run(seed: u64) -> Vec<u64> {
            let mut spec = ClusterSpec::defiant();
            spec.nodes = 1;
            let mut s = Simulation::new(St {
                cl: ClusterModel::new(spec, ContentionModel::defiant(), seed),
            });
            let times = Rc::new(RefCell::new(Vec::new()));
            for _ in 0..5 {
                let times = Rc::clone(&times);
                submit_task(&mut s, 0, 150.0, move |sim| {
                    times.borrow_mut().push(sim.now().as_nanos());
                });
            }
            s.run();
            let v = times.borrow().clone();
            v
        }
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn many_tasks_throughput_approaches_model() {
        // Saturate one node with 8 always-busy workers processing 64 tasks;
        // aggregate throughput should approach node_throughput(8).
        let model = no_jitter();
        let mut s = sim(1, model);
        let remaining = Rc::new(RefCell::new(64usize));
        fn launch(sim: &mut Simulation<St>, remaining: &Rc<RefCell<usize>>) {
            if *remaining.borrow() == 0 {
                return;
            }
            *remaining.borrow_mut() -= 1;
            let r = Rc::clone(remaining);
            submit_task(sim, 0, 150.0, move |sim| {
                launch(sim, &r);
            });
        }
        for _ in 0..8 {
            launch(&mut s, &remaining);
        }
        s.run();
        let total_tiles = 64.0 * 150.0;
        let elapsed = s.now().as_secs_f64();
        let throughput = total_tiles / elapsed;
        let expected = model.node_throughput(8);
        assert!(
            (throughput - expected).abs() / expected < 0.02,
            "throughput {throughput} vs model {expected}"
        );
    }
}
