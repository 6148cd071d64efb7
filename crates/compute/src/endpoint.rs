//! A compute endpoint: a real worker pool executing registered functions.
//!
//! Submissions return a [`TaskHandle`] future; workers are OS threads fed
//! by a crossbeam channel, or — for an endpoint started without workers —
//! the submitting thread itself. Panics inside functions are captured and
//! reported as task failures rather than poisoning the pool.

use crate::registry::{FunctionId, FunctionRegistry};
use crossbeam::channel::{unbounded, Receiver, Sender};
use eoml_obs::{Obs, TraceContext};
use parking_lot::{Condvar, Mutex};
use serde_json::Value;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Terminal state of a submitted task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskResult {
    /// Function returned a value.
    Success(Value),
    /// Function returned an error or panicked.
    Failed(String),
}

impl TaskResult {
    /// Whether the task succeeded.
    pub fn is_success(&self) -> bool {
        matches!(self, TaskResult::Success(_))
    }
}

struct Slot {
    state: Mutex<Option<TaskResult>>,
    cond: Condvar,
}

/// A future for one submitted task.
#[derive(Clone)]
pub struct TaskHandle {
    slot: Arc<Slot>,
}

impl TaskHandle {
    fn new() -> Self {
        Self {
            slot: Arc::new(Slot {
                state: Mutex::new(None),
                cond: Condvar::new(),
            }),
        }
    }

    fn fulfill(&self, result: TaskResult) {
        let mut guard = self.slot.state.lock();
        *guard = Some(result);
        self.slot.cond.notify_all();
    }

    /// Block until the task completes and return its result.
    pub fn wait(&self) -> TaskResult {
        let mut guard = self.slot.state.lock();
        while guard.is_none() {
            self.slot.cond.wait(&mut guard);
        }
        guard.clone().expect("fulfilled")
    }
}

struct Task {
    func: FunctionId,
    args: Value,
    handle: TaskHandle,
    submitted: Instant,
    trace: Option<TraceContext>,
}

enum Job {
    Run(Task),
    Shutdown,
}

/// A compute endpoint with `workers` OS threads sharing a registry.
///
/// With no workers, [`ComputeEndpoint::submit`] runs each task to the end on
/// the thread that submits it, with the same accounting, and returns a
/// fulfilled handle: for a caller whose own threads are the workers, so a
/// task's allocations stay with the thread that goes on to use its output.
pub struct ComputeEndpoint {
    name: String,
    tx: Sender<Job>,
    workers: Vec<JoinHandle<()>>,
    registry: Arc<FunctionRegistry>,
    obs: Option<Arc<Obs>>,
}

impl ComputeEndpoint {
    /// Start an endpoint with the given worker count (0: tasks run on the
    /// submitting thread).
    pub fn start(name: impl Into<String>, registry: Arc<FunctionRegistry>, workers: usize) -> Self {
        Self::start_observed(name, registry, workers, None)
    }

    /// [`ComputeEndpoint::start`] with an observability hub: submissions,
    /// completions, and failures are counted under the `compute` stage,
    /// and each task feeds `queue_seconds` (submit → start) and
    /// `task_seconds` (execution) histograms.
    pub fn start_observed(
        name: impl Into<String>,
        registry: Arc<FunctionRegistry>,
        workers: usize,
        obs: Option<Arc<Obs>>,
    ) -> Self {
        let (tx, rx) = unbounded::<Job>();
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let rx: Receiver<Job> = rx.clone();
            let registry = Arc::clone(&registry);
            let obs = obs.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("compute-worker-{w}"))
                    .spawn(move || worker_loop(rx, registry, obs))
                    .expect("spawn worker"),
            );
        }
        Self {
            name: name.into(),
            tx,
            workers: handles,
            registry,
            obs,
        }
    }

    /// The endpoint's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The shared function registry.
    pub fn registry(&self) -> &Arc<FunctionRegistry> {
        &self.registry
    }

    /// Submit an invocation; returns immediately with a future.
    pub fn submit(&self, func: FunctionId, args: Value) -> TaskHandle {
        self.submit_traced(func, args, None)
    }

    /// [`ComputeEndpoint::submit`] carrying a per-granule trace identity:
    /// when the endpoint is observed, the worker records a wall-clock
    /// `compute` span for the execution stamped with the trace, so the
    /// task joins that granule's end-to-end trace.
    pub fn submit_traced(
        &self,
        func: FunctionId,
        args: Value,
        trace: Option<&TraceContext>,
    ) -> TaskHandle {
        let handle = TaskHandle::new();
        if let Some(obs) = &self.obs {
            obs.counter_add("tasks_submitted", "compute", 1);
        }
        let task = Task {
            func,
            args,
            handle: handle.clone(),
            submitted: Instant::now(),
            trace: trace.cloned(),
        };
        if self.workers.is_empty() {
            run(&self.registry, self.obs.as_deref(), task);
        } else {
            self.tx.send(Job::Run(task)).expect("endpoint alive");
        }
        handle
    }

    /// Submit by function name (latest version).
    pub fn submit_by_name(&self, name: &str, args: Value) -> Result<TaskHandle, String> {
        self.submit_by_name_traced(name, args, None)
    }

    /// [`ComputeEndpoint::submit_by_name`] carrying a per-granule trace
    /// identity (see [`ComputeEndpoint::submit_traced`]).
    pub fn submit_by_name_traced(
        &self,
        name: &str,
        args: Value,
        trace: Option<&TraceContext>,
    ) -> Result<TaskHandle, String> {
        let id = self
            .registry
            .lookup(name)
            .ok_or_else(|| format!("no function named {name:?}"))?;
        Ok(self.submit_traced(id, args, trace))
    }

    /// Drain and stop all workers (waits for in-flight tasks).
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for ComputeEndpoint {
    fn drop(&mut self) {
        for _ in 0..self.workers.len() {
            let _ = self.tx.send(Job::Shutdown);
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(rx: Receiver<Job>, registry: Arc<FunctionRegistry>, obs: Option<Arc<Obs>>) {
    while let Ok(Job::Run(task)) = rx.recv() {
        run(&registry, obs.as_deref(), task);
    }
}

/// Run one task on this thread and fulfill its handle.
fn run(registry: &FunctionRegistry, obs: Option<&Obs>, task: Task) {
    let Task {
        func,
        args,
        handle,
        submitted,
        trace,
    } = task;
    // A traced task gets a wall-clock span so it joins the granule's
    // end-to-end trace; untraced tasks keep the histogram-only footprint
    // they always had.
    let guard = match (obs, &trace) {
        (Some(obs), Some(trace)) => {
            let name = registry
                .describe(func)
                .map(|(n, _)| n)
                .unwrap_or_else(|| "task".to_string());
            let mut g = obs.span("compute", &name);
            g.set_trace(trace);
            Some(g)
        }
        _ => None,
    };
    let started = Instant::now();
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| registry.invoke(func, args)));
    drop(guard);
    let result = match outcome {
        Ok(Ok(v)) => TaskResult::Success(v),
        Ok(Err(e)) => TaskResult::Failed(e),
        Err(panic) => {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "function panicked".into());
            TaskResult::Failed(format!("panic: {msg}"))
        }
    };
    if let Some(obs) = obs {
        obs.observe(
            "queue_seconds",
            "compute",
            (started - submitted).as_secs_f64(),
        );
        obs.observe("task_seconds", "compute", started.elapsed().as_secs_f64());
        let counter = if result.is_success() {
            "tasks_completed"
        } else {
            "tasks_failed"
        };
        obs.counter_add(counter, "compute", 1);
    }
    handle.fulfill(result);
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn registry_with_basics() -> Arc<FunctionRegistry> {
        let reg = Arc::new(FunctionRegistry::new());
        reg.register("square", |v| {
            let x = v.as_i64().ok_or("not an int")?;
            Ok(json!(x * x))
        });
        reg.register("fail", |_| Err("nope".into()));
        reg.register("panic", |_| panic!("kaboom"));
        reg
    }

    #[test]
    fn submit_and_wait() {
        let ep = ComputeEndpoint::start("test", registry_with_basics(), 2);
        let h = ep.submit_by_name("square", json!(9)).unwrap();
        assert_eq!(h.wait(), TaskResult::Success(json!(81)));
        ep.shutdown();
    }

    #[test]
    fn many_tasks_across_workers() {
        let ep = ComputeEndpoint::start("test", registry_with_basics(), 4);
        let handles: Vec<TaskHandle> = (0..100)
            .map(|i| ep.submit_by_name("square", json!(i)).unwrap())
            .collect();
        for (i, h) in handles.iter().enumerate() {
            let i = i as i64;
            assert_eq!(h.wait(), TaskResult::Success(json!(i * i)));
        }
        ep.shutdown();
    }

    #[test]
    fn failures_and_panics_are_captured() {
        let ep = ComputeEndpoint::start("test", registry_with_basics(), 2);
        let f = ep.submit_by_name("fail", json!(null)).unwrap();
        assert_eq!(f.wait(), TaskResult::Failed("nope".into()));
        let p = ep.submit_by_name("panic", json!(null)).unwrap();
        match p.wait() {
            TaskResult::Failed(msg) => assert!(msg.contains("kaboom"), "{msg}"),
            other => panic!("expected failure, got {other:?}"),
        }
        // Pool still works after a panic.
        let ok = ep.submit_by_name("square", json!(3)).unwrap();
        assert_eq!(ok.wait(), TaskResult::Success(json!(9)));
        ep.shutdown();
    }

    #[test]
    fn unknown_function_name_rejected_at_submit() {
        let ep = ComputeEndpoint::start("test", registry_with_basics(), 1);
        assert!(ep.submit_by_name("nope", json!(null)).is_err());
        ep.shutdown();
    }

    #[test]
    fn tasks_really_run_in_parallel() {
        // Two tasks that each wait for the other's side effect can only
        // finish if two workers run them concurrently.
        let reg = Arc::new(FunctionRegistry::new());
        let counter = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&counter);
        reg.register("rendezvous", move |_| {
            c.fetch_add(1, Ordering::AcqRel);
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
            while c.load(Ordering::Acquire) < 2 {
                if std::time::Instant::now() > deadline {
                    return Err("deadlock: tasks did not overlap".into());
                }
                std::thread::yield_now();
            }
            Ok(json!("met"))
        });
        let ep = ComputeEndpoint::start("test", reg, 2);
        let a = ep.submit_by_name("rendezvous", json!(null)).unwrap();
        let b = ep.submit_by_name("rendezvous", json!(null)).unwrap();
        assert!(a.wait().is_success());
        assert!(b.wait().is_success());
        ep.shutdown();
    }

    #[test]
    fn an_endpoint_without_workers_runs_tasks_on_the_submitting_thread() {
        let reg = registry_with_basics();
        let submitter = std::thread::current().id();
        reg.register("where", move |_| {
            Ok(json!(std::thread::current().id() == submitter))
        });
        let obs = Obs::shared();
        let ep = ComputeEndpoint::start_observed("inline", reg, 0, Some(Arc::clone(&obs)));
        let trace = TraceContext::new("MOD.A2022001.0610");
        let here = ep.submit_by_name_traced("where", json!(null), Some(&trace));
        assert_eq!(here.unwrap().wait(), TaskResult::Success(json!(true)));
        let panicked = ep.submit_by_name("panic", json!(null)).unwrap();
        assert!(!panicked.wait().is_success(), "a panic is a failed task");
        drop(ep);
        let m = obs.metrics();
        assert_eq!(m.counter_value("tasks_submitted", "compute"), Some(2));
        assert_eq!(m.counter_value("tasks_completed", "compute"), Some(1));
        assert_eq!(m.counter_value("tasks_failed", "compute"), Some(1));
        let traced = obs.spans().into_iter().filter(|s| s.stage == "compute");
        assert_eq!(traced.count(), 1, "the traced task's span");
    }

    #[test]
    fn drop_shuts_down_cleanly() {
        let ep = ComputeEndpoint::start("test", registry_with_basics(), 3);
        let h = ep.submit_by_name("square", json!(4)).unwrap();
        assert_eq!(h.wait(), TaskResult::Success(json!(16)));
        drop(ep); // must not hang
    }

    #[test]
    fn endpoint_metadata() {
        let ep = ComputeEndpoint::start("ace", registry_with_basics(), 3);
        assert_eq!(ep.name(), "ace");
        assert_eq!(ep.registry().len(), 3);
        ep.shutdown();
    }

    #[test]
    fn traced_submissions_record_spans_joining_the_granule_trace() {
        let obs = Obs::shared();
        let ep = ComputeEndpoint::start_observed(
            "ace",
            registry_with_basics(),
            2,
            Some(Arc::clone(&obs)),
        );
        let trace = TraceContext::new("MOD.A2022001.0610");
        let traced = ep
            .submit_by_name_traced("square", json!(7), Some(&trace))
            .unwrap();
        let plain = ep.submit_by_name("square", json!(8)).unwrap();
        assert_eq!(traced.wait(), TaskResult::Success(json!(49)));
        assert_eq!(plain.wait(), TaskResult::Success(json!(64)));
        ep.shutdown();
        let spans = obs.spans();
        // Only the traced task records a span; it carries the trace id
        // and the function name.
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].stage, "compute");
        assert_eq!(spans[0].name, "square");
        assert_eq!(spans[0].trace_id.as_deref(), Some("MOD.A2022001.0610"));
    }

    #[test]
    fn observed_endpoint_counts_and_times_tasks() {
        let obs = Obs::shared();
        let ep = ComputeEndpoint::start_observed(
            "ace",
            registry_with_basics(),
            2,
            Some(Arc::clone(&obs)),
        );
        let handles: Vec<_> = (0..5)
            .map(|i| ep.submit_by_name("square", json!(i)).unwrap())
            .collect();
        let boom = ep.submit_by_name("fail", json!({})).unwrap();
        for h in &handles {
            assert!(h.wait().is_success());
        }
        assert!(!boom.wait().is_success());
        ep.shutdown();
        let counter = |name: &str| obs.metrics().counter_value(name, "compute").unwrap_or(0);
        assert_eq!(counter("tasks_submitted"), 6);
        assert_eq!(counter("tasks_completed"), 5);
        assert_eq!(counter("tasks_failed"), 1);
        let queue = obs.metrics().histogram("queue_seconds", "compute").unwrap();
        let exec = obs.metrics().histogram("task_seconds", "compute").unwrap();
        assert_eq!(queue.count(), 6);
        assert_eq!(exec.count(), 6);
    }
}
