//! A compute endpoint: registered functions run on the thread that submits
//! them.
//!
//! The endpoint starts no threads of its own: the caller's threads are its
//! workers (in the real driver, the wall-clock pool's, `eoml_util::pool`),
//! so a task's allocations stay with the thread that goes on to use its
//! output. A submission returns a [`TaskHandle`] that already holds the
//! task's result. Panics inside functions are captured and reported as task
//! failures, and the endpoint keeps serving.

use crate::registry::{FunctionId, FunctionRegistry};
use eoml_obs::{Obs, TraceContext};
use serde_json::Value;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
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

/// The future of one submitted task, Globus Compute style; the task has run
/// to the end by the time the handle is returned.
#[derive(Debug, Clone)]
pub struct TaskHandle {
    result: TaskResult,
}

impl TaskHandle {
    /// The task's result.
    pub fn wait(&self) -> TaskResult {
        self.result.clone()
    }
}

/// A named compute endpoint over a shared function registry, counting and
/// timing its tasks when observed.
pub struct ComputeEndpoint {
    name: String,
    registry: Arc<FunctionRegistry>,
    obs: Option<Arc<Obs>>,
}

impl ComputeEndpoint {
    /// Start an endpoint. The worker count has no effect: every task runs on
    /// the thread that submits it. The argument goes once the wall-clock
    /// benchmark's endpoint probe stops passing it (ROADMAP item 1(e)).
    pub fn start(
        name: impl Into<String>,
        registry: Arc<FunctionRegistry>,
        _workers: usize,
    ) -> Self {
        Self::start_observed(name, registry, None)
    }

    /// [`ComputeEndpoint::start`] with an observability hub: submissions,
    /// completions, and failures are counted under the `compute` stage,
    /// and each task feeds `queue_seconds` (submit → start) and
    /// `task_seconds` (execution) histograms.
    pub fn start_observed(
        name: impl Into<String>,
        registry: Arc<FunctionRegistry>,
        obs: Option<Arc<Obs>>,
    ) -> Self {
        Self {
            name: name.into(),
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

    /// Submit an invocation; returns the finished task's handle.
    pub fn submit(&self, func: FunctionId, args: Value) -> TaskHandle {
        self.submit_traced(func, args, None)
    }

    /// [`ComputeEndpoint::submit`] carrying a per-granule trace identity:
    /// when the endpoint is observed, the task's execution is recorded as a
    /// wall-clock `compute` span stamped with the trace, so the task joins
    /// that granule's end-to-end trace.
    pub fn submit_traced(
        &self,
        func: FunctionId,
        args: Value,
        trace: Option<&TraceContext>,
    ) -> TaskHandle {
        TaskHandle {
            result: self.run(func, args, trace),
        }
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

    /// Stop the endpoint. Every task has finished by the time its
    /// submission returns, so there is nothing to wait for.
    pub fn shutdown(self) {}

    /// Run one task on this thread.
    fn run(&self, func: FunctionId, args: Value, trace: Option<&TraceContext>) -> TaskResult {
        let (registry, obs, submitted) = (&self.registry, self.obs.as_deref(), Instant::now());
        if let Some(obs) = obs {
            obs.counter_add("tasks_submitted", "compute", 1);
        }
        // A traced task gets a wall-clock span so it joins the granule's
        // end-to-end trace; untraced tasks keep the histogram-only footprint
        // they always had.
        let guard = match (obs, trace) {
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
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

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
        // The endpoint still serves after a panic.
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
    fn every_endpoint_runs_tasks_on_the_submitting_thread() {
        let reg = registry_with_basics();
        let submitter = std::thread::current().id();
        reg.register("where", move |_| {
            Ok(json!(std::thread::current().id() == submitter))
        });
        let obs = Obs::shared();
        let observed =
            ComputeEndpoint::start_observed("inline", Arc::clone(&reg), Some(Arc::clone(&obs)));
        let trace = TraceContext::new("MOD.A2022001.0610");
        let here = observed.submit_by_name_traced("where", json!(null), Some(&trace));
        assert_eq!(here.unwrap().wait(), TaskResult::Success(json!(true)));
        let panicked = observed.submit_by_name("panic", json!(null)).unwrap();
        assert!(!panicked.wait().is_success(), "a panic is a failed task");
        drop(observed);
        let m = obs.metrics();
        assert_eq!(m.counter_value("tasks_submitted", "compute"), Some(2));
        assert_eq!(m.counter_value("tasks_completed", "compute"), Some(1));
        assert_eq!(m.counter_value("tasks_failed", "compute"), Some(1));
        let traced = obs.spans().into_iter().filter(|s| s.stage == "compute");
        assert_eq!(traced.count(), 1, "the traced task's span");
        // A worker count asks for no threads: the submitter still runs it.
        let counted = ComputeEndpoint::start("counted", reg, 2);
        let here = counted.submit_by_name("where", json!(null)).unwrap();
        assert_eq!(here.wait(), TaskResult::Success(json!(true)));
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
        let ep =
            ComputeEndpoint::start_observed("ace", registry_with_basics(), Some(Arc::clone(&obs)));
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
        let ep =
            ComputeEndpoint::start_observed("ace", registry_with_basics(), Some(Arc::clone(&obs)));
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
