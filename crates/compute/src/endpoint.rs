//! A compute endpoint: registered functions run on the thread that submits
//! them.
//!
//! The endpoint starts no threads of its own: the caller's threads are its
//! workers. A submission returns a [`TaskHandle`] that already holds the
//! task's result. Panics inside functions are captured and reported as task
//! failures, and the endpoint keeps serving.

use crate::registry::FunctionRegistry;
use serde_json::Value;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;

/// Terminal state of a submitted task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskResult {
    /// Function returned a value.
    Success(Value),
    /// Function returned an error or panicked.
    Failed(String),
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

/// A compute endpoint over a shared function registry.
pub struct ComputeEndpoint {
    registry: Arc<FunctionRegistry>,
}

impl ComputeEndpoint {
    /// Start an endpoint. The name and the worker count have no effect:
    /// every task runs on the thread that submits it. Both arguments go once
    /// the wall-clock benchmark's endpoint probe stops passing them (ROADMAP
    /// item 1(e)).
    pub fn start(
        _name: impl Into<String>,
        registry: Arc<FunctionRegistry>,
        _workers: usize,
    ) -> Self {
        Self { registry }
    }

    /// Submit an invocation of the latest version of function `name`;
    /// returns the finished task's handle.
    pub fn submit_by_name(&self, name: &str, args: Value) -> Result<TaskHandle, String> {
        let id = self
            .registry
            .lookup(name)
            .ok_or_else(|| format!("no function named {name:?}"))?;
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| self.registry.invoke(id, args)));
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
        Ok(TaskHandle { result })
    }

    /// Stop the endpoint. Every task has finished by the time its
    /// submission returns, so there is nothing to wait for.
    pub fn shutdown(self) {}
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
        // A worker count asks for no threads: the submitter still runs it.
        let counted = ComputeEndpoint::start("counted", reg, 2);
        let here = counted.submit_by_name("where", json!(null)).unwrap();
        assert_eq!(here.wait(), TaskResult::Success(json!(true)));
        let panicked = counted.submit_by_name("panic", json!(null)).unwrap();
        assert!(
            matches!(panicked.wait(), TaskResult::Failed(_)),
            "a panic is a failed task"
        );
    }
}
