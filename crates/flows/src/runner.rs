//! The flow runner: executes a definition against action providers,
//! recording a per-transition event log.

use crate::definition::{FlowDefinition, FlowState};
use serde_json::{Map, Value};
use std::collections::HashMap;
use std::fmt;
use std::ops::ControlFlow::{self, Break, Continue};

eoml_util::typed_id!(
    /// Identifier of a flow run.
    RunId,
    "run"
);

/// Something that can execute a named action.
pub trait ActionProvider {
    /// Execute `action` with resolved `params`; may read the run context.
    fn invoke(&mut self, action: &str, params: &Value, ctx: &Value) -> Result<Value, String>;
}

impl<F> ActionProvider for F
where
    F: FnMut(&str, &Value, &Value) -> Result<Value, String>,
{
    fn invoke(&mut self, action: &str, params: &Value, ctx: &Value) -> Result<Value, String> {
        self(action, params, ctx)
    }
}

/// Terminal status of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunStatus {
    /// Reached a `succeed` state.
    Succeeded,
    /// Reached a `fail` state or an action errored.
    Failed(String),
}

/// One entry in the run's event log.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowEvent {
    /// State name.
    pub state: String,
    /// Virtual seconds since run start when the state was entered.
    pub entered_at: f64,
    /// Virtual seconds spent in the state (action time, wait time, or the
    /// per-transition overhead for control states).
    pub duration: f64,
}

/// A completed flow run.
#[derive(Debug, Clone)]
pub struct FlowRun {
    /// Run id.
    pub id: RunId,
    /// Terminal status.
    pub status: RunStatus,
    /// Final context.
    pub context: Value,
    /// Per-state event log in execution order.
    pub events: Vec<FlowEvent>,
}

impl FlowRun {
    /// Total virtual duration of the run.
    pub fn total_duration(&self) -> f64 {
        self.events.iter().map(|e| e.duration).sum()
    }
}

/// Resolve `$.a.b` expressions against the context; non-`$.` values pass
/// through unchanged, and objects/arrays are resolved recursively.
fn resolve_params(params: &Value, ctx: &Value) -> Value {
    match params {
        Value::String(s) if s.starts_with("$.") => {
            lookup_path(ctx, &s[2..]).cloned().unwrap_or(Value::Null)
        }
        Value::Object(map) => Value::Object(
            map.iter()
                .map(|(k, v)| (k.clone(), resolve_params(v, ctx)))
                .collect::<Map<String, Value>>(),
        ),
        Value::Array(items) => Value::Array(items.iter().map(|v| resolve_params(v, ctx)).collect()),
        other => other.clone(),
    }
}

/// Dot-path lookup: `lookup_path(ctx, "a.b")` → `ctx["a"]["b"]`.
fn lookup_path<'a>(ctx: &'a Value, path: &str) -> Option<&'a Value> {
    let mut cur = ctx;
    for part in path.split('.') {
        cur = cur.get(part)?;
    }
    Some(cur)
}

/// Executes flows; holds the provider table and a per-transition overhead
/// model (virtual seconds added per state transition, matching the ~50 ms
/// Globus Flows action overhead).
pub struct FlowRunner<'a> {
    providers: HashMap<String, &'a mut dyn ActionProvider>,
    /// Virtual seconds charged per state transition.
    pub transition_overhead: f64,
    /// Safety limit on state transitions per run.
    pub max_steps: usize,
    next_run: u64,
}

impl fmt::Debug for FlowRunner<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FlowRunner")
            .field("providers", &self.providers.keys().collect::<Vec<_>>())
            .field("transition_overhead", &self.transition_overhead)
            .finish()
    }
}

impl<'a> FlowRunner<'a> {
    /// Runner with a 50 ms transition overhead and a 10 000-step limit.
    pub fn new() -> Self {
        Self {
            providers: HashMap::new(),
            transition_overhead: 0.05,
            max_steps: 10_000,
            next_run: 1,
        }
    }

    /// Register an action provider under `name`.
    pub fn register(&mut self, name: impl Into<String>, provider: &'a mut dyn ActionProvider) {
        self.providers.insert(name.into(), provider);
    }

    /// Execute one state of `flow`, mutating `ctx` in place. Returns the
    /// next state to enter or the terminal status, plus the virtual time
    /// spent in the state.
    fn step(&mut self, flow: &FlowDefinition, current: &str, ctx: &mut Value) -> (Step, f64) {
        let overhead = self.transition_overhead;
        match flow.states.get(current).expect("validated definition") {
            FlowState::Succeed => (Break(RunStatus::Succeeded), overhead),
            FlowState::Fail { error } => (Break(RunStatus::Failed(error.clone())), overhead),
            FlowState::Pass { next } => (Continue(next.clone()), overhead),
            FlowState::Wait { seconds, next } => (Continue(next.clone()), overhead + seconds),
            FlowState::Choice {
                variable,
                cases,
                default,
            } => {
                let path = variable.strip_prefix("$.").unwrap_or(variable);
                let actual = lookup_path(ctx, path).cloned().unwrap_or(Value::Null);
                let target = cases
                    .iter()
                    .find(|(v, _)| *v == actual)
                    .map(|(_, n)| n.clone())
                    .unwrap_or_else(|| default.clone());
                (Continue(target), overhead)
            }
            FlowState::Action {
                provider,
                parameters,
                result_path,
                next,
            } => {
                let resolved = resolve_params(parameters, ctx);
                let Some(p) = self.providers.get_mut(provider.as_str()) else {
                    let missing = format!("no provider named {provider:?}");
                    return (Break(RunStatus::Failed(missing)), overhead);
                };
                match p.invoke(provider, &resolved, ctx) {
                    Ok(result) => {
                        // Actions may report their own virtual
                        // duration via a `_duration` field.
                        let action_time = result
                            .get("_duration")
                            .and_then(Value::as_f64)
                            .unwrap_or(0.0);
                        if let Some(rp) = result_path {
                            ctx[rp.as_str()] = result;
                        }
                        (Continue(next.clone()), overhead + action_time)
                    }
                    Err(e) => (Break(RunStatus::Failed(e)), overhead),
                }
            }
        }
    }

    /// Execute `flow` with the given initial `input` (stored at
    /// `context.input`): states from `start_at` until a terminal one (or the
    /// step limit), each recorded in the run's event log.
    pub fn run(&mut self, flow: &FlowDefinition, input: Value) -> FlowRun {
        let id = RunId::from_raw(self.next_run);
        self.next_run += 1;
        let mut ctx = serde_json::json!({ "input": input });
        let mut current = flow.start_at.clone();
        let mut events = Vec::new();
        let mut clock = 0.0f64;
        let mut finished = None;
        for _ in 0..self.max_steps {
            let entered_at = clock;
            let (next, duration) = self.step(flow, &current, &mut ctx);
            events.push(FlowEvent {
                state: current,
                entered_at,
                duration,
            });
            match next {
                Break(status) => {
                    finished = Some(status);
                    break;
                }
                Continue(state) => {
                    clock += duration;
                    current = state;
                }
            }
        }
        let status = finished
            .unwrap_or_else(|| RunStatus::Failed(format!("exceeded {} steps", self.max_steps)));
        FlowRun {
            id,
            status,
            context: ctx,
            events,
        }
    }
}

/// Outcome of executing a single state: continue to the named state, or
/// stop with the run's terminal status.
type Step = ControlFlow<RunStatus, String>;

impl Default for FlowRunner<'_> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn linear_flow() -> FlowDefinition {
        FlowDefinition::from_json(&json!({
            "start_at": "A",
            "states": {
                "A": {"type": "action", "provider": "stamp",
                       "parameters": {"tag": "a", "file": "$.input.file"},
                       "result_path": "out_a", "next": "B"},
                "B": {"type": "action", "provider": "stamp",
                       "parameters": {"tag": "b", "prev": "$.out_a.tag"},
                       "result_path": "out_b", "next": "Done"},
                "Done": {"type": "succeed"}
            }
        }))
        .unwrap()
    }

    #[test]
    fn linear_flow_runs_and_threads_context() {
        let mut calls: Vec<Value> = Vec::new();
        let mut provider = |_: &str, params: &Value, _: &Value| {
            calls.push(params.clone());
            Ok(json!({"tag": params["tag"], "_duration": 1.0}))
        };
        let mut runner = FlowRunner::new();
        runner.register("stamp", &mut provider);
        let run = runner.run(&linear_flow(), json!({"file": "tiles.nc"}));
        assert_eq!(run.status, RunStatus::Succeeded);
        assert_eq!(run.events.len(), 3);
        assert_eq!(run.events[0].state, "A");
        assert_eq!(run.events[2].state, "Done");
        // Each action: 1.0 s body + 0.05 overhead; terminal adds overhead.
        assert!((run.total_duration() - 2.15).abs() < 1e-9);
        drop(runner);
        // Param resolution: B saw A's output through the context.
        assert_eq!(calls[1]["prev"], json!("a"));
        // Unresolvable paths become null.
        assert_eq!(calls[0]["file"], json!("tiles.nc"));
    }

    #[test]
    fn action_error_fails_run() {
        let mut provider = |_: &str, _: &Value, _: &Value| -> Result<Value, String> {
            Err("inference OOM".into())
        };
        let mut runner = FlowRunner::new();
        runner.register("stamp", &mut provider);
        let run = runner.run(&linear_flow(), json!({}));
        assert_eq!(run.status, RunStatus::Failed("inference OOM".into()));
        assert_eq!(run.events.len(), 1);
    }

    #[test]
    fn missing_provider_fails_run() {
        let mut runner = FlowRunner::new();
        let run = runner.run(&linear_flow(), json!({}));
        match run.status {
            RunStatus::Failed(e) => assert!(e.contains("no provider"), "{e}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn choice_branches_and_default() {
        let flow = FlowDefinition::from_json(&json!({
            "start_at": "C",
            "states": {
                "C": {"type": "choice", "variable": "$.input.kind",
                       "cases": [{"equals": "day", "next": "Day"}],
                       "default": "Night"},
                "Day": {"type": "succeed"},
                "Night": {"type": "fail", "error": "night granule"}
            }
        }))
        .unwrap();
        let mut runner = FlowRunner::new();
        assert_eq!(
            runner.run(&flow, json!({"kind": "day"})).status,
            RunStatus::Succeeded
        );
        assert_eq!(
            runner.run(&flow, json!({"kind": "night"})).status,
            RunStatus::Failed("night granule".into())
        );
        assert_eq!(
            runner.run(&flow, json!({})).status,
            RunStatus::Failed("night granule".into()),
            "missing variable takes default"
        );
    }

    #[test]
    fn wait_accumulates_time() {
        let flow = FlowDefinition::from_json(&json!({
            "start_at": "W",
            "states": {
                "W": {"type": "wait", "seconds": 2.5, "next": "Done"},
                "Done": {"type": "succeed"}
            }
        }))
        .unwrap();
        let mut runner = FlowRunner::new();
        let run = runner.run(&flow, json!({}));
        assert!(
            (run.total_duration() - 2.6).abs() < 1e-9,
            "{}",
            run.total_duration()
        );
    }

    #[test]
    fn infinite_loop_hits_step_limit() {
        let flow = FlowDefinition::from_json(&json!({
            "start_at": "A",
            "states": {
                "A": {"type": "pass", "next": "B"},
                "B": {"type": "pass", "next": "A"},
                "Done": {"type": "succeed"}
            }
        }));
        // Unreachable "Done" is rejected at validation, so build a loop that
        // includes a reachable-but-never-taken terminal via choice.
        let flow = match flow {
            Ok(f) => f,
            Err(_) => FlowDefinition::from_json(&json!({
                "start_at": "A",
                "states": {
                    "A": {"type": "choice", "variable": "$.never",
                           "cases": [{"equals": true, "next": "Done"}],
                           "default": "B"},
                    "B": {"type": "pass", "next": "A"},
                    "Done": {"type": "succeed"}
                }
            }))
            .unwrap(),
        };
        let mut runner = FlowRunner::new();
        runner.max_steps = 50;
        let run = runner.run(&flow, json!({}));
        match run.status {
            RunStatus::Failed(e) => assert!(e.contains("exceeded"), "{e}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn transition_overhead_is_50ms_by_default() {
        let runner = FlowRunner::new();
        assert!((runner.transition_overhead - 0.05).abs() < 1e-12);
    }

    #[test]
    fn resolve_params_handles_nesting() {
        let ctx = json!({"a": {"b": [1, 2, 3]}, "s": "x"});
        let params = json!({
            "direct": "$.a.b",
            "nested": {"v": "$.s"},
            "list": ["$.s", "literal"],
            "missing": "$.nope.deep",
            "plain": 42
        });
        let r = resolve_params(&params, &ctx);
        assert_eq!(r["direct"], json!([1, 2, 3]));
        assert_eq!(r["nested"]["v"], json!("x"));
        assert_eq!(r["list"], json!(["x", "literal"]));
        assert_eq!(r["missing"], Value::Null);
        assert_eq!(r["plain"], 42);
    }

    #[test]
    fn run_ids_increment() {
        let flow = FlowDefinition::from_json(&json!({
            "start_at": "Done",
            "states": {"Done": {"type": "succeed"}}
        }))
        .unwrap();
        let mut runner = FlowRunner::new();
        let a = runner.run(&flow, json!({}));
        let b = runner.run(&flow, json!({}));
        assert!(a.id < b.id);
    }
}
