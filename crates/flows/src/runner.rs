//! The flow runner: executes a definition against action providers,
//! recording a per-transition event log.

use crate::definition::{FlowDefinition, FlowState};
use eoml_journal::{Journal, JournalError, JournalEvent, Storage};
use eoml_obs::{Obs, TraceContext};
use serde_json::{Map, Value};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

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

impl RunStatus {
    /// Whether the run succeeded.
    pub fn is_success(&self) -> bool {
        matches!(self, RunStatus::Succeeded)
    }
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
pub fn resolve_params(params: &Value, ctx: &Value) -> Value {
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
pub fn lookup_path<'a>(ctx: &'a Value, path: &str) -> Option<&'a Value> {
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
    /// Optional observability hub: every state transition becomes a
    /// sim-stamped `flow` span, and action states additionally feed the
    /// `action_seconds{stage="flow"}` latency histogram.
    pub obs: Option<Arc<Obs>>,
    /// Trace identity stamped onto every span the *next* runs record.
    /// Set it (or use [`FlowRunner::run_traced`]) when a run processes a
    /// single granule so its flow hops join that granule's end-to-end
    /// trace.
    pub current_trace: Option<TraceContext>,
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
            obs: None,
            current_trace: None,
            next_run: 1,
        }
    }

    /// Attach an observability hub (see the `obs` field).
    pub fn with_obs(mut self, obs: Arc<Obs>) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Record one executed state into the hub, if attached: a
    /// `transitions` count, a `flow/<state>` span on the run's virtual
    /// clock, and per-action latency for action states.
    fn obs_event(&self, flow: &FlowDefinition, state: &str, entered_at: f64, duration: f64) {
        let Some(obs) = &self.obs else { return };
        obs.counter_add("transitions", "flow", 1);
        obs.record_sim_span_traced_secs(
            "flow",
            state,
            entered_at,
            entered_at + duration,
            self.current_trace.as_ref(),
        );
        if matches!(flow.states.get(state), Some(FlowState::Action { .. })) {
            obs.counter_add("actions", "flow", 1);
            obs.observe("action_seconds", "flow", duration);
        }
    }

    /// Register an action provider under `name`.
    pub fn register(&mut self, name: impl Into<String>, provider: &'a mut dyn ActionProvider) {
        self.providers.insert(name.into(), provider);
    }

    /// Execute one state of `flow`, mutating `ctx` in place. Returns either
    /// the terminal status or the next state to enter, plus the virtual time
    /// spent in the state.
    fn step(&mut self, flow: &FlowDefinition, current: &str, ctx: &mut Value) -> Step {
        let state = flow.states.get(current).expect("validated definition");
        match state {
            FlowState::Succeed => Step::Done {
                status: RunStatus::Succeeded,
                duration: self.transition_overhead,
            },
            FlowState::Fail { error } => Step::Done {
                status: RunStatus::Failed(error.clone()),
                duration: self.transition_overhead,
            },
            FlowState::Pass { next } => Step::Next {
                state: next.clone(),
                duration: self.transition_overhead,
            },
            FlowState::Wait { seconds, next } => Step::Next {
                state: next.clone(),
                duration: self.transition_overhead + seconds,
            },
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
                Step::Next {
                    state: target,
                    duration: self.transition_overhead,
                }
            }
            FlowState::Action {
                provider,
                parameters,
                result_path,
                next,
            } => {
                let resolved = resolve_params(parameters, ctx);
                match self.providers.get_mut(provider.as_str()) {
                    None => Step::Done {
                        status: RunStatus::Failed(format!("no provider named {provider:?}")),
                        duration: self.transition_overhead,
                    },
                    Some(p) => match p.invoke(provider, &resolved, ctx) {
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
                            Step::Next {
                                state: next.clone(),
                                duration: self.transition_overhead + action_time,
                            }
                        }
                        Err(e) => Step::Done {
                            status: RunStatus::Failed(e),
                            duration: self.transition_overhead,
                        },
                    },
                }
            }
        }
    }

    /// Execute `flow` as [`FlowRunner::run`] does, stamping every span the
    /// run records with `trace` so the hops join that granule's
    /// end-to-end trace. The trace is cleared again before returning.
    pub fn run_traced(
        &mut self,
        flow: &FlowDefinition,
        input: Value,
        trace: &TraceContext,
    ) -> FlowRun {
        self.current_trace = Some(trace.clone());
        let run = self.run(flow, input);
        self.current_trace = None;
        run
    }

    /// Execute `flow` with the given initial `input` (stored at
    /// `context.input`).
    pub fn run(&mut self, flow: &FlowDefinition, input: Value) -> FlowRun {
        let id = RunId::from_raw(self.next_run);
        self.next_run += 1;
        let mut ctx = serde_json::json!({ "input": input });
        let mut events = Vec::new();
        let mut clock = 0.0f64;
        let mut current = flow.start_at.clone();

        for _ in 0..self.max_steps {
            let entered_at = clock;
            match self.step(flow, &current, &mut ctx) {
                Step::Done { status, duration } => {
                    self.obs_event(flow, &current, entered_at, duration);
                    events.push(FlowEvent {
                        state: current,
                        entered_at,
                        duration,
                    });
                    return FlowRun {
                        id,
                        status,
                        context: ctx,
                        events,
                    };
                }
                Step::Next { state, duration } => {
                    clock += duration;
                    self.obs_event(flow, &current, entered_at, duration);
                    events.push(FlowEvent {
                        state: current.clone(),
                        entered_at,
                        duration,
                    });
                    current = state;
                }
            }
        }
        FlowRun {
            id,
            status: RunStatus::Failed(format!("exceeded {} steps", self.max_steps)),
            context: ctx,
            events,
        }
    }

    /// Execute `flow` against a write-ahead `journal`, resuming run `run`
    /// from its last journaled transition.
    ///
    /// Every state entry is journaled as a [`JournalEvent::FlowTransition`]
    /// carrying the context accumulated so far, and the terminal outcome as a
    /// [`JournalEvent::FlowFinished`]. On restart:
    ///
    /// - a run the journal records as finished returns its terminal status
    ///   immediately, invoking no providers (context is not retained past the
    ///   finish event and comes back as `Null`);
    /// - an in-flight run resumes from the last durable transition with the
    ///   journaled context — states before it are never re-executed, while
    ///   the state that was in flight at the crash re-runs (at-least-once,
    ///   as with any write-ahead log).
    ///
    /// A failed append aborts the run with the journal's error; nothing past
    /// the failure is executed.
    pub fn run_journaled<S: Storage>(
        &mut self,
        flow: &FlowDefinition,
        input: Value,
        journal: &mut Journal<S>,
        run: u64,
    ) -> Result<FlowRun, JournalError> {
        let id = RunId::from_raw(run);
        if let Some(status) = journal.state().flows_finished.get(&run) {
            let status = match status.strip_prefix("failed:") {
                Some(e) => RunStatus::Failed(e.to_string()),
                None => RunStatus::Succeeded,
            };
            return Ok(FlowRun {
                id,
                status,
                context: Value::Null,
                events: Vec::new(),
            });
        }
        let (mut current, mut ctx) = match journal.state().flow_states.get(&run) {
            Some((state, context)) => (state.clone(), context.clone()),
            None => {
                let ctx = serde_json::json!({ "input": input });
                journal.append(JournalEvent::FlowTransition {
                    run,
                    state: flow.start_at.clone(),
                    context: ctx.clone(),
                })?;
                (flow.start_at.clone(), ctx)
            }
        };
        let mut events = Vec::new();
        let mut clock = 0.0f64;
        for _ in 0..self.max_steps {
            let entered_at = clock;
            match self.step(flow, &current, &mut ctx) {
                Step::Done { status, duration } => {
                    self.obs_event(flow, &current, entered_at, duration);
                    events.push(FlowEvent {
                        state: current,
                        entered_at,
                        duration,
                    });
                    let tag = match &status {
                        RunStatus::Succeeded => "succeeded".to_string(),
                        RunStatus::Failed(e) => format!("failed:{e}"),
                    };
                    journal.append(JournalEvent::FlowFinished { run, status: tag })?;
                    return Ok(FlowRun {
                        id,
                        status,
                        context: ctx,
                        events,
                    });
                }
                Step::Next { state, duration } => {
                    clock += duration;
                    self.obs_event(flow, &current, entered_at, duration);
                    events.push(FlowEvent {
                        state: current.clone(),
                        entered_at,
                        duration,
                    });
                    journal.append(JournalEvent::FlowTransition {
                        run,
                        state: state.clone(),
                        context: ctx.clone(),
                    })?;
                    current = state;
                }
            }
        }
        let status = RunStatus::Failed(format!("exceeded {} steps", self.max_steps));
        journal.append(JournalEvent::FlowFinished {
            run,
            status: format!("failed:exceeded {} steps", self.max_steps),
        })?;
        Ok(FlowRun {
            id,
            status,
            context: ctx,
            events,
        })
    }
}

/// Outcome of executing a single state.
enum Step {
    /// The run reached a terminal state (or failed).
    Done { status: RunStatus, duration: f64 },
    /// Continue to the named state.
    Next { state: String, duration: f64 },
}

impl Default for FlowRunner<'_> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn observed_runner_records_transitions_and_action_latency() {
        let obs = Obs::shared();
        let mut stamp = |_: &str, params: &Value, _: &Value| {
            let mut out = params.clone();
            out["_duration"] = json!(0.25);
            Ok(out)
        };
        let flow = linear_flow();
        let run = {
            let mut runner = FlowRunner::new().with_obs(Arc::clone(&obs));
            runner.register("stamp", &mut stamp);
            runner.run(&flow, json!({"file": "g1.eogr"}))
        };
        assert!(run.status.is_success());
        let m = obs.metrics();
        assert_eq!(
            m.counter_value("transitions", "flow"),
            Some(run.events.len() as u64)
        );
        assert_eq!(m.counter_value("actions", "flow"), Some(2));
        let h = m.histogram("action_seconds", "flow").unwrap();
        assert_eq!(h.count(), 2);
        // Each action: 50 ms overhead + 250 ms body.
        assert!((h.sum() - 0.6).abs() < 1e-9, "sum {}", h.sum());
        // One sim-stamped span per executed state, on the run's clock.
        let spans = obs.spans();
        assert_eq!(spans.len(), run.events.len());
        assert!(spans
            .iter()
            .all(|s| s.stage == "flow" && s.sim_start.is_some()));
        let total: f64 = spans.iter().map(|s| s.sim_seconds().unwrap()).sum();
        assert!((total - run.total_duration()).abs() < 1e-6);
    }

    #[test]
    fn traced_run_stamps_every_span_and_clears_the_trace() {
        let obs = Obs::shared();
        let mut stamp = |_: &str, params: &Value, _: &Value| {
            let mut out = params.clone();
            out["_duration"] = json!(0.25);
            Ok(out)
        };
        let flow = linear_flow();
        let mut runner = FlowRunner::new().with_obs(Arc::clone(&obs));
        runner.register("stamp", &mut stamp);
        let trace = TraceContext::new("MOD.A2022001.0610");
        let traced = runner.run_traced(&flow, json!({"file": "g1.eogr"}), &trace);
        assert!(traced.status.is_success());
        assert!(runner.current_trace.is_none(), "trace not cleared");
        // A later plain run must NOT inherit the previous trace.
        let plain = runner.run(&flow, json!({"file": "g2.eogr"}));
        assert!(plain.status.is_success());
        let spans = obs.spans();
        assert_eq!(spans.len(), traced.events.len() + plain.events.len());
        let tagged: Vec<_> = spans
            .iter()
            .filter(|s| s.trace_id.as_deref() == Some("MOD.A2022001.0610"))
            .collect();
        assert_eq!(tagged.len(), traced.events.len());
        assert!(spans[spans.len() - 1].trace_id.is_none());
    }

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
        assert!(run.status.is_success());
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
        assert!(runner
            .run(&flow, json!({"kind": "day"}))
            .status
            .is_success());
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
    fn journaled_run_without_crash_matches_plain() {
        use eoml_journal::MemStorage;
        let mut provider = |_: &str, params: &Value, _: &Value| {
            Ok(json!({"tag": params["tag"], "_duration": 1.0}))
        };
        let plain = {
            let mut p = provider;
            let mut runner = FlowRunner::new();
            runner.register("stamp", &mut p);
            runner.run(&linear_flow(), json!({"file": "tiles.nc"}))
        };
        let (mut journal, _) = Journal::open(MemStorage::new()).unwrap();
        let mut runner = FlowRunner::new();
        runner.register("stamp", &mut provider);
        let journaled = runner
            .run_journaled(&linear_flow(), json!({"file": "tiles.nc"}), &mut journal, 7)
            .unwrap();
        assert_eq!(journaled.status, plain.status);
        assert_eq!(journaled.context, plain.context);
        assert_eq!(journaled.events.len(), plain.events.len());
        assert_eq!(journal.state().flows_finished.get(&7).unwrap(), "succeeded");
    }

    #[test]
    fn crashed_flow_resumes_from_last_transition() {
        use eoml_journal::MemStorage;
        use std::cell::Cell;
        let invocations = Cell::new(0usize);
        let mut provider = |_: &str, params: &Value, _: &Value| {
            invocations.set(invocations.get() + 1);
            Ok(json!({"tag": params["tag"], "_duration": 1.0}))
        };
        let baseline = {
            let mut p = |_: &str, params: &Value, _: &Value| -> Result<Value, String> {
                Ok(json!({"tag": params["tag"], "_duration": 1.0}))
            };
            let mut runner = FlowRunner::new();
            runner.register("stamp", &mut p);
            runner.run(&linear_flow(), json!({"file": "tiles.nc"}))
        };

        let store = MemStorage::new();
        let (mut journal, _) = Journal::open(store.clone()).unwrap();
        // Durable budget: start transition + A's successor transition, then
        // crash journaling the transition out of B.
        journal.crash_after(2);
        let mut runner = FlowRunner::new();
        runner.register("stamp", &mut provider);
        let crashed =
            runner.run_journaled(&linear_flow(), json!({"file": "tiles.nc"}), &mut journal, 7);
        assert!(crashed.is_err());
        let ran_before_crash = invocations.get();
        assert!(ran_before_crash >= 1, "crash fired before any state ran");

        let (mut journal, recovery) = Journal::open(store).unwrap();
        assert_eq!(recovery.events, 2);
        let resumed = runner
            .run_journaled(&linear_flow(), json!({"file": "tiles.nc"}), &mut journal, 7)
            .unwrap();
        assert_eq!(resumed.status, baseline.status);
        assert_eq!(resumed.context, baseline.context);
        // The durable prefix (state A) is skipped: the resumed run replays
        // fewer states than the full flow.
        assert!(resumed.events.len() < baseline.events.len());
        assert_eq!(journal.state().flows_finished.get(&7).unwrap(), "succeeded");
    }

    #[test]
    fn finished_flow_is_not_reexecuted() {
        use eoml_journal::MemStorage;
        use std::cell::Cell;
        let invocations = Cell::new(0usize);
        let mut provider = |_: &str, params: &Value, _: &Value| {
            invocations.set(invocations.get() + 1);
            Ok(json!({"tag": params["tag"], "_duration": 1.0}))
        };
        let (mut journal, _) = Journal::open(MemStorage::new()).unwrap();
        let mut runner = FlowRunner::new();
        runner.register("stamp", &mut provider);
        let first = runner
            .run_journaled(&linear_flow(), json!({"file": "tiles.nc"}), &mut journal, 3)
            .unwrap();
        let after_first = invocations.get();
        let again = runner
            .run_journaled(&linear_flow(), json!({"file": "tiles.nc"}), &mut journal, 3)
            .unwrap();
        assert_eq!(
            invocations.get(),
            after_first,
            "finished flow re-invoked providers"
        );
        assert_eq!(again.status, first.status);
        assert!(again.events.is_empty());
    }

    #[test]
    fn journaled_failure_status_round_trips() {
        use eoml_journal::MemStorage;
        let flow = FlowDefinition::from_json(&json!({
            "start_at": "Boom",
            "states": {"Boom": {"type": "fail", "error": "night granule"}}
        }))
        .unwrap();
        let (mut journal, _) = Journal::open(MemStorage::new()).unwrap();
        let mut runner = FlowRunner::new();
        let first = runner
            .run_journaled(&flow, json!({}), &mut journal, 9)
            .unwrap();
        assert_eq!(first.status, RunStatus::Failed("night granule".into()));
        let again = runner
            .run_journaled(&flow, json!({}), &mut journal, 9)
            .unwrap();
        assert_eq!(again.status, RunStatus::Failed("night granule".into()));
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
