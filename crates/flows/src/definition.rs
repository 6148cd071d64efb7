//! Flow definitions: a JSON state machine in the style of Globus Flows /
//! Amazon States Language.
//!
//! ```json
//! {
//!   "start_at": "Infer",
//!   "states": {
//!     "Infer":  { "type": "action", "provider": "inference",
//!                  "parameters": {"file": "$.input.file"},
//!                  "result_path": "labels", "next": "Append" },
//!     "Append": { "type": "action", "provider": "append_labels",
//!                  "parameters": {"file": "$.input.file"}, "next": "Done" },
//!     "Done":   { "type": "succeed" }
//!   }
//! }
//! ```

use serde_json::Value;
use std::collections::BTreeMap;
use std::fmt;

/// One state in a flow.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum FlowState {
    /// Invoke an action provider.
    Action {
        /// Provider name to invoke.
        provider: String,
        /// Parameter template (strings of the form `$.a.b` are resolved
        /// against the run context).
        parameters: Value,
        /// Context key to store the action result under (optional).
        result_path: Option<String>,
        /// Next state.
        next: String,
    },
    /// Branch on a context value.
    Choice {
        /// `$.path` expression to evaluate.
        variable: String,
        /// `(expected value, next state)` cases, checked in order.
        cases: Vec<(Value, String)>,
        /// State when no case matches.
        default: String,
    },
    /// Delay (virtual seconds, recorded in the event log).
    Wait {
        /// Seconds to wait.
        seconds: f64,
        /// Next state.
        next: String,
    },
    /// No-op passthrough.
    Pass {
        /// Next state.
        next: String,
    },
    /// Terminal success.
    Succeed,
    /// Terminal failure.
    Fail {
        /// Error description.
        error: String,
    },
}

impl FlowState {
    fn next_states(&self) -> Vec<&str> {
        match self {
            FlowState::Action { next, .. }
            | FlowState::Wait { next, .. }
            | FlowState::Pass { next } => {
                vec![next]
            }
            FlowState::Choice { cases, default, .. } => {
                let mut v: Vec<&str> = cases.iter().map(|(_, n)| n.as_str()).collect();
                v.push(default);
                v
            }
            FlowState::Succeed | FlowState::Fail { .. } => Vec::new(),
        }
    }
}

/// A validated flow definition.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowDefinition {
    /// Initial state name.
    pub(crate) start_at: String,
    /// States by name (ordered map for deterministic iteration).
    pub(crate) states: BTreeMap<String, FlowState>,
}

/// Definition parse/validation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum DefinitionError {
    /// Top-level JSON is not an object or misses a field.
    Malformed(String),
    /// A state references an undefined state.
    DanglingNext {
        /// Referencing state.
        from: String,
        /// Missing target.
        to: String,
    },
    /// `start_at` names an undefined state.
    BadStart(String),
    /// No terminal (`succeed`/`fail`) state exists.
    NoTerminal,
    /// A state is unreachable from `start_at`.
    Unreachable(String),
}

impl fmt::Display for DefinitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DefinitionError::Malformed(m) => write!(f, "malformed flow definition: {m}"),
            DefinitionError::DanglingNext { from, to } => {
                write!(f, "state {from:?} references undefined state {to:?}")
            }
            DefinitionError::BadStart(s) => write!(f, "start_at names undefined state {s:?}"),
            DefinitionError::NoTerminal => write!(f, "flow has no succeed/fail state"),
            DefinitionError::Unreachable(s) => write!(f, "state {s:?} is unreachable"),
        }
    }
}

impl std::error::Error for DefinitionError {}

fn malformed(m: impl Into<String>) -> DefinitionError {
    DefinitionError::Malformed(m.into())
}

impl FlowDefinition {
    /// Parse and validate a JSON definition.
    pub(crate) fn from_json(doc: &Value) -> Result<Self, DefinitionError> {
        let obj = doc.as_object().ok_or_else(|| malformed("not an object"))?;
        let start_at = obj
            .get("start_at")
            .and_then(Value::as_str)
            .ok_or_else(|| malformed("missing start_at"))?
            .to_string();
        let states_obj = obj
            .get("states")
            .and_then(Value::as_object)
            .ok_or_else(|| malformed("missing states object"))?;
        let mut states = BTreeMap::new();
        for (name, s) in states_obj {
            states.insert(name.clone(), Self::parse_state(name, s)?);
        }
        let def = FlowDefinition { start_at, states };
        def.validate()?;
        Ok(def)
    }

    /// Parse from a JSON string.
    fn from_json_str(src: &str) -> Result<Self, DefinitionError> {
        let doc: Value =
            serde_json::from_str(src).map_err(|e| malformed(format!("bad JSON: {e}")))?;
        Self::from_json(&doc)
    }

    fn parse_state(name: &str, s: &Value) -> Result<FlowState, DefinitionError> {
        let obj = s
            .as_object()
            .ok_or_else(|| malformed(format!("state {name:?} is not an object")))?;
        let ty = obj
            .get("type")
            .and_then(Value::as_str)
            .ok_or_else(|| malformed(format!("state {name:?} missing type")))?;
        let next = |key: &str| -> Result<String, DefinitionError> {
            obj.get(key)
                .and_then(Value::as_str)
                .map(str::to_owned)
                .ok_or_else(|| malformed(format!("state {name:?} missing {key:?}")))
        };
        Ok(match ty {
            "action" => FlowState::Action {
                provider: next("provider")?,
                parameters: obj.get("parameters").cloned().unwrap_or(Value::Null),
                result_path: obj
                    .get("result_path")
                    .and_then(Value::as_str)
                    .map(str::to_owned),
                next: next("next")?,
            },
            "choice" => {
                let variable = next("variable")?;
                let cases = obj
                    .get("cases")
                    .and_then(Value::as_array)
                    .ok_or_else(|| malformed(format!("state {name:?} missing cases")))?
                    .iter()
                    .map(|c| {
                        let co = c
                            .as_object()
                            .ok_or_else(|| malformed("case is not an object"))?;
                        let value = co
                            .get("equals")
                            .cloned()
                            .ok_or_else(|| malformed("case missing equals"))?;
                        let nxt = co
                            .get("next")
                            .and_then(Value::as_str)
                            .ok_or_else(|| malformed("case missing next"))?;
                        Ok((value, nxt.to_string()))
                    })
                    .collect::<Result<Vec<_>, DefinitionError>>()?;
                FlowState::Choice {
                    variable,
                    cases,
                    default: next("default")?,
                }
            }
            "wait" => FlowState::Wait {
                seconds: obj
                    .get("seconds")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| malformed(format!("state {name:?} missing seconds")))?,
                next: next("next")?,
            },
            "pass" => FlowState::Pass {
                next: next("next")?,
            },
            "succeed" => FlowState::Succeed,
            "fail" => FlowState::Fail {
                error: obj
                    .get("error")
                    .and_then(Value::as_str)
                    .unwrap_or("failed")
                    .to_string(),
            },
            other => {
                return Err(malformed(format!(
                    "state {name:?} has unknown type {other:?}"
                )))
            }
        })
    }

    fn validate(&self) -> Result<(), DefinitionError> {
        if !self.states.contains_key(&self.start_at) {
            return Err(DefinitionError::BadStart(self.start_at.clone()));
        }
        if !self
            .states
            .values()
            .any(|s| matches!(s, FlowState::Succeed | FlowState::Fail { .. }))
        {
            return Err(DefinitionError::NoTerminal);
        }
        for (name, state) in &self.states {
            for nxt in state.next_states() {
                if !self.states.contains_key(nxt) {
                    return Err(DefinitionError::DanglingNext {
                        from: name.clone(),
                        to: nxt.to_string(),
                    });
                }
            }
        }
        // Reachability from start.
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![self.start_at.as_str()];
        while let Some(s) = stack.pop() {
            if !seen.insert(s.to_string()) {
                continue;
            }
            for nxt in self.states[s].next_states() {
                stack.push(nxt);
            }
        }
        for name in self.states.keys() {
            if !seen.contains(name) {
                return Err(DefinitionError::Unreachable(name.clone()));
            }
        }
        Ok(())
    }

    /// The paper's monitor-and-trigger inference flow: crawl result in the
    /// context → inference → append labels → move to transfer-out.
    pub fn inference_flow() -> Self {
        Self::from_json_str(
            r#"{
              "start_at": "Infer",
              "states": {
                "Infer": {
                  "type": "action", "provider": "inference",
                  "parameters": {"file": "$.input.file"},
                  "result_path": "labels", "next": "Append"
                },
                "Append": {
                  "type": "action", "provider": "append_labels",
                  "parameters": {"file": "$.input.file", "labels": "$.labels"},
                  "next": "Move"
                },
                "Move": {
                  "type": "action", "provider": "move_to_outbox",
                  "parameters": {"file": "$.input.file"},
                  "next": "Done"
                },
                "Done": {"type": "succeed"}
              }
            }"#,
        )
        .expect("built-in flow is valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn inference_flow_is_valid() {
        let f = FlowDefinition::inference_flow();
        assert_eq!(f.start_at, "Infer");
        assert_eq!(f.states.len(), 4);
        assert!(matches!(f.states["Done"], FlowState::Succeed));
    }

    #[test]
    fn dangling_next_rejected() {
        let doc = json!({
            "start_at": "A",
            "states": {
                "A": {"type": "pass", "next": "Missing"},
                "B": {"type": "succeed"}
            }
        });
        match FlowDefinition::from_json(&doc) {
            Err(DefinitionError::DanglingNext { from, to }) => {
                assert_eq!(from, "A");
                assert_eq!(to, "Missing");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bad_start_rejected() {
        let doc = json!({
            "start_at": "Nope",
            "states": {"A": {"type": "succeed"}}
        });
        assert_eq!(
            FlowDefinition::from_json(&doc),
            Err(DefinitionError::BadStart("Nope".into()))
        );
    }

    #[test]
    fn no_terminal_rejected() {
        let doc = json!({
            "start_at": "A",
            "states": {
                "A": {"type": "pass", "next": "B"},
                "B": {"type": "pass", "next": "A"}
            }
        });
        assert_eq!(
            FlowDefinition::from_json(&doc),
            Err(DefinitionError::NoTerminal)
        );
    }

    #[test]
    fn unreachable_state_rejected() {
        let doc = json!({
            "start_at": "A",
            "states": {
                "A": {"type": "succeed"},
                "Orphan": {"type": "succeed"}
            }
        });
        assert_eq!(
            FlowDefinition::from_json(&doc),
            Err(DefinitionError::Unreachable("Orphan".into()))
        );
    }

    #[test]
    fn choice_parses() {
        let doc = json!({
            "start_at": "C",
            "states": {
                "C": {
                    "type": "choice", "variable": "$.kind",
                    "cases": [
                        {"equals": "day", "next": "Day"},
                        {"equals": "night", "next": "Night"}
                    ],
                    "default": "Night"
                },
                "Day": {"type": "succeed"},
                "Night": {"type": "fail", "error": "no daylight"}
            }
        });
        let f = FlowDefinition::from_json(&doc).unwrap();
        match &f.states["C"] {
            FlowState::Choice { cases, default, .. } => {
                assert_eq!(cases.len(), 2);
                assert_eq!(default, "Night");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn malformed_inputs_rejected() {
        assert!(FlowDefinition::from_json_str("not json").is_err());
        assert!(FlowDefinition::from_json(&json!([1, 2])).is_err());
        assert!(FlowDefinition::from_json(&json!({"states": {}})).is_err());
        let bad_type = json!({
            "start_at": "A",
            "states": {"A": {"type": "teleport"}}
        });
        assert!(matches!(
            FlowDefinition::from_json(&bad_type),
            Err(DefinitionError::Malformed(_))
        ));
    }
}
