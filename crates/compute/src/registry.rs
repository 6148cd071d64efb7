//! The function registry: named functions over JSON values.
//!
//! Globus Compute serializes Python callables; the Rust equivalent is a
//! registry of `Fn(serde_json::Value) -> Result<Value, String>` entries,
//! addressed by a [`FunctionId`] returned at registration. Registration is
//! append-only (re-registering a name yields a new id/version, and old ids
//! keep working), matching the immutability of registered functions in the
//! real service. Callables are cloned out of the registry before they are
//! invoked, so its lock is never held across user code.

use serde_json::Value;
use std::collections::HashMap;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard};

eoml_util::typed_id!(
    /// Identifier of a registered function (stable across re-registration).
    FunctionId,
    "fn"
);

type BoxedFn = Arc<dyn Fn(Value) -> Result<Value, String> + Send + Sync>;

struct Entry {
    name: String,
    version: u32,
    func: BoxedFn,
}

/// Thread-safe, append-only function registry.
#[derive(Default)]
pub struct FunctionRegistry {
    inner: RwLock<RegistryInner>,
}

#[derive(Default)]
struct RegistryInner {
    entries: Vec<Entry>,
    latest_by_name: HashMap<String, usize>,
}

impl FunctionRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register `func` under `name`; returns its id. Registering the same
    /// name again creates a new version (and a new id); the old id remains
    /// callable.
    pub fn register(
        &self,
        name: impl Into<String>,
        func: impl Fn(Value) -> Result<Value, String> + Send + Sync + 'static,
    ) -> FunctionId {
        let name = name.into();
        let mut inner = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        let version = inner
            .entries
            .iter()
            .filter(|e| e.name == name)
            .map(|e| e.version)
            .max()
            .map(|v| v + 1)
            .unwrap_or(1);
        let idx = inner.entries.len();
        inner.entries.push(Entry {
            name: name.clone(),
            version,
            func: Arc::new(func),
        });
        inner.latest_by_name.insert(name, idx);
        FunctionId::from_raw(idx as u64 + 1)
    }

    /// Resolve the latest version of `name`.
    pub fn lookup(&self, name: &str) -> Option<FunctionId> {
        self.read()
            .latest_by_name
            .get(name)
            .map(|&i| FunctionId::from_raw(i as u64 + 1))
    }

    /// The `(name, version)` of a function id.
    pub fn describe(&self, id: FunctionId) -> Option<(String, u32)> {
        let inner = self.read();
        let e = inner.entries.get(index(id)?)?;
        Some((e.name.clone(), e.version))
    }

    /// Fetch the callable for an id (cheap Arc clone).
    pub fn get(&self, id: FunctionId) -> Option<BoxedFn> {
        Some(Arc::clone(&self.read().entries.get(index(id)?)?.func))
    }

    /// Invoke a function synchronously in the caller's thread.
    pub fn invoke(&self, id: FunctionId, args: Value) -> Result<Value, String> {
        let f = self
            .get(id)
            .ok_or_else(|| format!("unknown function {id}"))?;
        f(args)
    }

    /// Number of registered entries (all versions).
    pub fn len(&self) -> usize {
        self.read().entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn read(&self) -> RwLockReadGuard<'_, RegistryInner> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The entry index of `id`: ids count from 1, so id 0 is unknown like any
/// unregistered id.
fn index(id: FunctionId) -> Option<usize> {
    usize::try_from(id.raw().checked_sub(1)?).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn register_and_invoke() {
        let reg = FunctionRegistry::new();
        let id = reg.register("double", |args| {
            let x = args["x"].as_i64().ok_or("missing x")?;
            Ok(json!({ "y": x * 2 }))
        });
        let out = reg.invoke(id, json!({ "x": 21 })).unwrap();
        assert_eq!(out["y"], 42);
    }

    #[test]
    fn errors_propagate() {
        let reg = FunctionRegistry::new();
        let id = reg.register("fail", |_| Err("boom".into()));
        assert_eq!(reg.invoke(id, json!({})), Err("boom".to_string()));
        for unknown in [0, 99] {
            let id = FunctionId::from_raw(unknown);
            let err = reg.invoke(id, json!({})).unwrap_err();
            assert!(err.contains("unknown function"), "{err}");
            assert_eq!(reg.describe(id), None);
        }
    }

    #[test]
    fn versioning_keeps_old_ids_callable() {
        let reg = FunctionRegistry::new();
        let v1 = reg.register("f", |_| Ok(json!(1)));
        let v2 = reg.register("f", |_| Ok(json!(2)));
        assert_ne!(v1, v2);
        assert_eq!(reg.describe(v1), Some(("f".into(), 1)));
        assert_eq!(reg.describe(v2), Some(("f".into(), 2)));
        assert_eq!(reg.lookup("f"), Some(v2));
        assert_eq!(reg.invoke(v1, json!({})).unwrap(), json!(1));
        assert_eq!(reg.invoke(v2, json!({})).unwrap(), json!(2));
    }

    #[test]
    fn lookup_unknown_is_none() {
        let reg = FunctionRegistry::new();
        assert_eq!(reg.lookup("nope"), None);
        assert!(reg.is_empty());
        reg.register("a", |_| Ok(Value::Null));
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn registry_is_shareable_across_threads() {
        let reg = Arc::new(FunctionRegistry::new());
        let id = reg.register("inc", |args| {
            Ok(json!(args.as_i64().ok_or("not an int")? + 1))
        });
        let mut handles = Vec::new();
        for t in 0..4 {
            let reg = Arc::clone(&reg);
            handles.push(std::thread::spawn(move || {
                reg.invoke(id, json!(t)).unwrap().as_i64().unwrap()
            }));
        }
        let mut results: Vec<i64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        results.sort_unstable();
        assert_eq!(results, vec![1, 2, 3, 4]);
    }
}
