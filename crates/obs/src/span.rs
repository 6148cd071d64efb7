//! Span records and the RAII guard that closes them.
//!
//! A span is one timed region of pipeline work, labelled `(stage, name)`
//! and carrying *both* clocks: wall time (nanoseconds since the [`Obs`]
//! epoch, always present) and simulation time (present when the caller
//! knows it — batch/streaming campaigns run entirely in virtual time, so
//! their spans are sim-stamped; real runs are wall-stamped only).
//!
//! Hierarchy comes from a thread-local stack of open guard ids: a guard
//! opened while another is open on the same thread records the outer one
//! as its parent. Sim-time spans recorded directly (no guard) also pick
//! up the innermost open guard as parent, so virtual work nests under
//! the wall-clock phase that produced it.
//!
//! [`Obs`]: crate::Obs

use eoml_simtime::SimTime;

/// One closed span: a `(stage, name)` labelled interval with wall-clock
/// bounds, optional sim-time bounds, and free-form key/value attributes.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Unique id within one [`crate::Obs`] instance (allocation order).
    pub id: u64,
    /// Id of the innermost span open on the same thread when this one
    /// started, if any.
    pub parent: Option<u64>,
    /// Pipeline stage label (`download`, `preprocess`, `monitor`,
    /// `inference`, `shipment`, or a subsystem name like `journal`).
    pub stage: String,
    /// What happened within the stage (`transfer`, `flow_action`, ...).
    pub name: String,
    /// Dense id of the recording thread (Chrome-trace `tid`).
    pub tid: u64,
    /// Simulation-time start, when the span ran in virtual time.
    pub sim_start: Option<SimTime>,
    /// Simulation-time end, when the span ran in virtual time.
    pub sim_end: Option<SimTime>,
    /// Wall-clock start, nanoseconds since the collector epoch.
    pub wall_start_ns: u64,
    /// Wall-clock end, nanoseconds since the collector epoch.
    pub wall_end_ns: u64,
    /// Id of the pipeline item (granule) this span belongs to, when the
    /// caller carried a [`crate::TraceContext`] through the work.
    pub trace_id: Option<String>,
    /// Free-form key/value attributes.
    pub attrs: Vec<(String, String)>,
}

impl SpanRecord {
    /// Wall-clock duration in seconds.
    pub fn wall_seconds(&self) -> f64 {
        self.wall_end_ns.saturating_sub(self.wall_start_ns) as f64 * 1e-9
    }

    /// Simulation-time duration in seconds, if sim-stamped.
    pub fn sim_seconds(&self) -> Option<f64> {
        match (self.sim_start, self.sim_end) {
            (Some(s), Some(e)) => Some((e - s).as_secs_f64()),
            _ => None,
        }
    }

    /// The duration the span "means": sim time when present (virtual
    /// campaigns), wall time otherwise (real runs).
    pub fn duration_seconds(&self) -> f64 {
        self.sim_seconds().unwrap_or_else(|| self.wall_seconds())
    }

    /// Attribute lookup.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// RAII guard for a wall-clock span: created by [`crate::Obs::span`],
/// records the finished [`SpanRecord`] into the collector on drop.
///
/// Cheap by design — creation is two atomic increments plus a
/// thread-local push; all allocation and locking happens once, at drop.
pub struct SpanGuard<'a> {
    pub(crate) obs: &'a crate::Obs,
    pub(crate) id: u64,
    pub(crate) parent: Option<u64>,
    pub(crate) stage: String,
    pub(crate) name: String,
    pub(crate) wall_start_ns: u64,
    pub(crate) trace_id: Option<String>,
    pub(crate) attrs: Vec<(String, String)>,
}

impl SpanGuard<'_> {
    /// This span's id (to correlate with records or child spans).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Attach a key/value attribute.
    pub fn attr(&mut self, key: &str, value: impl ToString) {
        self.attrs.push((key.to_string(), value.to_string()));
    }

    /// Tag this span with the pipeline item it belongs to.
    pub fn set_trace(&mut self, trace: &crate::TraceContext) {
        self.trace_id = Some(trace.id().to_string());
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.obs.finish_guard(self);
    }
}
