//! `eoml-compute` — a Globus Compute (funcX) substitute.
//!
//! Globus Compute is a federated function-serving fabric: users register
//! functions, submit invocations to remote *endpoints*, and collect results
//! via futures. The paper uses it to run the LAADS download function on the
//! cluster. This crate reproduces the programming model:
//!
//! * [`registry`] — named, versioned functions over JSON payloads
//!   (mirroring Globus Compute's serialized-callable registry);
//! * [`endpoint`] — a compute endpoint executing registered functions on
//!   the thread that submits them (it starts no threads: the caller's are
//!   its workers), with future-shaped handles, failure capture and
//!   per-task accounting;
//! * [`launch`] — the latency model of *starting* remote workers
//!   (authenticate, provision, connect), the component measured at 5.63 s
//!   in the paper's Fig. 7.

pub mod endpoint;
pub mod launch;
pub mod registry;

pub use endpoint::{ComputeEndpoint, TaskHandle, TaskResult};
pub use launch::LaunchModel;
pub use registry::{FunctionId, FunctionRegistry};
