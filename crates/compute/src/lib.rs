//! `eoml-compute` — a Globus Compute (funcX) substitute.
//!
//! Globus Compute is a federated function-serving fabric: users register
//! functions, submit invocations to remote *endpoints*, and collect results
//! via futures. The paper uses it to run the LAADS download function on the
//! cluster. What it costs the paper is the launch of remote workers, which
//! the virtual-time campaign charges through [`launch`]; the real driver
//! calls its download step directly (DESIGN §17). This crate holds:
//!
//! * [`launch`] — the latency model of *starting* remote workers
//!   (authenticate, provision, connect), the component measured at 5.63 s
//!   in the paper's Fig. 7;
//! * [`registry`] and [`endpoint`] — the programming model in miniature:
//!   named functions over JSON payloads, run on the thread that submits
//!   them, with future-shaped handles and failure capture. The wall-clock
//!   benchmark's round-trip probe is their last caller (ROADMAP item 1(e)).

pub mod endpoint;
pub mod launch;
pub mod registry;

pub use endpoint::{ComputeEndpoint, TaskHandle, TaskResult};
pub use launch::LaunchModel;
pub use registry::{FunctionId, FunctionRegistry};
