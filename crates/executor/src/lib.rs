//! `eoml-executor` — a Parsl-like parallel execution layer.
//!
//! Parsl gives the paper two things: a *data-flow kernel* (apps returning
//! futures, dependencies resolved automatically) and *providers* that place
//! workers onto resources (here, the Slurm blocks of `eoml-cluster`). This
//! crate reproduces both, with two interchangeable execution paths:
//!
//! * [`local`] — real execution: a thread-pool executor (rayon under the
//!   hood) with per-task timing, used by the examples, the integration
//!   tests and the kernel benchmarks on this machine;
//! * [`dag`] — a data-flow kernel executing dependency graphs of arbitrary
//!   closures on a bounded worker pool (crossbeam channels), with panic
//!   capture and cycle detection;
//! * [`simexec`] — virtual-time execution: batches of tile-measured tasks
//!   placed onto cluster worker slots, producing the completion-time and
//!   worker-activity records behind Figs. 4–6 and Table I.

pub mod dag;
pub mod local;
pub mod simexec;

pub use dag::{Dag, DagError, NodeId};
pub use local::LocalExecutor;
pub use simexec::{open_batch, run_batch, run_batch_faulty, BatchReport, TaskBatch, TaskTiming};
