//! `eoml-executor` — a Parsl-like parallel execution layer.
//!
//! What the paper takes from Parsl is a pool of workers that tasks are
//! handed to, placed onto resources by *providers* (here, the Slurm blocks
//! of `eoml-cluster`). This crate fronts that pool once per clock:
//!
//! * [`local`] — [`LocalExecutor`], a worker count and an observability hub
//!   in front of the wall-clock pool (`eoml_util::pool`, the one place the
//!   library starts threads), used by the real driver, the examples and the
//!   wall-clock benchmark;
//! * [`simexec`] — virtual-time execution: batches of tile-measured tasks
//!   placed onto cluster worker slots, producing the completion-time and
//!   worker-activity records behind Figs. 4–6 and Table I.

pub mod local;
pub mod simexec;

pub use local::LocalExecutor;
pub use simexec::{open_batch, run_batch, run_batch_faulty, BatchReport, TaskBatch, TaskTiming};
