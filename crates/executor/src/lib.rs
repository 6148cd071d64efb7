//! `eoml-executor` — a Parsl-like parallel execution layer.
//!
//! What the paper takes from Parsl is a pool of workers that tasks are
//! handed to, placed onto resources by *providers* (here, the Slurm blocks
//! of `eoml-cluster`). This crate has that pool once per clock:
//!
//! * [`pool`] — the wall-clock worker pool, the one place the real runtime
//!   starts threads: dynamic claiming, per-worker state, outcomes delivered
//!   in item order while the workers run, first failure stops the batch;
//! * [`local`] — [`LocalExecutor`], a worker count and an observability hub
//!   in front of the pool, used by the real driver, the examples and the
//!   wall-clock benchmark;
//! * [`simexec`] — virtual-time execution: batches of tile-measured tasks
//!   placed onto cluster worker slots, producing the completion-time and
//!   worker-activity records behind Figs. 4–6 and Table I.

pub mod local;
pub mod pool;
pub mod simexec;

pub use local::LocalExecutor;
pub use simexec::{open_batch, run_batch, run_batch_faulty, BatchReport, TaskBatch, TaskTiming};
