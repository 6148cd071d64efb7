//! `eoml-core` — the automated multi-facility EO-ML workflow (the paper's
//! primary contribution).
//!
//! The workflow orchestrates five stages across facilities:
//!
//! 1. **Download** — MODIS granule files from the (synthetic) LAADS archive
//!    to the cluster file system, via a worker pool over the flow network.
//! 2. **Preprocess** — swath → ocean-cloud tiles on Slurm-provisioned nodes
//!    through the Parsl-like executor.
//! 3. **Monitor & Trigger** — a crawler detects finished tile files and
//!    starts one inference flow per file; inference overlaps preprocessing
//!    as in the paper's Fig. 6.
//! 4. **Inference** — RICC/AICCA label assignment, labels appended to the
//!    NetCDF files.
//! 5. **Shipment** — labeled files transferred to the destination facility.
//!
//! Three drivers run these stages:
//!
//! * [`campaign`] — *virtual time*, batch: the full multi-facility system
//!   runs inside one discrete-event simulation ([`world::World`] composes
//!   the flow network, the cluster model, Slurm, the crawler and
//!   telemetry). This is the path that reproduces the paper's figures at
//!   10-node, 80-worker scale on a laptop.
//! * [`streaming`] — the same world with granules released on the
//!   acquisition timeline and all five stages running as one pipeline.
//! * [`realrun`] — *real execution*: synthesizes granules to disk, runs the
//!   actual preprocessing kernels on a thread pool, monitors the real file
//!   system, and runs real RICC inference — the "it actually works" path
//!   used by the examples and integration tests.
//!
//! All three share what a driver *remembers*: the run journal
//! (`run_journal`) alone appends a stage completion, finds it already done
//! on replay, or halts the run after a refused append.
//!
//! [`telemetry`] provides the instrumentation every driver feeds: per-stage
//! worker-activity timelines (Fig. 6), and spans forwarded to an attached
//! `eoml-obs` hub, whose histograms are the latency breakdowns (Fig. 7).

pub mod atlas;
pub mod campaign;
pub mod chaos;
pub mod provenance;
pub mod realrun;
mod run_journal;
pub mod scheduler;
pub mod streaming;
pub mod telemetry;
pub mod world;

pub use atlas::{Atlas, ClassStats};
pub use campaign::{run_campaign, CampaignParams, CampaignReport, StageReport};
pub use chaos::{run_chaos_campaign, ChaosOutcome, ChaosReport, ChaosSchedule, InjectionPoint};
pub use provenance::{ProvRecord, ProvenanceLog};
pub use realrun::{RealPipeline, RealRunError, RealRunReport};
pub use scheduler::{
    day_namespace, run_day_in_namespace, run_multi_day_resumable, run_streaming_days_resumable,
    DayRun, MultiDayReport, StreamingDayRun,
};
pub use streaming::{
    run_streaming_campaign, try_run_streaming_campaign, StreamingError, StreamingParams,
    StreamingReport,
};
pub use telemetry::Telemetry;
pub use world::World;
