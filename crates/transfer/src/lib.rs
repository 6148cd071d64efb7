//! `eoml-transfer` — data movement fabric (Globus Transfer + LAADS HTTPS
//! substitute).
//!
//! The paper moves data twice: stage 1 *downloads* MODIS granules from the
//! NASA LAADS DAAC over HTTPS with a pool of Globus Compute workers, and
//! stage 5 *ships* labeled NetCDF files to Frontier's Orion file system with
//! Globus Transfer. Neither external service exists here, so this crate
//! provides:
//!
//! * [`endpoint`] — named endpoints with ingress/egress capacity, per-stream
//!   caps and per-request overhead (the knobs that shape paper Fig. 3);
//! * [`flownet`] — a max-min fair-share flow network living inside the
//!   discrete-event simulation: concurrent flows share link capacity, and
//!   every change to the active-flow set reschedules the next completion;
//! * [`faults`] — fault injection (connection drops, checksum corruption)
//!   with bounded retries;
//! * [`mover`] — the one file mover: a bounded `eoml-simtime` worker pool
//!   of flows with retry, backoff, per-file timing, obs records and a
//!   per-file hook; everything below that moves files is this;
//! * [`service`] — a Globus-Transfer-like batch service (a task = many
//!   files, `parallel_streams` concurrent flows, checksum verification,
//!   automatic retry): the mover over a closed file list;
//! * [`pool`] — the LAADS download pool: N workers pulling catalog files
//!   off a shared queue, one flow each, exactly the structure of the
//!   paper's remotely executed download function — the mover again;
//! * [`manifest`] — the [`manifest::ShipmentManifest`] that travels with
//!   every shipment: per-artifact content digests, the provenance slice,
//!   originating trace ids, and a source-journal digest;
//! * [`ingest`] — destination-side verification against the manifest:
//!   typed [`ingest::IngestError`]s, facility-tagged spans, and an
//!   idempotent acked-manifest set;
//! * [`backoff`] — deterministic bounded exponential backoff applied to
//!   every retried flow and re-shipped manifest;
//! * [`sync`] — the journal-sync leg of a shipment: the source's compacted
//!   control-journal state travels with the data, and the destination runs
//!   a typed completeness check before ingesting (and can fail the whole
//!   campaign over to a second site from the synced state alone).

pub mod backoff;
pub mod endpoint;
pub mod faults;
pub mod flownet;
pub mod ingest;
pub mod manifest;
pub mod mover;
pub mod pool;
pub mod service;
pub mod sync;

pub use backoff::BackoffPolicy;
pub use endpoint::{Endpoint, EndpointId};
pub use faults::{FaultInjector, FaultPlan, FlowOutcome};
pub use flownet::{FlowId, FlowNetwork, HasNetwork};
pub use ingest::{receive, IngestError, IngestReport, Ingestor, ReceivedArtifact};
pub use manifest::{
    content_digest, synthetic_digest, ArtifactEntry, JournalDigest, LineageRecord, ShipmentManifest,
};
pub use mover::{open_mover, FileJob, FileMover};
pub use pool::{DownloadPool, DownloadReport, FileTiming};
pub use service::{submit_transfer, TransferOptions, TransferReport, TransferTaskId};
pub use sync::{
    ingest_synced, reship_with_backoff, JournalSync, ReshipOutcome, SyncCheck, SyncError,
};
