//! `eoml-flows` — a Globus Flows substitute: declarative state-machine
//! workflows with action providers, runs, event logs, and the
//! monitor-and-trigger engine of the paper's stage 3.
//!
//! The paper automates "(i) monitoring the file system for the creation of
//! new files, and (ii) triggering the inference" with a Globus Flow whose
//! steps are: launch crawler → run inference → append labels → move file to
//! the transfer-out directory. What the flow costs the paper is its
//! per-transition overhead, which the virtual-time campaign charges; the real
//! driver calls the same three steps directly (DESIGN §17). This crate
//! provides:
//!
//! * [`definition`] — JSON flow definitions (Action / Choice / Wait / Pass /
//!   Succeed / Fail states) with structural validation;
//! * [`runner`] — a flow runner over pluggable [`runner::ActionProvider`]s,
//!   recording a per-state event log with (virtual) timing;
//! * [`trigger`] — the file-system crawler that detects newly created files
//!   exactly once and starts a flow run per file.

pub mod definition;
pub mod runner;
pub mod trigger;

pub use definition::FlowDefinition;
pub use runner::{ActionProvider, FlowEvent, FlowRun, FlowRunner, RunStatus};
pub use trigger::DirectoryCrawler;
