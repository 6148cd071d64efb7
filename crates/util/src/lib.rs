//! `eoml-util` — foundation utilities shared by every crate in the `eoml`
//! workspace.
//!
//! This crate is deliberately dependency-free so that the substrates built on
//! top of it (simulator, data generators, fabric services) are fully
//! deterministic and self-contained:
//!
//! * [`rng`] — splittable deterministic PRNGs (SplitMix64, xoshiro256**) with
//!   the distributions the simulators need (normal, lognormal, exponential).
//! * [`stats`] — streaming statistics (Welford), summaries with percentiles,
//!   fixed-width histograms.
//! * [`units`] — byte sizes and transfer rates with human-readable formatting.
//! * [`hash`] — the one CRC-32 (carry-less multiply where the CPU has it,
//!   slice-by-8 elsewhere) and the one FNV-1a 64 every integrity check,
//!   content digest and shard placement goes through.
//! * [`bytes`] — little-endian byte views of `f32`/`i32` slices, so codecs
//!   checksum and move payloads where they lie.
//! * [`noise`] — lattice value noise and fractional Brownian motion used to
//!   synthesize cloud and land fields.
//! * [`timebase`] — civil dates, day-of-year arithmetic and UTC timestamps in
//!   the range MODIS operates in (2000‒present).
//! * [`names`] — a table of names, each stored once and known by a dense
//!   `u32` id, found through an open-addressed index of FNV-1a 64 hashes.
//! * [`idgen`] — process-wide monotonic id generation for tasks, transfers
//!   and flow runs.
//! * [`pool`] — the wall-clock worker pool, the one place the library
//!   starts threads: dynamic claiming, per-worker state, outcomes delivered
//!   in item order while the workers run, first failure stops the batch.

pub mod bytes;
pub mod hash;
pub mod idgen;
pub mod names;
pub mod noise;
pub mod pool;
pub mod rng;
pub mod stats;
pub mod timebase;
pub mod units;

pub use idgen::IdGen;
pub use rng::{Rng64, SplitMix64, Xoshiro256};
pub use stats::{Histogram, OnlineStats, Summary};
pub use timebase::{CivilDate, UtcTime};
pub use units::{ByteSize, Rate};
