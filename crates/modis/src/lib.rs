//! `eoml-modis` — a synthetic MODIS instrument and archive.
//!
//! The paper's workflow consumes three NASA MODIS data products:
//!
//! * **MOD02** (`MOD021KM`/`MYD021KM`) — Level-1B calibrated radiances,
//!   36 spectral bands, 2030 × 1354 pixels per 5-minute granule;
//! * **MOD03** (`MOD03`/`MYD03`) — per-pixel geolocation (latitude,
//!   longitude) and land/sea flags;
//! * **MOD06** (`MOD06_L2`/`MYD06_L2`) — Level-2 cloud products (cloud mask,
//!   optical thickness, top pressure, effective radius).
//!
//! None of these are available here (LAADS DAAC is an external service and
//! the files are HDF4), so this crate *is* the substitution: a deterministic
//! synthesizer that produces physically plausible granules from a seed, a
//! self-describing binary container standing in for HDF4, and a LAADS-style
//! catalog that the transfer fabric downloads from.
//!
//! Layout:
//!
//! * [`product`] — platforms, products, spectral bands, the 6 AICCA bands.
//! * [`granule`] — granule identity (platform, date, 5-minute slot) and the
//!   LAADS filename convention.
//! * [`synth`] — the swath synthesizer: orbital geolocation + procedural
//!   cloud fields + radiative transfer toy model → [`synth::Swath`].
//! * [`container`] — the `EOGR` binary granule container (HDF4 stand-in)
//!   with CRC-32-validated datasets.
//! * [`catalog`] — per-day file listings with realistic size statistics
//!   (MOD02 ≈ 32 GB/day, MOD03 ≈ 8.4 GB/day, MOD06 ≈ 18 GB/day).

pub mod catalog;
pub mod container;
pub mod files;
pub mod granule;
pub mod product;
pub mod synth;

pub use catalog::{Catalog, CatalogEntry};
pub use container::{Container, Dataset, DatasetData};
pub use granule::{GranuleId, SLOTS_PER_DAY};
pub use product::{Platform, ProductKind, AICCA_BANDS};
pub use synth::{Swath, SwathDims, SwathSynthesizer, SynthScratch};
