//! `eoml-preprocess` — stage 2 of the workflow: swath → ocean-cloud tiles.
//!
//! "We package preprocessing into a single script that subdivides each
//! 2030 × 1354 × 36-channel MODIS swath into a set of 128 × 128 × 6-channel
//! 'tiles'. The script is designed to ensure that each tile exclusively
//! contains ocean or cloud pixels." This crate is that script, as a library:
//!
//! * [`tiles`] — tile extraction with the AICCA selection criteria
//!   (ocean-only, ≥ 30 % cloud), per-tile physical summaries from the MOD06
//!   fields; extraction is serial, one granule per pool worker above it;
//! * [`writer`] — tiles to NetCDF (record dimension `tile`) and the
//!   label-append operation stage 4 performs;
//! * [`pipeline`] — the file-level pipeline: read the three `.eogr` product
//!   files, co-register, extract, write `tiles-*.nc` (with the
//!   `.part`-then-rename convention the monitor relies on).

pub mod pipeline;
pub mod tiles;
pub mod writer;

pub use pipeline::{
    preprocess_granule_files, preprocess_granule_with, GranuleBuffers, PipelineError,
};
pub use tiles::{cut_tile, extract_tiles, select_tiles, Tile, TileCriteria, TileSet};
pub use writer::{
    append_labels, for_each_radiance_tile, patch_labels, read_labels, read_tiles_nc,
    write_tiles_nc, write_tiles_nc_into,
};
