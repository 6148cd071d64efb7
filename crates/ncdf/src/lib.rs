//! `eoml-ncdf` — a NetCDF-3 "classic" file format implementation.
//!
//! The workflow's interchange format: preprocessed tiles are written as
//! NetCDF, the inference stage *appends* cloud-class labels to those files,
//! and the shipment stage moves them to the destination facility. Rather
//! than binding a C library, this crate implements the classic file format
//! (CDF-1, with CDF-2's 64-bit offsets on demand) from the specification —
//! files written here are readable by `ncdump` and vice versa for the
//! feature subset used (all six classic types, one optional record
//! dimension, global and per-variable attributes).
//!
//! # Example
//!
//! ```
//! use eoml_ncdf::{NcFile, NcType, NcValues};
//!
//! let mut f = NcFile::new();
//! let tile = f.add_dim("tile", 2);
//! let band = f.add_dim("band", 3);
//! f.add_global_attr("title", NcValues::text("AICCA tiles"));
//! let v = f
//!     .add_var("mean_radiance", NcType::Float, vec![tile, band])
//!     .unwrap();
//! f.put_values(v, NcValues::Float(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]))
//!     .unwrap();
//! let bytes = f.encode().unwrap();
//! let back = NcFile::decode(&bytes).unwrap();
//! assert_eq!(back.var_by_name("mean_radiance").unwrap().data.len(), 6);
//! ```

pub mod cdl;
mod format;
mod model;

pub use cdl::{to_cdl, CdlMode};
pub use format::{NcError, RecordVarSpan, MAGIC};
/// Default fill value of `NC_INT` variables (`NC_FILL_INT` in the C library):
/// what a record holds until a value is written to it.
pub const NC_FILL_INT: i32 = -2_147_483_647;

pub use model::{AttrId, DimId, NcAttr, NcDim, NcFile, NcType, NcValues, NcVar, VarId};
