//! The file-level preprocessing pipeline: three product files in, one tile
//! NetCDF out.
//!
//! Mirrors the paper's script: read MOD02 + MOD03 + MOD06 for one time
//! step, co-register, extract ocean-cloud tiles, write
//! `tiles-<granule>.nc`. Output is written to a `.part` file and renamed on
//! completion so the stage-3 monitor never sees a partial file (the paper's
//! "HDF read errors from partially reading files" concern, applied to our
//! own outputs).

use crate::tiles::{extract_tiles, TileCriteria, TileSet};
use crate::writer::{write_tiles_nc, TileNcError};
use eoml_modis::container::{Container, ContainerError, ReadError};
use eoml_modis::files::{swath_from_containers, ProductFileError};
use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};

/// Errors from the file-level pipeline.
#[derive(Debug)]
pub enum PipelineError {
    /// File system error.
    Io(std::io::Error),
    /// Granule container decode error (corrupt download).
    Container(ContainerError),
    /// Product co-registration error.
    Product(ProductFileError),
    /// Tile NetCDF encoding error.
    TileNc(TileNcError),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Io(e) => write!(f, "io error: {e}"),
            PipelineError::Container(e) => write!(f, "container error: {e}"),
            PipelineError::Product(e) => write!(f, "product error: {e}"),
            PipelineError::TileNc(e) => write!(f, "tile netcdf error: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<std::io::Error> for PipelineError {
    fn from(e: std::io::Error) -> Self {
        PipelineError::Io(e)
    }
}
impl From<ContainerError> for PipelineError {
    fn from(e: ContainerError) -> Self {
        PipelineError::Container(e)
    }
}
impl From<ReadError> for PipelineError {
    fn from(e: ReadError) -> Self {
        match e {
            ReadError::Io(e) => PipelineError::Io(e),
            ReadError::Format(e) => PipelineError::Container(e),
        }
    }
}
impl From<ProductFileError> for PipelineError {
    fn from(e: ProductFileError) -> Self {
        PipelineError::Product(e)
    }
}
impl From<TileNcError> for PipelineError {
    fn from(e: TileNcError) -> Self {
        PipelineError::TileNc(e)
    }
}

/// Outcome of preprocessing one granule.
#[derive(Debug)]
pub struct PipelineOutcome {
    /// Where the tile NetCDF was written (`None` if the granule yielded no
    /// tiles — night granule or nothing met the criteria).
    pub output: Option<PathBuf>,
    /// Extraction statistics.
    pub tiles: TileSet,
}

/// Preprocess one granule from its three product files on disk.
pub fn preprocess_granule_files(
    mod02: &Path,
    mod03: &Path,
    mod06: &Path,
    out_dir: &Path,
    criteria: &TileCriteria,
) -> Result<PipelineOutcome, PipelineError> {
    // Files are decoded and encoded as streams, the decoded planes move into
    // the swath, and the swath is dropped as soon as the tiles are cut.
    let product = |path: &Path| -> Result<Container, PipelineError> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        Ok(Container::decode_from(BufReader::new(file), len)?)
    };
    let swath = swath_from_containers(product(mod02)?, product(mod03)?, product(mod06)?)?;
    let set = extract_tiles(&swath, criteria);
    let id = swath.id;
    drop(swath);
    if set.is_empty() {
        return Ok(PipelineOutcome {
            output: None,
            tiles: set,
        });
    }
    let nc = write_tiles_nc(&set.tiles)?;
    std::fs::create_dir_all(out_dir)?;
    let final_path = out_dir.join(format!("tiles-{id}.nc"));
    let part_path = out_dir.join(format!("tiles-{id}.nc.part"));
    nc.encode_into(&mut File::create(&part_path)?)?;
    std::fs::rename(&part_path, &final_path)?;
    Ok(PipelineOutcome {
        output: Some(final_path),
        tiles: set,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use eoml_modis::files::{to_mod02, to_mod03, to_mod06};
    use eoml_modis::granule::GranuleId;
    use eoml_modis::product::Platform;
    use eoml_modis::synth::{Swath, SwathDims, SwathSynthesizer};
    use eoml_util::timebase::CivilDate;
    use std::fs;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "eoml-pipeline-{tag}-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn day_swath() -> Swath {
        let sy = SwathSynthesizer::new(2022, SwathDims::small());
        (0..288)
            .map(|slot| {
                sy.synthesize(GranuleId::new(
                    Platform::Terra,
                    CivilDate::new(2022, 1, 1).unwrap(),
                    slot,
                ))
            })
            .find(|s| s.day)
            .expect("day granule")
    }

    fn write_products(dir: &Path, swath: &Swath) -> (PathBuf, PathBuf, PathBuf) {
        let p02 = dir.join("m02.eogr");
        let p03 = dir.join("m03.eogr");
        let p06 = dir.join("m06.eogr");
        fs::write(&p02, to_mod02(swath).encode()).unwrap();
        fs::write(&p03, to_mod03(swath).encode()).unwrap();
        fs::write(&p06, to_mod06(swath).encode()).unwrap();
        (p02, p03, p06)
    }

    #[test]
    fn end_to_end_granule_preprocessing() {
        let dir = tempdir("e2e");
        let swath = day_swath();
        let (p02, p03, p06) = write_products(&dir, &swath);
        let out_dir = dir.join("out");
        let crit = TileCriteria {
            min_ocean_fraction: 0.0,
            min_cloud_fraction: 0.0,
            ..TileCriteria::default()
        };
        let outcome = preprocess_granule_files(&p02, &p03, &p06, &out_dir, &crit).unwrap();
        let out = outcome.output.expect("tiles written");
        assert!(out.exists());
        assert!(out.to_str().unwrap().ends_with(".nc"));
        assert!(!out.with_extension("nc.part").exists(), "no leftover .part");
        // Output parses as NetCDF with the right record count.
        let nc = eoml_ncdf::NcFile::decode(&fs::read(&out).unwrap()).unwrap();
        assert_eq!(nc.numrecs, outcome.tiles.len());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_product_file_is_reported() {
        let dir = tempdir("corrupt");
        let swath = day_swath();
        let (p02, p03, p06) = write_products(&dir, &swath);
        // Corrupt the MOD03 payload.
        let mut bytes = fs::read(&p03).unwrap();
        let n = bytes.len();
        bytes[n - 100] ^= 0xFF;
        fs::write(&p03, bytes).unwrap();
        let err =
            preprocess_granule_files(&p02, &p03, &p06, &dir.join("out"), &TileCriteria::default())
                .unwrap_err();
        assert!(matches!(err, PipelineError::Container(_)), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_is_io_error() {
        let dir = tempdir("missing");
        let swath = day_swath();
        let (p02, _p03, p06) = write_products(&dir, &swath);
        let err = preprocess_granule_files(
            &p02,
            &dir.join("nope.eogr"),
            &p06,
            &dir.join("out"),
            &TileCriteria::default(),
        )
        .unwrap_err();
        assert!(matches!(err, PipelineError::Io(_)), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn granule_with_no_selected_tiles_writes_nothing() {
        let dir = tempdir("empty");
        let swath = day_swath();
        let (p02, p03, p06) = write_products(&dir, &swath);
        // Impossible criteria: >100 % cloud.
        let crit = TileCriteria {
            min_cloud_fraction: 1.01,
            ..TileCriteria::default()
        };
        let outcome = preprocess_granule_files(&p02, &p03, &p06, &dir.join("out"), &crit).unwrap();
        assert!(outcome.output.is_none());
        assert!(!dir.join("out").exists() || fs::read_dir(dir.join("out")).unwrap().count() == 0);
        fs::remove_dir_all(&dir).unwrap();
    }
}
