//! The file-level preprocessing pipeline: three product files in, one tile
//! NetCDF out.
//!
//! Mirrors the paper's script: read MOD02 + MOD03 + MOD06 for one time
//! step, co-register, extract ocean-cloud tiles, write
//! `tiles-<granule>.nc`. Output is written to a `.part` file and renamed on
//! completion so the stage-3 monitor never sees a partial file (the paper's
//! "HDF read errors from partially reading files" concern, applied to our
//! own outputs).

use crate::tiles::{cut_tile, cut_tiles, select_tiles, TileCriteria, TileSet};
use crate::writer::{write_tiles_nc_into, TileNcError};
use eoml_modis::container::{ContainerError, ReadError};
use eoml_modis::files::{into_products, swath_from_containers, ProductFileError};
use eoml_modis::granule::GranuleId;
use eoml_modis::synth::Swath;
use std::fmt::Write as _;
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

/// A worker's granule-sized memory, kept from one granule to the next so
/// that carrying a granule allocates none of it: one swath, whose planes the
/// three products are decoded into, and one tile's pixels, which each tile
/// is cut into as the tile file is written.
#[derive(Debug, Default)]
pub struct GranuleBuffers {
    /// The last granule's swath; `None` until one is held. Its planes are
    /// the product shells the next decode fills.
    pub swath: Option<Swath>,
    /// One tile's `band × y × x` floats.
    pub tile: Vec<f32>,
}

/// The name of granule `g`'s tile file, `tiles-<granule>.nc`: the one place
/// the name is spelled. The `String` is sized before the name is written
/// into it, with room for a `.part` suffix, so a name costs one allocation.
pub fn tile_file_name(g: GranuleId) -> String {
    // "tiles-" (6) + a granule name (at most 24 bytes, with an 11-character
    // year) + ".nc" (3) + ".part" (5).
    let mut name = String::with_capacity(38);
    write!(name, "tiles-{g}.nc").expect("a String takes every write");
    name
}

/// Preprocess one granule from its three product files on disk.
pub fn preprocess_granule_files(
    mod02: &Path,
    mod03: &Path,
    mod06: &Path,
    out_dir: &Path,
    criteria: &TileCriteria,
) -> Result<PipelineOutcome, PipelineError> {
    let buffers = &mut GranuleBuffers::default();
    preprocess(mod02, mod03, mod06, out_dir, criteria, buffers, true)
}

/// [`preprocess_granule_files`] in `buffers`: the files are decoded as
/// streams into the held swath's planes, and each selected tile is cut into
/// `buffers.tile` just before its record of the tile file is written. The
/// outcome's tiles have no `data` of their own.
pub fn preprocess_granule_with(
    mod02: &Path,
    mod03: &Path,
    mod06: &Path,
    out_dir: &Path,
    criteria: &TileCriteria,
    buffers: &mut GranuleBuffers,
) -> Result<PipelineOutcome, PipelineError> {
    preprocess(mod02, mod03, mod06, out_dir, criteria, buffers, false)
}

/// The one body of both forms: with `hold_pixels` each selected tile is
/// given its own pixels, cut once, and its record is written from them.
fn preprocess(
    mod02: &Path,
    mod03: &Path,
    mod06: &Path,
    out_dir: &Path,
    criteria: &TileCriteria,
    buffers: &mut GranuleBuffers,
    hold_pixels: bool,
) -> Result<PipelineOutcome, PipelineError> {
    let mut shells = buffers.swath.take().map(into_products).unwrap_or_default();
    for (shell, path) in shells.iter_mut().zip([mod02, mod03, mod06]) {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        shell.decode_into(BufReader::new(file), len)?;
    }
    let [m02, m03, m06] = shells;
    let swath = buffers.swath.insert(swath_from_containers(m02, m03, m06)?);
    let mut set = select_tiles(swath, criteria);
    if hold_pixels {
        cut_tiles(swath, &mut set.tiles);
    }
    if set.is_empty() {
        return Ok(PipelineOutcome {
            output: None,
            tiles: set,
        });
    }
    std::fs::create_dir_all(out_dir)?;
    let name = tile_file_name(swath.id);
    let final_path = out_dir.join(&name);
    let part_path = out_dir.join(name + ".part");
    let mut part = File::create(&part_path)?;
    let cut = &mut |i: usize, pixels: &mut [f32]| match &set.tiles[i].data[..] {
        [] => cut_tile(swath, &set.tiles[i], pixels),
        held => pixels.copy_from_slice(held),
    };
    write_tiles_nc_into(&set.tiles, &mut part, &mut buffers.tile, cut)?;
    std::fs::rename(&part_path, &final_path)?;
    Ok(PipelineOutcome {
        output: Some(final_path),
        tiles: set,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tiles::extract_tiles;
    use crate::writer::write_tiles_nc;
    use eoml_modis::files::{to_mod02, to_mod03, to_mod06};
    use eoml_modis::granule::GranuleId;
    use eoml_modis::product::Platform;
    use eoml_modis::synth::{SwathDims, SwathSynthesizer};
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

    #[test]
    fn a_tile_file_name_is_one_allocation_with_room_for_its_part_suffix() {
        for (platform, year) in [(Platform::Terra, 2022), (Platform::Aqua, 9999)] {
            let date = CivilDate::new(year, 12, 31).unwrap();
            for slot in [0, 121, 287] {
                let g = GranuleId::new(platform, date, slot);
                let name = tile_file_name(g);
                assert_eq!(name, format!("tiles-{g}.nc"));
                let part = name.capacity() >= name.len() + ".part".len();
                assert!(part, "{name}: capacity {}", name.capacity());
            }
        }
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
    fn buffered_granules_write_the_bytes_of_the_tile_writer() {
        let sy = SwathSynthesizer::new(2022, SwathDims::small());
        let date = CivilDate::new(2022, 1, 1).unwrap();
        let swaths: Vec<Swath> = (0..288)
            .map(|slot| sy.synthesize(GranuleId::new(Platform::Terra, date, slot)))
            .filter(|s| s.day)
            .step_by(7)
            .take(4)
            .collect();
        let night = (0..288)
            .map(|slot| sy.synthesize(GranuleId::new(Platform::Aqua, date, slot)))
            .find(|s| !s.day)
            .unwrap();
        let all = TileCriteria {
            tile_size: 32,
            min_ocean_fraction: 0.0,
            min_cloud_fraction: 0.0,
        };
        let paper = TileCriteria {
            tile_size: 32,
            ..TileCriteria::default()
        };
        let (mut written, mut none) = (0, 0);
        for crit in [all, paper] {
            let dir = tempdir("buffered");
            let mut buffers = GranuleBuffers::default();
            // Day, night, day: the buffers hold another granule each time.
            for swath in swaths[..2].iter().chain([&night]).chain(&swaths[2..]) {
                let (p02, p03, p06) = write_products(&dir, swath);
                let out = dir.join("out");
                let done = preprocess_granule_with(&p02, &p03, &p06, &out, &crit, &mut buffers);
                let done = done.unwrap();
                let expected = extract_tiles(swath, &crit);
                let mut tiles = expected.tiles.clone();
                tiles.iter_mut().for_each(|t| t.data.clear());
                assert_eq!(done.tiles.tiles, tiles);
                let buffered = done.output.as_ref().map(|path| fs::read(path).unwrap());
                // The allocating form: the same file, and tiles that hold
                // their pixels.
                let file = preprocess_granule_files(&p02, &p03, &p06, &out, &crit).unwrap();
                assert_eq!(file.tiles.tiles, expected.tiles);
                assert_eq!(file.output, done.output);
                match buffered {
                    Some(bytes) => {
                        let want = write_tiles_nc(&expected.tiles).unwrap().encode().unwrap();
                        assert!(bytes == want, "{}", swath.id);
                        let path = file.output.unwrap();
                        assert!(fs::read(path).unwrap() == want, "{}", swath.id);
                        written += 1;
                    }
                    None => {
                        assert!(expected.is_empty());
                        none += 1;
                    }
                }
            }
            fs::remove_dir_all(&dir).unwrap();
        }
        assert!(
            written >= 5 && none >= 2,
            "{written} files, {none} without tiles"
        );
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
