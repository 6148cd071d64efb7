//! Tiles ↔ NetCDF.
//!
//! Each preprocessed granule becomes one NetCDF file with a `tile` record
//! dimension; stage 4 later *appends* the `aicca_label` values to the same
//! file — the exact interchange pattern of the paper's pipeline. The
//! variable is reserved when the file is written, every record holding
//! [`NC_FILL_INT`], so the file already has its final layout and the append
//! is a write of one `int` per tile: in memory with [`append_labels`], or
//! straight into the file on disk with [`patch_labels`]. A file counts as
//! labelled once no record holds the fill value.

use crate::tiles::Tile;
use eoml_modis::granule::GranuleId;
use eoml_ncdf::{NcError, NcFile, NcType, NcValues, RecordVarSpan, VarId, NC_FILL_INT};
use std::io::{self, Read, Seek, Write};

/// The per-tile class label variable.
const LABEL_VAR: &str = "aicca_label";

/// The per-tile radiance variable (`tile × band × y × x`).
const RADIANCE_VAR: &str = "radiance";

/// Errors from tile NetCDF encoding/decoding.
#[derive(Debug, Clone, PartialEq)]
pub enum TileNcError {
    /// Tile list was empty (nothing to write).
    NoTiles,
    /// Tiles disagree in shape/bands/granule.
    InconsistentTiles,
    /// Underlying NetCDF error.
    Nc(eoml_ncdf::NcError),
    /// File lacks a required variable/attribute or has a bad shape.
    Malformed(String),
    /// Label count does not match tile count, or labels already present.
    BadLabels(String),
    /// The encoded file has no `aicca_label` record variable: it was written
    /// before the variable was reserved, so there is nothing to patch or
    /// read in place. Such a file is refused; write it again.
    FormerLayout,
}

impl std::fmt::Display for TileNcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TileNcError::NoTiles => write!(f, "no tiles to write"),
            TileNcError::InconsistentTiles => write!(f, "tiles have inconsistent shapes"),
            TileNcError::Nc(e) => write!(f, "netcdf error: {e}"),
            TileNcError::Malformed(m) => write!(f, "malformed tile file: {m}"),
            TileNcError::BadLabels(m) => write!(f, "bad labels: {m}"),
            TileNcError::FormerLayout => write!(
                f,
                "tile file layout predates the reserved aicca_label variable; regenerate the file"
            ),
        }
    }
}

impl std::error::Error for TileNcError {}

impl From<eoml_ncdf::NcError> for TileNcError {
    fn from(e: eoml_ncdf::NcError) -> Self {
        TileNcError::Nc(e)
    }
}

/// Build the NetCDF dataset for one granule's tiles.
pub fn write_tiles_nc(tiles: &[Tile]) -> Result<NcFile, TileNcError> {
    let (mut f, rad) = tiles_nc_header(tiles)?;
    let slab = tile_len(tiles)?;
    let mut radiance = Vec::with_capacity(tiles.len() * slab);
    for t in tiles {
        if t.data.len() != slab {
            return Err(TileNcError::Nc(eoml_ncdf::NcError::LengthMismatch {
                expected: slab,
                actual: t.data.len(),
            }));
        }
        radiance.extend_from_slice(&t.data);
    }
    f.vars[rad.0].data = NcValues::Float(radiance);
    Ok(f)
}

/// [`write_tiles_nc`] encoded straight into `sink`, each tile's pixels cut
/// as its record is written: `cut(i, pixels)` fills tile `i`'s `band × y ×
/// x` floats into `tile`, which is resized to one tile and keeps its
/// allocation, so no more than one tile's pixels are ever in memory (the
/// tiles' own `data` is not read). The bytes are those of `write_tiles_nc`
/// on tiles holding those pixels, encoded. A tile list `write_tiles_nc`
/// refuses is an `InvalidData` error carrying its [`TileNcError`].
pub fn write_tiles_nc_into(
    tiles: &[Tile],
    sink: &mut impl Write,
    tile: &mut Vec<f32>,
    cut: &mut dyn FnMut(usize, &mut [f32]),
) -> io::Result<()> {
    let invalid = |e| io::Error::new(io::ErrorKind::InvalidData, e);
    let (f, rad) = tiles_nc_header(tiles).map_err(invalid)?;
    tile.resize(tile_len(tiles).map_err(invalid)?, 0.0);
    f.encode_into_filling(sink, rad, tile, cut)
}

/// The tile file of `tiles` with every variable filled but `radiance`,
/// which is returned empty beside it.
fn tiles_nc_header(tiles: &[Tile]) -> Result<(NcFile, VarId), TileNcError> {
    tile_len(tiles)?;
    let first = &tiles[0];
    let size = first.size;
    let bands = &first.bands;

    let mut f = NcFile::new();
    let tile_dim = f.add_record_dim("tile")?;
    let band_dim = f.add_dim("band", bands.len());
    let y_dim = f.add_dim("y", size);
    let x_dim = f.add_dim("x", size);

    f.add_global_attr("granule", NcValues::text(&first.granule.to_string()));
    f.add_global_attr(
        "platform",
        NcValues::text(&first.granule.platform.to_string()),
    );
    f.add_global_attr("date", NcValues::text(&first.granule.date.to_string()));
    f.add_global_attr("slot", NcValues::Int(vec![first.granule.slot as i32]));
    f.add_global_attr(
        "bands",
        NcValues::Int(bands.iter().map(|&b| b as i32).collect()),
    );
    f.add_global_attr("source", NcValues::text("eoml-preprocess"));

    let rad = f.add_var(
        RADIANCE_VAR,
        NcType::Float,
        vec![tile_dim, band_dim, y_dim, x_dim],
    )?;
    let lat = f.add_var("center_lat", NcType::Float, vec![tile_dim])?;
    let lon = f.add_var("center_lon", NcType::Float, vec![tile_dim])?;
    let ocean = f.add_var("ocean_fraction", NcType::Float, vec![tile_dim])?;
    let cloud = f.add_var("cloud_fraction", NcType::Float, vec![tile_dim])?;
    let cot = f.add_var("mean_cot", NcType::Float, vec![tile_dim])?;
    let ctp = f.add_var("mean_ctp", NcType::Float, vec![tile_dim])?;
    let cer = f.add_var("mean_cer", NcType::Float, vec![tile_dim])?;
    let row = f.add_var("tile_row", NcType::Int, vec![tile_dim])?;
    let col = f.add_var("tile_col", NcType::Int, vec![tile_dim])?;
    f.add_var_attr(
        rad,
        "long_name",
        NcValues::text("standardized radiance tile"),
    )?;
    f.add_var_attr(ctp, "units", NcValues::text("hPa"))?;
    f.add_var_attr(cer, "units", NcValues::text("micron"))?;
    let label = f.add_var(LABEL_VAR, NcType::Int, vec![tile_dim])?;
    f.add_var_attr(
        label,
        "long_name",
        NcValues::text("AICCA cloud class (0-41)"),
    )?;

    // Fill each record variable but the radiance whole (one exact
    // allocation apiece) and set the record count.
    let floats = |of: fn(&Tile) -> f32| NcValues::Float(tiles.iter().map(of).collect());
    let ints = |of: fn(&Tile) -> usize| NcValues::Int(tiles.iter().map(|t| of(t) as i32).collect());
    f.vars[lat.0].data = floats(|t| t.center_lat);
    f.vars[lon.0].data = floats(|t| t.center_lon);
    f.vars[ocean.0].data = floats(|t| t.ocean_fraction);
    f.vars[cloud.0].data = floats(|t| t.cloud_fraction);
    f.vars[cot.0].data = floats(|t| t.mean_cot);
    f.vars[ctp.0].data = floats(|t| t.mean_ctp);
    f.vars[cer.0].data = floats(|t| t.mean_cer);
    f.vars[row.0].data = ints(|t| t.row);
    f.vars[col.0].data = ints(|t| t.col);
    f.vars[label.0].data = NcValues::Int(vec![NC_FILL_INT; tiles.len()]);
    f.numrecs = tiles.len();
    Ok((f, rad))
}

/// Floats per tile of a consistent, non-empty tile list.
fn tile_len(tiles: &[Tile]) -> Result<usize, TileNcError> {
    let first = tiles.first().ok_or(TileNcError::NoTiles)?;
    if tiles
        .iter()
        .any(|t| t.size != first.size || t.bands != first.bands || t.granule != first.granule)
    {
        return Err(TileNcError::InconsistentTiles);
    }
    Ok(first.bands.len() * first.size * first.size)
}

/// The label values if every tile has one.
fn complete(labels: &[i32]) -> Option<&[i32]> {
    (!labels.contains(&NC_FILL_INT)).then_some(labels)
}

fn check_label_count(labels: usize, tiles: usize) -> Result<(), TileNcError> {
    if labels != tiles {
        return Err(TileNcError::BadLabels(format!(
            "{labels} labels for {tiles} tiles"
        )));
    }
    Ok(())
}

/// Write per-tile class labels into the reserved `aicca_label` variable —
/// stage 4's write-back. Fails if the file is already labelled (no record
/// holds the fill value any more) or the count is wrong.
pub fn append_labels(f: &mut NcFile, labels: &[i32]) -> Result<(), TileNcError> {
    check_label_count(labels.len(), f.numrecs)?;
    let var = f
        .vars
        .iter_mut()
        .find(|v| v.name == LABEL_VAR)
        .ok_or_else(|| TileNcError::Malformed("no aicca_label variable".into()))?;
    let data = &mut var.data;
    if data.as_i32().is_none_or(|held| complete(held).is_some()) {
        return Err(TileNcError::BadLabels("labels already present".into()));
    }
    *data = NcValues::Int(labels.to_vec());
    Ok(())
}

/// [`append_labels`] on the encoded file itself: one 4-byte write per tile
/// at the reserved variable's record offsets, no other byte read past the
/// header or written. The result is byte-identical to decoding the file,
/// [`append_labels`] and encoding it again. Writing the same labels twice is
/// harmless, and a writer killed part-way leaves some records at the fill
/// value, which [`read_tiles_nc`] and [`read_labels`] report as unlabelled.
pub fn patch_labels(file: &mut (impl Read + Write + Seek), labels: &[i32]) -> io::Result<()> {
    let span = label_span(file)?;
    check_label_count(labels.len(), span.numrecs())
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    span.write(file, &NcValues::Int(labels.to_vec()))
}

/// Where an encoded tile file keeps its labels. A file with no such record
/// variable is refused as [`TileNcError::FormerLayout`] (an `InvalidData`
/// error carrying it).
fn label_span(file: &mut (impl Read + Seek)) -> io::Result<RecordVarSpan> {
    RecordVarSpan::locate(file, LABEL_VAR).map_err(|e| {
        match e.get_ref().and_then(|inner| inner.downcast_ref()) {
            Some(NcError::UnknownVar) => {
                io::Error::new(io::ErrorKind::InvalidData, TileNcError::FormerLayout)
            }
            _ => e,
        }
    })
}

/// The labels of an encoded tile file, read from the `aicca_label` records
/// alone; `None` while any tile is unlabelled.
pub fn read_labels(file: &mut (impl Read + Seek)) -> io::Result<Option<Vec<i32>>> {
    Ok(match label_span(file)?.read(file)? {
        NcValues::Int(labels) if complete(&labels).is_some() => Some(labels),
        _ => None,
    })
}

/// Each tile's radiance in an encoded tile file, in turn: its `band × y × x`
/// floats are read from its record into `tile`, which is resized to one
/// tile and keeps its allocation, and handed to `each`, whose error stops
/// the walk. Nothing else of the file is decoded or held. Returns the number
/// of tiles.
pub fn for_each_radiance_tile(
    file: &mut (impl Read + Seek),
    tile: &mut Vec<f32>,
    each: impl FnMut(&[f32]) -> io::Result<()>,
) -> io::Result<usize> {
    let span = RecordVarSpan::locate(file, RADIANCE_VAR)?;
    tile.resize(span.record_len(), 0.0);
    span.for_each_f32_record(file, tile, each)?;
    Ok(span.numrecs())
}

/// Read tiles (and labels, once every tile has one) back from a tile NetCDF
/// dataset.
pub fn read_tiles_nc(f: &NcFile) -> Result<(Vec<Tile>, Option<Vec<i32>>), TileNcError> {
    let bad = |m: &str| TileNcError::Malformed(m.to_string());
    let granule_str = f
        .global_attr("granule")
        .and_then(|a| a.values.as_text())
        .ok_or_else(|| bad("missing granule attr"))?;
    // "MOD.A2022001.0005" — reconstruct the id from its parts.
    let granule = parse_granule_attr(granule_str).ok_or_else(|| bad("bad granule attr"))?;
    let bands: Vec<u8> = f
        .global_attr("bands")
        .and_then(|a| a.values.as_i32())
        .ok_or_else(|| bad("missing bands attr"))?
        .iter()
        .map(|&b| b as u8)
        .collect();
    let size = f
        .dim_by_name("y")
        .ok_or_else(|| bad("missing y dim"))?
        .1
        .len;
    let n = f.numrecs;
    let get_f32 = |name: &str| -> Result<&[f32], TileNcError> {
        f.var_by_name(name)
            .and_then(|v| v.data.as_f32())
            .ok_or_else(|| bad(&format!("missing {name}")))
    };
    let get_i32 = |name: &str| -> Result<&[i32], TileNcError> {
        f.var_by_name(name)
            .and_then(|v| v.data.as_i32())
            .ok_or_else(|| bad(&format!("missing {name}")))
    };
    let rad = get_f32(RADIANCE_VAR)?;
    let lat = get_f32("center_lat")?;
    let lon = get_f32("center_lon")?;
    let ocean = get_f32("ocean_fraction")?;
    let cloud = get_f32("cloud_fraction")?;
    let cot = get_f32("mean_cot")?;
    let ctp = get_f32("mean_ctp")?;
    let cer = get_f32("mean_cer")?;
    let row = get_i32("tile_row")?;
    let col = get_i32("tile_col")?;
    let slab = bands.len() * size * size;
    if rad.len() != n * slab {
        return Err(bad("radiance shape mismatch"));
    }
    let mut tiles = Vec::with_capacity(n);
    for i in 0..n {
        tiles.push(Tile {
            granule,
            row: row[i] as usize,
            col: col[i] as usize,
            data: rad[i * slab..(i + 1) * slab].to_vec(),
            bands: bands.clone(),
            size,
            center_lat: lat[i],
            center_lon: lon[i],
            ocean_fraction: ocean[i],
            cloud_fraction: cloud[i],
            mean_cot: cot[i],
            mean_ctp: ctp[i],
            mean_cer: cer[i],
        });
    }
    let labels = f
        .var_by_name(LABEL_VAR)
        .and_then(|v| v.data.as_i32())
        .and_then(complete)
        .map(<[i32]>::to_vec);
    Ok((tiles, labels))
}

fn parse_granule_attr(s: &str) -> Option<GranuleId> {
    // Format from GranuleId::Display: "{MOD|MYD}.A{yyyy}{ddd}.{hhmm}"
    use eoml_modis::product::Platform;
    use eoml_util::timebase::CivilDate;
    let mut parts = s.split('.');
    let platform = match parts.next()? {
        "MOD" => Platform::Terra,
        "MYD" => Platform::Aqua,
        _ => return None,
    };
    let adate = parts.next()?;
    if !adate.starts_with('A') || adate.len() != 8 {
        return None;
    }
    let year: i32 = adate[1..5].parse().ok()?;
    let doy: u16 = adate[5..8].parse().ok()?;
    let date = CivilDate::from_ordinal(year, doy)?;
    let hhmm = parts.next()?;
    let hh: u16 = hhmm.get(..2)?.parse().ok()?;
    let mm: u16 = hhmm.get(2..4)?.parse().ok()?;
    if !mm.is_multiple_of(5) || hh >= 24 {
        return None;
    }
    Some(GranuleId::new(platform, date, hh * 12 + mm / 5))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tiles::{extract_tiles, TileCriteria};
    use eoml_modis::product::Platform;
    use eoml_modis::synth::{SwathDims, SwathSynthesizer};
    use eoml_util::timebase::CivilDate;

    fn some_tiles() -> Vec<Tile> {
        tiles_of(128)
    }

    fn tiles_of(tile_size: usize) -> Vec<Tile> {
        let sy = SwathSynthesizer::new(2022, SwathDims::small());
        let crit = TileCriteria {
            tile_size,
            min_ocean_fraction: 0.0,
            min_cloud_fraction: 0.0,
        };
        for slot in 0..288 {
            let s = sy.synthesize(GranuleId::new(
                Platform::Terra,
                CivilDate::new(2022, 1, 1).unwrap(),
                slot,
            ));
            let set = extract_tiles(&s, &crit);
            if set.len() >= 2 {
                return set.tiles;
            }
        }
        panic!("no tiles found");
    }

    #[test]
    fn tiles_round_trip_through_netcdf_bytes() {
        let tiles = some_tiles();
        let f = write_tiles_nc(&tiles).unwrap();
        let bytes = f.encode().unwrap();
        let back = NcFile::decode(&bytes).unwrap();
        let (tiles2, labels) = read_tiles_nc(&back).unwrap();
        assert_eq!(tiles2, tiles);
        assert!(labels.is_none(), "reserved, every record at the fill value");
        let reserved = back.var_by_name(LABEL_VAR).unwrap();
        assert_eq!(reserved.data, NcValues::Int(vec![NC_FILL_INT; tiles.len()]));
    }

    #[test]
    fn append_labels_round_trips() {
        let tiles = some_tiles();
        let mut f = write_tiles_nc(&tiles).unwrap();
        let labels: Vec<i32> = (0..tiles.len() as i32).map(|i| i % 42).collect();
        append_labels(&mut f, &labels).unwrap();
        let back = NcFile::decode(&f.encode().unwrap()).unwrap();
        let (tiles2, labels2) = read_tiles_nc(&back).unwrap();
        assert_eq!(tiles2.len(), tiles.len());
        assert_eq!(labels2, Some(labels));
    }

    /// How labels reached the file before the variable was reserved: the
    /// unlabelled file had no `aicca_label` at all, and the append defined
    /// it, attribute and values, after the other variables.
    fn labelled_by_adding_the_variable(tiles: &[Tile], labels: &[i32]) -> Vec<u8> {
        let mut f = write_tiles_nc(tiles).unwrap();
        assert_eq!(f.vars.pop().unwrap().name, LABEL_VAR);
        let tile_dim = f.record_dim().unwrap();
        let v = f.add_var(LABEL_VAR, NcType::Int, vec![tile_dim]).unwrap();
        f.add_var_attr(v, "long_name", NcValues::text("AICCA cloud class (0-41)"))
            .unwrap();
        f.vars[v.0].data = NcValues::Int(labels.to_vec());
        f.encode().unwrap()
    }

    #[test]
    fn patched_file_equals_append_and_encode_and_the_former_layout() {
        for tile_size in [128, 32] {
            let tiles = tiles_of(tile_size);
            let labels: Vec<i32> = (0..tiles.len() as i32).map(|i| (i * 5) % 42).collect();
            let unlabelled = write_tiles_nc(&tiles).unwrap();
            let mut in_memory = unlabelled.clone();
            append_labels(&mut in_memory, &labels).unwrap();
            let expected = in_memory.encode().unwrap();

            let mut disk = io::Cursor::new(unlabelled.encode().unwrap());
            assert_eq!(disk.get_ref().len(), expected.len(), "layout is final");
            assert_eq!(read_labels(&mut disk).unwrap(), None);
            patch_labels(&mut disk, &labels).unwrap();
            assert_eq!(read_labels(&mut disk).unwrap(), Some(labels.clone()));
            assert!(disk.get_ref() == &expected, "tile size {tile_size}");
            assert!(expected == labelled_by_adding_the_variable(&tiles, &labels));
            // Patching again changes nothing; a wrong count is refused.
            patch_labels(&mut disk, &labels).unwrap();
            assert!(disk.get_ref() == &expected);
            let err = patch_labels(&mut disk, &labels[1..]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
            assert!(disk.get_ref() == &expected);
        }
    }

    #[test]
    fn radiance_is_read_from_its_records_alone_into_a_reused_buffer() {
        let mut tile = Vec::new();
        let mut held = None;
        // Largest first: the smaller file's tile must fit the buffer left.
        for tile_size in [128, 32] {
            let tiles = tiles_of(tile_size);
            let mut disk = io::Cursor::new(write_tiles_nc(&tiles).unwrap().encode().unwrap());
            let mut radiance = Vec::new();
            let each = |pixels: &[f32]| {
                radiance.push(pixels.to_vec());
                Ok(())
            };
            assert_eq!(
                for_each_radiance_tile(&mut disk, &mut tile, each).unwrap(),
                tiles.len()
            );
            let expected: Vec<Vec<f32>> = tiles.iter().map(|t| t.data.clone()).collect();
            assert!(radiance == expected, "tile size {tile_size}");
            assert_eq!(*held.get_or_insert(tile.as_ptr()), tile.as_ptr());
        }
        // Not a tile file: the header failure is the NetCDF error it was.
        let mut other = NcFile::new();
        let t = other.add_record_dim("tile").unwrap();
        other.add_var(LABEL_VAR, NcType::Int, vec![t]).unwrap();
        let mut disk = io::Cursor::new(other.encode().unwrap());
        let e = for_each_radiance_tile(&mut disk, &mut tile, |_| Ok(())).unwrap_err();
        let typed: Option<&NcError> = e.get_ref().and_then(|inner| inner.downcast_ref());
        assert_eq!(typed, Some(&NcError::UnknownVar));
    }

    #[test]
    fn an_unlabelled_file_in_the_former_layout_is_refused_by_name() {
        let mut f = write_tiles_nc(&tiles_of(32)).unwrap();
        assert_eq!(f.vars.pop().unwrap().name, LABEL_VAR);
        let before = f.encode().unwrap();
        let mut disk = io::Cursor::new(before.clone());
        let refusals = [
            read_labels(&mut disk).unwrap_err(),
            patch_labels(&mut disk, &[0; 4]).unwrap_err(),
        ];
        for e in refusals {
            assert_eq!(e.kind(), io::ErrorKind::InvalidData);
            let typed = e.get_ref().and_then(|inner| inner.downcast_ref());
            assert_eq!(typed, Some(&TileNcError::FormerLayout), "{e}");
            assert!(e.to_string().contains("predates the reserved aicca_label"));
        }
        assert!(disk.get_ref() == &before, "a refused file is not touched");
        // Any other header failure is still the NetCDF error it was.
        let e = read_labels(&mut io::Cursor::new(b"CDF\x01".to_vec())).unwrap_err();
        let typed: Option<&TileNcError> = e.get_ref().and_then(|inner| inner.downcast_ref());
        assert_eq!(typed, None, "{e}");
    }

    #[test]
    fn partly_patched_file_reads_as_unlabelled_and_can_be_labelled() {
        let tiles = tiles_of(32);
        let n = tiles.len();
        let labels: Vec<i32> = (0..n as i32).map(|i| i % 42).collect();
        let mut whole = write_tiles_nc(&tiles).unwrap();
        append_labels(&mut whole, &labels).unwrap();
        for k in [0, 1, n - 1] {
            // A writer killed after `k` of the `n` 4-byte writes.
            let mut partial = labels.clone();
            partial[k..].fill(NC_FILL_INT);
            let mut f = write_tiles_nc(&tiles).unwrap();
            let v = f.var_id(LABEL_VAR).unwrap();
            f.vars[v.0].data = NcValues::Int(partial);
            let mut disk = io::Cursor::new(f.encode().unwrap());
            assert_eq!(read_labels(&mut disk).unwrap(), None, "k = {k}");
            let decoded = NcFile::decode(disk.get_ref()).unwrap();
            assert_eq!(read_tiles_nc(&decoded).unwrap().1, None, "k = {k}");
            append_labels(&mut f, &labels).unwrap();
            assert_eq!(f, whole);
            patch_labels(&mut disk, &labels).unwrap();
            assert!(disk.get_ref() == &whole.encode().unwrap());
        }
    }

    #[test]
    fn append_labels_validates() {
        let tiles = some_tiles();
        let mut f = write_tiles_nc(&tiles).unwrap();
        assert!(matches!(
            append_labels(&mut f, &[1]),
            Err(TileNcError::BadLabels(_))
        ));
        let labels = vec![0i32; tiles.len()];
        append_labels(&mut f, &labels).unwrap();
        assert!(matches!(
            append_labels(&mut f, &labels),
            Err(TileNcError::BadLabels(_))
        ));
    }

    #[test]
    fn empty_tiles_rejected() {
        assert_eq!(write_tiles_nc(&[]), Err(TileNcError::NoTiles));
    }

    #[test]
    fn inconsistent_tiles_rejected() {
        let mut tiles = some_tiles();
        tiles[1].size = 64;
        tiles[1].data.truncate(6 * 64 * 64);
        assert_eq!(write_tiles_nc(&tiles), Err(TileNcError::InconsistentTiles));
    }

    #[test]
    fn file_has_expected_structure() {
        let tiles = some_tiles();
        let f = write_tiles_nc(&tiles).unwrap();
        assert_eq!(f.numrecs, tiles.len());
        assert!(f.var_by_name("radiance").is_some());
        assert!(f.var_by_name("cloud_fraction").is_some());
        assert_eq!(f.dim_by_name("band").unwrap().1.len, 6);
        assert_eq!(f.dim_by_name("x").unwrap().1.len, 128);
        assert_eq!(
            f.global_attr("platform").unwrap().values.as_text(),
            Some("Terra")
        );
    }

    #[test]
    fn granule_attr_parses_back() {
        let g = GranuleId::new(Platform::Aqua, CivilDate::new(2022, 3, 5).unwrap(), 130);
        assert_eq!(parse_granule_attr(&g.to_string()), Some(g));
        assert_eq!(parse_granule_attr("garbage"), None);
        assert_eq!(parse_granule_attr("MOD.A2022999.0000"), None);
    }
}
