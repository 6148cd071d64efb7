//! Tile extraction and selection.

use eoml_modis::granule::GranuleId;
use eoml_modis::synth::{Swath, RADIANCE_FILL};

/// Tile-selection thresholds (paper defaults: ocean-only tiles with at
/// least 30 % cloud pixels).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TileCriteria {
    /// Square tile edge, pixels.
    pub tile_size: usize,
    /// Minimum ocean-pixel fraction (1.0 = no land pixels allowed).
    pub min_ocean_fraction: f64,
    /// Minimum cloud-pixel fraction.
    pub min_cloud_fraction: f64,
}

impl Default for TileCriteria {
    fn default() -> Self {
        Self {
            tile_size: 128,
            min_ocean_fraction: 1.0,
            min_cloud_fraction: 0.3,
        }
    }
}

/// One selected ocean-cloud tile.
#[derive(Debug, Clone, PartialEq)]
pub struct Tile {
    /// Source granule.
    pub granule: GranuleId,
    /// Tile row within the swath's tile grid.
    pub row: usize,
    /// Tile column within the swath's tile grid.
    pub col: usize,
    /// Band-major pixel data: `data[b * size² + y * size + x]`,
    /// standardized per band (zero mean, unit variance within the tile).
    pub data: Vec<f32>,
    /// Band numbers, matching the swath.
    pub bands: Vec<u8>,
    /// Tile edge, pixels.
    pub size: usize,
    /// Latitude of the tile center, degrees.
    pub center_lat: f32,
    /// Longitude of the tile center, degrees.
    pub center_lon: f32,
    /// Fraction of ocean pixels.
    pub ocean_fraction: f32,
    /// Fraction of cloudy pixels.
    pub cloud_fraction: f32,
    /// Mean cloud optical thickness over cloudy pixels.
    pub mean_cot: f32,
    /// Mean cloud-top pressure over cloudy pixels, hPa.
    pub mean_ctp: f32,
    /// Mean cloud effective radius over cloudy pixels, µm.
    pub mean_cer: f32,
}

impl Tile {
    /// Pixels per band.
    pub fn pixels(&self) -> usize {
        self.size * self.size
    }

    /// Borrow one band plane.
    pub fn band_plane(&self, b: usize) -> &[f32] {
        let n = self.pixels();
        &self.data[b * n..(b + 1) * n]
    }
}

/// The result of preprocessing one swath.
#[derive(Debug, Clone, Default)]
pub struct TileSet {
    /// Selected tiles.
    pub tiles: Vec<Tile>,
    /// Tile windows considered.
    pub candidates: usize,
    /// Windows rejected for land contamination.
    pub rejected_land: usize,
    /// Windows rejected for insufficient cloud.
    pub rejected_clear: usize,
    /// True when the swath was skipped entirely (night granule without the
    /// reflective bands AICCA needs).
    pub skipped_night: bool,
}

impl TileSet {
    /// Number of selected tiles.
    pub fn len(&self) -> usize {
        self.tiles.len()
    }

    /// Whether no tiles were selected.
    pub fn is_empty(&self) -> bool {
        self.tiles.is_empty()
    }
}

/// Extract and select tiles from a swath. Night granules yield an empty set
/// flagged `skipped_night`.
pub fn extract_tiles(swath: &Swath, criteria: &TileCriteria) -> TileSet {
    let mut set = select_tiles(swath, criteria);
    cut_tiles(swath, &mut set.tiles);
    set
}

/// Give each of `tiles` its own copy of its pixels, cut from `swath`.
pub(crate) fn cut_tiles(swath: &Swath, tiles: &mut [Tile]) {
    for tile in tiles {
        let mut pixels = vec![0.0; swath.bands.len() * tile.size * tile.size];
        cut_tile(swath, tile, &mut pixels);
        tile.data = pixels;
    }
}

/// The windows of `swath` that meet `criteria`, as tiles whose `data` is
/// empty: [`extract_tiles`] without the pixels, which [`cut_tile`] cuts
/// wherever the caller wants them.
pub fn select_tiles(swath: &Swath, criteria: &TileCriteria) -> TileSet {
    assert!(criteria.tile_size > 0);
    if !swath.day {
        return TileSet {
            skipped_night: true,
            ..TileSet::default()
        };
    }
    let ts = criteria.tile_size;
    let rows = swath.dims.lines / ts;
    let cols = swath.dims.pixels / ts;
    let mut set = TileSet {
        candidates: rows * cols,
        ..TileSet::default()
    };
    for row in 0..rows {
        for col in 0..cols {
            let stats = window_stats(swath, row, col, ts);
            if stats.ocean_fraction < criteria.min_ocean_fraction as f32 {
                set.rejected_land += 1;
            } else if stats.cloud_fraction < criteria.min_cloud_fraction as f32 {
                set.rejected_clear += 1;
            } else {
                set.tiles.push(Tile {
                    granule: swath.id,
                    row,
                    col,
                    data: Vec::new(),
                    bands: swath.bands.clone(),
                    size: ts,
                    center_lat: stats.center_lat,
                    center_lon: stats.center_lon,
                    ocean_fraction: stats.ocean_fraction,
                    cloud_fraction: stats.cloud_fraction,
                    mean_cot: stats.mean_cot,
                    mean_ctp: stats.mean_ctp,
                    mean_cer: stats.mean_cer,
                });
            }
        }
    }
    set
}

struct WindowStats {
    ocean_fraction: f32,
    cloud_fraction: f32,
    mean_cot: f32,
    mean_ctp: f32,
    mean_cer: f32,
    center_lat: f32,
    center_lon: f32,
}

fn window_stats(swath: &Swath, row: usize, col: usize, ts: usize) -> WindowStats {
    let dims = swath.dims;
    let mut ocean = 0usize;
    let mut cloudy = 0usize;
    let mut cot = 0.0f64;
    let mut ctp = 0.0f64;
    let mut cer = 0.0f64;
    for y in 0..ts {
        let line = row * ts + y;
        for x in 0..ts {
            let i = dims.idx(line, col * ts + x);
            if swath.land[i] == 0 {
                ocean += 1;
            }
            if swath.cloud[i] == 1 {
                cloudy += 1;
                cot += swath.cot[i] as f64;
                ctp += swath.ctp[i] as f64;
                cer += swath.cer[i] as f64;
            }
        }
    }
    let n = (ts * ts) as f32;
    let center = dims.idx(row * ts + ts / 2, col * ts + ts / 2);
    WindowStats {
        ocean_fraction: ocean as f32 / n,
        cloud_fraction: cloudy as f32 / n,
        mean_cot: if cloudy > 0 {
            (cot / cloudy as f64) as f32
        } else {
            0.0
        },
        mean_ctp: if cloudy > 0 {
            (ctp / cloudy as f64) as f32
        } else {
            0.0
        },
        mean_cer: if cloudy > 0 {
            (cer / cloudy as f64) as f32
        } else {
            0.0
        },
        center_lat: swath.lat[center],
        center_lon: swath.lon[center],
    }
}

/// Cut `tile`'s window of `swath` into `pixels` (`bands × size²` floats,
/// band-major), each band standardized within the tile: the `data`
/// [`extract_tiles`] gives it.
pub fn cut_tile(swath: &Swath, tile: &Tile, pixels: &mut [f32]) {
    let (row, col, ts) = (tile.row, tile.col, tile.size);
    assert_eq!(
        pixels.len(),
        swath.bands.len() * ts * ts,
        "one tile's pixels"
    );
    let dims = swath.dims;
    let npix = ts * ts;
    for (b, plane) in pixels.chunks_exact_mut(npix).enumerate() {
        let src = swath.band_plane(b);
        for y in 0..ts {
            let line = row * ts + y;
            let src_row = &src[dims.idx(line, col * ts)..dims.idx(line, col * ts) + ts];
            plane[y * ts..(y + 1) * ts].copy_from_slice(src_row);
        }
        // Per-band standardization within the tile — the normalization the
        // RICC encoder expects (texture, not absolute radiance).
        let mean = plane.iter().map(|&v| v as f64).sum::<f64>() / npix as f64;
        let var = plane
            .iter()
            .map(|&v| (v as f64 - mean).powi(2))
            .sum::<f64>()
            / npix as f64;
        let std = var.sqrt().max(1e-6);
        for v in plane.iter_mut() {
            debug_assert!(*v != RADIANCE_FILL, "night tile leaked through");
            *v = ((*v as f64 - mean) / std) as f32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eoml_modis::product::Platform;
    use eoml_modis::synth::{SwathDims, SwathSynthesizer};
    use eoml_util::timebase::CivilDate;

    fn synth() -> SwathSynthesizer {
        SwathSynthesizer::new(2022, SwathDims::small())
    }

    fn gid(slot: u16) -> GranuleId {
        GranuleId::new(Platform::Terra, CivilDate::new(2022, 1, 1).unwrap(), slot)
    }

    fn day_swath() -> Swath {
        let sy = synth();
        for slot in 0..288 {
            let s = sy.synthesize(gid(slot));
            if s.day {
                return s;
            }
        }
        panic!("no day granule found");
    }

    #[test]
    fn tile_grid_dimensions() {
        let s = day_swath();
        let set = extract_tiles(&s, &TileCriteria::default());
        // 256×256 swath with 128-pixel tiles → 4 candidate windows.
        assert_eq!(set.candidates, 4);
        assert_eq!(
            set.tiles.len() + set.rejected_land + set.rejected_clear,
            set.candidates
        );
    }

    #[test]
    fn selected_tiles_meet_criteria() {
        let sy = synth();
        let crit = TileCriteria::default();
        let mut selected = 0;
        for slot in 0..288 {
            let s = sy.synthesize(gid(slot));
            let set = extract_tiles(&s, &crit);
            for t in &set.tiles {
                assert!(t.ocean_fraction >= 1.0, "ocean {}", t.ocean_fraction);
                assert!(t.cloud_fraction >= 0.3, "cloud {}", t.cloud_fraction);
                assert_eq!(t.size, 128);
                assert_eq!(t.bands.len(), 6);
                assert_eq!(t.data.len(), 6 * 128 * 128);
                selected += 1;
            }
        }
        assert!(
            selected > 10,
            "expected some ocean-cloud tiles, got {selected}"
        );
    }

    #[test]
    fn night_granules_are_skipped() {
        let sy = synth();
        let night = (0..288)
            .map(|slot| sy.synthesize(gid(slot)))
            .find(|s| !s.day)
            .expect("a night granule exists");
        let set = extract_tiles(&night, &TileCriteria::default());
        assert!(set.skipped_night);
        assert!(set.is_empty());
        assert_eq!(set.candidates, 0);
    }

    #[test]
    fn tile_data_is_standardized() {
        let s = day_swath();
        let crit = TileCriteria {
            min_ocean_fraction: 0.0,
            min_cloud_fraction: 0.0,
            ..TileCriteria::default()
        };
        let set = extract_tiles(&s, &crit);
        assert!(!set.is_empty());
        for t in &set.tiles {
            for b in 0..t.bands.len() {
                let plane = t.band_plane(b);
                let mean: f64 = plane.iter().map(|&v| v as f64).sum::<f64>() / plane.len() as f64;
                let var: f64 = plane
                    .iter()
                    .map(|&v| (v as f64 - mean).powi(2))
                    .sum::<f64>()
                    / plane.len() as f64;
                assert!(mean.abs() < 1e-3, "band {b} mean {mean}");
                // Constant planes are standardized to 0 (std clamp).
                assert!(var < 1.1, "band {b} var {var}");
            }
        }
    }

    #[test]
    fn loosening_criteria_selects_more_tiles() {
        let sy = synth();
        let strict = TileCriteria::default();
        let loose = TileCriteria {
            min_ocean_fraction: 0.0,
            min_cloud_fraction: 0.0,
            ..TileCriteria::default()
        };
        let mut n_strict = 0;
        let mut n_loose = 0;
        for slot in (0..288).step_by(16) {
            let s = sy.synthesize(gid(slot));
            n_strict += extract_tiles(&s, &strict).len();
            n_loose += extract_tiles(&s, &loose).len();
        }
        assert!(n_loose > n_strict, "{n_loose} vs {n_strict}");
        // Loose criteria accept every daytime candidate window.
        let day_candidates: usize = (0..288)
            .step_by(16)
            .map(|slot| extract_tiles(&sy.synthesize(gid(slot)), &loose).candidates)
            .sum();
        assert_eq!(n_loose, day_candidates);
    }

    #[test]
    fn smaller_tiles_make_more_candidates() {
        let s = day_swath();
        let small = TileCriteria {
            tile_size: 64,
            ..TileCriteria::default()
        };
        let set = extract_tiles(&s, &small);
        assert_eq!(set.candidates, 16); // 4×4 windows of 64 in 256²
    }

    #[test]
    fn rejection_counters_are_plausible() {
        let sy = synth();
        let mut land = 0;
        let mut clear = 0;
        for slot in (0..288).step_by(8) {
            let set = extract_tiles(&sy.synthesize(gid(slot)), &TileCriteria::default());
            land += set.rejected_land;
            clear += set.rejected_clear;
        }
        assert!(land > 0, "some tiles must touch land");
        let _ = clear;
    }

    #[test]
    fn full_modis_dims_yield_150_candidates() {
        // The full 2030×1354 swath holds 15×10 = 150 tile windows — the
        // number behind "80 files ⇒ 12,000 tiles".
        let sy = SwathSynthesizer::new(2022, SwathDims::modis());
        let s = sy
            .landmask()
            .is_land(&eoml_geo::latlon::LatLon::new(0.0, 0.0));
        let _ = s; // landmask touch; the real check is the grid arithmetic
        let dims = SwathDims::modis();
        assert_eq!((dims.lines / 128) * (dims.pixels / 128), 150);
    }

    #[test]
    fn extraction_is_deterministic() {
        let s = day_swath();
        let a = extract_tiles(&s, &TileCriteria::default());
        let b = extract_tiles(&s, &TileCriteria::default());
        assert_eq!(a.tiles, b.tiles);
    }
}
