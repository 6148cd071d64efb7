//! Procedural land/ocean mask.
//!
//! The real pipeline reads per-pixel land/sea flags from the MOD03 product;
//! here a deterministic fractal mask supplies them. Continents are the
//! super-level set of a low-frequency fBm field sampled on the unit sphere
//! (via 3-D-ish coordinates folded into 2-D noise), with the threshold
//! calibrated so the global land fraction is ≈29 %, matching Earth. The
//! pipeline's behaviour — some swaths are mostly ocean, some mostly land,
//! with spatially coherent boundaries — is preserved.

use crate::latlon::LatLon;
use eoml_util::noise::{Fbm, FbmCells};

/// Field values are capped just below 1.
const FIELD_CLAMP: f64 = 0.999_999;
/// Latitude where the polar elevation boost starts, the degrees over which
/// it ramps up, and its full size.
const POLAR_START_DEG: f64 = 66.0;
const POLAR_SPAN_DEG: f64 = 24.0;
const POLAR_BOOST: f64 = 0.18;
/// Side of the raster cells [`LandMask::land_plane`] decides whole: the
/// swath synthesizer's geolocation lattice step, so a cell's lat/lon extent
/// is a few tenths of a degree against noise cells of 2° and more.
const BLOCK: usize = 16;
/// Undecided cells are quartered down to this side before their samples are
/// evaluated one by one: each halving halves the bound, and below 4 × 4 a
/// centre evaluation saves too few samples to pay for itself.
const MIN_BLOCK: usize = 4;
/// Slack added to [`LandMask::variation_bound`] for floating-point error —
/// many orders above the ≈ 1e-13 it has to cover, many below any field
/// difference that matters.
const ROUND_OFF: f64 = 1e-9;

/// Deterministic global land/ocean mask.
#[derive(Debug, Clone, Copy)]
pub struct LandMask {
    field: Fbm,
    threshold: f64,
    /// Spatial frequency scale: continents span tens of degrees.
    scale: f64,
}

/// The planes [`LandMask::land_plane_into`] reads and the one it fills.
struct Raster<'a> {
    mask: &'a LandMask,
    lat: &'a [f32],
    lon: &'a [f32],
    pixels: usize,
    land: &'a mut [u8],
    cells: &'a mut [FbmCells; 2],
}

impl Raster<'_> {
    /// Indices of samples `p0..p1` of `line`.
    fn row(&self, line: usize, p0: usize, p1: usize) -> std::ops::Range<usize> {
        line * self.pixels + p0..line * self.pixels + p1
    }

    fn extent(&self, plane: &[f32], l0: usize, l1: usize, p0: usize, p1: usize) -> (f64, f64) {
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for line in l0..l1 {
            for &v in &plane[self.row(line, p0, p1)] {
                lo = lo.min(v);
                hi = hi.max(v);
            }
        }
        (lo as f64, hi as f64)
    }

    /// Flag lines `l0..l1` × samples `p0..p1`: whole if the bound decides
    /// them, by quarters if not, sample by sample below [`MIN_BLOCK`].
    fn classify(&mut self, l0: usize, l1: usize, p0: usize, p1: usize) {
        let lat = self.extent(self.lat, l0, l1, p0, p1);
        let lon = self.extent(self.lon, l0, l1, p0, p1);
        match self.mask.decide_box(lat, lon) {
            Some(flag) => {
                for line in l0..l1 {
                    let row = self.row(line, p0, p1);
                    self.land[row].fill(flag as u8);
                }
            }
            None if (l1 - l0).max(p1 - p0) > MIN_BLOCK => {
                let (lm, pm) = (l0 + (l1 - l0).div_ceil(2), p0 + (p1 - p0).div_ceil(2));
                for (la, lb) in [(l0, lm), (lm, l1)] {
                    for (pa, pb) in [(p0, pm), (pm, p1)] {
                        if la < lb && pa < pb {
                            self.classify(la, lb, pa, pb);
                        }
                    }
                }
            }
            None => {
                for line in l0..l1 {
                    for i in self.row(line, p0, p1) {
                        let p = LatLon::new(self.lat[i] as f64, self.lon[i] as f64);
                        self.land[i] = (self.mask.field_value_near(&p, self.cells)
                            >= self.mask.threshold) as u8;
                    }
                }
            }
        }
    }
}

impl LandMask {
    /// Earth-like mask (≈29 % land) for the given seed.
    pub fn earth_like(seed: u64) -> Self {
        Self {
            field: Fbm::new(seed, 5),
            // Calibrated in tests: fBm of 5 octaves is approximately
            // symmetric around 0.5; a threshold of 0.565 yields ~29 % land.
            threshold: 0.565,
            scale: 1.0 / 30.0,
        }
    }

    /// Mask with a custom land fraction knob (higher threshold ⇒ less land).
    pub fn with_threshold(seed: u64, threshold: f64) -> Self {
        Self {
            field: Fbm::new(seed, 5),
            threshold,
            scale: 1.0 / 30.0,
        }
    }

    /// Continuous "elevation-like" field value in `[0, 1)` at a point.
    /// Values above the threshold are land.
    pub fn field_value(&self, p: &LatLon) -> f64 {
        let ((x1, y1), (x2, y2)) = self.noise_coords(p);
        self.compose(p, self.field.sample(x1, y1), self.field.sample(x2, y2))
    }

    /// [`field_value`](Self::field_value), bit for bit, for points visited
    /// in small steps: both noise samples keep their lattice cells in `cells`.
    fn field_value_near(&self, p: &LatLon, cells: &mut [FbmCells; 2]) -> f64 {
        let ((x1, y1), (x2, y2)) = self.noise_coords(p);
        let v1 = self.field.sample_near(x1, y1, &mut cells[0]);
        let v2 = self.field.sample_near(x2, y2, &mut cells[1]);
        self.compose(p, v1, v2)
    }

    /// Project onto a cylinder with two longitude phases to hide the
    /// antimeridian seam: noise is sampled at lon and lon+180°.
    fn noise_coords(&self, p: &LatLon) -> ((f64, f64), (f64, f64)) {
        let x1 = (p.lon + 180.0) * self.scale / 1.0;
        let x2 = (p.lon.rem_euclid(360.0)) * self.scale / 1.0;
        let y = (p.lat + 90.0) * self.scale;
        ((x1, y), (x2 + 61.7, y + 13.3))
    }

    /// Blend the two samples with weights that swap smoothly across the
    /// seam, and add the polar boost.
    fn compose(&self, p: &LatLon, v1: f64, v2: f64) -> f64 {
        // Weight: 1 near lon=0, 0 near ±180, smooth.
        let w = 0.5 * (1.0 + (p.lon.to_radians()).cos());
        // Polar caps get an elevation boost so high latitudes trend toward
        // land/ice, vaguely Earth-like.
        let polar =
            ((p.lat.abs() - POLAR_START_DEG) / POLAR_SPAN_DEG).clamp(0.0, 1.0) * POLAR_BOOST;
        (v1 * w + v2 * (1.0 - w) + polar).min(FIELD_CLAMP)
    }

    /// Whether the point is land.
    pub fn is_land(&self, p: &LatLon) -> bool {
        self.field_value(p) >= self.threshold
    }

    /// An upper bound on `|field_value(p) − field_value(c)|` for any `p`
    /// within `dlat`, `dlon` degrees of `c`, provided no longitude between
    /// them has the other sign (`rem_euclid` makes the second sample jump at
    /// lon = 0, where its weight is zero). Term by term:
    ///
    /// * the two noise samples enter as a convex combination, and each moves
    ///   by at most `Fbm::lipschitz · scale · (dlat + dlon)`;
    /// * the weight `w = ½(1 + cos lon)` moves by at most `½·dlon` in radians
    ///   and multiplies `v1 − v2`, which lies in `(−1, 1)`;
    /// * the polar boost has slope `POLAR_BOOST / POLAR_SPAN_DEG` per degree;
    /// * `min` with the clamp cannot widen a difference;
    /// * [`ROUND_OFF`] covers evaluating all of this in `f64` and the last-bit
    ///   shift `LatLon::new`'s longitude normalisation applies to each point.
    fn variation_bound(&self, dlat: f64, dlon: f64) -> f64 {
        self.field.lipschitz() * self.scale * (dlat + dlon)
            + 0.5 * dlon.to_radians()
            + POLAR_BOOST / POLAR_SPAN_DEG * dlat
            + ROUND_OFF
    }

    /// The centre of a lat/lon box and the most `field_value` can differ
    /// from its value there anywhere in the box; `None` where
    /// [`variation_bound`](Self::variation_bound) does not apply.
    fn box_bound(&self, lat: (f64, f64), lon: (f64, f64)) -> Option<(LatLon, f64)> {
        // Longitudes of both signs: the box holds lon = 0, or it straddles
        // the antimeridian and its extent is the whole globe.
        if (lon.0 < 0.0 && lon.1 >= 0.0) || lon.0 < -180.0 || lon.1 > 180.0 {
            return None;
        }
        let centre = LatLon::new(0.5 * (lat.0 + lat.1), 0.5 * (lon.0 + lon.1));
        let dlat = (centre.lat - lat.0).max(lat.1 - centre.lat);
        let dlon = (centre.lon - lon.0).max(lon.1 - centre.lon);
        Some((centre, self.variation_bound(dlat, dlon)))
    }

    /// Decide a whole lat/lon box at once: `Some(flag)` when every point in
    /// it provably has `is_land == flag`, `None` when the bound cannot tell
    /// (a coastline runs through or near the box) or does not apply.
    fn decide_box(&self, lat: (f64, f64), lon: (f64, f64)) -> Option<bool> {
        let (centre, bound) = self.box_bound(lat, lon)?;
        let f = self.field_value(&centre);
        if f + bound >= FIELD_CLAMP {
            // Some point of the box may sit on the clamp; leave those to the
            // per-pixel comparison.
            None
        } else if f - bound >= self.threshold {
            Some(true)
        } else if f + bound < self.threshold {
            Some(false)
        } else {
            None
        }
    }

    /// Land flags (1 = land) of a raster with `pixels` samples per line and
    /// per-sample geolocation `lat`/`lon` in degrees — exactly
    /// `is_land(&LatLon::new(lat[i] as f64, lon[i] as f64))` for every `i`.
    ///
    /// The raster is classified one [`BLOCK`]-square cell at a time: the
    /// field is evaluated once at the centre of the cell's lat/lon extent,
    /// and when it clears the threshold by more than
    /// [`variation_bound`](Self::variation_bound) the whole cell takes that
    /// flag. A cell the bound cannot decide is quartered and its quarters
    /// tried the same way; only what is still undecided at [`MIN_BLOCK`] —
    /// the samples a coastline may cross — is evaluated one by one, reusing
    /// the noise lattice between neighbours.
    pub fn land_plane(&self, lat: &[f32], lon: &[f32], pixels: usize) -> Vec<u8> {
        let mut land = Vec::new();
        self.land_plane_into(lat, lon, pixels, &mut land, &mut Default::default());
        land
    }

    /// [`land_plane`](Self::land_plane) into `land`, which is resized to the
    /// raster and keeps its allocation: every flag is written where it lies.
    /// `cells` is the noise lattice's working space; whatever it held is
    /// forgotten first, so any mask's may be passed.
    pub fn land_plane_into(
        &self,
        lat: &[f32],
        lon: &[f32],
        pixels: usize,
        land: &mut Vec<u8>,
        cells: &mut [FbmCells; 2],
    ) {
        assert_eq!(lat.len(), lon.len(), "one longitude per latitude");
        if pixels == 0 {
            land.clear();
            return;
        }
        assert_eq!(lat.len() % pixels, 0, "whole lines only");
        let lines = lat.len() / pixels;
        // Every cell below is flagged whole or sample by sample, so the
        // resize need not clear what an earlier raster left.
        land.resize(lat.len(), 0);
        cells.iter_mut().for_each(FbmCells::clear);
        let mut raster = Raster {
            mask: self,
            lat,
            lon,
            pixels,
            land,
            cells,
        };
        for l0 in (0..lines).step_by(BLOCK) {
            for p0 in (0..pixels).step_by(BLOCK) {
                raster.classify(l0, (l0 + BLOCK).min(lines), p0, (p0 + BLOCK).min(pixels));
            }
        }
    }

    /// Monte-Carlo estimate of the global land fraction using an
    /// area-correct (cosine-latitude) sample of `n` points.
    pub fn land_fraction(&self, n: usize) -> f64 {
        let mut land = 0usize;
        for i in 0..n {
            // Low-discrepancy-ish lattice over the sphere.
            let u = (i as f64 + 0.5) / n as f64;
            let v = (i as f64 * 0.618_033_988_75).fract();
            let lat = (2.0 * u - 1.0).asin().to_degrees();
            let lon = v * 360.0 - 180.0;
            if self.is_land(&LatLon::new(lat, lon)) {
                land += 1;
            }
        }
        land as f64 / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orbit::{OrbitParams, SunSyncOrbit, SwathGeometry};

    /// Lat/lon planes of a `lines × pixels` raster scanned from `t0`, every
    /// sample geolocated directly (no interpolation lattice).
    fn scanned_raster(t0: f64, lines: usize, pixels: usize) -> (Vec<f32>, Vec<f32>) {
        let geom = SwathGeometry::modis_1km(SunSyncOrbit::new(OrbitParams::terra()));
        let mut lat = Vec::with_capacity(lines * pixels);
        let mut lon = Vec::with_capacity(lines * pixels);
        for line in 0..lines {
            let t = t0 + line as f64 * geom.line_period_s();
            for px in 0..pixels {
                let p = geom.pixel(t, px * geom.pixels_per_line / pixels);
                lat.push(p.lat as f32);
                lon.push(p.lon as f32);
            }
        }
        (lat, lon)
    }

    /// Rasters spread over one and a half orbits: tropics, both poles, the
    /// antimeridian and the prime meridian all occur.
    fn rasters() -> Vec<(Vec<f32>, Vec<f32>, usize)> {
        (0..30)
            .map(|k| {
                let (lat, lon) = scanned_raster(k as f64 * 300.0, 24, 1354);
                (lat, lon, 1354)
            })
            .collect()
    }

    fn cells(lines: usize, pixels: usize) -> impl Iterator<Item = Vec<usize>> {
        (0..lines).step_by(BLOCK).flat_map(move |l0| {
            (0..pixels).step_by(BLOCK).map(move |p0| {
                (l0..(l0 + BLOCK).min(lines))
                    .flat_map(|l| (p0..(p0 + BLOCK).min(pixels)).map(move |p| l * pixels + p))
                    .collect()
            })
        })
    }

    #[test]
    fn land_plane_equals_per_pixel_is_land() {
        let masks = [
            LandMask::earth_like(2022),
            LandMask::earth_like(3),
            LandMask::with_threshold(7, 0.3),
            LandMask::with_threshold(7, 0.8),
            // Nothing clears these: at and above the clamp.
            LandMask::with_threshold(7, FIELD_CLAMP),
            LandMask::with_threshold(7, 1.0),
        ];
        let (mut polar, mut seam, mut greenwich) = (false, false, false);
        for (lat, lon, pixels) in rasters() {
            polar |= lat.iter().any(|v| v.abs() > 80.0);
            seam |= lon.iter().any(|&v| v > 179.0) && lon.iter().any(|&v| v < -179.0);
            greenwich |= lon.iter().any(|&v| (0.0..1.0).contains(&v))
                && lon.iter().any(|&v| (-1.0..0.0).contains(&v));
            for m in &masks {
                let reference: Vec<u8> = lat
                    .iter()
                    .zip(&lon)
                    .map(|(&la, &lo)| m.is_land(&LatLon::new(la as f64, lo as f64)) as u8)
                    .collect();
                assert_eq!(m.land_plane(&lat, &lon, pixels), reference);
            }
        }
        assert!(polar && seam && greenwich, "{polar} {seam} {greenwich}");
        assert!(LandMask::earth_like(1).land_plane(&[], &[], 0).is_empty());
    }

    #[test]
    fn variation_bound_is_conservative_on_every_decided_cell() {
        let m = LandMask::earth_like(2022);
        let (mut decided, mut undecided, mut tightest) = (0usize, 0usize, 0.0f64);
        for (lat, lon, pixels) in rasters() {
            for cell in cells(lat.len() / pixels, pixels) {
                let span = |plane: &[f32]| {
                    cell.iter()
                        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &i| {
                            (lo.min(plane[i] as f64), hi.max(plane[i] as f64))
                        })
                };
                let Some(flag) = m.decide_box(span(&lat), span(&lon)) else {
                    undecided += 1;
                    continue;
                };
                decided += 1;
                let (centre, bound) = m.box_bound(span(&lat), span(&lon)).expect("decided");
                let at_centre = m.field_value(&centre);
                for &i in &cell {
                    let p = LatLon::new(lat[i] as f64, lon[i] as f64);
                    let moved = (m.field_value(&p) - at_centre).abs();
                    assert!(moved <= bound, "moved {moved} > bound {bound} at {p:?}");
                    assert_eq!(m.is_land(&p), flag);
                    tightest = tightest.max(moved / bound);
                }
            }
        }
        // The bound decides most of the raster without being vacuous.
        assert!(decided > undecided, "{decided} decided, {undecided} not");
        assert!(
            tightest > 0.05,
            "bound never within 20x of reality: {tightest}"
        );
    }

    #[test]
    fn boxes_the_bound_does_not_cover_are_left_undecided() {
        let m = LandMask::with_threshold(5, 0.0);
        // Everything is land at threshold 0, so only the guards say `None`.
        assert_eq!(m.decide_box((10.0, 10.1), (20.0, 20.1)), Some(true));
        assert_eq!(m.decide_box((10.0, 10.1), (-0.05, 0.05)), None, "lon = 0");
        assert_eq!(m.decide_box((10.0, 10.1), (-179.9, 179.9)), None, "seam");
        assert_eq!(m.decide_box((10.0, 10.1), (179.0, 181.0)), None);
        assert_eq!(m.decide_box((10.0, 10.1), (-0.1, -0.0)), None, "-0.0 is 0");
        // A box whose values may reach the clamp; one octave plus the polar
        // boost gets there on some seeds, five octaves never do.
        let (top, p) = (0..50)
            .find_map(|seed| {
                let top = LandMask {
                    field: Fbm::new(seed, 1),
                    ..LandMask::with_threshold(seed, 0.5)
                };
                (0..40_000)
                    .map(|i| {
                        LatLon::new(90.0 - (i / 400) as f64 * 0.05, (i % 400) as f64 * 0.4 + 1.0)
                    })
                    .find(|p| top.field_value(p) > FIELD_CLAMP - 1e-3)
                    .map(|p| (top, p))
            })
            .expect("the polar boost lifts some point to the clamp");
        assert_eq!(
            top.decide_box((p.lat, p.lat), (p.lon, p.lon)),
            None,
            "{p:?}"
        );
    }

    #[test]
    fn mask_is_deterministic() {
        let m1 = LandMask::earth_like(2022);
        let m2 = LandMask::earth_like(2022);
        for i in 0..100 {
            let p = LatLon::new(
                (i as f64 * 1.7) % 80.0 - 40.0,
                (i as f64 * 3.1) % 360.0 - 180.0,
            );
            assert_eq!(m1.is_land(&p), m2.is_land(&p));
        }
    }

    #[test]
    fn land_fraction_is_earth_like() {
        let m = LandMask::earth_like(2022);
        let frac = m.land_fraction(20_000);
        assert!(
            (0.20..=0.40).contains(&frac),
            "land fraction {frac} should be roughly Earth's 0.29"
        );
    }

    #[test]
    fn threshold_controls_land_fraction() {
        let wet = LandMask::with_threshold(7, 0.8);
        let dry = LandMask::with_threshold(7, 0.3);
        assert!(wet.land_fraction(5_000) < dry.land_fraction(5_000));
    }

    #[test]
    fn mask_is_spatially_coherent() {
        // Neighbouring points (≈10 km apart) should usually agree — a mask
        // of uncorrelated noise would break tile-level ocean filtering.
        let m = LandMask::earth_like(2022);
        let mut agree = 0;
        let mut total = 0;
        for i in 0..500 {
            let lat = (i as f64 * 0.31) % 120.0 - 60.0;
            let lon = (i as f64 * 1.13) % 360.0 - 180.0;
            let p = LatLon::new(lat, lon);
            let q = LatLon::new(lat + 0.09, lon);
            if m.is_land(&p) == m.is_land(&q) {
                agree += 1;
            }
            total += 1;
        }
        assert!(
            agree as f64 / total as f64 > 0.95,
            "coherence {agree}/{total}"
        );
    }

    #[test]
    fn no_seam_at_antimeridian() {
        // Field values just west and just east of ±180° must be close.
        let m = LandMask::earth_like(2022);
        for i in 0..50 {
            let lat = i as f64 * 2.0 - 50.0;
            let w = m.field_value(&LatLon::new(lat, 179.95));
            let e = m.field_value(&LatLon::new(lat, -179.95));
            assert!(
                (w - e).abs() < 0.05,
                "seam jump {} at lat {lat}",
                (w - e).abs()
            );
        }
    }

    #[test]
    fn different_seeds_make_different_worlds() {
        let a = LandMask::earth_like(1);
        let b = LandMask::earth_like(2);
        let diffs = (0..200)
            .filter(|&i| {
                let p = LatLon::new(
                    (i as f64 * 0.83) % 120.0 - 60.0,
                    (i as f64 * 2.9) % 360.0 - 180.0,
                );
                a.is_land(&p) != b.is_land(&p)
            })
            .count();
        assert!(diffs > 20, "only {diffs}/200 differ");
    }

    #[test]
    fn field_value_in_range() {
        let m = LandMask::earth_like(5);
        for i in 0..300 {
            let p = LatLon::new(
                (i as f64 * 0.61) % 180.0 - 90.0,
                (i as f64 * 1.27) % 360.0 - 180.0,
            );
            let v = m.field_value(&p);
            assert!((0.0..1.0).contains(&v), "{v}");
        }
    }

    #[test]
    fn cells_used_by_another_mask_are_forgotten() {
        // A raster of 4 × 4 samples 1e-4° apart, each mask's threshold the
        // field value at one of them: no cell is decided whole, so both
        // calls evaluate every sample in the same noise lattice cells.
        let (lat0, lon0) = (10.3, 20.7);
        let lat: Vec<f32> = (0..16).map(|i| lat0 + (i / 4) as f32 * 1e-4).collect();
        let lon: Vec<f32> = (0..16).map(|i| lon0 + (i % 4) as f32 * 1e-4).collect();
        let p = LatLon::new(lat[5] as f64, lon[5] as f64);
        let at = |seed| LandMask::with_threshold(seed, LandMask::earth_like(seed).field_value(&p));
        let (a, b) = (at(1), at(2));
        let mut cells = Default::default();
        let mut land = Vec::new();
        a.land_plane_into(&lat, &lon, 4, &mut land, &mut cells);
        b.land_plane_into(&lat, &lon, 4, &mut land, &mut cells);
        let fresh = b.land_plane(&lat, &lon, 4);
        assert!(fresh.contains(&0) && fresh.contains(&1), "{fresh:?}");
        assert_eq!(land, fresh);
    }
}
