//! The swath synthesizer — deterministic, physically plausible MODIS scenes.
//!
//! A [`Swath`] is the in-memory union of the three products for one granule:
//! radiances (MOD02), geolocation and land mask (MOD03), and cloud products
//! (MOD06). The synthesizer produces it from `(seed, granule id)` alone:
//!
//! * geolocation comes from the sun-synchronous orbit propagator, computed
//!   on a coarse lattice and interpolated through 3-D unit vectors (the same
//!   trick the real MOD03 5-km → 1-km interpolation uses, and robust across
//!   the antimeridian);
//! * cloudiness is a multi-octave fBm field in along-track/cross-track
//!   coordinates (continuous across granule boundaries) modulated by a
//!   latitude climatology (ITCZ and mid-latitude storm tracks are cloudier);
//! * radiances follow a toy radiative model: reflective bands respond to
//!   surface albedo and cloud optical thickness (and are missing at night,
//!   as in the real instrument), thermal bands to surface/cloud-top
//!   brightness temperature.

use crate::granule::GranuleId;
use crate::product::{is_reflective_band, AICCA_BANDS};
use eoml_geo::landmask::LandMask;
use eoml_geo::latlon::LatLon;
use eoml_geo::orbit::{OrbitParams, SunSyncOrbit, SwathGeometry};
use eoml_util::noise::{Fbm, FbmCells, FbmRowCache, FbmRows};
use std::sync::Arc;

/// Fill value for radiances that are unavailable (reflective bands at
/// night) — mirrors the `_FillValue` convention of the real product.
pub const RADIANCE_FILL: f32 = -999.0;

/// Swath raster dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SwathDims {
    /// Along-track scan lines.
    pub lines: usize,
    /// Cross-track pixels per line.
    pub pixels: usize,
}

impl SwathDims {
    /// Full MODIS 1-km granule: 2030 × 1354.
    pub const fn modis() -> Self {
        Self {
            lines: 2030,
            pixels: 1354,
        }
    }

    /// Reduced size for tests and examples: 256 × 256 (4 × 2 tiles of 128²).
    pub const fn small() -> Self {
        Self {
            lines: 256,
            pixels: 256,
        }
    }

    /// Total pixel count.
    pub const fn len(&self) -> usize {
        self.lines * self.pixels
    }

    /// True if either dimension is zero.
    pub const fn is_empty(&self) -> bool {
        self.lines == 0 || self.pixels == 0
    }

    /// Flat index of `(line, pixel)`.
    pub const fn idx(&self, line: usize, pixel: usize) -> usize {
        line * self.pixels + pixel
    }
}

/// One granule's worth of co-registered fields (the union of MOD02, MOD03
/// and MOD06 for the pipeline's purposes).
#[derive(Debug, Clone)]
pub struct Swath {
    /// Which granule this is.
    pub id: GranuleId,
    /// Raster dimensions.
    pub dims: SwathDims,
    /// Band numbers present in `radiance`, in order.
    pub bands: Vec<u8>,
    /// Radiances, one plane of `dims.len()` pixels per band:
    /// `radiance[b][idx]`. Kept as separate planes so products and swaths
    /// exchange them without a whole-granule buffer. Reflective bands hold
    /// [`RADIANCE_FILL`] at night.
    pub radiance: Vec<Vec<f32>>,
    /// Per-pixel latitude, degrees.
    pub lat: Vec<f32>,
    /// Per-pixel longitude, degrees.
    pub lon: Vec<f32>,
    /// 1 = land, 0 = ocean (from MOD03 land/sea flags).
    pub land: Vec<u8>,
    /// 1 = cloudy, 0 = clear (from the MOD06 cloud mask).
    pub cloud: Vec<u8>,
    /// Cloud optical thickness (0 where clear).
    pub cot: Vec<f32>,
    /// Cloud-top pressure, hPa (0 where clear).
    pub ctp: Vec<f32>,
    /// Cloud effective radius, µm (0 where clear).
    pub cer: Vec<f32>,
    /// Whether the granule is daytime (reflective bands valid).
    pub day: bool,
}

impl Swath {
    /// A swath of granule `id` with no pixels, for
    /// [`SwathSynthesizer::synthesize_into`] or a decode to fill.
    pub fn empty(id: GranuleId) -> Swath {
        Swath {
            id,
            dims: SwathDims {
                lines: 0,
                pixels: 0,
            },
            bands: Vec::new(),
            radiance: Vec::new(),
            lat: Vec::new(),
            lon: Vec::new(),
            land: Vec::new(),
            cloud: Vec::new(),
            cot: Vec::new(),
            ctp: Vec::new(),
            cer: Vec::new(),
            day: false,
        }
    }

    /// Fraction of pixels flagged cloudy.
    pub fn cloud_fraction(&self) -> f64 {
        if self.cloud.is_empty() {
            return 0.0;
        }
        self.cloud.iter().map(|&c| c as u64).sum::<u64>() as f64 / self.cloud.len() as f64
    }

    /// Fraction of pixels flagged ocean.
    pub fn ocean_fraction(&self) -> f64 {
        if self.land.is_empty() {
            return 0.0;
        }
        1.0 - self.land.iter().map(|&c| c as u64).sum::<u64>() as f64 / self.land.len() as f64
    }

    /// Radiance plane for band-list index `b` (not band number).
    pub fn band_plane(&self, b: usize) -> &[f32] {
        &self.radiance[b]
    }
}

/// Cloud fields are sampled at one unit per [`CLOUD_SCALE`]⁻¹ pixels:
/// structures of ~100 km, like real cloud decks.
const CLOUD_SCALE: f64 = 1.0 / 96.0;

/// Deterministic generator of [`Swath`]s.
#[derive(Debug, Clone)]
pub struct SwathSynthesizer {
    seed: u64,
    dims: SwathDims,
    terra: SwathGeometry,
    aqua: SwathGeometry,
    landmask: LandMask,
    /// The four cloud fields' cross-track terms, the same for every granule.
    cross_track: Arc<CrossTrack>,
}

/// The cloud, optical-thickness, cloud-top-pressure and effective-radius
/// fields of `seed`.
fn cloud_fields(seed: u64) -> [Fbm; 4] {
    [
        Fbm::new(seed ^ 0xC10D, 6),
        Fbm::new(seed ^ 0x0C07, 5),
        Fbm::new(seed ^ 0x0C79, 4),
        Fbm::new(seed ^ 0x0CE6, 4),
    ]
}

/// [`Fbm::rows`] of the cloud, optical-thickness, cloud-top-pressure and
/// effective-radius fields over a scan line's cross-track coordinates.
#[derive(Debug)]
struct CrossTrack {
    cloud: FbmRows,
    cot: FbmRows,
    ctp: FbmRows,
    cer: FbmRows,
}

/// The working space of [`SwathSynthesizer::synthesize_into`], kept by a
/// caller that synthesizes granule after granule so that none of it is
/// allocated again: the four cloud fields' lattice-row caches, the land
/// mask's noise cells, the scan-line buffers and the geolocation lattice.
/// Any synthesizer's scratch may be passed to any other: what a cache holds
/// for another table is refilled, never read.
#[derive(Debug, Clone, Default)]
pub struct SynthScratch {
    cloud: FbmRowCache,
    cot: FbmRowCache,
    ctp: FbmRowCache,
    cer: FbmRowCache,
    land: [FbmCells; 2],
    /// One scan line of the cloud field, its cloud strength and the three
    /// product fields.
    cf_row: Vec<f64>,
    strength: Vec<f32>,
    cot_row: Vec<f64>,
    ctp_row: Vec<f64>,
    cer_row: Vec<f64>,
    /// One scan line of reflectance and of brightness temperature.
    refl: Vec<f32>,
    temp: Vec<f32>,
    /// The geolocation lattice's unit vectors `[x, y, z]`.
    lattice: [Vec<f64>; 3],
}

/// `buffer` resized to `len` (keeping its allocation), as a slice: the hot
/// loops index slices, whose bounds stay in registers.
fn resized<T: Clone + Default>(buffer: &mut Vec<T>, len: usize) -> &mut [T] {
    buffer.resize(len, T::default());
    buffer
}

impl SwathSynthesizer {
    /// Synthesizer for `seed` producing granules of `dims`.
    pub fn new(seed: u64, dims: SwathDims) -> Self {
        let [cloud, cot, ctp, cer] = cloud_fields(seed);
        // Each field at its own multiple of the cross-track coordinate.
        let xs = |k: f64| -> Vec<f64> {
            let xs = (0..dims.pixels).map(|px| px as f64 * CLOUD_SCALE);
            xs.map(|x| x * k).collect()
        };
        let cross_track = Arc::new(CrossTrack {
            cloud: cloud.rows(&xs(1.0)),
            cot: cot.rows(&xs(2.0)),
            ctp: ctp.rows(&xs(1.5)),
            cer: cer.rows(&xs(3.0)),
        });
        Self {
            seed,
            dims,
            terra: SwathGeometry::modis_1km(SunSyncOrbit::new(OrbitParams::terra())),
            aqua: SwathGeometry::modis_1km(SunSyncOrbit::new(OrbitParams::aqua())),
            landmask: LandMask::earth_like(seed),
            cross_track,
        }
    }

    /// The generator's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The raster dimensions this synthesizer produces.
    pub fn dims(&self) -> SwathDims {
        self.dims
    }

    /// The land mask shared by all granules of this synthesizer.
    pub fn landmask(&self) -> &LandMask {
        &self.landmask
    }

    fn geometry(&self, id: &GranuleId) -> &SwathGeometry {
        match id.platform {
            crate::product::Platform::Terra => &self.terra,
            crate::product::Platform::Aqua => &self.aqua,
        }
    }

    /// Generate the full co-registered swath for `id`.
    pub fn synthesize(&self, id: GranuleId) -> Swath {
        let mut swath = Swath::empty(id);
        self.synthesize_into(id, &mut swath, &mut SynthScratch::default());
        swath
    }

    /// [`synthesize`](Self::synthesize) into `out`, whatever granule it held
    /// before: every plane is resized to this synthesizer's raster and each
    /// of its pixels written once, where it lies. A caller that synthesizes
    /// granule after granule into one swath with one `scratch` allocates
    /// nothing after the first.
    pub fn synthesize_into(&self, id: GranuleId, out: &mut Swath, scratch: &mut SynthScratch) {
        let dims = self.dims;
        let n = dims.len();
        let geom = self.geometry(&id);
        out.id = id;
        out.dims = dims;

        let SynthScratch {
            cloud: cloud_cache,
            cot: cot_cache,
            ctp: ctp_cache,
            cer: cer_cache,
            land: land_cells,
            cf_row,
            strength,
            cot_row,
            ctp_row,
            cer_row,
            refl,
            temp,
            lattice,
        } = scratch;
        self.geolocate_into(id, geom, lattice, &mut out.lat, &mut out.lon);
        let (lat, lon) = (&out.lat, &out.lon);

        // Land mask from geolocation, decided a lattice cell at a time.
        self.landmask
            .land_plane_into(lat, lon, dims.pixels, &mut out.land, land_cells);
        let land = &out.land;

        // Day/night from the solar zenith angle at the swath center (the
        // real product's criterion; reflective bands need sunlight).
        let center = dims.idx(dims.lines / 2, dims.pixels / 2);
        let center_pt = LatLon::new(lat[center] as f64, lon[center] as f64);
        let zenith = eoml_geo::solar::solar_zenith_deg(&center_pt, id.start_time());
        let day = zenith < 81.0;
        out.day = day;

        // Cloud fields in along-track/cross-track coordinates. The
        // along-track coordinate advances with the granule slot so that
        // consecutive granules are spatially continuous.
        let along0 = id.orbit_time_s() * 6.7; // ≈ km along track
        out.cloud.resize(n, 0);
        for plane in [&mut out.cot, &mut out.ctp, &mut out.cer] {
            plane.resize(n, 0.0);
        }
        let (cloud, cot, ctp, cer) = (
            &mut out.cloud[..],
            &mut out.cot[..],
            &mut out.ctp[..],
            &mut out.cer[..],
        );
        // The fields are sampled a scan line at a time (`FbmRows` blends each
        // octave's lattice row along the line once, when a line enters it):
        // the cloud field over the whole line, the three product fields over
        // each run of cloudy pixels (clear runs are zero). Cross-track
        // coordinates are the same for every line of every granule, so their
        // share of the noise arithmetic was done once, in `new`.
        let CrossTrack {
            cloud: cloud_rows,
            cot: cot_rows,
            ctp: ctp_rows,
            cer: cer_rows,
        } = &*self.cross_track;
        let (cf_row, strength) = (resized(cf_row, dims.pixels), resized(strength, dims.pixels));
        let (cot_row, ctp_row) = (resized(cot_row, dims.pixels), resized(ctp_row, dims.pixels));
        let cer_row = resized(cer_row, dims.pixels);
        for line in 0..dims.lines {
            let y = (along0 + line as f64) * CLOUD_SCALE;
            let row = dims.idx(line, 0);
            cloud_rows.sample(y, 0..dims.pixels, cf_row, cloud_cache);
            for px in 0..dims.pixels {
                let cf = cf_row[px];
                // Latitude climatology: cloudier at the ITCZ (0°) and the
                // mid-latitude storm tracks (±55°), drier in the subtropics.
                let latr = (lat[row + px] as f64).to_radians();
                let climo = 0.52 + 0.13 * (2.0 * latr).cos().powi(2)
                    - 0.12 * (latr.abs().to_degrees() / 90.0 - 0.3).powi(2);
                let threshold = 1.0 - climo.clamp(0.25, 0.75);
                let cloudy = cf > threshold;
                cloud[row + px] = cloudy as u8;
                if cloudy {
                    strength[px] = ((cf - threshold) / (1.0 - threshold)).clamp(0.0, 1.0) as f32;
                }
            }
            let mut a = 0;
            for run in cloud[row..row + dims.pixels].chunk_by(|p, q| p == q) {
                let b = a + run.len();
                if run[0] == 1 {
                    cot_rows.sample(y * 2.0, a..b, &mut cot_row[a..b], cot_cache);
                    ctp_rows.sample(y * 1.5, a..b, &mut ctp_row[a..b], ctp_cache);
                    cer_rows.sample(y * 3.0, a..b, &mut cer_row[a..b], cer_cache);
                    for px in a..b {
                        let i = row + px;
                        cot[i] = strength[px].powi(2) * 60.0 + 3.0 * cot_row[px] as f32;
                        // Thicker clouds reach higher (lower pressure).
                        ctp[i] = 950.0 - 650.0 * strength[px] - 100.0 * ctp_row[px] as f32;
                        cer[i] = 6.0 + 28.0 * cer_row[px] as f32;
                    }
                } else {
                    for plane in [&mut *cot, &mut *ctp, &mut *cer] {
                        plane[row + a..row + b].fill(0.0);
                    }
                }
                a = b;
            }
        }

        // Radiances for the 6 AICCA bands. A band is a gain on the pixel's
        // reflectance or an offset on its brightness temperature; both are
        // computed once per pixel, a scan line at a time, and each band's
        // line is written straight into its plane.
        out.bands.clear();
        out.bands.extend_from_slice(&AICCA_BANDS);
        out.radiance.resize_with(AICCA_BANDS.len(), Vec::new);
        for plane in &mut out.radiance {
            plane.resize(n, 0.0);
        }
        let (refl, temp) = (resized(refl, dims.pixels), resized(temp, dims.pixels));
        let (cloud, cot, ctp) = (&out.cloud[..], &out.cot[..], &out.ctp[..]);
        for line in 0..dims.lines {
            let row = dims.idx(line, 0)..dims.idx(line + 1, 0);
            for (px, i) in row.clone().enumerate() {
                if day {
                    // Reflectance-like: surface albedo plus cloud albedo
                    // 1 − e^(−τ/10).
                    let surf = if land[i] == 1 { 0.25 } else { 0.05 };
                    let cloud_albedo = if cloud[i] == 1 {
                        0.75 * (1.0 - (-cot[i] / 10.0).exp())
                    } else {
                        0.0
                    };
                    refl[px] = surf + cloud_albedo * (1.0 - surf);
                }
                // Brightness-temperature-like (K): warm surface, cold cloud
                // tops.
                let latr = (lat[i] as f64).to_radians();
                let tsurf =
                    300.0 - 45.0 * latr.sin().powi(2) as f32 + if land[i] == 1 { 3.0 } else { 0.0 };
                temp[px] = if cloud[i] == 1 {
                    // Cloud-top temperature from pressure: ~200 K at 300 hPa
                    // up to ~285 K at 950 hPa.
                    let tc = 160.0 + 0.13 * ctp[i];
                    let emis = (1.0 - (-cot[i] / 5.0).exp()).clamp(0.0, 1.0);
                    tsurf * (1.0 - emis) + tc * emis
                } else {
                    tsurf
                };
            }
            for (plane, &band) in out.radiance.iter_mut().zip(&AICCA_BANDS) {
                let plane = &mut plane[row.clone()];
                if !is_reflective_band(band) {
                    // Band-dependent small offsets.
                    let band_offset = (band as f32 - 28.0) * 0.4;
                    for (r, &t) in plane.iter_mut().zip(&*temp) {
                        *r = t + band_offset;
                    }
                } else if day {
                    let band_gain: f32 = if band == 6 { 1.0 } else { 0.8 };
                    for (r, &v) in plane.iter_mut().zip(&*refl) {
                        *r = band_gain * v;
                    }
                } else {
                    plane.fill(RADIANCE_FILL);
                }
            }
        }
    }

    /// Geolocation on a coarse lattice + unit-vector bilinear interpolation,
    /// into `lat` and `lon` (resized to the raster, every sample written),
    /// the lattice's unit vectors in `lattice`.
    fn geolocate_into(
        &self,
        id: GranuleId,
        geom: &SwathGeometry,
        lattice: &mut [Vec<f64>; 3],
        lat: &mut Vec<f32>,
        lon: &mut Vec<f32>,
    ) {
        let dims = self.dims;
        let n = dims.len();
        let t0 = id.orbit_time_s();
        let line_dt = geom.line_period_s();
        const STEP: usize = 16;

        // Coarse lattice of unit vectors, inclusive of the far edges.
        let glines = dims.lines.div_ceil(STEP) + 1;
        let gpix = dims.pixels.div_ceil(STEP) + 1;
        let [gx, gy, gz] = lattice.each_mut().map(|g| resized(g, glines * gpix));
        for gl in 0..glines {
            // Lattice points may extend past the raster edge; the orbit and
            // swath geometry extrapolate smoothly, which keeps the cell
            // spacing uniform (clamping would skew edge interpolation).
            let line = gl * STEP;
            let t = t0 + line as f64 * line_dt;
            for gp in 0..gpix {
                let px_full = gp * STEP;
                // Map full-resolution pixel index into the instrument's
                // 1354-pixel scan so reduced rasters still span the swath.
                let k = px_full * geom.pixels_per_line / dims.pixels;
                let p = geom.pixel(t, k);
                let (la, lo) = (p.lat_rad(), p.lon_rad());
                let g = gl * gpix + gp;
                gx[g] = la.cos() * lo.cos();
                gy[g] = la.cos() * lo.sin();
                gz[g] = la.sin();
            }
        }

        let (lat, lon) = (resized(lat, n), resized(lon, n));
        for line in 0..dims.lines {
            let gl = line / STEP;
            let fl = (line % STEP) as f64 / STEP as f64;
            let gl1 = (gl + 1).min(glines - 1);
            for px in 0..dims.pixels {
                let gp = px / STEP;
                let fp = (px % STEP) as f64 / STEP as f64;
                let gp1 = (gp + 1).min(gpix - 1);
                let i00 = gl * gpix + gp;
                let i01 = gl * gpix + gp1;
                let i10 = gl1 * gpix + gp;
                let i11 = gl1 * gpix + gp1;
                let bilerp = |v: &[f64]| -> f64 {
                    let a = v[i00] * (1.0 - fp) + v[i01] * fp;
                    let b = v[i10] * (1.0 - fp) + v[i11] * fp;
                    a * (1.0 - fl) + b * fl
                };
                let (x, y, z) = (bilerp(gx), bilerp(gy), bilerp(gz));
                let norm = (x * x + y * y + z * z).sqrt().max(1e-12);
                let i = dims.idx(line, px);
                lat[i] = (z / norm).asin().to_degrees() as f32;
                lon[i] = y.atan2(x).to_degrees() as f32;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::product::Platform;
    use eoml_util::timebase::CivilDate;

    fn synth() -> SwathSynthesizer {
        SwathSynthesizer::new(2022, SwathDims::small())
    }

    fn gid(slot: u16) -> GranuleId {
        GranuleId::new(Platform::Terra, CivilDate::new(2022, 1, 1).unwrap(), slot)
    }

    /// The per-pixel definition of the cloud fields and radiances (every
    /// field sampled point by point, every band recomputing its terms) that
    /// `synthesize` must reproduce bit for bit. Geolocation, land mask and
    /// the day flag are taken from `s`.
    #[allow(clippy::needless_range_loop)]
    fn assert_matches_per_pixel_reference(sy: &SwathSynthesizer, s: &Swath) {
        let dims = s.dims;
        let n = dims.len();
        let along0 = s.id.orbit_time_s() * 6.7;
        let scale = 1.0 / 96.0;
        let [cloud_field, cot_field, ctp_field, cer_field] = cloud_fields(sy.seed);
        let mut cloud = vec![0u8; n];
        let mut cot = vec![0.0f32; n];
        let mut ctp = vec![0.0f32; n];
        let mut cer = vec![0.0f32; n];
        for line in 0..dims.lines {
            let y = (along0 + line as f64) * scale;
            for px in 0..dims.pixels {
                let i = dims.idx(line, px);
                let x = px as f64 * scale;
                let cf = cloud_field.sample(x, y);
                // Latitude climatology: cloudier at the ITCZ (0°) and the
                // mid-latitude storm tracks (±55°), drier in the subtropics.
                let latr = (s.lat[i] as f64).to_radians();
                let climo = 0.52 + 0.13 * (2.0 * latr).cos().powi(2)
                    - 0.12 * (latr.abs().to_degrees() / 90.0 - 0.3).powi(2);
                let threshold = 1.0 - climo.clamp(0.25, 0.75);
                if cf > threshold {
                    cloud[i] = 1;
                    let strength = ((cf - threshold) / (1.0 - threshold)).clamp(0.0, 1.0);
                    cot[i] = (strength as f32).powi(2) * 60.0
                        + 3.0 * cot_field.sample(x * 2.0, y * 2.0) as f32;
                    // Thicker clouds reach higher (lower pressure).
                    ctp[i] = 950.0
                        - 650.0 * strength as f32
                        - 100.0 * ctp_field.sample(x * 1.5, y * 1.5) as f32;
                    cer[i] = 6.0 + 28.0 * cer_field.sample(x * 3.0, y * 3.0) as f32;
                }
            }
        }

        // Radiances for the 6 AICCA bands.
        let bands: Vec<u8> = AICCA_BANDS.to_vec();
        let mut radiance = vec![0.0f32; bands.len() * n];
        for (b, &band) in bands.iter().enumerate() {
            let plane = &mut radiance[b * n..(b + 1) * n];
            if is_reflective_band(band) && !s.day {
                plane.fill(RADIANCE_FILL);
                continue;
            }
            for i in 0..n {
                let cloudy = cloud[i] == 1;
                let tau = cot[i];
                plane[i] = if is_reflective_band(band) {
                    // Reflectance-like: surface albedo plus cloud albedo
                    // 1 − e^(−τ/10), scaled per band.
                    let surf = if s.land[i] == 1 { 0.25 } else { 0.05 };
                    let cloud_albedo = if cloudy {
                        0.75 * (1.0 - (-tau / 10.0).exp())
                    } else {
                        0.0
                    };
                    let band_gain = if band == 6 { 1.0 } else { 0.8 };
                    band_gain * (surf + cloud_albedo * (1.0 - surf))
                } else {
                    // Brightness-temperature-like (K): warm surface, cold
                    // cloud tops; band-dependent small offsets.
                    let latr = (s.lat[i] as f64).to_radians();
                    let tsurf = 300.0 - 45.0 * latr.sin().powi(2) as f32
                        + if s.land[i] == 1 { 3.0 } else { 0.0 };
                    let t = if cloudy {
                        // Cloud-top temperature from pressure: ~200 K at
                        // 300 hPa up to ~285 K at 950 hPa.
                        let tc = 160.0 + 0.13 * ctp[i];
                        let emis = (1.0 - (-tau / 5.0).exp()).clamp(0.0, 1.0);
                        tsurf * (1.0 - emis) + tc * emis
                    } else {
                        tsurf
                    };
                    let band_offset = (band as f32 - 28.0) * 0.4;
                    t + band_offset
                };
            }
        }
        assert_eq!(s.cloud, cloud);
        let bits = |v: &[f32]| -> Vec<u32> { v.iter().map(|x| x.to_bits()).collect() };
        assert_eq!(bits(&s.cot), bits(&cot), "cot");
        assert_eq!(bits(&s.ctp), bits(&ctp), "ctp");
        assert_eq!(bits(&s.cer), bits(&cer), "cer");
        assert_eq!(bits(&s.radiance.concat()), bits(&radiance), "radiance");
    }

    #[test]
    fn row_wise_synthesis_is_bit_identical_to_the_per_pixel_reference() {
        let sy = synth();
        let day = (0..288).map(gid).find(|&g| sy.synthesize(g).day).unwrap();
        let night = (0..288).map(gid).find(|&g| !sy.synthesize(g).day).unwrap();
        for g in [day, night] {
            assert_matches_per_pixel_reference(&sy, &sy.synthesize(g));
        }
        // Not a multiple of the 16-pixel geolocation lattice, nor of anything
        // the noise cells align with.
        let odd = SwathSynthesizer::new(
            77,
            SwathDims {
                lines: 37,
                pixels: 101,
            },
        );
        assert_matches_per_pixel_reference(&odd, &odd.synthesize(day));
    }

    /// `a` and `b` are the same granule, every plane bit for bit.
    fn assert_same_bits(a: &Swath, b: &Swath) {
        assert_eq!((a.id, a.dims, a.day), (b.id, b.dims, b.day));
        assert_eq!(a.bands, b.bands);
        let bits = |v: &[f32]| -> Vec<u32> { v.iter().map(|x| x.to_bits()).collect() };
        assert_eq!(a.radiance.len(), b.radiance.len());
        for (p, q) in a.radiance.iter().zip(&b.radiance) {
            assert_eq!(bits(p), bits(q), "radiance");
        }
        for (p, q) in [
            (&a.lat, &b.lat),
            (&a.lon, &b.lon),
            (&a.cot, &b.cot),
            (&a.ctp, &b.ctp),
            (&a.cer, &b.cer),
        ] {
            assert_eq!(bits(p), bits(q));
        }
        assert_eq!(a.land, b.land, "land");
        assert_eq!(a.cloud, b.cloud, "cloud");
    }

    #[test]
    fn synthesizing_into_a_used_swath_equals_a_fresh_synthesis() {
        let sy = synth();
        let day = (0..288).map(gid).find(|&g| sy.synthesize(g).day).unwrap();
        let night = (0..288).map(gid).find(|&g| !sy.synthesize(g).day).unwrap();
        let aqua = GranuleId::new(Platform::Aqua, day.date, day.slot);
        // Day → night → day → Aqua, all in one swath: no plane keeps a
        // pixel of the granule before (night fill, cloud mask, land).
        let mut held = sy.synthesize(day);
        let mut scratch = SynthScratch::default();
        let planes = held.radiance.iter().map(|p| p.as_ptr()).collect::<Vec<_>>();
        for g in [night, day, aqua] {
            sy.synthesize_into(g, &mut held, &mut scratch);
            assert_same_bits(&held, &sy.synthesize(g));
        }
        let kept = held.radiance.iter().map(|p| p.as_ptr()).collect::<Vec<_>>();
        assert_eq!(kept, planes, "the planes were allocated again");
        // A swath of another shape takes this synthesizer's.
        let odd = SwathSynthesizer::new(
            77,
            SwathDims {
                lines: 37,
                pixels: 101,
            },
        );
        let mut other = odd.synthesize(day);
        sy.synthesize_into(night, &mut other, &mut scratch);
        assert_same_bits(&other, &sy.synthesize(night));
        odd.synthesize_into(aqua, &mut held, &mut scratch);
        assert_same_bits(&held, &odd.synthesize(aqua));
    }

    #[test]
    fn a_scratch_from_another_synthesizer_is_refilled_not_read() {
        let sy = synth();
        let day = (0..288).map(gid).find(|&g| sy.synthesize(g).day).unwrap();
        let odd = SwathSynthesizer::new(
            77,
            SwathDims {
                lines: 37,
                pixels: 101,
            },
        );
        // Another seed at the same shape: every table differs, yet a first
        // line can fall in a lattice row the caches already hold.
        let twin = SwathSynthesizer::new(2023, SwathDims::small());
        // The next granule along track, and clones, which share their
        // synthesizer's tables.
        let next = GranuleId::new(day.platform, day.date, day.slot + 1);
        let mut held = Swath::empty(day);
        let mut scratch = SynthScratch::default();
        for (s, g) in [
            (&sy, day),
            (&odd, day),
            (&sy, day),
            (&twin, day),
            (&sy, next),
            (&sy.clone(), next),
            (&twin, day),
            (&odd, next),
        ] {
            s.synthesize_into(g, &mut held, &mut scratch);
            assert_matches_per_pixel_reference(s, &held);
            let land = s
                .landmask
                .land_plane(&held.lat, &held.lon, held.dims.pixels);
            assert!(held.land == land, "land mask of {g:?}");
        }
    }

    /// `land_plane` against the per-pixel definition on 32 granules spread
    /// over a day for each of three seeds, the thresholds of
    /// `LandMask::with_threshold` included; the day must hold a polar granule
    /// and one crossing the antimeridian.
    fn assert_land_plane_matches_is_land(dims: SwathDims) {
        let (mut polar, mut seam) = (false, false);
        for seed in [2022u64, 7, 77] {
            let sy = SwathSynthesizer::new(seed, dims);
            let masks = [
                sy.landmask,
                LandMask::with_threshold(seed, 0.3),
                LandMask::with_threshold(seed, 0.8),
            ];
            for slot in (0..288).step_by(9) {
                let id = gid(slot);
                let (mut lat, mut lon) = (Vec::new(), Vec::new());
                let lattice = &mut Default::default();
                sy.geolocate_into(id, sy.geometry(&id), lattice, &mut lat, &mut lon);
                let over_pole = lat.iter().any(|v| v.abs() > 80.0);
                let over_seam = lon.iter().any(|&v| v > 179.0) && lon.iter().any(|&v| v < -179.0);
                polar |= over_pole;
                seam |= over_seam;
                // The custom thresholds run where the geometry is hardest,
                // and everywhere on the small rasters.
                let all = over_pole || over_seam || dims.len() <= SwathDims::small().len();
                for mask in &masks[..if all { 3 } else { 1 }] {
                    let reference: Vec<u8> = (0..dims.len())
                        .map(|i| mask.is_land(&LatLon::new(lat[i] as f64, lon[i] as f64)) as u8)
                        .collect();
                    assert!(
                        mask.land_plane(&lat, &lon, dims.pixels) == reference,
                        "seed {seed} slot {slot} {dims:?}"
                    );
                }
            }
        }
        assert!(polar && seam, "polar {polar}, antimeridian {seam}");
    }

    #[test]
    fn land_plane_matches_is_land_at_the_paper_shape() {
        assert_land_plane_matches_is_land(SwathDims {
            lines: 384,
            pixels: 1280,
        });
    }

    #[test]
    fn land_plane_matches_is_land_on_small_and_odd_rasters() {
        assert_land_plane_matches_is_land(SwathDims::small());
        assert_land_plane_matches_is_land(SwathDims {
            lines: 37,
            pixels: 101,
        });
    }

    #[test]
    fn synthesis_is_deterministic() {
        let a = synth().synthesize(gid(100));
        let b = synth().synthesize(gid(100));
        assert_eq!(a.radiance, b.radiance);
        assert_eq!(a.cloud, b.cloud);
        assert_eq!(a.lat, b.lat);
    }

    #[test]
    fn different_granules_differ() {
        let a = synth().synthesize(gid(10));
        let b = synth().synthesize(gid(150));
        assert_ne!(a.lat, b.lat);
        assert_ne!(a.cloud, b.cloud);
    }

    #[test]
    fn dims_and_lengths_consistent() {
        let s = synth().synthesize(gid(7));
        let n = s.dims.len();
        assert_eq!(n, 256 * 256);
        assert_eq!(s.lat.len(), n);
        assert_eq!(s.lon.len(), n);
        assert_eq!(s.land.len(), n);
        assert_eq!(s.cloud.len(), n);
        assert_eq!(s.cot.len(), n);
        assert_eq!(s.radiance.len(), 6);
        assert!(s.radiance.iter().all(|plane| plane.len() == n));
        assert_eq!(s.bands, AICCA_BANDS.to_vec());
    }

    #[test]
    fn geolocation_is_plausible() {
        let s = synth().synthesize(gid(42));
        for i in 0..s.dims.len() {
            assert!((-90.0..=90.0).contains(&s.lat[i]), "lat {}", s.lat[i]);
            assert!((-180.0..=180.0).contains(&s.lon[i]), "lon {}", s.lon[i]);
        }
        // Neighbouring pixels are ≲ a few km apart → ≤ ~0.25° unless near
        // the antimeridian.
        let dims = s.dims;
        for line in 0..dims.lines - 1 {
            for px in 0..dims.pixels - 1 {
                let i = dims.idx(line, px);
                let j = dims.idx(line, px + 1);
                let dlat = (s.lat[i] - s.lat[j]).abs();
                assert!(dlat < 0.5, "lat jump {dlat} at ({line},{px})");
            }
        }
    }

    #[test]
    fn interpolated_geolocation_matches_direct() {
        // Interpolation error vs direct orbital computation should be tiny
        // (well under a pixel).
        let sy = synth();
        let id = gid(88);
        let s = sy.synthesize(id);
        let geom = SwathGeometry::modis_1km(SunSyncOrbit::new(OrbitParams::terra()));
        let t0 = id.orbit_time_s();
        let line_dt = geom.line_period_s();
        for &(line, px) in &[(5usize, 9usize), (100, 200), (200, 30), (255, 255)] {
            let t = t0 + line as f64 * line_dt;
            let k = px * geom.pixels_per_line / s.dims.pixels;
            let direct = geom.pixel(t, k);
            let i = s.dims.idx(line, px);
            let interp = LatLon::new(s.lat[i] as f64, s.lon[i] as f64);
            let err = direct.distance_km(&interp);
            assert!(err < 3.0, "interp error {err} km at ({line},{px})");
        }
    }

    #[test]
    fn cloud_fraction_is_moderate() {
        // Across many granules the mean cloud fraction should be earth-like
        // (~0.5 give or take) — neither clear-sky nor overcast everywhere.
        let sy = synth();
        let mean: f64 = (0..12)
            .map(|k| sy.synthesize(gid(k * 20)).cloud_fraction())
            .sum::<f64>()
            / 12.0;
        assert!((0.25..=0.8).contains(&mean), "mean cloud fraction {mean}");
    }

    #[test]
    fn cloud_products_zero_where_clear() {
        let s = synth().synthesize(gid(3));
        for i in 0..s.dims.len() {
            if s.cloud[i] == 0 {
                assert_eq!(s.cot[i], 0.0);
                assert_eq!(s.ctp[i], 0.0);
                assert_eq!(s.cer[i], 0.0);
            } else {
                assert!(s.cot[i] >= 0.0);
                assert!((150.0..=1000.0).contains(&s.ctp[i]), "ctp {}", s.ctp[i]);
                assert!((4.0..=40.0).contains(&s.cer[i]), "cer {}", s.cer[i]);
            }
        }
    }

    #[test]
    fn night_granules_have_fill_in_reflective_bands() {
        let sy = synth();
        // Find one day and one night granule.
        let mut day_seen = false;
        let mut night_seen = false;
        for slot in 0..288 {
            let s = sy.synthesize(gid(slot));
            let b6 = s.band_plane(0); // band 6, reflective
            let b31 = s.band_plane(5); // band 31, thermal
            if s.day {
                day_seen = true;
                assert!(b6.iter().all(|&v| v != RADIANCE_FILL));
            } else {
                night_seen = true;
                assert!(b6.iter().all(|&v| v == RADIANCE_FILL));
            }
            // Thermal bands always valid and in brightness-temp range.
            assert!(b31.iter().all(|&v| (150.0..=330.0).contains(&v)));
            if day_seen && night_seen {
                return;
            }
        }
        panic!("day_seen={day_seen} night_seen={night_seen}: need both in a day");
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn thermal_radiance_colder_over_thick_cloud() {
        let sy = synth();
        // Average band-31 brightness temperature over thick-cloud pixels
        // must be colder than over clear pixels (that's the physics the
        // tile classifier keys on).
        let mut cold = (0.0f64, 0u32);
        let mut clear = (0.0f64, 0u32);
        for slot in [0, 40, 80, 120] {
            let s = sy.synthesize(gid(slot));
            let b31 = s.band_plane(5);
            for i in 0..s.dims.len() {
                if s.cloud[i] == 1 && s.cot[i] > 20.0 {
                    cold.0 += b31[i] as f64;
                    cold.1 += 1;
                } else if s.cloud[i] == 0 {
                    clear.0 += b31[i] as f64;
                    clear.1 += 1;
                }
            }
        }
        assert!(cold.1 > 100 && clear.1 > 100, "need both populations");
        let tc = cold.0 / cold.1 as f64;
        let ts = clear.0 / clear.1 as f64;
        assert!(tc < ts - 15.0, "thick cloud {tc} K vs clear {ts} K");
    }

    #[test]
    fn land_ocean_fractions_vary_by_granule() {
        let sy = synth();
        let fracs: Vec<f64> = (0..10)
            .map(|k| sy.synthesize(gid(k * 28)).ocean_fraction())
            .collect();
        let min = fracs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = fracs.iter().cloned().fold(0.0, f64::max);
        assert!(max - min > 0.05, "ocean fraction should vary: {fracs:?}");
    }

    #[test]
    fn cloud_mask_is_spatially_coherent() {
        // Cloud decks are ~100 km structures, so neighbouring scan lines
        // must agree almost everywhere — uncorrelated per-pixel masks would
        // make the ≥30 % tile filter meaningless.
        let s = synth().synthesize(gid(60));
        let dims = s.dims;
        let mut agree = 0u64;
        let mut total = 0u64;
        for line in 0..dims.lines - 1 {
            for px in 0..dims.pixels {
                if s.cloud[dims.idx(line, px)] == s.cloud[dims.idx(line + 1, px)] {
                    agree += 1;
                }
                total += 1;
            }
        }
        let coherence = agree as f64 / total as f64;
        assert!(coherence > 0.9, "line-to-line agreement {coherence}");
    }
}
