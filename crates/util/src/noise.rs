//! Lattice value noise and fractional Brownian motion (fBm).
//!
//! The synthetic MODIS generator uses these to produce spatially coherent
//! cloud-optical-thickness fields and a procedural land mask. Everything is
//! seeded and stateless (lattice values are hashed from integer coordinates),
//! so a granule's pixel field is reproducible from `(seed, granule index)`
//! without storing any state.

use crate::rng::SplitMix64;
use std::sync::atomic::{AtomicU64, Ordering};

/// `x.floor() as i64` without the call into libm that `floor` costs on
/// baseline x86-64: truncate (one instruction), then step down where
/// truncation rounded up. Saturates like the cast it replaces.
#[inline]
fn floor_i64(x: f64) -> i64 {
    let t = x as i64;
    t.saturating_sub((t as f64 > x) as i64)
}

/// Deterministic 2-D value noise: bilinear interpolation (with smoothstep
/// fade) of pseudo-random values on an integer lattice.
#[derive(Debug, Clone, Copy)]
pub struct ValueNoise {
    seed: u64,
}

impl ValueNoise {
    /// Noise field identified by `seed`.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// Pseudo-random value in `[0, 1)` at integer lattice point `(ix, iy)`.
    fn lattice(&self, ix: i64, iy: i64) -> f64 {
        let h = SplitMix64::mix(
            self.seed
                ^ (ix as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (iy as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F),
        );
        (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Smoothstep fade `3t² − 2t³` — C¹-continuous across cell boundaries.
    fn fade(t: f64) -> f64 {
        t * t * (3.0 - 2.0 * t)
    }

    /// Sample the noise at continuous coordinates; output in `[0, 1)`.
    pub fn sample(&self, x: f64, y: f64) -> f64 {
        let ix = floor_i64(x);
        let iy = floor_i64(y);
        let fx = x - ix as f64;
        let fy = y - iy as f64;
        Self::blend(self.cell(ix, iy), Self::fade(fx), Self::fade(fy))
    }

    /// Lattice values `[v00, v10, v01, v11]` at the corners of cell `(ix, iy)`.
    #[inline]
    fn cell(&self, ix: i64, iy: i64) -> [f64; 4] {
        [
            self.lattice(ix, iy),
            self.lattice(ix + 1, iy),
            self.lattice(ix, iy + 1),
            self.lattice(ix + 1, iy + 1),
        ]
    }

    /// Bilinear blend of a [`cell`](Self::cell) at faded offsets `(u, v)`.
    #[inline]
    fn blend([v00, v10, v01, v11]: [f64; 4], u: f64, v: f64) -> f64 {
        let a = v00 * (1.0 - u) + v10 * u;
        let b = v01 * (1.0 - u) + v11 * u;
        a * (1.0 - v) + b * v
    }
}

/// Fractional Brownian motion: a sum of `octaves` value-noise fields with
/// geometrically increasing frequency (`lacunarity`) and decreasing amplitude
/// (`gain`). Produces the multi-scale texture characteristic of cloud fields.
#[derive(Debug, Clone, Copy)]
pub struct Fbm {
    base: ValueNoise,
    /// Number of octaves summed.
    pub octaves: u32,
    /// Frequency multiplier between octaves (typically 2).
    pub lacunarity: f64,
    /// Amplitude multiplier between octaves (typically 0.5).
    pub gain: f64,
}

/// [`Fbm::sample`] along lines that share their `x` coordinates, bit-identical
/// to the per-point call. What depends on `x` alone is worked out once, in
/// [`Fbm::rows`]: each octave's runs of points that share a lattice column,
/// and every point's faded offset. What depends on the lattice row as well —
/// the four corner values blended along `x` — is kept in an [`FbmRowCache`]
/// and worked out again only when a line enters another lattice row, so a
/// line costs one blend along `y` per point and octave.
#[derive(Debug, Clone)]
pub struct FbmRows {
    fbm: Fbm,
    points: usize,
    /// Taken when [`Fbm::rows`] builds the table and shared by its clones:
    /// which table a cache was filled from.
    id: u64,
    /// `fade(fx)` of point `i` in octave `o`, at `o * points + i`.
    fades: Vec<f64>,
    /// Octave `o`'s runs are `runs[run_starts[o]..run_starts[o + 1]]`.
    run_starts: Vec<usize>,
    /// `(ix, end)`: the points of an octave from the previous run's `end`
    /// (0 for its first run) up to `end` share lattice column `ix`.
    runs: Vec<(i64, usize)>,
}

/// The lattice row each octave of an [`FbmRows`] last visited and its x-blends
/// there, carried between [`FbmRows::sample`] calls. A cache filled from one
/// table is refilled, never read, when it is handed to another.
#[derive(Debug, Clone, Default)]
pub struct FbmRowCache {
    /// The id of the [`FbmRows`] the cache was filled from; 0 for none.
    owner: u64,
    /// Octave `o`'s lattice row, `None` before it is filled.
    rows: Vec<Option<i64>>,
    /// Octave `o`'s x-blends on its row: `a[i] = v00(1−u) + v10·u` of point
    /// `i` at `2o * points + i`, `b[i] = v01(1−u) + v11·u` right after all
    /// of its `a`, at `(2o + 1) * points + i`.
    blends: Vec<f64>,
}

impl FbmRows {
    /// `sample(xs[i], y)` for every `i` in `range`, into `out[i - range.start]`,
    /// each octave's x-blends taken from `cache` (refilled for the whole
    /// line when `y` lies in another lattice row than the cache holds).
    pub fn sample(
        &self,
        y: f64,
        range: std::ops::Range<usize>,
        out: &mut [f64],
        cache: &mut FbmRowCache,
    ) {
        assert_eq!(range.len(), out.len());
        assert!(range.end <= self.points);
        let points = self.points;
        if cache.owner != self.id {
            cache.owner = self.id;
            cache.rows.clear();
            cache.rows.resize(self.fbm.octaves as usize, None);
            cache.blends.resize(2 * self.fades.len(), 0.0);
        }
        out.fill(0.0);
        let mut norm = 0.0;
        for (o, (amp, freq, off)) in self.fbm.octave_terms().enumerate() {
            let yo = y * freq - off;
            let iy = floor_i64(yo);
            let v = ValueNoise::fade(yo - iy as f64);
            let (a, b) = cache.blends[2 * o * points..][..2 * points].split_at_mut(points);
            if cache.rows[o] != Some(iy) {
                self.fill_row(o, iy, a, b);
                cache.rows[o] = Some(iy);
            }
            // `ValueNoise::blend`'s last step, on the cached first two.
            let (a, b) = (&a[range.clone()], &b[range.clone()]);
            for ((o, &a), &b) in out.iter_mut().zip(a).zip(b) {
                *o += amp * (a * (1.0 - v) + b * v);
            }
            norm += amp;
        }
        for o in out.iter_mut() {
            *o /= norm;
        }
    }

    /// Octave `o`'s x-blends on lattice row `iy` for every point, into `a`
    /// and `b`. A column shared by two neighbouring cells is hashed once.
    fn fill_row(&self, o: usize, iy: i64, a: &mut [f64], b: &mut [f64]) {
        let base = &self.fbm.base;
        let fades = &self.fades[o * self.points..(o + 1) * self.points];
        let column = |ix: i64| [base.lattice(ix, iy), base.lattice(ix, iy + 1)];
        let mut right: Option<(i64, [f64; 2])> = None;
        let mut start = 0;
        for &(ix, end) in &self.runs[self.run_starts[o]..self.run_starts[o + 1]] {
            let [v00, v01] = match right {
                Some((hx, edge)) if hx == ix => edge,
                _ => column(ix),
            };
            let [v10, v11] = column(ix + 1);
            right = Some((ix + 1, [v10, v11]));
            let run = a[start..end].iter_mut().zip(&mut b[start..end]);
            for ((a, b), &u) in run.zip(&fades[start..end]) {
                // `ValueNoise::blend`'s first two steps.
                *a = v00 * (1.0 - u) + v10 * u;
                *b = v01 * (1.0 - u) + v11 * u;
            }
            start = end;
        }
    }
}

/// The lattice cell `(ix, iy, corner values)` each octave of an [`Fbm`] last
/// visited, carried between [`Fbm::sample_near`] calls.
#[derive(Debug, Clone, Default)]
pub struct FbmCells(Vec<Option<(i64, i64, [f64; 4])>>);

impl FbmCells {
    /// Forget every held cell, keeping the allocation: the cells may then be
    /// used with any [`Fbm`].
    pub fn clear(&mut self) {
        self.0.clear();
    }
}

impl Fbm {
    /// Standard fBm with lacunarity 2 and gain 0.5.
    pub fn new(seed: u64, octaves: u32) -> Self {
        Self {
            base: ValueNoise::new(seed),
            octaves,
            lacunarity: 2.0,
            gain: 0.5,
        }
    }

    /// fBm with explicit lacunarity/gain.
    pub fn with_params(seed: u64, octaves: u32, lacunarity: f64, gain: f64) -> Self {
        Self {
            base: ValueNoise::new(seed),
            octaves,
            lacunarity,
            gain,
        }
    }

    /// Sample; output normalized to `[0, 1)` regardless of octave count.
    pub fn sample(&self, x: f64, y: f64) -> f64 {
        let mut sum = 0.0;
        let mut amp = 1.0;
        let mut freq = 1.0;
        let mut norm = 0.0;
        for oct in 0..self.octaves {
            // Offset each octave so lattice artifacts don't align.
            let off = oct as f64 * 137.31;
            sum += amp * self.base.sample(x * freq + off, y * freq - off);
            norm += amp;
            amp *= self.gain;
            freq *= self.lacunarity;
        }
        sum / norm
    }

    /// Each octave's `(amplitude, frequency, coordinate offset)`, in the
    /// order and by the arithmetic [`sample`](Self::sample) steps through
    /// them — the fast samplers must add up the very same terms.
    fn octave_terms(&self) -> impl Iterator<Item = (f64, f64, f64)> {
        let (gain, lacunarity) = (self.gain, self.lacunarity);
        (0..self.octaves).scan((1.0, 1.0), move |(amp, freq), oct| {
            let term = (*amp, *freq, oct as f64 * 137.31);
            *amp *= gain;
            *freq *= lacunarity;
            Some(term)
        })
    }

    /// A sampler for lines that share the `x` coordinates `xs` (the scan
    /// lines of a raster); see [`FbmRows`].
    pub fn rows(&self, xs: &[f64]) -> FbmRows {
        static IDS: AtomicU64 = AtomicU64::new(1);
        let mut fades = Vec::with_capacity(self.octaves as usize * xs.len());
        let mut run_starts = vec![0];
        let mut runs: Vec<(i64, usize)> = Vec::new();
        for (_, freq, off) in self.octave_terms() {
            let first = runs.len();
            for (i, &x) in xs.iter().enumerate() {
                let xo = x * freq + off;
                let ix = floor_i64(xo);
                fades.push(ValueNoise::fade(xo - ix as f64));
                match runs[first..].last_mut() {
                    Some((hx, end)) if *hx == ix => *end = i + 1,
                    _ => runs.push((ix, i + 1)),
                }
            }
            run_starts.push(runs.len());
        }
        FbmRows {
            fbm: *self,
            points: xs.len(),
            id: IDS.fetch_add(1, Ordering::Relaxed),
            fades,
            run_starts,
            runs,
        }
    }

    /// [`sample`](Self::sample), bit for bit, for callers that walk the field
    /// in small steps along both axes: each octave's four lattice values are
    /// kept in `cells` and re-hashed only when the point leaves that octave's
    /// cell. `cells` must only ever be used with this `Fbm`.
    pub fn sample_near(&self, x: f64, y: f64, cells: &mut FbmCells) -> f64 {
        cells.0.resize(self.octaves as usize, None);
        let mut sum = 0.0;
        let mut norm = 0.0;
        for ((amp, freq, off), held) in self.octave_terms().zip(&mut cells.0) {
            let (xo, yo) = (x * freq + off, y * freq - off);
            let (ix, iy) = (floor_i64(xo), floor_i64(yo));
            let cell = match *held {
                Some((hx, hy, cell)) if (hx, hy) == (ix, iy) => cell,
                _ => {
                    let cell = self.base.cell(ix, iy);
                    *held = Some((ix, iy, cell));
                    cell
                }
            };
            let (u, v) = (
                ValueNoise::fade(xo - ix as f64),
                ValueNoise::fade(yo - iy as f64),
            );
            sum += amp * ValueNoise::blend(cell, u, v);
            norm += amp;
        }
        sum / norm
    }

    /// A Lipschitz constant of [`sample`](Self::sample) per axis:
    /// `|sample(x + dx, y + dy) − sample(x, y)| ≤ lipschitz() · (|dx| + |dy|)`.
    ///
    /// Within a lattice cell the value-noise partial derivative along `x` is
    /// `fade′(fx) · ((1 − v)(v10 − v00) + v (v11 − v01))`; lattice values lie
    /// in `[0, 1)` and `fade′(t) = 6t(1 − t) ≤ 1.5`, so it is below 1.5 in
    /// magnitude (likewise along `y`), and the noise is continuous across
    /// cell borders. Octave `o` scales the coordinates by `freq_o` and the
    /// value by `amp_o / norm`, hence `1.5 · Σ amp_o · freq_o / norm`.
    pub fn lipschitz(&self) -> f64 {
        let (slope, norm) = self
            .octave_terms()
            .fold((0.0, 0.0), |(slope, norm), (amp, freq, _)| {
                (slope + amp * freq.abs(), norm + amp)
            });
        1.5 * slope / norm
    }

    /// Sample mapped through the [`ridge`] transform, giving filament-like
    /// structures used for cirrus-type cloud textures.
    pub fn ridged(&self, x: f64, y: f64) -> f64 {
        ridge(self.sample(x, y))
    }
}

/// The ridge transform `1 − |2n − 1|` of a noise value `n` in `[0, 1)`: mid
/// values become crests. [`Fbm::ridged`] applies it to a point, a caller of
/// [`FbmRows::sample`] to each value of a line.
#[inline]
pub fn ridge(n: f64) -> f64 {
    1.0 - (2.0 * n - 1.0).abs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Rng64, SplitMix64};

    #[test]
    fn floor_i64_is_floor_then_cast() {
        let mut cases = vec![
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.0,
            -1.0,
            -1.0 - f64::EPSILON,
            1.0 - f64::EPSILON / 2.0,
            4503599627370495.5,
            -4503599627370495.5,
            9.3e18,
            -9.3e18,
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
        ];
        let mut rng = SplitMix64::new(3);
        cases.extend((0..10_000).map(|_| rng.uniform(-600.0, 600.0)));
        cases.extend((-50..50).map(|i| i as f64));
        for x in cases {
            assert_eq!(floor_i64(x), x.floor() as i64, "{x:e}");
        }
    }

    #[test]
    fn noise_is_deterministic() {
        let n1 = ValueNoise::new(99);
        let n2 = ValueNoise::new(99);
        for i in 0..50 {
            let x = i as f64 * 0.37;
            let y = i as f64 * 0.11;
            assert_eq!(n1.sample(x, y), n2.sample(x, y));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let n1 = ValueNoise::new(1);
        let n2 = ValueNoise::new(2);
        let diffs = (0..100)
            .filter(|&i| {
                let x = i as f64 * 0.7;
                (n1.sample(x, x * 0.3) - n2.sample(x, x * 0.3)).abs() > 1e-9
            })
            .count();
        assert!(diffs > 90);
    }

    #[test]
    fn noise_in_unit_range() {
        let n = ValueNoise::new(5);
        for i in 0..40 {
            for j in 0..40 {
                let v = n.sample(i as f64 * 0.23 - 3.0, j as f64 * 0.31 - 5.0);
                assert!((0.0..1.0).contains(&v), "v={v}");
            }
        }
    }

    #[test]
    fn noise_matches_lattice_at_integers() {
        // At integer coordinates, bilinear interpolation reduces to the
        // lattice value, so sampling must be exactly reproducible there too.
        let n = ValueNoise::new(7);
        let a = n.sample(3.0, 4.0);
        let b = n.sample(3.0, 4.0);
        assert_eq!(a, b);
    }

    #[test]
    fn noise_is_continuous() {
        // Values at nearby points should be close (continuity ⇒ spatial
        // coherence, the property the cloud fields rely on).
        let n = ValueNoise::new(11);
        let eps = 1e-4;
        for i in 0..20 {
            let x = i as f64 * 0.618 + 0.123;
            let y = i as f64 * 0.414 + 0.456;
            let d = (n.sample(x, y) - n.sample(x + eps, y + eps)).abs();
            assert!(d < 0.01, "noise jump {d} at ({x},{y})");
        }
    }

    #[test]
    fn fbm_in_unit_range_and_rougher_with_octaves() {
        let smooth = Fbm::new(3, 1);
        // High gain keeps the upper octaves' amplitude large, so the extra
        // octaves must dominate the increment energy.
        let rough = Fbm::with_params(3, 6, 2.0, 0.9);
        let mut smooth_var = 0.0;
        let mut rough_var = 0.0;
        let mut prev_s = smooth.sample(0.0, 0.0);
        let mut prev_r = rough.sample(0.0, 0.0);
        // Small lag so the single-octave increments shrink ~quadratically
        // while the high-frequency octaves keep contributing energy.
        for i in 1..2000 {
            let x = i as f64 * 0.005;
            let s = smooth.sample(x, 0.0);
            let r = rough.sample(x, 0.0);
            assert!((0.0..1.0).contains(&s));
            assert!((0.0..1.0).contains(&r));
            smooth_var += (s - prev_s).powi(2);
            rough_var += (r - prev_r).powi(2);
            prev_s = s;
            prev_r = r;
        }
        assert!(
            rough_var > smooth_var,
            "more octaves should add high-frequency energy ({rough_var} vs {smooth_var})"
        );
    }

    #[test]
    fn rows_are_bit_identical_to_per_point_sample() {
        // Negative and positive coordinates, cells from many points wide to
        // narrower than the step, a non-monotonic line, and sub-ranges.
        for (seed, octaves, x0, dx, y) in [
            (3u64, 6u32, -7.3f64, 1.0 / 96.0, -2.25f64),
            (4, 5, 0.0, 2.0 / 96.0, 913.0 / 96.0),
            (5, 4, -0.5, 0.37, 0.0),
            (6, 1, 2.0, -0.013, -1e-9),
        ] {
            let f = Fbm::new(seed, octaves);
            let xs: Vec<f64> = (0..301).map(|i| x0 + i as f64 * dx).collect();
            let rows = f.rows(&xs);
            for range in [0..301, 17..18, 100..300, 7..7] {
                let mut out = vec![f64::NAN; range.len()];
                rows.sample(y, range.clone(), &mut out, &mut FbmRowCache::default());
                for (o, &x) in out.iter().zip(&xs[range]) {
                    assert_eq!(
                        o.to_bits(),
                        f.sample(x, y).to_bits(),
                        "seed {seed} x {x} y {y}"
                    );
                }
            }
        }
        let f = Fbm::with_params(9, 3, 2.7, 0.8);
        let xs = [5.5, -3.25, 5.5, 0.0, 1e6 + 0.5];
        let mut row = [0.0; 5];
        f.rows(&xs)
            .sample(4.75, 0..5, &mut row, &mut FbmRowCache::default());
        for (r, &x) in row.iter().zip(&xs) {
            assert_eq!(r.to_bits(), f.sample(x, 4.75).to_bits());
        }
        f.rows(&[])
            .sample(1.0, 0..0, &mut [], &mut FbmRowCache::default());
    }

    /// `rows.sample` of `range` at `y` through `cache` against `f.sample`
    /// at every point, bit for bit.
    fn assert_cached_line(
        f: &Fbm,
        xs: &[f64],
        rows: &FbmRows,
        y: f64,
        range: std::ops::Range<usize>,
        cache: &mut FbmRowCache,
    ) {
        let mut out = vec![f64::NAN; range.len()];
        rows.sample(y, range.clone(), &mut out, cache);
        for (o, &x) in out.iter().zip(&xs[range]) {
            assert_eq!(o.to_bits(), f.sample(x, y).to_bits(), "x {x} y {y}");
        }
    }

    #[test]
    fn a_held_row_cache_follows_lines_up_down_and_in_place() {
        let f = Fbm::new(3, 6);
        let xs: Vec<f64> = (0..400).map(|i| -2.0 + i as f64 / 96.0).collect();
        let rows = f.rows(&xs);
        let mut cache = FbmRowCache::default();
        let ascending = (0..300).map(|l| -1.5 + l as f64 / 96.0);
        let descending = (0..300).rev().map(|l| -1.5 + l as f64 / 96.0);
        // The same line twice in a row, then a lattice row left and entered
        // again, then jumps across many rows both ways.
        let repeated = [0.5, 0.5, 0.49, 0.51, 0.5, 0.5, -7.25, 12.0, 12.0, -7.25];
        for y in ascending.chain(descending).chain(repeated) {
            assert_cached_line(&f, &xs, &rows, y, 0..xs.len(), &mut cache);
        }
    }

    #[test]
    fn a_held_row_cache_serves_sub_ranges_after_full_lines() {
        let f = Fbm::with_params(9, 4, 2.7, 0.8);
        let xs: Vec<f64> = (0..257).map(|i| 3.0 - i as f64 * 0.021).collect();
        let rows = f.rows(&xs);
        let mut cache = FbmRowCache::default();
        for (l, range) in [0..257, 10..11, 0..0, 200..257, 0..257, 30..90]
            .into_iter()
            .cycle()
            .take(60)
            .enumerate()
        {
            let y = 4.0 + l as f64 * 0.07;
            assert_cached_line(&f, &xs, &rows, y, 0..xs.len(), &mut cache);
            assert_cached_line(&f, &xs, &rows, y, range.clone(), &mut cache);
            // A sub-range first on a line the cache has not seen.
            assert_cached_line(&f, &xs, &rows, y + 0.5, range, &mut cache);
        }
    }

    #[test]
    fn one_row_cache_between_two_tables_is_refilled_not_read() {
        let xs: Vec<f64> = (0..300).map(|i| i as f64 / 96.0).collect();
        let f = Fbm::new(5, 5);
        let rows = f.rows(&xs);
        // Another seed over the same points, the same field over other
        // points, the same field over fewer points, and a second table of
        // the very same field and points: each starts in a lattice row the
        // cache already holds for `rows`.
        let g = Fbm::new(6, 5);
        let shifted: Vec<f64> = xs.iter().map(|x| x + 0.3).collect();
        let others = [
            (g, xs.clone()),
            (f, shifted),
            (f, xs[..120].to_vec()),
            (f, xs.clone()),
            (Fbm::new(5, 3), xs.clone()),
        ];
        for (h, hxs) in &others {
            let mut cache = FbmRowCache::default();
            let hrows = h.rows(hxs);
            for y in [0.25, 0.26, 0.25] {
                assert_cached_line(&f, &xs, &rows, y, 0..xs.len(), &mut cache);
                assert_cached_line(h, hxs, &hrows, y, 0..hxs.len(), &mut cache);
                assert_cached_line(h, hxs, &hrows, y, 7..9, &mut cache);
                assert_cached_line(&f, &xs, &rows, y, 100..120, &mut cache);
            }
            // A clone shares its table's cache.
            let again = rows.clone();
            assert_cached_line(&f, &xs, &again, 0.27, 0..xs.len(), &mut cache);
        }
    }

    #[test]
    fn sample_near_is_bit_identical_to_sample() {
        // A slow diagonal drift (cells shared for long stretches), a jump,
        // negative coordinates, and a walk back over cells already left.
        let f = Fbm::new(21, 5);
        let mut cells = FbmCells::default();
        let mut rng = SplitMix64::new(5);
        let (mut x, mut y) = (-3.2f64, 7.9f64);
        for i in 0..5000 {
            assert_eq!(
                f.sample_near(x, y, &mut cells).to_bits(),
                f.sample(x, y).to_bits(),
                "step {i} at ({x}, {y})"
            );
            x += rng.uniform(-0.009, 0.011);
            y += rng.uniform(-0.009, 0.011);
            if i % 997 == 0 {
                x = -x + 61.7;
            }
        }
        let g = Fbm::with_params(9, 3, 2.7, 0.8);
        let mut cells = FbmCells::default();
        for &(x, y) in &[(5.5, 4.75), (5.6, 4.75), (-3.25, 4.8), (5.5, 4.75)] {
            assert_eq!(
                g.sample_near(x, y, &mut cells).to_bits(),
                g.sample(x, y).to_bits()
            );
        }
    }

    #[test]
    fn lipschitz_bounds_every_sampled_increment() {
        for f in [
            Fbm::new(2, 5),
            Fbm::new(3, 1),
            Fbm::with_params(4, 4, 2.7, 0.8),
        ] {
            let l = f.lipschitz();
            let mut rng = SplitMix64::new(17);
            let mut steepest = 0.0f64;
            for _ in 0..20_000 {
                let (x, y) = (rng.uniform(-20.0, 20.0), rng.uniform(-20.0, 20.0));
                let (dx, dy) = (rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1));
                let d = (f.sample(x + dx, y + dy) - f.sample(x, y)).abs();
                let run = dx.abs() + dy.abs();
                assert!(d <= l * run + 1e-12, "{d} over {run} exceeds {l}");
                steepest = steepest.max(d / run.max(1e-9));
            }
            // The constant is a worst case, not a loose guess.
            assert!(steepest > 0.05 * l, "steepest {steepest} vs bound {l}");
        }
    }

    #[test]
    fn ridged_in_range() {
        let f = Fbm::new(8, 4);
        for i in 0..100 {
            let v = f.ridged(i as f64 * 0.13, i as f64 * 0.07);
            assert!((0.0..=1.0).contains(&v));
        }
    }
}
