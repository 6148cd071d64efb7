//! Lattice value noise and fractional Brownian motion (fBm).
//!
//! The synthetic MODIS generator uses these to produce spatially coherent
//! cloud-optical-thickness fields and a procedural land mask. Everything is
//! seeded and stateless (lattice values are hashed from integer coordinates),
//! so a granule's pixel field is reproducible from `(seed, granule index)`
//! without storing any state.

use crate::rng::SplitMix64;

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
        let ix = x.floor() as i64;
        let iy = y.floor() as i64;
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
/// to the per-point call. What depends on `x` alone — each octave's lattice
/// column and faded offset at every point — is worked out once, in
/// [`Fbm::rows`]; a line then computes its `y` terms once per octave and
/// re-hashes the four lattice values only when a point leaves the current
/// cell, while each output still accumulates its octaves in order.
#[derive(Debug, Clone)]
pub struct FbmRows {
    fbm: Fbm,
    points: usize,
    /// `(ix, fade(fx))` of point `i` in octave `o`, at `o * points + i`.
    columns: Vec<(i64, f64)>,
}

impl FbmRows {
    /// `sample(xs[i], y)` for every `i` in `range`, into `out[i - range.start]`.
    pub fn sample(&self, y: f64, range: std::ops::Range<usize>, out: &mut [f64]) {
        assert_eq!(range.len(), out.len());
        assert!(range.end <= self.points);
        out.fill(0.0);
        let mut norm = 0.0;
        // One chunk of columns per octave, in order.
        let per_octave = self.columns.chunks_exact(self.points.max(1));
        for ((amp, freq, off), columns) in self.fbm.octave_terms().zip(per_octave) {
            let yo = y * freq - off;
            let iy = floor_i64(yo);
            let v = ValueNoise::fade(yo - iy as f64);
            let mut held: Option<(i64, [f64; 4])> = None;
            for (o, &(ix, u)) in out.iter_mut().zip(&columns[range.clone()]) {
                let cell = match held {
                    Some((hx, cell)) if hx == ix => cell,
                    _ => {
                        let cell = self.fbm.base.cell(ix, iy);
                        held = Some((ix, cell));
                        cell
                    }
                };
                *o += amp * ValueNoise::blend(cell, u, v);
            }
            norm += amp;
        }
        for o in out.iter_mut() {
            *o /= norm;
        }
    }
}

/// The lattice cell `(ix, iy, corner values)` each octave of an [`Fbm`] last
/// visited, carried between [`Fbm::sample_near`] calls.
#[derive(Debug, Clone, Default)]
pub struct FbmCells(Vec<Option<(i64, i64, [f64; 4])>>);

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
        let mut columns = Vec::with_capacity(self.octaves as usize * xs.len());
        for (_, freq, off) in self.octave_terms() {
            columns.extend(xs.iter().map(|&x| {
                let xo = x * freq + off;
                let ix = floor_i64(xo);
                (ix, ValueNoise::fade(xo - ix as f64))
            }));
        }
        FbmRows {
            fbm: *self,
            points: xs.len(),
            columns,
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
                rows.sample(y, range.clone(), &mut out);
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
        f.rows(&xs).sample(4.75, 0..5, &mut row);
        for (r, &x) in row.iter().zip(&xs) {
            assert_eq!(r.to_bits(), f.sample(x, 4.75).to_bits());
        }
        f.rows(&[]).sample(1.0, 0..0, &mut []);
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
