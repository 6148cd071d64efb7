//! Lattice value noise and fractional Brownian motion (fBm).
//!
//! The synthetic MODIS generator uses these to produce spatially coherent
//! cloud-optical-thickness fields and a procedural land mask. Everything is
//! seeded and stateless (lattice values are hashed from integer coordinates),
//! so a granule's pixel field is reproducible from `(seed, granule index)`
//! without storing any state.

use crate::rng::SplitMix64;

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

    /// [`sample`](Self::sample) at every `(xs[i], y)` of one scan line,
    /// bit-identical to the per-point call: per octave the `y` terms (the two
    /// lattice rows, `fade(fy)`) are computed once for the line and the four
    /// lattice values are re-hashed only when a point leaves the current
    /// cell, and each `out[i]` still accumulates its octaves in order.
    pub fn sample_row(&self, xs: &[f64], y: f64, out: &mut [f64]) {
        assert_eq!(xs.len(), out.len());
        out.fill(0.0);
        let mut amp = 1.0;
        let mut freq = 1.0;
        let mut norm = 0.0;
        for oct in 0..self.octaves {
            let off = oct as f64 * 137.31;
            let yo = y * freq - off;
            let iy = yo.floor() as i64;
            let v = ValueNoise::fade(yo - iy as f64);
            // Lattice values of the cell `cell_ix`; refreshed on first use.
            let mut cell_ix = i64::MIN;
            let mut cell = [0.0; 4];
            for (o, &x) in out.iter_mut().zip(xs) {
                let xo = x * freq + off;
                let ix = xo.floor() as i64;
                if ix != cell_ix {
                    cell_ix = ix;
                    cell = self.base.cell(ix, iy);
                }
                let u = ValueNoise::fade(xo - ix as f64);
                *o += amp * ValueNoise::blend(cell, u, v);
            }
            norm += amp;
            amp *= self.gain;
            freq *= self.lacunarity;
        }
        for o in out.iter_mut() {
            *o /= norm;
        }
    }

    /// Sample mapped through a ridge transform (`1 − |2n − 1|`), giving
    /// filament-like structures used for cirrus-type cloud textures.
    pub fn ridged(&self, x: f64, y: f64) -> f64 {
        let n = self.sample(x, y);
        1.0 - (2.0 * n - 1.0).abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn sample_row_is_bit_identical_to_per_point_sample() {
        // Negative and positive coordinates, cells from many points wide to
        // narrower than the step, and a non-monotonic line.
        for (seed, octaves, x0, dx, y) in [
            (3u64, 6u32, -7.3f64, 1.0 / 96.0, -2.25f64),
            (4, 5, 0.0, 2.0 / 96.0, 913.0 / 96.0),
            (5, 4, -0.5, 0.37, 0.0),
            (6, 1, 2.0, -0.013, -1e-9),
        ] {
            let f = Fbm::new(seed, octaves);
            let xs: Vec<f64> = (0..301).map(|i| x0 + i as f64 * dx).collect();
            let mut row = vec![0.0; xs.len()];
            f.sample_row(&xs, y, &mut row);
            for (i, &x) in xs.iter().enumerate() {
                assert_eq!(
                    row[i].to_bits(),
                    f.sample(x, y).to_bits(),
                    "seed {seed} x {x} y {y}"
                );
            }
        }
        let f = Fbm::with_params(9, 3, 2.7, 0.8);
        let xs = [5.5, -3.25, 5.5, 0.0, 1e6 + 0.5];
        let mut row = [0.0; 5];
        f.sample_row(&xs, 4.75, &mut row);
        for (r, &x) in row.iter().zip(&xs) {
            assert_eq!(r.to_bits(), f.sample(x, 4.75).to_bits());
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
