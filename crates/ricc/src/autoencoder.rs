//! The rotationally invariant convolutional autoencoder.
//!
//! Architecture (size-agnostic; the paper's full model is larger but
//! structurally identical):
//!
//! ```text
//! encoder: conv(k3 s2) → lrelu → conv(k3 s2) → lrelu → flatten → dense → z
//! decoder: dense → lrelu → reshape → tconv(k4 s2) → lrelu → tconv(k4 s2)
//! ```
//!
//! Down-sampling convs use k=3/s=2/p=1 (halves even sizes); up-sampling
//! transposed convs use k=4/s=2/p=1 (exactly doubles), so input sizes that
//! are multiples of 4 reconstruct at full size.
//!
//! Training minimizes the rotation-invariant loss of [`crate::rotation`]
//! with Adam; a batch's samples run on the wall-clock pool
//! (`eoml_util::pool`) and their gradients are reduced in sample order
//! before each optimizer step, so the step does not depend on the worker
//! count.

use crate::rotation::{min_rotation_mse, rot90};
use crate::tensor::{
    conv2d_bwd, conv2d_fwd, conv2d_fwd_chw, dense_bwd, dense_fwd, dense_fwd_transposed_into,
    leaky_relu_bwd, leaky_relu_fwd, leaky_relu_in_place, tconv2d_bwd, tconv2d_fwd, transpose, Adam,
    ConvSpec, Tensor,
};
use eoml_util::pool;
use eoml_util::rng::{Rng64, Xoshiro256};

/// Autoencoder hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AeConfig {
    /// Input channels (6 for AICCA tiles).
    pub in_ch: usize,
    /// Channels after the first conv.
    pub c1: usize,
    /// Channels after the second conv.
    pub c2: usize,
    /// Latent dimension.
    pub latent: usize,
    /// Square input edge (must be a multiple of 4).
    pub input: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Weight of the latent-invariance term.
    pub lambda: f32,
}

impl AeConfig {
    /// A tiny configuration for tests (2-channel 16×16 tiles).
    pub fn tiny() -> Self {
        Self {
            in_ch: 2,
            c1: 4,
            c2: 8,
            latent: 8,
            input: 16,
            lr: 2e-3,
            lambda: 0.1,
        }
    }

    /// Configuration for AICCA tiles (6-channel 128×128); sized to stay
    /// trainable on CPU at reduced sample counts.
    pub fn aicca() -> Self {
        Self {
            in_ch: 6,
            c1: 8,
            c2: 16,
            latent: 32,
            input: 128,
            lr: 1e-3,
            lambda: 0.1,
        }
    }

    /// Lengths of the twelve parameter buffers, in
    /// [`ConvAutoencoder::param_buffers`] order; `None` when one does not
    /// fit a `usize` (only hyperparameters read from an artifact can be
    /// that large).
    pub(crate) fn param_sizes(&self) -> Option<[usize; 12]> {
        let q = self.input / 4;
        let flat = self.c2.checked_mul(q)?.checked_mul(q)?;
        let conv =
            |c_out: usize, c_in: usize, taps: usize| c_out.checked_mul(c_in)?.checked_mul(taps);
        Some([
            conv(self.c1, self.in_ch, 9)?,
            self.c1,
            conv(self.c2, self.c1, 9)?,
            self.c2,
            self.latent.checked_mul(flat)?,
            self.latent,
            flat.checked_mul(self.latent)?,
            flat,
            conv(self.c2, self.c1, 16)?,
            self.c1,
            conv(self.c1, self.in_ch, 16)?,
            self.in_ch,
        ])
    }
}

const DOWN: ConvSpec = ConvSpec {
    k: 3,
    stride: 2,
    pad: 1,
};
const UP: ConvSpec = ConvSpec {
    k: 4,
    stride: 2,
    pad: 1,
};

/// Parameter gradients, in the same layout as [`ConvAutoencoder`]'s
/// parameters.
#[derive(Debug, Clone)]
struct Grads {
    w1: Vec<f32>,
    b1: Vec<f32>,
    w2: Vec<f32>,
    b2: Vec<f32>,
    we: Vec<f32>,
    be: Vec<f32>,
    wd: Vec<f32>,
    bd: Vec<f32>,
    wu1: Vec<f32>,
    bu1: Vec<f32>,
    wu2: Vec<f32>,
    bu2: Vec<f32>,
}

impl Grads {
    fn zeros_like(m: &ConvAutoencoder) -> Self {
        Self {
            w1: vec![0.0; m.w1.len()],
            b1: vec![0.0; m.b1.len()],
            w2: vec![0.0; m.w2.len()],
            b2: vec![0.0; m.b2.len()],
            we: vec![0.0; m.we.len()],
            be: vec![0.0; m.be.len()],
            wd: vec![0.0; m.wd.len()],
            bd: vec![0.0; m.bd.len()],
            wu1: vec![0.0; m.wu1.len()],
            bu1: vec![0.0; m.bu1.len()],
            wu2: vec![0.0; m.wu2.len()],
            bu2: vec![0.0; m.bu2.len()],
        }
    }

    fn add(&mut self, other: &Grads) {
        fn axpy(a: &mut [f32], b: &[f32]) {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
        }
        axpy(&mut self.w1, &other.w1);
        axpy(&mut self.b1, &other.b1);
        axpy(&mut self.w2, &other.w2);
        axpy(&mut self.b2, &other.b2);
        axpy(&mut self.we, &other.we);
        axpy(&mut self.be, &other.be);
        axpy(&mut self.wd, &other.wd);
        axpy(&mut self.bd, &other.bd);
        axpy(&mut self.wu1, &other.wu1);
        axpy(&mut self.bu1, &other.bu1);
        axpy(&mut self.wu2, &other.wu2);
        axpy(&mut self.bu2, &other.bu2);
    }

    fn scale(&mut self, s: f32) {
        for buf in [
            &mut self.w1,
            &mut self.b1,
            &mut self.w2,
            &mut self.b2,
            &mut self.we,
            &mut self.be,
            &mut self.wd,
            &mut self.bd,
            &mut self.wu1,
            &mut self.bu1,
            &mut self.wu2,
            &mut self.bu2,
        ] {
            for v in buf.iter_mut() {
                *v *= s;
            }
        }
    }
}

/// The two convolution outputs of an encoder pass and its latent, kept by a
/// caller that encodes tile after tile ([`ConvAutoencoder::encode_slice`]).
/// Each convolution output also keeps the room its call splits input rows
/// in, so a warm pass allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct EncodeScratch {
    h1: Tensor,
    h2: Tensor,
    z: Vec<f32>,
}

/// The model: all parameter buffers plus per-buffer Adam state.
#[derive(Debug, Clone)]
pub struct ConvAutoencoder {
    /// Hyperparameters.
    pub cfg: AeConfig,
    // encoder
    w1: Vec<f32>,
    b1: Vec<f32>,
    w2: Vec<f32>,
    b2: Vec<f32>,
    we: Vec<f32>,
    be: Vec<f32>,
    /// `we` as `[n_in][n_out]`, the layout [`encode`](Self::encode) walks;
    /// rebuilt wherever `we` changes.
    we_t: Vec<f32>,
    // decoder
    wd: Vec<f32>,
    bd: Vec<f32>,
    wu1: Vec<f32>,
    bu1: Vec<f32>,
    wu2: Vec<f32>,
    bu2: Vec<f32>,
    opt: Vec<Adam>,
}

struct Cache {
    x: Tensor,
    a1: Tensor,
    h1: Tensor,
    a2: Tensor,
    h2: Tensor,
    z: Vec<f32>,
    d_pre: Vec<f32>,
    d_act: Vec<f32>,
    d1: Tensor,
    u1: Tensor,
    hu1: Tensor,
    recon: Tensor,
}

impl ConvAutoencoder {
    /// Initialize with He-style random weights from `seed`.
    pub fn new(cfg: AeConfig, seed: u64) -> Self {
        assert!(
            cfg.input.is_multiple_of(4),
            "input size must be a multiple of 4"
        );
        let mut rng = Xoshiro256::seed_from(seed ^ 0xAE0C0DE);
        let mut init = |n: usize, fan_in: usize| -> Vec<f32> {
            let std = (2.0 / fan_in as f64).sqrt();
            (0..n).map(|_| rng.normal(0.0, std) as f32).collect()
        };
        let sizes = cfg.param_sizes().expect("parameter counts fit a usize");
        let [n_w1, _, n_w2, _, n_we, _, n_wd, flat, n_wu1, _, n_wu2, _] = sizes;
        let w1 = init(n_w1, cfg.in_ch * 9);
        let w2 = init(n_w2, cfg.c1 * 9);
        let we = init(n_we, flat);
        let wd = init(n_wd, cfg.latent);
        let wu1 = init(n_wu1, cfg.c2 * 16);
        let wu2 = init(n_wu2, cfg.c1 * 16);
        Self {
            cfg,
            w1,
            b1: vec![0.0; cfg.c1],
            w2,
            b2: vec![0.0; cfg.c2],
            we_t: transpose(&we, cfg.latent),
            we,
            be: vec![0.0; cfg.latent],
            wd,
            bd: vec![0.0; flat],
            wu1,
            bu1: vec![0.0; cfg.c1],
            wu2,
            bu2: vec![0.0; cfg.in_ch],
            opt: sizes.iter().map(|&n| Adam::new(n, cfg.lr)).collect(),
        }
    }

    /// All parameter buffers in a fixed serialization order
    /// (w1, b1, w2, b2, we, be, wd, bd, wu1, bu1, wu2, bu2).
    pub fn param_buffers(&self) -> [&[f32]; 12] {
        [
            &self.w1, &self.b1, &self.w2, &self.b2, &self.we, &self.be, &self.wd, &self.bd,
            &self.wu1, &self.bu1, &self.wu2, &self.bu2,
        ]
    }

    /// Overwrite all parameter buffers (same order and lengths as
    /// [`param_buffers`](Self::param_buffers); panics on mismatch).
    /// Optimizer state is reset.
    pub fn set_param_buffers(&mut self, bufs: &[Vec<f32>]) {
        assert_eq!(bufs.len(), 12, "expected 12 parameter buffers");
        let lr = self.cfg.lr;
        let mut sizes = Vec::with_capacity(12);
        for (dst, src) in [
            (&mut self.w1, &bufs[0]),
            (&mut self.b1, &bufs[1]),
            (&mut self.w2, &bufs[2]),
            (&mut self.b2, &bufs[3]),
            (&mut self.we, &bufs[4]),
            (&mut self.be, &bufs[5]),
            (&mut self.wd, &bufs[6]),
            (&mut self.bd, &bufs[7]),
            (&mut self.wu1, &bufs[8]),
            (&mut self.bu1, &bufs[9]),
            (&mut self.wu2, &bufs[10]),
            (&mut self.bu2, &bufs[11]),
        ] {
            assert_eq!(dst.len(), src.len(), "parameter buffer length mismatch");
            dst.copy_from_slice(src);
            sizes.push(dst.len());
        }
        self.we_t = transpose(&self.we, self.cfg.latent);
        self.opt = sizes.into_iter().map(|n| Adam::new(n, lr)).collect();
    }

    /// Total trainable parameter count.
    pub fn param_count(&self) -> usize {
        self.w1.len()
            + self.b1.len()
            + self.w2.len()
            + self.b2.len()
            + self.we.len()
            + self.be.len()
            + self.wd.len()
            + self.bd.len()
            + self.wu1.len()
            + self.bu1.len()
            + self.wu2.len()
            + self.bu2.len()
    }

    /// Encode a tile to its latent vector.
    pub fn encode(&self, x: &Tensor) -> Vec<f32> {
        let mut scratch = EncodeScratch::default();
        self.encode_chw(&x.data, [x.c, x.h, x.w], &mut scratch);
        scratch.z
    }

    /// [`encode`](Self::encode) of a tile of the configured input shape held
    /// as borrowed CHW data (`in_ch × input × input` floats), the
    /// convolutions' outputs in `scratch`, so that encoding tile after tile
    /// allocates them once.
    pub fn encode_slice(&self, x: &[f32], scratch: &mut EncodeScratch) -> Vec<f32> {
        self.encode_in(x, scratch).to_vec()
    }

    /// [`encode_slice`](Self::encode_slice) that leaves the latent in
    /// `scratch` too, so a warm call allocates nothing.
    pub(crate) fn encode_in<'s>(&self, x: &[f32], scratch: &'s mut EncodeScratch) -> &'s [f32] {
        let shape = [self.cfg.in_ch, self.cfg.input, self.cfg.input];
        self.encode_chw(x, shape, scratch)
    }

    fn encode_chw<'s>(
        &self,
        x: &[f32],
        shape: [usize; 3],
        scratch: &'s mut EncodeScratch,
    ) -> &'s [f32] {
        let EncodeScratch { h1, h2, z } = scratch;
        conv2d_fwd_chw(x, shape, &self.w1, &self.b1, self.cfg.c1, DOWN, h1);
        leaky_relu_in_place(h1);
        let h1_shape = [h1.c, h1.h, h1.w];
        conv2d_fwd_chw(
            &h1.data,
            h1_shape,
            &self.w2,
            &self.b2,
            self.cfg.c2,
            DOWN,
            h2,
        );
        leaky_relu_in_place(h2);
        dense_fwd_transposed_into(&h2.data, &self.we_t, &self.be, z);
        z
    }

    /// Decode a latent vector back to a tile.
    pub fn decode(&self, z: &[f32]) -> Tensor {
        let q = self.cfg.input / 4;
        let d_pre = dense_fwd(z, &self.wd, &self.bd);
        let d_act: Vec<f32> = d_pre
            .iter()
            .map(|&v| if v < 0.0 { v * 0.1 } else { v })
            .collect();
        let d1 = Tensor::from_data(self.cfg.c2, q, q, d_act);
        let u1 = tconv2d_fwd(&d1, &self.wu1, &self.bu1, self.cfg.c1, UP);
        let hu1 = leaky_relu_fwd(&u1);
        tconv2d_fwd(&hu1, &self.wu2, &self.bu2, self.cfg.in_ch, UP)
    }

    /// Full reconstruction.
    pub fn reconstruct(&self, x: &Tensor) -> Tensor {
        self.decode(&self.encode(x))
    }

    fn forward(&self, x: &Tensor) -> Cache {
        let q = self.cfg.input / 4;
        let a1 = conv2d_fwd(x, &self.w1, &self.b1, self.cfg.c1, DOWN);
        let h1 = leaky_relu_fwd(&a1);
        let a2 = conv2d_fwd(&h1, &self.w2, &self.b2, self.cfg.c2, DOWN);
        let h2 = leaky_relu_fwd(&a2);
        let z = dense_fwd(&h2.data, &self.we, &self.be);
        let d_pre = dense_fwd(&z, &self.wd, &self.bd);
        let d_act: Vec<f32> = d_pre
            .iter()
            .map(|&v| if v < 0.0 { v * 0.1 } else { v })
            .collect();
        let d1 = Tensor::from_data(self.cfg.c2, q, q, d_act.clone());
        let u1 = tconv2d_fwd(&d1, &self.wu1, &self.bu1, self.cfg.c1, UP);
        let hu1 = leaky_relu_fwd(&u1);
        let recon = tconv2d_fwd(&hu1, &self.wu2, &self.bu2, self.cfg.in_ch, UP);
        Cache {
            x: x.clone(),
            a1,
            h1,
            a2,
            h2,
            z,
            d_pre,
            d_act,
            d1,
            u1,
            hu1,
            recon,
        }
    }

    /// Per-sample loss and gradients.
    fn backward(&self, cache: &Cache) -> (f32, Grads) {
        let mut g = Grads::zeros_like(self);
        // Restoration term: MSE against the best rotation.
        let (restore, best_r) = min_rotation_mse(&cache.recon, &cache.x);
        let target = rot90(&cache.x, best_r);
        let n = cache.recon.len() as f32;
        let drecon = Tensor::from_data(
            cache.recon.c,
            cache.recon.h,
            cache.recon.w,
            cache
                .recon
                .data
                .iter()
                .zip(&target.data)
                .map(|(r, t)| 2.0 * (r - t) / n)
                .collect(),
        );
        // Invariance term: latents of rotations as stop-gradient targets.
        let z_rots: Vec<Vec<f32>> = (1..4).map(|r| self.encode(&rot90(&cache.x, r))).collect();
        let zl = cache.z.len() as f32;
        let mut inv = 0.0f32;
        let mut dz_inv = vec![0.0f32; cache.z.len()];
        for zr in &z_rots {
            for i in 0..cache.z.len() {
                let d = cache.z[i] - zr[i];
                inv += d * d / zl;
                dz_inv[i] += self.cfg.lambda * 2.0 * d / (zl * z_rots.len() as f32);
            }
        }
        inv /= z_rots.len() as f32;
        let loss = restore + self.cfg.lambda * inv;

        // Decoder backward.
        let (dhu1, dwu2, dbu2) = tconv2d_bwd(&cache.hu1, &self.wu2, &drecon, self.cfg.in_ch, UP);
        g.wu2 = dwu2;
        g.bu2 = dbu2;
        let du1 = leaky_relu_bwd(&cache.u1, &dhu1);
        let (dd1, dwu1, dbu1) = tconv2d_bwd(&cache.d1, &self.wu1, &du1, self.cfg.c1, UP);
        g.wu1 = dwu1;
        g.bu1 = dbu1;
        // Through the decoder dense + its leaky relu.
        let dd_act = dd1.data;
        let dd_pre: Vec<f32> = dd_act
            .iter()
            .zip(&cache.d_pre)
            .map(|(&d, &p)| if p < 0.0 { d * 0.1 } else { d })
            .collect();
        let (dz_dec, dwd, dbd) = dense_bwd(&cache.z, &self.wd, &dd_pre);
        g.wd = dwd;
        g.bd = dbd;

        // Encoder backward: total latent gradient.
        let dz: Vec<f32> = dz_dec.iter().zip(&dz_inv).map(|(a, b)| a + b).collect();
        let (dh2_flat, dwe, dbe) = dense_bwd(&cache.h2.data, &self.we, &dz);
        g.we = dwe;
        g.be = dbe;
        let dh2 = Tensor::from_data(cache.h2.c, cache.h2.h, cache.h2.w, dh2_flat);
        let da2 = leaky_relu_bwd(&cache.a2, &dh2);
        let (dh1, dw2, db2) = conv2d_bwd(&cache.h1, &self.w2, &da2, self.cfg.c2, DOWN);
        g.w2 = dw2;
        g.b2 = db2;
        let da1 = leaky_relu_bwd(&cache.a1, &dh1);
        let (_dx, dw1, db1) = conv2d_bwd(&cache.x, &self.w1, &da1, self.cfg.c1, DOWN);
        g.w1 = dw1;
        g.b1 = db1;
        // Unused but documents the full chain.
        let _ = cache.d_act.len();
        (loss, g)
    }

    /// One Adam step over a batch; returns the mean loss.
    pub fn train_batch(&mut self, batch: &[Tensor]) -> f32 {
        assert!(!batch.is_empty());
        let results = pool::map(crate::workers(), batch.iter().collect(), |x| {
            let cache = self.forward(x);
            self.backward(&cache)
        });
        let mut total = Grads::zeros_like(self);
        let mut loss = 0.0f32;
        for (l, g) in &results {
            loss += l;
            total.add(g);
        }
        total.scale(1.0 / batch.len() as f32);
        loss /= batch.len() as f32;
        // Apply per-buffer Adam steps.
        self.opt[0].step(&mut self.w1, &total.w1);
        self.opt[1].step(&mut self.b1, &total.b1);
        self.opt[2].step(&mut self.w2, &total.w2);
        self.opt[3].step(&mut self.b2, &total.b2);
        self.opt[4].step(&mut self.we, &total.we);
        self.we_t = transpose(&self.we, self.cfg.latent);
        self.opt[5].step(&mut self.be, &total.be);
        self.opt[6].step(&mut self.wd, &total.wd);
        self.opt[7].step(&mut self.bd, &total.bd);
        self.opt[8].step(&mut self.wu1, &total.wu1);
        self.opt[9].step(&mut self.bu1, &total.bu1);
        self.opt[10].step(&mut self.wu2, &total.wu2);
        self.opt[11].step(&mut self.bu2, &total.bu2);
        loss
    }

    /// Evaluate the mean rotation-invariant loss without training.
    pub fn eval_loss(&self, batch: &[Tensor]) -> f32 {
        let losses = pool::map(crate::workers(), batch.iter().collect(), |x| {
            let cache = self.forward(x);
            self.backward(&cache).0
        });
        losses.into_iter().sum::<f32>() / batch.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eoml_util::noise::Fbm;

    /// Synthetic "cloud texture" tiles for training tests.
    fn toy_tiles(n: usize, size: usize, ch: usize, seed: u64) -> Vec<Tensor> {
        (0..n)
            .map(|i| {
                let f = Fbm::new(seed + i as u64, 4);
                let mut t = Tensor::zeros(ch, size, size);
                for c in 0..ch {
                    for y in 0..size {
                        for x in 0..size {
                            let v = f.sample(
                                x as f64 * 0.3 + c as f64 * 17.0,
                                y as f64 * 0.3 + i as f64 * 3.0,
                            );
                            *t.at_mut(c, y, x) = (v as f32 - 0.5) * 2.0;
                        }
                    }
                }
                t
            })
            .collect()
    }

    #[test]
    fn shapes_are_consistent() {
        let m = ConvAutoencoder::new(AeConfig::tiny(), 1);
        let x = Tensor::zeros(2, 16, 16);
        let z = m.encode(&x);
        assert_eq!(z.len(), 8);
        let recon = m.decode(&z);
        assert_eq!((recon.c, recon.h, recon.w), (2, 16, 16));
        assert!(m.param_count() > 1000);
    }

    #[test]
    fn training_reduces_loss() {
        let mut m = ConvAutoencoder::new(AeConfig::tiny(), 7);
        let tiles = toy_tiles(16, 16, 2, 100);
        let initial = m.eval_loss(&tiles);
        let mut last = initial;
        for _ in 0..150 {
            last = m.train_batch(&tiles);
        }
        assert!(
            last < initial * 0.7,
            "loss should drop ≥30 %: {initial} → {last}"
        );
    }

    #[test]
    fn training_improves_rotation_invariance() {
        use crate::rotation::rot90;
        let mut m = ConvAutoencoder::new(AeConfig::tiny(), 9);
        let tiles = toy_tiles(12, 16, 2, 200);
        let inv_score = |m: &ConvAutoencoder| -> f32 {
            tiles
                .iter()
                .map(|t| {
                    let z = m.encode(t);
                    let zr = m.encode(&rot90(t, 1));
                    z.iter()
                        .zip(&zr)
                        .map(|(a, b)| (a - b) * (a - b))
                        .sum::<f32>()
                        / z.iter().map(|a| a * a).sum::<f32>().max(1e-9)
                })
                .sum::<f32>()
                / tiles.len() as f32
        };
        let before = inv_score(&m);
        for _ in 0..60 {
            m.train_batch(&tiles);
        }
        let after = inv_score(&m);
        assert!(
            after < before,
            "relative latent rotation distance should shrink: {before} → {after}"
        );
    }

    /// `encode` as it was before the select and the transposed latent layer:
    /// the branchy leaky ReLU and `dense_fwd` over `we` itself.
    fn encode_oracle(m: &ConvAutoencoder, x: &Tensor) -> Vec<f32> {
        use crate::tensor::leaky_relu_in_place_reference;
        let mut h1 = conv2d_fwd(x, &m.w1, &m.b1, m.cfg.c1, DOWN);
        leaky_relu_in_place_reference(&mut h1);
        let mut h2 = conv2d_fwd(&h1, &m.w2, &m.b2, m.cfg.c2, DOWN);
        leaky_relu_in_place_reference(&mut h2);
        dense_fwd(&h2.data, &m.we, &m.be)
    }

    #[test]
    fn encode_is_bit_identical_to_the_former_forward_pass() {
        use crate::aicca::synthetic_texture_tile;
        // The real pipeline's model at both benchmark tile sizes: every
        // sample tile `pretrained` draws at 32 px, 40 of them at 128 px. One
        // scratch serves every tile of both sizes.
        let mut scratch = EncodeScratch::default();
        for (input, tiles) in [(32usize, 168usize), (128, 40), (32, 8)] {
            let cfg = AeConfig {
                in_ch: 6,
                c1: 8,
                c2: 16,
                latent: 24,
                input,
                ..AeConfig::tiny()
            };
            let m = ConvAutoencoder::new(cfg, 2022);
            for i in 0..tiles {
                let x = synthetic_texture_tile(cfg, 2022 ^ 0x7117E5, i);
                let bits = |z: Vec<f32>| z.into_iter().map(f32::to_bits).collect::<Vec<_>>();
                let expected = bits(encode_oracle(&m, &x));
                assert_eq!(bits(m.encode(&x)), expected, "tile {i} at {input} px");
                let fresh = m.encode_slice(&x.data, &mut EncodeScratch::default());
                assert_eq!(bits(fresh), expected, "slice {i}");
                let reused = m.encode_slice(&x.data, &mut scratch);
                assert_eq!(bits(reused), expected, "slice {i} in a used scratch");
            }
        }
    }

    #[test]
    fn the_transposed_latent_weights_follow_training_and_loading() {
        let mut m = ConvAutoencoder::new(AeConfig::tiny(), 7);
        let tiles = toy_tiles(4, 16, 2, 100);
        m.train_batch(&tiles);
        assert_eq!(m.encode(&tiles[0]), encode_oracle(&m, &tiles[0]));
        let mut loaded = ConvAutoencoder::new(AeConfig::tiny(), 8);
        let bufs: Vec<Vec<f32>> = m.param_buffers().iter().map(|b| b.to_vec()).collect();
        loaded.set_param_buffers(&bufs);
        assert_eq!(loaded.encode(&tiles[0]), m.encode(&tiles[0]));
    }

    #[test]
    fn encode_is_deterministic() {
        let m = ConvAutoencoder::new(AeConfig::tiny(), 5);
        let x = toy_tiles(1, 16, 2, 3).pop().unwrap();
        assert_eq!(m.encode(&x), m.encode(&x));
        let m2 = ConvAutoencoder::new(AeConfig::tiny(), 5);
        assert_eq!(m.encode(&x), m2.encode(&x), "same seed, same weights");
        let m3 = ConvAutoencoder::new(AeConfig::tiny(), 6);
        assert_ne!(
            m.encode(&x),
            m3.encode(&x),
            "different seed, different weights"
        );
    }

    #[test]
    fn different_textures_get_different_latents() {
        let m = ConvAutoencoder::new(AeConfig::tiny(), 11);
        let tiles = toy_tiles(8, 16, 2, 400);
        let latents: Vec<Vec<f32>> = tiles.iter().map(|t| m.encode(t)).collect();
        for i in 0..latents.len() {
            for j in i + 1..latents.len() {
                let d: f32 = latents[i]
                    .iter()
                    .zip(&latents[j])
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum();
                assert!(d > 1e-9, "tiles {i} and {j} collapsed");
            }
        }
    }

    #[test]
    #[should_panic(expected = "multiple of 4")]
    fn bad_input_size_panics() {
        let cfg = AeConfig {
            input: 18,
            ..AeConfig::tiny()
        };
        ConvAutoencoder::new(cfg, 1);
    }
}
