//! The AICCA model: encoder + 42 cluster centroids.
//!
//! Stage 4 of the workflow loads "the trained autoencoder and centroids"
//! and predicts a cloud label for every tile of unseen data. This module is
//! that artifact: [`AiccaModel::fit`] builds it from an encoder and a tile
//! sample (the paper's "RICC training" + "label assignment" stages), and
//! [`AiccaModel::predict`] is the inference kernel.
//!
//! Because the paper's 1 M-tile GPU training run is out of scope for a CPU
//! reproduction, [`AiccaModel::pretrained`] provides a deterministic stand-
//! in: an untrained (random-projection) encoder whose distance structure is
//! still informative (Johnson–Lindenstrauss), with centroids fitted on a
//! procedurally generated sample of cloud-like textures. The pipeline code
//! paths — encode, nearest centroid, append label — are identical either
//! way.

use crate::autoencoder::{AeConfig, ConvAutoencoder, EncodeScratch};
use crate::cluster::{agglomerate, assign, centroids, nearest};
use crate::tensor::Tensor;
use crate::AICCA_CLASSES;
use eoml_util::noise::{ridge, Fbm, FbmRowCache};
use eoml_util::pool;

/// Encoder + centroids.
#[derive(Debug, Clone)]
pub struct AiccaModel {
    /// The (possibly trained) autoencoder whose encoder defines the latent
    /// space.
    pub encoder: ConvAutoencoder,
    /// One centroid per cloud class.
    pub centroids: Vec<Vec<f32>>,
}

impl AiccaModel {
    /// Number of classes (42 for AICCA).
    pub fn num_classes(&self) -> usize {
        self.centroids.len()
    }

    /// Fit centroids by encoding `sample` tiles on the pool, agglomerating
    /// to `k` clusters (Ward) and taking cluster means.
    pub fn fit(encoder: ConvAutoencoder, sample: &[Tensor], k: usize) -> Self {
        Self::fit_on(crate::workers(), encoder, sample, k)
    }

    fn fit_on(workers: usize, encoder: ConvAutoencoder, sample: &[Tensor], k: usize) -> Self {
        let latents = pool::map(workers, sample.iter().collect(), |t| encoder.encode(t));
        Self::from_latents(encoder, &latents, k)
    }

    /// Deterministic stand-in for the published trained model: random
    /// encoder + centroids fitted on `4 × AICCA_CLASSES` synthetic texture
    /// tiles spanning a range of cloud morphologies.
    ///
    /// Each pool worker makes a tile, encodes it and keeps only the
    /// latent, so no more than one sample tile per thread is alive at a
    /// time; the latents come back in tile order however the workers
    /// claimed the indices, so the model does not depend on their count.
    pub fn pretrained(cfg: AeConfig, seed: u64) -> Self {
        Self::pretrained_on(crate::workers(), cfg, seed)
    }

    fn pretrained_on(workers: usize, cfg: AeConfig, seed: u64) -> Self {
        let encoder = ConvAutoencoder::new(cfg, seed);
        let sample_seed = seed ^ 0x7117E5;
        let latents = pool::map(workers, (0..4 * AICCA_CLASSES).collect(), |i| {
            encoder.encode(&synthetic_texture_tile(cfg, sample_seed, i))
        });
        Self::from_latents(encoder, &latents, AICCA_CLASSES)
    }

    /// Ward-agglomerate the sample's `latents` to `k` clusters and keep the
    /// cluster means.
    fn from_latents(encoder: ConvAutoencoder, latents: &[Vec<f32>], k: usize) -> Self {
        assert!(
            latents.len() >= k,
            "need at least k={k} sample tiles, got {}",
            latents.len()
        );
        let labels = agglomerate(latents).cut(k);
        Self {
            centroids: centroids(latents, &labels, k),
            encoder,
        }
    }

    /// Predict the class of one tile.
    pub fn predict(&self, tile: &Tensor) -> usize {
        nearest(&self.encoder.encode(tile), &self.centroids)
    }

    /// [`predict`](Self::predict) for a tile of the model's input shape held
    /// as borrowed CHW data, e.g. one tile's slice of a file's radiance; the
    /// encoder's activations go in `scratch` (see
    /// [`ConvAutoencoder::encode_slice`]).
    pub fn predict_slice(&self, tile: &[f32], scratch: &mut EncodeScratch) -> usize {
        nearest(self.encoder.encode_in(tile, scratch), &self.centroids)
    }

    /// Predict a batch on the pool, labels in tile order.
    pub fn predict_batch(&self, tiles: &[Tensor]) -> Vec<usize> {
        pool::map(crate::workers(), tiles.iter().collect(), |t| {
            self.predict(t)
        })
    }

    /// Latent representation of one tile.
    pub fn embed(&self, tile: &Tensor) -> Vec<f32> {
        self.encoder.encode(tile)
    }
}

/// Assign labels to already-encoded latents.
pub fn predict_latents(latents: &[Vec<f32>], cents: &[Vec<f32>]) -> Vec<usize> {
    assign(latents, cents)
}

/// Generate `n` cloud-texture-like tiles of the model's input shape,
/// spanning a spread of spatial frequencies, anisotropies and ridge
/// morphologies (the stand-in for the paper's training sample).
pub fn synthetic_texture_sample(cfg: AeConfig, n: usize, seed: u64) -> Vec<Tensor> {
    (0..n)
        .map(|i| synthetic_texture_tile(cfg, seed, i))
        .collect()
}

/// Tile `i` of [`synthetic_texture_sample`]: the index picks the octave
/// count, gain, scale and ridged-or-plain, and every channel is the same
/// field at its own offset. Sampled a scan line at a time
/// ([`Fbm::rows`]), bit-identical to the per-pixel `Fbm::sample` /
/// `Fbm::ridged`.
pub fn synthetic_texture_tile(cfg: AeConfig, seed: u64, i: usize) -> Tensor {
    let octaves = 2 + (i % 5) as u32;
    let gain = 0.35 + 0.12 * ((i / 5) % 5) as f64;
    let f = Fbm::with_params(seed.wrapping_add(i as u64 * 7919), octaves, 2.0, gain);
    let scale = 0.06 + 0.05 * ((i / 25) % 4) as f64;
    let ridged = i.is_multiple_of(3);
    let edge = cfg.input;
    let mut t = Tensor::zeros(cfg.in_ch, edge, edge);
    let mut xs = vec![0.0f64; edge];
    let mut line = vec![0.0f64; edge];
    let mut cache = FbmRowCache::default();
    for (c, plane) in t.data.chunks_exact_mut((edge * edge).max(1)).enumerate() {
        let off = c as f64 * 31.7;
        for (x, fx) in xs.iter_mut().enumerate() {
            *fx = x as f64 * scale + off;
        }
        let rows = f.rows(&xs);
        for (y, out) in plane.chunks_exact_mut(edge).enumerate() {
            rows.sample(y as f64 * scale - off, 0..edge, &mut line, &mut cache);
            for (o, &n) in out.iter_mut().zip(&line) {
                let v = if ridged { ridge(n) } else { n };
                *o = (v as f32 - 0.5) * 2.0;
            }
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_model() -> AiccaModel {
        AiccaModel::pretrained(AeConfig::tiny(), 2022)
    }

    /// The sample as it was first written, one `Fbm::sample` / `ridged`
    /// call per pixel: what the row-sampled tiles must equal bit for bit.
    fn oracle_sample(cfg: AeConfig, n: usize, seed: u64) -> Vec<Tensor> {
        (0..n).map(|i| oracle_tile(cfg, seed, i)).collect()
    }

    fn oracle_tile(cfg: AeConfig, seed: u64, i: usize) -> Tensor {
        let octaves = 2 + (i % 5) as u32;
        let gain = 0.35 + 0.12 * ((i / 5) % 5) as f64;
        let f = Fbm::with_params(seed.wrapping_add(i as u64 * 7919), octaves, 2.0, gain);
        let scale = 0.06 + 0.05 * ((i / 25) % 4) as f64;
        let ridged = i.is_multiple_of(3);
        let mut t = Tensor::zeros(cfg.in_ch, cfg.input, cfg.input);
        for c in 0..cfg.in_ch {
            let off = c as f64 * 31.7;
            for y in 0..cfg.input {
                for x in 0..cfg.input {
                    let (fx, fy) = (x as f64 * scale + off, y as f64 * scale - off);
                    let v = if ridged {
                        f.ridged(fx, fy)
                    } else {
                        f.sample(fx, fy)
                    };
                    *t.at_mut(c, y, x) = (v as f32 - 0.5) * 2.0;
                }
            }
        }
        t
    }

    fn paper_cfg(input: usize) -> AeConfig {
        AeConfig {
            in_ch: 6,
            input,
            ..AeConfig::tiny()
        }
    }

    fn assert_tile_matches_oracle(cfg: AeConfig, seed: u64, i: usize) {
        let (fast, slow) = (
            synthetic_texture_tile(cfg, seed, i),
            oracle_tile(cfg, seed, i),
        );
        assert_eq!((fast.c, fast.h, fast.w), (slow.c, slow.h, slow.w));
        let differing = fast
            .data
            .iter()
            .zip(&slow.data)
            .position(|(a, b)| a.to_bits() != b.to_bits());
        assert_eq!(differing, None, "tile {i} at {} px", cfg.input);
    }

    #[test]
    fn row_sampled_tiles_equal_the_per_pixel_oracle() {
        let seed = 2022 ^ 0x7117E5;
        // Every parameter combination `pretrained` draws, at 32 px.
        for i in 0..4 * AICCA_CLASSES {
            assert_tile_matches_oracle(paper_cfg(32), seed, i);
        }
        // At 128 px: ridged (i % 3 == 0) and plain at every octave count
        // (i % 5) and scale ((i / 25) % 4); the gain steps through i / 5.
        for scale in 0..4 {
            for octaves in 0..5 {
                let mut gains = (0..5).map(|gain| scale * 25 + gain * 5 + octaves);
                let ridged = gains.clone().find(|i| i % 3 == 0).expect("ridged");
                let plain = gains.find(|i| i % 3 != 0).expect("plain");
                for i in [ridged, plain] {
                    assert_eq!((i % 5, (i / 25) % 4), (octaves, scale));
                    assert_tile_matches_oracle(paper_cfg(128), seed, i);
                }
            }
        }
        assert_eq!(
            synthetic_texture_sample(AeConfig::tiny(), 7, 5),
            oracle_sample(AeConfig::tiny(), 7, 5)
        );
    }

    #[test]
    fn pretrained_is_fit_on_the_oracle_sample_whatever_the_thread_count() {
        use crate::serialize::save_model;
        let cfg = AeConfig {
            input: 32,
            ..AeConfig::tiny()
        };
        for seed in [0u64, 2022, u64::MAX] {
            let sample = oracle_sample(cfg, 4 * AICCA_CLASSES, seed ^ 0x7117E5);
            let encoder = ConvAutoencoder::new(cfg, seed);
            let reference = save_model(&AiccaModel::fit(encoder.clone(), &sample, AICCA_CLASSES));
            assert!(reference == save_model(&AiccaModel::pretrained(cfg, seed)));
            // The latents must come back in tile order however the 168
            // tiles are claimed by the pool's workers.
            for workers in [1, 2, 3] {
                let pretrained = AiccaModel::pretrained_on(workers, cfg, seed);
                assert!(
                    reference == save_model(&pretrained),
                    "pretrained, seed {seed}, {workers} workers"
                );
                let fit = AiccaModel::fit_on(workers, encoder.clone(), &sample, AICCA_CLASSES);
                assert!(
                    reference == save_model(&fit),
                    "fit, seed {seed}, {workers} workers"
                );
            }
        }
    }

    #[test]
    fn pretrained_has_42_classes() {
        let m = tiny_model();
        assert_eq!(m.num_classes(), 42);
        assert_eq!(m.centroids.len(), 42);
        for c in &m.centroids {
            assert_eq!(c.len(), AeConfig::tiny().latent);
        }
    }

    #[test]
    fn predictions_are_valid_and_deterministic() {
        let m = tiny_model();
        let tiles = synthetic_texture_sample(AeConfig::tiny(), 20, 5);
        let labels = m.predict_batch(&tiles);
        assert_eq!(labels.len(), 20);
        for &l in &labels {
            assert!(l < 42);
        }
        assert_eq!(labels, m.predict_batch(&tiles));
        let mut scratch = EncodeScratch::default();
        let by_slice = tiles.iter().map(|t| m.predict_slice(&t.data, &mut scratch));
        let by_slice: Vec<usize> = by_slice.collect();
        assert_eq!(labels, by_slice);
        // Same construction gives the same model.
        let m2 = tiny_model();
        assert_eq!(labels, m2.predict_batch(&tiles));
    }

    #[test]
    fn predictions_use_many_classes() {
        let m = tiny_model();
        let tiles = synthetic_texture_sample(AeConfig::tiny(), 100, 77);
        let labels = m.predict_batch(&tiles);
        let mut uniq = labels.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert!(
            uniq.len() >= 8,
            "a texture spread should hit many classes, got {}",
            uniq.len()
        );
    }

    #[test]
    fn similar_tiles_get_same_class_more_often_than_different() {
        let m = tiny_model();
        let tiles = synthetic_texture_sample(AeConfig::tiny(), 30, 9);
        // A tile and a slightly perturbed copy should agree far more often
        // than two unrelated tiles.
        let mut same = 0;
        for t in &tiles {
            let mut p = t.clone();
            for v in &mut p.data {
                *v += 0.01;
            }
            if m.predict(t) == m.predict(&p) {
                same += 1;
            }
        }
        assert!(
            same >= 28,
            "perturbation flipped {} of 30 labels",
            30 - same
        );
    }

    #[test]
    fn fit_requires_enough_samples() {
        let enc = ConvAutoencoder::new(AeConfig::tiny(), 1);
        let tiles = synthetic_texture_sample(AeConfig::tiny(), 5, 1);
        let result = std::panic::catch_unwind(|| AiccaModel::fit(enc, &tiles, 42));
        assert!(result.is_err());
    }

    #[test]
    fn fit_with_small_k() {
        let enc = ConvAutoencoder::new(AeConfig::tiny(), 3);
        let tiles = synthetic_texture_sample(AeConfig::tiny(), 12, 3);
        let m = AiccaModel::fit(enc, &tiles, 4);
        assert_eq!(m.num_classes(), 4);
        let labels = m.predict_batch(&tiles);
        let mut uniq = labels;
        uniq.sort_unstable();
        uniq.dedup();
        assert!(uniq.len() >= 2);
    }

    #[test]
    fn predict_latents_matches_predict() {
        let m = tiny_model();
        let tiles = synthetic_texture_sample(AeConfig::tiny(), 10, 4);
        let latents: Vec<Vec<f32>> = tiles.iter().map(|t| m.embed(t)).collect();
        let a = predict_latents(&latents, &m.centroids);
        let b = m.predict_batch(&tiles);
        assert_eq!(a, b);
    }
}
