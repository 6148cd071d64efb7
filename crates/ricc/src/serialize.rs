//! Model artifact serialization.
//!
//! Stage 4 of the paper's workflow loads "the trained autoencoder and
//! centroids" produced by the training stage; this module defines that
//! artifact: a small self-describing binary format (magic `RICC`, version,
//! hyperparameters, parameter buffers, centroids) with length validation
//! on load. Everything is little-endian f32/u32.

use crate::aicca::AiccaModel;
use crate::autoencoder::{AeConfig, ConvAutoencoder};
use std::fmt;

/// Artifact magic bytes.
pub const MAGIC: &[u8; 4] = b"RICC";

/// Artifact format version.
pub const VERSION: u16 = 1;

/// Errors from loading a model artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelIoError {
    /// Too short / length field overruns.
    Truncated,
    /// Wrong magic.
    BadMagic,
    /// Unsupported version.
    BadVersion(u16),
    /// A buffer's length disagrees with the hyperparameters.
    Inconsistent(&'static str),
}

impl fmt::Display for ModelIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelIoError::Truncated => write!(f, "model artifact truncated"),
            ModelIoError::BadMagic => write!(f, "not a RICC model artifact"),
            ModelIoError::BadVersion(v) => write!(f, "unsupported artifact version {v}"),
            ModelIoError::Inconsistent(what) => write!(f, "inconsistent artifact: {what}"),
        }
    }
}

impl std::error::Error for ModelIoError {}

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f32s(&mut self, xs: &[f32]) {
        self.u32(xs.len() as u32);
        for x in xs {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ModelIoError> {
        if n > self.buf.len() - self.pos {
            return Err(ModelIoError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    /// Whether `count` items of `item_bytes` each fit in the unread bytes.
    fn holds(&self, count: usize, item_bytes: usize) -> bool {
        count
            .checked_mul(item_bytes)
            .is_some_and(|bytes| bytes <= self.buf.len() - self.pos)
    }
    fn u16(&mut self) -> Result<u16, ModelIoError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }
    fn u32(&mut self) -> Result<u32, ModelIoError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    fn f32s(&mut self) -> Result<Vec<f32>, ModelIoError> {
        let n = self.u32()? as usize;
        let raw = self.take(n.checked_mul(4).ok_or(ModelIoError::Truncated)?)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }
}

/// Serialize a full AICCA model (encoder weights + centroids).
pub fn save_model(model: &AiccaModel) -> Vec<u8> {
    let mut w = Writer { buf: Vec::new() };
    w.buf.extend_from_slice(MAGIC);
    w.u16(VERSION);
    let cfg = model.encoder.cfg;
    for v in [cfg.in_ch, cfg.c1, cfg.c2, cfg.latent, cfg.input] {
        w.u32(v as u32);
    }
    w.buf.extend_from_slice(&cfg.lr.to_le_bytes());
    w.buf.extend_from_slice(&cfg.lambda.to_le_bytes());
    for buf in model.encoder.param_buffers() {
        w.f32s(buf);
    }
    w.u32(model.centroids.len() as u32);
    for c in &model.centroids {
        w.f32s(c);
    }
    w.buf
}

/// Load a model saved by [`save_model`], validating structure.
pub fn load_model(bytes: &[u8]) -> Result<AiccaModel, ModelIoError> {
    let mut r = Reader { buf: bytes, pos: 0 };
    if r.take(4)? != MAGIC {
        return Err(ModelIoError::BadMagic);
    }
    let version = r.u16()?;
    if version != VERSION {
        return Err(ModelIoError::BadVersion(version));
    }
    let in_ch = r.u32()? as usize;
    let c1 = r.u32()? as usize;
    let c2 = r.u32()? as usize;
    let latent = r.u32()? as usize;
    let input = r.u32()? as usize;
    let lr_bytes = r.take(4)?;
    let lr = f32::from_le_bytes(lr_bytes.try_into().expect("4 bytes"));
    let lambda_bytes = r.take(4)?;
    let lambda = f32::from_le_bytes(lambda_bytes.try_into().expect("4 bytes"));
    if input == 0 || !input.is_multiple_of(4) || in_ch == 0 || c1 == 0 || c2 == 0 || latent == 0 {
        return Err(ModelIoError::Inconsistent("hyperparameters"));
    }
    let cfg = AeConfig {
        in_ch,
        c1,
        c2,
        latent,
        input,
        lr,
        lambda,
    };
    // The header is unchecked input: before anything is sized from it, the
    // buffers it promises (a length word and four bytes a value each) must
    // fit in the bytes that are left.
    let sizes = cfg.param_sizes().ok_or(ModelIoError::Truncated)?;
    let params = sizes.iter().try_fold(0usize, |sum, &n| sum.checked_add(n));
    if !params.is_some_and(|n| r.holds(n, 4)) {
        return Err(ModelIoError::Truncated);
    }
    let mut encoder = ConvAutoencoder::new(cfg, 0);
    let mut loaded = Vec::with_capacity(sizes.len());
    for want in sizes {
        let buf = r.f32s()?;
        if buf.len() != want {
            return Err(ModelIoError::Inconsistent("parameter buffer length"));
        }
        loaded.push(buf);
    }
    encoder.set_param_buffers(&loaded);
    let k = r.u32()? as usize;
    if !r.holds(k, 4 + 4 * latent) {
        return Err(ModelIoError::Truncated);
    }
    let mut centroids = Vec::with_capacity(k);
    for _ in 0..k {
        let c = r.f32s()?;
        if c.len() != latent {
            return Err(ModelIoError::Inconsistent("centroid dimension"));
        }
        centroids.push(c);
    }
    if r.pos != bytes.len() {
        return Err(ModelIoError::Inconsistent("trailing bytes"));
    }
    Ok(AiccaModel { encoder, centroids })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aicca::synthetic_texture_sample;

    fn model() -> AiccaModel {
        AiccaModel::pretrained(AeConfig::tiny(), 77)
    }

    #[test]
    fn round_trip_preserves_predictions() {
        let m = model();
        let bytes = save_model(&m);
        let back = load_model(&bytes).unwrap();
        assert_eq!(back.centroids, m.centroids);
        assert_eq!(back.encoder.cfg, m.encoder.cfg);
        let tiles = synthetic_texture_sample(AeConfig::tiny(), 12, 5);
        assert_eq!(back.predict_batch(&tiles), m.predict_batch(&tiles));
        for t in &tiles {
            assert_eq!(back.embed(t), m.embed(t), "latents must match exactly");
        }
    }

    #[test]
    fn rejects_garbage_and_truncation() {
        assert_eq!(load_model(b"JU").unwrap_err(), ModelIoError::Truncated);
        assert_eq!(load_model(b"JUNKMORE").unwrap_err(), ModelIoError::BadMagic);
        let bytes = save_model(&model());
        for cut in [0, 4, 5, 10, 40, bytes.len() - 1] {
            assert!(load_model(&bytes[..cut]).is_err(), "cut {cut}");
        }
        // A 34-byte header alone decides nothing: the five u32 fields at
        // offset 6 may promise terabytes of parameters, or a count that
        // overflows. Refused before a buffer is sized from them
        // (`tests/model_artifact.rs` counts the allocations).
        for fields in [
            [6u32, 0xFFFF, 0xFFFF, 0xFFFF, 0x4000],
            [u32::MAX, u32::MAX, u32::MAX, u32::MAX, u32::MAX - 3],
        ] {
            let mut forged = bytes[..34].to_vec();
            for (field, v) in forged[6..26].chunks_exact_mut(4).zip(fields) {
                field.copy_from_slice(&v.to_le_bytes());
            }
            assert_eq!(load_model(&forged).unwrap_err(), ModelIoError::Truncated);
        }
        // Likewise the centroid count, after an honest set of parameters.
        let latent = AeConfig::tiny().latent;
        let k_at = bytes.len() - 4 - crate::AICCA_CLASSES * (4 + 4 * latent);
        assert_eq!(bytes[k_at..k_at + 4], 42u32.to_le_bytes());
        for k in [43, u32::MAX] {
            let mut forged = bytes.clone();
            forged[k_at..k_at + 4].copy_from_slice(&k.to_le_bytes());
            assert_eq!(load_model(&forged).unwrap_err(), ModelIoError::Truncated);
        }
    }

    #[test]
    fn rejects_bad_version_and_trailing() {
        let mut bytes = save_model(&model());
        bytes[4] = 9;
        assert_eq!(load_model(&bytes).unwrap_err(), ModelIoError::BadVersion(9));
        let mut bytes = save_model(&model());
        bytes.push(0);
        assert_eq!(
            load_model(&bytes).unwrap_err(),
            ModelIoError::Inconsistent("trailing bytes")
        );
    }

    #[test]
    fn rejects_corrupt_hyperparameters() {
        let mut bytes = save_model(&model());
        // input size field (5th u32 after magic+version) → offset 4+2+4*4.
        let off = 4 + 2 + 16;
        bytes[off..off + 4].copy_from_slice(&7u32.to_le_bytes()); // not %4
        assert!(matches!(
            load_model(&bytes).unwrap_err(),
            ModelIoError::Inconsistent(_)
        ));
    }

    #[test]
    fn artifact_is_compact() {
        let m = model();
        let bytes = save_model(&m);
        // Tiny model: parameters + 42 × 8-dim centroids — well under 1 MB.
        assert!(bytes.len() < 1_000_000, "{} bytes", bytes.len());
        assert!(bytes.len() > 1_000);
    }
}
