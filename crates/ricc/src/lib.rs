//! `eoml-ricc` — Rotationally Invariant Cloud Clustering, in pure Rust.
//!
//! The paper's stage 4 runs a TensorFlow implementation of RICC
//! (Kurihana et al., TGRS 2021): a convolutional autoencoder trained with a
//! rotation-invariant loss, whose latent space is clustered by agglomerative
//! hierarchical clustering into the 42 AICCA cloud classes; inference
//! assigns each ocean-cloud tile to the nearest cluster centroid. TensorFlow
//! is not available here, so this crate implements the whole stack:
//!
//! * [`tensor`] — CHW tensors with the forward *and backward* ops the model
//!   needs (strided conv2d, transposed conv2d, dense, leaky-ReLU),
//!   gradient-checked against finite differences;
//! * [`rotation`] — 90°-rotation ops and the rotation-invariant loss
//!   (restoration error minimized over the four rotations, plus a latent
//!   invariance term);
//! * [`autoencoder`] — the convolutional autoencoder with Adam training;
//! * [`cluster`] — Ward-linkage agglomerative hierarchical clustering
//!   (O(n²) memory, nearest-neighbor-chain merging) and centroid extraction;
//! * [`aicca`] — the end model: encoder + 42 centroids, `fit` from a tile
//!   sample, `predict` for inference, and a deterministic `pretrained`
//!   construction for pipeline runs where training would be beside the
//!   point;
//! * [`metrics`] — the cluster-evaluation protocol (silhouette,
//!   intra/inter separation, adjusted Rand index across seeds, rotation
//!   invariance score).
//!
//! Scale substitution: the paper trains on 1 M tiles across GPU nodes; the
//! tests and examples here train reduced architectures on hundreds of tiles
//! — the algorithms are the same, the scale is not (documented in
//! DESIGN.md).

pub mod aicca;
pub mod autoencoder;
pub mod cluster;
pub mod continual;
pub mod metrics;
pub mod rotation;
pub mod serialize;
pub mod tensor;

pub use aicca::AiccaModel;
pub use autoencoder::{AeConfig, ConvAutoencoder};
pub use cluster::{agglomerate, centroids, Dendrogram};
pub use continual::{ContinualTrainer, WaveReport};
pub use rotation::{rot90, rotation_invariant_loss};
pub use serialize::{load_model, save_model, ModelIoError};
pub use tensor::Tensor;

/// Number of AICCA cloud classes.
pub const AICCA_CLASSES: usize = 42;

/// Worker count of the batch calls that run on the wall-clock pool
/// (`AiccaModel::{pretrained, fit, predict_batch}`,
/// `ConvAutoencoder::{train_batch, eval_loss}`): the machine's available
/// parallelism. Their outcomes come back in item order, so no result
/// depends on it.
fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
