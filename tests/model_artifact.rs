//! A forged model artifact is refused before it is believed: `load_model`
//! sizes nothing from a header field or a centroid count until the bytes
//! that are left could hold what the field promises. This binary installs
//! the counting allocator, so "refused" is measured, not argued. One test
//! only: the counters are process-wide.

use eoml::obs::resource::{snapshot, CountingAlloc};
use eoml::ricc::aicca::AiccaModel;
use eoml::ricc::autoencoder::AeConfig;
use eoml::ricc::serialize::{load_model, save_model, ModelIoError};
use eoml::ricc::AICCA_CLASSES;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// `load_model(bytes)` must fail as truncated having allocated, in total,
/// no more than a small multiple of the input.
fn refused_cheaply(bytes: &[u8], what: &str) {
    let before = snapshot().allocated_bytes;
    let outcome = load_model(bytes).map(|m| m.num_classes());
    let allocated = snapshot().allocated_bytes - before;
    assert_eq!(outcome, Err(ModelIoError::Truncated), "{what}");
    assert!(
        allocated <= 8 * bytes.len() as u64,
        "{what}: {allocated} bytes allocated for {} bytes of input",
        bytes.len()
    );
}

#[test]
fn forged_sizes_are_refused_before_anything_is_allocated_for_them() {
    let cfg = AeConfig::tiny();
    let honest = save_model(&AiccaModel::pretrained(cfg, 7));
    assert!(load_model(&honest).is_ok());

    // Magic, version, five u32 hyperparameters, lr, lambda: 34 bytes.
    let forge_header = |fields: [u32; 5]| {
        let mut forged = honest[..34].to_vec();
        for (field, v) in forged[6..26].chunks_exact_mut(4).zip(fields) {
            field.copy_from_slice(&v.to_le_bytes());
        }
        forged
    };
    // 65535 × 4096² × 65535 dense weights: 2.9e17 bytes of parameters.
    refused_cheaply(
        &forge_header([6, 0xFFFF, 0xFFFF, 0xFFFF, 0x4000]),
        "terabyte header",
    );
    // c1 × in_ch alone overflows a 64-bit count.
    refused_cheaply(
        &forge_header([u32::MAX, u32::MAX, u32::MAX, u32::MAX, u32::MAX - 3]),
        "overflowing header",
    );

    // An honest encoder followed by a centroid count the file cannot hold.
    let k_at = honest.len() - 4 - AICCA_CLASSES * (4 + 4 * cfg.latent);
    for k in [AICCA_CLASSES as u32 + 1, u32::MAX] {
        let mut forged = honest.clone();
        forged[k_at..k_at + 4].copy_from_slice(&k.to_le_bytes());
        refused_cheaply(&forged, "forged centroid count");
    }
}
