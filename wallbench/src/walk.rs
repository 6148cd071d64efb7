//! The benchmark-owned pipeline driver of the traced run.
//!
//! It walks the same granules through the layers' public functions in
//! pipeline order, one span per call under a per-stage parent, single
//! threaded. The files it ships must be byte-identical to the ones
//! `RealPipeline` shipped — the proof that the spans measure the same work.

use crate::trace::Tracer;
use crate::workloads::{fresh_dir, Res, Shape, Verdict};
use eoml_modis::files::{to_mod02, to_mod03, to_mod06};
use eoml_modis::granule::GranuleId;
use eoml_modis::product::ProductKind;
use eoml_modis::synth::SwathSynthesizer;
use eoml_ncdf::NcFile;
use eoml_preprocess::pipeline::preprocess_granule_files;
use eoml_preprocess::tiles::TileCriteria;
use eoml_preprocess::writer::{append_labels, read_tiles_nc};
use eoml_ricc::aicca::AiccaModel;
use eoml_ricc::autoencoder::AeConfig;
use eoml_ricc::tensor::Tensor;
use eoml_transfer::manifest::content_digest;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The autoencoder `RealPipeline::new` builds for a `tile`-pixel input.
pub fn ae_config(tile: usize) -> AeConfig {
    AeConfig {
        in_ch: 6,
        c1: 8,
        c2: 16,
        latent: 24,
        input: tile,
        lr: 1e-3,
        lambda: 0.1,
    }
}

/// What the walk measured beyond its spans.
pub struct Walked {
    /// Seconds `AiccaModel::pretrained` took.
    pub pretrained_s: f64,
    /// Encoded `.eogr` bytes per granule, mean.
    pub granule_bytes: f64,
    /// Labelled NetCDF bytes per file, mean.
    pub file_bytes: f64,
    /// Tiles labelled.
    pub tiles: usize,
    /// The shipped files.
    pub outbox: Vec<PathBuf>,
    /// The model the walk labelled with.
    pub model: AiccaModel,
}

fn io<T>(what: &str, path: &Path, r: std::io::Result<T>) -> Res<T> {
    r.map_err(|e| format!("{what} {}: {e}", path.display()))
}

/// Walk `granules` through every layer under `dir`, recording spans.
pub fn walk(
    tracer: &mut Tracer,
    dir: &Path,
    seed: u64,
    shape: Shape,
    granules: &[GranuleId],
) -> Res<Walked> {
    let (incoming, tiles_dir, outbox) =
        (dir.join("incoming"), dir.join("tiles"), dir.join("outbox"));
    for sub in [&incoming, &tiles_dir, &outbox] {
        fresh_dir(sub)?;
    }
    let synth = SwathSynthesizer::new(seed, shape.dims);
    let criteria = TileCriteria {
        tile_size: shape.tile,
        min_ocean_fraction: 0.0,
        min_cloud_fraction: 0.0,
    };
    let t0 = Instant::now();
    let model = AiccaModel::pretrained(ae_config(shape.tile), seed);
    let pretrained_s = t0.elapsed().as_secs_f64();

    let product_paths = |g: &GranuleId| {
        [ProductKind::Mod02, ProductKind::Mod03, ProductKind::Mod06]
            .map(|kind| incoming.join(g.file_name(kind)))
    };

    tracer.enter("stage", "download", "run");
    let mut granule_bytes = 0usize;
    for &g in granules {
        let id = g.to_string();
        let swath = tracer.call("eoml-modis", "synthesize", &id, || synth.synthesize(g));
        let encoded = tracer.call("eoml-modis", "container_encode", &id, || {
            [
                to_mod02(&swath).encode(),
                to_mod03(&swath).encode(),
                to_mod06(&swath).encode(),
            ]
        });
        granule_bytes += encoded.iter().map(Vec::len).sum::<usize>();
        tracer.call("fs", "write_products", &id, || {
            product_paths(&g)
                .iter()
                .zip(&encoded)
                .try_for_each(|(path, bytes)| io("write", path, std::fs::write(path, bytes)))
        })?;
    }
    tracer.exit();

    tracer.enter("stage", "preprocess", "run");
    let mut tile_files = Vec::new();
    for g in granules {
        let [p02, p03, p06] = product_paths(g);
        let outcome = tracer.call("eoml-preprocess", "granule_files", &g.to_string(), || {
            preprocess_granule_files(&p02, &p03, &p06, &tiles_dir, &criteria)
        });
        tile_files.extend(outcome.map_err(|e| e.to_string())?.output);
    }
    tracer.exit();

    // As in the inference flow: the infer action reads and decodes the
    // file, the append action reads and decodes it again, re-encodes the
    // whole file with the labels and rewrites it, the move action renames.
    tracer.enter("stage", "inference", "run");
    tile_files.sort();
    let mut tiles_labeled = 0usize;
    let mut file_bytes = 0usize;
    let mut shipped = Vec::new();
    for path in &tile_files {
        let name = path.file_name().ok_or("tile file without a name")?;
        let id = name.to_string_lossy().into_owned();
        let bytes = tracer.call("fs", "read_tiles", &id, || {
            io("read", path, std::fs::read(path))
        })?;
        let nc = tracer
            .call("eoml-ncdf", "decode", &id, || NcFile::decode(&bytes))
            .map_err(|e| e.to_string())?;
        let (tiles, _) = tracer
            .call("eoml-preprocess", "read_tiles_nc", &id, || {
                read_tiles_nc(&nc)
            })
            .map_err(|e| e.to_string())?;
        let labels: Vec<i32> = tracer.call("eoml-ricc", "predict_batch", &id, || {
            let tensors: Vec<Tensor> = tiles
                .iter()
                .map(|t| Tensor::from_data(t.bands.len(), t.size, t.size, t.data.clone()))
                .collect();
            model
                .predict_batch(&tensors)
                .into_iter()
                .map(|l| l as i32)
                .collect()
        });
        tiles_labeled += labels.len();
        let bytes = tracer.call("fs", "read_tiles", &id, || {
            io("read", path, std::fs::read(path))
        })?;
        let mut nc = tracer
            .call("eoml-ncdf", "decode", &id, || NcFile::decode(&bytes))
            .map_err(|e| e.to_string())?;
        tracer
            .call("eoml-preprocess", "append_labels", &id, || {
                append_labels(&mut nc, &labels)
            })
            .map_err(|e| e.to_string())?;
        let labeled = tracer
            .call("eoml-ncdf", "encode", &id, || nc.encode())
            .map_err(|e| e.to_string())?;
        file_bytes += labeled.len();
        let dest = outbox.join(name);
        tracer.call("fs", "write_labeled", &id, || {
            io("write", path, std::fs::write(path, &labeled))?;
            io("rename", path, std::fs::rename(path, &dest))
        })?;
        shipped.push(dest);
    }
    tracer.exit();

    tracer.enter("stage", "shipment", "run");
    for path in &shipped {
        let id = path
            .file_name()
            .unwrap_or_default()
            .to_string_lossy()
            .into_owned();
        let bytes = tracer.call("fs", "read_shipped", &id, || {
            io("read", path, std::fs::read(path))
        })?;
        tracer.call("eoml-transfer", "content_digest", &id, || {
            std::hint::black_box(content_digest(&bytes))
        });
    }
    tracer.exit();

    Ok(Walked {
        pretrained_s,
        granule_bytes: granule_bytes as f64 / granules.len().max(1) as f64,
        file_bytes: file_bytes as f64 / shipped.len().max(1) as f64,
        tiles: tiles_labeled,
        outbox: shipped,
        model,
    })
}

/// One check per file the pipeline shipped: the walk shipped a file of the
/// same name with the same bytes.
pub fn compare_outboxes(pipeline: &[PathBuf], walked: &[PathBuf]) -> Verdict {
    let mut v = Verdict::default();
    v.check(pipeline.len() == walked.len());
    for path in pipeline {
        let twin = walked.iter().find(|w| w.file_name() == path.file_name());
        let same = twin.is_some_and(|w| match (std::fs::read(path), std::fs::read(w)) {
            (Ok(a), Ok(b)) => a == b,
            _ => false,
        });
        v.check(same);
    }
    v
}
