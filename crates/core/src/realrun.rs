//! Real execution of the five-stage pipeline on this machine.
//!
//! Same orchestration as the virtual campaign, but everything is real: a
//! `download_granule` function registered on a real compute endpoint
//! (worker threads, exactly the paper's remotely-executable Globus Compute
//! function) materializes `.eogr` product files — there is no real LAADS,
//! so "download" synthesizes the archive's contents — the preprocessing
//! kernels run on a thread pool, the stage-3 monitor crawls a real
//! directory, stage 4 executes the Globus-Flows-style inference flow with
//! real RICC inference, and stage 5 "ships" by moving files to an outbox
//! directory (facilities being directories here).
//!
//! [`RealPipeline::run_resumable`] journals per-granule stage completions
//! (download → preprocess → monitor/inference → shipment) to a write-ahead
//! journal, so an on-disk run killed at any point reopens the journal and
//! resumes against the same workdir without redoing journaled-complete
//! work — the resumed run's labeled artifacts are byte-identical to an
//! uninterrupted run's.

use crate::run_journal::RunJournal;
use eoml_compute::endpoint::{ComputeEndpoint, TaskResult};
use eoml_compute::registry::FunctionRegistry;
use eoml_executor::local::LocalExecutor;
use eoml_flows::definition::FlowDefinition;
use eoml_flows::runner::FlowRunner;
use eoml_flows::trigger::DirectoryCrawler;
use eoml_journal::{Journal, JournalError, JournalEvent, Storage};
use eoml_modis::files::into_products;
use eoml_modis::granule::GranuleId;
use eoml_modis::product::ProductKind;
use eoml_modis::synth::{SwathDims, SwathSynthesizer};
use eoml_obs::{Obs, TraceContext};
use eoml_preprocess::pipeline::preprocess_granule_files;
use eoml_preprocess::tiles::TileCriteria;
use eoml_preprocess::writer::{patch_labels, read_labels, read_radiance};
use eoml_ricc::aicca::AiccaModel;
use eoml_ricc::autoencoder::AeConfig;
use eoml_transfer::manifest::{content_digest_of, ArtifactEntry, ShipmentManifest};
use serde_json::json;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Journal label guarding real-run journals against cross-driver reuse.
const REAL_RUN_LABEL: &str = "real-run";

/// Why a real pipeline run stopped.
#[derive(Debug)]
pub enum RealRunError {
    /// The write-ahead journal failed (including injected crash points);
    /// reopen the journal over the same storage and run again to resume.
    Journal(JournalError),
    /// A pipeline stage failed (I/O, decode, inference flow, ...).
    Pipeline(String),
}

impl std::fmt::Display for RealRunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RealRunError::Journal(e) => write!(f, "real-run journal error: {e}"),
            RealRunError::Pipeline(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for RealRunError {}

impl From<JournalError> for RealRunError {
    fn from(e: JournalError) -> Self {
        RealRunError::Journal(e)
    }
}

impl From<String> for RealRunError {
    fn from(msg: String) -> Self {
        RealRunError::Pipeline(msg)
    }
}

impl RealRunError {
    /// Whether this is the injected journal kill point (resume by
    /// reopening the journal).
    pub fn is_crash(&self) -> bool {
        matches!(self, RealRunError::Journal(JournalError::Crashed))
    }
}

/// Report of one real pipeline run.
#[derive(Debug, Clone)]
pub struct RealRunReport {
    /// Granules processed.
    pub granules: usize,
    /// Tile files produced by preprocessing.
    pub tile_files: usize,
    /// Total tiles across files.
    pub total_tiles: usize,
    /// Tiles labeled by inference.
    pub labeled_tiles: usize,
    /// Label counts per AICCA class.
    pub label_histogram: Vec<usize>,
    /// Final labeled files in the outbox.
    pub outbox: Vec<PathBuf>,
    /// Wall-clock seconds per stage: synthesize ("download"), preprocess,
    /// monitor+inference, shipment.
    pub stage_secs: [f64; 4],
    /// Shipment manifest over the outbox: *real* content digests of the
    /// shipped bytes (not synthetic), plus the journal digest when run
    /// resumably.
    pub manifest: Option<ShipmentManifest>,
}

impl RealRunReport {
    /// Preprocessing throughput, tiles/s.
    pub fn preprocess_throughput(&self) -> f64 {
        if self.stage_secs[1] <= 0.0 {
            return 0.0;
        }
        self.total_tiles as f64 / self.stage_secs[1]
    }
}

/// The real pipeline: synthesizer + criteria + model + thread pool, rooted
/// at a work directory with `incoming/`, `tiles/` and `outbox/` subdirs.
pub struct RealPipeline {
    workdir: PathBuf,
    seed: u64,
    synth: SwathSynthesizer,
    criteria: TileCriteria,
    model: AiccaModel,
    executor: LocalExecutor,
    obs: Option<Arc<Obs>>,
}

impl RealPipeline {
    /// Build a pipeline. `tile_size` must divide the synthesizer dims and
    /// be a multiple of 4 (autoencoder constraint).
    pub fn new(
        workdir: impl Into<PathBuf>,
        seed: u64,
        dims: SwathDims,
        tile_size: usize,
        workers: usize,
    ) -> std::io::Result<Self> {
        if workers == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "a real pipeline needs at least one worker",
            ));
        }
        let workdir = workdir.into();
        for sub in ["incoming", "tiles", "outbox"] {
            std::fs::create_dir_all(workdir.join(sub))?;
        }
        let cfg = AeConfig {
            in_ch: 6,
            c1: 8,
            c2: 16,
            latent: 24,
            input: tile_size,
            lr: 1e-3,
            lambda: 0.1,
        };
        Ok(Self {
            workdir,
            seed,
            synth: SwathSynthesizer::new(seed, dims),
            criteria: TileCriteria {
                tile_size,
                ..TileCriteria::default()
            },
            model: AiccaModel::pretrained(cfg, seed),
            executor: LocalExecutor::new(workers),
            obs: None,
        })
    }

    /// Attach an observability hub: each stage gets a wall-clock span, the
    /// endpoint/executor/flow-runner instrumentation is enabled, and the
    /// headline counters (granules, tile files, labeled tiles) are mirrored
    /// as metrics.
    pub fn with_obs(mut self, obs: Arc<Obs>) -> Self {
        self.executor = self.executor.with_obs(Arc::clone(&obs));
        self.obs = Some(obs);
        self
    }

    /// Override the tile-selection criteria (thresholds only; the tile
    /// size stays bound to the model input).
    pub fn with_thresholds(mut self, min_ocean: f64, min_cloud: f64) -> Self {
        self.criteria.min_ocean_fraction = min_ocean;
        self.criteria.min_cloud_fraction = min_cloud;
        self
    }

    /// Run the pipeline over `granules`.
    pub fn run(&self, granules: &[GranuleId]) -> Result<RealRunReport, String> {
        self.run_inner(granules, &mut RunJournal::unjournaled())
            .map_err(|e| e.to_string())
    }

    /// Run the pipeline against a write-ahead `journal`, resuming any work
    /// the journal already records as complete against this workdir.
    ///
    /// Each stage journals per-granule completion events *after* the
    /// corresponding artifact is durably on disk: `FileDownloaded` once a
    /// granule's three product files exist, `TileFileWritten` once its
    /// tile NetCDF (or night-granule scan record) is written,
    /// `MonitorTriggered`/`LabelsAppended` around the inference flow, and
    /// `ShipmentFinished` when the outbox is complete. On reopen,
    /// journaled-complete granule stages are skipped (their results are
    /// folded into the report from the journal and the on-disk artifacts),
    /// so a resumed run produces byte-identical labeled artifacts and an
    /// identical report without re-executing finished work.
    ///
    /// Returns [`RealRunError::Journal`]\([`JournalError::Crashed`]\) when
    /// the journal's injected kill point fires (see
    /// [`Journal::crash_after`]); reopening the journal over the same
    /// storage and calling this again resumes from the durable prefix.
    pub fn run_resumable<S: Storage>(
        &self,
        granules: &[GranuleId],
        journal: &mut Journal<S>,
    ) -> Result<RealRunReport, RealRunError> {
        let mut journal = RunJournal::claim(journal, self.seed, REAL_RUN_LABEL)?;
        self.run_inner(granules, &mut journal)
    }

    fn run_inner(
        &self,
        granules: &[GranuleId],
        journal: &mut RunJournal<'_>,
    ) -> Result<RealRunReport, RealRunError> {
        let incoming = self.workdir.join("incoming");
        let tiles_dir = self.workdir.join("tiles");
        let outbox = self.workdir.join("outbox");

        // Stage 1 (substituted download): the paper's remotely executable
        // download function, registered on a real compute endpoint. Each
        // invocation materializes one granule's three product files.
        // Granules whose download is journaled AND whose product files are
        // still on disk are skipped.
        let t0 = Instant::now();
        let stage_span = self.obs.as_ref().map(|o| o.span("download", "synthesize"));
        journal.once(JournalEvent::stage_started("download"))?;
        let granule_paths: Vec<(GranuleId, [PathBuf; 3])> = granules
            .iter()
            .map(|&g| {
                (
                    g,
                    [
                        incoming.join(g.file_name(ProductKind::Mod02)),
                        incoming.join(g.file_name(ProductKind::Mod03)),
                        incoming.join(g.file_name(ProductKind::Mod06)),
                    ],
                )
            })
            .collect();
        let to_download: Vec<&(GranuleId, [PathBuf; 3])> = granule_paths
            .iter()
            .filter(|(g, paths)| {
                let journaled = journal.resume().is_downloaded(&g.to_string());
                !(journaled && paths.iter().all(|p| p.exists()))
            })
            .collect();
        if !to_download.is_empty() {
            let registry = Arc::new(FunctionRegistry::new());
            {
                let synth = self.synth.clone();
                let incoming = incoming.clone();
                registry.register("download_granule", move |args| {
                    let g = granule_from_json(&args).ok_or("bad granule args")?;
                    let swath = synth.synthesize(g);
                    let p02 = incoming.join(g.file_name(ProductKind::Mod02));
                    let p03 = incoming.join(g.file_name(ProductKind::Mod03));
                    let p06 = incoming.join(g.file_name(ProductKind::Mod06));
                    // The swath's planes move into the product containers,
                    // and each container is encoded straight into its file.
                    let mut bytes = 0u64;
                    for (path, product) in [&p02, &p03, &p06].into_iter().zip(into_products(swath))
                    {
                        let mut file = std::fs::File::create(path).map_err(|e| e.to_string())?;
                        product.encode_into(&mut file).map_err(|e| e.to_string())?;
                        bytes += file.metadata().map_err(|e| e.to_string())?.len();
                    }
                    Ok(json!({
                        "mod02": p02.to_string_lossy(),
                        "mod03": p03.to_string_lossy(),
                        "mod06": p06.to_string_lossy(),
                        "bytes": bytes,
                    }))
                });
            }
            let endpoint = ComputeEndpoint::start_observed(
                "laads-downloader",
                registry,
                self.executor.workers(),
                self.obs.clone(),
            );
            let handles: Vec<_> = to_download
                .iter()
                .map(|(g, _)| {
                    let trace = TraceContext::new(g.to_string());
                    endpoint
                        .submit_by_name_traced("download_granule", granule_to_json(g), Some(&trace))
                        .expect("registered function")
                })
                .collect();
            for ((g, _), h) in to_download.iter().zip(handles) {
                match h.wait() {
                    TaskResult::Success(v) => journal.once(JournalEvent::FileDownloaded {
                        file: g.to_string(),
                        bytes: v["bytes"].as_u64().unwrap_or(0),
                    })?,
                    TaskResult::Failed(e) => {
                        return Err(format!("download failed: {e}").into());
                    }
                }
            }
            endpoint.shutdown();
        }
        journal.once(JournalEvent::stage_finished("download"))?;
        if let Some(mut span) = stage_span {
            span.attr("granules", granules.len());
        }
        let synth_secs = t0.elapsed().as_secs_f64();

        // Stage 2: parallel preprocessing. A granule whose tile file (or
        // night-granule scan record) is journaled and whose artifact is
        // accounted for — still in tiles/, already labeled, or shipped —
        // is folded in from the journal without re-running the kernels.
        let t1 = Instant::now();
        let stage_span = self.obs.as_ref().map(|o| o.span("preprocess", "map"));
        journal.once(JournalEvent::stage_started("preprocess"))?;
        let mut total_tiles = 0usize;
        let mut tile_file_names: BTreeSet<String> = BTreeSet::new();
        let mut to_preprocess: Vec<[PathBuf; 3]> = Vec::new();
        let resume = journal.resume();
        for (g, paths) in &granule_paths {
            let tiles_key = format!("tiles-{g}.nc");
            let scan_key = format!("scan-{g}");
            if let Some(&tiles) = resume.tile_files.get(&tiles_key) {
                let artifact_accounted = tiles_dir.join(&tiles_key).exists()
                    || resume.is_labeled(&tiles_key)
                    || outbox.join(&tiles_key).exists();
                if artifact_accounted {
                    total_tiles += tiles as usize;
                    tile_file_names.insert(tiles_key);
                    continue;
                }
                // Artifact lost under a journaled completion (workdir
                // tampering): fall through and regenerate it.
            } else if resume.tile_files.contains_key(&scan_key) {
                continue;
            }
            to_preprocess.push(paths.clone());
        }
        // Attribute the stage's allocations (one granule's planes and tiles
        // per worker) when the counting allocator is installed. Only the
        // tile file's name and the tile count leave a worker: the pixels are
        // freed where they were made, so what the run holds does not grow
        // with the number of granules.
        let mem_scope = self
            .obs
            .as_ref()
            .map(|o| eoml_obs::ResourceGuard::enter(Arc::clone(o), "preprocess", "map"));
        // Each granule's completion is journaled in granule order while the
        // workers run.
        self.executor.run(
            to_preprocess,
            || (),
            |(), [p02, p03, p06]| {
                let out = preprocess_granule_files(&p02, &p03, &p06, &tiles_dir, &self.criteria)
                    .map_err(|e| format!("preprocess failed: {e}"))?;
                let name = out.output.as_deref().map(file_name).transpose()?;
                Ok::<_, RealRunError>((granule_from_mod02_path(&p02), name, out.tiles.len()))
            },
            |_, (granule, name, tiles)| {
                total_tiles += tiles;
                tile_file_names.extend(name.clone());
                let scan = || format!("scan-{}", granule.as_deref().unwrap_or("unknown-granule"));
                let key = name.unwrap_or_else(scan);
                Ok(journal.once(JournalEvent::TileFileWritten {
                    file: key,
                    tiles: tiles as u64,
                })?)
            },
        )?;
        drop(mem_scope);
        journal.once(JournalEvent::stage_finished("preprocess"))?;
        if let Some(mut span) = stage_span {
            span.attr("tiles", total_tiles);
        }
        let preprocess_secs = t1.elapsed().as_secs_f64();

        // Stages 3+4: monitor the tiles directory and run the inference
        // flow per discovered file.
        let t2 = Instant::now();
        let stage_span = self.obs.as_ref().map(|o| o.span("monitor", "crawl"));
        journal.once(JournalEvent::stage_started("inference"))?;
        let mut crawler = DirectoryCrawler::new(&tiles_dir, ".nc");
        let mut labeled_tiles = 0usize;
        let mut histogram = vec![0usize; self.model.num_classes()];

        // Fold journaled-complete inference back into the tallies by
        // reading the shipped artifacts (the labels themselves are not in
        // the journal; the files are the source of truth).
        for (file, (labels, _bytes)) in &journal.resume().labeled {
            tile_file_names.insert(file.clone());
            match std::fs::File::open(outbox.join(file)) {
                Ok(mut shipped) => {
                    labeled_tiles += tally(&mut histogram, shipped_labels(file, &mut shipped)?)
                }
                // Artifact missing (workdir tampering): trust the journal
                // for the count; the class breakdown is unrecoverable.
                Err(_) => labeled_tiles += *labels as usize,
            }
        }

        // Heal the journal/filesystem gap: a file that reached the outbox
        // whose LabelsAppended append crashed is complete on disk but not
        // in the journal — journal it now instead of losing or redoing it.
        if journal.is_journaled() {
            for path in nc_files_sorted(&outbox)? {
                let name = file_name(&path)?;
                if journal.resume().is_labeled(&name) {
                    continue;
                }
                tile_file_names.insert(name.clone());
                let mut shipped = std::fs::File::open(&path).map_err(|e| e.to_string())?;
                let file_labels = shipped_labels(&name, &mut shipped)?;
                let bytes = shipped.metadata().map_err(|e| e.to_string())?.len();
                journal.once(JournalEvent::MonitorTriggered { file: name.clone() })?;
                journal.record(JournalEvent::LabelsAppended {
                    file: name,
                    labels: file_labels.len() as u64,
                    bytes,
                })?;
                labeled_tiles += tally(&mut histogram, file_labels);
            }
        }

        // Drain the crawler (preprocessing already finished, so one crawl
        // sees everything; loop anyway to mirror the monitor structure). A
        // crawl's triggers are journaled before its first flow starts; the
        // flows then run `workers` at a time and each file's completion is
        // journaled here, in crawl order.
        let crawl_span = stage_span.as_ref().map(|span| span.id());
        loop {
            let fresh = crawler.crawl().map_err(|e| e.to_string())?;
            if fresh.is_empty() {
                break;
            }
            let names: Result<Vec<_>, _> = fresh.iter().map(|path| file_name(path)).collect();
            let names = names?;
            for name in &names {
                tile_file_names.insert(name.clone());
                journal.once(JournalEvent::MonitorTriggered { file: name.clone() })?;
            }
            self.executor.run(
                names.iter().collect(),
                // A worker holds one file's radiance, in a buffer it reuses,
                // and nothing else of the file.
                || (FlowDefinition::inference_flow(), Vec::new()),
                |(flow, radiance), name: &String| {
                    self.run_flow(flow, name, radiance, crawl_span)
                        .map_err(|e| format!("inference flow failed for {name}: {e}").into())
                },
                |i, (file_labels, shipped_bytes)| {
                    let file_labels = tally(&mut histogram, file_labels);
                    labeled_tiles += file_labels;
                    Ok::<_, RealRunError>(journal.once(JournalEvent::LabelsAppended {
                        file: names[i].clone(),
                        labels: file_labels as u64,
                        bytes: shipped_bytes,
                    })?)
                },
            )?;
        }
        journal.once(JournalEvent::stage_finished("inference"))?;
        let tile_files = tile_file_names
            .iter()
            .filter(|n| n.ends_with(".nc"))
            .count();
        if let Some(mut span) = stage_span {
            span.attr("tile_files", tile_files);
        }
        let infer_secs = t2.elapsed().as_secs_f64();

        // Stage 5: the outbox *is* the destination facility here; collect
        // the shipped files.
        let t3 = Instant::now();
        let stage_span = self.obs.as_ref().map(|o| o.span("shipment", "collect"));
        journal.once(JournalEvent::stage_started("shipment"))?;
        let shipped = nc_files_sorted(&outbox)?;
        let shipped_bytes: u64 = shipped
            .iter()
            .filter_map(|p| std::fs::metadata(p).ok())
            .map(|m| m.len())
            .sum();
        journal.once(JournalEvent::ShipmentFinished {
            files: shipped.len() as u64,
            bytes: shipped_bytes,
        })?;
        journal.once(JournalEvent::stage_finished("shipment"))?;
        // The manifest hashes the real shipped bytes — what a destination
        // facility would verify against after the WAN hop. The files are
        // hashed on the pool; `map` keeps their order.
        let mut manifest =
            ShipmentManifest::new("ace-defiant", "frontier-orion", t0.elapsed().as_secs_f64());
        let digests = self.executor.map(shipped.clone(), |path| {
            std::fs::File::open(path).and_then(content_digest_of)
        });
        for (path, digest) in shipped.iter().zip(digests) {
            let name = file_name(path)?;
            let (digest, bytes) = digest.map_err(|e| e.to_string())?;
            manifest.artifacts.push(ArtifactEntry {
                name: name.clone(),
                bytes,
                digest,
                trace_id: crate::campaign::granule_trace_id(&name),
            });
        }
        manifest.journal = journal.digest();
        if let Some(mut span) = stage_span {
            span.attr("files", shipped.len());
        }
        let ship_secs = t3.elapsed().as_secs_f64();

        if let Some(obs) = &self.obs {
            obs.counter_add("granules", "download", granules.len() as u64);
            obs.counter_add("tile_files", "preprocess", tile_files as u64);
            obs.counter_add("labeled_tiles", "inference", labeled_tiles as u64);
            obs.counter_add("files_shipped", "shipment", shipped.len() as u64);
        }

        Ok(RealRunReport {
            granules: granules.len(),
            tile_files,
            total_tiles,
            labeled_tiles,
            label_histogram: histogram,
            outbox: shipped,
            stage_secs: [synth_secs, preprocess_secs, infer_secs, ship_secs],
            manifest: Some(manifest),
        })
    }

    /// One whole flow of tile file `name`: infer, write the labels into the
    /// file, move it to the outbox. Returns its labels and the shipped size.
    fn run_flow(
        &self,
        flow: &FlowDefinition,
        name: &str,
        radiance: &mut Vec<f32>,
        crawl_span: Option<u64>,
    ) -> Result<(Vec<i64>, u64), String> {
        use serde_json::Value;
        let (tiles_dir, outbox) = (self.workdir.join("tiles"), self.workdir.join("outbox"));
        fn file_of(params: &Value) -> Result<&str, &'static str> {
            params["file"].as_str().ok_or("missing file param")
        }
        // The infer action reads the one variable it needs and predicts
        // each tile where it lies in the buffer.
        let mut infer = |_: &str, params: &Value, _: &Value| {
            let tile_file = std::fs::File::open(tiles_dir.join(file_of(params)?));
            let mut tile_file = tile_file.map_err(|e| e.to_string())?;
            // A crash between label-append and shipment can leave a file
            // already labeled in the tiles directory; reuse those labels
            // so the rerun is idempotent. A file the crash left partly
            // labeled reads as unlabeled and is predicted again.
            if let Some(labels) = read_labels(&mut tile_file).map_err(|e| e.to_string())? {
                return Ok(json!({ "labels": labels }));
            }
            let tiles = read_radiance(&mut tile_file, radiance).map_err(|e| e.to_string())?;
            let cfg = self.model.encoder.cfg;
            let slab = cfg.in_ch * cfg.input * cfg.input;
            if radiance.len() != tiles * slab {
                return Err(format!("tiles are not the model's {slab}-float input"));
            }
            let tiles = radiance.chunks_exact(slab.max(1));
            let labels: Vec<usize> = tiles.map(|t| self.model.predict_slice(t)).collect();
            Ok(json!({ "labels": labels }))
        };
        // The append action writes the labels into the file in place: the
        // variable was reserved when the file was written, so nothing is
        // decoded, re-encoded or truncated, and rewriting labels a killed
        // run already wrote is harmless.
        let mut append = |_: &str, params: &Value, _: &Value| {
            let labels = params["labels"]["labels"].as_array();
            let labels = labels.ok_or("missing labels")?.iter();
            let labels: Vec<i32> = labels.map(|v| v.as_i64().unwrap_or(-1) as i32).collect();
            std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .open(tiles_dir.join(file_of(params)?))
                .and_then(|mut tile_file| patch_labels(&mut tile_file, &labels))
                .map_err(|e| e.to_string())?;
            Ok(json!({ "appended": labels.len() }))
        };
        let mut move_out = |_: &str, params: &Value, _: &Value| {
            let file = file_of(params)?;
            std::fs::rename(tiles_dir.join(file), outbox.join(file)).map_err(|e| e.to_string())?;
            Ok(json!({ "moved": file }))
        };
        let mut runner = FlowRunner::new();
        runner.obs = self.obs.clone();
        runner.register("inference", &mut infer);
        runner.register("append_labels", &mut append);
        runner.register("move_to_outbox", &mut move_out);

        let trace = crate::campaign::granule_trace_id(name).map(TraceContext::new);
        let obs = self.obs.as_ref().zip(crawl_span);
        let mut span = obs.map(|(o, crawl)| o.span_under(crawl, "inference", "flow"));
        if let (Some(span), Some(trace)) = (span.as_mut(), trace.as_ref()) {
            span.set_trace(trace);
        }
        runner.current_trace = trace;
        let run = runner.run(flow, json!({ "file": name }));
        if let Some(mut span) = span {
            span.attr("file", name);
        }
        if let eoml_flows::runner::RunStatus::Failed(e) = run.status {
            return Err(e);
        }
        let labels = &run.context["labels"]["labels"];
        let labels = labels.as_array().into_iter().flatten();
        let labels = labels.map(|l| l.as_i64().unwrap_or(-1)).collect();
        let shipped_bytes = std::fs::metadata(outbox.join(name)).map_or(0, |m| m.len());
        Ok((labels, shipped_bytes))
    }
}

/// The `.nc` files of `dir`, sorted by path.
fn nc_files_sorted(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| e.to_string())?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().map(|x| x == "nc").unwrap_or(false))
        .collect();
    files.sort();
    Ok(files)
}

fn file_name(path: &Path) -> Result<String, String> {
    let name = path.file_name().and_then(|n| n.to_str());
    Ok(name.ok_or("bad file name")?.to_string())
}

/// The labels of the shipped tile file `name`, read from its label records
/// alone (nothing else of the file is decoded); empty if it is not fully
/// labeled. A file in the layout without reserved label records is refused.
fn shipped_labels(name: &str, shipped: &mut std::fs::File) -> Result<Vec<i64>, String> {
    let labels = read_labels(shipped).map_err(|e| format!("{name}: {e}"))?;
    Ok(labels
        .unwrap_or_default()
        .into_iter()
        .map(i64::from)
        .collect())
}

/// Count the in-range `labels` into `histogram`; returns how many there were.
fn tally(histogram: &mut [usize], labels: impl IntoIterator<Item = i64>) -> usize {
    let mut counted = 0;
    for l in labels {
        if let Some(class) = usize::try_from(l).ok().and_then(|l| histogram.get_mut(l)) {
            *class += 1;
            counted += 1;
        }
    }
    counted
}

fn granule_to_json(g: &GranuleId) -> serde_json::Value {
    json!({
        "platform": g.platform.to_string(),
        "year": g.date.year(),
        "doy": g.date.ordinal(),
        "slot": g.slot,
    })
}

fn granule_from_json(v: &serde_json::Value) -> Option<GranuleId> {
    use eoml_modis::product::Platform;
    use eoml_util::timebase::CivilDate;
    let platform = match v["platform"].as_str()? {
        "Terra" => Platform::Terra,
        "Aqua" => Platform::Aqua,
        _ => return None,
    };
    let date = CivilDate::from_ordinal(v["year"].as_i64()? as i32, v["doy"].as_i64()? as u16)?;
    let slot = v["slot"].as_u64()? as u16;
    if slot >= eoml_modis::granule::SLOTS_PER_DAY {
        return None;
    }
    Some(GranuleId::new(platform, date, slot))
}

/// Granule display id recovered from a MOD02 product path
/// (`MOD021KM.A2022001.0005.eogr` → `MOD.A2022001.0005`), for naming the
/// no-tiles scan record of a night granule.
fn granule_from_mod02_path(p: &Path) -> Option<String> {
    let stem = p.file_stem()?.to_str()?;
    let mut parts = stem.split('.');
    let product = parts.next()?;
    let date = parts.next()?;
    let slot = parts.next()?;
    let prefix = if product.starts_with("MYD") {
        "MYD"
    } else {
        "MOD"
    };
    Some(format!("{prefix}.{date}.{slot}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eoml_journal::MemStorage;
    use eoml_modis::product::Platform;
    use eoml_ncdf::NcFile;
    use eoml_preprocess::writer::read_tiles_nc;
    use eoml_util::timebase::CivilDate;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "eoml-realrun-{tag}-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn day_granules(n: usize) -> Vec<GranuleId> {
        let sy = SwathSynthesizer::new(2022, SwathDims::small());
        let date = CivilDate::new(2022, 1, 1).unwrap();
        (0..288)
            .map(|slot| GranuleId::new(Platform::Terra, date, slot))
            .filter(|&g| sy.synthesize(g).day)
            .take(n)
            .collect()
    }

    #[test]
    fn end_to_end_real_pipeline() {
        let dir = tempdir("e2e");
        let pipeline = RealPipeline::new(&dir, 2022, SwathDims::small(), 32, 2)
            .unwrap()
            .with_thresholds(0.0, 0.0);
        let granules = day_granules(2);
        assert_eq!(granules.len(), 2);
        let report = pipeline.run(&granules).unwrap();
        assert_eq!(report.granules, 2);
        assert_eq!(report.tile_files, 2, "both day granules produce files");
        // 256/32 = 8 → 64 candidate windows per granule, all accepted.
        assert_eq!(report.total_tiles, 2 * 64);
        assert_eq!(report.labeled_tiles, report.total_tiles);
        assert_eq!(report.outbox.len(), 2);
        assert_eq!(
            report.label_histogram.iter().sum::<usize>(),
            report.labeled_tiles
        );
        // Labeled files in the outbox contain the aicca_label variable.
        let nc = NcFile::decode(&std::fs::read(&report.outbox[0]).unwrap()).unwrap();
        assert!(nc.var_by_name("aicca_label").is_some());
        let (tiles, labels) = read_tiles_nc(&nc).unwrap();
        assert_eq!(labels.unwrap().len(), tiles.len());
        // The tiles directory is empty (everything shipped).
        let left = std::fs::read_dir(dir.join("tiles")).unwrap().count();
        assert_eq!(left, 0);
        // The manifest hashes the real outbox bytes, and a faithful
        // destination-side ingest verifies cleanly against it.
        let manifest = report.manifest.as_ref().expect("manifest");
        assert_eq!(manifest.len(), 2);
        assert!(manifest.journal.is_none(), "plain run has no journal");
        for a in &manifest.artifacts {
            let bytes = std::fs::read(dir.join("outbox").join(&a.name)).unwrap();
            assert_eq!(a.bytes, bytes.len() as u64);
            assert_eq!(a.digest, eoml_transfer::manifest::content_digest(&bytes));
            assert!(a.trace_id.is_some(), "{} untraced", a.name);
        }
        let received: Vec<_> = manifest
            .artifacts
            .iter()
            .map(eoml_transfer::ReceivedArtifact::faithful)
            .collect();
        let ingest =
            eoml_transfer::Ingestor::new("frontier-orion").ingest(manifest, &received, 0.0);
        assert!(ingest.ok(), "clean ingest failed: {:?}", ingest.errors);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn strict_criteria_select_fewer_tiles() {
        let dir = tempdir("strict");
        let pipeline = RealPipeline::new(&dir, 2022, SwathDims::small(), 32, 2).unwrap();
        // Default criteria: ocean-only + ≥30 % cloud.
        let granules = day_granules(3);
        let report = pipeline.run(&granules).unwrap();
        assert!(
            report.total_tiles < 3 * 64,
            "criteria must reject some windows"
        );
        assert_eq!(report.labeled_tiles, report.total_tiles);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn labels_spread_across_classes() {
        let dir = tempdir("spread");
        let pipeline = RealPipeline::new(&dir, 2022, SwathDims::small(), 32, 2)
            .unwrap()
            .with_thresholds(0.0, 0.0);
        let report = pipeline.run(&day_granules(3)).unwrap();
        let used = report.label_histogram.iter().filter(|&&c| c > 0).count();
        assert!(used >= 3, "expected ≥3 distinct classes, got {used}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn observed_real_run_records_wall_clock_stage_spans() {
        let dir = tempdir("obs");
        let obs = Obs::shared();
        let pipeline = RealPipeline::new(&dir, 2022, SwathDims::small(), 32, 2)
            .unwrap()
            .with_thresholds(0.0, 0.0)
            .with_obs(Arc::clone(&obs));
        let report = pipeline.run(&day_granules(2)).unwrap();
        let spans = obs.spans();
        for (stage, name) in [
            ("download", "synthesize"),
            ("preprocess", "map"),
            ("monitor", "crawl"),
            ("inference", "flow"),
            ("shipment", "collect"),
        ] {
            let span = spans
                .iter()
                .find(|s| s.stage == stage && s.name == name)
                .unwrap_or_else(|| panic!("no {stage}/{name} span"));
            assert!(span.sim_start.is_none(), "real run spans are wall-clock");
            assert!(span.wall_end_ns >= span.wall_start_ns);
        }
        // Inference flow spans nest under the monitor crawl span.
        let crawl = spans
            .iter()
            .find(|s| s.stage == "monitor" && s.name == "crawl")
            .unwrap();
        let flow = spans
            .iter()
            .find(|s| s.stage == "inference" && s.name == "flow")
            .unwrap();
        assert_eq!(flow.parent, Some(crawl.id));
        // Per-granule traces: the downloads (compute tasks), the inference
        // flow wrapper, and every flow hop carry granule trace ids.
        let traced_compute = spans
            .iter()
            .filter(|s| s.stage == "compute" && s.trace_id.is_some())
            .count();
        assert_eq!(traced_compute, 2, "one traced compute span per granule");
        assert!(flow.trace_id.is_some(), "inference flow span untraced");
        assert!(
            spans
                .iter()
                .filter(|s| s.stage == "flow")
                .all(|s| s.trace_id.is_some()),
            "flow hop missing its granule trace"
        );
        let m = obs.metrics();
        assert_eq!(m.counter_value("granules", "download"), Some(2));
        assert_eq!(
            m.counter_value("labeled_tiles", "inference"),
            Some(report.labeled_tiles as u64)
        );
        // The endpoint, executor, and flow runner instrumentation all fired.
        assert_eq!(m.counter_value("tasks_submitted", "compute"), Some(2));
        assert!(m.counter_value("tasks", "executor").unwrap_or(0) >= 2);
        assert!(m.counter_value("actions", "flow").unwrap_or(0) >= 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn zero_workers_is_an_invalid_input_error() {
        let dir = std::env::temp_dir().join(format!("eoml-realrun-w0-{}", std::process::id()));
        let built = RealPipeline::new(&dir, 2022, SwathDims::small(), 32, 0);
        let refused = built.err().expect("no pipeline without a worker");
        assert_eq!(refused.kind(), std::io::ErrorKind::InvalidInput);
        assert!(!dir.exists(), "a refused pipeline left a workdir behind");
    }

    #[test]
    fn night_only_run_produces_nothing() {
        let dir = tempdir("night");
        let pipeline = RealPipeline::new(&dir, 2022, SwathDims::small(), 32, 1)
            .unwrap()
            .with_thresholds(0.0, 0.0);
        let sy = SwathSynthesizer::new(2022, SwathDims::small());
        let date = CivilDate::new(2022, 1, 1).unwrap();
        let night: Vec<GranuleId> = (0..288)
            .map(|slot| GranuleId::new(Platform::Terra, date, slot))
            .filter(|&g| !sy.synthesize(g).day)
            .take(2)
            .collect();
        let report = pipeline.run(&night).unwrap();
        assert_eq!(report.tile_files, 0);
        assert_eq!(report.labeled_tiles, 0);
        assert!(report.outbox.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resumable_run_without_crash_matches_plain_run_and_is_replay_safe() {
        let dir_a = tempdir("resumable-a");
        let dir_b = tempdir("resumable-b");
        let granules = day_granules(2);

        let plain = RealPipeline::new(&dir_a, 2022, SwathDims::small(), 32, 2)
            .unwrap()
            .with_thresholds(0.0, 0.0)
            .run(&granules)
            .unwrap();

        let pipeline = RealPipeline::new(&dir_b, 2022, SwathDims::small(), 32, 2)
            .unwrap()
            .with_thresholds(0.0, 0.0);
        let store = MemStorage::new();
        let (mut journal, _) = Journal::open(store.clone()).unwrap();
        let journaled = pipeline.run_resumable(&granules, &mut journal).unwrap();
        assert_eq!(journaled.granules, plain.granules);
        assert_eq!(journaled.total_tiles, plain.total_tiles);
        assert_eq!(journaled.labeled_tiles, plain.labeled_tiles);
        assert_eq!(journaled.label_histogram, plain.label_histogram);
        assert_eq!(journaled.outbox.len(), plain.outbox.len());
        let manifest = journaled.manifest.as_ref().expect("manifest");
        assert!(manifest.journal.is_some(), "journaled run records a digest");

        // Replaying the finished journal re-executes nothing and appends
        // no new completion events.
        let events_after = journal.len();
        drop(journal);
        let (mut journal, rep) = Journal::open(store).unwrap();
        assert_eq!(rep.events, events_after);
        let replay = pipeline.run_resumable(&granules, &mut journal).unwrap();
        assert_eq!(replay.total_tiles, plain.total_tiles);
        assert_eq!(replay.labeled_tiles, plain.labeled_tiles);
        assert_eq!(replay.label_histogram, plain.label_histogram);
        let completions = journal
            .events()
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    JournalEvent::FileDownloaded { .. }
                        | JournalEvent::TileFileWritten { .. }
                        | JournalEvent::LabelsAppended { .. }
                )
            })
            .count();
        assert_eq!(completions, 2 + 2 + 2, "replay must not re-journal work");
        std::fs::remove_dir_all(&dir_a).unwrap();
        std::fs::remove_dir_all(&dir_b).unwrap();
    }

    #[test]
    fn resume_refuses_a_tile_file_in_the_former_layout_by_name() {
        // Where a resumed run meets a tile file: waiting in tiles/ (the
        // append action), in outbox/ but not journaled as labeled (the
        // heal), and in outbox/ and journaled (the fold). `kill` stops the
        // first run at its first trigger, the tile file journaled.
        for (kill, place) in [(Some(8), "tiles"), (Some(8), "outbox"), (None, "outbox")] {
            let dir = tempdir("former");
            let pipeline = RealPipeline::new(&dir, 2022, SwathDims::small(), 32, 1)
                .unwrap()
                .with_thresholds(0.0, 0.0);
            let granules = day_granules(1);
            let store = MemStorage::new();
            let (mut journal, _) = Journal::open(store.clone()).unwrap();
            kill.into_iter().for_each(|n| journal.crash_after(n));
            let first = pipeline.run_resumable(&granules, &mut journal);
            assert_eq!(first.is_err(), kill.is_some());
            let name = format!("tiles-{}.nc", granules[0]);
            let written = ["tiles", "outbox"].map(|sub| dir.join(sub).join(&name));
            let written = written.iter().find(|p| p.exists()).expect("tile file");
            // The file as a build without the reserved variable left it.
            let mut nc = NcFile::decode(&std::fs::read(written).unwrap()).unwrap();
            assert_eq!(nc.vars.pop().unwrap().name, "aicca_label");
            std::fs::remove_file(written).unwrap();
            std::fs::write(dir.join(place).join(&name), nc.encode().unwrap()).unwrap();

            let (mut journal, _) = Journal::open(store).unwrap();
            let err = pipeline.run_resumable(&granules, &mut journal).unwrap_err();
            let RealRunError::Pipeline(msg) = &err else {
                panic!("{place}: {err}")
            };
            assert!(msg.contains(&name), "{place}: {msg}");
            assert!(msg.contains("predates the reserved aicca_label"), "{msg}");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn mismatched_seed_or_label_is_rejected() {
        let dir = tempdir("guard");
        let granules = day_granules(1);
        let store = MemStorage::new();
        {
            let pipeline = RealPipeline::new(&dir, 2022, SwathDims::small(), 32, 1)
                .unwrap()
                .with_thresholds(0.0, 0.0);
            let (mut journal, _) = Journal::open(store.clone()).unwrap();
            pipeline.run_resumable(&granules, &mut journal).unwrap();
        }
        // Same journal, different world seed.
        let other = RealPipeline::new(&dir, 2023, SwathDims::small(), 32, 1).unwrap();
        let (mut journal, _) = Journal::open(store).unwrap();
        assert!(other.run_resumable(&granules, &mut journal).is_err());

        // A batch-campaign journal is rejected by label.
        let store = MemStorage::new();
        let (mut j, _) = Journal::open(store.clone()).unwrap();
        j.append(JournalEvent::CampaignStarted {
            seed: 2022,
            label: "batch-campaign".into(),
        })
        .unwrap();
        drop(j);
        let pipeline = RealPipeline::new(&dir, 2022, SwathDims::small(), 32, 1).unwrap();
        let (mut journal, _) = Journal::open(store).unwrap();
        assert!(pipeline.run_resumable(&granules, &mut journal).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
