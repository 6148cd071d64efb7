//! Real execution of the five-stage pipeline on this machine.
//!
//! Same orchestration as the virtual campaign, but everything is real: a
//! `download_granule` function submitted to a real compute endpoint (the
//! paper's remotely-executable Globus Compute function) materializes `.eogr`
//! product files — there is no real LAADS, so "download" synthesizes the
//! archive's contents — the preprocessing kernels cut them into a tile
//! NetCDF, the Globus-Flows-style inference flow labels it with real RICC
//! inference, and stage 5 "ships" by moving files to an outbox directory
//! (facilities being directories here). There is no directory crawl: one
//! worker of the wall-clock pool carries each granule from its download to
//! its shipped file, so the first file is labelled while later granules are
//! still being preprocessed (Fig. 6).
//!
//! [`RealPipeline::run_resumable`] journals each granule's transitions to a
//! write-ahead journal, so an on-disk run killed at any point resumes
//! against the same workdir without redoing journaled or shipped work, to
//! labeled artifacts byte-identical to an uninterrupted run's.

use crate::run_journal::RunJournal;
use eoml_compute::endpoint::{ComputeEndpoint, TaskResult};
use eoml_compute::registry::FunctionRegistry;
use eoml_executor::local::LocalExecutor;
use eoml_flows::definition::FlowDefinition;
use eoml_flows::runner::FlowRunner;
use eoml_journal::{Journal, JournalError, JournalEvent, Storage};
use eoml_modis::files::{into_products, swath_from_containers};
use eoml_modis::granule::GranuleId;
use eoml_modis::product::ProductKind;
use eoml_modis::synth::{Swath, SwathDims, SwathSynthesizer, SynthScratch};
use eoml_obs::{Obs, TraceContext};
use eoml_preprocess::pipeline::{preprocess_granule_with, GranuleBuffers};
use eoml_preprocess::tiles::TileCriteria;
use eoml_preprocess::writer::{for_each_radiance_tile, patch_labels, read_labels};
use eoml_ricc::aicca::AiccaModel;
use eoml_ricc::autoencoder::{AeConfig, EncodeScratch};
use eoml_transfer::manifest::{content_digest_of, ArtifactEntry, ShipmentManifest};
use serde_json::json;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};
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
#[derive(Debug, Clone, Default)]
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
    /// Wall-clock seconds per stage — synthesize ("download"), preprocess,
    /// inference, shipment — each the stage's extent, from the start of its
    /// first transition to the end of its last. A worker carries a granule
    /// through the first three, so their extents overlap.
    pub stage_secs: [f64; 4],
    /// Shipment manifest over the outbox: *real* content digests of the
    /// shipped bytes (not synthetic), plus the journal digest when run
    /// resumably.
    pub manifest: Option<ShipmentManifest>,
}

impl RealRunReport {
    /// Preprocessing throughput, tiles/s over the preprocess extent (which
    /// overlaps the download and inference extents).
    pub fn preprocess_throughput(&self) -> f64 {
        if self.stage_secs[1] <= 0.0 {
            return 0.0;
        }
        self.total_tiles as f64 / self.stage_secs[1]
    }
}

/// Where a granule's remaining work starts on this run, in transition order
/// (see [`RealPipeline::start_of`]).
#[derive(Clone, Copy, PartialEq, PartialOrd)]
enum Start {
    Download,
    Preprocess,
    Flow,
    /// In `outbox/` with some of its events not journaled (a run stopped
    /// before journaling its whole burst): nothing is redone, the missing
    /// events are journaled from the files.
    Shipped,
}

/// What one worker carried one granule through.
#[derive(Default)]
struct Carried {
    /// Its product files' bytes, when this pass downloaded them or found
    /// the granule shipped.
    downloaded: Option<u64>,
    /// Tiles cut, and whether they went into a tile file (a granule with no
    /// tiles leaves a scan record).
    tiles: usize,
    tile_file: bool,
    /// The shipped file's labels and size.
    labels: Vec<i64>,
    shipped_bytes: u64,
    /// `(start, end)` of the download, preprocess and flow this pass ran.
    ran: [Option<(Instant, Instant)>; 3],
}

/// What one worker keeps from granule to granule, and from run to run:
/// every granule-sized byte it touches (the swath it synthesizes and decodes
/// into), the one tile it cuts into and infers from, the synthesizer's
/// lattice-row caches and line buffers, and the encoder's activations.
#[derive(Default)]
struct BufferSet {
    granule: GranuleBuffers,
    synthesis: SynthScratch,
    encoder: EncodeScratch,
}

/// A worker of one pass: the buffer set lent to it for the pass, the
/// download endpoint that synthesizes into that set, and its inference flow.
/// Dropped when the worker exits, it gives the set back to the pipeline.
struct Worker<'p> {
    buffers: Arc<Mutex<BufferSet>>,
    downloader: ComputeEndpoint,
    flow: FlowDefinition,
    pipeline: &'p RealPipeline,
}

impl Drop for Worker<'_> {
    fn drop(&mut self) {
        // A worker that panicked may have left its planes half written.
        if std::thread::panicking() {
            return;
        }
        let set = std::mem::take(&mut *lock(&self.buffers));
        let mut shelf = lock(&self.pipeline.shelf);
        if shelf.len() < self.pipeline.executor.workers() {
            shelf.push(set);
        }
    }
}

/// `mutex`'s value; a panic elsewhere poisons none of what it guards here
/// (a panicking worker's set is not given back).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
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
    /// The buffer sets between passes, at most one per worker: each pass
    /// lends one to each of its workers (DESIGN §24).
    shelf: Mutex<Vec<BufferSet>>,
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
            shelf: Mutex::new(Vec::new()),
        })
    }

    /// Attach an observability hub: each transition and the shipment get a
    /// wall-clock span, the endpoint/executor/flow-runner instrumentation
    /// is enabled, and the headline counters (granules, tile files, labeled
    /// tiles) are mirrored as metrics.
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
    /// A granule's events are journaled *after* the work they record is on
    /// disk, as one burst once the worker carrying it is done:
    /// `FileDownloaded` (its three product files), `TileFileWritten` (its
    /// tile NetCDF, or the scan record of a granule with no tiles), then
    /// `MonitorTriggered` and `LabelsAppended` (its labelled file shipped).
    /// The bursts come in granule order, between the `StageStarted` and
    /// `StageFinished` of download, preprocess and inference; the shipment
    /// follows. On reopen each granule resumes where the journal and the
    /// workdir say it stopped — finished granules are folded into the report
    /// from the journal and their shipped files — so a resumed run produces
    /// byte-identical labeled artifacts and an identical report without
    /// re-executing finished work.
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
        let started = Instant::now();
        let outbox = self.workdir.join("outbox");
        let mut report = RealRunReport {
            granules: granules.len(),
            label_histogram: vec![0; self.model.num_classes()],
            ..RealRunReport::default()
        };
        for stage in ["download", "preprocess", "inference"] {
            journal.once(JournalEvent::stage_started(stage))?;
        }

        // A granule the journal records as finished is folded in: its
        // labels are read back from its shipped file (the journal holds only
        // their count). Every other granule is carried by the pass.
        let mut todo = Vec::new();
        for &g in granules {
            if let Some(start) = self.start_of(g, journal) {
                todo.push((g, start));
                continue;
            }
            let name = format!("tiles-{g}.nc");
            let resume = journal.resume();
            let Some(&(labels, _)) = resume.labeled.get(&name) else {
                continue;
            };
            report.tile_files += 1;
            report.total_tiles += resume.tile_files.get(&name).copied().unwrap_or(0) as usize;
            report.labeled_tiles += match std::fs::File::open(outbox.join(&name)) {
                Ok(mut shipped) => tally(
                    &mut report.label_histogram,
                    shipped_labels(&name, &mut shipped)?,
                ),
                // Artifact missing (workdir tampering): trust the journal
                // for the count; the class breakdown is unrecoverable.
                Err(_) => labels as usize,
            };
        }

        // The pass: each worker takes the next granule and carries it
        // through every transition it still needs; the in-order callback
        // journals each granule's burst and tallies it, so workers never
        // touch the journal.
        let pass = self.obs.as_ref().map(|o| o.span("monitor", "crawl"));
        let pass_id = pass.as_ref().map(|span| span.id());
        let mut extents: [Option<(Instant, Instant)>; 3] = [None; 3];
        self.executor.run(
            todo.clone(),
            || self.worker(),
            |worker, (g, start)| self.carry(g, start, worker, pass_id),
            |i, carried| {
                let g = todo[i].0;
                for (extent, ran) in extents.iter_mut().zip(carried.ran) {
                    let widened = |(s, e)| extent.map_or((s, e), |(a, b)| (a.min(s), b.max(e)));
                    *extent = ran.map(widened).or(*extent);
                }
                if let Some(bytes) = carried.downloaded {
                    let file = g.to_string();
                    journal.once(JournalEvent::FileDownloaded { file, bytes })?;
                }
                let file = if carried.tile_file {
                    format!("tiles-{g}.nc")
                } else {
                    format!("scan-{g}")
                };
                let tiles = carried.tiles as u64;
                journal.once(JournalEvent::TileFileWritten {
                    file: file.clone(),
                    tiles,
                })?;
                report.total_tiles += carried.tiles;
                if carried.tile_file {
                    report.tile_files += 1;
                    let labels = tally(&mut report.label_histogram, carried.labels);
                    report.labeled_tiles += labels;
                    journal.once(JournalEvent::MonitorTriggered { file: file.clone() })?;
                    journal.once(JournalEvent::LabelsAppended {
                        file,
                        labels: labels as u64,
                        bytes: carried.shipped_bytes,
                    })?;
                }
                Ok::<_, RealRunError>(())
            },
        )?;
        if let Some(mut span) = pass {
            span.attr("tile_files", report.tile_files);
        }
        for stage in ["download", "preprocess", "inference"] {
            journal.once(JournalEvent::stage_finished(stage))?;
        }
        let [download, preprocess, inference] =
            extents.map(|extent| extent.map_or(0.0, |(a, b)| (b - a).as_secs_f64()));

        // Stage 5: the outbox *is* the destination facility here; collect
        // the shipped files.
        let shipment = Instant::now();
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
        let mut manifest = ShipmentManifest::new(
            "ace-defiant",
            "frontier-orion",
            started.elapsed().as_secs_f64(),
        );
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
        let shipment = shipment.elapsed().as_secs_f64();

        if let Some(obs) = &self.obs {
            obs.counter_add("granules", "download", granules.len() as u64);
            obs.counter_add("tile_files", "preprocess", report.tile_files as u64);
            obs.counter_add("labeled_tiles", "inference", report.labeled_tiles as u64);
            obs.counter_add("files_shipped", "shipment", shipped.len() as u64);
        }
        report.outbox = shipped;
        report.stage_secs = [download, preprocess, inference, shipment];
        report.manifest = Some(manifest);
        Ok(report)
    }

    /// Where granule `g`'s remaining work starts, from the journal state
    /// this run resumed from and the workdir; `None` when the journal
    /// records it finished, which is decided without touching a file.
    fn start_of(&self, g: GranuleId, journal: &RunJournal<'_>) -> Option<Start> {
        let resume = journal.resume();
        let name = format!("tiles-{g}.nc");
        if resume.is_labeled(&name) || resume.has_tile_file(&format!("scan-{g}")) {
            return None;
        }
        let exists = |sub: &str| self.workdir.join(sub).join(&name).exists();
        Some(if journal.is_journaled() && exists("outbox") {
            Start::Shipped
        } else if !resume.is_downloaded(&g.to_string()) {
            Start::Download
        } else if resume.has_tile_file(&name) && exists("tiles") {
            Start::Flow
        } else if product_files(&self.workdir, g).iter().all(|p| p.exists()) {
            Start::Preprocess
        } else {
            Start::Download
        })
    }

    /// A worker for one pass, lent a buffer set: the one a worker of an
    /// earlier pass gave back, or an empty one that its first granule sizes.
    fn worker(&self) -> Worker<'_> {
        let buffers = Arc::new(Mutex::new(lock(&self.shelf).pop().unwrap_or_default()));
        Worker {
            downloader: self.downloader(Arc::clone(&buffers)),
            buffers,
            flow: FlowDefinition::inference_flow(),
            pipeline: self,
        }
    }

    /// Carry granule `g` from `start` to its shipped file (or its scan
    /// record), on `worker`. Every step works in the worker's buffer set,
    /// which its next granule overwrites: nothing granule-sized is allocated
    /// once the set has held a granule of this shape.
    fn carry(
        &self,
        g: GranuleId,
        start: Start,
        worker: &Worker<'_>,
        pass: Option<u64>,
    ) -> Result<Carried, RealRunError> {
        let trace = TraceContext::new(g.to_string());
        let span = |stage, name| {
            let mut span = self
                .obs
                .as_ref()
                .zip(pass)
                .map(|(o, at)| o.span_under(at, stage, name));
            span.iter_mut().for_each(|span| span.set_trace(&trace));
            span
        };
        let [p02, p03, p06] = product_files(&self.workdir, g);
        let name = format!("tiles-{g}.nc");
        let mut out = Carried {
            tile_file: true,
            ..Carried::default()
        };
        if start == Start::Download {
            let _span = span("download", "synthesize");
            let began = Instant::now();
            let file = json!({ "file": g.file_name(ProductKind::Mod02) });
            let download = &worker.downloader;
            let task = download.submit_by_name_traced("download_granule", file, Some(&trace));
            match task.expect("registered function").wait() {
                TaskResult::Success(v) => out.downloaded = Some(v["bytes"].as_u64().unwrap_or(0)),
                TaskResult::Failed(e) => return Err(format!("download failed: {e}").into()),
            }
            out.ran[0] = Some((began, Instant::now()));
        }
        // Taken after the download, whose task locks the set itself.
        let mut buffers = lock(&worker.buffers);
        if start <= Start::Preprocess {
            let _span = span("preprocess", "map");
            let began = Instant::now();
            let tiles_dir = self.workdir.join("tiles");
            let criteria = &self.criteria;
            let buffers = &mut buffers.granule;
            let done = preprocess_granule_with(&p02, &p03, &p06, &tiles_dir, criteria, buffers)
                .map_err(|e| format!("preprocess failed: {e}"))?;
            // Only the count leaves: the pixels are in the tile file.
            (out.tiles, out.tile_file) = (done.tiles.len(), done.output.is_some());
            out.ran[1] = Some((began, Instant::now()));
        }
        if !out.tile_file {
            return Ok(out);
        }
        if start <= Start::Flow {
            let _span = span("inference", "flow");
            let began = Instant::now();
            (out.labels, out.shipped_bytes) = self
                .run_flow(&worker.flow, &name, &trace, &mut buffers)
                .map_err(|e| format!("inference flow failed for {name}: {e}"))?;
            out.ran[2] = Some((began, Instant::now()));
        } else {
            // Shipped by a run that stopped before journaling all of it:
            // what the journal lacks is read back from the files.
            let shipped = self.workdir.join("outbox").join(&name);
            let mut shipped = std::fs::File::open(shipped).map_err(|e| e.to_string())?;
            out.labels = shipped_labels(&name, &mut shipped)?;
            out.shipped_bytes = shipped.metadata().map_err(|e| e.to_string())?.len();
            let sizes = [p02, p03, p06].map(|p| std::fs::metadata(p).map(|m| m.len()));
            out.downloaded = sizes.into_iter().sum::<Result<u64, _>>().ok();
        }
        out.tiles = out.labels.len(); // one label per tile
        Ok(out)
    }

    /// Stage 1 (substituted download): the paper's remotely executable
    /// download function, registered on a real compute endpoint. Each
    /// invocation is asked for a granule's MOD02 file and materializes the
    /// granule's three product files. The endpoint has no threads of its
    /// own: one is started for each worker of a pass, and a download runs on
    /// that worker, synthesizing into the worker's `buffers` — the same
    /// planes its preprocessing decodes into next (DESIGN §21, §24).
    fn downloader(&self, buffers: Arc<Mutex<BufferSet>>) -> ComputeEndpoint {
        let registry = Arc::new(FunctionRegistry::new());
        let (synth, workdir) = (self.synth.clone(), self.workdir.clone());
        registry.register("download_granule", move |args| {
            let file = args["file"].as_str().and_then(GranuleId::parse_file_name);
            let (g, _) = file.ok_or("bad granule args")?;
            let set = &mut *lock(&buffers);
            let held = &mut set.granule.swath;
            let mut swath = held.take().unwrap_or_else(|| Swath::empty(g));
            synth.synthesize_into(g, &mut swath, &mut set.synthesis);
            // The swath's planes move into the product containers, each
            // container is encoded straight into its file, and the planes
            // move back into the swath.
            let products = into_products(swath);
            let mut bytes = 0u64;
            for (path, product) in product_files(&workdir, g).iter().zip(&products) {
                let mut file = std::fs::File::create(path).map_err(|e| e.to_string())?;
                product.encode_into(&mut file).map_err(|e| e.to_string())?;
                bytes += file.metadata().map_err(|e| e.to_string())?.len();
            }
            let [m02, m03, m06] = products;
            *held = Some(swath_from_containers(m02, m03, m06).map_err(|e| e.to_string())?);
            Ok(json!({ "bytes": bytes }))
        });
        ComputeEndpoint::start_observed("laads-downloader", registry, self.obs.clone())
    }

    /// One whole flow of tile file `name`: infer, write the labels into the
    /// file, move it to the outbox. Returns its labels and the shipped size.
    fn run_flow(
        &self,
        flow: &FlowDefinition,
        name: &str,
        trace: &TraceContext,
        buffers: &mut BufferSet,
    ) -> Result<(Vec<i64>, u64), String> {
        use serde_json::Value;
        let (tiles_dir, outbox) = (self.workdir.join("tiles"), self.workdir.join("outbox"));
        fn file_of(params: &Value) -> Result<&str, &'static str> {
            params["file"].as_str().ok_or("missing file param")
        }
        // The infer action reads the one variable it needs a tile at a time
        // into the worker's tile buffer and predicts it there, the encoder's
        // activations in the worker's scratch.
        let BufferSet {
            granule, encoder, ..
        } = buffers;
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
            let cfg = self.model.encoder.cfg;
            let input = cfg.in_ch * cfg.input * cfg.input;
            let mut labels = Vec::new();
            let predict = |tile: &[f32]| {
                if tile.len() != input {
                    let refused = format!("tiles are not the model's {input}-float input");
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        refused,
                    ));
                }
                labels.push(self.model.predict_slice(tile, encoder));
                Ok(())
            };
            for_each_radiance_tile(&mut tile_file, &mut granule.tile, predict)
                .map_err(|e| e.to_string())?;
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
        runner.current_trace = Some(trace.clone());
        let run = runner.run(flow, json!({ "file": name }));
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

/// Granule `g`'s three product files in `workdir`'s `incoming/`, in the
/// order [`into_products`] makes them.
fn product_files(workdir: &Path, g: GranuleId) -> [PathBuf; 3] {
    ProductKind::all().map(|kind| workdir.join("incoming").join(g.file_name(kind)))
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
    Ok(labels.into_iter().flatten().map(i64::from).collect())
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
    fn inference_overlaps_preprocessing_as_in_fig6() {
        // One worker carries each granule from its download to its shipped
        // file, so the first file is labelled before the last granule is
        // preprocessed.
        let dir = tempdir("overlap");
        let obs = Obs::shared();
        RealPipeline::new(&dir, 2022, SwathDims::small(), 32, 1)
            .unwrap()
            .with_thresholds(0.0, 0.0)
            .with_obs(Arc::clone(&obs))
            .run(&day_granules(3))
            .unwrap();
        let spans = obs.spans();
        let of = |stage: &'static str, name: &'static str| {
            let spans = spans.iter();
            spans.filter(move |s| s.stage == stage && s.name == name)
        };
        let first_flow = of("inference", "flow").min_by_key(|s| s.wall_start_ns);
        let last_preprocess = of("preprocess", "map").max_by_key(|s| s.wall_start_ns);
        let (first_flow, last_preprocess) = (first_flow.unwrap(), last_preprocess.unwrap());
        assert!(
            first_flow.wall_end_ns < last_preprocess.wall_start_ns,
            "the first flow ended after the last preprocess began"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn the_journal_order_is_the_same_for_any_worker_count() {
        let granules = day_granules(4);
        let events: Vec<Vec<JournalEvent>> = (1..=3)
            .map(|workers| {
                let dir = tempdir(&format!("order-{workers}w"));
                let (mut journal, _) = Journal::open(MemStorage::new()).unwrap();
                RealPipeline::new(&dir, 2022, SwathDims::small(), 32, workers)
                    .unwrap()
                    .with_thresholds(0.0, 0.0)
                    .run_resumable(&granules, &mut journal)
                    .unwrap();
                std::fs::remove_dir_all(&dir).unwrap();
                journal.events().to_vec()
            })
            .collect();
        assert_eq!(events[0], events[1], "1 worker vs 2");
        assert_eq!(events[0], events[2], "1 worker vs 3");
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
        let granules = day_granules(1);
        let probe_dir = tempdir("former-probe");
        let (mut probe, _) = Journal::open(MemStorage::new()).unwrap();
        RealPipeline::new(&probe_dir, 2022, SwathDims::small(), 32, 1)
            .unwrap()
            .with_thresholds(0.0, 0.0)
            .run_resumable(&granules, &mut probe)
            .unwrap();
        std::fs::remove_dir_all(&probe_dir).unwrap();
        let trigger = probe
            .events()
            .iter()
            .position(|e| matches!(e, JournalEvent::MonitorTriggered { .. }));
        assert!(trigger.is_some(), "the probe journaled no trigger");
        for (kill, place) in [(trigger, "tiles"), (trigger, "outbox"), (None, "outbox")] {
            let dir = tempdir("former");
            let pipeline = RealPipeline::new(&dir, 2022, SwathDims::small(), 32, 1)
                .unwrap()
                .with_thresholds(0.0, 0.0);
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
