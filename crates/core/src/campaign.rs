//! The virtual-time campaign: all five stages in one simulation.
//!
//! This is the orchestration the paper contributes — previously manual,
//! disconnected steps joined into one automated workflow with dynamic
//! per-stage resource allocation: download workers ramp up and terminate,
//! preprocessing workers take over, inference starts *while preprocessing
//! is still running* (the crawler triggers per finished file), and shipment
//! closes the campaign.

use crate::run_journal::RunJournal;
use crate::telemetry::Telemetry;
use crate::world::{stage_activity, World};
use eoml_cluster::slurm::request_block;
use eoml_config::WorkflowConfig;
use eoml_executor::simexec::open_batch;
use eoml_journal::{Journal, JournalError, JournalEvent, Storage};
use eoml_modis::catalog::Catalog;
use eoml_modis::granule::GranuleId;
use eoml_modis::product::{Platform, ProductKind};
use eoml_obs::{GranuleTrace, Obs, TraceAnalysis, TraceContext};
use eoml_preprocess::pipeline::tile_file_name;
use eoml_simtime::{Pool, SimTime, Simulation, Verdict};
use eoml_transfer::backoff::BackoffPolicy;
use eoml_transfer::faults::FaultPlan;
use eoml_transfer::manifest::{synthetic_digest, ArtifactEntry, JournalDigest, ShipmentManifest};
use eoml_transfer::pool::{DownloadPool, DownloadReport, FileTiming};
use eoml_transfer::service::{submit_transfer, TransferOptions, TransferReport, TransferTaskId};
use eoml_transfer::sync::JournalSync;
use eoml_util::rng::{Rng64, SplitMix64, Xoshiro256};
use eoml_util::timebase::CivilDate;
use eoml_util::units::ByteSize;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

/// Everything a campaign needs to run (derived from the user's YAML
/// [`WorkflowConfig`] or built directly for experiments).
#[derive(Debug, Clone)]
pub struct CampaignParams {
    /// World seed.
    pub seed: u64,
    /// Platform to pull data for.
    pub platform: Platform,
    /// First day.
    pub start: CivilDate,
    /// Number of days.
    pub days: usize,
    /// Granule files per product per day (≤ 288).
    pub files_per_day: usize,
    /// Stage-1 download workers.
    pub download_workers: usize,
    /// Stage-2 nodes.
    pub nodes: usize,
    /// Stage-2 workers per node.
    pub workers_per_node: usize,
    /// Stage-4 inference workers.
    pub inference_workers: usize,
    /// Stage-4 throughput per worker, tiles/s.
    pub inference_rate: f64,
    /// Stage-3 monitor poll period, seconds.
    pub monitor_period_s: f64,
    /// Bytes per tile in the output NetCDF (6 × 128² × 4 B + metadata).
    pub tile_nc_bytes: u64,
    /// Network fault plan.
    pub faults: FaultPlan,
    /// Observability hub; when set, the campaign's telemetry is mirrored
    /// into it (spans, per-stage counters, `active_workers` gauges) so a
    /// run can export Chrome traces and Prometheus dumps.
    pub obs: Option<Arc<Obs>>,
}

impl CampaignParams {
    /// The paper's demonstration setup (§IV): January 1 2022, Terra, with
    /// the Fig. 6 allocation — 3 download workers, 32 preprocess workers
    /// (4 nodes × 8), 1 inference worker.
    pub fn paper_demo() -> Self {
        Self {
            seed: 2022,
            platform: Platform::Terra,
            start: CivilDate::new(2022, 1, 1).expect("valid date"),
            days: 1,
            files_per_day: 16,
            download_workers: 3,
            nodes: 4,
            workers_per_node: 8,
            inference_workers: 1,
            inference_rate: 500.0,
            monitor_period_s: 1.0,
            tile_nc_bytes: 6 * 128 * 128 * 4 + 1024,
            faults: FaultPlan::none(),
            obs: None,
        }
    }

    /// A small fast configuration for tests.
    pub fn small() -> Self {
        Self {
            files_per_day: 4,
            nodes: 2,
            ..Self::paper_demo()
        }
    }

    /// Derive from a validated user config.
    pub fn from_config(cfg: &WorkflowConfig) -> Self {
        let platform = match cfg.platform.as_str() {
            "Aqua" => Platform::Aqua,
            _ => Platform::Terra,
        };
        Self {
            seed: cfg.seed,
            platform,
            start: cfg.time_span.start,
            days: cfg.time_span.days,
            files_per_day: cfg.download.files_per_day.unwrap_or(288),
            download_workers: cfg.download.workers,
            nodes: cfg.preprocess.nodes,
            workers_per_node: cfg.preprocess.workers_per_node,
            inference_workers: cfg.inference.workers,
            inference_rate: 500.0,
            monitor_period_s: 1.0,
            tile_nc_bytes: (6 * cfg.preprocess.tile_size * cfg.preprocess.tile_size * 4 + 1024)
                as u64,
            faults: FaultPlan::none(),
            obs: None,
        }
    }

    /// Attach an observability hub (builder style).
    pub fn with_obs(mut self, obs: Arc<Obs>) -> Self {
        self.obs = Some(obs);
        self
    }
}

/// Per-stage summary.
#[derive(Debug, Clone, PartialEq)]
pub struct StageReport {
    /// Stage name.
    pub name: String,
    /// Stage start.
    pub started: SimTime,
    /// Stage end.
    pub finished: SimTime,
    /// Items processed (files, granules, …).
    pub items: usize,
    /// Bytes moved/produced.
    pub bytes: ByteSize,
}

impl StageReport {
    /// Stage duration, seconds.
    pub fn seconds(&self) -> f64 {
        (self.finished - self.started).as_secs_f64()
    }

    /// Export the stage summary as JSON (same conventions as
    /// [`Telemetry::to_json`]).
    pub fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "name": self.name,
            "started_s": self.started.as_secs_f64(),
            "finished_s": self.finished.as_secs_f64(),
            "seconds": self.seconds(),
            "items": self.items,
            "bytes": self.bytes.as_u64(),
        })
    }
}

/// Full campaign result.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Per-stage summaries in execution order.
    pub stages: Vec<StageReport>,
    /// Per-stage activity timelines; the spans are in the attached hub.
    pub telemetry: Telemetry,
    /// The stage-1 download report.
    pub download: DownloadReport,
    /// The stage-5 transfer report.
    pub shipment: TransferReport,
    /// Granules preprocessed (day + night).
    pub granules: usize,
    /// Tile NetCDF files produced.
    pub tile_files: usize,
    /// Total tiles across all files.
    pub total_tiles: f64,
    /// Files labeled by inference.
    pub labeled_files: usize,
    /// End-to-end makespan, seconds.
    pub makespan_s: f64,
    /// Events the simulator executed: its work, which a linear simulator
    /// does a fixed amount of per granule.
    pub events: u64,
    /// Artifact lineage across all five stages.
    pub provenance: crate::provenance::ProvenanceLog,
    /// The stage-5 shipment manifest the destination facility verifies
    /// against: per-artifact digests, lineage slice, journal digest.
    pub manifest: Option<ShipmentManifest>,
    /// The journal-sync payload shipped alongside the data (journaled
    /// campaigns only): the source's compacted control-journal state plus
    /// its digest, against which the destination runs the typed
    /// completeness check and from which a second site can resume the
    /// whole campaign after the source is lost.
    pub journal_sync: Option<JournalSync>,
}

impl CampaignReport {
    /// Look up a stage by name.
    pub fn stage(&self, name: &str) -> Option<&StageReport> {
        self.stages.iter().find(|s| s.name == name)
    }

    /// Render the per-stage summary plus the headline counters as text.
    pub fn summary_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for stage in &self.stages {
            let _ = writeln!(
                out,
                "{:<12} {:>9.2}s  {:>5} items  {}",
                stage.name,
                stage.seconds(),
                stage.items,
                stage.bytes
            );
        }
        let _ = writeln!(out);
        let _ = writeln!(out, "granules preprocessed : {}", self.granules);
        let _ = writeln!(out, "tile files produced   : {}", self.tile_files);
        let _ = writeln!(out, "tiles total           : {:.0}", self.total_tiles);
        let _ = writeln!(out, "files labeled         : {}", self.labeled_files);
        let _ = writeln!(
            out,
            "downloaded            : {} in {} files",
            self.download.bytes,
            self.download.files.len()
        );
        let _ = writeln!(out, "shipped               : {}", self.shipment.bytes);
        let _ = writeln!(out, "makespan              : {:.1}s", self.makespan_s);
        out
    }

    /// Export the campaign result as JSON for external plotting/telemetry
    /// tooling (same conventions as [`Telemetry::to_json`]).
    pub fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "stages": self.stages.iter().map(StageReport::to_json).collect::<Vec<_>>(),
            "granules": self.granules,
            "tile_files": self.tile_files,
            "total_tiles": self.total_tiles,
            "labeled_files": self.labeled_files,
            "download": {
                "files": self.download.files.len(),
                "failed": self.download.failed.len(),
                "bytes": self.download.bytes.as_u64(),
                "retries": self.download.retries,
            },
            "shipment": {
                "files_ok": self.shipment.files_ok,
                "files_failed": self.shipment.files_failed,
                "bytes": self.shipment.bytes.as_u64(),
                "retries": self.shipment.retries,
            },
            "makespan_s": self.makespan_s,
            "telemetry": self.telemetry.to_json(),
            "manifest": match &self.manifest {
                Some(m) => m.to_json(),
                None => serde_json::Value::Null,
            },
        })
    }
}

/// Expected selected tiles for a granule (0 for night granules, which have
/// no reflective bands for AICCA; a lognormal around ~105 of the 150
/// windows for day granules).
pub fn granule_tiles(seed: u64, granule: GranuleId) -> f64 {
    let phase = (granule.orbit_time_s() / 5_933.0) * std::f64::consts::TAU;
    if phase.sin() <= 0.0 {
        return 0.0;
    }
    let key = SplitMix64::mix(seed ^ SplitMix64::mix(granule.orbit_time_s() as u64) ^ 0x7115);
    let mut rng = Xoshiro256::seed_from(key);
    rng.lognormal_mean_cv(105.0, 0.30).clamp(10.0, 150.0)
}

struct Progress {
    params: CampaignParams,
    stages: Vec<StageReport>,
    download: Option<DownloadReport>,
    shipment: Option<TransferReport>,
    // preprocess
    granules_done: usize,
    /// Selected tiles per completed day granule. Totals are summed in key
    /// order, so an interrupted-and-resumed campaign reproduces the exact
    /// f64 totals of an uninterrupted one regardless of completion order.
    day_tiles: BTreeMap<GranuleId, f64>,
    preprocess_done: bool,
    // inference
    labeled: Vec<(String, ByteSize)>,
    manifest: Option<ShipmentManifest>,
    journal_sync: Option<JournalSync>,
    // control
    shipped: bool,
    journal: RunJournal<'static>,
}

impl Progress {
    fn tile_files(&self) -> usize {
        self.day_tiles.len()
    }

    fn total_tiles(&self) -> f64 {
        self.day_tiles.values().sum()
    }

    /// Everything preprocessing will ever produce is labeled: time to stop
    /// monitoring and ship. Every tile file gets exactly one inference job
    /// (the crawler reports a file once; journal-labeled files are replayed,
    /// not re-inferred), so equal counts also mean no inference job is
    /// queued or running.
    fn all_labeled(&self) -> bool {
        self.preprocess_done && self.labeled.len() == self.tile_files()
    }
}

type P = Rc<RefCell<Progress>>;

/// The stage-4 worker pool: `(tile file, tiles)` jobs.
pub(crate) type InferencePool = Pool<World, (String, f64)>;

/// The durable completion key for a granule's preprocessing: day granules
/// produce a tile file, night granules only a scan record.
pub(crate) fn preprocess_key(granule: GranuleId, tiles: f64) -> String {
    if tiles > 0.0 {
        tile_file_name(granule)
    } else {
        format!("scan-{granule}")
    }
}

/// Run a full five-stage campaign in virtual time.
pub fn run_campaign(params: CampaignParams) -> CampaignReport {
    run_inner(params, RunJournal::unjournaled()).expect("journal-free campaign cannot crash")
}

/// Run a campaign against a write-ahead `journal`, resuming any work the
/// journal already records as complete. Journaled-complete downloads, tile
/// files, labels, and shipments are replayed into the report without being
/// re-executed; per-stage item/byte/tile totals come out identical to an
/// uninterrupted run.
///
/// Returns [`JournalError::Crashed`] when the journal's injected kill point
/// fires mid-campaign (see [`Journal::crash_after`]); reopening the journal
/// over the same storage and calling this again resumes from the durable
/// prefix. Any other refused append comes back as the error it was.
pub fn run_campaign_resumable<S: Storage + 'static>(
    params: CampaignParams,
    journal: Journal<S>,
) -> Result<CampaignReport, JournalError> {
    let journal = RunJournal::claim(journal, params.seed, BATCH_LABEL)?;
    run_inner(params, journal)
}

/// Journal label of batch campaigns ([`Journal::open_seeded`] failover
/// journals carry it too).
const BATCH_LABEL: &str = "batch-campaign";

fn run_inner(
    params: CampaignParams,
    journal: RunJournal<'static>,
) -> Result<CampaignReport, JournalError> {
    assert!(params.files_per_day >= 1 && params.files_per_day <= 288);
    assert!(params.nodes >= 1 && params.workers_per_node >= 1);
    let mut world = World::new(params.seed, params.faults);
    if let Some(obs) = &params.obs {
        world.telemetry.attach_obs(Arc::clone(obs));
    }
    assert!(params.nodes <= world.cluster.spec().nodes);
    let mut sim = Simulation::new(world);

    let progress: P = Rc::new(RefCell::new(Progress {
        params: params.clone(),
        stages: Vec::new(),
        download: None,
        shipment: None,
        granules_done: 0,
        day_tiles: BTreeMap::new(),
        preprocess_done: false,
        labeled: Vec::new(),
        manifest: None,
        journal_sync: None,
        shipped: false,
        journal,
    }));

    stage_download(&mut sim, &progress);
    while progress.borrow().journal.check().is_ok() && sim.step() {}
    progress.borrow().journal.check()?;

    let events = sim.events_executed();
    let world = sim.into_state();
    let p = Rc::try_unwrap(progress)
        .unwrap_or_else(|_| panic!("campaign closures leaked"))
        .into_inner();
    let makespan_s = p
        .stages
        .iter()
        .map(|s| s.finished.as_secs_f64())
        .fold(0.0, f64::max);
    let tile_files = p.tile_files();
    let total_tiles = p.total_tiles();
    Ok(CampaignReport {
        provenance: world.provenance,
        manifest: p.manifest,
        journal_sync: p.journal_sync,
        labeled_files: p.labeled.len(),
        download: p.download.expect("download stage ran"),
        shipment: p.shipment.expect("shipment stage ran"),
        granules: p.granules_done,
        tile_files,
        total_tiles,
        stages: p.stages,
        telemetry: world.telemetry,
        makespan_s,
        events,
    })
}

// --------------------------------------------------------- stage 1: download

/// Re-attempts granted per LAADS file after its first try.
pub(crate) const DOWNLOAD_RETRIES: usize = 3;

fn stage_download(sim: &mut Simulation<World>, progress: &P) {
    let launch = sim.state_mut().launch.sample().total();
    let (t0, tel) = (sim.now(), &mut sim.state_mut().telemetry);
    tel.span("download", "launch", t0, t0 + launch, None);
    let progress = Rc::clone(progress);
    sim.schedule_in(launch, move |sim| {
        let (files, workers) = {
            let p = progress.borrow();
            let cat = Catalog::new(p.params.seed);
            let mut files = Vec::new();
            for day in p.params.start.iter_days(p.params.days) {
                for product in ProductKind::all() {
                    files.extend(
                        cat.day_listing(p.params.platform, product, day)
                            .into_iter()
                            .take(p.params.files_per_day)
                            .map(|e| (e.file_name, e.size)),
                    );
                }
            }
            (files, p.params.download_workers)
        };
        let starting = || JournalEvent::stage_started("download");
        if progress.borrow_mut().journal.once(starting).is_err() {
            return;
        }
        let started = sim.now();
        // Files the journal already records as delivered: replayed into the
        // report (zero virtual transfer time), never re-downloaded.
        let replayed: Vec<FileTiming> = {
            let p = progress.borrow();
            files
                .iter()
                .filter_map(|(name, _)| {
                    let &bytes = p.journal.resume().downloaded.get(name)?;
                    Some(FileTiming {
                        name: name.clone(),
                        size: ByteSize::bytes(bytes),
                        started,
                        finished: started,
                        attempts: 1,
                    })
                })
                .collect()
        };
        if progress.borrow().journal.resume().stage_done("download") {
            let bytes = replayed.iter().map(|f| f.size).sum();
            let report = DownloadReport {
                files: replayed,
                failed: Vec::new(),
                bytes,
                started,
                finished: started,
                activity: vec![(started, 0)],
                retries: 0,
            };
            finish_download(sim, &progress, started, report);
            return;
        }
        let pending: Vec<(String, ByteSize)> = {
            let p = progress.borrow();
            files
                .into_iter()
                .filter(|(name, _)| !p.journal.resume().is_downloaded(name))
                .collect()
        };
        let hook_progress = Rc::clone(&progress);
        let progress2 = Rc::clone(&progress);
        let obs = sim.state_mut().telemetry.obs().cloned();
        DownloadPool::run_full(
            sim,
            "laads",
            "ace-defiant",
            pending,
            workers,
            DOWNLOAD_RETRIES,
            BackoffPolicy::wan_default(),
            obs,
            |file| granule_trace_id(file).map(TraceContext::new),
            move |_sim, timing: &FileTiming| {
                let downloaded = || JournalEvent::FileDownloaded {
                    file: timing.name.clone(),
                    bytes: timing.size.as_u64(),
                };
                // A refusal is kept by the run journal and stops the clock.
                let _ = hook_progress.borrow_mut().journal.record(downloaded);
            },
            move |sim, mut report| {
                let finished = || JournalEvent::stage_finished("download");
                if progress2.borrow_mut().journal.record(finished).is_err() {
                    return;
                }
                // Stage totals cover journal-replayed and fresh files alike.
                let mut all = replayed;
                all.extend(report.files);
                report.files = all;
                report.bytes = report.files.iter().map(|f| f.size).sum();
                finish_download(sim, &progress2, started, report);
            },
        );
    });
}

fn finish_download(
    sim: &mut Simulation<World>,
    progress: &P,
    started: SimTime,
    report: DownloadReport,
) {
    let now = sim.now();
    // Scope the download wrap-up (telemetry merge + provenance records)
    // so its allocations attribute to the download stage.
    let _mem = sim
        .state_mut()
        .telemetry
        .resource_scope("download", "finish");
    {
        let tel = &mut sim.state_mut().telemetry;
        tel.span("download", "transfer", started, now, None);
        tel.merge_activity("download", &report.activity);
    }
    {
        let now_s = now.as_secs_f64();
        let prov = &mut sim.state_mut().provenance;
        for f in &report.files {
            prov.record(
                format_args!("defiant:{}", f.name),
                "download",
                [format_args!("laads:{}", f.name)],
                "download-pool",
                now_s,
                &[("bytes", f.size.as_u64()), ("attempts", f.attempts as u64)],
            );
        }
    }
    {
        let mut p = progress.borrow_mut();
        p.stages.push(StageReport {
            name: "download".into(),
            started: SimTime::ZERO,
            finished: now,
            items: report.files.len(),
            bytes: report.bytes,
        });
        p.download = Some(report);
    }
    stage_preprocess(sim, progress);
}

// ------------------------------------------------------- stage 2: preprocess

fn stage_preprocess(sim: &mut Simulation<World>, progress: &P) {
    let starting = || JournalEvent::stage_started("preprocess");
    if progress.borrow_mut().journal.once(starting).is_err() {
        return;
    }
    // Build the granule work list from the downloaded MOD02 files, skipping
    // granules the journal records as already preprocessed. Completed day
    // granules either re-enter the monitor (labels still pending) or replay
    // straight into the labeled set.
    let (pending, announce) = {
        let mut p = progress.borrow_mut();
        let seed = p.params.seed;
        let report = p.download.as_ref().expect("download done");
        let mut work = Vec::new();
        for f in &report.files {
            if let Some((granule, ProductKind::Mod02)) = GranuleId::parse_file_name(&f.name) {
                let tiles = granule_tiles(seed, granule);
                // Night granules still cost a scan (~12 tile-equivalents)
                // but produce no output file.
                work.push((granule, tiles));
            }
        }
        work.sort_by_key(|&(g, _)| g);
        let mut pending = Vec::new();
        let mut announce = Vec::new();
        for (granule, tiles) in work {
            // Only a journaled run has work to replay, so only it names it.
            let key = p
                .journal
                .is_journaled()
                .then(|| preprocess_key(granule, tiles));
            let Some(key) = key.filter(|key| p.journal.resume().has_tile_file(key)) else {
                pending.push((granule, tiles));
                continue;
            };
            p.granules_done += 1;
            if tiles > 0.0 {
                p.day_tiles.insert(granule, tiles);
                if let Some(&(_, bytes)) = p.journal.resume().labeled.get(&key) {
                    p.labeled.push((key, ByteSize::bytes(bytes)));
                } else {
                    // Tile file durable but labels are not: hand the file
                    // back to the monitor so inference re-runs.
                    announce.push(key);
                }
            }
        }
        (pending, announce)
    };
    for file in announce {
        sim.state_mut().crawler.announce(file);
    }
    let started = sim.now();
    let nodes = progress.borrow().params.nodes;
    let progress2 = Rc::clone(progress);
    request_block(
        sim,
        |w: &mut World| &mut w.slurm,
        nodes,
        move |sim, _block, node_list| {
            let now = sim.now();
            // Parsl interchange/worker start overhead.
            let parsl = Duration::from_secs_f64(sim.state_mut().rng.lognormal_mean_cv(1.6, 0.3));
            let tel = &mut sim.state_mut().telemetry;
            tel.span("preprocess", "slurm_alloc", started, now, None);
            tel.span("preprocess", "parsl_start", now, now + parsl, None);
            sim.schedule_in(parsl, move |sim| {
                let tile_start = sim.now();
                sim.state_mut().telemetry.span(
                    "preprocess",
                    "tile_creation_start",
                    tile_start,
                    tile_start,
                    None,
                );
                // Fill every worker slot; start the monitor alongside.
                let wpn = progress2.borrow().params.workers_per_node;
                let (hook_progress, done_progress) = (Rc::clone(&progress2), Rc::clone(&progress2));
                let batch = open_batch(
                    sim,
                    node_list,
                    wpn,
                    0.0,
                    0,
                    stage_activity("preprocess"),
                    move |sim, &(granule, tiles): &(GranuleId, f64), timing| {
                        granule_preprocessed(sim, &hook_progress, granule, tiles, timing.started)
                    },
                    move |sim, _report| finish_preprocess(sim, &done_progress, started),
                );
                for (granule, tiles) in pending {
                    // Night granules cost a scan floor.
                    batch.push(sim, ((granule, tiles), tiles.max(12.0)));
                }
                let inference = inference_pool(sim, &progress2);
                monitor_poll(sim, &progress2, &inference);
                batch.close(sim);
            });
        },
    )
    .expect("cluster has enough nodes");
}

/// Per-granule completion hook of the preprocessing batch: journal, trace,
/// count, and hand a day granule's tile file to the monitor.
fn granule_preprocessed(
    sim: &mut Simulation<World>,
    progress: &P,
    granule: GranuleId,
    tiles: f64,
    submitted: SimTime,
) {
    // Attribute the completion path's allocations (journal append,
    // provenance, trace bookkeeping) to the preprocess stage.
    let _mem = sim
        .state_mut()
        .telemetry
        .resource_scope("preprocess", "granule");
    // The completion record must be durable before the counters move:
    // a crash between the two re-runs this granule, never loses it.
    let written = || JournalEvent::TileFileWritten {
        file: preprocess_key(granule, tiles),
        tiles: tiles.round() as u64,
    };
    if progress.borrow_mut().journal.record(written).is_err() {
        return;
    }
    let now = sim.now();
    {
        // The granule's own trace interval: submission → completion,
        // so queueing on the node block is visible to trace analysis.
        let tel = &mut sim.state_mut().telemetry;
        let trace = tel.obs().map(|_| TraceContext::new(granule.to_string()));
        tel.span("preprocess", "granule", submitted, now, trace.as_ref());
        tel.count("granules", "preprocess", 1);
    }
    {
        let mut p = progress.borrow_mut();
        p.granules_done += 1;
        if tiles > 0.0 {
            p.day_tiles.insert(granule, tiles);
        }
    }
    if tiles > 0.0 {
        let file = tile_file_name(granule);
        let inputs = ProductKind::all().map(|p| Sited("defiant", granule.file(p)));
        // Rounded as `{tiles:.0}` prints it: half to even.
        let rounded = tiles.round_ties_even() as u64;
        sim.state_mut().provenance.record(
            &file,
            "preprocess",
            inputs,
            "parsl-worker",
            now.as_secs_f64(),
            &[("tiles", rounded)],
        );
        sim.state_mut().crawler.announce(file);
    }
}

/// A file name as a facility's disk knows it, `<site>:<name>`, printed
/// straight into the provenance log.
struct Sited<T>(&'static str, T);

impl<T: std::fmt::Display> std::fmt::Display for Sited<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.0, self.1)
    }
}

/// The preprocessing batch drained: close the stage and ship if inference
/// has already caught up.
fn finish_preprocess(sim: &mut Simulation<World>, progress: &P, started: SimTime) {
    progress.borrow_mut().preprocess_done = true;
    let finished = || JournalEvent::stage_finished("preprocess");
    if progress.borrow_mut().journal.once(finished).is_err() {
        return;
    }
    let now = sim.now();
    let (items, tiles) = {
        let p = progress.borrow();
        (p.granules_done, p.total_tiles())
    };
    sim.state_mut()
        .telemetry
        .span("preprocess", "total", started, now, None);
    let mut p = progress.borrow_mut();
    let bytes = ByteSize::bytes((tiles * p.params.tile_nc_bytes as f64) as u64);
    p.stages.push(StageReport {
        name: "preprocess".into(),
        started,
        finished: now,
        items,
        bytes,
    });
    drop(p);
    maybe_ship(sim, progress);
}

// ------------------------------------------------ stage 3+4: monitor & infer

fn monitor_poll(sim: &mut Simulation<World>, progress: &P, inference: &InferencePool) {
    // Crawl for new tile files and enqueue inference jobs.
    let fresh = sim.state_mut().crawler.crawl();
    let mut jobs = Vec::with_capacity(fresh.len());
    for file in fresh {
        let mut p = progress.borrow_mut();
        if p.journal.resume().is_labeled(&file) {
            // Dedup across restarts: the journal shows inference already
            // completed for this file; its labels were replayed at resume.
            continue;
        }
        let trigger = || JournalEvent::MonitorTriggered { file: file.clone() };
        if p.journal.once(trigger).is_err() {
            return;
        }
        // Stage-3 visibility: each crawl hit is an instantaneous span plus
        // a counter, so the monitor shows up in traces alongside the four
        // throughput stages.
        let now = sim.now();
        let tel = &mut sim.state_mut().telemetry;
        let trace = granule_trace(tel, &file);
        tel.span("monitor", "trigger", now, now, trace.as_ref());
        tel.count("triggers", "monitor", 1);
        let tiles = tile_file_tiles(p.params.seed, &file);
        jobs.push((file, tiles));
    }
    // Every trigger of this crawl is journaled and marked before the
    // first of its flows starts.
    for job in jobs {
        inference.push(sim, job);
    }

    if !progress.borrow().all_labeled() {
        let period = Duration::from_secs_f64(progress.borrow().params.monitor_period_s);
        let (progress2, inference2) = (Rc::clone(progress), inference.clone());
        sim.schedule_in(period, move |sim| {
            monitor_poll(sim, &progress2, &inference2)
        });
    } else {
        maybe_ship(sim, progress);
    }
}

/// The granule trace id behind any campaign artifact name, with or
/// without a site prefix: `laads:`/`defiant:` MODIS file names,
/// `tiles-<granule>.nc` files, and their `labeled:`/`orion:` descendants
/// all map to the display form of the granule they carry (e.g.
/// `MOD.A2022001.0610`) — the id every traced span of that granule is
/// stamped with. Returns `None` for artifacts with no granule identity.
pub fn granule_trace_id(artifact: &str) -> Option<String> {
    let name = artifact
        .split_once(':')
        .map(|(_, rest)| rest)
        .unwrap_or(artifact);
    if let Some(inner) = name
        .strip_prefix("tiles-")
        .and_then(|rest| rest.strip_suffix(".nc"))
    {
        return parse_granule_display(inner).map(|g| g.to_string());
    }
    GranuleId::parse_file_name(name).map(|(g, _)| g.to_string())
}

/// The trace context of `artifact`'s granule, built only when a hub is
/// attached: without one [`Telemetry::span`] records nothing.
pub(crate) fn granule_trace(tel: &Telemetry, artifact: &str) -> Option<TraceContext> {
    tel.obs()?;
    granule_trace_id(artifact).map(TraceContext::new)
}

/// Join provenance lineage with trace analysis: the end-to-end granule
/// trace behind `artifact` (any name [`granule_trace_id`] understands,
/// e.g. an `orion:` record from [`CampaignReport::provenance`]). From the
/// returned trace, `bottleneck()` / `stage_attribution()` answer which
/// upstream stage made a labeled tile slow.
pub fn trace_for_artifact<'a>(
    analysis: &'a TraceAnalysis,
    artifact: &str,
) -> Option<&'a GranuleTrace> {
    analysis.trace(&granule_trace_id(artifact)?)
}

/// Recover a tile file's tile count from the granule in its name.
pub(crate) fn tile_file_tiles(seed: u64, file: &str) -> f64 {
    file.strip_prefix("tiles-")
        .and_then(|rest| rest.strip_suffix(".nc"))
        .and_then(parse_granule_display)
        .map(|g| granule_tiles(seed, g))
        .unwrap_or(100.0)
}

fn parse_granule_display(s: &str) -> Option<GranuleId> {
    // "{MOD|MYD}.A{yyyy}{ddd}.{hhmm}"
    let mut parts = s.split('.');
    let platform = match parts.next()? {
        "MOD" => Platform::Terra,
        "MYD" => Platform::Aqua,
        _ => return None,
    };
    let adate = parts.next()?;
    let year: i32 = adate.get(1..5)?.parse().ok()?;
    let doy: u16 = adate.get(5..8)?.parse().ok()?;
    let date = CivilDate::from_ordinal(year, doy)?;
    let hhmm = parts.next()?;
    let hh: u16 = hhmm.get(..2)?.parse().ok()?;
    let mm: u16 = hhmm.get(2..4)?.parse().ok()?;
    Some(GranuleId::new(platform, date, hh * 12 + mm / 5))
}

/// Open the stage-4 pool: `inference_workers` slots, each job one flow run
/// (crawl-handoff → infer → append → move). The monitor feeds it for as
/// long as the campaign runs, so it is never closed.
fn inference_pool(sim: &mut Simulation<World>, progress: &P) -> InferencePool {
    let workers = progress.borrow().params.inference_workers;
    let progress = Rc::clone(progress);
    Pool::new(
        sim,
        workers,
        move |sim, pool: &InferencePool, slot, (file, tiles): (String, f64), _attempt| {
            // Each hop pays the Globus-Flows action overhead (~50 ms) and
            // carries the file's granule trace so the flow joins its
            // end-to-end timeline.
            let (now, trace) = (sim.now(), granule_trace(&sim.state().telemetry, &file));
            let mut overhead = Duration::ZERO;
            for _ in 0..4 {
                let hop = sim.state_mut().flow_overhead.sample().total();
                let (from, to) = (now + overhead, now + overhead + hop);
                let tel = &mut sim.state_mut().telemetry;
                tel.span("inference", "flow_action", from, to, trace.as_ref());
                overhead += hop;
            }
            let rate = progress.borrow().params.inference_rate;
            let compute = Duration::from_secs_f64(tiles / rate);
            let (from, to) = (now + overhead, now + overhead + compute);
            let tel = &mut sim.state_mut().telemetry;
            tel.span("inference", "compute", from, to, trace.as_ref());
            let (progress, pool) = (Rc::clone(&progress), pool.clone());
            sim.schedule_in(overhead + compute, move |sim| {
                let bytes = (tiles * progress.borrow().params.tile_nc_bytes as f64) as u64;
                let labeled = || JournalEvent::LabelsAppended {
                    file: file.clone(),
                    labels: tiles.round() as u64,
                    bytes,
                };
                if progress.borrow_mut().journal.record(labeled).is_err() {
                    return;
                }
                sim.state_mut()
                    .telemetry
                    .count("files_labeled", "inference", 1);
                progress
                    .borrow_mut()
                    .labeled
                    .push((file.clone(), ByteSize::bytes(bytes)));
                let now_s = sim.now().as_secs_f64();
                sim.state_mut().provenance.record(
                    format_args!("labeled:{file}"),
                    "inference",
                    [&file],
                    "globus-flow",
                    now_s,
                    &[],
                );
                pool.complete(sim, slot, Verdict::Done);
                // The monitor loop handles the stop/ship decision; but if
                // it already stopped polling, check here too.
                maybe_ship(sim, &progress);
            });
        },
        stage_activity("inference"),
        |_, _| {},
    )
}

// --------------------------------------------------------- stage 5: shipment

/// Assemble the shipment's manifest: one [`ArtifactEntry`] per shipped file
/// (synthetic content digest + granule trace id), the upstream lineage
/// slice behind each artifact from the provenance log, and the journal's
/// compaction-invariant state digest when the campaign is journaled.
pub(crate) fn build_shipment_manifest(
    source: &str,
    destination: &str,
    files: &[(String, ByteSize)],
    prov: &crate::provenance::ProvenanceLog,
    journal: Option<JournalDigest>,
    now_s: f64,
) -> ShipmentManifest {
    let mut manifest = ShipmentManifest::new(source, destination, now_s);
    manifest.journal = journal;
    // Artifact order feeds the manifest id; sort by name so an interrupted
    // and resumed campaign (whose completion order differs) still produces
    // the same id — the destination's idempotency key.
    let mut files: Vec<&(String, ByteSize)> = files.iter().collect();
    files.sort_by(|a, b| a.0.cmp(&b.0));
    for (name, bytes) in &files {
        manifest.artifacts.push(ArtifactEntry {
            name: name.clone(),
            bytes: bytes.as_u64(),
            digest: synthetic_digest(name, bytes.as_u64()),
            trace_id: granule_trace_id(name),
        });
    }
    // The lineage slice: each destination-side record plus everything
    // upstream of it, deduplicated — shared ancestors (a granule's three
    // MODIS products, say) appear once. A re-shipped granule has two
    // shipment records: the first per (artifact, activity) wins.
    // The records name their artifacts by id in the log's own name table.
    let shipped = files.iter().map(|(name, _)| Sited("orion", name));
    manifest.lineage = prov.shipment_lineage(shipped);
    manifest
}

fn maybe_ship(sim: &mut Simulation<World>, progress: &P) {
    let (files, replay_shipment) = {
        let mut p = progress.borrow_mut();
        if !p.all_labeled() || p.shipped {
            return;
        }
        p.shipped = true;
        let resume = p.journal.resume();
        let replay = resume.shipped.filter(|_| resume.stage_done("shipment"));
        (p.labeled.clone(), replay)
    };
    let started = sim.now();
    let starting = || JournalEvent::stage_started("shipment");
    if progress.borrow_mut().journal.once(starting).is_err() {
        return;
    }
    // Journal says the shipment already completed before the crash: rebuild
    // the report from the recorded totals instead of re-transferring.
    if let Some((files_ok, bytes)) = replay_shipment {
        let report = TransferReport {
            task: TransferTaskId::from_raw(0),
            files_ok: files_ok as usize,
            files_failed: 0,
            bytes: ByteSize::bytes(bytes),
            retries: 0,
            submitted: started,
            finished: started,
            file_windows: files
                .iter()
                .map(|(n, _)| (n.clone(), started, started))
                .collect(),
        };
        close_shipment(sim, progress, started, report);
        return;
    }
    let progress2 = Rc::clone(progress);
    submit_transfer(
        sim,
        "ace-defiant",
        "frontier-orion",
        files,
        TransferOptions::default(),
        move |sim, report| {
            let shipped = || JournalEvent::ShipmentFinished {
                files: report.files_ok as u64,
                bytes: report.bytes.as_u64(),
            };
            if progress2.borrow_mut().journal.record(shipped).is_err() {
                return;
            }
            let finished = || JournalEvent::stage_finished("shipment");
            if progress2.borrow_mut().journal.record(finished).is_err() {
                return;
            }
            let now = sim.now();
            {
                let tel = &mut sim.state_mut().telemetry;
                tel.span("shipment", "transfer", started, now, None);
                // Per-file traced shipment windows close each granule's
                // end-to-end trace (download → … → shipment).
                for (name, from, to) in &report.file_windows {
                    let trace = granule_trace(tel, name);
                    tel.span("shipment", "file", *from, *to, trace.as_ref());
                }
                tel.count("files_shipped", "shipment", report.files_ok as u64);
                tel.count("bytes_shipped", "shipment", report.bytes.as_u64());
            }
            {
                let now_s = now.as_secs_f64();
                let prov = &mut sim.state_mut().provenance;
                for (name, ..) in &report.file_windows {
                    prov.record(
                        format_args!("orion:{name}"),
                        "shipment",
                        [format_args!("labeled:{name}")],
                        "globus-transfer",
                        now_s,
                        &[],
                    );
                }
            }
            close_shipment(sim, &progress2, started, report);
        },
    );
}

/// Close the shipment stage, live or replayed: manifest over every labeled
/// file, journal-sync payload, stage summary.
fn close_shipment(
    sim: &mut Simulation<World>,
    progress: &P,
    started: SimTime,
    report: TransferReport,
) {
    let now = sim.now();
    let mut p = progress.borrow_mut();
    // The manifest carries the digest of the journal-sync payload shipped
    // with it: the destination's completeness check needs the two to agree.
    let sync = p.journal.sync();
    let manifest = build_shipment_manifest(
        "ace-defiant",
        "frontier-orion",
        &p.labeled,
        &sim.state().provenance,
        sync.as_ref().map(|sync| sync.digest),
        now.as_secs_f64(),
    );
    p.stages.push(StageReport {
        name: "shipment".into(),
        started,
        finished: now,
        items: report.files_ok,
        bytes: report.bytes,
    });
    p.shipment = Some(report);
    p.manifest = Some(manifest);
    p.journal_sync = sync;
}

#[cfg(test)]
mod tests {
    use super::*;
    use eoml_transfer::manifest::Lineage;

    fn small_report() -> CampaignReport {
        run_campaign(CampaignParams::small())
    }

    #[test]
    fn campaign_runs_all_stages() {
        let r = small_report();
        assert!(r.stage("download").is_some());
        assert!(r.stage("preprocess").is_some());
        assert!(r.stage("shipment").is_some());
        // 4 files per day × 3 products.
        assert_eq!(r.download.files.len(), 12);
        assert_eq!(r.granules, 4, "one preprocess task per MOD02 file");
        assert!(r.makespan_s > 0.0);
    }

    #[test]
    fn labeled_files_match_tile_files() {
        let r = small_report();
        assert_eq!(r.labeled_files, r.tile_files);
        assert_eq!(r.shipment.files_ok, r.tile_files);
        if r.tile_files > 0 {
            assert!(r.total_tiles > 0.0);
            assert!(r.shipment.bytes.as_u64() > 0);
        }
    }

    #[test]
    fn campaign_is_deterministic() {
        let a = run_campaign(CampaignParams::small());
        let b = run_campaign(CampaignParams::small());
        assert_eq!(a.makespan_s, b.makespan_s);
        assert_eq!(a.total_tiles, b.total_tiles);
        assert_eq!(a.download.bytes, b.download.bytes);
    }

    #[test]
    fn different_seeds_differ() {
        let a = run_campaign(CampaignParams::small());
        let b = run_campaign(CampaignParams {
            seed: 9999,
            ..CampaignParams::small()
        });
        assert_ne!(a.makespan_s, b.makespan_s);
    }

    #[test]
    fn download_launch_is_about_5_6_seconds() {
        let obs = Obs::shared();
        run_campaign(CampaignParams::small().with_obs(Arc::clone(&obs)));
        let launch = obs.metrics().histogram("launch", "download").unwrap().sum();
        assert!((3.5..9.0).contains(&launch), "launch {launch}");
    }

    #[test]
    fn flow_action_overhead_is_tens_of_milliseconds() {
        let obs = Obs::shared();
        let params = CampaignParams {
            files_per_day: 12,
            ..CampaignParams::small()
        };
        run_campaign(params.with_obs(Arc::clone(&obs)));
        let h = obs.metrics().histogram("flow_action", "inference").unwrap();
        let mean = h.sum() / h.count() as f64;
        assert!((0.02..0.12).contains(&mean), "flow action mean {mean}");
    }

    #[test]
    fn inference_overlaps_preprocessing() {
        // With enough files, the crawler triggers inference while
        // preprocessing is still busy — the paper's Fig. 6 behaviour.
        let r = run_campaign(CampaignParams {
            files_per_day: 24,
            nodes: 1,
            workers_per_node: 4,
            ..CampaignParams::paper_demo()
        });
        assert!(
            r.telemetry.stages_overlap("preprocess", "inference"),
            "inference should start before preprocessing completes"
        );
    }

    #[test]
    fn stage_resources_match_fig6_allocation() {
        let r = run_campaign(CampaignParams {
            files_per_day: 16,
            nodes: 4,
            workers_per_node: 8,
            ..CampaignParams::paper_demo()
        });
        assert_eq!(r.telemetry.peak("download"), 3);
        assert!(r.telemetry.peak("preprocess") <= 32);
        assert!(r.telemetry.peak("preprocess") >= 8);
        assert_eq!(r.telemetry.peak("inference"), 1);
    }

    #[test]
    fn night_granules_produce_no_files() {
        let r = small_report();
        assert!(
            r.tile_files <= r.granules,
            "{} files from {} granules",
            r.tile_files,
            r.granules
        );
        // Over a day, roughly half the granules are night.
        let r24 = run_campaign(CampaignParams {
            files_per_day: 48,
            ..CampaignParams::small()
        });
        assert!(r24.tile_files < r24.granules);
        assert!(r24.tile_files > 0);
    }

    #[test]
    fn granule_tiles_model_is_sane() {
        let date = CivilDate::new(2022, 1, 1).unwrap();
        let mut day = 0;
        let mut night = 0;
        for slot in 0..288 {
            let g = GranuleId::new(Platform::Terra, date, slot);
            let t = granule_tiles(2022, g);
            if t == 0.0 {
                night += 1;
            } else {
                day += 1;
                assert!((10.0..=150.0).contains(&t));
            }
        }
        assert!(day > 100 && night > 100, "day {day} night {night}");
        // Deterministic.
        let g = GranuleId::new(Platform::Terra, date, 100);
        assert_eq!(granule_tiles(1, g), granule_tiles(1, g));
    }

    #[test]
    fn provenance_traces_shipped_files_to_the_archive() {
        // The first few slots of the day are night granules; use enough
        // files that day granules (and thus tile files) appear.
        let r = run_campaign(CampaignParams {
            files_per_day: 24,
            ..CampaignParams::small()
        });
        assert!(r.provenance.is_acyclic());
        assert!(r.tile_files > 0, "need at least one produced file");
        // Pick any shipped artifact and walk its lineage back to LAADS.
        let shipped = r
            .provenance
            .records()
            .find(|rec| rec.activity == "shipment")
            .expect("shipment recorded");
        let lineage = r.provenance.lineage(shipped.artifact);
        assert!(
            lineage.iter().any(|a| a.starts_with("laads:MOD021KM")),
            "lineage should reach the MOD02 archive file: {lineage:?}"
        );
        assert!(
            lineage.iter().any(|a| a.starts_with("laads:MOD06_L2")),
            "lineage should reach the MOD06 archive file: {lineage:?}"
        );
        // download + preprocess + inference + shipment records all exist.
        for activity in ["download", "preprocess", "inference", "shipment"] {
            assert!(
                r.provenance.records().any(|x| x.activity == activity),
                "missing {activity} records"
            );
        }
    }

    #[test]
    fn summary_table_renders() {
        let r = small_report();
        let table = r.summary_table();
        assert!(table.contains("download"));
        assert!(table.contains("shipment"));
        assert!(table.contains("makespan"));
    }

    #[test]
    fn from_config_maps_fields() {
        let cfg = WorkflowConfig::default();
        let p = CampaignParams::from_config(&cfg);
        assert_eq!(p.seed, 2022);
        assert_eq!(p.platform, Platform::Terra);
        assert_eq!(p.download_workers, 3);
        assert_eq!(p.nodes, 1);
        assert_eq!(p.workers_per_node, 8);
        assert_eq!(p.files_per_day, 288);
    }

    #[test]
    fn faults_slow_but_do_not_break_the_campaign() {
        let clean = run_campaign(CampaignParams::small());
        let flaky = run_campaign(CampaignParams {
            faults: FaultPlan::flaky_wan(),
            ..CampaignParams::small()
        });
        assert_eq!(flaky.labeled_files, flaky.tile_files);
        assert_eq!(flaky.download.files.len(), clean.download.files.len());
    }

    #[test]
    fn report_to_json_round_trips_headline_counters() {
        let r = small_report();
        let j = r.to_json();
        assert_eq!(j["granules"], serde_json::json!(r.granules));
        assert_eq!(j["labeled_files"], serde_json::json!(r.labeled_files));
        assert_eq!(j["makespan_s"], serde_json::json!(r.makespan_s));
        assert_eq!(
            j["download"]["bytes"],
            serde_json::json!(r.download.bytes.as_u64())
        );
        assert_eq!(j["stages"].as_array().unwrap().len(), r.stages.len());
        let s0 = &j["stages"][0];
        assert_eq!(s0["name"], serde_json::json!(r.stages[0].name));
        assert_eq!(s0["items"], serde_json::json!(r.stages[0].items));
        assert!(j["telemetry"]["activity"]["download"].as_array().is_some());
    }

    #[test]
    fn shipment_manifest_covers_every_labeled_file() {
        let r = run_campaign(CampaignParams {
            files_per_day: 24,
            ..CampaignParams::small()
        });
        assert!(r.labeled_files > 0, "need labeled files to ship");
        let m = r.manifest.as_ref().expect("campaign produced a manifest");
        assert_eq!(m.source, "ace-defiant");
        assert_eq!(m.destination, "frontier-orion");
        assert_eq!(m.len(), r.labeled_files);
        assert!(m.journal.is_none(), "journal-free run has no digest");
        for a in &m.artifacts {
            assert_eq!(a.digest, synthetic_digest(&a.name, a.bytes));
            assert!(
                a.name.starts_with("tiles-") || a.trace_id.is_some(),
                "{} has no trace id",
                a.name
            );
            // The lineage slice reaches the LAADS archive for this artifact.
            assert!(
                m.lineage
                    .iter()
                    .any(|l| l.artifact == format!("orion:{}", a.name)),
                "no shipment lineage record for {}",
                a.name
            );
        }
        assert!(m
            .lineage
            .iter()
            .any(|l| l.activity == "download" && l.inputs.iter().any(|i| i.starts_with("laads:"))));
        // Shared ancestors appear once.
        let mut keys: Vec<_> = m.lineage.iter().map(|l| (l.artifact, l.activity)).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), m.lineage.len(), "duplicate lineage records");
    }

    /// The manifest's lineage slice as `build_shipment_manifest` built it
    /// before the provenance index: a scan per artifact of each file's chain,
    /// deduplicated on cloned `(artifact, activity)` pairs, its names copied
    /// into a table of its own. The reference.
    fn scanned_lineage_slice(
        files: &[(String, ByteSize)],
        prov: &crate::provenance::ProvenanceLog,
    ) -> Lineage {
        use crate::provenance::scan;
        let mut names: Vec<&String> = files.iter().map(|f| &f.0).collect();
        names.sort();
        let mut seen = std::collections::BTreeSet::new();
        let mut slice = Lineage::default();
        for name in names {
            let shipped = format!("orion:{name}");
            let mut chain = vec![shipped.clone()];
            chain.extend(scan::lineage(prov, &shipped));
            for artifact in &chain {
                for rec in scan::producers(prov, artifact) {
                    if seen.insert((rec.artifact.to_string(), rec.activity.to_string())) {
                        let artifact = slice.intern(rec.artifact);
                        let inputs: Vec<u32> = rec.inputs.iter().map(|i| slice.intern(i)).collect();
                        slice.push(artifact, rec.activity, inputs, rec.agent, rec.at_s);
                    }
                }
            }
        }
        slice
    }

    #[test]
    fn manifest_lineage_equals_the_scanned_slice() {
        for files_per_day in [4, 24] {
            let r = run_campaign(CampaignParams {
                files_per_day,
                ..CampaignParams::small()
            });
            let m = r.manifest.as_ref().expect("campaign produced a manifest");
            let files: Vec<(String, ByteSize)> = m
                .artifacts
                .iter()
                .map(|a| (a.name.clone(), ByteSize::bytes(a.bytes)))
                .collect();
            assert_eq!(m.lineage, scanned_lineage_slice(&files, &r.provenance));
            assert_eq!(m.lineage.len(), 6 * r.tile_files);
        }
    }

    #[test]
    fn reshipped_granule_appears_once_in_the_manifest_lineage() {
        // Two granules sharing nothing; the first is shipped twice (a failed
        // ingest made the source re-ship it) and out of name order.
        let mut prov = crate::provenance::ProvenanceLog::new();
        let mut files = Vec::new();
        for (granule, ships) in [("b", 2), ("a", 1)] {
            let tile_file = format!("tiles-{granule}.nc");
            let products = ["MOD021KM", "MOD03", "MOD06_L2"].map(|p| format!("{p}.{granule}"));
            for product in &products {
                let archive = vec![format!("laads:{product}")];
                prov.record(
                    format!("defiant:{product}"),
                    "download",
                    archive,
                    "pool",
                    1.0,
                    &[],
                );
            }
            let downloaded = products.iter().map(|p| format!("defiant:{p}"));
            prov.record(&tile_file, "preprocess", downloaded, "worker", 2.0, &[]);
            let labeled = format!("labeled:{tile_file}");
            prov.record(&labeled, "inference", [&tile_file], "flow", 3.0, &[]);
            for ship in 0..ships {
                let at_s = 4.0 + ship as f64;
                let shipped = format!("orion:{tile_file}");
                prov.record(shipped, "shipment", [&labeled], "transfer", at_s, &[]);
            }
            files.push((tile_file, ByteSize::bytes(10)));
        }
        let m = build_shipment_manifest("src", "dst", &files, &prov, None, 9.0);
        assert_eq!(m.lineage, scanned_lineage_slice(&files, &prov));
        assert_eq!(
            m.lineage.len(),
            12,
            "six records per granule, re-ship or not"
        );
        assert_eq!(
            m.lineage.iter().next().map(|l| l.artifact),
            Some("orion:tiles-a.nc"),
            "files in name order"
        );
        let reshipped: Vec<f64> = m
            .lineage
            .iter()
            .filter(|l| l.artifact == "orion:tiles-b.nc")
            .map(|l| l.at_s)
            .collect();
        assert_eq!(reshipped, [4.0], "the first shipment record wins");
    }

    #[test]
    fn the_manifest_shares_the_logs_names_and_keeps_its_own_when_the_log_grows() {
        let mut prov = crate::provenance::ProvenanceLog::new();
        prov.record("defiant:a", "download", ["laads:a"], "pool", 1.0, &[]);
        prov.record("a.nc", "preprocess", ["defiant:a"], "worker", 2.0, &[]);
        prov.record("orion:a.nc", "shipment", ["a.nc"], "xfer", 3.0, &[]);
        let files = [("a.nc".to_string(), ByteSize::bytes(10))];
        let m = build_shipment_manifest("src", "dst", &files, &prov, None, 9.0);
        assert!(Arc::ptr_eq(m.lineage.names(), prov.names()), "one table");
        assert_eq!(m.lineage.len(), 3);
        let text = m.to_json().to_string();
        // Known names only: the table is still shared.
        prov.record("orion:a.nc", "shipment", ["a.nc"], "xfer", 4.0, &[]);
        assert!(Arc::ptr_eq(m.lineage.names(), prov.names()));
        // A new name copies the log's table; the manifest keeps the old one.
        prov.record("b.nc", "preprocess", ["defiant:b"], "worker", 5.0, &[]);
        assert!(!Arc::ptr_eq(m.lineage.names(), prov.names()));
        assert_eq!(m.lineage.names().len(), 4);
        assert_eq!(prov.names().len(), 6);
        assert_eq!(m.to_json().to_string(), text);
        let back = ShipmentManifest::from_json(&m.to_json()).unwrap();
        assert_eq!(back, m, "equal by name, whatever the table");
        assert!(!Arc::ptr_eq(back.lineage.names(), m.lineage.names()));
        assert_eq!(back.id(), m.id());
    }

    #[test]
    fn events_and_names_reached_per_granule_are_flat_from_4_to_16_days() {
        // The count twins of CI's wall-clock scaling exponent: a simulator
        // linear in days executes a fixed number of events per granule, and
        // the manifest's lineage walk reaches a fixed number of names per
        // granule. A per-artifact scan of the provenance log (the quadratic
        // simulator) makes the second grow with the campaign.
        let per_granule = [4, 8, 16].map(|days| {
            let r = run_campaign(CampaignParams {
                days,
                files_per_day: 288,
                ..CampaignParams::paper_demo()
            });
            let m = r.manifest.as_ref().expect("campaign produced a manifest");
            let shipped = m.artifacts.iter().map(|a| format!("orion:{}", a.name));
            let reached = r.provenance.upstream_records(shipped, |_| {});
            let granules = r.granules as f64;
            [r.events as f64 / granules, reached as f64 / granules]
        });
        for (k, count) in ["events", "names reached"].iter().enumerate() {
            let series = per_granule.map(|c| c[k]);
            let lo = series.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = series.iter().copied().fold(0.0, f64::max);
            assert!(
                lo > 0.0 && hi <= 1.02 * lo,
                "{count} per granule: {series:?}"
            );
        }
    }

    #[test]
    fn manifest_id_is_stable_across_crash_resume() {
        use eoml_journal::MemStorage;
        let (journal, _) = Journal::open(MemStorage::new()).unwrap();
        let uninterrupted = run_campaign_resumable(CampaignParams::small(), journal).unwrap();
        let m0 = uninterrupted.manifest.as_ref().expect("manifest");
        assert!(m0.journal.is_some(), "journaled run records a digest");

        let store = MemStorage::new();
        let (mut journal, _) = Journal::open(store.clone()).unwrap();
        journal.crash_after(9);
        assert!(run_campaign_resumable(CampaignParams::small(), journal).is_err());
        let (journal, _) = Journal::open(store).unwrap();
        let resumed = run_campaign_resumable(CampaignParams::small(), journal).unwrap();
        let m1 = resumed.manifest.as_ref().expect("manifest");
        // The id — the destination's idempotency key — must not change just
        // because the source crashed and resumed mid-campaign.
        assert_eq!(m0.id(), m1.id());
    }

    #[test]
    fn resumable_without_crash_matches_plain_run() {
        use eoml_journal::MemStorage;
        let plain = run_campaign(CampaignParams::small());
        let (journal, _) = Journal::open(MemStorage::new()).unwrap();
        let resumed = run_campaign_resumable(CampaignParams::small(), journal).unwrap();
        assert_eq!(resumed.granules, plain.granules);
        assert_eq!(resumed.tile_files, plain.tile_files);
        assert_eq!(resumed.total_tiles, plain.total_tiles);
        assert_eq!(resumed.labeled_files, plain.labeled_files);
        assert_eq!(resumed.download.bytes, plain.download.bytes);
        assert_eq!(resumed.shipment.files_ok, plain.shipment.files_ok);
        assert_eq!(resumed.shipment.bytes, plain.shipment.bytes);
    }

    #[test]
    fn crash_mid_campaign_then_resume_matches_uninterrupted() {
        use eoml_journal::MemStorage;
        let baseline = run_campaign(CampaignParams::small());
        let store = MemStorage::new();
        let (mut journal, _) = Journal::open(store.clone()).unwrap();
        journal.crash_after(7);
        let crashed = run_campaign_resumable(CampaignParams::small(), journal);
        assert!(matches!(crashed, Err(JournalError::Crashed)));
        let (journal, recovery) = Journal::open(store).unwrap();
        assert!(recovery.events > 0, "crash left no durable events");
        let resumed = run_campaign_resumable(CampaignParams::small(), journal).unwrap();
        assert_eq!(resumed.granules, baseline.granules);
        assert_eq!(resumed.tile_files, baseline.tile_files);
        assert_eq!(resumed.total_tiles, baseline.total_tiles);
        assert_eq!(resumed.labeled_files, baseline.labeled_files);
        assert_eq!(resumed.download.bytes, baseline.download.bytes);
        assert_eq!(resumed.shipment.bytes, baseline.shipment.bytes);
    }

    #[test]
    fn observed_campaign_covers_all_five_stages() {
        let obs = Obs::shared();
        let params = CampaignParams {
            files_per_day: 24,
            ..CampaignParams::small()
        }
        .with_obs(Arc::clone(&obs));
        let r = run_campaign(params);
        assert!(r.tile_files > 0, "need day granules for monitor/inference");
        let spans = obs.spans();
        for stage in ["download", "preprocess", "monitor", "inference", "shipment"] {
            assert!(
                spans.iter().any(|s| s.stage == stage),
                "no {stage} spans in obs"
            );
        }
        let m = obs.metrics();
        assert_eq!(
            m.counter_value("files", "download"),
            Some(r.download.files.len() as u64)
        );
        assert_eq!(
            m.counter_value("granules", "preprocess"),
            Some(r.granules as u64)
        );
        assert_eq!(
            m.counter_value("triggers", "monitor"),
            Some(r.tile_files as u64)
        );
        assert_eq!(
            m.counter_value("files_labeled", "inference"),
            Some(r.labeled_files as u64)
        );
        assert_eq!(
            m.counter_value("files_shipped", "shipment"),
            Some(r.shipment.files_ok as u64)
        );
        // The exported Chrome trace parses and holds every span.
        let parsed = serde_json::from_str(&obs.chrome_trace_json()).unwrap();
        let events = parsed["traceEvents"].as_array().unwrap();
        assert_eq!(events.len(), spans.len());
    }

    #[test]
    fn observing_a_run_is_passive_and_an_unobserved_report_loses_nothing() {
        use crate::streaming::{run_streaming_campaign, StreamingParams, StreamingReport};
        let id = |m: &Option<ShipmentManifest>| m.as_ref().map(ShipmentManifest::id);
        let streamed = |r: &StreamingReport| {
            let counts = (
                r.granules_downloaded,
                r.granules_preprocessed,
                r.labeled_files,
            );
            let shipped = (
                r.shipped_files,
                r.downloaded,
                r.shipped,
                r.retries,
                r.makespan_s,
            );
            let activity = r.telemetry.activity.clone();
            (r.stages.clone(), counts, shipped, activity, id(&r.manifest))
        };
        for seed in [1, 2022] {
            let base = CampaignParams {
                seed,
                files_per_day: 12,
                ..CampaignParams::small()
            };
            let obs = Obs::shared();
            let plain = run_campaign(base.clone());
            let observed = run_campaign(base.clone().with_obs(Arc::clone(&obs)));
            assert_eq!(plain.to_json(), observed.to_json(), "seed {seed}");
            assert_eq!(plain.telemetry.activity, observed.telemetry.activity);
            assert_eq!(id(&plain.manifest), id(&observed.manifest));
            // Fig. 7 from the hub: each histogram is the in-order sum of its
            // spans' sim durations, to the bit.
            let spans = obs.spans();
            for (stage, name) in [
                ("download", "launch"),
                ("preprocess", "slurm_alloc"),
                ("preprocess", "parsl_start"),
                ("preprocess", "total"),
                ("inference", "flow_action"),
                ("shipment", "transfer"),
            ] {
                let h = obs.metrics().histogram(name, stage).unwrap();
                let matching = spans.iter().filter(|s| s.stage == stage && s.name == name);
                let sum = matching
                    .clone()
                    .fold(0.0, |acc, s| acc + s.sim_seconds().unwrap());
                assert_eq!(h.sum().to_bits(), sum.to_bits(), "{stage}/{name}");
                assert_eq!(h.count(), matching.count() as u64, "{stage}/{name}");
            }

            let streaming = StreamingParams {
                base,
                ..StreamingParams::demo()
            };
            let plain = run_streaming_campaign(streaming.clone());
            let obs = Obs::shared();
            let observed = run_streaming_campaign(StreamingParams {
                base: streaming.base.with_obs(Arc::clone(&obs)),
                ..streaming
            });
            assert!(obs.span_count() > 0);
            assert_eq!(streamed(&plain), streamed(&observed), "seed {seed}");
        }
    }

    #[test]
    fn every_labeled_granule_has_a_five_stage_trace() {
        let obs = Obs::shared();
        let params = CampaignParams {
            files_per_day: 24,
            ..CampaignParams::small()
        }
        .with_obs(Arc::clone(&obs));
        let r = run_campaign(params);
        assert!(r.labeled_files > 0);
        let analysis = TraceAnalysis::from_obs(&obs);
        // Every labeled (day) granule's trace runs download → shipment.
        for rec in r.provenance.records() {
            if !rec.artifact.starts_with("orion:") {
                continue;
            }
            let trace = trace_for_artifact(&analysis, rec.artifact)
                .unwrap_or_else(|| panic!("no trace behind {}", rec.artifact));
            let stages = trace.stages();
            for stage in ["download", "preprocess", "monitor", "inference", "shipment"] {
                assert!(
                    stages.contains(&stage),
                    "{}: trace missing {stage} (has {stages:?})",
                    rec.artifact
                );
            }
            // The slow upstream stage is queryable from the joined trace.
            assert!(trace.bottleneck().is_some());
        }
        // And traces cover 100% of processed day granules.
        let shipped = r
            .provenance
            .records()
            .filter(|rec| rec.artifact.starts_with("orion:"))
            .count();
        assert_eq!(shipped, r.labeled_files);
        assert!(analysis.len() >= shipped);
    }

    #[test]
    fn granule_trace_ids_unify_artifact_naming() {
        let id = "MOD.A2022001.0610";
        for artifact in [
            "laads:MOD021KM.A2022001.0610.061.2022003141500.eogr",
            "defiant:MOD03.A2022001.0610.061.2022003141500.eogr",
            "tiles-MOD.A2022001.0610.nc",
            "labeled:tiles-MOD.A2022001.0610.nc",
            "orion:tiles-MOD.A2022001.0610.nc",
        ] {
            assert_eq!(
                granule_trace_id(artifact).as_deref(),
                Some(id),
                "{artifact}"
            );
        }
        assert_eq!(granule_trace_id("random.txt"), None);
    }

    #[test]
    fn resume_rejects_a_different_seed() {
        use eoml_journal::MemStorage;
        let store = MemStorage::new();
        let (mut journal, _) = Journal::open(store.clone()).unwrap();
        journal.crash_after(3);
        let _ = run_campaign_resumable(CampaignParams::small(), journal);
        let (journal, _) = Journal::open(store).unwrap();
        let other = CampaignParams {
            seed: 77,
            ..CampaignParams::small()
        };
        assert!(run_campaign_resumable(other, journal).is_err());
    }

    #[test]
    fn no_driver_resumes_another_drivers_journal() {
        use crate::realrun::RealPipeline;
        use crate::streaming::{run_streaming_campaign_resumable, StreamingParams};
        use eoml_journal::MemStorage;
        use eoml_modis::synth::SwathDims;

        let params = CampaignParams::small();
        let dir = std::env::temp_dir().join(format!("eoml-claim-{}", std::process::id()));
        let pipeline = RealPipeline::new(&dir, params.seed, SwathDims::small(), 32, 1).unwrap();
        let granules: Vec<GranuleId> = GranuleId::day_granules(params.platform, params.start)
            .take(1)
            .collect();
        // Each driver, handed a same-seed journal begun by `theirs`.
        let resume_as = |driver: &str, store: MemStorage| -> Result<(), JournalError> {
            let (mut journal, _) = Journal::open(store).unwrap();
            match driver {
                "batch-campaign" => run_campaign_resumable(params.clone(), journal).map(drop),
                "streaming-campaign" => {
                    let sp = StreamingParams {
                        base: params.clone(),
                        ..StreamingParams::demo()
                    };
                    match run_streaming_campaign_resumable(sp, journal) {
                        Ok(_) => Ok(()),
                        Err(crate::streaming::StreamingError::Journal(e)) => Err(e),
                        Err(other) => panic!("{other}"),
                    }
                }
                "real-run" => match pipeline.run_resumable(&granules, &mut journal) {
                    Ok(_) => Ok(()),
                    Err(crate::realrun::RealRunError::Journal(e)) => Err(e),
                    Err(other) => panic!("{other}"),
                },
                _ => unreachable!(),
            }
        };
        let labels = ["batch-campaign", "streaming-campaign", "real-run"];
        for theirs in labels {
            for driver in labels.into_iter().filter(|&d| d != theirs) {
                let store = MemStorage::new();
                let (mut journal, _) = Journal::open(store.clone()).unwrap();
                journal
                    .append(JournalEvent::CampaignStarted {
                        seed: params.seed,
                        label: theirs.into(),
                    })
                    .unwrap();
                drop(journal);
                let err = resume_as(driver, store.clone()).unwrap_err();
                assert!(
                    matches!(&err, JournalError::Io(msg) if msg.contains(theirs)),
                    "{driver} on a {theirs} journal: {err}"
                );
                let (journal, _) = Journal::open(store).unwrap();
                assert_eq!(journal.len(), 1, "{driver} appended to a {theirs} journal");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
