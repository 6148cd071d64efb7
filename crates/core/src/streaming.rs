//! Streaming campaigns — the paper's §V goal of supporting "inferring with
//! batch as well as streaming data".
//!
//! In batch mode ([`crate::campaign`]) stage 2 waits for every download
//! (the paper's guard against partially read files). In *streaming* mode
//! granules become available at the archive as the satellite acquires
//! them; download workers poll the archive, each granule is preprocessed
//! the moment its three product files have all arrived, inference triggers
//! per finished tile file, and every labeled file ships individually. All
//! five stages run concurrently as a pipeline — downloads of granule *k*
//! overlap inference on granule *k − n*.
//!
//! [`run_streaming_campaign_resumable`] runs the same pipeline against a
//! write-ahead journal: per-product downloads, tile files, monitor triggers
//! and label/ship completions are journaled as they happen, and a restart
//! resumes from the durable prefix without re-executing completed work. In
//! particular, monitor triggers are deduplicated across restarts — a tile
//! file whose label round-trip is journaled never re-enters the inference
//! queue.

use crate::campaign::{
    build_shipment_manifest, granule_tiles, granule_trace_id, preprocess_key, tile_file_tiles,
    CampaignParams, InferencePool, StageReport, DOWNLOAD_RETRIES,
};
use crate::run_journal::RunJournal;
use crate::world::{stage_activity, World};
use eoml_cluster::slurm::request_block;
use eoml_executor::simexec::{open_batch, TaskBatch};
use eoml_journal::{Journal, JournalError, JournalEvent, Storage};
use eoml_modis::catalog::Catalog;
use eoml_modis::granule::GranuleId;
use eoml_modis::product::ProductKind;
use eoml_obs::TraceContext;
use eoml_simtime::{Pool, SimTime, Simulation, Verdict};
use eoml_transfer::backoff::BackoffPolicy;
use eoml_transfer::manifest::ShipmentManifest;
use eoml_transfer::mover::{open_mover, FileJob, FileMover};
use eoml_transfer::pool::FileTiming;
use eoml_transfer::service::TransferOptions;
use eoml_util::units::ByteSize;
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

/// Why a streaming campaign could not run (or finish).
///
/// Separating pilot-error (`UnsupportedDays`) from journal failures lets
/// multi-day callers recover — pick a supported window and retry — instead
/// of panicking, which is the first step toward the ROADMAP multi-day
/// scheduler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamingError {
    /// The streaming scheduler currently covers exactly one acquisition
    /// day; the caller asked for `days`.
    UnsupportedDays {
        /// The requested day count.
        days: usize,
    },
    /// The write-ahead journal failed (including injected crash points).
    Journal(JournalError),
}

impl std::fmt::Display for StreamingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamingError::UnsupportedDays { days } => write!(
                f,
                "streaming campaigns cover exactly one acquisition day (requested {days}); \
                 use scheduler::run_streaming_days_resumable to span a multi-day window"
            ),
            StreamingError::Journal(e) => write!(f, "streaming journal error: {e}"),
        }
    }
}

impl std::error::Error for StreamingError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamingError::Journal(e) => Some(e),
            StreamingError::UnsupportedDays { .. } => None,
        }
    }
}

impl From<JournalError> for StreamingError {
    fn from(e: JournalError) -> StreamingError {
        StreamingError::Journal(e)
    }
}

/// Streaming-specific knobs on top of [`CampaignParams`].
#[derive(Debug, Clone)]
pub struct StreamingParams {
    /// The shared campaign parameters (resources, platform, dates…).
    pub base: CampaignParams,
    /// Virtual seconds between archive polls.
    pub poll_period_s: f64,
    /// Delay from acquisition to archive availability (LAADS production
    /// latency), virtual seconds.
    pub availability_lag_s: f64,
    /// Acquisition-timeline compression: a 5-minute granule slot becomes
    /// `300 / compression` virtual seconds. 1.0 = real time.
    pub compression: f64,
}

impl StreamingParams {
    /// Demo defaults: 20× compressed day, 60 s production lag, 10 s polls.
    pub fn demo() -> Self {
        Self {
            base: CampaignParams::paper_demo(),
            poll_period_s: 10.0,
            availability_lag_s: 60.0,
            compression: 20.0,
        }
    }

    fn available_at(&self, granule: GranuleId) -> SimTime {
        let acq = granule.slot as f64 * 300.0 / self.compression;
        SimTime::from_secs_f64(acq + self.availability_lag_s)
    }
}

/// Result of a streaming campaign.
#[derive(Debug, Clone)]
pub struct StreamingReport {
    /// Granules fully downloaded (all three products).
    pub granules_downloaded: usize,
    /// Granules preprocessed.
    pub granules_preprocessed: usize,
    /// Tile files produced and labeled.
    pub labeled_files: usize,
    /// Files shipped.
    pub shipped_files: usize,
    /// Bytes downloaded.
    pub downloaded: ByteSize,
    /// Bytes shipped.
    pub shipped: ByteSize,
    /// Files abandoned after exhausting their retry budget: archive files
    /// that never arrived (their granule is not preprocessed) and tile
    /// files that never reached the destination (not counted as labeled).
    pub failed: Vec<String>,
    /// Retries across downloads and shipments.
    pub retries: usize,
    /// End-to-end makespan, virtual seconds.
    pub makespan_s: f64,
    /// Stage summaries (download/preprocess/shipment windows).
    pub stages: Vec<StageReport>,
    /// Telemetry (activity shows the pipeline overlap).
    pub telemetry: crate::telemetry::Telemetry,
    /// The shipment manifest covering every shipped file — built once the
    /// pipeline drains, including files replayed from the journal.
    pub manifest: Option<ShipmentManifest>,
}

struct StState {
    params: StreamingParams,
    // archive schedule
    pending_granules: VecDeque<GranuleId>, // not yet visible
    parts_arrived: HashMap<GranuleId, usize>,
    granules_downloaded: usize,
    downloaded: ByteSize,
    first_download: Option<SimTime>,
    last_download: SimTime,
    // preprocess
    granules_preprocessed: usize,
    first_preprocess: Option<SimTime>,
    last_preprocess: SimTime,
    // inference + shipment
    labeled: usize,
    shipped_files: usize,
    shipped: ByteSize,
    /// Every shipped `(file, bytes)` pair — manifest input; seeded with
    /// journal-replayed shipments so a resumed run's manifest still covers
    /// the whole campaign.
    ship_log: Vec<(String, ByteSize)>,
    last_ship: SimTime,
    failed: Vec<String>,
    retries: usize,
    manifest: Option<ShipmentManifest>,
    journal: RunJournal<'static>,
}

type S = Rc<RefCell<StState>>;

/// Run a streaming campaign. The archive releases granules on the
/// (compressed) acquisition timeline; every stage runs concurrently.
///
/// Panics on unsupported parameters (multi-day windows); callers that
/// want a recoverable error use [`try_run_streaming_campaign`].
pub fn run_streaming_campaign(params: StreamingParams) -> StreamingReport {
    try_run_streaming_campaign(params).expect("streaming campaign failed")
}

/// [`run_streaming_campaign`] with a typed error instead of a panic:
/// a multi-day window returns [`StreamingError::UnsupportedDays`].
pub fn try_run_streaming_campaign(
    params: StreamingParams,
) -> Result<StreamingReport, StreamingError> {
    one_day_window(&params)?;
    run_streaming_inner(params, RunJournal::unjournaled())
}

/// Run a streaming campaign against a write-ahead `journal`, resuming any
/// work the journal already records as complete. A granule whose label/ship
/// round-trip is journaled is replayed into the totals without touching the
/// archive, the cluster, or the WAN; partially complete granules restart
/// from their last durable step (missing product files re-download, tile
/// files re-infer).
///
/// Returns [`StreamingError::Journal`] wrapping [`JournalError::Crashed`]
/// when the journal's injected kill point fires mid-campaign (see
/// [`Journal::crash_after`]) — any other refused append comes back as the
/// error it was — and [`StreamingError::UnsupportedDays`] for multi-day
/// windows, checked before anything is journaled.
pub fn run_streaming_campaign_resumable<St: Storage + 'static>(
    params: StreamingParams,
    journal: Journal<St>,
) -> Result<StreamingReport, StreamingError> {
    one_day_window(&params)?;
    let journal = RunJournal::claim(journal, params.base.seed, "streaming-campaign")?;
    run_streaming_inner(params, journal)
}

fn one_day_window(params: &StreamingParams) -> Result<(), StreamingError> {
    if params.base.days != 1 {
        return Err(StreamingError::UnsupportedDays {
            days: params.base.days,
        });
    }
    Ok(())
}

fn run_streaming_inner(
    params: StreamingParams,
    journal: RunJournal<'static>,
) -> Result<StreamingReport, StreamingError> {
    let (mut sim, st) = launch(params, journal);
    while st.borrow().journal.check().is_ok() && sim.step() {}
    conclude(sim, st)
}

/// Build the world and wire the pipeline; nothing has run yet.
fn launch(params: StreamingParams, journal: RunJournal<'static>) -> (Simulation<World>, S) {
    let mut world = World::new(params.base.seed, params.base.faults);
    if let Some(obs) = &params.base.obs {
        world.telemetry.attach_obs(Arc::clone(obs));
    }
    let mut sim = Simulation::new(world);
    let seed = params.base.seed;
    let resume = journal.resume();

    // Partition the day by how far the journal says each granule got.
    let mut pending_granules = VecDeque::new();
    let mut preprocess_seed: Vec<(GranuleId, f64)> = Vec::new();
    let mut inference_seed: Vec<(String, f64)> = Vec::new();
    let mut parts_arrived = HashMap::new();
    let mut granules_downloaded = 0usize;
    let mut downloaded = ByteSize::ZERO;
    let mut granules_preprocessed = 0usize;
    let mut labeled = 0usize;
    let mut shipped_files = 0usize;
    let mut shipped = ByteSize::ZERO;
    let mut ship_log: Vec<(String, ByteSize)> = Vec::new();
    for g in day_granules(&params) {
        let tiles = granule_tiles(seed, g);
        let key = preprocess_key(g, tiles);
        let dl_bytes: u64 = ProductKind::all()
            .into_iter()
            .filter_map(|p| resume.downloaded.get(&g.file_name(p)).copied())
            .sum();
        let dl_parts = ProductKind::all()
            .into_iter()
            .filter(|&p| resume.is_downloaded(&g.file_name(p)))
            .count();
        if let Some(&(_, bytes)) = resume.labeled.get(&key) {
            // Label + ship journaled: the granule is fully replayed.
            granules_downloaded += 1;
            downloaded += ByteSize::bytes(dl_bytes);
            granules_preprocessed += 1;
            labeled += 1;
            shipped_files += 1;
            shipped += ByteSize::bytes(bytes);
            ship_log.push((key, ByteSize::bytes(bytes)));
        } else if resume.has_tile_file(&key) {
            // Preprocessed but not labeled: re-enter at inference.
            granules_downloaded += 1;
            downloaded += ByteSize::bytes(dl_bytes);
            granules_preprocessed += 1;
            if tiles > 0.0 {
                inference_seed.push((format!("tiles-{g}.nc"), tiles));
            }
        } else if dl_parts == 3 {
            // All products durable: re-enter at preprocessing.
            granules_downloaded += 1;
            downloaded += ByteSize::bytes(dl_bytes);
            preprocess_seed.push((g, tiles));
        } else {
            // Waits for the archive; journaled products are pre-credited and
            // skipped when the granule is released.
            if dl_parts > 0 {
                downloaded += ByteSize::bytes(dl_bytes);
                parts_arrived.insert(g, dl_parts);
            }
            pending_granules.push_back(g);
        }
    }

    let st: S = Rc::new(RefCell::new(StState {
        params: params.clone(),
        pending_granules,
        parts_arrived,
        granules_downloaded,
        downloaded,
        first_download: None,
        last_download: SimTime::ZERO,
        granules_preprocessed,
        first_preprocess: None,
        last_preprocess: SimTime::ZERO,
        labeled,
        shipped_files,
        shipped,
        ship_log,
        last_ship: SimTime::ZERO,
        failed: Vec::new(),
        retries: 0,
        manifest: None,
        journal,
    }));

    // Re-entering at inference counts as a monitor trigger unless one is
    // already journaled for the file (dedup across restarts).
    for (file, _) in &inference_seed {
        let trigger = JournalEvent::MonitorTriggered { file: file.clone() };
        if st.borrow_mut().journal.once(trigger).is_err() {
            break;
        }
    }

    // Allocate the preprocessing block up front; the pipeline is wired —
    // last stage first, each stage closing the next when it drains — and
    // polling starts once the nodes are up.
    let nodes = params.base.nodes;
    let st2 = Rc::clone(&st);
    request_block(
        &mut sim,
        |w: &mut World| &mut w.slurm,
        nodes,
        move |sim, _block, node_list| {
            let shipments = shipment_mover(sim, &st2);
            let inference = inference_pool(sim, &params.base, shipments);
            let preprocess = preprocess_batch(sim, &st2, node_list, inference.clone());
            let downloads = download_mover(sim, &st2, preprocess.clone());
            for (granule, tiles) in preprocess_seed {
                preprocess.push(sim, ((granule, tiles), tiles.max(12.0)));
            }
            for job in inference_seed {
                inference.push(sim, job);
            }
            poll_archive(sim, &st2, &downloads);
        },
    )
    .expect("cluster has enough nodes");
    (sim, st)
}

fn day_granules(params: &StreamingParams) -> impl Iterator<Item = GranuleId> {
    GranuleId::day_granules(params.base.platform, params.base.start).take(params.base.files_per_day)
}

/// Turn a finished simulation into the report.
fn conclude(sim: Simulation<World>, st: S) -> Result<StreamingReport, StreamingError> {
    st.borrow().journal.check()?;
    let world = sim.into_state();
    let s = Rc::try_unwrap(st)
        .unwrap_or_else(|_| panic!("streaming closures leaked"))
        .into_inner();
    // Every granule either arrived whole or lost a product to the retry
    // budget.
    let lost: BTreeSet<GranuleId> = s
        .failed
        .iter()
        .filter_map(|file| GranuleId::parse_file_name(file).map(|(g, _)| g))
        .collect();
    assert_eq!(
        s.granules_downloaded + lost.len(),
        day_granules(&s.params).count(),
        "archive fully drained"
    );
    let mut stages = Vec::new();
    if let Some(t0) = s.first_download {
        stages.push(StageReport {
            name: "download".into(),
            started: t0,
            finished: s.last_download,
            items: s.granules_downloaded,
            bytes: s.downloaded,
        });
    }
    if let Some(t0) = s.first_preprocess {
        stages.push(StageReport {
            name: "preprocess".into(),
            started: t0,
            finished: s.last_preprocess,
            items: s.granules_preprocessed,
            bytes: ByteSize::ZERO,
        });
    }
    stages.push(StageReport {
        name: "shipment".into(),
        started: s.first_download.unwrap_or(SimTime::ZERO),
        finished: s.last_ship,
        items: s.shipped_files,
        bytes: s.shipped,
    });
    let makespan_s = [s.last_download, s.last_preprocess, s.last_ship]
        .into_iter()
        .map(|t| t.as_secs_f64())
        .fold(0.0, f64::max);
    Ok(StreamingReport {
        granules_downloaded: s.granules_downloaded,
        granules_preprocessed: s.granules_preprocessed,
        labeled_files: s.labeled,
        shipped_files: s.shipped_files,
        downloaded: s.downloaded,
        shipped: s.shipped,
        failed: s.failed,
        retries: s.retries,
        makespan_s,
        stages,
        telemetry: world.telemetry,
        manifest: s.manifest,
    })
}

/// Poll the archive: release granules whose availability time has passed
/// to the download workers; reschedule until the archive is drained, then
/// close the download feed.
fn poll_archive(sim: &mut Simulation<World>, st: &S, downloads: &FileMover<World>) {
    let released: Vec<(String, ByteSize)> = {
        let mut s = st.borrow_mut();
        let now = sim.now();
        let cat = Catalog::new(s.params.base.seed);
        let mut released = Vec::new();
        while let Some(&g) = s.pending_granules.front() {
            if s.params.available_at(g) > now {
                break;
            }
            s.pending_granules.pop_front();
            for product in ProductKind::all() {
                let name = g.file_name(product);
                // Products journaled before the crash were pre-credited
                // at setup.
                if !s.journal.resume().is_downloaded(&name) {
                    released.push((name, cat.file_size(g, product)));
                }
            }
        }
        released
    };
    for (name, size) in released {
        downloads.push(sim, FileJob::new(name, size));
    }
    if st.borrow().pending_granules.is_empty() {
        downloads.close(sim);
    } else {
        let period = Duration::from_secs_f64(st.borrow().params.poll_period_s);
        let (st2, downloads2) = (Rc::clone(st), downloads.clone());
        sim.schedule_in(period, move |sim| poll_archive(sim, &st2, &downloads2));
    }
}

/// Stage 1: the LAADS download workers, fed by [`poll_archive`]. A granule
/// whose three products have all landed goes to preprocessing; when the
/// feed drains, preprocessing is closed.
fn download_mover(
    sim: &mut Simulation<World>,
    st: &S,
    preprocess: TaskBatch<World, (GranuleId, f64)>,
) -> FileMover<World> {
    let options = TransferOptions {
        parallel_streams: st.borrow().params.base.download_workers,
        retry_limit: DOWNLOAD_RETRIES,
        backoff: BackoffPolicy::wan_default(),
    };
    let obs = sim.state().telemetry.obs().cloned();
    let (file_st, done_st) = (Rc::clone(st), Rc::clone(st));
    let ready = preprocess.clone();
    open_mover(
        sim,
        "laads",
        "ace-defiant",
        options,
        obs,
        |file| granule_trace_id(file).map(TraceContext::new),
        move |sim, file: &FileTiming| {
            let st = &file_st;
            let downloaded = JournalEvent::FileDownloaded {
                file: file.name.clone(),
                bytes: file.size.as_u64(),
            };
            if st.borrow_mut().journal.record(downloaded).is_err() {
                return;
            }
            let (granule, _) =
                GranuleId::parse_file_name(&file.name).expect("archive files name their granule");
            let ready_tiles = {
                let mut s = st.borrow_mut();
                s.downloaded += file.size;
                s.first_download.get_or_insert(file.started);
                s.last_download = file.finished;
                let parts = s.parts_arrived.entry(granule).or_insert(0);
                *parts += 1;
                // All three products in: granule is preprocessable.
                let whole = *parts == 3;
                s.granules_downloaded += usize::from(whole);
                whole.then(|| granule_tiles(s.params.base.seed, granule))
            };
            if let Some(tiles) = ready_tiles {
                ready.push(sim, ((granule, tiles), tiles.max(12.0)));
            }
        },
        move |sim, report| {
            sim.state_mut()
                .telemetry
                .merge_activity("download", &report.activity);
            {
                let mut s = done_st.borrow_mut();
                s.retries += report.retries;
                s.failed.extend(report.failed);
            }
            preprocess.close(sim);
        },
    )
}

/// Stage 2 (+3): the Parsl block. A finished day granule's tile file
/// triggers inference at once; when the batch drains, inference is closed.
fn preprocess_batch(
    sim: &mut Simulation<World>,
    st: &S,
    node_list: Vec<usize>,
    inference: InferencePool,
) -> TaskBatch<World, (GranuleId, f64)> {
    let wpn = st.borrow().params.base.workers_per_node;
    let task_st = Rc::clone(st);
    let labelable = inference.clone();
    open_batch(
        sim,
        node_list,
        wpn,
        0.0,
        0,
        stage_activity("preprocess"),
        move |sim, &(granule, tiles): &(GranuleId, f64), task| {
            let st = &task_st;
            // Attribute allocations in the completion path (journal
            // append, span bookkeeping, queue churn) to the stage.
            let _mem = sim
                .state_mut()
                .telemetry
                .resource_scope("preprocess", "granule");
            let file = format!("tiles-{granule}.nc");
            let written = JournalEvent::TileFileWritten {
                file: preprocess_key(granule, tiles),
                tiles: tiles.round() as u64,
            };
            if st.borrow_mut().journal.record(written).is_err() {
                return;
            }
            if tiles > 0.0 {
                let trigger = JournalEvent::MonitorTriggered { file: file.clone() };
                if st.borrow_mut().journal.record(trigger).is_err() {
                    return;
                }
            }
            let now = sim.now();
            {
                let trace = TraceContext::new(granule.to_string());
                let tel = &mut sim.state_mut().telemetry;
                tel.span("preprocess", "granule", task.started, now, Some(&trace));
                tel.count("granules", "preprocess", 1);
                if tiles > 0.0 {
                    tel.span("monitor", "trigger", now, now, Some(&trace));
                    tel.count("triggers", "monitor", 1);
                }
            }
            {
                let mut s = st.borrow_mut();
                s.granules_preprocessed += 1;
                s.first_preprocess.get_or_insert(task.started);
                s.last_preprocess = now;
            }
            if tiles > 0.0 {
                labelable.push(sim, (file, tiles));
            }
        },
        move |sim, _report| inference.close(sim),
    )
}

/// Stage 4: one flow run per tile file. Each labeled file ships at once;
/// when the pool drains, the shipment feed is closed.
fn inference_pool(
    sim: &mut Simulation<World>,
    base: &CampaignParams,
    shipments: FileMover<World>,
) -> InferencePool {
    let (rate, tile_bytes) = (base.inference_rate, base.tile_nc_bytes);
    let labeled = shipments.clone();
    Pool::new(
        sim,
        base.inference_workers,
        move |sim, pool: &InferencePool, slot, (file, tiles): (String, f64), _attempt| {
            let overhead = sim.state_mut().flow_overhead.sample().total() * 4;
            let compute = Duration::from_secs_f64(tiles / rate);
            let (pool, labeled) = (pool.clone(), labeled.clone());
            let inf_start = sim.now();
            sim.schedule_in(overhead + compute, move |sim| {
                let (now, trace) = (sim.now(), granule_trace_id(&file).map(TraceContext::new));
                let tel = &mut sim.state_mut().telemetry;
                tel.span("inference", "infer", inf_start, now, trace.as_ref());
                // Ship this labeled file immediately (streaming shipment).
                // The label only becomes durable — and is only counted —
                // once the shipment lands, so a crash between inference and
                // shipment re-runs both on resume.
                let size = ByteSize::bytes((tiles * tile_bytes as f64) as u64);
                labeled.push(sim, FileJob::new(file, size));
                pool.complete(sim, slot, Verdict::Done);
            });
        },
        stage_activity("inference"),
        move |sim, _summary| shipments.close(sim),
    )
}

/// Stage 5: every labeled file ships on its own through the same mover,
/// streams, retry budget and backoff as a batch campaign's shipment. When
/// the feed drains the campaign is over: journal it and build the manifest.
fn shipment_mover(sim: &mut Simulation<World>, st: &S) -> FileMover<World> {
    let (file_st, done_st) = (Rc::clone(st), Rc::clone(st));
    open_mover(
        sim,
        "ace-defiant",
        "frontier-orion",
        TransferOptions::default(),
        None,
        |_| None,
        move |sim, file: &FileTiming| {
            let st = &file_st;
            let tiles = tile_file_tiles(st.borrow().params.base.seed, &file.name);
            let labeled = JournalEvent::LabelsAppended {
                file: file.name.clone(),
                labels: tiles.round() as u64,
                bytes: file.size.as_u64(),
            };
            if st.borrow_mut().journal.record(labeled).is_err() {
                return;
            }
            {
                let mut s = st.borrow_mut();
                s.labeled += 1;
                s.shipped_files += 1;
                s.shipped += file.size;
                s.ship_log.push((file.name.clone(), file.size));
                s.last_ship = file.finished;
            }
            let trace = granule_trace_id(&file.name).map(TraceContext::new);
            let tel = &mut sim.state_mut().telemetry;
            tel.span(
                "shipment",
                "ship",
                file.started,
                file.finished,
                trace.as_ref(),
            );
            tel.count("files_labeled", "inference", 1);
            tel.count("files_shipped", "shipment", 1);
            tel.count("bytes_shipped", "shipment", file.size.as_u64());
        },
        move |sim, report| {
            let st = &done_st;
            {
                let tel = &sim.state().telemetry;
                tel.count("retries", "shipment", report.retries as u64);
                tel.count("files_abandoned", "shipment", report.failed.len() as u64);
            }
            let (files, bytes) = {
                let mut s = st.borrow_mut();
                s.retries += report.retries;
                s.failed.extend(report.failed);
                (s.shipped_files as u64, s.shipped.as_u64())
            };
            let finished = JournalEvent::ShipmentFinished { files, bytes };
            if st.borrow_mut().journal.once(finished).is_err() {
                return;
            }
            let manifest = build_shipment_manifest(
                "ace-defiant",
                "frontier-orion",
                &st.borrow().ship_log,
                &sim.state().provenance,
                st.borrow().journal.digest(),
                sim.now().as_secs_f64(),
            );
            st.borrow_mut().manifest = Some(manifest);
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use eoml_journal::MemStorage;
    use eoml_transfer::faults::FaultPlan;

    fn small() -> StreamingParams {
        StreamingParams {
            base: CampaignParams {
                files_per_day: 24,
                nodes: 2,
                ..CampaignParams::paper_demo()
            },
            ..StreamingParams::demo()
        }
    }

    #[test]
    fn streaming_campaign_completes_everything() {
        let r = run_streaming_campaign(small());
        assert_eq!(r.granules_downloaded, 24);
        assert_eq!(r.granules_preprocessed, 24);
        assert_eq!(r.shipped_files, r.labeled_files);
        assert!(r.labeled_files > 0);
        assert!(r.downloaded.as_u64() > 0);
        assert!(r.makespan_s > 0.0);
    }

    #[test]
    fn stages_overlap_in_streaming_mode() {
        // The defining property: downloads and preprocessing (and
        // inference) are concurrent — unlike batch mode, where stage 2
        // waits for stage 1.
        let r = run_streaming_campaign(small());
        assert!(
            r.telemetry.stages_overlap("download", "preprocess"),
            "downloads must overlap preprocessing in streaming mode"
        );
        assert!(r.telemetry.stages_overlap("preprocess", "inference"));
    }

    #[test]
    fn streaming_is_deterministic() {
        let a = run_streaming_campaign(small());
        let b = run_streaming_campaign(small());
        assert_eq!(a.makespan_s, b.makespan_s);
        assert_eq!(a.downloaded, b.downloaded);
        assert_eq!(a.labeled_files, b.labeled_files);
    }

    #[test]
    fn granules_arrive_on_the_compressed_timeline() {
        let p = small();
        // Slot 0 is available after the lag; slot 12 (1 hour of acquisition)
        // after 3600/20 + lag = 240 s.
        let g0 = GranuleId::new(p.base.platform, p.base.start, 0);
        let g12 = GranuleId::new(p.base.platform, p.base.start, 12);
        assert_eq!(p.available_at(g0), SimTime::from_secs_f64(60.0));
        assert_eq!(p.available_at(g12), SimTime::from_secs_f64(240.0));
        // Downloads therefore cannot all start at t=0: the download stage
        // spans a large fraction of the compressed acquisition day.
        let r = run_streaming_campaign(p.clone());
        let dl = r.stages.iter().find(|s| s.name == "download").unwrap();
        let acquisition_span = 24.0 * 300.0 / p.compression;
        assert!(
            dl.seconds() > acquisition_span * 0.5,
            "download window {:.0}s should track the {acquisition_span:.0}s acquisition span",
            dl.seconds()
        );
    }

    #[test]
    fn pipelining_beats_audit_style_sequencing() {
        // Makespan should be far less than the sum of per-stage busy time —
        // the point of streaming.
        let r = run_streaming_campaign(small());
        let stage_sum: f64 = r.stages.iter().map(|s| s.seconds()).sum();
        assert!(
            r.makespan_s < stage_sum,
            "makespan {:.0}s vs stage sum {:.0}s — stages should overlap",
            r.makespan_s,
            stage_sum
        );
    }

    #[test]
    fn resumable_streaming_without_crash_matches_plain() {
        let plain = run_streaming_campaign(small());
        let (journal, _) = Journal::open(MemStorage::new()).unwrap();
        let r = run_streaming_campaign_resumable(small(), journal).unwrap();
        assert_eq!(r.granules_downloaded, plain.granules_downloaded);
        assert_eq!(r.granules_preprocessed, plain.granules_preprocessed);
        assert_eq!(r.labeled_files, plain.labeled_files);
        assert_eq!(r.shipped_files, plain.shipped_files);
        assert_eq!(r.downloaded, plain.downloaded);
        assert_eq!(r.shipped, plain.shipped);
    }

    #[test]
    fn crashed_streaming_campaign_resumes_to_identical_totals() {
        let baseline = run_streaming_campaign(small());
        for kill_at in [5, 23, 47] {
            let store = MemStorage::new();
            let (mut journal, _) = Journal::open(store.clone()).unwrap();
            journal.crash_after(kill_at);
            let crashed = run_streaming_campaign_resumable(small(), journal);
            assert!(
                matches!(crashed, Err(StreamingError::Journal(JournalError::Crashed))),
                "kill {kill_at}"
            );
            let (journal, _) = Journal::open(store).unwrap();
            let r = run_streaming_campaign_resumable(small(), journal).unwrap();
            assert_eq!(r.granules_downloaded, baseline.granules_downloaded);
            assert_eq!(r.granules_preprocessed, baseline.granules_preprocessed);
            assert_eq!(r.labeled_files, baseline.labeled_files, "kill {kill_at}");
            assert_eq!(r.shipped_files, baseline.shipped_files);
            assert_eq!(r.downloaded, baseline.downloaded, "kill {kill_at}");
            assert_eq!(r.shipped, baseline.shipped, "kill {kill_at}");
        }
    }

    #[test]
    fn streaming_manifest_covers_shipped_files_and_survives_resume() {
        let plain = run_streaming_campaign(small());
        let m = plain.manifest.as_ref().expect("manifest");
        assert_eq!(m.len(), plain.shipped_files);
        assert_eq!(m.total_bytes(), plain.shipped.as_u64());
        assert!(m.journal.is_none(), "journal-free run has no digest");

        // Journaled, uninterrupted: the reference manifest id.
        let (journal, _) = Journal::open(MemStorage::new()).unwrap();
        let j0 = run_streaming_campaign_resumable(small(), journal).unwrap();
        let m0 = j0.manifest.as_ref().expect("manifest");
        assert!(m0.journal.is_some(), "journaled run records a digest");

        // Crash mid-pipeline, resume: replayed shipments still appear in
        // the manifest and the id — the destination's idempotency key —
        // is unchanged.
        let store = MemStorage::new();
        let (mut journal, _) = Journal::open(store.clone()).unwrap();
        journal.crash_after(40);
        let _ = run_streaming_campaign_resumable(small(), journal);
        let (journal, _) = Journal::open(store).unwrap();
        let r = run_streaming_campaign_resumable(small(), journal).unwrap();
        let m1 = r.manifest.as_ref().expect("manifest");
        assert_eq!(m1.len(), plain.shipped_files);
        assert_eq!(m1.id(), m0.id());
    }

    #[test]
    fn multi_day_windows_return_a_typed_recoverable_error() {
        let mut p = small();
        p.base.days = 3;
        // The plain entry point reports through the typed error...
        let err = try_run_streaming_campaign(p.clone()).unwrap_err();
        assert_eq!(err, StreamingError::UnsupportedDays { days: 3 });
        assert!(err.to_string().contains("one acquisition day"));
        // ...and the journaled one rejects before touching the journal,
        // so the store stays reusable for a corrected run.
        let store = MemStorage::new();
        let (journal, _) = Journal::open(store.clone()).unwrap();
        let err = run_streaming_campaign_resumable(p.clone(), journal).unwrap_err();
        assert!(matches!(err, StreamingError::UnsupportedDays { days: 3 }));
        let (journal, recovery) = Journal::open(store).unwrap();
        assert_eq!(recovery.events, 0, "rejected run must journal nothing");
        p.base.days = 1;
        run_streaming_campaign_resumable(p, journal).unwrap();
    }

    #[test]
    fn observed_streaming_campaign_covers_all_five_stages() {
        let obs = eoml_obs::Obs::shared();
        let mut p = small();
        p.base.obs = Some(Arc::clone(&obs));
        let r = run_streaming_campaign(p);
        let spans = obs.spans();
        for stage in ["download", "preprocess", "monitor", "inference", "shipment"] {
            assert!(
                spans.iter().any(|s| s.stage == stage),
                "no {stage} spans in obs"
            );
        }
        let m = obs.metrics();
        assert_eq!(m.counter_value("granules", "preprocess"), Some(24));
        assert_eq!(
            m.counter_value("files_shipped", "shipment"),
            Some(r.shipped_files as u64)
        );
        assert_eq!(
            m.counter_value("bytes", "download"),
            Some(r.downloaded.as_u64())
        );
    }

    #[test]
    fn monitor_triggers_are_deduplicated_across_restarts() {
        // Crash late (after some labels landed), resume, and check that the
        // final journal has no duplicate MonitorTriggered events.
        let store = MemStorage::new();
        let (mut journal, _) = Journal::open(store.clone()).unwrap();
        journal.crash_after(40);
        let _ = run_streaming_campaign_resumable(small(), journal);
        let (journal, _) = Journal::open(store.clone()).unwrap();
        run_streaming_campaign_resumable(small(), journal).unwrap();
        let (journal, _) = Journal::open(store).unwrap();
        let mut seen = std::collections::BTreeSet::new();
        for event in journal.events() {
            if let JournalEvent::MonitorTriggered { file } = event {
                assert!(seen.insert(file.clone()), "duplicate trigger for {file}");
            }
        }
        assert!(!seen.is_empty(), "no monitor triggers journaled");
    }

    fn day_granule_count(p: &StreamingParams) -> usize {
        day_granules(p)
            .filter(|&g| granule_tiles(p.base.seed, g) > 0.0)
            .count()
    }

    #[test]
    fn flaky_wan_ships_every_labeled_file() {
        // A full acquisition day: ≈ 144 shipments and 864 downloads at a
        // 2.5 % per-flow failure rate. A failed shipment used to be dropped
        // without a word, a failed download re-queued forever.
        for seed in [2022, 7] {
            let mut p = small();
            p.base.seed = seed;
            p.base.files_per_day = 288;
            p.base.faults = FaultPlan::flaky_wan();
            let days = day_granule_count(&p);
            let r = run_streaming_campaign(p);
            assert!(r.failed.is_empty(), "seed {seed}: abandoned {:?}", r.failed);
            assert!(r.retries > 0, "seed {seed}: 1000 flaky flows, no retry");
            assert_eq!(r.granules_downloaded, 288);
            assert_eq!(r.labeled_files, days, "seed {seed}");
            assert_eq!(r.shipped_files, days, "seed {seed}");
            let m = r.manifest.as_ref().expect("manifest");
            assert_eq!(m.len(), days, "manifest covers every tile file");
        }
    }

    #[test]
    fn retries_are_bounded_counted_and_exhaustion_is_reported() {
        let counter = |obs: &eoml_obs::Obs, name: &str, stage: &str| {
            obs.metrics().counter_value(name, stage).unwrap_or(0) as usize
        };
        // A bad WAN: most files need retries, some exhaust the budget.
        let obs = eoml_obs::Obs::shared();
        let mut p = small();
        p.base.obs = Some(Arc::clone(&obs));
        p.base.faults = FaultPlan {
            drop_probability: 0.45,
            corrupt_probability: 0.0,
        };
        let r = run_streaming_campaign(p);
        assert_eq!(
            r.retries,
            counter(&obs, "retries", "download") + counter(&obs, "retries", "shipment")
        );
        let delivered: Vec<_> = obs
            .spans()
            .into_iter()
            .filter(|sp| sp.stage == "download" && sp.name == "file")
            .collect();
        for sp in &delivered {
            let attempts: usize = sp.attr("attempts").unwrap().parse().unwrap();
            assert!(attempts <= DOWNLOAD_RETRIES + 1, "{attempts} attempts");
        }
        let lost_files = counter(&obs, "files_abandoned", "download");
        assert!(
            lost_files > 0,
            "0.45^4 of 72 files should exhaust the budget"
        );
        assert_eq!(delivered.len() + lost_files, 72, "every file ends once");
        let lost_ships = counter(&obs, "files_abandoned", "shipment");
        assert_eq!(r.failed.len(), lost_files + lost_ships);
        assert!(r.granules_downloaded < 24, "a granule missing a product");
        assert_eq!(r.granules_preprocessed, r.granules_downloaded);
        assert_eq!(r.shipped_files, r.labeled_files);

        // A dead WAN: every file burns its whole budget and is abandoned;
        // the campaign still terminates and says what it lost.
        let obs = eoml_obs::Obs::shared();
        let mut p = small();
        p.base.obs = Some(Arc::clone(&obs));
        p.base.faults = FaultPlan {
            drop_probability: 1.0,
            corrupt_probability: 0.0,
        };
        let r = run_streaming_campaign(p);
        assert_eq!(r.failed.len(), 72);
        assert_eq!(r.retries, 72 * DOWNLOAD_RETRIES);
        assert_eq!(counter(&obs, "files_abandoned", "download"), 72);
        assert_eq!((r.granules_downloaded, r.shipped_files), (0, 0));
        assert_eq!(r.manifest.as_ref().map(|m| m.len()), Some(0));
    }

    #[test]
    fn no_node_ever_runs_more_than_its_workers() {
        // A resumed day whose downloads are all durable: every granule
        // reaches the block at once, the burst the old `active % nodes`
        // placement stacked on one node while another idled.
        let mut p = small();
        p.base.workers_per_node = 2;
        let (mut journal, _) = Journal::open(MemStorage::new()).unwrap();
        for g in day_granules(&p) {
            for product in ProductKind::all() {
                let file = g.file_name(product);
                let downloaded = JournalEvent::FileDownloaded { file, bytes: 1 };
                journal.append(downloaded).unwrap();
            }
        }
        let (nodes, wpn) = (p.base.nodes, p.base.workers_per_node);
        let journal = RunJournal::claim(journal, p.base.seed, "streaming-campaign").unwrap();
        let (mut sim, st) = launch(p, journal);
        let mut peak = 0;
        while sim.step() {
            for node in 0..sim.state().cluster.spec().nodes {
                let busy = sim.state().cluster.node_occupancy(node);
                assert!(busy <= wpn, "node {node} runs {busy} tasks, {wpn} workers");
                peak = peak.max(busy);
            }
        }
        assert_eq!(peak, wpn, "the block was never saturated; test too weak");
        let r = conclude(sim, st).unwrap();
        assert_eq!(r.granules_preprocessed, 24);
        assert!(r.telemetry.peak("preprocess") <= nodes * wpn);
    }
}
