//! The four workloads: what is set up, what one timed repetition runs, and
//! how its outputs are verified.
//!
//! Every layer is driven from outside through its public entry point; the
//! program under test only ever receives generated granule lists and specs.
//! A workload's `setup` is everything before the first timed call, `rep`
//! times exactly the run call(s) and `verify` checks the outputs the last
//! repetition left behind.

use eoml_core::{run_campaign, CampaignParams, CampaignReport, RealPipeline, RealRunReport};
use eoml_journal::{Journal, JournalEvent, MemStorage};
use eoml_modis::granule::GranuleId;
use eoml_modis::product::Platform;
use eoml_modis::synth::{SwathDims, SwathSynthesizer};
use eoml_ncdf::NcFile;
use eoml_obs::Obs;
use eoml_preprocess::writer::read_tiles_nc;
use eoml_service::{CampaignService, CampaignSpec, ServiceConfig, ServiceReport, TenantSpec};
use eoml_transfer::manifest::content_digest;
use eoml_util::timebase::CivilDate;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Instant, SystemTime};

/// Worker threads every real pipeline runs with (`nproc` of the reference box).
pub const WORKERS: usize = 2;
/// AICCA classes: labels must fall in `0..AICCA_CLASSES`.
pub const AICCA_CLASSES: i32 = 42;
/// Small tenants of the traced run's storm.
pub const STORM_TENANTS: usize = 50;
/// Whale tenants riding along with the small ones in the storm.
pub const WHALES: usize = 2;
const WHALE_DAYS: usize = 3;

/// Result type of everything that can fail for reasons outside the benchmark.
pub type Res<T> = Result<T, String>;

/// Swath and tile geometry of a real-pipeline workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Swath raster.
    pub dims: SwathDims,
    /// Tile edge, pixels.
    pub tile: usize,
}

impl Shape {
    /// The paper's tile geometry (128² × 6 bands) on a 3 × 10-window swath:
    /// ≈ 22 MB of `.eogr` and ≈ 12 MB of NetCDF per granule, so
    /// byte-proportional layers do the work.
    pub const PAPER: Shape = Shape {
        dims: SwathDims {
            lines: 384,
            pixels: 1280,
        },
        tile: 128,
    };
    /// Tiny files (16 tiles of 32² per granule), so per-call layers dominate.
    pub const SMALL: Shape = Shape {
        dims: SwathDims {
            lines: 128,
            pixels: 128,
        },
        tile: 32,
    };

    /// Tile windows per granule; all are kept because the thresholds are 0.
    pub fn windows(&self) -> usize {
        (self.dims.lines / self.tile) * (self.dims.pixels / self.tile)
    }
}

/// Problem sizes; `--quick` and the traced run's side probes use [`Sizes::QUICK`].
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Day granules of `real_paper_tiles`.
    pub paper_granules: usize,
    /// Day granules of `real_small_files`.
    pub small_granules: usize,
    /// Days of `sim_campaign_16d`.
    pub sim_days: usize,
}

impl Sizes {
    /// The sizes the committed numbers are measured at.
    pub const FULL: Sizes = Sizes {
        paper_granules: 4,
        small_granules: 128,
        sim_days: 16,
    };
    /// Smoke-test sizes.
    pub const QUICK: Sizes = Sizes {
        paper_granules: 1,
        small_granules: 20,
        sim_days: 4,
    };
}

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = [
    "real_paper_tiles",
    "real_small_files",
    "real_small_resume",
    "sim_campaign_16d",
];

/// One timed repetition.
#[derive(Debug, Clone, Copy)]
pub struct Rep {
    /// Wall seconds of the run call(s).
    pub makespan_s: f64,
    /// Work units finished: labelled tiles, simulated granules or campaigns.
    pub units: f64,
}

/// Operations checked by `verify` and how many of them failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Tiles, files, journal stages, campaigns … checked.
    pub attempted: u64,
    /// Of those, the ones that did not hold.
    pub failed: u64,
}

impl Verdict {
    /// Count one check.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Fold another verdict in.
    pub fn add(&mut self, other: Verdict) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Remove `dir` and everything under it, then create it empty.
pub fn fresh_dir(dir: &Path) -> Res<()> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))
}

/// The first `n` day granules from 2022-01-01 on, in slot order.
///
/// Day/night depends on the scan geometry and the line count only, so a
/// 16-pixel-wide synthesizer decides it at a fraction of the full cost.
pub fn day_granules(seed: u64, lines: usize, n: usize) -> Vec<GranuleId> {
    let thin = SwathSynthesizer::new(seed, SwathDims { lines, pixels: 16 });
    let start = CivilDate::new(2022, 1, 1).expect("valid date");
    start
        .iter_days(366)
        .flat_map(|date| GranuleId::day_granules(Platform::Terra, date))
        .filter(|&g| thin.synthesize(g).day)
        .take(n)
        .collect()
}

// ------------------------------------------------------------------ real_*

/// What one `RealPipeline` run produced, beyond its own report.
#[derive(Debug, Clone)]
pub struct RealRep {
    /// The pipeline's report (stage seconds, manifest, outbox).
    pub report: RealRunReport,
    /// Run start → earliest mtime among the outbox files.
    pub first_labeled_s: f64,
    /// Bytes allocated during the run (0 without the counting allocator).
    pub alloc_bytes: u64,
}

/// `real_paper_tiles` and `real_small_files`: the real five-stage pipeline
/// over day granules, plain (`run`) or journaled (`run_resumable`).
pub struct Real {
    /// Geometry.
    pub shape: Shape,
    /// The granules fed to the pipeline, chosen in set-up.
    pub granules: Vec<GranuleId>,
    /// Work directory (`incoming/`, `tiles/`, `outbox/`).
    pub dir: PathBuf,
    /// The write-ahead log of a journaled run. It lives in memory so that
    /// the run times the journal's code, not the host's fsync latency
    /// (which swings by tens of percent on a shared disk); the
    /// `journal.append_fsync_us` probe times the file-backed append.
    pub wal: MemStorage,
    /// The last repetition.
    pub last: Option<RealRep>,
    seed: u64,
    count: usize,
    journaled: bool,
    pipeline: Option<RealPipeline>,
}

impl Real {
    /// A real workload of `count` day granules under `dir`.
    pub fn new(shape: Shape, count: usize, journaled: bool, seed: u64, dir: PathBuf) -> Real {
        Real {
            shape,
            granules: Vec::new(),
            dir,
            wal: MemStorage::new(),
            last: None,
            seed,
            count,
            journaled,
            pipeline: None,
        }
    }

    /// Workdir, granule selection, `RealPipeline::new` (which trains the
    /// AICCA model — the bulk of the set-up at 128 px) and a rehearsal over
    /// the first granules, so lazy initialisation is charged to set-up.
    pub fn setup(&mut self) -> Res<()> {
        fresh_dir(&self.dir)?;
        self.granules = day_granules(self.seed, self.shape.dims.lines, self.count);
        let pipeline = RealPipeline::new(
            &self.dir,
            self.seed,
            self.shape.dims,
            self.shape.tile,
            WORKERS,
        )
        .map_err(|e| format!("pipeline: {e}"))?
        .with_thresholds(0.0, 0.0);
        self.pipeline = Some(pipeline);
        let rehearsal = match self.shape {
            Shape::PAPER => Sizes::QUICK.paper_granules,
            _ => Sizes::QUICK.small_granules,
        };
        self.run(&self.granules[..rehearsal.min(self.granules.len())])?;
        self.clean()
    }

    fn run(&self, granules: &[GranuleId]) -> Res<RealRunReport> {
        let pipeline = self.pipeline.as_ref().ok_or("run before setup")?;
        if self.journaled {
            let mut journal = self.open_journal()?;
            pipeline
                .run_resumable(granules, &mut journal)
                .map_err(|e| e.to_string())
        } else {
            pipeline.run(granules)
        }
    }

    /// Whether the workload runs `run_resumable` on a journal.
    pub fn is_journaled(&self) -> bool {
        self.journaled
    }

    /// Reopen the journal over the same log, as after a restart.
    fn open_journal(&self) -> Res<Journal<MemStorage>> {
        Journal::open(self.wal.clone())
            .map(|(journal, _)| journal)
            .map_err(|e| format!("journal open: {e}"))
    }

    /// Empty the stage directories and the journal, keeping the model.
    /// Deleting right away also drops the files' dirty pages before the
    /// kernel writes them back under the next repetition.
    fn clean(&mut self) -> Res<()> {
        for sub in ["incoming", "tiles", "outbox"] {
            fresh_dir(&self.dir.join(sub))?;
        }
        self.wal = MemStorage::new();
        Ok(())
    }

    /// Attach the library's own instrumentation, for good.
    pub fn attach_obs(&mut self, obs: Arc<Obs>) -> Res<()> {
        let pipeline = self.pipeline.take().ok_or("obs before setup")?;
        self.pipeline = Some(pipeline.with_obs(obs));
        Ok(())
    }

    /// One timed run over a clean workdir; `obs` attaches the library's own
    /// instrumentation for this and every later repetition.
    pub fn rep(&mut self, obs: Option<Arc<Obs>>) -> Res<Rep> {
        self.clean()?;
        if let Some(obs) = obs {
            self.attach_obs(obs)?;
        }
        let alloc0 = eoml_obs::resource::snapshot().allocated_bytes;
        let started = SystemTime::now();
        let t0 = Instant::now();
        let report = self.run(&self.granules)?;
        let makespan_s = t0.elapsed().as_secs_f64();
        let alloc_bytes = eoml_obs::resource::snapshot().allocated_bytes - alloc0;
        // Rename keeps the label-write mtime, so the earliest outbox mtime
        // is when the first labelled product existed.
        let first_labeled_s = report
            .outbox
            .iter()
            .filter_map(|p| std::fs::metadata(p).and_then(|m| m.modified()).ok())
            .filter_map(|m| m.duration_since(started).ok())
            .map(|d| d.as_secs_f64())
            .fold(f64::INFINITY, f64::min);
        let units = report.labeled_tiles as f64;
        self.last = Some(RealRep {
            report,
            first_labeled_s,
            alloc_bytes,
        });
        Ok(Rep { makespan_s, units })
    }

    /// Reopen the journal and run again over the finished workdir; returns
    /// the wall seconds and the report.
    pub fn resume_noop(&self) -> Res<(f64, RealRunReport)> {
        let t0 = Instant::now();
        let report = self.run(&self.granules)?;
        Ok((t0.elapsed().as_secs_f64(), report))
    }

    /// Every stage finished in the reopened journal, and a no-op resume
    /// returns the same report without journaling any completion again.
    fn verify_resume(&self, report: &RealRunReport) -> Res<Verdict> {
        let completions = |journal: &Journal<MemStorage>| {
            let done = |e: &&JournalEvent| {
                matches!(
                    e,
                    JournalEvent::FileDownloaded { .. }
                        | JournalEvent::TileFileWritten { .. }
                        | JournalEvent::LabelsAppended { .. }
                )
            };
            journal.events().iter().filter(done).count()
        };
        let mut v = Verdict::default();
        let journal = self.open_journal()?;
        for stage in ["download", "preprocess", "inference", "shipment"] {
            v.check(journal.state().stage_done(stage));
        }
        let before = completions(&journal);
        drop(journal);
        let (_, again) = self.resume_noop()?;
        v.check(
            again.granules == report.granules
                && again.total_tiles == report.total_tiles
                && again.labeled_tiles == report.labeled_tiles
                && again.label_histogram == report.label_histogram
                && again.outbox == report.outbox,
        );
        v.check(completions(&self.open_journal()?) == before);
        Ok(v)
    }

    /// Every shipped file decodes with one in-range label per tile, every
    /// manifest digest matches the bytes on disk, the totals are the
    /// expected ones; journaled runs also finished every stage and resume
    /// to an identical report without re-journaling work.
    pub fn verify(&self) -> Verdict {
        let mut v = Verdict::default();
        let Some(last) = &self.last else {
            v.check(false);
            return v;
        };
        let report = &last.report;
        let expected_tiles = self.granules.len() * self.shape.windows();
        v.check(report.granules == self.granules.len());
        v.check(report.total_tiles == expected_tiles);
        v.check(report.labeled_tiles == report.total_tiles);
        v.check(report.outbox.len() == self.granules.len());

        let manifest = report.manifest.as_ref();
        v.check(manifest.is_some_and(|m| m.len() == report.outbox.len()));
        let mut tiles_seen = 0usize;
        for path in &report.outbox {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            let bytes = std::fs::read(path).unwrap_or_default();
            let entry = manifest.and_then(|m| m.artifact(name));
            v.check(entry.is_some_and(|a| {
                a.bytes == bytes.len() as u64 && a.digest == content_digest(&bytes)
            }));
            let decoded = NcFile::decode(&bytes)
                .map_err(|e| e.to_string())
                .and_then(|nc| read_tiles_nc(&nc).map_err(|e| e.to_string()));
            match decoded {
                Ok((tiles, Some(labels))) if labels.len() == tiles.len() => {
                    tiles_seen += tiles.len();
                    for label in labels {
                        v.check((0..AICCA_CLASSES).contains(&label));
                    }
                }
                // An undecodable or unlabelled file fails all its tiles.
                _ => {
                    v.attempted += self.shape.windows() as u64;
                    v.failed += self.shape.windows() as u64;
                }
            }
        }
        v.check(tiles_seen == expected_tiles);

        if self.journaled {
            match self.verify_resume(report) {
                Ok(resumed) => v.add(resumed),
                Err(_) => v.check(false),
            }
        }
        v
    }
}

// ------------------------------------------------------- sim_campaign_16d

/// `sim_campaign_16d`: the virtual-time campaign, no journal.
pub struct Sim {
    seed: u64,
    days: usize,
    params: Option<CampaignParams>,
    /// The last repetition's report.
    pub last: Option<CampaignReport>,
}

impl Sim {
    /// A `days`-day campaign at the paper's full cadence (288 files/day).
    pub fn new(days: usize, seed: u64) -> Sim {
        Sim {
            seed,
            days,
            params: None,
            last: None,
        }
    }

    /// The campaign parameters and a rehearsal of the first days, so lazy
    /// initialisation is charged to set-up.
    pub fn setup(&mut self) -> Res<()> {
        let params = CampaignParams {
            seed: self.seed,
            days: self.days,
            files_per_day: 288,
            ..CampaignParams::paper_demo()
        };
        std::hint::black_box(run_campaign(CampaignParams {
            days: self.days.min(Sizes::QUICK.sim_days),
            ..params.clone()
        }));
        self.params = Some(params);
        Ok(())
    }

    /// One timed `run_campaign`; `obs` mirrors its telemetry into a hub.
    pub fn rep(&mut self, obs: Option<Arc<Obs>>) -> Res<Rep> {
        let mut params = self.params.clone().ok_or("rep before setup")?;
        params.obs = obs;
        let t0 = Instant::now();
        let report = run_campaign(params);
        let makespan_s = t0.elapsed().as_secs_f64();
        let units = report.granules as f64;
        self.last = Some(report);
        Ok(Rep { makespan_s, units })
    }

    /// Every granule of every day was preprocessed and every tile file
    /// labelled; day and night alternate by geometry, so half the granules
    /// (2304 of 4608 at 16 days) yield a tile file.
    pub fn verify(&self) -> Verdict {
        let mut v = Verdict::default();
        let Some(report) = &self.last else {
            v.check(false);
            return v;
        };
        let expected = self.days * 288;
        v.attempted += expected as u64;
        v.failed += expected.abs_diff(report.granules) as u64;
        v.attempted += report.tile_files as u64;
        v.failed += report.tile_files.abs_diff(report.labeled_files) as u64;
        v.check(report.tile_files.abs_diff(expected / 2) <= self.days);
        if self.days == 16 {
            v.check(report.tile_files == 2304);
        }
        v
    }
}

// ------------------------------------------------------------ tenant storm

/// One storm, timed from outside.
#[derive(Debug, Clone)]
pub struct StormRep {
    /// Start and end of every `register_tenant` + `submit` pair, in order.
    pub submits: Vec<(Instant, Instant)>,
    /// Start and end of `run_until_idle`.
    pub drain: (Instant, Instant),
    /// The drained service's report.
    pub report: ServiceReport,
}

/// The multi-tenant service under a storm of one-day tenants plus whales.
///
/// It is a per-layer probe, not a workload: every journal append of the
/// service is an fsync on a real file, so over half of a storm's wall time
/// is the host's fsync latency (1000 tenants: 1.8 s on tmpfs, 3.3 to 6.2 s
/// on the reference box's disk, drifting with what ran before), and no
/// end-to-end bound the driver allows would hold.
pub struct Storm {
    root: PathBuf,
    service: Option<CampaignService>,
    population: Vec<(TenantSpec, &'static str, CampaignSpec)>,
}

impl Storm {
    /// Open a service (ops plane on) on a fresh `root` for `tenants` small
    /// tenants and [`WHALES`] whales whose campaigns derive from `seed`.
    pub fn open(tenants: usize, seed: u64, root: PathBuf) -> Res<Storm> {
        fresh_dir(&root)?;
        let mut population = Vec::with_capacity(tenants + WHALES);
        for i in 0..tenants {
            let tenant = TenantSpec::new(&format!("small-{i:04}"), 1, 8)?;
            population.push((tenant, "job", CampaignSpec::small(seed + i as u64)));
        }
        for w in 0..WHALES {
            let tenant = TenantSpec::new(&format!("whale-{w}"), 4, 24)?;
            let spec = CampaignSpec::whale(seed + w as u64, WHALE_DAYS);
            population.push((tenant, "reproc", spec));
        }
        let (service, _) =
            CampaignService::open(&root, ServiceConfig::small()).map_err(|e| e.to_string())?;
        Ok(Storm {
            root,
            service: Some(service),
            population,
        })
    }

    /// Tenant ids in submission order.
    pub fn tenant_ids(&self) -> impl Iterator<Item = &str> {
        self.population
            .iter()
            .map(|(tenant, _, _)| tenant.id.as_str())
    }

    /// Register and submit everyone, then drain.
    pub fn run(&self) -> Res<StormRep> {
        let service = self.service.as_ref().ok_or("service closed")?;
        let mut submits = Vec::with_capacity(self.population.len());
        for (tenant, name, spec) in &self.population {
            let start = Instant::now();
            service
                .register_tenant(tenant.clone())
                .map_err(|e| e.to_string())?;
            service
                .submit(&tenant.id, name, spec.clone())
                .map_err(|e| e.to_string())?;
            submits.push((start, Instant::now()));
        }
        let drain_start = Instant::now();
        let report = service.run_until_idle().map_err(|e| e.to_string())?;
        Ok(StormRep {
            submits,
            drain: (drain_start, Instant::now()),
            report,
        })
    }

    /// Close the drained service and time `open` on its finished root.
    pub fn reopen_ms(&mut self) -> Res<f64> {
        self.service = None;
        let t0 = Instant::now();
        let (service, recovery) =
            CampaignService::open(&self.root, ServiceConfig::small()).map_err(|e| e.to_string())?;
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if recovery.completed != self.population.len() {
            return Err(format!(
                "reopen recovered {} of {} campaigns",
                recovery.completed,
                self.population.len()
            ));
        }
        self.service = Some(service);
        Ok(ms)
    }

    /// Every campaign completed; none cancelled, paused or pending.
    pub fn verify(&self, rep: &StormRep) -> Verdict {
        let mut v = Verdict::default();
        let campaigns = self.population.len();
        v.attempted += campaigns as u64;
        v.failed += campaigns.abs_diff(rep.report.completed) as u64;
        v.check(rep.report.cancelled == 0 && rep.report.paused == 0);
        v.check(rep.report.pending == 0);
        v.check(rep.report.quanta == campaigns - WHALES + WHALES * WHALE_DAYS);
        v
    }
}

// ------------------------------------------------------------- dispatcher

/// One of the four workloads behind a common set-up / rep / verify face.
/// A process holds one or two of these, so the variants stay unboxed.
#[allow(clippy::large_enum_variant)]
pub enum Workload {
    /// `real_paper_tiles` or `real_small_files`: a repetition is a full run.
    Real(Real),
    /// `real_small_resume`: set-up includes the full run, a repetition
    /// reopens the journal and resumes over the finished workdir.
    Resume(Real),
    /// `sim_campaign_16d`.
    Sim(Sim),
}

impl Workload {
    /// The workload called `name`, at `sizes`, working under `dir`.
    pub fn new(name: &str, sizes: Sizes, seed: u64, dir: PathBuf) -> Res<Workload> {
        let small = || Real::new(Shape::SMALL, sizes.small_granules, true, seed, dir.clone());
        Ok(match name {
            "real_paper_tiles" => Workload::Real(Real::new(
                Shape::PAPER,
                sizes.paper_granules,
                false,
                seed,
                dir.clone(),
            )),
            "real_small_files" => Workload::Real(small()),
            "real_small_resume" => Workload::Resume(small()),
            "sim_campaign_16d" => Workload::Sim(Sim::new(sizes.sim_days, seed)),
            other => return Err(format!("unknown workload {other:?}; known: {NAMES:?}")),
        })
    }

    /// The real pipeline behind the workload, if it has one.
    pub fn real(&self) -> Option<&Real> {
        match self {
            Workload::Real(real) | Workload::Resume(real) => Some(real),
            Workload::Sim(_) => None,
        }
    }

    /// Everything before the first timed call.
    pub fn setup(&mut self) -> Res<()> {
        match self {
            Workload::Real(w) => w.setup(),
            Workload::Resume(w) => {
                w.setup()?;
                w.rep(None).map(|_| ())
            }
            Workload::Sim(w) => w.setup(),
        }
    }

    /// One timed repetition; `obs` attaches `eoml-obs` through the layer's
    /// public hook (`RealPipeline::with_obs`, `CampaignParams.obs`) — for a
    /// real pipeline, to this and every later repetition.
    pub fn rep(&mut self, obs: Option<Arc<Obs>>) -> Res<Rep> {
        match self {
            Workload::Real(w) => w.rep(obs),
            Workload::Resume(w) => {
                if let Some(obs) = obs {
                    w.attach_obs(obs)?;
                }
                let (makespan_s, report) = w.resume_noop()?;
                Ok(Rep {
                    makespan_s,
                    units: report.labeled_tiles as f64,
                })
            }
            Workload::Sim(w) => w.rep(obs),
        }
    }

    /// Check the outputs of the last repetition.
    pub fn verify(&self) -> Verdict {
        match self {
            Workload::Real(w) | Workload::Resume(w) => w.verify(),
            Workload::Sim(w) => w.verify(),
        }
    }
}
