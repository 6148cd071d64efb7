//! The real driver's working set is one granule per worker: the peak of
//! live heap bytes over a run must not depend on how many granules the run
//! processes, and a warm synthesis or prediction allocates nothing. Spans
//! `eoml-obs` (the counting allocator and its scope guard), `eoml-journal`,
//! `eoml-ricc` (the AICCA model) and `eoml-core` (the real pipeline, plain
//! and resumable).

use eoml::core::realrun::RealPipeline;
use eoml::journal::{Journal, MemStorage};
use eoml::modis::granule::GranuleId;
use eoml::modis::product::Platform;
use eoml::modis::synth::{Swath, SwathDims, SwathSynthesizer, SynthScratch};
use eoml::obs::resource::{self, CountingAlloc, ResourceGuard};
use eoml::ricc::aicca::{synthetic_texture_sample, AiccaModel};
use eoml::ricc::autoencoder::{AeConfig, EncodeScratch};
use eoml::util::timebase::CivilDate;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// The allocator's counters are process-global and `cargo test` runs these
/// tests on parallel threads: a sibling allocating inside another's scope
/// raises its peak. Each test holds this lock.
static COUNTERS: Mutex<()> = Mutex::new(());

fn exclusive() -> MutexGuard<'static, ()> {
    // A failed sibling poisons the lock; the counters it guards are fine.
    COUNTERS.lock().unwrap_or_else(|e| e.into_inner())
}

const SEED: u64 = 2022;
/// The benchmark's small shape: 16 tiles of 24 KiB per granule.
const DIMS: SwathDims = SwathDims {
    lines: 128,
    pixels: 128,
};
const MIB: u64 = 1 << 20;

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eoml-real-memory-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn day_granules(n: usize) -> Vec<GranuleId> {
    let sy = SwathSynthesizer::new(SEED, DIMS);
    let date = CivilDate::new(2022, 1, 1).unwrap();
    (0..288)
        .map(|slot| GranuleId::new(Platform::Terra, date, slot))
        .filter(|&g| sy.synthesize(g).day)
        .take(n)
        .collect()
}

fn pipeline(workdir: &Path) -> RealPipeline {
    RealPipeline::new(workdir, SEED, DIMS, 32, 2)
        .unwrap()
        .with_thresholds(0.0, 0.0)
}

fn empty_workdir(workdir: &Path) {
    for sub in ["incoming", "tiles", "outbox"] {
        std::fs::remove_dir_all(workdir.join(sub)).unwrap();
        std::fs::create_dir_all(workdir.join(sub)).unwrap();
    }
}

/// Peak live bytes over `run` on the first `n` granules, in a clean workdir.
fn peak_over(workdir: &Path, granules: &[GranuleId], n: usize, run: impl Fn(&[GranuleId])) -> u64 {
    empty_workdir(workdir);
    let guard = ResourceGuard::detached("real-run", "peak");
    run(&granules[..n]);
    guard.finish().peak_in_use_bytes
}

fn assert_flat(what: &str, peak_8: u64, peak_32: u64) {
    assert!(
        peak_32 <= peak_8 + MIB,
        "{what}: peak live bytes grow with the campaign: {peak_8} over 8 granules, \
         {peak_32} over 32 (24 more granules hold {} KiB each)",
        peak_32.saturating_sub(peak_8) / 24 / 1024
    );
}

#[test]
fn peak_live_bytes_of_a_plain_run_do_not_depend_on_the_granule_count() {
    let _exclusive = exclusive();
    assert!(resource::counting_active());
    let dir = tempdir("plain");
    let p = pipeline(&dir);
    let granules = day_granules(32);
    assert_eq!(granules.len(), 32);
    let run = |granules: &[GranuleId]| {
        let report = p.run(granules).unwrap();
        assert_eq!(report.outbox.len(), granules.len());
        assert_eq!(report.labeled_tiles, 16 * granules.len());
    };
    // A rehearsal first, so lazy set-up is not charged to the short run.
    peak_over(&dir, &granules, 2, run);
    let peak_8 = peak_over(&dir, &granules, 8, run);
    let peak_32 = peak_over(&dir, &granules, 32, run);
    assert_flat("run", peak_8, peak_32);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn peak_live_bytes_of_a_resumable_run_do_not_depend_on_the_granule_count() {
    let _exclusive = exclusive();
    let dir = tempdir("resumable");
    let p = pipeline(&dir);
    let granules = day_granules(32);
    let run = |granules: &[GranuleId]| {
        let (mut journal, _) = Journal::open(MemStorage::new()).unwrap();
        let report = p.run_resumable(granules, &mut journal).unwrap();
        assert_eq!(report.outbox.len(), granules.len());
        assert_eq!(report.labeled_tiles, 16 * granules.len());
    };
    peak_over(&dir, &granules, 2, run);
    let peak_8 = peak_over(&dir, &granules, 8, run);
    let peak_32 = peak_over(&dir, &granules, 32, run);
    assert_flat("run_resumable", peak_8, peak_32);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A shape whose radiance plane is 1 MiB: 256 lines of 1024 pixels, 256
/// tiles of 32 px per day granule.
const WIDE: SwathDims = SwathDims {
    lines: 256,
    pixels: 1024,
};

fn wide_day_granules(n: usize) -> Vec<GranuleId> {
    let sy = SwathSynthesizer::new(SEED, WIDE);
    let date = CivilDate::new(2022, 1, 1).unwrap();
    (0..288)
        .map(|slot| GranuleId::new(Platform::Terra, date, slot))
        .filter(|&g| sy.synthesize(g).day)
        .take(n)
        .collect()
}

#[test]
fn a_warm_pipeline_allocates_no_granule_sized_buffer() {
    let _exclusive = exclusive();
    let plane = (WIDE.len() * std::mem::size_of::<f32>()) as u64;
    assert!(plane >= MIB);
    let dir = tempdir("warm");
    // One worker, so the one buffer set the rehearsal sizes carries every
    // granule of the measured runs.
    let p = RealPipeline::new(&dir, SEED, WIDE, 32, 1)
        .unwrap()
        .with_thresholds(0.0, 0.0);
    let granules = wide_day_granules(10);
    assert_eq!(granules.len(), 10);
    let tiles = (WIDE.lines / 32) * (WIDE.pixels / 32);
    let allocated_per_granule = |granules: &[GranuleId], resumable: bool| {
        empty_workdir(&dir);
        let (mut journal, _) = Journal::open(MemStorage::new()).unwrap();
        let guard = ResourceGuard::detached("real-run", "warm");
        let report = if resumable {
            p.run_resumable(granules, &mut journal).unwrap()
        } else {
            p.run(granules).unwrap()
        };
        let allocated = guard.finish().allocated_bytes;
        assert_eq!(report.labeled_tiles, tiles * granules.len());
        allocated / granules.len() as u64
    };
    allocated_per_granule(&granules[..2], false);
    for (what, run, resumable) in [
        ("run", &granules[2..6], false),
        ("run_resumable", &granules[6..10], true),
    ] {
        let per_granule = allocated_per_granule(run, resumable);
        assert!(
            per_granule < plane,
            "{what}: {per_granule} bytes allocated per granule, a radiance plane is {plane}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_warm_synthesis_into_a_held_swath_and_scratch_allocates_nothing() {
    let _exclusive = exclusive();
    let sy = SwathSynthesizer::new(SEED, WIDE);
    let date = CivilDate::new(2022, 1, 1).unwrap();
    let terra = |slot| GranuleId::new(Platform::Terra, date, slot);
    let night = (0..288).map(terra).find(|&g| !sy.synthesize(g).day);
    let mut granules = wide_day_granules(3);
    granules.push(night.unwrap());
    granules.push(GranuleId::new(Platform::Aqua, date, granules[0].slot));
    let mut swath = Swath::empty(granules[0]);
    let mut scratch = SynthScratch::default();
    sy.synthesize_into(granules[0], &mut swath, &mut scratch);
    for &g in &granules {
        // Read the counters directly: a guard's report allocates itself.
        let before = resource::snapshot().allocated_bytes;
        sy.synthesize_into(g, &mut swath, &mut scratch);
        let allocated = resource::snapshot().allocated_bytes - before;
        assert_eq!(
            allocated, 0,
            "{g:?}: a warm synthesis allocated {allocated} bytes"
        );
    }
}

#[test]
fn a_warm_prediction_into_a_held_scratch_allocates_nothing() {
    let _exclusive = exclusive();
    // The real pipeline's model at both benchmark tile sizes.
    for input in [32, 128] {
        let cfg = AeConfig {
            in_ch: 6,
            c1: 8,
            c2: 16,
            latent: 24,
            input,
            lr: 1e-3,
            lambda: 0.1,
        };
        let model = AiccaModel::pretrained(cfg, SEED);
        let tiles = synthetic_texture_sample(cfg, 4, SEED ^ 1);
        let mut scratch = EncodeScratch::default();
        model.predict_slice(&tiles[0].data, &mut scratch);
        for (i, tile) in tiles.iter().enumerate() {
            // Read the counters directly: a guard's report allocates itself.
            let before = resource::snapshot().allocated_bytes;
            let label = model.predict_slice(&tile.data, &mut scratch);
            let allocated = resource::snapshot().allocated_bytes - before;
            assert_eq!(
                allocated, 0,
                "tile {i} at {input} px: a warm prediction allocated {allocated} bytes"
            );
            assert_eq!(label, model.predict(tile), "tile {i} at {input} px");
        }
    }
}
