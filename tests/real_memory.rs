//! The real driver's working set is one granule per worker: the peak of
//! live heap bytes over a run must not depend on how many granules the run
//! processes. Spans `eoml-obs` (the counting allocator and its scope guard),
//! `eoml-journal` and `eoml-core` (the real pipeline, plain and resumable).

use eoml::core::realrun::RealPipeline;
use eoml::journal::{Journal, MemStorage};
use eoml::modis::granule::GranuleId;
use eoml::modis::product::Platform;
use eoml::modis::synth::{SwathDims, SwathSynthesizer};
use eoml::obs::resource::{self, CountingAlloc, ResourceGuard};
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
