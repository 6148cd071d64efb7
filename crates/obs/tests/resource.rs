//! Live counting-allocator coverage: this test binary installs
//! [`CountingAlloc`] directly as its global allocator, so every assertion
//! here exercises the counted path (the lib unit tests cover the
//! no-allocator zero path).

use std::sync::{Arc, Mutex, MutexGuard};

use eoml_obs::resource::{
    self, memory_table, CountingAlloc, ResourceGuard, ALLOC_BYTES_COUNTER, ALLOC_COUNT_COUNTER,
    ALLOC_PEAK_GAUGE,
};
use eoml_obs::Obs;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// The allocator's counters are process-global and `cargo test` runs these
/// tests on parallel threads: a sibling freeing memory inside another's
/// scope breaks its delta and peak assertions. Each test holds this lock.
static COUNTERS: Mutex<()> = Mutex::new(());

fn exclusive() -> MutexGuard<'static, ()> {
    // A failed sibling poisons the lock; the counters it guards are fine.
    COUNTERS.lock().unwrap_or_else(|e| e.into_inner())
}

fn counter(obs: &Obs, name: &str, stage: &str) -> u64 {
    obs.metrics()
        .snapshot()
        .counters
        .iter()
        .find(|(k, _)| k.name == name && k.stage == stage)
        .map(|(_, v)| *v)
        .unwrap_or(0)
}

#[test]
fn counting_allocator_is_live() {
    let _exclusive = exclusive();
    // Getting here required allocating (test harness, strings, ...).
    assert!(resource::counting_active());
    let before = resource::snapshot();
    let block: Vec<u8> = vec![0u8; 1 << 16];
    let after = resource::snapshot();
    assert!(after.allocated_bytes >= before.allocated_bytes + (1 << 16));
    assert!(after.allocation_count > before.allocation_count);
    drop(block);
    let freed = resource::snapshot();
    assert!(freed.freed_bytes >= after.freed_bytes + (1 << 16));
}

#[test]
fn detached_guard_measures_scope_deltas_and_peak() {
    let _exclusive = exclusive();
    let guard = ResourceGuard::detached("preprocess", "tile");
    let block: Vec<u8> = vec![1u8; 1 << 20];
    let mid = guard.measure();
    drop(block);
    let report = guard.finish();
    assert!(mid.allocated_bytes >= 1 << 20, "mid: {mid:?}");
    assert!(report.allocated_bytes >= 1 << 20, "report: {report:?}");
    assert!(report.freed_bytes >= 1 << 20);
    assert!(report.allocation_count >= 1);
    // The 1 MiB block was live inside the scope, so the scope peak must
    // sit at least 1 MiB above the live bytes at entry.
    assert!(
        report.peak_in_use_bytes >= mid.allocated_bytes,
        "peak {} < {}",
        report.peak_in_use_bytes,
        mid.allocated_bytes
    );
    assert_eq!(report.stage, "preprocess");
    assert_eq!(report.name, "tile");
}

#[test]
fn attached_guard_attributes_bytes_to_the_stage_registry() {
    let _exclusive = exclusive();
    let obs = Obs::shared();
    {
        let _guard = ResourceGuard::enter(Arc::clone(&obs), "preprocess", "granule");
        let work: Vec<u64> = (0..200_000).collect();
        assert!(work.len() == 200_000);
    }
    let bytes = counter(&obs, ALLOC_BYTES_COUNTER, "preprocess");
    let count = counter(&obs, ALLOC_COUNT_COUNTER, "preprocess");
    assert!(bytes >= 200_000 * 8, "attributed bytes: {bytes}");
    assert!(count >= 1);
    let peak = obs
        .metrics()
        .gauge_value(ALLOC_PEAK_GAUGE, "preprocess")
        .expect("peak gauge written");
    assert!(peak >= (200_000 * 8) as f64);
}

#[test]
fn successive_guards_accumulate_and_memory_table_reports_them() {
    let _exclusive = exclusive();
    let obs = Obs::shared();
    for _ in 0..2 {
        let _guard = ResourceGuard::enter(Arc::clone(&obs), "download", "chunk");
        let buf: Vec<u8> = vec![0u8; 512 * 1024];
        drop(buf);
    }
    let bytes = counter(&obs, ALLOC_BYTES_COUNTER, "download");
    assert!(bytes >= 2 * 512 * 1024, "accumulated bytes: {bytes}");
    let table = memory_table(&obs.metrics().snapshot());
    assert_eq!(table.name, "fig7_memory");
    let row = table
        .rows
        .iter()
        .find(|r| r[0] == eoml_obs::table::Cell::str("download"))
        .expect("download row present");
    // alloc_mb column: at least 1 MB was charged to the stage.
    match &row[1] {
        eoml_obs::table::Cell::Num { value, .. } => assert!(*value >= 1.0, "alloc_mb {value}"),
        other => panic!("alloc_mb cell should be numeric, got {other:?}"),
    }
}
