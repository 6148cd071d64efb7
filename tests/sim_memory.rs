//! What a virtual-time campaign keeps and what it costs the allocator: the
//! bytes a finished `CampaignReport` holds per granule, the bytes its
//! provenance log holds per record (DESIGN §19), and the allocator calls
//! the run makes per granule (DESIGN §28) each have a ceiling. Spans
//! `eoml-obs` (the counting allocator) and `eoml-core` (the campaign, its
//! provenance log and the simulator engines under it). The counters are
//! process-wide, so every reading stays in the one test function.

use eoml::core::campaign::{run_campaign, CampaignParams};
use eoml::obs::resource::{self, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Live heap bytes a finished 4-day report keeps per granule.
const REPORT_BYTES_PER_GRANULE: u64 = 2_560;
/// Live heap bytes its provenance log keeps per record.
const LOG_BYTES_PER_RECORD: u64 = 335;
/// Allocator calls (reallocations included) the 4-day run makes per
/// granule.
const ALLOCATIONS_PER_GRANULE: u64 = 18;

#[test]
fn a_campaign_report_keeps_a_bounded_number_of_bytes_per_granule_and_record() {
    assert!(resource::counting_active());
    let params = |days| CampaignParams {
        days,
        files_per_day: 288,
        ..CampaignParams::paper_demo()
    };
    // A rehearsal first, so lazy set-up is not charged to the measured run.
    drop(run_campaign(params(1)));
    let live = || resource::snapshot().in_use_bytes;

    let (before, calls_before) = (live(), resource::snapshot().allocation_count);
    let mut report = run_campaign(params(4));
    let retained = live() - before;
    let calls = resource::snapshot().allocation_count - calls_before;
    assert_eq!(report.granules, 4 * 288);
    let per_granule = retained / report.granules as u64;
    let calls_per_granule = calls / report.granules as u64;

    // The manifest's lineage shares the log's name table: dropped first, so
    // the table is counted once, with the log.
    drop(report.manifest.take());
    let records = report.provenance.len() as u64;
    let log = std::mem::take(&mut report.provenance);
    let with_log = live();
    drop(log);
    let per_record = (with_log - live()) / records;

    eprintln!(
        "report {per_granule} B/granule, provenance log {per_record} B/record, \
         {calls_per_granule} allocations/granule"
    );
    assert!(
        per_granule <= REPORT_BYTES_PER_GRANULE,
        "the report keeps {per_granule} B per granule (ceiling {REPORT_BYTES_PER_GRANULE})"
    );
    assert!(
        per_record <= LOG_BYTES_PER_RECORD,
        "the provenance log keeps {per_record} B per record (ceiling {LOG_BYTES_PER_RECORD})"
    );
    assert!(
        calls_per_granule <= ALLOCATIONS_PER_GRANULE,
        "the campaign makes {calls_per_granule} allocations per granule \
         (ceiling {ALLOCATIONS_PER_GRANULE})"
    );
}
