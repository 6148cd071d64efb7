//! Multi-day campaign scheduler over a journal [`Ledger`].
//!
//! The resumable drivers are deliberately single-day: one journal, one
//! day, one namespace. This module is the multi-day entry point the
//! streaming error message promises — it walks the campaign window one
//! day at a time, opening each day's journal under its own ledger
//! namespace (`day-YYYY-MM-DD/wal.log`), running the single-day resumable
//! driver against it, and compacting the day's journal once the day
//! completes. Killing the process anywhere leaves a ledger that resumes:
//! finished days replay from their (compacted) journals without
//! re-executing anything, and the interrupted day picks up from its last
//! durable event.

use crate::campaign::{run_campaign_resumable, CampaignParams, CampaignReport};
use crate::streaming::{
    run_streaming_campaign_resumable, StreamingError, StreamingParams, StreamingReport,
};
use eoml_journal::{JournalError, Ledger};
use eoml_util::timebase::CivilDate;

/// Ledger namespace for one campaign day.
pub fn day_namespace(date: CivilDate) -> String {
    format!("day-{date}")
}

/// One day of a multi-day run.
#[derive(Debug, Clone)]
pub struct DayRun {
    /// The day.
    pub date: CivilDate,
    /// Ledger namespace holding this day's journal.
    pub namespace: String,
    /// Events recovered from the day's journal before the run (0 on a
    /// fresh day, >0 when resuming).
    pub recovered_events: usize,
    /// The single-day campaign report.
    pub report: CampaignReport,
}

/// Aggregate result of a multi-day scheduled run.
#[derive(Debug, Clone)]
pub struct MultiDayReport {
    /// Per-day runs, in date order.
    pub days: Vec<DayRun>,
    /// Total granules across days.
    pub granules: usize,
    /// Total tile files across days.
    pub tile_files: usize,
    /// Total tiles across days.
    pub total_tiles: f64,
    /// Total labeled files across days.
    pub labeled_files: usize,
    /// Sum of per-day makespans, seconds (days run back to back).
    pub makespan_s: f64,
}

impl MultiDayReport {
    fn push(&mut self, day: DayRun) {
        self.granules += day.report.granules;
        self.tile_files += day.report.tile_files;
        self.total_tiles += day.report.total_tiles;
        self.labeled_files += day.report.labeled_files;
        self.makespan_s += day.report.makespan_s;
        self.days.push(day);
    }
}

/// Run one day of `params` resumably under an explicit ledger `namespace`,
/// compacting the day's journal once it completes.
///
/// This is the single admission quantum both multi-day scheduling and the
/// multi-tenant campaign service are built from: open (or recover) the
/// namespace's journal, run the single-day resumable driver for `date`,
/// then bound the journal to snapshot + tail. Killing the process anywhere
/// inside leaves a journal that resumes; rerunning a completed quantum
/// replays it with zero re-execution.
///
/// `tick`, if given, runs once, after the quantum durably completes
/// (journal compacted) but before the result is returned — the seam the
/// ops plane hangs on: the hook observes the finished [`DayRun`] (makespan
/// advances the sim-time ops clock, counters roll into windows) exactly
/// once per *completed* quantum, so a quantum killed mid-run contributes
/// nothing and is observed on the post-restart replay instead.
pub fn run_day_in_namespace(
    params: &CampaignParams,
    ledger: &Ledger,
    namespace: &str,
    date: CivilDate,
    tick: Option<&dyn Fn(&DayRun)>,
) -> Result<DayRun, JournalError> {
    let (journal, recovery) = ledger.open(namespace)?;
    let day_params = CampaignParams {
        start: date,
        days: 1,
        ..params.clone()
    };
    let report = run_campaign_resumable(day_params, journal)?;
    // The day is durably complete: bound its journal to snapshot+tail.
    let (mut journal, _) = ledger.open(namespace)?;
    journal.compact()?;
    let day = DayRun {
        date,
        namespace: namespace.to_string(),
        recovered_events: recovery.events,
        report,
    };
    if let Some(tick) = tick {
        tick(&day);
    }
    Ok(day)
}

/// Run a multi-day batch campaign resumably against `ledger`.
///
/// `params.days` consecutive days starting at `params.start` each run as
/// an independent single-day [`run_campaign_resumable`] whose journal
/// lives under the ledger namespace [`day_namespace`]`(date)`. After a day
/// completes, its journal is compacted down to snapshot + tail, so a
/// long-running multi-day campaign's ledger stays bounded. On a rerun
/// (same ledger, same params) completed days replay from their journals
/// with zero re-execution and an interrupted day resumes mid-flight.
///
/// The ledger root is held exclusively for the duration of the run: a
/// second concurrent caller over the same root gets a typed
/// [`JournalError::Busy`] instead of the two schedulers interleaving day
/// namespaces. Returns [`JournalError::Crashed`] when a day's journal hits
/// its injected kill point; rerunning with the same ledger resumes. `tick`
/// runs once per completed day (see [`run_day_in_namespace`]).
pub fn run_multi_day_resumable(
    params: CampaignParams,
    ledger: &Ledger,
    tick: Option<&dyn Fn(&DayRun)>,
) -> Result<MultiDayReport, JournalError> {
    let _lock = ledger.lock_exclusive()?;
    let mut out = MultiDayReport {
        days: Vec::new(),
        granules: 0,
        tile_files: 0,
        total_tiles: 0.0,
        labeled_files: 0,
        makespan_s: 0.0,
    };
    for date in params.start.iter_days(params.days) {
        let namespace = day_namespace(date);
        out.push(run_day_in_namespace(
            &params, ledger, &namespace, date, tick,
        )?);
    }
    Ok(out)
}

/// One day of a multi-day streaming run.
#[derive(Debug, Clone)]
pub struct StreamingDayRun {
    /// The day.
    pub date: CivilDate,
    /// Ledger namespace holding this day's journal.
    pub namespace: String,
    /// Events recovered from the day's journal before the run.
    pub recovered_events: usize,
    /// The single-day streaming report.
    pub report: StreamingReport,
}

/// Run a multi-day *streaming* campaign resumably against `ledger` — the
/// multi-day scheduler the single-day [`StreamingError::UnsupportedDays`]
/// error points at. Each day streams its own (compressed) acquisition
/// timeline under its own namespace; days run back to back.
pub fn run_streaming_days_resumable(
    params: StreamingParams,
    ledger: &Ledger,
) -> Result<Vec<StreamingDayRun>, StreamingError> {
    let _lock = ledger.lock_exclusive()?;
    let mut days = Vec::new();
    for date in params.base.start.iter_days(params.base.days) {
        let namespace = format!("stream-{date}");
        let (journal, recovery) = ledger.open(&namespace)?;
        let day_params = StreamingParams {
            base: CampaignParams {
                start: date,
                days: 1,
                ..params.base.clone()
            },
            ..params.clone()
        };
        let report = run_streaming_campaign_resumable(day_params, journal)?;
        let (mut journal, _) = ledger.open(&namespace)?;
        journal.compact()?;
        days.push(StreamingDayRun {
            date,
            namespace,
            recovered_events: recovery.events,
            report,
        });
    }
    Ok(days)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::run_campaign;
    use eoml_journal::{JournalError, JournalEvent};
    use std::path::PathBuf;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "eoml-scheduler-{tag}-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn params(days: usize) -> CampaignParams {
        CampaignParams {
            days,
            files_per_day: 4,
            ..CampaignParams::small()
        }
    }

    #[test]
    fn multi_day_runs_each_day_in_its_own_namespace() {
        let root = tempdir("namespaces");
        let ledger = Ledger::new(&root).unwrap();
        let report = run_multi_day_resumable(params(3), &ledger, None).unwrap();
        assert_eq!(report.days.len(), 3);
        assert_eq!(
            ledger.campaigns().unwrap(),
            vec!["day-2022-01-01", "day-2022-01-02", "day-2022-01-03"]
        );
        // Days differ (different granule sets) but every day did work.
        for day in &report.days {
            assert_eq!(day.recovered_events, 0, "fresh ledger: nothing recovered");
            assert_eq!(day.report.granules, 4);
        }
        assert_eq!(report.granules, 12);
        assert!(report.total_tiles > 0.0);
        // Each day matches a standalone single-day run of that date.
        for day in &report.days {
            let single = run_campaign(CampaignParams {
                start: day.date,
                days: 1,
                ..params(3)
            });
            assert_eq!(day.report.granules, single.granules);
            assert_eq!(day.report.total_tiles, single.total_tiles);
            assert_eq!(day.report.labeled_files, single.labeled_files);
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn tick_hook_fires_once_per_completed_quantum_with_its_makespan() {
        let root = tempdir("ticked");
        let ledger = Ledger::new(&root).unwrap();
        let ticks = std::cell::RefCell::new(Vec::<(String, f64)>::new());
        let tick = |day: &DayRun| {
            ticks
                .borrow_mut()
                .push((day.namespace.clone(), day.report.makespan_s));
        };
        let report = run_multi_day_resumable(params(3), &ledger, Some(&tick)).unwrap();
        let seen = ticks.borrow();
        assert_eq!(seen.len(), 3);
        // One tick per day namespace, carrying that day's makespan; the
        // sum is the ops clock advance for the whole run.
        for (day, (ns, makespan)) in report.days.iter().zip(seen.iter()) {
            assert_eq!(&day.namespace, ns);
            assert_eq!(day.report.makespan_s, *makespan);
            assert!(*makespan > 0.0);
        }
        let total: f64 = seen.iter().map(|(_, m)| m).sum();
        assert!((total - report.makespan_s).abs() < 1e-9);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn rerun_replays_completed_days_without_new_completions() {
        let root = tempdir("replay");
        let ledger = Ledger::new(&root).unwrap();
        let first = run_multi_day_resumable(params(2), &ledger, None).unwrap();
        let sizes_after_first = ledger.total_size().unwrap();
        let second = run_multi_day_resumable(params(2), &ledger, None).unwrap();
        for day in &second.days {
            assert!(
                day.recovered_events > 0,
                "second pass must resume from the journal"
            );
        }
        assert_eq!(first.granules, second.granules);
        assert_eq!(first.total_tiles, second.total_tiles);
        assert_eq!(first.labeled_files, second.labeled_files);
        // Replay journaled nothing new and each day was re-compacted, so
        // the ledger did not grow.
        assert!(ledger.total_size().unwrap() <= sizes_after_first);
        // No completion event appears twice in any day's journal.
        for ns in ledger.campaigns().unwrap() {
            let (journal, _) = ledger.open(&ns).unwrap();
            let mut seen = std::collections::BTreeSet::new();
            for ev in journal.events() {
                if let JournalEvent::LabelsAppended { file, .. } = ev {
                    assert!(seen.insert(file.clone()), "{ns}: duplicate label {file}");
                }
            }
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn crash_on_day_two_resumes_there_and_matches_uninterrupted() {
        let root_a = tempdir("crash-a");
        let root_b = tempdir("crash-b");
        let uninterrupted =
            run_multi_day_resumable(params(2), &Ledger::new(&root_a).unwrap(), None).unwrap();

        // Crash during day 2: open day 2's journal with a kill point set,
        // then run the scheduler — day 1 completes, day 2 dies.
        let ledger = Ledger::new(&root_b).unwrap();
        {
            let (mut j, _) = ledger.open(&day_namespace(params(2).start.succ())).unwrap();
            j.crash_after(5);
            // The kill point lives in the Journal value, not in storage,
            // so drive day 2 directly with the armed journal.
            let day2 = CampaignParams {
                start: params(2).start.succ(),
                days: 1,
                ..params(2)
            };
            let err = run_campaign_resumable(day2, j).unwrap_err();
            assert_eq!(err, JournalError::Crashed);
        }
        // The scheduler now finds a half-written day 2 journal and a fresh
        // day 1; it completes both.
        let resumed = run_multi_day_resumable(params(2), &ledger, None).unwrap();
        assert!(
            resumed.days[1].recovered_events > 0,
            "day 2 must resume from its crashed journal"
        );
        assert_eq!(resumed.granules, uninterrupted.granules);
        assert_eq!(resumed.total_tiles, uninterrupted.total_tiles);
        assert_eq!(resumed.labeled_files, uninterrupted.labeled_files);
        std::fs::remove_dir_all(&root_a).unwrap();
        std::fs::remove_dir_all(&root_b).unwrap();
    }

    #[test]
    fn concurrent_callers_on_one_root_conflict_with_typed_error() {
        let root = tempdir("conflict");
        // Two Ledger values over the same root, driven from two threads:
        // exactly one scheduler may own the root at a time; the loser gets
        // a typed Busy error, never an interleaved/corrupted ledger.
        let a = Ledger::new(&root).unwrap();
        let b = Ledger::new(&root).unwrap();
        let lock = a.lock_exclusive().unwrap();
        let handle = std::thread::spawn(move || run_multi_day_resumable(params(2), &b, None));
        match handle.join().unwrap() {
            Err(JournalError::Busy(_)) => {}
            other => panic!("expected Busy conflict, got {other:?}"),
        }
        // The losing caller wrote nothing.
        assert_eq!(a.list().unwrap(), Vec::<String>::new());
        drop(lock);
        // Once the first caller releases the root, the run goes through
        // and produces the normal day layout.
        let report = run_multi_day_resumable(params(2), &a, None).unwrap();
        assert_eq!(report.days.len(), 2);
        assert_eq!(a.list().unwrap(), vec!["day-2022-01-01", "day-2022-01-02"]);
        // Streaming takes the same root lock.
        let lock = a.lock_exclusive().unwrap();
        let c = Ledger::new(&root).unwrap();
        let mut sp = StreamingParams::demo();
        sp.base = params(1);
        match run_streaming_days_resumable(sp, &c) {
            Err(StreamingError::Journal(JournalError::Busy(_))) => {}
            other => panic!("expected Busy conflict, got {other:?}"),
        }
        drop(lock);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn streaming_days_run_and_resume_per_namespace() {
        let root = tempdir("stream");
        let ledger = Ledger::new(&root).unwrap();
        let mut sp = StreamingParams::demo();
        sp.base = CampaignParams {
            days: 2,
            files_per_day: 3,
            ..CampaignParams::small()
        };
        let days = run_streaming_days_resumable(sp.clone(), &ledger).unwrap();
        assert_eq!(days.len(), 2);
        assert_eq!(
            ledger.campaigns().unwrap(),
            vec!["stream-2022-01-01", "stream-2022-01-02"]
        );
        for day in &days {
            assert_eq!(day.report.granules_downloaded, 3);
            assert_eq!(day.report.shipped_files, day.report.labeled_files);
        }
        // Rerun: pure replay.
        let again = run_streaming_days_resumable(sp, &ledger).unwrap();
        for (a, b) in days.iter().zip(&again) {
            assert!(b.recovered_events > 0);
            assert_eq!(a.report.labeled_files, b.report.labeled_files);
            assert_eq!(a.report.shipped.as_u64(), b.report.shipped.as_u64());
        }
        std::fs::remove_dir_all(&root).unwrap();
    }
}
