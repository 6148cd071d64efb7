//! Crash/resume equivalence for the *real* (on-disk) pipeline: kill a
//! journaled [`RealPipeline::run_resumable`] at every event index, resume
//! against the same workdir + journal, and the final report and the
//! labeled artifacts in the outbox must be byte-identical to an
//! uninterrupted run's — with no journaled-complete stage re-journaled.
//!
//! Spans `eoml-journal` (WAL, recovery, ledger, `FileStorage` durability)
//! and `eoml-core` (the resumable real pipeline).

use eoml::core::realrun::{RealPipeline, RealRunError, RealRunReport};
use eoml::journal::{Journal, JournalEvent, Ledger, MemStorage};
use eoml::modis::granule::GranuleId;
use eoml::modis::product::Platform;
use eoml::modis::synth::{SwathDims, SwathSynthesizer};
use eoml::ncdf::{RecordVarSpan, NC_FILL_INT};
use eoml::preprocess::writer::read_labels;
use eoml::util::timebase::CivilDate;
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

const SEED: u64 = 2022;

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "eoml-realrun-resume-{tag}-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn pipeline(workdir: &Path) -> RealPipeline {
    RealPipeline::new(workdir, SEED, SwathDims::small(), 32, 2)
        .unwrap()
        .with_thresholds(0.0, 0.0)
}

/// One day granule and one night granule: exercises both the tile-file and
/// the no-tiles scan-record journal paths.
fn granules() -> Vec<GranuleId> {
    let sy = SwathSynthesizer::new(SEED, SwathDims::small());
    let date = CivilDate::new(2022, 1, 1).unwrap();
    let all: Vec<GranuleId> = (0..288)
        .map(|slot| GranuleId::new(Platform::Terra, date, slot))
        .collect();
    let day = *all.iter().find(|&&g| sy.synthesize(g).day).unwrap();
    let night = *all.iter().find(|&&g| !sy.synthesize(g).day).unwrap();
    vec![day, night]
}

/// Everything except wall-clock timings must match the baseline, and every
/// labeled artifact must be byte-identical.
fn assert_equivalent(resumed: &RealRunReport, baseline: &RealRunReport, tag: &str) {
    assert_eq!(resumed.granules, baseline.granules, "{tag}: granules");
    assert_eq!(resumed.tile_files, baseline.tile_files, "{tag}: tile files");
    assert_eq!(resumed.total_tiles, baseline.total_tiles, "{tag}: tiles");
    assert_eq!(
        resumed.labeled_tiles, baseline.labeled_tiles,
        "{tag}: labeled tiles"
    );
    assert_eq!(
        resumed.label_histogram, baseline.label_histogram,
        "{tag}: label histogram"
    );
    assert_eq!(
        resumed.outbox.len(),
        baseline.outbox.len(),
        "{tag}: outbox size"
    );
    for (r, b) in resumed.outbox.iter().zip(&baseline.outbox) {
        assert_eq!(r.file_name(), b.file_name(), "{tag}: outbox naming");
        assert_eq!(
            std::fs::read(r).unwrap(),
            std::fs::read(b).unwrap(),
            "{tag}: artifact {:?} not byte-identical",
            r.file_name().unwrap()
        );
    }
}

/// No completion event may appear twice in a journal — re-executing
/// journaled-complete work would journal it again.
fn assert_no_duplicate_completions(events: &[JournalEvent], tag: &str) {
    let mut seen = std::collections::BTreeSet::new();
    for event in events {
        let key = match event {
            JournalEvent::FileDownloaded { file, .. } => Some(format!("dl:{file}")),
            JournalEvent::TileFileWritten { file, .. } => Some(format!("tile:{file}")),
            JournalEvent::LabelsAppended { file, .. } => Some(format!("label:{file}")),
            JournalEvent::MonitorTriggered { file } => Some(format!("monitor:{file}")),
            _ => None,
        };
        if let Some(key) = key {
            assert!(
                seen.insert(key.clone()),
                "{tag}: duplicated completion {key}"
            );
        }
    }
}

#[test]
fn real_run_killed_at_every_event_resumes_to_identical_artifacts() {
    let granules = granules();
    let base_dir = tempdir("baseline");
    let baseline = pipeline(&base_dir).run(&granules).unwrap();
    assert!(!baseline.outbox.is_empty(), "baseline shipped nothing");

    // Learn the journal length from one uninterrupted journaled run.
    let probe = MemStorage::new();
    let probe_dir = tempdir("probe");
    {
        let (mut journal, _) = Journal::open(probe.clone()).unwrap();
        pipeline(&probe_dir)
            .run_resumable(&granules, &mut journal)
            .unwrap();
    }
    let (probe_journal, _) = Journal::open(probe).unwrap();
    let total_events = probe_journal.len();
    assert!(
        total_events >= 14,
        "real run journaled only {total_events} events"
    );
    std::fs::remove_dir_all(&probe_dir).unwrap();

    // crash_after(n) fails the (n+1)th append, so n in 0..total kills the
    // run at every event it would write, from the very first to the last.
    for kill_at in 0..total_events {
        let tag = format!("kill at event {kill_at}/{total_events}");
        let dir = tempdir(&format!("kill-{kill_at}"));
        let p = pipeline(&dir);
        let store = MemStorage::new();
        let (mut journal, _) = Journal::open(store.clone()).unwrap();
        journal.crash_after(kill_at);
        let crashed = p.run_resumable(&granules, &mut journal);
        match crashed {
            Err(RealRunError::Journal(_)) => {}
            other => panic!("{tag}: expected a journal crash, got {other:?}"),
        }
        drop(journal);

        let (mut journal, recovery) = Journal::open(store.clone()).unwrap();
        assert!(recovery.events <= kill_at, "{tag}: recovered too much");
        let resumed = p.run_resumable(&granules, &mut journal).unwrap();
        assert_equivalent(&resumed, &baseline, &tag);
        drop(journal);

        let (final_journal, _) = Journal::open(store).unwrap();
        assert_no_duplicate_completions(final_journal.events(), &tag);
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::remove_dir_all(&base_dir).unwrap();
}

#[test]
fn real_run_killed_at_every_event_resumes_to_the_uninterrupted_journal_state() {
    // Whatever a kill leaves unjournaled — including files a worker shipped
    // after the event that failed — the resumed journal holds exactly the
    // work an uninterrupted run's does.
    let granules = granules();
    let probe_dir = tempdir("state-probe");
    let (mut probe, _) = Journal::open(MemStorage::new()).unwrap();
    pipeline(&probe_dir)
        .run_resumable(&granules, &mut probe)
        .unwrap();
    std::fs::remove_dir_all(&probe_dir).unwrap();
    let (total_events, (_, work)) = (probe.len(), probe.state_digest());

    for kill_at in 0..total_events {
        let tag = format!("kill at event {kill_at}/{total_events}");
        let dir = tempdir(&format!("state-{kill_at}"));
        let p = pipeline(&dir);
        let store = MemStorage::new();
        let (mut journal, _) = Journal::open(store.clone()).unwrap();
        journal.crash_after(kill_at);
        assert!(p.run_resumable(&granules, &mut journal).is_err(), "{tag}");
        drop(journal);
        let (mut journal, _) = Journal::open(store).unwrap();
        p.run_resumable(&granules, &mut journal).unwrap();
        assert_eq!(journal.state_digest().1, work, "{tag}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn run_killed_inside_the_label_write_resumes_to_identical_artifacts() {
    // The append action writes the labels into the tile file one record at
    // a time. Put a run where inference begins (tile file written, nothing
    // labeled), write the first k of the N labels by hand — what a kill
    // after k of those writes leaves on disk — and resume: the infer action
    // must see an unlabeled file, predict again and label it whole.
    let granules = granules();
    let base_dir = tempdir("patch-base");
    let store = MemStorage::new();
    let (mut journal, _) = Journal::open(store.clone()).unwrap();
    let baseline = pipeline(&base_dir)
        .run_resumable(&granules, &mut journal)
        .unwrap();
    let shipped = &baseline.outbox[0];
    let labels = read_labels(&mut std::fs::File::open(shipped).unwrap())
        .unwrap()
        .expect("baseline artifact is labeled");
    let n = labels.len();
    assert!(n > 2);

    for k in [0, 1, n - 1] {
        let tag = format!("killed after {k} of {n} label writes");
        let dir = tempdir(&format!("patch-{k}"));
        let p = pipeline(&dir);
        let store = as_inference_begins(&p, &dir, &granules);

        let tile_file = dir.join("tiles").join(shipped.file_name().unwrap());
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&tile_file)
            .unwrap();
        assert_eq!(read_labels(&mut file).unwrap(), None, "{tag}: reserved");
        let span = RecordVarSpan::locate(&mut file, "aicca_label").unwrap();
        assert_eq!(span.numrecs(), n);
        for (i, label) in labels[..k].iter().enumerate() {
            let at = span.begin() + i as u64 * span.record_stride();
            file.seek(SeekFrom::Start(at)).unwrap();
            file.write_all(&label.to_be_bytes()).unwrap();
        }
        assert_eq!(read_labels(&mut file).unwrap(), None, "{tag}: partial");
        drop(file);

        let (mut journal, _) = Journal::open(store.clone()).unwrap();
        let resumed = p.run_resumable(&granules, &mut journal).unwrap();
        assert_equivalent(&resumed, &baseline, &tag);
        assert_no_duplicate_completions(journal.events(), &tag);
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::remove_dir_all(&base_dir).unwrap();
}

/// Five day granules: with the pipeline's two workers, more than one
/// inference flow is in flight at a time.
fn day_granules() -> Vec<GranuleId> {
    let sy = SwathSynthesizer::new(SEED, SwathDims::small());
    let date = CivilDate::new(2022, 1, 1).unwrap();
    (0..288)
        .map(|slot| GranuleId::new(Platform::Terra, date, slot))
        .filter(|&g| sy.synthesize(g).day)
        .take(5)
        .collect()
}

/// The `.nc` files of `tiles/` and of `outbox/`, by name.
fn tile_files(workdir: &Path) -> [Vec<String>; 2] {
    ["tiles", "outbox"].map(|sub| {
        let mut names: Vec<String> = std::fs::read_dir(workdir.join(sub))
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.ends_with(".nc"))
            .collect();
        names.sort();
        names
    })
}

/// Where a run stands as inference begins — every tile file written and
/// journaled, no flow started — built from a finished run of `p` over
/// `granules` in `workdir`: each shipped file goes back into `tiles/` with
/// its label records reset to `NC_FILL_INT`, and the journal is the finished
/// run's events up to its first `StageFinished`, minus every
/// `MonitorTriggered` and `LabelsAppended`. Returns the journal's storage.
fn as_inference_begins(p: &RealPipeline, workdir: &Path, granules: &[GranuleId]) -> MemStorage {
    let (mut finished, _) = Journal::open(MemStorage::new()).unwrap();
    p.run_resumable(granules, &mut finished).unwrap();
    let [_, shipped] = tile_files(workdir);
    for name in shipped {
        let tile_file = workdir.join("tiles").join(&name);
        std::fs::rename(workdir.join("outbox").join(&name), &tile_file).unwrap();
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&tile_file)
            .unwrap();
        let span = RecordVarSpan::locate(&mut file, "aicca_label").unwrap();
        for i in 0..span.numrecs() as u64 {
            file.seek(SeekFrom::Start(span.begin() + i * span.record_stride()))
                .unwrap();
            file.write_all(&NC_FILL_INT.to_be_bytes()).unwrap();
        }
    }
    let store = MemStorage::new();
    let (mut journal, _) = Journal::open(store.clone()).unwrap();
    let unfinished = finished
        .events()
        .iter()
        .take_while(|e| !matches!(e, JournalEvent::StageFinished { .. }));
    for event in unfinished.filter(|e| {
        !matches!(
            e,
            JournalEvent::MonitorTriggered { .. } | JournalEvent::LabelsAppended { .. }
        )
    }) {
        journal.append(event.clone()).unwrap();
    }
    store
}

#[test]
fn real_run_killed_with_flows_in_flight_resumes_to_identical_artifacts() {
    let granules = day_granules();
    let base_dir = tempdir("flight-base");
    let store = MemStorage::new();
    let (mut journal, _) = Journal::open(store).unwrap();
    let baseline = pipeline(&base_dir)
        .run_resumable(&granules, &mut journal)
        .unwrap();
    assert_eq!(baseline.outbox.len(), granules.len());
    let at = |event: JournalEvent| journal.events().iter().position(|e| *e == event).unwrap();
    let stage = at(JournalEvent::stage_started("inference"))
        ..=at(JournalEvent::stage_finished("inference"));
    // Each granule's four work events in transition order, granule after
    // granule.
    let inside = &journal.events()[*stage.start() + 1..*stage.end()];
    for (g, burst) in granules.iter().zip(inside.chunks(4)) {
        let file = format!("tiles-{g}.nc");
        let downloaded = g.to_string();
        assert!(
            matches!(&burst[0], JournalEvent::FileDownloaded { file: f, .. } if *f == downloaded)
        );
        assert!(matches!(&burst[1], JournalEvent::TileFileWritten { file: f, .. } if *f == file));
        assert_eq!(
            burst[2],
            JournalEvent::MonitorTriggered { file: file.clone() }
        );
        assert!(matches!(&burst[3], JournalEvent::LabelsAppended { file: f, .. } if *f == file));
    }

    for kill_at in stage {
        let tag = format!("kill at inference event {kill_at}");
        let dir = tempdir(&format!("flight-{kill_at}"));
        let p = pipeline(&dir);
        let store = MemStorage::new();
        let (mut journal, _) = Journal::open(store.clone()).unwrap();
        journal.crash_after(kill_at);
        match p.run_resumable(&granules, &mut journal) {
            Err(RealRunError::Journal(_)) => {}
            other => panic!("{tag}: expected a journal crash, got {other:?}"),
        }
        drop(journal);
        // Every worker was joined before the call returned: each tile file
        // is in at most one place (a kill before a granule was tiled leaves
        // none), whatever reached the outbox is labeled whole, and nothing
        // moves between the return and the resume.
        let [waiting, shipped] = tile_files(&dir);
        assert!(waiting.len() + shipped.len() <= granules.len(), "{tag}");
        assert!(waiting.iter().all(|name| !shipped.contains(name)), "{tag}");
        for name in &shipped {
            let mut file = std::fs::File::open(dir.join("outbox").join(name)).unwrap();
            assert!(read_labels(&mut file).unwrap().is_some(), "{tag}: {name}");
        }
        let (mut journal, _) = Journal::open(store.clone()).unwrap();
        assert_eq!(tile_files(&dir), [waiting, shipped], "{tag}: files moved");
        let resumed = p.run_resumable(&granules, &mut journal).unwrap();
        assert_equivalent(&resumed, &baseline, &tag);
        drop(journal);
        let (final_journal, _) = Journal::open(store).unwrap();
        assert_no_duplicate_completions(final_journal.events(), &tag);
        let labeled = |e: &&JournalEvent| matches!(e, JournalEvent::LabelsAppended { .. });
        let labeled = final_journal.events().iter().filter(labeled).count();
        assert_eq!(labeled, granules.len(), "{tag}: completions");
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::remove_dir_all(&base_dir).unwrap();
}

#[test]
fn run_killed_with_three_files_mid_flow_resumes_to_identical_artifacts() {
    // What a kill can leave when several flows were running: one file
    // partly labeled, one labeled whole but not yet moved, one moved but
    // not yet journaled. Put a run where inference begins, put the first
    // three tile files into those states by hand, and resume.
    let granules = day_granules();
    let base_dir = tempdir("midflow-base");
    let store = MemStorage::new();
    let (mut journal, _) = Journal::open(store).unwrap();
    let baseline = pipeline(&base_dir)
        .run_resumable(&granules, &mut journal)
        .unwrap();

    let dir = tempdir("midflow");
    let p = pipeline(&dir);
    let store = as_inference_begins(&p, &dir, &granules);

    for (state, shipped) in baseline.outbox.iter().take(3).enumerate() {
        let labels = read_labels(&mut std::fs::File::open(shipped).unwrap())
            .unwrap()
            .expect("baseline artifact is labeled");
        let name = shipped.file_name().unwrap();
        let tile_file = dir.join("tiles").join(name);
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&tile_file)
            .unwrap();
        assert_eq!(read_labels(&mut file).unwrap(), None, "reserved");
        // State 0 stops one label short; 1 and 2 are labeled whole.
        let written = if state == 0 {
            labels.len() - 1
        } else {
            labels.len()
        };
        let span = RecordVarSpan::locate(&mut file, "aicca_label").unwrap();
        for (i, label) in labels[..written].iter().enumerate() {
            let at = span.begin() + i as u64 * span.record_stride();
            file.seek(SeekFrom::Start(at)).unwrap();
            file.write_all(&label.to_be_bytes()).unwrap();
        }
        assert_eq!(read_labels(&mut file).unwrap().is_some(), state > 0);
        drop(file);
        if state == 2 {
            std::fs::rename(&tile_file, dir.join("outbox").join(name)).unwrap();
        }
    }

    let (mut journal, _) = Journal::open(store).unwrap();
    let resumed = p.run_resumable(&granules, &mut journal).unwrap();
    assert_equivalent(&resumed, &baseline, "three files mid-flow");
    assert_no_duplicate_completions(journal.events(), "three files mid-flow");
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&base_dir).unwrap();
}

#[test]
fn real_run_survives_two_crashes_in_a_row() {
    let granules = granules();
    let base_dir = tempdir("twice-base");
    let baseline = pipeline(&base_dir).run(&granules).unwrap();

    let dir = tempdir("twice");
    let p = pipeline(&dir);
    let store = MemStorage::new();
    let (mut journal, _) = Journal::open(store.clone()).unwrap();
    journal.crash_after(4);
    assert!(p.run_resumable(&granules, &mut journal).is_err());
    drop(journal);
    let (mut journal, _) = Journal::open(store.clone()).unwrap();
    journal.crash_after(5);
    assert!(p.run_resumable(&granules, &mut journal).is_err());
    drop(journal);
    let (mut journal, _) = Journal::open(store.clone()).unwrap();
    let resumed = p.run_resumable(&granules, &mut journal).unwrap();
    assert_equivalent(&resumed, &baseline, "after two crashes");
    drop(journal);
    let (final_journal, _) = Journal::open(store).unwrap();
    assert_no_duplicate_completions(final_journal.events(), "after two crashes");
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&base_dir).unwrap();
}

#[test]
fn on_disk_ledger_run_crashes_and_resumes_across_file_journals() {
    // The fully-durable configuration: FileStorage journal under a ledger
    // namespace, crash mid-run, reopen from disk, resume, then compact.
    let granules = granules();
    let base_dir = tempdir("ledger-base");
    let baseline = pipeline(&base_dir).run(&granules).unwrap();

    let dir = tempdir("ledger-work");
    let ledger_dir = tempdir("ledger-root");
    let ledger = Ledger::new(&ledger_dir).unwrap();
    let p = pipeline(&dir);

    let (mut journal, _) = ledger.open("day-2022-01-01").unwrap();
    journal.crash_after(7);
    assert!(p.run_resumable(&granules, &mut journal).is_err());
    drop(journal);

    // The crash left a real wal.log behind; reopen it from disk.
    assert!(ledger.contains("day-2022-01-01"));
    let (mut journal, recovery) = ledger.open("day-2022-01-01").unwrap();
    assert!(recovery.events > 0 && recovery.events <= 7);
    let resumed = p.run_resumable(&granules, &mut journal).unwrap();
    assert_equivalent(&resumed, &baseline, "ledger resume");
    drop(journal);

    // Replay once more (nothing to redo), then compact the whole ledger:
    // the journal shrinks and still reopens to the same state.
    let (mut journal, _) = ledger.open("day-2022-01-01").unwrap();
    let replay = p.run_resumable(&granules, &mut journal).unwrap();
    assert_equivalent(&replay, &baseline, "ledger replay");
    drop(journal);
    let before = ledger.total_size().unwrap();
    let compacted = ledger.compact_all().unwrap();
    assert_eq!(compacted.len(), 1);
    assert!(
        ledger.total_size().unwrap() < before,
        "compaction must shrink"
    );
    let (mut journal, rep) = ledger.open("day-2022-01-01").unwrap();
    assert!(rep.snapshot_used);
    let after_compact = p.run_resumable(&granules, &mut journal).unwrap();
    assert_equivalent(&after_compact, &baseline, "post-compaction replay");

    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&base_dir).unwrap();
    std::fs::remove_dir_all(&ledger_dir).unwrap();
}
