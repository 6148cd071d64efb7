//! Compaction safety: compacting must never change what a reopen
//! rebuilds, must bound replay cost, and a crash mid-compaction (temp
//! image written, rename not reached) must leave the pre-compaction
//! journal fully recoverable.

use eoml_journal::{CampaignState, FileStorage, Journal, JournalEvent, MemStorage, Storage};
use proptest::prelude::*;
use std::path::PathBuf;

fn event(kind: u8, n: u64) -> JournalEvent {
    match kind % 5 {
        0 => JournalEvent::FileDownloaded {
            file: format!("f{n}.hdf"),
            bytes: n.wrapping_mul(131) % 1_000_000,
        },
        1 => JournalEvent::TileFileWritten {
            file: format!("tiles-{n}.nc"),
            tiles: n % 150,
        },
        2 => JournalEvent::MonitorTriggered {
            file: format!("tiles-{n}.nc"),
        },
        3 => JournalEvent::LabelsAppended {
            file: format!("tiles-{n}.nc"),
            labels: n % 150,
            bytes: n.wrapping_mul(4096) % 10_000_000,
        },
        _ => JournalEvent::StageStarted {
            stage: format!("stage-{}", n % 7),
        },
    }
}

/// Reopen and return the state with the snapshot bookkeeping counter
/// normalised out — compaction legitimately appends an extra snapshot
/// frame, which bumps `events_applied` without changing real state.
fn reopened_state(store: MemStorage) -> CampaignState {
    let (journal, _) = Journal::open(store).unwrap();
    let mut state = journal.state().clone();
    state.events_applied = 0;
    state
}

/// Append `events`, with a snapshot after every `snapshot_every`th of them.
fn append_all<S: Storage>(j: &mut Journal<S>, events: &[JournalEvent], snapshot_every: usize) {
    for (i, ev) in events.iter().enumerate() {
        j.append(ev.clone()).unwrap();
        if (i + 1) % snapshot_every == 0 {
            j.snapshot().unwrap();
        }
    }
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "eoml-compaction-{tag}-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

proptest! {
    /// Path A appends everything; path B compacts at an arbitrary split
    /// point in between. Both reopen to identical state, and B's replay
    /// cost stays bounded by the snapshot cadence.
    #[test]
    fn compact_then_reopen_equals_no_compact_reopen(
        kinds in proptest::collection::vec((0u8..5, 0u64..1000), 1..60),
        split_frac in 0.0f64..1.0,
        snapshot_every in 1usize..10,
    ) {
        let events: Vec<JournalEvent> =
            kinds.iter().map(|&(k, n)| event(k, n)).collect();
        let split = ((events.len() as f64) * split_frac) as usize;

        let plain = MemStorage::new();
        let (mut j, _) = Journal::open(plain.clone()).unwrap();
        append_all(&mut j, &events, snapshot_every);
        drop(j);

        let compacted = MemStorage::new();
        let (mut j, _) = Journal::open(compacted.clone()).unwrap();
        append_all(&mut j, &events[..split], snapshot_every);
        let report = j.compact().unwrap();
        prop_assert!(report.after_bytes > 0, "compacted image never empty");
        append_all(&mut j, &events[split..], snapshot_every);
        let live = {
            let mut s = j.state().clone();
            s.events_applied = 0;
            s
        };
        drop(j);

        prop_assert_eq!(reopened_state(plain), reopened_state(compacted.clone()));
        prop_assert_eq!(reopened_state(compacted.clone()), live);

        // Replay cost after compaction stays O(snapshot cadence): at most
        // the snapshot frame itself plus one cadence window of tail.
        let (_, rep) = Journal::open(compacted).unwrap();
        prop_assert!(
            rep.replayed <= snapshot_every + 1,
            "replayed {} > cadence {}",
            rep.replayed,
            snapshot_every
        );
    }
}

#[test]
fn many_appends_then_compact_shrinks_file_and_bounds_replay() {
    let dir = tempdir("bound");
    let path = dir.join("wal.log");
    let snapshot_every = 8usize;
    let (mut j, _) = Journal::open(FileStorage::new(&path)).unwrap();
    // N >> snapshot_every appends.
    let events: Vec<_> = (0..500).map(|i| event((i % 5) as u8, i as u64)).collect();
    append_all(&mut j, &events, snapshot_every);
    let before = std::fs::metadata(&path).unwrap().len();
    let report = j.compact().unwrap();
    let after = std::fs::metadata(&path).unwrap().len();
    assert!(after < before, "file must shrink: {before} -> {after}");
    assert_eq!(report.before_bytes, before);
    assert_eq!(report.after_bytes, after);
    drop(j);

    let (j2, rep) = Journal::open(FileStorage::new(&path)).unwrap();
    assert!(
        rep.replayed <= snapshot_every,
        "replayed {} > {snapshot_every}",
        rep.replayed
    );
    assert!(rep.snapshot_used);
    assert!(j2.state().is_downloaded("f495.hdf"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn crash_mid_compaction_recovers_the_precompaction_journal() {
    let dir = tempdir("crash");
    let path = dir.join("wal.log");
    let (mut j, _) = Journal::open(FileStorage::new(&path)).unwrap();
    let events: Vec<_> = (0..40).map(|i| event((i % 5) as u8, i as u64)).collect();
    append_all(&mut j, &events, 6);
    let mut expected = j.state().clone();
    expected.events_applied = 0;
    drop(j);
    let wal_bytes = std::fs::read(&path).unwrap();

    // Simulate a crash after the compaction image was staged but before
    // the rename: the temp file exists (here: a partial, garbage image),
    // the real journal untouched.
    let temp = FileStorage::new(&path).compact_path();
    std::fs::write(&temp, &wal_bytes[..wal_bytes.len() / 3]).unwrap();

    // Recovery ignores the staging file entirely and reopens the full
    // pre-compaction journal.
    let (j2, rep) = Journal::open(FileStorage::new(&path)).unwrap();
    assert_eq!(rep.truncated_bytes, 0, "journal itself is intact");
    let mut got = j2.state().clone();
    got.events_applied = 0;
    assert_eq!(got, expected);

    // The next compaction overwrites the stale staging file and succeeds.
    let mut j2 = j2;
    let report = j2.compact().unwrap();
    assert!(report.after_bytes < report.before_bytes);
    assert!(!temp.exists(), "staging file consumed by the rename");
    drop(j2);
    let (j3, _) = Journal::open(FileStorage::new(&path)).unwrap();
    let mut got = j3.state().clone();
    got.events_applied = 0;
    assert_eq!(got, expected, "post-compaction state still matches");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn crash_exactly_at_rename_means_new_image_is_complete() {
    // The other half of the swap protocol: if the rename DID happen, the
    // new image must be complete and self-sufficient. Emulate by calling
    // replace_all directly and reopening.
    let dir = tempdir("renamed");
    let path = dir.join("wal.log");
    let (mut j, _) = Journal::open(FileStorage::new(&path)).unwrap();
    let events: Vec<_> = (0..30).map(|i| event((i % 5) as u8, i as u64)).collect();
    append_all(&mut j, &events, 4);
    let mut expected = j.state().clone();
    j.compact().unwrap();
    expected.events_applied = 0;
    drop(j);

    let (j2, rep) = Journal::open(FileStorage::new(&path)).unwrap();
    assert_eq!(rep.truncated_bytes, 0);
    assert!(rep.snapshot_used);
    let mut got = j2.state().clone();
    got.events_applied = 0;
    assert_eq!(got, expected);
    std::fs::remove_dir_all(&dir).unwrap();
}
