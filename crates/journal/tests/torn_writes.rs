//! Property tests of crash safety: truncate or corrupt the journal's bytes
//! at an *arbitrary* offset, and recovery must never panic, must recover a
//! strict prefix of the appended events, and must leave storage in a state
//! that accepts further appends.

use eoml_journal::{Journal, JournalEvent, MemStorage};
use proptest::prelude::*;

/// A small vocabulary of events, decoded from a generator byte + payload.
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

/// Journal `events`, with a snapshot after every `snapshot_every`th of them
/// (0 = none: too few events for an automatic one).
fn write_journal(events: &[JournalEvent], snapshot_every: usize) -> MemStorage {
    let store = MemStorage::new();
    let (mut journal, _) = Journal::open(store.clone()).unwrap();
    for (i, ev) in events.iter().enumerate() {
        journal.append(ev.clone()).unwrap();
        if snapshot_every > 0 && (i + 1) % snapshot_every == 0 {
            journal.snapshot().unwrap();
        }
    }
    store
}

/// Durable events of a journal, with auto-snapshot frames filtered out so
/// they can be compared against what the test appended.
fn non_snapshot_events(store: MemStorage) -> Vec<JournalEvent> {
    let (journal, _) = Journal::open(store).unwrap();
    journal
        .events()
        .iter()
        .filter(|e| !matches!(e, JournalEvent::Snapshot { .. }))
        .cloned()
        .collect()
}

proptest! {
    #[test]
    fn truncation_at_any_offset_recovers_a_strict_prefix(
        kinds in proptest::collection::vec((0u8..5, 0u64..1000), 1..40),
        cut_frac in 0.0f64..1.0,
        snapshot_every in 0usize..10,
    ) {
        let events: Vec<JournalEvent> =
            kinds.iter().map(|&(k, n)| event(k, n)).collect();
        let store = write_journal(&events, snapshot_every);
        let full = store.snapshot_bytes();

        // Tear the tail at an arbitrary byte offset.
        let cut = (full.len() as f64 * cut_frac) as usize;
        store.set_bytes(full[..cut.min(full.len())].to_vec());

        // Recovery must not panic and must yield a strict prefix.
        let (journal, report) = Journal::open(store.clone()).unwrap();
        let recovered: Vec<JournalEvent> = journal
            .events()
            .iter()
            .filter(|e| !matches!(e, JournalEvent::Snapshot { .. }))
            .cloned()
            .collect();
        prop_assert!(recovered.len() <= events.len());
        prop_assert_eq!(&recovered[..], &events[..recovered.len()]);
        // The torn tail was truncated in storage: a second open is clean.
        drop(journal);
        let (_, second) = Journal::open(store.clone()).unwrap();
        prop_assert_eq!(second.truncated_bytes, 0);
        prop_assert_eq!(second.events, report.events);

        // The repaired journal accepts further appends and they survive a
        // reopen.
        let (mut journal, _) = Journal::open(store.clone()).unwrap();
        journal.append(event(0, 424_242)).unwrap();
        let after = non_snapshot_events(store);
        prop_assert_eq!(after.len(), recovered.len() + 1);
        prop_assert_eq!(after.last().unwrap(), &event(0, 424_242));
    }

    /// A zero-filled tail — the classic post-power-loss block zero-fill —
    /// must recover exactly the events before the zeroed region, never
    /// "decode" the zeros as valid empty frames.
    #[test]
    fn zero_filled_tail_recovers_the_prefix_before_it(
        kinds in proptest::collection::vec((0u8..5, 0u64..1000), 1..30),
        zero_from_frac in 0.0f64..1.0,
        zero_len in 1usize..4096,
        snapshot_every in 0usize..10,
    ) {
        let events: Vec<JournalEvent> =
            kinds.iter().map(|&(k, n)| event(k, n)).collect();
        let store = write_journal(&events, snapshot_every);
        let full = store.snapshot_bytes();

        // Zero everything from an arbitrary offset, then pad with more
        // zeros (a zeroed block can extend past the old end of file).
        let zero_from = ((full.len() - 1) as f64 * zero_from_frac) as usize;
        let mut bytes = full[..zero_from].to_vec();
        bytes.resize(full.len() + zero_len, 0);
        store.set_bytes(bytes);

        let (journal, _) = Journal::open(store.clone()).unwrap();
        let recovered: Vec<JournalEvent> = journal
            .events()
            .iter()
            .filter(|e| !matches!(e, JournalEvent::Snapshot { .. }))
            .cloned()
            .collect();
        prop_assert!(recovered.len() <= events.len());
        prop_assert_eq!(&recovered[..], &events[..recovered.len()]);

        // The zeroed region was truncated away; the journal accepts
        // appends and they survive a reopen.
        drop(journal);
        let (mut journal, second) = Journal::open(store.clone()).unwrap();
        prop_assert_eq!(second.truncated_bytes, 0);
        journal.append(event(3, 777_777)).unwrap();
        let after = non_snapshot_events(store);
        prop_assert_eq!(after.len(), recovered.len() + 1);
        prop_assert_eq!(after.last().unwrap(), &event(3, 777_777));
    }

    #[test]
    fn corrupting_any_byte_never_panics_and_keeps_a_prefix(
        kinds in proptest::collection::vec((0u8..5, 0u64..1000), 1..30),
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let events: Vec<JournalEvent> =
            kinds.iter().map(|&(k, n)| event(k, n)).collect();
        let store = write_journal(&events, 0);
        let mut bytes = store.snapshot_bytes();
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= flip;
        store.set_bytes(bytes);

        // The flipped byte invalidates its frame's checksum (or its length
        // prefix): recovery stops at that frame, keeping the prefix before
        // it, and never panics.
        let (journal, _) = Journal::open(store).unwrap();
        let recovered: Vec<JournalEvent> = journal.events().to_vec();
        prop_assert!(recovered.len() < events.len() || recovered == events);
        prop_assert_eq!(&recovered[..], &events[..recovered.len()]);
    }
}
