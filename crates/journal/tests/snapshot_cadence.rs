//! The automatic snapshot cadence keeps a journal's cost flat as a campaign
//! grows: the log's bytes per granule at 16k granules stay within 1.5× of
//! those at 1k, snapshots never hold more bytes than the other frames plus
//! one snapshot, and a reopen replays fewer than 64 frames or fewer bytes
//! than the snapshot it starts from.

use eoml_journal::frame::HEADER_LEN;
use eoml_journal::{Journal, JournalEvent, MemStorage};

/// One granule's journal entries as the real driver writes them: its tile
/// file's labels, then its shipped digest.
fn granule_events(g: u64) -> [JournalEvent; 2] {
    let file = format!(
        "tiles-MOD021KM.A2022{:03}.{:04}.061.nc",
        1 + g / 288,
        g % 288 * 5
    );
    let bytes = 5_000_000 + g * 7;
    [
        JournalEvent::LabelsAppended {
            file: file.clone(),
            labels: 300 + g % 25,
            bytes,
        },
        JournalEvent::ArtifactDigested {
            file,
            bytes,
            digest: g.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        },
    ]
}

fn frame_bytes(event: &JournalEvent) -> u64 {
    (HEADER_LEN + event.encode().len()) as u64
}

/// Bytes of a journal's frames: `(snapshots, others, last snapshot)`.
fn split_bytes(events: &[JournalEvent]) -> (u64, u64, u64) {
    let (mut snapshots, mut others, mut last) = (0, 0, 0);
    for event in events {
        let n = frame_bytes(event);
        if matches!(event, JournalEvent::Snapshot { .. }) {
            snapshots += n;
            last = n;
        } else {
            others += n;
        }
    }
    (snapshots, others, last)
}

/// Journal `granules` granules through [`Journal::open`], check the
/// snapshot and replay bounds, and return the log's bytes per granule.
fn log_bytes_per_granule(granules: u64) -> f64 {
    let store = MemStorage::new();
    let (mut journal, _) = Journal::open(store.clone()).unwrap();
    for g in 0..granules {
        for event in granule_events(g) {
            journal.append(event).unwrap();
        }
    }
    let (snapshots, others, last) = split_bytes(journal.events());
    assert!(snapshots > 0, "{granules} granules: no automatic snapshot");
    assert!(
        snapshots <= others + last,
        "{granules} granules: snapshots hold {snapshots} B against {others} B of work + {last} B"
    );
    let log = journal.storage_size().unwrap();
    assert_eq!(log, snapshots + others);
    drop(journal);

    let (reopened, report) = Journal::open(store).unwrap();
    let events = reopened.events();
    let at = events
        .iter()
        .rposition(|e| matches!(e, JournalEvent::Snapshot { .. }))
        .unwrap();
    let tail = &events[at + 1..];
    let tail_bytes: u64 = tail.iter().map(frame_bytes).sum();
    assert!(report.snapshot_used);
    assert_eq!(
        report.replayed,
        tail.len() + 1,
        "replay starts at the last snapshot"
    );
    assert!(
        tail.len() < 64 || tail_bytes < frame_bytes(&events[at]),
        "{granules} granules: a reopen replays {} frames, {tail_bytes} B, after a {} B snapshot",
        tail.len(),
        frame_bytes(&events[at])
    );
    log as f64 / granules as f64
}

#[test]
fn journal_bytes_per_granule_stay_flat_from_1k_to_16k_granules() {
    let small = log_bytes_per_granule(1_000);
    let large = log_bytes_per_granule(16_000);
    assert!(
        large <= 1.5 * small,
        "log bytes per granule grew {small:.0} -> {large:.0} B from 1k to 16k granules"
    );
}
