//! Journal compaction: rewrite the append-only storage down to
//! latest-snapshot + tail, bounding on-disk growth for long campaigns.
//!
//! The swap is atomic at the [`Storage`] layer — [`FileStorage`] writes the
//! compacted image to a sibling `<wal>.compact` temp file, fsyncs it, and
//! renames it over the journal; `MemStorage` swaps its buffer under one
//! lock. A crash at any point mid-compaction therefore leaves either the
//! old journal or the new one, never a hybrid: recovery of the
//! pre-compaction journal is exercised by the mid-compaction crash tests.
//!
//! [`FileStorage`]: crate::storage::FileStorage
//! [`MemStorage`]: crate::storage::MemStorage

use crate::event::JournalEvent;
use crate::frame;
use crate::storage::Storage;
use crate::wal::{Journal, JournalError};

/// What one [`Journal::compact`] call did.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CompactionReport {
    /// Storage size before the rewrite.
    pub before_bytes: u64,
    /// Storage size after the rewrite.
    pub after_bytes: u64,
    /// Events dropped from the in-memory log (everything before the
    /// snapshot that now leads the journal).
    pub events_dropped: usize,
    /// Whether a fresh snapshot had to be appended first (the journal had
    /// trailing events after its last snapshot, or no snapshot at all).
    pub snapshot_appended: bool,
}

impl CompactionReport {
    /// Bytes reclaimed by the rewrite (0 when compaction grew the file,
    /// which can happen on a snapshotless journal shorter than one
    /// snapshot frame).
    pub fn reclaimed_bytes(&self) -> u64 {
        self.before_bytes.saturating_sub(self.after_bytes)
    }
}

impl<S: Storage> Journal<S> {
    /// Rewrite storage to latest-snapshot + tail, atomically.
    ///
    /// If events trail the last snapshot (or no snapshot exists yet), a
    /// fresh snapshot of the current state is appended first — it consumes
    /// the injected-crash budget like any append — so the compacted image
    /// always starts with a snapshot and reopening replays at most the
    /// tail written after it. Live state, and what a reopen would rebuild,
    /// are unchanged by compaction.
    pub fn compact(&mut self) -> Result<CompactionReport, JournalError> {
        if self.crashed {
            return Err(JournalError::Crashed);
        }
        let before_bytes = self.storage.len().map_err(JournalError::Io)?;
        // Ensure a snapshot of the current state closes the log.
        let snapshot_appended = self.cadence.since > 0
            || !matches!(self.events.last(), Some(JournalEvent::Snapshot { .. }));
        if snapshot_appended {
            self.write_snapshot()?;
        }
        let keep_from = self
            .events
            .iter()
            .rposition(|e| matches!(e, JournalEvent::Snapshot { .. }))
            .expect("snapshot appended above");
        // Re-encode the retained suffix into a fresh image and swap it in.
        let mut image = Vec::new();
        for ev in &self.events[keep_from..] {
            image.extend_from_slice(&frame::encode(&ev.encode()));
        }
        self.storage.replace_all(&image).map_err(JournalError::Io)?;
        self.events.drain(..keep_from);
        self.snapshots_since_compact = 0;
        let after_bytes = self.storage.len().map_err(JournalError::Io)?;
        let report = CompactionReport {
            before_bytes,
            after_bytes,
            events_dropped: keep_from,
            snapshot_appended,
        };
        if let Some(obs) = &self.obs {
            obs.counter_add("compactions", "journal", 1);
            obs.counter_add("compacted_bytes", "journal", report.reclaimed_bytes());
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;
    use crate::wal::RecoveryReport;
    use eoml_obs::Obs;
    use std::sync::Arc;

    fn ev(i: usize) -> JournalEvent {
        JournalEvent::FileDownloaded {
            file: format!("file-{i}.hdf"),
            bytes: 1000 + i as u64,
        }
    }

    #[test]
    fn compact_shrinks_storage_and_preserves_state() {
        let store = MemStorage::new();
        let (mut j, _) = Journal::open(store.clone()).unwrap();
        for i in 0..100 {
            j.append_snapshotting(ev(i), 8);
        }
        let live = j.state().clone();
        let before = j.storage_size().unwrap();
        let report = j.compact().unwrap();
        assert_eq!(report.before_bytes, before);
        assert!(
            report.after_bytes < report.before_bytes,
            "compaction must shrink {} -> {}",
            report.before_bytes,
            report.after_bytes
        );
        // Live state is unchanged apart from the bookkeeping counter the
        // compaction snapshot bumps.
        let mut expect = live;
        expect.events_applied = j.state().events_applied;
        assert_eq!(j.state(), &expect, "live state unchanged");

        // Reopen: same state, bounded replay.
        let (j2, rep) = Journal::open(store).unwrap();
        assert_eq!(j2.state(), &expect);
        assert!(rep.snapshot_used);
        assert!(rep.replayed <= 8 + 1, "replayed {}", rep.replayed);
    }

    #[test]
    fn compact_on_fresh_snapshot_is_stable() {
        let store = MemStorage::new();
        let (mut j, _) = Journal::open(store.clone()).unwrap();
        for i in 0..10 {
            j.append(ev(i)).unwrap();
        }
        let first = j.compact().unwrap();
        assert!(first.snapshot_appended);
        // Compacting again immediately neither appends a snapshot nor
        // changes the size: the journal is already snapshot-only.
        let second = j.compact().unwrap();
        assert!(!second.snapshot_appended);
        assert_eq!(second.before_bytes, second.after_bytes);
        assert_eq!(second.events_dropped, 0);
    }

    #[test]
    fn auto_compact_bounds_storage_growth() {
        let store = MemStorage::new();
        let (j, _) = Journal::open(store.clone()).unwrap();
        let mut j = j.with_auto_compact(2);
        let mut peak = 0u64;
        for i in 0..200 {
            j.append_snapshotting(ev(i), 4);
            peak = peak.max(j.storage_size().unwrap());
        }
        // Without compaction 200 events + 50 snapshots would accumulate;
        // with it, storage stays within a few snapshot-cadence windows.
        let final_size = j.storage_size().unwrap();
        let (j2, rep) = Journal::open(store).unwrap();
        assert_eq!(j2.state(), j.state());
        assert!(rep.replayed <= 4 + 1, "replayed {}", rep.replayed);
        assert!(
            final_size < peak || rep.events < 20,
            "auto-compact never shrank storage (final {final_size}, peak {peak})"
        );
        assert!(
            rep.events < 30,
            "auto-compacted journal still holds {} events",
            rep.events
        );
    }

    #[test]
    fn compact_records_metrics() {
        let obs = Obs::shared();
        let store = MemStorage::new();
        let (mut j, _) = Journal::open_observed(store, Arc::clone(&obs)).unwrap();
        for i in 0..50 {
            j.append(ev(i)).unwrap();
        }
        let report = j.compact().unwrap();
        let counter = |name: &str| obs.metrics().counter_value(name, "journal").unwrap_or(0);
        assert_eq!(counter("compactions"), 1);
        assert_eq!(counter("compacted_bytes"), report.reclaimed_bytes());
        assert!(report.reclaimed_bytes() > 0);
    }

    #[test]
    fn compact_after_crash_is_refused() {
        let store = MemStorage::new();
        let (mut j, _) = Journal::open(store).unwrap();
        j.crash_after(1);
        j.append(ev(0)).unwrap();
        assert_eq!(j.append(ev(1)), Err(JournalError::Crashed));
        assert_eq!(j.compact(), Err(JournalError::Crashed));
    }

    #[test]
    fn compacting_an_empty_journal_starts_it_with_a_snapshot() {
        let store = MemStorage::new();
        let (mut j, _) = Journal::open(store.clone()).unwrap();
        let report = j.compact().unwrap();
        assert!(report.snapshot_appended);
        let (j2, rep) = Journal::open(store).unwrap();
        assert_eq!(rep.snapshots_seen, 1);
        assert!(j2.state().seed.is_none() && j2.state().downloaded.is_empty());
        assert_ne!(rep, RecoveryReport::default());
    }
}
