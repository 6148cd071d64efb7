//! The journal proper: append events durably, recover a strict prefix after
//! any crash (torn tails are truncated, never fatal), and maintain the
//! materialised [`CampaignState`] both live and across recovery.
//!
//! Crash injection is built in: [`Journal::crash_after`] arms a countdown
//! after which appends fail as if the process died mid-run. Drivers treat
//! an append error as a hard stop, so tests can kill a campaign at any
//! event index deterministically.

use crate::event::JournalEvent;
use crate::frame::{self, FrameOutcome};
use crate::state::CampaignState;
use crate::storage::Storage;
use eoml_obs::Obs;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Journal failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// Underlying storage failed.
    Io(String),
    /// The injected crash point was reached (or a previous append crashed);
    /// no further events are accepted.
    Crashed,
    /// A campaign namespace fails [`crate::Ledger`]'s naming rules
    /// (`[A-Za-z0-9._-]+`, not dot-led, ≤128 bytes).
    InvalidNamespace(String),
    /// [`crate::Ledger::create`] found the namespace already holds a
    /// journal; callers use this to reject a duplicate submit gracefully.
    DuplicateNamespace(String),
    /// The namespace holds no journal (e.g. [`crate::Ledger::remove`] of a
    /// campaign that was never created or is already gone).
    UnknownNamespace(String),
    /// Another caller in this process holds the exclusive lock on the
    /// ledger root (see [`crate::Ledger::lock_exclusive`]); concurrent
    /// drivers over one root would interleave namespaces unpredictably.
    Busy(String),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(msg) => write!(f, "journal I/O error: {msg}"),
            JournalError::Crashed => write!(f, "journal crashed (injected kill point)"),
            JournalError::InvalidNamespace(name) => {
                write!(
                    f,
                    "invalid campaign namespace {name:?} (want [A-Za-z0-9._-]+, not dot-led, ≤128 bytes)"
                )
            }
            JournalError::DuplicateNamespace(name) => {
                write!(f, "campaign namespace {name:?} already exists")
            }
            JournalError::UnknownNamespace(name) => {
                write!(f, "campaign namespace {name:?} does not exist")
            }
            JournalError::Busy(root) => {
                write!(f, "ledger root {root:?} is locked by another caller")
            }
        }
    }
}

impl std::error::Error for JournalError {}

/// What [`Journal::open`] found.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Events recovered (the strict prefix that was durable).
    pub events: usize,
    /// Torn-tail bytes discarded by truncation.
    pub truncated_bytes: u64,
    /// Events replayed after the snapshot used (equals `events` when no
    /// snapshot was usable) — the O(tail) recovery cost.
    pub replayed: usize,
    /// Snapshot frames seen in the recovered prefix. Only the last valid
    /// one seeds state; the rest are dead weight compaction reclaims.
    pub snapshots_seen: usize,
    /// Whether state was actually rebuilt from a snapshot (false when the
    /// prefix held none, or none parsed — then the whole log replays).
    pub snapshot_used: bool,
}

impl RecoveryReport {
    /// Record this recovery as obs metrics under the `journal` stage:
    /// `frames_replayed`, `torn_tail_bytes_truncated`, `snapshots_seen`,
    /// `snapshots_used` (0/1 per open), `events_recovered`, and a
    /// `recoveries` count. Counters accumulate, so repeated opens against
    /// one hub sum their recovery costs.
    pub fn record(&self, obs: &Obs) {
        obs.counter_add("recoveries", "journal", 1);
        obs.counter_add("events_recovered", "journal", self.events as u64);
        obs.counter_add("frames_replayed", "journal", self.replayed as u64);
        obs.counter_add("torn_tail_bytes_truncated", "journal", self.truncated_bytes);
        obs.counter_add("snapshots_seen", "journal", self.snapshots_seen as u64);
        obs.counter_add("snapshots_used", "journal", self.snapshot_used as u64);
    }
}

/// Append-only, checksummed event journal over any [`Storage`].
pub struct Journal<S: Storage> {
    pub(crate) storage: S,
    pub(crate) events: Vec<JournalEvent>,
    pub(crate) state: CampaignState,
    pub(crate) cadence: Cadence,
    /// Auto-compact after this many snapshots have accumulated (0 = never).
    pub(crate) compact_every_snapshots: usize,
    pub(crate) snapshots_since_compact: usize,
    /// Remaining appends before the injected crash; `None` = healthy.
    crash_in: Option<usize>,
    pub(crate) crashed: bool,
    /// Optional observability hub: appends, flushed bytes, and sync
    /// latency are recorded under the `journal` stage.
    pub(crate) obs: Option<Arc<Obs>>,
}

impl<S: Storage> Journal<S> {
    /// Open (or create) a journal, recovering any durable prefix. A torn
    /// tail is truncated in storage so subsequent appends extend a valid
    /// frame sequence. A checksum-valid frame that does not decode is not a
    /// torn tail: open fails naming its offset and leaves storage as it is.
    pub fn open(mut storage: S) -> Result<(Journal<S>, RecoveryReport), JournalError> {
        let bytes = storage.read_all().map_err(JournalError::Io)?;
        let mut events = Vec::new();
        let mut cadence = Cadence::default();
        let mut snapshots_seen = 0;
        let mut offset = 0usize;
        while let FrameOutcome::Ok { payload, next } = frame::decode_at(&bytes, offset) {
            let event = JournalEvent::decode(payload).map_err(|e| {
                JournalError::Io(format!(
                    "valid frame at offset {offset} does not decode: {e}"
                ))
            })?;
            let is_snapshot = matches!(event, JournalEvent::Snapshot { .. });
            snapshots_seen += is_snapshot as usize;
            cadence.count((next - offset) as u64, is_snapshot);
            events.push(event);
            offset = next;
        }
        let truncated_bytes = (bytes.len() - offset) as u64;
        if truncated_bytes > 0 {
            // Make the repair itself durable: a power loss right after
            // recovery must not resurrect the torn tail under fresh
            // appends.
            storage.truncate(offset as u64).map_err(JournalError::Io)?;
            storage.sync().map_err(JournalError::Io)?;
        }
        // Rebuild state from the latest usable snapshot; O(tail) replay.
        let seed = events.iter().enumerate().rev().find_map(|(i, e)| match e {
            JournalEvent::Snapshot { state } => {
                CampaignState::from_json(state).ok().map(|s| (i, s))
            }
            _ => None,
        });
        let snapshot_used = seed.is_some();
        let (replay_from, mut state) = seed.unwrap_or_default();
        for ev in &events[replay_from..] {
            state.apply(ev);
        }
        let report = RecoveryReport {
            events: events.len(),
            truncated_bytes,
            replayed: events.len() - replay_from,
            snapshots_seen,
            snapshot_used,
        };
        Ok((
            Journal {
                storage,
                events,
                state,
                cadence,
                compact_every_snapshots: 0,
                snapshots_since_compact: 0,
                crash_in: None,
                crashed: false,
                obs: None,
            },
            report,
        ))
    }

    /// Open empty `storage` pre-seeded with `state` — the failover entry
    /// point. A second compute site reconstructs a lost facility's
    /// campaign journal from a synced state payload alone: the state is
    /// written as the journal's first snapshot frame, so a resumed run
    /// replays from exactly the synced work and the reconstruction is
    /// itself durable. Refuses storage that already holds events — a real
    /// journal must never be silently overwritten by a failover seed.
    pub fn open_seeded(
        storage: S,
        state: CampaignState,
    ) -> Result<(Journal<S>, RecoveryReport), JournalError> {
        let (mut journal, report) = Self::open(storage)?;
        if !journal.is_empty() {
            return Err(JournalError::Io(format!(
                "open_seeded: storage already holds {} journaled events; refusing to overwrite",
                journal.len()
            )));
        }
        journal.state = state;
        journal.snapshot()?;
        Ok((journal, report))
    }

    /// [`Journal::open`] wired to an observability hub: the recovery
    /// report is recorded as `journal` metrics (see
    /// [`RecoveryReport::record`]) and subsequent appends are counted
    /// and timed under the same stage.
    pub fn open_observed(
        storage: S,
        obs: Arc<Obs>,
    ) -> Result<(Journal<S>, RecoveryReport), JournalError> {
        let (mut journal, report) = Self::open(storage)?;
        report.record(&obs);
        journal.obs = Some(obs);
        Ok((journal, report))
    }

    /// Attach an observability hub to an already-open journal (appends
    /// from now on are counted and timed under the `journal` stage).
    pub fn attach_obs(&mut self, obs: Arc<Obs>) {
        self.obs = Some(obs);
    }

    /// Enable auto-compaction: after every `every_snapshots` snapshot
    /// frames accumulate, the journal rewrites its storage to the latest
    /// snapshot + tail (see [`Journal::compact`]). 0 disables (default).
    pub fn with_auto_compact(mut self, every_snapshots: usize) -> Self {
        self.compact_every_snapshots = every_snapshots;
        self
    }

    /// Current size of the backing storage in bytes.
    pub fn storage_size(&mut self) -> Result<u64, JournalError> {
        self.storage.len().map_err(JournalError::Io)
    }

    /// Arm the kill switch: the next `n` appends succeed, every append
    /// after that fails with [`JournalError::Crashed`]. Automatic snapshot
    /// frames consume the budget too, making kill points byte-deterministic.
    pub fn crash_after(&mut self, n: usize) {
        self.crash_in = Some(n);
    }

    /// Durable events, in append order.
    pub fn events(&self) -> &[JournalEvent] {
        &self.events
    }

    /// Number of durable events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events have been journaled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Live materialised state (identical to what recovery would rebuild).
    pub fn state(&self) -> &CampaignState {
        &self.state
    }

    /// `(events, checksum)` digest of this journal for shipment
    /// manifests. The checksum is FNV-1a over the *materialised state's*
    /// canonical JSON, so it is invariant under compaction: a compacted
    /// journal and the full history it summarises digest identically
    /// (event count aside — which is why both numbers travel). Two
    /// campaigns that durably completed the same work agree; any
    /// divergence in completed work changes the checksum.
    pub fn state_digest(&self) -> (u64, u64) {
        (self.events.len() as u64, self.state.work_checksum())
    }

    /// Append one event durably (written and fsynced before this returns,
    /// for storage that can sync at all), then a snapshot once the frames
    /// since the last one have paid for it: at least 64 of them, holding at
    /// least as many bytes as that snapshot.
    pub fn append(&mut self, event: JournalEvent) -> Result<(), JournalError> {
        self.write_frame(event)?;
        if self.cadence.due() {
            self.snapshot()?;
        }
        Ok(())
    }

    /// Append a snapshot of the current state (the auto-snapshot cadence
    /// counts from it), then compact if it completes the
    /// [`with_auto_compact`](Self::with_auto_compact) count.
    pub fn snapshot(&mut self) -> Result<(), JournalError> {
        self.write_snapshot()?;
        if self.compact_every_snapshots > 0
            && self.snapshots_since_compact >= self.compact_every_snapshots
        {
            self.compact()?;
        }
        Ok(())
    }

    pub(crate) fn write_snapshot(&mut self) -> Result<(), JournalError> {
        let snap = JournalEvent::Snapshot {
            state: self.state.to_json(),
        };
        self.write_frame(snap)?;
        self.snapshots_since_compact += 1;
        if let Some(obs) = &self.obs {
            obs.counter_add("snapshots_written", "journal", 1);
        }
        Ok(())
    }

    fn write_frame(&mut self, event: JournalEvent) -> Result<(), JournalError> {
        if self.crashed {
            return Err(JournalError::Crashed);
        }
        if let Some(left) = self.crash_in {
            if left == 0 {
                self.crashed = true;
                return Err(JournalError::Crashed);
            }
            self.crash_in = Some(left - 1);
        }
        let bytes = frame::encode(&event.encode());
        let start = Instant::now();
        self.storage.append(&bytes).map_err(JournalError::Io)?;
        // The frame is not durable until storage confirms a sync; only a
        // confirmed sync counts as an fsync in the metrics (MemStorage,
        // for instance, never syncs anything).
        let synced = self.storage.sync().map_err(JournalError::Io)?;
        if let Some(obs) = &self.obs {
            obs.counter_add("appends", "journal", 1);
            obs.counter_add("appended_bytes", "journal", bytes.len() as u64);
            if synced {
                obs.counter_add("fsyncs", "journal", 1);
                obs.observe("fsync_seconds", "journal", start.elapsed().as_secs_f64());
            }
        }
        let is_snapshot = matches!(event, JournalEvent::Snapshot { .. });
        self.cadence.count(bytes.len() as u64, is_snapshot);
        self.state.apply(&event);
        self.events.push(event);
        Ok(())
    }
}

/// When [`Journal::append`] takes a snapshot: once at least `MIN_EVENTS`
/// frames have followed the last snapshot *and* those frames hold at least
/// as many bytes as that snapshot's frame. A snapshot is paid for by the
/// bytes it lets a reopen skip, so the bytes written into snapshots stay
/// within the bytes of the other frames plus one snapshot, however large
/// the state grows; a reopen replays fewer than `MIN_EVENTS` frames or
/// fewer bytes than one snapshot. [`Journal::open`] rebuilds the counts from
/// the frames it decodes.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Cadence {
    /// Frames appended since the last snapshot (all of them when none).
    pub(crate) since: usize,
    /// Their bytes, frame headers included.
    since_bytes: u64,
    /// The last snapshot frame's bytes (0 before the first).
    snapshot_bytes: u64,
}

impl Cadence {
    /// The fewest frames between two automatic snapshots.
    const MIN_EVENTS: usize = 64;

    fn count(&mut self, frame_bytes: u64, is_snapshot: bool) {
        if is_snapshot {
            *self = Cadence {
                snapshot_bytes: frame_bytes,
                ..Cadence::default()
            };
        } else {
            self.since += 1;
            self.since_bytes += frame_bytes;
        }
    }

    fn due(&self) -> bool {
        self.since >= Self::MIN_EVENTS && self.since_bytes >= self.snapshot_bytes
    }
}

#[cfg(test)]
impl<S: Storage> Journal<S> {
    /// [`append`](Self::append), then a snapshot once `every` frames follow
    /// the last one (0 = only the automatic ones): the dense cadence some
    /// tests want.
    pub(crate) fn append_snapshotting(&mut self, event: JournalEvent, every: usize) {
        self.append(event).unwrap();
        if every > 0 && self.cadence.since >= every {
            self.snapshot().unwrap();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;

    fn ev(i: usize) -> JournalEvent {
        JournalEvent::FileDownloaded {
            file: format!("file-{i}.hdf"),
            bytes: 1000 + i as u64,
        }
    }

    #[test]
    fn reopen_recovers_everything() {
        let store = MemStorage::new();
        let (mut j, rep) = Journal::open(store.clone()).unwrap();
        assert_eq!(rep, RecoveryReport::default());
        for i in 0..10 {
            j.append(ev(i)).unwrap();
        }
        let (j2, rep2) = Journal::open(store).unwrap();
        assert_eq!(rep2.events, 10);
        assert_eq!(rep2.truncated_bytes, 0);
        assert_eq!(j2.events(), j.events());
        assert_eq!(j2.state(), j.state());
    }

    #[test]
    fn state_digest_tracks_work_and_survives_compaction() {
        let store = MemStorage::new();
        let (mut j, _) = Journal::open(store.clone()).unwrap();
        for i in 0..20 {
            j.append(ev(i)).unwrap();
        }
        let (events, checksum) = j.state_digest();
        assert_eq!(events, j.len() as u64);
        // A second journal that did the same work digests identically.
        let (mut twin, _) = Journal::open(MemStorage::new()).unwrap();
        for i in 0..20 {
            twin.append(ev(i)).unwrap();
        }
        assert_eq!(twin.state_digest().1, checksum);
        // Different completed work → different checksum.
        twin.append(ev(99)).unwrap();
        assert_ne!(twin.state_digest().1, checksum);
        // Compaction rewrites history but not the work: the checksum is
        // invariant (the event count legitimately shrinks).
        j.compact().unwrap();
        let (events_after, checksum_after) = j.state_digest();
        assert_eq!(checksum_after, checksum);
        assert!(events_after < events);
    }

    #[test]
    fn open_seeded_reconstructs_a_journal_from_synced_state() {
        // A "source facility" does some work, then is lost for good; only
        // its materialised state survives (synced over the WAN).
        let (mut src, _) = Journal::open(MemStorage::new()).unwrap();
        for i in 0..12 {
            src.append(ev(i)).unwrap();
        }
        let synced = src.state().clone();
        let work = synced.work_checksum();

        // A second site seeds a fresh journal from the synced state alone.
        let store = MemStorage::new();
        let (j, rep) = Journal::open_seeded(store.clone(), synced).unwrap();
        assert_eq!(rep.events, 0);
        assert!(j.state().is_downloaded("file-11.hdf"));
        assert_eq!(j.state_digest().1, work);

        // The seed is durable: reopening replays the same work, and the
        // journal accepts new events on top of it.
        let (mut j2, rep2) = Journal::open(store.clone()).unwrap();
        assert!(rep2.snapshot_used, "seed snapshot must drive recovery");
        assert_eq!(j2.state_digest().1, work);
        j2.append(ev(12)).unwrap();
        assert_ne!(j2.state_digest().1, work);

        // Refuses to clobber a journal that already holds events.
        match Journal::open_seeded(store, CampaignState::default()) {
            Err(JournalError::Io(msg)) => assert!(msg.contains("refusing"), "{msg}"),
            Err(e) => panic!("unexpected error {e:?}"),
            Ok(_) => panic!("open_seeded must refuse a non-empty journal"),
        }
    }

    #[test]
    fn torn_tail_is_truncated_and_journal_stays_usable() {
        let store = MemStorage::new();
        let (mut j, _) = Journal::open(store.clone()).unwrap();
        for i in 0..5 {
            j.append(ev(i)).unwrap();
        }
        let full = store.snapshot_bytes();
        // Chop 3 bytes off the final frame.
        store.set_bytes(full[..full.len() - 3].to_vec());
        let (mut j2, rep) = Journal::open(store.clone()).unwrap();
        assert_eq!(rep.events, 4);
        assert!(rep.truncated_bytes > 0);
        assert!(j2.state().is_downloaded("file-3.hdf"));
        assert!(!j2.state().is_downloaded("file-4.hdf"));
        // The torn bytes are gone from storage and appends work again.
        j2.append(ev(4)).unwrap();
        let (j3, rep3) = Journal::open(store).unwrap();
        assert_eq!(rep3.events, 5);
        assert_eq!(rep3.truncated_bytes, 0);
        assert!(j3.state().is_downloaded("file-4.hdf"));
    }

    #[test]
    fn a_valid_frame_that_does_not_decode_fails_open_and_keeps_storage() {
        let store = MemStorage::new();
        let (mut j, _) = Journal::open(store.clone()).unwrap();
        for i in 0..3 {
            j.append(ev(i)).unwrap();
        }
        let mut bytes = store.snapshot_bytes();
        let offset = bytes.len();
        // Checksum-valid, but of a kind this build does not know (journals
        // once held flow runs), with valid frames after it.
        let unknown = br#"{"type":"flow_transition","run":1,"state":"Infer","context":{}}"#;
        bytes.extend_from_slice(&frame::encode(unknown));
        for i in 3..6 {
            bytes.extend_from_slice(&frame::encode(&ev(i).encode()));
        }
        store.set_bytes(bytes.clone());
        match Journal::open(store.clone()) {
            Err(JournalError::Io(msg)) => {
                assert!(msg.contains(&format!("offset {offset}")), "{msg}")
            }
            Err(e) => panic!("unexpected error {e:?}"),
            Ok(_) => panic!("a frame that does not decode must fail the open"),
        }
        assert_eq!(store.snapshot_bytes(), bytes, "storage must stay as it was");
    }

    #[test]
    fn crash_after_stops_appends_deterministically() {
        let store = MemStorage::new();
        let (mut j, _) = Journal::open(store.clone()).unwrap();
        j.crash_after(3);
        assert!(j.append(ev(0)).is_ok());
        assert!(j.append(ev(1)).is_ok());
        assert!(j.append(ev(2)).is_ok());
        assert_eq!(j.append(ev(3)), Err(JournalError::Crashed));
        assert_eq!(j.append(ev(4)), Err(JournalError::Crashed));
        let (j2, rep) = Journal::open(store).unwrap();
        assert_eq!(rep.events, 3);
        assert_eq!(j2.len(), 3);
    }

    #[test]
    fn snapshots_bound_replay_cost() {
        let store = MemStorage::new();
        let (mut j, _) = Journal::open(store.clone()).unwrap();
        for i in 0..57 {
            j.append_snapshotting(ev(i), 10);
        }
        let live_state = j.state().clone();
        let (j2, rep) = Journal::open(store).unwrap();
        assert_eq!(j2.state(), &live_state);
        // 57 events + interleaved snapshots; replay must start at the last
        // snapshot, not the beginning.
        assert!(rep.replayed < 15, "replayed {} events", rep.replayed);
        assert!(rep.events > 57);
    }

    #[test]
    fn open_observed_records_recovery_and_append_metrics() {
        let store = MemStorage::new();
        let (mut j, _) = Journal::open(store.clone()).unwrap();
        for i in 0..12 {
            j.append_snapshotting(ev(i), 5);
        }
        // Tear the tail so recovery has bytes to truncate.
        let full = store.snapshot_bytes();
        store.set_bytes(full[..full.len() - 2].to_vec());

        let obs = Obs::shared();
        let (mut j2, rep) = Journal::open_observed(store.clone(), Arc::clone(&obs)).unwrap();
        assert!(rep.snapshots_seen >= 1, "snapshots in prefix: {rep:?}");
        assert!(rep.snapshot_used, "state must seed from a snapshot");
        let counter = |name: &str| obs.metrics().counter_value(name, "journal").unwrap_or(0);
        assert_eq!(counter("recoveries"), 1);
        assert_eq!(counter("events_recovered"), rep.events as u64);
        assert_eq!(counter("frames_replayed"), rep.replayed as u64);
        assert_eq!(counter("torn_tail_bytes_truncated"), rep.truncated_bytes);
        assert_eq!(counter("snapshots_seen"), rep.snapshots_seen as u64);
        assert_eq!(counter("snapshots_used"), 1);
        assert!(rep.truncated_bytes > 0);

        // Appends through the observed journal are counted — but memory
        // storage never reaches durable media, so no fsync is claimed.
        j2.append(ev(100)).unwrap();
        j2.append(ev(101)).unwrap();
        assert_eq!(counter("appends"), 2);
        assert_eq!(counter("fsyncs"), 0, "MemStorage must not count fsyncs");
        assert!(counter("appended_bytes") > 0);
        assert!(
            obs.metrics()
                .histogram("fsync_seconds", "journal")
                .is_none(),
            "no sync happened, so no sync latency may be recorded"
        );
    }

    #[test]
    fn snapshotless_recovery_reports_no_snapshot_used() {
        let store = MemStorage::new();
        let (mut j, _) = Journal::open(store.clone()).unwrap();
        for i in 0..6 {
            j.append(ev(i)).unwrap();
        }
        let (_, rep) = Journal::open(store).unwrap();
        assert_eq!(rep.snapshots_seen, 0);
        assert!(!rep.snapshot_used);
        assert_eq!(rep.replayed, rep.events, "whole log replays");
    }

    #[test]
    fn file_backed_journal_counts_real_fsyncs() {
        let dir = std::env::temp_dir().join(format!(
            "eoml-journal-fsync-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let obs = Obs::shared();
        let (mut j, _) = Journal::open_observed(
            crate::storage::FileStorage::new(dir.join("wal.log")),
            Arc::clone(&obs),
        )
        .unwrap();
        j.append(ev(0)).unwrap();
        j.append(ev(1)).unwrap();
        let counter = |name: &str| obs.metrics().counter_value(name, "journal").unwrap_or(0);
        assert_eq!(counter("appends"), 2);
        assert_eq!(counter("fsyncs"), 2, "file storage really syncs");
        let h = obs.metrics().histogram("fsync_seconds", "journal").unwrap();
        assert_eq!(h.count(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovered_state_matches_full_replay() {
        let store = MemStorage::new();
        let (mut j, _) = Journal::open(store.clone()).unwrap();
        for i in 0..40 {
            j.append_snapshotting(ev(i), 7);
            if i % 11 == 0 {
                let stage = format!("stage-{i}");
                j.append_snapshotting(JournalEvent::StageFinished { stage }, 7);
            }
        }
        let (j2, _) = Journal::open(store).unwrap();
        let mut scratch = CampaignState::new();
        for e in j2.events() {
            scratch.apply(e);
        }
        assert_eq!(&scratch, j2.state());
    }
}
