//! Multi-campaign ledger: a directory of per-campaign namespaced journals.
//!
//! Layout (one subdirectory per campaign namespace):
//!
//! ```text
//! <root>/
//!   day-2022-01-01/wal.log            one campaign's journal
//!   day-2022-01-02/wal.log
//!   day-2022-01-02/wal.log.compact    (transient; mid-compaction staging)
//! ```
//!
//! A [`Ledger`] hands out [`FileStorage`]-backed journals keyed by
//! namespace, so consecutive days of a multi-day schedule (or unrelated
//! campaigns sharing a disk) never interleave events. Operations are
//! list, open, compact-all, and total-size — everything the multi-day
//! scheduler needs to keep an unattended campaign's disk usage bounded.

use crate::storage::FileStorage;
use crate::wal::{Journal, JournalError, RecoveryReport};
use crate::CompactionReport;
use eoml_obs::Obs;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

/// File name of every campaign journal inside its namespace directory.
pub const WAL_FILE: &str = "wal.log";

/// In-process registry of exclusively locked ledger roots (canonicalised).
/// The lock is advisory and process-local: it catches two drivers in one
/// process racing the same root (the common multi-tenant-service and
/// multi-day-scheduler mistake); cross-process exclusion would need OS file
/// locks and is out of scope.
fn locked_roots() -> &'static Mutex<BTreeSet<PathBuf>> {
    static ROOTS: OnceLock<Mutex<BTreeSet<PathBuf>>> = OnceLock::new();
    ROOTS.get_or_init(|| Mutex::new(BTreeSet::new()))
}

/// Exclusive in-process lock on a ledger root; released on drop.
#[derive(Debug)]
pub struct LedgerLock {
    root: PathBuf,
}

impl Drop for LedgerLock {
    fn drop(&mut self) {
        // Never panic in Drop: a poisoned registry during unwind would turn
        // one panic into an abort. The set itself is always valid (BTreeSet
        // ops can't leave it half-mutated), so poison recovery is safe.
        locked_roots()
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&self.root);
    }
}

/// A directory of per-campaign journals.
pub struct Ledger {
    root: PathBuf,
    compact_every_snapshots: usize,
    obs: Option<Arc<Obs>>,
}

impl Ledger {
    /// Open (or create) a ledger rooted at `root`.
    pub fn new(root: impl AsRef<Path>) -> Result<Self, JournalError> {
        let root = root.as_ref().to_path_buf();
        std::fs::create_dir_all(&root)
            .map_err(|e| JournalError::Io(format!("create ledger {}: {e}", root.display())))?;
        Ok(Self {
            root,
            compact_every_snapshots: 0,
            obs: None,
        })
    }

    /// Auto-compact journals opened through this ledger after this many
    /// snapshots accumulate (0 = never; see [`Journal::with_auto_compact`]).
    pub fn with_auto_compact(mut self, every_snapshots: usize) -> Self {
        self.compact_every_snapshots = every_snapshots;
        self
    }

    /// Attach an observability hub; opens record recovery metrics and
    /// appends are counted under the `journal` stage.
    pub fn with_obs(mut self, obs: Arc<Obs>) -> Self {
        self.obs = Some(obs);
        self
    }

    /// The ledger's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Validate a campaign namespace: path-safe, non-empty, no separators.
    fn check_name(name: &str) -> Result<(), JournalError> {
        let ok = !name.is_empty()
            && name.len() <= 128
            && !name.starts_with('.')
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'));
        if ok {
            Ok(())
        } else {
            Err(JournalError::InvalidNamespace(name.to_string()))
        }
    }

    /// Take the exclusive in-process lock on this ledger's root. Returns
    /// [`JournalError::Busy`] if another live [`LedgerLock`] (any `Ledger`
    /// value, any thread) already covers the same root. Multi-campaign
    /// drivers take this before interleaving namespaces so two concurrent
    /// callers conflict with a typed error instead of corrupting each
    /// other's day/campaign layout.
    pub fn lock_exclusive(&self) -> Result<LedgerLock, JournalError> {
        // Canonicalise so `./ledger` and `ledger` collide; the root exists
        // (created by `new`), so canonicalisation only fails on I/O errors.
        let root = self
            .root
            .canonicalize()
            .map_err(|e| JournalError::Io(format!("canonicalize {}: {e}", self.root.display())))?;
        // Recover from poisoning rather than panic: the registry is a plain
        // BTreeSet, so a panic elsewhere while holding the mutex cannot have
        // left it inconsistent.
        let mut held = locked_roots().lock().unwrap_or_else(|e| e.into_inner());
        if !held.insert(root.clone()) {
            return Err(JournalError::Busy(root.display().to_string()));
        }
        Ok(LedgerLock { root })
    }

    /// The journal path a namespace maps to (`<root>/<campaign>/wal.log`).
    pub fn journal_path(&self, campaign: &str) -> PathBuf {
        self.root.join(campaign).join(WAL_FILE)
    }

    /// Whether a namespace already holds a journal.
    pub fn contains(&self, campaign: &str) -> bool {
        self.journal_path(campaign).exists()
    }

    /// Campaign namespaces with a journal on disk.
    ///
    /// **Ordering guarantee:** the result is always sorted ascending by
    /// byte-wise (lexicographic) namespace comparison, independent of
    /// directory-entry order, creation order, or platform. Service `list`
    /// APIs and tests rely on this being deterministic across calls and
    /// across restarts.
    pub fn list(&self) -> Result<Vec<String>, JournalError> {
        let mut out = Vec::new();
        let entries = std::fs::read_dir(&self.root)
            .map_err(|e| JournalError::Io(format!("list {}: {e}", self.root.display())))?;
        for entry in entries {
            let entry = entry
                .map_err(|e| JournalError::Io(format!("list {}: {e}", self.root.display())))?;
            let name = match entry.file_name().into_string() {
                Ok(n) => n,
                Err(_) => continue,
            };
            if Self::check_name(&name).is_ok() && entry.path().join(WAL_FILE).exists() {
                out.push(name);
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    /// Alias for [`Ledger::list`] (kept for existing callers); same sorted
    /// deterministic ordering guarantee.
    pub fn campaigns(&self) -> Result<Vec<String>, JournalError> {
        self.list()
    }

    /// Open (or create) the journal for `campaign`, recovering any durable
    /// prefix; the namespace directory is created on demand.
    pub fn open(
        &self,
        campaign: &str,
    ) -> Result<(Journal<FileStorage>, RecoveryReport), JournalError> {
        Self::check_name(campaign)?;
        let dir = self.root.join(campaign);
        std::fs::create_dir_all(&dir)
            .map_err(|e| JournalError::Io(format!("create {}: {e}", dir.display())))?;
        let storage = FileStorage::new(dir.join(WAL_FILE));
        let (mut journal, report) = Journal::open(storage)?;
        if let Some(obs) = &self.obs {
            report.record(obs);
            journal.attach_obs(Arc::clone(obs));
        }
        Ok((
            journal.with_auto_compact(self.compact_every_snapshots),
            report,
        ))
    }

    /// Create the journal for a *new* campaign namespace. Unlike
    /// [`Ledger::open`] (create-or-recover), this rejects a namespace that
    /// already holds a journal with [`JournalError::DuplicateNamespace`],
    /// so a service can refuse a duplicate `submit` gracefully instead of
    /// silently resuming the earlier campaign's journal.
    pub fn create(
        &self,
        campaign: &str,
    ) -> Result<(Journal<FileStorage>, RecoveryReport), JournalError> {
        Self::check_name(campaign)?;
        if self.contains(campaign) {
            return Err(JournalError::DuplicateNamespace(campaign.to_string()));
        }
        self.open(campaign)
    }

    /// Remove a campaign's namespace directory (journal, compaction
    /// staging, everything) — the cleanup path for cancelled campaigns.
    ///
    /// The removal is atomic with respect to [`Ledger::list`]: the
    /// directory is first renamed to a dot-led staging name (never listed),
    /// then deleted, and the parent (root) directory is fsynced so the
    /// disappearance is durable before this returns. Returns
    /// [`JournalError::UnknownNamespace`] when the namespace holds no
    /// journal.
    pub fn remove(&self, campaign: &str) -> Result<(), JournalError> {
        Self::check_name(campaign)?;
        if !self.contains(campaign) {
            return Err(JournalError::UnknownNamespace(campaign.to_string()));
        }
        let dir = self.root.join(campaign);
        // Dot-led names fail `check_name`, so the staging directory can
        // never appear in `list()` even if we crash between rename and
        // delete; a unique-enough suffix avoids colliding with a previous
        // crashed removal of the same namespace.
        let staging = self.root.join(format!(
            ".removing-{campaign}-{}",
            std::process::id() as u64 ^ (dir.as_os_str().len() as u64) << 32
        ));
        if staging.exists() {
            std::fs::remove_dir_all(&staging)
                .map_err(|e| JournalError::Io(format!("clear {}: {e}", staging.display())))?;
        }
        std::fs::rename(&dir, &staging).map_err(|e| {
            JournalError::Io(format!(
                "stage removal {} -> {}: {e}",
                dir.display(),
                staging.display()
            ))
        })?;
        std::fs::remove_dir_all(&staging)
            .map_err(|e| JournalError::Io(format!("remove {}: {e}", staging.display())))?;
        // Make the rename durable: fsync the parent directory.
        let root = std::fs::File::open(&self.root)
            .map_err(|e| JournalError::Io(format!("open {}: {e}", self.root.display())))?;
        root.sync_all()
            .map_err(|e| JournalError::Io(format!("fsync {}: {e}", self.root.display())))?;
        Ok(())
    }

    /// Compact every journal in the ledger; returns per-campaign reports.
    pub fn compact_all(&self) -> Result<Vec<(String, CompactionReport)>, JournalError> {
        let mut out = Vec::new();
        for campaign in self.campaigns()? {
            let (mut journal, _) = self.open(&campaign)?;
            out.push((campaign, journal.compact()?));
        }
        Ok(out)
    }

    /// Total bytes across every campaign journal (compaction staging files
    /// included, since they consume disk too).
    pub fn total_size(&self) -> Result<u64, JournalError> {
        let mut total = 0u64;
        for campaign in self.campaigns()? {
            let dir = self.root.join(campaign);
            let entries = std::fs::read_dir(&dir)
                .map_err(|e| JournalError::Io(format!("list {}: {e}", dir.display())))?;
            for entry in entries.flatten() {
                if let Ok(meta) = entry.metadata() {
                    if meta.is_file() {
                        total += meta.len();
                    }
                }
            }
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::JournalEvent;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "eoml-ledger-{tag}-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn ev(i: usize) -> JournalEvent {
        JournalEvent::FileDownloaded {
            file: format!("file-{i}.hdf"),
            bytes: i as u64,
        }
    }

    #[test]
    fn namespaces_are_isolated_and_listed_sorted() {
        let root = tempdir("iso");
        let ledger = Ledger::new(&root).unwrap();
        assert_eq!(ledger.campaigns().unwrap(), Vec::<String>::new());

        let (mut day2, _) = ledger.open("day-2022-01-02").unwrap();
        day2.append(ev(2)).unwrap();
        let (mut day1, _) = ledger.open("day-2022-01-01").unwrap();
        day1.append(ev(1)).unwrap();
        drop((day1, day2));

        assert_eq!(
            ledger.campaigns().unwrap(),
            vec!["day-2022-01-01".to_string(), "day-2022-01-02".to_string()]
        );
        assert!(ledger.contains("day-2022-01-01"));
        assert!(!ledger.contains("day-2022-01-03"));

        // Reopening a namespace recovers only its own events.
        let (j, rep) = ledger.open("day-2022-01-01").unwrap();
        assert_eq!(rep.events, 1);
        assert!(j.state().is_downloaded("file-1.hdf"));
        assert!(!j.state().is_downloaded("file-2.hdf"));
    }

    #[test]
    fn bad_namespaces_are_rejected() {
        let root = tempdir("bad");
        let ledger = Ledger::new(&root).unwrap();
        for name in ["", "a/b", "..", ".hidden", "a b", "x\u{e9}"] {
            assert!(ledger.open(name).is_err(), "accepted {name:?}");
        }
        // Nothing was created as a side effect.
        assert_eq!(ledger.campaigns().unwrap(), Vec::<String>::new());
    }

    #[test]
    fn create_rejects_duplicate_namespace_with_typed_error() {
        let root = tempdir("create");
        let ledger = Ledger::new(&root).unwrap();
        let (mut j, _) = ledger.create("winter").unwrap();
        j.append(ev(0)).unwrap();
        drop(j);
        match ledger.create("winter") {
            Err(JournalError::DuplicateNamespace(name)) => assert_eq!(name, "winter"),
            Err(other) => panic!("expected DuplicateNamespace, got {other:?}"),
            Ok(_) => panic!("duplicate create must fail"),
        }
        match ledger.create("a/b") {
            Err(JournalError::InvalidNamespace(name)) => assert_eq!(name, "a/b"),
            Err(other) => panic!("expected InvalidNamespace, got {other:?}"),
            Ok(_) => panic!("invalid create must fail"),
        }
        // The duplicate rejection did not disturb the existing journal.
        let (j, rep) = ledger.open("winter").unwrap();
        assert_eq!(rep.events, 1);
        assert!(j.state().is_downloaded("file-0.hdf"));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn remove_drops_namespace_from_list_and_frees_size() {
        let root = tempdir("remove");
        let ledger = Ledger::new(&root).unwrap();
        for ns in ["keep", "gone"] {
            let (mut j, _) = ledger.open(ns).unwrap();
            for i in 0..20 {
                j.append(ev(i)).unwrap();
            }
        }
        let before = ledger.total_size().unwrap();
        assert_eq!(ledger.list().unwrap(), vec!["gone", "keep"]);

        ledger.remove("gone").unwrap();
        assert_eq!(ledger.list().unwrap(), vec!["keep"]);
        assert!(!ledger.contains("gone"));
        let after = ledger.total_size().unwrap();
        assert!(after < before, "total size {before} -> {after}");
        // Removing again (or removing a namespace that never existed) is a
        // typed error, not a panic.
        assert_eq!(
            ledger.remove("gone").unwrap_err(),
            JournalError::UnknownNamespace("gone".into())
        );
        assert_eq!(
            ledger.remove("never").unwrap_err(),
            JournalError::UnknownNamespace("never".into())
        );
        // The namespace is reusable after removal, starting empty.
        let (j, rep) = ledger.open("gone").unwrap();
        assert_eq!(rep.events, 0);
        assert!(j.is_empty());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn lock_exclusive_conflicts_until_released() {
        let root = tempdir("lock");
        let ledger = Ledger::new(&root).unwrap();
        // A second Ledger value over the same root (even via a relative
        // alias) conflicts while the guard lives.
        let alias = Ledger::new(&root).unwrap();
        let guard = ledger.lock_exclusive().unwrap();
        match alias.lock_exclusive() {
            Err(JournalError::Busy(_)) => {}
            other => panic!("expected Busy, got {other:?}"),
        }
        drop(guard);
        let again = alias.lock_exclusive().unwrap();
        drop(again);
        // Different roots never conflict.
        let other_root = tempdir("lock2");
        let other = Ledger::new(&other_root).unwrap();
        let _a = ledger.lock_exclusive().unwrap();
        let _b = other.lock_exclusive().unwrap();
        std::fs::remove_dir_all(&root).unwrap();
        std::fs::remove_dir_all(&other_root).unwrap();
    }

    #[test]
    fn compact_all_shrinks_every_journal_and_total_size() {
        let root = tempdir("compact");
        let ledger = Ledger::new(&root).unwrap();
        for ns in ["a", "b"] {
            let (mut j, _) = ledger.open(ns).unwrap();
            for i in 0..60 {
                j.append_snapshotting(ev(i), 4);
            }
        }
        let before = ledger.total_size().unwrap();
        let reports = ledger.compact_all().unwrap();
        assert_eq!(reports.len(), 2);
        for (ns, rep) in &reports {
            assert!(
                rep.after_bytes < rep.before_bytes,
                "{ns}: {} -> {}",
                rep.before_bytes,
                rep.after_bytes
            );
        }
        let after = ledger.total_size().unwrap();
        assert!(after < before, "total size {before} -> {after}");

        // Every namespace reopens to its pre-compaction state with a
        // bounded replay.
        for ns in ["a", "b"] {
            let (j, rep) = ledger.open(ns).unwrap();
            assert!(j.state().is_downloaded("file-59.hdf"));
            assert!(rep.replayed <= 4 + 1, "{ns}: replayed {}", rep.replayed);
        }
    }

    #[test]
    fn lock_registry_recovers_from_poisoning() {
        // Poison the global registry mutex: panic while holding its guard.
        let _ = std::panic::catch_unwind(|| {
            let _guard = locked_roots().lock().unwrap();
            panic!("poison the ledger lock registry");
        });
        assert!(locked_roots().is_poisoned());

        // Locking still works through the poison, and releasing the lock in
        // Drop neither panics nor aborts.
        let root = tempdir("poisoned");
        let ledger = Ledger::new(&root).unwrap();
        let lock = ledger.lock_exclusive().expect("lock through poison");
        assert!(matches!(
            ledger.lock_exclusive(),
            Err(JournalError::Busy(_))
        ));
        drop(lock);
        // Root released: a fresh lock succeeds again.
        let relock = ledger.lock_exclusive().expect("relock after drop");
        drop(relock);
        std::fs::remove_dir_all(&root).unwrap();
    }
}
