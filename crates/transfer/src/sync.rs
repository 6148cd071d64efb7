//! The journal-sync leg of a shipment: transfer-with-provenance.
//!
//! A [`crate::manifest::ShipmentManifest`] carries only a *digest* of the
//! source facility's control journal. That is enough to tell two
//! campaigns apart, but not enough for the destination to act alone: if
//! the source facility is lost mid-campaign, the digest cannot seed a
//! failover. The journal-sync leg closes that gap by shipping the
//! compacted journal's materialised state *alongside* the data. The
//! destination then:
//!
//! 1. recomputes the state's work checksum and matches it against both
//!    the sync payload's own digest and the manifest's journal digest
//!    (tamper/truncation detection — the payload crossed the same WAN as
//!    the data);
//! 2. runs a typed completeness check: every labeled file the journal
//!    claims must appear in the manifest with the digest the journal's
//!    byte counts imply, and the manifest must ship nothing the journal
//!    never labeled;
//! 3. on a facility outage, seeds a fresh journal from the synced state
//!    (`Journal::open_seeded`) and resumes the campaign at a second
//!    compute site — from the synced journal alone.
//!
//! Failures are typed ([`SyncError`]) so chaos harnesses and health
//! rollups can tell a corrupt payload from an incomplete shipment.

use crate::backoff::BackoffPolicy;
use crate::faults::FaultInjector;
use crate::ingest::{receive, IngestReport, Ingestor};
use crate::manifest::{synthetic_digest, JournalDigest, ShipmentManifest};
use eoml_journal::CampaignState;
use serde_json::{json, Value};

/// The synced journal payload that travels with a shipment: the source's
/// `(events, checksum)` digest plus the compacted journal's materialised
/// state, serialized exactly as a snapshot frame would hold it.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalSync {
    /// Source journal digest at ship time (mirrors the manifest's).
    pub digest: JournalDigest,
    /// Canonical JSON of the source's materialised [`CampaignState`].
    pub state: Value,
}

/// Why a journal-sync payload failed verification, typed for chaos
/// harnesses and ops-event folding.
#[derive(Debug, Clone, PartialEq)]
pub enum SyncError {
    /// The state payload does not parse as a [`CampaignState`].
    StateCorrupt(String),
    /// The recomputed work checksum of the state payload disagrees with
    /// the digest it shipped under — the payload was tampered with or
    /// damaged in flight.
    ChecksumMismatch { expected: u64, actual: u64 },
    /// The manifest carries no journal digest to check against.
    JournalMissing,
    /// The manifest's journal digest and the sync payload's digest name
    /// different completed work — data and journal are from different
    /// campaigns (or different points of one).
    JournalMismatch { manifest: u64, sync: u64 },
    /// The journal says this file was labeled, but the manifest does not
    /// ship it: the shipment is incomplete.
    MissingArtifact { artifact: String },
    /// The manifest ships a file the journal never labeled.
    UnknownArtifact { artifact: String },
    /// A shipped artifact's digest disagrees with what the journal's
    /// byte counts imply.
    DigestMismatch {
        artifact: String,
        expected: u64,
        actual: u64,
    },
}

impl SyncError {
    /// Stable machine-readable kind.
    pub fn kind(&self) -> &'static str {
        match self {
            SyncError::StateCorrupt(_) => "state_corrupt",
            SyncError::ChecksumMismatch { .. } => "checksum_mismatch",
            SyncError::JournalMissing => "journal_missing",
            SyncError::JournalMismatch { .. } => "journal_mismatch",
            SyncError::MissingArtifact { .. } => "missing_artifact",
            SyncError::UnknownArtifact { .. } => "unknown_artifact",
            SyncError::DigestMismatch { .. } => "digest_mismatch",
        }
    }

    /// JSON form for ops events and chaos reports.
    pub fn to_json(&self) -> Value {
        match self {
            SyncError::StateCorrupt(detail) => json!({"kind": self.kind(), "detail": detail}),
            SyncError::ChecksumMismatch { expected, actual } => {
                json!({"kind": self.kind(), "expected": expected, "actual": actual})
            }
            SyncError::JournalMissing => json!({"kind": self.kind()}),
            SyncError::JournalMismatch { manifest, sync } => {
                json!({"kind": self.kind(), "manifest": manifest, "sync": sync})
            }
            SyncError::MissingArtifact { artifact } | SyncError::UnknownArtifact { artifact } => {
                json!({"kind": self.kind(), "artifact": artifact})
            }
            SyncError::DigestMismatch {
                artifact,
                expected,
                actual,
            } => {
                json!({"kind": self.kind(), "artifact": artifact, "expected": expected, "actual": actual})
            }
        }
    }
}

impl std::fmt::Display for SyncError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SyncError::StateCorrupt(detail) => write!(f, "sync state corrupt: {detail}"),
            SyncError::ChecksumMismatch { expected, actual } => write!(
                f,
                "sync state checksum mismatch: shipped {expected:#x}, recomputed {actual:#x}"
            ),
            SyncError::JournalMissing => write!(f, "manifest has no journal digest"),
            SyncError::JournalMismatch { manifest, sync } => write!(
                f,
                "journal digests disagree: manifest {manifest:#x}, sync {sync:#x}"
            ),
            SyncError::MissingArtifact { artifact } => {
                write!(f, "journal labels '{artifact}' but the manifest lacks it")
            }
            SyncError::UnknownArtifact { artifact } => {
                write!(f, "manifest ships '{artifact}' the journal never labeled")
            }
            SyncError::DigestMismatch {
                artifact,
                expected,
                actual,
            } => write!(
                f,
                "'{artifact}' digest mismatch: journal implies {expected:#x}, manifest has {actual:#x}"
            ),
        }
    }
}

impl std::error::Error for SyncError {}

/// A passed completeness check: what the destination now knows it holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncCheck {
    /// Artifacts cross-checked between journal and manifest.
    pub artifacts: usize,
    /// Durable events behind the synced state.
    pub events: u64,
    /// The verified work checksum.
    pub checksum: u64,
}

impl JournalSync {
    /// Package a source journal's digest and exported state for shipment.
    pub fn from_parts(events: u64, checksum: u64, state: Value) -> JournalSync {
        JournalSync {
            digest: JournalDigest { events, checksum },
            state,
        }
    }

    /// Package directly from a materialised state (computes the checksum).
    pub fn from_state(events: u64, state: &CampaignState) -> JournalSync {
        JournalSync {
            digest: JournalDigest {
                events,
                checksum: state.work_checksum(),
            },
            state: state.to_json(),
        }
    }

    /// Parse the synced state payload.
    pub fn state(&self) -> Result<CampaignState, SyncError> {
        CampaignState::from_json(&self.state).map_err(SyncError::StateCorrupt)
    }

    /// The typed completeness check (steps 1–2 of the module contract):
    /// payload integrity, digest agreement with the manifest, and the
    /// labeled-set ↔ artifact-set cross-check in both directions. Errors
    /// are ordered: payload corruption is reported before completeness
    /// gaps, and missing artifacts before unknown ones.
    pub fn verify(&self, manifest: &ShipmentManifest) -> Result<SyncCheck, SyncError> {
        let state = self.state()?;
        let recomputed = state.work_checksum();
        if recomputed != self.digest.checksum {
            return Err(SyncError::ChecksumMismatch {
                expected: self.digest.checksum,
                actual: recomputed,
            });
        }
        let journal = manifest.journal.ok_or(SyncError::JournalMissing)?;
        if journal.checksum != self.digest.checksum {
            return Err(SyncError::JournalMismatch {
                manifest: journal.checksum,
                sync: self.digest.checksum,
            });
        }
        // Journal → manifest: every labeled file must ship, byte-exact.
        for (name, &(_labels, bytes)) in &state.labeled {
            let entry = manifest
                .artifact(name)
                .ok_or_else(|| SyncError::MissingArtifact {
                    artifact: name.clone(),
                })?;
            let expected = synthetic_digest(name, bytes);
            if entry.digest != expected {
                return Err(SyncError::DigestMismatch {
                    artifact: name.clone(),
                    expected,
                    actual: entry.digest,
                });
            }
        }
        // Manifest → journal: nothing ships that was never labeled.
        for entry in &manifest.artifacts {
            if !state.labeled.contains_key(&entry.name) {
                return Err(SyncError::UnknownArtifact {
                    artifact: entry.name.clone(),
                });
            }
        }
        Ok(SyncCheck {
            artifacts: manifest.len(),
            events: self.digest.events,
            checksum: self.digest.checksum,
        })
    }

    /// JSON form (travels next to the manifest).
    pub fn to_json(&self) -> Value {
        json!({
            "events": self.digest.events,
            "checksum": format!("{:016x}", self.digest.checksum),
            "state": self.state,
        })
    }

    /// Parse the JSON form.
    pub fn from_json(v: &Value) -> Result<JournalSync, String> {
        let events = v["events"]
            .as_u64()
            .ok_or("journal sync: missing 'events'")?;
        let checksum = v["checksum"]
            .as_str()
            .ok_or("journal sync: missing 'checksum'")
            .and_then(|s| u64::from_str_radix(s, 16).map_err(|_| "journal sync: not hex"))?;
        if v["state"].is_null() {
            return Err("journal sync: missing 'state'".into());
        }
        Ok(JournalSync {
            digest: JournalDigest { events, checksum },
            state: v["state"].clone(),
        })
    }
}

/// [`Ingestor::ingest`] gated on the journal-sync completeness check: the
/// destination refuses to verify artifacts against a manifest whose
/// journal leg is corrupt or incomplete. A failed check counts on the
/// `sync_failures{stage="facility:<name>"}` counter.
pub fn ingest_synced(
    ingestor: &mut Ingestor,
    manifest: &ShipmentManifest,
    sync: &JournalSync,
    received: &[crate::ingest::ReceivedArtifact],
    now_s: f64,
) -> Result<IngestReport, SyncError> {
    if let Err(e) = sync.verify(manifest) {
        if let Some(obs) = ingestor.obs_hub() {
            obs.counter_add(
                "sync_failures",
                &format!("facility:{}", ingestor.facility()),
                1,
            );
        }
        return Err(e);
    }
    Ok(ingestor.ingest(manifest, received, now_s))
}

/// Outcome of a bounded-backoff re-ship loop.
#[derive(Debug)]
pub struct ReshipOutcome {
    /// Per-attempt ingest reports, in order. At most one acks.
    pub reports: Vec<IngestReport>,
    /// Attempts made (1-based; ≤ `retry_limit + 1`).
    pub attempts: usize,
    /// Whether the final attempt verified clean (or hit the idempotent
    /// duplicate path).
    pub acked: bool,
    /// Total backoff seconds waited between attempts.
    pub waited_s: f64,
    /// Trace clock after the final attempt started.
    pub finished_s: f64,
}

/// Re-ship `manifest` across a faulty WAN until the destination verifies
/// it clean, waiting out `policy` between attempts — the bounded
/// exponential-backoff replacement for immediate re-ship loops. The same
/// retry convention as the transfer constructors applies: `retry_limit`
/// re-ships beyond the first attempt. When `sync` is provided, every
/// attempt runs the typed completeness check first ([`ingest_synced`]);
/// a sync failure is terminal (re-sending identical bytes cannot fix a
/// corrupt or incomplete journal leg). The caller journals a single
/// `IngestAcked` when `acked` and the last report is not a duplicate.
pub fn reship_with_backoff(
    manifest: &ShipmentManifest,
    sync: Option<&JournalSync>,
    ingestor: &mut Ingestor,
    faults: &mut FaultInjector,
    policy: &BackoffPolicy,
    retry_limit: usize,
    start_s: f64,
) -> Result<ReshipOutcome, SyncError> {
    if let Some(s) = sync {
        s.verify(manifest)?;
    }
    let max_attempts = retry_limit + 1;
    let mut clock = start_s;
    let mut waited = 0.0;
    let mut reports = Vec::new();
    for attempt in 1..=max_attempts {
        let received = receive(manifest, faults);
        let report = ingestor.ingest(manifest, &received, clock);
        let done = report.ok();
        reports.push(report);
        if done {
            return Ok(ReshipOutcome {
                reports,
                attempts: attempt,
                acked: true,
                waited_s: waited,
                finished_s: clock,
            });
        }
        if attempt < max_attempts {
            let delay = policy.delay_s(attempt);
            waited += delay;
            clock = start_s + waited;
        }
    }
    Ok(ReshipOutcome {
        reports,
        attempts: max_attempts,
        acked: false,
        waited_s: waited,
        finished_s: clock,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use crate::manifest::ArtifactEntry;
    use eoml_journal::JournalEvent;

    /// A state whose labeled set matches `files`, built by replaying the
    /// events a real campaign would journal.
    fn labeled_state(files: &[(&str, u64)]) -> CampaignState {
        let mut s = CampaignState::default();
        for (name, bytes) in files {
            s.apply(&JournalEvent::LabelsAppended {
                file: name.to_string(),
                labels: 3,
                bytes: *bytes,
            });
        }
        s
    }

    fn manifest_for(files: &[(&str, u64)], checksum: u64) -> ShipmentManifest {
        let mut m = ShipmentManifest::new("ace-defiant", "frontier-orion", 100.0);
        m.journal = Some(JournalDigest {
            events: files.len() as u64,
            checksum,
        });
        for (name, bytes) in files {
            m.artifacts.push(ArtifactEntry {
                name: name.to_string(),
                bytes: *bytes,
                digest: synthetic_digest(name, *bytes),
                trace_id: None,
            });
        }
        m
    }

    const FILES: &[(&str, u64)] = &[("tiles-a.nc", 4096), ("tiles-b.nc", 8192)];

    fn sync_and_manifest() -> (JournalSync, ShipmentManifest) {
        let state = labeled_state(FILES);
        let sync = JournalSync::from_state(FILES.len() as u64, &state);
        let manifest = manifest_for(FILES, state.work_checksum());
        (sync, manifest)
    }

    #[test]
    fn clean_sync_verifies() {
        let (sync, manifest) = sync_and_manifest();
        let check = sync.verify(&manifest).expect("clean sync");
        assert_eq!(check.artifacts, 2);
        assert_eq!(check.checksum, sync.digest.checksum);
    }

    #[test]
    fn tampered_state_payload_is_rejected() {
        let (mut sync, manifest) = sync_and_manifest();
        // Flip a labeled byte count inside the shipped state.
        sync.state["labeled"]["tiles-a.nc"]["bytes"] = serde_json::json!(4097);
        match sync.verify(&manifest) {
            Err(SyncError::ChecksumMismatch { .. }) => {}
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn garbage_state_payload_is_state_corrupt() {
        let (mut sync, manifest) = sync_and_manifest();
        // A labeled entry without its byte count is structurally invalid.
        sync.state = serde_json::json!({"labeled": {"tiles-a.nc": {}}});
        assert!(matches!(
            sync.verify(&manifest),
            Err(SyncError::StateCorrupt(_))
        ));
    }

    #[test]
    fn manifest_without_journal_digest_is_rejected() {
        let (sync, mut manifest) = sync_and_manifest();
        manifest.journal = None;
        assert_eq!(sync.verify(&manifest), Err(SyncError::JournalMissing));
    }

    #[test]
    fn mismatched_journals_are_rejected() {
        let (sync, mut manifest) = sync_and_manifest();
        let j = manifest.journal.as_mut().unwrap();
        j.checksum ^= 0xdead_beef;
        assert!(matches!(
            sync.verify(&manifest),
            Err(SyncError::JournalMismatch { .. })
        ));
    }

    #[test]
    fn incomplete_shipment_names_the_missing_artifact() {
        let (sync, mut manifest) = sync_and_manifest();
        manifest.artifacts.retain(|a| a.name != "tiles-b.nc");
        // Keep the journal digest consistent with the sync payload — the
        // *data* is what is incomplete here.
        match sync.verify(&manifest) {
            Err(SyncError::MissingArtifact { artifact }) => assert_eq!(artifact, "tiles-b.nc"),
            other => panic!("expected missing artifact, got {other:?}"),
        }
    }

    #[test]
    fn unlabeled_extra_artifact_is_rejected() {
        let (sync, mut manifest) = sync_and_manifest();
        manifest.artifacts.push(ArtifactEntry {
            name: "tiles-rogue.nc".into(),
            bytes: 1,
            digest: synthetic_digest("tiles-rogue.nc", 1),
            trace_id: None,
        });
        match sync.verify(&manifest) {
            Err(SyncError::UnknownArtifact { artifact }) => assert_eq!(artifact, "tiles-rogue.nc"),
            other => panic!("expected unknown artifact, got {other:?}"),
        }
    }

    #[test]
    fn wrong_artifact_digest_is_rejected() {
        let (sync, mut manifest) = sync_and_manifest();
        manifest.artifacts[0].digest ^= 1;
        assert!(matches!(
            sync.verify(&manifest),
            Err(SyncError::DigestMismatch { .. })
        ));
    }

    #[test]
    fn json_round_trip() {
        let (sync, _) = sync_and_manifest();
        let back = JournalSync::from_json(&sync.to_json()).expect("parse");
        assert_eq!(back, sync);
        // And the parsed payload still verifies.
        let (_, manifest) = sync_and_manifest();
        assert!(back.verify(&manifest).is_ok());
    }

    #[test]
    fn ingest_synced_refuses_a_bad_leg_before_verifying_artifacts() {
        let (sync, mut manifest) = sync_and_manifest();
        manifest.journal = None;
        let mut ing = Ingestor::new("frontier-orion");
        let received: Vec<crate::ingest::ReceivedArtifact> = manifest
            .artifacts
            .iter()
            .map(crate::ingest::ReceivedArtifact::faithful)
            .collect();
        let err = ingest_synced(&mut ing, &manifest, &sync, &received, 0.0).unwrap_err();
        assert_eq!(err, SyncError::JournalMissing);
        assert_eq!(ing.acked_count(), 0, "nothing may ack on a bad sync leg");
    }

    #[test]
    fn reship_with_backoff_converges_on_a_flaky_wan() {
        let (sync, manifest) = sync_and_manifest();
        let mut ing = Ingestor::new("frontier-orion");
        // Heavy but recoverable loss, deterministic stream.
        let mut faults = FaultInjector::new(
            FaultPlan {
                drop_probability: 0.6,
                corrupt_probability: 0.2,
            },
            1207,
        );
        let policy = BackoffPolicy::wan_default();
        let out = reship_with_backoff(
            &manifest,
            Some(&sync),
            &mut ing,
            &mut faults,
            &policy,
            40,
            0.0,
        )
        .expect("sync leg is clean");
        assert!(out.acked, "40 re-ships at 60/20% loss must converge");
        assert!(out.attempts > 1, "seeded stream must fail at least once");
        // Waited time follows the policy's schedule exactly.
        assert_eq!(out.waited_s, policy.total_delay_s(out.attempts - 1));
        // Exactly one report acks, and it is the last one.
        let acked: Vec<_> = out
            .reports
            .iter()
            .filter(|r| r.ok() && !r.duplicate)
            .collect();
        assert_eq!(acked.len(), 1);
        assert!(out.reports.last().unwrap().ok());
        assert_eq!(ing.acked_count(), 1);
    }

    #[test]
    fn reship_gives_up_after_the_budget() {
        let (sync, manifest) = sync_and_manifest();
        let mut ing = Ingestor::new("frontier-orion");
        // Total partition: every artifact drops, every attempt.
        let mut faults = FaultInjector::new(
            FaultPlan {
                drop_probability: 1.0,
                corrupt_probability: 0.0,
            },
            7,
        );
        let policy = BackoffPolicy::wan_default();
        let out = reship_with_backoff(
            &manifest,
            Some(&sync),
            &mut ing,
            &mut faults,
            &policy,
            3,
            0.0,
        )
        .expect("sync leg is clean");
        assert!(!out.acked);
        assert_eq!(out.attempts, 4, "retry_limit 3 = 4 total attempts");
        assert_eq!(out.waited_s, policy.total_delay_s(3));
        assert_eq!(ing.acked_count(), 0);
    }
}
