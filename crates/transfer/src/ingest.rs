//! Destination-side ingest: verify a shipment against its manifest.
//!
//! The receiving facility holds the bytes that actually arrived and the
//! [`ShipmentManifest`] that travelled with them. [`Ingestor::ingest`]
//! joins the two: every manifest artifact must be present, the right
//! size, and digest-identical; anything extra on the floor is flagged.
//! The outcome is an [`IngestReport`] with **typed** errors
//! ([`IngestError`]) — a corrupt artifact is a loud, machine-readable
//! failure, never a silently dropped file.
//!
//! Verification work is recorded as facility-tagged `ingest` spans on
//! the destination's own [`Obs`] hub, carrying the granule trace ids
//! from the manifest — the raw material `obs::xfac` stitches into one
//! cross-facility timeline.
//!
//! **Idempotency contract:** a fully verified manifest id is remembered
//! (seeded via [`Ingestor::restore_acked`] from journaled
//! `IngestAcked` events). Re-shipping an acked manifest is a no-op
//! `duplicate` report — the caller journals acks, this type only keeps
//! the set.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use eoml_obs::{Obs, TraceContext};
use serde_json::{json, Value};

use crate::faults::{FaultInjector, FlowOutcome};
use crate::manifest::{ArtifactEntry, ShipmentManifest};

/// One artifact as it arrived at the destination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReceivedArtifact {
    /// File name.
    pub name: String,
    /// Bytes received.
    pub bytes: u64,
    /// Digest of the received payload.
    pub digest: u64,
}

impl ReceivedArtifact {
    /// A faithful copy of a manifest entry (what a clean WAN delivers).
    pub fn faithful(entry: &ArtifactEntry) -> ReceivedArtifact {
        ReceivedArtifact {
            name: entry.name.clone(),
            bytes: entry.bytes,
            digest: entry.digest,
        }
    }
}

/// Simulate the WAN hop: sample the fault injector once per artifact.
/// A dropped connection loses the artifact entirely; a checksum fault
/// delivers it with a corrupted digest.
pub fn receive(manifest: &ShipmentManifest, faults: &mut FaultInjector) -> Vec<ReceivedArtifact> {
    let mut out = Vec::with_capacity(manifest.artifacts.len());
    for entry in &manifest.artifacts {
        match faults.sample() {
            FlowOutcome::ConnectionDropped => {}
            FlowOutcome::ChecksumMismatch => out.push(ReceivedArtifact {
                name: entry.name.clone(),
                bytes: entry.bytes,
                digest: faults.corrupt_digest(entry.digest),
            }),
            FlowOutcome::Success => out.push(ReceivedArtifact::faithful(entry)),
        }
    }
    out
}

/// A typed ingest-verification failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestError {
    /// The artifact arrived but its content digest differs.
    DigestMismatch {
        /// Artifact name.
        artifact: String,
        /// Digest the manifest promises.
        expected: u64,
        /// Digest of the received bytes.
        actual: u64,
    },
    /// The artifact arrived truncated or padded.
    SizeMismatch {
        /// Artifact name.
        artifact: String,
        /// Bytes the manifest promises.
        expected: u64,
        /// Bytes received.
        actual: u64,
    },
    /// A manifest artifact never arrived.
    Missing {
        /// Artifact name.
        artifact: String,
    },
    /// An artifact arrived that the manifest does not list.
    Unexpected {
        /// Artifact name.
        artifact: String,
    },
}

impl IngestError {
    /// Short machine label (`digest_mismatch` / `size_mismatch` /
    /// `missing` / `unexpected`).
    pub fn kind(&self) -> &'static str {
        match self {
            IngestError::DigestMismatch { .. } => "digest_mismatch",
            IngestError::SizeMismatch { .. } => "size_mismatch",
            IngestError::Missing { .. } => "missing",
            IngestError::Unexpected { .. } => "unexpected",
        }
    }

    /// The artifact involved.
    pub fn artifact(&self) -> &str {
        match self {
            IngestError::DigestMismatch { artifact, .. }
            | IngestError::SizeMismatch { artifact, .. }
            | IngestError::Missing { artifact }
            | IngestError::Unexpected { artifact } => artifact,
        }
    }

    /// JSON form.
    pub fn to_json(&self) -> Value {
        match self {
            IngestError::DigestMismatch {
                artifact,
                expected,
                actual,
            } => json!({
                "kind": "digest_mismatch",
                "artifact": artifact,
                "expected": format!("{expected:016x}"),
                "actual": format!("{actual:016x}"),
            }),
            IngestError::SizeMismatch {
                artifact,
                expected,
                actual,
            } => json!({
                "kind": "size_mismatch",
                "artifact": artifact,
                "expected": expected,
                "actual": actual,
            }),
            IngestError::Missing { artifact } => {
                json!({ "kind": "missing", "artifact": artifact })
            }
            IngestError::Unexpected { artifact } => {
                json!({ "kind": "unexpected", "artifact": artifact })
            }
        }
    }

    /// Parse the JSON form.
    pub fn from_json(v: &Value) -> Result<IngestError, String> {
        let artifact = v["artifact"]
            .as_str()
            .ok_or("ingest error: missing 'artifact'")?
            .to_string();
        let hex64 = |k: &str| -> Result<u64, String> {
            let s = v[k]
                .as_str()
                .ok_or_else(|| format!("ingest error: missing '{k}'"))?;
            u64::from_str_radix(s, 16).map_err(|_| format!("ingest error: '{k}' is not hex"))
        };
        Ok(match v["kind"].as_str() {
            Some("digest_mismatch") => IngestError::DigestMismatch {
                artifact,
                expected: hex64("expected")?,
                actual: hex64("actual")?,
            },
            Some("size_mismatch") => IngestError::SizeMismatch {
                artifact,
                expected: v["expected"]
                    .as_u64()
                    .ok_or("ingest error: missing 'expected'")?,
                actual: v["actual"]
                    .as_u64()
                    .ok_or("ingest error: missing 'actual'")?,
            },
            Some("missing") => IngestError::Missing { artifact },
            Some("unexpected") => IngestError::Unexpected { artifact },
            other => return Err(format!("unknown ingest error kind {other:?}")),
        })
    }
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::DigestMismatch {
                artifact,
                expected,
                actual,
            } => write!(
                f,
                "digest mismatch on {artifact}: manifest {expected:016x}, received {actual:016x}"
            ),
            IngestError::SizeMismatch {
                artifact,
                expected,
                actual,
            } => write!(
                f,
                "size mismatch on {artifact}: manifest {expected} B, received {actual} B"
            ),
            IngestError::Missing { artifact } => write!(f, "missing artifact {artifact}"),
            IngestError::Unexpected { artifact } => {
                write!(f, "unexpected artifact {artifact} not in manifest")
            }
        }
    }
}

impl std::error::Error for IngestError {}

/// Outcome of verifying one shipment at the destination.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestReport {
    /// Manifest id this report answers.
    pub manifest_id: String,
    /// Source facility (from the manifest).
    pub source: String,
    /// The verifying (destination) facility.
    pub facility: String,
    /// Verification start, trace seconds.
    pub at_s: f64,
    /// Artifacts that verified clean, in manifest order.
    pub verified: Vec<String>,
    /// Every verification failure, typed.
    pub errors: Vec<IngestError>,
    /// The manifest was already acknowledged — re-ship skipped as a
    /// no-op (idempotency).
    pub duplicate: bool,
    /// Bytes whose digests verified.
    pub bytes_verified: u64,
    /// Virtual seconds spent verifying.
    pub verify_seconds: f64,
}

impl IngestReport {
    /// Whether the shipment is complete and intact.
    pub fn ok(&self) -> bool {
        self.errors.is_empty()
    }

    /// The first failure, when any — the loud error a caller surfaces.
    pub fn first_error(&self) -> Option<&IngestError> {
        self.errors.first()
    }

    /// JSON form (the `EOML_XFAC_REPORT` export CI validates).
    pub fn to_json(&self) -> Value {
        json!({
            "manifest_id": self.manifest_id,
            "source": self.source,
            "facility": self.facility,
            "at_s": self.at_s,
            "ok": self.ok(),
            "duplicate": self.duplicate,
            "verified": self.verified,
            "errors": self.errors.iter().map(IngestError::to_json).collect::<Vec<_>>(),
            "bytes_verified": self.bytes_verified,
            "verify_seconds": self.verify_seconds,
        })
    }

    /// Parse the JSON form.
    pub fn from_json(v: &Value) -> Result<IngestReport, String> {
        let str_field = |k: &str| -> Result<String, String> {
            v[k].as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("ingest report: missing '{k}'"))
        };
        let errors = match v["errors"].as_array() {
            Some(a) => a
                .iter()
                .map(IngestError::from_json)
                .collect::<Result<Vec<_>, _>>()?,
            None => Vec::new(),
        };
        Ok(IngestReport {
            manifest_id: str_field("manifest_id")?,
            source: str_field("source")?,
            facility: str_field("facility")?,
            at_s: v["at_s"].as_f64().unwrap_or(0.0),
            verified: v["verified"]
                .as_array()
                .map(|a| {
                    a.iter()
                        .filter_map(Value::as_str)
                        .map(str::to_string)
                        .collect()
                })
                .unwrap_or_default(),
            errors,
            duplicate: v["duplicate"].as_bool().unwrap_or(false),
            bytes_verified: v["bytes_verified"].as_u64().unwrap_or(0),
            verify_seconds: v["verify_seconds"].as_f64().unwrap_or(0.0),
        })
    }
}

/// The destination facility's verifier: owns the acked-manifest set and
/// (optionally) an [`Obs`] hub that receives facility-tagged spans.
#[derive(Debug)]
pub struct Ingestor {
    facility: String,
    obs: Option<Arc<Obs>>,
    verify_rate_bps: f64,
    acked: BTreeSet<String>,
}

impl Ingestor {
    /// Verifier for `facility` with the default verify throughput
    /// (500 MB/s — a parallel checksum pass on a parallel file system).
    pub fn new(facility: &str) -> Ingestor {
        Ingestor {
            facility: facility.to_string(),
            obs: None,
            verify_rate_bps: 500e6,
            acked: BTreeSet::new(),
        }
    }

    /// Builder: record verification spans/counters into `obs`.
    pub fn with_obs(mut self, obs: Arc<Obs>) -> Ingestor {
        self.obs = Some(obs);
        self
    }

    /// The facility this verifier answers for.
    pub fn facility(&self) -> &str {
        &self.facility
    }

    /// The attached hub, for sibling modules that record extra
    /// facility-tagged counters (the journal-sync completeness check).
    pub(crate) fn obs_hub(&self) -> Option<&Arc<Obs>> {
        self.obs.as_ref()
    }

    /// Seed the acked set from durable state (journaled `IngestAcked`
    /// manifest ids) — how a restarted destination stays idempotent.
    pub fn restore_acked<I: IntoIterator<Item = String>>(&mut self, ids: I) {
        self.acked.extend(ids);
    }

    /// Whether a manifest id is already acknowledged.
    pub fn is_acked(&self, manifest_id: &str) -> bool {
        self.acked.contains(manifest_id)
    }

    /// Manifests acknowledged so far.
    pub fn acked_count(&self) -> usize {
        self.acked.len()
    }

    /// Verify `received` against `manifest`, starting at `now_s` on the
    /// trace clock. Spans land on the destination hub tagged with this
    /// facility; a fully clean shipment is acknowledged (idempotent on
    /// re-ship). The caller journals an `IngestAcked` event when
    /// `report.ok() && !report.duplicate`.
    pub fn ingest(
        &mut self,
        manifest: &ShipmentManifest,
        received: &[ReceivedArtifact],
        now_s: f64,
    ) -> IngestReport {
        let manifest_id = manifest.id();
        let stage_key = format!("facility:{}", self.facility);
        if self.acked.contains(&manifest_id) {
            if let Some(obs) = &self.obs {
                obs.record_sim_span(
                    "ingest",
                    "duplicate_ack",
                    eoml_simtime::SimTime::from_secs_f64(now_s.max(0.0)),
                    eoml_simtime::SimTime::from_secs_f64(now_s.max(0.0)),
                    None,
                    &[
                        ("facility", self.facility.as_str()),
                        ("manifest", manifest_id.as_str()),
                    ],
                );
                obs.counter_add("duplicate_shipments", &stage_key, 1);
            }
            return IngestReport {
                manifest_id,
                source: manifest.source.clone(),
                facility: self.facility.clone(),
                at_s: now_s,
                verified: Vec::new(),
                errors: Vec::new(),
                duplicate: true,
                bytes_verified: 0,
                verify_seconds: 0.0,
            };
        }

        let mut verified = Vec::new();
        let mut errors = Vec::new();
        let mut bytes_verified = 0u64;
        let mut clock = now_s;
        // Both sides indexed by name, so verifying is not quadratic in the
        // shipment; a name received twice is verified by its first copy.
        let mut arrived = BTreeMap::new();
        for r in received {
            arrived.entry(r.name.as_str()).or_insert(r);
        }
        for entry in &manifest.artifacts {
            match arrived.get(entry.name.as_str()) {
                None => errors.push(IngestError::Missing {
                    artifact: entry.name.clone(),
                }),
                Some(r) if r.bytes != entry.bytes => errors.push(IngestError::SizeMismatch {
                    artifact: entry.name.clone(),
                    expected: entry.bytes,
                    actual: r.bytes,
                }),
                Some(r) if r.digest != entry.digest => errors.push(IngestError::DigestMismatch {
                    artifact: entry.name.clone(),
                    expected: entry.digest,
                    actual: r.digest,
                }),
                Some(r) => {
                    let took = r.bytes as f64 / self.verify_rate_bps;
                    if let Some(obs) = &self.obs {
                        let trace = entry.trace_id.as_deref().map(TraceContext::new);
                        obs.record_sim_span(
                            "ingest",
                            "verify",
                            eoml_simtime::SimTime::from_secs_f64(clock.max(0.0)),
                            eoml_simtime::SimTime::from_secs_f64((clock + took).max(0.0)),
                            trace.as_ref(),
                            &[
                                ("facility", self.facility.as_str()),
                                ("artifact", entry.name.as_str()),
                            ],
                        );
                    }
                    clock += took;
                    bytes_verified += r.bytes;
                    verified.push(entry.name.clone());
                }
            }
        }
        let listed: BTreeSet<&str> = manifest.artifacts.iter().map(|a| a.name.as_str()).collect();
        for r in received {
            if !listed.contains(r.name.as_str()) {
                errors.push(IngestError::Unexpected {
                    artifact: r.name.clone(),
                });
            }
        }

        if let Some(obs) = &self.obs {
            obs.counter_add("artifacts_verified", &stage_key, verified.len() as u64);
            if !errors.is_empty() {
                obs.counter_add("verify_failures", &stage_key, errors.len() as u64);
                for e in &errors {
                    obs.record_sim_span(
                        "ingest",
                        "verify_failed",
                        eoml_simtime::SimTime::from_secs_f64(clock.max(0.0)),
                        eoml_simtime::SimTime::from_secs_f64(clock.max(0.0)),
                        None,
                        &[
                            ("facility", self.facility.as_str()),
                            ("artifact", e.artifact()),
                            ("error", e.kind()),
                        ],
                    );
                }
            }
        }
        if errors.is_empty() {
            self.acked.insert(manifest_id.clone());
        }
        IngestReport {
            manifest_id,
            source: manifest.source.clone(),
            facility: self.facility.clone(),
            at_s: now_s,
            verified,
            errors,
            duplicate: false,
            bytes_verified,
            verify_seconds: clock - now_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use crate::manifest::synthetic_digest;

    fn manifest(n: usize) -> ShipmentManifest {
        let mut m = ShipmentManifest::new("ace-defiant", "frontier-orion", 100.0);
        for i in 0..n {
            let name = format!("tiles-MOD.A2022001.{i:04}.nc");
            let bytes = 1_000_000 + i as u64;
            m.artifacts.push(ArtifactEntry {
                digest: synthetic_digest(&name, bytes),
                trace_id: Some(format!("MOD.A2022001.{i:04}")),
                name,
                bytes,
            });
        }
        m
    }

    fn faithful(m: &ShipmentManifest) -> Vec<ReceivedArtifact> {
        m.artifacts.iter().map(ReceivedArtifact::faithful).collect()
    }

    #[test]
    fn clean_shipment_verifies_and_acks() {
        let m = manifest(3);
        let obs = Obs::shared();
        let mut ing = Ingestor::new("frontier-orion").with_obs(Arc::clone(&obs));
        let report = ing.ingest(&m, &faithful(&m), 100.0);
        assert!(report.ok());
        assert!(!report.duplicate);
        assert_eq!(report.verified.len(), 3);
        assert_eq!(report.bytes_verified, m.total_bytes());
        assert!(report.verify_seconds > 0.0);
        assert!(ing.is_acked(&m.id()));
        // Facility-tagged verify spans carry the granule trace ids.
        let spans = obs.spans();
        let verifies: Vec<_> = spans.iter().filter(|s| s.name == "verify").collect();
        assert_eq!(verifies.len(), 3);
        for s in &verifies {
            assert_eq!(s.attr("facility"), Some("frontier-orion"));
            assert!(s.trace_id.is_some());
        }
        assert_eq!(
            obs.metrics()
                .counter_value("artifacts_verified", "facility:frontier-orion"),
            Some(3)
        );
    }

    #[test]
    fn a_name_received_twice_is_verified_by_its_first_copy() {
        let m = manifest(2);
        let mut corrupt = faithful(&m)[1].clone();
        corrupt.digest ^= 1;
        let mut received = faithful(&m);
        received.push(corrupt.clone());
        let report = Ingestor::new("frontier-orion").ingest(&m, &received, 0.0);
        assert!(report.ok(), "{:?}", report.errors);
        assert_eq!(report.verified.len(), 2);

        received.insert(0, corrupt);
        let report = Ingestor::new("frontier-orion").ingest(&m, &received, 0.0);
        let kinds: Vec<&str> = report.errors.iter().map(|e| e.kind()).collect();
        assert_eq!(kinds, ["digest_mismatch"]);
        assert_eq!(report.errors[0].artifact(), m.artifacts[1].name);
    }

    #[test]
    fn corrupt_missing_and_extra_artifacts_are_typed_errors() {
        let m = manifest(3);
        let mut received = faithful(&m);
        received[0].digest ^= 0xff; // corrupt
        received.remove(1); // missing
        received.push(ReceivedArtifact {
            name: "stowaway.nc".into(),
            bytes: 10,
            digest: 1,
        }); // extra
        received[1].bytes += 7; // size mismatch (was index 2)

        let obs = Obs::shared();
        let mut ing = Ingestor::new("frontier-orion").with_obs(Arc::clone(&obs));
        let report = ing.ingest(&m, &received, 0.0);
        assert!(!report.ok());
        assert!(!ing.is_acked(&m.id()), "failed shipments are never acked");
        let kinds: Vec<&str> = report.errors.iter().map(|e| e.kind()).collect();
        assert_eq!(
            kinds,
            vec!["digest_mismatch", "missing", "size_mismatch", "unexpected"]
        );
        assert!(report
            .first_error()
            .unwrap()
            .to_string()
            .contains("digest mismatch"));
        assert_eq!(
            obs.metrics()
                .counter_value("verify_failures", "facility:frontier-orion"),
            Some(4)
        );
        // Round-trips for the CI-validated JSON form.
        let back = IngestReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn reship_after_ack_is_idempotent() {
        let m = manifest(2);
        let mut ing = Ingestor::new("frontier-orion");
        assert!(ing.ingest(&m, &faithful(&m), 10.0).ok());
        let again = ing.ingest(&m, &faithful(&m), 20.0);
        assert!(again.duplicate);
        assert!(again.ok());
        assert!(again.verified.is_empty(), "no re-verification work");
        assert_eq!(ing.acked_count(), 1);
    }

    #[test]
    fn restored_acks_survive_a_restart() {
        let m = manifest(2);
        let id = m.id();
        let mut fresh = Ingestor::new("frontier-orion");
        fresh.restore_acked([id.clone()]);
        let report = fresh.ingest(&m, &faithful(&m), 0.0);
        assert!(
            report.duplicate,
            "journal-restored ack suppresses re-ingest"
        );
    }

    #[test]
    fn seeded_fault_injection_reproduces_the_same_failures() {
        let m = manifest(40);
        let plan = FaultPlan {
            drop_probability: 0.2,
            corrupt_probability: 0.2,
        };
        let r1 = receive(&m, &mut FaultInjector::new(plan, 42));
        let r2 = receive(&m, &mut FaultInjector::new(plan, 42));
        assert_eq!(r1, r2, "same seed, same corruption/loss pattern");
        let mut a = Ingestor::new("frontier-orion");
        let mut b = Ingestor::new("frontier-orion");
        let ra = a.ingest(&m, &r1, 0.0);
        let rb = b.ingest(&m, &r2, 0.0);
        assert_eq!(ra.errors, rb.errors);
        assert!(!ra.ok(), "40 artifacts at 40% fault rate must fail some");
        // Faults only ever produce missing or corrupt — never size drift.
        for e in &ra.errors {
            assert!(matches!(
                e,
                IngestError::Missing { .. } | IngestError::DigestMismatch { .. }
            ));
        }
    }

    #[test]
    fn duplicate_and_error_reports_round_trip_json() {
        let m = manifest(1);
        let mut ing = Ingestor::new("orion");
        let ok = ing.ingest(&m, &faithful(&m), 5.0);
        let dup = ing.ingest(&m, &faithful(&m), 6.0);
        for r in [ok, dup] {
            assert_eq!(IngestReport::from_json(&r.to_json()).unwrap(), r);
        }
    }
}
