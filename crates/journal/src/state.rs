//! Materialised journal state: the completed-work sets a resuming driver
//! consults to skip finished granules, tiles, labels, and shipments. Also
//! the payload of snapshot events, so recovery is O(tail) instead of
//! O(whole journal).

use crate::event::JournalEvent;
use serde_json::{json, Map, Value};
use std::collections::{BTreeMap, BTreeSet};

/// Everything a driver needs to know about work already durably completed.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CampaignState {
    /// World seed of the campaign that wrote the journal.
    pub seed: Option<u64>,
    /// Campaign label.
    pub label: Option<String>,
    /// Stages that have started.
    pub stages_started: BTreeSet<String>,
    /// Stages that have finished.
    pub stages_finished: BTreeSet<String>,
    /// Downloaded files → payload bytes.
    pub downloaded: BTreeMap<String, u64>,
    /// Written tile files → tile count.
    pub tile_files: BTreeMap<String, u64>,
    /// Files the monitor has already surfaced (dedups triggers on resume).
    pub monitor_seen: BTreeSet<String>,
    /// Labeled files → (labels, file bytes).
    pub labeled: BTreeMap<String, (u64, u64)>,
    /// Shipped files → (bytes, content digest), each taken once.
    pub digests: BTreeMap<String, (u64, u64)>,
    /// Completed final shipment, if any: (files, bytes).
    pub shipped: Option<(u64, u64)>,
    /// Acknowledged ingest manifests → (files, bytes) verified. Keyed by
    /// manifest id; re-ships of an acked manifest are idempotent no-ops.
    pub ingests_acked: BTreeMap<String, (u64, u64)>,
    /// Ingest rejections per facility (durable audit of loud failures).
    pub ingest_rejections: BTreeMap<String, u64>,
    /// Keyed service records (tenant registries, campaign lifecycle, ...):
    /// last write wins, `null` deletes. Opaque to the journal.
    pub service_records: BTreeMap<String, Value>,
    /// Events folded into this state (snapshot bookkeeping).
    pub events_applied: u64,
}

impl CampaignState {
    /// Empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one event in.
    pub fn apply(&mut self, event: &JournalEvent) {
        self.events_applied += 1;
        match event {
            JournalEvent::CampaignStarted { seed, label } => {
                self.seed = Some(*seed);
                self.label = Some(label.clone());
            }
            JournalEvent::StageStarted { stage } => {
                self.stages_started.insert(stage.clone());
            }
            JournalEvent::StageFinished { stage } => {
                self.stages_finished.insert(stage.clone());
            }
            JournalEvent::FileDownloaded { file, bytes } => {
                self.downloaded.insert(file.clone(), *bytes);
            }
            JournalEvent::TileFileWritten { file, tiles } => {
                self.tile_files.insert(file.clone(), *tiles);
            }
            JournalEvent::MonitorTriggered { file } => {
                self.monitor_seen.insert(file.clone());
            }
            JournalEvent::LabelsAppended {
                file,
                labels,
                bytes,
            } => {
                self.labeled.insert(file.clone(), (*labels, *bytes));
            }
            JournalEvent::ArtifactDigested {
                file,
                bytes,
                digest,
            } => {
                self.digests.insert(file.clone(), (*bytes, *digest));
            }
            JournalEvent::ShipmentFinished { files, bytes } => {
                self.shipped = Some((*files, *bytes));
            }
            JournalEvent::IngestAcked {
                manifest,
                files,
                bytes,
                ..
            } => {
                self.ingests_acked
                    .insert(manifest.clone(), (*files, *bytes));
            }
            JournalEvent::IngestRejected { facility, .. } => {
                *self.ingest_rejections.entry(facility.clone()).or_insert(0) += 1;
            }
            JournalEvent::ServiceRecord { key, value } => {
                if value.is_null() {
                    self.service_records.remove(key);
                } else {
                    self.service_records.insert(key.clone(), value.clone());
                }
            }
            JournalEvent::Snapshot { .. } => {
                // Snapshots carry state; they do not change it.
            }
        }
    }

    /// Whether this state already holds the completion `event` records, so
    /// a resuming driver need not append it again. It sits beside
    /// [`apply`](Self::apply) because both must agree on the key each event
    /// is filed under. Only the eight work events can be covered; a claim,
    /// snapshot, ingest or service record is always appended.
    pub fn covers(&self, event: &JournalEvent) -> bool {
        match event {
            JournalEvent::StageStarted { stage } => self.stages_started.contains(stage),
            JournalEvent::StageFinished { stage } => self.stage_done(stage),
            JournalEvent::FileDownloaded { file, .. } => self.is_downloaded(file),
            JournalEvent::TileFileWritten { file, .. } => self.has_tile_file(file),
            JournalEvent::MonitorTriggered { file } => self.monitor_saw(file),
            JournalEvent::LabelsAppended { file, .. } => self.is_labeled(file),
            JournalEvent::ArtifactDigested { file, .. } => self.digests.contains_key(file),
            JournalEvent::ShipmentFinished { .. } => self.shipped.is_some(),
            _ => false,
        }
    }

    /// Whether a download already completed durably.
    pub fn is_downloaded(&self, file: &str) -> bool {
        self.downloaded.contains_key(file)
    }

    /// Whether a tile file was already written.
    pub fn has_tile_file(&self, file: &str) -> bool {
        self.tile_files.contains_key(file)
    }

    /// Whether the monitor already surfaced this file.
    pub fn monitor_saw(&self, file: &str) -> bool {
        self.monitor_seen.contains(file)
    }

    /// Whether labels were already appended to this file.
    pub fn is_labeled(&self, file: &str) -> bool {
        self.labeled.contains_key(file)
    }

    /// Whether a stage already ran to completion.
    pub fn stage_done(&self, stage: &str) -> bool {
        self.stages_finished.contains(stage)
    }

    /// Whether a shipment manifest was already acknowledged by its
    /// destination (the idempotency check for re-ships).
    pub fn is_ingest_acked(&self, manifest: &str) -> bool {
        self.ingests_acked.contains_key(manifest)
    }

    /// FNV-1a checksum of this state's canonical JSON with
    /// `events_applied` zeroed — the *work checksum* behind
    /// [`Journal::state_digest`](crate::Journal::state_digest) and the
    /// shipment-manifest `JournalDigest`. Replay bookkeeping is excluded,
    /// so the checksum is invariant under compaction and crash/resume:
    /// two journals that durably completed the same work agree, and any
    /// divergence in completed work changes it. A destination facility
    /// recomputes this over a synced state payload to detect tampering or
    /// truncation before trusting it for failover.
    pub fn work_checksum(&self) -> u64 {
        let mut canon = self.clone();
        canon.events_applied = 0;
        eoml_util::hash::fnv1a64(canon.to_json().to_string().as_bytes())
    }

    /// Serialise for a snapshot event. `digests` is written only when it
    /// holds one, so a journal that never digests a file (every simulated
    /// driver's) serialises, and checksums, as it did before the map.
    pub fn to_json(&self) -> Value {
        let pairs = |m: &BTreeMap<String, u64>| -> Value {
            Value::Object(m.iter().map(|(k, v)| (k.clone(), json!(*v))).collect())
        };
        let mut state = json!({
            "seed": self.seed.map(|s| json!(s)).unwrap_or(Value::Null),
            "label": self.label.clone().map(Value::String).unwrap_or(Value::Null),
            "stages_started": self.stages_started.iter().cloned().collect::<Vec<_>>(),
            "stages_finished": self.stages_finished.iter().cloned().collect::<Vec<_>>(),
            "downloaded": pairs(&self.downloaded),
            "tile_files": pairs(&self.tile_files),
            "monitor_seen": self.monitor_seen.iter().cloned().collect::<Vec<_>>(),
            "labeled": Value::Object(
                self.labeled
                    .iter()
                    .map(|(k, (labels, bytes))| {
                        (k.clone(), json!({ "labels": *labels, "bytes": *bytes }))
                    })
                    .collect::<Map>(),
            ),
            "shipped": self
                .shipped
                .map(|(files, bytes)| json!({ "files": files, "bytes": bytes }))
                .unwrap_or(Value::Null),
            "ingests_acked": Value::Object(
                self.ingests_acked
                    .iter()
                    .map(|(k, (files, bytes))| {
                        (k.clone(), json!({ "files": *files, "bytes": *bytes }))
                    })
                    .collect::<Map>(),
            ),
            "ingest_rejections": pairs(&self.ingest_rejections),
            // Constants: journals once held flow runs here, and keeping
            // the two fields keeps every snapshot and work checksum as it
            // was.
            "flow_states": {},
            "flows_finished": {},
            "service_records": Value::Object(
                self.service_records
                    .iter()
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect::<Map>(),
            ),
            "events_applied": self.events_applied,
        });
        if !self.digests.is_empty() {
            let digests = self.digests.iter().map(|(k, (bytes, digest))| {
                let entry = json!({ "bytes": *bytes, "digest": format!("{digest:016x}") });
                (k.clone(), entry)
            });
            state["digests"] = Value::Object(digests.collect());
        }
        state
    }

    /// Rebuild from a snapshot payload. `flow_states` and `flows_finished`
    /// are ignored.
    pub fn from_json(v: &Value) -> Result<CampaignState, String> {
        let mut s = CampaignState::new();
        s.seed = v["seed"].as_u64();
        s.label = v["label"].as_str().map(str::to_string);
        let str_set = |key: &str| -> BTreeSet<String> {
            v[key]
                .as_array()
                .map(|a| {
                    a.iter()
                        .filter_map(Value::as_str)
                        .map(str::to_string)
                        .collect()
                })
                .unwrap_or_default()
        };
        s.stages_started = str_set("stages_started");
        s.stages_finished = str_set("stages_finished");
        s.monitor_seen = str_set("monitor_seen");
        let u64_map = |key: &str| -> Result<BTreeMap<String, u64>, String> {
            match v[key].as_object() {
                None => Ok(BTreeMap::new()),
                Some(obj) => obj
                    .iter()
                    .map(|(k, val)| {
                        val.as_u64()
                            .map(|n| (k.clone(), n))
                            .ok_or_else(|| format!("snapshot {key}[{k}] not a count"))
                    })
                    .collect(),
            }
        };
        s.downloaded = u64_map("downloaded")?;
        s.tile_files = u64_map("tile_files")?;
        if let Some(obj) = v["labeled"].as_object() {
            for (k, entry) in obj.iter() {
                let labels = entry["labels"]
                    .as_u64()
                    .ok_or_else(|| format!("snapshot labeled[{k}] missing labels"))?;
                let bytes = entry["bytes"]
                    .as_u64()
                    .ok_or_else(|| format!("snapshot labeled[{k}] missing bytes"))?;
                s.labeled.insert(k.clone(), (labels, bytes));
            }
        }
        if let Some(obj) = v["digests"].as_object() {
            for (k, entry) in obj.iter() {
                let bytes = entry["bytes"]
                    .as_u64()
                    .ok_or_else(|| format!("snapshot digests[{k}] missing bytes"))?;
                let digest = entry["digest"]
                    .as_str()
                    .and_then(hex_digest)
                    .ok_or_else(|| format!("snapshot digests[{k}] missing digest"))?;
                s.digests.insert(k.clone(), (bytes, digest));
            }
        }
        if !v["shipped"].is_null() {
            let files = v["shipped"]["files"]
                .as_u64()
                .ok_or("snapshot shipped missing files")?;
            let bytes = v["shipped"]["bytes"]
                .as_u64()
                .ok_or("snapshot shipped missing bytes")?;
            s.shipped = Some((files, bytes));
        }
        if let Some(obj) = v["ingests_acked"].as_object() {
            for (k, entry) in obj.iter() {
                let files = entry["files"]
                    .as_u64()
                    .ok_or_else(|| format!("snapshot ingests_acked[{k}] missing files"))?;
                let bytes = entry["bytes"]
                    .as_u64()
                    .ok_or_else(|| format!("snapshot ingests_acked[{k}] missing bytes"))?;
                s.ingests_acked.insert(k.clone(), (files, bytes));
            }
        }
        s.ingest_rejections = u64_map("ingest_rejections")?;
        if let Some(obj) = v["service_records"].as_object() {
            for (k, entry) in obj.iter() {
                s.service_records.insert(k.clone(), entry.clone());
            }
        }
        s.events_applied = v["events_applied"].as_u64().unwrap_or(0);
        Ok(s)
    }
}

/// The digest written as exactly 16 hex digits, as the shipment manifest
/// writes it.
pub(crate) fn hex_digest(text: &str) -> Option<u64> {
    let hex = text.len() == 16 && text.bytes().all(|b| b.is_ascii_hexdigit());
    hex.then(|| u64::from_str_radix(text, 16).ok()).flatten()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One of the eight work events (`kind` 0–7) or of the records a state
    /// never covers (8–11); small name spaces so sequences collide.
    fn event(kind: u8, n: u64) -> JournalEvent {
        let file = format!("tiles-{}.nc", n % 5);
        let stage = format!("stage-{}", n % 3);
        match kind {
            0 => JournalEvent::StageStarted { stage },
            1 => JournalEvent::StageFinished { stage },
            2 => JournalEvent::FileDownloaded { file, bytes: n },
            3 => JournalEvent::TileFileWritten { file, tiles: n },
            4 => JournalEvent::MonitorTriggered { file },
            5 => JournalEvent::LabelsAppended {
                file,
                labels: n,
                bytes: n * 7,
            },
            6 => JournalEvent::ShipmentFinished { files: n, bytes: n },
            7 => JournalEvent::ArtifactDigested {
                file,
                bytes: n,
                digest: n.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            },
            8 => JournalEvent::CampaignStarted {
                seed: n,
                label: stage,
            },
            9 => JournalEvent::Snapshot {
                state: CampaignState::new().to_json(),
            },
            10 => JournalEvent::IngestAcked {
                manifest: file,
                facility: stage,
                files: n,
                bytes: n,
            },
            _ => JournalEvent::ServiceRecord {
                key: file,
                value: json!(n),
            },
        }
    }

    proptest! {
        /// `covers` answers from exactly what `apply` filed: a work event is
        /// covered from the moment it is applied, and applying a covered
        /// event again with the same payload changes no completed work.
        #[test]
        fn covers_holds_after_apply_for_the_work_events(
            kinds in proptest::collection::vec((0u8..12, 0u64..40), 1..60),
        ) {
            let mut s = CampaignState::new();
            for &(kind, n) in &kinds {
                let ev = event(kind, n);
                prop_assert!(!CampaignState::new().covers(&ev), "default state covers {:?}", ev);
                s.apply(&ev);
                prop_assert_eq!(s.covers(&ev), kind < 8, "{:?}", ev);
                let checksum = s.work_checksum();
                if s.covers(&ev) {
                    s.apply(&ev);
                    prop_assert_eq!(s.work_checksum(), checksum, "replayed {:?}", ev);
                }
            }
        }
    }

    fn populated() -> CampaignState {
        let mut s = CampaignState::new();
        for ev in [
            JournalEvent::CampaignStarted {
                seed: 9,
                label: "demo".into(),
            },
            JournalEvent::StageStarted {
                stage: "download".into(),
            },
            JournalEvent::FileDownloaded {
                file: "a.hdf".into(),
                bytes: 100,
            },
            JournalEvent::StageFinished {
                stage: "download".into(),
            },
            JournalEvent::TileFileWritten {
                file: "t.nc".into(),
                tiles: 5,
            },
            JournalEvent::MonitorTriggered {
                file: "t.nc".into(),
            },
            JournalEvent::LabelsAppended {
                file: "t.nc".into(),
                labels: 5,
                bytes: 777,
            },
            JournalEvent::ShipmentFinished {
                files: 1,
                bytes: 777,
            },
        ] {
            s.apply(&ev);
        }
        s
    }

    #[test]
    fn apply_builds_completed_sets() {
        let s = populated();
        assert!(s.is_downloaded("a.hdf"));
        assert!(!s.is_downloaded("b.hdf"));
        assert!(s.stage_done("download"));
        assert!(s.has_tile_file("t.nc"));
        assert!(s.monitor_saw("t.nc"));
        assert!(s.is_labeled("t.nc"));
        assert_eq!(s.shipped, Some((1, 777)));
        assert_eq!(s.events_applied, 8);
    }

    #[test]
    fn service_records_upsert_delete_and_round_trip() {
        let mut s = CampaignState::new();
        s.apply(&JournalEvent::ServiceRecord {
            key: "tenant/acme".into(),
            value: json!({ "weight": 4 }),
        });
        s.apply(&JournalEvent::ServiceRecord {
            key: "campaign/acme/winter".into(),
            value: json!({ "status": "queued" }),
        });
        // Last write wins.
        s.apply(&JournalEvent::ServiceRecord {
            key: "campaign/acme/winter".into(),
            value: json!({ "status": "running" }),
        });
        assert_eq!(
            s.service_records["campaign/acme/winter"]["status"].as_str(),
            Some("running")
        );
        // Round-trips through the snapshot form.
        let back = CampaignState::from_json(&s.to_json()).unwrap();
        assert_eq!(back, s);
        // Null deletes.
        s.apply(&JournalEvent::ServiceRecord {
            key: "campaign/acme/winter".into(),
            value: Value::Null,
        });
        assert!(!s.service_records.contains_key("campaign/acme/winter"));
        assert!(s.service_records.contains_key("tenant/acme"));
    }

    #[test]
    fn ingest_acks_and_rejections_fold_and_round_trip() {
        let mut s = populated();
        assert!(!s.is_ingest_acked("ace-defiant-0001"));
        s.apply(&JournalEvent::IngestRejected {
            manifest: "ace-defiant-0001".into(),
            facility: "frontier-orion".into(),
            reason: "digest mismatch on t.nc".into(),
        });
        assert!(
            !s.is_ingest_acked("ace-defiant-0001"),
            "rejection is not an ack"
        );
        assert_eq!(s.ingest_rejections["frontier-orion"], 1);
        s.apply(&JournalEvent::IngestAcked {
            manifest: "ace-defiant-0001".into(),
            facility: "frontier-orion".into(),
            files: 1,
            bytes: 777,
        });
        assert!(s.is_ingest_acked("ace-defiant-0001"));
        assert_eq!(s.ingests_acked["ace-defiant-0001"], (1, 777));
        // Replaying the same ack is idempotent on the map.
        s.apply(&JournalEvent::IngestAcked {
            manifest: "ace-defiant-0001".into(),
            facility: "frontier-orion".into(),
            files: 1,
            bytes: 777,
        });
        assert_eq!(s.ingests_acked.len(), 1);
        let back = CampaignState::from_json(&s.to_json()).unwrap();
        assert_eq!(back.ingests_acked, s.ingests_acked);
        assert_eq!(back.ingest_rejections, s.ingest_rejections);
    }

    #[test]
    fn snapshot_round_trips() {
        let s = populated();
        let back = CampaignState::from_json(&s.to_json()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn digests_round_trip_and_are_written_only_when_held() {
        let mut s = populated();
        let without = (s.to_json().to_string(), s.work_checksum());
        assert!(s.to_json()["digests"].is_null(), "an empty map was written");
        s.apply(&JournalEvent::ArtifactDigested {
            file: "t.nc".into(),
            bytes: 777,
            digest: 0x0f,
        });
        assert_eq!(s.digests["t.nc"], (777, 0x0f));
        let v = s.to_json();
        assert_eq!(
            v["digests"]["t.nc"]["digest"].as_str(),
            Some("000000000000000f")
        );
        assert_ne!(s.work_checksum(), without.1, "the digest is completed work");
        assert_eq!(CampaignState::from_json(&v).unwrap(), s);
        s.digests.clear();
        s.events_applied -= 1;
        assert_eq!((s.to_json().to_string(), s.work_checksum()), without);
        let mut bad = v.clone();
        bad["digests"]["t.nc"]["digest"] = json!("f");
        assert!(CampaignState::from_json(&bad).is_err());
    }

    #[test]
    fn empty_state_round_trips() {
        let s = CampaignState::new();
        assert_eq!(CampaignState::from_json(&s.to_json()).unwrap(), s);
    }
}
