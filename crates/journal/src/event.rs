//! Campaign lifecycle events. Each journal frame carries exactly one event
//! as a JSON object tagged by `"type"`; the JSON form is the stable on-disk
//! schema, so encoding is explicit rather than derived.

use serde_json::{json, Value};

/// Everything a campaign (batch or streaming) or flow run records.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalEvent {
    /// A campaign began; identifies the deterministic world it runs in.
    CampaignStarted {
        /// World seed — resume must match it.
        seed: u64,
        /// Human-readable campaign label.
        label: String,
    },
    /// A pipeline stage began.
    StageStarted {
        /// Stage name ("download", "preprocess", ...).
        stage: String,
    },
    /// A pipeline stage completed.
    StageFinished {
        /// Stage name.
        stage: String,
    },
    /// One granule file finished downloading.
    FileDownloaded {
        /// Remote file name.
        file: String,
        /// Payload size.
        bytes: u64,
    },
    /// Preprocessing emitted a tile file for a granule.
    TileFileWritten {
        /// Output tile file name.
        file: String,
        /// Tiles contained.
        tiles: u64,
    },
    /// The data crawler announced a fresh file to inference.
    MonitorTriggered {
        /// File surfaced by the monitor.
        file: String,
    },
    /// Inference labels were appended to a tile file.
    LabelsAppended {
        /// Tile file name.
        file: String,
        /// Labels written.
        labels: u64,
        /// File payload size (needed to rebuild the shipment manifest).
        bytes: u64,
    },
    /// A shipped file's content digest was taken, once: later runs reuse it
    /// instead of hashing the file again.
    ArtifactDigested {
        /// Shipped file name.
        file: String,
        /// File size when it was hashed.
        bytes: u64,
        /// FNV-1a 64 of its bytes (16 hex digits on disk, as in the
        /// shipment manifest).
        digest: u64,
    },
    /// The final shipment transfer completed.
    ShipmentFinished {
        /// Files shipped.
        files: u64,
        /// Bytes shipped.
        bytes: u64,
    },
    /// A destination facility verified a shipment manifest end-to-end
    /// and acknowledged it. Replaying this makes re-ships idempotent.
    IngestAcked {
        /// Manifest id (stable across re-ships of the same content).
        manifest: String,
        /// Acknowledging (destination) facility.
        facility: String,
        /// Artifacts verified.
        files: u64,
        /// Bytes verified.
        bytes: u64,
    },
    /// A destination facility rejected a shipment (digest mismatch,
    /// missing artifact, ...). Recorded so the failure is durable and
    /// auditable — a rejected manifest is *not* acked.
    IngestRejected {
        /// Manifest id.
        manifest: String,
        /// Rejecting facility.
        facility: String,
        /// First verification error, human-readable.
        reason: String,
    },
    /// A flow run moved to a new state with its post-transition context.
    FlowTransition {
        /// Flow run id.
        run: u64,
        /// State just entered.
        state: String,
        /// Context after the transition (for resume).
        context: Value,
    },
    /// A flow run finished.
    FlowFinished {
        /// Flow run id.
        run: u64,
        /// "succeeded" or "failed: reason".
        status: String,
    },
    /// Generic keyed record for long-lived services layered on the journal
    /// (tenant registries, campaign lifecycle state, ...). The journal
    /// treats the value as opaque: a non-null value upserts the key, a
    /// `null` value deletes it. Interpretation lives with the service.
    ServiceRecord {
        /// Record key (e.g. `tenant/<id>`, `campaign/<tenant>/<name>`).
        key: String,
        /// Record payload; `Value::Null` removes the key.
        value: Value,
    },
    /// Periodic state snapshot; recovery replays only events after the
    /// latest one.
    Snapshot {
        /// Serialised [`crate::CampaignState`].
        state: Value,
    },
}

impl JournalEvent {
    /// `StageStarted` for `stage`.
    pub fn stage_started(stage: &str) -> JournalEvent {
        JournalEvent::StageStarted {
            stage: stage.into(),
        }
    }

    /// `StageFinished` for `stage`.
    pub fn stage_finished(stage: &str) -> JournalEvent {
        JournalEvent::StageFinished {
            stage: stage.into(),
        }
    }

    /// The on-disk JSON form.
    pub fn to_json(&self) -> Value {
        match self {
            JournalEvent::CampaignStarted { seed, label } => {
                json!({ "type": "campaign_started", "seed": *seed, "label": label })
            }
            JournalEvent::StageStarted { stage } => {
                json!({ "type": "stage_started", "stage": stage })
            }
            JournalEvent::StageFinished { stage } => {
                json!({ "type": "stage_finished", "stage": stage })
            }
            JournalEvent::FileDownloaded { file, bytes } => {
                json!({ "type": "file_downloaded", "file": file, "bytes": *bytes })
            }
            JournalEvent::TileFileWritten { file, tiles } => {
                json!({ "type": "tile_file_written", "file": file, "tiles": *tiles })
            }
            JournalEvent::MonitorTriggered { file } => {
                json!({ "type": "monitor_triggered", "file": file })
            }
            JournalEvent::LabelsAppended {
                file,
                labels,
                bytes,
            } => {
                json!({ "type": "labels_appended", "file": file, "labels": *labels, "bytes": *bytes })
            }
            JournalEvent::ArtifactDigested {
                file,
                bytes,
                digest,
            } => {
                json!({ "type": "artifact_digested", "file": file, "bytes": *bytes, "digest": format!("{digest:016x}") })
            }
            JournalEvent::ShipmentFinished { files, bytes } => {
                json!({ "type": "shipment_finished", "files": *files, "bytes": *bytes })
            }
            JournalEvent::IngestAcked {
                manifest,
                facility,
                files,
                bytes,
            } => {
                json!({ "type": "ingest_acked", "manifest": manifest, "facility": facility, "files": *files, "bytes": *bytes })
            }
            JournalEvent::IngestRejected {
                manifest,
                facility,
                reason,
            } => {
                json!({ "type": "ingest_rejected", "manifest": manifest, "facility": facility, "reason": reason })
            }
            JournalEvent::FlowTransition {
                run,
                state,
                context,
            } => {
                json!({ "type": "flow_transition", "run": *run, "state": state, "context": context })
            }
            JournalEvent::FlowFinished { run, status } => {
                json!({ "type": "flow_finished", "run": *run, "status": status })
            }
            JournalEvent::ServiceRecord { key, value } => {
                json!({ "type": "service_record", "key": key, "value": value })
            }
            JournalEvent::Snapshot { state } => {
                json!({ "type": "snapshot", "state": state })
            }
        }
    }

    /// Parse the on-disk JSON form; `Err` names the missing/invalid field.
    pub fn from_json(v: &Value) -> Result<JournalEvent, String> {
        let typ = v["type"].as_str().ok_or("event missing 'type'")?;
        let str_field = |k: &str| -> Result<String, String> {
            v[k].as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("{typ}: missing '{k}'"))
        };
        let u64_field = |k: &str| -> Result<u64, String> {
            v[k].as_u64().ok_or_else(|| format!("{typ}: missing '{k}'"))
        };
        Ok(match typ {
            "campaign_started" => JournalEvent::CampaignStarted {
                seed: u64_field("seed")?,
                label: str_field("label")?,
            },
            "stage_started" => JournalEvent::StageStarted {
                stage: str_field("stage")?,
            },
            "stage_finished" => JournalEvent::StageFinished {
                stage: str_field("stage")?,
            },
            "file_downloaded" => JournalEvent::FileDownloaded {
                file: str_field("file")?,
                bytes: u64_field("bytes")?,
            },
            "tile_file_written" => JournalEvent::TileFileWritten {
                file: str_field("file")?,
                tiles: u64_field("tiles")?,
            },
            "monitor_triggered" => JournalEvent::MonitorTriggered {
                file: str_field("file")?,
            },
            "labels_appended" => JournalEvent::LabelsAppended {
                file: str_field("file")?,
                labels: u64_field("labels")?,
                bytes: u64_field("bytes")?,
            },
            "artifact_digested" => JournalEvent::ArtifactDigested {
                file: str_field("file")?,
                bytes: u64_field("bytes")?,
                digest: crate::state::hex_digest(&str_field("digest")?)
                    .ok_or_else(|| format!("{typ}: 'digest' is not 16 hex digits"))?,
            },
            "shipment_finished" => JournalEvent::ShipmentFinished {
                files: u64_field("files")?,
                bytes: u64_field("bytes")?,
            },
            "ingest_acked" => JournalEvent::IngestAcked {
                manifest: str_field("manifest")?,
                facility: str_field("facility")?,
                files: u64_field("files")?,
                bytes: u64_field("bytes")?,
            },
            "ingest_rejected" => JournalEvent::IngestRejected {
                manifest: str_field("manifest")?,
                facility: str_field("facility")?,
                reason: str_field("reason")?,
            },
            "flow_transition" => JournalEvent::FlowTransition {
                run: u64_field("run")?,
                state: str_field("state")?,
                context: v["context"].clone(),
            },
            "flow_finished" => JournalEvent::FlowFinished {
                run: u64_field("run")?,
                status: str_field("status")?,
            },
            "service_record" => JournalEvent::ServiceRecord {
                key: str_field("key")?,
                value: v["value"].clone(),
            },
            "snapshot" => JournalEvent::Snapshot {
                state: v["state"].clone(),
            },
            other => return Err(format!("unknown event type '{other}'")),
        })
    }

    /// Serialise to frame payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        self.to_json().to_string().into_bytes()
    }

    /// Parse frame payload bytes.
    pub fn decode(bytes: &[u8]) -> Result<JournalEvent, String> {
        let text = std::str::from_utf8(bytes).map_err(|_| "event is not UTF-8".to_string())?;
        let v = serde_json::from_str(text).map_err(|e| format!("event is not JSON: {e}"))?;
        JournalEvent::from_json(&v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<JournalEvent> {
        vec![
            JournalEvent::CampaignStarted {
                seed: 42,
                label: "paper_demo".into(),
            },
            JournalEvent::StageStarted {
                stage: "download".into(),
            },
            JournalEvent::StageFinished {
                stage: "download".into(),
            },
            JournalEvent::FileDownloaded {
                file: "MOD021KM.A2022001.0000.hdf".into(),
                bytes: 170_000_000,
            },
            JournalEvent::TileFileWritten {
                file: "tiles_0001.nc".into(),
                tiles: 324,
            },
            JournalEvent::MonitorTriggered {
                file: "tiles_0001.nc".into(),
            },
            JournalEvent::LabelsAppended {
                file: "tiles_0001.nc".into(),
                labels: 324,
                bytes: 5_000_000,
            },
            JournalEvent::ArtifactDigested {
                file: "tiles_0001.nc".into(),
                bytes: 5_000_000,
                digest: 0x00ab_54a9_8ceb_1f0a,
            },
            JournalEvent::ShipmentFinished {
                files: 12,
                bytes: 60_000_000,
            },
            JournalEvent::IngestAcked {
                manifest: "ace-defiant-00ab54a98ceb1f0a".into(),
                facility: "frontier-orion".into(),
                files: 12,
                bytes: 60_000_000,
            },
            JournalEvent::IngestRejected {
                manifest: "ace-defiant-00ab54a98ceb1f0a".into(),
                facility: "frontier-orion".into(),
                reason: "digest mismatch on tiles_0001.nc".into(),
            },
            JournalEvent::FlowTransition {
                run: 7,
                state: "Infer".into(),
                context: json!({ "input": { "file": "x.nc" } }),
            },
            JournalEvent::FlowFinished {
                run: 7,
                status: "succeeded".into(),
            },
            JournalEvent::ServiceRecord {
                key: "campaign/acme/winter".into(),
                value: json!({ "status": "queued", "days_done": 0 }),
            },
            JournalEvent::ServiceRecord {
                key: "campaign/acme/winter".into(),
                value: Value::Null,
            },
            JournalEvent::Snapshot {
                state: json!({ "downloaded": ["a"] }),
            },
        ]
    }

    #[test]
    fn every_event_round_trips() {
        for ev in samples() {
            let bytes = ev.encode();
            assert_eq!(JournalEvent::decode(&bytes).unwrap(), ev, "{ev:?}");
        }
    }

    #[test]
    fn unknown_and_malformed_are_errors() {
        assert!(JournalEvent::from_json(&json!({ "type": "warp" })).is_err());
        assert!(JournalEvent::from_json(&json!({ "type": "stage_started" })).is_err());
        assert!(JournalEvent::decode(b"not json").is_err());
        let digested = |digest: &str| json!({ "type": "artifact_digested", "file": "a.nc", "bytes": 1, "digest": digest });
        for bad in [
            "ab54a98ceb1f0a",
            "+0ab54a98ceb1f0a",
            "00ab54a98ceb1f0g",
            "00AB54A98CEB1F0A0",
        ] {
            assert!(JournalEvent::from_json(&digested(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn a_digest_is_written_as_16_hex_digits() {
        let ev = JournalEvent::ArtifactDigested {
            file: "a.nc".into(),
            bytes: 7,
            digest: 0xab,
        };
        assert_eq!(ev.to_json()["digest"].as_str(), Some("00000000000000ab"));
    }
}
