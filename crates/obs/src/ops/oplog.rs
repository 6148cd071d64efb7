//! Size-rotated JSONL ops event log.
//!
//! One wide-event stream per service instance, written as
//! `<dir>/ops.jsonl` with rotations `ops.jsonl.1` (older) …
//! `ops.jsonl.N`. A restarted service appends to the same history: the
//! sequence number continues from the highest recovered `seq`, and
//! [`read_all`] returns rotations oldest-first so the event order
//! replays the service's whole operational life.
//!
//! Event kinds written by the service layer and the ops plane:
//! `service_open`, `tenant_registered`, `submit`, `pause`, `resume`,
//! `cancel`, `admission`, `lease_acquired`, `lease_released`,
//! `window_roll`, `facility`, `downloads_abandoned`, `archive_recorded`,
//! `health`, `idle`; the chaos harness adds `chaos_injection` and
//! `chaos_summary`. A log written before alerting was removed may also
//! hold `alert_fired` / `alert_cleared` lines: they are read like any
//! other event and ignored by rehydration. The log is
//! *advisory*: torn or unparseable trailing lines are skipped, never
//! fatal — the control journal, not this log, is the source of truth for
//! service state.

use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};

use serde_json::{json, Value};

use super::health::HealthReport;

/// File name of the active log segment inside the ops directory.
pub const OPS_LOG_FILE: &str = "ops.jsonl";

/// One structured ops event.
#[derive(Debug, Clone, PartialEq)]
pub struct OpsEvent {
    /// Monotone sequence number across restarts.
    pub seq: u64,
    /// Event kind (snake_case).
    pub kind: String,
    /// Ops-clock timestamp (sim seconds).
    pub at_s: f64,
    /// Kind-specific payload.
    pub data: Value,
}

impl OpsEvent {
    /// The JSONL line form.
    pub fn to_json(&self) -> Value {
        json!({
            "seq": self.seq,
            "kind": self.kind,
            "at_s": self.at_s,
            "data": self.data,
        })
    }

    /// Parse one JSONL line.
    pub fn from_json(v: &Value) -> Result<OpsEvent, String> {
        Ok(OpsEvent {
            seq: v["seq"].as_u64().ok_or("ops event missing seq")?,
            kind: v["kind"]
                .as_str()
                .ok_or("ops event missing kind")?
                .to_string(),
            at_s: v["at_s"].as_f64().unwrap_or(0.0),
            data: v["data"].clone(),
        })
    }
}

/// Appender with size-based rotation.
#[derive(Debug)]
pub struct OpsLog {
    dir: PathBuf,
    max_bytes: u64,
    keep: usize,
    next_seq: u64,
}

impl OpsLog {
    /// Open (or create) the log in `dir`, recovering the next sequence
    /// number from whatever history is already there. Rotation happens
    /// when the active segment exceeds `max_bytes`; `keep` rotated
    /// segments are retained.
    pub fn open(dir: &Path, max_bytes: u64, keep: usize) -> std::io::Result<OpsLog> {
        std::fs::create_dir_all(dir)?;
        let next_seq = read_all(dir).iter().map(|e| e.seq + 1).max().unwrap_or(0);
        Ok(OpsLog {
            dir: dir.to_path_buf(),
            max_bytes: max_bytes.max(1024),
            keep: keep.max(1),
            next_seq,
        })
    }

    /// Directory the log lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Append one event, rotating first if the active segment is full.
    /// Returns the event as written.
    pub fn append(&mut self, kind: &str, at_s: f64, data: Value) -> std::io::Result<OpsEvent> {
        let active = self.dir.join(OPS_LOG_FILE);
        if let Ok(meta) = std::fs::metadata(&active) {
            if meta.len() >= self.max_bytes {
                self.rotate()?;
            }
        }
        let event = OpsEvent {
            seq: self.next_seq,
            kind: kind.to_string(),
            at_s,
            data,
        };
        let mut f = OpenOptions::new().create(true).append(true).open(&active)?;
        let line = serde_json::to_string(&event.to_json())
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        writeln!(f, "{line}")?;
        self.next_seq += 1;
        Ok(event)
    }

    /// Shift `ops.jsonl` → `.1` → `.2` …, dropping beyond `keep`.
    fn rotate(&self) -> std::io::Result<()> {
        let oldest = self.dir.join(format!("{OPS_LOG_FILE}.{}", self.keep));
        if oldest.exists() {
            std::fs::remove_file(&oldest)?;
        }
        for i in (1..self.keep).rev() {
            let from = self.dir.join(format!("{OPS_LOG_FILE}.{i}"));
            if from.exists() {
                std::fs::rename(&from, self.dir.join(format!("{OPS_LOG_FILE}.{}", i + 1)))?;
            }
        }
        let active = self.dir.join(OPS_LOG_FILE);
        if active.exists() {
            std::fs::rename(&active, self.dir.join(format!("{OPS_LOG_FILE}.1")))?;
        }
        Ok(())
    }
}

/// Read the full event history in `dir`: rotated segments oldest-first,
/// then the active segment. Unparseable lines (torn tail after a crash)
/// are skipped.
pub fn read_all(dir: &Path) -> Vec<OpsEvent> {
    let mut paths: Vec<PathBuf> = Vec::new();
    // Highest rotation index is oldest.
    let mut rotated: Vec<(u64, PathBuf)> = Vec::new();
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().to_string();
            if let Some(idx) = name.strip_prefix(&format!("{OPS_LOG_FILE}.")) {
                if let Ok(i) = idx.parse::<u64>() {
                    rotated.push((i, entry.path()));
                }
            }
        }
    }
    rotated.sort_by_key(|(i, _)| std::cmp::Reverse(*i));
    paths.extend(rotated.into_iter().map(|(_, p)| p));
    paths.push(dir.join(OPS_LOG_FILE));

    let mut events = Vec::new();
    for path in paths {
        let Ok(f) = File::open(&path) else { continue };
        for line in BufReader::new(f).lines() {
            let Ok(line) = line else { break };
            if line.trim().is_empty() {
                continue;
            }
            let Ok(v) = serde_json::from_str(&line) else {
                continue;
            };
            if let Ok(e) = OpsEvent::from_json(&v) {
                events.push(e);
            }
        }
    }
    events
}

/// Replay the event stream to the final health verdict: the last
/// `health` event's report, which by the evaluation contract equals the
/// live report at that moment.
pub fn replay_final_health(events: &[OpsEvent]) -> Option<HealthReport> {
    events
        .iter()
        .rev()
        .find(|e| e.kind == "health")
        .and_then(|e| HealthReport::from_json(&e.data).ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    static NEXT: AtomicU64 = AtomicU64::new(0);

    fn tempdir(tag: &str) -> PathBuf {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("eoml-oplog-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn sequence_numbers_continue_across_reopen() {
        let dir = tempdir("reopen");
        {
            let mut log = OpsLog::open(&dir, 1 << 20, 2).unwrap();
            for i in 0..5 {
                log.append("tick", i as f64, json!({"i": i})).unwrap();
            }
        }
        let mut log = OpsLog::open(&dir, 1 << 20, 2).unwrap();
        let appended = log.append("tick", 5.0, json!({"i": 5})).unwrap();
        assert_eq!(appended.seq, 5);
        let events = read_all(&dir);
        assert_eq!(events.len(), 6);
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_keeps_bounded_segments_and_read_all_orders_oldest_first() {
        let dir = tempdir("rotate");
        // max_bytes is clamped to 1024, so ~60-byte lines rotate every
        // ~17 events.
        let mut log = OpsLog::open(&dir, 1, 2).unwrap();
        for i in 0..200u64 {
            log.append("tick", i as f64, json!({"i": i})).unwrap();
        }
        // Active + at most `keep` rotations.
        assert!(dir.join(OPS_LOG_FILE).exists());
        assert!(dir.join(format!("{OPS_LOG_FILE}.1")).exists());
        assert!(!dir.join(format!("{OPS_LOG_FILE}.3")).exists());
        let events = read_all(&dir);
        // Old events were dropped with their segments, but what remains
        // is strictly ordered and ends at the newest.
        assert!(events.len() < 200);
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(events.last().unwrap().seq, 199);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn seq_stays_monotone_across_rotation_boundaries_and_reopens() {
        let dir = tempdir("rotate-seq");
        // Tiny max_bytes (clamped to 1024) with a generous keep so no
        // segment is dropped: every event survives across ~6 rotations.
        {
            let mut log = OpsLog::open(&dir, 1, 10).unwrap();
            for i in 0..60u64 {
                log.append("tick", i as f64, json!({"i": i})).unwrap();
            }
        }
        assert!(
            dir.join(format!("{OPS_LOG_FILE}.1")).exists(),
            "test must actually span a rotation"
        );
        // Reopen mid-history: the recovered seq continues from the
        // highest across *all* segments, not just the active one.
        {
            let mut log = OpsLog::open(&dir, 1, 10).unwrap();
            for i in 60..120u64 {
                let appended = log.append("tick", i as f64, json!({"i": i})).unwrap();
                assert_eq!(appended.seq, i);
            }
        }
        let events = read_all(&dir);
        assert_eq!(events.len(), 120, "no events lost across rotations");
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.seq, i as u64, "seq gap or reorder at {i}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_final_health_reads_across_rotated_segments() {
        let dir = tempdir("rotate-health");
        let policy = crate::ops::health::HealthPolicy::default();
        let early = crate::ops::health::evaluate(
            &policy,
            1.0,
            1,
            None,
            0,
            Vec::new(),
            true, // recovering → degraded
            0,
            Vec::new(),
        );
        let late = crate::ops::health::evaluate(
            &policy,
            50.0,
            5,
            None,
            0,
            Vec::new(),
            false,
            0,
            Vec::new(),
        );
        let mut log = OpsLog::open(&dir, 1, 10).unwrap();
        log.append("health", 1.0, early.to_json()).unwrap();
        // Push the early health event into a rotated segment.
        for i in 0..40u64 {
            log.append("tick", i as f64, json!({"i": i})).unwrap();
        }
        log.append("health", 50.0, late.to_json()).unwrap();
        assert!(dir.join(format!("{OPS_LOG_FILE}.1")).exists());

        let events = read_all(&dir);
        let replayed = replay_final_health(&events).unwrap();
        assert_eq!(replayed, late, "latest verdict wins across segments");
        assert_eq!(replayed.state.label(), "healthy");
        // The early verdict is still in the history (oldest-first).
        let first_health = events.iter().find(|e| e.kind == "health").unwrap();
        assert_eq!(first_health.data["state"].as_str(), Some("degraded"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_lines_are_skipped_and_health_replays() {
        let dir = tempdir("torn");
        let mut log = OpsLog::open(&dir, 1 << 20, 2).unwrap();
        log.append("service_open", 0.0, json!({})).unwrap();
        let report = crate::ops::health::evaluate(
            &crate::ops::health::HealthPolicy::default(),
            3.0,
            2,
            Some(0.9),
            10,
            Vec::new(),
            false,
            0,
            Vec::new(),
        );
        log.append("health", 3.0, report.to_json()).unwrap();
        // Simulate a torn tail.
        let mut f = OpenOptions::new()
            .append(true)
            .open(dir.join(OPS_LOG_FILE))
            .unwrap();
        write!(f, "{{\"seq\": 99, \"kind\": \"hea").unwrap();
        drop(f);

        let events = read_all(&dir);
        assert_eq!(events.len(), 2);
        let replayed = replay_final_health(&events).unwrap();
        assert_eq!(replayed, report);
        // Reopen continues after the torn line without inheriting it.
        let mut log = OpsLog::open(&dir, 1 << 20, 2).unwrap();
        assert_eq!(log.append("tick", 4.0, json!({})).unwrap().seq, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
