//! Run archives: one recorded run bundled as a self-describing,
//! offline-diffable directory.
//!
//! A [`RunArchive`] freezes everything a run's [`crate::Obs`] hub and
//! bench harness produced — the span-store JSONL dump, the folded
//! self-time profile, every `BENCH_*.json` table, and an optional ops-log
//! slice — under a manifest ([`RunMeta`]) carrying the archive schema
//! version, a digest of the run configuration, the simulation seed, and
//! the host core count. Two archives are therefore comparable without any
//! live process: [`crate::diff::diff_archives`] loads both and attributes
//! the delta.
//!
//! Layout (all paths relative to the archive directory):
//!
//! ```text
//! archive.json      manifest: RunMeta + per-file content digests
//! spans.jsonl       span store + counters/gauges (export::jsonl)
//! profile.folded    collapsed-stack self-time profile
//! tables/BENCH_*.json   every table the run emitted
//! ops.jsonl         ops-log slice (present only when events were given)
//! ```
//!
//! The manifest digests every payload file (FNV-1a 64), so [`RunArchive::open`]
//! detects truncated or hand-edited archives instead of silently diffing
//! garbage.

use std::collections::BTreeMap;
use std::io;
use std::path::{Component, Path, PathBuf};

use serde_json::{Map, Value};

use crate::export::jsonl::{self, ParsedJsonl};
use crate::metrics::MetricsSnapshot;
use crate::ops::oplog::OpsEvent;
use crate::profile::SpanProfile;
use crate::resource::memory_table;
use crate::span::SpanRecord;
use crate::table::Table;
use crate::Obs;

/// Archive format version written into every manifest. Readers refuse
/// archives from a *newer* schema; older versions are upgraded on read
/// (none exist yet).
pub const ARCHIVE_SCHEMA_VERSION: u32 = 1;

/// Manifest file name inside an archive directory.
pub const MANIFEST_FILE: &str = "archive.json";

/// Span-store dump file name.
pub const SPANS_FILE: &str = "spans.jsonl";

/// Folded self-time profile file name.
pub const FOLDED_FILE: &str = "profile.folded";

/// Ops-log slice file name (optional member).
pub const OPS_FILE: &str = "ops.jsonl";

/// Subdirectory holding the run's `BENCH_*.json` tables.
pub const TABLES_DIR: &str = "tables";

/// FNV-1a 64-bit digest of a byte string, rendered as 16 hex digits —
/// the archive's file-integrity and config-digest primitive.
pub fn content_digest(bytes: &[u8]) -> String {
    format!("{:016x}", eoml_util::hash::fnv1a64(bytes))
}

/// Digest of a run-configuration description string. Callers render the
/// parameters that *define* the run (seed, worker counts, file counts,
/// …) into a stable string; two archives with equal digests claim to be
/// the same experiment.
pub fn config_digest(description: &str) -> String {
    content_digest(description.as_bytes())
}

/// Best-effort `git describe --always --dirty` of the working tree, or
/// `"unknown"` outside a repository / without git.
pub fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The manifest half of an archive: what produced this run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMeta {
    /// Archive format version ([`ARCHIVE_SCHEMA_VERSION`] at write time).
    pub schema_version: u32,
    /// Human label for the run (`"baseline"`, `"nodes8"`, …).
    pub label: String,
    /// [`config_digest`] of the run's parameter description.
    pub config_digest: String,
    /// Simulation seed the run used.
    pub sim_seed: u64,
    /// Logical cores on the recording host.
    pub host_cores: u64,
    /// `git describe` of the tree that produced the run.
    pub git_describe: String,
}

impl RunMeta {
    /// Meta for a run recorded *here and now*: host cores and git
    /// describe are detected, the schema version is the current one.
    pub fn new(label: &str, config_digest: &str, sim_seed: u64) -> RunMeta {
        RunMeta {
            schema_version: ARCHIVE_SCHEMA_VERSION,
            label: label.to_string(),
            config_digest: config_digest.to_string(),
            sim_seed,
            host_cores: std::thread::available_parallelism()
                .map(|n| n.get() as u64)
                .unwrap_or(1),
            git_describe: git_describe(),
        }
    }

    /// JSON form (the `meta` object of the manifest, and the `meta`
    /// block `BENCH_*.json` emitters attach).
    pub fn to_json(&self) -> Value {
        let mut obj = Map::new();
        obj.insert(
            "schema_version".to_string(),
            Value::from(self.schema_version as f64),
        );
        obj.insert("label".to_string(), Value::from(self.label.as_str()));
        obj.insert(
            "config_digest".to_string(),
            Value::from(self.config_digest.as_str()),
        );
        obj.insert("sim_seed".to_string(), Value::from(self.sim_seed as f64));
        obj.insert(
            "host_cores".to_string(),
            Value::from(self.host_cores as f64),
        );
        obj.insert(
            "git_describe".to_string(),
            Value::from(self.git_describe.as_str()),
        );
        Value::Object(obj)
    }

    /// Parse the manifest `meta` object.
    pub fn from_json(value: &Value) -> Result<RunMeta, String> {
        let obj = value.as_object().ok_or("meta is not an object")?;
        let s = |key: &str| {
            obj.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("meta missing '{key}'"))
        };
        let n = |key: &str| {
            obj.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("meta missing '{key}'"))
        };
        Ok(RunMeta {
            schema_version: n("schema_version")? as u32,
            label: s("label")?,
            config_digest: s("config_digest")?,
            sim_seed: n("sim_seed")? as u64,
            host_cores: n("host_cores")? as u64,
            git_describe: s("git_describe")?,
        })
    }
}

/// One run's frozen artifacts, loaded back into memory.
#[derive(Debug, Clone)]
pub struct RunArchive {
    /// The archive directory.
    pub dir: PathBuf,
    /// The manifest meta block.
    pub meta: RunMeta,
    /// The span store, dump order.
    pub spans: Vec<SpanRecord>,
    /// Counter values the run's registry held.
    pub counters: Vec<(crate::metrics::MetricKey, u64)>,
    /// Gauge values the run's registry held.
    pub gauges: Vec<(crate::metrics::MetricKey, f64)>,
    /// The folded self-time profile, verbatim.
    pub folded: String,
    /// Every `BENCH_*.json` table, sorted by name.
    pub tables: Vec<Table>,
    /// The ops-log slice shipped with the run (may be empty).
    pub ops_events: Vec<OpsEvent>,
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Whether a manifest member name stays inside the archive directory: a
/// relative path made only of normal components (no root, drive prefix,
/// `.` or `..`).
fn is_member_name(rel: &str) -> bool {
    let mut parts = Path::new(rel).components().peekable();
    parts.peek().is_some() && parts.all(|c| matches!(c, Component::Normal(_)))
}

impl RunArchive {
    /// Record an archive under `dir` (created if absent, members
    /// overwritten) and reopen it from disk — what you get back is
    /// exactly what a later [`RunArchive::open`] will see.
    pub fn record(
        dir: impl AsRef<Path>,
        meta: &RunMeta,
        spans: &[SpanRecord],
        snapshot: &MetricsSnapshot,
        tables: &[Table],
        ops_events: &[OpsEvent],
    ) -> io::Result<RunArchive> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let mut files: BTreeMap<String, String> = BTreeMap::new();
        let mut write = |rel: &str, body: &str| -> io::Result<()> {
            std::fs::write(dir.join(rel), body)?;
            files.insert(rel.to_string(), content_digest(body.as_bytes()));
            Ok(())
        };
        write(SPANS_FILE, &jsonl::render(spans, snapshot))?;
        write(FOLDED_FILE, &SpanProfile::from_spans(spans).folded())?;
        if !ops_events.is_empty() {
            let mut body = String::new();
            for ev in ops_events {
                body.push_str(&serde_json::to_string(&ev.to_json()).expect("infallible"));
                body.push('\n');
            }
            write(OPS_FILE, &body)?;
        }
        std::fs::create_dir_all(dir.join(TABLES_DIR))?;
        for table in tables {
            let body = serde_json::to_string(&table.to_json()).expect("infallible");
            let rel = format!("{TABLES_DIR}/BENCH_{}.json", table.name);
            std::fs::write(dir.join(&rel), &body)?;
            files.insert(rel, content_digest(body.as_bytes()));
        }

        let mut manifest = Map::new();
        manifest.insert("meta".to_string(), meta.to_json());
        let mut file_map = Map::new();
        for (rel, digest) in &files {
            file_map.insert(rel.clone(), Value::from(digest.as_str()));
        }
        manifest.insert("files".to_string(), Value::Object(file_map));
        std::fs::write(
            dir.join(MANIFEST_FILE),
            serde_json::to_string(&Value::Object(manifest)).expect("infallible"),
        )?;
        RunArchive::open(dir)
    }

    /// [`RunArchive::record`] straight off a live [`Obs`] hub.
    pub fn record_obs(
        dir: impl AsRef<Path>,
        meta: &RunMeta,
        obs: &Obs,
        tables: &[Table],
        ops_events: &[OpsEvent],
    ) -> io::Result<RunArchive> {
        RunArchive::record(
            dir,
            meta,
            &obs.spans(),
            &obs.metrics().snapshot(),
            tables,
            ops_events,
        )
    }

    /// Load an archive directory: parse the manifest, verify every
    /// member's content digest, and reload spans/metrics/tables/ops.
    /// The manifest is outside input: a member name that could leave the
    /// directory (absolute, or with a `..` or `.` component) is refused
    /// with `InvalidData` before any member is read.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<RunArchive> {
        let dir = dir.as_ref();
        let manifest_body = std::fs::read_to_string(dir.join(MANIFEST_FILE))?;
        let manifest: Value = serde_json::from_str(&manifest_body)
            .map_err(|e| invalid(format!("{}: bad manifest: {e:?}", dir.display())))?;
        let meta = RunMeta::from_json(
            manifest
                .get("meta")
                .ok_or_else(|| invalid("manifest missing 'meta'"))?,
        )
        .map_err(invalid)?;
        if meta.schema_version > ARCHIVE_SCHEMA_VERSION {
            return Err(invalid(format!(
                "archive schema v{} is newer than supported v{ARCHIVE_SCHEMA_VERSION}",
                meta.schema_version
            )));
        }
        let files = manifest
            .get("files")
            .and_then(Value::as_object)
            .ok_or_else(|| invalid("manifest missing 'files'"))?;
        if let Some(rel) = files.keys().find(|rel| !is_member_name(rel)) {
            return Err(invalid(format!(
                "{rel:?}: member name must be a relative path inside the archive"
            )));
        }
        let mut bodies: BTreeMap<String, String> = BTreeMap::new();
        for (rel, digest) in files.iter() {
            let body = std::fs::read_to_string(dir.join(rel))?;
            let actual = content_digest(body.as_bytes());
            match digest.as_str() {
                Some(expected) if expected == actual => {}
                Some(expected) => {
                    return Err(invalid(format!(
                        "{rel}: content digest mismatch (manifest {expected}, file {actual}) — archive corrupted or edited"
                    )))
                }
                None => return Err(invalid(format!("{rel}: non-string digest in manifest"))),
            }
            bodies.insert(rel.clone(), body);
        }
        let parsed: ParsedJsonl = bodies
            .get(SPANS_FILE)
            .map(|body| jsonl::parse(body))
            .transpose()
            .map_err(|e| invalid(format!("{SPANS_FILE}: {e}")))?
            .unwrap_or_default();
        let folded = bodies.get(FOLDED_FILE).cloned().unwrap_or_default();
        let mut tables = Vec::new();
        for (rel, body) in &bodies {
            if !rel.starts_with(TABLES_DIR) {
                continue;
            }
            let value: Value =
                serde_json::from_str(body).map_err(|e| invalid(format!("{rel}: {e:?}")))?;
            tables.push(Table::from_json(&value).map_err(|e| invalid(format!("{rel}: {e}")))?);
        }
        tables.sort_by(|a, b| a.name.cmp(&b.name));
        let mut ops_events = Vec::new();
        if let Some(body) = bodies.get(OPS_FILE) {
            for (idx, line) in body.lines().enumerate() {
                if line.trim().is_empty() {
                    continue;
                }
                let v: Value = serde_json::from_str(line)
                    .map_err(|e| invalid(format!("{OPS_FILE} line {}: {e:?}", idx + 1)))?;
                ops_events.push(
                    OpsEvent::from_json(&v)
                        .map_err(|e| invalid(format!("{OPS_FILE} line {}: {e}", idx + 1)))?,
                );
            }
        }
        Ok(RunArchive {
            dir: dir.to_path_buf(),
            meta,
            spans: parsed.spans,
            counters: parsed.counters,
            gauges: parsed.gauges,
            folded,
            tables,
            ops_events,
        })
    }

    /// The archive's registry snapshot rebuilt from its counter/gauge
    /// lines (histograms are not archived).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            histograms: Vec::new(),
        }
    }

    /// Self-time profile recomputed from the archived span store.
    pub fn profile(&self) -> SpanProfile {
        SpanProfile::from_spans(&self.spans)
    }

    /// The per-stage memory table rebuilt from the archived alloc
    /// counters (empty when the run had no counting allocator).
    pub fn memory_table(&self) -> Table {
        memory_table(&self.metrics_snapshot())
    }

    /// Look up an archived table by name.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.iter().find(|t| t.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Cell;
    use crate::TraceContext;
    use eoml_simtime::SimTime;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("eoml_archive_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn sample_obs() -> Obs {
        let obs = Obs::new();
        let t = TraceContext::new("g1");
        for (stage, name, a, b) in [
            ("download", "file", 0.0, 10.0),
            ("preprocess", "granule", 12.0, 30.0),
            ("inference", "infer", 32.0, 40.0),
        ] {
            obs.record_sim_span(
                stage,
                name,
                SimTime::from_secs_f64(a),
                SimTime::from_secs_f64(b),
                Some(&t),
                &[],
            );
        }
        obs.counter_add("alloc_bytes", "preprocess", 1 << 20);
        obs.counter_add("allocs", "preprocess", 42);
        obs.gauge_set("alloc_peak_bytes", "preprocess", 65536.0);
        obs
    }

    fn sample_table() -> Table {
        let mut t = Table::new("run_summary", &["metric", "value"]);
        t.row(vec![Cell::str("tiles_per_s"), Cell::num(272.7, 1)]);
        t
    }

    #[test]
    fn record_and_open_round_trip() {
        let dir = tmpdir("roundtrip");
        let obs = sample_obs();
        let meta = RunMeta::new("baseline", &config_digest("seed=2022 nodes=4"), 2022);
        let archive =
            RunArchive::record_obs(&dir, &meta, &obs, &[sample_table()], &[]).expect("record");
        assert_eq!(archive.meta, meta);
        assert_eq!(archive.meta.schema_version, ARCHIVE_SCHEMA_VERSION);
        assert_eq!(archive.spans.len(), 3);
        assert_eq!(archive.tables.len(), 1);
        assert!(archive.ops_events.is_empty());
        assert!(!archive.folded.is_empty());
        // Sim durations survive the disk round trip exactly.
        let reopened = RunArchive::open(&dir).expect("open");
        for (a, b) in obs.spans().iter().zip(&reopened.spans) {
            assert_eq!(a.sim_seconds(), b.sim_seconds());
            assert_eq!(a.trace_id, b.trace_id);
        }
        // The profile recomputed from the archive matches the live one.
        assert_eq!(reopened.profile().folded(), obs.profile().folded());
        // Memory accounting rides along via counters/gauges.
        let mem = reopened.memory_table();
        assert_eq!(mem.rows.len(), 1);
        assert_eq!(mem.rows[0][0], Cell::str("preprocess"));
        assert!(reopened.table("run_summary").is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ops_slice_is_archived_when_present() {
        let dir = tmpdir("ops");
        let obs = Obs::new();
        let meta = RunMeta::new("with-ops", "cfg", 1);
        let ops = vec![OpsEvent {
            seq: 7,
            kind: "archive_recorded".to_string(),
            at_s: 1.5,
            data: serde_json::json!({"path": "x"}),
        }];
        let archive = RunArchive::record_obs(&dir, &meta, &obs, &[], &ops).expect("record");
        assert_eq!(archive.ops_events.len(), 1);
        assert_eq!(archive.ops_events[0].kind, "archive_recorded");
        assert_eq!(archive.ops_events[0].seq, 7);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tampered_members_are_rejected_on_open() {
        let dir = tmpdir("tamper");
        let obs = sample_obs();
        let meta = RunMeta::new("t", "cfg", 1);
        RunArchive::record_obs(&dir, &meta, &obs, &[sample_table()], &[]).expect("record");
        // Flip a byte in the span dump: open must refuse, naming the file.
        let spans_path = dir.join(SPANS_FILE);
        let mut body = std::fs::read_to_string(&spans_path).unwrap();
        body.push_str("{\"type\":\"counter\",\"name\":\"x\",\"stage\":\"y\",\"value\":1}\n");
        std::fs::write(&spans_path, body).unwrap();
        let err = RunArchive::open(&dir).unwrap_err();
        assert!(err.to_string().contains("digest mismatch"), "{err}");
        assert!(err.to_string().contains(SPANS_FILE), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn member_names_outside_the_archive_are_refused() {
        let root = tmpdir("hostile");
        let dir = root.join("archive");
        RunArchive::record_obs(&dir, &RunMeta::new("h", "cfg", 1), &Obs::new(), &[], &[])
            .expect("record");
        let manifest_path = dir.join(MANIFEST_FILE);
        let manifest: Value =
            serde_json::from_str(&std::fs::read_to_string(&manifest_path).unwrap()).unwrap();
        // Each planted file carries the digest the manifest claims, so only
        // the name check stands between `open` and reading it.
        std::fs::write(root.join("x"), "outside").unwrap();
        let hostname = std::fs::read("/etc/hostname").unwrap_or_default();
        for (rel, body) in [("/etc/hostname", hostname), ("../x", b"outside".to_vec())] {
            let mut planted = manifest.clone();
            planted["files"][rel] = Value::from(content_digest(&body));
            std::fs::write(&manifest_path, serde_json::to_string(&planted).unwrap()).unwrap();
            let err = RunArchive::open(&dir).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{rel}: {err}");
            assert!(err.to_string().contains("member name"), "{rel}: {err}");
            assert!(err.to_string().contains(rel), "{rel}: {err}");
        }
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn newer_schema_versions_are_refused() {
        let dir = tmpdir("schema");
        let obs = Obs::new();
        let mut meta = RunMeta::new("future", "cfg", 1);
        meta.schema_version = ARCHIVE_SCHEMA_VERSION + 1;
        // record() itself writes whatever meta says; open() refuses it.
        let err = RunArchive::record_obs(&dir, &meta, &obs, &[], &[]).unwrap_err();
        assert!(err.to_string().contains("newer than supported"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn digests_are_stable_and_hex() {
        assert_eq!(content_digest(b""), "cbf29ce484222325");
        assert_eq!(config_digest("a"), config_digest("a"));
        assert_ne!(config_digest("a"), config_digest("b"));
        assert_eq!(config_digest("nodes=4").len(), 16);
    }
}
