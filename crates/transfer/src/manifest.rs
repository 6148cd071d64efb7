//! Shipment manifests — the verifiable paperwork that travels with a
//! cross-facility data shipment.
//!
//! A shipment leaves the source facility as data plus a
//! [`ShipmentManifest`]: per-artifact content digests, the provenance
//! slice that produced each artifact, the originating trace ids, and a
//! digest of the source's compacted journal. The destination checks the
//! shipment against the manifest alone ([`crate::ingest`]) — no callback
//! to the source is needed to detect a missing, extra, or corrupt file.
//!
//! This crate sits *below* `eoml-core`, so the manifest defines its own
//! lineage shape ([`Lineage`], whose [`LineageRecord`]s mirror core's
//! `ProvRecord`) and takes the journal digest as plain numbers; the
//! drivers convert when they build the manifest at shipment time. The
//! lineage names its artifacts by id in a [`NameTable`]: a manifest built
//! from a provenance log shares the log's table instead of copying names.

use eoml_util::hash::{fnv1a64, fnv1a64_chain, fnv1a64_chain4, FNV_PRIME};
use eoml_util::names::{NameList, NameTable};
use serde_json::{json, Value};
use std::fmt;
use std::io::{self, Read};
use std::sync::Arc;

/// FNV-1a 64-bit digest of a byte payload — the content digest used for
/// real artifacts (the on-disk pipeline hashes actual file bytes).
pub fn content_digest(bytes: &[u8]) -> u64 {
    fnv1a64(bytes)
}

/// [`content_digest`] of everything `reader` yields, with the byte count:
/// [`content_digests_of`] for one reader.
pub fn content_digest_of(reader: impl Read) -> io::Result<(u64, u64)> {
    content_digests_of([Ok(reader)]).remove(0)
}

/// Window of one digest lane; four lanes hold 64 KiB.
const LANE_WINDOW: usize = 16 * 1024;

/// [`content_digest_of`] for each reader in turn, in their order: an
/// `Err` reader (a failed open) or a failed read is that reader's result
/// and nobody else's.
///
/// Four readers are hashed at once in lockstep ([`fnv1a64_chain4`]), each
/// through a 16 KiB window, so a shipped file is never held in memory. A
/// lane whose reader ends takes the next one; while fewer than four are
/// left, the idle lanes repeat a live lane's bytes into a discarded state.
pub fn content_digests_of<R: Read>(
    readers: impl IntoIterator<Item = io::Result<R>>,
) -> Vec<io::Result<(u64, u64)>> {
    let mut readers = readers.into_iter();
    let mut results = Vec::new();
    let mut buffer = vec![0u8; 4 * LANE_WINDOW];
    let mut lanes = buffer
        .chunks_exact_mut(LANE_WINDOW)
        .map(|window| Lane { window, file: None })
        .collect::<Vec<_>>();
    loop {
        for lane in &mut lanes {
            lane.fill(&mut readers, &mut results);
        }
        let pending = [0, 1, 2, 3].map(|k| lanes[k].pending());
        let live = || pending.iter().flatten();
        let (Some(pad), Some(n)) = (live().next(), live().map(|p| p.len()).min()) else {
            break;
        };
        let bytes = pending.map(|p| &p.unwrap_or(pad)[..n]);
        let mut states = [0, 1, 2, 3].map(|k| lanes[k].file.as_ref().map_or(0, |f| f.digest));
        fnv1a64_chain4(&mut states, bytes);
        for (lane, state) in lanes.iter_mut().zip(states) {
            if let Some(file) = &mut lane.file {
                file.digest = state;
                file.pending.start += n;
            }
        }
    }
    results
        .into_iter()
        .map(|r| r.expect("every reader taken is run to its end"))
        .collect()
}

/// One of [`content_digests_of`]'s four lanes: its window and the reader
/// it is hashing, if any.
struct Lane<'w, R> {
    window: &'w mut [u8],
    file: Option<LaneFile<R>>,
}

/// The reader a lane is hashing, with the window range read but not hashed.
struct LaneFile<R> {
    slot: usize,
    reader: R,
    digest: u64,
    bytes: u64,
    pending: std::ops::Range<usize>,
}

impl<R: Read> Lane<'_, R> {
    /// The bytes read but not yet hashed; `None` on an idle lane.
    fn pending(&self) -> Option<&[u8]> {
        self.file.as_ref().map(|f| &self.window[f.pending.clone()])
    }

    /// Give the lane unhashed bytes: read its reader once its window is
    /// hashed, and when the reader ends or fails, record its result in its
    /// slot and take the next reader. Leaves the lane idle when none is left.
    fn fill(
        &mut self,
        readers: &mut impl Iterator<Item = io::Result<R>>,
        results: &mut Vec<Option<io::Result<(u64, u64)>>>,
    ) {
        loop {
            let Some(file) = &mut self.file else {
                match readers.next() {
                    None => return,
                    Some(Err(e)) => results.push(Some(Err(e))),
                    Some(Ok(reader)) => {
                        self.file = Some(LaneFile {
                            slot: results.len(),
                            reader,
                            digest: fnv1a64(&[]),
                            bytes: 0,
                            pending: 0..0,
                        });
                        results.push(None);
                    }
                }
                continue;
            };
            if !file.pending.is_empty() {
                return;
            }
            let outcome = match file.reader.read(self.window) {
                Ok(0) => Ok((file.digest, file.bytes)),
                Ok(n) => {
                    file.pending = 0..n;
                    file.bytes += n as u64;
                    continue;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => Err(e),
            };
            results[file.slot] = Some(outcome);
            self.file = None;
        }
    }
}

/// Deterministic digest for virtual artifacts that have a name and a
/// size but no materialised bytes (the simulated campaigns). Source and
/// destination computing from the same `(name, bytes)` pair agree; a
/// corrupted payload is modelled by perturbing the received digest.
pub fn synthetic_digest(name: &str, bytes: u64) -> u64 {
    fnv1a64_chain(fnv1a64(name.as_bytes()), &bytes.to_le_bytes())
}

/// One shipped artifact: name, payload size, content digest, and the
/// granule trace id its spans are stamped with (if any).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArtifactEntry {
    /// Artifact file name.
    pub name: String,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Content digest ([`content_digest`] or [`synthetic_digest`]).
    pub digest: u64,
    /// Originating trace id (granule display form), if the artifact
    /// belongs to a traced pipeline item.
    pub trace_id: Option<String>,
}

/// One provenance record carried in the manifest, borrowed from its
/// [`Lineage`]: `activity` produced `artifact` from `inputs`. Mirrors
/// core's `ProvRecord` without the dependency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LineageRecord<'a> {
    /// The produced artifact.
    pub artifact: &'a str,
    /// The producing activity (`"download"`, `"preprocess"`, …).
    pub activity: &'a str,
    /// Input artifacts consumed.
    pub inputs: NameList<'a>,
    /// The agent that performed the activity.
    pub agent: &'a str,
    /// Virtual/wall seconds when the artifact was produced.
    pub at_s: f64,
}

/// A lineage record as stored: names by id, activity and agent as indices
/// into the labels, and the end of its run of input ids (the run starts
/// where the previous record's ends).
#[derive(Clone, Copy)]
struct Rec {
    artifact: u32,
    inputs_end: u32,
    activity: u16,
    agent: u16,
    at_s: f64,
}

/// The provenance slice behind a shipment, in record order. Names live in
/// a [`NameTable`] behind an `Arc`: a slice built from a provenance log
/// shares the log's table, which the log copies before it adds a name, so
/// a later record never changes a manifest already built.
#[derive(Clone, Default)]
pub struct Lineage {
    names: Arc<NameTable>,
    /// Activity and agent labels, each once.
    labels: Vec<String>,
    records: Vec<Rec>,
    /// Every record's input ids, one run per record.
    inputs: Vec<u32>,
}

impl Lineage {
    /// An empty slice over `names`.
    pub fn new(names: Arc<NameTable>) -> Self {
        Self {
            names,
            ..Self::default()
        }
    }

    /// The name table the records index.
    pub fn names(&self) -> &Arc<NameTable> {
        &self.names
    }

    /// The id of `name`, added to the table if new (the table is copied
    /// first if it is shared).
    pub fn intern(&mut self, name: &str) -> u32 {
        NameTable::intern(&mut self.names, name)
    }

    /// Index of `label`, added if new.
    fn label(&mut self, label: &str) -> u16 {
        let at = match self.labels.iter().position(|l| l == label) {
            Some(at) => at,
            None => {
                self.labels.push(label.to_string());
                self.labels.len() - 1
            }
        };
        u16::try_from(at).expect("fewer than 2^16 activity and agent labels")
    }

    /// Append a record: `activity` by `agent` produced the name `artifact`
    /// from the names `inputs` at `at_s`; names are ids in
    /// [`names`](Self::names).
    pub fn push(
        &mut self,
        artifact: u32,
        activity: &str,
        inputs: impl IntoIterator<Item = u32>,
        agent: &str,
        at_s: f64,
    ) {
        self.inputs.extend(inputs);
        let rec = Rec {
            artifact,
            inputs_end: u32::try_from(self.inputs.len()).expect("fewer than 2^32 inputs"),
            activity: self.label(activity),
            agent: self.label(agent),
            at_s,
        };
        self.records.push(rec);
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the slice holds no record.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The records, in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = LineageRecord<'_>> + '_ {
        self.records.iter().enumerate().map(|(i, r)| {
            let start = i
                .checked_sub(1)
                .map_or(0, |prev| self.records[prev].inputs_end);
            LineageRecord {
                artifact: self.names.get(r.artifact),
                activity: &self.labels[r.activity as usize],
                inputs: NameList::new(
                    &self.names,
                    &self.inputs[start as usize..r.inputs_end as usize],
                ),
                agent: &self.labels[r.agent as usize],
                at_s: r.at_s,
            }
        })
    }
}

/// Equal records by name, whatever the ids or the table behind them.
impl PartialEq for Lineage {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl fmt::Debug for Lineage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Digest of the source facility's compacted journal at manifest time:
/// `(events, checksum)`. The checksum is over the materialised state, so
/// it is invariant under compaction; the destination uses it to tell a
/// re-ship of the same completed campaign from a different one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalDigest {
    /// Durable events behind the digest.
    pub events: u64,
    /// FNV-1a checksum of the materialised journal state.
    pub checksum: u64,
}

/// The manifest that accompanies one shipment.
#[derive(Debug, Clone, PartialEq)]
pub struct ShipmentManifest {
    /// Source facility (e.g. `"ace-defiant"`).
    pub source: String,
    /// Destination facility (e.g. `"frontier-orion"`).
    pub destination: String,
    /// Shipment completion time at the source, trace seconds.
    pub created_s: f64,
    /// Shipped artifacts with digests.
    pub artifacts: Vec<ArtifactEntry>,
    /// Provenance slice behind the shipped artifacts.
    pub lineage: Lineage,
    /// Source journal digest, when the shipment ran journaled.
    pub journal: Option<JournalDigest>,
}

impl ShipmentManifest {
    /// Empty manifest between two facilities.
    pub fn new(source: &str, destination: &str, created_s: f64) -> ShipmentManifest {
        ShipmentManifest {
            source: source.to_string(),
            destination: destination.to_string(),
            created_s,
            artifacts: Vec::new(),
            lineage: Lineage::default(),
            journal: None,
        }
    }

    /// Stable identity of this manifest: a digest over route, artifact
    /// names/digests, and the journal digest. Two shipments of the same
    /// completed campaign produce the same id — the key ingest
    /// acknowledgements are journaled under, making re-ships idempotent.
    pub fn id(&self) -> String {
        let mut h = content_digest(self.source.as_bytes());
        h ^= content_digest(self.destination.as_bytes());
        for a in &self.artifacts {
            h = h
                .wrapping_mul(FNV_PRIME)
                .wrapping_add(content_digest(a.name.as_bytes()) ^ a.digest);
        }
        // Only the state checksum feeds the id: the event count shifts
        // under compaction and crash-resume while the completed work
        // (and therefore the shipment identity) does not.
        if let Some(j) = self.journal {
            h ^= j.checksum.rotate_left(17);
        }
        format!("{}-{h:016x}", self.source)
    }

    /// Number of shipped artifacts.
    pub fn len(&self) -> usize {
        self.artifacts.len()
    }

    /// Whether the manifest lists no artifacts.
    pub fn is_empty(&self) -> bool {
        self.artifacts.is_empty()
    }

    /// Total payload bytes across artifacts.
    pub fn total_bytes(&self) -> u64 {
        self.artifacts.iter().map(|a| a.bytes).sum()
    }

    /// The entry for `name`, if shipped.
    pub fn artifact(&self, name: &str) -> Option<&ArtifactEntry> {
        self.artifacts.iter().find(|a| a.name == name)
    }

    /// Deduplicated trace ids across artifacts, sorted.
    pub fn trace_ids(&self) -> Vec<&str> {
        let mut out: Vec<&str> = self
            .artifacts
            .iter()
            .filter_map(|a| a.trace_id.as_deref())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// JSON form (written next to the data, validated by CI).
    pub fn to_json(&self) -> Value {
        json!({
            "id": self.id(),
            "source": self.source,
            "destination": self.destination,
            "created_s": self.created_s,
            "artifacts": self.artifacts.iter().map(|a| json!({
                "name": a.name,
                "bytes": a.bytes,
                "digest": format!("{:016x}", a.digest),
                "trace_id": a.trace_id.clone().map(Value::String).unwrap_or(Value::Null),
            })).collect::<Vec<_>>(),
            "lineage": self.lineage.iter().map(|r| json!({
                "artifact": r.artifact,
                "activity": r.activity,
                "inputs": r.inputs.iter().collect::<Vec<_>>(),
                "agent": r.agent,
                "at_s": r.at_s,
            })).collect::<Vec<_>>(),
            "journal": self.journal.map(|j| json!({
                "events": j.events,
                "checksum": format!("{:016x}", j.checksum),
            })).unwrap_or(Value::Null),
        })
    }

    /// Parse the JSON form; `Err` names the offending field.
    pub fn from_json(v: &Value) -> Result<ShipmentManifest, String> {
        let str_field = |v: &Value, k: &str| -> Result<String, String> {
            v[k].as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("manifest: missing '{k}'"))
        };
        let hex64 = |v: &Value, k: &str| -> Result<u64, String> {
            let s = v[k]
                .as_str()
                .ok_or_else(|| format!("manifest: missing '{k}'"))?;
            u64::from_str_radix(s, 16).map_err(|_| format!("manifest: '{k}' is not hex"))
        };
        let mut artifacts = Vec::new();
        for a in v["artifacts"].as_array().ok_or("manifest: no artifacts")? {
            artifacts.push(ArtifactEntry {
                name: str_field(a, "name")?,
                bytes: a["bytes"]
                    .as_u64()
                    .ok_or("manifest: artifact missing 'bytes'")?,
                digest: hex64(a, "digest")?,
                trace_id: a["trace_id"].as_str().map(str::to_string),
            });
        }
        let mut lineage = Lineage::default();
        let mut inputs = Vec::new();
        for r in v["lineage"].as_array().map(|a| a.as_slice()).unwrap_or(&[]) {
            let artifact = lineage.intern(&str_field(r, "artifact")?);
            inputs.clear();
            for input in r["inputs"].as_array().map(|a| a.as_slice()).unwrap_or(&[]) {
                if let Some(name) = input.as_str() {
                    inputs.push(lineage.intern(name));
                }
            }
            let (activity, agent) = (str_field(r, "activity")?, str_field(r, "agent")?);
            let at_s = r["at_s"].as_f64().unwrap_or(0.0);
            lineage.push(artifact, &activity, inputs.iter().copied(), &agent, at_s);
        }
        let journal = if v["journal"].is_null() {
            None
        } else {
            Some(JournalDigest {
                events: v["journal"]["events"]
                    .as_u64()
                    .ok_or("manifest: journal missing 'events'")?,
                checksum: hex64(&v["journal"], "checksum")?,
            })
        };
        Ok(ShipmentManifest {
            source: str_field(v, "source")?,
            destination: str_field(v, "destination")?,
            created_s: v["created_s"].as_f64().unwrap_or(0.0),
            artifacts,
            lineage,
            journal,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ShipmentManifest {
        let mut m = ShipmentManifest::new("ace-defiant", "frontier-orion", 120.5);
        for (name, bytes) in [
            ("tiles-MOD.A2022001.0610.nc", 5_000_000u64),
            ("tiles-MOD.A2022001.0615.nc", 4_200_000),
        ] {
            m.artifacts.push(ArtifactEntry {
                name: name.to_string(),
                bytes,
                digest: synthetic_digest(name, bytes),
                trace_id: Some(name["tiles-".len()..name.len() - 3].to_string()),
            });
        }
        let artifact = m.lineage.intern("tiles-MOD.A2022001.0610.nc");
        let input = m.lineage.intern("defiant:MOD021KM.A2022001.0610.hdf");
        m.lineage
            .push(artifact, "preprocess", [input], "parsl-worker", 40.0);
        m.journal = Some(JournalDigest {
            events: 17,
            checksum: 0xdead_beef_0bad_f00d,
        });
        m
    }

    #[test]
    fn digests_are_deterministic_and_content_sensitive() {
        assert_eq!(content_digest(b"abc"), content_digest(b"abc"));
        assert_ne!(content_digest(b"abc"), content_digest(b"abd"));
        // Pinned: manifests and journaled ingest acks store these values.
        assert_eq!(content_digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(content_digest(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(synthetic_digest("a.nc", 10), 0xfc53_f18a_0354_6acb);
        assert_eq!(synthetic_digest("a.nc", 10), synthetic_digest("a.nc", 10));
        assert_ne!(synthetic_digest("a.nc", 10), synthetic_digest("a.nc", 11));
        assert_ne!(synthetic_digest("a.nc", 10), synthetic_digest("b.nc", 10));
    }

    #[test]
    fn streamed_digest_equals_the_in_memory_one() {
        // Longer than the window, not a multiple of it, read in odd pieces.
        struct Dribble<'a>(&'a [u8]);
        impl std::io::Read for Dribble<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                let n = self.0.len().min(buf.len()).min(50_001);
                buf[..n].copy_from_slice(&self.0[..n]);
                self.0 = &self.0[n..];
                Ok(n)
            }
        }
        let bytes: Vec<u8> = (0..200_003u32).map(|i| ((i * 31) >> 3) as u8).collect();
        let expected = (content_digest(&bytes), bytes.len() as u64);
        assert_eq!(content_digest_of(&bytes[..]).unwrap(), expected);
        assert_eq!(content_digest_of(Dribble(&bytes)).unwrap(), expected);
        assert_eq!(
            content_digest_of(std::io::empty()).unwrap(),
            (content_digest(b""), 0)
        );
    }

    /// A reader over `bytes` that yields at most `step` bytes a call, can
    /// be interrupted once before its first byte, and can fail for good once
    /// `fail_at` bytes are out.
    struct Flaky<'a> {
        bytes: &'a [u8],
        step: usize,
        interrupt: bool,
        fail_at: Option<usize>,
        out: usize,
    }

    impl<'a> Flaky<'a> {
        fn new(bytes: &'a [u8]) -> Self {
            Flaky {
                bytes,
                step: usize::MAX,
                interrupt: false,
                fail_at: None,
                out: 0,
            }
        }
    }

    impl std::io::Read for Flaky<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if std::mem::take(&mut self.interrupt) {
                return Err(io::ErrorKind::Interrupted.into());
            }
            if self.fail_at.is_some_and(|at| self.out >= at) {
                return Err(io::Error::other("disk went away"));
            }
            let n = self.bytes.len().min(buf.len()).min(self.step);
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            self.out += n;
            Ok(n)
        }
    }

    fn payloads(count: usize) -> Vec<Vec<u8>> {
        use eoml_util::rng::{Rng64, Xoshiro256};
        let mut rng = Xoshiro256::seed_from(count as u64);
        let lens = [200_003, 0, LANE_WINDOW, 1, 3 * LANE_WINDOW + 5, 40_000];
        (0..count)
            .map(|i| {
                (0..lens[i % lens.len()])
                    .map(|_| rng.next_u64() as u8)
                    .collect()
            })
            .collect()
    }

    fn expected(payload: &[u8]) -> (u64, u64) {
        (content_digest(payload), payload.len() as u64)
    }

    #[test]
    fn lockstep_digests_equal_one_reader_at_a_time() {
        for count in [0, 1, 3, 4, 5, 9] {
            let payloads = payloads(count);
            // Whole reads, dribbles of odd sizes, and an interruption first.
            let readers = payloads.iter().enumerate().map(|(i, p)| {
                let mut r = Flaky::new(p);
                match i % 3 {
                    0 => {}
                    1 => r.step = 977 + 1_000 * i,
                    _ => r.interrupt = true,
                }
                Ok(r)
            });
            let got: Vec<_> = content_digests_of(readers)
                .into_iter()
                .map(Result::unwrap)
                .collect();
            let want: Vec<_> = payloads.iter().map(|p| expected(p)).collect();
            assert_eq!(got, want, "{count} readers");
        }
    }

    #[test]
    fn a_failed_open_or_read_is_its_own_readers_result_only() {
        let payloads = payloads(7);
        let readers = payloads.iter().enumerate().map(|(i, p)| match i {
            1 => Err(io::Error::new(io::ErrorKind::NotFound, "no such file")),
            4 => {
                let mut r = Flaky::new(p);
                (r.step, r.fail_at) = (1_000, Some(20_000));
                Ok(r)
            }
            _ => Ok(Flaky::new(p)),
        });
        let got = content_digests_of(readers);
        assert_eq!(got.len(), payloads.len());
        for (i, (got, payload)) in got.into_iter().zip(&payloads).enumerate() {
            match i {
                1 => assert_eq!(got.unwrap_err().kind(), io::ErrorKind::NotFound),
                4 => assert_eq!(got.unwrap_err().to_string(), "disk went away"),
                _ => assert_eq!(got.unwrap(), expected(payload), "reader {i}"),
            }
        }
    }

    #[test]
    fn manifest_round_trips_through_json() {
        let m = sample();
        let back = ShipmentManifest::from_json(&m.to_json()).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.id(), m.id());
        assert_eq!(m.total_bytes(), 9_200_000);
        assert_eq!(
            m.trace_ids(),
            vec!["MOD.A2022001.0610", "MOD.A2022001.0615"]
        );
    }

    #[test]
    fn id_is_stable_across_reships_but_not_across_content() {
        let a = sample();
        let b = sample();
        assert_eq!(a.id(), b.id(), "same shipment, same id");
        let mut c = sample();
        c.artifacts[0].digest ^= 1;
        assert_ne!(a.id(), c.id(), "corrupt content changes the id");
        let mut d = sample();
        d.journal = Some(JournalDigest {
            events: 18,
            checksum: 1,
        });
        assert_ne!(a.id(), d.id(), "different journal state, different id");
    }

    #[test]
    fn malformed_json_is_a_typed_error() {
        assert!(ShipmentManifest::from_json(&json!({})).is_err());
        let v = json!({
            "source": "a",
            "destination": "b",
            "created_s": 0.0,
            "artifacts": [{ "name": "x.nc", "bytes": 1, "digest": "zz" }],
        });
        assert!(ShipmentManifest::from_json(&v)
            .unwrap_err()
            .contains("not hex"));
    }
}
