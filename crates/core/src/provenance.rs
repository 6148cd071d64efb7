//! Provenance tracking — the paper's §V-A plan: "integrate advanced
//! provenance tracking and telemetry tools for real-time workflow
//! insights… support the creation of reliable, reusable workflows".
//!
//! The model is a light W3C-PROV-style graph: *activities* (download,
//! preprocess, inference, shipment) generate *artifacts* (files) from input
//! artifacts, attributed to an *agent* (the service that did the work).
//! The log answers the question that matters operationally — "where did
//! this labeled file come from?" (full upstream lineage) — and exports JSON
//! for external tooling.
//!
//! Every name is stored once, in a [`NameTable`] that the shipment manifests
//! built from the log share, and records refer to names by id (DESIGN §19).
//! What each query costs, with N records in the log:
//! [`record`](ProvenanceLog::record) is O(1) per name it is given — one
//! hash lookup each, and a name already seen costs no memory;
//! [`producers`](ProvenanceLog::producers) is one hash lookup plus the
//! records of the name's producer chain; [`lineage`](ProvenanceLog::lineage)
//! is linear in the ancestry it returns, whatever N is;
//! [`is_acyclic`](ProvenanceLog::is_acyclic) is one pass, O(records +
//! edges); [`records`](ProvenanceLog::records) hands out borrowed views
//! and copies nothing.

use eoml_transfer::manifest::Lineage;
use eoml_util::names::{NameList, NameTable};
use std::collections::{BTreeMap, HashSet};
use std::fmt::{self, Write as _};
use std::sync::Arc;

/// One provenance record, borrowed from its log: `activity` produced
/// `artifact` from `inputs`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProvRecord<'a> {
    /// The produced artifact (file name / URI).
    pub artifact: &'a str,
    /// The producing activity (e.g. `"preprocess"`).
    pub activity: &'static str,
    /// Input artifacts consumed, in the order recorded.
    pub inputs: NameList<'a>,
    /// The agent that performed the activity.
    pub agent: &'static str,
    /// Virtual/wall seconds when the artifact was produced.
    pub at_s: f64,
    /// Attributes (tile counts, sizes, …) in the order recorded.
    pub attrs: &'a [(&'static str, u64)],
}

/// End of a chain of records producing a name.
const END: u32 = u32::MAX;

/// One record as stored: names by id, and the ends of its runs of
/// `inputs` and `attrs` (each run starts where the previous record's ends).
#[derive(Clone)]
struct Rec {
    artifact: u32,
    inputs_end: u32,
    attrs_end: u32,
    /// The next record producing the same artifact, or [`END`].
    next: u32,
    activity: &'static str,
    agent: &'static str,
    at_s: f64,
}

/// An append-only provenance log, indexed by artifact name.
#[derive(Clone, Default)]
pub struct ProvenanceLog {
    /// Every name, once; shared with the shipment manifests built from the
    /// log, and copied on the first new name after such a build.
    names: Arc<NameTable>,
    /// The name being interned, written out before it is looked up.
    scratch: String,
    /// Per name: the first and last record producing it, or [`END`]s.
    producers: Vec<(u32, u32)>,
    records: Vec<Rec>,
    /// Every record's input name ids, one run per record.
    inputs: Vec<u32>,
    /// Every record's attributes, one run per record.
    attrs: Vec<(&'static str, u64)>,
}

/// The records are the log; names and indices are how they are stored.
impl fmt::Debug for ProvenanceLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProvenanceLog")
            .field("records", &self.records().collect::<Vec<_>>())
            .finish()
    }
}

impl ProvenanceLog {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// A name's id, new or not. A new name goes into the table, which is
    /// copied first if a manifest still shares it.
    fn intern(&mut self, name: impl fmt::Display) -> u32 {
        self.scratch.clear();
        write!(self.scratch, "{name}").expect("a String takes any text");
        let id = NameTable::intern(&mut self.names, &self.scratch);
        if id as usize == self.producers.len() {
            self.producers.push((END, END));
        }
        id
    }

    /// Append a record: `activity` by `agent` produced `artifact` from
    /// `inputs` at `at_s`. Names are anything that prints — a `&str`, a
    /// `String`, a `format_args!` — and each is written into the log only
    /// the first time it is seen.
    pub fn record<I: fmt::Display>(
        &mut self,
        artifact: impl fmt::Display,
        activity: &'static str,
        inputs: impl IntoIterator<Item = I>,
        agent: &'static str,
        at_s: f64,
        attrs: &[(&'static str, u64)],
    ) {
        let index = u32::try_from(self.records.len()).expect("fewer than 2^32 records");
        let artifact = self.intern(artifact);
        for input in inputs {
            let id = self.intern(input);
            self.inputs.push(id);
        }
        self.attrs.extend_from_slice(attrs);
        // A name's first record starts its chain; a later one is linked
        // from the former last.
        let chain = &mut self.producers[artifact as usize];
        match std::mem::replace(&mut chain.1, index) {
            END => chain.0 = index,
            last => self.records[last as usize].next = index,
        }
        self.records.push(Rec {
            artifact,
            inputs_end: u32::try_from(self.inputs.len()).expect("fewer than 2^32 inputs"),
            attrs_end: u32::try_from(self.attrs.len()).expect("fewer than 2^32 attrs"),
            next: END,
            activity,
            agent,
            at_s,
        });
    }

    /// Record `i`'s run in a shared vector: from the previous record's
    /// `end` to its own.
    fn run(&self, i: usize, end: impl Fn(&Rec) -> u32) -> std::ops::Range<usize> {
        let start = i.checked_sub(1).map_or(0, |prev| end(&self.records[prev]));
        start as usize..end(&self.records[i]) as usize
    }

    fn input_ids(&self, i: usize) -> &[u32] {
        &self.inputs[self.run(i, |r| r.inputs_end)]
    }

    /// Record `i`, borrowed.
    fn view(&self, i: usize) -> ProvRecord<'_> {
        let r = &self.records[i];
        ProvRecord {
            artifact: self.names.get(r.artifact),
            activity: r.activity,
            inputs: NameList::new(&self.names, self.input_ids(i)),
            agent: r.agent,
            at_s: r.at_s,
            attrs: &self.attrs[self.run(i, |r| r.attrs_end)],
        }
    }

    /// All records, in the order recorded.
    pub fn records(&self) -> impl ExactSizeIterator<Item = ProvRecord<'_>> + '_ {
        (0..self.records.len()).map(|i| self.view(i))
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Indices of the records that produced the name `id`, in record order.
    fn producer_indices(&self, id: u32) -> impl Iterator<Item = usize> + '_ {
        let first = Some(self.producers[id as usize].0).filter(|&i| i != END);
        std::iter::successors(first, |&i| {
            Some(self.records[i as usize].next).filter(|&n| n != END)
        })
        .map(|i| i as usize)
    }

    /// The records that directly produced `artifact` (usually one).
    pub fn producers(&self, artifact: &str) -> Vec<ProvRecord<'_>> {
        self.names.find(artifact).map_or_else(Vec::new, |id| {
            self.producer_indices(id).map(|i| self.view(i)).collect()
        })
    }

    /// Breadth-first walk upstream of the name `start`: `visit` sees the
    /// producers of each name as it is reached — `start`'s first, then
    /// those of the names they used, in the order reached. `first_reach`
    /// says whether a name is reached for the first time (`start` itself is
    /// not asked). Leaves the names reached in `order`, `start` first.
    fn walk_upstream(
        &self,
        start: u32,
        order: &mut Vec<u32>,
        mut first_reach: impl FnMut(u32) -> bool,
        mut visit: impl FnMut(usize),
    ) {
        // Queue and result in one: names before `head` are done.
        order.clear();
        order.push(start);
        let mut head = 0;
        while let Some(&current) = order.get(head) {
            head += 1;
            for i in self.producer_indices(current) {
                visit(i);
                for &input in self.input_ids(i) {
                    if first_reach(input) {
                        order.push(input);
                    }
                }
            }
        }
    }

    /// Transitive upstream lineage of `artifact`: every artifact it
    /// (recursively) derives from, in breadth-first order, deduplicated.
    pub fn lineage(&self, artifact: &str) -> Vec<String> {
        let Some(start) = self.names.find(artifact) else {
            return Vec::new();
        };
        let (mut order, mut seen) = (Vec::new(), HashSet::new());
        self.walk_upstream(start, &mut order, |id| seen.insert(id), |_| {});
        order[1..]
            .iter()
            .map(|&id| self.names.get(id).to_string())
            .collect()
    }

    /// The records behind `artifacts`, each `(artifact, activity)` once, the
    /// first wins — a shipment manifest's lineage slice: `visit` gets, for
    /// each artifact in turn, the index of its producers, then those of its
    /// lineage, in lineage order. One mark per name says whether a walk
    /// already reached it; such a name's producers, and those of its whole
    /// ancestry, were handed out then, so it is not walked again. Returns
    /// the number of names reached: each is reached once, so it grows with
    /// the slice, not with the log.
    pub(crate) fn upstream_records(
        &self,
        artifacts: impl IntoIterator<Item = impl fmt::Display>,
        mut visit: impl FnMut(usize),
    ) -> usize {
        let (mut reached, mut order) = (vec![false; self.names.len()], Vec::new());
        let (mut name, mut count) = (String::new(), 0);
        for artifact in artifacts {
            name.clear();
            write!(name, "{artifact}").expect("a String takes any text");
            let Some(start) = self.names.find(&name) else {
                continue;
            };
            if std::mem::replace(&mut reached[start as usize], true) {
                continue;
            }
            let first_reach = |id: u32| !std::mem::replace(&mut reached[id as usize], true);
            self.walk_upstream(start, &mut order, first_reach, |i| {
                // A name is walked once, with all its producers: of those
                // sharing an activity (a re-shipped granule), the first wins.
                let Rec {
                    artifact, activity, ..
                } = self.records[i];
                let first = self
                    .producer_indices(artifact)
                    .take_while(|&j| j != i)
                    .all(|j| self.records[j].activity != activity);
                if first {
                    visit(i);
                }
            });
            count += order.len();
        }
        count
    }

    /// The shipment manifest's lineage slice behind `artifacts`
    /// ([`upstream_records`](Self::upstream_records)), by id in this log's
    /// name table, which it shares.
    pub(crate) fn shipment_lineage(
        &self,
        artifacts: impl IntoIterator<Item = impl fmt::Display>,
    ) -> Lineage {
        let mut lineage = Lineage::new(Arc::clone(&self.names));
        self.upstream_records(artifacts, |i| {
            let r = &self.records[i];
            let inputs = self.input_ids(i).iter().copied();
            lineage.push(r.artifact, r.activity, inputs, r.agent, r.at_s);
        });
        lineage
    }

    /// The name table, as the manifests built from the log share it.
    #[cfg(test)]
    pub(crate) fn names(&self) -> &Arc<NameTable> {
        &self.names
    }

    /// Verify the graph is acyclic (an artifact never being its own
    /// ancestor) — the integrity invariant a provenance log must hold.
    pub fn is_acyclic(&self) -> bool {
        // Depth-first over records along inputs → producers; a record met
        // again while still on the current path closes a cycle.
        const ON_PATH: u8 = 1;
        const DONE: u8 = 2;
        let mut state = vec![0u8; self.records.len()];
        let mut stack: Vec<(usize, bool)> = Vec::new();
        for root in 0..self.records.len() {
            stack.push((root, false));
            while let Some((i, leaving)) = stack.pop() {
                if leaving {
                    state[i] = DONE;
                } else if state[i] == 0 {
                    state[i] = ON_PATH;
                    stack.push((i, true));
                    for &input in self.input_ids(i) {
                        for producer in self.producer_indices(input) {
                            match state[producer] {
                                0 => stack.push((producer, false)),
                                ON_PATH => return false,
                                _ => {}
                            }
                        }
                    }
                }
            }
        }
        true
    }

    /// Export as PROV-flavoured JSON: `entities`, and `activities` with
    /// `used`/`generated` edges.
    pub fn to_json(&self) -> serde_json::Value {
        // Every name is some record's artifact or input.
        let mut entities: Vec<&str> = self.names.iter().collect();
        entities.sort_unstable();
        serde_json::json!({
            "entities": entities,
            "activities": self.records().map(|r| {
                let attrs: BTreeMap<&str, String> =
                    r.attrs.iter().map(|&(k, v)| (k, v.to_string())).collect();
                serde_json::json!({
                    "type": r.activity,
                    "agent": r.agent,
                    "at_s": r.at_s,
                    "used": r.inputs.iter().collect::<Vec<_>>(),
                    "generated": r.artifact,
                    "attrs": attrs,
                })
            }).collect::<Vec<_>>(),
        })
    }
}

#[cfg(test)]
/// The queries as they were before the index — every one a scan of the
/// records for a name — kept as the reference the indexed ones must equal.
pub(crate) mod scan {
    use super::*;
    use std::collections::VecDeque;

    pub fn producers<'a>(log: &'a ProvenanceLog, artifact: &str) -> Vec<ProvRecord<'a>> {
        log.records().filter(|r| r.artifact == artifact).collect()
    }

    pub fn lineage(log: &ProvenanceLog, artifact: &str) -> Vec<String> {
        let mut seen: HashSet<String> = HashSet::new();
        let mut queue: VecDeque<String> = VecDeque::new();
        queue.push_back(artifact.to_string());
        let mut out = Vec::new();
        while let Some(current) = queue.pop_front() {
            for rec in producers(log, &current) {
                for input in rec.inputs.iter() {
                    if seen.insert(input.to_string()) {
                        out.push(input.to_string());
                        queue.push_back(input.to_string());
                    }
                }
            }
        }
        out
    }

    pub fn is_acyclic(log: &ProvenanceLog) -> bool {
        log.records()
            .all(|r| !lineage(log, r.artifact).iter().any(|a| a == r.artifact))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn pipeline_log() -> ProvenanceLog {
        let mut log = ProvenanceLog::new();
        for name in [
            "MOD021KM.A2022001.0005",
            "MOD03.A2022001.0005",
            "MOD06_L2.A2022001.0005",
        ] {
            log.record(
                format!("defiant:{name}"),
                "download",
                vec![format!("laads:{name}")],
                "download-pool",
                10.0,
                &[],
            );
        }
        log.record(
            "tiles-MOD.A2022001.0005.nc",
            "preprocess",
            [
                "defiant:MOD021KM.A2022001.0005",
                "defiant:MOD03.A2022001.0005",
                "defiant:MOD06_L2.A2022001.0005",
            ],
            "parsl-worker",
            40.0,
            &[("tiles", 117)],
        );
        log.record(
            "labeled:tiles-MOD.A2022001.0005.nc",
            "inference",
            ["tiles-MOD.A2022001.0005.nc"],
            "globus-flow",
            55.0,
            &[],
        );
        log.record(
            "orion:tiles-MOD.A2022001.0005.nc",
            "shipment",
            ["labeled:tiles-MOD.A2022001.0005.nc"],
            "globus-transfer",
            60.0,
            &[],
        );
        log
    }

    #[test]
    fn lineage_reaches_the_archive() {
        let log = pipeline_log();
        let lineage = log.lineage("orion:tiles-MOD.A2022001.0005.nc");
        // labeled → tiles → 3 defiant products → 3 laads originals.
        assert_eq!(lineage.len(), 8, "{lineage:?}");
        assert!(lineage.iter().any(|a| a == "laads:MOD021KM.A2022001.0005"));
        assert!(lineage.iter().any(|a| a == "laads:MOD06_L2.A2022001.0005"));
        // BFS order: the direct parent comes first.
        assert_eq!(lineage[0], "labeled:tiles-MOD.A2022001.0005.nc");
    }

    #[test]
    fn reshipped_granule_does_not_duplicate_closure_records() {
        // A failed ingest makes the source re-ship the granule: a second
        // shipment record lands for the same orion: artifact. The lineage
        // must stay duplicate-free — multi-input joins (the three MODIS
        // products feeding one tile file) plus a re-ship is exactly the
        // shape that makes a naive BFS emit an artifact twice.
        let mut log = pipeline_log();
        log.record(
            "orion:tiles-MOD.A2022001.0005.nc",
            "shipment",
            ["labeled:tiles-MOD.A2022001.0005.nc"],
            "globus-transfer",
            75.0,
            &[],
        );
        assert_eq!(log.producers("orion:tiles-MOD.A2022001.0005.nc").len(), 2);
        assert!(log.is_acyclic());

        // Upstream of the re-shipped artifact, each ancestor — including
        // the shared multi-input MODIS products — appears exactly once.
        let lineage = log.lineage("orion:tiles-MOD.A2022001.0005.nc");
        let mut dedup = lineage.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), lineage.len(), "duplicate lineage records");
        assert_eq!(lineage.len(), 8, "re-ship must not grow the lineage");
    }

    #[test]
    fn acyclicity_detection() {
        let mut log = pipeline_log();
        assert!(log.is_acyclic());
        // Introduce a cycle: the archive file "derives" from the shipped one.
        log.record(
            "laads:MOD021KM.A2022001.0005",
            "time-travel",
            ["orion:tiles-MOD.A2022001.0005.nc"],
            "paradox",
            99.0,
            &[],
        );
        assert!(!log.is_acyclic());
    }

    #[test]
    fn producers_and_attrs() {
        let log = pipeline_log();
        let p = log.producers("tiles-MOD.A2022001.0005.nc");
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].activity, "preprocess");
        assert_eq!(p[0].attrs, [("tiles", 117)]);
        assert!(log.producers("unknown").is_empty());
    }

    #[test]
    fn json_export_shape() {
        let log = pipeline_log();
        let j = log.to_json();
        assert_eq!(j["activities"].as_array().unwrap().len(), 6);
        let entities = j["entities"].as_array().unwrap();
        assert!(entities.len() >= 9, "{entities:?}");
        // Every activity's generated artifact appears among entities.
        for act in j["activities"].as_array().unwrap() {
            let artifact = act["generated"].as_str().unwrap();
            assert!(entities.iter().any(|e| e.as_str() == Some(artifact)));
        }
    }

    #[test]
    fn empty_log() {
        let log = ProvenanceLog::new();
        assert!(log.is_empty());
        assert!(log.is_acyclic());
        assert!(log.lineage("x").is_empty());
        assert_eq!(log.to_json()["entities"].as_array().unwrap().len(), 0);
    }

    /// Low 32 bits of a name's hash: names that share them start their probe
    /// at the same slot of the name table's index at every size it takes.
    fn home(name: &str) -> u32 {
        eoml_util::hash::fnv1a64(name.as_bytes()) as u32
    }

    /// Two different names with one home slot: the first pair a few ten
    /// thousand generated names yield (a birthday search over 32 bits),
    /// found once.
    fn colliding_names() -> (String, String) {
        static PAIR: std::sync::OnceLock<(String, String)> = std::sync::OnceLock::new();
        let search = || {
            let mut by_bucket: HashMap<u32, String> = HashMap::new();
            (0u32..)
                .find_map(|i| {
                    let name = format!("granule-{i}");
                    by_bucket
                        .insert(home(&name), name.clone())
                        .map(|earlier| (earlier, name))
                })
                .expect("a collision exists")
        };
        PAIR.get_or_init(search).clone()
    }

    #[test]
    fn names_sharing_a_bucket_are_told_apart() {
        let (a, b) = colliding_names();
        assert_ne!(a, b);
        assert_eq!(home(&a), home(&b), "a and b share one home slot");
        let mut log = ProvenanceLog::new();
        log.record(&a, "download", ["laads:a"], "pool", 1.0, &[]);
        log.record(&b, "download", ["laads:b"], "pool", 2.0, &[]);
        log.record(&a, "download", ["mirror:a"], "pool", 3.0, &[]);
        log.record("joined", "preprocess", [&b, &a], "w", 4.0, &[]);
        let at = |recs: Vec<ProvRecord>| recs.iter().map(|r| r.at_s).collect::<Vec<_>>();
        assert_eq!(at(log.producers(&a)), [1.0, 3.0]);
        assert_eq!(at(log.producers(&b)), [2.0]);
        assert_eq!(log.lineage(&a), ["laads:a", "mirror:a"]);
        assert_eq!(log.lineage(&b), ["laads:b"]);
        assert_eq!(
            log.lineage("joined"),
            [b.as_str(), a.as_str(), "laads:b", "laads:a", "mirror:a"]
        );
        assert!(log.is_acyclic());
        // A cycle through only one of the two is a cycle all the same.
        log.record("laads:b", "time-travel", [&b], "paradox", 5.0, &[]);
        assert!(!log.is_acyclic());
        assert_eq!(log.is_acyclic(), scan::is_acyclic(&log));
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let mut log = ProvenanceLog::new();
        log.record("x", "copy", ["x"], "agent", 1.0, &[]);
        assert!(!log.is_acyclic());
        assert_eq!(log.lineage("x"), ["x"]);
    }

    /// One generated record: artifact, activity and inputs as indices into
    /// the name pool of [`generated_log`].
    type Shape = (usize, usize, Vec<usize>);

    /// Build a log over a small pool of names — two of them sharing a
    /// home slot — so that re-produced artifacts, a second activity for the same
    /// artifact, multi-input joins, inputs nobody produced, self-loops and
    /// longer cycles all turn up. With `dag`, every input is an earlier name
    /// of the pool (or one never produced), so the log cannot hold a cycle.
    fn generated_log(shapes: &[Shape], dag: bool) -> (ProvenanceLog, Vec<String>) {
        let (a, b) = colliding_names();
        let mut names: Vec<String> = ["t", "u", "v", "w", "x", "y"].map(String::from).into();
        names.insert(2, a);
        names.push(b);
        let mut log = ProvenanceLog::new();
        for (k, (artifact, activity, inputs)) in shapes.iter().enumerate() {
            let inputs = inputs
                .iter()
                .map(|&i| match (dag, *artifact) {
                    (true, 0) => format!("archive:{i}"),
                    (true, n) => names[i % n].clone(),
                    (false, _) => names.get(i).cloned().unwrap_or(format!("archive:{i}")),
                })
                .collect::<Vec<_>>();
            let activity = ["make", "remake"][*activity];
            log.record(&names[*artifact], activity, inputs, "agent", k as f64, &[]);
        }
        names.push("never-recorded".into());
        names.push("archive:9".into());
        (log, names)
    }

    fn shapes() -> impl Strategy<Value = Vec<Shape>> {
        proptest::collection::vec(
            (
                0usize..8,
                0usize..2,
                proptest::collection::vec(0usize..10, 0..4),
            ),
            0..14,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The indexed queries equal the scanning ones: same producer
        /// records in the same order, same lineage in the same breadth-first
        /// order, same verdict on cycles — and the upstream record walk is
        /// the artifact's producers followed by its lineage's, each
        /// `(artifact, activity)` once, the first wins, for one artifact
        /// alone and for all of them one after another.
        #[test]
        fn index_equals_the_scan(shapes in shapes(), dag in any::<bool>()) {
            let (log, names) = generated_log(&shapes, dag);
            prop_assert_eq!(log.is_acyclic(), scan::is_acyclic(&log));
            prop_assert!(!dag || log.is_acyclic());
            let (mut seen, mut expect_walked) = (HashSet::new(), Vec::new());
            for name in &names {
                let producers = log.producers(name);
                prop_assert_eq!(&producers, &scan::producers(&log, name), "{}", name);
                let lineage = log.lineage(name);
                prop_assert_eq!(&lineage, &scan::lineage(&log, name), "{}", name);
                let chain = std::iter::once(name).chain(&lineage);
                let behind: Vec<ProvRecord> =
                    chain.flat_map(|n| scan::producers(&log, n)).collect();
                let mut alone_seen = HashSet::new();
                let alone_expect: Vec<ProvRecord> = behind
                    .iter()
                    .copied()
                    .filter(|r| alone_seen.insert((r.artifact, r.activity)))
                    .collect();
                let mut alone = Vec::new();
                log.upstream_records([name], |i| alone.push(log.view(i)));
                prop_assert_eq!(alone, alone_expect, "{}", name);
                let first_wins = behind.iter().filter(|r| seen.insert((r.artifact, r.activity)));
                expect_walked.extend(first_wins.copied());
            }
            let mut walked = Vec::new();
            log.upstream_records(&names, |i| walked.push(log.view(i)));
            prop_assert_eq!(walked, expect_walked);
        }
    }
}
