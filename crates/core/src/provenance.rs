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
//! What each query costs, with N records in the log (DESIGN §19):
//! [`record`](ProvenanceLog::record) is O(1) and keeps the index;
//! [`producers`](ProvenanceLog::producers) is one hash lookup plus the
//! records sharing the name; [`lineage`](ProvenanceLog::lineage) is linear
//! in the ancestry it returns, whatever N is;
//! [`is_acyclic`](ProvenanceLog::is_acyclic) is one pass, O(records +
//! edges).

use eoml_util::hash::fnv1a64;
use std::collections::{BTreeMap, HashMap, HashSet};

/// One provenance record: `activity` produced `artifact` from `inputs`.
#[derive(Debug, Clone, PartialEq)]
pub struct ProvRecord {
    /// The produced artifact (file name / URI).
    pub artifact: String,
    /// The producing activity (e.g. `"preprocess"`).
    pub activity: String,
    /// Input artifacts consumed.
    pub inputs: Vec<String>,
    /// The agent that performed the activity.
    pub agent: String,
    /// Virtual/wall seconds when the artifact was produced.
    pub at_s: f64,
    /// Free-form attributes (tile counts, sizes, …).
    pub attrs: BTreeMap<String, String>,
}

/// End of a bucket's chain in [`ProvenanceLog::next`].
const END: u32 = u32::MAX;

/// An append-only provenance log, indexed by artifact name.
///
/// The index holds no second copy of the names: a bucket is 32 bits of a
/// name's hash, its records are chained through `next` in record order, and
/// a walk tells colliding names apart by comparing `records[i].artifact`.
#[derive(Clone, Default)]
pub struct ProvenanceLog {
    records: Vec<ProvRecord>,
    /// Bucket → the first and last record whose artifact falls in it.
    buckets: HashMap<u32, (u32, u32)>,
    /// Per record: the next record in the same bucket, or [`END`].
    next: Vec<u32>,
}

/// The records are the log; the index is derived from them.
impl std::fmt::Debug for ProvenanceLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProvenanceLog")
            .field("records", &self.records)
            .finish()
    }
}

impl ProvenanceLog {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// A name's bucket: the low 32 bits of its FNV-1a hash.
    fn bucket(name: &str) -> u32 {
        fnv1a64(name.as_bytes()) as u32
    }

    /// Append a record; the returned map is its (empty) `attrs`.
    pub fn record(
        &mut self,
        artifact: impl Into<String>,
        activity: impl Into<String>,
        inputs: Vec<String>,
        agent: impl Into<String>,
        at_s: f64,
    ) -> &mut BTreeMap<String, String> {
        let artifact = artifact.into();
        let index = u32::try_from(self.records.len()).expect("fewer than 2^32 records");
        // A new bucket starts as (index, index); an existing one gets a new
        // last record, linked from the former last.
        let bucket = self.buckets.entry(Self::bucket(&artifact));
        let last = std::mem::replace(&mut bucket.or_insert((index, index)).1, index);
        if last != index {
            self.next[last as usize] = index;
        }
        self.next.push(END);
        self.records.push(ProvRecord {
            artifact,
            activity: activity.into(),
            inputs,
            agent: agent.into(),
            at_s,
            attrs: BTreeMap::new(),
        });
        &mut self.records.last_mut().expect("just pushed").attrs
    }

    /// All records.
    pub fn records(&self) -> &[ProvRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Indices of the records that produced `artifact`, in record order.
    fn producer_indices<'a>(&'a self, artifact: &'a str) -> impl Iterator<Item = usize> + 'a {
        let first = self.buckets.get(&Self::bucket(artifact)).map(|b| b.0);
        std::iter::successors(first, |&i| {
            Some(self.next[i as usize]).filter(|&n| n != END)
        })
        .map(|i| i as usize)
        .filter(move |&i| self.records[i].artifact == artifact)
    }

    /// The records that directly produced `artifact` (usually one).
    pub fn producers(&self, artifact: &str) -> Vec<&ProvRecord> {
        self.producer_indices(artifact)
            .map(|i| &self.records[i])
            .collect()
    }

    /// Breadth-first walk upstream of `artifact`. Returns `artifact` followed
    /// by its lineage, names borrowed; `visit` sees each name's producers as
    /// the name is reached — `artifact`'s own first, then its lineage's in
    /// lineage order.
    fn walk_upstream<'a>(
        &'a self,
        artifact: &'a str,
        mut visit: impl FnMut(usize),
    ) -> Vec<&'a str> {
        let mut seen: HashSet<&str> = HashSet::new();
        // Queue and result in one: names before `head` are done.
        let mut order = vec![artifact];
        let mut head = 0;
        while let Some(&current) = order.get(head) {
            head += 1;
            for i in self.producer_indices(current) {
                visit(i);
                for input in &self.records[i].inputs {
                    if seen.insert(input) {
                        order.push(input);
                    }
                }
            }
        }
        order
    }

    /// Transitive upstream lineage of `artifact`: every artifact it
    /// (recursively) derives from, in breadth-first order, deduplicated.
    pub fn lineage(&self, artifact: &str) -> Vec<String> {
        let order = self.walk_upstream(artifact, |_| {});
        order[1..].iter().map(|name| name.to_string()).collect()
    }

    /// The records behind `artifact`: its own producers, then the producers
    /// of each artifact of its [`lineage`](Self::lineage), in that order. A
    /// record appears once per time its artifact is reached (twice only on
    /// a cycle back to `artifact`).
    pub(crate) fn upstream_records(&self, artifact: &str) -> Vec<&ProvRecord> {
        let mut found = Vec::new();
        self.walk_upstream(artifact, |i| found.push(&self.records[i]));
        found
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
                    for input in &self.records[i].inputs {
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
        let mut entities: HashSet<&str> = HashSet::new();
        for r in &self.records {
            entities.insert(&r.artifact);
            for i in &r.inputs {
                entities.insert(i);
            }
        }
        let mut entity_list: Vec<&str> = entities.into_iter().collect();
        entity_list.sort_unstable();
        serde_json::json!({
            "entities": entity_list,
            "activities": self.records.iter().map(|r| {
                serde_json::json!({
                    "type": r.activity,
                    "agent": r.agent,
                    "at_s": r.at_s,
                    "used": r.inputs,
                    "generated": r.artifact,
                    "attrs": r.attrs,
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

    pub fn producers<'a>(log: &'a ProvenanceLog, artifact: &str) -> Vec<&'a ProvRecord> {
        log.records
            .iter()
            .filter(|r| r.artifact == artifact)
            .collect()
    }

    pub fn lineage(log: &ProvenanceLog, artifact: &str) -> Vec<String> {
        let mut seen: HashSet<String> = HashSet::new();
        let mut queue: VecDeque<String> = VecDeque::new();
        queue.push_back(artifact.to_string());
        let mut out = Vec::new();
        while let Some(current) = queue.pop_front() {
            for rec in producers(log, &current) {
                for input in &rec.inputs {
                    if seen.insert(input.clone()) {
                        out.push(input.clone());
                        queue.push_back(input.clone());
                    }
                }
            }
        }
        out
    }

    pub fn is_acyclic(log: &ProvenanceLog) -> bool {
        log.records
            .iter()
            .all(|r| !lineage(log, &r.artifact).contains(&r.artifact))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
            );
        }
        log.record(
            "tiles-MOD.A2022001.0005.nc",
            "preprocess",
            vec![
                "defiant:MOD021KM.A2022001.0005".into(),
                "defiant:MOD03.A2022001.0005".into(),
                "defiant:MOD06_L2.A2022001.0005".into(),
            ],
            "parsl-worker",
            40.0,
        )
        .insert("tiles".into(), "117".into());
        log.record(
            "labeled:tiles-MOD.A2022001.0005.nc",
            "inference",
            vec!["tiles-MOD.A2022001.0005.nc".into()],
            "globus-flow",
            55.0,
        );
        log.record(
            "orion:tiles-MOD.A2022001.0005.nc",
            "shipment",
            vec!["labeled:tiles-MOD.A2022001.0005.nc".into()],
            "globus-transfer",
            60.0,
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
            vec!["labeled:tiles-MOD.A2022001.0005.nc".into()],
            "globus-transfer",
            75.0,
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
            vec!["orion:tiles-MOD.A2022001.0005.nc".into()],
            "paradox",
            99.0,
        );
        assert!(!log.is_acyclic());
    }

    #[test]
    fn producers_and_attrs() {
        let log = pipeline_log();
        let p = log.producers("tiles-MOD.A2022001.0005.nc");
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].activity, "preprocess");
        assert_eq!(p[0].attrs["tiles"], "117");
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

    /// Two different names in one bucket: the first pair a few ten thousand
    /// generated names yield (a birthday search over 32 bits), found once.
    fn colliding_names() -> (String, String) {
        static PAIR: std::sync::OnceLock<(String, String)> = std::sync::OnceLock::new();
        let search = || {
            let mut by_bucket: HashMap<u32, String> = HashMap::new();
            (0u32..)
                .find_map(|i| {
                    let name = format!("granule-{i}");
                    by_bucket
                        .insert(ProvenanceLog::bucket(&name), name.clone())
                        .map(|earlier| (earlier, name))
                })
                .expect("a collision exists")
        };
        PAIR.get_or_init(search).clone()
    }

    /// Same records (by address), same order.
    fn same_records(a: &[&ProvRecord], b: &[&ProvRecord]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| std::ptr::eq(*x, *y))
    }

    #[test]
    fn names_sharing_a_bucket_are_told_apart() {
        let (a, b) = colliding_names();
        assert_ne!(a, b);
        assert_eq!(ProvenanceLog::bucket(&a), ProvenanceLog::bucket(&b));
        let mut log = ProvenanceLog::new();
        log.record(a.clone(), "download", vec!["laads:a".into()], "pool", 1.0);
        log.record(b.clone(), "download", vec!["laads:b".into()], "pool", 2.0);
        log.record(a.clone(), "download", vec!["mirror:a".into()], "pool", 3.0);
        log.record("joined", "preprocess", vec![b.clone(), a.clone()], "w", 4.0);
        assert_eq!(log.buckets.len(), 2, "a and b share one bucket");
        let at = |recs: Vec<&ProvRecord>| recs.iter().map(|r| r.at_s).collect::<Vec<_>>();
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
        log.record("laads:b", "time-travel", vec![b.clone()], "paradox", 5.0);
        assert!(!log.is_acyclic());
        assert_eq!(log.is_acyclic(), scan::is_acyclic(&log));
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let mut log = ProvenanceLog::new();
        log.record("x", "copy", vec!["x".into()], "agent", 1.0);
        assert!(!log.is_acyclic());
        assert_eq!(log.lineage("x"), ["x"]);
    }

    /// One generated record: artifact, activity and inputs as indices into
    /// the name pool of [`generated_log`].
    type Shape = (usize, usize, Vec<usize>);

    /// Build a log over a small pool of names — two of them sharing a
    /// bucket — so that re-produced artifacts, a second activity for the same
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
                .collect();
            let activity = ["make", "remake"][*activity];
            log.record(
                names[*artifact].clone(),
                activity,
                inputs,
                "agent",
                k as f64,
            );
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
        /// the artifact's producers followed by its lineage's.
        #[test]
        fn index_equals_the_scan(shapes in shapes(), dag in any::<bool>()) {
            let (log, names) = generated_log(&shapes, dag);
            prop_assert_eq!(log.is_acyclic(), scan::is_acyclic(&log));
            prop_assert!(!dag || log.is_acyclic());
            for name in &names {
                let producers = log.producers(name);
                prop_assert!(same_records(&producers, &scan::producers(&log, name)), "{}", name);
                let lineage = log.lineage(name);
                prop_assert_eq!(&lineage, &scan::lineage(&log, name), "{}", name);
                let chain = std::iter::once(name).chain(&lineage);
                let expect: Vec<&ProvRecord> =
                    chain.flat_map(|n| scan::producers(&log, n)).collect();
                prop_assert!(same_records(&log.upstream_records(name), &expect), "{}", name);
            }
        }
    }
}
