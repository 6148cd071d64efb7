//! Bench-trajectory regression gating: committed `BENCH_*.json`
//! baselines, a noise-aware diff against a fresh run, and verdicts a CI
//! gate can turn into an exit code.
//!
//! The figures bench is fully deterministic (discrete-event simulation,
//! fixed seeds), so the committed baselines are bit-stable across runs of
//! the same code — any numeric drift is a real behavior change. The
//! tolerance still matters: it separates "the model changed on purpose"
//! (refresh the baselines) from "a cell moved within rounding noise"
//! (e.g. a float printed at a different precision), and it keeps the gate
//! usable if a future bench ever measures wall time.
//!
//! A cell regresses only when it moves by more than `tolerance.rel`
//! *relative* AND more than `tolerance.abs` *absolute* — the absolute
//! floor keeps tiny denominators (a 0.02 s stage) from tripping the
//! relative test on meaningless deltas. Movement in *either* direction
//! fails the gate: an unexplained speedup is as suspicious as a slowdown
//! (it usually means the workload shrank), and accepting it silently
//! would let the baseline rot. Refresh with `--write-baselines` when the
//! change is intended.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

use serde_json::{Map, Value};

use crate::table::{Cell, Table};

/// Noise thresholds for one table's comparison, embedded in its baseline
/// JSON under `"tolerance"`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerance {
    /// Maximum allowed relative change, e.g. `0.2` = ±20 %.
    pub rel: f64,
    /// Minimum absolute delta before the relative test applies.
    pub abs: f64,
}

impl Default for Tolerance {
    fn default() -> Tolerance {
        Tolerance {
            rel: 0.2,
            abs: 0.05,
        }
    }
}

impl Tolerance {
    /// Whether moving from `baseline` to `current` exceeds this tolerance.
    pub fn exceeded(&self, baseline: f64, current: f64) -> bool {
        let delta = (current - baseline).abs();
        if delta <= self.abs {
            return false;
        }
        if baseline == 0.0 {
            return true; // any above-floor delta off a zero baseline
        }
        delta / baseline.abs() > self.rel
    }

    fn to_json(self) -> Value {
        let mut obj = Map::new();
        obj.insert("rel".to_string(), Value::from(self.rel));
        obj.insert("abs".to_string(), Value::from(self.abs));
        Value::Object(obj)
    }

    fn from_json(value: Option<&Value>) -> Tolerance {
        let default = Tolerance::default();
        let Some(obj) = value.and_then(Value::as_object) else {
            return default;
        };
        Tolerance {
            rel: obj
                .get("rel")
                .and_then(Value::as_f64)
                .unwrap_or(default.rel),
            abs: obj
                .get("abs")
                .and_then(Value::as_f64)
                .unwrap_or(default.abs),
        }
    }
}

/// One committed baseline: the reference table plus its tolerance.
#[derive(Debug, Clone)]
pub struct Baseline {
    /// The reference table.
    pub table: Table,
    /// Comparison thresholds for this table.
    pub tolerance: Tolerance,
}

/// Why (or whether) one table passed its baseline comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Within tolerance of the baseline.
    Ok,
    /// One or more cells moved beyond tolerance.
    Regressed,
    /// Columns or row count changed — the tables are not comparable.
    ShapeChanged,
    /// The run produced a table with no committed baseline.
    MissingBaseline,
}

/// One out-of-tolerance cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellDelta {
    /// Row index in the table.
    pub row: usize,
    /// Column name.
    pub column: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
}

impl CellDelta {
    /// Relative change, `(current - baseline) / |baseline|`; infinite off
    /// a zero baseline.
    pub fn rel_change(&self) -> f64 {
        if self.baseline == 0.0 {
            if self.current == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (self.current - self.baseline) / self.baseline.abs()
        }
    }
}

/// Comparison result for one table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableVerdict {
    /// Table name.
    pub table: String,
    /// Outcome.
    pub verdict: Verdict,
    /// Out-of-tolerance cells (for [`Verdict::Regressed`]).
    pub deltas: Vec<CellDelta>,
    /// Human-readable notes (shape mismatches, string-cell changes, ...).
    pub notes: Vec<String>,
}

impl TableVerdict {
    fn ok(table: &str) -> TableVerdict {
        TableVerdict {
            table: table.to_string(),
            verdict: Verdict::Ok,
            deltas: Vec::new(),
            notes: Vec::new(),
        }
    }
}

/// Verdicts for every table a run produced.
#[derive(Debug, Clone, Default)]
pub struct RunComparison {
    /// One verdict per compared table, in comparison order.
    pub verdicts: Vec<TableVerdict>,
}

impl RunComparison {
    /// Whether any table failed its comparison (regression, shape change,
    /// or missing baseline) — the CI gate's exit condition.
    pub fn regressed(&self) -> bool {
        self.verdicts.iter().any(|v| v.verdict != Verdict::Ok)
    }

    /// Tables that failed, by name.
    pub fn failures(&self) -> Vec<&TableVerdict> {
        self.verdicts
            .iter()
            .filter(|v| v.verdict != Verdict::Ok)
            .collect()
    }

    /// Terminal rendering: one line per table, with per-cell deltas under
    /// failing tables.
    pub fn render_text(&self, indent: usize) -> String {
        let pad = " ".repeat(indent);
        let mut out = String::new();
        for v in &self.verdicts {
            let status = match v.verdict {
                Verdict::Ok => "ok",
                Verdict::Regressed => "REGRESSED",
                Verdict::ShapeChanged => "SHAPE CHANGED",
                Verdict::MissingBaseline => "NO BASELINE",
            };
            out.push_str(&format!("{pad}{:<24} {status}\n", v.table));
            for d in &v.deltas {
                out.push_str(&format!(
                    "{pad}  row {:>3} {:<16} {:>12.4} -> {:>12.4}  ({:+.1}%)\n",
                    d.row,
                    d.column,
                    d.baseline,
                    d.current,
                    100.0 * d.rel_change()
                ));
            }
            for note in &v.notes {
                out.push_str(&format!("{pad}  {note}\n"));
            }
        }
        out
    }
}

/// Committed baselines, loaded from a directory of `BENCH_*.json` files.
#[derive(Debug, Clone, Default)]
pub struct BaselineStore {
    baselines: BTreeMap<String, Baseline>,
}

impl BaselineStore {
    /// Load every `BENCH_*.json` in `dir`. A missing directory is an
    /// empty store (the gate then reports every table as
    /// [`Verdict::MissingBaseline`]); an unparsable file is an error.
    pub fn load(dir: impl AsRef<Path>) -> io::Result<BaselineStore> {
        let dir = dir.as_ref();
        let mut baselines = BTreeMap::new();
        let entries = match std::fs::read_dir(dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(BaselineStore::default()),
            Err(e) => return Err(e),
        };
        for entry in entries {
            let path = entry?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if !name.starts_with("BENCH_") || !name.ends_with(".json") {
                continue;
            }
            let body = std::fs::read_to_string(&path)?;
            let value: Value = serde_json::from_str(&body).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}: {e}", path.display()),
                )
            })?;
            let table = Table::from_json(&value).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}: {e}", path.display()),
                )
            })?;
            let tolerance = Tolerance::from_json(value.get("tolerance"));
            baselines.insert(table.name.clone(), Baseline { table, tolerance });
        }
        Ok(BaselineStore { baselines })
    }

    /// Write each table as `BENCH_<name>.json` into `dir` with the
    /// tolerance embedded; returns the paths written.
    pub fn write(
        dir: impl AsRef<Path>,
        tables: &[Table],
        tolerance: Tolerance,
    ) -> io::Result<Vec<PathBuf>> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let mut paths = Vec::with_capacity(tables.len());
        for table in tables {
            let mut doc = match table.to_json() {
                Value::Object(obj) => obj,
                _ => unreachable!("Table::to_json returns an object"),
            };
            doc.insert("tolerance".to_string(), tolerance.to_json());
            let path = dir.join(format!("BENCH_{}.json", table.name));
            std::fs::write(
                &path,
                serde_json::to_string(&Value::Object(doc))
                    .expect("table serialization is infallible"),
            )?;
            paths.push(path);
        }
        Ok(paths)
    }

    /// Baseline for one table, if committed.
    pub fn get(&self, name: &str) -> Option<&Baseline> {
        self.baselines.get(name)
    }

    /// Names of all committed baselines.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.baselines.keys().map(String::as_str)
    }

    /// Whether the store holds no baselines.
    pub fn is_empty(&self) -> bool {
        self.baselines.is_empty()
    }

    /// Compare one freshly produced table against its baseline.
    pub fn compare(&self, current: &Table) -> TableVerdict {
        let Some(baseline) = self.baselines.get(&current.name) else {
            return TableVerdict {
                table: current.name.clone(),
                verdict: Verdict::MissingBaseline,
                deltas: Vec::new(),
                notes: vec!["no committed baseline; refresh with --write-baselines".to_string()],
            };
        };
        compare_tables(&baseline.table, current, baseline.tolerance)
    }

    /// Compare every table of a run; tables without baselines fail, but
    /// committed baselines the run did not produce are ignored (partial
    /// runs compare partially).
    pub fn compare_all(&self, tables: &[Table]) -> RunComparison {
        RunComparison {
            verdicts: tables.iter().map(|t| self.compare(t)).collect(),
        }
    }
}

/// Diff two same-named tables under a tolerance.
pub fn compare_tables(baseline: &Table, current: &Table, tolerance: Tolerance) -> TableVerdict {
    let mut verdict = TableVerdict::ok(&current.name);
    if baseline.columns != current.columns {
        verdict.verdict = Verdict::ShapeChanged;
        verdict.notes.push(format!(
            "columns changed: baseline {:?}, current {:?}",
            baseline.columns, current.columns
        ));
        return verdict;
    }
    if baseline.rows.len() != current.rows.len() {
        verdict.verdict = Verdict::ShapeChanged;
        verdict.notes.push(format!(
            "row count changed: baseline {}, current {}",
            baseline.rows.len(),
            current.rows.len()
        ));
        return verdict;
    }
    for (row_idx, (brow, crow)) in baseline.rows.iter().zip(&current.rows).enumerate() {
        for (col_idx, (bcell, ccell)) in brow.iter().zip(crow).enumerate() {
            let column = &current.columns[col_idx];
            match (numeric(bcell), numeric(ccell)) {
                (Some(b), Some(c)) => {
                    if tolerance.exceeded(b, c) {
                        verdict.deltas.push(CellDelta {
                            row: row_idx,
                            column: column.clone(),
                            baseline: b,
                            current: c,
                        });
                    }
                }
                (None, None) => {
                    // Text cells (labels, sizes like "112.5 MB") must
                    // match exactly — a changed label is a changed table.
                    if bcell != ccell {
                        verdict.notes.push(format!(
                            "row {row_idx} {column}: text cell changed {:?} -> {:?}",
                            cell_text(bcell),
                            cell_text(ccell)
                        ));
                    }
                }
                _ => verdict.notes.push(format!(
                    "row {row_idx} {column}: cell type changed (text vs numeric)"
                )),
            }
        }
    }
    if !verdict.deltas.is_empty() || !verdict.notes.is_empty() {
        verdict.verdict = Verdict::Regressed;
    }
    verdict
}

fn numeric(cell: &Cell) -> Option<f64> {
    match cell {
        Cell::Int(v) => Some(*v as f64),
        Cell::Num { value, .. } => Some(*value),
        Cell::Str(_) => None,
    }
}

fn cell_text(cell: &Cell) -> String {
    match cell {
        Cell::Str(s) => s.clone(),
        Cell::Int(v) => v.to_string(),
        Cell::Num { value, .. } => value.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table(scale: f64) -> Table {
        let mut t = Table::new("fig_demo", &["workers", "speed_mb_s", "note"]);
        t.row(vec![
            Cell::int(3),
            Cell::num(41.2 * scale, 1),
            Cell::str("paper"),
        ]);
        t.row(vec![
            Cell::int(6),
            Cell::num(80.5 * scale, 1),
            Cell::str("2x"),
        ]);
        t
    }

    #[test]
    fn tolerance_needs_both_relative_and_absolute_exceedance() {
        let tol = Tolerance {
            rel: 0.2,
            abs: 0.05,
        };
        assert!(!tol.exceeded(100.0, 100.0));
        // Large relative move on a tiny value: below the absolute floor.
        assert!(!tol.exceeded(0.02, 0.04));
        // Large absolute move within the relative band.
        assert!(!tol.exceeded(100.0, 110.0));
        // Both exceeded, in either direction.
        assert!(tol.exceeded(100.0, 130.0));
        assert!(tol.exceeded(100.0, 70.0));
        // Zero baseline: the absolute floor alone decides.
        assert!(!tol.exceeded(0.0, 0.04));
        assert!(tol.exceeded(0.0, 0.06));
    }

    fn store_with(table: Table, tolerance: Tolerance) -> BaselineStore {
        let mut baselines = BTreeMap::new();
        baselines.insert(table.name.clone(), Baseline { table, tolerance });
        BaselineStore { baselines }
    }

    #[test]
    fn identical_tables_pass() {
        let store = store_with(sample_table(1.0), Tolerance::default());
        let verdict = store.compare(&sample_table(1.0));
        assert_eq!(verdict.verdict, Verdict::Ok);
        assert!(!store.compare_all(&[sample_table(1.0)]).regressed());
    }

    #[test]
    fn meta_block_in_bench_json_is_ignored_by_the_gate() {
        // A fresh run now emits BENCH_*.json with a self-describing
        // `meta` block; the 12 committed seeds carry none. Loading and
        // comparing across that difference must be meta-blind in both
        // directions, or every meta change would fail the gate.
        let dir = std::env::temp_dir().join(format!("eoml_meta_gate_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let meta = crate::archive::RunMeta::new("bench", "cfg", 2022).to_json();
        sample_table(1.0)
            .write_json_with_meta(&dir, &meta)
            .expect("write with meta");
        let store = BaselineStore::load(&dir).expect("load");
        // Emitted file really carries the block...
        let body = std::fs::read_to_string(dir.join("BENCH_fig_demo.json")).unwrap();
        assert!(body.contains("\"meta\""));
        assert!(body.contains("\"sim_seed\""));
        // ...and the comparison is unaffected, metaless side either way.
        assert_eq!(store.compare(&sample_table(1.0)).verdict, Verdict::Ok);
        let metaless = store_with(sample_table(1.0), Tolerance::default());
        let loaded = store.get("fig_demo").expect("baseline").table.clone();
        assert_eq!(metaless.compare(&loaded).verdict, Verdict::Ok);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn doubled_values_regress_in_both_directions() {
        let store = store_with(sample_table(1.0), Tolerance::default());
        let slow = store.compare(&sample_table(2.0));
        assert_eq!(slow.verdict, Verdict::Regressed);
        assert_eq!(slow.deltas.len(), 2); // both speed cells
        assert!(slow.deltas[0].rel_change() > 0.99);
        let fast = store.compare(&sample_table(0.5));
        assert_eq!(fast.verdict, Verdict::Regressed);
        let text = store.compare_all(&[sample_table(2.0)]).render_text(0);
        assert!(text.contains("REGRESSED"));
        assert!(text.contains("speed_mb_s"));
    }

    #[test]
    fn shape_and_text_changes_are_flagged() {
        let store = store_with(sample_table(1.0), Tolerance::default());
        let mut extra_row = sample_table(1.0);
        extra_row.row(vec![Cell::int(9), Cell::num(1.0, 1), Cell::str("x")]);
        assert_eq!(store.compare(&extra_row).verdict, Verdict::ShapeChanged);

        let mut renamed = sample_table(1.0);
        renamed.rows[0][2] = Cell::str("reprint");
        let verdict = store.compare(&renamed);
        assert_eq!(verdict.verdict, Verdict::Regressed);
        assert!(verdict.notes[0].contains("text cell changed"));

        let missing = store.compare(&Table::new("unknown", &["a"]));
        assert_eq!(missing.verdict, Verdict::MissingBaseline);
        assert!(store
            .compare_all(&[Table::new("unknown", &["a"])])
            .regressed());
    }

    #[test]
    fn store_round_trips_through_disk_with_tolerance() {
        let dir = std::env::temp_dir().join(format!("baselines_{}", std::process::id()));
        let tol = Tolerance {
            rel: 0.1,
            abs: 0.01,
        };
        let paths = BaselineStore::write(&dir, &[sample_table(1.0)], tol).unwrap();
        assert_eq!(paths.len(), 1);
        assert!(paths[0].ends_with("BENCH_fig_demo.json"));

        let store = BaselineStore::load(&dir).unwrap();
        assert_eq!(store.names().count(), 1);
        let baseline = store.get("fig_demo").unwrap();
        assert_eq!(baseline.tolerance, tol);
        assert_eq!(store.compare(&sample_table(1.0)).verdict, Verdict::Ok);
        // The tighter tolerance catches a 15 % drift the default allows.
        assert_eq!(
            store.compare(&sample_table(1.15)).verdict,
            Verdict::Regressed
        );
        std::fs::remove_dir_all(&dir).ok();

        // A missing directory loads as an empty store.
        let empty = BaselineStore::load(dir.join("nope")).unwrap();
        assert!(empty.is_empty());
    }
}
