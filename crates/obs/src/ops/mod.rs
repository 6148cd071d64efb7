//! Continuous ops plane: rolling windows, SLO burn, scheduler audit,
//! health verdicts, and a durable ops event log.
//!
//! Everything in PRs 2–4 was batch-shaped — spans and metrics accumulate
//! and are analyzed once at end-of-run. A long-lived campaign service
//! needs the live counterparts: *what is the throughput right now*,
//! *which tenant is burning its error budget*, *is the scheduler still
//! fair*, and *is the service healthy* — answerable mid-run and across
//! restarts. The [`OpsPlane`] composes the four pieces:
//!
//! - [`window::WindowedMetrics`] — registry snapshots diffed into a ring
//!   of per-window deltas (rates per stage / tenant).
//! - [`slo::SloTracker`] — declarative [`slo::SloSpec`]s evaluated per
//!   window per active stage, with error-budget burn.
//! - `audit::AdmissionTallies` — per-tenant WRR admission tallies, live
//!   Jain's fairness index.
//! - [`oplog::OpsLog`] — size-rotated JSONL wide-event log written next
//!   to the ledger root; a restarted service appends to the same history
//!   and the plane **rehydrates** its windows, SLO state, and audit
//!   tallies from it.
//!
//! [`health::evaluate`] folds SLO burn + fairness + recovery state +
//! abandoned downloads + facility ingest into one
//! [`health::HealthReport`]; because it is pure and every input is
//! logged, replaying the ops log reproduces the same verdict — the
//! property the service soak test asserts.

pub mod audit;
pub mod health;
pub mod oplog;
pub mod slo;
pub mod window;

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use serde_json::{Map, Value};

use crate::metrics::MetricsRegistry;

use audit::{AdmissionTallies, AuditRecord};
use health::{FacilityStatus, HealthPolicy, HealthReport, HealthState};
use oplog::{OpsEvent, OpsLog};
use slo::{SloSpec, SloTracker};
use window::{WindowDelta, WindowSpec, WindowedMetrics};

/// Configuration for an [`OpsPlane`].
#[derive(Debug, Clone)]
pub struct OpsConfig {
    /// Window length in ops-clock (sim) seconds; `0` rolls every tick.
    pub window_s: f64,
    /// Windows retained in the in-memory ring.
    pub ring: usize,
    /// Histogram families diffed per window (quantile SLO inputs).
    pub histogram_names: Vec<String>,
    /// Windows of good/bad history per `(slo, stage)`.
    pub slo_lookback: usize,
    /// Declared SLOs.
    pub slos: Vec<SloSpec>,
    /// Ops-log segment size before rotation.
    pub oplog_max_bytes: u64,
    /// Rotated ops-log segments retained.
    pub oplog_keep: usize,
    /// Health thresholds.
    pub policy: HealthPolicy,
}

impl OpsConfig {
    /// Small defaults matching `ServiceConfig::small()`: hourly windows,
    /// no SLOs (tests declare their own), lease-wait and quantum-makespan
    /// histograms opted in.
    pub fn small() -> OpsConfig {
        OpsConfig {
            window_s: 3600.0,
            ring: 64,
            histogram_names: vec![
                "lease_wait_seconds".to_string(),
                "quantum_makespan_s".to_string(),
            ],
            slo_lookback: 16,
            slos: Vec::new(),
            oplog_max_bytes: 1 << 20,
            oplog_keep: 4,
            policy: HealthPolicy::default(),
        }
    }
}

impl Default for OpsConfig {
    fn default() -> OpsConfig {
        OpsConfig::small()
    }
}

/// The live ops plane: owns the window ring, SLO tracker, admission
/// tallies and ops log, and produces [`HealthReport`]s.
///
/// Not internally synchronised — the owner (the campaign service) wraps
/// it in its own mutex.
#[derive(Debug)]
pub struct OpsPlane {
    config: OpsConfig,
    windows: WindowedMetrics,
    slos: SloTracker,
    audit: AdmissionTallies,
    log: OpsLog,
    /// Latest per-destination-facility ingest signals, keyed by facility.
    facilities: BTreeMap<String, FacilityStatus>,
    /// Running count of files abandoned after retry exhaustion — the
    /// download pool's terminal give-up signal, fed into health.
    downloads_abandoned: u64,
    last_health_state: Option<HealthState>,
    recovering: bool,
}

impl OpsPlane {
    /// Open the plane over `dir`, rehydrating window history, SLO state,
    /// and audit tallies from any ops log already there — a restarted
    /// service continues the same operational history.
    pub fn open(dir: &Path, config: OpsConfig) -> std::io::Result<OpsPlane> {
        let log = OpsLog::open(dir, config.oplog_max_bytes, config.oplog_keep)?;
        let mut windows = WindowedMetrics::new(WindowSpec {
            window_s: config.window_s,
            ring: config.ring,
            histogram_names: config.histogram_names.clone(),
        });
        let mut slos = SloTracker::new(config.slos.clone(), config.slo_lookback);
        let mut audit = AdmissionTallies::default();
        let mut facilities = BTreeMap::new();
        let mut downloads_abandoned = 0u64;
        for event in oplog::read_all(dir) {
            match event.kind.as_str() {
                "window_roll" => {
                    if let Ok(delta) = WindowDelta::from_json(&event.data) {
                        windows.seed(delta);
                    }
                    if let Some(results) = event.data["slos"].as_array() {
                        for r in results {
                            if let Ok(r) = slo::SloWindowResult::from_json(r) {
                                slos.record(&r.slo, &r.stage, r.good);
                            }
                        }
                    }
                }
                "admission" => {
                    if let Ok(AuditRecord::Admission { tenant, weight, .. }) =
                        AuditRecord::from_json(&event.data)
                    {
                        audit.admit(&tenant, weight);
                    }
                }
                "facility" => {
                    if let Ok(status) = FacilityStatus::from_json(&event.data) {
                        facilities.insert(status.facility.clone(), status);
                    }
                }
                "downloads_abandoned" => {
                    downloads_abandoned += event.data["count"].as_u64().unwrap_or(0);
                }
                _ => {}
            }
        }
        Ok(OpsPlane {
            config,
            windows,
            slos,
            audit,
            log,
            facilities,
            downloads_abandoned,
            // Left `None` so the first `health()` after open always logs
            // a baseline verdict, even when the state did not change
            // across the restart.
            last_health_state: None,
            recovering: false,
        })
    }

    /// Mark whether the service is replaying journal-recovered work;
    /// surfaced as a `Degraded` reason until cleared.
    pub fn set_recovering(&mut self, recovering: bool) {
        self.recovering = recovering;
    }

    /// The window ring.
    pub fn windows(&self) -> &WindowedMetrics {
        &self.windows
    }

    /// Live Jain's fairness index over weighted admissions.
    pub fn fairness(&self) -> Option<f64> {
        self.audit.fairness_jain()
    }

    /// Record (or refresh) one destination facility's ingest signals —
    /// lag and verification outcomes become SLO-able health inputs. The
    /// update is logged as a `facility` event so a restarted plane
    /// rehydrates the same per-facility picture.
    pub fn record_facility(&mut self, status: FacilityStatus) {
        let data = status.to_json();
        self.facilities.insert(status.facility.clone(), status);
        let at = self.windows.now_s();
        let _ = self.log.append("facility", at, data);
    }

    /// Record `count` files abandoned by the download pool after retry
    /// exhaustion. The increment is logged as a `downloads_abandoned`
    /// event so a restarted plane carries the same lost-file tally, and
    /// the running total degrades health past the policy allowance.
    pub fn record_abandoned(&mut self, count: u64) {
        if count == 0 {
            return;
        }
        self.downloads_abandoned += count;
        let at = self.windows.now_s();
        let _ = self.log.append(
            "downloads_abandoned",
            at,
            serde_json::json!({ "count": count, "total": self.downloads_abandoned }),
        );
    }

    /// Append one lifecycle event (`submit`, `pause`, …) at the current
    /// ops-clock time. Write errors are swallowed: the log is advisory
    /// and must never fail the data path.
    pub fn event(&mut self, kind: &str, data: Value) {
        let at = self.windows.now_s();
        let _ = self.log.append(kind, at, data);
    }

    /// Log a pointer to a recorded [`crate::archive::RunArchive`]: an
    /// `archive_recorded` event carrying the archive path and the
    /// manifest identity (schema version, config digest, sim seed,
    /// label). Operators replaying the ops log can then locate the
    /// frozen artifacts of any historical run and `eoml-obsctl diff`
    /// them offline.
    pub fn record_archive(&mut self, path: &str, meta: &crate::archive::RunMeta) {
        let mut data = Map::new();
        data.insert("path".to_string(), Value::from(path));
        data.insert(
            "schema_version".to_string(),
            Value::from(meta.schema_version as f64),
        );
        data.insert(
            "config_digest".to_string(),
            Value::from(meta.config_digest.as_str()),
        );
        data.insert("sim_seed".to_string(), Value::from(meta.sim_seed as f64));
        data.insert("label".to_string(), Value::from(meta.label.as_str()));
        self.event("archive_recorded", Value::Object(data));
    }

    /// Record one scheduler action into the ops log; admissions also
    /// move the fairness tallies.
    pub fn record_audit(&mut self, record: AuditRecord) {
        let kind = match &record {
            AuditRecord::Admission { tenant, weight, .. } => {
                self.audit.admit(tenant, *weight);
                "admission"
            }
            AuditRecord::LeaseAcquired { .. } => "lease_acquired",
            AuditRecord::LeaseReleased { .. } => "lease_released",
        };
        let data = record.to_json();
        let at = self.windows.now_s();
        let _ = self.log.append(kind, at, data);
    }

    /// Advance the ops clock by `dt_s` and roll a window if due. On a
    /// roll the SLOs are evaluated against `active_stages` and the
    /// window (with its SLO results) is logged as a `window_roll` event.
    pub fn tick(
        &mut self,
        dt_s: f64,
        registry: &MetricsRegistry,
        active_stages: &BTreeSet<String>,
    ) -> Option<WindowDelta> {
        let delta = self.windows.advance(dt_s, registry)?;
        self.finish_roll(delta, active_stages)
    }

    /// Roll whatever has accumulated since the last boundary (drain /
    /// idle path), evaluating SLOs as in [`OpsPlane::tick`].
    pub fn force_roll(
        &mut self,
        registry: &MetricsRegistry,
        active_stages: &BTreeSet<String>,
    ) -> Option<WindowDelta> {
        let delta = self.windows.force_roll(registry)?;
        self.finish_roll(delta, active_stages)
    }

    fn finish_roll(
        &mut self,
        delta: WindowDelta,
        active_stages: &BTreeSet<String>,
    ) -> Option<WindowDelta> {
        let results = self.slos.observe_window(&delta, active_stages);
        let mut data = delta.to_json();
        if let Some(map) = data.as_object_mut() {
            map.insert(
                "slos".to_string(),
                Value::Array(results.iter().map(|r| r.to_json()).collect()),
            );
        }
        let at = delta.end_s;
        let _ = self.log.append("window_roll", at, data);
        Some(delta)
    }

    /// Evaluate health now. Logs a `health` event when the state differs
    /// from the last logged one (or on the first call after open), so
    /// the log records transitions, not heartbeats.
    pub fn health(&mut self) -> HealthReport {
        let report = health::evaluate(
            &self.config.policy,
            self.windows.now_s(),
            self.windows.windows_rolled(),
            self.audit.fairness_jain(),
            self.audit.total_admissions(),
            self.slos.statuses(),
            self.recovering,
            self.downloads_abandoned,
            self.facilities.values().cloned().collect(),
        );
        let changed = self.last_health_state.as_ref() != Some(&report.state);
        if changed {
            let at = report.at_s;
            let _ = self.log.append("health", at, report.to_json());
            self.last_health_state = Some(report.state.clone());
        }
        report
    }

    /// The full recorded event history (rotations oldest-first).
    pub fn events(&self) -> Vec<OpsEvent> {
        oplog::read_all(self.log.dir())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    static NEXT: AtomicU64 = AtomicU64::new(0);

    fn tempdir(tag: &str) -> PathBuf {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("eoml-opsplane-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn config() -> OpsConfig {
        OpsConfig {
            window_s: 0.0,
            slo_lookback: 8,
            slos: vec![SloSpec {
                id: "throughput".to_string(),
                kind: slo::SloKind::RateAtLeast {
                    name: "granules".to_string(),
                    min_per_window: 1.0,
                },
                target: 0.5,
            }],
            ..OpsConfig::small()
        }
    }

    #[test]
    fn plane_rolls_windows_logs_events_and_transitions_health() {
        let dir = tempdir("live");
        let reg = MetricsRegistry::default();
        let mut plane = OpsPlane::open(&dir, config()).unwrap();
        let active: BTreeSet<String> = ["tenant:a".to_string()].into();

        // Two idle windows: burn 2.0 >= degraded threshold.
        plane.event("service_open", serde_json::json!({}));
        assert!(plane.tick(1.0, &reg, &active).is_some());
        assert!(plane.tick(1.0, &reg, &active).is_some());
        let degraded = plane.health();
        assert_eq!(degraded.state.label(), "degraded");

        // Six productive windows dilute burn to 0.5: healthy again.
        for _ in 0..6 {
            reg.counter_add("granules", "tenant:a", 2);
            plane.tick(1.0, &reg, &active).unwrap();
        }
        let healthy = plane.health();
        assert_eq!(healthy.state, HealthState::Healthy);
        assert_eq!(healthy.windows, 8);

        // The log recorded the transition pair, and replaying it lands
        // on the same final verdict.
        let events = plane.events();
        let states: Vec<String> = events
            .iter()
            .filter(|e| e.kind == "health")
            .map(|e| e.data["state"].as_str().unwrap().to_string())
            .collect();
        assert_eq!(states, vec!["degraded", "healthy"]);
        let replayed = oplog::replay_final_health(&events).unwrap();
        assert_eq!(replayed.state, healthy.state);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn archive_pointer_events_survive_the_log() {
        let dir = tempdir("archive-ptr");
        let mut plane = OpsPlane::open(&dir, config()).unwrap();
        let meta = crate::archive::RunMeta::new("campaign-42", "deadbeef00000000", 2022);
        plane.record_archive("/data/archives/campaign-42", &meta);
        drop(plane);
        // A fresh plane (or offline `read_ops_log`) sees the pointer.
        let plane = OpsPlane::open(&dir, config()).unwrap();
        let events = plane.events();
        let ptr = events
            .iter()
            .find(|e| e.kind == "archive_recorded")
            .expect("archive pointer logged");
        assert_eq!(
            ptr.data["path"].as_str(),
            Some("/data/archives/campaign-42")
        );
        assert_eq!(ptr.data["config_digest"].as_str(), Some("deadbeef00000000"));
        assert_eq!(ptr.data["sim_seed"].as_f64(), Some(2022.0));
        assert_eq!(
            ptr.data["schema_version"].as_f64(),
            Some(crate::archive::ARCHIVE_SCHEMA_VERSION as f64)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopened_plane_rehydrates_windows_slos_and_audit() {
        let dir = tempdir("rehydrate");
        let reg = MetricsRegistry::default();
        let admission = |tenant: &str, weight: u64| AuditRecord::Admission {
            tenant: tenant.to_string(),
            campaign: "c".to_string(),
            day_index: 0,
            shard: 0,
            workers: 4,
            weight,
        };
        let fairness_before = {
            let mut plane = OpsPlane::open(&dir, config()).unwrap();
            let active: BTreeSet<String> = ["tenant:a".to_string()].into();
            // Weight 2 admitted twice, weight 1 three times: x = (1, 3),
            // J = 16 / 20. Rebuilt with weight 1 for `a`, J would be 25 / 26.
            for _ in 0..2 {
                plane.record_audit(admission("a", 2));
            }
            for _ in 0..3 {
                plane.record_audit(admission("b", 1));
            }
            plane.record_audit(AuditRecord::LeaseReleased {
                tenant: "b".to_string(),
                campaign: "c".to_string(),
                workers: 4,
            });
            reg.counter_add("granules", "tenant:a", 3);
            plane.tick(5.0, &reg, &active).unwrap();
            plane.tick(5.0, &reg, &active).unwrap(); // idle window
            let _ = plane.health();
            plane.fairness()
        };
        assert!((fairness_before.unwrap() - 0.8).abs() < 1e-12);
        // Fresh registry, fresh plane: state must come from the log.
        let mut plane = OpsPlane::open(&dir, config()).unwrap();
        assert_eq!(plane.windows().windows_rolled(), 2);
        assert_eq!(plane.windows.now_s(), 10.0);
        let (granules, span_s) = plane.windows().windows().fold((0u64, 0.0), |(g, s), w| {
            (
                g + w.counter("granules", "tenant:a"),
                s + (w.end_s - w.start_s),
            )
        });
        assert_eq!((granules, span_s), (3, 10.0));
        assert_eq!(plane.audit.total_admissions(), 5);
        assert_eq!(plane.fairness(), fairness_before);
        let statuses = plane.slos.statuses();
        assert_eq!(statuses.len(), 1);
        assert_eq!((statuses[0].windows, statuses[0].bad), (2, 1));
        // Window indices continue, not restart.
        let reg2 = MetricsRegistry::default();
        let w = plane
            .tick(1.0, &reg2, &BTreeSet::new())
            .expect("window rolls");
        assert_eq!(w.index, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn facility_signals_roll_into_health_and_rehydrate() {
        let dir = tempdir("facility");
        {
            let mut plane = OpsPlane::open(&dir, config()).unwrap();
            assert_eq!(plane.health().state, HealthState::Healthy);
            // A failing destination surfaces as Degraded, not silence.
            plane.record_facility(FacilityStatus {
                facility: "frontier-orion".to_string(),
                ingest_lag_s: 12.0,
                verified: 9,
                verify_failures: 1,
            });
            let report = plane.health();
            assert_eq!(report.state.label(), "degraded");
            assert!(report.state.reasons()[0].contains("frontier-orion"));
            assert_eq!(report.facilities.len(), 1);
            // A later clean refresh of the same facility recovers.
            plane.record_facility(FacilityStatus {
                facility: "frontier-orion".to_string(),
                ingest_lag_s: 3.0,
                verified: 10,
                verify_failures: 0,
            });
            assert_eq!(plane.health().state, HealthState::Healthy);
        }
        // Reopen: the last-written facility status survives the restart.
        let mut plane = OpsPlane::open(&dir, config()).unwrap();
        let report = plane.health();
        assert_eq!(report.state, HealthState::Healthy);
        assert_eq!(report.facilities.len(), 1);
        assert_eq!(report.facilities[0].verified, 10);
        assert_eq!(report.facilities[0].verify_failures, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_log_written_with_alerts_still_opens_and_replays() {
        // An ops log as written when the plane still carried alerts: health
        // reports with an `alerts_active` field and an `alert_fired` event.
        let dir = tempdir("alert-era");
        let health = |at: f64, state: &str, reasons: &str, alerts: u64| {
            format!(
                r#"{{"at_s":{at:?},"data":{{"alerts_active":{alerts},"at_s":{at:?},"downloads_abandoned":0,"facilities":[],"fairness":null,"reasons":[{reasons}],"recovering":false,"slos":[],"state":"{state}","windows":1}},"kind":"health","seq":SEQ}}"#
            )
        };
        let lines = [
            r#"{"at_s":0.0,"data":{"requeued":0},"kind":"service_open","seq":SEQ}"#.to_string(),
            health(0.0, "healthy", "", 0),
            r#"{"at_s":120.0,"data":{"message":"stage preprocess idle for 110.0s","rule":"stage_stalled","stage":"preprocess"},"kind":"alert_fired","seq":SEQ}"#.to_string(),
            health(120.0, "degraded", r#""1 alert(s) firing""#, 1),
        ];
        let body: String = lines
            .iter()
            .enumerate()
            .map(|(i, l)| l.replace("SEQ", &i.to_string()) + "\n")
            .collect();
        std::fs::write(dir.join(oplog::OPS_LOG_FILE), body).unwrap();

        let mut plane = OpsPlane::open(&dir, config()).unwrap();
        let events = plane.events();
        assert_eq!(events.len(), 4);
        assert_eq!(events[2].kind, "alert_fired");
        let replayed = oplog::replay_final_health(&events).expect("last health parses");
        assert_eq!(replayed.at_s, 120.0);
        assert_eq!(
            replayed.state,
            HealthState::Degraded {
                reasons: vec!["1 alert(s) firing".to_string()]
            }
        );
        // The reopened plane has no alert input: its own first verdict is
        // healthy and continues the sequence after the old history.
        assert_eq!(plane.health().state, HealthState::Healthy);
        let events = plane.events();
        assert_eq!(events.last().unwrap().seq, 4);
        assert_eq!(
            oplog::replay_final_health(&events).unwrap().state,
            HealthState::Healthy
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
