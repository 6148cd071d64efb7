//! Health verdicts: SLO burn + fairness + recovery state + abandoned
//! downloads + facility ingest rolled into one machine-readable report.
//!
//! [`evaluate`] is a pure function from observed signals to a
//! [`HealthReport`], so the same code path produces the live verdict and
//! the replayed-from-ops-log verdict the soak test compares against.

use serde_json::{json, Value};

use super::slo::SloStatus;

/// The service's health state, worst-signal-wins.
#[derive(Debug, Clone, PartialEq)]
pub enum HealthState {
    /// All signals within policy.
    Healthy,
    /// Service is working but a signal is out of band.
    Degraded {
        /// Human-readable reasons, stable across replay.
        reasons: Vec<String>,
    },
    /// Error budget is burning fast enough to need intervention.
    Unhealthy {
        /// Human-readable reasons, stable across replay.
        reasons: Vec<String>,
    },
}

impl HealthState {
    /// Short label (`healthy` / `degraded` / `unhealthy`).
    pub fn label(&self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded { .. } => "degraded",
            HealthState::Unhealthy { .. } => "unhealthy",
        }
    }

    /// The reasons, empty when healthy.
    pub fn reasons(&self) -> &[String] {
        match self {
            HealthState::Healthy => &[],
            HealthState::Degraded { reasons } | HealthState::Unhealthy { reasons } => reasons,
        }
    }
}

/// Thresholds that map signals to a [`HealthState`].
#[derive(Debug, Clone, PartialEq)]
pub struct HealthPolicy {
    /// Burn at or above this degrades the service.
    pub degraded_burn: f64,
    /// Burn at or above this marks the service unhealthy.
    pub unhealthy_burn: f64,
    /// Jain's index below this (once admissions are meaningful) degrades.
    pub min_fairness: f64,
    /// Fairness is only judged after this many total admissions.
    pub fairness_min_admissions: u64,
    /// A facility whose ingest lag exceeds this many seconds degrades.
    pub max_ingest_lag_s: f64,
    /// A facility whose verification-failure rate reaches this fraction
    /// is unhealthy (any failure at all already degrades).
    pub unhealthy_verify_failure_rate: f64,
    /// Downloads abandoned after retry exhaustion beyond this count
    /// degrade the service (0 = any abandoned file degrades).
    pub max_abandoned_files: u64,
}

impl Default for HealthPolicy {
    fn default() -> HealthPolicy {
        HealthPolicy {
            degraded_burn: 1.0,
            unhealthy_burn: 4.0,
            min_fairness: 0.5,
            fairness_min_admissions: 8,
            max_ingest_lag_s: 900.0,
            unhealthy_verify_failure_rate: 0.5,
            max_abandoned_files: 0,
        }
    }
}

/// One destination facility's ingest signals, as fed to [`evaluate`].
#[derive(Debug, Clone, PartialEq)]
pub struct FacilityStatus {
    /// Facility name (e.g. `"frontier-orion"`).
    pub facility: String,
    /// Seconds between shipment completion at the source and the latest
    /// ingest acknowledgement at this facility.
    pub ingest_lag_s: f64,
    /// Artifacts that verified clean.
    pub verified: u64,
    /// Verification failures (missing / corrupt / unexpected artifacts).
    pub verify_failures: u64,
}

impl FacilityStatus {
    /// Fraction of verification outcomes that failed (0 when idle).
    pub fn failure_rate(&self) -> f64 {
        let total = self.verified + self.verify_failures;
        if total == 0 {
            0.0
        } else {
            self.verify_failures as f64 / total as f64
        }
    }

    /// JSON form.
    pub fn to_json(&self) -> Value {
        json!({
            "facility": self.facility,
            "ingest_lag_s": self.ingest_lag_s,
            "verified": self.verified,
            "verify_failures": self.verify_failures,
        })
    }

    /// Parse the JSON form.
    pub fn from_json(v: &Value) -> Result<FacilityStatus, String> {
        Ok(FacilityStatus {
            facility: v["facility"]
                .as_str()
                .ok_or("facility status: missing 'facility'")?
                .to_string(),
            ingest_lag_s: v["ingest_lag_s"].as_f64().unwrap_or(0.0),
            verified: v["verified"].as_u64().unwrap_or(0),
            verify_failures: v["verify_failures"].as_u64().unwrap_or(0),
        })
    }
}

/// One health verdict with the signals that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    /// The verdict.
    pub state: HealthState,
    /// Ops-clock timestamp (sim seconds) of the evaluation.
    pub at_s: f64,
    /// Windows rolled so far.
    pub windows: u64,
    /// Jain's fairness index, if any admissions were recorded.
    pub fairness: Option<f64>,
    /// Per `(slo, stage)` burn statuses at evaluation time.
    pub slos: Vec<SloStatus>,
    /// Whether the service is still re-running work recovered from the
    /// journal after a restart.
    pub recovering: bool,
    /// Files the download stage abandoned after exhausting their retry
    /// budget (the `files_abandoned{stage="download"}` counter).
    pub downloads_abandoned: u64,
    /// Per-destination-facility ingest signals the verdict folded in.
    pub facilities: Vec<FacilityStatus>,
}

impl HealthReport {
    /// JSON form (`EOML_HEALTH` export and `health` ops-log events).
    pub fn to_json(&self) -> Value {
        json!({
            "state": self.state.label(),
            "reasons": self.state.reasons().to_vec(),
            "at_s": self.at_s,
            "windows": self.windows,
            "fairness": match self.fairness {
                Some(f) => json!(f),
                None => Value::Null,
            },
            "slos": self.slos.iter().map(|s| s.to_json()).collect::<Vec<_>>(),
            "recovering": self.recovering,
            "downloads_abandoned": self.downloads_abandoned,
            "facilities": self.facilities.iter().map(|f| f.to_json()).collect::<Vec<_>>(),
        })
    }

    /// Parse the JSON form.
    pub fn from_json(v: &Value) -> Result<HealthReport, String> {
        let reasons: Vec<String> = v["reasons"]
            .as_array()
            .map(|a| {
                a.iter()
                    .filter_map(|r| r.as_str().map(|s| s.to_string()))
                    .collect()
            })
            .unwrap_or_default();
        let state = match v["state"].as_str() {
            Some("healthy") => HealthState::Healthy,
            Some("degraded") => HealthState::Degraded { reasons },
            Some("unhealthy") => HealthState::Unhealthy { reasons },
            other => return Err(format!("unknown health state {other:?}")),
        };
        let slos = match v["slos"].as_array() {
            Some(a) => a
                .iter()
                .map(SloStatus::from_json)
                .collect::<Result<Vec<_>, _>>()?,
            None => Vec::new(),
        };
        // Reports logged before the facility dimension existed parse to
        // an empty facility list.
        let facilities = match v["facilities"].as_array() {
            Some(a) => a
                .iter()
                .map(FacilityStatus::from_json)
                .collect::<Result<Vec<_>, _>>()?,
            None => Vec::new(),
        };
        Ok(HealthReport {
            state,
            at_s: v["at_s"].as_f64().unwrap_or(0.0),
            windows: v["windows"].as_u64().unwrap_or(0),
            fairness: v["fairness"].as_f64(),
            slos,
            recovering: v["recovering"].as_bool().unwrap_or(false),
            // Reports logged before the abandonment signal existed parse
            // to zero.
            downloads_abandoned: v["downloads_abandoned"].as_u64().unwrap_or(0),
            facilities,
        })
    }
}

/// Evaluate the current signals into a report. Pure: same inputs, same
/// verdict — replaying logged signals reproduces the live report.
#[allow(clippy::too_many_arguments)] // one positional slot per signal, deliberately
pub fn evaluate(
    policy: &HealthPolicy,
    at_s: f64,
    windows: u64,
    fairness: Option<f64>,
    total_admissions: u64,
    slos: Vec<SloStatus>,
    recovering: bool,
    downloads_abandoned: u64,
    facilities: Vec<FacilityStatus>,
) -> HealthReport {
    let mut degraded: Vec<String> = Vec::new();
    let mut unhealthy: Vec<String> = Vec::new();

    for s in &slos {
        if s.burn >= policy.unhealthy_burn {
            unhealthy.push(format!(
                "slo {} burn {:.2} >= {:.2} for {}",
                s.slo, s.burn, policy.unhealthy_burn, s.stage
            ));
        } else if s.burn >= policy.degraded_burn {
            degraded.push(format!(
                "slo {} burn {:.2} >= {:.2} for {}",
                s.slo, s.burn, policy.degraded_burn, s.stage
            ));
        }
    }
    if let Some(j) = fairness {
        if total_admissions >= policy.fairness_min_admissions && j < policy.min_fairness {
            degraded.push(format!(
                "fairness {:.3} below floor {:.3}",
                j, policy.min_fairness
            ));
        }
    }
    if recovering {
        degraded.push("recovery in progress".to_string());
    }
    if downloads_abandoned > policy.max_abandoned_files {
        degraded.push(format!(
            "{downloads_abandoned} download(s) abandoned after retry exhaustion (policy allows {})",
            policy.max_abandoned_files
        ));
    }
    // A silent or failing destination must surface here, not vanish past
    // the shipment stage: any verification failure degrades, a failure
    // rate at/over the policy threshold is unhealthy, and ingest lag
    // beyond the bound degrades even with clean verifications.
    for f in &facilities {
        let rate = f.failure_rate();
        if f.verify_failures > 0 && rate >= policy.unhealthy_verify_failure_rate {
            unhealthy.push(format!(
                "facility {} verify-failure rate {:.2} >= {:.2} ({} failure(s))",
                f.facility, rate, policy.unhealthy_verify_failure_rate, f.verify_failures
            ));
        } else if f.verify_failures > 0 {
            degraded.push(format!(
                "facility {} has {} verification failure(s)",
                f.facility, f.verify_failures
            ));
        }
        if f.ingest_lag_s > policy.max_ingest_lag_s {
            degraded.push(format!(
                "facility {} ingest lag {:.1}s exceeds {:.1}s",
                f.facility, f.ingest_lag_s, policy.max_ingest_lag_s
            ));
        }
    }

    let state = if !unhealthy.is_empty() {
        unhealthy.extend(degraded);
        HealthState::Unhealthy { reasons: unhealthy }
    } else if !degraded.is_empty() {
        HealthState::Degraded { reasons: degraded }
    } else {
        HealthState::Healthy
    };
    HealthReport {
        state,
        at_s,
        windows,
        fairness,
        slos,
        recovering,
        downloads_abandoned,
        facilities,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slo(burn: f64) -> SloStatus {
        SloStatus {
            slo: "throughput".to_string(),
            stage: "tenant:a".to_string(),
            windows: 4,
            bad: 2,
            burn,
        }
    }

    fn facility(lag: f64, verified: u64, failures: u64) -> FacilityStatus {
        FacilityStatus {
            facility: "frontier-orion".to_string(),
            ingest_lag_s: lag,
            verified,
            verify_failures: failures,
        }
    }

    #[test]
    fn worst_signal_wins_and_reasons_accumulate() {
        let p = HealthPolicy::default();
        let healthy = evaluate(
            &p,
            10.0,
            3,
            Some(0.99),
            20,
            vec![slo(0.2)],
            false,
            0,
            Vec::new(),
        );
        assert_eq!(healthy.state, HealthState::Healthy);

        let degraded = evaluate(
            &p,
            10.0,
            3,
            Some(0.3),
            20,
            vec![slo(1.5)],
            true,
            1,
            Vec::new(),
        );
        match &degraded.state {
            // burn + fairness + recovery + one abandoned download
            HealthState::Degraded { reasons } => assert_eq!(reasons.len(), 4),
            other => panic!("expected degraded, got {other:?}"),
        }

        let unhealthy = evaluate(
            &p,
            10.0,
            3,
            Some(0.99),
            20,
            vec![slo(5.0)],
            true,
            0,
            Vec::new(),
        );
        match &unhealthy.state {
            HealthState::Unhealthy { reasons } => {
                assert!(reasons[0].contains("burn 5.00"));
                assert_eq!(reasons.len(), 2); // burn + recovery
            }
            other => panic!("expected unhealthy, got {other:?}"),
        }
    }

    #[test]
    fn fairness_is_not_judged_before_enough_admissions() {
        let p = HealthPolicy::default();
        let early = evaluate(&p, 0.0, 0, Some(0.1), 2, Vec::new(), false, 0, Vec::new());
        assert_eq!(early.state, HealthState::Healthy);
        let later = evaluate(&p, 0.0, 0, Some(0.1), 100, Vec::new(), false, 0, Vec::new());
        assert_eq!(later.state.label(), "degraded");
    }

    #[test]
    fn abandoned_downloads_degrade_past_the_policy_allowance() {
        let p = HealthPolicy::default();
        let ok = evaluate(&p, 0.0, 0, None, 0, Vec::new(), false, 0, Vec::new());
        assert_eq!(ok.state, HealthState::Healthy);
        // Default policy tolerates zero abandonments: a single file given up
        // on after retry exhaustion is lost science, and must be visible.
        let bad = evaluate(&p, 0.0, 0, None, 0, Vec::new(), false, 2, Vec::new());
        assert_eq!(bad.state.label(), "degraded");
        assert!(bad.state.reasons()[0].contains("abandoned"));
        assert_eq!(bad.downloads_abandoned, 2);
        // A lenient policy can grant a small abandonment budget.
        let lenient = HealthPolicy {
            max_abandoned_files: 5,
            ..HealthPolicy::default()
        };
        let tolerated = evaluate(&lenient, 0.0, 0, None, 0, Vec::new(), false, 5, Vec::new());
        assert_eq!(tolerated.state, HealthState::Healthy);
    }

    #[test]
    fn facility_verdicts_fold_into_the_overall_state() {
        let p = HealthPolicy::default();
        // A clean, prompt destination stays healthy.
        let ok = evaluate(
            &p,
            0.0,
            0,
            None,
            0,
            Vec::new(),
            false,
            0,
            vec![facility(30.0, 10, 0)],
        );
        assert_eq!(ok.state, HealthState::Healthy);
        // One verification failure out of many degrades — loudly, with
        // the facility named.
        let degraded = evaluate(
            &p,
            0.0,
            0,
            None,
            0,
            Vec::new(),
            false,
            0,
            vec![facility(30.0, 10, 1)],
        );
        assert_eq!(degraded.state.label(), "degraded");
        assert!(degraded.state.reasons()[0].contains("frontier-orion"));
        // Majority-failing verification is unhealthy.
        let unhealthy = evaluate(
            &p,
            0.0,
            0,
            None,
            0,
            Vec::new(),
            false,
            0,
            vec![facility(30.0, 1, 3)],
        );
        assert_eq!(unhealthy.state.label(), "unhealthy");
        // Stale ingest degrades even with clean verifications.
        let laggy = evaluate(
            &p,
            0.0,
            0,
            None,
            0,
            Vec::new(),
            false,
            0,
            vec![facility(2000.0, 10, 0)],
        );
        assert_eq!(laggy.state.label(), "degraded");
        assert!(laggy.state.reasons()[0].contains("ingest lag"));
        // An idle facility (no outcomes yet) carries no verdict.
        assert_eq!(facility(0.0, 0, 0).failure_rate(), 0.0);
    }

    #[test]
    fn reports_round_trip_through_json() {
        let p = HealthPolicy::default();
        for report in [
            evaluate(
                &p,
                7.5,
                4,
                Some(0.93),
                12,
                vec![slo(0.5)],
                false,
                0,
                Vec::new(),
            ),
            evaluate(&p, 7.5, 4, None, 0, vec![slo(2.0)], true, 3, Vec::new()),
            evaluate(
                &p,
                7.5,
                4,
                Some(0.2),
                50,
                vec![slo(9.0)],
                false,
                0,
                vec![facility(12.0, 8, 2)],
            ),
        ] {
            let back = HealthReport::from_json(&report.to_json()).unwrap();
            assert_eq!(back, report);
        }
        // Pre-facility reports (no "facilities" key) still parse.
        let legacy = json!({ "state": "healthy", "at_s": 1.0 });
        let parsed = HealthReport::from_json(&legacy).unwrap();
        assert!(parsed.facilities.is_empty());
    }
}
