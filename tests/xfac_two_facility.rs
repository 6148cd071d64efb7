//! Two-facility acceptance: a campaign ships with a manifest, the
//! destination facility ingests and verifies it, both facilities' span
//! stores stitch into one Chrome trace with a WAN-attributed critical
//! path, corrupted shipments fail loudly (typed error + Degraded health),
//! and a clean re-ship after an ack is idempotent.

use eoml::core::campaign::{run_campaign, CampaignParams};
use eoml::journal::{Journal, JournalEvent, MemStorage};
use eoml::obs::ops::health;
use eoml::obs::{FacilitySpans, FacilityStatus, HealthPolicy, HealthState, Obs, XfacAnalysis};
use eoml::transfer::{receive, FaultInjector, FaultPlan, IngestError, Ingestor, ReceivedArtifact};
use serde_json::Value;
use std::sync::Arc;

const SOURCE: &str = "ace-defiant";
const DEST: &str = "frontier-orion";

/// Run the source campaign with an obs hub attached and hand back hub +
/// report (manifest included).
fn source_campaign() -> (Arc<Obs>, eoml::core::campaign::CampaignReport) {
    let obs = Obs::shared();
    let report = run_campaign(
        CampaignParams {
            files_per_day: 24,
            ..CampaignParams::small()
        }
        .with_obs(Arc::clone(&obs)),
    );
    assert!(report.labeled_files > 0, "need shipped files");
    (obs, report)
}

#[test]
fn clean_shipment_verifies_acks_and_stitches_into_one_trace() {
    let (src_obs, report) = source_campaign();
    let manifest = report.manifest.as_ref().expect("manifest");
    assert_eq!(manifest.len(), report.labeled_files);

    // Destination facility: its own obs hub and verifier.
    let dst_obs = Obs::shared();
    let mut ingestor = Ingestor::new(DEST).with_obs(Arc::clone(&dst_obs));
    let mut faults = FaultInjector::new(FaultPlan::none(), 0);
    let received = receive(manifest, &mut faults);
    let ingest = ingestor.ingest(manifest, &received, manifest.created_s + 5.0);
    assert!(ingest.ok(), "clean ingest failed: {:?}", ingest.errors);
    assert!(!ingest.duplicate);
    assert_eq!(ingest.verified.len(), manifest.len());

    // The ack is journaled; a restarted destination restores it and
    // treats the re-ship as a duplicate (idempotent).
    let store = MemStorage::new();
    let (mut journal, _) = Journal::open(store.clone()).unwrap();
    journal
        .append(JournalEvent::IngestAcked {
            manifest: ingest.manifest_id.clone(),
            facility: DEST.into(),
            files: ingest.verified.len() as u64,
            bytes: ingest.bytes_verified,
        })
        .unwrap();
    drop(journal);
    let (journal, _) = Journal::open(store).unwrap();
    assert!(journal.state().is_ingest_acked(&manifest.id()));
    let mut restarted = Ingestor::new(DEST).with_obs(Arc::clone(&dst_obs));
    restarted.restore_acked(journal.state().ingests_acked.keys().cloned());
    let again = restarted.ingest(manifest, &received, manifest.created_s + 9.0);
    assert!(again.duplicate, "re-ship of an acked manifest must no-op");

    // Stitch both facilities into one cross-facility timeline.
    let x = XfacAnalysis::stitch(&[
        FacilitySpans::capture(SOURCE, &src_obs),
        FacilitySpans::capture(DEST, &dst_obs),
    ]);
    let stitched = x.stitched_trace_ids();
    assert!(
        !stitched.is_empty(),
        "no trace crossed the WAN: src={} dst={} spans",
        src_obs.span_count(),
        dst_obs.span_count()
    );
    let id = stitched[0].to_string();
    let wan = x.wan_breakdown(&id).expect("stitched trace analysable");
    assert!(
        wan.wire_s > 0.0,
        "no wire time on the critical path: {wan:?}"
    );
    assert!(wan.verify_s > 0.0, "no verify time: {wan:?}");

    // The Chrome export renders both facilities as process lanes.
    let doc = x.chrome_trace();
    let v: Value = serde_json::from_str(&doc).expect("valid stitched trace");
    let events = v["traceEvents"].as_array().unwrap();
    let lanes: Vec<(&str, f64)> = events
        .iter()
        .filter(|e| e["ph"].as_str() == Some("M"))
        .map(|e| {
            (
                e["args"]["name"].as_str().unwrap(),
                e["pid"].as_f64().unwrap(),
            )
        })
        .collect();
    assert!(lanes.contains(&(SOURCE, 1.0)), "{lanes:?}");
    assert!(lanes.contains(&(DEST, 2.0)), "{lanes:?}");
    // Shipment spans live on the source pid, verify spans on the
    // destination pid, and a stitched granule appears on both.
    let pid_of = |cat: &str| {
        events
            .iter()
            .find(|e| e["ph"].as_str() == Some("X") && e["cat"].as_str() == Some(cat))
            .map(|e| e["pid"].as_f64().unwrap())
            .unwrap_or_else(|| panic!("no {cat} events"))
    };
    assert_eq!(pid_of("shipment"), 1.0);
    assert_eq!(pid_of("ingest"), 2.0);
    let pids_for_trace: Vec<f64> = events
        .iter()
        .filter(|e| e["args"]["trace_id"].as_str() == Some(id.as_str()))
        .map(|e| e["pid"].as_f64().unwrap())
        .collect();
    assert!(pids_for_trace.contains(&1.0) && pids_for_trace.contains(&2.0));
}

#[test]
fn corrupt_shipment_fails_loudly_and_degrades_facility_health() {
    let (_src_obs, report) = source_campaign();
    let manifest = report.manifest.as_ref().expect("manifest");

    // Deterministically corrupt the WAN: same seed → same failures.
    let plan = FaultPlan {
        drop_probability: 0.2,
        corrupt_probability: 0.2,
    };
    let dst_obs = Obs::shared();
    let mut ingestor = Ingestor::new(DEST).with_obs(Arc::clone(&dst_obs));
    let received = receive(manifest, &mut FaultInjector::new(plan, 7));
    let ingest = ingestor.ingest(manifest, &received, manifest.created_s + 5.0);
    assert!(!ingest.ok(), "corruption must not verify");
    assert!(!ingest.duplicate);
    let err = ingest.first_error().expect("typed error");
    assert!(
        matches!(
            err,
            IngestError::DigestMismatch { .. } | IngestError::Missing { .. }
        ),
        "unexpected error: {err:?}"
    );
    // The same seed reproduces the same failure set.
    let received2 = receive(manifest, &mut FaultInjector::new(plan, 7));
    let ingest2 = Ingestor::new(DEST).ingest(manifest, &received2, manifest.created_s + 5.0);
    let kinds =
        |r: &eoml::transfer::IngestReport| r.errors.iter().map(|e| e.kind()).collect::<Vec<_>>();
    assert_eq!(kinds(&ingest), kinds(&ingest2));

    // The rejection is journaled as a loud, durable audit record...
    let store = MemStorage::new();
    let (mut journal, _) = Journal::open(store).unwrap();
    journal
        .append(JournalEvent::IngestRejected {
            manifest: ingest.manifest_id.clone(),
            facility: DEST.into(),
            reason: err.kind().into(),
        })
        .unwrap();
    assert!(!journal.state().is_ingest_acked(&manifest.id()));
    assert_eq!(journal.state().ingest_rejections[DEST], 1);

    // ...and the facility's verify-failure counters fold into health as
    // Degraded (or worse, at high failure rates).
    let stage_key = format!("facility:{DEST}");
    let verified = dst_obs
        .metrics()
        .counter_value("artifacts_verified", &stage_key)
        .unwrap_or(0);
    let failures = dst_obs
        .metrics()
        .counter_value("verify_failures", &stage_key)
        .unwrap_or(0);
    assert!(failures > 0, "failure counter did not move");
    let status = FacilityStatus {
        facility: DEST.into(),
        ingest_lag_s: 5.0,
        verified,
        verify_failures: failures,
    };
    let health = health::evaluate(
        &HealthPolicy::default(),
        manifest.created_s + 5.0,
        1,
        None,
        0,
        Vec::new(),
        false,
        0,
        vec![status],
    );
    assert!(
        !matches!(health.state, HealthState::Healthy),
        "a failing destination must not look healthy: {:?}",
        health.state
    );
    let reasons = match &health.state {
        HealthState::Degraded { reasons } | HealthState::Unhealthy { reasons } => reasons.clone(),
        HealthState::Healthy => unreachable!(),
    };
    assert!(
        reasons.iter().any(|r| r.contains(DEST)),
        "reasons must name the facility: {reasons:?}"
    );

    // A clean re-ship then verifies and acks — the failure was transient
    // WAN damage, not manifest damage.
    let clean: Vec<ReceivedArtifact> = manifest
        .artifacts
        .iter()
        .map(ReceivedArtifact::faithful)
        .collect();
    let retry = ingestor.ingest(manifest, &clean, manifest.created_s + 30.0);
    assert!(retry.ok(), "clean re-ship failed: {:?}", retry.errors);
    assert!(!retry.duplicate, "failed ingest must not have acked");
    // And only now is the manifest acked: a further re-ship no-ops.
    let dup = ingestor.ingest(manifest, &clean, manifest.created_s + 40.0);
    assert!(dup.duplicate);
}

#[test]
fn ingest_report_json_round_trips_for_ci_artifacts() {
    let (_src, report) = source_campaign();
    let manifest = report.manifest.as_ref().expect("manifest");
    let mut ingestor = Ingestor::new(DEST);
    let received = receive(manifest, &mut FaultInjector::new(FaultPlan::none(), 0));
    let ingest = ingestor.ingest(manifest, &received, manifest.created_s + 1.0);
    let json = ingest.to_json();
    assert_eq!(json["ok"].as_bool(), Some(true));
    assert_eq!(json["facility"].as_str(), Some(DEST));
    let back = eoml::transfer::IngestReport::from_json(&json).expect("round trip");
    assert_eq!(back.manifest_id, ingest.manifest_id);
    assert_eq!(back.verified.len(), ingest.verified.len());
}
