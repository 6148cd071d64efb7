//! Chaos acceptance: the seeded kill/partition schedule fires at every
//! injection point and the resumed runs stay journal-equivalent with
//! byte-identical artifacts and no duplicate ingests; a facility outage
//! fails over to a second compute site from the synced journal alone;
//! degraded-WAN re-ships converge under bounded exponential backoff; and
//! chaos verdicts fold into the ops log and health.
//!
//! When `EOML_CHAOS_DIR` is set (the CI chaos smoke job), the seeded
//! run's `chaos_report.json` and the two-facility stitched Chrome trace
//! are written there for upload on failure.

use eoml::core::campaign::{run_campaign, run_campaign_resumable, CampaignParams};
use eoml::core::chaos::{
    run_chaos_campaign, ChaosOutcome, ChaosReport, ChaosSchedule, InjectionPoint, DEST_FACILITY,
    SOURCE_FACILITY,
};
use eoml::journal::{Journal, JournalError, MemStorage};
use eoml::obs::{FacilitySpans, Obs, OpsConfig, OpsPlane, XfacAnalysis};
use eoml::transfer::{
    receive, reship_with_backoff, BackoffPolicy, FaultInjector, FaultPlan, Ingestor, JournalSync,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The CI smoke schedule's fixed seed: the same kills, partitions, and
/// loss rates on every run.
const CHAOS_SEED: u64 = 0xc11_a05;

fn params() -> CampaignParams {
    CampaignParams {
        files_per_day: 24,
        ..CampaignParams::small()
    }
}

static NEXT: AtomicU64 = AtomicU64::new(0);

fn tempdir(tag: &str) -> PathBuf {
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("eoml-chaos-{tag}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Write CI artifacts into `EOML_CHAOS_DIR`, if set. Failures to write
/// never fail the test — artifacts are diagnostics, not the verdict.
fn export_artifacts(report: &ChaosReport) {
    let Ok(dir) = std::env::var("EOML_CHAOS_DIR") else {
        return;
    };
    let dir = PathBuf::from(dir);
    let _ = std::fs::create_dir_all(&dir);
    let _ = std::fs::write(dir.join("chaos_report.json"), report.to_json().to_string());
    // A clean two-facility run's stitched trace, so a failed smoke job
    // ships a cross-facility timeline alongside the chaos verdicts.
    let src_obs = Obs::shared();
    let run = run_campaign(params().with_obs(Arc::clone(&src_obs)));
    if let Some(manifest) = run.manifest.as_ref() {
        let dst_obs = Obs::shared();
        let mut ingestor = Ingestor::new(DEST_FACILITY).with_obs(Arc::clone(&dst_obs));
        let received = receive(manifest, &mut FaultInjector::new(FaultPlan::none(), 0));
        let _ = ingestor.ingest(manifest, &received, manifest.created_s + 5.0);
        let x = XfacAnalysis::stitch(&[
            FacilitySpans::capture(SOURCE_FACILITY, &src_obs),
            FacilitySpans::capture(DEST_FACILITY, &dst_obs),
        ]);
        let _ = std::fs::write(dir.join("xfac_trace.json"), x.chrome_trace());
    }
}

#[test]
fn seeded_schedule_kills_every_point_and_stays_journal_equivalent() {
    let schedule = ChaosSchedule::full(CHAOS_SEED);
    let report = run_chaos_campaign(&params(), &schedule).expect("chaos harness runs");
    export_artifacts(&report);

    assert_eq!(report.outcomes.len(), 4, "all four injection points fire");
    let points: Vec<&str> = report.outcomes.iter().map(|o| o.point.label()).collect();
    assert_eq!(
        points,
        ["source_facility", "wan", "ingestor", "service"],
        "schedule order"
    );
    for outcome in &report.outcomes {
        assert!(
            outcome.journal_equivalent,
            "{}: resumed run not journal-equivalent: {outcome:?}",
            outcome.point.label()
        );
        assert!(
            outcome.artifacts_identical,
            "{}: artifacts not byte-identical: {outcome:?}",
            outcome.point.label()
        );
        assert_eq!(
            outcome.duplicate_ingests,
            0,
            "{}: duplicate ingests recorded: {outcome:?}",
            outcome.point.label()
        );
    }
    assert!(report.all_ok());

    // The WAN scenario actually exercised the partition + backoff path.
    let wan = &report.outcomes[1];
    assert!(wan.attempts > 1, "WAN scenario must re-ship: {wan:?}");
    assert!(wan.waited_s > 0.0, "WAN re-ships must back off: {wan:?}");

    // Identical schedule → identical verdict, byte for byte.
    let replay = run_chaos_campaign(&params(), &schedule).expect("replay runs");
    assert_eq!(report.to_json(), replay.to_json());
}

#[test]
fn facility_outage_fails_over_to_a_second_site_from_the_synced_journal() {
    // Reference: the undisturbed journaled run.
    let p = params();
    let baseline_store = MemStorage::new();
    let (journal, _) = Journal::open(baseline_store.clone()).unwrap();
    let baseline = run_campaign_resumable(p.clone(), journal).unwrap();
    let baseline_manifest = baseline.manifest.as_ref().expect("manifest");
    let (journal, _) = Journal::open(baseline_store).unwrap();
    let baseline_checksum = journal.state().work_checksum();

    // The source facility dies mid-campaign and never comes back.
    let source_store = MemStorage::new();
    let (mut source_journal, _) = Journal::open(source_store.clone()).unwrap();
    source_journal.crash_after(10);
    match run_campaign_resumable(p.clone(), source_journal) {
        Err(JournalError::Crashed) => {}
        other => panic!("kill point must fire: {:?}", other.map(|_| "completed")),
    }

    // All the second site ever receives is the synced journal: the
    // durable prefix, packaged exactly as the sync leg ships it.
    let (dead, _) = Journal::open(source_store).unwrap();
    let synced = JournalSync::from_state(dead.len() as u64, dead.state());
    assert!(
        synced.digest.events < journal.len() as u64,
        "outage must interrupt real work"
    );
    drop(dead);

    // Failover: rebuild a journal from the synced state alone and run
    // the same campaign params on the second site.
    let failover_store = MemStorage::new();
    let seeded = synced.state().expect("synced state parses");
    let (failover_journal, report) =
        Journal::open_seeded(failover_store.clone(), seeded).expect("seeding a fresh site");
    assert_eq!(report.truncated_bytes, 0, "seeded journal must be clean");
    let resumed = run_campaign_resumable(p, failover_journal).expect("failover completes");

    // Journal-equivalent: same work checksum; byte-identical artifacts:
    // same manifest id and per-artifact digests.
    let (failover_journal, _) = Journal::open(failover_store).unwrap();
    assert_eq!(
        failover_journal.state().work_checksum(),
        baseline_checksum,
        "failover run must be journal-equivalent to the undisturbed run"
    );
    let resumed_manifest = resumed.manifest.as_ref().expect("failover manifest");
    assert_eq!(resumed_manifest.id(), baseline_manifest.id());
    assert_eq!(resumed_manifest.len(), baseline_manifest.len());
    for (a, b) in baseline_manifest
        .artifacts
        .iter()
        .zip(&resumed_manifest.artifacts)
    {
        assert_eq!((&a.name, a.bytes, a.digest), (&b.name, b.bytes, b.digest));
    }
    // And the failover run ships its own self-consistent sync payload.
    let sync = resumed.journal_sync.as_ref().expect("failover sync");
    let check = sync.verify(resumed_manifest).expect("sync verifies");
    assert_eq!(check.checksum, baseline_checksum);
}

#[test]
fn degraded_wan_reships_converge_with_bounded_backoff_and_no_duplicate_acks() {
    let report = {
        let store = MemStorage::new();
        let (journal, _) = Journal::open(store).unwrap();
        run_campaign_resumable(params(), journal).unwrap()
    };
    let manifest = report.manifest.as_ref().expect("manifest");
    let sync = report.journal_sync.as_ref().expect("sync payload");

    let policy = BackoffPolicy::wan_default();
    let mut ingestor = Ingestor::new(DEST_FACILITY);
    let mut wan = FaultInjector::new(
        FaultPlan {
            drop_probability: 0.25,
            corrupt_probability: 0.10,
        },
        0xdeb4,
    );
    let outcome = reship_with_backoff(
        manifest,
        Some(sync),
        &mut ingestor,
        &mut wan,
        &policy,
        2000,
        0.0,
    )
    .expect("sync verifies");

    assert!(outcome.acked, "degraded WAN must eventually converge");
    assert!(outcome.attempts > 1, "the WAN must have damaged a shipment");
    // Bounded exponential backoff, not immediate retry: every re-ship
    // waited, and the total is exactly the policy's schedule.
    assert!(outcome.waited_s > 0.0);
    let expected: f64 = policy.total_delay_s(outcome.attempts - 1);
    assert!(
        (outcome.waited_s - expected).abs() < 1e-9,
        "waited {} vs policy schedule {}",
        outcome.waited_s,
        expected
    );
    // Exactly one IngestAcked: one clean verify, zero duplicates.
    let acked: Vec<_> = outcome
        .reports
        .iter()
        .filter(|r| r.ok() && !r.duplicate)
        .collect();
    assert_eq!(acked.len(), 1, "exactly one ack across all re-ships");
    assert!(outcome.reports.iter().all(|r| !r.duplicate));
    assert_eq!(ingestor.acked_count(), 1);
    // A post-convergence re-ship is an idempotent duplicate, not a
    // second ack.
    let received = receive(manifest, &mut FaultInjector::new(FaultPlan::none(), 0));
    let again = ingestor.ingest(manifest, &received, outcome.finished_s + 60.0);
    assert!(again.duplicate);
    assert_eq!(ingestor.acked_count(), 1);
}

#[test]
fn chaos_verdicts_fold_into_the_ops_log_and_health() {
    let schedule = ChaosSchedule::single(CHAOS_SEED, InjectionPoint::Service);
    let report = run_chaos_campaign(&params(), &schedule).expect("harness runs");

    // A passing chaos run logs its events and leaves health intact.
    let dir = tempdir("fold-ok");
    let mut plane = OpsPlane::open(&dir, OpsConfig::small()).unwrap();
    report.fold_into_ops(&mut plane);
    let events = plane.events();
    assert!(events.iter().any(|e| e.kind == "chaos_injection"));
    let summary = events
        .iter()
        .find(|e| e.kind == "chaos_summary")
        .expect("summary event");
    assert_eq!(summary.data["all_ok"].as_bool(), Some(true));
    assert_eq!(plane.health().state.label(), "healthy");
    let _ = std::fs::remove_dir_all(&dir);

    // A broken recovery path degrades health like a failing ingest.
    let mut failing = report.clone();
    failing.outcomes.push(ChaosOutcome {
        point: InjectionPoint::Wan,
        detail: "synthetic: re-ship diverged".to_string(),
        journal_equivalent: false,
        artifacts_identical: false,
        duplicate_ingests: 2,
        resumed_checksum: 0,
        attempts: 5,
        waited_s: 3.5,
    });
    let dir = tempdir("fold-bad");
    let mut plane = OpsPlane::open(&dir, OpsConfig::small()).unwrap();
    failing.fold_into_ops(&mut plane);
    let health = plane.health();
    assert_ne!(
        health.state.label(),
        "healthy",
        "a failed chaos scenario must not report healthy: {:?}",
        health.state
    );
    assert!(
        health
            .state
            .reasons()
            .iter()
            .any(|r| r.contains(DEST_FACILITY)),
        "reasons must name the facility: {:?}",
        health.state
    );
    let _ = std::fs::remove_dir_all(&dir);
}
