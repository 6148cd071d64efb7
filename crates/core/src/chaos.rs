//! Chaos harness: two-facility campaigns under deterministic failure.
//!
//! The paper's workflows span facilities that fail independently — the
//! source compute site, the WAN between sites, the destination ingestor,
//! and the campaign service itself. This module drives the full campaign
//! while killing or partitioning each of those components at *seeded*
//! injection points, then checks the recovery invariant end to end:
//!
//! > After any kill/partition schedule, the resumed run is
//! > **journal-equivalent** to an undisturbed run (same
//! > [`CampaignState::work_checksum`]), its shipped artifacts are
//! > **byte-identical** (same manifest id and per-artifact digests), and
//! > the destination records **no duplicate ingests**.
//!
//! The four injection points map onto four recovery mechanisms:
//!
//! * [`InjectionPoint::SourceFacility`] — the source site dies
//!   mid-campaign and *stays dead*. A second compute site fails the
//!   campaign over from the synced journal alone:
//!   [`Journal::open_seeded`] rebuilds a journal from the
//!   [`JournalSync`] state that travelled with the last shipment leg,
//!   and [`run_campaign_resumable`] finishes the work there.
//! * [`InjectionPoint::Wan`] — the WAN partitions during shipment; the
//!   re-ship loop backs off exponentially ([`BackoffPolicy`]) instead of
//!   hammering the link, gives up within its bounded budget while the
//!   partition holds, and converges once the link degrades back to lossy.
//! * [`InjectionPoint::Ingestor`] — the destination dies after verifying
//!   but *before* its `IngestAcked` lands durably; the restarted
//!   ingestor re-verifies idempotently and exactly one ack is journaled.
//! * [`InjectionPoint::Service`] — the whole service dies late in the
//!   campaign (during shipment bookkeeping); reopening the same journal
//!   resumes from the durable prefix.
//!
//! Every scenario is a pure function of `(CampaignParams, seed)` — the
//! same schedule replays the same kills, byte for byte — and the
//! resulting [`ChaosReport`] folds into the ops plane
//! ([`ChaosReport::fold_into_ops`]) so chaos outcomes degrade health like
//! any other operational signal.

use crate::campaign::{run_campaign_resumable, CampaignParams, CampaignReport};
use eoml_journal::{Journal, JournalError, JournalEvent, MemStorage};
use eoml_obs::{FacilityStatus, OpsPlane};
use eoml_transfer::faults::{FaultInjector, FaultPlan};
use eoml_transfer::ingest::{receive, Ingestor};
use eoml_transfer::manifest::ShipmentManifest;
use eoml_transfer::sync::{ingest_synced, reship_with_backoff, JournalSync};
use eoml_transfer::BackoffPolicy;
use eoml_util::rng::SplitMix64;
use serde_json::{json, Value};

/// The campaign's source facility (paper: the ACE "Defiant" testbed).
pub const SOURCE_FACILITY: &str = "ace-defiant";
/// The shipment destination (paper: Frontier's Orion file system).
pub const DEST_FACILITY: &str = "frontier-orion";
/// The failover compute site a lost source campaign resumes on.
pub const FAILOVER_FACILITY: &str = "perlmutter-south";

/// Where the chaos harness injects a failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum InjectionPoint {
    /// The source compute site dies mid-campaign and never returns;
    /// recovery is failover to a second site from the synced journal.
    SourceFacility,
    /// The WAN fully partitions during shipment, then heals into a
    /// lossy link; recovery is bounded-backoff re-shipping.
    Wan,
    /// The destination ingestor dies after verifying but before its ack
    /// is durable; recovery is idempotent re-ingestion on restart.
    Ingestor,
    /// The campaign service dies late (shipment bookkeeping); recovery
    /// is journal resume on the same site.
    Service,
}

impl InjectionPoint {
    /// All four points, in scenario order.
    pub const ALL: [InjectionPoint; 4] = [
        InjectionPoint::SourceFacility,
        InjectionPoint::Wan,
        InjectionPoint::Ingestor,
        InjectionPoint::Service,
    ];

    /// Stable label for reports and ops events.
    pub fn label(&self) -> &'static str {
        match self {
            InjectionPoint::SourceFacility => "source_facility",
            InjectionPoint::Wan => "wan",
            InjectionPoint::Ingestor => "ingestor",
            InjectionPoint::Service => "service",
        }
    }
}

/// A seeded kill/partition schedule: which injection points fire, and
/// the seed every scenario parameter (kill event index, partition
/// length, degraded-WAN loss rates) derives from deterministically.
#[derive(Debug, Clone)]
pub struct ChaosSchedule {
    /// Root seed; all injected parameters are mixed from it.
    pub seed: u64,
    /// Injection points to exercise, in order.
    pub points: Vec<InjectionPoint>,
}

impl ChaosSchedule {
    /// Every injection point under one seed.
    pub fn full(seed: u64) -> ChaosSchedule {
        ChaosSchedule {
            seed,
            points: InjectionPoint::ALL.to_vec(),
        }
    }

    /// A single injection point under one seed.
    pub fn single(seed: u64, point: InjectionPoint) -> ChaosSchedule {
        ChaosSchedule {
            seed,
            points: vec![point],
        }
    }

    /// Mix a scenario-local parameter out of the root seed.
    fn derive(&self, salt: u64) -> u64 {
        SplitMix64::mix(self.seed ^ SplitMix64::mix(salt))
    }
}

/// One scenario's verdict against the journal-equivalence invariant.
#[derive(Debug, Clone)]
pub struct ChaosOutcome {
    /// Which component was killed/partitioned.
    pub point: InjectionPoint,
    /// Human-readable scenario detail (kill index, loss rates, …).
    pub detail: String,
    /// Resumed run's state checksum equals the undisturbed baseline's.
    pub journal_equivalent: bool,
    /// Resumed shipment's manifest id and per-artifact digests equal the
    /// baseline's (byte-identical artifacts).
    pub artifacts_identical: bool,
    /// Ingest acks recorded beyond the first (must be zero).
    pub duplicate_ingests: u64,
    /// The resumed run's work checksum.
    pub resumed_checksum: u64,
    /// Shipment attempts made (Wan scenario; 1 elsewhere).
    pub attempts: usize,
    /// Total backoff seconds waited between re-ships.
    pub waited_s: f64,
}

impl ChaosOutcome {
    /// Whether the invariant held for this scenario.
    pub fn ok(&self) -> bool {
        self.journal_equivalent && self.artifacts_identical && self.duplicate_ingests == 0
    }

    /// JSON for ops events and CI artifacts.
    pub fn to_json(&self) -> Value {
        json!({
            "point": self.point.label(),
            "detail": self.detail,
            "ok": self.ok(),
            "journal_equivalent": self.journal_equivalent,
            "artifacts_identical": self.artifacts_identical,
            "duplicate_ingests": self.duplicate_ingests,
            "resumed_checksum": format!("{:016x}", self.resumed_checksum),
            "attempts": self.attempts,
            "waited_s": self.waited_s,
        })
    }
}

/// The harness's full verdict: the undisturbed baseline plus one
/// [`ChaosOutcome`] per scheduled injection point.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The schedule's root seed.
    pub seed: u64,
    /// Undisturbed run's work checksum — the equivalence reference.
    pub baseline_checksum: u64,
    /// Undisturbed run's manifest id — the byte-identity reference.
    pub baseline_manifest: String,
    /// Durable events behind the undisturbed run.
    pub baseline_events: u64,
    /// Per-scenario verdicts, in schedule order.
    pub outcomes: Vec<ChaosOutcome>,
}

impl ChaosReport {
    /// Whether every scenario upheld the invariant.
    pub fn all_ok(&self) -> bool {
        self.outcomes.iter().all(|o| o.ok())
    }

    /// JSON for CI artifacts (`chaos_report.json`).
    pub fn to_json(&self) -> Value {
        json!({
            "seed": self.seed,
            "baseline_checksum": format!("{:016x}", self.baseline_checksum),
            "baseline_manifest": self.baseline_manifest,
            "baseline_events": self.baseline_events,
            "all_ok": self.all_ok(),
            "outcomes": self.outcomes.iter().map(|o| o.to_json()).collect::<Vec<_>>(),
        })
    }

    /// Fold the chaos verdicts into the ops plane: one `chaos_injection`
    /// event per scenario, a `chaos_summary` event, and a destination
    /// [`FacilityStatus`] whose verify counters carry the scenario
    /// pass/fail tally — so a broken recovery path degrades health
    /// exactly like a failing production ingest would.
    pub fn fold_into_ops(&self, plane: &mut OpsPlane) {
        for outcome in &self.outcomes {
            plane.event("chaos_injection", outcome.to_json());
        }
        plane.event("chaos_summary", self.to_json());
        let failed = self.outcomes.iter().filter(|o| !o.ok()).count() as u64;
        let passed = self.outcomes.len() as u64 - failed;
        plane.record_facility(FacilityStatus {
            facility: DEST_FACILITY.to_string(),
            ingest_lag_s: 0.0,
            verified: passed,
            verify_failures: failed,
        });
    }
}

/// Run the undisturbed journaled baseline: the reference every chaos
/// scenario's resumed run must be journal-equivalent to.
fn run_baseline(params: &CampaignParams) -> Result<(CampaignReport, u64, u64), JournalError> {
    let store = MemStorage::new();
    let (journal, _) = Journal::open(store.clone())?;
    let report = run_campaign_resumable(params.clone(), journal)?;
    let (journal, _) = Journal::open(store)?;
    let checksum = journal.state().work_checksum();
    let events = journal.len() as u64;
    Ok((report, checksum, events))
}

/// Kill the campaign after `kill_after` durable appends, then resume it
/// over the same storage until it completes. Returns the finished report,
/// the final durable checksum, and whether the kill actually fired.
fn run_killed(
    params: &CampaignParams,
    kill_after: usize,
) -> Result<(CampaignReport, u64, bool), JournalError> {
    let store = MemStorage::new();
    let mut killed = false;
    loop {
        let (mut journal, _) = Journal::open(store.clone())?;
        if !killed {
            journal.crash_after(kill_after);
        }
        match run_campaign_resumable(params.clone(), journal) {
            Err(JournalError::Crashed) => {
                killed = true;
                continue;
            }
            Err(e) => return Err(e),
            Ok(report) => {
                let (journal, _) = Journal::open(store)?;
                let checksum = journal.state().work_checksum();
                return Ok((report, checksum, killed));
            }
        }
    }
}

/// Do the resumed run's shipped artifacts match the baseline's, byte for
/// byte? Manifest id folds route + sorted `(name, bytes, digest)` — but
/// compare the artifact list explicitly so a mismatch names itself.
fn artifacts_identical(baseline: &ShipmentManifest, resumed: Option<&ShipmentManifest>) -> bool {
    let Some(resumed) = resumed else { return false };
    if baseline.id() != resumed.id() || baseline.len() != resumed.len() {
        return false;
    }
    baseline
        .artifacts
        .iter()
        .zip(&resumed.artifacts)
        .all(|(a, b)| a.name == b.name && a.bytes == b.bytes && a.digest == b.digest)
}

/// Run every scheduled injection scenario against `params` and report the
/// journal-equivalence verdicts. Deterministic in `(params, schedule)`.
pub fn run_chaos_campaign(
    params: &CampaignParams,
    schedule: &ChaosSchedule,
) -> Result<ChaosReport, JournalError> {
    let (baseline, baseline_checksum, baseline_events) = run_baseline(params)?;
    let baseline_manifest = baseline
        .manifest
        .as_ref()
        .expect("journaled campaign produces a manifest");
    let baseline_sync = baseline
        .journal_sync
        .as_ref()
        .expect("journaled campaign produces a journal-sync payload");
    if baseline_manifest.is_empty() {
        // Nothing shipped → the WAN/ingestor scenarios would pass
        // vacuously; refuse instead of reporting a hollow success.
        return Err(JournalError::Io(
            "chaos harness needs a campaign that ships at least one artifact \
             (raise files_per_day)"
                .to_string(),
        ));
    }

    let mut outcomes = Vec::new();
    for (i, point) in schedule.points.iter().enumerate() {
        let salt = (i as u64 + 1) * 0x9e37;
        let outcome = match point {
            InjectionPoint::SourceFacility => failover_scenario(
                params,
                schedule,
                salt,
                baseline_checksum,
                baseline_events,
                baseline_manifest,
            )?,
            InjectionPoint::Service => service_scenario(
                params,
                schedule,
                salt,
                baseline_checksum,
                baseline_events,
                baseline_manifest,
            )?,
            InjectionPoint::Wan => wan_scenario(
                schedule,
                salt,
                baseline_checksum,
                baseline_manifest,
                baseline_sync,
            ),
            InjectionPoint::Ingestor => ingestor_scenario(
                schedule,
                salt,
                baseline_checksum,
                baseline_manifest,
                baseline_sync,
            )?,
        };
        outcomes.push(outcome);
    }

    Ok(ChaosReport {
        seed: schedule.seed,
        baseline_checksum,
        baseline_manifest: baseline_manifest.id(),
        baseline_events,
        outcomes,
    })
}

/// Source-facility outage: the site dies mid-campaign and stays dead.
/// The durable journal prefix — exactly what the journal-sync leg had
/// shipped — seeds a fresh journal on a second site via
/// [`Journal::open_seeded`], and the campaign finishes there.
fn failover_scenario(
    params: &CampaignParams,
    schedule: &ChaosSchedule,
    salt: u64,
    baseline_checksum: u64,
    baseline_events: u64,
    baseline_manifest: &ShipmentManifest,
) -> Result<ChaosOutcome, JournalError> {
    // Kill somewhere in the first half of the event stream — early enough
    // that real work remains for the failover site.
    let span = (baseline_events / 2).max(1);
    let kill_after = 1 + (schedule.derive(salt) % span) as usize;

    // The source facility runs until the kill fires, then is lost.
    let source_store = MemStorage::new();
    let (mut source_journal, _) = Journal::open(source_store.clone())?;
    source_journal.crash_after(kill_after);
    match run_campaign_resumable(params.clone(), source_journal) {
        Err(JournalError::Crashed) => {}
        Err(e) => return Err(e),
        Ok(_) => {
            // The kill point sat past the campaign's total event count —
            // nothing died, so the run already matches the baseline.
            let (journal, _) = Journal::open(source_store)?;
            return Ok(ChaosOutcome {
                point: InjectionPoint::SourceFacility,
                detail: format!("kill_after={kill_after} (past end; no outage fired)"),
                journal_equivalent: journal.state().work_checksum() == baseline_checksum,
                artifacts_identical: true,
                duplicate_ingests: 0,
                resumed_checksum: journal.state().work_checksum(),
                attempts: 1,
                waited_s: 0.0,
            });
        }
    }

    // All that survives the outage is the synced journal: package the
    // durable prefix exactly as the last sync leg shipped it.
    let (dead_site, _) = Journal::open(source_store)?;
    let synced = JournalSync::from_state(dead_site.len() as u64, dead_site.state());
    drop(dead_site);

    // Second site: rebuild a journal from the synced state alone and run
    // the same campaign params — resumable picks up mid-stream.
    let failover_store = MemStorage::new();
    let seeded_state = synced
        .state()
        .map_err(|e| JournalError::Io(format!("synced state corrupt: {e}")))?;
    let (failover_journal, _) = Journal::open_seeded(failover_store.clone(), seeded_state)?;
    let resumed = run_campaign_resumable(params.clone(), failover_journal)?;
    let (failover_journal, _) = Journal::open(failover_store)?;
    let resumed_checksum = failover_journal.state().work_checksum();

    Ok(ChaosOutcome {
        point: InjectionPoint::SourceFacility,
        detail: format!(
            "{SOURCE_FACILITY} lost after {kill_after} events; failed over to {FAILOVER_FACILITY} from synced journal"
        ),
        journal_equivalent: resumed_checksum == baseline_checksum,
        artifacts_identical: artifacts_identical(baseline_manifest, resumed.manifest.as_ref()),
        duplicate_ingests: 0,
        resumed_checksum,
        attempts: 1,
        waited_s: 0.0,
    })
}

/// Whole-service death late in the campaign (shipment bookkeeping),
/// recovered by reopening the same journal on the same site.
fn service_scenario(
    params: &CampaignParams,
    schedule: &ChaosSchedule,
    salt: u64,
    baseline_checksum: u64,
    baseline_events: u64,
    baseline_manifest: &ShipmentManifest,
) -> Result<ChaosOutcome, JournalError> {
    // Kill in the second half — the worst-case window where most work is
    // durable and only the tail must replay.
    let half = (baseline_events / 2).max(1);
    let kill_after = (half + schedule.derive(salt) % half).max(1) as usize;
    let (resumed, resumed_checksum, killed) = run_killed(params, kill_after)?;
    Ok(ChaosOutcome {
        point: InjectionPoint::Service,
        detail: format!(
            "service killed after {kill_after} events (fired={killed}); journal resume"
        ),
        journal_equivalent: resumed_checksum == baseline_checksum,
        artifacts_identical: artifacts_identical(baseline_manifest, resumed.manifest.as_ref()),
        duplicate_ingests: 0,
        resumed_checksum,
        attempts: 1,
        waited_s: 0.0,
    })
}

/// WAN partition during shipment: a hard partition exhausts its bounded
/// backoff budget without converging, then the link heals into a lossy
/// degraded state and the re-ship loop converges — exactly one ack, no
/// duplicates, waits matching the backoff policy.
fn wan_scenario(
    schedule: &ChaosSchedule,
    salt: u64,
    baseline_checksum: u64,
    baseline_manifest: &ShipmentManifest,
    baseline_sync: &JournalSync,
) -> ChaosOutcome {
    let policy = BackoffPolicy::wan_default();
    let mut ingestor = Ingestor::new(DEST_FACILITY);

    // Phase 1 — full partition: every flow drops. The bounded budget
    // must give up instead of retrying forever.
    let partition_budget = 3 + (schedule.derive(salt) % 3) as usize;
    let cut_wan = FaultPlan {
        drop_probability: 1.0,
        corrupt_probability: 0.0,
    };
    let mut partition = FaultInjector::new(cut_wan, schedule.derive(salt ^ 0x11));
    let cut = reship_with_backoff(
        baseline_manifest,
        Some(baseline_sync),
        &mut ingestor,
        &mut partition,
        &policy,
        partition_budget,
        0.0,
    )
    .expect("sync payload verifies against its own manifest");
    let partition_held = !cut.acked && cut.attempts == partition_budget + 1;

    // Phase 2 — the partition heals into a degraded, lossy WAN; bounded
    // backoff re-ships until the destination verifies clean. Loss rates
    // are per-artifact, so keep them modest enough that a whole manifest
    // has a workable per-attempt success probability.
    let drop_p = 0.05 + (schedule.derive(salt ^ 0x22) % 15) as f64 / 100.0;
    let corrupt_p = 0.02 + (schedule.derive(salt ^ 0x33) % 8) as f64 / 100.0;
    let flaky_wan = FaultPlan {
        drop_probability: drop_p,
        corrupt_probability: corrupt_p,
    };
    let mut degraded = FaultInjector::new(flaky_wan, schedule.derive(salt ^ 0x44));
    let healed = reship_with_backoff(
        baseline_manifest,
        Some(baseline_sync),
        &mut ingestor,
        &mut degraded,
        &policy,
        2000,
        cut.finished_s,
    )
    .expect("sync payload verifies against its own manifest");
    let duplicates = healed
        .reports
        .iter()
        .chain(&cut.reports)
        .filter(|r| r.duplicate)
        .count() as u64;
    let converged = healed.acked && ingestor.acked_count() == 1;

    ChaosOutcome {
        point: InjectionPoint::Wan,
        detail: format!(
            "partition ({} attempts, {:.1}s backoff) then degraded WAN drop={drop_p:.2} corrupt={corrupt_p:.2}",
            cut.attempts, cut.waited_s
        ),
        // The WAN never touches the source journal; equivalence here is
        // the synced digest still matching the baseline state.
        journal_equivalent: partition_held
            && converged
            && baseline_sync.digest.checksum == baseline_checksum,
        artifacts_identical: converged,
        duplicate_ingests: duplicates,
        resumed_checksum: baseline_sync.digest.checksum,
        attempts: cut.attempts + healed.attempts,
        waited_s: cut.waited_s + healed.waited_s,
    }
}

/// Destination-ingestor death between verification and the durable ack:
/// the restart must re-verify idempotently and journal exactly one ack.
fn ingestor_scenario(
    schedule: &ChaosSchedule,
    salt: u64,
    baseline_checksum: u64,
    baseline_manifest: &ShipmentManifest,
    baseline_sync: &JournalSync,
) -> Result<ChaosOutcome, JournalError> {
    let dest_store = MemStorage::new();
    let (mut dest_journal, _) = Journal::open(dest_store.clone())?;
    let mut ingestor = Ingestor::new(DEST_FACILITY);
    let mut clean = FaultInjector::new(FaultPlan::none(), schedule.derive(salt));
    let received = receive(baseline_manifest, &mut clean);

    // First ingest verifies clean…
    let first = ingest_synced(
        &mut ingestor,
        baseline_manifest,
        baseline_sync,
        &received,
        5.0,
    )
    .expect("synced manifest verifies");
    let first_ok = first.ok() && !first.duplicate;

    // …but the ingestor dies before the ack lands durably.
    dest_journal.crash_after(0);
    let ack_lost = dest_journal
        .append(JournalEvent::IngestAcked {
            manifest: first.manifest_id.clone(),
            facility: DEST_FACILITY.into(),
            files: first.verified.len() as u64,
            bytes: first.bytes_verified,
        })
        .is_err();
    drop(dest_journal);

    // Restart: the durable journal has no ack, so the restored acked-set
    // is empty and the re-ship re-verifies instead of trusting the lost
    // ack — idempotent, not duplicate-producing.
    let (mut dest_journal, _) = Journal::open(dest_store.clone())?;
    let ack_was_lost = !dest_journal
        .state()
        .is_ingest_acked(&baseline_manifest.id());
    let mut restarted = Ingestor::new(DEST_FACILITY);
    restarted.restore_acked(dest_journal.state().ingests_acked.keys().cloned());
    let second = ingest_synced(
        &mut restarted,
        baseline_manifest,
        baseline_sync,
        &received,
        9.0,
    )
    .expect("synced manifest verifies on restart");
    let second_ok = second.ok() && !second.duplicate;
    dest_journal.append(JournalEvent::IngestAcked {
        manifest: second.manifest_id.clone(),
        facility: DEST_FACILITY.into(),
        files: second.verified.len() as u64,
        bytes: second.bytes_verified,
    })?;
    drop(dest_journal);

    // A further re-ship against the durable ack is a duplicate no-op.
    let (dest_journal, _) = Journal::open(dest_store)?;
    let acked_once = dest_journal.state().ingests_acked.len() == 1
        && dest_journal
            .state()
            .is_ingest_acked(&baseline_manifest.id());
    let third = restarted.ingest(baseline_manifest, &received, 12.0);
    let idempotent = third.duplicate;

    let recovered = first_ok && ack_lost && ack_was_lost && second_ok && acked_once && idempotent;
    Ok(ChaosOutcome {
        point: InjectionPoint::Ingestor,
        detail: "ingestor died pre-ack; restart re-verified and acked exactly once".to_string(),
        journal_equivalent: recovered && baseline_sync.digest.checksum == baseline_checksum,
        artifacts_identical: recovered,
        // Acks beyond the first durable one (the restart's) are duplicates.
        duplicate_ingests: dest_journal.state().ingests_acked.len() as u64 - 1,
        resumed_checksum: baseline_sync.digest.checksum,
        attempts: 1,
        waited_s: 0.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CampaignParams {
        // `small()`'s 4 files/day can label zero day granules, leaving an
        // empty manifest with nothing to partition; 24 guarantees cargo.
        CampaignParams {
            files_per_day: 24,
            ..CampaignParams::small()
        }
    }

    #[test]
    fn full_schedule_upholds_the_invariant_under_a_fixed_seed() {
        let schedule = ChaosSchedule::full(0xc4a05);
        let report = run_chaos_campaign(&small(), &schedule).expect("harness runs");
        assert_eq!(report.outcomes.len(), 4);
        for outcome in &report.outcomes {
            assert!(
                outcome.ok(),
                "{} scenario broke the invariant: {:?}",
                outcome.point.label(),
                outcome
            );
            assert_eq!(outcome.duplicate_ingests, 0);
        }
        assert!(report.all_ok());
    }

    #[test]
    fn schedules_replay_deterministically() {
        let schedule = ChaosSchedule::full(42);
        let a = run_chaos_campaign(&small(), &schedule).unwrap();
        let b = run_chaos_campaign(&small(), &schedule).unwrap();
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn report_json_carries_every_scenario() {
        let schedule = ChaosSchedule::single(7, InjectionPoint::Service);
        let report = run_chaos_campaign(&small(), &schedule).unwrap();
        let json = report.to_json();
        assert_eq!(json["outcomes"].as_array().unwrap().len(), 1);
        assert_eq!(json["outcomes"][0]["point"].as_str(), Some("service"));
        assert_eq!(json["all_ok"].as_bool(), Some(true));
        assert_eq!(
            json["baseline_checksum"].as_str().unwrap().len(),
            16,
            "checksum renders as 16 hex digits"
        );
    }
}
