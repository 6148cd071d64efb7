//! The long-lived, in-process campaign service.
//!
//! One [`CampaignService`] multiplexes many tenants over the existing
//! resumable pipeline:
//!
//! * **Namespaces** — every tenant owns a [`Ledger`] under
//!   `<root>/tenants/<id>/`; each admission quantum (one campaign day)
//!   journals into `<campaign>-day-<date>/wal.log` inside it, so restart
//!   recovery inherits the single-day driver's crash-equivalence guarantee
//!   wholesale.
//! * **Control plane** — tenant registrations and campaign lifecycle
//!   records are themselves journaled (`<root>/control/service/wal.log`)
//!   as [`JournalEvent::ServiceRecord`] upserts. Submit, pause, resume,
//!   and cancel are therefore durable: reopening the service over the same
//!   root rebuilds every tenant and requeues every in-flight campaign.
//! * **Scheduling** — tenants hash onto one of N shards; within a shard,
//!   smooth weighted round-robin admits one campaign-day at a time (see
//!   [`crate::shard`]), so whales interleave with small tenants instead of
//!   starving them.
//! * **Budgets** — each admitted quantum leases its (budget-clamped) peak
//!   worker demand from a [`BudgetPool`] carved from the cluster's
//!   node/core model; the sum of concurrent leases can never exceed the
//!   cluster.
//! * **Metrics** — every tenant's telemetry lands in a shared
//!   [`Obs`] hub under a `tenant:<id>` stage label; [`tenant_report`]
//!   serves the per-tenant [`ObsReport`] slice.
//!
//! [`tenant_report`]: CampaignService::tenant_report

use crate::error::ServiceError;
use crate::shard::{shard_of, ShardQueue};
use crate::spec::CampaignSpec;
use crate::tenant::{check_campaign_name, TenantSpec};
use eoml_cluster::{BudgetPool, ClusterSpec};
use eoml_core::campaign::run_campaign_resumable;
use eoml_core::scheduler::{run_day_in_namespace, DayRun};
use eoml_journal::{FileStorage, Journal};
use eoml_journal::{JournalError, JournalEvent, Ledger, LedgerLock};
use eoml_obs::{
    AuditRecord, HealthReport, Obs, ObsReport, OpsConfig, OpsEvent, OpsPlane, WindowDelta,
};
use eoml_util::pool;
use eoml_util::timebase::CivilDate;
use serde_json::{json, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Campaign lifecycle status — the state machine the control journal
/// records. Legal transitions:
///
/// ```text
/// submit -> Queued -> Running -> Completed
///              |  ^      |
///   pause      v  | resume/requeue
///            Paused
/// Queued|Running|Paused -- cancel --> Cancelled   (terminal)
/// Completed                                        (terminal)
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignStatus {
    /// Awaiting admission on its shard.
    Queued,
    /// At least one quantum admitted; more remain.
    Running,
    /// Parked by `pause`; `resume` re-queues it.
    Paused,
    /// Terminally cancelled; quantum namespaces removed from the ledger.
    Cancelled,
    /// All days ran; totals are final.
    Completed,
}

impl CampaignStatus {
    /// Stable on-disk name.
    pub fn as_str(self) -> &'static str {
        match self {
            CampaignStatus::Queued => "queued",
            CampaignStatus::Running => "running",
            CampaignStatus::Paused => "paused",
            CampaignStatus::Cancelled => "cancelled",
            CampaignStatus::Completed => "completed",
        }
    }

    fn from_str(s: &str) -> Result<Self, String> {
        Ok(match s {
            "queued" => CampaignStatus::Queued,
            "running" => CampaignStatus::Running,
            "paused" => CampaignStatus::Paused,
            "cancelled" => CampaignStatus::Cancelled,
            "completed" => CampaignStatus::Completed,
            other => return Err(format!("unknown campaign status {other:?}")),
        })
    }
}

/// Accumulated per-campaign output totals (across completed quanta).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CampaignTotals {
    /// Granules preprocessed.
    pub granules: usize,
    /// Tile NetCDF files produced.
    pub tile_files: usize,
    /// Total tiles across files.
    pub total_tiles: f64,
    /// Files labeled by inference.
    pub labeled_files: usize,
    /// Sum of per-day makespans, seconds (virtual time).
    pub makespan_s: f64,
}

/// One campaign's durable control record.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignRecord {
    /// Owning tenant.
    pub tenant: String,
    /// Campaign name (unique per tenant).
    pub name: String,
    /// The submitted spec.
    pub spec: CampaignSpec,
    /// Lifecycle status.
    pub status: CampaignStatus,
    /// Days (quanta) completed so far.
    pub days_done: usize,
    /// Global submission sequence number (recovery re-queues in this
    /// order, so admission stays deterministic across restarts).
    pub submit_seq: u64,
    /// Output totals across completed quanta.
    pub totals: CampaignTotals,
}

impl CampaignRecord {
    fn key(tenant: &str, name: &str) -> String {
        format!("campaign/{tenant}/{name}")
    }

    fn to_json(&self) -> Value {
        json!({
            "tenant": self.tenant,
            "name": self.name,
            "spec": self.spec.to_json(),
            "status": self.status.as_str(),
            "days_done": self.days_done,
            "submit_seq": self.submit_seq,
            "totals": {
                "granules": self.totals.granules,
                "tile_files": self.totals.tile_files,
                "total_tiles": self.totals.total_tiles,
                "labeled_files": self.totals.labeled_files,
                "makespan_s": self.totals.makespan_s,
            },
        })
    }

    fn from_json(v: &Value) -> Result<CampaignRecord, String> {
        let t = &v["totals"];
        Ok(CampaignRecord {
            tenant: v["tenant"]
                .as_str()
                .ok_or("record missing tenant")?
                .to_string(),
            name: v["name"].as_str().ok_or("record missing name")?.to_string(),
            spec: CampaignSpec::from_json(&v["spec"])?,
            status: CampaignStatus::from_str(v["status"].as_str().ok_or("record missing status")?)?,
            days_done: v["days_done"].as_u64().ok_or("record missing days_done")? as usize,
            submit_seq: v["submit_seq"]
                .as_u64()
                .ok_or("record missing submit_seq")?,
            totals: CampaignTotals {
                granules: t["granules"].as_u64().unwrap_or(0) as usize,
                tile_files: t["tile_files"].as_u64().unwrap_or(0) as usize,
                total_tiles: t["total_tiles"].as_f64().unwrap_or(0.0),
                labeled_files: t["labeled_files"].as_u64().unwrap_or(0) as usize,
                makespan_s: t["makespan_s"].as_f64().unwrap_or(0.0),
            },
        })
    }

    /// The ledger namespace of one quantum.
    fn quantum_namespace(&self, date: CivilDate) -> String {
        format!("{}-day-{date}", self.name)
    }

    /// The date quantum `day_index` covers.
    fn quantum_date(&self, day_index: usize) -> CivilDate {
        CivilDate::from_days_from_epoch(self.spec.start.days_from_epoch() + day_index as i64)
    }
}

/// Injected service death, for kill-and-recover tests: the whole service
/// stops accepting and running work the moment the kill fires, exactly as
/// if the process died. Campaign-day journals keep their durable prefix;
/// the control journal keeps every record already appended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillPoint {
    /// Die after this many quanta completed (before their control-record
    /// update lands — the worst recovery case).
    AfterQuanta(usize),
    /// Die *inside* quantum number `quantum` (1-based admission order) by
    /// arming the campaign-day journal to crash after `events` appends.
    MidQuantum {
        /// 1-based admission sequence number to strike.
        quantum: usize,
        /// Journal events to allow before the crash.
        events: usize,
    },
}

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Run-queue shards (also the admission worker thread count).
    pub shards: usize,
    /// The cluster whose cores back the worker [`BudgetPool`].
    pub cluster: ClusterSpec,
    /// Injected kill point (tests only).
    pub kill: Option<KillPoint>,
    /// Continuous ops plane (rolling windows, SLOs, fairness audit,
    /// health, ops log under `<root>/ops/`); `None` disables it.
    pub ops: Option<OpsConfig>,
}

impl ServiceConfig {
    /// A small deterministic config for tests: 4 shards over a 64-core
    /// tiny cluster, ops plane on with its small defaults.
    pub fn small() -> Self {
        Self {
            shards: 4,
            cluster: ClusterSpec::tiny(8),
            kill: None,
            ops: Some(OpsConfig::small()),
        }
    }
}

/// What [`CampaignService::open`] recovered from the control journal.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceRecovery {
    /// Control-journal events replayed.
    pub control_events: usize,
    /// Tenants recovered.
    pub tenants: usize,
    /// Campaigns re-queued (were queued or mid-flight at the kill).
    pub requeued: usize,
    /// Campaigns already completed.
    pub completed: usize,
    /// Campaigns parked paused.
    pub paused: usize,
    /// Campaigns terminally cancelled.
    pub cancelled: usize,
}

/// One admission, for fairness audits: quantum `seq` (global order) was
/// shard-local admission number `shard_seq` on `shard`.
#[derive(Debug, Clone, PartialEq)]
pub struct Admission {
    /// Global admission sequence (1-based).
    pub seq: usize,
    /// Shard that admitted it.
    pub shard: usize,
    /// Admission index within the shard (0-based).
    pub shard_seq: usize,
    /// Tenant admitted.
    pub tenant: String,
    /// Campaign admitted.
    pub campaign: String,
    /// Day index within the campaign.
    pub day_index: usize,
    /// Workers leased (post-clamp demand).
    pub workers: usize,
    /// The tenant's budget at admission time.
    pub budget_workers: usize,
}

/// Aggregate service state, derived from the control records.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Every campaign record, sorted by (tenant, name) — deterministic by
    /// the [`Ledger::list`] / BTreeMap ordering guarantee.
    pub campaigns: Vec<CampaignRecord>,
    /// Sum of per-campaign granules.
    pub granules: usize,
    /// Sum of per-campaign tile files.
    pub tile_files: usize,
    /// Sum of per-campaign tiles.
    pub total_tiles: f64,
    /// Sum of per-campaign labeled files.
    pub labeled_files: usize,
    /// Campaigns by terminal/parked status.
    pub completed: usize,
    /// Cancelled campaigns.
    pub cancelled: usize,
    /// Paused campaigns.
    pub paused: usize,
    /// Campaigns still queued or running.
    pub pending: usize,
    /// Quanta run by this service instance (not recovered ones).
    pub quanta: usize,
}

/// Control-plane state behind one mutex: the journal and the materialised
/// registry it encodes.
struct ControlPlane {
    journal: Journal<FileStorage>,
    tenants: BTreeMap<String, TenantSpec>,
    campaigns: BTreeMap<(String, String), CampaignRecord>,
    submit_seq: u64,
}

impl ControlPlane {
    fn record_tenant(&mut self, spec: &TenantSpec) -> Result<(), JournalError> {
        self.journal.append(JournalEvent::ServiceRecord {
            key: format!("tenant/{}", spec.id),
            value: spec.to_json(),
        })
    }

    fn record_campaign(&mut self, rec: &CampaignRecord) -> Result<(), JournalError> {
        self.journal.append(JournalEvent::ServiceRecord {
            key: CampaignRecord::key(&rec.tenant, &rec.name),
            value: rec.to_json(),
        })
    }
}

/// The multi-tenant campaign service. See the module docs for the
/// architecture; all methods take `&self` and are safe to call while
/// [`run_until_idle`] is draining on other threads.
///
/// [`run_until_idle`]: CampaignService::run_until_idle
pub struct CampaignService {
    root: PathBuf,
    config: ServiceConfig,
    obs: Arc<Obs>,
    pool: BudgetPool,
    control: Mutex<ControlPlane>,
    shards: Vec<Mutex<ShardQueue>>,
    tenant_ledgers: Mutex<BTreeMap<String, Arc<Ledger>>>,
    /// Wall-clock enqueue instants for time-to-first-granule.
    enqueued_at: Mutex<BTreeMap<(String, String), Instant>>,
    admissions: Mutex<Vec<Admission>>,
    shard_seqs: Vec<AtomicUsize>,
    quanta_admitted: AtomicUsize,
    quanta_done: AtomicUsize,
    halted: AtomicBool,
    /// Continuous ops plane (None when disabled). Lock order: the
    /// control mutex is never acquired while holding this one.
    ops: Option<Mutex<OpsPlane>>,
    /// Exclusive in-process locks on the control root and every tenant
    /// ledger root, held for the service lifetime: a second service over
    /// the same root gets a typed [`JournalError::Busy`].
    locks: Mutex<Vec<LedgerLock>>,
}

impl CampaignService {
    /// Open (or create) a service rooted at `root`, recovering every
    /// tenant and campaign the control journal records.
    pub fn open(
        root: impl AsRef<Path>,
        config: ServiceConfig,
    ) -> Result<(CampaignService, ServiceRecovery), ServiceError> {
        assert!(config.shards >= 1, "need at least one shard");
        let root = root.as_ref().to_path_buf();
        let obs = Obs::shared();
        let control_ledger = Ledger::new(root.join("control"))?.with_auto_compact(4);
        let control_lock = control_ledger.lock_exclusive()?;
        let (journal, recovery_report) = control_ledger.open("service")?;
        let state = journal.state().clone();

        let mut control = ControlPlane {
            journal,
            tenants: BTreeMap::new(),
            campaigns: BTreeMap::new(),
            submit_seq: 0,
        };
        let mut recovery = ServiceRecovery {
            control_events: recovery_report.events,
            ..ServiceRecovery::default()
        };
        for (key, value) in &state.service_records {
            if let Some(id) = key.strip_prefix("tenant/") {
                let spec = TenantSpec::from_json(value).map_err(ServiceError::Invalid)?;
                debug_assert_eq!(spec.id, id);
                control.tenants.insert(spec.id.clone(), spec);
            } else if key.starts_with("campaign/") {
                let rec = CampaignRecord::from_json(value).map_err(ServiceError::Invalid)?;
                control.submit_seq = control.submit_seq.max(rec.submit_seq + 1);
                control
                    .campaigns
                    .insert((rec.tenant.clone(), rec.name.clone()), rec);
            }
        }
        recovery.tenants = control.tenants.len();

        let pool = BudgetPool::from_spec(&config.cluster);
        let shards: Vec<Mutex<ShardQueue>> = (0..config.shards)
            .map(|_| Mutex::new(ShardQueue::new()))
            .collect();
        let mut locks = vec![control_lock];
        let mut ledgers = BTreeMap::new();
        for spec in control.tenants.values() {
            let ledger = Self::make_tenant_ledger(&root, &spec.id, &obs)?;
            locks.push(ledger.lock_exclusive()?);
            ledgers.insert(spec.id.clone(), Arc::new(ledger));
            shards[shard_of(&spec.id, config.shards)]
                .lock()
                .expect("shard poisoned")
                .ensure_tenant(&spec.id, spec.weight);
        }

        // Re-queue in submit order so recovery admission is deterministic.
        let mut requeue: Vec<&CampaignRecord> = Vec::new();
        for rec in control.campaigns.values() {
            match rec.status {
                CampaignStatus::Queued | CampaignStatus::Running => requeue.push(rec),
                CampaignStatus::Paused => recovery.paused += 1,
                CampaignStatus::Cancelled => recovery.cancelled += 1,
                CampaignStatus::Completed => recovery.completed += 1,
            }
        }
        requeue.sort_by_key(|r| r.submit_seq);
        let mut enqueued_at = BTreeMap::new();
        for rec in &requeue {
            let tenant = control
                .tenants
                .get(&rec.tenant)
                .ok_or_else(|| ServiceError::UnknownTenant(rec.tenant.clone()))?;
            shards[shard_of(&rec.tenant, config.shards)]
                .lock()
                .expect("shard poisoned")
                .enqueue(&rec.tenant, tenant.weight, &rec.name);
            enqueued_at.insert((rec.tenant.clone(), rec.name.clone()), Instant::now());
        }
        recovery.requeued = requeue.len();

        // Open the ops plane last: it rehydrates windows / SLO state /
        // audit tallies from `<root>/ops/` and logs the reopen, so a
        // restarted service continues the same operational history.
        let ops = match config.ops.clone() {
            Some(cfg) => {
                let mut plane = OpsPlane::open(&root.join("ops"), cfg)
                    .map_err(|e| ServiceError::Invalid(format!("ops plane: {e}")))?;
                plane.set_recovering(recovery.requeued > 0);
                plane.event(
                    "service_open",
                    json!({
                        "control_events": recovery.control_events as u64,
                        "tenants": recovery.tenants as u64,
                        "requeued": recovery.requeued as u64,
                        "completed": recovery.completed as u64,
                    }),
                );
                // Baseline verdict: always logged on open (recovery shows
                // up as a Degraded reason until the drain completes).
                let _ = plane.health();
                Some(Mutex::new(plane))
            }
            None => None,
        };

        let service = CampaignService {
            shard_seqs: (0..config.shards).map(|_| AtomicUsize::new(0)).collect(),
            root,
            config,
            obs,
            pool,
            control: Mutex::new(control),
            shards,
            tenant_ledgers: Mutex::new(ledgers),
            enqueued_at: Mutex::new(enqueued_at),
            admissions: Mutex::new(Vec::new()),
            quanta_admitted: AtomicUsize::new(0),
            quanta_done: AtomicUsize::new(0),
            halted: AtomicBool::new(false),
            ops,
            locks: Mutex::new(locks),
        };
        Ok((service, recovery))
    }

    fn make_tenant_ledger(
        root: &Path,
        tenant: &str,
        obs: &Arc<Obs>,
    ) -> Result<Ledger, JournalError> {
        Ok(Ledger::new(root.join("tenants").join(tenant))?
            .with_auto_compact(4)
            .with_obs(Arc::clone(obs)))
    }

    /// The shared observability hub all tenants report into.
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// The worker budget pool (capacity = cluster cores).
    pub fn pool(&self) -> &BudgetPool {
        &self.pool
    }

    /// Current health verdict, or `None` when the ops plane is disabled.
    /// Evaluating logs a `health` ops event iff the state changed.
    pub fn health(&self) -> Option<HealthReport> {
        self.with_ops(|ops| ops.health())
    }

    /// The ops plane directory (`<root>/ops`, next to the ledger root).
    pub fn ops_dir(&self) -> PathBuf {
        self.root.join("ops")
    }

    /// The full ops event history (rotated segments oldest-first), empty
    /// when the ops plane is disabled.
    pub fn ops_log(&self) -> Vec<OpsEvent> {
        self.with_ops(|ops| ops.events()).unwrap_or_default()
    }

    /// Log a pointer to a recorded run archive into the ops log (no-op
    /// when the ops plane is disabled). The archive itself lives
    /// wherever the recorder put it; the ops log only remembers where,
    /// so a later `eoml-obsctl diff` can find any historical run's
    /// frozen artifacts from the durable event history alone.
    pub fn record_archive_pointer(&self, path: &Path, meta: &eoml_obs::RunMeta) {
        self.with_ops(|ops| ops.record_archive(&path.display().to_string(), meta));
    }

    /// Rolled metric windows currently held in the ring (oldest first).
    pub fn ops_windows(&self) -> Vec<WindowDelta> {
        self.with_ops(|ops| ops.windows().windows().cloned().collect())
            .unwrap_or_default()
    }

    /// Live Jain's fairness index over weighted admissions.
    pub fn fairness(&self) -> Option<f64> {
        self.with_ops(|ops| ops.fairness()).flatten()
    }

    /// Run `f` under the ops-plane lock, if the plane is enabled.
    fn with_ops<R>(&self, f: impl FnOnce(&mut OpsPlane) -> R) -> Option<R> {
        self.ops
            .as_ref()
            .map(|o| f(&mut o.lock().expect("ops plane poisoned")))
    }

    /// Append a lifecycle event to the ops log, if enabled.
    fn ops_event(&self, kind: &str, data: Value) {
        self.with_ops(|ops| ops.event(kind, data));
    }

    /// Stages with live work: tenants owning at least one Running or
    /// Paused campaign. Paused counts as active on purpose — a parked
    /// whale should keep accruing (bad) SLO windows, which is exactly the
    /// induced-degradation signal the soak test exercises.
    fn active_stages(&self) -> BTreeSet<String> {
        self.lock_control()
            .campaigns
            .values()
            .filter(|r| matches!(r.status, CampaignStatus::Running | CampaignStatus::Paused))
            .map(|r| Self::tenant_stage(&r.tenant))
            .collect()
    }

    /// The obs stage label carrying one tenant's metrics.
    pub fn tenant_stage(tenant: &str) -> String {
        format!("tenant:{tenant}")
    }

    /// Register a tenant. Fails with [`ServiceError::DuplicateTenant`] if
    /// the id is taken and [`ServiceError::Invalid`] on bad specs
    /// (including budgets larger than the cluster).
    pub fn register_tenant(&self, spec: TenantSpec) -> Result<(), ServiceError> {
        spec.validate().map_err(ServiceError::Invalid)?;
        if spec.budget_workers > self.pool.capacity() {
            return Err(ServiceError::Invalid(format!(
                "tenant {:?}: budget {} exceeds cluster capacity {}",
                spec.id,
                spec.budget_workers,
                self.pool.capacity()
            )));
        }
        let mut control = self.lock_control();
        if control.tenants.contains_key(&spec.id) {
            return Err(ServiceError::DuplicateTenant(spec.id));
        }
        control.record_tenant(&spec)?;
        let ledger = Self::make_tenant_ledger(&self.root, &spec.id, &self.obs)?;
        self.locks
            .lock()
            .expect("locks poisoned")
            .push(ledger.lock_exclusive()?);
        self.tenant_ledgers
            .lock()
            .expect("ledgers poisoned")
            .insert(spec.id.clone(), Arc::new(ledger));
        self.shards[shard_of(&spec.id, self.config.shards)]
            .lock()
            .expect("shard poisoned")
            .ensure_tenant(&spec.id, spec.weight);
        self.obs.gauge_set(
            "budget_workers",
            &Self::tenant_stage(&spec.id),
            spec.budget_workers as f64,
        );
        let event = json!({
            "tenant": spec.id,
            "weight": spec.weight as u64,
            "budget_workers": spec.budget_workers as u64,
        });
        control.tenants.insert(spec.id.clone(), spec);
        drop(control);
        self.ops_event("tenant_registered", event);
        Ok(())
    }

    /// Registered tenants, sorted by id.
    pub fn tenants(&self) -> Vec<TenantSpec> {
        self.lock_control().tenants.values().cloned().collect()
    }

    /// Submit a campaign for `tenant`. The campaign is journaled as
    /// queued, its first quantum namespace is reserved in the tenant's
    /// ledger (a duplicate namespace on disk rejects the submit with a
    /// typed error), and it joins the tenant's shard queue.
    pub fn submit(
        &self,
        tenant: &str,
        campaign: &str,
        spec: CampaignSpec,
    ) -> Result<(), ServiceError> {
        check_campaign_name(campaign).map_err(ServiceError::Invalid)?;
        spec.validate().map_err(ServiceError::Invalid)?;
        let mut control = self.lock_control();
        let tenant_spec = control
            .tenants
            .get(tenant)
            .ok_or_else(|| ServiceError::UnknownTenant(tenant.to_string()))?
            .clone();
        let key = (tenant.to_string(), campaign.to_string());
        if control.campaigns.contains_key(&key) {
            return Err(ServiceError::DuplicateCampaign {
                tenant: tenant.to_string(),
                campaign: campaign.to_string(),
            });
        }
        let rec = CampaignRecord {
            tenant: tenant.to_string(),
            name: campaign.to_string(),
            spec,
            status: CampaignStatus::Queued,
            days_done: 0,
            submit_seq: control.submit_seq,
            totals: CampaignTotals::default(),
        };
        // Reserve the first quantum namespace on disk: a leftover journal
        // under the same name is a duplicate submit, rejected typed.
        let ledger = self.tenant_ledger(tenant)?;
        let (mut journal, _) = ledger.create(&rec.quantum_namespace(rec.spec.start))?;
        journal.append(JournalEvent::ServiceRecord {
            key: "reserved".into(),
            value: json!({ "tenant": tenant, "campaign": campaign }),
        })?;
        drop(journal);
        control.record_campaign(&rec)?;
        control.submit_seq += 1;
        control.campaigns.insert(key.clone(), rec);
        drop(control);
        let stage = Self::tenant_stage(tenant);
        let shard = shard_of(tenant, self.config.shards);
        let depth = {
            let mut q = self.shards[shard].lock().expect("shard poisoned");
            q.enqueue(tenant, tenant_spec.weight, campaign);
            q.tenant_depth(tenant)
        };
        self.enqueued_at
            .lock()
            .expect("enqueued poisoned")
            .insert(key, Instant::now());
        self.obs.counter_add("submitted", &stage, 1);
        self.obs.gauge_set("queue_depth", &stage, depth as f64);
        self.ops_event(
            "submit",
            json!({ "tenant": tenant, "campaign": campaign, "shard": shard as u64 }),
        );
        Ok(())
    }

    /// Pause a queued or running campaign. Running campaigns finish their
    /// current quantum, then park.
    pub fn pause(&self, tenant: &str, campaign: &str) -> Result<(), ServiceError> {
        self.transition(tenant, campaign, "pause", |status| match status {
            CampaignStatus::Queued | CampaignStatus::Running => Some(CampaignStatus::Paused),
            _ => None,
        })?;
        self.ops_event("pause", json!({ "tenant": tenant, "campaign": campaign }));
        Ok(())
    }

    /// Resume a paused campaign: back onto its shard queue.
    pub fn resume(&self, tenant: &str, campaign: &str) -> Result<(), ServiceError> {
        self.transition(tenant, campaign, "resume", |status| match status {
            CampaignStatus::Paused => Some(CampaignStatus::Queued),
            _ => None,
        })?;
        let weight = self
            .lock_control()
            .tenants
            .get(tenant)
            .map(|t| t.weight)
            .unwrap_or(1);
        self.shards[shard_of(tenant, self.config.shards)]
            .lock()
            .expect("shard poisoned")
            .enqueue(tenant, weight, campaign);
        self.enqueued_at
            .lock()
            .expect("enqueued poisoned")
            .insert((tenant.to_string(), campaign.to_string()), Instant::now());
        self.ops_event("resume", json!({ "tenant": tenant, "campaign": campaign }));
        Ok(())
    }

    /// Cancel a campaign: terminal, journaled, and its quantum namespaces
    /// are removed from the tenant's ledger (freeing their disk).
    pub fn cancel(&self, tenant: &str, campaign: &str) -> Result<(), ServiceError> {
        self.transition(tenant, campaign, "cancel", |status| match status {
            CampaignStatus::Queued | CampaignStatus::Running | CampaignStatus::Paused => {
                Some(CampaignStatus::Cancelled)
            }
            _ => None,
        })?;
        self.shards[shard_of(tenant, self.config.shards)]
            .lock()
            .expect("shard poisoned")
            .remove(tenant, campaign);
        // If a quantum is mid-flight on a shard worker, the worker removes
        // the namespaces when it observes the cancelled status; otherwise
        // clean up now.
        self.cleanup_campaign_namespaces(tenant, campaign)?;
        self.ops_event("cancel", json!({ "tenant": tenant, "campaign": campaign }));
        Ok(())
    }

    /// A campaign's current status.
    pub fn status(&self, tenant: &str, campaign: &str) -> Result<CampaignStatus, ServiceError> {
        self.lock_control()
            .campaigns
            .get(&(tenant.to_string(), campaign.to_string()))
            .map(|r| r.status)
            .ok_or_else(|| ServiceError::UnknownCampaign {
                tenant: tenant.to_string(),
                campaign: campaign.to_string(),
            })
    }

    /// Campaign records, sorted by (tenant, name); filter to one tenant
    /// with `Some(id)`. Ordering is deterministic across calls and
    /// restarts (BTreeMap + [`Ledger::list`] guarantees).
    pub fn list(&self, tenant: Option<&str>) -> Vec<CampaignRecord> {
        self.lock_control()
            .campaigns
            .values()
            .filter(|r| tenant.is_none_or(|t| r.tenant == t))
            .cloned()
            .collect()
    }

    /// The admission audit log (global order).
    pub fn admissions(&self) -> Vec<Admission> {
        self.admissions.lock().expect("admissions poisoned").clone()
    }

    /// The per-tenant [`ObsReport`] slice: only spans/metrics recorded
    /// under this tenant's stage label.
    pub fn tenant_report(&self, tenant: &str) -> ObsReport {
        ObsReport::for_stage_prefix(&self.obs, &Self::tenant_stage(tenant))
    }

    /// Aggregate report over every campaign record.
    pub fn service_report(&self) -> ServiceReport {
        let control = self.lock_control();
        let campaigns: Vec<CampaignRecord> = control.campaigns.values().cloned().collect();
        drop(control);
        let mut report = ServiceReport {
            granules: 0,
            tile_files: 0,
            total_tiles: 0.0,
            labeled_files: 0,
            completed: 0,
            cancelled: 0,
            paused: 0,
            pending: 0,
            quanta: self.quanta_done.load(Ordering::SeqCst),
            campaigns,
        };
        for rec in &report.campaigns {
            report.granules += rec.totals.granules;
            report.tile_files += rec.totals.tile_files;
            report.total_tiles += rec.totals.total_tiles;
            report.labeled_files += rec.totals.labeled_files;
            match rec.status {
                CampaignStatus::Completed => report.completed += 1,
                CampaignStatus::Cancelled => report.cancelled += 1,
                CampaignStatus::Paused => report.paused += 1,
                CampaignStatus::Queued | CampaignStatus::Running => report.pending += 1,
            }
        }
        report
    }

    /// Drain every shard on as many pool workers: each admits quanta by
    /// weighted round-robin until no runnable campaign remains (paused
    /// campaigns park; cancelled ones are skipped). Returns the aggregate
    /// report, or [`ServiceError::Killed`] when the configured kill point
    /// fired — reopen the service over the same root to recover.
    pub fn run_until_idle(&self) -> Result<ServiceReport, ServiceError> {
        if self.halted() {
            return Err(ServiceError::Killed);
        }
        let shards = self.config.shards;
        let drained = pool::run(
            shards,
            (0..shards).collect(),
            || (),
            |(), shard| self.drain_shard(shard),
            |_, ()| Ok(()),
        );
        if self.halted() {
            return Err(ServiceError::Killed);
        }
        drained?;
        // Quiesced cleanly: close out the partial window, clear the
        // recovery flag, and log the (possibly transitioned) health verdict
        // plus an idle marker.
        if self.ops.is_some() {
            let active = self.active_stages();
            self.with_ops(|ops| {
                ops.force_roll(self.obs.metrics(), &active);
                ops.set_recovering(false);
                let _ = ops.health();
                ops.event("idle", json!({}));
            });
        }
        Ok(self.service_report())
    }

    // ------------------------------------------------------------ internals

    fn lock_control(&self) -> std::sync::MutexGuard<'_, ControlPlane> {
        self.control.lock().expect("control poisoned")
    }

    fn halted(&self) -> bool {
        self.halted.load(Ordering::SeqCst)
    }

    fn halt(&self) {
        self.halted.store(true, Ordering::SeqCst);
    }

    fn tenant_ledger(&self, tenant: &str) -> Result<Arc<Ledger>, ServiceError> {
        self.tenant_ledgers
            .lock()
            .expect("ledgers poisoned")
            .get(tenant)
            .cloned()
            .ok_or_else(|| ServiceError::UnknownTenant(tenant.to_string()))
    }

    fn transition(
        &self,
        tenant: &str,
        campaign: &str,
        verb: &'static str,
        next: impl Fn(CampaignStatus) -> Option<CampaignStatus>,
    ) -> Result<(), ServiceError> {
        let mut control = self.lock_control();
        let key = (tenant.to_string(), campaign.to_string());
        let rec = control
            .campaigns
            .get(&key)
            .ok_or_else(|| ServiceError::UnknownCampaign {
                tenant: tenant.to_string(),
                campaign: campaign.to_string(),
            })?;
        let to = next(rec.status).ok_or_else(|| ServiceError::InvalidTransition {
            tenant: tenant.to_string(),
            campaign: campaign.to_string(),
            from: rec.status.as_str(),
            verb,
        })?;
        let mut rec = rec.clone();
        rec.status = to;
        control.record_campaign(&rec)?;
        control.campaigns.insert(key, rec);
        Ok(())
    }

    /// Remove every quantum namespace a campaign owns (exact date-derived
    /// names, so sibling campaigns sharing a prefix are untouched).
    fn cleanup_campaign_namespaces(
        &self,
        tenant: &str,
        campaign: &str,
    ) -> Result<(), ServiceError> {
        let rec = {
            let control = self.lock_control();
            match control
                .campaigns
                .get(&(tenant.to_string(), campaign.to_string()))
            {
                Some(rec) => rec.clone(),
                None => return Ok(()),
            }
        };
        let ledger = self.tenant_ledger(tenant)?;
        for date in rec.spec.start.iter_days(rec.spec.days) {
            match ledger.remove(&rec.quantum_namespace(date)) {
                Ok(()) => {}
                Err(JournalError::UnknownNamespace(_)) => {} // never ran
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }

    fn drain_shard(&self, shard: usize) -> Result<(), ServiceError> {
        loop {
            if self.halted() {
                return Ok(());
            }
            let next = self.shards[shard]
                .lock()
                .expect("shard poisoned")
                .admit_next();
            let Some((tenant, campaign)) = next else {
                return Ok(());
            };
            match self.run_quantum(shard, &tenant, &campaign) {
                Ok(()) => {}
                Err(ServiceError::Killed) => return Ok(()), // halted flag is set
                Err(e) => {
                    self.halt();
                    return Err(e);
                }
            }
        }
    }

    /// Run one admission quantum (one campaign day) end to end.
    fn run_quantum(&self, shard: usize, tenant: &str, campaign: &str) -> Result<(), ServiceError> {
        let stage = Self::tenant_stage(tenant);
        let key = (tenant.to_string(), campaign.to_string());

        // Admission: consult the control plane under its lock.
        let (rec, weight, budget) = {
            let mut control = self.lock_control();
            let Some(rec) = control.campaigns.get(&key) else {
                return Ok(()); // record vanished (should not happen) — skip
            };
            match rec.status {
                CampaignStatus::Paused | CampaignStatus::Cancelled | CampaignStatus::Completed => {
                    // Status changed after this campaign was queued; the
                    // pop already removed it from the queue, so parking or
                    // skipping is just "don't run, don't requeue".
                    return Ok(());
                }
                CampaignStatus::Queued | CampaignStatus::Running => {}
            }
            let tenant_spec = control
                .tenants
                .get(tenant)
                .ok_or_else(|| ServiceError::UnknownTenant(tenant.to_string()))?
                .clone();
            if rec.status == CampaignStatus::Queued {
                let mut running = rec.clone();
                running.status = CampaignStatus::Running;
                control.record_campaign(&running)?;
                control.campaigns.insert(key.clone(), running);
            }
            let rec = control.campaigns.get(&key).expect("just inserted").clone();
            (rec, tenant_spec.weight, tenant_spec.budget_workers)
        };

        let clamped = rec.spec.clamped_to(budget);
        let demand = clamped.worker_demand();
        let date = rec.quantum_date(rec.days_done);
        let namespace = rec.quantum_namespace(date);
        let seq = self.quanta_admitted.fetch_add(1, Ordering::SeqCst) + 1;
        let shard_seq = self.shard_seqs[shard].fetch_add(1, Ordering::SeqCst);
        self.admissions
            .lock()
            .expect("admissions poisoned")
            .push(Admission {
                seq,
                shard,
                shard_seq,
                tenant: tenant.to_string(),
                campaign: campaign.to_string(),
                day_index: rec.days_done,
                workers: demand,
                budget_workers: budget,
            });
        self.obs.counter_add("admitted", &stage, 1);
        self.obs
            .gauge_set("budget_utilization", &stage, demand as f64 / budget as f64);
        self.with_ops(|ops| {
            ops.record_audit(AuditRecord::Admission {
                tenant: tenant.to_string(),
                campaign: campaign.to_string(),
                day_index: rec.days_done,
                shard,
                workers: demand,
                weight: weight as u64,
            })
        });

        // Lease workers from the cluster pool (blocks until available),
        // then run the quantum through the single-day resumable driver.
        let lease = self
            .pool
            .acquire(demand)
            .map_err(|e| ServiceError::Invalid(e.to_string()))?;
        self.obs
            .observe("lease_wait_seconds", &stage, lease.wait_seconds());
        self.obs
            .gauge_set("pool_in_use", "pool", self.pool.in_use() as f64);
        self.obs
            .gauge_set("pool_outstanding", "pool", self.pool.outstanding() as f64);
        self.with_ops(|ops| {
            ops.record_audit(AuditRecord::LeaseAcquired {
                tenant: tenant.to_string(),
                campaign: campaign.to_string(),
                workers: demand,
                wait_s: lease.wait_seconds(),
                in_use: self.pool.in_use(),
            })
        });
        let ledger = self.tenant_ledger(tenant)?;
        let mut day_params = clamped.to_params();
        day_params.start = date;
        day_params.days = 1;

        let armed = match self.config.kill {
            Some(KillPoint::MidQuantum { quantum, events }) if quantum == seq => Some(events),
            _ => None,
        };
        // Per-quantum tick hook: observe the quantum's makespan into the
        // tenant's histogram the moment the day durably completes.
        let tick_obs = Arc::clone(&self.obs);
        let tick_stage = stage.clone();
        let tick = move |day: &DayRun| {
            tick_obs.observe("quantum_makespan_s", &tick_stage, day.report.makespan_s);
        };
        let day_run = {
            let _span = self.obs.span(&stage, "quantum");
            if let Some(events) = armed {
                // Injected mid-quantum death: arm the day journal, run the
                // driver directly, and treat the crash as process death.
                let (mut journal, _) = ledger.open(&namespace)?;
                journal.crash_after(events);
                match run_campaign_resumable(day_params.clone(), journal) {
                    Err(JournalError::Crashed) => {
                        self.halt();
                        return Err(ServiceError::Killed);
                    }
                    Err(e) => return Err(e.into()),
                    Ok(_) => {
                        // The kill point never fired (journal already past
                        // it); fall through via the normal path to compact
                        // and produce the DayRun bookkeeping.
                        run_day_in_namespace(&day_params, &ledger, &namespace, date, Some(&tick))?
                    }
                }
            } else {
                run_day_in_namespace(&day_params, &ledger, &namespace, date, Some(&tick))?
            }
        };
        drop(lease);
        self.obs
            .gauge_set("pool_in_use", "pool", self.pool.in_use() as f64);
        self.obs
            .gauge_set("pool_outstanding", "pool", self.pool.outstanding() as f64);
        self.with_ops(|ops| {
            ops.record_audit(AuditRecord::LeaseReleased {
                tenant: tenant.to_string(),
                campaign: campaign.to_string(),
                workers: demand,
            })
        });
        // Files the download pool gave up on after its retry budget are
        // lost science: fold them into the plane's running tally so
        // health degrades past the policy allowance.
        let abandoned = day_run.report.download.failed.len() as u64;
        if abandoned > 0 {
            self.with_ops(|ops| ops.record_abandoned(abandoned));
        }

        // Injected whole-service death between a quantum completing and
        // its control record landing — the worst-case recovery window.
        let done = self.quanta_done.fetch_add(1, Ordering::SeqCst) + 1;
        if let Some(KillPoint::AfterQuanta(n)) = self.config.kill {
            if done >= n {
                self.halt();
                return Err(ServiceError::Killed);
            }
        }

        // Completion: fold the day into the control record.
        let mut control = self.lock_control();
        let Some(rec) = control.campaigns.get(&key) else {
            return Ok(());
        };
        let mut rec = rec.clone();
        let report = &day_run.report;
        let first_granules = rec.totals.granules == 0 && report.granules > 0;
        rec.totals.granules += report.granules;
        rec.totals.tile_files += report.tile_files;
        rec.totals.total_tiles += report.total_tiles;
        rec.totals.labeled_files += report.labeled_files;
        rec.totals.makespan_s += report.makespan_s;
        rec.days_done += 1;
        let finished = rec.days_done >= rec.spec.days;
        let status_now = rec.status;
        if finished && status_now == CampaignStatus::Running {
            rec.status = CampaignStatus::Completed;
        }
        control.record_campaign(&rec)?;
        control.campaigns.insert(key.clone(), rec.clone());
        drop(control);

        self.obs
            .counter_add("granules", &stage, report.granules as u64);
        self.obs
            .counter_add("tiles", &stage, report.total_tiles.round() as u64);
        self.obs
            .counter_add("labeled_files", &stage, report.labeled_files as u64);
        if first_granules {
            if let Some(enqueued) = self
                .enqueued_at
                .lock()
                .expect("enqueued poisoned")
                .get(&key)
            {
                self.obs
                    .observe("ttfg_seconds", &stage, enqueued.elapsed().as_secs_f64());
            }
        }

        // Advance the ops clock by this quantum's makespan — *after* the
        // control record and counters landed, so a window never contains
        // work that a kill could still retract. Control lock first (in
        // active_stages), then the plane lock, never nested.
        if self.ops.is_some() {
            let active = self.active_stages();
            self.with_ops(|ops| {
                ops.tick(report.makespan_s, self.obs.metrics(), &active);
            });
        }

        match status_now {
            CampaignStatus::Cancelled => {
                // Cancelled while this quantum ran: finish cleanup now.
                self.cleanup_campaign_namespaces(tenant, campaign)?;
            }
            CampaignStatus::Paused => {} // parked; resume() re-queues
            _ if finished => {
                self.obs.counter_add("completed_campaigns", &stage, 1);
                self.obs.gauge_set(
                    "queue_depth",
                    &stage,
                    self.shards[shard]
                        .lock()
                        .expect("shard poisoned")
                        .tenant_depth(tenant) as f64,
                );
            }
            _ => {
                // More days to run: back to the front of the tenant queue.
                self.shards[shard]
                    .lock()
                    .expect("shard poisoned")
                    .requeue_front(tenant, weight, campaign);
            }
        }
        Ok(())
    }
}
