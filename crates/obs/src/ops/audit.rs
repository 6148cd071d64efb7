//! Scheduler audit records and live fairness index.
//!
//! Every WRR admission and budget lease the service performs is recorded
//! as an [`AuditRecord`] in the ops log, which is the forensic trail. The
//! [`AdmissionTallies`] keep only cumulative per-tenant admission counts;
//! they drive a live Jain's fairness index over *weighted* admissions:
//! with `x_i = admissions_i / weight_i`, `J = (Σx)² / (n · Σx²)` — 1.0 when every tenant gets
//! service exactly proportional to its weight, approaching `1/n` when a
//! single tenant monopolises the scheduler.

use std::collections::BTreeMap;

use serde_json::{json, Value};

/// One audited scheduler action.
#[derive(Debug, Clone, PartialEq)]
pub enum AuditRecord {
    /// The WRR picker admitted one campaign-day quantum for a tenant.
    Admission {
        /// Tenant id.
        tenant: String,
        /// Campaign id.
        campaign: String,
        /// Day index within the campaign (0-based).
        day_index: usize,
        /// Shard the admission came from.
        shard: usize,
        /// Workers requested from the budget pool.
        workers: usize,
        /// The tenant's WRR weight at admission time.
        weight: u64,
    },
    /// A budget lease was granted after `wait_s` of queueing.
    LeaseAcquired {
        /// Tenant id.
        tenant: String,
        /// Campaign id.
        campaign: String,
        /// Workers leased.
        workers: usize,
        /// Wall-clock seconds spent waiting for capacity.
        wait_s: f64,
        /// Pool workers in use after the grant.
        in_use: usize,
    },
    /// A budget lease was returned to the pool.
    LeaseReleased {
        /// Tenant id.
        tenant: String,
        /// Campaign id.
        campaign: String,
        /// Workers returned.
        workers: usize,
    },
}

impl AuditRecord {
    /// Durable JSON form (this is also the ops-log event payload).
    pub fn to_json(&self) -> Value {
        match self {
            AuditRecord::Admission {
                tenant,
                campaign,
                day_index,
                shard,
                workers,
                weight,
            } => json!({
                "kind": "admission",
                "tenant": tenant,
                "campaign": campaign,
                "day_index": *day_index as u64,
                "shard": *shard as u64,
                "workers": *workers as u64,
                "weight": *weight,
            }),
            AuditRecord::LeaseAcquired {
                tenant,
                campaign,
                workers,
                wait_s,
                in_use,
            } => json!({
                "kind": "lease_acquired",
                "tenant": tenant,
                "campaign": campaign,
                "workers": *workers as u64,
                "wait_s": *wait_s,
                "in_use": *in_use as u64,
            }),
            AuditRecord::LeaseReleased {
                tenant,
                campaign,
                workers,
            } => json!({
                "kind": "lease_released",
                "tenant": tenant,
                "campaign": campaign,
                "workers": *workers as u64,
            }),
        }
    }

    /// Parse the durable form.
    pub fn from_json(v: &Value) -> Result<AuditRecord, String> {
        let tenant = v["tenant"]
            .as_str()
            .ok_or("audit record missing tenant")?
            .to_string();
        let campaign = v["campaign"]
            .as_str()
            .ok_or("audit record missing campaign")?
            .to_string();
        match v["kind"].as_str() {
            Some("admission") => Ok(AuditRecord::Admission {
                tenant,
                campaign,
                day_index: v["day_index"].as_u64().unwrap_or(0) as usize,
                shard: v["shard"].as_u64().unwrap_or(0) as usize,
                workers: v["workers"].as_u64().unwrap_or(0) as usize,
                weight: v["weight"].as_u64().unwrap_or(1),
            }),
            Some("lease_acquired") => Ok(AuditRecord::LeaseAcquired {
                tenant,
                campaign,
                workers: v["workers"].as_u64().unwrap_or(0) as usize,
                wait_s: v["wait_s"].as_f64().unwrap_or(0.0),
                in_use: v["in_use"].as_u64().unwrap_or(0) as usize,
            }),
            Some("lease_released") => Ok(AuditRecord::LeaseReleased {
                tenant,
                campaign,
                workers: v["workers"].as_u64().unwrap_or(0) as usize,
            }),
            other => Err(format!("unknown audit record kind {other:?}")),
        }
    }
}

/// Cumulative per-tenant admission tallies for the fairness index.
#[derive(Debug, Default)]
pub(crate) struct AdmissionTallies {
    /// Per tenant: (admissions, last observed weight).
    tallies: BTreeMap<String, (u64, u64)>,
}

impl AdmissionTallies {
    /// Count one admission of `tenant` at its current WRR `weight`.
    pub(crate) fn admit(&mut self, tenant: &str, weight: u64) {
        let entry = self.tallies.entry(tenant.to_string()).or_insert((0, 1));
        entry.0 += 1;
        entry.1 = weight.max(1);
    }

    /// Total admissions recorded across all tenants.
    pub(crate) fn total_admissions(&self) -> u64 {
        self.tallies.values().map(|(n, _)| *n).sum()
    }

    /// Jain's fairness index over weight-normalised admissions, or `None`
    /// until at least one tenant has been admitted.
    pub(crate) fn fairness_jain(&self) -> Option<f64> {
        let xs: Vec<f64> = self
            .tallies
            .values()
            .filter(|(n, _)| *n > 0)
            .map(|(n, w)| *n as f64 / (*w).max(1) as f64)
            .collect();
        if xs.is_empty() {
            return None;
        }
        let sum: f64 = xs.iter().sum();
        let sum_sq: f64 = xs.iter().map(|x| x * x).sum();
        if sum_sq <= 0.0 {
            return None;
        }
        Some((sum * sum) / (xs.len() as f64 * sum_sq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jain_index_is_one_for_weight_proportional_service() {
        let mut tallies = AdmissionTallies::default();
        assert_eq!(tallies.fairness_jain(), None);
        // Weight 1 gets 2 admissions, weight 2 gets 4: x = 2 for both.
        for _ in 0..2 {
            tallies.admit("a", 1);
        }
        for _ in 0..4 {
            tallies.admit("b", 2);
        }
        let j = tallies.fairness_jain().unwrap();
        assert!((j - 1.0).abs() < 1e-9, "J = {j}");
        assert_eq!(tallies.total_admissions(), 6);
    }

    #[test]
    fn monopoly_drags_the_index_toward_one_over_n() {
        let mut tallies = AdmissionTallies::default();
        tallies.admit("starved", 1);
        for _ in 0..50 {
            tallies.admit("hog", 1);
        }
        let j = tallies.fairness_jain().unwrap();
        assert!(j < 0.6, "J = {j}");
    }

    #[test]
    fn records_round_trip_through_json() {
        let records = vec![
            AuditRecord::Admission {
                tenant: "t-1".to_string(),
                campaign: "t-1-c".to_string(),
                day_index: 0,
                shard: 0,
                workers: 4,
                weight: 3,
            },
            AuditRecord::LeaseAcquired {
                tenant: "t-1".to_string(),
                campaign: "c".to_string(),
                workers: 8,
                wait_s: 0.25,
                in_use: 12,
            },
            AuditRecord::LeaseReleased {
                tenant: "t-1".to_string(),
                campaign: "c".to_string(),
                workers: 8,
            },
        ];
        for r in records {
            assert_eq!(AuditRecord::from_json(&r.to_json()).unwrap(), r);
        }
        assert!(AuditRecord::from_json(&json!({"kind": "bogus"})).is_err());
    }
}
