//! Sharded run queues with smooth weighted-round-robin admission.
//!
//! Tenants hash onto a fixed shard (FNV-1a over the tenant id), so one
//! tenant's campaigns are totally ordered by a single shard worker and
//! never race each other's journals. Within a shard, admission across
//! tenants uses *smooth* weighted round-robin (the nginx variant): every
//! pick adds each runnable tenant's weight to its running credit, admits
//! the tenant with the highest credit, then subtracts the total active
//! weight from the winner. A weight-`w` tenant gets `w` of every
//! `total_weight` quanta, interleaved rather than bursted — which is what
//! bounds every tenant's queue wait even when whale campaigns share the
//! shard. Ties break by tenant id, so admission order is deterministic.

use std::collections::{BTreeMap, VecDeque};

/// FNV-1a over the tenant id: stable across runs, platforms, and restarts
/// (shard assignment is part of the service's recovery contract).
pub fn shard_of(tenant: &str, shards: usize) -> usize {
    (eoml_util::hash::fnv1a64(tenant.as_bytes()) % shards.max(1) as u64) as usize
}

/// Per-tenant state inside one shard.
#[derive(Debug)]
struct TenantSlot {
    weight: u32,
    /// Smooth-WRR running credit.
    credit: i64,
    /// Campaigns awaiting admission, FIFO per tenant.
    queue: VecDeque<String>,
}

/// One shard's admission queue.
#[derive(Debug, Default)]
pub struct ShardQueue {
    tenants: BTreeMap<String, TenantSlot>,
}

impl ShardQueue {
    /// Empty shard.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or re-weight) a tenant on this shard.
    pub fn ensure_tenant(&mut self, tenant: &str, weight: u32) {
        self.tenants
            .entry(tenant.to_string())
            .and_modify(|slot| slot.weight = weight)
            .or_insert(TenantSlot {
                weight,
                credit: 0,
                queue: VecDeque::new(),
            });
    }

    /// Append a campaign to the back of a tenant's queue.
    pub fn enqueue(&mut self, tenant: &str, weight: u32, campaign: &str) {
        self.ensure_tenant(tenant, weight);
        self.tenants
            .get_mut(tenant)
            .expect("just ensured")
            .queue
            .push_back(campaign.to_string());
    }

    /// Put a campaign back at the *front* of its tenant's queue (it has
    /// more quanta to run and must stay ahead of later submissions), but
    /// do not grant credit — the tenant rejoins the WRR cycle normally.
    pub fn requeue_front(&mut self, tenant: &str, weight: u32, campaign: &str) {
        self.ensure_tenant(tenant, weight);
        self.tenants
            .get_mut(tenant)
            .expect("just ensured")
            .queue
            .push_front(campaign.to_string());
    }

    /// Drop one queued campaign (cancellation); returns whether it was
    /// present.
    pub fn remove(&mut self, tenant: &str, campaign: &str) -> bool {
        match self.tenants.get_mut(tenant) {
            Some(slot) => {
                let before = slot.queue.len();
                slot.queue.retain(|c| c != campaign);
                before != slot.queue.len()
            }
            None => false,
        }
    }

    /// Campaigns queued across all tenants.
    pub fn depth(&self) -> usize {
        self.tenants.values().map(|t| t.queue.len()).sum()
    }

    /// Campaigns queued for one tenant.
    pub fn tenant_depth(&self, tenant: &str) -> usize {
        self.tenants.get(tenant).map_or(0, |t| t.queue.len())
    }

    /// Admit the next quantum: smooth weighted round-robin across tenants
    /// with non-empty queues. Returns `(tenant, campaign)` or `None` when
    /// the shard is drained.
    pub fn admit_next(&mut self) -> Option<(String, String)> {
        let total: i64 = self
            .tenants
            .values()
            .filter(|t| !t.queue.is_empty())
            .map(|t| t.weight as i64)
            .sum();
        if total == 0 {
            return None;
        }
        let mut best: Option<(&String, i64)> = None;
        for (id, slot) in self.tenants.iter_mut() {
            if slot.queue.is_empty() {
                continue;
            }
            slot.credit += slot.weight as i64;
            // Strict `>` keeps ties on the lexicographically first tenant
            // (BTreeMap iteration order), so admission is deterministic.
            if best.is_none_or(|(_, credit)| slot.credit > credit) {
                best = Some((id, slot.credit));
            }
        }
        let winner = best.expect("total > 0 implies a runnable tenant").0.clone();
        let slot = self.tenants.get_mut(&winner).expect("winner exists");
        slot.credit -= total;
        let campaign = slot.queue.pop_front().expect("winner queue non-empty");
        Some((winner, campaign))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_hash_is_stable_and_spreads() {
        assert_eq!(shard_of("acme", 8), shard_of("acme", 8));
        // Pinned: placement is part of the recovery contract.
        assert_eq!(shard_of("tenant-7", 16), 13);
        assert_eq!(shard_of("alpha", 8), 3);
        let hits: std::collections::BTreeSet<usize> = (0..64)
            .map(|i| shard_of(&format!("tenant-{i}"), 8))
            .collect();
        assert!(hits.len() >= 6, "poor spread: {hits:?}");
        assert_eq!(shard_of("anything", 1), 0);
    }

    #[test]
    fn equal_weights_admit_round_robin() {
        let mut q = ShardQueue::new();
        for t in ["a", "b", "c"] {
            for i in 0..2 {
                q.enqueue(t, 1, &format!("{t}-camp-{i}"));
            }
        }
        let order: Vec<String> = std::iter::from_fn(|| q.admit_next())
            .map(|(t, _)| t)
            .collect();
        assert_eq!(order, vec!["a", "b", "c", "a", "b", "c"]);
    }

    #[test]
    fn weights_interleave_smoothly() {
        let mut q = ShardQueue::new();
        for i in 0..10 {
            q.enqueue("whale", 4, &format!("w-{i}"));
        }
        for t in ["s1", "s2"] {
            q.enqueue(t, 1, &format!("{t}-0"));
        }
        let order: Vec<String> = std::iter::from_fn(|| q.admit_next())
            .map(|(t, _)| t)
            .collect();
        // Small tenants are served within one weighted cycle (6 quanta),
        // not starved behind the whale's backlog.
        let s1 = order.iter().position(|t| t == "s1").unwrap();
        let s2 = order.iter().position(|t| t == "s2").unwrap();
        assert!(s1 < 6 && s2 < 6, "small tenants starved: {order:?}");
        // And the whale still gets its 4-of-6 share up front.
        assert_eq!(order.iter().take(6).filter(|t| *t == "whale").count(), 4);
    }

    #[test]
    fn requeue_front_keeps_campaign_order_per_tenant() {
        let mut q = ShardQueue::new();
        q.enqueue("a", 1, "first");
        q.enqueue("a", 1, "second");
        let (_, c) = q.admit_next().unwrap();
        assert_eq!(c, "first");
        q.requeue_front("a", 1, "first");
        assert_eq!(q.admit_next().unwrap().1, "first");
        assert_eq!(q.admit_next().unwrap().1, "second");
        assert!(q.admit_next().is_none());
    }

    #[test]
    fn remove_drops_only_the_named_campaign() {
        let mut q = ShardQueue::new();
        q.enqueue("a", 1, "one");
        q.enqueue("a", 1, "two");
        assert!(q.remove("a", "one"));
        assert!(!q.remove("a", "one"));
        assert!(!q.remove("ghost", "x"));
        assert_eq!(q.depth(), 1);
        assert_eq!(q.admit_next().unwrap().1, "two");
    }
}
