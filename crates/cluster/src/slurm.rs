//! A Slurm-like block provider.
//!
//! Parsl's `SlurmProvider` requests *blocks* of nodes from the batch
//! scheduler and starts workers on them. This module models the part the
//! paper measures — allocation latency (node spin-up is part of the 32.8 s
//! preprocessing latency in Fig. 7) and node accounting — while excluding
//! batch-queue wait time, exactly as the paper's measurements do ("excludes
//! the queue wait time").

use eoml_simtime::Simulation;
use eoml_util::rng::{Rng64, Xoshiro256};
use std::collections::HashMap;
use std::time::Duration;

eoml_util::typed_id!(
    /// Identifier of an allocated block of nodes.
    BlockId,
    "block"
);

/// Errors from block requests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SlurmError {
    /// Not enough free nodes.
    InsufficientNodes {
        /// Nodes requested.
        requested: usize,
        /// Nodes currently free.
        free: usize,
    },
    /// Unknown block id (double release).
    UnknownBlock,
}

impl std::fmt::Display for SlurmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SlurmError::InsufficientNodes { requested, free } => {
                write!(f, "requested {requested} nodes but only {free} free")
            }
            SlurmError::UnknownBlock => write!(f, "unknown block id"),
        }
    }
}

impl std::error::Error for SlurmError {}

/// The provider: tracks free nodes and grants blocks after a startup delay.
#[derive(Debug)]
pub struct SlurmProvider {
    free: Vec<usize>,
    blocks: HashMap<u64, Vec<usize>>,
    next_id: u64,
    /// Mean node spin-up latency.
    pub startup_mean: Duration,
    rng: Xoshiro256,
}

impl SlurmProvider {
    /// Provider over `total_nodes` nodes with ~2 s mean block startup.
    pub fn new(total_nodes: usize, seed: u64) -> Self {
        Self {
            free: (0..total_nodes).rev().collect(),
            blocks: HashMap::new(),
            next_id: 1,
            startup_mean: Duration::from_secs(2),
            rng: Xoshiro256::seed_from(seed ^ 0x0051_D277),
        }
    }

    /// Number of currently free nodes.
    pub fn free_nodes(&self) -> usize {
        self.free.len()
    }

    /// Synchronously reserve `n` nodes; returns the block id and node list.
    /// Use [`request_block`] for the full async grant with startup latency.
    pub fn allocate(&mut self, n: usize) -> Result<(BlockId, Vec<usize>), SlurmError> {
        if self.free.len() < n {
            return Err(SlurmError::InsufficientNodes {
                requested: n,
                free: self.free.len(),
            });
        }
        let nodes: Vec<usize> = (0..n).map(|_| self.free.pop().expect("checked")).collect();
        let id = self.next_id;
        self.next_id += 1;
        self.blocks.insert(id, nodes.clone());
        Ok((BlockId::from_raw(id), nodes))
    }

    /// Release a block's nodes back to the free pool.
    pub fn release(&mut self, block: BlockId) -> Result<(), SlurmError> {
        let nodes = self
            .blocks
            .remove(&block.raw())
            .ok_or(SlurmError::UnknownBlock)?;
        self.free.extend(nodes);
        Ok(())
    }

    /// Sample a startup latency for a new block (lognormal, ±40 %).
    pub fn sample_startup(&mut self) -> Duration {
        Duration::from_secs_f64(
            self.rng
                .lognormal_mean_cv(self.startup_mean.as_secs_f64(), 0.4),
        )
    }
}

/// Asynchronously request a block of `n` nodes: reserved immediately,
/// granted (callback) after the sampled startup latency — mirroring the
/// paper's "Parsl Slurm provider automatically allocates blocks of compute
/// nodes".
pub fn request_block<S: 'static>(
    sim: &mut Simulation<S>,
    provider: impl Fn(&mut S) -> &mut SlurmProvider + Copy + 'static,
    n: usize,
    on_granted: impl FnOnce(&mut Simulation<S>, BlockId, Vec<usize>) + 'static,
) -> Result<(), SlurmError> {
    let (id, nodes) = provider(sim.state_mut()).allocate(n)?;
    let delay = provider(sim.state_mut()).sample_startup();
    sim.schedule_in(delay, move |sim| {
        on_granted(sim, id, nodes);
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_and_release() {
        let mut p = SlurmProvider::new(10, 1);
        assert_eq!(p.free_nodes(), 10);
        let (b1, n1) = p.allocate(4).unwrap();
        assert_eq!(n1.len(), 4);
        assert_eq!(p.free_nodes(), 6);
        let (b2, n2) = p.allocate(6).unwrap();
        assert_eq!(p.free_nodes(), 0);
        // Nodes are disjoint.
        for n in &n1 {
            assert!(!n2.contains(n));
        }
        assert_eq!(
            p.allocate(1).unwrap_err(),
            SlurmError::InsufficientNodes {
                requested: 1,
                free: 0
            }
        );
        p.release(b1).unwrap();
        assert_eq!(p.free_nodes(), 4);
        p.release(b2).unwrap();
        assert_eq!(p.free_nodes(), 10);
        assert_eq!(p.release(b2).unwrap_err(), SlurmError::UnknownBlock);
    }

    #[test]
    fn startup_latency_is_positive_and_deterministic() {
        let mut a = SlurmProvider::new(4, 7);
        let mut b = SlurmProvider::new(4, 7);
        for _ in 0..10 {
            let da = a.sample_startup();
            let db = b.sample_startup();
            assert_eq!(da, db);
            assert!(da > Duration::ZERO);
            assert!(da < Duration::from_secs(20));
        }
    }

    #[test]
    fn async_request_grants_after_delay() {
        struct St {
            slurm: SlurmProvider,
            granted: Option<(BlockId, Vec<usize>, f64)>,
        }
        let mut sim = Simulation::new(St {
            slurm: SlurmProvider::new(8, 3),
            granted: None,
        });
        request_block(
            &mut sim,
            |s: &mut St| &mut s.slurm,
            3,
            |sim, id, nodes| {
                let t = sim.now().as_secs_f64();
                sim.state_mut().granted = Some((id, nodes, t));
            },
        )
        .unwrap();
        // Reserved immediately.
        assert_eq!(sim.state().slurm.free_nodes(), 5);
        assert!(sim.state().granted.is_none());
        sim.run();
        let (_, nodes, t) = sim.state().granted.clone().expect("granted");
        assert_eq!(nodes.len(), 3);
        assert!(t > 0.5 && t < 10.0, "startup at {t}");
    }

    #[test]
    fn request_more_than_cluster_fails_fast() {
        struct St {
            slurm: SlurmProvider,
        }
        let mut sim = Simulation::new(St {
            slurm: SlurmProvider::new(2, 3),
        });
        let err = request_block(&mut sim, |s: &mut St| &mut s.slurm, 5, |_, _, _| {}).unwrap_err();
        assert_eq!(
            err,
            SlurmError::InsufficientNodes {
                requested: 5,
                free: 2
            }
        );
    }
}
