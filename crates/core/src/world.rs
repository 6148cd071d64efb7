//! The composed simulation state: every substrate in one world.

use crate::provenance::ProvenanceLog;
use crate::telemetry::Telemetry;
use eoml_cluster::contention::ContentionModel;
use eoml_cluster::exec::{ClusterModel, HasCluster};
use eoml_cluster::slurm::SlurmProvider;
use eoml_cluster::spec::ClusterSpec;
use eoml_compute::launch::LaunchModel;
use eoml_flows::trigger::VirtualCrawler;
use eoml_simtime::Simulation;
use eoml_transfer::endpoint::Endpoint;
use eoml_transfer::faults::FaultPlan;
use eoml_transfer::flownet::{FlowNetwork, HasNetwork};
use eoml_util::rng::Xoshiro256;

/// All simulated facilities and services, threaded through one
/// discrete-event simulation. `eoml-transfer` and `eoml-cluster` reach
/// their embedded models via the [`HasNetwork`]/[`HasCluster`] traits.
pub struct World {
    /// The WAN/LAN flow network (LAADS ↔ Defiant ↔ Frontier).
    pub net: FlowNetwork<World>,
    /// The virtual Defiant cluster.
    pub cluster: ClusterModel<World>,
    /// The Slurm block provider over the cluster's nodes.
    pub slurm: SlurmProvider,
    /// Stage-3 monitor state.
    pub crawler: VirtualCrawler,
    /// Campaign instrumentation.
    pub telemetry: Telemetry,
    /// Artifact lineage (W3C-PROV-style).
    pub provenance: ProvenanceLog,
    /// World RNG (split off for per-component streams).
    pub rng: Xoshiro256,
    /// Globus-Compute-style launch latency model.
    pub launch: LaunchModel,
    /// Globus-Flows action-transition overhead model.
    pub flow_overhead: LaunchModel,
}

impl World {
    /// Build the standard three-facility world from a seed.
    ///
    /// Endpoints: `laads` (archive), `ace-defiant` (compute + its file
    /// system) and `frontier-orion` (analysis destination). The cluster is
    /// Defiant's spec with the Table-I-calibrated contention model.
    pub fn new(seed: u64, fault_plan: FaultPlan) -> Self {
        let mut net = FlowNetwork::new(seed, fault_plan);
        net.add_endpoint(Endpoint::laads());
        net.add_endpoint(Endpoint::ace_defiant());
        net.add_endpoint(Endpoint::frontier_orion());
        let spec = ClusterSpec::defiant();
        let nodes = spec.nodes;
        Self {
            net,
            cluster: ClusterModel::new(spec, ContentionModel::defiant(), seed),
            slurm: SlurmProvider::new(nodes, seed),
            crawler: VirtualCrawler::new(),
            telemetry: Telemetry::new(),
            provenance: ProvenanceLog::new(),
            rng: Xoshiro256::seed_from(seed ^ 0x000E_0A11),
            launch: LaunchModel::globus_compute(seed),
            flow_overhead: LaunchModel::flows_action(seed),
        }
    }
}

/// A pool's activity listener feeding `stage`'s worker timeline.
pub(crate) fn stage_activity(stage: &'static str) -> impl Fn(&mut Simulation<World>, usize) {
    move |sim, active| {
        let now = sim.now();
        sim.state_mut()
            .telemetry
            .activity_change(stage, now, active);
    }
}

impl HasNetwork for World {
    fn network(&mut self) -> &mut FlowNetwork<World> {
        &mut self.net
    }
}

impl HasCluster for World {
    fn cluster(&mut self) -> &mut ClusterModel<World> {
        &mut self.cluster
    }
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("net", &self.net)
            .field("cluster", &self.cluster)
            .field("slurm_free_nodes", &self.slurm.free_nodes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eoml_transfer::flownet::start_flow;
    use eoml_util::units::ByteSize;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn world_composes_endpoints_and_cluster() {
        let w = World::new(1, FaultPlan::none());
        assert!(w.net.endpoint("laads").is_some());
        assert!(w.net.endpoint("ace-defiant").is_some());
        assert!(w.net.endpoint("frontier-orion").is_some());
        assert_eq!(w.slurm.free_nodes(), 36);
        assert_eq!(w.cluster.spec().nodes, 36);
    }

    #[test]
    fn network_and_cluster_share_one_simulation() {
        // A flow and a cluster task run concurrently in the same sim.
        let mut sim = Simulation::new(World::new(2, FaultPlan::none()));
        let done = Rc::new(RefCell::new(Vec::new()));
        let d1 = Rc::clone(&done);
        start_flow(
            &mut sim,
            "laads",
            "ace-defiant",
            ByteSize::mb(90),
            move |sim, _| {
                d1.borrow_mut().push(("flow", sim.now().as_secs_f64()));
            },
        );
        let d2 = Rc::clone(&done);
        eoml_cluster::exec::submit_task(&mut sim, 0, 150.0, move |sim| {
            d2.borrow_mut().push(("task", sim.now().as_secs_f64()));
        });
        sim.run();
        let done = done.borrow();
        assert_eq!(done.len(), 2);
        assert!(done.iter().all(|&(_, t)| t > 0.0));
    }
}
