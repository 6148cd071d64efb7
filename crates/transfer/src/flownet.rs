//! A max-min fair-share flow network inside the discrete-event simulation.
//!
//! Every byte that moves between facilities — LAADS downloads, NetCDF
//! shipment — is a *flow* here. Active flows share link capacity by max-min
//! fairness (progressive filling) over three constraint kinds: the source's
//! egress link, the destination's ingress link, and the per-flow stream cap.
//! Whenever the active set changes, all flows' progress is advanced, rates
//! are recomputed, and the single "next completion" event is rescheduled —
//! the standard fluid-flow network technique, exact for piecewise-constant
//! rates.
//!
//! Active flows are kept in the order they started moving bytes, and flows
//! that finish in the same event fire their callbacks in that order, so a
//! run does not depend on hashing. Each flow's stream cap is fixed when it
//! starts, and the filling scratch and the due-callback buffer are kept
//! across events, so a rate change allocates nothing.
//!
//! The network is generic over the simulation state `S`; the host state
//! implements [`HasNetwork`] to expose its embedded [`FlowNetwork`], which
//! lets one simulation compose the network with the cluster and workflow
//! models (as `eoml-core` does).

use crate::endpoint::Endpoint;
use crate::faults::{FaultPlan, FlowOutcome};
use eoml_simtime::{EventHandle, SimTime, Simulation};
use eoml_util::rng::{Rng64, Xoshiro256};
use eoml_util::units::ByteSize;
use std::time::Duration;

eoml_util::typed_id!(
    /// Identifier of a flow (unique per network).
    FlowId,
    "flow"
);

/// Implemented by simulation states that embed a [`FlowNetwork`].
pub trait HasNetwork: Sized + 'static {
    /// Access the embedded network.
    fn network(&mut self) -> &mut FlowNetwork<Self>;
}

type CompletionFn<S> = Box<dyn FnOnce(&mut Simulation<S>, FlowOutcome)>;

struct Flow<S> {
    src: usize,
    dst: usize,
    /// Per-flow stream cap, bytes/s: the smaller of the two endpoints'.
    cap: f64,
    /// Bytes still to move before this attempt ends.
    remaining: f64,
    /// Current fair-share rate, bytes/s.
    rate: f64,
    /// Outcome to report when the attempt ends (pre-sampled).
    outcome: FlowOutcome,
    on_complete: CompletionFn<S>,
}

/// The flow network: endpoints plus currently active flows.
pub struct FlowNetwork<S> {
    endpoints: Vec<Endpoint>,
    /// Active flows, in the order they started moving bytes.
    flows: Vec<Flow<S>>,
    next_id: u64,
    completion_event: Option<EventHandle>,
    last_progress: SimTime,
    fault_plan: FaultPlan,
    rng: Xoshiro256,
    bytes_delivered: f64,
    /// Progressive-filling scratch, kept across events: remaining egress
    /// and ingress capacity per endpoint, their unassigned users this
    /// round, and whether each flow has its rate yet.
    egress: Vec<f64>,
    ingress: Vec<f64>,
    egress_users: Vec<usize>,
    ingress_users: Vec<usize>,
    assigned: Vec<bool>,
    /// Callbacks of the flows ending in one completion event.
    due: Vec<(CompletionFn<S>, FlowOutcome)>,
}

impl<S> std::fmt::Debug for FlowNetwork<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlowNetwork")
            .field("endpoints", &self.endpoints.len())
            .field("active_flows", &self.flows.len())
            .field("bytes_delivered", &self.bytes_delivered)
            .finish()
    }
}

impl<S> FlowNetwork<S> {
    /// Empty network with the given world seed and fault plan.
    pub fn new(seed: u64, fault_plan: FaultPlan) -> Self {
        Self {
            endpoints: Vec::new(),
            flows: Vec::new(),
            next_id: 1,
            completion_event: None,
            last_progress: SimTime::ZERO,
            fault_plan,
            rng: Xoshiro256::seed_from(seed ^ 0x7AAF_F10A),
            bytes_delivered: 0.0,
            egress: Vec::new(),
            ingress: Vec::new(),
            egress_users: Vec::new(),
            ingress_users: Vec::new(),
            assigned: Vec::new(),
            due: Vec::new(),
        }
    }

    /// Register an endpoint; names must be unique.
    pub fn add_endpoint(&mut self, ep: Endpoint) {
        assert!(
            self.index_of(&ep.name).is_none(),
            "duplicate endpoint {:?}",
            ep.name
        );
        self.endpoints.push(ep);
    }

    /// Position of the endpoint called `name` (a network has a handful).
    fn index_of(&self, name: &str) -> Option<usize> {
        self.endpoints.iter().position(|e| e.name == name)
    }

    /// Look up an endpoint by name.
    pub fn endpoint(&self, name: &str) -> Option<&Endpoint> {
        self.index_of(name).map(|i| &self.endpoints[i])
    }

    /// Number of currently active flows.
    pub fn active_flows(&self) -> usize {
        self.flows.len()
    }

    /// Total bytes successfully delivered so far.
    pub fn bytes_delivered(&self) -> ByteSize {
        ByteSize::bytes(self.bytes_delivered as u64)
    }

    /// Advance all flows' progress to `now`.
    fn progress_to(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last_progress).as_secs_f64();
        if dt > 0.0 {
            for flow in &mut self.flows {
                flow.remaining = (flow.remaining - flow.rate * dt).max(0.0);
            }
        }
        self.last_progress = now;
    }

    /// Max-min fair share (progressive filling) over egress, ingress and
    /// per-flow caps, visiting flows in start order.
    fn recompute_rates(&mut self) {
        if self.flows.is_empty() {
            return;
        }
        let links = self.endpoints.len();
        // Remaining capacity per endpoint link.
        self.egress.clear();
        self.egress
            .extend(self.endpoints.iter().map(|e| e.egress.as_bytes_per_sec()));
        self.ingress.clear();
        self.ingress
            .extend(self.endpoints.iter().map(|e| e.ingress.as_bytes_per_sec()));
        self.assigned.clear();
        self.assigned.resize(self.flows.len(), false);
        let (egress, ingress) = (&mut self.egress, &mut self.ingress);
        let mut unassigned = self.flows.len();

        while unassigned > 0 {
            // Fair share offered by each saturating constraint.
            self.egress_users.clear();
            self.egress_users.resize(links, 0);
            self.ingress_users.clear();
            self.ingress_users.resize(links, 0);
            let (egress_users, ingress_users) = (&mut self.egress_users, &mut self.ingress_users);
            let open = || {
                self.flows
                    .iter()
                    .zip(self.assigned.iter())
                    .filter(|(_, &done)| !done)
                    .map(|(f, _)| f)
            };
            for f in open() {
                egress_users[f.src] += 1;
                ingress_users[f.dst] += 1;
            }
            // The binding increment: the smallest of (a) any flow's own cap,
            // (b) any link's equal share among its unassigned flows.
            let mut limit = f64::INFINITY;
            for f in open() {
                limit = limit
                    .min(f.cap)
                    .min(egress[f.src] / egress_users[f.src] as f64)
                    .min(ingress[f.dst] / ingress_users[f.dst] as f64);
            }
            debug_assert!(limit.is_finite() && limit >= 0.0);
            // Assign `limit` to every flow whose constraint binds at it;
            // others keep waiting for the next round with reduced links.
            let mut fixed = 0;
            for (f, done) in self.flows.iter_mut().zip(self.assigned.iter_mut()) {
                if *done {
                    continue;
                }
                let (s, d) = (f.src, f.dst);
                let binds = f.cap <= limit + 1e-9
                    || egress[s] / egress_users[s] as f64 <= limit + 1e-9
                    || ingress[d] / ingress_users[d] as f64 <= limit + 1e-9;
                if binds {
                    f.rate = limit.min(f.cap);
                    egress[s] = (egress[s] - f.rate).max(0.0);
                    ingress[d] = (ingress[d] - f.rate).max(0.0);
                    *done = true;
                    fixed += 1;
                }
            }
            if fixed == 0 {
                // Numerical fallback: assign the limit to everything left.
                let left = self.flows.iter_mut().zip(&self.assigned);
                for (f, _) in left.filter(|(_, &done)| !done) {
                    f.rate = limit.min(f.cap);
                    egress[f.src] = (egress[f.src] - f.rate).max(0.0);
                    ingress[f.dst] = (ingress[f.dst] - f.rate).max(0.0);
                }
                break;
            }
            unassigned -= fixed;
        }
    }

    /// Earliest completion among active flows.
    fn next_completion_in(&self) -> Option<Duration> {
        self.flows
            .iter()
            .filter(|f| f.rate > 0.0)
            .map(|f| f.remaining / f.rate)
            .min_by(|a, b| a.partial_cmp(b).expect("finite"))
            .map(Duration::from_secs_f64)
    }
}

const COMPLETE_EPS: f64 = 0.5; // half a byte

/// Start a flow of `size` bytes from endpoint `src` to endpoint `dst`.
/// The source's `request_overhead` (with ±15 % jitter) elapses before bytes
/// move. `on_complete` fires when the attempt ends (success or injected
/// fault); flows ending in the same event fire in the order they started
/// moving bytes.
pub fn start_flow<S: HasNetwork>(
    sim: &mut Simulation<S>,
    src: &str,
    dst: &str,
    size: ByteSize,
    on_complete: impl FnOnce(&mut Simulation<S>, FlowOutcome) + 'static,
) -> FlowId {
    let net = sim.state_mut().network();
    let src_i = net
        .index_of(src)
        .unwrap_or_else(|| panic!("unknown endpoint {src:?}"));
    let dst_i = net
        .index_of(dst)
        .unwrap_or_else(|| panic!("unknown endpoint {dst:?}"));
    let id = net.next_id;
    net.next_id += 1;

    let outcome = net.fault_plan.sample(&mut net.rng);
    // Connection drops abort partway through the payload.
    let effective = match outcome {
        FlowOutcome::ConnectionDropped => {
            let frac = net.rng.uniform(0.05, 0.95);
            (size.as_u64() as f64 * frac).max(1.0)
        }
        _ => size.as_u64() as f64,
    };
    let overhead_s =
        net.endpoints[src_i].request_overhead.as_secs_f64() * net.rng.lognormal_mean_cv(1.0, 0.15);
    let overhead = Duration::from_secs_f64(overhead_s);
    let cap = net.endpoints[src_i]
        .stream_cap
        .as_bytes_per_sec()
        .min(net.endpoints[dst_i].stream_cap.as_bytes_per_sec());

    sim.schedule_in(overhead, move |sim| {
        let now = sim.now();
        let net = sim.state_mut().network();
        net.progress_to(now);
        net.flows.push(Flow {
            src: src_i,
            dst: dst_i,
            cap,
            remaining: effective,
            rate: 0.0,
            outcome,
            on_complete: Box::new(on_complete),
        });
        net.recompute_rates();
        reschedule::<S>(sim);
    });
    FlowId::from_raw(id)
}

fn reschedule<S: HasNetwork>(sim: &mut Simulation<S>) {
    let now = sim.now();
    let net = sim.state_mut().network();
    if let Some(h) = net.completion_event.take() {
        sim.cancel(h);
    }
    let net = sim.state_mut().network();
    if let Some(dt) = net.next_completion_in() {
        let at = now + dt;
        let h = sim.schedule_at(at, complete_due::<S>);
        sim.state_mut().network().completion_event = Some(h);
    }
}

fn complete_due<S: HasNetwork>(sim: &mut Simulation<S>) {
    let now = sim.now();
    let net = sim.state_mut().network();
    net.completion_event = None;
    net.progress_to(now);
    let mut due = std::mem::take(&mut net.due);
    let mut i = 0;
    while i < net.flows.len() {
        if net.flows[i].remaining <= COMPLETE_EPS {
            let flow = net.flows.remove(i);
            due.push((flow.on_complete, flow.outcome));
        } else {
            i += 1;
        }
    }
    net.recompute_rates();
    // Delivered-byte accounting happens in the service layer via
    // `note_delivered`, which knows the logical file sizes.
    for (cb, outcome) in due.drain(..) {
        cb(sim, outcome);
    }
    sim.state_mut().network().due = due;
    reschedule::<S>(sim);
}

impl<S> FlowNetwork<S> {
    /// Record successfully delivered payload bytes (called by the services
    /// layered on top, which know the logical file sizes).
    pub fn note_delivered(&mut self, size: ByteSize) {
        self.bytes_delivered += size.as_u64() as f64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eoml_util::units::Rate;
    use std::cell::RefCell;
    use std::rc::Rc;

    struct NetState {
        net: FlowNetwork<NetState>,
    }

    impl HasNetwork for NetState {
        fn network(&mut self) -> &mut FlowNetwork<NetState> {
            &mut self.net
        }
    }

    fn ep(name: &str, egress_mb: f64, ingress_mb: f64, stream_mb: f64) -> Endpoint {
        Endpoint::new(
            name,
            Rate::mb_per_sec(egress_mb),
            Rate::mb_per_sec(ingress_mb),
            Rate::mb_per_sec(stream_mb),
            Duration::ZERO,
        )
    }

    fn sim_with(eps: Vec<Endpoint>) -> Simulation<NetState> {
        let mut net = FlowNetwork::new(42, FaultPlan::none());
        for e in eps {
            net.add_endpoint(e);
        }
        Simulation::new(NetState { net })
    }

    #[test]
    fn single_flow_rate_is_stream_cap() {
        let mut sim = sim_with(vec![
            ep("a", 100.0, 100.0, 10.0),
            ep("b", 100.0, 100.0, 50.0),
        ]);
        let done = Rc::new(RefCell::new(None));
        let done2 = Rc::clone(&done);
        start_flow(&mut sim, "a", "b", ByteSize::mb(100), move |sim, out| {
            *done2.borrow_mut() = Some((sim.now(), out));
        });
        sim.run();
        let (t, out) = done.borrow().expect("flow completed");
        assert!(out.is_success());
        // 100 MB at min(10, 50) MB/s = 10 s.
        assert!((t.as_secs_f64() - 10.0).abs() < 1e-6, "{t}");
    }

    #[test]
    fn flows_share_egress_equally() {
        let mut sim = sim_with(vec![
            ep("a", 60.0, 60.0, 1000.0),
            ep("b", 1000.0, 1000.0, 1000.0),
        ]);
        let times = Rc::new(RefCell::new(Vec::new()));
        for _ in 0..4 {
            let times = Rc::clone(&times);
            start_flow(&mut sim, "a", "b", ByteSize::mb(150), move |sim, out| {
                assert!(out.is_success());
                times.borrow_mut().push(sim.now().as_secs_f64());
            });
        }
        sim.run();
        let times = times.borrow();
        assert_eq!(times.len(), 4);
        // 4 equal flows over a 60 MB/s egress: 15 MB/s each → 10 s.
        for &t in times.iter() {
            assert!((t - 10.0).abs() < 1e-6, "{t}");
        }
    }

    #[test]
    fn per_flow_cap_binds_before_link() {
        let mut sim = sim_with(vec![
            ep("a", 60.0, 60.0, 9.0),
            ep("b", 1000.0, 1000.0, 1000.0),
        ]);
        let times = Rc::new(RefCell::new(Vec::new()));
        for _ in 0..3 {
            let times = Rc::clone(&times);
            start_flow(&mut sim, "a", "b", ByteSize::mb(90), move |sim, _| {
                times.borrow_mut().push(sim.now().as_secs_f64());
            });
        }
        sim.run();
        // 3 flows × 9 MB/s = 27 < 60: stream cap binds → 10 s each.
        for &t in times.borrow().iter() {
            assert!((t - 10.0).abs() < 1e-6, "{t}");
        }
    }

    #[test]
    fn heterogeneous_max_min_shares() {
        // One capped flow (5 MB/s) + two open flows over a 25 MB/s link:
        // max-min gives the capped flow 5 and the others 10 each.
        let mut sim = sim_with(vec![
            ep("src", 25.0, 1000.0, 1000.0),
            ep("dst_fast", 1000.0, 1000.0, 1000.0),
            ep("dst_slow", 1000.0, 1000.0, 5.0),
        ]);
        let finish = Rc::new(RefCell::new(std::collections::HashMap::new()));
        for (name, dst, mb) in [
            ("slow", "dst_slow", 50u64),
            ("f1", "dst_fast", 100),
            ("f2", "dst_fast", 100),
        ] {
            let finish = Rc::clone(&finish);
            start_flow(&mut sim, "src", dst, ByteSize::mb(mb), move |sim, _| {
                finish.borrow_mut().insert(name, sim.now().as_secs_f64());
            });
        }
        sim.run();
        let f = finish.borrow();
        // slow: 50 MB at 5 MB/s = 10 s. fast flows: 10 MB/s until t=10
        // (100 MB egress share), then remaining 0... they finish exactly at
        // t=10 too: 100 MB at 10 MB/s = 10 s. Make it distinguishable:
        assert!((f["slow"] - 10.0).abs() < 1e-6, "{:?}", *f);
        assert!((f["f1"] - 10.0).abs() < 1e-6, "{:?}", *f);
    }

    #[test]
    fn rates_rebalance_when_flow_joins_midway() {
        // a→b: 10 MB/s egress, uncapped streams. Flow A (100 MB) at t=0;
        // flow B (50 MB) at t=5. A: 50 MB by t=5, then 5 MB/s → done t=15.
        // B: 5 MB/s from t=5 → done t=15.
        let mut sim = sim_with(vec![
            ep("a", 10.0, 1000.0, 1000.0),
            ep("b", 1000.0, 1000.0, 1000.0),
        ]);
        let finish = Rc::new(RefCell::new(Vec::new()));
        let f1 = Rc::clone(&finish);
        start_flow(&mut sim, "a", "b", ByteSize::mb(100), move |sim, _| {
            f1.borrow_mut().push(("A", sim.now().as_secs_f64()));
        });
        let f2 = Rc::clone(&finish);
        sim.schedule_at(SimTime::from_secs_f64(5.0), move |sim| {
            let f2 = Rc::clone(&f2);
            start_flow(sim, "a", "b", ByteSize::mb(50), move |sim, _| {
                f2.borrow_mut().push(("B", sim.now().as_secs_f64()));
            });
        });
        sim.run();
        let f = finish.borrow();
        for (name, t) in f.iter() {
            assert!((t - 15.0).abs() < 1e-6, "{name}: {t}");
        }
    }

    #[test]
    fn request_overhead_delays_start() {
        let mut sim = sim_with(vec![
            Endpoint::new(
                "a",
                Rate::mb_per_sec(10.0),
                Rate::mb_per_sec(10.0),
                Rate::mb_per_sec(10.0),
                Duration::from_secs(2),
            ),
            ep("b", 1000.0, 1000.0, 1000.0),
        ]);
        let done = Rc::new(RefCell::new(0.0));
        let d = Rc::clone(&done);
        start_flow(&mut sim, "a", "b", ByteSize::mb(10), move |sim, _| {
            *d.borrow_mut() = sim.now().as_secs_f64();
        });
        sim.run();
        let t = *done.borrow();
        // ≥ overhead (jittered ±15 %) + 1 s of payload.
        assert!(t > 2.4 && t < 4.5, "completion at {t}");
    }

    #[test]
    fn injected_drop_reports_failure() {
        let mut net = FlowNetwork::new(
            7,
            FaultPlan {
                drop_probability: 1.0,
                corrupt_probability: 0.0,
            },
        );
        net.add_endpoint(ep("a", 10.0, 10.0, 10.0));
        net.add_endpoint(ep("b", 10.0, 10.0, 10.0));
        let mut sim = Simulation::new(NetState { net });
        let out = Rc::new(RefCell::new(None));
        let o = Rc::clone(&out);
        start_flow(
            &mut sim,
            "a",
            "b",
            ByteSize::mb(100),
            move |sim, outcome| {
                *o.borrow_mut() = Some((sim.now().as_secs_f64(), outcome));
            },
        );
        sim.run();
        let (t, outcome) = out.borrow().expect("callback fired");
        assert_eq!(outcome, FlowOutcome::ConnectionDropped);
        // Dropped partway: strictly less than the 10 s full-transfer time.
        assert!(t < 10.0, "dropped at {t}");
        assert!(t > 0.0);
    }

    #[test]
    fn determinism() {
        fn run() -> Vec<u64> {
            let mut sim = sim_with(vec![ep("a", 37.0, 37.0, 11.0), ep("b", 90.0, 90.0, 90.0)]);
            let times = Rc::new(RefCell::new(Vec::new()));
            for i in 0..10 {
                let times = Rc::clone(&times);
                start_flow(
                    &mut sim,
                    "a",
                    "b",
                    ByteSize::mb(10 + i * 7),
                    move |sim, _| {
                        times.borrow_mut().push(sim.now().as_nanos());
                    },
                );
            }
            sim.run();
            let v = times.borrow().clone();
            v
        }
        assert_eq!(run(), run());
    }

    #[test]
    fn simultaneous_completions_fire_in_start_order() {
        // Four equal flows over one 40 MB/s egress, no request overhead:
        // all four end in the same completion event, and their callbacks
        // fire in the order the flows started, in every repetition.
        for _ in 0..30 {
            let mut sim = sim_with(vec![
                ep("a", 40.0, 40.0, 1000.0),
                ep("b", 1000.0, 1000.0, 1000.0),
            ]);
            let order = Rc::new(RefCell::new(Vec::new()));
            for i in 0..4 {
                let order = Rc::clone(&order);
                start_flow(&mut sim, "a", "b", ByteSize::mb(10), move |sim, out| {
                    assert!(out.is_success());
                    order.borrow_mut().push((i, sim.now()));
                });
            }
            sim.run();
            let order = order.borrow();
            let starts: Vec<u32> = order.iter().map(|&(i, _)| i).collect();
            assert_eq!(starts, [0, 1, 2, 3]);
            assert!(order.iter().all(|&(_, t)| t == SimTime::from_secs_f64(1.0)));
        }
    }

    #[test]
    #[should_panic(expected = "unknown endpoint")]
    fn unknown_endpoint_panics() {
        let mut sim = sim_with(vec![ep("a", 1.0, 1.0, 1.0)]);
        start_flow(&mut sim, "a", "nope", ByteSize::mb(1), |_, _| {});
    }

    #[test]
    #[should_panic(expected = "duplicate endpoint")]
    fn duplicate_endpoint_panics() {
        let mut net: FlowNetwork<NetState> = FlowNetwork::new(1, FaultPlan::none());
        net.add_endpoint(ep("a", 1.0, 1.0, 1.0));
        net.add_endpoint(ep("a", 1.0, 1.0, 1.0));
    }
}
