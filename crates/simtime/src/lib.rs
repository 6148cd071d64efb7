//! `eoml-simtime` — a deterministic discrete-event simulation engine.
//!
//! Virtual time is the backbone of the reproduction: the paper's scaling
//! experiments ran on a 36-node Slurm cluster and against NASA's LAADS
//! archive, neither of which exists here, so the cluster scheduler
//! (`eoml-cluster`), the network/transfer model (`eoml-transfer`) and parts
//! of the compute fabric (`eoml-compute`) all advance a shared virtual clock
//! instead of wall time.
//!
//! The engine is deliberately simple and callback-based:
//!
//! ```
//! use eoml_simtime::{SimTime, Simulation};
//! use std::time::Duration;
//!
//! // State threaded through all events.
//! struct Counter { fired: u32 }
//!
//! let mut sim = Simulation::new(Counter { fired: 0 });
//! sim.schedule_in(Duration::from_secs(5), |sim| {
//!     sim.state_mut().fired += 1;
//!     // events may schedule more events
//!     sim.schedule_in(Duration::from_secs(5), |sim| sim.state_mut().fired += 1);
//! });
//! sim.run();
//! assert_eq!(sim.state().fired, 2);
//! assert_eq!(sim.now(), SimTime::from_secs_f64(10.0));
//! ```
//!
//! Two properties the rest of the workspace relies on:
//!
//! * **Determinism** — ties at the same timestamp fire in scheduling order
//!   (a monotone sequence number breaks ties), so a simulation is a pure
//!   function of its inputs and seed. The fluid models built on the engine
//!   keep the rule: flows (`eoml-transfer`) and tasks (`eoml-cluster`) that
//!   finish in the same event fire their callbacks in the order they
//!   started, never in a hash order.
//! * **Cancelability** — [`Simulation::cancel`] revokes a scheduled event;
//!   the fair-share network model reschedules completion events whenever the
//!   set of active flows changes.
//!
//! On top of the engine sits [`Pool`], the one bounded worker pool every
//! virtual-time throughput stage (downloads, Parsl tasks, transfer streams,
//! inference) runs on.

pub mod clock;
pub mod pool;

pub use clock::{Clock, RealClock, VirtualClock};
pub use pool::{Pool, PoolSummary, Verdict};

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::time::Duration;

/// A point in virtual time, stored as integer nanoseconds since simulation
/// start. Integer storage keeps event ordering exact (no float-compare
/// surprises) while [`SimTime::as_secs_f64`] is available for models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Largest representable time (used as "never").
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// From whole nanoseconds.
    pub const fn from_nanos(n: u64) -> Self {
        SimTime(n)
    }

    /// From fractional seconds (must be non-negative and finite).
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid SimTime seconds: {s}");
        SimTime((s * 1e9).round() as u64)
    }

    /// Whole nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds since simulation start.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating difference as a `Duration`.
    pub fn saturating_since(self, earlier: SimTime) -> Duration {
        Duration::from_nanos(self.0.saturating_sub(earlier.0))
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.as_nanos() as u64))
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    fn sub(self, rhs: SimTime) -> Duration {
        Duration::from_nanos(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime subtraction underflow"),
        )
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{:.6}s", self.as_secs_f64())
    }
}

/// Handle identifying a scheduled event; pass to [`Simulation::cancel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventHandle(u64);

type EventFn<S> = Box<dyn FnOnce(&mut Simulation<S>)>;

struct Scheduled<S> {
    time: SimTime,
    seq: u64,
    action: EventFn<S>,
}

impl<S> PartialEq for Scheduled<S> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<S> Eq for Scheduled<S> {}
impl<S> PartialOrd for Scheduled<S> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<S> Ord for Scheduled<S> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so earliest (time, seq) pops first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// A discrete-event simulation over user state `S`.
///
/// Events are `FnOnce(&mut Simulation<S>)` closures; they may read and write
/// the state, schedule further events, and cancel pending ones.
pub struct Simulation<S> {
    now: SimTime,
    queue: BinaryHeap<Scheduled<S>>,
    /// Sequence numbers of cancelled events still in the queue: a handful
    /// at most, since a model cancels only the one completion event it
    /// replaces.
    cancelled: Vec<u64>,
    next_seq: u64,
    executed: u64,
    state: S,
}

impl<S> Simulation<S> {
    /// New simulation at `t = 0` with the given state.
    pub fn new(state: S) -> Self {
        Self {
            now: SimTime::ZERO,
            queue: BinaryHeap::new(),
            cancelled: Vec::new(),
            next_seq: 0,
            executed: 0,
            state,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Shared state (immutable).
    pub fn state(&self) -> &S {
        &self.state
    }

    /// Shared state (mutable).
    pub fn state_mut(&mut self) -> &mut S {
        &mut self.state
    }

    /// Consume the simulation, returning the final state.
    pub fn into_state(self) -> S {
        self.state
    }

    /// Number of events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Number of pending (non-cancelled) events.
    pub fn pending(&self) -> usize {
        self.queue.len() - self.cancelled.len()
    }

    /// Schedule `action` at absolute time `t` (must not be in the past).
    pub fn schedule_at(
        &mut self,
        t: SimTime,
        action: impl FnOnce(&mut Simulation<S>) + 'static,
    ) -> EventHandle {
        assert!(
            t >= self.now,
            "cannot schedule into the past ({t} < {})",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Scheduled {
            time: t,
            seq,
            action: Box::new(action),
        });
        EventHandle(seq)
    }

    /// Schedule `action` after a relative delay.
    pub fn schedule_in(
        &mut self,
        delay: Duration,
        action: impl FnOnce(&mut Simulation<S>) + 'static,
    ) -> EventHandle {
        self.schedule_at(self.now + delay, action)
    }

    /// Cancel a pending event. Returns `false` if it already fired or was
    /// already cancelled.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        if handle.0 >= self.next_seq {
            return false;
        }
        // Only events still present in the queue may be marked cancelled.
        if self.cancelled.contains(&handle.0) {
            return false;
        }
        if self.queue.iter().any(|e| e.seq == handle.0) {
            self.cancelled.push(handle.0);
            true
        } else {
            false
        }
    }

    /// Execute the next event, advancing the clock. Returns `false` when the
    /// queue is exhausted.
    pub fn step(&mut self) -> bool {
        while let Some(ev) = self.queue.pop() {
            if self.forget_cancelled(ev.seq) {
                continue;
            }
            debug_assert!(ev.time >= self.now, "event queue went backwards");
            self.now = ev.time;
            self.executed += 1;
            (ev.action)(self);
            return true;
        }
        false
    }

    /// Drop `seq` from the cancelled list; whether it was there.
    fn forget_cancelled(&mut self, seq: u64) -> bool {
        match self.cancelled.iter().position(|&s| s == seq) {
            Some(i) => {
                self.cancelled.swap_remove(i);
                true
            }
            None => false,
        }
    }

    /// Run until no events remain.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Run while events exist and the *next* event is at or before `t`;
    /// then advance the clock to exactly `t` (if it isn't already later).
    pub fn run_until(&mut self, t: SimTime) {
        loop {
            // Drop cancelled events sitting at the head so peeking sees the
            // real next event.
            let next = loop {
                match self.queue.peek() {
                    Some(ev) if self.cancelled.contains(&ev.seq) => {
                        let seq = self.queue.pop().expect("peeked").seq;
                        self.forget_cancelled(seq);
                    }
                    other => break other.map(|e| e.time),
                }
            };
            match next {
                Some(nt) if nt <= t => {
                    self.step();
                }
                _ => break,
            }
        }
        if self.now < t {
            self.now = t;
        }
    }

    /// Run at most `max_events` events; returns how many ran.
    pub fn run_steps(&mut self, max_events: u64) -> u64 {
        let mut ran = 0;
        while ran < max_events && self.step() {
            ran += 1;
        }
        ran
    }
}

impl<S: fmt::Debug> fmt::Debug for Simulation<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now)
            .field("pending", &self.pending())
            .field("executed", &self.executed)
            .field("state", &self.state)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Simulation::new(Vec::<u32>::new());
        sim.schedule_at(SimTime::from_secs_f64(3.0), |s| s.state_mut().push(3));
        sim.schedule_at(SimTime::from_secs_f64(1.0), |s| s.state_mut().push(1));
        sim.schedule_at(SimTime::from_secs_f64(2.0), |s| s.state_mut().push(2));
        sim.run();
        assert_eq!(sim.state(), &vec![1, 2, 3]);
        assert_eq!(sim.now(), SimTime::from_secs_f64(3.0));
        assert_eq!(sim.events_executed(), 3);
    }

    #[test]
    fn ties_fire_in_scheduling_order() {
        let mut sim = Simulation::new(Vec::<u32>::new());
        let t = SimTime::from_secs_f64(1.0);
        for i in 0..10 {
            sim.schedule_at(t, move |s| s.state_mut().push(i));
        }
        sim.run();
        assert_eq!(sim.state(), &(0..10).collect::<Vec<u32>>());
    }

    #[test]
    fn events_can_schedule_events() {
        let mut sim = Simulation::new(0u32);
        fn tick(sim: &mut Simulation<u32>) {
            *sim.state_mut() += 1;
            if *sim.state() < 5 {
                sim.schedule_in(Duration::from_secs(1), tick);
            }
        }
        sim.schedule_in(Duration::from_secs(1), tick);
        sim.run();
        assert_eq!(*sim.state(), 5);
        assert_eq!(sim.now(), SimTime::from_secs_f64(5.0));
    }

    #[test]
    fn cancel_prevents_execution() {
        let mut sim = Simulation::new(Vec::<u32>::new());
        let _keep = sim.schedule_at(SimTime::from_secs_f64(1.0), |s| s.state_mut().push(1));
        let drop_h = sim.schedule_at(SimTime::from_secs_f64(2.0), |s| s.state_mut().push(2));
        assert!(sim.cancel(drop_h));
        assert!(!sim.cancel(drop_h), "double-cancel returns false");
        sim.run();
        assert_eq!(sim.state(), &vec![1]);
    }

    #[test]
    fn cancel_after_fire_returns_false() {
        let mut sim = Simulation::new(());
        let h = sim.schedule_at(SimTime::from_secs_f64(1.0), |_| {});
        sim.run();
        assert!(!sim.cancel(h));
    }

    #[test]
    fn run_until_advances_clock_exactly() {
        let mut sim = Simulation::new(Vec::<u32>::new());
        sim.schedule_at(SimTime::from_secs_f64(1.0), |s| s.state_mut().push(1));
        sim.schedule_at(SimTime::from_secs_f64(5.0), |s| s.state_mut().push(5));
        sim.run_until(SimTime::from_secs_f64(3.0));
        assert_eq!(sim.state(), &vec![1]);
        assert_eq!(sim.now(), SimTime::from_secs_f64(3.0));
        assert_eq!(sim.pending(), 1);
        sim.run();
        assert_eq!(sim.state(), &vec![1, 5]);
    }

    #[test]
    fn run_until_boundary_inclusive() {
        let mut sim = Simulation::new(0u32);
        sim.schedule_at(SimTime::from_secs_f64(2.0), |s| *s.state_mut() += 1);
        sim.run_until(SimTime::from_secs_f64(2.0));
        assert_eq!(*sim.state(), 1, "event exactly at the boundary fires");
    }

    #[test]
    fn run_until_skips_cancelled_head() {
        let mut sim = Simulation::new(0u32);
        let h = sim.schedule_at(SimTime::from_secs_f64(1.0), |s| *s.state_mut() += 100);
        sim.schedule_at(SimTime::from_secs_f64(2.0), |s| *s.state_mut() += 1);
        sim.cancel(h);
        sim.run_until(SimTime::from_secs_f64(3.0));
        assert_eq!(*sim.state(), 1);
    }

    #[test]
    fn run_steps_limits_execution() {
        let mut sim = Simulation::new(0u32);
        for i in 0..10 {
            sim.schedule_at(SimTime::from_secs_f64(i as f64), |s| *s.state_mut() += 1);
        }
        assert_eq!(sim.run_steps(4), 4);
        assert_eq!(*sim.state(), 4);
        assert_eq!(sim.pending(), 6);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_in_the_past_panics() {
        let mut sim = Simulation::new(());
        sim.schedule_at(SimTime::from_secs_f64(5.0), |s| {
            s.schedule_at(SimTime::from_secs_f64(1.0), |_| {});
        });
        sim.run();
    }

    #[test]
    fn pending_accounts_for_cancelled() {
        let mut sim = Simulation::new(());
        let h1 = sim.schedule_at(SimTime::from_secs_f64(1.0), |_| {});
        let _h2 = sim.schedule_at(SimTime::from_secs_f64(2.0), |_| {});
        assert_eq!(sim.pending(), 2);
        sim.cancel(h1);
        assert_eq!(sim.pending(), 1);
    }

    #[test]
    fn simtime_arithmetic() {
        let t = SimTime::from_secs_f64(1.5);
        let t2 = t + Duration::from_millis(500);
        assert_eq!(t2, SimTime::from_secs_f64(2.0));
        assert_eq!(t2 - t, Duration::from_millis(500));
        assert_eq!(
            t2.saturating_since(SimTime::from_secs_f64(10.0)),
            Duration::ZERO
        );
        assert_eq!(SimTime::from_nanos(1_000).as_nanos(), 1_000);
        assert_eq!(format!("{}", SimTime::from_secs_f64(2.0)), "t+2.000000s");
    }

    #[test]
    fn determinism_across_runs() {
        fn run_once() -> Vec<(u64, u32)> {
            let mut sim = Simulation::new(Vec::new());
            for i in 0..100u32 {
                let t = SimTime::from_nanos(((i * 7919) % 50) as u64 * 1_000_000);
                sim.schedule_at(t, move |s| {
                    let now = s.now().as_nanos();
                    s.state_mut().push((now, i));
                });
            }
            sim.run();
            sim.into_state()
        }
        assert_eq!(run_once(), run_once());
    }
}
