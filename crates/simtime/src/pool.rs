//! A bounded worker pool in virtual time.
//!
//! Every throughput stage of the workflow is the same object: *k* workers
//! pulling jobs off a queue — LAADS download workers, Parsl workers,
//! Globus Transfer's parallel streams, inference workers. [`Pool`] is that
//! object, once. It owns
//!
//! * a fixed number of **slots** with stable indices (a caller that maps
//!   `nodes[slot % nodes.len()]` gets node-major, slot-sticky placement);
//! * a FIFO **queue** with a 1-based attempt number per job;
//! * **fill-to-capacity** on every push, completion and requeue;
//! * **delayed requeue**, with a count of requeues still waiting out their
//!   delay;
//! * an **open feed** ([`Pool::push`], [`Pool::close`]), so a producer can
//!   release jobs over time;
//! * the `(time, active slots)` **activity series**, announced change by
//!   change and returned whole at the end;
//! * an exactly-once **drained** callback that cannot fire while anything
//!   is queued, running or waiting out a delay.
//!
//! The caller supplies how to *start* a job on a slot and, when the job's
//! run ends, a [`Verdict`]. Retry policy, timing records, spans and
//! journals stay with the caller; the pool knows no domain words.

use crate::{SimTime, Simulation};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::time::Duration;

/// The caller's decision when a job's run ends.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict<J> {
    /// The job succeeded.
    Done,
    /// The job failed and goes to the back of the queue as its next
    /// attempt, after `after` (zero requeues in place).
    Requeue {
        /// The job to run again.
        job: J,
        /// How long it waits before it is queued.
        after: Duration,
    },
    /// The job failed for good.
    Abandon,
}

/// What a drained pool hands back.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolSummary {
    /// `(time, active slots)` change points, from `(creation time, 0)` to
    /// the final `0`.
    pub activity: Vec<(SimTime, usize)>,
    /// Jobs that ended [`Verdict::Abandon`].
    pub abandoned: usize,
    /// [`Verdict::Requeue`] verdicts given — runs beyond each job's first.
    pub requeues: usize,
}

type StartFn<S, J> = Rc<dyn Fn(&mut Simulation<S>, &Pool<S, J>, usize, J, usize)>;
type ChangeFn<S> = Rc<dyn Fn(&mut Simulation<S>, usize)>;
type DrainedFn<S> = Box<dyn FnOnce(&mut Simulation<S>, PoolSummary)>;

struct Inner<S, J> {
    queue: VecDeque<(J, usize)>,
    /// Idle slot indices, most recently freed last: a slot that finishes
    /// while work is queued takes the next job itself.
    free: Vec<usize>,
    /// Attempt number of the job running on each slot; 0 = idle.
    running: Vec<usize>,
    /// Requeues waiting out their delay.
    delayed: usize,
    closed: bool,
    activity: Vec<(SimTime, usize)>,
    abandoned: usize,
    requeues: usize,
    start: StartFn<S, J>,
    on_change: ChangeFn<S>,
    on_drained: Option<DrainedFn<S>>,
}

impl<S, J> Inner<S, J> {
    fn active(&self) -> usize {
        self.running.len() - self.free.len()
    }
}

/// Handle to a bounded worker pool (see the [module docs](self)). Clones
/// share one pool.
pub struct Pool<S, J> {
    inner: Rc<RefCell<Inner<S, J>>>,
}

impl<S, J> Clone for Pool<S, J> {
    fn clone(&self) -> Self {
        Self {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl<S: 'static, J: 'static> Pool<S, J> {
    /// An open, empty pool of `slots` workers.
    ///
    /// * `start(sim, pool, slot, job, attempt)` begins `job` on `slot`
    ///   (`attempt` is 1 for a job's first run); whatever it sets in
    ///   motion must end in one [`Pool::complete`] for that slot.
    /// * `on_change(sim, active)` hears every change of the active count.
    /// * `on_drained(sim, summary)` fires once: after [`Pool::close`], when
    ///   nothing is queued, running or waiting out a requeue delay.
    pub fn new(
        sim: &Simulation<S>,
        slots: usize,
        start: impl Fn(&mut Simulation<S>, &Pool<S, J>, usize, J, usize) + 'static,
        on_change: impl Fn(&mut Simulation<S>, usize) + 'static,
        on_drained: impl FnOnce(&mut Simulation<S>, PoolSummary) + 'static,
    ) -> Self {
        assert!(slots > 0, "need at least one slot");
        Self {
            inner: Rc::new(RefCell::new(Inner {
                queue: VecDeque::new(),
                free: (0..slots).rev().collect(),
                running: vec![0; slots],
                delayed: 0,
                closed: false,
                activity: vec![(sim.now(), 0)],
                abandoned: 0,
                requeues: 0,
                start: Rc::new(start),
                on_change: Rc::new(on_change),
                on_drained: Some(Box::new(on_drained)),
            })),
        }
    }

    /// Queue `job` (attempt 1); it starts at once if a slot is idle.
    pub fn push(&self, sim: &mut Simulation<S>, job: J) {
        {
            let mut p = self.inner.borrow_mut();
            assert!(!p.closed, "push into a closed pool");
            p.queue.push_back((job, 1));
        }
        self.fill(sim);
    }

    /// No more pushes will come; the drained callback may now fire.
    pub fn close(&self, sim: &mut Simulation<S>) {
        self.inner.borrow_mut().closed = true;
        self.fill(sim);
    }

    /// The run that `start` began on `slot` has ended. Frees the slot,
    /// applies the verdict, and starts whatever the freed slot can take.
    pub fn complete(&self, sim: &mut Simulation<S>, slot: usize, verdict: Verdict<J>) {
        let (attempt, active, on_change) = {
            let mut p = self.inner.borrow_mut();
            let attempt = std::mem::take(&mut p.running[slot]);
            assert!(attempt > 0, "slot {slot} is not running a job");
            p.free.push(slot);
            let active = p.active();
            p.activity.push((sim.now(), active));
            (attempt, active, Rc::clone(&p.on_change))
        };
        on_change(sim, active);
        match verdict {
            Verdict::Done => {}
            Verdict::Abandon => self.inner.borrow_mut().abandoned += 1,
            Verdict::Requeue { job, after } => {
                let mut p = self.inner.borrow_mut();
                p.requeues += 1;
                if after.is_zero() {
                    p.queue.push_back((job, attempt + 1));
                } else {
                    p.delayed += 1;
                    drop(p);
                    let pool = self.clone();
                    sim.schedule_in(after, move |sim| {
                        {
                            let mut p = pool.inner.borrow_mut();
                            p.delayed -= 1;
                            p.queue.push_back((job, attempt + 1));
                        }
                        pool.fill(sim);
                    });
                }
            }
        }
        self.fill(sim);
    }

    /// Start queued jobs while a slot is idle, then check for drained.
    fn fill(&self, sim: &mut Simulation<S>) {
        loop {
            let next = {
                let mut p = self.inner.borrow_mut();
                if p.queue.is_empty() {
                    None
                } else {
                    p.free.pop().map(|slot| {
                        let (job, attempt) = p.queue.pop_front().expect("checked non-empty");
                        p.running[slot] = attempt;
                        let active = p.active();
                        p.activity.push((sim.now(), active));
                        let start = Rc::clone(&p.start);
                        let on_change = Rc::clone(&p.on_change);
                        (slot, job, attempt, active, start, on_change)
                    })
                }
            };
            let Some((slot, job, attempt, active, start, on_change)) = next else {
                break;
            };
            on_change(sim, active);
            start(sim, self, slot, job, attempt);
        }
        let drained = {
            let mut p = self.inner.borrow_mut();
            if p.closed && p.queue.is_empty() && p.active() == 0 && p.delayed == 0 {
                p.on_drained.take().map(|on_drained| {
                    let summary = PoolSummary {
                        activity: std::mem::take(&mut p.activity),
                        abandoned: p.abandoned,
                        requeues: p.requeues,
                    };
                    (on_drained, summary)
                })
            } else {
                None
            }
        };
        if let Some((on_drained, summary)) = drained {
            on_drained(sim, summary);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// One scripted run of a job: how long it takes and how it ends
    /// (`Some(delay_ms)` = requeue after that delay, `None` = final).
    #[derive(Debug, Clone)]
    struct Script {
        runs: Vec<(u64, Option<u64>)>,
        abandon: bool,
        /// Virtual ms at which the job is pushed.
        push_at: u64,
    }

    #[derive(Default)]
    struct Watch {
        changes: Vec<(SimTime, usize)>,
        slot_busy: BTreeMap<usize, usize>,
        ended: BTreeMap<usize, &'static str>,
        drained: Vec<(SimTime, PoolSummary)>,
        double_booked: bool,
    }

    fn run_scripts(slots: usize, scripts: Vec<Script>, close_at: u64) -> Simulation<Watch> {
        let mut sim = Simulation::new(Watch::default());
        let scripts = Rc::new(scripts);
        let s2 = Rc::clone(&scripts);
        let pool: Pool<Watch, usize> = Pool::new(
            &sim,
            slots,
            move |sim, pool, slot, job, attempt| {
                let w = sim.state_mut();
                if w.slot_busy.insert(slot, job).is_some() {
                    w.double_booked = true;
                }
                let script = &s2[job];
                let (ms, requeue) = script.runs[attempt - 1];
                let verdict = match requeue {
                    Some(delay_ms) => Verdict::Requeue {
                        job,
                        after: Duration::from_millis(delay_ms),
                    },
                    None if script.abandon => Verdict::Abandon,
                    None => Verdict::Done,
                };
                let pool = pool.clone();
                sim.schedule_in(Duration::from_millis(ms), move |sim| {
                    let w = sim.state_mut();
                    w.slot_busy.remove(&slot);
                    match verdict {
                        Verdict::Done => {
                            w.ended.insert(job, "done");
                        }
                        Verdict::Abandon => {
                            w.ended.insert(job, "abandoned");
                        }
                        Verdict::Requeue { .. } => {}
                    }
                    pool.complete(sim, slot, verdict);
                });
            },
            |sim, active| {
                let now = sim.now();
                sim.state_mut().changes.push((now, active));
            },
            |sim, summary| {
                let now = sim.now();
                sim.state_mut().drained.push((now, summary));
            },
        );
        for (job, script) in scripts.iter().enumerate() {
            let pool = pool.clone();
            sim.schedule_in(Duration::from_millis(script.push_at), move |sim| {
                pool.push(sim, job)
            });
        }
        // The last push and the close can share a timestamp; the close is
        // scheduled after every push, so it fires after them.
        sim.schedule_in(Duration::from_millis(close_at), move |sim| pool.close(sim));
        sim.run();
        sim
    }

    fn script() -> impl Strategy<Value = Script> {
        (
            proptest::collection::vec((0u64..50, 0u64..30), 0..4),
            0u64..50,
            any::<bool>(),
            0u64..200,
        )
            .prop_map(|(retries, last_ms, abandon, push_at)| {
                let mut runs: Vec<(u64, Option<u64>)> = retries
                    .into_iter()
                    .map(|(ms, delay)| (ms, Some(delay)))
                    .collect();
                runs.push((last_ms, None));
                Script {
                    runs,
                    abandon,
                    push_at,
                }
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random slot counts, durations, verdict sequences, requeue delays
        /// and interleaved pushes: the pool's whole contract.
        #[test]
        fn pool_contract_holds(
            slots in 1usize..6,
            scripts in proptest::collection::vec(script(), 0..24),
        ) {
            let n = scripts.len();
            let expect_requeues: usize = scripts.iter().map(|s| s.runs.len() - 1).sum();
            let expect_abandoned = scripts.iter().filter(|s| s.abandon).count();
            let close_at = scripts.iter().map(|s| s.push_at).max().unwrap_or(0);
            let sim = run_scripts(slots, scripts, close_at);
            let end = sim.now();
            let w = sim.into_state();
            prop_assert!(!w.double_booked, "a slot was handed to two running jobs");
            prop_assert_eq!(w.ended.len(), n, "every job ends exactly once");
            prop_assert_eq!(w.drained.len(), 1, "drained fires exactly once");
            let (at, summary) = &w.drained[0];
            // Drained is the last thing that happens: nothing was queued,
            // running or delayed behind it, and it waited for the close.
            prop_assert_eq!(*at, end);
            prop_assert!(*at >= SimTime::from_nanos(close_at * 1_000_000));
            prop_assert_eq!(summary.abandoned, expect_abandoned);
            prop_assert_eq!(summary.requeues, expect_requeues);
            prop_assert_eq!(summary.activity.first().map(|&(_, a)| a), Some(0));
            prop_assert_eq!(summary.activity.last().map(|&(_, a)| a), Some(0));
            for pair in summary.activity.windows(2) {
                prop_assert!(pair[0].0 <= pair[1].0, "activity not time-sorted");
                prop_assert_eq!(pair[0].1.abs_diff(pair[1].1), 1);
            }
            prop_assert!(summary.activity.iter().all(|&(_, a)| a <= slots));
            // The announced changes are the series minus its seed point.
            prop_assert_eq!(&summary.activity[1..], &w.changes[..]);
        }
    }

    #[test]
    fn drained_waits_for_a_delayed_requeue_that_is_the_last_event() {
        // One job whose first run fails at t=1 ms and requeues after 1 s:
        // between 1 ms and 1001 ms nothing is queued or running, and the
        // requeue is the only event left in the simulation.
        let sim = run_scripts(
            2,
            vec![Script {
                runs: vec![(1, Some(1000)), (5, None)],
                abandon: false,
                push_at: 0,
            }],
            0,
        );
        let w = sim.into_state();
        assert_eq!(w.drained.len(), 1);
        let (at, summary) = &w.drained[0];
        assert_eq!(*at, SimTime::from_nanos(1_006_000_000));
        assert_eq!((summary.abandoned, summary.requeues), (0, 1));
    }

    #[test]
    fn closing_an_empty_pool_drains_at_once() {
        let sim = run_scripts(3, Vec::new(), 7);
        let w = sim.into_state();
        assert_eq!(w.drained.len(), 1);
        let (at, summary) = &w.drained[0];
        assert_eq!(*at, SimTime::from_nanos(7_000_000));
        assert_eq!(summary.activity, vec![(SimTime::ZERO, 0)]);
        assert_eq!(summary.abandoned + summary.requeues, 0);
    }

    #[test]
    fn a_freed_slot_takes_the_next_job_itself() {
        // Two slots, three equal jobs at t=0: slot 0 frees first (ties fire
        // in scheduling order) and must run job 2 — the slot-sticky
        // placement `nodes[slot % nodes.len()]` callers rely on.
        let mut sim = Simulation::new(Vec::<(usize, u32)>::new());
        let pool: Pool<Vec<(usize, u32)>, u32> = Pool::new(
            &sim,
            2,
            |sim, pool, slot, job, _| {
                sim.state_mut().push((slot, job));
                let pool = pool.clone();
                sim.schedule_in(Duration::from_secs(1), move |sim| {
                    pool.complete(sim, slot, Verdict::Done)
                });
            },
            |_, _| {},
            |_, _| {},
        );
        for job in 0..3 {
            pool.push(&mut sim, job);
        }
        pool.close(&mut sim);
        sim.run();
        assert_eq!(sim.state(), &vec![(0, 0), (1, 1), (0, 2)]);
    }

    #[test]
    #[should_panic(expected = "is not running a job")]
    fn completing_an_idle_slot_panics() {
        let mut sim = Simulation::new(());
        let pool: Pool<(), ()> = Pool::new(&sim, 1, |_, _, _, _, _| {}, |_, _| {}, |_, _| {});
        pool.complete(&mut sim, 0, Verdict::Done);
    }
}
