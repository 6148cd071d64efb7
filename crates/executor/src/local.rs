//! The observed handle on the wall-clock pool: a worker count and an
//! optional observability hub in front of [`eoml_util::pool`].

use eoml_obs::Obs;
use eoml_util::pool;
use std::sync::Arc;
use std::time::Instant;

/// A Parsl-style local executor: batches run on `workers` threads of the
/// pool, each item counted and timed when a hub is attached.
#[derive(Debug)]
pub struct LocalExecutor {
    workers: usize,
    obs: Option<Arc<Obs>>,
}

impl LocalExecutor {
    /// An executor whose batches run on exactly `workers` threads.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "need at least one worker");
        Self { workers, obs: None }
    }

    /// Attach an observability hub: every item run is counted under
    /// `tasks{stage="executor"}` and timed into the
    /// `task_seconds{stage="executor"}` histogram.
    pub fn with_obs(mut self, obs: Arc<Obs>) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// [`pool::run`] on this executor's workers, each item observed.
    pub fn run<T: Send, S, R: Send, E: Send>(
        &self,
        items: Vec<T>,
        state: impl Fn() -> S + Sync,
        work: impl Fn(&mut S, T) -> Result<R, E> + Sync,
        done: impl FnMut(usize, R) -> Result<(), E>,
    ) -> Result<(), E> {
        let observed = |state: &mut S, item: T| self.observe(|| work(state, item));
        pool::run(self.workers, items, state, observed, done)
    }

    /// [`pool::map`] on this executor's workers, each item observed.
    pub fn map<T: Send, R: Send>(&self, items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
        pool::map(self.workers, items, |item| self.observe(|| f(item)))
    }

    /// Run one item, counted and timed into the hub when one is attached.
    fn observe<R>(&self, item: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let outcome = item();
        if let Some(obs) = &self.obs {
            obs.counter_add("tasks", "executor", 1);
            obs.observe("task_seconds", "executor", t0.elapsed().as_secs_f64());
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn map_preserves_order() {
        let ex = LocalExecutor::new(2);
        let out = ex.map((0..100).collect(), |x: i32| x * x);
        assert_eq!(out, (0..100).map(|x| x * x).collect::<Vec<i32>>());
    }

    #[test]
    fn map_uses_bounded_workers() {
        let ex = LocalExecutor::new(2);
        let peak = AtomicUsize::new(0);
        let active = AtomicUsize::new(0);
        ex.map((0..64).collect::<Vec<i32>>(), |_| {
            let a = active.fetch_add(1, Ordering::AcqRel) + 1;
            peak.fetch_max(a, Ordering::AcqRel);
            std::thread::sleep(Duration::from_micros(200));
            active.fetch_sub(1, Ordering::AcqRel);
        });
        assert!(peak.load(Ordering::Acquire) <= 2, "pool leaked threads");
    }

    #[test]
    fn map_claims_items_dynamically() {
        // Item 0 returns only once every other item has completed: with two
        // workers that needs the second one to take all of `1..n`, which a
        // static split (items `1..n/2` queued behind item 0) cannot do.
        let n = 8usize;
        let (tx, rx) = mpsc::channel();
        let rx = std::sync::Mutex::new(rx);
        let out = LocalExecutor::new(2).map((0..n).collect(), |i| {
            if i > 0 {
                tx.send(i).unwrap();
                return 0;
            }
            let others = rx.lock().unwrap();
            (1..n)
                .take_while(|_| others.recv_timeout(Duration::from_secs(10)).is_ok())
                .count()
        });
        assert_eq!(out[0], n - 1, "items queued behind item 0");
    }

    #[test]
    fn map_runs_each_item_for_its_own_time() {
        let ex = LocalExecutor::new(2);
        let start = Instant::now();
        let out = ex.map(vec![1u64, 2, 3, 4], |x| {
            let t0 = Instant::now();
            std::thread::sleep(Duration::from_millis(x));
            (x, t0.elapsed())
        });
        let total = start.elapsed();
        assert_eq!(
            out.iter().map(|(x, _)| *x).collect::<Vec<_>>(),
            [1, 2, 3, 4]
        );
        for (x, t) in &out {
            assert!(t.as_millis() as u64 >= *x, "{t:?} for {x}");
        }
        assert!(total >= out.iter().map(|(_, t)| *t).max().unwrap());
    }

    #[test]
    fn observed_maps_count_and_time_tasks() {
        let obs = Obs::shared();
        let ex = LocalExecutor::new(2).with_obs(Arc::clone(&obs));
        let out = ex.map((0..10).collect(), |x: i32| x + 1);
        assert_eq!(out.len(), 10);
        let out2 = ex.map(vec![1u64, 2], |x| x);
        assert_eq!(out2, vec![1, 2]);
        assert_eq!(obs.metrics().counter_value("tasks", "executor"), Some(12));
        let h = obs.metrics().histogram("task_seconds", "executor").unwrap();
        assert_eq!(h.count(), 12);
    }

    #[test]
    fn workers_accessor() {
        assert_eq!(LocalExecutor::new(3).workers(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        LocalExecutor::new(0);
    }

    #[test]
    fn parallelism_speeds_up_compute() {
        // Compare 1 vs 2 workers on CPU-bound work; allow generous slack
        // since CI machines vary (this machine has 2 cores).
        fn busy(ms: u64) {
            let t0 = Instant::now();
            let mut x = 0u64;
            while t0.elapsed() < Duration::from_millis(ms) {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            std::hint::black_box(x);
        }
        let timed = |workers: usize| {
            let t0 = Instant::now();
            LocalExecutor::new(workers).map(vec![20u64; 8], busy);
            t0.elapsed()
        };
        let (t1, t2) = (timed(1), timed(2));
        assert!(
            t2.as_secs_f64() < t1.as_secs_f64() * 0.8,
            "2 workers {t2:?} vs 1 worker {t1:?}"
        );
    }
}
