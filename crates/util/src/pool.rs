//! The wall-clock worker pool: the one place the library starts threads.
//!
//! Everything that runs on more than one thread goes through [`run`] or
//! its stateless form [`map`]: the real driver's granules (through
//! `eoml_executor::LocalExecutor`), the model bootstrap's sample tiles,
//! the autoencoder's batches and the campaign service's shards. The virtual
//! clock's counterpart is `eoml_simtime::pool`. The compute endpoints start
//! no threads: each task runs on the pool worker that submits it.

use std::convert::Infallible;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Mutex};

/// Run `work` over `items` on `min(workers, items.len())` scoped threads.
///
/// Each thread builds its own `state` once, then claims the next unclaimed
/// item until none is left, so a slow item delays only the thread holding
/// it; the state is dropped when the thread exits. Every outcome goes to
/// `done` on the calling thread, in item order, while the workers run. The
/// first failure (`work`'s or `done`'s) is returned and stops items from
/// being claimed; items already claimed finish, and every worker has exited
/// when this returns, so nothing of `work` runs after. A panic in a worker
/// is re-raised here once the others have exited.
pub fn run<T: Send, S, R: Send, E: Send>(
    workers: usize,
    items: Vec<T>,
    state: impl Fn() -> S + Sync,
    work: impl Fn(&mut S, T) -> Result<R, E> + Sync,
    mut done: impl FnMut(usize, R) -> Result<(), E>,
) -> Result<(), E> {
    assert!(workers > 0, "need at least one worker");
    let len = items.len();
    let threads = workers.min(len);
    if threads == 0 {
        return Ok(());
    }
    let unclaimed = Mutex::new(items.into_iter().enumerate());
    // Publishes no data: it only ends the claiming.
    let stop = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|pool| {
        let spawned: Vec<_> = (0..threads)
            .map(|_| {
                let (tx, unclaimed, stop) = (tx.clone(), &unclaimed, &stop);
                let (state, work) = (&state, &work);
                pool.spawn(move || {
                    let mut state = state();
                    while !stop.load(Ordering::Relaxed) {
                        // `work` runs outside the lock, so a panic in it
                        // cannot poison the queue.
                        let claimed = unclaimed.lock().expect("claiming never panics").next();
                        let Some((i, item)) = claimed else { break };
                        tx.send((i, work(&mut state, item)))
                            .expect("the receiver outlives the pool");
                    }
                })
            })
            .collect();
        drop(tx);
        let mut finished: Vec<Option<Result<R, E>>> = (0..len).map(|_| None).collect();
        let mut result = Ok(());
        'in_order: for i in 0..len {
            while finished[i].is_none() {
                // Every sender gone with item `i` missing: the worker that
                // claimed it panicked, and the join below re-raises that.
                let Ok((j, outcome)) = rx.recv() else {
                    break 'in_order;
                };
                finished[j] = Some(outcome);
            }
            let outcome = finished[i].take().expect("filled above");
            result = outcome.and_then(|out| done(i, out));
            if result.is_err() {
                break;
            }
        }
        stop.store(true, Ordering::Relaxed);
        for worker in spawned {
            if let Err(panic) = worker.join() {
                resume_unwind(panic);
            }
        }
        result
    })
}

/// `f` over `items` on `workers` threads of [`run`], outcomes in item
/// order: a reduction over them in that order has the same bits whatever
/// the worker count.
pub fn map<T: Send, R: Send>(workers: usize, items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    let mut out = Vec::with_capacity(items.len());
    let Ok(()) = run(
        workers,
        items,
        || (),
        |(), item| Ok::<R, Infallible>(f(item)),
        |_, r| {
            out.push(r);
            Ok(())
        },
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    const PATIENCE: Duration = Duration::from_secs(10);

    #[test]
    fn outcomes_arrive_in_item_order_when_items_finish_out_of_order() {
        // Item 0 finishes only after the last item has.
        let n = 6usize;
        let (last_done, wait_for_last) = mpsc::channel();
        let wait_for_last = Mutex::new(wait_for_last);
        let finished = Mutex::new(Vec::new());
        let mut delivered = Vec::new();
        run(
            2,
            (0..n).collect(),
            || (),
            |(), i| {
                if i == 0 {
                    let last = wait_for_last.lock().unwrap().recv_timeout(PATIENCE);
                    last.map_err(|_| "the last item never finished")?;
                }
                finished.lock().unwrap().push(i);
                if i == n - 1 {
                    last_done.send(()).unwrap();
                }
                Ok(i * 10)
            },
            |i, out| {
                delivered.push((i, out));
                Ok::<(), &str>(())
            },
        )
        .unwrap();
        assert_eq!(*finished.lock().unwrap().last().unwrap(), 0);
        assert_eq!(delivered, (0..n).map(|i| (i, i * 10)).collect::<Vec<_>>());
    }

    /// A 1 000-item batch of 1 ms items whose item 0 fails in `work` or in
    /// `done`: the error comes back, few items were started, none after.
    fn first_failure_stops_the_batch(fail_in_work: bool) {
        let started = AtomicUsize::new(0);
        let result = run(
            2,
            (0..1000usize).collect(),
            || (),
            |(), i| {
                started.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(1));
                if fail_in_work && i == 0 {
                    return Err("work failed");
                }
                Ok(i)
            },
            |i, _| if i == 0 { Err("done failed") } else { Ok(()) },
        );
        let expected = if fail_in_work {
            "work failed"
        } else {
            "done failed"
        };
        assert_eq!(result, Err(expected));
        let at_return = started.load(Ordering::SeqCst);
        assert!(
            at_return < 100,
            "{at_return} items started after item 0 failed"
        );
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(
            started.load(Ordering::SeqCst),
            at_return,
            "work ran after the return"
        );
    }

    #[test]
    fn a_failing_item_stops_claiming() {
        first_failure_stops_the_batch(true);
    }

    #[test]
    fn a_failing_callback_stops_claiming() {
        first_failure_stops_the_batch(false);
    }

    #[test]
    fn state_is_built_once_per_worker() {
        let built = AtomicUsize::new(0);
        let build = || built.fetch_add(1, Ordering::SeqCst);
        let mut items_done = 0;
        let count = |_, ()| {
            items_done += 1;
            Ok::<(), ()>(())
        };
        run(3, (0..500).collect(), build, |_, _: i32| Ok(()), count).unwrap();
        assert_eq!(items_done, 500);
        assert!((1..=3).contains(&built.load(Ordering::SeqCst)));
        // Fewer items than workers: no idle thread, no idle state.
        built.store(0, Ordering::SeqCst);
        run(
            3,
            vec![1],
            build,
            |_, _: i32| Ok::<(), ()>(()),
            |_, ()| Ok(()),
        )
        .unwrap();
        assert_eq!(built.load(Ordering::SeqCst), 1);
        run(
            3,
            vec![],
            build,
            |_, _: i32| Ok::<(), ()>(()),
            |_, ()| Ok(()),
        )
        .unwrap();
        assert_eq!(built.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn a_worker_panic_reaches_the_caller_after_every_worker_has_exited() {
        struct Exits<'a>(&'a AtomicUsize);
        impl Drop for Exits<'_> {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let (built, exited) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run(
                2,
                (0..64).collect(),
                || {
                    built.fetch_add(1, Ordering::SeqCst);
                    Exits(&exited)
                },
                |_, i: i32| {
                    assert!(i != 3, "item {i} is broken");
                    Ok::<(), ()>(())
                },
                |_, ()| Ok(()),
            )
        }))
        .expect_err("the worker's panic is re-raised");
        let message = panicked
            .downcast_ref::<String>()
            .expect("the worker's own payload");
        assert!(message.contains("item 3 is broken"), "{message}");
        assert_eq!(built.load(Ordering::SeqCst), 2);
        assert_eq!(
            exited.load(Ordering::SeqCst),
            2,
            "a worker outlived the call"
        );
    }
}
