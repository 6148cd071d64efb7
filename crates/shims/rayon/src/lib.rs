//! Hermetic shim for the slice of `rayon` the wall-clock benchmark's
//! extraction probe names: `ThreadPoolBuilder::new().num_threads(n).build()`
//! and `ThreadPool::install`.
//!
//! Nothing in the library is rayon-parallel (its threads all come from
//! `eoml_util::pool`), so `install` runs its closure inline on the calling
//! thread. The shim stays only for that probe, until the benchmark's walk is
//! re-based on the library's own API.

/// Builder for a [`ThreadPool`].
#[derive(Default)]
pub struct ThreadPoolBuilder;

impl ThreadPoolBuilder {
    /// Fresh builder.
    pub fn new() -> Self {
        Self
    }

    /// Worker count, accepted for API parity: `install` runs inline.
    pub fn num_threads(self, _n: usize) -> Self {
        self
    }

    /// Finalise the pool; never fails.
    pub fn build(self) -> Result<ThreadPool, std::convert::Infallible> {
        Ok(ThreadPool)
    }
}

/// A pool under which nothing runs in parallel.
pub struct ThreadPool;

impl ThreadPool {
    /// Run `op` on the calling thread.
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        op()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_runs_the_closure_on_the_calling_thread() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let caller = std::thread::current().id();
        assert_eq!(pool.install(|| std::thread::current().id()), caller);
    }
}
