//! Hermetic shim for `criterion`: just enough surface for this workspace's
//! bench harness to compile and run. Each benchmark executes its closure a
//! handful of times and prints the mean wall-clock duration — no statistics,
//! no reports, but the same authoring API so benches can move to the real
//! crate by swapping the manifest path.

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Identifier combining a function name and a parameter, e.g.
/// `BenchmarkId::new("threads", 4)` → `threads/4`.
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Build an id from a name and a displayable parameter.
    pub fn new<P: Display>(name: &str, param: P) -> Self {
        Self {
            id: format!("{name}/{param}"),
        }
    }

    /// Build an id from a parameter alone.
    pub fn from_parameter<P: Display>(param: P) -> Self {
        Self {
            id: param.to_string(),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.id)
    }
}

/// Passed to benchmark closures; `iter` times the supplied routine.
pub struct Bencher {
    samples: usize,
    last: Option<Duration>,
}

impl Bencher {
    /// Run `routine` `samples` times and record the mean duration.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        for _ in 0..self.samples {
            std::hint::black_box(routine());
        }
        self.last = Some(start.elapsed() / self.samples as u32);
    }
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    samples: usize,
    _parent: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Set the number of samples per benchmark (floor of 1).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.samples = n.max(1);
        self
    }

    fn run_one(&mut self, id: String, f: impl FnOnce(&mut Bencher)) {
        let mut b = Bencher {
            samples: self.samples,
            last: None,
        };
        f(&mut b);
        match b.last {
            Some(d) => println!("{}/{id}: mean {d:?} ({} samples)", self.name, b.samples),
            None => println!("{}/{id}: no measurement", self.name),
        }
    }

    /// Time a closure under `id`.
    pub fn bench_function<F: FnOnce(&mut Bencher)>(&mut self, id: impl Display, f: F) -> &mut Self {
        self.run_one(id.to_string(), f);
        self
    }

    /// Time a closure that receives a borrowed input value.
    pub fn bench_with_input<I: ?Sized, F: FnOnce(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        f: F,
    ) -> &mut Self {
        self.run_one(id.to_string(), |b| f(b, input));
        self
    }

    /// Finish the group (no-op; kept for API parity).
    pub fn finish(&mut self) {}
}

/// The benchmark driver.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// No-op configuration hook kept for `criterion_group!` parity.
    pub fn configure_from_args(self) -> Self {
        self
    }

    /// Open a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            samples: 10,
            _parent: self,
        }
    }

    /// Time a standalone function.
    pub fn bench_function<F: FnOnce(&mut Bencher)>(&mut self, id: impl Display, f: F) -> &mut Self {
        let name = id.to_string();
        let mut g = self.benchmark_group(name.clone());
        g.run_one(name, f);
        self
    }
}

/// Opaque-to-the-optimizer value barrier, re-exported for bench code.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Declare a bench group function, criterion style.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut c = $crate::Criterion::default().configure_from_args();
            $( $target(&mut c); )+
        }
    };
}

/// Declare the bench `main` that runs the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}
