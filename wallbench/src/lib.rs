//! `eoml-wallbench` — the wall-clock benchmark of the EO-ML workflow.
//!
//! Four workloads, each measured from outside through the layers' public
//! functions: end-to-end metrics from untraced repetitions, per-layer
//! metrics and a Chrome trace from a separate traced run. See `README.md`
//! for the metric glossary and the predictions each layer metric carries.

pub mod probes;
pub mod suite;
pub mod trace;
pub mod traced;
pub mod walk;
pub mod workloads;

use serde_json::{json, Map, Value};
use std::path::{Path, PathBuf};
use std::time::Instant;
use workloads::{Res, Sizes, Verdict, Workload};

/// Timed repetitions every untraced run makes at least.
const MIN_REPS: usize = 3;
/// Set-ups every untraced run makes at least; cheap set-ups repeat until
/// [`SETUP_BUDGET_S`] is spent so their median is steady too.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET_S: f64 = 1.0;

/// The benchmark's own directory (the package root).
pub fn home() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Scratch directory of one run, unique per process.
pub fn work_dir(workload: &str) -> PathBuf {
    home()
        .join("work")
        .join(format!("{workload}-{}", std::process::id()))
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Named measurements with units, in emission order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    /// Record `name = value unit`.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }
}

/// What one run of one workload produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The metrics of the requested kind (end-to-end or per-layer).
    pub metrics: Metrics,
    /// Output verification.
    pub verdict: Verdict,
}

impl Outcome {
    /// Whether every output verified and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.verdict.failed == 0 && self.metrics.0.iter().all(|m| m.1.is_finite())
    }

    /// Process exit code: non-zero when verification failed.
    pub fn exit_code(&self) -> i32 {
        i32::from(!self.correct())
    }

    /// The result object the driver reads from the last line of stdout.
    pub fn to_json(&self) -> Value {
        let mut metrics = Map::new();
        for &(name, value, unit) in &self.metrics.0 {
            let value = if value.is_finite() { value } else { -1.0 };
            metrics.insert(name.to_string(), json!({ "value": value, "unit": unit }));
        }
        json!({
            "correct": self.correct(),
            "attempted": self.verdict.attempted.max(1),
            "failed": self.verdict.failed,
            "metrics": Value::Object(metrics),
        })
    }

    /// One `name value unit` line per metric.
    pub fn table(&self) -> String {
        self.metrics
            .0
            .iter()
            .map(|(name, value, unit)| format!("  {name:<38} {value:>16.6} {unit}\n"))
            .collect()
    }
}

/// Switch off glibc malloc's *dynamic* mmap threshold by fixing it at its
/// default of 128 KiB: every larger buffer is a mapping of its own, given
/// back to the kernel when freed, so `VmHWM` follows the bytes live at once.
///
/// Left dynamic, the threshold climbs to the size of the first big buffer
/// freed (22 MB at the paper shape); from then on such buffers are carved out
/// of per-thread heaps that are never trimmed, and how far those heaps grow
/// depends on which thread freed what first. `VmHWM` of `real_paper_tiles`
/// then settles on one of several levels, run by run on the same code: 267,
/// 276 or 287 MiB on the reference box, further apart on the driver's.
///
/// Only the memory probe runs pinned. Timed repetitions keep the default
/// policy: pinned, every big buffer costs a page fault per 4 KiB (≈ 8 % of
/// the paper workload's makespan).
fn pin_allocator() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: `mallopt` is glibc's own tuning entry point; it takes two
        // plain integers and is called before any other thread exists.
        let ok = unsafe { mallopt(M_MMAP_THRESHOLD, 128 * 1024) };
        assert_eq!(ok, 1, "mallopt(M_MMAP_THRESHOLD) refused");
    }
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The memory probe (`--rss-probe`), a process of its own: allocator pinned,
/// one set-up, one repetition, then `VmHWM` on standard output. One
/// repetition is enough: the high-water mark is the same on one core, on two
/// and under contention (185.6 to 185.8 MiB on `real_paper_tiles`), and later
/// repetitions do not raise it.
fn rss_probe(args: &Args) -> Res<i32> {
    pin_allocator();
    let dir = work_dir(&args.workload);
    let sizes = if args.quick {
        Sizes::QUICK
    } else {
        Sizes::FULL
    };
    let run = Workload::new(&args.workload, sizes, args.seed, dir.clone()).and_then(|mut w| {
        w.setup()?;
        w.rep(None)?;
        peak_rss_mib()
    });
    let _ = std::fs::remove_dir_all(&dir);
    println!("{}", run?);
    Ok(0)
}

/// `peak_rss_mib` of a workload: run the memory probe in a child process.
fn probed_peak_rss_mib(name: &str, seed: u64, quick: bool) -> Res<f64> {
    let me = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = std::process::Command::new(me);
    cmd.args([
        "--workload",
        name,
        "--seed",
        &seed.to_string(),
        "--rss-probe",
    ]);
    if quick {
        cmd.arg("--quick");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("spawn memory probe: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let parsed = stdout.lines().last().and_then(|l| l.parse::<f64>().ok());
    match parsed {
        Some(mib) if output.status.success() => Ok(mib),
        _ => Err(format!(
            "memory probe of {name}: {}",
            String::from_utf8_lossy(&output.stderr)
        )),
    }
}

/// Repeat `workload.rep` for `seconds` (at least `min_reps` times).
pub fn timed_reps(
    seconds: f64,
    min_reps: usize,
    mut rep: impl FnMut() -> Res<workloads::Rep>,
) -> Res<Vec<workloads::Rep>> {
    let start = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < min_reps || start.elapsed().as_secs_f64() < seconds {
        reps.push(rep()?);
    }
    Ok(reps)
}

/// The untraced run: set-up (several times), one discarded warm-up, timed
/// repetitions for `seconds`, verification, the memory probe. Reports the
/// end-to-end metrics.
pub fn measure(name: &str, seed: u64, seconds: f64, quick: bool) -> Res<Outcome> {
    let dir = work_dir(name);
    let outcome = measure_in(&dir, name, seed, seconds, quick);
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}

fn measure_in(dir: &Path, name: &str, seed: u64, seconds: f64, quick: bool) -> Res<Outcome> {
    let sizes = if quick { Sizes::QUICK } else { Sizes::FULL };
    let mut workload = Workload::new(name, sizes, seed, dir.to_path_buf())?;

    let mut setups = Vec::new();
    loop {
        let t0 = Instant::now();
        workload.setup()?;
        setups.push(t0.elapsed().as_secs_f64());
        let enough = setups.len() >= MIN_SETUPS
            && (setups.iter().sum::<f64>() >= SETUP_BUDGET_S || setups.len() >= MAX_SETUPS);
        if quick || enough {
            break;
        }
    }

    let reps = if quick {
        vec![workload.rep(None)?]
    } else {
        workload.rep(None)?; // warm-up: page cache, allocator arenas, lazy statics
        timed_reps(seconds, MIN_REPS, || workload.rep(None))?
    };
    let verdict = workload.verify();
    let peak_rss = probed_peak_rss_mib(name, seed, quick)?;

    let mut makespans: Vec<f64> = reps.iter().map(|r| r.makespan_s).collect();
    eprintln!("{name}: set-ups {setups:.6?} s, repetitions {makespans:.4?} s");
    let mut rates: Vec<f64> = reps.iter().map(|r| r.units / r.makespan_s).collect();
    let mut metrics = Metrics::default();
    metrics.put("makespan_s", median(&mut makespans), "s");
    metrics.put("throughput_per_s", median(&mut rates), "1/s");
    metrics.put("peak_rss_mib", peak_rss, "MiB");
    metrics.put("setup_s", median(&mut setups), "s");
    Ok(Outcome { metrics, verdict })
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// A workload name, or `all`.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds of timed repetitions per run.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Smoke-test sizes, one repetition.
    pub quick: bool,
    /// With `all`: run the untraced set twice and compare within bounds.
    pub check_repeat: bool,
    /// Internal: be the memory probe of `workload` (see [`rss_probe`]).
    pub rss_probe: bool,
}

impl Args {
    /// Parse `--workload W --seed N --seconds S --trace 0|1 [--quick] [--check-repeat]`.
    pub fn parse(argv: impl IntoIterator<Item = String>) -> Res<Args> {
        let mut args = Args {
            workload: "all".into(),
            seed: 2022,
            seconds: 10.0,
            trace: false,
            quick: false,
            check_repeat: false,
            rss_probe: false,
        };
        let mut argv = argv.into_iter();
        while let Some(flag) = argv.next() {
            let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => args.workload = value()?,
                "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
                }
                "--trace" => args.trace = value()? == "1",
                "--quick" => args.quick = true,
                "--check-repeat" => args.check_repeat = true,
                "--rss-probe" => args.rss_probe = true,
                "all" => args.workload = "all".into(),
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(args)
    }
}

/// The binaries' `main`: run what the command line asks, print the result.
pub fn cli_main() -> i32 {
    let outcome = Args::parse(std::env::args().skip(1)).and_then(|args| {
        if args.rss_probe {
            return rss_probe(&args);
        }
        if args.workload == "all" {
            return suite::run(&args);
        }
        let outcome = if args.trace {
            traced::measure(&args.workload, args.seed, args.seconds, args.quick)?
        } else {
            measure(&args.workload, args.seed, args.seconds, args.quick)?
        };
        eprint!(
            "{} (seed {}):\n{}",
            args.workload,
            args.seed,
            outcome.table()
        );
        println!("{}", outcome.to_json());
        Ok(outcome.exit_code())
    });
    outcome.unwrap_or_else(|e| {
        eprintln!("eoml-wallbench: {e}");
        2
    })
}
