//! `all`: every workload in its own child process (so `peak_rss_mib` is per
//! workload), untraced and traced, printed by name with units — and
//! `--check-repeat`, which runs the untraced set twice on the same build and
//! fails if any end-to-end median moves by more than its bound.

use crate::workloads::{Res, NAMES};
use crate::{home, Args};
use serde_json::{json, Map, Value};
use std::process::Command;

/// The manifest beside the benchmark's directory.
pub fn benchmark_json() -> Res<Value> {
    let path = home().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn command_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(home())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Host facts a wall-clock number is meaningless without. Compare two
/// result files only when `nproc` matches.
pub fn host_meta() -> Value {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown", str::trim);
    let work = home().join("work");
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    let filesystem = mounts
        .lines()
        .filter_map(|l| {
            let mut fields = l.split(' ');
            let (_, mount, fstype) = (fields.next()?, fields.next()?, fields.next()?);
            work.starts_with(mount).then_some((mount.len(), fstype))
        })
        .max_by_key(|&(len, _)| len)
        .map_or("unknown", |(_, fstype)| fstype);
    json!({
        "nproc": std::thread::available_parallelism().map_or(0, |n| n.get()),
        "cpu": cpu,
        "rustc": command_output("rustc", &["--version"]),
        "commit": command_output("git", &["rev-parse", "--short", "HEAD"]),
        "workdir_filesystem": filesystem,
    })
}

/// Run one workload in a child process and parse its result line. Traced
/// runs use the sibling binary that installs the counting allocator.
fn child(workload: &str, args: &Args, trace: bool) -> Res<Value> {
    let me = std::env::current_exe().map_err(|e| e.to_string())?;
    let traced = me.with_file_name("eoml-wallbench-traced");
    let exe = if trace && traced.exists() { traced } else { me };
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    let output = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    serde_json::from_str(last).map_err(|e| {
        let stderr = String::from_utf8_lossy(&output.stderr);
        format!(
            "{workload} (trace {}) printed no result: {e}\n{stderr}",
            u8::from(trace)
        )
    })
}

fn print_metrics(result: &Value) {
    let Some(metrics) = result["metrics"].as_object() else {
        return;
    };
    for (name, m) in metrics.iter() {
        let (value, unit) = (
            m["value"].as_f64().unwrap_or(f64::NAN),
            m["unit"].as_str().unwrap_or(""),
        );
        println!("  {name:<38} {value:>16.6} {unit}");
    }
}

fn failed(result: &Value) -> u64 {
    if result["correct"].as_bool() == Some(true) {
        0
    } else {
        result["failed"].as_u64().unwrap_or(0).max(1)
    }
}

/// One untraced pass over every workload.
fn untraced_set(args: &Args) -> Res<Vec<Value>> {
    NAMES.iter().map(|w| child(w, args, false)).collect()
}

fn check_repeat(args: &Args) -> Res<i32> {
    let manifest = benchmark_json()?;
    let bounds = manifest["end_to_end"]
        .as_array()
        .ok_or("BENCHMARK.json: no end_to_end")?;
    let (first, second) = (untraced_set(args)?, untraced_set(args)?);
    let mut bad = 0;
    println!(
        "{:<18} {:<18} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "set 1", "set 2", "moved", "bound"
    );
    for ((workload, a), b) in NAMES.iter().zip(&first).zip(&second) {
        bad += failed(a) + failed(b);
        for spec in bounds {
            let name = spec["name"]
                .as_str()
                .ok_or("BENCHMARK.json: metric without name")?;
            let bound = spec["bound"]
                .as_f64()
                .ok_or("BENCHMARK.json: metric without bound")?;
            let value = |set: &Value| {
                set["metrics"][name]["value"]
                    .as_f64()
                    .ok_or(format!("{workload}: no {name}"))
            };
            let (x, y) = (value(a)?, value(b)?);
            let moved = (y - x).abs() / x.abs();
            let verdict = if moved > bound { "FAIL" } else { "ok" };
            bad += u64::from(moved > bound);
            println!(
                "{workload:<18} {name:<18} {x:>14.6} {y:>14.6} {:>7.2}% {:>5.0}% {verdict}",
                moved * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(i32::from(bad > 0))
}

/// `all [--check-repeat]`.
pub fn run(args: &Args) -> Res<i32> {
    if args.check_repeat {
        return check_repeat(args);
    }
    let meta = host_meta();
    println!("host: {meta}");
    let mut workloads = Map::new();
    let mut bad = 0;
    for name in NAMES {
        let (plain, traced) = (child(name, args, false)?, child(name, args, true)?);
        println!("{name} (seed {}): end to end, untraced", args.seed);
        print_metrics(&plain);
        println!("{name} (seed {}): per layer, traced", args.seed);
        print_metrics(&traced);
        for result in [&plain, &traced] {
            println!(
                "  ops_attempted {} ops_failed {}",
                result["attempted"], result["failed"]
            );
            bad += failed(result);
        }
        workloads.insert(
            name.to_string(),
            json!({ "end_to_end": plain, "per_layer": traced }),
        );
    }
    let out_dir = home().join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
    let doc = json!({ "meta": meta, "seed": args.seed, "quick": args.quick, "workloads": Value::Object(workloads) });
    let path = out_dir.join("wall.json");
    std::fs::write(&path, doc.to_string()).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!(
        "results: {}; traces and self-time tables beside it",
        path.display()
    );
    Ok(i32::from(bad > 0))
}
