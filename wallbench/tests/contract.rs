//! The benchmark against its own manifest: quick mode emits exactly the
//! metric names `BENCHMARK.json` declares, and a verification failure shows
//! up as `failed > 0` and a non-zero exit.

use eoml_wallbench::suite::benchmark_json;
use eoml_wallbench::workloads::{Real, Shape, Sizes, NAMES};
use eoml_wallbench::{work_dir, Metrics, Outcome};
use serde_json::Value;
use std::collections::BTreeSet;
use std::process::Command;

fn declared(manifest: &Value, section: &str) -> BTreeSet<String> {
    manifest[section]
        .as_array()
        .expect("section")
        .iter()
        .map(|m| m["name"].as_str().expect("name").to_string())
        .collect()
}

fn quick_run(workload: &str, trace: bool) -> Value {
    let exe = if trace {
        env!("CARGO_BIN_EXE_eoml-wallbench-traced")
    } else {
        env!("CARGO_BIN_EXE_eoml-wallbench")
    };
    let output = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "1",
            "--quick",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "{workload} trace {trace}: {stderr}"
    );
    serde_json::from_str(stdout.lines().last().expect("a result line")).expect("result JSON")
}

#[test]
fn quick_mode_emits_exactly_the_declared_metrics() {
    let manifest = benchmark_json().expect("BENCHMARK.json");
    let workloads = declared(&manifest, "workloads");
    assert_eq!(workloads, NAMES.iter().map(|n| n.to_string()).collect());
    for (section, trace) in [("end_to_end", false), ("per_layer", true)] {
        let names = declared(&manifest, section);
        for name in &names {
            let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
            assert!(
                !name.is_empty() && name.chars().all(ok),
                "bad metric name {name:?}"
            );
        }
        for workload in NAMES {
            let result = quick_run(workload, trace);
            assert_eq!(result["correct"].as_bool(), Some(true), "{workload}");
            assert_eq!(result["failed"].as_u64(), Some(0), "{workload}");
            assert!(result["attempted"].as_u64().expect("attempted") >= 1);
            let metrics = result["metrics"].as_object().expect("metrics");
            let emitted: BTreeSet<String> = metrics.iter().map(|(k, _)| k.to_string()).collect();
            assert_eq!(emitted, names, "{workload} {section}");
            let units: Vec<(&str, &str)> = manifest[section]
                .as_array()
                .expect("section")
                .iter()
                .map(|m| (m["name"].as_str().unwrap(), m["unit"].as_str().unwrap()))
                .collect();
            for (name, unit) in units {
                assert_eq!(
                    metrics.get(name).unwrap()["unit"].as_str(),
                    Some(unit),
                    "{name}"
                );
            }
        }
    }
}

#[test]
fn a_truncated_outbox_file_fails_verification_and_the_exit_code() {
    let dir = work_dir("contract-truncated");
    let count = Sizes::QUICK.small_granules;
    let mut real = Real::new(Shape::SMALL, count, true, 5, dir.clone());
    real.setup().expect("setup");
    real.rep(None).expect("rep");
    let clean = real.verify();
    assert_eq!(clean.failed, 0);
    assert!(clean.attempted as usize > count * Shape::SMALL.windows());

    let victim = real.last.as_ref().expect("rep ran").report.outbox[0].clone();
    let bytes = std::fs::read(&victim).expect("shipped file");
    std::fs::write(&victim, &bytes[..bytes.len() / 2]).expect("truncate");
    let verdict = real.verify();
    assert!(verdict.failed > 0, "truncation went unnoticed");
    let outcome = Outcome {
        metrics: Metrics::default(),
        verdict,
    };
    assert!(!outcome.correct());
    assert_ne!(outcome.exit_code(), 0);
    assert_eq!(outcome.to_json()["correct"].as_bool(), Some(false));
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
