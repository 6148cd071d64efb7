//! Quickstart: configure a campaign in YAML (as the paper's users do) and
//! run the five-stage workflow in virtual time.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use eoml::config::WorkflowConfig;
use eoml::core::campaign::{run_campaign, CampaignParams};
use eoml::obs::Obs;
use std::sync::Arc;

const CONFIG: &str = r#"
# EO-ML workflow configuration (see eoml-config for the full schema)
name: quickstart
seed: 2022
platform: Terra
products: [MOD021KM, MOD03, MOD06_L2]
time_span:
  start: 2022-01-01
  days: 1
download:
  workers: 3
  endpoint: laads
  files_per_day: 24
preprocess:
  nodes: 4
  workers_per_node: 8
  tile_size: 128
  min_ocean_fraction: 1.0
  min_cloud_fraction: 0.3
inference:
  workers: 1
shipment:
  destination: frontier-orion
  path: /lustre/orion/cli/aicca
"#;

fn main() {
    let cfg = WorkflowConfig::from_yaml_str(CONFIG).expect("valid config");
    println!("campaign     : {}", cfg.name);
    println!("platform     : {}", cfg.platform);
    println!(
        "time span    : {} (+{} days)",
        cfg.time_span.start, cfg.time_span.days
    );
    println!(
        "resources    : {} download workers, {} nodes × {} workers, {} inference worker(s)",
        cfg.download.workers,
        cfg.preprocess.nodes,
        cfg.preprocess.workers_per_node,
        cfg.inference.workers
    );
    println!();

    let obs = Obs::shared();
    let report = run_campaign(CampaignParams::from_config(&cfg).with_obs(Arc::clone(&obs)));

    println!("=== campaign report ===");
    print!("{}", report.summary_table());
    println!(
        "download speed        : {} (mean per file {})",
        report.download.aggregate_speed(),
        report.download.mean_file_speed()
    );
    println!();
    // Provenance: trace one shipped file back to the archive.
    if let Some(shipped) = report
        .provenance
        .records()
        .find(|r| r.activity == "shipment")
    {
        println!("lineage of {}:", shipped.artifact);
        for ancestor in report.provenance.lineage(shipped.artifact).iter().take(6) {
            println!("  ← {ancestor}");
        }
        println!();
    }
    // Fig. 7 reads the hub's per-`(name, stage)` span histograms.
    let hist = |stage: &str, name: &str| obs.metrics().histogram(name, stage);
    println!("latency breakdown (paper Fig. 7 analogue):");
    for (label, stage, name) in [
        ("download launch     ", "download", "launch"),
        ("slurm allocation    ", "preprocess", "slurm_alloc"),
        ("parsl start         ", "preprocess", "parsl_start"),
        ("preprocessing total ", "preprocess", "total"),
    ] {
        let seconds = hist(stage, name).map_or(0.0, |h| h.sum());
        println!("  {label}: {seconds:.2}s");
    }
    let flow_action = hist("inference", "flow_action").map_or(0.0, |h| h.sum() / h.count() as f64);
    println!("  flow action overhead: {:.0}ms mean", flow_action * 1e3);
}
