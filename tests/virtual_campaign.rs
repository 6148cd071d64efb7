//! Integration tests of the virtual-time multi-facility campaign: YAML
//! config → five-stage workflow → report, spanning `eoml-config`,
//! `eoml-core`, `eoml-transfer`, `eoml-cluster` and `eoml-flows`.

use eoml::config::WorkflowConfig;
use eoml::core::campaign::{run_campaign, CampaignParams};
use eoml::obs::Obs;
use eoml::transfer::faults::FaultPlan;
use std::sync::Arc;

const YAML: &str = r#"
name: itest
seed: 77
platform: Terra
time_span:
  start: 2022-01-01
  days: 1
download:
  workers: 3
  files_per_day: 8
preprocess:
  nodes: 2
  workers_per_node: 8
inference:
  workers: 1
"#;

#[test]
fn yaml_config_drives_a_full_campaign() {
    let cfg = WorkflowConfig::from_yaml_str(YAML).expect("valid yaml");
    let report = run_campaign(CampaignParams::from_config(&cfg));
    // 8 files × 3 products downloaded.
    assert_eq!(report.download.files.len(), 24);
    assert!(report.download.failed.is_empty());
    // Every MOD02 file became a preprocessing task.
    assert_eq!(report.granules, 8);
    // Everything produced got labeled and shipped.
    assert_eq!(report.labeled_files, report.tile_files);
    assert_eq!(report.shipment.files_ok, report.tile_files);
    assert!(report.makespan_s > 0.0);
    // Stage ordering: download before preprocess end before shipment end.
    let dl = report.stage("download").expect("download");
    let pp = report.stage("preprocess").expect("preprocess");
    let sh = report.stage("shipment").expect("shipment");
    assert!(dl.finished <= pp.finished);
    assert!(pp.finished <= sh.finished);
}

#[test]
fn more_nodes_shorten_preprocessing() {
    let run = |nodes: usize| {
        run_campaign(CampaignParams {
            files_per_day: 64,
            nodes,
            ..CampaignParams::paper_demo()
        })
    };
    let r1 = run(1);
    let r8 = run(8);
    let t1 = r1.stage("preprocess").unwrap().seconds();
    let t8 = r8.stage("preprocess").unwrap().seconds();
    assert!(
        t8 < t1 * 0.55,
        "8 nodes ({t8:.1}s) should be much faster than 1 ({t1:.1}s)"
    );
    // Same work either way.
    assert_eq!(r1.tile_files, r8.tile_files);
    assert!((r1.total_tiles - r8.total_tiles).abs() < 1e-6);
}

#[test]
fn more_download_workers_shorten_stage1_on_large_batches() {
    let run = |workers: usize| {
        run_campaign(CampaignParams {
            files_per_day: 32,
            download_workers: workers,
            ..CampaignParams::paper_demo()
        })
    };
    let t3 = run(3).stage("download").unwrap().seconds();
    let t6 = run(6).stage("download").unwrap().seconds();
    assert!(t6 < t3, "6 workers {t6:.1}s vs 3 workers {t3:.1}s");
}

#[test]
fn campaign_survives_flaky_wan() {
    let report = run_campaign(CampaignParams {
        files_per_day: 16,
        faults: FaultPlan::flaky_wan(),
        ..CampaignParams::paper_demo()
    });
    // All files eventually arrive (retries) and the pipeline completes.
    assert_eq!(report.download.files.len(), 48);
    assert!(report.download.failed.is_empty());
    assert_eq!(report.labeled_files, report.tile_files);
    assert_eq!(report.shipment.files_failed, 0);
}

#[test]
fn telemetry_covers_all_five_stages() {
    let obs = Obs::shared();
    let report = run_campaign(CampaignParams::paper_demo().with_obs(Arc::clone(&obs)));
    let tel = &report.telemetry;
    let hist = |stage: &str, name: &str| obs.metrics().histogram(name, stage).unwrap();
    assert!(hist("download", "launch").sum() > 0.0);
    assert!(hist("download", "transfer").sum() > 0.0);
    assert!(hist("preprocess", "slurm_alloc").sum() > 0.0);
    assert!(hist("preprocess", "total").sum() > 0.0);
    let flow_action = hist("inference", "flow_action");
    assert!(flow_action.sum() / flow_action.count() as f64 > 0.0);
    assert!(hist("shipment", "transfer").sum() > 0.0);
    // Activity timelines exist for the three worker-bearing stages.
    for stage in ["download", "preprocess", "inference"] {
        assert!(tel.peak(stage) > 0, "no activity recorded for {stage}");
    }
}

#[test]
fn default_config_runs_a_day_of_288_granules() {
    // The default config downloads whole days (288 files/product). Keep the
    // cluster small so the test stays quick while still exercising volume.
    let mut cfg = WorkflowConfig::default();
    cfg.preprocess.nodes = 8;
    let mut params = CampaignParams::from_config(&cfg);
    params.files_per_day = 288;
    let report = run_campaign(params);
    assert_eq!(report.granules, 288);
    assert_eq!(report.download.files.len(), 864);
    // Roughly half the granules are daytime.
    assert!(
        report.tile_files > 80 && report.tile_files < 220,
        "{}",
        report.tile_files
    );
    // Daily volume ≈ 58.4 GB across the three products.
    let gb = report.download.bytes.as_gb();
    assert!((50.0..70.0).contains(&gb), "downloaded {gb} GB");
}

#[test]
fn simulator_wall_time_is_linear_in_campaign_length() {
    // The provenance log is indexed (DESIGN §19): a manifest's lineage slice
    // costs the same per file however long the campaign is. Before the index
    // it was a scan of the whole log per artifact and 16 days took 38× the
    // wall time of 4; linear is 4×, and 8× leaves room for a noisy host.
    let run = |days: usize| {
        let params = CampaignParams {
            days,
            files_per_day: 288,
            ..CampaignParams::paper_demo()
        };
        let timed = (0..3).map(|_| {
            let t0 = std::time::Instant::now();
            let report = run_campaign(params.clone());
            (t0.elapsed().as_secs_f64(), report)
        });
        timed
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .expect("three runs")
    };
    let (wall_4d, _) = run(4);
    let (wall_16d, report) = run(16);
    assert!(
        wall_16d <= 8.0 * wall_4d,
        "16 days took {wall_16d:.3} s, 4 days {wall_4d:.3} s: super-linear"
    );

    // What the index makes affordable to assert on a 20 736-record log.
    assert_eq!(report.granules, 16 * 288);
    let manifest = report.manifest.as_ref().expect("manifest");
    assert_eq!(manifest.lineage.len(), 6 * report.tile_files);
    assert!(report.provenance.is_acyclic());
    let shipped = report
        .provenance
        .records()
        .iter()
        .find(|rec| rec.activity == "shipment")
        .expect("shipment recorded");
    let lineage = report.provenance.lineage(&shipped.artifact);
    assert_eq!(lineage.len(), 8, "{lineage:?}");
    assert!(lineage[0].starts_with("labeled:tiles-"), "{lineage:?}");
    assert!(lineage[5..].iter().all(|a| a.starts_with("laads:")));
}
