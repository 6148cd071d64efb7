//! Per-granule trace analysis end to end.
//!
//! A hand-built five-stage trace with a known critical path and one
//! injected straggler must be recovered exactly (critical path, straggler
//! set, per-stage service/queue attribution), the Fig. 6 timeline stats
//! must match the synthetic schedule, and a full observed campaign's
//! Fig. 6/7 report must agree with the metrics registry while a healthy
//! run abandons no download.

use eoml::core::campaign::{run_campaign, trace_for_artifact, CampaignParams};
use eoml::obs::analysis::stage_timelines;
use eoml::obs::{Obs, ObsReport, SegmentKind, StragglerConfig, TraceAnalysis, TraceContext};
use eoml::simtime::SimTime;
use std::sync::Arc;

const STAGES: [&str; 5] = ["download", "preprocess", "monitor", "inference", "shipment"];

fn t(s: f64) -> SimTime {
    SimTime::from_secs_f64(s)
}

/// One synthetic granule's five-stage journey, shifted by `o` seconds:
/// download 10 s, 2 s queue, preprocess `pp` seconds, a monitor trigger
/// 1 s into the 2 s handoff gap, inference 8 s, 1 s queue, shipment 2 s.
fn record_granule(obs: &Obs, id: &str, o: f64, pp: f64) {
    let trace = TraceContext::new(id);
    let tr = Some(&trace);
    obs.record_sim_span("download", "file", t(o), t(o + 10.0), tr, &[]);
    let pp_end = o + 12.0 + pp;
    obs.record_sim_span("preprocess", "granule", t(o + 12.0), t(pp_end), tr, &[]);
    obs.record_sim_span(
        "monitor",
        "trigger",
        t(pp_end + 1.0),
        t(pp_end + 1.0),
        tr,
        &[],
    );
    obs.record_sim_span(
        "inference",
        "infer",
        t(pp_end + 2.0),
        t(pp_end + 10.0),
        tr,
        &[],
    );
    obs.record_sim_span(
        "shipment",
        "file",
        t(pp_end + 11.0),
        t(pp_end + 13.0),
        tr,
        &[],
    );
}

/// Five granules 100 s apart; G5's preprocess is the injected straggler
/// (40 s against a median of 8 s).
fn synthetic_obs() -> Arc<Obs> {
    let obs = Obs::shared();
    for (i, id) in ["G1", "G2", "G3", "G4", "G5"].iter().enumerate() {
        let pp = if *id == "G5" { 40.0 } else { 8.0 };
        record_granule(&obs, id, i as f64 * 100.0, pp);
    }
    obs
}

#[test]
fn synthetic_trace_recovers_exact_critical_path_and_attribution() {
    let obs = synthetic_obs();
    let analysis = TraceAnalysis::from_obs(&obs);
    assert_eq!(analysis.len(), 5);

    let g1 = analysis.trace("G1").expect("G1 trace");
    assert!((g1.e2e_seconds() - 33.0).abs() < 1e-9);
    for stage in STAGES {
        assert!(g1.stages().contains(&stage), "missing {stage}");
    }

    // The critical path tiles [0, 33] with the exact segment sequence:
    // the monitor mark splits the preprocess → inference handoff gap.
    let path = g1.critical_path();
    let shape: Vec<(SegmentKind, &str)> = path
        .iter()
        .map(|seg| (seg.kind, seg.stage.as_str()))
        .collect();
    assert_eq!(
        shape,
        vec![
            (SegmentKind::Service, "download"),
            (SegmentKind::Queue, "preprocess"),
            (SegmentKind::Service, "preprocess"),
            (SegmentKind::Queue, "monitor"),
            (SegmentKind::Queue, "inference"),
            (SegmentKind::Service, "inference"),
            (SegmentKind::Queue, "shipment"),
            (SegmentKind::Service, "shipment"),
        ]
    );
    let tiled: f64 = path.iter().map(|seg| seg.seconds()).sum();
    assert!(
        (tiled - g1.e2e_seconds()).abs() < 1e-9,
        "path must tile e2e"
    );

    // Per-stage service vs. queueing attribution.
    let attr = g1.stage_attribution();
    let of = |stage: &str| {
        attr.iter()
            .find(|a| a.stage == stage)
            .unwrap_or_else(|| panic!("no {stage} attribution"))
    };
    for (stage, service, queue) in [
        ("download", 10.0, 0.0),
        ("preprocess", 8.0, 2.0),
        ("monitor", 0.0, 1.0),
        ("inference", 8.0, 1.0),
        ("shipment", 2.0, 1.0),
    ] {
        let a = of(stage);
        assert!((a.service_s - service).abs() < 1e-9, "{stage} service");
        assert!((a.queue_s - queue).abs() < 1e-9, "{stage} queue");
    }
    assert_eq!(g1.bottleneck().unwrap().stage, "download");
}

#[test]
fn injected_straggler_is_the_only_one_found() {
    let obs = synthetic_obs();
    let analysis = TraceAnalysis::from_obs(&obs);
    let stragglers = analysis.stragglers(&StragglerConfig::default());
    assert_eq!(stragglers.len(), 1, "{stragglers:?}");
    let s = &stragglers[0];
    assert_eq!(s.stage, "preprocess");
    assert_eq!(s.trace_id, "G5");
    assert!((s.seconds - 40.0).abs() < 1e-9);
    assert!(
        (s.median_s - 8.0).abs() < 1e-9,
        "exact median of 8,8,8,8,40"
    );

    // stage_health covers the same five stages the analysis saw.
    let health = obs.stage_health();
    for stage in STAGES {
        let h = health
            .iter()
            .find(|h| h.stage == stage)
            .unwrap_or_else(|| panic!("no {stage} health"));
        assert_eq!(h.spans_closed, 5, "{stage}");
    }
    let dl = health.iter().find(|h| h.stage == "download").unwrap();
    assert!((dl.busy_seconds - 50.0).abs() < 1e-6);
}

#[test]
fn fig6_timeline_reports_utilization_and_idle_gaps() {
    let obs = synthetic_obs();
    let timelines = stage_timelines(&obs.spans());
    let dl = timelines
        .iter()
        .find(|tl| tl.stage == "download")
        .expect("download timeline");
    // Five 10 s downloads starting 100 s apart: extent [0, 410], 50 s
    // busy, four 90 s idle gaps, never more than one active.
    assert!((dl.first_s - 0.0).abs() < 1e-9);
    assert!((dl.last_s - 410.0).abs() < 1e-9);
    assert!((dl.busy_seconds - 50.0).abs() < 1e-9);
    assert!((dl.idle_seconds - 360.0).abs() < 1e-9);
    assert_eq!(dl.idle_gaps.len(), 4);
    assert_eq!(dl.peak, 1);
    assert_eq!(dl.active_at(5.0), 1);
    assert_eq!(dl.active_at(50.0), 0);
    assert!((dl.utilization() - 50.0 / 410.0).abs() < 1e-9);
}

#[test]
fn campaign_report_agrees_with_registry_and_healthy_run_stays_quiet() {
    let obs = Obs::shared();
    let params = CampaignParams {
        files_per_day: 24,
        ..CampaignParams::small()
    }
    .with_obs(Arc::clone(&obs));
    let report = run_campaign(params);
    assert!(report.labeled_files > 0);
    let abandoned = obs.metrics().counter_value("files_abandoned", "download");
    assert_eq!(
        abandoned.unwrap_or(0),
        0,
        "healthy run abandoned a download"
    );

    // The Fig. 6/7 report's per-stage totals agree with the registry.
    let obs_report = ObsReport::from_obs(&obs);
    let mismatches = obs_report.verify_against(&obs.metrics().snapshot());
    assert!(mismatches.is_empty(), "{mismatches:?}");
    let text = obs_report.render_text(0);
    assert!(text.contains("Fig. 6"));
    assert!(text.contains("Fig. 7"));
    for stage in STAGES {
        assert!(text.contains(stage), "report missing {stage}");
    }

    // Provenance join: every shipped artifact has a queryable trace with
    // a nameable slow stage.
    let analysis = TraceAnalysis::from_obs(&obs);
    let shipped: Vec<&str> = report
        .provenance
        .records()
        .filter(|r| r.artifact.starts_with("orion:"))
        .map(|r| r.artifact)
        .collect();
    assert!(!shipped.is_empty());
    for artifact in shipped {
        let trace = trace_for_artifact(&analysis, artifact)
            .unwrap_or_else(|| panic!("no trace behind {artifact}"));
        assert!(trace.bottleneck().is_some());
    }
}
