//! A multi-facility campaign study: sweep the per-stage resource
//! allocation in virtual time and render a Fig.-6-style worker timeline.
//!
//! ```sh
//! cargo run --release --example multi_facility_campaign
//! # with trace export:
//! EOML_TRACE=trace.json EOML_PROM=metrics.prom \
//!     cargo run --release --example multi_facility_campaign
//! # with collapsed-stack profile + per-stage memory accounting:
//! EOML_FOLDED=profile.folded cargo run --release \
//!     --example multi_facility_campaign --features alloc-profile
//! # freeze the observed run as a diffable archive:
//! EOML_ARCHIVE=run-archive cargo run --release \
//!     --example multi_facility_campaign
//! ```

use eoml::core::campaign::{run_campaign, run_campaign_resumable, CampaignParams};
use eoml::core::scheduler::run_multi_day_resumable;
use eoml::core::streaming::{run_streaming_campaign, StreamingParams};
use eoml::journal::{Journal, JournalEvent, Ledger, MemStorage};
use eoml::simtime::SimTime;
use eoml::transfer::faults::FaultPlan;

// With `--features alloc-profile` the whole example runs under the
// counting allocator, so step 9's memory table fills with real per-stage
// byte attribution; without it the table is empty and the step says so.
#[cfg(feature = "alloc-profile")]
eoml::obs::install_counting_allocator!();

fn main() {
    // 1) Download-worker sweep (paper Fig. 3's 3 vs 6 workers).
    println!("== download workers sweep (one day, 32 files/product) ==");
    for workers in [3, 6] {
        let report = run_campaign(CampaignParams {
            files_per_day: 32,
            download_workers: workers,
            ..CampaignParams::paper_demo()
        });
        println!(
            "  {workers} workers: downloaded {} in {:.1}s  (aggregate {}, mean file {})",
            report.download.bytes,
            (report.download.finished - report.download.started).as_secs_f64(),
            report.download.aggregate_speed(),
            report.download.mean_file_speed(),
        );
    }

    // 2) Node sweep for preprocessing.
    println!();
    println!("== preprocessing node sweep (8 workers/node) ==");
    for nodes in [1, 2, 4, 8, 10] {
        let report = run_campaign(CampaignParams {
            files_per_day: 48,
            nodes,
            ..CampaignParams::paper_demo()
        });
        let pp = report.stage("preprocess").expect("stage ran");
        println!(
            "  {nodes:>2} nodes: preprocess {:>7.1}s  ({:.0} tiles, {:.1} tiles/s), makespan {:>7.1}s",
            pp.seconds(),
            report.total_tiles,
            report.total_tiles / pp.seconds(),
            report.makespan_s
        );
    }

    // 3) A flaky WAN still completes (retries in stage 1/5).
    println!();
    println!("== fault injection (2% drops, 0.5% corruption) ==");
    let clean = run_campaign(CampaignParams::paper_demo());
    let flaky = run_campaign(CampaignParams {
        faults: FaultPlan::flaky_wan(),
        ..CampaignParams::paper_demo()
    });
    println!(
        "  clean WAN: {} files, {} retries, makespan {:.1}s",
        clean.download.files.len(),
        clean.download.retries,
        clean.makespan_s
    );
    println!(
        "  flaky WAN: {} files, {} retries, makespan {:.1}s",
        flaky.download.files.len(),
        flaky.download.retries,
        flaky.makespan_s
    );

    // 4) Fig.-6-style timeline of the paper-demo allocation.
    println!();
    println!("== automation timeline (3 download / 32 preprocess / 1 inference workers) ==");
    let report = run_campaign(CampaignParams {
        files_per_day: 24,
        ..CampaignParams::paper_demo()
    });
    let t_end = SimTime::from_secs_f64(report.makespan_s);
    const COLS: usize = 72;
    for stage in ["download", "preprocess", "inference"] {
        let samples = report
            .telemetry
            .sample_activity(stage, SimTime::ZERO, t_end, COLS);
        let peak = report.telemetry.peak(stage).max(1);
        let bar: String = samples
            .iter()
            .map(|&(_, a)| {
                if a == 0 {
                    ' '
                } else {
                    let level = (a * 8).div_ceil(peak).min(8);
                    [
                        ' ', '\u{2581}', '\u{2582}', '\u{2583}', '\u{2584}', '\u{2585}',
                        '\u{2586}', '\u{2587}', '\u{2588}',
                    ][level]
                }
            })
            .collect();
        println!("  {stage:<11} |{bar}| peak {peak}");
    }
    println!(
        "  {:<11} 0s{:>width$.0}s",
        "time",
        report.makespan_s,
        width = COLS - 1
    );
    println!(
        "\n  preprocess/inference overlap: {}",
        report.telemetry.stages_overlap("preprocess", "inference")
    );

    // 5) Streaming mode: granules arrive on the (compressed) acquisition
    //    timeline and all five stages pipeline.
    println!();
    println!("== streaming mode (20x-compressed acquisition day) ==");
    let streaming = run_streaming_campaign(StreamingParams {
        base: CampaignParams {
            files_per_day: 48,
            ..CampaignParams::paper_demo()
        },
        ..StreamingParams::demo()
    });
    println!(
        "  {} granules downloaded, {} preprocessed, {} labeled files shipped",
        streaming.granules_downloaded, streaming.granules_preprocessed, streaming.shipped_files
    );
    for stage in &streaming.stages {
        println!(
            "  {:<11} window {:>7.1}s  ({} items, {})",
            stage.name,
            stage.seconds(),
            stage.items,
            stage.bytes
        );
    }
    println!(
        "  makespan {:.1}s; download/preprocess overlap: {}",
        streaming.makespan_s,
        streaming.telemetry.stages_overlap("download", "preprocess")
    );

    // 6) Crash/resume: journal the campaign to a write-ahead log, kill it
    //    mid-run, then resume from the recovered journal. The resumed
    //    report's totals exactly match an uninterrupted run's.
    println!();
    println!("== crash/resume with the write-ahead journal ==");
    let params = CampaignParams {
        files_per_day: 24,
        ..CampaignParams::paper_demo()
    };
    let uninterrupted = run_campaign(params.clone());

    let store = MemStorage::new();
    let (mut journal, _) = Journal::open(store.clone()).unwrap();
    journal.crash_after(40); // kill the campaign at its 41st journal append
    let crashed = run_campaign_resumable(params.clone(), journal);
    println!(
        "  crash injected at event 40: campaign aborted ({})",
        crashed.err().map(|e| e.to_string()).unwrap_or_default()
    );

    let (journal, recovery) = Journal::open(store.clone()).unwrap();
    let done_downloads = journal.state().downloaded.len();
    let done_tiles = journal.state().tile_files.len();
    println!(
        "  recovered {} durable events ({} downloads, {} preprocessed granules journaled)",
        recovery.events, done_downloads, done_tiles
    );

    let resumed = run_campaign_resumable(params, journal).unwrap();
    println!(
        "  resumed: {} granules, {:.0} tiles, {} labeled, {} shipped",
        resumed.granules, resumed.total_tiles, resumed.labeled_files, resumed.shipment.bytes
    );
    println!(
        "  totals match uninterrupted run: {}",
        resumed.granules == uninterrupted.granules
            && resumed.total_tiles == uninterrupted.total_tiles
            && resumed.labeled_files == uninterrupted.labeled_files
            && resumed.shipment.bytes == uninterrupted.shipment.bytes
    );
    let (final_journal, _) = Journal::open(store).unwrap();
    let redone = final_journal
        .events()
        .iter()
        .filter(|e| matches!(e, JournalEvent::FileDownloaded { .. }))
        .count()
        .saturating_sub(uninterrupted.download.files.len());
    println!("  re-executed downloads after resume: {redone}");

    // 7) Observability: re-run the campaign with an obs hub attached and
    //    export a Chrome trace (loadable in Perfetto / chrome://tracing)
    //    plus a Prometheus text dump. Output paths come from the
    //    EOML_TRACE / EOML_PROM environment variables.
    println!();
    println!("== observability export ==");
    let obs = eoml::obs::Obs::shared();
    let observed = run_campaign(
        CampaignParams {
            files_per_day: 24,
            ..CampaignParams::paper_demo()
        }
        .with_obs(std::sync::Arc::clone(&obs)),
    );
    println!(
        "  {} spans over {} granules; stage health:",
        obs.span_count(),
        observed.granules
    );
    for h in obs.stage_health() {
        println!(
            "    {:<11} {:>4} spans closed, {:>8.1}s busy",
            h.stage, h.spans_closed, h.busy_seconds
        );
    }
    match std::env::var("EOML_TRACE") {
        Ok(path) => {
            obs.write_chrome_trace(&path).expect("write trace");
            println!("  wrote Chrome trace to {path} (open in Perfetto)");
        }
        Err(_) => println!("  set EOML_TRACE=<path> to export a Chrome trace"),
    }
    match std::env::var("EOML_PROM") {
        Ok(path) => {
            obs.write_prometheus(&path).expect("write metrics");
            println!("  wrote Prometheus metrics to {path}");
        }
        Err(_) => println!("  set EOML_PROM=<path> to export Prometheus metrics"),
    }

    // 8) Per-granule trace analysis: every granule carries a trace id
    //    from download to shipment, so the analysis layer can rebuild
    //    end-to-end traces, attribute time to service vs. queueing,
    //    name the bottleneck stage, and flag stragglers. The same span
    //    store renders the Fig. 6 timeline and Fig. 7 breakdown tables;
    //    EOML_REPORT=<dir> writes them as BENCH_*.json.
    println!();
    println!("== per-granule trace analysis ==");
    let analysis = eoml::obs::TraceAnalysis::from_obs(&obs);
    let shipped = observed
        .provenance
        .records()
        .filter(|rec| rec.artifact.starts_with("orion:"))
        .count();
    let covered = observed
        .provenance
        .records()
        .filter(|rec| rec.artifact.starts_with("orion:"))
        .filter(|rec| eoml::core::campaign::trace_for_artifact(&analysis, rec.artifact).is_some())
        .count();
    println!(
        "  {} end-to-end traces; {covered}/{shipped} shipped files covered",
        analysis.len()
    );
    let mut slowest: Vec<&eoml::obs::GranuleTrace> = analysis.traces().collect();
    slowest.sort_by(|a, b| b.e2e_seconds().total_cmp(&a.e2e_seconds()));
    for trace in slowest.iter().take(3) {
        let bn = trace.bottleneck().expect("non-empty trace");
        let queue: f64 = trace.stage_attribution().iter().map(|a| a.queue_s).sum();
        println!(
            "    {:<18} e2e {:>7.1}s  bottleneck {:<10} ({:.1}s service), {:>6.1}s queued",
            trace.trace_id,
            trace.e2e_seconds(),
            bn.stage,
            bn.service_s,
            queue
        );
    }
    let stragglers = analysis.stragglers(&eoml::obs::StragglerConfig::default());
    match stragglers.first() {
        Some(s) => println!(
            "  stragglers: {} (worst: {} in {} at {:.1}s vs median {:.1}s)",
            stragglers.len(),
            s.trace_id,
            s.stage,
            s.seconds,
            s.median_s
        ),
        None => println!("  stragglers: none beyond 2x the stage medians"),
    }
    let report = eoml::obs::ObsReport::from_obs(&obs);
    let mismatches = report.verify_against(&obs.metrics().snapshot());
    assert!(
        mismatches.is_empty(),
        "report/registry disagree: {mismatches:?}"
    );
    println!("  Fig. 6/7 tables agree with the metrics registry");
    println!("{}", report.render_text(2));
    match std::env::var("EOML_REPORT") {
        Ok(dir) => {
            std::fs::create_dir_all(&dir).expect("create report dir");
            let paths = report.write_json(&dir).expect("write report tables");
            println!("  wrote {} BENCH_*.json tables to {dir}", paths.len());
        }
        Err(_) => println!("  set EOML_REPORT=<dir> to write the tables as BENCH_*.json"),
    }

    // 9) Performance profile: deterministic self-time attribution over
    //    the same span store — hot (stage, component) pairs ranked by
    //    exclusive time, a collapsed-stack export for flamegraph.pl /
    //    inferno (EOML_FOLDED=<path>), and, when the counting allocator
    //    is installed (--features alloc-profile), the Fig.-7-style
    //    per-stage memory breakdown.
    println!();
    println!("== performance profile ==");
    let profile = obs.profile();
    println!(
        "  {:.1}s total self time across {} hot paths",
        profile.total_self_seconds(),
        profile.entries().len()
    );
    println!("{}", profile.top_table(10).render_text(2));
    match std::env::var("EOML_FOLDED") {
        Ok(path) => {
            obs.write_folded(&path).expect("write folded profile");
            println!("  wrote collapsed stacks to {path} (feed to flamegraph.pl)");
        }
        Err(_) => println!("  set EOML_FOLDED=<path> to export collapsed stacks"),
    }
    if eoml::obs::resource::counting_active() {
        let snap = eoml::obs::resource::snapshot();
        println!(
            "  allocator: {:.1} MB allocated, {} allocations, {:.1} MB live",
            snap.allocated_bytes as f64 / 1e6,
            snap.allocation_count,
            snap.in_use_bytes as f64 / 1e6,
        );
        let memory = eoml::obs::resource::memory_table(&obs.metrics().snapshot());
        println!("{}", memory.render_text(2));
    } else {
        println!("  build with --features alloc-profile for per-stage memory accounting");
    }
    // EOML_ARCHIVE=<dir> freezes the observed run as a self-describing
    // RunArchive (manifest + spans + folded profile + tables) that
    // `eoml-obsctl diff` can attribute against any other archive offline.
    match std::env::var("EOML_ARCHIVE") {
        Ok(dir) => {
            let digest = eoml::obs::config_digest("multi_facility_campaign files_per_day=24");
            let meta = eoml::obs::RunMeta::new("example-campaign", &digest, 2022);
            let tables = vec![
                report.fig6_timeline.clone(),
                report.stage_stats.clone(),
                report.fig7_breakdown.clone(),
                report.profile_hot.clone(),
            ];
            let archive = eoml::obs::RunArchive::record_obs(&dir, &meta, &obs, &tables, &[])
                .expect("record archive");
            println!(
                "  archived run under {dir} ({} spans; diff offline with `eoml-obsctl diff`)",
                archive.spans.len()
            );
        }
        Err(_) => println!("  set EOML_ARCHIVE=<dir> to freeze this run as a diffable archive"),
    }

    // 10) Durable multi-day scheduling: with EOML_LEDGER=<dir> set, run a
    //     two-day campaign against an on-disk journal ledger — one
    //     fsynced wal.log per day under its own namespace. Run the
    //     example twice against the same directory: the second pass
    //     resumes every day from its journal and re-executes nothing
    //     ("fresh days: 0").
    println!();
    println!("== durable multi-day ledger ==");
    match std::env::var("EOML_LEDGER") {
        Ok(dir) => {
            let ledger = Ledger::new(&dir)
                .expect("create ledger")
                .with_snapshot_every(32)
                .with_auto_compact(8);
            let multi = run_multi_day_resumable(
                CampaignParams {
                    days: 2,
                    files_per_day: 8,
                    ..CampaignParams::paper_demo()
                },
                &ledger,
            )
            .expect("multi-day campaign");
            let mut fresh_days = 0;
            for day in &multi.days {
                if day.recovered_events == 0 {
                    fresh_days += 1;
                }
                println!(
                    "  {}: recovered {} events, {} granules, {} labeled files",
                    day.namespace,
                    day.recovered_events,
                    day.report.granules,
                    day.report.labeled_files
                );
            }
            println!(
                "  ledger at {dir}: {} campaigns, {} bytes on disk, fresh days: {fresh_days}",
                ledger.campaigns().expect("list ledger").len(),
                ledger.total_size().expect("size ledger"),
            );
        }
        Err(_) => println!("  set EOML_LEDGER=<dir> to journal a two-day campaign to disk"),
    }

    // 11) Cross-facility observability: ship the observed campaign's
    //     manifest to the destination facility, verify it there against
    //     the per-artifact digests, roll the outcome into facility
    //     health, and stitch both facilities' span stores into one
    //     Chrome trace with a process lane per facility.
    //     EOML_XFAC_CORRUPT=1 injects deterministic WAN damage (fixed
    //     seed), EOML_XFAC_TRACE=<path> writes the stitched trace,
    //     EOML_XFAC_REPORT=<path> the ingest report.
    println!();
    println!("== two-facility shipment, ingest, and stitched trace ==");
    let manifest = observed.manifest.as_ref().expect("campaign manifest");
    println!(
        "  two-facility: manifest {} covers {} artifacts ({} bytes, {} lineage records)",
        manifest.id(),
        manifest.len(),
        manifest.total_bytes(),
        manifest.lineage.len()
    );
    let dst_obs = eoml::obs::Obs::shared();
    let mut ingestor =
        eoml::transfer::Ingestor::new("frontier-orion").with_obs(std::sync::Arc::clone(&dst_obs));
    let corrupt = std::env::var("EOML_XFAC_CORRUPT").is_ok();
    let plan = if corrupt {
        eoml::transfer::FaultPlan {
            drop_probability: 0.15,
            corrupt_probability: 0.25,
        }
    } else {
        FaultPlan::none()
    };
    let mut faults = eoml::transfer::FaultInjector::new(plan, 0xfa17_0b5e_ed00_0001);
    println!(
        "  two-facility: WAN fault seed {} (corrupt={corrupt})",
        faults.seed()
    );
    let received = eoml::transfer::receive(manifest, &mut faults);
    let ingest = ingestor.ingest(manifest, &received, manifest.created_s + 5.0);
    if ingest.ok() {
        println!(
            "  two-facility: ingest ok — {} artifacts verified at {} in {:.2}s",
            ingest.verified.len(),
            ingest.facility,
            ingest.verify_seconds
        );
    } else {
        println!(
            "  two-facility: ingest FAILED — {} error(s) at {}, first: {}",
            ingest.errors.len(),
            ingest.facility,
            ingest.first_error().expect("errors nonempty")
        );
    }
    // Per-facility health rollup from the destination's verify counters.
    let stage_key = format!("facility:{}", ingest.facility);
    let status = eoml::obs::FacilityStatus {
        facility: ingest.facility.clone(),
        ingest_lag_s: 5.0,
        verified: dst_obs
            .metrics()
            .counter_value("artifacts_verified", &stage_key)
            .unwrap_or(0),
        verify_failures: dst_obs
            .metrics()
            .counter_value("verify_failures", &stage_key)
            .unwrap_or(0),
    };
    let health = eoml::obs::ops::health::evaluate(
        &eoml::obs::HealthPolicy::default(),
        manifest.created_s + 5.0,
        1,
        None,
        0,
        Vec::new(),
        false,
        0,
        vec![status],
    );
    match &health.state {
        eoml::obs::HealthState::Healthy => println!("  two-facility: health Healthy"),
        eoml::obs::HealthState::Degraded { reasons } => {
            println!("  two-facility: health Degraded — {}", reasons.join("; "))
        }
        eoml::obs::HealthState::Unhealthy { reasons } => {
            println!("  two-facility: health Unhealthy — {}", reasons.join("; "))
        }
    }
    // Stitch source + destination spans into one cross-facility timeline.
    let x = eoml::obs::XfacAnalysis::stitch(&[
        eoml::obs::FacilitySpans::capture("ace-defiant", &obs),
        eoml::obs::FacilitySpans::capture("frontier-orion", &dst_obs),
    ]);
    let stitched = x.stitched_trace_ids();
    println!(
        "  two-facility: {} granule trace(s) cross the WAN",
        stitched.len()
    );
    if let Some(id) = stitched.first() {
        let wan = x.wan_breakdown(id).expect("stitched trace analysable");
        println!(
            "  two-facility: {id} wan breakdown — queue {:.2}s, wire {:.2}s, verify {:.2}s",
            wan.queue_s, wan.wire_s, wan.verify_s
        );
    }
    match std::env::var("EOML_XFAC_TRACE") {
        Ok(path) => {
            std::fs::write(&path, x.chrome_trace()).expect("write stitched trace");
            println!("  two-facility: wrote stitched Chrome trace to {path}");
        }
        Err(_) => println!("  set EOML_XFAC_TRACE=<path> to export the stitched trace"),
    }
    match std::env::var("EOML_XFAC_REPORT") {
        Ok(path) => {
            std::fs::write(&path, ingest.to_json().to_string()).expect("write ingest report");
            println!("  two-facility: wrote ingest report to {path}");
        }
        Err(_) => println!("  set EOML_XFAC_REPORT=<path> to export the ingest report JSON"),
    }
    if corrupt {
        assert!(!ingest.ok(), "injected corruption must fail verification");
        // A clean re-ship after the loud failure verifies and acks — the
        // damage was on the wire, not in the manifest.
        let clean: Vec<_> = manifest
            .artifacts
            .iter()
            .map(eoml::transfer::ReceivedArtifact::faithful)
            .collect();
        let retry = ingestor.ingest(manifest, &clean, manifest.created_s + 30.0);
        assert!(retry.ok() && !retry.duplicate, "clean re-ship must ack");
        println!("  two-facility: clean re-ship verified and acked after the failure");
    }
}
