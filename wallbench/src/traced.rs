//! The traced run: per-layer metrics, the Chrome trace, `eoml-obs` overhead.
//!
//! Every per-layer metric is measured in every traced run. A metric that
//! belongs to another entry point than the workload's own (the journal of
//! the small pipeline on `real_paper_tiles`, say) comes from that entry
//! point at [`Sizes::QUICK`]; the real-pipeline layers are probed at the
//! workload's own shape, and at the small shape where the workload has none.

use crate::trace::Tracer;
use crate::walk::{compare_outboxes, walk};
use crate::workloads::{
    fresh_dir, Real, RealRep, Res, Shape, Sim, Sizes, Storm, Verdict, Workload, STORM_TENANTS,
};
use crate::{median, probes, timed_reps, work_dir, Metrics, Outcome};
use eoml_modis::product::ProductKind;
use eoml_obs::Obs;
use std::path::Path;

const MIB: f64 = 1024.0 * 1024.0;

fn med(tracer: &Tracer, name: &str) -> Res<f64> {
    let mut secs = tracer.secs_of(name);
    if secs.is_empty() {
        return Err(format!("the walk recorded no {name:?} span"));
    }
    Ok(median(&mut secs))
}

/// Median of `calls` fallible measurements.
fn median_of(calls: usize, measure: impl FnMut() -> Res<f64>) -> Res<f64> {
    let mut values = std::iter::repeat_with(measure)
        .take(calls)
        .collect::<Res<Vec<f64>>>()?;
    Ok(median(&mut values))
}

fn resume_median(real: &Real, calls: usize) -> Res<f64> {
    median_of(calls, || real.resume_noop().map(|(secs, _)| secs))
}

fn sim_median(days: usize, seed: u64, calls: usize) -> Res<f64> {
    let mut sim = Sim::new(days, seed);
    sim.setup()?;
    median_of(calls, || sim.rep(None).map(|rep| rep.makespan_s))
}

/// `eoml-service`: a small storm beside the workload, its spans included.
fn service_metrics(out: &mut Metrics, tracer: &mut Tracer, seed: u64, root: &Path) -> Res<Verdict> {
    let mut storm = Storm::open(STORM_TENANTS, seed, root.to_path_buf())?;
    tracer.enter("eoml-service", "storm", "run");
    let rep = storm.run()?;
    for (id, (start, end)) in storm.tenant_ids().zip(&rep.submits) {
        tracer.add("eoml-service", "register_submit", id, *start, *end);
    }
    tracer.add(
        "eoml-service",
        "run_until_idle",
        "run",
        rep.drain.0,
        rep.drain.1,
    );
    tracer.exit();
    let mut submit_us: Vec<f64> = rep
        .submits
        .iter()
        .map(|(a, b)| (*b - *a).as_secs_f64() * 1e6)
        .collect();
    submit_us.sort_by(f64::total_cmp);
    let quantile = |q: f64| submit_us[((submit_us.len() - 1) as f64 * q).round() as usize];
    out.put("service.submit_p50_us", quantile(0.50), "us");
    out.put("service.submit_p99_us", quantile(0.99), "us");
    out.put(
        "service.drain_s",
        (rep.drain.1 - rep.drain.0).as_secs_f64(),
        "s",
    );
    out.put("service.quanta", rep.report.quanta as f64, "count");
    out.put("service.reopen_recover_ms", storm.reopen_ms()?, "ms");
    Ok(storm.verify(&rep))
}

fn write_trace(tracer: &Tracer, name: &str) -> Res<()> {
    let out_dir = crate::home().join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
    let write = |file: String, text: String| {
        let path = out_dir.join(file);
        std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))
    };
    write(
        format!("{name}-trace.json"),
        tracer.chrome_json().to_string(),
    )?;
    write(format!("{name}-selftime.txt"), tracer.self_time_table())
}

/// Run `name` traced and report every per-layer metric.
pub fn measure(name: &str, seed: u64, seconds: f64, quick: bool) -> Res<Outcome> {
    let base = work_dir(name);
    fresh_dir(&base)?;
    let outcome = measure_in(&base, name, seed, seconds, quick);
    let _ = std::fs::remove_dir_all(&base);
    outcome
}

fn measure_in(base: &Path, name: &str, seed: u64, seconds: f64, quick: bool) -> Res<Outcome> {
    let sizes = if quick { Sizes::QUICK } else { Sizes::FULL };
    let (calls, sim_calls) = if quick { (1, 1) } else { (5, 3) };
    let mut tracer = Tracer::new();
    let mut out = Metrics::default();
    let mut verdict = Verdict::default();

    // The workload's own entry point: an untraced baseline, then one
    // repetition with `eoml-obs` attached through the public hook.
    let mut own = Workload::new(name, sizes, seed, base.join("own"))?;
    own.setup()?;
    let baseline = if quick {
        vec![own.rep(None)?]
    } else {
        own.rep(None)?;
        timed_reps(seconds / 3.0, 2, || own.rep(None))?
    };
    let mut base_s: Vec<f64> = baseline.iter().map(|r| r.makespan_s).collect();
    let base_s = median(&mut base_s);
    // Taken before obs attaches to the pipeline for good.
    let own_untraced: Option<RealRep> = own.real().and_then(|real| real.last.clone());
    let own_resume_s = match own.real() {
        Some(real) if real.is_journaled() => Some(resume_median(real, calls)?),
        _ => None,
    };
    tracer.enter("eoml-core", "entry_point", name);
    let observed_s = own.rep(Some(Obs::shared()))?.makespan_s;
    tracer.exit();
    out.put(
        "obs.overhead_pct",
        100.0 * (observed_s - base_s) / base_s,
        "%",
    );
    verdict.add(own.verify());

    verdict.add(service_metrics(
        &mut out,
        &mut tracer,
        seed,
        &base.join("storm"),
    )?);

    // The real pipeline: `small` is journaled and carries the journal and
    // resume metrics, `stage` sets the shape of every shape-bound probe.
    let mut side_small;
    let small: &Real = match own.real() {
        Some(real) if real.is_journaled() => real,
        _ => {
            let dir = base.join("small");
            side_small = Real::new(Shape::SMALL, Sizes::QUICK.small_granules, true, seed, dir);
            side_small.setup()?;
            side_small.rep(None)?;
            verdict.add(side_small.verify());
            &side_small
        }
    };
    let resume_s = match own_resume_s {
        Some(s) => s,
        None => resume_median(small, calls)?,
    };
    let stage: &Real = own.real().unwrap_or(small);
    let stage_rep = own_untraced
        .or_else(|| small.last.clone())
        .ok_or("no real pipeline repetition")?;
    let report = &stage_rep.report;
    let tiles = report.labeled_tiles.max(1) as f64;
    out.put("core.download_s", report.stage_secs[0], "s");
    out.put("core.preprocess_s", report.stage_secs[1], "s");
    out.put("core.inference_s", report.stage_secs[2], "s");
    out.put("core.shipment_s", report.stage_secs[3], "s");
    out.put(
        "core.preprocess_tiles_per_s",
        report.preprocess_throughput(),
        "1/s",
    );
    out.put("core.first_labeled_s", stage_rep.first_labeled_s, "s");
    out.put("core.resume_noop_s", resume_s, "s");
    out.put(
        "obs.alloc_bytes_per_tile",
        stage_rep.alloc_bytes as f64 / tiles,
        "count",
    );

    // The benchmark-owned walk over the same granules, span by span.
    let walk_dir = base.join("walk");
    let walked = walk(&mut tracer, &walk_dir, seed, stage.shape, &stage.granules)?;
    verdict.add(compare_outboxes(&report.outbox, &walked.outbox));
    verdict.check(walked.tiles == report.labeled_tiles);
    let file_mib = walked.file_bytes / MIB;
    out.put(
        "modis.synthesize_ms",
        med(&tracer, "synthesize")? * 1e3,
        "ms",
    );
    out.put(
        "modis.container_encode_ms",
        med(&tracer, "container_encode")? * 1e3,
        "ms",
    );
    out.put("modis.granule_bytes", walked.granule_bytes, "count");
    out.put(
        "preprocess.granule_files_ms",
        med(&tracer, "granule_files")? * 1e3,
        "ms",
    );
    out.put(
        "preprocess.read_tiles_nc_ms",
        med(&tracer, "read_tiles_nc")? * 1e3,
        "ms",
    );
    let relabel_s = med(&tracer, "append_labels")? + med(&tracer, "encode")?;
    out.put("preprocess.append_labels_ms", relabel_s * 1e3, "ms");
    out.put(
        "ncdf.decode_mib_per_s",
        file_mib / med(&tracer, "decode")?,
        "MiB/s",
    );
    out.put(
        "ncdf.encode_mib_per_s",
        file_mib / med(&tracer, "encode")?,
        "MiB/s",
    );
    out.put("ncdf.file_bytes", walked.file_bytes, "count");
    let per_tile_ms = med(&tracer, "predict_batch")? * 1e3 / stage.shape.windows() as f64;
    out.put("ricc.predict_batch_ms_per_tile", per_tile_ms, "ms");
    out.put("ricc.pretrained_s", walked.pretrained_s, "s");
    let digest_s = med(&tracer, "content_digest")?;
    out.put(
        "transfer.content_digest_mib_per_s",
        file_mib / digest_s,
        "MiB/s",
    );

    let first = stage.granules.first().ok_or("no granules")?;
    let products = [ProductKind::Mod02, ProductKind::Mod03, ProductKind::Mod06]
        .map(|kind| walk_dir.join("incoming").join(first.file_name(kind)));
    probes::shaped(&mut out, stage.shape, &products, &walked.model)?;

    let scratch = base.join("scratch");
    fresh_dir(&scratch)?;
    probes::journal_wal(&mut out, &small.wal.snapshot_bytes(), &scratch)?;
    probes::fixed(&mut out, &scratch)?;

    // eoml-core's simulator: wall time is super-linear in days.
    let sim_4d = sim_median(4, seed, sim_calls)?;
    let sim_8d = sim_median(8, seed, sim_calls)?;
    out.put("core.sim_wall_4d_s", sim_4d, "s");
    out.put("core.sim_wall_8d_s", sim_8d, "s");
    out.put(
        "core.sim_scaling_exponent",
        (sim_8d / sim_4d).log2(),
        "ratio",
    );

    write_trace(&tracer, name)?;
    eprint!(
        "self time per layer ({name}):\n{}",
        tracer.self_time_table()
    );
    Ok(Outcome {
        metrics: out,
        verdict,
    })
}
