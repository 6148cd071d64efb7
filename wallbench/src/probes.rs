//! Layer probes: the benchmark calls one public function of a layer on
//! inputs of the workload's shape (or a fixed input where shape does not
//! matter) and reports the median over a handful of calls.
//!
//! Call counts are fitted to the run's time cap: fewer at the paper shape,
//! where a call takes tens of milliseconds, more where it takes microseconds.

use crate::workloads::{fresh_dir, Res, Shape};
use crate::{median, Metrics};
use eoml_cluster::contention::ContentionModel;
use eoml_cluster::exec::{ClusterModel, HasCluster};
use eoml_cluster::spec::ClusterSpec;
use eoml_compute::endpoint::ComputeEndpoint;
use eoml_compute::registry::FunctionRegistry;
use eoml_executor::local::LocalExecutor;
use eoml_executor::simexec::run_batch;
use eoml_flows::definition::FlowDefinition;
use eoml_flows::runner::FlowRunner;
use eoml_flows::trigger::DirectoryCrawler;
use eoml_journal::{FileStorage, Journal, JournalEvent, MemStorage, Storage};
use eoml_modis::container::Container;
use eoml_modis::files::swath_from_products;
use eoml_obs::Obs;
use eoml_preprocess::tiles::{extract_tiles, TileCriteria};
use eoml_preprocess::writer::write_tiles_nc;
use eoml_ricc::aicca::AiccaModel;
use eoml_ricc::cluster::agglomerate;
use eoml_ricc::tensor::Tensor;
use eoml_simtime::Simulation;
use eoml_transfer::manifest::{ArtifactEntry, ShipmentManifest};
use eoml_util::rng::{Rng64, Xoshiro256};
use serde_json::{json, Value};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const MIB: f64 = 1024.0 * 1024.0;

/// Median seconds of `calls` timed calls after one discarded call.
pub fn timed(calls: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut secs: Vec<f64> = (0..calls)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&mut secs)
}

fn file_event(i: usize) -> JournalEvent {
    JournalEvent::FileDownloaded {
        file: format!("MOD.A2022001.{i:04}"),
        bytes: 1 << 20,
    }
}

fn append_us<S: Storage>(storage: S, events: usize) -> Res<f64> {
    let (mut journal, _) = Journal::open(storage).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    for i in 0..events {
        journal.append(file_event(i)).map_err(|e| e.to_string())?;
    }
    Ok(t0.elapsed().as_secs_f64() * 1e6 / events as f64)
}

struct Ticker {
    left: u64,
}

fn tick(sim: &mut Simulation<Ticker>) {
    if sim.state().left > 0 {
        sim.state_mut().left -= 1;
        sim.schedule_in(Duration::from_secs(1), tick);
    }
}

struct Cluster {
    model: ClusterModel<Cluster>,
    done: Option<f64>,
}

impl HasCluster for Cluster {
    fn cluster(&mut self) -> &mut ClusterModel<Cluster> {
        &mut self.model
    }
}

/// The paper's headline batch in virtual time: 80 files of 150 tiles on
/// 10 nodes × 8 workers.
fn headline_batch() -> f64 {
    let mut sim = Simulation::new(Cluster {
        model: ClusterModel::new(ClusterSpec::defiant(), ContentionModel::defiant(), 42),
        done: None,
    });
    run_batch(&mut sim, (0..10).collect(), 8, vec![150.0; 80], |sim, r| {
        sim.state_mut().done = Some(r.completion_s())
    });
    sim.run();
    sim.into_state().done.expect("batch ran")
}

/// Probes whose input is fixed: per-call overheads, integrity kernels, the
/// simulator cores, the journal, `eoml-obs` itself and the JSON shim.
pub fn fixed(out: &mut Metrics, scratch: &Path) -> Res<()> {
    let buf = vec![0xABu8; 4 << 20];
    let s = timed(10, || {
        black_box(eoml_modis::container::crc32(black_box(&buf)));
    });
    out.put("modis.crc32_mib_per_s", 4.0 / s, "MiB/s");
    let s = timed(10, || {
        black_box(eoml_journal::frame::crc32(black_box(&buf[..1 << 20])));
    });
    out.put("journal.frame_crc_mib_per_s", 1.0 / s, "MiB/s");

    let mut rng = Xoshiro256::seed_from(11);
    let points: Vec<Vec<f32>> = (0..120)
        .map(|_| (0..16).map(|_| rng.normal(0.0, 1.0) as f32).collect())
        .collect();
    let s = timed(10, || {
        black_box(agglomerate(black_box(&points)));
    });
    out.put("ricc.agglomerate_ms", s * 1e3, "ms");

    let registry = Arc::new(FunctionRegistry::new());
    registry.register("noop", Ok);
    let endpoint = ComputeEndpoint::start("probe", registry, 2);
    let s = timed(1000, || {
        black_box(
            endpoint
                .submit_by_name("noop", json!({}))
                .expect("registered")
                .wait(),
        );
    });
    endpoint.shutdown();
    out.put("compute.roundtrip_us", s * 1e6, "us");

    let executor = LocalExecutor::new(2);
    let s = timed(10, || {
        black_box(executor.map((0..1000u32).collect(), |x| x));
    });
    out.put("executor.map_overhead_us", s * 1e6 / 1000.0, "us");

    let flow = FlowDefinition::inference_flow();
    let labels: Vec<i32> = (0..16).collect();
    let mut infer = |_: &str, _: &Value, _: &Value| Ok(json!({ "labels": labels.clone() }));
    let mut append = |_: &str, _: &Value, _: &Value| Ok(json!({ "appended": 16 }));
    let mut ship = |_: &str, _: &Value, _: &Value| Ok(json!({ "moved": "tiles.nc" }));
    let mut runner = FlowRunner::new();
    runner.register("inference", &mut infer);
    runner.register("append_labels", &mut append);
    runner.register("move_to_outbox", &mut ship);
    let s = timed(200, || {
        black_box(runner.run(&flow, json!({ "file": "tiles.nc" })));
    });
    out.put("flows.run_overhead_us", s * 1e6, "us");

    let crawl_dir = scratch.join("crawl");
    fresh_dir(&crawl_dir)?;
    for i in 0..200 {
        std::fs::write(crawl_dir.join(format!("tiles-{i:03}.nc")), b"")
            .map_err(|e| e.to_string())?;
    }
    let s = timed(10, || {
        black_box(
            DirectoryCrawler::new(&crawl_dir, ".nc")
                .crawl()
                .expect("crawl"),
        );
    });
    out.put("flows.crawl_ms", s * 1e3, "ms");

    let wal = scratch.join("append.wal");
    let _ = std::fs::remove_file(&wal);
    out.put(
        "journal.append_fsync_us",
        append_us(FileStorage::new(&wal), 200)?,
        "us",
    );
    out.put(
        "journal.append_mem_us",
        append_us(MemStorage::new(), 2000)?,
        "us",
    );

    let mut manifest = ShipmentManifest::new("ace-defiant", "frontier-orion", 1.0);
    manifest.artifacts = (0..200u64)
        .map(|i| ArtifactEntry {
            name: format!("tiles-MOD.A2022001.{i:04}.nc"),
            bytes: 1 << 20,
            digest: i.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            trace_id: Some(format!("MOD.A2022001.{i:04}")),
        })
        .collect();
    let s = timed(20, || {
        let text = serde_json::to_string(&manifest.to_json()).expect("serialise");
        let back = serde_json::from_str(&text).expect("parse");
        black_box(ShipmentManifest::from_json(&back).expect("manifest"));
    });
    out.put("transfer.manifest_json_roundtrip_us", s * 1e6, "us");

    let s = timed(5, || {
        let mut sim = Simulation::new(Ticker { left: 1_000_000 });
        sim.schedule_in(Duration::ZERO, tick);
        sim.run();
        black_box(sim.events_executed());
    });
    out.put("simtime.events_per_s", 1e6 / s, "1/s");
    let s = timed(10, || {
        black_box(headline_batch());
    });
    out.put("cluster.headline_batch_ms", s * 1e3, "ms");

    let obs = Obs::new();
    let t0 = Instant::now();
    for _ in 0..100_000 {
        drop(obs.span("probe", "span"));
    }
    out.put("obs.span_ns", t0.elapsed().as_secs_f64() * 1e9 / 1e5, "ns");

    let labels: Vec<i32> = (0..3200).map(|i| i % 42).collect();
    let context = json!({ "input": { "file": "tiles.nc" }, "labels": { "labels": labels } });
    let text = serde_json::to_string(&context).expect("serialise");
    let s = timed(20, || {
        black_box(serde_json::from_str(black_box(&text)).expect("parse"));
    });
    out.put(
        "serde_json.parse_mib_per_s",
        text.len() as f64 / MIB / s,
        "MiB/s",
    );
    Ok(())
}

/// Probes of the calls hidden inside `preprocess_granule_files` and of the
/// encoder, on one granule's product files of the workload's shape.
pub fn shaped(
    out: &mut Metrics,
    shape: Shape,
    products: &[PathBuf; 3],
    model: &AiccaModel,
) -> Res<()> {
    let calls = if shape == Shape::PAPER { 5 } else { 20 };
    let read = |p: &PathBuf| std::fs::read(p).map_err(|e| format!("read {}: {e}", p.display()));
    let bytes = [
        read(&products[0])?,
        read(&products[1])?,
        read(&products[2])?,
    ];
    let decode_all = || {
        bytes
            .each_ref()
            .map(|b| Container::decode(b).expect("product decodes"))
    };
    let s = timed(calls, || {
        black_box(decode_all());
    });
    out.put("modis.container_decode_ms", s * 1e3, "ms");

    let [c02, c03, c06] = decode_all();
    let swath = swath_from_products(&c02, &c03, &c06).map_err(|e| format!("{e:?}"))?;
    let keep_all = TileCriteria {
        tile_size: shape.tile,
        min_ocean_fraction: 0.0,
        min_cloud_fraction: 0.0,
    };
    for (threads, name) in [
        (1, "preprocess.extract_tiles_ms"),
        (2, "preprocess.extract_tiles_2t_ms"),
    ] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .map_err(|e| format!("{e:?}"))?;
        let s = timed(calls, || {
            black_box(pool.install(|| extract_tiles(&swath, &keep_all)));
        });
        out.put(name, s * 1e3, "ms");
    }
    let paper_criteria = TileCriteria {
        tile_size: shape.tile,
        ..TileCriteria::default()
    };
    let strict = extract_tiles(&swath, &paper_criteria);
    let ratio = strict.len() as f64 / strict.candidates.max(1) as f64;
    out.put("preprocess.tiles_kept_ratio", ratio, "ratio");

    let tiles = extract_tiles(&swath, &keep_all).tiles;
    let s = timed(calls, || {
        black_box(
            write_tiles_nc(&tiles)
                .expect("tiles")
                .encode()
                .expect("encode"),
        );
    });
    out.put("preprocess.write_tiles_nc_ms", s * 1e3, "ms");

    let first = tiles.first().ok_or("granule without tiles")?;
    let tensor = Tensor::from_data(
        first.bands.len(),
        first.size,
        first.size,
        first.data.clone(),
    );
    let s = timed(calls, || {
        black_box(model.embed(&tensor));
    });
    out.put("ricc.encode_tile_ms", s * 1e3, "ms");
    Ok(())
}

/// Replay and compaction of a finished run's write-ahead log, on file
/// copies of it.
pub fn journal_wal(out: &mut Metrics, wal: &[u8], scratch: &Path) -> Res<()> {
    let copy = scratch.join("probe.wal");
    let recopy = || std::fs::write(&copy, wal).map_err(|e| format!("{}: {e}", copy.display()));
    recopy()?;
    let open = || Journal::open(FileStorage::new(&copy)).map_err(|e| e.to_string());
    let (journal, _) = open()?;
    out.put("journal.wal_bytes", wal.len() as f64, "count");
    out.put("journal.events", journal.len() as f64, "count");
    drop(journal);
    let s = timed(10, || {
        black_box(open().expect("journal reopens").0.len());
    });
    out.put("journal.open_replay_ms", s * 1e3, "ms");
    let mut secs = Vec::new();
    for _ in 0..5 {
        recopy()?;
        let (mut journal, _) = open()?;
        let t0 = Instant::now();
        journal.compact().map_err(|e| e.to_string())?;
        secs.push(t0.elapsed().as_secs_f64());
    }
    out.put("journal.compact_ms", median(&mut secs) * 1e3, "ms");
    Ok(())
}
