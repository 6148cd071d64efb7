//! Continual (streaming) inference: granules arrive in waves, the stage-3
//! monitor discovers each finished tile file on the real file system, and
//! the inference flow labels it — without waiting for the whole batch.
//!
//! This is the paper's §V direction ("inferring with batch as well as
//! streaming data") exercised on the real-execution path.
//!
//! ```sh
//! cargo run --release --example continual_inference
//! ```

use eoml::executor::local::LocalExecutor;
use eoml::flows::definition::FlowDefinition;
use eoml::flows::runner::FlowRunner;
use eoml::flows::trigger::DirectoryCrawler;
use eoml::modis::files::into_products;
use eoml::modis::granule::GranuleId;
use eoml::modis::product::{Platform, ProductKind};
use eoml::modis::synth::{Swath, SwathDims, SwathSynthesizer, SynthScratch};
use eoml::preprocess::pipeline::{preprocess_granule_with, GranuleBuffers};
use eoml::preprocess::tiles::TileCriteria;
use eoml::preprocess::writer::{for_each_radiance_tile, patch_labels};
use eoml::ricc::aicca::AiccaModel;
use eoml::ricc::autoencoder::{AeConfig, EncodeScratch};
use eoml::util::timebase::CivilDate;
use serde_json::json;
use std::fs::{File, OpenOptions};

const TILE: usize = 32;

fn main() {
    let work = std::env::temp_dir().join(format!("eoml-continual-{}", std::process::id()));
    let incoming = work.join("incoming");
    let tiles_dir = work.join("tiles");
    let outbox = work.join("outbox");
    for d in [&incoming, &tiles_dir, &outbox] {
        std::fs::create_dir_all(d).expect("mkdir");
    }

    let synth = SwathSynthesizer::new(2022, SwathDims::small());
    let executor = LocalExecutor::new(2);
    let criteria = TileCriteria {
        tile_size: TILE,
        min_ocean_fraction: 0.5,
        min_cloud_fraction: 0.2,
    };
    println!("fitting AICCA model (random-projection encoder + 42 centroids)…");
    let model = AiccaModel::pretrained(
        AeConfig {
            in_ch: 6,
            c1: 8,
            c2: 16,
            latent: 24,
            input: TILE,
            lr: 1e-3,
            lambda: 0.1,
        },
        2022,
    );

    // Day granules arrive in three waves of three.
    let date = CivilDate::new(2022, 1, 1).expect("date");
    let day_granules: Vec<GranuleId> = (0..288)
        .map(|slot| GranuleId::new(Platform::Terra, date, slot))
        .filter(|&g| synth.synthesize(g).day)
        .take(9)
        .collect();

    let mut crawler = DirectoryCrawler::new(&tiles_dir, ".nc");
    let flow = FlowDefinition::inference_flow();
    let mut total_labeled = 0usize;

    for (wave, chunk) in day_granules.chunks(3).enumerate() {
        println!(
            "\n=== wave {} arrives: {} granules ===",
            wave + 1,
            chunk.len()
        );
        // Download and preprocess the wave in parallel (stages 1–2), as the
        // real driver does: each worker synthesizes into the swath and
        // scratch it keeps, streams each product container into its file,
        // and decodes the files back into the same planes to cut tiles.
        let mut outcomes = Vec::new();
        let worker = || (GranuleBuffers::default(), SynthScratch::default());
        executor
            .run(
                chunk.to_vec(),
                worker,
                |(buffers, scratch), g| {
                    let mut swath = buffers.swath.take().unwrap_or_else(|| Swath::empty(g));
                    synth.synthesize_into(g, &mut swath, scratch);
                    let paths = ProductKind::all().map(|kind| incoming.join(g.file_name(kind)));
                    for (path, product) in paths.iter().zip(into_products(swath)) {
                        product.encode_into(&mut File::create(path)?)?;
                    }
                    let [p02, p03, p06] = &paths;
                    preprocess_granule_with(p02, p03, p06, &tiles_dir, &criteria, buffers)
                        .map_err(|e| std::io::Error::other(e.to_string()))
                },
                |_, outcome| {
                    outcomes.push(outcome);
                    Ok(())
                },
            )
            .expect("download and preprocess");
        let produced: usize = outcomes.iter().filter(|o| o.output.is_some()).count();
        println!("  preprocessing produced {produced} tile file(s)");

        // Stage 3: the monitor sees only the new files of this wave.
        let fresh = crawler.crawl().expect("crawl");
        println!("  monitor discovered {} new file(s)", fresh.len());

        // Stage 4: run the inference flow per file. Inference reads the
        // tile file's radiance a tile at a time and predicts each tile where
        // it lies; the labels are then written into the variable the file
        // reserved for them, in place.
        let mut encoder = EncodeScratch::default();
        let mut tile = Vec::new();
        let mut infer = |_: &str, params: &serde_json::Value, _: &serde_json::Value| {
            let name = params["file"].as_str().ok_or("missing file")?;
            let mut file = File::open(tiles_dir.join(name)).map_err(|e| e.to_string())?;
            let mut labels = Vec::new();
            for_each_radiance_tile(&mut file, &mut tile, |pixels| {
                labels.push(model.predict_slice(pixels, &mut encoder));
                Ok(())
            })
            .map_err(|e| e.to_string())?;
            Ok(json!({ "labels": labels }))
        };
        let mut append = |_: &str, params: &serde_json::Value, _: &serde_json::Value| {
            let name = params["file"].as_str().ok_or("missing file")?;
            let labels: Vec<i32> = params["labels"]["labels"]
                .as_array()
                .ok_or("missing labels")?
                .iter()
                .map(|v| v.as_i64().unwrap_or(-1) as i32)
                .collect();
            OpenOptions::new()
                .read(true)
                .write(true)
                .open(tiles_dir.join(name))
                .and_then(|mut file| patch_labels(&mut file, &labels))
                .map_err(|e| e.to_string())?;
            Ok(json!({ "count": labels.len() }))
        };
        let mut move_out = |_: &str, params: &serde_json::Value, _: &serde_json::Value| {
            let name = params["file"].as_str().ok_or("missing file")?;
            std::fs::rename(tiles_dir.join(name), outbox.join(name)).map_err(|e| e.to_string())?;
            Ok(json!({ "moved": name }))
        };
        let mut runner = FlowRunner::new();
        runner.register("inference", &mut infer);
        runner.register("append_labels", &mut append);
        runner.register("move_to_outbox", &mut move_out);

        for path in &fresh {
            let name = path.file_name().unwrap().to_str().unwrap().to_string();
            let run = runner.run(&flow, json!({ "file": name }));
            let n = run.context["labels"]["labels"]
                .as_array()
                .map(|a| a.len())
                .unwrap_or(0);
            total_labeled += n;
            println!(
                "  flow {} on {name}: {:?}, {} tiles labeled, flow time {:.2}s",
                run.id,
                run.status,
                n,
                run.total_duration()
            );
        }
    }

    let shipped = std::fs::read_dir(&outbox).expect("outbox").count();
    println!("\ntotal tiles labeled : {total_labeled}");
    println!("files in outbox     : {shipped}");
    println!(
        "re-crawl finds nothing new: {}",
        crawler.crawl().unwrap().is_empty()
    );
    std::fs::remove_dir_all(&work).ok();
}
