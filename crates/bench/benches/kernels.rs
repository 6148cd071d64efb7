//! Criterion microbenchmarks of the computational kernels, plus the
//! ablation benches DESIGN.md calls out:
//!
//! * tile extraction: scalar-equivalent (1 thread) vs rayon data-parallel;
//! * contention model on vs off (why worker scaling saturates);
//! * transfer parallel streams 1/2/4/8;
//! * NetCDF encode/decode and label append;
//! * the land mask of a 384×1280 granule: per-pixel `is_land` vs
//!   `LandMask::land_plane`;
//! * label write-back on a 12 MB tile file: read + decode + append +
//!   encode + write vs `patch_labels` in place;
//! * RICC encode vs full reconstruct round-trip, and `conv2d_fwd` alone at
//!   the encoder's two layer shapes (128 px and 32 px tiles);
//! * the model bootstrap: `AiccaModel::pretrained` at 32 px and 128 px, and
//!   one 128 px sample tile of six octaves, plain and ridged;
//! * CRC-32 throughput and granule-container encode/decode;
//! * agglomerative clustering: naive O(n³) vs nearest-neighbor chain.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eoml_cluster::contention::ContentionModel;
use eoml_cluster::exec::ClusterModel;
use eoml_cluster::spec::ClusterSpec;
use eoml_executor::simexec::run_batch;
use eoml_geo::latlon::LatLon;
use eoml_modis::container::Container;
use eoml_modis::files::to_mod02;
use eoml_modis::granule::GranuleId;
use eoml_modis::product::Platform;
use eoml_modis::synth::{SwathDims, SwathSynthesizer};
use eoml_preprocess::tiles::{extract_tiles, TileCriteria};
use eoml_preprocess::writer::{append_labels, patch_labels, write_tiles_nc};
use eoml_ricc::aicca::{synthetic_texture_sample, synthetic_texture_tile, AiccaModel};
use eoml_ricc::autoencoder::{AeConfig, ConvAutoencoder};
use eoml_ricc::cluster::agglomerate;
use eoml_ricc::tensor::{conv2d_fwd, ConvSpec, Tensor};
use eoml_simtime::Simulation;
use eoml_transfer::endpoint::Endpoint;
use eoml_transfer::faults::FaultPlan;
use eoml_transfer::flownet::{FlowNetwork, HasNetwork};
use eoml_transfer::service::{submit_transfer, TransferOptions};
use eoml_util::rng::{Rng64, Xoshiro256};
use eoml_util::timebase::CivilDate;
use eoml_util::units::ByteSize;
use std::hint::black_box;

fn day_swath() -> eoml_modis::synth::Swath {
    let sy = SwathSynthesizer::new(2022, SwathDims::small());
    let date = CivilDate::new(2022, 1, 1).expect("date");
    (0..288)
        .map(|slot| sy.synthesize(GranuleId::new(Platform::Terra, date, slot)))
        .find(|s| s.day)
        .expect("day granule")
}

fn bench_tile_extraction(c: &mut Criterion) {
    let swath = day_swath();
    let crit = TileCriteria {
        tile_size: 32,
        min_ocean_fraction: 0.0,
        min_cloud_fraction: 0.0,
    };
    let mut g = c.benchmark_group("tile_extraction");
    g.sample_size(10);
    for threads in [1usize, 2] {
        g.bench_with_input(BenchmarkId::new("threads", threads), &threads, |b, &t| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(t)
                .build()
                .unwrap();
            b.iter(|| pool.install(|| black_box(extract_tiles(&swath, &crit)).len()));
        });
    }
    g.finish();
}

fn bench_swath_synthesis(c: &mut Criterion) {
    let date = CivilDate::new(2022, 1, 1).expect("date");
    let mut g = c.benchmark_group("synthesize");
    g.sample_size(10);
    let paper = SwathDims {
        lines: 384,
        pixels: 1280,
    };
    for (name, dims) in [
        ("small_256x256", SwathDims::small()),
        ("paper_384x1280", paper),
    ] {
        let sy = SwathSynthesizer::new(2022, dims);
        g.bench_function(name, |b| {
            let mut slot = 0u16;
            b.iter(|| {
                slot = (slot + 1) % 288;
                black_box(sy.synthesize(GranuleId::new(Platform::Terra, date, slot)))
            });
        });
    }
    g.finish();
}

fn bench_landmask(c: &mut Criterion) {
    let dims = SwathDims {
        lines: 384,
        pixels: 1280,
    };
    let sy = SwathSynthesizer::new(2022, dims);
    let date = CivilDate::new(2022, 1, 1).expect("date");
    // A coastal granule, so neither side has it easy.
    let swath = (0..288)
        .map(|slot| sy.synthesize(GranuleId::new(Platform::Terra, date, slot)))
        .find(|s| (0.3..0.7).contains(&s.ocean_fraction()))
        .expect("a granule with both land and ocean");
    let mask = sy.landmask();
    let mut g = c.benchmark_group("landmask");
    g.sample_size(10);
    g.bench_function("per_pixel_is_land_384x1280", |b| {
        b.iter(|| {
            let land: Vec<u8> = (swath.lat.iter().zip(&swath.lon))
                .map(|(&lat, &lon)| mask.is_land(&LatLon::new(lat as f64, lon as f64)) as u8)
                .collect();
            black_box(land).len()
        })
    });
    g.bench_function("land_plane_384x1280", |b| {
        b.iter(|| black_box(mask.land_plane(&swath.lat, &swath.lon, dims.pixels)).len())
    });
    g.finish();
}

fn bench_label_writeback(c: &mut Criterion) {
    // One paper-shape tile file (30 tiles of 128 px, 11.8 MB) on disk.
    let sy = SwathSynthesizer::new(
        2022,
        SwathDims {
            lines: 384,
            pixels: 1280,
        },
    );
    let date = CivilDate::new(2022, 1, 1).expect("date");
    let crit = TileCriteria {
        tile_size: 128,
        min_ocean_fraction: 0.0,
        min_cloud_fraction: 0.0,
    };
    let tiles = (0..288)
        .map(|slot| sy.synthesize(GranuleId::new(Platform::Terra, date, slot)))
        .find(|s| s.day)
        .map(|s| extract_tiles(&s, &crit).tiles)
        .expect("day granule");
    let labels: Vec<i32> = (0..tiles.len() as i32).collect();
    let unlabelled = write_tiles_nc(&tiles)
        .expect("netcdf")
        .encode()
        .expect("encode");
    let path = std::env::temp_dir().join(format!("eoml-bench-labels-{}.nc", std::process::id()));
    let labelled = path.with_extension("labelled.nc");
    std::fs::write(&path, &unlabelled).expect("write");
    let mut g = c.benchmark_group("label_writeback");
    g.sample_size(10);
    g.bench_function("decode_append_encode_write", |b| {
        b.iter(|| {
            let mut f = eoml_ncdf::NcFile::decode(&std::fs::read(&path).unwrap()).unwrap();
            append_labels(&mut f, &labels).unwrap();
            f.encode_into(&mut std::fs::File::create(&labelled).unwrap())
                .unwrap();
        })
    });
    g.bench_function("patch_in_place", |b| {
        b.iter(|| {
            let mut file = std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .open(&path)
                .unwrap();
            patch_labels(&mut file, &labels).unwrap();
        })
    });
    g.finish();
    assert!(std::fs::read(&path).unwrap() == std::fs::read(&labelled).unwrap());
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&labelled);
}

fn bench_contention_ablation(c: &mut Criterion) {
    // Completion time of the same batch under the calibrated contention
    // model vs an ideal linear machine — the ablation showing *why* worker
    // scaling saturates. (Criterion measures the simulation cost; the
    // interesting output is printed once.)
    struct St {
        cl: ClusterModel<St>,
        done: Option<f64>,
    }
    impl eoml_cluster::exec::HasCluster for St {
        fn cluster(&mut self) -> &mut ClusterModel<St> {
            &mut self.cl
        }
    }
    fn completion(model: ContentionModel) -> f64 {
        let mut spec = ClusterSpec::defiant();
        spec.nodes = 1;
        let mut sim = Simulation::new(St {
            cl: ClusterModel::new(spec, model, 1),
            done: None,
        });
        run_batch(&mut sim, vec![0], 32, vec![150.0; 64], |sim, r| {
            sim.state_mut().done = Some(r.completion_s())
        });
        sim.run();
        sim.into_state().done.expect("ran")
    }
    let real = completion(ContentionModel {
        work_cv: 0.0,
        ..ContentionModel::defiant()
    });
    let ideal = completion(ContentionModel::ideal(10.52));
    println!(
        "[ablation] 64 files / 32 workers / 1 node: contention {real:.1}s vs ideal {ideal:.1}s"
    );
    let mut g = c.benchmark_group("contention_ablation");
    g.sample_size(10);
    g.bench_function("defiant_model", |b| {
        b.iter(|| {
            black_box(completion(ContentionModel {
                work_cv: 0.0,
                ..ContentionModel::defiant()
            }))
        })
    });
    g.bench_function("ideal_linear", |b| {
        b.iter(|| black_box(completion(ContentionModel::ideal(10.52))))
    });
    g.finish();
}

fn bench_transfer_streams(c: &mut Criterion) {
    struct St {
        net: FlowNetwork<St>,
        done: Option<f64>,
    }
    impl HasNetwork for St {
        fn network(&mut self) -> &mut FlowNetwork<St> {
            &mut self.net
        }
    }
    fn ship(streams: usize) -> f64 {
        let mut net = FlowNetwork::new(5, FaultPlan::flaky_wan());
        net.add_endpoint(Endpoint::ace_defiant());
        net.add_endpoint(Endpoint::frontier_orion());
        let mut sim = Simulation::new(St { net, done: None });
        let files: Vec<(String, ByteSize)> = (0..24)
            .map(|i| (format!("tiles-{i}.nc"), ByteSize::mb(40)))
            .collect();
        submit_transfer(
            &mut sim,
            "ace-defiant",
            "frontier-orion",
            files,
            TransferOptions {
                parallel_streams: streams,
                retry_limit: 10,
                ..TransferOptions::default()
            },
            |sim, r| sim.state_mut().done = Some(r.duration_s()),
        );
        sim.run();
        sim.into_state().done.expect("ran")
    }
    for s in [1usize, 2, 4, 8] {
        println!(
            "[ablation] shipment with {s} parallel streams: {:.2}s (virtual)",
            ship(s)
        );
    }
    let mut g = c.benchmark_group("transfer_streams");
    g.sample_size(10);
    for s in [1usize, 8] {
        g.bench_with_input(BenchmarkId::new("streams", s), &s, |b, &s| {
            b.iter(|| black_box(ship(s)))
        });
    }
    g.finish();
}

fn bench_netcdf(c: &mut Criterion) {
    let swath = day_swath();
    let crit = TileCriteria {
        tile_size: 32,
        min_ocean_fraction: 0.0,
        min_cloud_fraction: 0.0,
    };
    let tiles = extract_tiles(&swath, &crit).tiles;
    let nc = write_tiles_nc(&tiles).expect("netcdf");
    let bytes = nc.encode().expect("encode");
    let mut g = c.benchmark_group("netcdf");
    g.sample_size(20);
    g.bench_function("write_tiles", |b| {
        b.iter(|| black_box(write_tiles_nc(&tiles).unwrap().encode().unwrap()).len())
    });
    g.bench_function("read_tiles", |b| {
        b.iter(|| black_box(eoml_ncdf::NcFile::decode(&bytes).unwrap()).numrecs)
    });
    g.bench_function("append_labels", |b| {
        let labels: Vec<i32> = (0..tiles.len() as i32).collect();
        b.iter(|| {
            let mut f = nc.clone();
            append_labels(&mut f, &labels).unwrap();
            black_box(f.encode().unwrap()).len()
        })
    });
    g.finish();
}

fn bench_ricc(c: &mut Criterion) {
    let cfg = AeConfig {
        in_ch: 6,
        c1: 8,
        c2: 16,
        latent: 24,
        input: 32,
        lr: 1e-3,
        lambda: 0.1,
    };
    let model = ConvAutoencoder::new(cfg, 7);
    let tiles = synthetic_texture_sample(cfg, 8, 3);
    let mut g = c.benchmark_group("ricc");
    g.sample_size(10);
    g.bench_function("encode_32px", |b| {
        b.iter(|| black_box(model.encode(&tiles[0])).len())
    });
    g.bench_function("reconstruct_32px", |b| {
        b.iter(|| black_box(model.reconstruct(&tiles[0])).len())
    });
    g.finish();

    // What every `RealPipeline::new` pays: 168 sample tiles made, encoded
    // and clustered.
    let mut g = c.benchmark_group("pretrained");
    g.sample_size(10);
    for px in [32usize, 128] {
        let cfg = AeConfig { input: px, ..cfg };
        g.bench_function(BenchmarkId::from_parameter(px), |b| {
            b.iter(|| black_box(AiccaModel::pretrained(cfg, 2022)).num_classes())
        });
    }
    g.finish();
    // One sample tile at the paper's size, six octaves (index % 5 == 4).
    let mut g = c.benchmark_group("texture_tile");
    g.sample_size(20);
    let cfg128 = AeConfig { input: 128, ..cfg };
    for (name, index) in [("plain", 4usize), ("ridged", 9)] {
        g.bench_function(name, |b| {
            b.iter(|| black_box(synthetic_texture_tile(cfg128, 3, index)).len())
        });
    }
    g.finish();

    // The encoder's two stride-2 layers (6→8 then 8→16 channels) on their own.
    let down = ConvSpec {
        k: 3,
        stride: 2,
        pad: 1,
    };
    let mut rng = Xoshiro256::seed_from(5);
    let mut g = c.benchmark_group("conv2d_fwd");
    g.sample_size(20);
    for px in [128usize, 32] {
        for (c_in, c_out, edge) in [(6usize, 8usize, px), (8, 16, px / 2)] {
            let x = Tensor::from_data(
                c_in,
                edge,
                edge,
                (0..c_in * edge * edge)
                    .map(|_| rng.normal(0.0, 1.0) as f32)
                    .collect(),
            );
            let w: Vec<f32> = (0..c_out * c_in * 9)
                .map(|_| rng.normal(0.0, 0.5) as f32)
                .collect();
            let bias = vec![0.1f32; c_out];
            g.bench_function(format!("{px}px_{c_in}to{c_out}_at{edge}"), |b| {
                b.iter(|| black_box(conv2d_fwd(&x, &w, &bias, c_out, down)).len())
            });
        }
    }
    g.finish();
}

/// Naive O(n³) Ward agglomeration (recompute the full pairwise minimum at
/// every merge) — the ablation baseline for the NN-chain implementation.
#[allow(clippy::needless_range_loop, clippy::explicit_counter_loop)]
fn naive_ward(points: &[Vec<f32>], k: usize) -> Vec<usize> {
    let n = points.len();
    let mut members: Vec<Option<Vec<usize>>> = (0..n).map(|i| Some(vec![i])).collect();
    let centroid = |m: &[usize]| -> Vec<f64> {
        let dim = points[0].len();
        let mut c = vec![0.0f64; dim];
        for &i in m {
            for (d, v) in c.iter_mut().zip(&points[i]) {
                *d += *v as f64;
            }
        }
        for d in c.iter_mut() {
            *d /= m.len() as f64;
        }
        c
    };
    let mut clusters = n;
    while clusters > k {
        let mut best = (0usize, 0usize, f64::INFINITY);
        for i in 0..n {
            let Some(mi) = &members[i] else { continue };
            let ci = centroid(mi);
            for j in i + 1..n {
                let Some(mj) = &members[j] else { continue };
                let cj = centroid(mj);
                let d2: f64 = ci.iter().zip(&cj).map(|(a, b)| (a - b) * (a - b)).sum();
                let ward = (mi.len() * mj.len()) as f64 / (mi.len() + mj.len()) as f64 * d2;
                if ward < best.2 {
                    best = (i, j, ward);
                }
            }
        }
        let mj = members[best.1].take().expect("alive");
        members[best.0].as_mut().expect("alive").extend(mj);
        clusters -= 1;
    }
    let mut labels = vec![0usize; n];
    let mut next = 0;
    for m in members.iter().flatten() {
        for &i in m {
            labels[i] = next;
        }
        next += 1;
    }
    labels
}

fn bench_clustering(c: &mut Criterion) {
    let mut rng = Xoshiro256::seed_from(11);
    let points: Vec<Vec<f32>> = (0..120)
        .map(|_| (0..16).map(|_| rng.normal(0.0, 1.0) as f32).collect())
        .collect();
    let mut g = c.benchmark_group("clustering");
    g.sample_size(10);
    g.bench_function("nn_chain_120pts", |b| {
        b.iter(|| black_box(agglomerate(&points)).merges.len())
    });
    g.bench_function("naive_ward_120pts", |b| {
        b.iter(|| black_box(naive_ward(&points, 42)).len())
    });
    g.finish();
}

fn bench_crc_and_container(c: &mut Criterion) {
    let data: Vec<u8> = (0..4u32 << 20).map(|i| ((i * 31) >> 3) as u8).collect();
    let mut g = c.benchmark_group("crc32");
    g.sample_size(20);
    g.bench_function("4MiB", |b| {
        b.iter(|| black_box(eoml_util::hash::crc32(&data)))
    });
    g.finish();

    let mod02 = to_mod02(&day_swath());
    let bytes = mod02.encode();
    let mut g = c.benchmark_group("container");
    g.sample_size(20);
    g.bench_function("encode_mod02_256x256", |b| {
        b.iter(|| black_box(mod02.encode()).len())
    });
    g.bench_function("decode_mod02_256x256", |b| {
        b.iter(|| black_box(Container::decode(&bytes).unwrap()).datasets.len())
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_tile_extraction,
    bench_swath_synthesis,
    bench_landmask,
    bench_label_writeback,
    bench_contention_ablation,
    bench_transfer_streams,
    bench_netcdf,
    bench_ricc,
    bench_clustering,
    bench_crc_and_container,
);
criterion_main!(benches);
