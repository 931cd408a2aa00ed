//! Wall-clock benchmarks of the native engines: DiggerBees' structured
//! hierarchical stealing vs the generic crossbeam-deque scheduler, plus
//! the serial reference. On a many-core host this shows parallel
//! speedup; on constrained CI hosts it mostly measures protocol
//! overhead — either way the comparison is like-for-like.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use db_baselines::deque_dfs;
use db_core::native::{NativeConfig, NativeEngine};
use db_core::{run_sim, run_sim_traced, DiggerBeesConfig};
use db_gen::Suite;
use db_gpu_sim::MachineModel;
use db_graph::serial_dfs;
use db_trace::NullTracer;

fn bench_native(c: &mut Criterion) {
    let mut group = c.benchmark_group("native");
    group.sample_size(10);
    let g = Suite::by_name("road_s").expect("known graph").build();

    group.bench_with_input(BenchmarkId::new("serial", "road_s"), &g, |b, g| {
        b.iter(|| black_box(serial_dfs(g, 0)))
    });
    group.bench_with_input(
        BenchmarkId::new("diggerbees_native_4t", "road_s"),
        &g,
        |b, g| {
            let engine = NativeEngine::new(NativeConfig {
                algo: DiggerBeesConfig {
                    blocks: 2,
                    warps_per_block: 2,
                    ..DiggerBeesConfig::default()
                },
            });
            b.iter(|| black_box(engine.run(g, 0)))
        },
    );
    group.bench_with_input(
        BenchmarkId::new("crossbeam_deque_4t", "road_s"),
        &g,
        |b, g| b.iter(|| black_box(deque_dfs::run(g, 0, 4, 42))),
    );
    group.finish();
}

/// The zero-overhead-when-disabled guarantee: `run*_traced` with
/// [`NullTracer`] must time identically to the untraced entry points
/// (the `T::ENABLED` guard is a compile-time constant, so every
/// emission site folds away).
fn bench_tracer_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("tracer");
    group.sample_size(10);
    let g = Suite::by_name("road_s").expect("known graph").build();
    let m = MachineModel::h100();
    let cfg = DiggerBeesConfig {
        blocks: 8,
        warps_per_block: 4,
        ..Default::default()
    };

    group.bench_with_input(BenchmarkId::new("sim_untraced", "road_s"), &g, |b, g| {
        b.iter(|| black_box(run_sim(g, 0, &cfg, &m)))
    });
    group.bench_with_input(BenchmarkId::new("sim_null_tracer", "road_s"), &g, |b, g| {
        b.iter(|| black_box(run_sim_traced(g, 0, &cfg, &m, &NullTracer)))
    });

    let ncfg = NativeConfig {
        algo: DiggerBeesConfig {
            blocks: 2,
            warps_per_block: 2,
            ..DiggerBeesConfig::default()
        },
    };
    group.bench_with_input(BenchmarkId::new("native_untraced", "road_s"), &g, |b, g| {
        let engine = NativeEngine::new(ncfg);
        b.iter(|| black_box(engine.run(g, 0)))
    });
    group.bench_with_input(
        BenchmarkId::new("native_null_tracer", "road_s"),
        &g,
        |b, g| {
            let engine = NativeEngine::new(ncfg);
            b.iter(|| black_box(engine.run_traced(g, 0, &NullTracer)))
        },
    );
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_native, bench_tracer_overhead
}
criterion_main!(benches);
