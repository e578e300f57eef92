//! Parallel-engine throughput vs rank count (wall-clock; on a multi-core
//! host this shows real speedup, on this single-core host it measures the
//! runtime's overhead — the scaling *figures* use the cost model instead).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pa_core::{par, partition::Scheme, Engine, GenOptions, PaConfig};
use std::hint::black_box;

fn bench_engine_by_ranks(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_ranks");
    group.sample_size(10);
    let cfg = PaConfig::new(50_000, 4).with_seed(1);
    group.throughput(Throughput::Elements(cfg.expected_edges()));
    for &ranks in &[1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("rrp", ranks), &ranks, |b, &ranks| {
            b.iter(|| par::generate(black_box(&cfg), Scheme::Rrp, ranks, &GenOptions::default()))
        });
    }
    group.finish();
}

fn bench_engine_x1_vs_general(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_x1");
    group.sample_size(10);
    let cfg = PaConfig::new(50_000, 1).with_seed(1);
    group.throughput(Throughput::Elements(cfg.expected_edges()));
    group.bench_function("algorithm_3_1", |b| {
        let opts = GenOptions::default().with_engine(Engine::X1);
        b.iter(|| par::generate(black_box(&cfg), Scheme::Rrp, 4, &opts))
    });
    group.bench_function("algorithm_3_2_with_x1", |b| {
        b.iter(|| par::generate(black_box(&cfg), Scheme::Rrp, 4, &GenOptions::default()))
    });
    group.finish();
}

criterion_group!(benches, bench_engine_by_ranks, bench_engine_x1_vs_general);
criterion_main!(benches);
