//! Throughput of every generator in the workspace at a common size —
//! the "model zoo" comparison backing the extensions in DESIGN.md §7.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pa_core::{approx_yh, cl, er, par, partition::Scheme, rmat, ws, Engine, GenOptions, PaConfig};
use pa_rng::Xoshiro256pp;
use std::hint::black_box;

const N: u64 = 50_000;

fn bench_model_zoo(c: &mut Criterion) {
    let mut group = c.benchmark_group("generators");
    group.sample_size(10);

    let pa_cfg = PaConfig::new(N, 4).with_seed(1);
    group.throughput(Throughput::Elements(pa_cfg.expected_edges()));
    group.bench_function("pa_parallel_p4", |b| {
        b.iter(|| par::generate(black_box(&pa_cfg), Scheme::Rrp, 4, &GenOptions::default()))
    });
    let hub_opts = GenOptions::default().with_hub_cache(N / 4);
    group.bench_function("pa_parallel_p4_hub_quarter", |b| {
        b.iter(|| par::generate(black_box(&pa_cfg), Scheme::Rrp, 4, &hub_opts))
    });
    let nohub_opts = GenOptions::default().without_hub_cache();
    group.bench_function("pa_parallel_p4_hub_off", |b| {
        b.iter(|| par::generate(black_box(&pa_cfg), Scheme::Rrp, 4, &nohub_opts))
    });
    let engine3_opts = GenOptions::default().with_engine(Engine::Chain);
    group.bench_function("pa_parallel_p4_engine3", |b| {
        b.iter(|| par::generate(black_box(&pa_cfg), Scheme::Rrp, 4, &engine3_opts))
    });
    let nomemo_opts = engine3_opts.clone().with_chain_memo(0);
    group.bench_function("pa_parallel_p4_engine3_memo_off", |b| {
        b.iter(|| par::generate(black_box(&pa_cfg), Scheme::Rrp, 4, &nomemo_opts))
    });
    group.bench_function("pa_streaming_count_p4", |b| {
        // Same engine, zero-materialization path: edges fold into a
        // per-rank counter instead of an edge vector, isolating the
        // allocation/commit cost of materialized output.
        b.iter(|| {
            par::generate_streaming(
                black_box(&pa_cfg),
                Scheme::Rrp,
                4,
                &GenOptions::default(),
                |_| par::CountSink::default(),
            )
        })
    });
    group.bench_function("pa_streaming_count_p4_engine3", |b| {
        b.iter(|| {
            par::generate_streaming(black_box(&pa_cfg), Scheme::Rrp, 4, &engine3_opts, |_| {
                par::CountSink::default()
            })
        })
    });
    group.bench_function("pa_sequential", |b| {
        b.iter(|| pa_core::seq::copy_model(black_box(&pa_cfg)))
    });
    group.bench_function("pa_approximate_yh_p4", |b| {
        b.iter(|| approx_yh::generate(black_box(&pa_cfg), 4, &approx_yh::YhParams::default()))
    });

    let er_cfg = er::ErConfig::new(N, 8.0 / N as f64).with_seed(1);
    group.bench_function("erdos_renyi_p4", |b| {
        b.iter(|| er::generate_par(black_box(&er_cfg), 4))
    });

    let cl_cfg = cl::ClConfig::new(cl::power_law_weights(N, 3.0, 3.0), 1);
    group.bench_function("chung_lu_p4", |b| {
        b.iter(|| cl::generate_par(black_box(&cl_cfg), 4))
    });

    let ws_cfg = ws::WsConfig::new(N, 8, 0.1).with_seed(1);
    group.bench_function("watts_strogatz_seq", |b| {
        b.iter(|| ws::generate(black_box(&ws_cfg), &mut Xoshiro256pp::new(1)))
    });

    let rmat_cfg = rmat::RmatConfig::graph500(16)
        .with_edges(4 * N)
        .with_seed(1);
    group.bench_function("rmat_p4", |b| {
        b.iter(|| rmat::generate_par(black_box(&rmat_cfg), 4))
    });

    group.finish();
}

fn bench_metrics(c: &mut Criterion) {
    let mut group = c.benchmark_group("analysis");
    group.sample_size(10);
    let cfg = PaConfig::new(N, 4).with_seed(1);
    let edges = pa_core::seq::copy_model(&cfg);
    let csr = pa_graph::Csr::from_edges(N as usize, &edges);
    let deg = pa_graph::degrees::degree_sequence(N as usize, &edges);

    group.bench_function("csr_construction", |b| {
        b.iter(|| pa_graph::Csr::from_edges(N as usize, black_box(&edges)))
    });
    group.bench_function("triangle_count", |b| {
        b.iter(|| pa_graph::metrics::triangle_count(black_box(&csr)))
    });
    group.bench_function("core_numbers", |b| {
        b.iter(|| pa_graph::metrics::core_numbers(black_box(&csr)))
    });
    group.bench_function("powerlaw_mle", |b| {
        b.iter(|| pa_analysis::powerlaw::fit_mle(black_box(&deg), 8))
    });
    group.bench_function("full_report", |b| {
        b.iter(|| pa_analysis::report::analyze(N, black_box(&edges)))
    });
    group.finish();
}

criterion_group!(benches, bench_model_zoo, bench_metrics);
criterion_main!(benches);
