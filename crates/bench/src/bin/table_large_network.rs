//! §4.5 — generating the largest network this host can hold (the paper's
//! headline: 50 billion edges, n = 1e9, x = 5, in 123 s on 768 procs).
//!
//! Generates the biggest run that fits here, reports throughput, and
//! extrapolates to the paper's configuration for context. The per-core
//! rate is edges per second of measured on-CPU time summed over ranks,
//! so it does not depend on how many ranks share the host's cores.
//!
//! ```text
//! cargo run -p pa-bench --release --bin table_large_network -- --n 10000000 --x 5
//! ```

use pa_analysis::scaling::render_table;
use pa_bench::{banner, csv_line, rank_cpu_ns, Args};
use pa_core::{par, partition::Scheme, GenOptions, PaConfig};

fn main() {
    let args = Args::parse();
    let n = args.get_u64("n", 10_000_000);
    let x = args.get_u64("x", 5);
    let ranks = args.get_u64("ranks", 8) as usize;
    let seed = args.get_u64("seed", 1);

    banner(
        "Table (§4.5)",
        "largest-network generation with the RRP scheme",
    );
    println!(
        "n = {n}, x = {x}, P = {ranks} (paper: n = 1e9, x = 5, P = 768 → 50B edges in 123 s)\n"
    );

    let cfg = PaConfig::new(n, x).with_seed(seed);
    let start = std::time::Instant::now();
    let out = par::generate(&cfg, Scheme::Rrp, ranks, &GenOptions::default());
    let wall = start.elapsed().as_secs_f64();
    let edges = out.total_edges() as u64;
    assert_eq!(edges, cfg.expected_edges());

    let cpu_s = rank_cpu_ns(&out).iter().sum::<u64>() as f64 / 1e9;
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let throughput = edges as f64 / wall;
    let per_core = edges as f64 / cpu_s;
    let paper_edges = 50_000_000_000f64;
    let paper_procs = 768.0;
    let extrapolated = paper_edges / (per_core * paper_procs);

    println!("csv,edges,wall_s,cpu_sum_s,edges_per_s,edges_per_cpu_s");
    csv_line(&[
        &edges,
        &format!("{wall:.2}"),
        &format!("{cpu_s:.2}"),
        &format!("{throughput:.0}"),
        &format!("{per_core:.0}"),
    ]);
    println!();
    println!(
        "{}",
        render_table(
            &["quantity", "this run", "paper"],
            &[
                vec!["edges".into(), edges.to_string(), "50B".into()],
                vec![
                    "processors".into(),
                    format!("{ranks} ranks / {cores} cores"),
                    "768".into()
                ],
                vec!["wall time (s)".into(), format!("{wall:.1}"), "123".into()],
                vec![
                    "CPU time, all ranks (s)".into(),
                    format!("{cpu_s:.1}"),
                    "n/a".into()
                ],
                vec![
                    "edges/s/core".into(),
                    format!("{per_core:.2e}"),
                    format!("{:.2e}", paper_edges / 123.0 / paper_procs),
                ],
            ]
        )
    );
    println!(
        "extrapolation: at this per-core rate, 768 perfectly scaling cores\n\
         would generate the paper's 50B-edge network in ≈ {extrapolated:.0} s\n\
         (paper measured 123 s on 2013-era 2.6 GHz Sandy Bridge with real\n\
         InfiniBand latencies; a per-core advantage of roughly an order of\n\
         magnitude for a modern core plus in-process channels is expected;\n\
         the extrapolation assumes per-edge work stays at this run's level,\n\
         message handling included, as P grows)."
    );
}
