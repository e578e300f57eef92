//! Figure 6 — weak scaling: runtime vs processor count with the
//! per-processor problem size held constant (paper: 10⁷ edges per
//! processor, P = 16..768). Runtime is the busiest rank's measured
//! on-CPU time `max_r W_r`, the runtime on `P` dedicated cores.
//!
//! ```text
//! cargo run -p pa-bench --release --bin fig6_weak_scaling -- --nodes-per-rank 10000 --x 6
//! ```

use pa_analysis::scaling::{render_table, weak_series};
use pa_bench::{banner, csv_line, rank_cpu_ns, Args};
use pa_core::{par, partition::Scheme, GenOptions, PaConfig};

fn main() {
    let args = Args::parse();
    let nodes_per_rank = args.get_u64("nodes-per-rank", 100_000);
    let x = args.get_u64("x", 6);
    let max_p = args.get_u64("maxp", 32) as usize;
    let seed = args.get_u64("seed", 1);

    banner("Figure 6", "weak scaling of the parallel PA algorithm");
    println!(
        "{nodes_per_rank} nodes/rank, x = {x} → {} edges/rank (paper: 1e7 edges/proc)\n",
        nodes_per_rank * x
    );

    let opts = GenOptions::default();
    // Start at P = 4: like the paper's sweep (16..768), the baseline is
    // a genuinely communicating run — a 1-rank run has no messages at
    // all and would make every later point look artificially slow.
    let min_p = args.get_u64("minp", 4) as usize;
    let mut sweep = vec![min_p];
    while *sweep.last().unwrap() * 2 <= max_p {
        sweep.push(sweep.last().unwrap() * 2);
    }

    println!("csv,scheme,ranks,total_nodes,cpu_max_s,normalized,wall_s");
    let mut per_scheme: Vec<Vec<String>> = Vec::new();
    for scheme in Scheme::ALL {
        let mut runs = Vec::new();
        let mut walls = Vec::new();
        for &ranks in &sweep {
            let n = nodes_per_rank * ranks as u64;
            let cfg = PaConfig::new(n, x).with_seed(seed);
            let start = std::time::Instant::now();
            let out = par::generate(&cfg, scheme, ranks, &opts);
            walls.push(start.elapsed().as_secs_f64());
            assert_eq!(out.total_edges() as u64, cfg.expected_edges());
            runs.push(rank_cpu_ns(&out));
        }
        let series = weak_series(&runs);
        let mut col = Vec::new();
        for (point, wall) in series.iter().zip(&walls) {
            csv_line(&[
                &scheme,
                &point.nranks,
                &(nodes_per_rank * point.nranks as u64),
                &format!("{:.3}", point.cpu_max_s),
                &format!("{:.3}", point.normalized),
                &format!("{wall:.3}"),
            ]);
            col.push(format!("{:.3}", point.normalized));
        }
        per_scheme.push(col);
    }

    let rows: Vec<Vec<String>> = sweep
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let mut row = vec![p.to_string()];
            row.extend(per_scheme.iter().map(|column| column[i].clone()));
            row
        })
        .collect();
    let headers = ["P", "UCP max W_r", "LCP max W_r", "RRP max W_r"];
    println!("\n{}", render_table(&headers, &rows));
    println!(
        "max W_r normalized to P = {min_p}; W_r = rank r's on-CPU time (run-queue\n\
         wait excluded). With P far above the host's cores, shared caches and\n\
         waiting ranks' receive polls inflate W_r, so later points read high.\n\
         paper: LCP and RRP stay almost flat (ideal weak scaling); UCP climbs\n\
         because its hotspot rank's message load grows with the total problem."
    );
}
