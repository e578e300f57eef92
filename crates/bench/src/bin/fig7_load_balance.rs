//! Figure 7 — per-processor node and message distribution for UCP, LCP
//! and RRP (paper: n = 10⁸, x = 10, P = 160; we default to n = 10⁶).
//!
//! Panels: (a) nodes per processor, (b) outgoing request messages,
//! (c) incoming request messages, (d) total load = nodes + incoming +
//! outgoing (§4.6.3's unit measure). Beside the paper's count load, each
//! rank's measured on-CPU time `W_r` shows what the counts cost.
//!
//! ```text
//! cargo run -p pa-bench --release --bin fig7_load_balance -- --n 1000000 --ranks 160
//! ```

use pa_analysis::scaling::render_table;
use pa_analysis::stats;
use pa_bench::{banner, csv_line, rank_cpu_ns, Args};
use pa_core::{par, partition::Scheme, GenOptions, PaConfig};

fn main() {
    let args = Args::parse();
    let n = args.get_u64("n", 1_000_000);
    let x = args.get_u64("x", 10);
    let ranks = args.get_u64("ranks", 160) as usize;
    let seed = args.get_u64("seed", 1);

    banner("Figure 7", "node and message distribution per processor");
    println!("n = {n}, x = {x}, P = {ranks} (paper: n = 1e8, x = 10, P = 160)\n");

    let cfg = PaConfig::new(n, x).with_seed(seed);
    // Figure 7 characterizes the paper's uncached request traffic, so run
    // with the hub cache disabled.
    let opts = GenOptions::default().without_hub_cache();

    println!(
        "csv,scheme,rank,nodes,requests_out,requests_in,total_load,packets_out,packets_in,cpu_s"
    );
    let mut summary_rows = Vec::new();
    for scheme in Scheme::ALL {
        let out = par::generate(&cfg, scheme, ranks, &opts);
        assert_eq!(out.total_edges() as u64, cfg.expected_edges());
        let cpu_ns = rank_cpu_ns(&out);
        let mut loads = Vec::with_capacity(ranks);
        for (r, &w) in out.ranks.iter().zip(&cpu_ns) {
            let requests_out = r.counters.requests_sent;
            let requests_in = r.counters.requests_served + r.counters.requests_queued;
            let total = r.counters.nodes + requests_out + requests_in;
            csv_line(&[
                &scheme,
                &r.rank,
                &r.counters.nodes,
                &requests_out,
                &requests_in,
                &total,
                &r.comm.packets_sent,
                &r.comm.packets_recv,
                &format!("{:.4}", w as f64 / 1e9),
            ]);
            loads.push(total as f64);
        }
        let (mean, std) = stats::mean_std(&loads);
        let imbalance = stats::imbalance(&loads);
        let max = loads.iter().cloned().fold(f64::MIN, f64::max);
        let cpu: Vec<f64> = cpu_ns.iter().map(|&w| w as f64).collect();
        summary_rows.push(vec![
            scheme.to_string(),
            format!("{mean:.0}"),
            format!("{std:.0}"),
            format!("{max:.0}"),
            format!("{imbalance:.2}"),
            format!("{:.2}", stats::max_over_mean(&cpu)),
        ]);
    }

    println!();
    println!(
        "{}",
        render_table(
            &["scheme", "mean", "std", "max", "max/min", "W_r max/mean"],
            &summary_rows
        )
    );
    println!(
        "load (mean, std, max, max/min) = nodes + requests out + requests in;\n\
         W_r = rank r's on-CPU time, whose max/mean is the work imbalance.\n\
         paper: RRP distributes load almost perfectly, LCP is close, and UCP\n\
         is badly skewed (its low ranks receive the bulk of the requests)."
    );
}
