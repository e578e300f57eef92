//! Choosing a partitioning scheme: run the same workload under UCP, LCP
//! and RRP and compare the load balance — the §3.5/§4.6 decision in
//! miniature. Each rank's measured on-CPU time gives the speedup bound
//! on dedicated cores beside the paper's count load.
//!
//! ```text
//! cargo run -p pa-bench --release --example partition_tuning
//! ```

use pa_analysis::scaling::{render_table, strong_point};
use pa_analysis::stats;
use pa_bench::rank_cpu_ns;
use pa_core::{par, partition::Scheme, GenOptions, PaConfig};

fn main() {
    let cfg = PaConfig::new(200_000, 8).with_seed(11);
    let ranks = 32;
    let opts = GenOptions::default();
    println!(
        "workload: n = {}, x = {} on {ranks} ranks — which partitioning?\n",
        cfg.n, cfg.x
    );

    // One rank's on-CPU time is the work every speedup is measured against.
    let base_ns = rank_cpu_ns(&par::generate(&cfg, Scheme::Ucp, 1, &opts))[0];
    let mut rows = Vec::new();
    for scheme in Scheme::ALL {
        let out = par::generate(&cfg, scheme, ranks, &opts);
        let loads: Vec<f64> = out.ranks.iter().map(|r| r.paper_load() as f64).collect();
        let cpu_ns = rank_cpu_ns(&out);
        let cpu: Vec<f64> = cpu_ns.iter().map(|&w| w as f64).collect();
        let (mean, std) = stats::mean_std(&loads);
        rows.push(vec![
            scheme.to_string(),
            format!("{mean:.0}"),
            format!("{:.1}%", 100.0 * std / mean),
            format!("{:.2}", stats::imbalance(&loads)),
            format!("{:.2}", stats::max_over_mean(&cpu)),
            format!("{:.1}", strong_point(base_ns, &cpu_ns).speedup_bound),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "scheme",
                "mean load",
                "std/mean",
                "max/min",
                "W_r max/mean",
                "speedup bound"
            ],
            &rows
        )
    );
    println!(
        "load = nodes + messages in + out; W_r = rank r's on-CPU time.\n\
         rule of thumb from the paper: RRP when any node order works;\n\
         LCP when downstream analysis needs consecutive nodes per rank;\n\
         avoid UCP — equal node counts are not equal work."
    );
}
