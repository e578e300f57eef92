//! Ablation — LCP's load constant `b` (Equation 10).
//!
//! The paper leaves `b = 1 + c` unspecified. `b` encodes the ratio of a
//! node's fixed cost to the cost of one incoming request, so the right
//! value is whatever balances the work ranks actually do. This harness
//! sweeps `b`, measures every rank's on-CPU time `W_r`, and reports its
//! max/mean (1.0 = balanced), naming the `b` that measured lowest next to
//! the workspace default — with RRP as the parameter-free yardstick.
//!
//! ```text
//! cargo run -p pa-bench --release --bin exp_lcp_b
//! ```

use pa_analysis::scaling::render_table;
use pa_analysis::stats::max_over_mean;
use pa_bench::{banner, csv_line, flags, rank_cpu_ns};
use pa_core::par::{self, ParallelOutput};
use pa_core::partition::{eq10, Lcp, Scheme};
use pa_core::{GenOptions, PaConfig};

/// `W_r` max/mean of one run. max/mean rather than max/min: extreme `b`
/// values can starve a rank of nodes entirely, and the slowest rank is
/// what the run waits for.
fn imbalance(out: &ParallelOutput) -> f64 {
    let cpu: Vec<f64> = rank_cpu_ns(out).iter().map(|&w| w as f64).collect();
    max_over_mean(&cpu)
}

fn main() {
    let (n, x, ranks, seed) = flags(|a| {
        Ok((
            a.u64("n", 1_000_000)?,
            a.u64("x", 6)?,
            a.int("ranks", 32usize)?,
            a.u64("seed", 1)?,
        ))
    });

    banner("Ablation", "LCP load constant b (Equation 10)");
    let cfg = PaConfig::new(n, x).with_seed(seed);
    let opts = GenOptions::default();
    println!(
        "n = {n}, x = {x}, P = {ranks}; default b = {}\n",
        eq10::DEFAULT_B
    );

    println!("csv,b,cpu_max_over_mean");
    let mut rows = Vec::new();
    let mut best = (f64::NAN, f64::INFINITY);
    let mut at_default = f64::NAN;
    for b in [1.5f64, 2.0, 3.0, 5.0, 8.0, 12.0, 20.0, 50.0] {
        let out = par::generate_with(&cfg, &Lcp::with_b(n, ranks, b), &opts);
        let cpu = imbalance(&out);
        csv_line(&[&b, &format!("{cpu:.3}")]);
        rows.push(vec![format!("{b}"), format!("{cpu:.3}")]);
        if cpu < best.1 {
            best = (b, cpu);
        }
        if b == eq10::DEFAULT_B {
            at_default = cpu;
        }
    }
    let cpu = imbalance(&par::generate(&cfg, Scheme::Rrp, ranks, &opts));
    rows.push(vec!["RRP (ref)".into(), format!("{cpu:.3}")]);

    println!();
    println!("{}", render_table(&["b", "W_r max/mean"], &rows));
    println!(
        "default b = {}: W_r max/mean {at_default:.3}; lowest measured: b = {} ({:.3})",
        eq10::DEFAULT_B,
        best.0,
        best.1
    );
    println!(
        "W_r = rank r's on-CPU time (run-queue wait excluded).\n\
         reading: small b over-weights message load (starves low ranks of\n\
         nodes); large b degenerates towards uniform (UCP's hotspot returns).\n\
         RRP needs no such tuning — one reason the paper prefers it."
    );
}
