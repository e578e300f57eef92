//! Theorem 3.3 validation — dependency-chain lengths.
//!
//! The paper proves E\[L_t\] ≤ ln n, max L = O(log n) w.h.p. (their
//! Chernoff yardstick: 5·ln n), and average length ≤ 1/p for constant p.
//! This harness computes exact chain lengths from the deterministic draw
//! streams across an n sweep and a p sweep.
//!
//! ```text
//! cargo run -p pa-bench --release --bin exp_dependency_chains
//! ```

use pa_analysis::scaling::render_table;
use pa_bench::{banner, csv_line, flags};
use pa_core::chains;

fn main() {
    let (max_n, seed) = flags(|a| Ok((a.u64("maxn", 10_000_000)?, a.u64("seed", 1)?)));

    banner(
        "Theorem 3.3",
        "dependency-chain lengths: mean <= 1/p, max = O(log n)",
    );

    // --- n sweep at p = 1/2. ---
    println!("\nn sweep (p = 0.5):");
    println!("csv,n,mean_dep,max_dep,ln_n,five_ln_n,mean_sel");
    let mut rows = Vec::new();
    let mut n = 1_000u64;
    while n <= max_n {
        let dep = chains::summarize(&chains::dependency_lengths(seed, 0.5, n));
        let sel = chains::summarize(&chains::selection_lengths(seed, 0.5, n));
        let ln_n = (n as f64).ln();
        csv_line(&[
            &n,
            &format!("{:.3}", dep.mean),
            &dep.max,
            &format!("{ln_n:.2}"),
            &format!("{:.2}", 5.0 * ln_n),
            &format!("{:.3}", sel.mean),
        ]);
        rows.push(vec![
            n.to_string(),
            format!("{:.3}", dep.mean),
            dep.max.to_string(),
            format!("{:.1}", 5.0 * ln_n),
            format!("{:.2}", sel.mean),
        ]);
        n *= 10;
    }
    println!();
    println!(
        "{}",
        render_table(&["n", "mean |D|", "max |D|", "5 ln n", "mean |S|"], &rows)
    );

    // --- p sweep at fixed n. ---
    let n = 1_000_000u64;
    println!("p sweep (n = {n}):");
    println!("csv,p,mean_dep,max_dep,bound_1_over_p");
    let mut rows = Vec::new();
    for p in [0.1f64, 0.25, 0.5, 0.75, 0.9] {
        let dep = chains::summarize(&chains::dependency_lengths(seed, p, n));
        csv_line(&[
            &p,
            &format!("{:.3}", dep.mean),
            &dep.max,
            &format!("{:.2}", 1.0 / p),
        ]);
        rows.push(vec![
            p.to_string(),
            format!("{:.3}", dep.mean),
            dep.max.to_string(),
            format!("{:.2}", 1.0 / p),
        ]);
    }
    println!();
    println!(
        "{}",
        render_table(&["p", "mean |D|", "max |D|", "1/p bound"], &rows)
    );
    println!(
        "expected: mean dependency length stays below 1/p and essentially flat\n\
         in n; the max grows like log n and stays under the 5 ln n yardstick."
    );
}
