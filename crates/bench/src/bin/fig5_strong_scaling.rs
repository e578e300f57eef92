//! Figure 5 — strong scaling: speedup vs processor count for the three
//! partitioning schemes (paper: n = 10⁹, x = 6, P = 1..768).
//!
//! Every rank's on-CPU time `W_r` is measured, and `W(1) / max_r W_r(P)`
//! is the speedup bound on `P` dedicated cores. It is printed beside the
//! wall-clock speedup, which means the same thing only while `P` does not
//! exceed the host's cores; the footer compares the two at `P = 2`.
//!
//! ```text
//! cargo run -p pa-bench --release --bin fig5_strong_scaling -- --n 200000 --x 6
//! ```

use pa_analysis::scaling::{render_table, strong_point};
use pa_bench::{banner, csv_line, flags, rank_cpu_ns};
use pa_core::{par, partition::Scheme, GenOptions, PaConfig};

fn main() {
    let (n, x, max_p, seed) = flags(|a| {
        Ok((
            a.u64("n", 2_000_000)?,
            a.u64("x", 6)?,
            a.int("maxp", 32usize)?,
            a.u64("seed", 1)?,
        ))
    });

    banner("Figure 5", "strong scaling of the parallel PA algorithm");
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    println!("n = {n}, x = {x} on {cores} cores (paper: n = 1e9, x = 6, P up to 768)\n");

    let cfg = PaConfig::new(n, x).with_seed(seed);
    let mut sweep = vec![1usize];
    while *sweep.last().unwrap() * 2 <= max_p {
        sweep.push(sweep.last().unwrap() * 2);
    }

    println!("csv,scheme,ranks,cpu_max_s,cpu_sum_s,speedup_bound,efficiency,wall_s,wall_speedup");
    // Each scheme's baseline is its own P = 1 run: the same nodes under
    // every scheme, but not the same partition arithmetic per edge.
    let mut base: Vec<(u64, f64)> = Vec::new();
    let mut rows = Vec::new();
    let mut at_two = Vec::new();
    for &ranks in &sweep {
        let mut row = vec![ranks.to_string()];
        for (i, scheme) in Scheme::ALL.into_iter().enumerate() {
            let start = std::time::Instant::now();
            let out = par::generate(&cfg, scheme, ranks, &GenOptions::default());
            let wall = start.elapsed().as_secs_f64();
            assert_eq!(out.total_edges() as u64, cfg.expected_edges());
            let cpu_ns = rank_cpu_ns(&out);
            if ranks == 1 {
                base.push((cpu_ns[0], wall));
            }
            let point = strong_point(base[i].0, &cpu_ns);
            let wall_speedup = base[i].1 / wall;
            csv_line(&[
                &scheme,
                &ranks,
                &format!("{:.3}", point.cpu_max_s),
                &format!("{:.3}", point.cpu_sum_s),
                &format!("{:.2}", point.speedup_bound),
                &format!("{:.3}", point.efficiency),
                &format!("{wall:.3}"),
                &format!("{wall_speedup:.2}"),
            ]);
            row.push(format!("{:.2}", point.speedup_bound));
            row.push(format!("{wall_speedup:.2}"));
            if ranks == 2 && cores >= 2 {
                at_two.push((scheme, point.speedup_bound, wall_speedup));
            }
        }
        rows.push(row);
    }
    let headers = [
        "P",
        "UCP bound",
        "UCP wall",
        "LCP bound",
        "LCP wall",
        "RRP bound",
        "RRP wall",
    ];
    println!("\n{}", render_table(&headers, &rows));
    println!(
        "bound = W(1) / max_r W_r(P), W_r = rank r's on-CPU time (run-queue wait\n\
         excluded): the speedup on P dedicated cores. wall = wall-clock speedup on\n\
         {cores} cores. With P far above the cores, shared caches and waiting\n\
         ranks' receive polls inflate W_r, so the bound is conservative there."
    );
    if !at_two.is_empty() {
        println!("\ncheck at P = 2, where every rank has a core of its own:");
    }
    for (scheme, bound, wall) in at_two {
        let gap = bound / wall - 1.0;
        let verdict = match gap {
            g if g.abs() <= 0.10 => "agrees",
            g if g > 0.0 => "bound above wall: ranks also wait on each other's answers, off CPU",
            _ => "wall above bound: W_r misses work, the bound is NOT trusted",
        };
        let pct = 100.0 * gap;
        println!("  {scheme}: bound {bound:.2} vs wall {wall:.2} (gap {pct:+.0}%) — {verdict}");
    }
    println!(
        "\npaper: speedups grow almost linearly with P; LCP and RRP beat UCP\n\
         because UCP's rank 0 absorbs the incoming-request hotspot."
    );
}
