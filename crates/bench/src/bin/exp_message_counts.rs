//! Lemma 3.4 validation — request-message counts.
//!
//! The lemma: node `k` receives `E[M_k] = (1−p)(H_{n−1} − H_k)` request
//! messages. Two checks:
//!
//! 1. *Analytic:* count, from the deterministic draw streams, how many
//!    nodes actually copy from each `k`, binned by label, against the
//!    harmonic prediction.
//! 2. *Engine:* run Algorithm 3.1 under UCP and compare each rank's
//!    measured incoming requests with the lemma's per-rank sum (scaled
//!    by the remote fraction, since same-rank lookups never become
//!    messages).
//!
//! ```text
//! cargo run -p pa-bench --release --bin exp_message_counts
//! ```

use pa_analysis::messages;
use pa_analysis::scaling::render_table;
use pa_bench::{banner, csv_line, flags};
use pa_core::partition::{Scheme, Ucp};
use pa_core::{par, seq, Engine, GenOptions, PaConfig};

fn main() {
    let (n, p, seed, ranks) = flags(|a| {
        Ok((
            a.u64("n", 1_000_000)?,
            a.f64("p", 0.5)?,
            a.u64("seed", 1)?,
            a.int("ranks", 16usize)?,
        ))
    });

    banner(
        "Lemma 3.4",
        "E[M_k] = (1-p)(H_(n-1) - H_k) request messages per node",
    );
    println!("n = {n}, p = {p}\n");

    // --- Analytic check: count actual copy-lookups per node. ---
    let mut lookups = vec![0u32; n as usize];
    for t in 2..n {
        let c = seq::draw_choice(seed, p, 1, t, 0, 0);
        if !c.direct {
            lookups[c.k as usize] += 1;
        }
    }
    println!("binned lookup counts vs harmonic prediction:");
    println!("csv,bin_start,bin_end,measured_mean,predicted_mean");
    let mut rows = Vec::new();
    let mut lo = 1u64;
    while lo < n {
        let hi = (lo * 4).min(n);
        let measured: f64 =
            (lo..hi).map(|k| lookups[k as usize] as f64).sum::<f64>() / (hi - lo) as f64;
        let predicted: f64 = (lo..hi)
            .map(|k| messages::expected_requests_for_node(n, p, k))
            .sum::<f64>()
            / (hi - lo) as f64;
        csv_line(&[
            &lo,
            &hi,
            &format!("{measured:.4}"),
            &format!("{predicted:.4}"),
        ]);
        rows.push(vec![
            format!("[{lo}, {hi})"),
            format!("{measured:.3}"),
            format!("{predicted:.3}"),
        ]);
        lo = hi;
    }
    println!();
    println!(
        "{}",
        render_table(&["label bin", "measured E[M_k]", "predicted"], &rows)
    );

    // --- Engine check: per-rank incoming requests under UCP. ---
    println!("engine measurement (Algorithm 3.1, UCP, P = {ranks}):");
    let cfg = PaConfig::new(n, 1).with_p(p).with_seed(seed);
    let opts = GenOptions::default().with_engine(Engine::X1);
    let out = par::generate(&cfg, Scheme::Ucp, ranks, &opts);
    let part = Ucp::new(n, ranks);
    let predicted = messages::expected_requests_per_rank(p, &part);
    println!("csv,rank,measured_in,predicted_upper_bound");
    let mut rows = Vec::new();
    for (r, pred) in out.ranks.iter().zip(&predicted) {
        let measured = r.counters.requests_served + r.counters.requests_queued;
        csv_line(&[&r.rank, &measured, &format!("{pred:.0}")]);
        if r.rank % (ranks / 8).max(1) == 0 {
            rows.push(vec![
                r.rank.to_string(),
                measured.to_string(),
                format!("{pred:.0}"),
            ]);
        }
    }
    println!();
    println!(
        "{}",
        render_table(&["rank", "measured incoming", "lemma upper bound"], &rows)
    );
    println!(
        "expected: measured counts track the harmonic curve (slightly below\n\
         the bound because same-rank lookups never become messages), and drop\n\
         steeply with rank — the UCP imbalance of Figure 7(c)."
    );
}
