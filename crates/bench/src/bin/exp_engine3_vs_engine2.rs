//! Engine2 vs engine3 ablation — messages, recomputation, wall-clock.
//!
//! Engine2 (Algorithm 3.2) resolves remote dependency chains with
//! request/resolved round trips, softened by the hub cache; engine3
//! re-evaluates the counter-based draw streams locally and sends
//! *nothing*. This experiment runs the same pinned workload through
//! three configurations — engine2 with the hub cache, engine2 without
//! it, and engine3 — and reports per-config message totals,
//! chain-recomputation counters and wall-clock time.
//!
//! The run doubles as a CI guard: if engine3 sends even one
//! point-to-point message or queues a single request the process exits
//! non-zero, so `ci.sh` can assert the communication-free property on
//! every push.
//!
//! ```text
//! cargo run -p pa-bench --release --bin exp_engine3_vs_engine2 -- --n 1000000 --ranks 4
//! ```

use pa_analysis::scaling::render_table;
use pa_bench::{banner, csv_line, Args};
use pa_core::partition::Scheme;
use pa_core::{par, Engine, GenOptions, PaConfig};

struct Row {
    label: &'static str,
    msgs: u64,
    requests: u64,
    recomputed: u64,
    memo_hits: u64,
    peak_depth: u64,
    secs: f64,
    edges: u64,
}

fn measure(label: &'static str, cfg: &PaConfig, ranks: usize, opts: &GenOptions) -> Row {
    let start = std::time::Instant::now();
    let out = par::generate(cfg, Scheme::Rrp, ranks, opts);
    let secs = start.elapsed().as_secs_f64();
    let msgs = out.ranks.iter().map(|r| r.comm.msgs_sent).sum();
    let totals = out.total_counters();
    Row {
        label,
        msgs,
        requests: totals.requests_sent,
        recomputed: totals.chain_rows_recomputed,
        memo_hits: totals.chain_memo_hits,
        peak_depth: totals.chain_peak_depth,
        secs,
        edges: out.edge_list().len() as u64,
    }
}

fn main() {
    let args = Args::parse();
    let n = args.get_u64("n", 1_000_000);
    let x = args.get_u64("x", 4);
    let p = args.get_f64("p", 0.5);
    let seed = args.get_u64("seed", 1);
    let ranks = args.get_u64("ranks", 4) as usize;

    banner(
        "engine3 ablation",
        "communication-free chain recomputation vs Algorithm 3.2's round trips",
    );
    println!("n = {n}, x = {x}, p = {p}, P = {ranks} (RRP)\n");

    let cfg = PaConfig::new(n, x).with_p(p).with_seed(seed);
    let engine3 = GenOptions::default().with_engine(Engine::Chain);
    let mut rows = vec![
        measure("engine2 hub on", &cfg, ranks, &GenOptions::default()),
        measure(
            "engine2 hub off",
            &cfg,
            ranks,
            &GenOptions::default().without_hub_cache(),
        ),
        measure("engine3", &cfg, ranks, &engine3),
        measure(
            "engine3 memo full",
            &cfg,
            ranks,
            &engine3.clone().with_chain_memo(n),
        ),
    ];
    if n <= 200_000 {
        // Without the memo every chain re-walks to its bottom — work
        // explodes quadratically-ish, so only measure it at small n.
        rows.push(measure(
            "engine3 memo off",
            &cfg,
            ranks,
            &engine3.with_chain_memo(0),
        ));
    }

    let edges = rows[0].edges;
    println!("csv,config,msgs_sent,requests_sent,rows_recomputed,memo_hits,peak_depth,seconds");
    let mut table = Vec::new();
    for r in &rows {
        assert_eq!(r.edges, edges, "{}: edge count diverged", r.label);
        csv_line(&[
            &r.label,
            &r.msgs,
            &r.requests,
            &r.recomputed,
            &r.memo_hits,
            &r.peak_depth,
            &format!("{:.3}", r.secs),
        ]);
        table.push(vec![
            r.label.to_string(),
            r.msgs.to_string(),
            r.requests.to_string(),
            r.recomputed.to_string(),
            r.memo_hits.to_string(),
            format!("{:.3}", r.secs),
        ]);
    }
    println!();
    println!(
        "{}",
        render_table(
            &[
                "config",
                "msgs sent",
                "requests",
                "rows recomputed",
                "memo hits",
                "seconds"
            ],
            &table,
        )
    );
    println!(
        "expected: engine2's message count collapses to zero in engine3, which\n\
         instead pays in recomputed chain rows; the memo absorbs most of that\n\
         recomputation (compare the memo-off row)."
    );

    // CI guard: the communication-free property is the whole point.
    for r in &rows {
        if r.label.starts_with("engine3") && (r.msgs != 0 || r.requests != 0) {
            eprintln!(
                "FAIL: {} sent {} message(s) / {} request(s); engine3 must be \
                 communication-free",
                r.label, r.msgs, r.requests
            );
            std::process::exit(1);
        }
    }
    println!("\nguard: engine3 sent 0 messages and 0 requests — OK");
}
