//! Hub-cache ablation — request and message traffic with the replicated
//! low-label cache on vs. off, on the UCP layout it targets (Lemma 3.4:
//! low-label nodes receive the bulk of all requests).
//!
//! Verifies bit-identical edge sets across the two runs, then reports
//! per-run totals: request messages, total messages (including the
//! broadcast overhead the cache pays), packets, and cache counters.
//!
//! ```text
//! cargo run -p pa-bench --release --bin exp_hub_cache -- --n 1000000 --x 4 --ranks 8
//! ```

use pa_analysis::scaling::render_table;
use pa_bench::{banner, csv_line, flags};
use pa_core::par::ParallelOutput;
use pa_core::partition::Scheme;
use pa_core::{par, GenOptions, PaConfig};

fn totals(out: &ParallelOutput) -> (u64, u64, u64) {
    let msgs = out.ranks.iter().map(|r| r.comm.msgs_sent).sum();
    let packets = out.ranks.iter().map(|r| r.comm.packets_sent).sum();
    (out.total_counters().requests_sent, msgs, packets)
}

fn main() {
    let (n, x, ranks, seed, hub_nodes) = flags(|a| {
        let n = a.u64("n", 1_000_000)?;
        Ok((
            n,
            a.u64("x", 4)?,
            a.int("ranks", 8usize)?,
            a.u64("seed", 1)?,
            a.u64("hub", n / 4)?,
        ))
    });

    banner(
        "Hub cache",
        "request/message traffic with the replicated hub cache on vs off",
    );
    println!("n = {n}, x = {x}, P = {ranks}, UCP, hub = {hub_nodes} nodes\n");

    let cfg = PaConfig::new(n, x).with_seed(seed);
    let run = |opts: &GenOptions| {
        let started = std::time::Instant::now();
        let out = par::generate(&cfg, Scheme::Ucp, ranks, opts);
        (out, started.elapsed().as_secs_f64())
    };
    let (off, t_off) = run(&GenOptions::default().without_hub_cache());
    let (on, t_on) = run(&GenOptions::default().with_hub_cache(hub_nodes));

    assert_eq!(
        off.edge_list().canonicalized(),
        on.edge_list().canonicalized(),
        "hub cache changed the network"
    );
    println!(
        "edge sets are bit-identical ({} edges)\n",
        off.total_edges()
    );

    let (req_off, msgs_off, pk_off) = totals(&off);
    let (req_on, msgs_on, pk_on) = totals(&on);
    let hub = on.total_counters();

    println!("csv,variant,requests,msgs,packets,hub_hits,hub_deferred,hub_updates,seconds");
    csv_line(&[&"off", &req_off, &msgs_off, &pk_off, &0, &0, &0, &t_off]);
    csv_line(&[
        &"on",
        &req_on,
        &msgs_on,
        &pk_on,
        &hub.hub_hits,
        &hub.hub_deferred,
        &hub.hub_updates,
        &t_on,
    ]);

    let pct = |a: u64, b: u64| 100.0 * (1.0 - a as f64 / b as f64);
    println!();
    println!(
        "{}",
        render_table(
            &["metric", "hub off", "hub on", "change"],
            &[
                vec![
                    "requests sent".into(),
                    req_off.to_string(),
                    req_on.to_string(),
                    format!("{:+.1}%", -pct(req_on, req_off)),
                ],
                vec![
                    "total messages".into(),
                    msgs_off.to_string(),
                    msgs_on.to_string(),
                    format!("{:+.1}%", -pct(msgs_on, msgs_off)),
                ],
                vec![
                    "packets".into(),
                    pk_off.to_string(),
                    pk_on.to_string(),
                    format!("{:+.1}%", -pct(pk_on, pk_off)),
                ],
            ]
        )
    );
    println!(
        "\nhub hits: {} ({} parked for a broadcast), broadcasts installed: {}",
        hub.hub_hits, hub.hub_deferred, hub.hub_updates
    );
    println!(
        "requests drop {:.1}% with the cache on (target: >= 30%)",
        pct(req_on, req_off)
    );
}
