//! Load-balance integration tests: the Figure 7 orderings must hold.

use pa_analysis::stats;
use pa_core::{par, partition::Scheme, GenOptions, PaConfig};

/// Figure 7 characterizes the *uncached* request/resolved protocol, so
/// these tests disable the hub cache (which exists precisely to remove
/// the traffic they measure).
fn opts() -> GenOptions {
    GenOptions::default().without_hub_cache()
}

fn paper_loads(scheme: Scheme, cfg: &PaConfig, ranks: usize) -> Vec<f64> {
    let out = par::generate(cfg, scheme, ranks, &opts());
    assert_eq!(out.total_edges() as u64, cfg.expected_edges());
    out.ranks.iter().map(|r| r.paper_load() as f64).collect()
}

#[test]
fn rrp_balances_better_than_ucp() {
    let cfg = PaConfig::new(40_000, 6).with_seed(3);
    let ranks = 16;
    let ucp = stats::imbalance(&paper_loads(Scheme::Ucp, &cfg, ranks));
    let rrp = stats::imbalance(&paper_loads(Scheme::Rrp, &cfg, ranks));
    assert!(
        rrp < ucp,
        "RRP imbalance {rrp:.2} must beat UCP {ucp:.2} (Figure 7d)"
    );
    assert!(rrp < 1.3, "RRP should be near-perfect, got {rrp:.2}");
}

#[test]
fn lcp_balances_better_than_ucp() {
    let cfg = PaConfig::new(40_000, 6).with_seed(3);
    let ranks = 16;
    let ucp = stats::imbalance(&paper_loads(Scheme::Ucp, &cfg, ranks));
    let lcp = stats::imbalance(&paper_loads(Scheme::Lcp, &cfg, ranks));
    assert!(
        lcp < ucp,
        "LCP imbalance {lcp:.2} must beat UCP {ucp:.2} (Figure 7d)"
    );
}

#[test]
fn ucp_incoming_requests_decrease_with_rank() {
    // Figure 7(c): under consecutive partitioning, low ranks receive far
    // more requests (Lemma 3.4).
    let cfg = PaConfig::new(40_000, 6).with_seed(3);
    let out = par::generate(&cfg, Scheme::Ucp, 8, &opts());
    let incoming: Vec<u64> = out
        .ranks
        .iter()
        .map(|r| r.counters.requests_served + r.counters.requests_queued)
        .collect();
    assert!(
        incoming[0] > 4 * incoming[7].max(1),
        "rank 0 should be flooded: {incoming:?}"
    );
    // Broad monotone decline (allow local noise between adjacent ranks).
    assert!(
        incoming[0] > incoming[3] && incoming[3] > incoming[7],
        "{incoming:?}"
    );
}

#[test]
fn ucp_rank_zero_sends_no_requests() {
    // §4.6.2: "processor 0 does not need to send any request messages at
    // all" — all its lookups are for lower-labelled nodes it owns itself.
    let cfg = PaConfig::new(10_000, 4).with_seed(1);
    let out = par::generate(&cfg, Scheme::Ucp, 8, &opts());
    let r0 = &out.ranks[0];
    assert_eq!(r0.counters.requests_sent, 0);
    // Everything rank 0 *does* send is a resolved response: one per
    // incoming request, whether answered immediately or after queueing.
    assert_eq!(
        r0.comm.msgs_sent,
        r0.counters.requests_served + r0.counters.requests_queued
    );
    // Rank 0 resolves its copy lookups locally (they all target its own
    // lower-labelled nodes, already committed by the ascending sweep).
    assert!(r0.counters.local_immediate > 0);
    assert_eq!(r0.counters.local_deferred, 0);
}

#[test]
fn outgoing_requests_proportional_to_partition_size() {
    // §4.6.2: expected outgoing requests ≈ (1−p)·x per node, so a rank's
    // outgoing traffic tracks its node count (UCP: all roughly equal
    // except rank 0's locality advantage).
    let cfg = PaConfig::new(40_000, 6).with_seed(3);
    let out = par::generate(&cfg, Scheme::Rrp, 8, &opts());
    let per_node: Vec<f64> = out
        .ranks
        .iter()
        .map(|r| r.counters.requests_sent as f64 / r.counters.nodes as f64)
        .collect();
    let expect = (1.0 - cfg.p) * cfg.x as f64;
    for (rank, &v) in per_node.iter().enumerate() {
        assert!(
            v <= expect * 1.05,
            "rank {rank}: outgoing/node {v:.2} above the (1-p)x = {expect} bound"
        );
        // Remote fraction under RRP with P = 8 is 7/8, so the measured
        // rate should be near (not far below) the bound.
        assert!(
            v >= expect * 0.7,
            "rank {rank}: outgoing/node {v:.2} unexpectedly low"
        );
    }
}
