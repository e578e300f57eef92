//! Replicated hub cache: exactness and traffic-reduction guarantees.
//!
//! The cache replicates the first `H` nodes' attachment slots on every
//! rank. Each rank computes them with the sequential generator's attempt
//! loop, so an entry is exactly the committed value the `resolved`
//! message of the request path would carry — the edge set must be
//! bit-identical with the cache on or off, while the request traffic to
//! low-label (hub) nodes collapses and the cache sends nothing itself.

use pa_core::{par, partition::Scheme, seq, GenOptions, PaConfig};

fn total_requests(out: &par::ParallelOutput) -> u64 {
    out.total_counters().requests_sent
}

#[test]
fn hub_cache_cuts_request_traffic_without_changing_the_network() {
    // UCP concentrates hub ownership (and thus request floods) on the
    // low ranks — the regime the cache is designed for.
    let cfg = PaConfig::new(60_000, 4).with_seed(42);
    let nranks = 8;

    let off = par::generate(
        &cfg,
        Scheme::Ucp,
        nranks,
        &GenOptions::default().without_hub_cache(),
    );
    let on = par::generate(
        &cfg,
        Scheme::Ucp,
        nranks,
        &GenOptions::default().with_hub_cache(cfg.n / 4),
    );

    // Exactness: same network as the uncached run and the sequential
    // oracle, bit for bit.
    let reference = seq::copy_model(&cfg).canonicalized();
    assert_eq!(off.edge_list().canonicalized(), reference);
    assert_eq!(on.edge_list().canonicalized(), reference);

    // The cache must actually be exercised.
    assert!(
        on.total_counters().hub_hits > 0,
        "no lookups were served by the cache"
    );
    assert_eq!(off.total_counters().hub_hits, 0);

    // Traffic: caching a quarter of the label space covers well over
    // half of all copy lookups (the copy walk is biased toward low
    // labels), so requests must drop by at least 30%.
    let req_off = total_requests(&off);
    let req_on = total_requests(&on);
    assert!(
        (req_on as f64) <= 0.7 * req_off as f64,
        "hub cache saved too little: {req_on} vs {req_off} requests"
    );
}

#[test]
fn hub_cache_is_inert_on_a_single_rank() {
    // With one rank every lookup is local; the cache must neither
    // activate nor perturb the exact sequential equivalence.
    let cfg = PaConfig::new(5_000, 3).with_seed(7);
    let out = par::generate(
        &cfg,
        Scheme::Ucp,
        1,
        &GenOptions::default().with_hub_cache(cfg.n),
    );
    assert_eq!(out.total_counters().hub_hits, 0);
    assert_eq!(out.edge_list(), seq::copy_model(&cfg));
}

#[test]
fn full_replication_is_still_exact() {
    // H = n replicates every slot: every rank computes the whole table,
    // so no rank sends a single message. Output must be untouched.
    let cfg = PaConfig::new(8_000, 4).with_seed(11);
    let out = par::generate(
        &cfg,
        Scheme::Rrp,
        4,
        &GenOptions::default().with_hub_cache(cfg.n),
    );
    assert_eq!(
        out.edge_list().canonicalized(),
        seq::copy_model(&cfg).canonicalized()
    );
    assert!(out.total_counters().hub_hits > 0);
    for r in &out.ranks {
        assert_eq!(r.comm.msgs_sent, 0, "rank {} sent messages", r.rank);
        assert_eq!(r.counters.requests_sent, 0, "rank {} sent requests", r.rank);
    }
}
