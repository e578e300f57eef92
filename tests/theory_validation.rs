//! Integration checks of the paper's analytical claims (Lemmas 3.1/3.4,
//! Theorem 3.3) against both analytic draw statistics and live engine
//! measurements.

use pa_analysis::messages;
use pa_core::partition::{Scheme, Ucp};
use pa_core::{chains, par, seq, Engine, GenOptions, PaConfig};

#[test]
fn lemma_3_4_request_counts_follow_the_harmonic_law() {
    // Count actual copy-lookups per node from the draw streams and
    // compare bin means with (1−p)(H_{n−1} − H_k).
    let (n, p, seed) = (200_000u64, 0.5, 17u64);
    let mut lookups = vec![0u32; n as usize];
    for t in 2..n {
        let c = seq::draw_choice(seed, p, 1, t, 0, 0);
        if !c.direct {
            lookups[c.k as usize] += 1;
        }
    }
    let mut lo = 16u64;
    while lo < n / 4 {
        let hi = lo * 4;
        let measured: f64 =
            (lo..hi).map(|k| lookups[k as usize] as f64).sum::<f64>() / (hi - lo) as f64;
        let predicted: f64 = (lo..hi)
            .map(|k| messages::expected_requests_for_node(n, p, k))
            .sum::<f64>()
            / (hi - lo) as f64;
        assert!(
            (measured - predicted).abs() < 0.15 * predicted + 0.05,
            "bin [{lo},{hi}): measured {measured:.3} vs predicted {predicted:.3}"
        );
        lo = hi;
    }
}

#[test]
fn lemma_3_1_selection_chain_membership_probability() {
    // P(i ∈ S_t) = 1/i. The probability is over the *draw realization*
    // (under one seed all chains merge, so different starting nodes are
    // not independent samples): fix t, walk its selection chain under
    // many seeds, and tally how often each probe node appears.
    let t = 50_000u64;
    let probes = [3u64, 5, 10, 50];
    let mut hits = [0u64; 4];
    let trials = 4_000u64;
    for seed in 0..trials {
        let mut cur = t;
        while cur > 1 {
            if let Some(slot) = probes.iter().position(|&q| q == cur) {
                hits[slot] += 1;
            }
            cur = seq::draw_choice(seed, 0.5, 1, cur, 0, 0).k;
        }
    }
    for (slot, &i) in probes.iter().enumerate() {
        let measured = hits[slot] as f64 / trials as f64;
        let predicted = 1.0 / i as f64;
        let sigma = (predicted * (1.0 - predicted) / trials as f64).sqrt();
        assert!(
            (measured - predicted).abs() < 5.0 * sigma + 0.005,
            "P({i} ∈ S_t): measured {measured:.4}, predicted {predicted:.4}"
        );
    }
}

#[test]
fn theorem_3_3_chain_lengths_within_bounds() {
    let seed = 3;
    for n in [10_000u64, 100_000, 1_000_000] {
        let dep = chains::summarize(&chains::dependency_lengths(seed, 0.5, n));
        let ln_n = (n as f64).ln();
        assert!(dep.mean <= ln_n, "n={n}: mean {} > ln n {ln_n}", dep.mean);
        assert!(
            (dep.max as f64) <= 5.0 * ln_n,
            "n={n}: max {} > 5 ln n {}",
            dep.max,
            5.0 * ln_n
        );
        // Mean is also bounded by 1/p = 2 for p = 1/2.
        assert!(dep.mean <= 2.1, "n={n}: mean {} > 1/p", dep.mean);
    }
}

#[test]
fn engine_queue_waits_match_chain_theory() {
    // Short dependency chains mean queues never blow up: the peak number
    // of parked waiters on any rank stays a small fraction of its nodes.
    let cfg = PaConfig::new(50_000, 1).with_seed(41);
    let opts = GenOptions::default().with_engine(Engine::X1);
    let out = par::generate(&cfg, Scheme::Rrp, 8, &opts);
    for r in &out.ranks {
        assert!(
            r.counters.max_queued_waiters < r.counters.nodes / 2,
            "rank {}: peak waiters {} vs {} nodes",
            r.rank,
            r.counters.max_queued_waiters,
            r.counters.nodes
        );
    }
}

#[test]
fn engine_incoming_requests_track_lemma_3_4_per_rank() {
    let (n, ranks) = (100_000u64, 8usize);
    let cfg = PaConfig::new(n, 1).with_seed(13);
    let opts = GenOptions::default().with_engine(Engine::X1);
    let out = par::generate(&cfg, Scheme::Ucp, ranks, &opts);
    let part = Ucp::new(n, ranks);
    let predicted = messages::expected_requests_per_rank(cfg.p, &part);
    for (r, pred) in out.ranks.iter().zip(&predicted) {
        let measured = (r.counters.requests_served + r.counters.requests_queued) as f64;
        // The lemma counts logical lookups; only lookups from *other*
        // ranks become messages, so measured <= predicted, and for the
        // heavily requested low ranks the remote share dominates.
        assert!(
            measured <= pred * 1.05 + 50.0,
            "rank {}: measured {measured} above bound {pred}",
            r.rank
        );
    }
    let m0 = (out.ranks[0].counters.requests_served + out.ranks[0].counters.requests_queued) as f64;
    assert!(
        m0 > 0.5 * predicted[0],
        "rank 0 should see most of its predicted requests: {m0} vs {}",
        predicted[0]
    );
}
