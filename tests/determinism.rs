//! Reproducibility guarantees across the whole stack.

use pa_core::{er, par, partition::Scheme, seq, ws, Engine, GenOptions, PaConfig};
use pa_graph::io::Fnv1a;
use pa_rng::Xoshiro256pp;

#[test]
fn repeated_parallel_runs_are_identical_for_x1() {
    let cfg = PaConfig::new(4_000, 1).with_seed(5);
    let opts = GenOptions::default().with_engine(Engine::X1);
    let a = par::generate(&cfg, Scheme::Rrp, 6, &opts);
    let b = par::generate(&cfg, Scheme::Rrp, 6, &opts);
    // Commit *order* within a rank depends on message timing, but the
    // edge *set* is a pure function of the seed.
    assert_eq!(a.edge_list().canonicalized(), b.edge_list().canonicalized());
}

#[test]
fn repeated_single_rank_runs_are_identical_for_any_x() {
    for x in [2u64, 5] {
        let cfg = PaConfig::new(3_000, x).with_seed(5);
        let a = par::generate(&cfg, Scheme::Ucp, 1, &GenOptions::default());
        let b = par::generate(&cfg, Scheme::Ucp, 1, &GenOptions::default());
        assert_eq!(a.edge_list(), b.edge_list());
        assert_eq!(a.edge_list(), seq::copy_model(&cfg));
    }
}

#[test]
fn parallel_x_gt_1_edge_set_is_a_pure_function_of_the_seed() {
    // In-order slot commits give every attempt the sequential generator's
    // exact visibility, so for any x the edge set equals the sequential
    // copy model bit-for-bit — for every rank count, every scheme, and
    // with the hub cache on or off.
    let cfg = PaConfig::new(5_000, 4).with_seed(8);
    let reference = seq::copy_model(&cfg).canonicalized();
    for nranks in [1usize, 2, 4, 8] {
        for scheme in Scheme::ALL {
            for (label, opts) in [
                ("hub on", GenOptions::default()),
                ("hub off", GenOptions::default().without_hub_cache()),
            ] {
                let out = par::generate(&cfg, scheme, nranks, &opts);
                assert_eq!(
                    out.edge_list().canonicalized(),
                    reference,
                    "x=4 must be bit-identical: P={nranks} {scheme} ({label})"
                );
            }
        }
    }
}

#[test]
fn hub_cache_size_never_changes_the_network() {
    // Sweep cache sizes from empty through full replication: the cache
    // only short-circuits request/resolved round trips with already
    // committed values, so the output must be untouched.
    let cfg = PaConfig::new(4_000, 3).with_seed(19);
    let reference = seq::copy_model(&cfg).canonicalized();
    for hub_nodes in [0u64, 1, 64, 1_000, 4_000] {
        let opts = GenOptions::default().with_hub_cache(hub_nodes);
        let out = par::generate(&cfg, Scheme::Ucp, 4, &opts);
        assert_eq!(
            out.edge_list().canonicalized(),
            reference,
            "hub_cache_nodes = {hub_nodes}"
        );
    }
}

/// The PR-1 fingerprints: FNV-1a over the canonicalized edge list of
/// `PaConfig::new(3000, x).with_seed(41)`, captured from the codebase
/// where Algorithms 3.1 and 3.2 each carried their own hand-written
/// service/flush/park loop, before both were folded into the shared
/// driver. Every engine, scheme and rank count agreed on them — so
/// every engine must keep producing exactly these edge sets, not merely
/// internally consistent ones.
const ORACLE_X1: u64 = 0xdefa6458a590e3ba;
const ORACLE_X4: u64 = 0x66b9ce422f65dc31;

/// Assert `engine` lands on the oracle of every `x` it supports (engine
/// 1 only exists for `x = 1`) for every listed world.
fn assert_engine_reproduces_oracles(engine: Engine, ranks: &[usize], schemes: &[Scheme]) {
    let opts = GenOptions::default().with_engine(engine);
    for (x, oracle) in [(1u64, ORACLE_X1), (4, ORACLE_X4)] {
        if engine.check(x).is_err() {
            continue;
        }
        let cfg = PaConfig::new(3_000, x).with_seed(41);
        for &nranks in ranks {
            for &scheme in schemes {
                let out = par::generate(&cfg, scheme, nranks, &opts);
                assert_eq!(
                    Fnv1a::hash_edges(&out.edge_list().canonicalized()),
                    oracle,
                    "{engine} (x={x}) drifted from the PR-1 oracle: P={nranks} {scheme}"
                );
            }
        }
    }
}

#[test]
fn unified_driver_reproduces_pre_unification_oracle_hashes() {
    for (x, oracle) in [(1u64, ORACLE_X1), (4, ORACLE_X4)] {
        let cfg = PaConfig::new(3_000, x).with_seed(41);
        let sequential = seq::copy_model(&cfg).canonicalized();
        assert_eq!(Fnv1a::hash_edges(&sequential), oracle);
    }
    for engine in [Engine::X1, Engine::General] {
        assert_engine_reproduces_oracles(engine, &[1, 2, 8], &Scheme::ALL);
    }
}

#[test]
fn engine3_reproduces_pre_unification_oracle_hashes() {
    // Engine3 never exchanges a single request/resolved message, yet it
    // must land on exactly the PR-1 fingerprints the message-passing
    // engines are pinned to — for every rank count and every scheme the
    // workspace implements (including block-cyclic, which the paper's
    // engines never ran under).
    assert_engine_reproduces_oracles(Engine::Chain, &[1, 2, 4, 8], &Scheme::EXTENDED);
}

#[test]
fn sequential_generators_are_deterministic() {
    let cfg = PaConfig::new(2_000, 3).with_seed(77);
    assert_eq!(seq::copy_model(&cfg), seq::copy_model(&cfg));
    assert_eq!(
        seq::batagelj_brandes(&cfg, &mut Xoshiro256pp::new(1)),
        seq::batagelj_brandes(&cfg, &mut Xoshiro256pp::new(1))
    );
    assert_eq!(
        seq::naive(&cfg, &mut Xoshiro256pp::new(1)),
        seq::naive(&cfg, &mut Xoshiro256pp::new(1))
    );
}

#[test]
fn extension_generators_are_deterministic() {
    let ercfg = er::ErConfig::new(3_000, 0.01).with_seed(4);
    assert_eq!(er::generate_seq(&ercfg), er::generate_seq(&ercfg));
    assert_eq!(
        er::generate_par(&ercfg, 4).canonicalized(),
        er::generate_seq(&ercfg).canonicalized()
    );
    let wscfg = ws::WsConfig::new(1_000, 4, 0.3);
    assert_eq!(
        ws::generate(&wscfg, &mut Xoshiro256pp::new(2)).canonicalized(),
        ws::generate(&wscfg, &mut Xoshiro256pp::new(2)).canonicalized()
    );
}

#[test]
fn draw_streams_are_stable_across_releases() {
    // Pin a few concrete draw values: if the RNG pipeline ever changes,
    // every "bit-identical across P" guarantee silently becomes
    // "identical to a different network", so fail loudly here instead.
    let c = seq::draw_choice(0, 0.5, 1, 2, 0, 0);
    assert_eq!(c.k, 1, "draw pipeline changed");
    let c = seq::draw_choice(42, 0.5, 4, 100, 1, 0);
    assert!(c.k >= 4 && c.k < 100);
    let again = seq::draw_choice(42, 0.5, 4, 100, 1, 0);
    assert_eq!(c, again);
}
