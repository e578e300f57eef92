//! Model-conformance suite: nonlinear PA (nlpa) across the whole stack,
//! plus the strategy/hub-cache conformance contract.
//!
//! The nlpa fingerprints below were captured from the sequential oracle
//! (`seq::nlpa`) the day the model landed; every parallel path — both
//! engines, every scheme, every rank count, chaos transports, and
//! checkpoint/restart — must keep reproducing them bit-for-bit. At
//! `α = 1.0` the model is defined to be *exactly* the classical copy
//! model, so those rows re-use the PR-1 PA oracles from
//! `tests/determinism.rs` verbatim.

use std::time::Duration;

use pa_core::{par, partition, partition::Scheme, seq, Engine, FaultPlan, GenOptions, PaConfig};
use pa_graph::io::{EdgeFormat, Fnv1a};
use pa_graph::EdgeList;
use pa_mpsim::{Transport, World};

/// The PR-1 PA fingerprints (see `tests/determinism.rs`): nlpa at
/// `α = 1.0` must land on these, not merely on a self-consistent hash.
const ORACLE_X1: u64 = 0xdefa6458a590e3ba;
const ORACLE_X4: u64 = 0x66b9ce422f65dc31;

/// `(alpha, x = 1 fingerprint, x = 4 fingerprint)` over
/// `PaConfig::new(3000, x).with_seed(41)` — the same workload the PA
/// oracles pin.
const NLPA_PINS: [(f64, u64, u64); 3] = [
    (0.5, 0x108c9312fdc74d0a, 0xbc1069902cb6321d),
    (1.0, ORACLE_X1, ORACLE_X4),
    (1.5, 0xc7356a0448f3cb61, 0x5fd6a4040af24989),
];

fn cfg_x1() -> PaConfig {
    PaConfig::new(3_000, 1).with_seed(41)
}

fn cfg_x4() -> PaConfig {
    PaConfig::new(3_000, 4).with_seed(41)
}

/// FNV-1a over the canonicalized edge list (same as `determinism.rs`).
fn fnv1a(edges: &EdgeList) -> u64 {
    Fnv1a::hash_edges(&edges.canonicalized())
}

#[test]
fn nlpa_sequential_oracle_fingerprints_are_pinned() {
    for (alpha, pin1, pin4) in NLPA_PINS {
        assert_eq!(
            fnv1a(&seq::nlpa(&cfg_x1(), alpha)),
            pin1,
            "sequential nlpa x=1 drifted: alpha={alpha}"
        );
        assert_eq!(
            fnv1a(&seq::nlpa(&cfg_x4(), alpha)),
            pin4,
            "sequential nlpa x=4 drifted: alpha={alpha}"
        );
    }
}

/// Assert every `(engine, x)` run lands on its nlpa pin at every
/// exponent, for P ∈ {1, 2, 4} and every listed scheme.
fn assert_nlpa_pins(runs: &[(Engine, u64)], schemes: &[Scheme]) {
    for (alpha, pin1, pin4) in NLPA_PINS {
        for &(engine, x) in runs {
            let (cfg, pin) = match x {
                1 => (cfg_x1(), pin1),
                _ => (cfg_x4(), pin4),
            };
            // A hub replica below n, so engine 2 sends requests too.
            let opts = GenOptions::default()
                .with_engine(engine)
                .with_alpha(alpha)
                .with_hub_cache(256);
            for nranks in [1usize, 2, 4] {
                for &scheme in schemes {
                    let out = par::generate(&cfg, scheme, nranks, &opts);
                    assert_eq!(
                        fnv1a(&out.edge_list()),
                        pin,
                        "{engine} nlpa (x={x}) drifted: alpha={alpha} P={nranks} {scheme}"
                    );
                }
            }
        }
    }
}

#[test]
fn nlpa_message_passing_engines_match_the_oracle_for_every_world() {
    assert_nlpa_pins(&[(Engine::X1, 1), (Engine::General, 4)], &Scheme::ALL);
}

#[test]
fn nlpa_communication_free_engine_matches_the_oracle_for_every_world() {
    assert_nlpa_pins(&[(Engine::Chain, 1), (Engine::Chain, 4)], &Scheme::EXTENDED);
}

#[test]
fn only_engine2_touches_the_hub_cache_path() {
    // The hub cache is engine 2's private optimization, owned by its
    // strategy. Every other strategy must report an untouched hub path
    // no matter how much other work the run does.
    let cfg = cfg_x4();

    // Engine 3 exchanges no algorithm messages at all; engine 1 predates
    // the hub cache and never consults it.
    for (engine, cfg) in [(Engine::Chain, cfg), (Engine::X1, cfg_x1())] {
        let opts = GenOptions::default().with_engine(engine);
        let out = par::generate(&cfg, Scheme::Rrp, 4, &opts);
        for r in &out.ranks {
            assert_eq!(r.counters.hub_hits, 0, "{engine} rank {} hub hit", r.rank);
        }
    }

    // Engine 2 with the cache disabled must fall back to pure
    // request/resolved traffic: real remote requests, zero hub hits.
    let out = par::generate(
        &cfg,
        Scheme::Rrp,
        4,
        &GenOptions::default().without_hub_cache(),
    );
    let totals = out.total_counters();
    assert!(
        totals.requests_sent > 0,
        "hub-off multi-rank run sent no requests — the conformance check is vacuous"
    );
    assert_eq!(totals.hub_hits, 0);

    // And with the cache on, the same workload must actually use it —
    // guarding against the counter being dead weight.
    let out = par::generate(&cfg, Scheme::Rrp, 4, &GenOptions::default());
    assert!(out.total_counters().hub_hits > 0, "hub cache never hit");
}

/// Chaos runs use small buffers and a short service interval so packets
/// are plentiful, plus a generous watchdog and a hub replica below `n`,
/// so engine 2 still sends requests to fault (same as `tests/chaos.rs`).
fn chaos_opts(plan: FaultPlan) -> GenOptions {
    GenOptions {
        buffer_capacity: 32,
        service_interval: 16,
        ..GenOptions::default()
    }
    .with_hub_cache(256)
    .with_fault_plan(plan)
    .with_stall_timeout(Duration::from_secs(120))
}

#[test]
fn nlpa_chaos_matrix() {
    // Delayed, reordered, duplicated, and dropped-with-recovery packets
    // must not move a single nlpa edge: every fault schedule reproduces
    // the fault-free fingerprint, at both a flattening and a sharpening
    // exponent, through both engines.
    for (alpha, _, pin4) in [NLPA_PINS[0], NLPA_PINS[2]] {
        for scheme in Scheme::ALL {
            for fault_seed in 0..4 {
                let plan = if fault_seed % 2 == 0 {
                    FaultPlan::light(fault_seed)
                } else {
                    FaultPlan::aggressive(fault_seed)
                };
                for engine in [Engine::General, Engine::Chain] {
                    let opts = chaos_opts(plan).with_engine(engine).with_alpha(alpha);
                    let out = par::generate(&cfg_x4(), scheme, 4, &opts);
                    assert_eq!(
                        fnv1a(&out.edge_list()),
                        pin4,
                        "{engine} nlpa diverged under faults: alpha={alpha} {scheme} \
                         seed={fault_seed}"
                    );
                }
            }
        }
    }
}

#[test]
fn nlpa_checkpoint_resume_reproduces_the_oracle() {
    // Kill-and-resume an nlpa run mid-generation: the stitched output
    // must land on the same pinned fingerprint as the uninterrupted run,
    // and the checkpoint must carry the model identity (a PA checkpoint
    // must not resume an nlpa run — `checkpoint.rs` owns that test).
    let alpha = 1.5f64;
    let (_, _, pin4) = NLPA_PINS[2];
    let cfg = cfg_x4();
    let opts = GenOptions::default()
        .with_engine(Engine::Chain)
        .with_alpha(alpha)
        .with_checkpoint_interval(500);
    let part = partition::build(Scheme::Rrp, cfg.n, 3);
    let dir = std::env::temp_dir().join(format!("pa_models_resume_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let meta = par::CheckpointMeta::for_run(&cfg, Scheme::Rrp, 3, &opts, EdgeFormat::Binary);
    assert_eq!(meta.job.model_id, 1, "nlpa must not masquerade as pa");
    assert_eq!(meta.job.alpha_bits, alpha.to_bits());

    let ckpt_dir = dir.clone();
    let full: Vec<EdgeList> = World::new(3).run(|mut comm| {
        let store = par::CheckpointStore::new(&ckpt_dir, comm.rank() as u32, meta).unwrap();
        par::generate_rank_streaming_recoverable(
            &cfg,
            &part,
            &opts,
            &mut comm,
            EdgeList::new(),
            Some(&store),
            None,
        )
        .0
    });
    assert_eq!(
        fnv1a(&EdgeList::concat(full.clone())),
        pin4,
        "checkpointed nlpa run drifted from the pinned oracle"
    );

    let ckpt_dir = dir.clone();
    let resumed: Vec<EdgeList> = World::new(3).run(|mut comm| {
        let rank = comm.rank();
        let store = par::CheckpointStore::new(&ckpt_dir, rank as u32, meta).unwrap();
        let saved = store.load(store.latest().unwrap() - 1).unwrap();
        let mut sink = EdgeList::new();
        for &(u, v) in &full[rank].as_slice()[..saved.edges as usize] {
            sink.push(u, v);
        }
        par::generate_rank_streaming_recoverable(
            &cfg,
            &part,
            &opts,
            &mut comm,
            sink,
            None,
            Some(&saved),
        )
        .0
    });
    assert_eq!(
        EdgeList::concat(resumed).canonicalized(),
        EdgeList::concat(full).canonicalized(),
        "resumed nlpa run diverged from the uninterrupted one"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
