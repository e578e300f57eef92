//! Model-conformance suite: the copy model away from the default
//! `p = ½` across the whole stack, plus the strategy/hub-cache
//! conformance contract.
//!
//! The fingerprints below pin `p = ½^½` (more direct choices, thinner
//! tail) and `p = ½^{3/2}` (more copying, heavier tail). Every parallel
//! path — all engines, every scheme, every rank count, chaos transports,
//! and checkpoint/restart — must keep reproducing them bit-for-bit.

use std::time::Duration;

use pa_core::{par, partition, partition::Scheme, seq, Engine, FaultPlan, GenOptions, PaConfig};
use pa_graph::io::{EdgeFormat, Fnv1a};
use pa_graph::EdgeList;
use pa_mpsim::{Transport, World};

/// `(exponent a, x = 1 fingerprint, x = 4 fingerprint)` for the copy
/// model at `p = 0.5^a` over `PaConfig::new(3000, x).with_seed(41)` — the
/// workload the default-`p` oracles of `tests/determinism.rs` pin.
const OFF_P_PINS: [(f64, u64, u64); 2] = [
    (0.5, 0x108c9312fdc74d0a, 0xbc1069902cb6321d),
    (1.5, 0xc7356a0448f3cb61, 0x5fd6a4040af24989),
];

/// The pinned `p` for exponent `a`.
fn p_at(a: f64) -> f64 {
    0.5f64.powf(a)
}

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
fn off_default_p_sequential_oracle_fingerprints_are_pinned() {
    for (a, pin1, pin4) in OFF_P_PINS {
        let p = p_at(a);
        assert_eq!(
            fnv1a(&seq::copy_model(&cfg_x1().with_p(p))),
            pin1,
            "sequential x=1 drifted: p={p}"
        );
        assert_eq!(
            fnv1a(&seq::copy_model(&cfg_x4().with_p(p))),
            pin4,
            "sequential x=4 drifted: p={p}"
        );
    }
}

/// Assert every `(engine, x)` run lands on its pin at every pinned `p`,
/// for P ∈ {1, 2, 4} and every listed scheme.
fn assert_off_p_pins(runs: &[(Engine, u64)], schemes: &[Scheme]) {
    for (a, pin1, pin4) in OFF_P_PINS {
        let p = p_at(a);
        for &(engine, x) in runs {
            let (cfg, pin) = match x {
                1 => (cfg_x1().with_p(p), pin1),
                _ => (cfg_x4().with_p(p), pin4),
            };
            // A hub replica below n, so engine 2 sends requests too.
            let opts = GenOptions::default()
                .with_engine(engine)
                .with_hub_cache(256);
            for nranks in [1usize, 2, 4] {
                for &scheme in schemes {
                    let out = par::generate(&cfg, scheme, nranks, &opts);
                    assert_eq!(
                        fnv1a(&out.edge_list()),
                        pin,
                        "{engine} (x={x}) drifted: p={p} P={nranks} {scheme}"
                    );
                }
            }
        }
    }
}

#[test]
fn off_default_p_message_passing_engines_match_the_oracle_for_every_world() {
    assert_off_p_pins(&[(Engine::X1, 1), (Engine::General, 4)], &Scheme::ALL);
}

#[test]
fn off_default_p_communication_free_engine_matches_the_oracle_for_every_world() {
    assert_off_p_pins(&[(Engine::Chain, 1), (Engine::Chain, 4)], &Scheme::EXTENDED);
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
fn off_default_p_chaos_matrix() {
    // Delayed, reordered and duplicated packets must not move a single
    // edge: every fault schedule reproduces the fault-free fingerprint,
    // at a p above and below 1/2, through both engines.
    for (a, _, pin4) in OFF_P_PINS {
        let cfg = cfg_x4().with_p(p_at(a));
        for scheme in Scheme::ALL {
            for fault_seed in 0..4 {
                let plan = if fault_seed % 2 == 0 {
                    FaultPlan::light(fault_seed)
                } else {
                    FaultPlan::aggressive(fault_seed)
                };
                for engine in [Engine::General, Engine::Chain] {
                    let opts = chaos_opts(plan).with_engine(engine);
                    let out = par::generate(&cfg, scheme, 4, &opts);
                    assert_eq!(
                        fnv1a(&out.edge_list()),
                        pin4,
                        "{engine} diverged under faults: p={} {scheme} seed={fault_seed}",
                        cfg.p
                    );
                }
            }
        }
    }
}

#[test]
fn off_default_p_checkpoint_resume_reproduces_the_oracle() {
    // Kill-and-resume a run at p = 0.5^1.5 mid-generation: the stitched
    // output must land on the same pinned fingerprint as the
    // uninterrupted run, and the checkpoint identity names the copy
    // model (id 0, no alpha) with its exact p.
    let (a, _, pin4) = OFF_P_PINS[1];
    let cfg = cfg_x4().with_p(p_at(a));
    let opts = GenOptions::default()
        .with_engine(Engine::Chain)
        .with_checkpoint_interval(500);
    let part = partition::build(Scheme::Rrp, cfg.n, 3);
    let dir = std::env::temp_dir().join(format!("pa_models_resume_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let meta = par::CheckpointMeta::for_run(&cfg, Scheme::Rrp, 3, &opts, EdgeFormat::Binary);
    assert_eq!(meta.job.model_id, 0);
    assert_eq!(meta.job.alpha_bits, 0);
    assert_eq!(meta.job.p_bits, cfg.p.to_bits());

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
        .unwrap()
        .0
    });
    assert_eq!(
        fnv1a(&EdgeList::concat(full.clone())),
        pin4,
        "checkpointed run drifted from the pinned oracle"
    );

    let ckpt_dir = dir.clone();
    let resumed: Vec<EdgeList> = World::new(3).run(|mut comm| {
        let rank = comm.rank();
        let store = par::CheckpointStore::new(&ckpt_dir, rank as u32, meta).unwrap();
        let saved = store.load(store.latest().unwrap() - 1).unwrap();
        let committed = &full[rank].as_slice()[..saved.edges as usize];
        let edges = &mut committed.iter().map(|&e| Ok(e));
        par::generate_rank_streaming_recoverable(
            &cfg,
            &part,
            &opts,
            &mut comm,
            EdgeList::from_vec(committed.to_vec()),
            None,
            Some(par::Resume {
                saved: &saved,
                edges,
            }),
        )
        .unwrap()
        .0
    });
    assert_eq!(
        EdgeList::concat(resumed).canonicalized(),
        EdgeList::concat(full).canonicalized(),
        "resumed run diverged from the uninterrupted one"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
