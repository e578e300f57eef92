//! The generators over the TCP backend must produce *exactly* the edge
//! sets every other backend produces: the PR-1 FNV-1a oracles pin the
//! canonicalized output of `PaConfig::new(3000, x).with_seed(41)`, and
//! a world of `TcpTransport` ranks (each engine running against real
//! sockets, messages crossing as bytes) must reproduce them for every
//! partition scheme at 2 and 4 ranks.

use pa_core::par::{generate_rank_streaming, Msg};
use pa_core::partition::{self, Scheme};
use pa_core::{Engine, GenOptions, PaConfig};
use pa_graph::{io::Fnv1a, EdgeList};
use pa_mpsim::Transport;
use pa_net::{TcpConfig, TcpTransport};

/// The fingerprints captured from the PR-1 codebase (see
/// `tests/determinism.rs` at the repo root).
const ORACLE_X1: u64 = 0xdefa6458a590e3ba;
const ORACLE_X4: u64 = 0x66b9ce422f65dc31;

/// FNV-1a over the canonicalized merge of the per-rank shards.
fn fnv1a(shards: Vec<EdgeList>) -> u64 {
    Fnv1a::hash_edges(&EdgeList::concat(shards).canonicalized())
}

/// Run one rank function per thread over a real-socket TCP world and
/// collect the per-rank edge shards in rank order.
fn run_world(
    world: usize,
    rank_fn: impl Fn(usize, &mut TcpTransport<Msg>) -> EdgeList + Send + Sync,
) -> Vec<EdgeList> {
    let ranks = TcpConfig::local_world(world).expect("loopback world");
    let mut shards: Vec<Option<EdgeList>> = (0..world).map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = ranks
            .into_iter()
            .map(|(cfg, listener)| {
                let rank_fn = &rank_fn;
                let rank = cfg.rank;
                s.spawn(move || {
                    let mut t: TcpTransport<Msg> =
                        TcpTransport::connect_with_listener(cfg, listener).unwrap();
                    let shard = rank_fn(rank, &mut t);
                    t.barrier();
                    (rank, shard)
                })
            })
            .collect();
        for h in handles {
            let (rank, shard) = h.join().expect("rank thread must not panic");
            shards[rank] = Some(shard);
        }
    });
    shards.into_iter().map(Option::unwrap).collect()
}

#[test]
fn tcp_backend_reproduces_the_oracles_for_every_scheme() {
    let cfg1 = PaConfig::new(3_000, 1).with_seed(41);
    let cfg4 = PaConfig::new(3_000, 4).with_seed(41);
    for world in [2usize, 4] {
        for scheme in Scheme::ALL {
            // General engine, x = 4, and on the x = 1 config.
            for (cfg, oracle) in [(&cfg4, ORACLE_X4), (&cfg1, ORACLE_X1)] {
                let shards = run_world(world, |rank, t| {
                    let part = partition::build(scheme, cfg.n, world);
                    assert_eq!(rank, t.rank());
                    generate_rank_streaming(cfg, &part, &GenOptions::default(), t, EdgeList::new())
                        .0
                });
                assert_eq!(
                    fnv1a(shards),
                    oracle,
                    "x={} drifted over TCP: P={world} {scheme}",
                    cfg.x
                );
            }
        }
    }
}

#[test]
fn tcp_engine3_reproduces_the_oracles_with_zero_data_messages() {
    // Engine3 resolves every dependency chain locally, so over real
    // sockets it must (a) still land on the PR-1 fingerprints for every
    // scheme — including block-cyclic — and (b) leave the point-to-point
    // ledger at exactly zero on every rank (collectives are tracked
    // separately and are the driver's, not the engine's).
    let cfg1 = PaConfig::new(3_000, 1).with_seed(41);
    let cfg4 = PaConfig::new(3_000, 4).with_seed(41);
    let opts = GenOptions::default().with_engine(Engine::Chain);
    for world in [2usize, 4] {
        for scheme in Scheme::EXTENDED {
            for (cfg, oracle, label) in [(&cfg4, ORACLE_X4, "x=4"), (&cfg1, ORACLE_X1, "x=1")] {
                let shards = run_world(world, |_, t| {
                    let part = partition::build(scheme, cfg.n, world);
                    let shard = generate_rank_streaming(cfg, &part, &opts, t, EdgeList::new()).0;
                    assert_eq!(
                        t.stats().msgs_sent,
                        0,
                        "engine3 sent data messages over TCP: P={world} {scheme} {label}"
                    );
                    assert_eq!(t.stats().msgs_recv, 0);
                    shard
                });
                assert_eq!(
                    fnv1a(shards),
                    oracle,
                    "engine3 ({label}) drifted over TCP: P={world} {scheme}"
                );
            }
        }
    }
}

#[test]
fn tcp_backend_reproduces_the_nlpa_oracles() {
    // The nlpa model over real sockets: α = 1.0 must land on the PA
    // oracle byte-for-byte (the surrogate is defined to degenerate to
    // the copy model there), and α = 1.5 on the fingerprint pinned by
    // `tests/models.rs` — through both the message-passing and the
    // communication-free engine.
    let cfg4 = PaConfig::new(3_000, 4).with_seed(41);
    const NLPA_X4_A15: u64 = 0x5fd6a4040af24989;
    for (alpha, oracle) in [(1.0f64, ORACLE_X4), (1.5, NLPA_X4_A15)] {
        for engine in [Engine::General, Engine::Chain] {
            let opts = GenOptions::default().with_engine(engine).with_alpha(alpha);
            for world in [2usize, 4] {
                for scheme in Scheme::ALL {
                    let shards = run_world(world, |_, t| {
                        let part = partition::build(scheme, cfg4.n, world);
                        generate_rank_streaming(&cfg4, &part, &opts, t, EdgeList::new()).0
                    });
                    assert_eq!(
                        fnv1a(shards),
                        oracle,
                        "{engine} nlpa drifted over TCP: alpha={alpha} P={world} {scheme}"
                    );
                }
            }
        }
    }
}

#[test]
fn tcp_stats_allreduce_agrees_with_local_totals() {
    // The merged-statistics path the CLI uses: after generation, every
    // rank allreduces its message counters; the global totals must agree
    // on every rank and match the sum of the per-rank ledgers. Sent and
    // received totals must also balance world-wide (nothing lost on the
    // wire, nothing double-counted).
    //
    // The hub cache is off because its broadcasts are *untracked*: a
    // rank's run can finish while a peer's broadcast to it is still in
    // flight, so a ledger read right after generation may see a send
    // without its receive. Request/resolved traffic is tracked by the
    // termination detector — every message sent has been received by
    // the time any rank returns — which is the invariant this test
    // states.
    let opts = GenOptions::default().without_hub_cache();
    let cfg = PaConfig::new(2_000, 4).with_seed(7);
    let world = 4;
    let ranks = TcpConfig::local_world(world).expect("loopback world");
    std::thread::scope(|s| {
        for (tcfg, listener) in ranks {
            let (cfg, opts) = (&cfg, &opts);
            s.spawn(move || {
                let mut t: TcpTransport<Msg> =
                    TcpTransport::connect_with_listener(tcfg, listener).unwrap();
                let part = partition::build(Scheme::Lcp, cfg.n, world);
                generate_rank_streaming(cfg, &part, opts, &mut t, EdgeList::new());
                let sent = t.stats().msgs_sent;
                let recv = t.stats().msgs_recv;
                let global_sent = t.allreduce_sum(sent);
                let global_recv = t.allreduce_sum(recv);
                assert_eq!(
                    global_sent, global_recv,
                    "world-wide sent and received message totals must balance"
                );
                assert_eq!(t.allgather_u64(sent).iter().sum::<u64>(), global_sent);
            });
        }
    });
}
