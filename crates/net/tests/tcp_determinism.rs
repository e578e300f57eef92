//! The generators over the TCP backend must produce *exactly* the edge
//! sets every other backend produces: the PR-1 FNV-1a oracles pin the
//! canonicalized output of `PaConfig::new(3000, x).with_seed(41)`, and
//! a world of `TcpTransport` ranks (each engine running against real
//! sockets, messages crossing as bytes) must reproduce them for every
//! partition scheme at 2 and 4 ranks.

use std::sync::atomic::{AtomicU64, Ordering};

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

/// Engine 2's hub replica size for the oracle runs. Every rank computes
/// its replica, so under the default size (4096 nodes, more than `n`)
/// engine 2 would send nothing over the sockets; a replica of the lowest
/// 256 labels keeps request/resolved messages crossing as bytes.
const HUB_NODES: u64 = 256;

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
            // General engine, x = 4, and on the x = 1 config; Algorithm
            // 3.1 on the x = 1 config, its messages crossing as bytes too.
            for (cfg, oracle, engine) in [
                (&cfg4, ORACLE_X4, Engine::General),
                (&cfg1, ORACLE_X1, Engine::General),
                (&cfg1, ORACLE_X1, Engine::X1),
            ] {
                let opts = GenOptions::default()
                    .with_engine(engine)
                    .with_hub_cache(HUB_NODES);
                let requests = AtomicU64::new(0);
                let shards = run_world(world, |rank, t| {
                    let part = partition::build(scheme, cfg.n, world);
                    assert_eq!(rank, t.rank());
                    let (shard, counters) =
                        generate_rank_streaming(cfg, &part, &opts, t, EdgeList::new());
                    requests.fetch_add(counters.requests_sent, Ordering::Relaxed);
                    shard
                });
                assert_eq!(
                    fnv1a(shards),
                    oracle,
                    "{engine}, x={} drifted over TCP: P={world} {scheme}",
                    cfg.x
                );
                assert!(
                    requests.into_inner() > 0,
                    "{engine}, x={} sent no request over TCP: P={world} {scheme}",
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
fn tcp_backend_reproduces_the_off_default_p_oracle() {
    // A p away from 1/2 over real sockets must land on the fingerprint
    // `tests/models.rs` pins for it, through both the message-passing and
    // the communication-free engine.
    let cfg4 = PaConfig::new(3_000, 4)
        .with_seed(41)
        .with_p(0.5f64.powf(1.5));
    const ORACLE_X4_P035: u64 = 0x5fd6a4040af24989;
    for engine in [Engine::General, Engine::Chain] {
        let opts = GenOptions::default()
            .with_engine(engine)
            .with_hub_cache(HUB_NODES);
        for world in [2usize, 4] {
            for scheme in Scheme::ALL {
                let shards = run_world(world, |_, t| {
                    let part = partition::build(scheme, cfg4.n, world);
                    generate_rank_streaming(&cfg4, &part, &opts, t, EdgeList::new()).0
                });
                assert_eq!(
                    fnv1a(shards),
                    ORACLE_X4_P035,
                    "{engine} at p = {} drifted over TCP: P={world} {scheme}",
                    cfg4.p
                );
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
    // wire, nothing double-counted). Every message is a request or a
    // resolved belonging to an uncommitted slot, so the termination
    // detector tracks it: every message sent has been received by the
    // time any rank returns. Under the default options, at an `n` above
    // the default hub size so that messages are actually sent.
    let opts = GenOptions::default();
    let cfg = PaConfig::new(8_000, 4).with_seed(7);
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
                assert!(global_sent > 0, "the world sent no message");
                assert_eq!(
                    global_sent, global_recv,
                    "world-wide sent and received message totals must balance"
                );
                assert_eq!(t.allgather_u64(sent).iter().sum::<u64>(), global_sent);
            });
        }
    });
}
