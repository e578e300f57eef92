//! Chaos over real sockets: the PR-3 fault matrix replayed with
//! `FaultTransport<TcpTransport>` — every rank an OS-level socket
//! endpoint, every engine message crossing the wire as bytes *and* then
//! being delayed, reordered, duplicated, or dropped-and-recovered by the
//! seeded fault layer. The invariant is the same as the in-process chaos
//! suite: the merged edge set must reproduce the fault-free FNV-1a
//! oracles bit-for-bit.

use std::time::Duration;

use pa_core::par::{generate_rank_streaming, Msg};
use pa_core::partition::{self, Scheme};
use pa_core::{GenOptions, PaConfig};
use pa_graph::{io::Fnv1a, EdgeList};
use pa_mpsim::{FaultPlan, FaultTransport, Transport};
use pa_net::{TcpConfig, TcpTransport};

/// The PR-1 fingerprints of `PaConfig::new(3000, x).with_seed(41)`.
const ORACLE_X1: u64 = 0xdefa6458a590e3ba;
const ORACLE_X4: u64 = 0x66b9ce422f65dc31;

/// Small buffers for plentiful packets (more fault opportunities) and a
/// watchdog generous enough that recovering plans never trip it.
fn chaos_opts() -> GenOptions {
    GenOptions {
        buffer_capacity: 32,
        service_interval: 16,
        ..GenOptions::default()
    }
    .with_stall_timeout(Duration::from_secs(120))
}

/// Even seeds run the light profile, odd the aggressive one.
fn plan_for(fault_seed: u64) -> FaultPlan {
    if fault_seed.is_multiple_of(2) {
        FaultPlan::light(fault_seed)
    } else {
        FaultPlan::aggressive(fault_seed)
    }
}

/// One thread per rank over a loopback TCP world, each wrapping its
/// wired transport in the fault layer before handing it to the engine.
fn run_faulty_world(
    world: usize,
    plan: FaultPlan,
    rank_fn: impl Fn(usize, &mut FaultTransport<Msg, TcpTransport<Msg>>) -> EdgeList + Send + Sync,
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
                    let inner: TcpTransport<Msg> =
                        TcpTransport::connect_with_listener(cfg, listener).unwrap();
                    let mut t = FaultTransport::new(inner, plan);
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

fn chaos_over_tcp(world: usize) {
    let cfg1 = PaConfig::new(3_000, 1).with_seed(41);
    let cfg4 = PaConfig::new(3_000, 4).with_seed(41);
    for fault_seed in 0..2u64 {
        let plan = plan_for(fault_seed);

        // The general engine at x = 4 and x = 1.
        for (cfg, scheme, oracle) in [
            (&cfg4, Scheme::Rrp, ORACLE_X4),
            (&cfg1, Scheme::Lcp, ORACLE_X1),
        ] {
            let shards = run_faulty_world(world, plan, |_, t| {
                let part = partition::build(scheme, cfg.n, world);
                generate_rank_streaming(cfg, &part, &chaos_opts(), t, EdgeList::new()).0
            });
            assert_eq!(
                Fnv1a::hash_edges(&EdgeList::concat(shards).canonicalized()),
                oracle,
                "x={} diverged under faults over TCP: P={world} fault_seed={fault_seed}",
                cfg.x
            );
        }
    }
}

#[test]
fn chaos_over_tcp_p2() {
    chaos_over_tcp(2);
}

#[test]
fn chaos_over_tcp_p4() {
    chaos_over_tcp(4);
}
