//! The termination ledger's publish cadence, pinned.
//!
//! The engines count committed slots in a rank-private counter
//! (`driver::Net::complete`); the driver hands the sum to the world-wide
//! [`TerminationHandle`] once per service call, at the end of each
//! epoch's sweep, and before every `is_done` of the completion loop. A
//! [`Transport`] decorator counts what actually reaches the handle: a
//! handful of `complete` calls per service interval, never one per edge,
//! and in total exactly the work that was registered.

use pa_core::par::{self, CountSink, Msg};
use pa_core::partition::{self, Partition, Scheme};
use pa_core::{Engine, GenOptions, PaConfig};
use pa_mpsim::{Comm, CommStats, Packet, TerminationBackend, TerminationHandle, Transport, World};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What one rank did to the termination handle.
#[derive(Default)]
struct Ledger {
    add_sum: AtomicU64,
    complete_calls: AtomicU64,
    complete_sum: AtomicU64,
}

/// Counts this rank's `add`/`complete` traffic on its way to the world's
/// real detector.
struct CountingBackend {
    inner: TerminationHandle,
    ledger: Arc<Ledger>,
}

impl TerminationBackend for CountingBackend {
    fn add(&self, n: u64) {
        self.ledger.add_sum.fetch_add(n, Ordering::Relaxed);
        self.inner.add(n);
    }
    fn complete(&self, n: u64) {
        self.ledger.complete_calls.fetch_add(1, Ordering::Relaxed);
        self.ledger.complete_sum.fetch_add(n, Ordering::Relaxed);
        self.inner.complete(n);
    }
    fn is_done(&self) -> bool {
        self.inner.is_done()
    }
    fn outstanding(&self) -> i64 {
        self.inner.outstanding()
    }
}

/// A [`Comm`] whose `termination()` is wrapped in a [`CountingBackend`];
/// everything else passes through. Also counts received packets: in the
/// completion loop only an iteration that handled a packet can commit.
struct Counted {
    inner: Comm<Msg>,
    ledger: Arc<Ledger>,
    packets: u64,
}

impl Transport<Msg> for Counted {
    fn rank(&self) -> usize {
        self.inner.rank()
    }
    fn nranks(&self) -> usize {
        self.inner.nranks()
    }
    fn send(&mut self, dest: usize, msg: Msg) {
        self.inner.send(dest, msg);
    }
    fn send_batch(&mut self, dest: usize, msgs: Vec<Msg>) {
        self.inner.send_batch(dest, msgs);
    }
    fn acquire_buffer(&mut self, dest: usize) -> Vec<Msg> {
        self.inner.acquire_buffer(dest)
    }
    fn recycle(&mut self, src: usize, buf: Vec<Msg>) {
        self.inner.recycle(src, buf);
    }
    fn try_recv(&mut self) -> Option<Packet<Msg>> {
        let pkt = self.inner.try_recv();
        self.packets += u64::from(pkt.is_some());
        pkt
    }
    fn drain_recv(&mut self, out: &mut Vec<Packet<Msg>>) -> usize {
        let got = self.inner.drain_recv(out);
        self.packets += got as u64;
        got
    }
    fn recv_timeout(&mut self, timeout: Duration) -> Option<Packet<Msg>> {
        let pkt = self.inner.recv_timeout(timeout);
        self.packets += u64::from(pkt.is_some());
        pkt
    }
    fn barrier(&self) {
        self.inner.barrier();
    }
    fn allreduce_sum(&self, val: u64) -> u64 {
        self.inner.allreduce_sum(val)
    }
    fn allreduce_max(&self, val: u64) -> u64 {
        self.inner.allreduce_max(val)
    }
    fn allreduce_min(&self, val: u64) -> u64 {
        self.inner.allreduce_min(val)
    }
    fn allgather_u64(&self, val: u64) -> Vec<u64> {
        self.inner.allgather_u64(val)
    }
    fn broadcast_u64(&self, root: usize, val: u64) -> u64 {
        self.inner.broadcast_u64(root, val)
    }
    fn exclusive_prefix_sum(&self, val: u64) -> u64 {
        self.inner.exclusive_prefix_sum(val)
    }
    fn termination(&self) -> TerminationHandle {
        TerminationHandle::from_backend(Arc::new(CountingBackend {
            inner: self.inner.termination(),
            ledger: Arc::clone(&self.ledger),
        }))
    }
    fn stats(&self) -> &CommStats {
        self.inner.stats()
    }
    fn stats_mut(&mut self) -> &mut CommStats {
        self.inner.stats_mut()
    }
    fn into_stats(self) -> CommStats {
        self.inner.into_stats()
    }
}

#[test]
fn completions_reach_the_ledger_once_per_service_interval_not_per_edge() {
    const N: u64 = 60_000;
    const X: u64 = 4;
    const NRANKS: usize = 2;
    const SERVICE_INTERVAL: usize = 250;
    let cfg = PaConfig::new(N, X).with_seed(7);
    let part = partition::build(Scheme::Rrp, N, NRANKS);

    for engine in [Engine::General, Engine::Chain] {
        for checkpoint_interval in [None, Some(N / 4)] {
            let opts = GenOptions {
                service_interval: SERVICE_INTERVAL,
                checkpoint_interval,
                ..GenOptions::default().with_engine(engine)
            };
            let epochs = checkpoint_interval.map_or(1, |i| N.div_ceil(i));
            let per_rank = World::new(NRANKS).run(|comm: Comm<Msg>| {
                let ledger = Arc::new(Ledger::default());
                let mut counted = Counted {
                    inner: comm,
                    ledger: Arc::clone(&ledger),
                    packets: 0,
                };
                let (sink, _) = par::generate_rank_streaming(
                    &cfg,
                    &part,
                    &opts,
                    &mut counted,
                    CountSink::default(),
                );
                let outstanding = counted.inner.termination().outstanding();
                (ledger, counted.packets, sink.edges, outstanding)
            });

            let what = format!("engine {} checkpoint {checkpoint_interval:?}", engine.id());
            let mut edges = 0;
            for (rank, (ledger, packets, sink_edges, outstanding)) in per_rank.iter().enumerate() {
                let calls = ledger.complete_calls.load(Ordering::Relaxed);
                let added = ledger.add_sum.load(Ordering::Relaxed);
                let published = ledger.complete_sum.load(Ordering::Relaxed);
                edges += sink_edges;
                // Every registered slot was published, by the rank that
                // registered it, and nothing is left over.
                assert_eq!(
                    published, added,
                    "{what} rank {rank}: published != registered"
                );
                assert_eq!(*outstanding, 0, "{what} rank {rank}: work left outstanding");
                assert!(
                    added >= (part.size_of(rank) - X) * X,
                    "{what} rank {rank}: {added}"
                );
                // One publish per service call of the sweep plus one at
                // each sweep's end. Engine 3 commits nowhere else. Engine
                // 2's completion loop adds at most one per iteration that
                // handled traffic, which the world-wide `N / interval`
                // (twice this rank's sweep) covers with room to spare on
                // every run seen; the received-packet count makes the
                // bound hold by construction. Per-edge publishing would
                // make `added` calls.
                let bound = match engine {
                    Engine::Chain => part.size_of(rank) / SERVICE_INTERVAL as u64 + epochs + 4,
                    _ => N / SERVICE_INTERVAL as u64 + epochs + 4 + packets,
                };
                assert!(
                    calls <= bound,
                    "{what} rank {rank}: {calls} complete() calls for {added} slots \
                     (bound {bound}, {packets} packets received)"
                );
                assert!(
                    bound * 20 < added,
                    "{what}: the bound must exclude per-edge publishing"
                );
            }
            assert_eq!(edges, cfg.expected_edges(), "{what}");
        }
    }
}
