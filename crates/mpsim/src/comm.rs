//! The world (rank spawner) and per-rank communicator.

use std::time::Duration;

use crate::channel::{channel, Receiver, Sender};
use crate::control::ControlPlane;
use crate::stats::CommStats;
use crate::{TerminationHandle, Transport};

/// One physical transfer: a batch of logical messages from a single source.
#[derive(Debug, Clone)]
pub struct Packet<M> {
    /// Rank that sent the packet.
    pub src: usize,
    /// The logical messages aggregated into this packet (≥ 1).
    pub msgs: Vec<M>,
}

/// A world of `P` ranks.
///
/// `World` is the launcher: [`World::run`] spawns one thread per rank and
/// hands each a [`Comm`] wired to every other rank.
#[derive(Debug, Clone, Copy)]
pub struct World {
    nranks: usize,
}

impl World {
    /// Create a world with `nranks` ranks.
    ///
    /// # Panics
    ///
    /// Panics if `nranks == 0`.
    pub fn new(nranks: usize) -> Self {
        assert!(nranks > 0, "world must have at least one rank");
        Self { nranks }
    }

    /// Number of ranks in the world.
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// Run `f` on every rank concurrently and collect the per-rank results
    /// in rank order.
    ///
    /// `M` is the message type exchanged over the data plane. Each rank's
    /// closure owns its [`Comm`]; no other state is shared, so the body is
    /// forced by the type system to keep rank memory private — the same
    /// discipline MPI imposes physically.
    pub fn run<M, T, F>(&self, f: F) -> Vec<T>
    where
        M: Send + 'static,
        T: Send,
        F: Fn(Comm<M>) -> T + Send + Sync,
    {
        type Channels<M> = (Vec<Sender<Packet<M>>>, Vec<Receiver<Packet<M>>>);
        let (senders, receivers): Channels<M> = (0..self.nranks).map(|_| channel()).unzip();
        let plane = ControlPlane::new(self.nranks, senders.iter().map(Sender::waker).collect());

        // Packet-pool freelists, one channel per ordered (src, dest) pair:
        // rank `src` *acquires* buffers destined for `dest` from its end,
        // and rank `dest` *returns* drained buffers to the same queue. Rank
        // `src` thus keeps the receiver for every pair it originates.
        let mut pool_rx_rows: Vec<Vec<Receiver<Vec<M>>>> = Vec::with_capacity(self.nranks);
        let mut pool_tx_cols: Vec<Vec<Sender<Vec<M>>>> =
            (0..self.nranks).map(|_| Vec::new()).collect();
        for _src in 0..self.nranks {
            let mut row = Vec::with_capacity(self.nranks);
            for col in pool_tx_cols.iter_mut() {
                let (tx, rx) = channel();
                row.push(rx);
                col.push(tx);
            }
            pool_rx_rows.push(row);
        }

        let mut results: Vec<Option<T>> = (0..self.nranks).map(|_| None).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = receivers
                .into_iter()
                .zip(pool_rx_rows)
                .zip(pool_tx_cols)
                .enumerate()
                .map(|(rank, ((rx, pool_rx), pool_tx))| {
                    let comm = Comm {
                        rank,
                        senders: senders.clone(),
                        rx,
                        pool_rx,
                        pool_tx,
                        plane: plane.clone(),
                        stats: CommStats::new(self.nranks),
                    };
                    let f = &f;
                    scope.spawn(move || f(comm))
                })
                .collect();
            for (slot, h) in results.iter_mut().zip(handles) {
                // Propagate the original payload (not a generic join
                // error) so callers — notably stall-watchdog tests — can
                // `catch_unwind` and inspect the rank's panic message.
                match h.join() {
                    Ok(v) => *slot = Some(v),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });
        results.into_iter().map(|r| r.unwrap()).collect()
    }
}

/// Per-rank communicator: the only channel between rank memories.
///
/// Point-to-point operations are asynchronous and FIFO per (source,
/// destination) pair, matching MPI's non-overtaking guarantee. Collectives
/// must be called by *all* ranks (same rule as MPI); calling them from a
/// subset deadlocks, exactly as `MPI_Barrier` would.
pub struct Comm<M> {
    rank: usize,
    senders: Vec<Sender<Packet<M>>>,
    rx: Receiver<Packet<M>>,
    /// Freelist ends this rank draws send buffers from, indexed by dest.
    pool_rx: Vec<Receiver<Vec<M>>>,
    /// Freelist ends this rank returns received buffers to, indexed by src.
    pool_tx: Vec<Sender<Vec<M>>>,
    plane: std::sync::Arc<ControlPlane>,
    stats: CommStats,
}

/// `Comm` is the threaded-channel implementation of the engine-facing
/// transport abstraction; the reductions, broadcast, prefix sum and
/// single-message `send` are the trait's provided methods.
impl<M: Send> Transport<M> for Comm<M> {
    #[inline]
    fn rank(&self) -> usize {
        self.rank
    }

    #[inline]
    fn nranks(&self) -> usize {
        self.senders.len()
    }

    /// Sends to a rank that already returned are parked, not errors —
    /// mirroring MPI, where the library buffers such traffic rather than
    /// failing the sender.
    fn send_batch(&mut self, dest: usize, msgs: Vec<M>) {
        if msgs.is_empty() {
            return;
        }
        self.stats.on_send(dest, msgs.len() as u64);
        self.senders[dest].send(Packet {
            src: self.rank,
            msgs,
        });
    }

    fn acquire_buffer(&mut self, dest: usize) -> Vec<M> {
        match self.pool_rx[dest].try_recv() {
            Some(buf) => {
                debug_assert!(buf.is_empty());
                self.stats.pool_hits += 1;
                buf
            }
            None => {
                self.stats.pool_misses += 1;
                Vec::new()
            }
        }
    }

    /// Hands the allocation back to `src` for its next send to this
    /// rank. Zero-capacity buffers are dropped uncounted.
    fn recycle(&mut self, src: usize, mut buf: Vec<M>) {
        buf.clear();
        if buf.capacity() == 0 {
            return;
        }
        self.stats.bufs_recycled += 1;
        self.pool_tx[src].send(buf);
    }

    fn try_recv(&mut self) -> Option<Packet<M>> {
        let pkt = self.rx.try_recv()?;
        self.stats.on_recv(pkt.src, pkt.msgs.len() as u64);
        Some(pkt)
    }

    /// One lock acquisition per poll instead of one per packet.
    fn drain_recv(&mut self, out: &mut Vec<Packet<M>>) -> usize {
        let start = out.len();
        self.rx.drain_into(out);
        for pkt in &out[start..] {
            self.stats.on_recv(pkt.src, pkt.msgs.len() as u64);
        }
        out.len() - start
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Option<Packet<M>> {
        let pkt = self.rx.recv_timeout(timeout)?;
        self.stats.on_recv(pkt.src, pkt.msgs.len() as u64);
        Some(pkt)
    }

    fn barrier(&self) {
        self.plane.collective(self.rank, 0);
    }

    fn allgather_u64(&self, val: u64) -> Vec<u64> {
        self.plane.collective(self.rank, val)
    }

    /// See [`TerminationHandle`] for the substitution rationale.
    fn termination(&self) -> TerminationHandle {
        self.plane.termination()
    }

    fn stats(&self) -> &CommStats {
        &self.stats
    }

    fn stats_mut(&mut self) -> &mut CommStats {
        &mut self.stats
    }

    fn into_stats(self) -> CommStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_world_runs() {
        let world = World::new(1);
        let out: Vec<usize> = world.run(|comm: Comm<u64>| comm.rank() + comm.nranks());
        assert_eq!(out, vec![1]);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_rank_world_panics() {
        let _ = World::new(0);
    }

    #[test]
    fn results_are_in_rank_order() {
        let world = World::new(6);
        let out: Vec<usize> = world.run(|comm: Comm<()>| comm.rank() * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50]);
    }

    #[test]
    fn ring_pass_delivers_in_order() {
        // Each rank sends 100 sequenced values to its right neighbour and
        // checks the sequence it receives from its left neighbour.
        let world = World::new(4);
        let ok = world.run(|mut comm: Comm<u64>| {
            let right = (comm.rank() + 1) % comm.nranks();
            for i in 0..100u64 {
                comm.send(right, i);
            }
            let mut expect = 0u64;
            while expect < 100 {
                if let Some(pkt) = comm.recv_timeout(Duration::from_secs(5)) {
                    for m in pkt.msgs {
                        assert_eq!(m, expect, "FIFO violated");
                        expect += 1;
                    }
                } else {
                    panic!("timed out waiting for ring traffic");
                }
            }
            comm.barrier();
            true
        });
        assert!(ok.iter().all(|&b| b));
    }

    #[test]
    fn batch_send_counts_one_packet() {
        let world = World::new(2);
        let stats = world.run(|mut comm: Comm<u8>| {
            if comm.rank() == 0 {
                comm.send_batch(1, vec![1, 2, 3]);
                comm.send_batch(1, vec![]); // dropped
            } else {
                let pkt = comm.recv_timeout(Duration::from_secs(5)).unwrap();
                assert_eq!(pkt.src, 0);
                assert_eq!(pkt.msgs, vec![1, 2, 3]);
            }
            comm.barrier();
            comm.into_stats()
        });
        assert_eq!(stats[0].msgs_sent, 3);
        assert_eq!(stats[0].packets_sent, 1);
        assert_eq!(stats[1].msgs_recv, 3);
        assert_eq!(stats[1].packets_recv, 1);
        assert_eq!(stats[1].recv_from[0], 3);
    }

    #[test]
    fn allreduce_and_allgather() {
        let world = World::new(5);
        let out = world.run(|comm: Comm<()>| {
            let r = comm.rank() as u64;
            let sum = comm.allreduce_sum(r + 1);
            let max = comm.allreduce_max(r);
            let min = comm.allreduce_min(r + 10);
            let gathered = comm.allgather_u64(r * r);
            (sum, max, min, gathered)
        });
        for (sum, max, min, gathered) in out {
            assert_eq!(sum, 15);
            assert_eq!(max, 4);
            assert_eq!(min, 10);
            assert_eq!(gathered, vec![0, 1, 4, 9, 16]);
        }
    }

    #[test]
    fn broadcast_delivers_roots_value() {
        let world = World::new(4);
        let out = world.run(|comm: Comm<()>| comm.broadcast_u64(2, (comm.rank() as u64 + 1) * 100));
        assert_eq!(out, vec![300, 300, 300, 300]);
    }

    #[test]
    fn exclusive_prefix_sum_assigns_ranges() {
        let world = World::new(4);
        let out = world.run(|comm: Comm<()>| {
            // Rank r contributes r+1 items; offsets are 0, 1, 3, 6.
            comm.exclusive_prefix_sum(comm.rank() as u64 + 1)
        });
        assert_eq!(out, vec![0, 1, 3, 6]);
    }

    #[test]
    fn try_recv_returns_none_when_empty() {
        let world = World::new(1);
        let got = world.run(|mut comm: Comm<u32>| comm.try_recv().is_none());
        assert!(got[0]);
    }

    #[test]
    fn termination_counter_coordinates_shutdown() {
        // Rank 0 seeds work; workers complete it; all ranks spin on the
        // detector and exit together without any explicit "stop" message.
        let world = World::new(3);
        let out = world.run(|mut comm: Comm<u64>| {
            let term = comm.termination();
            if comm.rank() == 0 {
                term.add(20);
                for i in 0..20u64 {
                    comm.send(1 + (i as usize % 2), i);
                }
            }
            comm.barrier(); // ensure work registered before anyone checks
            let mut handled = 0u64;
            while !term.is_done() {
                if let Some(pkt) = comm.recv_timeout(Duration::from_millis(1)) {
                    let n = pkt.msgs.len() as u64;
                    handled += n;
                    term.complete(n);
                }
            }
            handled
        });
        assert_eq!(out[0], 0);
        assert_eq!(out[1] + out[2], 20);
    }

    #[test]
    fn pool_recycles_buffers_back_to_sender() {
        // Ping-pong: rank 0 sends, rank 1 drains and recycles, so rank 0's
        // later sends must find pooled buffers (hits) instead of allocating.
        let world = World::new(2);
        let stats = world.run(|mut comm: Comm<u64>| {
            let rounds = 50u64;
            if comm.rank() == 0 {
                for i in 0..rounds {
                    comm.send(1, i);
                    // Wait for the ack so the recycled buffer is back.
                    let pkt = comm.recv_timeout(Duration::from_secs(5)).unwrap();
                    comm.recycle(pkt.src, pkt.msgs);
                }
            } else {
                let mut got = 0u64;
                let mut inbox = Vec::new();
                while got < rounds {
                    if comm.drain_recv(&mut inbox) == 0 {
                        if let Some(pkt) = comm.recv_timeout(Duration::from_secs(5)) {
                            inbox.push(pkt);
                        }
                    }
                    for pkt in inbox.drain(..) {
                        assert_eq!(pkt.msgs, vec![got]);
                        got += 1;
                        comm.send(0, 1); // ack
                        comm.recycle(pkt.src, pkt.msgs);
                    }
                }
            }
            comm.barrier();
            comm.into_stats()
        });
        // Round 1 allocates; nearly every later acquire must hit the pool.
        assert!(
            stats[0].pool_hits >= 40,
            "rank 0 pool hits = {}",
            stats[0].pool_hits
        );
        assert!(stats[1].bufs_recycled >= 40);
        assert_eq!(stats[0].msgs_sent, 50);
    }

    #[test]
    fn drain_recv_takes_all_pending_packets() {
        let world = World::new(2);
        let out = world.run(|mut comm: Comm<u64>| {
            if comm.rank() == 0 {
                for i in 0..10u64 {
                    comm.send(1, i);
                }
                comm.barrier(); // traffic is in flight before rank 1 drains
                0
            } else {
                comm.barrier();
                let mut inbox = Vec::new();
                let mut got = 0usize;
                while got < 10 {
                    let n = comm.drain_recv(&mut inbox);
                    if n == 0 {
                        std::thread::yield_now();
                    }
                    got += n;
                }
                let stats = comm.stats();
                assert_eq!(stats.packets_recv, 10);
                assert_eq!(stats.msgs_recv, 10);
                inbox.iter().map(|p| p.msgs.len()).sum()
            }
        });
        assert_eq!(out[1], 10);
    }

    #[test]
    fn send_to_finished_rank_is_parked_not_fatal() {
        // Rank 1 exits immediately; rank 0's late send must not panic.
        let world = World::new(2);
        let out = world.run(|mut comm: Comm<u8>| {
            if comm.rank() == 0 {
                std::thread::sleep(Duration::from_millis(10));
                comm.send(1, 1);
            }
            comm.rank()
        });
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn many_to_one_stress() {
        let world = World::new(8);
        let n_each = 500u64;
        let sums = world.run(|mut comm: Comm<u64>| {
            if comm.rank() == 0 {
                let expect_msgs = (comm.nranks() as u64 - 1) * n_each;
                let mut got = 0u64;
                let mut sum = 0u64;
                while got < expect_msgs {
                    let pkt = comm
                        .recv_timeout(Duration::from_secs(10))
                        .expect("stress traffic timed out");
                    got += pkt.msgs.len() as u64;
                    sum += pkt.msgs.iter().sum::<u64>();
                }
                sum
            } else {
                for i in 0..n_each {
                    comm.send(0, i);
                }
                0
            }
        });
        let per_rank_sum = n_each * (n_each - 1) / 2;
        assert_eq!(sums[0], per_rank_sum * 7);
    }
}
