//! A single-rank, thread-free transport.
//!
//! `P = 1` runs of the parallel engines have no remote traffic at all:
//! every lookup is local, so the transport exists only to satisfy the
//! engine's interface. Spawning a [`crate::World`] of one OS thread for
//! that is pure overhead (thread spawn/join, channel locks, condvars).
//! [`LoopbackTransport`] instead runs the engine *on the calling thread*:
//! sends to rank 0 loop back into a local queue, the packet pool is a
//! plain freelist, the gather is one word (so every collective is an
//! identity), and the termination counter is a private [`ControlPlane`]
//! of one rank.
//!
//! It is also the natural transport for unit tests that want to drive a
//! message-handling path deterministically without any concurrency.

use std::collections::VecDeque;
use std::time::Duration;

use crate::comm::Packet;
use crate::control::ControlPlane;
use crate::stats::CommStats;
use crate::transport::Transport;
use crate::TerminationHandle;

/// Transport for a world of exactly one rank; see the `transport` module docs.
pub struct LoopbackTransport<M> {
    queue: VecDeque<Packet<M>>,
    pool: Vec<Vec<M>>,
    plane: std::sync::Arc<ControlPlane>,
    stats: CommStats,
}

impl<M> LoopbackTransport<M> {
    /// Create the single-rank transport.
    pub fn new() -> Self {
        Self {
            queue: VecDeque::new(),
            pool: Vec::new(),
            plane: ControlPlane::new(1, Vec::new()),
            stats: CommStats::new(1),
        }
    }
}

impl<M> Default for LoopbackTransport<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> Transport<M> for LoopbackTransport<M> {
    fn rank(&self) -> usize {
        0
    }

    fn nranks(&self) -> usize {
        1
    }

    fn send_batch(&mut self, dest: usize, msgs: Vec<M>) {
        assert_eq!(dest, 0, "loopback world has a single rank");
        if msgs.is_empty() {
            return;
        }
        self.stats.on_send(dest, msgs.len() as u64);
        self.queue.push_back(Packet { src: 0, msgs });
    }

    fn acquire_buffer(&mut self, _dest: usize) -> Vec<M> {
        match self.pool.pop() {
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

    fn recycle(&mut self, _src: usize, mut buf: Vec<M>) {
        buf.clear();
        if buf.capacity() == 0 {
            return;
        }
        self.stats.bufs_recycled += 1;
        self.pool.push(buf);
    }

    fn try_recv(&mut self) -> Option<Packet<M>> {
        let pkt = self.queue.pop_front()?;
        self.stats.on_recv(pkt.src, pkt.msgs.len() as u64);
        Some(pkt)
    }

    fn drain_recv(&mut self, out: &mut Vec<Packet<M>>) -> usize {
        let n = self.queue.len();
        for pkt in self.queue.drain(..) {
            self.stats.on_recv(pkt.src, pkt.msgs.len() as u64);
            out.push(pkt);
        }
        n
    }

    fn recv_timeout(&mut self, _timeout: Duration) -> Option<Packet<M>> {
        // The only sender is this same thread: if the queue is empty now
        // it stays empty for the full timeout, so return immediately
        // instead of sleeping.
        self.try_recv()
    }

    fn barrier(&self) {}

    fn allgather_u64(&self, val: u64) -> Vec<u64> {
        vec![val]
    }

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
    fn self_send_loops_back_in_fifo_order() {
        let mut t: LoopbackTransport<u64> = LoopbackTransport::new();
        t.send(0, 1);
        t.send_batch(0, vec![2, 3]);
        let a = t.try_recv().unwrap();
        assert_eq!((a.src, a.msgs.as_slice()), (0, &[1u64][..]));
        let b = t.try_recv().unwrap();
        assert_eq!(b.msgs, vec![2, 3]);
        assert!(t.try_recv().is_none());
        assert_eq!(t.stats().msgs_sent, 3);
        assert_eq!(t.stats().packets_recv, 2);
    }

    #[test]
    fn recv_timeout_never_sleeps() {
        let mut t: LoopbackTransport<u8> = LoopbackTransport::new();
        let start = std::time::Instant::now();
        assert!(t.recv_timeout(Duration::from_secs(60)).is_none());
        assert!(start.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn pool_recycles_buffers() {
        let mut t: LoopbackTransport<u32> = LoopbackTransport::new();
        t.send(0, 7);
        let pkt = t.try_recv().unwrap();
        t.recycle(pkt.src, pkt.msgs);
        // The freelist can only serve a recycled buffer with capacity.
        let buf = t.acquire_buffer(0);
        assert!(buf.capacity() > 0);
        assert_eq!(t.stats().pool_hits, 1);
        assert_eq!(t.stats().bufs_recycled, 1);
    }

    #[test]
    fn collectives_are_identities() {
        let t: LoopbackTransport<()> = LoopbackTransport::new();
        t.barrier();
        assert_eq!(t.allreduce_sum(5), 5);
        assert_eq!(t.allreduce_max(5), 5);
        assert_eq!(t.allreduce_min(5), 5);
        assert_eq!(t.allgather_u64(9), vec![9]);
        assert_eq!(t.broadcast_u64(0, 3), 3);
        assert_eq!(t.exclusive_prefix_sum(8), 0);
    }

    #[test]
    fn termination_counts_down_to_done() {
        let t: LoopbackTransport<()> = LoopbackTransport::new();
        let term = t.termination();
        assert!(term.is_done());
        term.add(2);
        assert!(!term.is_done());
        term.complete(2);
        assert!(term.is_done());
    }

    #[test]
    fn drain_recv_moves_everything() {
        let mut t: LoopbackTransport<u8> = LoopbackTransport::new();
        t.send(0, 1);
        t.send(0, 2);
        let mut out = Vec::new();
        assert_eq!(t.drain_recv(&mut out), 2);
        assert_eq!(t.drain_recv(&mut out), 0);
        assert_eq!(out.len(), 2);
    }
}
