//! The transport abstraction the engines are written against.
//!
//! [`crate::Comm`] (threaded channel world) is one implementation;
//! [`crate::LoopbackTransport`] (single rank, no threads) is another. A
//! real MPI backend would be a third: the trait surface is deliberately
//! the subset of two-sided MPI the SC'13 algorithms need — asynchronous
//! FIFO point-to-point sends, batched receives, a handful of `u64`
//! collectives, and the outstanding-work termination predicate.
//!
//! # What an implementor writes
//!
//! One collective primitive and the point-to-point plumbing: `rank`,
//! `nranks`, `send_batch`, `acquire_buffer`, `recycle`, the three
//! receives, [`Transport::barrier`], [`Transport::allgather_u64`],
//! `termination` and the three statistics accessors. Every other
//! collective — the sum, max and min reductions, the broadcast and the
//! exclusive prefix sum — and the single-message [`Transport::send`] are
//! provided methods folded from those, so all backends share one
//! definition of each; in particular, sums wrap on overflow everywhere.
//!
//! # Receive contract: `drain_recv` vs `recv_timeout`
//!
//! The two receive calls serve different phases of the engine loop and
//! implementations must honour their contract:
//!
//! * [`Transport::drain_recv`] is the **polling** receive: it moves every
//!   packet that is already queued and returns immediately — it never
//!   blocks, even when it returns `0`. It is meant for the generation
//!   sweep, where the rank has local work to overlap with servicing.
//! * [`Transport::recv_timeout`] is the **parking** receive: when a rank
//!   has run out of local work, calling `drain_recv` in a tight loop
//!   would busy-wait, burning the core other ranks need (the failure mode
//!   on oversubscribed hosts). `recv_timeout` must instead *block* until
//!   a packet arrives or the timeout elapses, whichever is first. A
//!   conforming implementation wakes promptly on arrival; it must not
//!   poll-sleep for the full timeout when traffic is already queued.
//!
//! **When `recv_timeout` may return `None` early.** Only after a
//! termination event: the ledger behind [`Transport::termination`]
//! reaching done on this rank (see [`crate::TerminationBackend`]). Each
//! such event ends one empty-handed wait — the one in progress, or else
//! the next — and is then consumed. Without one, `None` means the full
//! timeout elapsed, so a caller that never touches the ledger (a sample
//! exchange, a test) may read `None` as "timed out". A timeout too large
//! to add to an [`std::time::Instant`] (e.g. [`Duration::MAX`]) waits
//! without a deadline. This is what lets the engine driver flush its
//! buffers and then block with no timer at all: it wakes on a packet, on
//! quiescence, or at its stall-watchdog deadline. The single-rank
//! [`crate::LoopbackTransport`] is the documented exception: nobody else
//! can send to it, so it returns at once.
//!
//! The idiomatic completion loop therefore drains while progress lasts
//! and parks when quiescent — never spins:
//!
//! ```
//! use pa_mpsim::{Transport, World};
//! use std::time::Duration;
//!
//! let world = World::new(2);
//! let done = world.run(|mut comm| {
//!     let term = comm.termination();
//!     if comm.rank() == 0 {
//!         term.add(1);
//!         comm.send(1, 42u64);
//!     }
//!     comm.barrier(); // work registered before anyone may observe 0
//!     let mut inbox = Vec::new();
//!     while !term.is_done() {
//!         // Phase 1: drain everything already here (non-blocking).
//!         if comm.drain_recv(&mut inbox) > 0 {
//!             for pkt in inbox.drain(..) {
//!                 term.complete(pkt.msgs.len() as u64);
//!                 comm.recycle(pkt.src, pkt.msgs);
//!             }
//!             continue; // progress: poll again before parking
//!         }
//!         // Phase 2: quiescent — park instead of spinning. Rank 1's
//!         // final `complete` ends rank 0's wait; no timer runs out.
//!         if let Some(pkt) = comm.recv_timeout(Duration::from_secs(30)) {
//!             term.complete(pkt.msgs.len() as u64);
//!             comm.recycle(pkt.src, pkt.msgs);
//!         }
//!     }
//!     true
//! });
//! assert!(done.iter().all(|&d| d));
//! ```

use std::time::Duration;

use crate::comm::Packet;
use crate::stats::CommStats;
use crate::TerminationHandle;

/// Two-sided message transport between the ranks of a world.
///
/// Guarantees every implementation must provide:
///
/// * **Asynchronous sends.** [`Transport::send`] / [`Transport::send_batch`]
///   enqueue and return; they never block on the receiver and never fail
///   (late traffic to a finished rank is parked, as MPI buffers sends to a
///   rank at `MPI_Finalize`).
/// * **Per-pair FIFO.** Packets from rank `a` to rank `b` are received in
///   send order (MPI's non-overtaking rule). No ordering is implied
///   between different sources.
/// * **Collectives are world-wide.** [`Transport::barrier`] and the
///   `allreduce`/`allgather`/`broadcast` family must be called by *all*
///   ranks; calling them from a subset deadlocks, exactly as
///   `MPI_Barrier` would.
/// * **Blocking vs polling receive** — see the [module docs](self) for
///   the `drain_recv` / `recv_timeout` contract.
/// * **Termination registration is published by a barrier.** Work
///   registered through [`Transport::termination`]'s handle is only
///   guaranteed *globally* visible after the next [`Transport::barrier`];
///   the driver's `add → barrier → observe` registration pattern is part
///   of the contract. Shared-memory implementations happen to publish
///   adds immediately, but distributed ones (a socket or MPI backend)
///   may defer them to the barrier's collective, and callers must not
///   observe `is_done` across ranks before it.
pub trait Transport<M> {
    /// This rank's id in `[0, nranks)`.
    fn rank(&self) -> usize;

    /// Number of ranks in the world.
    fn nranks(&self) -> usize;

    /// Send one logical message to `dest` as its own packet, drawing the
    /// packet buffer from the pool so ad-hoc sends do not allocate in
    /// steady state.
    ///
    /// For high-volume traffic prefer [`crate::BufferedComm`], which
    /// aggregates messages per destination (the paper's message
    /// buffering, §3.5).
    fn send(&mut self, dest: usize, msg: M) {
        let mut buf = self.acquire_buffer(dest);
        buf.push(msg);
        self.send_batch(dest, buf);
    }

    /// Send a batch of logical messages to `dest` as a single packet.
    /// Empty batches are dropped (no packet transferred or counted).
    fn send_batch(&mut self, dest: usize, msgs: Vec<M>);

    /// Take a recycled send buffer for `dest` from the packet pool, or
    /// allocate a fresh one on pool miss.
    fn acquire_buffer(&mut self, dest: usize) -> Vec<M>;

    /// Return a drained packet buffer to the rank it came from (call with
    /// [`Packet::src`] and the consumed [`Packet::msgs`]).
    fn recycle(&mut self, src: usize, buf: Vec<M>);

    /// Non-blocking receive: the next pending packet, if any.
    fn try_recv(&mut self) -> Option<Packet<M>>;

    /// Move every packet currently queued into `out`; returns how many
    /// were appended. **Never blocks** (the polling receive).
    fn drain_recv(&mut self, out: &mut Vec<Packet<M>>) -> usize;

    /// Blocking receive: park until a packet arrives or `timeout`
    /// elapses; `None` on timeout, or earlier, once, after the
    /// termination ledger reaches done. **Must not busy-wait** (the
    /// parking receive — see the [module docs](self)).
    fn recv_timeout(&mut self, timeout: Duration) -> Option<Packet<M>>;

    /// Global barrier: returns once every rank has entered.
    fn barrier(&self);

    /// All-gather: every rank receives the vector of all contributions,
    /// indexed by rank. The one collective the provided reductions,
    /// broadcast and prefix sum are folded from.
    fn allgather_u64(&self, val: u64) -> Vec<u64>;

    /// All-reduce a `u64` by summation, wrapping on overflow; every rank
    /// gets the global sum.
    fn allreduce_sum(&self, val: u64) -> u64 {
        self.allgather_u64(val)
            .into_iter()
            .fold(0, u64::wrapping_add)
    }

    /// All-reduce a `u64` by maximum.
    fn allreduce_max(&self, val: u64) -> u64 {
        self.allgather_u64(val).into_iter().max().unwrap_or(val)
    }

    /// All-reduce a `u64` by minimum.
    fn allreduce_min(&self, val: u64) -> u64 {
        self.allgather_u64(val).into_iter().min().unwrap_or(val)
    }

    /// Broadcast: every rank receives `root`'s contribution (non-root
    /// ranks' `val` is ignored, but they must still call).
    ///
    /// # Panics
    ///
    /// Panics if `root` is not a rank of the world.
    fn broadcast_u64(&self, root: usize, val: u64) -> u64 {
        assert!(root < self.nranks(), "broadcast root out of range");
        self.allgather_u64(val)[root]
    }

    /// Exclusive prefix sum, wrapping on overflow: the sum of the
    /// contributions of all ranks strictly below this one (rank 0 gets
    /// 0). The standard building block for assigning disjoint global id
    /// ranges.
    fn exclusive_prefix_sum(&self, val: u64) -> u64 {
        self.allgather_u64(val)[..self.rank()]
            .iter()
            .fold(0, |acc, &v| acc.wrapping_add(v))
    }

    /// Handle to the global outstanding-work termination detector.
    fn termination(&self) -> TerminationHandle;

    /// Snapshot of this rank's communication statistics.
    fn stats(&self) -> &CommStats;

    /// Mutable access to this rank's statistics. Exists for *wrapping*
    /// transports (e.g. [`crate::FaultTransport`]) that account layer
    /// events — injected faults, retransmissions, deduplications — in the
    /// same ledger as the wire traffic; engines should treat statistics
    /// as read-only.
    fn stats_mut(&mut self) -> &mut CommStats;

    /// Consume the transport, returning its final statistics.
    fn into_stats(self) -> CommStats
    where
        Self: Sized;
}
