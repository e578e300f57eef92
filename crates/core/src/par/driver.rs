//! The unified engine driver.
//!
//! Algorithms 3.1 and 3.2 are one message-driven state machine: sweep the
//! rank's nodes in ascending order, service incoming traffic every few
//! nodes, flush `resolved` buffers promptly (§3.5.2), park on an empty
//! queue instead of spinning, and loop until the global outstanding-work
//! detector reports quiescence. PR-1 carried that loop twice — once per
//! engine, copy-pasted and hard-wired to the concrete `pa_mpsim::Comm`.
//!
//! [`run`] is that loop written once, generic over
//!
//! * the [`Transport`] carrying the messages (threaded world, loopback,
//!   eventually a real MPI binding), and
//! * a [`Strategy`] supplying the algorithm-specific state machine — the
//!   strategies, their wire schemas, and their private state (hub
//!   replica, waiter tables) all live in [`super::strategy`]; this
//!   module knows nothing about any particular algorithm or model.
//!
//! The loop structure — and with it the determinism argument (in-order
//! slot commits giving every attempt the sequential generator's exact
//! visibility) — therefore lives in exactly one place.
//!
//! # Checkpoint epochs
//!
//! With [`crate::GenOptions::checkpoint_interval`] set, the label range
//! `[0, n)` splits into epochs of `interval` labels and the loop above
//! runs once per epoch: register the epoch's slots, barrier, sweep the
//! epoch's local nodes, and drive its completion loop to quiescence.
//! Because every copy-model dependency points to a **lower** label
//! (`k ∈ [x, t)`), requests never reference a later epoch, so epoch-`i`
//! quiescence means every node below the epoch's upper label `hi` is
//! committed *world-wide* and all waiter structures are provably empty —
//! a consistent cut with no tracked traffic in flight. That cut is where
//! [`Strategy::snapshot`] captures the engine for a crash-recoverable
//! checkpoint ([`super::checkpoint`]). The only messages that may
//! straddle the cut are untracked hub broadcasts; a restored engine
//! compensates by falling back to request/resolved for pre-cut hub
//! misses (the values are committed, so answers are identical).
//! Epoch boundaries are pure functions of `(n, interval)`, so the cut —
//! and the output — is bit-identical with and without checkpointing.

use pa_mpsim::{BufferedComm, Packet, Transport};

use super::checkpoint::{CheckpointStore, SavedCheckpoint};
use super::strategy::Strategy;
use crate::partition::Partition;
use crate::GenOptions;

/// The driver's communication bundle, handed to every [`Strategy`] hook.
///
/// Owns the two outgoing message buffers of §3.5 (requests and
/// resolutions, with their distinct flush disciplines) and the
/// termination handle; borrows the transport.
pub(super) struct Net<'t, M, T: Transport<M>> {
    pub comm: &'t mut T,
    req: BufferedComm<M>,
    res: BufferedComm<M>,
    term: pa_mpsim::TerminationHandle,
    /// Slots committed since the last [`Net::publish`]. Rank-private:
    /// the per-edge path never touches the world-wide ledger.
    completed: u64,
}

impl<'t, M: Send, T: Transport<M>> Net<'t, M, T> {
    /// Queue a `request`-class message for `dest` (flushed at sweep end).
    #[inline]
    pub fn send_req(&mut self, dest: usize, msg: M) {
        self.req.push(&mut *self.comm, dest, msg);
    }

    /// Queue a `resolved`-class message for `dest` (flushed after every
    /// processed batch — the §3.5.2 no-linger rule).
    #[inline]
    pub fn send_res(&mut self, dest: usize, msg: M) {
        self.res.push(&mut *self.comm, dest, msg);
    }

    /// Mark `n` units of outstanding work resolved. Counted privately;
    /// [`Net::publish`] hands the sum to the termination ledger.
    #[inline]
    pub fn complete(&mut self, n: u64) {
        self.completed += n;
    }

    /// Report the completions counted since the last call to the
    /// world-wide ledger. The rule: publish before every receive and
    /// before every `is_done` — the ledger then lags a rank's commits by
    /// at most one service interval (late is safe: quiescence is only
    /// observed later) and can never run ahead of them (early is
    /// impossible: only committed slots are ever counted).
    #[inline]
    fn publish(&mut self) {
        if self.completed != 0 {
            self.term.complete(std::mem::take(&mut self.completed));
        }
    }

    /// [`Net::publish`], then the global quiescence predicate.
    fn is_done(&mut self) -> bool {
        self.publish();
        self.term.is_done()
    }

    fn flush_res(&mut self) {
        self.res.flush_all(&mut *self.comm);
    }

    fn flush_all(&mut self) {
        self.req.flush_all(&mut *self.comm);
        self.res.flush_all(&mut *self.comm);
    }
}

/// How long the completion loop blocks on an empty message queue before
/// re-checking the termination predicate (a zero wait would busy-spin).
const IDLE_WAIT: std::time::Duration = std::time::Duration::from_micros(200);

/// The completion loop re-scans its outgoing buffers after this many
/// consecutive *idle* iterations (iterations that saw traffic always
/// flush), sparing quiescent ranks the per-iteration flush scan.
const IDLE_FLUSH_INTERVAL: usize = 16;

/// Run `algo` to global quiescence on this rank; returns it with every
/// local slot committed and every waiter drained.
///
/// When `store` is set, every epoch boundary (except the final one)
/// writes an atomic checkpoint of the engine + sink watermark; when
/// `resume` is set, the engine state is restored first and generation
/// continues from the epoch after the saved one. Callers are responsible
/// for positioning the sink at the saved watermark (truncating part
/// files) before calling.
pub(super) fn run<P, T, A>(
    part: &P,
    x: u64,
    opts: &GenOptions,
    comm: &mut T,
    mut algo: A,
    store: Option<&CheckpointStore>,
    resume: Option<&SavedCheckpoint>,
) -> A
where
    P: Partition,
    T: Transport<A::Msg>,
    A: Strategy,
{
    let rank = comm.rank();
    let n = part.num_nodes();
    let interval = opts.checkpoint_interval;
    let nepochs = interval.map_or(1, |i| n.div_ceil(i).max(1));
    let epoch_hi = |e: u64| interval.map_or(n, |i| ((e + 1) * i).min(n));
    let epoch_lo = |e: u64| interval.map_or(0, |i| e * i);

    let mut start_epoch = 0u64;
    let mut resume_hi = 0u64;
    if let Some(saved) = resume {
        assert!(
            interval.is_some(),
            "resume requires GenOptions::checkpoint_interval"
        );
        assert_eq!(
            saved.hi,
            epoch_hi(saved.epoch),
            "rank {rank}: checkpoint epoch {} boundary disagrees with the \
             configured interval — resuming would corrupt the output",
            saved.epoch
        );
        algo.restore(saved.hi, &saved.payload)
            .unwrap_or_else(|why| panic!("rank {rank}: checkpoint restore failed: {why}"));
        start_epoch = saved.epoch + 1;
        resume_hi = saved.hi;
    }

    let mut net = Net {
        req: BufferedComm::new(comm.nranks(), opts.buffer_capacity),
        res: BufferedComm::new(comm.nranks(), opts.buffer_capacity),
        term: comm.termination(),
        completed: 0,
        comm,
    };

    // One ascending pass over the rank's nodes, shared by all epochs
    // (each epoch consumes its `[lo, hi)` slice); resumed labels below
    // the checkpoint cut are already committed and skipped entirely.
    let mut nodes = part
        .nodes_of(rank)
        .filter(|&t| t > x && t >= resume_hi)
        .peekable();
    let mut rxq: Vec<Packet<A::Msg>> = Vec::new();

    for epoch in start_epoch..nepochs {
        let (lo, hi) = (epoch_lo(epoch), epoch_hi(epoch));

        // --- Initialization: seed edges and slot registration. ---
        let pending = algo.register(lo, hi);
        net.term.add(pending);
        // No rank may observe the counter before everyone registered.
        net.comm.barrier();
        algo.attach_seed_node(&mut net, lo, hi);

        // --- Generation sweep over the epoch's local nodes. ---
        let mut since_service = 0usize;
        while let Some(&t) = nodes.peek() {
            if t >= hi {
                break;
            }
            nodes.next();
            algo.start_node(&mut net, t);
            algo.drain_local(&mut net);
            since_service += 1;
            if since_service >= opts.service_interval {
                since_service = 0;
                service(&mut algo, &mut net, &mut rxq);
                // §3.5.2: resolved messages must not linger in buffers.
                net.flush_res();
                // Let other ranks advance their sweeps: on an oversubscribed
                // host this keeps per-rank progress in lockstep, as it would
                // be with one core per rank.
                std::thread::yield_now();
            }
        }
        // End-of-sweep flush: requests may now wait for nobody, and the
        // sweep's tail of commits reaches the ledger before the watchdog
        // takes its first reading.
        net.flush_all();
        net.publish();

        // --- Completion loop: service traffic until global quiescence. ---
        // Iterations that made progress flush immediately; quiescent ranks
        // only re-scan their buffers every `IDLE_FLUSH_INTERVAL` waits, and
        // park on the transport instead of spinning (see the Transport
        // receive contract).
        //
        // The stall watchdog measures *global* progress through the shared
        // outstanding-work counter: as long as any rank commits slots the
        // counter moves and every rank's timer resets, so only a genuinely
        // wedged world (e.g. a message lost by an unreliable transport with
        // recovery off) trips it — and then it trips on every rank, which is
        // what lets the scoped world join instead of hanging.
        let mut watchdog = opts
            .stall_timeout
            .map(|limit| (std::time::Instant::now(), net.term.outstanding(), limit));
        let mut idle_iters = 0usize;
        while !net.is_done() {
            if service(&mut algo, &mut net, &mut rxq) {
                idle_iters = 0;
                net.flush_all();
                if let Some((last_progress, _, _)) = &mut watchdog {
                    *last_progress = std::time::Instant::now();
                }
            } else if !net.is_done() {
                idle_iters += 1;
                if idle_iters >= IDLE_FLUSH_INTERVAL {
                    idle_iters = 0;
                    net.flush_all();
                }
                if let Some(pkt) = net.comm.recv_timeout(IDLE_WAIT) {
                    idle_iters = 0;
                    let mut msgs = pkt.msgs;
                    algo.handle_msgs(&mut net, pkt.src, &mut msgs);
                    net.comm.recycle(pkt.src, msgs);
                    algo.drain_local(&mut net);
                    net.flush_all();
                    if let Some((last_progress, _, _)) = &mut watchdog {
                        *last_progress = std::time::Instant::now();
                    }
                } else if let Some((last_progress, last_outstanding, limit)) = &mut watchdog {
                    // Nothing is unpublished here: the `is_done` above
                    // published, and an empty receive commits nothing.
                    let outstanding = net.term.outstanding();
                    if outstanding != *last_outstanding {
                        *last_outstanding = outstanding;
                        *last_progress = std::time::Instant::now();
                    } else if last_progress.elapsed() >= *limit {
                        let stats = net.comm.stats();
                        eprintln!(
                            "stall watchdog: rank {rank} made no progress for {limit:?}; \
                             outstanding={outstanding} {} msgs_sent={} msgs_recv={} \
                             faults_injected={} retransmitted={} deduped={}",
                            algo.stall_report(),
                            stats.msgs_sent,
                            stats.msgs_recv,
                            stats.faults_injected,
                            stats.retransmitted,
                            stats.deduped,
                        );
                        panic!(
                            "stall watchdog fired on rank {rank}: no progress for {limit:?} \
                             (outstanding work = {outstanding}; {})",
                            algo.stall_report()
                        );
                    }
                }
            }
        }
        // Requests and resolved messages are always flushed before the slot
        // they belong to can commit, so termination implies both are gone
        // (only untracked hub broadcasts may remain buffered; with every slot
        // below `hi` committed everywhere they carry no information).
        debug_assert_eq!(net.req.pending_total(), 0);
        algo.finish();

        if hi < n {
            // Gate the next epoch's registration: every rank must observe
            // this epoch's quiescence before anyone re-arms the detector,
            // or a slow rank could wait on a counter already re-raised.
            net.comm.barrier();
            if let Some(store) = store {
                let (edges, bytes) = algo
                    .sink_mark()
                    .unwrap_or_else(|e| panic!("rank {rank}: checkpoint sink flush failed: {e}"));
                let mut payload = Vec::new();
                algo.snapshot(hi, &mut payload);
                store
                    .save(epoch, hi, edges, bytes, &payload)
                    .unwrap_or_else(|e| {
                        panic!("rank {rank}: writing checkpoint for epoch {epoch} failed: {e}")
                    });
            }
        }
    }
    algo
}

/// Drain all currently pending packets in one batched receive; returns
/// whether any arrived. Packet buffers go back to their senders' pools.
/// Publishes first, so a distributed transport's receive path (which
/// broadcasts the rank's ledger entry) carries the current count.
fn service<T, A>(algo: &mut A, net: &mut Net<'_, A::Msg, T>, rxq: &mut Vec<Packet<A::Msg>>) -> bool
where
    T: Transport<A::Msg>,
    A: Strategy,
{
    net.publish();
    net.comm.drain_recv(rxq);
    let any = !rxq.is_empty();
    for mut pkt in rxq.drain(..) {
        algo.handle_msgs(net, pkt.src, &mut pkt.msgs);
        net.comm.recycle(pkt.src, pkt.msgs);
        algo.drain_local(net);
    }
    any
}
