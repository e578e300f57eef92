//! The unified engine driver.
//!
//! Algorithms 3.1 and 3.2 are one message-driven state machine: sweep the
//! rank's nodes in ascending order, service incoming traffic every few
//! nodes, flush `resolved` buffers promptly (§3.5.2), flush everything and
//! block on an empty queue instead of spinning or polling, and loop until
//! the global outstanding-work detector reports quiescence.
//!
//! [`run`] is that loop written once, generic over
//!
//! * the [`Transport`] carrying the messages (threaded world, loopback,
//!   eventually a real MPI binding), and
//! * a [`Strategy`] supplying the algorithm-specific state machine — the
//!   strategies and their private state (hub replica, waiter tables)
//!   all live in [`super::strategy`]; this module knows nothing about
//!   any particular algorithm or model. Every strategy speaks the one
//!   wire vocabulary, [`Msg`].
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
//! a consistent cut with no message in flight. That cut is where the
//! driver checkpoints ([`super::checkpoint`]): the sink's watermark, a
//! digest of the `F` rows committed below the cut, and the counters. A
//! resume loads the rows back from the rank's committed edges before the
//! first epoch it runs, so any engine resumes any other's checkpoint at
//! the same `x`. Every message is a `request` or a `resolved` belonging
//! to an uncommitted slot, so none straddles the cut; engine 2's hub
//! replica is not saved either, since a restored rank recomputes it.
//! Epoch boundaries are pure functions of `(n, interval)`, so the cut —
//! and the output — is bit-identical with and without checkpointing.

use pa_mpsim::{BufferedComm, CommStats, Packet, Transport};

use super::checkpoint::{restore_rows, rows_digest, CheckpointStore, Resume, SavedCheckpoint};
use super::msg::Msg;
use super::strategy::Strategy;
use crate::partition::Partition;
use crate::store::NodeTable;
use crate::{GenOptions, Node};

/// The driver's communication bundle, handed to every [`Strategy`] hook.
///
/// Owns the two outgoing message buffers of §3.5 (requests and
/// resolutions, with their distinct flush disciplines) and the
/// termination handle; borrows the transport.
pub(super) struct Net<'t, T: Transport<Msg>> {
    pub comm: &'t mut T,
    req: BufferedComm<Msg>,
    res: BufferedComm<Msg>,
    term: pa_mpsim::TerminationHandle,
    /// Slots committed since the last [`Net::publish`]. Rank-private:
    /// the per-edge path never touches the world-wide ledger.
    completed: u64,
}

impl<'t, T: Transport<Msg>> Net<'t, T> {
    /// Queue a `request`-class message for `dest` (flushed at sweep end).
    #[inline]
    pub fn send_req(&mut self, dest: usize, msg: Msg) {
        self.req.push(&mut *self.comm, dest, msg);
    }

    /// Queue a `resolved`-class message for `dest` (flushed after every
    /// processed batch — the §3.5.2 no-linger rule).
    #[inline]
    pub fn send_res(&mut self, dest: usize, msg: Msg) {
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

    /// A bundle over `comm` with buffers for `nranks` destinations, for
    /// unit tests that drive a strategy's hooks by hand: what is sent
    /// stays buffered until 4096 messages fill a buffer.
    #[cfg(test)]
    pub fn for_test(comm: &'t mut T, nranks: usize) -> Self {
        Net {
            req: BufferedComm::new(nranks, 4096),
            res: BufferedComm::new(nranks, 4096),
            term: comm.termination(),
            completed: 0,
            comm,
        }
    }

    fn flush_res(&mut self) {
        self.res.flush_all(&mut *self.comm);
    }

    fn flush_all(&mut self) {
        self.req.flush_all(&mut *self.comm);
        self.res.flush_all(&mut *self.comm);
    }
}

/// The most nodes [`run`] hands to [`Strategy::start_nodes`] at once.
///
/// Block scratch is sized by this up front, never grown during a run:
/// in `pagen serve`, which runs job after job in one process, scratch
/// allocated or grown after a job's tables were allocated raised the
/// daemon's peak RSS from 24 to 37 MiB (the `serve-mixed` workload);
/// the freed tables of earlier jobs stayed resident.
pub(super) const BLOCK: usize = 64;

/// Run `algo` to global quiescence on this rank; returns it with every
/// local slot committed and every waiter drained.
///
/// When `store` is set, every epoch boundary (except the final one)
/// writes an atomic checkpoint of the sink watermark, the rows digest
/// and the counters; when `resume` is set, its committed edges are
/// loaded into the engine's table first and generation continues from
/// the epoch after the saved one. Callers are responsible for
/// positioning the sink at the saved watermark (truncating part files)
/// before calling.
///
/// # Errors
///
/// Only a resume fails: when its checkpoint does not lie on this run's
/// epoch grid, or its edges are not the rank's committed rows below the
/// cut ([`restore_rows`]). The reason names the rank.
pub(super) fn run<P, T, A>(
    part: &P,
    x: u64,
    opts: &GenOptions,
    comm: &mut T,
    mut algo: A,
    store: Option<&CheckpointStore>,
    resume: Option<Resume<'_>>,
) -> Result<A, String>
where
    P: Partition,
    T: Transport<Msg>,
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
    // The rows digest of the last checkpoint, and the slots it covers.
    let (mut digest, mut digested) = (0u64, 0u64);
    if let Some(Resume { saved, edges }) = resume {
        let why = |why: String| format!("rank {rank}: resuming after epoch {}: {why}", saved.epoch);
        if interval.is_none() || saved.hi != epoch_hi(saved.epoch) {
            return Err(why(format!(
                "its cut {} is not on this run's epoch grid",
                saved.hi
            )));
        }
        let (f, counters) = algo.state();
        restore_rows(f, part, rank, x, saved, edges).map_err(why)?;
        *counters = saved.counters;
        algo.restored(saved.hi);
        start_epoch = saved.epoch + 1;
        resume_hi = saved.hi;
        (digest, digested) = (saved.digest, part.local_count_below(rank, saved.hi) * x);
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
    let mut rxq: Vec<Packet<Msg>> = Vec::new();
    // On the stack: a heap buffer allocated here, after the engine's
    // tables and alive all run, kept a long-lived process's freed
    // tables resident from one run to the next (see `BLOCK`).
    let mut block = [0 as Node; BLOCK];

    for epoch in start_epoch..nepochs {
        let (lo, hi) = (epoch_lo(epoch), epoch_hi(epoch));

        // --- Initialization: seed edges and slot registration. ---
        let pending = algo.register(lo, hi);
        net.term.add(pending);
        // No rank may observe the counter before everyone registered.
        net.comm.barrier();
        algo.attach_seed_node(&mut net, lo, hi);

        // --- Generation sweep over the epoch's local nodes. ---
        // Nodes go to the engine in blocks of at most `BLOCK`, cut at the
        // epoch bound and at the next service point, so the service
        // cadence and the checkpoint cuts are those of a node-by-node
        // sweep.
        let mut since_service = 0usize;
        loop {
            let room = BLOCK.min(opts.service_interval - since_service);
            let mut len = 0;
            while len < room {
                match nodes.next_if(|&t| t < hi) {
                    Some(t) => {
                        block[len] = t;
                        len += 1;
                    }
                    None => break,
                }
            }
            if len == 0 {
                break;
            }
            algo.start_nodes(&mut net, &block[..len]);
            since_service += len;
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
        // Iterations that made progress flush immediately. A quiescent rank
        // flushes every buffer and then blocks on the transport with no
        // timer: it wakes on a packet, on the termination ledger reaching
        // done (the receive contract's one early `None`), or at the stall
        // watchdog's deadline. Flush-before-block is what makes the
        // unbounded block safe: nothing this rank owes anyone is left in a
        // buffer while it sleeps, so every rank it waits on can progress.
        //
        // The stall watchdog measures *global* progress through the shared
        // outstanding-work counter: as long as any rank commits slots the
        // counter moves and every rank's timer resets, so only a genuinely
        // wedged world (e.g. a message lost by an unreliable transport with
        // recovery off) trips it — and then it trips on every rank, which is
        // what lets the scoped world join instead of hanging. The counter
        // only falls within an epoch, so comparing it at each deadline sees
        // every change: the watchdog fires between one and two limits after
        // the world's last progress.
        let mut watchdog = opts
            .stall_timeout
            .map(|limit| (std::time::Instant::now(), net.term.outstanding(), limit));
        while !net.is_done() {
            if service(&mut algo, &mut net, &mut rxq) {
                net.flush_all();
                if let Some((last_progress, _, _)) = &mut watchdog {
                    *last_progress = std::time::Instant::now();
                }
                continue;
            }
            net.flush_all();
            let wait = watchdog.map_or(std::time::Duration::MAX, |(last_progress, _, limit)| {
                limit.saturating_sub(last_progress.elapsed())
            });
            if let Some(pkt) = net.comm.recv_timeout(wait) {
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
                    let comm: String = CommStats::NAMES
                        .iter()
                        .zip(net.comm.stats().to_words())
                        .map(|(name, v)| format!(" {name}={v}"))
                        .collect();
                    eprintln!(
                        "stall watchdog: rank {rank} made no progress for {limit:?}; \
                         outstanding={outstanding} {}{comm}",
                        algo.stall_report(),
                    );
                    panic!(
                        "stall watchdog fired on rank {rank}: no progress for {limit:?} \
                         (outstanding work = {outstanding}; {})",
                        algo.stall_report()
                    );
                }
            }
        }
        // Requests and resolved messages are always flushed before the slot
        // they belong to can commit, so termination implies both are gone.
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
                let slots = part.local_count_below(rank, hi) * x;
                let (f, counters) = algo.state();
                // The table's pages go back to its file at the cut as the
                // sink's chunk goes to the part: a paged rank's spill file
                // exists from its first checkpoint on. Nothing reads it
                // back, so nothing syncs it.
                f.flush()
                    .unwrap_or_else(|e| panic!("rank {rank}: writing pages back failed: {e}"));
                digest = digest.wrapping_add(rows_digest(f, digested..slots));
                digested = slots;
                let saved = SavedCheckpoint {
                    epoch,
                    hi,
                    edges,
                    bytes,
                    digest,
                    counters: *counters,
                };
                store.save(&saved).unwrap_or_else(|e| {
                    panic!("rank {rank}: writing checkpoint for epoch {epoch} failed: {e}")
                });
            }
        }
    }
    Ok(algo)
}

/// Drain all currently pending packets in one batched receive; returns
/// whether any arrived. Packet buffers go back to their senders' pools.
/// Publishes first, so a distributed transport's receive path (which
/// broadcasts the rank's ledger entry) carries the current count.
fn service<T, A>(algo: &mut A, net: &mut Net<'_, T>, rxq: &mut Vec<Packet<Msg>>) -> bool
where
    T: Transport<Msg>,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::EngineCounters;
    use crate::partition::{self, Scheme};
    use crate::store::{AnyTable, StoreSpec};
    use crate::NILL;
    use pa_mpsim::LoopbackTransport;

    /// A strategy that commits nothing but records the sweep: every
    /// block, and at every block whether a service point ran since the
    /// one before. Mid-sweep only a service point publishes, so
    /// `Net::completed` reads 0 after one and the nodes completed since
    /// the last one otherwise.
    struct Recorder<'a, P: Partition> {
        part: &'a P,
        x: u64,
        interval: usize,
        /// The epoch being swept, and the nodes since its start or its
        /// last service point (`None` before the epoch's first block).
        epoch: (Node, Node),
        since: Option<usize>,
        blocks: Vec<Vec<Node>>,
        services: usize,
        f: AnyTable,
        counters: EngineCounters,
    }

    impl<P: Partition> Strategy for Recorder<'_, P> {
        fn register(&mut self, lo: Node, hi: Node) -> u64 {
            self.epoch = (lo, hi);
            self.since = None;
            (lo..hi)
                .filter(|&t| t > self.x && self.part.rank_of(t) == 0)
                .count() as u64
        }

        fn attach_seed_node<T: Transport<Msg>>(&mut self, _: &mut Net<'_, T>, _: Node, _: Node) {}

        fn start_nodes<T: Transport<Msg>>(&mut self, net: &mut Net<'_, T>, ts: &[Node]) {
            let (lo, hi) = self.epoch;
            assert!(!ts.is_empty() && ts.len() <= BLOCK, "block {ts:?}");
            assert!(
                ts.iter().all(|&t| (lo..hi).contains(&t)),
                "block {ts:?} straddles the epoch [{lo}, {hi})"
            );
            let mut since = self.since.unwrap_or(0);
            if self.since.is_some() {
                let serviced = net.completed == 0;
                assert_eq!(
                    serviced,
                    since == self.interval,
                    "{since} nodes since the last service point at block {ts:?}"
                );
                if serviced {
                    self.services += 1;
                    since = 0;
                } else {
                    assert_eq!(net.completed, since as u64, "published mid-interval");
                }
            }
            since += ts.len();
            assert!(
                since <= self.interval,
                "block {ts:?} straddles a service point"
            );
            self.since = Some(since);
            net.complete(ts.len() as u64);
            self.blocks.push(ts.to_vec());
        }

        fn drain_local<T: Transport<Msg>>(&mut self, _: &mut Net<'_, T>) {}

        fn handle_msgs<T: Transport<Msg>>(
            &mut self,
            _: &mut Net<'_, T>,
            _: usize,
            _: &mut Vec<Msg>,
        ) {
            panic!("nothing was sent");
        }

        fn sink_mark(&mut self) -> std::io::Result<(u64, u64)> {
            Ok((0, 0))
        }

        fn state(&mut self) -> (&mut AnyTable, &mut EngineCounters) {
            (&mut self.f, &mut self.counters)
        }
    }

    #[test]
    fn blocks_keep_the_service_cadence_and_the_epoch_cuts() {
        let (n, x) = (1000, 2);
        for scheme in [Scheme::Rrp, Scheme::Ucp] {
            // Rank 0 of a three-rank partition, swept alone.
            let part = partition::build(scheme, n, 3);
            let want: Vec<Node> = part.nodes_of(0).filter(|&t| t > x).collect();
            for interval in [1, 7, 64, 4096] {
                for epochs in [None, Some(100), Some(37)] {
                    let opts = GenOptions {
                        service_interval: interval,
                        checkpoint_interval: epochs,
                        ..GenOptions::default()
                    };
                    let algo = Recorder {
                        part: &part,
                        x,
                        interval,
                        epoch: (0, 0),
                        since: None,
                        blocks: Vec::new(),
                        services: 0,
                        f: AnyTable::build_for(n, &StoreSpec::Resident, 0, "f", 0, NILL).unwrap(),
                        counters: EngineCounters::default(),
                    };
                    let mut comm = LoopbackTransport::<Msg>::new();
                    let algo = run(&part, x, &opts, &mut comm, algo, None, None).unwrap();
                    let tag = format!("{scheme} interval {interval} epochs {epochs:?}");
                    assert_eq!(algo.blocks.concat(), want, "{tag}");
                    // Without epochs the sweep is one run of nodes, so it
                    // services after each full interval but the last.
                    // Its blocks fill up to `BLOCK` where the cadence
                    // leaves room.
                    if epochs.is_none() {
                        let full = want.len() / interval;
                        let expect = full - usize::from(want.len().is_multiple_of(interval));
                        assert_eq!(algo.services, expect, "{tag}");
                        let longest = algo.blocks.iter().map(Vec::len).max();
                        assert_eq!(longest, Some(interval.min(BLOCK)), "{tag}");
                    }
                }
            }
        }
    }
}
