//! [`TcpTransport`]: the multi-process socket backend.
//!
//! One rank per OS process; every pair of ranks shares one TCP
//! connection carrying the length-prefixed frames of the private
//! `frame` module. Each connection
//! gets a dedicated *reader thread* that parses frames and feeds them
//! into shared state; the engine thread only ever touches that state, so
//! the [`Transport`] calls keep the exact semantics of the in-process
//! backends:
//!
//! * **Sends** serialize the batch with the message type's [`Wire`]
//!   encoding and push one `DATA` frame down the destination's socket
//!   (`TCP_NODELAY`, single `write_all`). The drained `Vec` goes back to
//!   a process-local packet pool — buffers never cross the wire, only
//!   bytes do — so steady-state traffic stays allocation-free just like
//!   the channel backend. Self-sends short-circuit through the inbox.
//! * **Receives** pop a single inbox (`Mutex<VecDeque>` + condvar) that
//!   all reader threads feed. `drain_recv` never blocks; `recv_timeout`
//!   parks on the condvar and is woken by the first arrival, or by the
//!   `TERM` frame that balances the termination ledger (see below).
//! * **Collectives** run on a binary tree (children of rank `r` are
//!   `2r+1`, `2r+2`): contributions flow leaf-to-root as `COLL_UP`
//!   frames, rank 0 assembles the per-rank snapshot, and the snapshot
//!   flows root-to-leaf as `COLL_DOWN`. The transport implements the
//!   gather and the barrier as one such round each; the trait folds the
//!   sum, max, min, broadcast and prefix sum from the gathered snapshot,
//!   so every collective costs `O(log P)` hops, not `O(P)`.
//! * **Termination** is a distributed ledger. `add` only stages work
//!   locally; the next [`Transport::barrier`] folds every rank's staged
//!   adds into the collective and all ranks grow the global *target* by
//!   the same total — this is precisely the trait's "registration is
//!   published by a barrier" contract. `complete` bumps a local counter
//!   that is broadcast as `TERM` frames from the receive paths (new
//!   counts piggyback on the engine's existing service cadence), and
//!   `is_done` holds when `target` equals the sum of every rank's last
//!   known counter. Counters are monotone, so stale `TERM` frames are
//!   harmless (`fetch_max`). The reader thread that applies the `TERM`
//!   frame balancing the ledger also flags the inbox, which ends the
//!   engine's parked `recv_timeout` early, once — an idle rank blocks
//!   with no timer and still stops the moment the world is quiescent.
//!
//! # Failure semantics
//!
//! A peer that closes its connection *without* the orderly `BYE` frame
//! has crashed. Sends to it are dropped silently (the trait's "late
//! traffic is parked" rule — sends never fail), but every receive call
//! and every collective panics with a diagnostic naming the dead rank,
//! so a killed rank takes the whole job down with an explanation instead
//! of a hang. Collectives additionally carry their own timeout
//! ([`crate::TcpConfig::collective_timeout`]) as a backstop against a
//! peer that is alive but wedged.

use std::collections::{HashMap, VecDeque};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pa_mpsim::wire::{get_u32, get_u64};
use pa_mpsim::{CommStats, Packet, TerminationBackend, TerminationHandle, Transport, Wire};

use crate::frame::{self, Kind};

/// How long a parked wait sleeps between liveness checks. Condvar
/// notifications wake waiters immediately; the slice only bounds how
/// late a *missed* signal (or a crash flag set without one) is noticed.
const WAIT_SLICE: Duration = Duration::from_millis(50);

/// What the reader threads hand the engine thread.
struct Inbox<M> {
    packets: VecDeque<Packet<M>>,
    /// Set by the reader that saw the ledger balance; consumed by the
    /// next `recv_timeout` that finds no packet (its early `None`).
    ledger_done: bool,
}

/// Send-buffer pool cap: beyond this many parked buffers, recycled
/// buffers are dropped instead of hoarded.
const POOL_CAP: usize = 256;

/// State shared between the engine thread and the reader threads.
pub(crate) struct Shared<M> {
    pub(crate) rank: usize,
    pub(crate) world: usize,
    /// One writer per peer (`None` at `self.rank`). A `Mutex` because
    /// reader threads also send (`TERM` acknowledgement-free broadcasts
    /// never originate from readers, but collectives and termination
    /// flushes can race engine-side sends only through this lock).
    writers: Vec<Option<Mutex<TcpStream>>>,
    /// Packets parsed by reader threads, awaiting the engine.
    inbox: Mutex<Inbox<M>>,
    inbox_cv: Condvar,
    /// Recycled send buffers; readers also draw decode buffers from
    /// here, closing the acquire → send → decode → recycle loop.
    pool: Mutex<Vec<Vec<M>>>,
    coll: Mutex<CollState>,
    coll_cv: Condvar,
    coll_round: AtomicU64,
    /// Collective deadline in milliseconds. Atomic so the driver can
    /// tighten it to the engine's stall budget after bootstrap — a
    /// wedged collective then fires the stall-watchdog diagnostic
    /// instead of blocking past `GenOptions::stall_timeout`.
    coll_timeout_ms: AtomicU64,
    term: TermState,
    /// Per-peer: orderly `BYE` received.
    peer_bye: Vec<AtomicBool>,
    /// Per-peer: connection died without `BYE`.
    peer_crashed: Vec<AtomicBool>,
    /// Why (first failure wins); indexed like `peer_crashed`.
    peer_reason: Mutex<Vec<Option<String>>>,
    /// Set by `close()`: read errors after this are expected teardown.
    shutting_down: AtomicBool,
}

/// Collective rounds in flight. Keyed by round number so a fast parent
/// starting round `n + 1` cannot corrupt a slow child still in `n`.
#[derive(Default)]
struct CollState {
    /// Up-phase contributions received per round: `(rank, value)`.
    up: HashMap<u64, Vec<(u32, u64)>>,
    /// Down-phase snapshot received per round.
    down: HashMap<u64, Vec<u64>>,
}

/// The distributed termination ledger.
struct TermState {
    /// Work registered locally since the last barrier (unpublished).
    staged: AtomicU64,
    /// Global registered total, grown identically on every rank by each
    /// barrier.
    target: AtomicU64,
    /// Last known completed count per rank; `[self.rank]` is live, the
    /// rest advance on `TERM` frames.
    completed: Vec<AtomicU64>,
    /// Own completed count as last broadcast.
    broadcast: AtomicU64,
}

/// Number of ranks in the binary-tree subtree rooted at `r`.
fn subtree_size(r: usize, world: usize) -> usize {
    if r >= world {
        0
    } else {
        1 + subtree_size(2 * r + 1, world) + subtree_size(2 * r + 2, world)
    }
}

impl<M: Wire + Send + 'static> Shared<M> {
    fn new(
        rank: usize,
        world: usize,
        writers: Vec<Option<Mutex<TcpStream>>>,
        coll_timeout: Duration,
    ) -> Self {
        Shared {
            rank,
            world,
            writers,
            inbox: Mutex::new(Inbox {
                packets: VecDeque::new(),
                ledger_done: false,
            }),
            inbox_cv: Condvar::new(),
            pool: Mutex::new(Vec::new()),
            coll: Mutex::new(CollState::default()),
            coll_cv: Condvar::new(),
            coll_round: AtomicU64::new(0),
            coll_timeout_ms: AtomicU64::new(coll_timeout.as_millis().max(1) as u64),
            term: TermState {
                staged: AtomicU64::new(0),
                target: AtomicU64::new(0),
                completed: (0..world).map(|_| AtomicU64::new(0)).collect(),
                broadcast: AtomicU64::new(0),
            },
            peer_bye: (0..world).map(|_| AtomicBool::new(false)).collect(),
            peer_crashed: (0..world).map(|_| AtomicBool::new(false)).collect(),
            peer_reason: Mutex::new(vec![None; world]),
            shutting_down: AtomicBool::new(false),
        }
    }

    /// Write a prebuilt frame to `dest`. Errors mark the peer down and
    /// drop the frame: sends never fail (the "late traffic" rule); the
    /// receive paths surface the crash.
    fn send_bytes(&self, dest: usize, bytes: &[u8]) {
        use std::io::Write;
        if let Some(w) = &self.writers[dest] {
            let mut stream = w.lock().unwrap();
            if let Err(e) = stream.write_all(bytes) {
                self.mark_peer_down(dest, &format!("write failed: {e}"));
            }
        }
    }

    /// Record a dead connection and wake anything parked on it.
    fn mark_peer_down(&self, peer: usize, why: &str) {
        if self.shutting_down.load(Ordering::Acquire) || self.peer_bye[peer].load(Ordering::Acquire)
        {
            return; // expected teardown, not a crash
        }
        {
            let mut reasons = self.peer_reason.lock().unwrap();
            reasons[peer].get_or_insert_with(|| why.to_string());
        }
        self.peer_crashed[peer].store(true, Ordering::Release);
        self.inbox_cv.notify_all();
        self.coll_cv.notify_all();
    }

    /// Panic with a diagnostic if any peer died without a `BYE`.
    fn check_alive(&self, during: &str) {
        for p in 0..self.world {
            if self.peer_crashed[p].load(Ordering::Acquire) {
                let why = self.peer_reason.lock().unwrap()[p]
                    .clone()
                    .unwrap_or_else(|| "connection lost".into());
                panic!(
                    "rank {}: lost connection to rank {p} during {during} ({why}); \
                     peer died mid-run, aborting",
                    self.rank
                );
            }
        }
    }

    /// Broadcast our completed counter if it moved since the last
    /// broadcast. Called from every receive path and every collective,
    /// so new counts ride the engine's existing service cadence.
    fn flush_term(&self) {
        if self.world == 1 {
            return;
        }
        let own = self.term.completed[self.rank].load(Ordering::Acquire);
        if own > self.term.broadcast.load(Ordering::Acquire) {
            self.term.broadcast.store(own, Ordering::Release);
            let mut buf = Vec::with_capacity(13);
            frame::build_frame(&mut buf, Kind::Term, |b| {
                b.extend_from_slice(&own.to_le_bytes());
            });
            for p in 0..self.world {
                if p != self.rank {
                    self.send_bytes(p, &buf);
                }
            }
        }
    }

    /// Every registered unit of work is known to be completed; see
    /// [`TermState`].
    fn ledger_balanced(&self) -> bool {
        if self.term.staged.load(Ordering::Acquire) != 0 {
            return false; // unpublished local work
        }
        let target = self.term.target.load(Ordering::Acquire);
        let done: u64 = self
            .term
            .completed
            .iter()
            .map(|c| c.load(Ordering::Acquire))
            .sum();
        done >= target
    }

    /// The global quiescence predicate.
    fn term_done(&self) -> bool {
        if !self.ledger_balanced() {
            return false;
        }
        // Our own final count must reach the other ranks or they will
        // wait forever; the flush is idempotent once broadcast.
        self.flush_term();
        true
    }

    /// One tree round: every rank contributes `val`; every rank returns
    /// with the full per-rank snapshot.
    fn collective(&self, val: u64) -> Vec<u64> {
        self.flush_term();
        if self.world == 1 {
            return vec![val];
        }
        let round = self.coll_round.fetch_add(1, Ordering::SeqCst);
        let r = self.rank;
        let children: Vec<usize> = [2 * r + 1, 2 * r + 2]
            .into_iter()
            .filter(|&c| c < self.world)
            .collect();
        let expected: usize = children.iter().map(|&c| subtree_size(c, self.world)).sum();
        let timeout = Duration::from_millis(self.coll_timeout_ms.load(Ordering::Acquire));
        let deadline = Instant::now() + timeout;

        // Up phase: wait for the whole subtree, then contribute upward.
        let mut pairs: Vec<(u32, u64)> = Vec::with_capacity(expected + 1);
        pairs.push((r as u32, val));
        {
            let mut g = self.coll.lock().unwrap();
            while g.up.get(&round).map_or(0, Vec::len) < expected {
                drop(g);
                self.check_alive("a collective (up phase)");
                assert!(
                    Instant::now() < deadline,
                    "stall watchdog fired on rank {r}: collective round {round} made no \
                     progress for {timeout:?} waiting for child contributions — is a peer \
                     wedged?"
                );
                g = self.coll.lock().unwrap();
                let (ng, _) = self.coll_cv.wait_timeout(g, WAIT_SLICE).unwrap();
                g = ng;
            }
            if let Some(mut subtree) = g.up.remove(&round) {
                pairs.append(&mut subtree);
            }
        }

        let snapshot = if r == 0 {
            let mut snap = vec![0u64; self.world];
            for &(pr, pv) in &pairs {
                snap[pr as usize] = pv;
            }
            snap
        } else {
            let mut buf = Vec::with_capacity(4 + 1 + 8 + 4 + pairs.len() * 12);
            frame::build_frame(&mut buf, Kind::CollUp, |b| {
                b.extend_from_slice(&round.to_le_bytes());
                b.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
                for &(pr, pv) in &pairs {
                    b.extend_from_slice(&pr.to_le_bytes());
                    b.extend_from_slice(&pv.to_le_bytes());
                }
            });
            self.send_bytes((r - 1) / 2, &buf);

            // Down phase: wait for the snapshot from the parent.
            let mut g = self.coll.lock().unwrap();
            loop {
                if let Some(snap) = g.down.remove(&round) {
                    break snap;
                }
                drop(g);
                self.check_alive("a collective (down phase)");
                assert!(
                    Instant::now() < deadline,
                    "stall watchdog fired on rank {r}: collective round {round} made no \
                     progress for {timeout:?} waiting for the snapshot — is a peer wedged?"
                );
                g = self.coll.lock().unwrap();
                let (ng, _) = self.coll_cv.wait_timeout(g, WAIT_SLICE).unwrap();
                g = ng;
            }
        };

        // Forward the snapshot to our children.
        if !children.is_empty() {
            let mut buf = Vec::with_capacity(4 + 1 + 8 + 4 + snapshot.len() * 8);
            frame::build_frame(&mut buf, Kind::CollDown, |b| {
                b.extend_from_slice(&round.to_le_bytes());
                b.extend_from_slice(&(snapshot.len() as u32).to_le_bytes());
                for &v in &snapshot {
                    b.extend_from_slice(&v.to_le_bytes());
                }
            });
            for &c in &children {
                self.send_bytes(c, &buf);
            }
        }
        snapshot
    }

    /// Barrier: one collective round that additionally publishes staged
    /// termination adds — every rank grows the target by the same global
    /// total, which is what makes `add → barrier → observe` sound.
    fn barrier_publish(&self) {
        let staged = self.term.staged.swap(0, Ordering::AcqRel);
        let total: u64 = self.collective(staged).iter().sum();
        if total > 0 {
            self.term.target.fetch_add(total, Ordering::AcqRel);
        }
    }

    fn pool_get(&self) -> Option<Vec<M>> {
        self.pool.lock().unwrap().pop()
    }

    fn pool_put(&self, mut buf: Vec<M>) {
        buf.clear();
        let mut pool = self.pool.lock().unwrap();
        if pool.len() < POOL_CAP {
            pool.push(buf);
        }
    }

    /// Body of the reader thread for `peer`'s connection.
    fn reader_loop(&self, peer: usize, mut stream: TcpStream) {
        let mut payload = Vec::new();
        loop {
            let kind = match frame::read_frame(&mut stream, &mut payload) {
                Ok(k) => k,
                Err(e) => {
                    self.mark_peer_down(peer, &format!("connection closed unexpectedly: {e}"));
                    return;
                }
            };
            match kind {
                Kind::Data => {
                    let mut input = payload.as_slice();
                    let Some(count) = get_u32(&mut input) else {
                        self.mark_peer_down(peer, "corrupt DATA frame (no count)");
                        return;
                    };
                    let mut msgs = self.pool_get().unwrap_or_default();
                    msgs.reserve(count as usize);
                    for _ in 0..count {
                        let Some(m) = M::decode(&mut input) else {
                            self.mark_peer_down(peer, "corrupt DATA frame (bad message)");
                            return;
                        };
                        msgs.push(m);
                    }
                    self.inbox
                        .lock()
                        .unwrap()
                        .packets
                        .push_back(Packet { src: peer, msgs });
                    self.inbox_cv.notify_all();
                }
                Kind::Term => {
                    let mut input = payload.as_slice();
                    let Some(v) = get_u64(&mut input) else {
                        self.mark_peer_down(peer, "corrupt TERM frame");
                        return;
                    };
                    let prev = self.term.completed[peer].fetch_max(v, Ordering::AcqRel);
                    // The count that balances the ledger ends the
                    // engine's parked wait: it is quiescent now.
                    if v > prev && self.ledger_balanced() {
                        self.inbox.lock().unwrap().ledger_done = true;
                        self.inbox_cv.notify_all();
                    }
                }
                Kind::CollUp => {
                    let mut input = payload.as_slice();
                    let parsed = (|| {
                        let round = get_u64(&mut input)?;
                        let count = get_u32(&mut input)?;
                        let mut pairs = Vec::with_capacity(count as usize);
                        for _ in 0..count {
                            let pr = get_u32(&mut input)?;
                            let pv = get_u64(&mut input)?;
                            pairs.push((pr, pv));
                        }
                        Some((round, pairs))
                    })();
                    let Some((round, mut pairs)) = parsed else {
                        self.mark_peer_down(peer, "corrupt COLL_UP frame");
                        return;
                    };
                    let mut g = self.coll.lock().unwrap();
                    g.up.entry(round).or_default().append(&mut pairs);
                    drop(g);
                    self.coll_cv.notify_all();
                }
                Kind::CollDown => {
                    let mut input = payload.as_slice();
                    let parsed = (|| {
                        let round = get_u64(&mut input)?;
                        let count = get_u32(&mut input)?;
                        let mut snap = Vec::with_capacity(count as usize);
                        for _ in 0..count {
                            snap.push(get_u64(&mut input)?);
                        }
                        Some((round, snap))
                    })();
                    let Some((round, snap)) = parsed else {
                        self.mark_peer_down(peer, "corrupt COLL_DOWN frame");
                        return;
                    };
                    let mut g = self.coll.lock().unwrap();
                    g.down.insert(round, snap);
                    drop(g);
                    self.coll_cv.notify_all();
                }
                Kind::Bye => {
                    self.peer_bye[peer].store(true, Ordering::Release);
                    return;
                }
                Kind::Hello => {
                    self.mark_peer_down(peer, "unexpected HELLO after bootstrap");
                    return;
                }
            }
        }
    }
}

/// The termination backend handed to [`TerminationHandle`]; see the
/// [module docs](self) for the ledger design.
struct NetTermination<M> {
    shared: Arc<Shared<M>>,
}

impl<M: Wire + Send + 'static> TerminationBackend for NetTermination<M> {
    fn add(&self, n: u64) {
        self.shared.term.staged.fetch_add(n, Ordering::AcqRel);
    }

    fn complete(&self, n: u64) {
        self.shared.term.completed[self.shared.rank].fetch_add(n, Ordering::AcqRel);
    }

    fn is_done(&self) -> bool {
        self.shared.term_done()
    }

    fn outstanding(&self) -> i64 {
        let t = &self.shared.term;
        let known = t.staged.load(Ordering::Acquire) + t.target.load(Ordering::Acquire);
        let done: u64 = t.completed.iter().map(|c| c.load(Ordering::Acquire)).sum();
        known as i64 - done as i64
    }
}

/// A [`Transport`] over per-pair TCP connections; one rank per process.
///
/// Built by [`TcpTransport::connect`] from a [`TcpConfig`] (see
/// [`crate::bootstrap`] for the dial/accept protocol). See the
/// [module docs](self) for the wire design and failure semantics.
///
/// [`TcpConfig`]: crate::TcpConfig
/// [`TcpTransport::connect`]: crate::TcpTransport::connect
pub struct TcpTransport<M: Wire + Send + 'static> {
    pub(crate) shared: Arc<Shared<M>>,
    pub(crate) readers: Vec<JoinHandle<()>>,
    stats: CommStats,
    /// Reused frame-encode buffer for the DATA hot path.
    scratch: Vec<u8>,
    closed: bool,
}

impl<M: Wire + Send + 'static> TcpTransport<M> {
    /// Assemble a transport from bootstrapped connections and spawn the
    /// reader threads. `streams[p]` is the connection to rank `p`
    /// (`None` at `rank`).
    pub(crate) fn from_streams(
        rank: usize,
        world: usize,
        streams: Vec<Option<TcpStream>>,
        coll_timeout: Duration,
    ) -> std::io::Result<Self> {
        let mut writers: Vec<Option<Mutex<TcpStream>>> = Vec::with_capacity(world);
        let mut read_halves: Vec<Option<TcpStream>> = Vec::with_capacity(world);
        for s in streams {
            match s {
                Some(stream) => {
                    stream.set_nodelay(true)?;
                    read_halves.push(Some(stream.try_clone()?));
                    writers.push(Some(Mutex::new(stream)));
                }
                None => {
                    read_halves.push(None);
                    writers.push(None);
                }
            }
        }
        let shared = Arc::new(Shared::new(rank, world, writers, coll_timeout));
        let mut readers = Vec::new();
        for (peer, half) in read_halves.into_iter().enumerate() {
            if let Some(stream) = half {
                let shared = Arc::clone(&shared);
                readers.push(
                    std::thread::Builder::new()
                        .name(format!("pa-net-r{rank}-from{peer}"))
                        .spawn(move || shared.reader_loop(peer, stream))
                        .expect("spawn reader thread"),
                );
            }
        }
        Ok(TcpTransport {
            shared,
            readers,
            stats: CommStats::new(world),
            scratch: Vec::new(),
            closed: false,
        })
    }

    /// Orderly teardown: announce `BYE` on every connection, shut the
    /// sockets down (which unblocks our reader threads), and join them.
    /// Idempotent; also run by `Drop`.
    fn close(&mut self) {
        if self.closed {
            return;
        }
        self.closed = true;
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        let mut bye = Vec::with_capacity(5);
        frame::build_frame(&mut bye, Kind::Bye, |_| {});
        for p in 0..self.shared.world {
            if p != self.shared.rank {
                self.shared.send_bytes(p, &bye);
            }
            if let Some(w) = &self.shared.writers[p] {
                // BYE is queued before FIN: shutdown flushes then closes,
                // and our reader (a clone of this socket) sees EOF.
                let _ = w.lock().unwrap().shutdown(Shutdown::Both);
            }
        }
        for h in self.readers.drain(..) {
            let _ = h.join();
        }
    }

    /// Cap the deadline of every subsequent collective. The driver sets
    /// this to (at most) `GenOptions::stall_timeout` so a wedged barrier
    /// or allreduce fires the stall-watchdog diagnostic on the same
    /// schedule as a wedged point-to-point phase, instead of blocking
    /// for the full bootstrap-time [`crate::TcpConfig::collective_timeout`].
    pub fn set_collective_timeout(&self, timeout: Duration) {
        self.shared
            .coll_timeout_ms
            .store(timeout.as_millis().max(1) as u64, Ordering::Release);
    }

    /// Abruptly sever every connection *without* the orderly `BYE`, as
    /// if this rank had been killed mid-run: peers detect the lost
    /// connection and abort with a diagnostic naming this rank, instead
    /// of waiting out a collective for a rank that left in order. A
    /// rank that fails after connecting leaves this way.
    pub fn sever(mut self) {
        self.closed = true; // suppress the orderly close in Drop
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        for w in self.shared.writers.iter().flatten() {
            let _ = w.lock().unwrap().shutdown(Shutdown::Both);
        }
        for h in self.readers.drain(..) {
            let _ = h.join();
        }
    }
}

impl<M: Wire + Send + 'static> Drop for TcpTransport<M> {
    fn drop(&mut self) {
        self.close();
    }
}

impl<M: Wire + Send + 'static> Transport<M> for TcpTransport<M> {
    fn rank(&self) -> usize {
        self.shared.rank
    }

    fn nranks(&self) -> usize {
        self.shared.world
    }

    fn send_batch(&mut self, dest: usize, msgs: Vec<M>) {
        if msgs.is_empty() {
            return;
        }
        self.stats.on_send(dest, msgs.len() as u64);
        if dest == self.shared.rank {
            self.shared
                .inbox
                .lock()
                .unwrap()
                .packets
                .push_back(Packet { src: dest, msgs });
            self.shared.inbox_cv.notify_all();
            return;
        }
        frame::begin_frame(&mut self.scratch, Kind::Data);
        self.scratch
            .extend_from_slice(&(msgs.len() as u32).to_le_bytes());
        for m in &msgs {
            m.encode(&mut self.scratch);
        }
        frame::finish_frame(&mut self.scratch);
        self.shared.send_bytes(dest, &self.scratch);
        // Only bytes crossed the wire; the buffer is reusable right away.
        self.shared.pool_put(msgs);
    }

    fn acquire_buffer(&mut self, _dest: usize) -> Vec<M> {
        match self.shared.pool_get() {
            Some(buf) => {
                self.stats.pool_hits += 1;
                buf
            }
            None => {
                self.stats.pool_misses += 1;
                Vec::new()
            }
        }
    }

    /// Zero-capacity buffers are dropped uncounted, as on the
    /// in-process transports.
    fn recycle(&mut self, _src: usize, buf: Vec<M>) {
        if buf.capacity() == 0 {
            return;
        }
        self.stats.bufs_recycled += 1;
        self.shared.pool_put(buf);
    }

    fn try_recv(&mut self) -> Option<Packet<M>> {
        self.shared.flush_term();
        self.shared.check_alive("a receive");
        let pkt = self.shared.inbox.lock().unwrap().packets.pop_front()?;
        self.stats.on_recv(pkt.src, pkt.msgs.len() as u64);
        Some(pkt)
    }

    fn drain_recv(&mut self, out: &mut Vec<Packet<M>>) -> usize {
        self.shared.flush_term();
        self.shared.check_alive("a receive");
        let start = out.len();
        {
            let mut q = self.shared.inbox.lock().unwrap();
            out.extend(q.packets.drain(..));
        }
        for pkt in &out[start..] {
            self.stats.on_recv(pkt.src, pkt.msgs.len() as u64);
        }
        out.len() - start
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Option<Packet<M>> {
        self.shared.flush_term();
        let deadline = Instant::now().checked_add(timeout);
        let mut q = self.shared.inbox.lock().unwrap();
        loop {
            if let Some(pkt) = q.packets.pop_front() {
                drop(q);
                self.stats.on_recv(pkt.src, pkt.msgs.len() as u64);
                return Some(pkt);
            }
            if std::mem::take(&mut q.ledger_done) {
                return None;
            }
            drop(q);
            self.shared.check_alive("a receive");
            let now = Instant::now();
            let wait = match deadline {
                Some(deadline) if now >= deadline => return None,
                Some(deadline) => (deadline - now).min(WAIT_SLICE),
                None => WAIT_SLICE,
            };
            q = self.shared.inbox.lock().unwrap();
            // Re-checked under the lock: an arrival between the unlock
            // above and here has already notified.
            if q.packets.is_empty() && !q.ledger_done {
                q = self.shared.inbox_cv.wait_timeout(q, wait).unwrap().0;
            }
        }
    }

    fn barrier(&self) {
        self.shared.barrier_publish();
    }

    fn allgather_u64(&self, val: u64) -> Vec<u64> {
        self.shared.collective(val)
    }

    fn termination(&self) -> TerminationHandle {
        TerminationHandle::from_backend(Arc::new(NetTermination {
            shared: Arc::clone(&self.shared),
        }))
    }

    fn stats(&self) -> &CommStats {
        &self.stats
    }

    fn stats_mut(&mut self) -> &mut CommStats {
        &mut self.stats
    }

    fn into_stats(mut self) -> CommStats {
        self.close();
        std::mem::take(&mut self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subtree_sizes_partition_the_world() {
        for world in 1..40 {
            assert_eq!(subtree_size(0, world), world, "world {world}");
            for r in 0..world {
                let children: usize = [2 * r + 1, 2 * r + 2]
                    .into_iter()
                    .filter(|&c| c < world)
                    .map(|c| subtree_size(c, world))
                    .sum();
                assert_eq!(subtree_size(r, world), 1 + children);
            }
        }
    }
}
