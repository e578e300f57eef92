//! Deterministic fault injection over any [`Transport`].
//!
//! The SC'13 engines are written against reliable FIFO MPI delivery, but
//! their correctness argument (deferred `F_k` resolution along dependency
//! chains, Lemmas 3.1–3.4) silently assumes every `request`/`resolved`
//! message arrives *exactly once and in order*. [`FaultTransport`] is the
//! adversary that checks the assumption: it wraps an inner transport and
//! perturbs the receive path according to a seeded [`FaultPlan`] —
//!
//! * **delay**: hold a packet for `delay_polls` receive calls;
//! * **reorder**: let a packet from another source overtake this one
//!   (per-pair FIFO is *preserved* — only cross-pair order, which MPI
//!   never promised, is shuffled);
//! * **duplicate**: deliver the packet twice, the clone a few polls
//!   later — the engine must be idempotent against it;
//! * **drop**: simulate a lost wire transfer. With
//!   [`FaultPlan::recover`] the internal ack/retransmit sublayer
//!   re-delivers it after `retransmit_polls` (counted in
//!   [`CommStats::retransmitted`]); without recovery the packet is gone
//!   for good, which must trip the driver's stall watchdog rather than
//!   hang the run;
//! * **ack loss**: the packet arrives, but its (simulated) acknowledgement
//!   does not, so the sender retransmits — the redundant copy is caught by
//!   per-source sequence numbers and discarded *below* the engine
//!   (counted in [`CommStats::deduped`]).
//!
//! Every decision is a pure function of `(plan.seed, src, dst, seq)`, so a
//! fault schedule is reproducible run-to-run regardless of thread timing.
//! Countdowns are measured in *polls* (receive calls on this rank), not
//! wall time, which keeps schedules meaningful under arbitrary scheduler
//! jitter and lets the parking receive honour the [`Transport`] contract:
//! [`FaultTransport::recv_timeout`] parks on the inner transport in short
//! slices while deliveries are pending and delegates the full wait when
//! nothing is staged; an inner wait ended early by a termination event is
//! handed on once the staged countdowns are spent.
//!
//! The send path, packet pool, collectives, and termination detector pass
//! straight through to the inner transport.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use crate::comm::Packet;
use crate::stats::CommStats;
use crate::transport::Transport;
use crate::TerminationHandle;

/// How long [`FaultTransport::recv_timeout`] parks on the inner transport
/// per slice while staged deliveries are counting down. Short enough that
/// a countdown of a few polls resolves in ~1 ms; long enough not to spin.
const TICK_SLICE: Duration = Duration::from_micros(200);

/// A seeded, per-packet fault schedule.
///
/// Probabilities are evaluated once per arriving packet, mutually
/// exclusively (their sum must be ≤ 1); the remainder delivers clean.
/// `*_polls` fields measure countdowns in receive calls on the destination
/// rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed of the schedule. Two runs with the same seed (and the same
    /// per-pair packet sequence) draw identical faults.
    pub seed: u64,
    /// Probability a packet is held back `delay_polls` receive calls.
    pub p_delay: f64,
    /// How many polls a delayed packet waits.
    pub delay_polls: u32,
    /// Probability a packet lets one packet from a *different* source
    /// overtake it (cross-pair reorder; per-pair FIFO is preserved).
    pub p_reorder: f64,
    /// Probability a packet is delivered twice (the engine sees both).
    pub p_dup: f64,
    /// How many polls after the original the duplicate arrives.
    pub dup_polls: u32,
    /// Probability the wire transfer is lost.
    pub p_drop: f64,
    /// Probability the transfer succeeds but its acknowledgement is lost,
    /// provoking a spurious retransmission (deduplicated below the
    /// engine).
    pub p_ack_loss: f64,
    /// How many polls the retransmit timer runs before a dropped or
    /// unacknowledged packet is re-delivered.
    pub retransmit_polls: u32,
    /// Whether the ack/retransmit sublayer recovers dropped packets.
    /// `false` models an unreliable transport with no recovery: dropped
    /// packets stay lost, and a run that depended on one must be caught
    /// by the stall watchdog instead of hanging.
    pub recover: bool,
}

impl FaultPlan {
    /// A schedule with every fault disabled (useful as a baseline).
    pub fn none(seed: u64) -> Self {
        Self {
            seed,
            p_delay: 0.0,
            delay_polls: 0,
            p_reorder: 0.0,
            p_dup: 0.0,
            dup_polls: 0,
            p_drop: 0.0,
            p_ack_loss: 0.0,
            retransmit_polls: 0,
            recover: true,
        }
    }

    /// Mild background noise: a few percent of packets delayed,
    /// reordered, duplicated, dropped-and-recovered, or spuriously
    /// retransmitted.
    pub fn light(seed: u64) -> Self {
        Self {
            p_delay: 0.05,
            delay_polls: 2,
            p_reorder: 0.03,
            p_dup: 0.02,
            dup_polls: 2,
            p_drop: 0.02,
            p_ack_loss: 0.02,
            retransmit_polls: 4,
            ..Self::none(seed)
        }
    }

    /// Heavy weather: roughly half of all packets suffer some fault.
    pub fn aggressive(seed: u64) -> Self {
        Self {
            p_delay: 0.15,
            delay_polls: 4,
            p_reorder: 0.10,
            p_dup: 0.08,
            dup_polls: 3,
            p_drop: 0.10,
            p_ack_loss: 0.05,
            retransmit_polls: 6,
            ..Self::none(seed)
        }
    }

    /// Pure loss with the recovery sublayer switched off: every fourth
    /// packet vanishes permanently. Runs under this plan are *expected*
    /// to stall — it exists to test the watchdog path.
    pub fn drop_without_recovery(seed: u64) -> Self {
        Self {
            p_drop: 0.25,
            recover: false,
            ..Self::none(seed)
        }
    }

    /// Check internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if any probability lies outside `[0, 1]` or the
    /// probabilities sum above 1 (fault kinds are mutually exclusive per
    /// packet).
    pub fn validate(&self) {
        for (name, p) in [
            ("p_delay", self.p_delay),
            ("p_reorder", self.p_reorder),
            ("p_dup", self.p_dup),
            ("p_drop", self.p_drop),
            ("p_ack_loss", self.p_ack_loss),
        ] {
            assert!((0.0..=1.0).contains(&p), "{name} = {p} must lie in [0, 1]");
        }
        let total = self.p_delay + self.p_reorder + self.p_dup + self.p_drop + self.p_ack_loss;
        assert!(
            total <= 1.0 + 1e-9,
            "fault probabilities sum to {total} > 1 (they are mutually exclusive per packet)"
        );
    }

    /// The fault drawn for the `seq`-th packet of the `(src, dst)` pair —
    /// a pure function of the plan seed and the packet's identity.
    fn draw(&self, src: usize, dst: usize, seq: u64) -> FaultKind {
        // splitmix64 over the packet identity: decorrelates consecutive
        // sequence numbers and (src, dst) pairs.
        let mut z = self
            .seed
            .wrapping_add((src as u64) << 40)
            .wrapping_add((dst as u64) << 20)
            .wrapping_add(seq)
            .wrapping_add(0x9e3779b97f4a7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^= z >> 31;
        let u = (z >> 11) as f64 / (1u64 << 53) as f64;
        let mut cum = self.p_drop;
        if u < cum {
            return FaultKind::Drop;
        }
        cum += self.p_delay;
        if u < cum {
            return FaultKind::Delay;
        }
        cum += self.p_reorder;
        if u < cum {
            return FaultKind::Reorder;
        }
        cum += self.p_dup;
        if u < cum {
            return FaultKind::Dup;
        }
        cum += self.p_ack_loss;
        if u < cum {
            return FaultKind::AckLoss;
        }
        FaultKind::None
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum FaultKind {
    None,
    Delay,
    Reorder,
    Dup,
    Drop,
    AckLoss,
}

/// A packet staged in its source queue, waiting for its release poll.
struct Staged<M> {
    pkt: Packet<M>,
    /// This packet's position in its (src, dst) sequence.
    seq: u64,
    /// Deliverable once the rank's poll counter reaches this value.
    release_at: u64,
    /// Remaining chances to let another source's packet overtake this one.
    skip_budget: u8,
    /// Whether delivering this packet counts as a retransmission.
    retransmit: bool,
}

/// A clone parked outside the FIFO queues: an engine-visible duplicate or
/// a spurious (ack-loss) retransmission awaiting dedup.
struct SideEntry<M> {
    pkt: Packet<M>,
    seq: u64,
    ready_at: u64,
    /// `true`: bypass dedup and deliver to the engine (duplicate fault).
    /// `false`: run the sequence-number dedup check (ack-loss
    /// retransmission — must be discarded).
    engine_visible: bool,
}

/// A [`Transport`] decorator that perturbs packet delivery under a seeded
/// [`FaultPlan`]; see the [module docs](self).
///
/// Wraps any inner transport. Sends, the packet pool, collectives, and
/// termination pass through untouched; the receive path stages arriving
/// packets per source (preserving per-pair FIFO), applies the drawn fault
/// and releases packets as the poll counter advances.
pub struct FaultTransport<M, T: Transport<M>> {
    inner: T,
    plan: FaultPlan,
    /// Receive calls on this rank — the clock faults count down against.
    polls: u64,
    /// Next sequence number per source (first packet of a pair is seq 1).
    seqs: Vec<u64>,
    /// Highest sequence number delivered per source, for retransmit dedup.
    delivered_seq: Vec<u64>,
    /// Per-source staging queues (head-of-line order is FIFO per pair).
    srcq: Vec<VecDeque<Staged<M>>>,
    /// Duplicates and spurious retransmissions, outside FIFO order.
    side: Vec<SideEntry<M>>,
    /// Packets released to the engine, in delivery order.
    ready: VecDeque<Packet<M>>,
    /// Reusable scratch for draining the inner transport.
    rx_buf: Vec<Packet<M>>,
}

impl<M: Clone + Send, T: Transport<M>> FaultTransport<M, T> {
    /// Wrap `inner`, perturbing its receive path according to `plan`.
    ///
    /// # Panics
    ///
    /// Panics if `plan` is invalid (see [`FaultPlan::validate`]).
    pub fn new(inner: T, plan: FaultPlan) -> Self {
        plan.validate();
        let nranks = inner.nranks();
        Self {
            inner,
            plan,
            polls: 0,
            seqs: vec![0; nranks],
            delivered_seq: vec![0; nranks],
            srcq: (0..nranks).map(|_| VecDeque::new()).collect(),
            side: Vec::new(),
            ready: VecDeque::new(),
            rx_buf: Vec::new(),
        }
    }

    /// The active fault schedule.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Unwrap, discarding any still-staged packets (only duplicates or
    /// late traffic can remain staged once a run has terminated).
    pub fn into_inner(self) -> T {
        self.inner
    }

    /// Pull everything the inner transport has queued into the staging
    /// area, drawing one fault decision per packet.
    fn pump(&mut self) {
        let mut buf = std::mem::take(&mut self.rx_buf);
        self.inner.drain_recv(&mut buf);
        for pkt in buf.drain(..) {
            self.stage(pkt);
        }
        self.rx_buf = buf;
    }

    /// Apply the drawn fault to one arriving packet.
    fn stage(&mut self, pkt: Packet<M>) {
        let src = pkt.src;
        let dst = self.inner.rank();
        self.seqs[src] += 1;
        let seq = self.seqs[src];
        let kind = self.plan.draw(src, dst, seq);
        if kind != FaultKind::None {
            self.inner.stats_mut().faults_injected += 1;
        }
        let mut staged = Staged {
            pkt,
            seq,
            release_at: self.polls,
            skip_budget: 0,
            retransmit: false,
        };
        match kind {
            FaultKind::None => {}
            FaultKind::Delay => {
                staged.release_at = self.polls + u64::from(self.plan.delay_polls);
            }
            FaultKind::Reorder => {
                staged.skip_budget = 1;
            }
            FaultKind::Dup => {
                self.side.push(SideEntry {
                    pkt: clone_packet(&staged.pkt),
                    seq,
                    ready_at: self.polls + u64::from(self.plan.dup_polls),
                    engine_visible: true,
                });
            }
            FaultKind::Drop => {
                if !self.plan.recover {
                    // No recovery sublayer: the packet is gone. Account
                    // the loss so a post-mortem can see what vanished.
                    return;
                }
                // The retransmit timer re-delivers the original after its
                // timeout; FIFO order within the pair is preserved
                // because the queue head blocks successors.
                staged.release_at = self.polls + u64::from(self.plan.retransmit_polls);
                staged.retransmit = true;
            }
            FaultKind::AckLoss => {
                // Delivery succeeds now; the lost ack provokes a
                // retransmission that the dedup layer must swallow.
                self.side.push(SideEntry {
                    pkt: clone_packet(&staged.pkt),
                    seq,
                    ready_at: self.polls + u64::from(self.plan.retransmit_polls),
                    engine_visible: false,
                });
            }
        }
        self.srcq[src].push_back(staged);
    }

    /// Move every deliverable staged packet into the ready queue.
    ///
    /// Sweeps the per-source queues repeatedly until no sweep makes
    /// progress: a queue head releases once its poll countdown has run
    /// out, except that a reorder-marked head with skip budget left defers
    /// to a ready head of *another* source (cross-pair overtaking — the
    /// only reordering MPI semantics permit us to inject).
    fn release(&mut self) {
        loop {
            let ready_head: Vec<bool> = self
                .srcq
                .iter()
                .map(|q| q.front().is_some_and(|s| s.release_at <= self.polls))
                .collect();
            let mut progressed = false;
            for s in 0..self.srcq.len() {
                while let Some(head) = self.srcq[s].front_mut() {
                    if head.release_at > self.polls {
                        break;
                    }
                    if head.skip_budget > 0
                        && ready_head.iter().enumerate().any(|(o, &r)| o != s && r)
                    {
                        head.skip_budget -= 1;
                        break; // let the other source's head go first
                    }
                    let staged = self.srcq[s].pop_front().expect("head checked above");
                    self.delivered_seq[s] = self.delivered_seq[s].max(staged.seq);
                    if staged.retransmit {
                        self.inner.stats_mut().retransmitted += 1;
                    }
                    self.ready.push_back(staged.pkt);
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        // Side-channel deliveries: duplicates go to the engine, spurious
        // retransmissions die against the delivered-sequence ledger.
        let mut i = 0;
        while i < self.side.len() {
            if self.side[i].ready_at > self.polls {
                i += 1;
                continue;
            }
            let entry = self.side.swap_remove(i);
            if entry.engine_visible {
                self.ready.push_back(entry.pkt);
            } else {
                debug_assert!(
                    entry.seq <= self.delivered_seq[entry.pkt.src]
                        || self.srcq[entry.pkt.src].iter().any(|s| s.seq == entry.seq),
                    "retransmission for a packet that was never staged"
                );
                if entry.seq <= self.delivered_seq[entry.pkt.src] {
                    self.inner.stats_mut().retransmitted += 1;
                    self.inner.stats_mut().deduped += 1;
                } else {
                    // Original not delivered yet — the retransmission is
                    // still in flight behind it; try again later.
                    self.side.push(SideEntry {
                        ready_at: self.polls + u64::from(self.plan.retransmit_polls).max(1),
                        ..entry
                    });
                }
            }
        }
    }

    /// Advance the poll clock one tick and collect deliverable packets.
    fn tick(&mut self) {
        self.polls += 1;
        self.pump();
        self.release();
    }

    /// Anything staged that still needs poll ticks to become deliverable?
    fn has_pending(&self) -> bool {
        !self.side.is_empty() || self.srcq.iter().any(|q| !q.is_empty())
    }
}

fn clone_packet<M: Clone>(pkt: &Packet<M>) -> Packet<M> {
    Packet {
        src: pkt.src,
        msgs: pkt.msgs.clone(),
    }
}

impl<M: Clone + Send, T: Transport<M>> Transport<M> for FaultTransport<M, T> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn nranks(&self) -> usize {
        self.inner.nranks()
    }

    fn send_batch(&mut self, dest: usize, msgs: Vec<M>) {
        self.inner.send_batch(dest, msgs);
    }

    fn acquire_buffer(&mut self, dest: usize) -> Vec<M> {
        self.inner.acquire_buffer(dest)
    }

    fn recycle(&mut self, src: usize, buf: Vec<M>) {
        self.inner.recycle(src, buf);
    }

    fn try_recv(&mut self) -> Option<Packet<M>> {
        self.tick();
        self.ready.pop_front()
    }

    fn drain_recv(&mut self, out: &mut Vec<Packet<M>>) -> usize {
        self.tick();
        let n = self.ready.len();
        out.extend(self.ready.drain(..));
        n
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Option<Packet<M>> {
        let deadline = Instant::now().checked_add(timeout);
        // An inner wait that ended early: a termination event (the
        // receive contract), handed on once the staged countdowns are
        // spent.
        let mut woken = false;
        loop {
            self.tick();
            if let Some(pkt) = self.ready.pop_front() {
                return Some(pkt);
            }
            let remaining = match deadline {
                None => Duration::MAX,
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return None;
                    }
                    deadline - now
                }
            };
            if self.has_pending() {
                // Staged countdowns need poll ticks to progress: park in
                // short slices so a held packet releases promptly.
                let slice = remaining.min(TICK_SLICE);
                let start = Instant::now();
                match self.inner.recv_timeout(slice) {
                    Some(pkt) => self.stage(pkt),
                    None => woken |= start.elapsed() < slice,
                }
            } else if woken {
                return None;
            } else {
                // Nothing staged: delegate the whole wait. The inner
                // transport wakes promptly on arrival (its contract), and
                // an inner timeout means genuinely nothing arrived.
                match self.inner.recv_timeout(remaining) {
                    Some(pkt) => self.stage(pkt),
                    None => return None,
                }
            }
        }
    }

    fn barrier(&self) {
        self.inner.barrier();
    }

    fn allgather_u64(&self, val: u64) -> Vec<u64> {
        self.inner.allgather_u64(val)
    }

    fn termination(&self) -> TerminationHandle {
        self.inner.termination()
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loopback::LoopbackTransport;

    fn faulty(plan: FaultPlan) -> FaultTransport<u64, LoopbackTransport<u64>> {
        FaultTransport::new(LoopbackTransport::new(), plan)
    }

    /// Drive the transport's receive side until `n` messages came out (or
    /// a generous tick budget is exhausted), returning them in order.
    fn drain_n(t: &mut FaultTransport<u64, LoopbackTransport<u64>>, n: usize) -> Vec<u64> {
        let mut got = Vec::new();
        for _ in 0..10_000 {
            if let Some(pkt) = t.try_recv() {
                got.extend(pkt.msgs);
            }
            if got.len() >= n {
                break;
            }
        }
        got
    }

    #[test]
    fn draw_is_deterministic_and_covers_all_kinds() {
        let plan = FaultPlan::aggressive(1);
        let mut seen = std::collections::HashSet::new();
        for seq in 0..10_000u64 {
            let a = plan.draw(0, 1, seq);
            assert_eq!(a, plan.draw(0, 1, seq), "same key, same fault");
            seen.insert(a);
        }
        for kind in [
            FaultKind::None,
            FaultKind::Delay,
            FaultKind::Reorder,
            FaultKind::Dup,
            FaultKind::Drop,
            FaultKind::AckLoss,
        ] {
            assert!(seen.contains(&kind), "{kind:?} never drawn in 10k packets");
        }
    }

    #[test]
    fn clean_plan_is_transparent() {
        let mut t = faulty(FaultPlan::none(3));
        for i in 0..100u64 {
            t.send(0, i);
        }
        assert_eq!(drain_n(&mut t, 100), (0..100).collect::<Vec<_>>());
        assert_eq!(t.stats().faults_injected, 0);
    }

    #[test]
    fn fifo_per_pair_is_preserved_under_all_recovering_faults() {
        // A single source can never be overtaken (reorder is cross-pair
        // only), so even an aggressive plan must keep the sequence intact
        // once duplicates are tolerated.
        let mut t = faulty(FaultPlan {
            p_dup: 0.0, // duplicates repeat values; exclude for strictness
            ..FaultPlan::aggressive(7)
        });
        for i in 0..500u64 {
            t.send(0, i);
        }
        let got = drain_n(&mut t, 500);
        assert_eq!(got, (0..500).collect::<Vec<_>>(), "per-pair FIFO broken");
        let stats = t.into_stats();
        assert!(
            stats.faults_injected > 0,
            "aggressive plan injected nothing"
        );
        assert!(stats.retransmitted > 0, "no drop was recovered");
        assert!(stats.deduped > 0, "no spurious retransmission was deduped");
    }

    #[test]
    fn duplicates_surface_to_the_engine() {
        let plan = FaultPlan {
            p_dup: 1.0,
            dup_polls: 1,
            ..FaultPlan::none(5)
        };
        let mut t = faulty(plan);
        t.send(0, 42);
        let got = drain_n(&mut t, 2);
        assert_eq!(got, vec![42, 42], "duplicate fault must deliver twice");
        assert_eq!(t.stats().faults_injected, 1);
    }

    #[test]
    fn unrecovered_drops_vanish() {
        let plan = FaultPlan {
            p_drop: 1.0,
            recover: false,
            ..FaultPlan::none(5)
        };
        let mut t = faulty(plan);
        t.send(0, 9);
        for _ in 0..50 {
            assert!(t.try_recv().is_none(), "dropped packet must stay lost");
        }
        assert_eq!(t.stats().faults_injected, 1);
        assert_eq!(t.stats().retransmitted, 0);
    }

    #[test]
    fn recovered_drop_is_redelivered_and_counted() {
        let plan = FaultPlan {
            p_drop: 1.0,
            retransmit_polls: 3,
            ..FaultPlan::none(5)
        };
        let mut t = faulty(plan);
        t.send(0, 77);
        let got = drain_n(&mut t, 1);
        assert_eq!(got, vec![77]);
        assert_eq!(t.stats().retransmitted, 1);
        assert_eq!(t.stats().deduped, 0);
    }

    #[test]
    fn delayed_packet_released_after_its_countdown() {
        let plan = FaultPlan {
            p_delay: 1.0,
            delay_polls: 4,
            ..FaultPlan::none(5)
        };
        let mut t = faulty(plan);
        t.send(0, 1);
        // The packet is staged on the first tick and held for 4 more.
        assert!(t.try_recv().is_none());
        let mut waited = 0;
        let val = loop {
            waited += 1;
            if let Some(pkt) = t.try_recv() {
                break pkt.msgs[0];
            }
            assert!(waited < 100, "delayed packet never released");
        };
        assert_eq!(val, 1);
        assert!(waited >= 3, "released before the countdown ran out");
    }

    #[test]
    fn recv_timeout_delivers_pending_delayed_packets() {
        let plan = FaultPlan {
            p_delay: 1.0,
            delay_polls: 5,
            ..FaultPlan::none(9)
        };
        let mut t = faulty(plan);
        t.send(0, 8);
        let start = Instant::now();
        let pkt = t
            .recv_timeout(Duration::from_secs(30))
            .expect("delayed packet must be delivered, not time out");
        assert_eq!(pkt.msgs, vec![8]);
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn recv_timeout_with_nothing_staged_inherits_inner_semantics() {
        // Over a loopback inner (which returns immediately — its only
        // sender is this thread), an empty fault transport must not spin.
        let mut t = faulty(FaultPlan::aggressive(1));
        let start = Instant::now();
        assert!(t.recv_timeout(Duration::from_secs(60)).is_none());
        assert!(start.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn ack_loss_retransmission_is_deduped_below_the_engine() {
        let plan = FaultPlan {
            p_ack_loss: 1.0,
            retransmit_polls: 2,
            ..FaultPlan::none(5)
        };
        let mut t = faulty(plan);
        t.send(0, 13);
        let got = drain_n(&mut t, 1);
        assert_eq!(got, vec![13]);
        // Let the spurious retransmission fire and be swallowed.
        for _ in 0..20 {
            assert!(t.try_recv().is_none(), "retransmission leaked to engine");
        }
        let stats = t.into_stats();
        assert_eq!(stats.deduped, 1);
        assert_eq!(stats.retransmitted, 1);
    }

    #[test]
    fn same_seed_same_schedule() {
        let run = |seed: u64| {
            let mut t = faulty(FaultPlan::aggressive(seed));
            for i in 0..300u64 {
                t.send(0, i);
            }
            let got = drain_n(&mut t, 300);
            let stats = t.into_stats();
            (got, stats.faults_injected, stats.retransmitted)
        };
        assert_eq!(run(11), run(11), "fault schedule must be reproducible");
        let kinds = |seed: u64| {
            let plan = FaultPlan::aggressive(seed);
            (0..300u64).map(|s| plan.draw(0, 0, s)).collect::<Vec<_>>()
        };
        assert_ne!(
            kinds(11),
            kinds(12),
            "different seeds should draw different schedules"
        );
    }

    #[test]
    #[should_panic(expected = "must lie in [0, 1]")]
    fn invalid_probability_rejected() {
        let _ = faulty(FaultPlan {
            p_drop: 1.5,
            ..FaultPlan::none(0)
        });
    }

    #[test]
    #[should_panic(expected = "sum to")]
    fn probabilities_summing_above_one_rejected() {
        let _ = faulty(FaultPlan {
            p_drop: 0.6,
            p_delay: 0.6,
            ..FaultPlan::none(0)
        });
    }

    #[test]
    fn collectives_and_pool_pass_through() {
        let mut t = faulty(FaultPlan::light(2));
        assert_eq!(t.rank(), 0);
        assert_eq!(t.nranks(), 1);
        assert_eq!(t.allreduce_sum(4), 4);
        assert_eq!(t.broadcast_u64(0, 9), 9);
        t.barrier();
        let buf = t.acquire_buffer(0);
        t.recycle(0, buf);
        let term = t.termination();
        assert!(term.is_done());
    }
}
