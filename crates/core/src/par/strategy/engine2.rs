//! The general strategy — Algorithm 3.2 (`x ≥ 1`).
//!
//! Every rank sweeps its own nodes in ascending order. A node's `x` edge
//! slots are driven **in slot order**: slot `(t, e)` runs its draw/retry
//! loop only once slots `(t, 0..e)` have committed. Direct choices commit
//! immediately; copy choices either resolve from the local `F` table, from
//! the replicated hub cache, park in a waiter slot, or become a `request`
//! message to the owner of `k`. Incoming requests are answered immediately
//! when the slot is known or parked in the waiter table otherwise; a
//! commit drains the slot's waiters, sending `resolved` messages
//! (buffered, with the §3.5.2 flush discipline). Duplicate edges are
//! rejected against the committed prefix of the row, re-drawing with an
//! incremented attempt counter.
//!
//! **State.** Per local node the engine keeps only what it cannot read
//! back from `F`: `F` itself, one waiter bit per slot, and a one-byte
//! tag naming the draw whose `request` is out. There is no per-node
//! cursor. Slots commit in order, so a node's next slot is the first
//! unset one in its `F` row — and every event that resumes a node names
//! it anyway: a commit moves on to `(t, e + 1)` at attempt 0, and a
//! parked draw's answer (a local event or a `resolved` message) carries
//! its slot and attempt, so a rejected duplicate re-draws from `a + 1`.
//! A draw's attempt counter therefore lives on the stack or in the
//! message, never in the table.
//!
//! **Determinism.** In-order slots give every attempt of `(t, e)` exactly
//! the visibility the sequential generator has at the same point: the
//! committed values of `(t, 0..e)` and the unique committed `F_k(l)`
//! (requests and cache hits both return committed-only values). Every
//! attempt therefore accepts or rejects identically, so the engine emits
//! the *same edge set as `seq::copy_model`* for every rank count,
//! partitioning scheme, message timing, and hub-cache setting — the
//! property the determinism suite pins down. The cost is that one node's
//! remote lookups serialize; parallelism across the many nodes of a rank
//! is untouched, and low-label lookups — the common case, by Lemma 3.4 —
//! are absorbed by the hub cache anyway.
//!
//! The service/flush/park/termination loop — and the termination argument
//! (a `request` in flight always belongs to an uncommitted slot) — lives
//! in [`crate::par::driver`]; this module only supplies the per-slot state
//! machine. At a checkpoint cut no request is out, so every tag is 0 and
//! a restored engine rebuilds nothing: the loaded `F` prefix is the
//! whole state ([`Strategy::restored`] keeps its default).

use std::collections::{HashMap, VecDeque};

use pa_mpsim::Transport;

use super::hub::HubCache;
use super::waiters::{Taken, WaiterTable};
use super::Strategy;
use crate::par::driver::Net;
use crate::par::msg::Msg;
use crate::par::output::EngineCounters;
use crate::par::sink::EdgeSink;
use crate::partition::Partition;
use crate::store::{AnyTable, NodeTable};
use crate::{GenOptions, Model, ModelKind, Node, PaConfig, NILL};

/// Someone waiting for a local slot to resolve.
#[derive(Debug, Clone, Copy)]
enum Waiter {
    /// Draw `a` of slot `(t, e)`, owned by this same rank.
    Local { t: Node, e: u32, a: u32 },
    /// A slot owned by rank `src` (answer with a `resolved` message
    /// echoing the request's attempt tag `a`).
    Remote { t: Node, e: u32, a: u32, src: usize },
}

/// The tag of a node whose outstanding draw is attempt 254 or later: tags
/// saturate here, and the exact attempt moves to [`General::overflow`].
const TAG_OVERFLOW: u8 = u8::MAX;

/// What `try_slot` did with the current slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotOutcome {
    /// The slot committed; the node may advance.
    Committed,
    /// The slot parked (local waiter or remote request); the node resumes
    /// when the answer arrives.
    Waiting,
}

pub(crate) struct General<'a, P: Partition, S: EdgeSink> {
    cfg: &'a PaConfig,
    part: &'a P,
    rank: usize,
    /// The resolved attachment model this rank draws from.
    model: Model,
    /// Flattened `F_t(e)` slots for local nodes: `local_index(t)·x + e`.
    /// Resident or disk-paged per [`GenOptions::store`] — the engine's
    /// only store-backed table, so it takes the whole memory budget.
    f: AnyTable,
    /// Per local node (by local index): `attempt + 1` of the draw whose
    /// `request` is out, or 0 when none is. A node has at most one
    /// request out (its slots run in order, and a parked slot draws
    /// nothing new), so one byte per node tells a current answer from a
    /// stale one. Tags saturate at [`TAG_OVERFLOW`].
    tags: Vec<u8>,
    /// The exact outstanding attempt of every node tagged
    /// [`TAG_OVERFLOW`], by local index — empty unless one slot draws
    /// more than 254 times.
    overflow: HashMap<usize, u32>,
    /// Waiters per local slot index.
    waiters: WaiterTable<Waiter>,
    /// Replicated low-label rows, computed at construction (see
    /// [`super::hub`]).
    hub: HubCache,
    /// Locally produced resolutions awaiting processing: `(t, e, v, a)`,
    /// answering draw `a` of slot `(t, e)`.
    local_events: VecDeque<(Node, u32, Node, u32)>,
    edges: S,
    counters: EngineCounters,
}

impl<'a, P: Partition, S: EdgeSink> General<'a, P, S> {
    pub(crate) fn new(
        cfg: &'a PaConfig,
        part: &'a P,
        rank: usize,
        nranks: usize,
        opts: &GenOptions,
        sink: S,
    ) -> Self {
        let x = cfg.x;
        let size = part.size_of(rank);
        let slots = size * x;
        let model = Model::resolve(cfg, ModelKind::Pa);
        // A single rank resolves everything locally; skip the replica.
        let hub_nodes = if nranks > 1 { opts.hub_nodes(cfg.n) } else { 0 };
        let f = AnyTable::build_for(cfg.n, &opts.store, rank, "f", slots, NILL)
            .unwrap_or_else(|e| panic!("rank {rank}: opening node table f: {e}"));
        General {
            cfg,
            part,
            rank,
            model,
            f,
            tags: vec![0; size as usize],
            overflow: HashMap::new(),
            waiters: WaiterTable::new(slots as usize),
            hub: HubCache::new(cfg, &model, hub_nodes),
            local_events: VecDeque::new(),
            edges: sink,
            counters: EngineCounters {
                nodes: size,
                ..Default::default()
            },
        }
    }

    /// The sink and counters, after [`crate::par::driver::run`] returns.
    pub(crate) fn into_parts(self) -> (S, EngineCounters) {
        (self.edges, self.counters)
    }

    /// Slot index of `(t, e)` on this rank.
    #[inline]
    fn slot(&self, t: Node, e: u32) -> u64 {
        self.part.local_index(t) * self.cfg.x + u64::from(e)
    }

    /// Does `t`'s committed target row already contain `v`?
    #[inline]
    fn row_contains(&mut self, t: Node, v: Node) -> bool {
        let row = self.part.local_index(t) * self.cfg.x;
        self.f.row_contains(row, self.cfg.x, v)
    }

    /// Record that local node `li` has a request out for draw `attempt`.
    /// Forced inline for the reason [`WaiterTable::take`] is.
    #[inline(always)]
    fn set_outstanding(&mut self, li: usize, attempt: u32) {
        debug_assert_eq!(self.tags[li], 0, "two requests out for one node");
        match u8::try_from(attempt + 1) {
            Ok(tag) if tag < TAG_OVERFLOW => self.tags[li] = tag,
            _ => {
                self.tags[li] = TAG_OVERFLOW;
                self.overflow.insert(li, attempt);
            }
        }
    }

    /// If draw `a` is local node `li`'s outstanding request, clear it and
    /// return true; otherwise (another draw is out, or none) return false.
    #[inline]
    fn take_outstanding(&mut self, li: usize, a: u32) -> bool {
        let current = match self.tags[li] {
            0 => false,
            TAG_OVERFLOW => self.overflow.get(&li) == Some(&a),
            tag => u32::from(tag - 1) == a,
        };
        if current {
            if self.tags[li] == TAG_OVERFLOW {
                self.overflow.remove(&li);
            }
            self.tags[li] = 0;
        }
        current
    }

    /// Drive node `t` forward from draw `attempt` of slot `e`: run each
    /// slot in order until one parks (local wait or remote request) or
    /// the node completes.
    fn advance_node<T: Transport<Msg>>(
        &mut self,
        net: &mut Net<'_, T>,
        t: Node,
        mut e: u32,
        mut attempt: u32,
    ) {
        while u64::from(e) < self.cfg.x {
            if self.try_slot(net, t, e, attempt) == SlotOutcome::Waiting {
                return;
            }
            e += 1;
            attempt = 0;
        }
    }

    /// The attempt loop for the *current* slot `(t, e)` from draw
    /// `attempt` on (Alg. 3.2 lines 5–15, under the in-order discipline).
    fn try_slot<T: Transport<Msg>>(
        &mut self,
        net: &mut Net<'_, T>,
        t: Node,
        e: u32,
        mut attempt: u32,
    ) -> SlotOutcome {
        // Hoist the (seed, t) key prefix: every re-draw of this slot then
        // pays one key mix instead of three (the high-x duplicate-retry
        // hot spot).
        let keys = self.model.keys_for(t);
        debug_assert_eq!(
            self.f.get(self.slot(t, e)),
            NILL,
            "draw for a committed slot"
        );
        loop {
            let c = self.model.draw_keyed(&keys, t, e, attempt);
            let (v, direct) = if c.direct {
                (c.k, true)
            } else {
                // Copy branch: we need the committed F_k(l).
                let owner = self.part.rank_of(c.k);
                if owner == self.rank {
                    let kslot = self.slot(c.k, c.l as u32);
                    let fk = self.f.get(kslot);
                    if fk == NILL {
                        self.counters.local_deferred += 1;
                        self.waiters
                            .push(kslot as usize, Waiter::Local { t, e, a: attempt });
                        self.note_waiter_high_water();
                        return SlotOutcome::Waiting;
                    }
                    self.counters.local_immediate += 1;
                    (fk, false)
                } else if let Some(v) = self.hub.get(c.k, c.l as u32) {
                    // Hub hit: the committed value, no round trip.
                    self.counters.hub_hits += 1;
                    (v, false)
                } else {
                    // Alg. 3.2 line 14: ask the owner of k. The attempt
                    // tag comes back with the answer, so stale duplicates
                    // of earlier answers can be told apart from it.
                    self.counters.requests_sent += 1;
                    self.set_outstanding(self.part.local_index(t) as usize, attempt);
                    net.send_req(
                        owner,
                        Msg::Request {
                            t,
                            e,
                            k: c.k,
                            l: c.l as u32,
                            a: attempt,
                        },
                    );
                    return SlotOutcome::Waiting;
                }
            };
            if self.row_contains(t, v) {
                self.counters.duplicate_retries += 1;
                attempt += 1;
                continue;
            }
            if direct {
                self.counters.direct_edges += 1;
            } else {
                self.counters.copy_edges += 1;
            }
            self.commit(net, t, e, v);
            return SlotOutcome::Committed;
        }
    }

    #[inline]
    fn note_waiter_high_water(&mut self) {
        self.counters.max_queued_waiters = self.counters.max_queued_waiters.max(self.waiters.len());
    }

    /// Record `F_t(e) = v`, emit the edge, and notify waiters.
    fn commit<T: Transport<Msg>>(&mut self, net: &mut Net<'_, T>, t: Node, e: u32, v: Node) {
        let li = self.part.local_index(t);
        let slot = li * self.cfg.x + u64::from(e);
        debug_assert!(
            e == 0 || self.f.get(slot - 1) != NILL,
            "out-of-order commit of ({t},{e})"
        );
        debug_assert_eq!(self.f.get(slot), NILL, "double commit of ({t},{e})");
        debug_assert!(!self.row_contains(t, v), "duplicate committed at ({t},{e})");
        self.f.set(slot, v);
        self.edges.emit(t, v);
        net.complete(1);
        match self.waiters.take(slot as usize) {
            Taken::None => {}
            Taken::One(w) => self.notify(net, w, v),
            Taken::Many(list) => {
                for &w in &list {
                    self.notify(net, w, v);
                }
                self.waiters.recycle(list);
            }
        }
    }

    #[inline]
    fn notify<T: Transport<Msg>>(&mut self, net: &mut Net<'_, T>, w: Waiter, v: Node) {
        match w {
            Waiter::Remote { t, e, a, src } => {
                net.send_res(src, Msg::Resolved { t, e, v, a });
            }
            Waiter::Local { t, e, a } => {
                self.local_events.push_back((t, e, v, a));
            }
        }
    }

    /// A `resolved` message from the wire for slot `(t, e)`, answer to the
    /// request tagged `a`. Under faulty delivery the message can be a
    /// duplicate, so it must be *idempotent*: answers for an
    /// already-committed slot, and answers whose attempt tag is not the
    /// node's outstanding draw, are discarded. Without the tag check a
    /// duplicated answer racing a duplicate-retry of the same slot would
    /// be taken for the answer to the *re-drawn* request — re-drawing
    /// from the wrong attempt and diverging the edge set from the
    /// sequential generator's.
    fn handle_resolved_msg<T: Transport<Msg>>(
        &mut self,
        net: &mut Net<'_, T>,
        t: Node,
        e: u32,
        v: Node,
        a: u32,
    ) {
        // A set slot is a late duplicate of an answer already consumed;
        // otherwise the slot is the node's current one, and the tag says
        // whether `a` is the draw it is waiting on.
        let li = self.part.local_index(t) as usize;
        if self.f.get(self.slot(t, e)) != NILL || !self.take_outstanding(li, a) {
            self.counters.stale_resolutions += 1;
            return;
        }
        self.handle_resolved(net, t, e, v, a);
    }

    /// A resolution `v` for draw `a` of the current slot `(t, e)`: commit
    /// unless duplicate (Alg. 3.2 lines 21–29), then push the node
    /// onward. Callers must have established that the value answers the
    /// slot's latest draw (wire answers go through
    /// [`Self::handle_resolved_msg`]; local events are generated at
    /// commit time for a parked draw, and parked slots draw nothing new
    /// until woken).
    fn handle_resolved<T: Transport<Msg>>(
        &mut self,
        net: &mut Net<'_, T>,
        t: Node,
        e: u32,
        v: Node,
        a: u32,
    ) {
        if self.row_contains(t, v) {
            // Re-enter the attempt loop at the next draw.
            self.counters.duplicate_retries += 1;
            self.advance_node(net, t, e, a + 1);
        } else {
            self.counters.copy_edges += 1;
            self.commit(net, t, e, v);
            self.advance_node(net, t, e + 1, 0);
        }
    }
}

impl<'a, P: Partition, S: EdgeSink> Strategy for General<'a, P, S> {
    fn register(&mut self, lo: Node, hi: Node) -> u64 {
        super::register_clique(self.part, self.rank, self.cfg.x, lo, hi, &mut self.edges)
    }

    fn attach_seed_node<T: Transport<Msg>>(&mut self, net: &mut Net<'_, T>, lo: Node, hi: Node) {
        // Node x attaches deterministically to all seed nodes (gated on
        // its label's epoch, so its slots complete exactly the work the
        // same epoch registered).
        let x = self.cfg.x;
        if self.part.num_nodes() > x && (lo..hi).contains(&x) && self.part.rank_of(x) == self.rank {
            for e in 0..x {
                self.commit(net, x, e as u32, e);
            }
        }
    }

    fn start_nodes<T: Transport<Msg>>(&mut self, net: &mut Net<'_, T>, ts: &[Node]) {
        for &t in ts {
            self.advance_node(net, t, 0, 0);
            self.drain_local(net);
        }
    }

    fn drain_local<T: Transport<Msg>>(&mut self, net: &mut Net<'_, T>) {
        while let Some((t, e, v, a)) = self.local_events.pop_front() {
            self.handle_resolved(net, t, e, v, a);
        }
    }

    fn handle_msgs<T: Transport<Msg>>(
        &mut self,
        net: &mut Net<'_, T>,
        src: usize,
        msgs: &mut Vec<Msg>,
    ) {
        for msg in msgs.drain(..) {
            match msg {
                Msg::Request { t, e, k, l, a } => {
                    // Alg. 3.2 lines 16–20. A duplicated request is
                    // harmless either way: served twice it produces two
                    // identical answers (the second discarded as stale by
                    // the requester), parked twice it wakes twice with
                    // the same effect.
                    debug_assert_eq!(self.part.rank_of(k), self.rank);
                    let kslot = self.slot(k, l);
                    let fk = self.f.get(kslot);
                    if fk == NILL {
                        self.counters.requests_queued += 1;
                        self.waiters
                            .push(kslot as usize, Waiter::Remote { t, e, a, src });
                        self.note_waiter_high_water();
                    } else {
                        self.counters.requests_served += 1;
                        net.send_res(src, Msg::Resolved { t, e, v: fk, a });
                    }
                }
                Msg::Resolved { t, e, v, a } => {
                    debug_assert_eq!(self.part.rank_of(t), self.rank);
                    self.handle_resolved_msg(net, t, e, v, a);
                }
            }
        }
    }

    fn finish(&mut self) {
        debug_assert!(self.waiters.is_empty(), "waiters left after termination");
    }

    fn sink_mark(&mut self) -> std::io::Result<(u64, u64)> {
        self.edges.checkpoint_mark()
    }

    fn state(&mut self) -> (&mut AnyTable, &mut EngineCounters) {
        // At the epoch cut every local node below it is fully committed
        // and everything at or above it is untouched, so the prefix of
        // `f` plus the counters is the whole engine: no request is out
        // (every tag is 0), waiter tables are provably empty (`finish`
        // just asserted it), and the hub replica is recomputed by `new`.
        // Clique-node rows (labels < x) legitimately hold NILL: their
        // slots are never drawn or queried.
        (&mut self.f, &mut self.counters)
    }

    fn stall_report(&mut self) -> String {
        let x = self.cfg.x;
        let uncommitted = (0..self.tags.len() as u64)
            .filter(|&li| self.f.get(li * x + x - 1) == NILL)
            .count();
        format!(
            "uncommitted_nodes={uncommitted} waiters={} stale_resolutions={}",
            self.waiters.len(),
            self.counters.stale_resolutions,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{self, Scheme};
    use pa_graph::EdgeList;
    use pa_mpsim::LoopbackTransport;

    type Engine<'a> = General<'a, partition::AnyPartition, EdgeList>;

    /// Everything an answer could change: F, the emitted edges, and the
    /// stale count.
    fn observe(engine: &mut Engine<'_>) -> (Vec<Node>, EdgeList, u64) {
        let slots = engine.tags.len() as u64 * engine.cfg.x;
        let f = (0..slots).map(|s| engine.f.get(s)).collect();
        (f, engine.edges.clone(), engine.counters.stale_resolutions)
    }

    /// Deliver one `resolved` message from rank 1, then its local cascade.
    fn answer<T: Transport<Msg>>(
        engine: &mut Engine<'_>,
        net: &mut Net<'_, T>,
        (t, e, v, a): (Node, u32, Node, u32),
    ) {
        engine.handle_msgs(net, 1, &mut vec![Msg::Resolved { t, e, v, a }]);
        engine.drain_local(net);
    }

    /// Deliver an answer that must be stale: exactly one more stale
    /// resolution, and F and the edges untouched.
    fn assert_stale<T: Transport<Msg>>(
        engine: &mut Engine<'_>,
        net: &mut Net<'_, T>,
        msg: (Node, u32, Node, u32),
    ) {
        let (f, edges, stale) = observe(engine);
        answer(engine, net, msg);
        let after = observe(engine);
        assert_eq!(after.2, stale + 1, "{msg:?} is not counted stale once");
        assert!(
            after.0 == f && after.1 == edges,
            "{msg:?} changed F or the edges"
        );
    }

    #[test]
    fn stale_answers_change_nothing_but_the_stale_count() {
        // Copy-only (p = 0) with the hub off: a node's draws can only
        // park on an uncommitted local slot or ask rank 1, so nothing
        // commits except the answers fed here.
        let cfg = PaConfig {
            n: 200,
            x: 2,
            p: 0.0,
            seed: 5,
        };
        let part = partition::build(Scheme::Rrp, cfg.n, 2);
        let opts = GenOptions::default().without_hub_cache();
        let mut engine = General::new(&cfg, &part, 0, 2, &opts, EdgeList::new());
        let mut comm = LoopbackTransport::<Msg>::new();
        let mut net = Net::for_test(&mut comm, 2);
        let li = |t: Node| part.local_index(t) as usize;
        // A rank-0 node whose draw `a` of slot `e` asks rank 1.
        let asks = |e: u32, a: u32| {
            (10..cfg.n)
                .step_by(2)
                .find(|&t| {
                    let c = engine.model.draw_keyed(&engine.model.keys_for(t), t, e, a);
                    part.rank_of(c.k) == 1
                })
                .expect("some node asks rank 1")
        };
        let (t1, t2) = (asks(1, 0), asks(1, 1));
        assert_ne!(t1, t2, "pick another seed");

        // A second copy of an accepted answer. Slot (t1, 1) then asks
        // with draw 0 as well, so the tag alone would take the copy for
        // its answer: the set slot (t1, 0) is what marks it stale.
        engine.set_outstanding(li(t1), 0);
        answer(&mut engine, &mut net, (t1, 0, 7, 0));
        assert_eq!(engine.f.get(engine.slot(t1, 0)), 7, "the copy commits");
        assert_eq!(engine.tags[li(t1)], 1, "slot 1 asks with draw 0");
        assert_stale(&mut engine, &mut net, (t1, 0, 7, 0));

        // A superseded draw after a duplicate retry: 5 is already in the
        // row, so the answer to draw 0 of slot (t2, 1) re-draws, and draw
        // 1 asks rank 1; a copy of the answer to draw 0 is stale.
        engine.commit(&mut net, t2, 0, 5);
        engine.set_outstanding(li(t2), 0);
        answer(&mut engine, &mut net, (t2, 1, 5, 0));
        assert_eq!(engine.counters.duplicate_retries, 1);
        assert_eq!(engine.tags[li(t2)], 2, "draw 1 asks");
        assert_stale(&mut engine, &mut net, (t2, 1, 5, 0));
        assert_stale(&mut engine, &mut net, (t2, 1, 9, 0));

        // The overflow path: draw 300 of slot (t3, 0) is out. Neither an
        // earlier draw nor one whose tag byte would alias it (44 + 1 and
        // 300 + 1 agree mod 256) is taken for its answer; the answer
        // itself is.
        let t3 = t1.max(t2) + 2;
        engine.set_outstanding(li(t3), 300);
        assert_eq!(engine.tags[li(t3)], TAG_OVERFLOW);
        assert_stale(&mut engine, &mut net, (t3, 0, 9, 299));
        assert_stale(&mut engine, &mut net, (t3, 0, 9, 44));
        answer(&mut engine, &mut net, (t3, 0, 9, 300));
        assert_eq!(engine.f.get(engine.slot(t3, 0)), 9);
        assert!(engine.overflow.is_empty(), "{:?}", engine.overflow);
    }

    #[test]
    fn tags_hold_draws_below_254_and_overflow_the_rest_exactly() {
        let cfg = PaConfig::new(100, 2);
        let part = partition::build(Scheme::Rrp, cfg.n, 2);
        let opts = GenOptions::default();
        let mut engine = General::new(&cfg, &part, 0, 2, &opts, EdgeList::new());
        for a in [0, 1, 253, 254, 255, 1 << 20] {
            engine.set_outstanding(3, a);
            assert_eq!(engine.tags[3] == TAG_OVERFLOW, a >= 254, "draw {a}");
            assert!(!engine.take_outstanding(3, a.wrapping_sub(1)), "draw {a}");
            assert!(!engine.take_outstanding(3, a + 256), "draw {a}");
            assert!(engine.take_outstanding(3, a), "draw {a}");
            assert!(!engine.take_outstanding(3, a), "draw {a} answered twice");
            assert_eq!((engine.tags[3], engine.overflow.len()), (0, 0), "draw {a}");
        }
    }
}
