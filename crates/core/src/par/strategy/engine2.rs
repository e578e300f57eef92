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
//! machine.

use std::collections::VecDeque;

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
use crate::{GenOptions, Model, Node, PaConfig, NILL};

/// Someone waiting for a local slot to resolve.
#[derive(Debug, Clone, Copy)]
enum Waiter {
    /// A slot owned by this same rank.
    Local { t: Node, e: u32 },
    /// A slot owned by rank `src` (answer with a `resolved` message
    /// echoing the request's attempt tag `a`).
    Remote { t: Node, e: u32, a: u32, src: usize },
}

/// A local node's in-order progress: the one slot it may run next and
/// that slot's draw counter. The slot discipline keeps exactly one
/// attempt counter per node alive, so both live side by side — 8 bytes
/// per node, resident, one cache line per visit. Never checkpointed:
/// a committed node's cursor is `x`, an untouched one's is 0.
#[derive(Debug, Clone, Copy, Default)]
struct Cursor {
    /// Next edge index the node must commit.
    next_e: u32,
    /// Draws taken so far for slot `next_e` (`attempt` in the draw key);
    /// reset at commit.
    attempt: u32,
}

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
    /// Per local node (by local index): see [`Cursor`].
    cursors: Vec<Cursor>,
    /// Waiters per local slot index.
    waiters: WaiterTable<Waiter>,
    /// Replicated low-label rows, computed at construction (see
    /// [`super::hub`]).
    hub: HubCache,
    /// Locally produced resolutions awaiting processing `(t, e, v)`.
    local_events: VecDeque<(Node, u32, Node)>,
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
        let model = Model::resolve(cfg, opts.model);
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
            cursors: vec![Cursor::default(); size as usize],
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

    /// Drive node `t` forward: run each slot from `next_e` in order until
    /// one parks (local wait or remote request) or the node completes.
    fn advance_node<T: Transport<Msg>>(&mut self, net: &mut Net<'_, T>, t: Node) {
        let li = self.part.local_index(t) as usize;
        while u64::from(self.cursors[li].next_e) < self.cfg.x {
            let e = self.cursors[li].next_e;
            if self.try_slot(net, t, e) == SlotOutcome::Waiting {
                return;
            }
        }
    }

    /// The attempt loop for the *current* slot `(t, e)` (Alg. 3.2 lines
    /// 5–15, under the in-order discipline).
    fn try_slot<T: Transport<Msg>>(
        &mut self,
        net: &mut Net<'_, T>,
        t: Node,
        e: u32,
    ) -> SlotOutcome {
        // Hoist the (seed, t) key prefix: every re-draw of this slot then
        // pays one key mix instead of three (the high-x duplicate-retry
        // hot spot).
        let keys = self.model.keys_for(t);
        let li = self.part.local_index(t) as usize;
        debug_assert_eq!(self.cursors[li].next_e, e, "draw for a non-current slot");
        loop {
            let attempt = self.cursors[li].attempt;
            self.cursors[li].attempt = attempt + 1;
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
                        self.waiters.push(kslot as usize, Waiter::Local { t, e });
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
        let cursor = &mut self.cursors[li as usize];
        debug_assert_eq!(cursor.next_e, e, "out-of-order commit of ({t},{e})");
        *cursor = Cursor {
            next_e: e + 1,
            attempt: 0,
        };
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
            Waiter::Local { t, e } => {
                self.local_events.push_back((t, e, v));
            }
        }
    }

    /// A `resolved` message from the wire for slot `(t, e)`, answer to the
    /// request tagged `a`. Under faulty delivery the message can be a
    /// duplicate, so it must be *idempotent*: answers for an
    /// already-committed slot, and answers whose attempt tag is not the
    /// slot's latest outstanding draw, are discarded. Without the tag
    /// check a duplicated answer racing a duplicate-retry of the same
    /// slot would be taken for the answer to the *re-drawn* request —
    /// spuriously advancing the attempt counter and diverging the edge
    /// set from the sequential generator's.
    fn handle_resolved_msg<T: Transport<Msg>>(
        &mut self,
        net: &mut Net<'_, T>,
        t: Node,
        e: u32,
        v: Node,
        a: u32,
    ) {
        let cursor = self.cursors[self.part.local_index(t) as usize];
        if cursor.next_e != e {
            // The slot already committed (and possibly its successors
            // too): a late duplicate of an answer we consumed.
            self.counters.stale_resolutions += 1;
            return;
        }
        // `(t, e)` is the node's current slot, so the node's counter is
        // this slot's.
        if a + 1 != cursor.attempt {
            // Answer to a superseded draw of the current slot.
            self.counters.stale_resolutions += 1;
            return;
        }
        self.handle_resolved(net, t, e, v);
    }

    /// A resolution for the current slot `(t, e)`: commit unless duplicate
    /// (Alg. 3.2 lines 21–29), then push the node onward. Callers must
    /// have established that the value answers the slot's latest draw
    /// (wire answers go through [`Self::handle_resolved_msg`]; local
    /// events are generated at commit time for a parked current draw,
    /// and parked slots draw nothing new until woken).
    fn handle_resolved<T: Transport<Msg>>(
        &mut self,
        net: &mut Net<'_, T>,
        t: Node,
        e: u32,
        v: Node,
    ) {
        debug_assert_eq!(
            self.cursors[self.part.local_index(t) as usize].next_e,
            e,
            "resolution for a non-current slot"
        );
        if self.row_contains(t, v) {
            self.counters.duplicate_retries += 1;
        } else {
            self.counters.copy_edges += 1;
            self.commit(net, t, e, v);
        }
        // Re-enters the attempt loop on duplicate, or starts slot e+1.
        self.advance_node(net, t);
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

    fn start_node<T: Transport<Msg>>(&mut self, net: &mut Net<'_, T>, t: Node) {
        self.advance_node(net, t);
    }

    fn drain_local<T: Transport<Msg>>(&mut self, net: &mut Net<'_, T>) {
        while let Some((t, e, v)) = self.local_events.pop_front() {
            self.handle_resolved(net, t, e, v);
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
        // `f` plus the counters is the whole engine: a committed node's
        // attempt counter is dead and its cursor is rebuilt, waiter
        // tables are provably empty (`finish` just asserted it), and the
        // hub replica is recomputed by `new`. Clique-node rows (labels < x)
        // legitimately hold NILL: their slots are never drawn or queried.
        (&mut self.f, &mut self.counters)
    }

    fn restored(&mut self, hi: Node) {
        let below = self.part.local_count_below(self.rank, hi) as usize;
        let committed = Cursor {
            next_e: self.cfg.x as u32,
            attempt: 0,
        };
        let (done, fresh) = self.cursors.split_at_mut(below);
        done.fill(committed);
        fresh.fill(Cursor::default());
    }

    fn stall_report(&mut self) -> String {
        let uncommitted = self
            .cursors
            .iter()
            .filter(|c| u64::from(c.next_e) < self.cfg.x)
            .count();
        format!(
            "uncommitted_nodes={uncommitted} waiters={} stale_resolutions={}",
            self.waiters.len(),
            self.counters.stale_resolutions,
        )
    }
}
