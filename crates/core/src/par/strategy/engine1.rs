//! The `x = 1` strategy — Algorithm 3.1, exactly as the paper states it.
//!
//! Structurally a simplification of the general strategy: one attachment
//! slot per node and no duplicate checks (a single edge cannot collide).
//! Its `⟨request, t, k⟩` / `⟨resolved, t, v⟩` are Algorithm 3.2's
//! messages at `e = l = 0` with attempt tag 0 ([`Msg`]), so it runs over
//! every transport the other engines do. Because no retries exist, the
//! generated edge set is a pure function of the seed — bit-identical for
//! every rank count and partitioning scheme — which the test suite
//! exploits heavily.
//!
//! The service/flush/park/termination loop lives in
//! [`crate::par::driver`]; this module only supplies the per-node state
//! machine. All randomness flows through [`crate::Model`], so the x = 1
//! protocol serves any counter-pure attachment model.

use std::collections::VecDeque;

use pa_mpsim::Transport;

use super::waiters::{Taken, WaiterTable};
use super::Strategy;
use crate::par::driver::Net;
use crate::par::msg::Msg;
use crate::par::output::EngineCounters;
use crate::par::sink::EdgeSink;
use crate::partition::Partition;
use crate::store::{AnyTable, NodeTable};
use crate::{Engine, GenOptions, Model, Node, PaConfig, NILL};

#[derive(Debug, Clone, Copy)]
enum Waiter {
    Local { t: Node },
    Remote { t: Node, src: usize },
}

pub(crate) struct X1<'a, P: Partition, S: EdgeSink> {
    part: &'a P,
    rank: usize,
    /// The resolved attachment model this rank draws from.
    model: Model,
    /// `F_t` per local node (by local index). Resident or disk-paged
    /// per [`GenOptions::store`].
    f: AnyTable,
    waiters: WaiterTable<Waiter>,
    local_events: VecDeque<(Node, Node)>,
    edges: S,
    counters: EngineCounters,
}

impl<'a, P: Partition, S: EdgeSink> X1<'a, P, S> {
    pub(crate) fn new(
        cfg: &'a PaConfig,
        part: &'a P,
        rank: usize,
        opts: &GenOptions,
        sink: S,
    ) -> Self {
        debug_assert_eq!(Engine::X1.check(cfg.x), Ok(()));
        let size = part.size_of(rank);
        let f = AnyTable::build_for(cfg.n, &opts.store, rank, "f", size, NILL)
            .unwrap_or_else(|e| panic!("rank {rank}: opening node table f: {e}"));
        X1 {
            part,
            rank,
            model: Model::resolve(cfg, opts.model),
            f,
            waiters: WaiterTable::new(size as usize),
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

    #[inline]
    fn note_waiter_high_water(&mut self) {
        self.counters.max_queued_waiters = self.counters.max_queued_waiters.max(self.waiters.len());
    }

    /// Set `F_t = v`, emit the edge and notify waiters (lines 16–19).
    fn commit<T: Transport<Msg>>(&mut self, net: &mut Net<'_, T>, t: Node, v: Node) {
        let slot = self.part.local_index(t);
        debug_assert_eq!(self.f.get(slot), NILL);
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
            Waiter::Remote { t, src } => {
                net.send_res(src, Msg::Resolved { t, e: 0, v, a: 0 });
            }
            Waiter::Local { t } => self.local_events.push_back((t, v)),
        }
    }

    /// Algorithm 3.1 lines 3–9 for node `t`.
    fn start_node<T: Transport<Msg>>(&mut self, net: &mut Net<'_, T>, t: Node) {
        let c = self.model.draw(t, 0, 0);
        if c.direct {
            self.counters.direct_edges += 1;
            self.commit(net, t, c.k);
            return;
        }
        let owner = self.part.rank_of(c.k);
        if owner == self.rank {
            let kslot = self.part.local_index(c.k);
            let fk = self.f.get(kslot);
            if fk == NILL {
                self.counters.local_deferred += 1;
                self.waiters.push(kslot as usize, Waiter::Local { t });
                self.note_waiter_high_water();
            } else {
                self.counters.local_immediate += 1;
                self.counters.copy_edges += 1;
                self.commit(net, t, fk);
            }
        } else {
            self.counters.requests_sent += 1;
            net.send_req(
                owner,
                Msg::Request {
                    t,
                    e: 0,
                    k: c.k,
                    l: 0,
                    a: 0,
                },
            );
        }
    }
}

impl<'a, P: Partition, S: EdgeSink> Strategy for X1<'a, P, S> {
    fn register(&mut self, lo: Node, hi: Node) -> u64 {
        // Node 0 contributes no slot; every other local node in `[lo, hi)`
        // one.
        let seeds_here = u64::from(lo == 0 && self.part.rank_of(0) == self.rank);
        self.part.local_count_below(self.rank, hi)
            - self.part.local_count_below(self.rank, lo)
            - seeds_here
    }

    fn attach_seed_node<T: Transport<Msg>>(&mut self, net: &mut Net<'_, T>, lo: Node, hi: Node) {
        // Node 1 attaches to node 0 (the x = 1 boundary case), in the
        // epoch containing label 1.
        if self.part.num_nodes() > 1 && (lo..hi).contains(&1) && self.part.rank_of(1) == self.rank {
            self.commit(net, 1, 0);
        }
    }

    fn start_nodes<T: Transport<Msg>>(&mut self, net: &mut Net<'_, T>, ts: &[Node]) {
        for &t in ts {
            self.start_node(net, t);
            self.drain_local(net);
        }
    }

    fn drain_local<T: Transport<Msg>>(&mut self, net: &mut Net<'_, T>) {
        while let Some((t, v)) = self.local_events.pop_front() {
            self.counters.copy_edges += 1;
            self.commit(net, t, v);
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
                    // Lines 11–15.
                    debug_assert_eq!((e, l, a), (0, 0, 0), "a slot-addressed x = 1 request");
                    debug_assert_eq!(self.part.rank_of(k), self.rank);
                    let kslot = self.part.local_index(k);
                    let fk = self.f.get(kslot);
                    if fk == NILL {
                        self.counters.requests_queued += 1;
                        self.waiters.push(kslot as usize, Waiter::Remote { t, src });
                        self.note_waiter_high_water();
                    } else {
                        self.counters.requests_served += 1;
                        net.send_res(
                            src,
                            Msg::Resolved {
                                t,
                                e: 0,
                                v: fk,
                                a: 0,
                            },
                        );
                    }
                }
                Msg::Resolved { t, e, v, a } => {
                    debug_assert_eq!((e, a), (0, 0), "a slot-addressed x = 1 answer");
                    debug_assert_eq!(self.part.rank_of(t), self.rank);
                    // Idempotence under faulty delivery: a duplicated
                    // `resolved` must not commit (and decrement the
                    // termination counter) twice. With x = 1 a node has
                    // one slot and no retries, so every answer for `t`
                    // carries the same value — once `F_t` is set, any
                    // further answer is a stale duplicate.
                    let slot = self.part.local_index(t);
                    if self.f.get(slot) != NILL {
                        debug_assert_eq!(self.f.get(slot), v, "conflicting resolutions for {t}");
                        self.counters.stale_resolutions += 1;
                    } else {
                        self.counters.copy_edges += 1;
                        self.commit(net, t, v);
                    }
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
        // Every local node below a cut is committed, so the prefix of `f`
        // plus the counters is the whole engine (the waiter table is
        // provably empty; node 0's slot legitimately holds NILL — it
        // never attaches and is never queried).
        (&mut self.f, &mut self.counters)
    }

    fn stall_report(&mut self) -> String {
        let uncommitted = (0..self.f.len()).filter(|&s| self.f.get(s) == NILL).count();
        format!(
            "uncommitted_nodes={uncommitted} waiters={} stale_resolutions={}",
            self.waiters.len(),
            self.counters.stale_resolutions,
        )
    }
}
