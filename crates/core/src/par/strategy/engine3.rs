//! The communication-free strategy — local chain recomputation (engine3).
//!
//! Algorithm 3.2 resolves a copy choice `F_k(l)` by *asking the owner* of
//! `k` — a request/resolved round trip per unresolved dependency, which is
//! where the paper's distributed runs spend their wall-clock. But every
//! draw in this workspace is already a pure function of
//! `(seed, node, edge, attempt)` (the counter-based RNG), which is exactly
//! the property Sanders & Schulz exploit in "Scalable Generation of
//! Scale-free Graphs": any rank can *recompute* another rank's row from
//! scratch instead of communicating for it. Engine3 does that: a copy
//! choice referencing a remote node `k` re-runs `k`'s draw/retry loop
//! locally, which may itself reference further (strictly lower-labelled)
//! remote nodes — a dependency chain that bottoms out at a direct choice
//! or at node `x` (whose row is the identity `F_x(l) = l`) after an
//! expected O(log n) steps (the paper's Lemma 3.1). No `request`, no
//! `resolved`: the only things left on the wire are the
//! collectives the driver itself uses (barriers, termination counting).
//!
//! **Determinism.** The recomputed rows replay the sequential generator's
//! attempt loop exactly — same [`crate::seq::draw_choice`] streams, same
//! duplicate-rejection against the row prefix — so every recomputed value
//! equals the value the owner itself commits. The emitted edge set is
//! therefore bit-identical to `seq::copy_model` (and to engines 1/2) for
//! every rank count, scheme, transport, and fault schedule; the
//! determinism and chaos suites pin it to the PR-1 FNV oracles.
//!
//! **Batching and partial rows.** Local nodes generate their whole row
//! of attempt-0 choices in one tight loop over the hoisted per-node key
//! prefix ([`pa_rng::EventKeys`]); retries (rare) re-draw individually
//! but still reuse the hoisted prefix. Recomputed chain frames go the
//! other way: a walk that needs `F_k(l)` computes only slots `0..=l` of
//! `k`'s row — the counter-based RNG addresses each `(edge, attempt)`
//! draw independently, so later slots never have to be touched — and the
//! memo stores the resulting *prefix*. A later reference to a higher
//! slot resumes from the cached prefix instead of starting over (between
//! slots the attempt counter is 0, so a committed prefix is the complete
//! resume state).
//!
//! **Chain memo.** High-`x` runs repeatedly walk chains that share a
//! suffix: every step lands on a uniformly random lower label, so chains
//! end among the low-labelled hubs (Lemmas 3.1 and 3.4). The memo keeps
//! the recomputed row prefixes of the lowest `cap` labels this rank does
//! not own in one flat array indexed by the label's ordinal among them
//! (`k − local_count_below(rank, k)`, O(1) in every scheme) — no hash, no
//! tag, no collisions, no row spent on a local label (those are read
//! from `F`), and the hot rows sit together at the front. A higher label
//! is simply recomputed. A single rank reads no remote row and allocates
//! no memo.
//! The memo caches values of a pure function, so its size — including
//! 0 — cannot change the output, only the amount of redundant
//! recomputation; a determinism test sweeps memo sizes to pin that
//! invariant. Completed chain frames hand their value *directly* to the
//! waiting parent frame rather than relying on a memo hit, so an
//! uncovered label (or a disabled memo) can never stall a walk.

use pa_mpsim::Transport;
use pa_rng::EventKeys;

use super::Strategy;
use crate::par::driver::Net;
use crate::par::msg::Msg;
use crate::par::output::EngineCounters;
use crate::par::sink::EdgeSink;
use crate::partition::Partition;
use crate::seq::Choice;
use crate::store::{AnyTable, NodeTable};
use crate::{GenOptions, Model, Node, PaConfig, NILL};

/// One suspended row recomputation in the chain walk: node `k`'s
/// attempt loop, paused while a deeper frame resolves one of its copy
/// choices.
struct Frame {
    /// The node whose row this frame is recomputing (always `> x` and
    /// remote to this rank).
    k: Node,
    /// `k`'s memo ordinal ([`Chain::ordinal`]).
    o: u64,
    /// Hoisted key prefix for `k`'s draws.
    keys: EventKeys,
    /// Committed row values so far (`len()` is the current slot; may
    /// start non-empty when resuming from a memoized prefix).
    row: Vec<Node>,
    /// The slot this walk must reach: the frame is done once
    /// `row.len() == goal + 1`, leaving slots above `goal` undrawn.
    goal: usize,
    /// Retry counter of the current slot.
    attempt: u32,
    /// The copy choice the current slot is waiting on (a child frame is
    /// recomputing its target row).
    pending: Option<Choice>,
}

/// What one stepping of the top frame concluded.
enum Step {
    /// The frame needs node `k` (memo ordinal `o`) recomputed first.
    NeedChild { k: Node, o: u64 },
    /// The frame's row is complete.
    Done,
}

/// Cache of recomputed remote row prefixes, indexed by a remote label's
/// *ordinal* `o` — its position among the labels this rank does not own
/// ([`Chain::ordinal`]): row `o` lives at `cells[o·x .. o·x + x]`, with
/// [`Memo::NIL`] marking an undrawn slot. Chains end among the low
/// labels (Lemma 3.4), so the prefix holds the rows they keep
/// re-walking; a higher label is never cached and is always recomputed.
/// The rank's own labels take no row: it reads them from `F`. Nothing is
/// evicted, so each cached row slot is recomputed at most once between
/// checkpoint restores. Covered labels lie below `u32::MAX`
/// ([`crate::config::chain_memo_rows`]), and a row holds labels below
/// its own, so `u32` cells always suffice.
struct Memo {
    cells: Vec<u32>,
    /// Ordinals covered: `0..rows`.
    rows: u64,
    /// Cells per row: `x`.
    x: usize,
}

impl Memo {
    const NIL: u32 = u32::MAX;

    /// `rows` from [`crate::config::chain_memo_rows`] — the sizing
    /// `pagen info` plans with ([`crate::chain_memo_bytes`]).
    fn new(rows: u64, x: u64) -> Memo {
        Memo {
            cells: vec![Self::NIL; (rows * x) as usize],
            rows,
            x: x as usize,
        }
    }

    /// The cached row at ordinal `o`, if `o` is covered.
    #[inline]
    fn row(&self, o: u64) -> Option<&[u32]> {
        if o >= self.rows {
            return None;
        }
        let base = o as usize * self.x;
        Some(&self.cells[base..base + self.x])
    }

    /// Cached value of slot `l` of the row at ordinal `o`, if that prefix
    /// has been computed.
    #[inline]
    fn get_slot(&self, o: u64, l: u64) -> Option<Node> {
        let v = self.row(o)?[l as usize];
        (v != Self::NIL).then_some(Node::from(v))
    }

    /// Append the committed prefix cached at ordinal `o` to `out` — the
    /// complete resume state for extending the row to a higher slot.
    fn copy_prefix_into(&self, o: u64, out: &mut Vec<Node>) {
        if let Some(row) = self.row(o) {
            out.extend(
                row.iter()
                    .take_while(|&&v| v != Self::NIL)
                    .map(|&v| Node::from(v)),
            );
        }
    }

    /// Cache `row` (a true prefix of the full row of the label at ordinal
    /// `o`, never shorter than the prefix already cached) when `o` is
    /// covered.
    fn insert(&mut self, o: u64, row: &[Node]) {
        if o < self.rows {
            let base = o as usize * self.x;
            for (cell, &v) in self.cells[base..].iter_mut().zip(row) {
                *cell = u32::try_from(v).expect("a covered row holds labels below u32::MAX");
            }
        }
    }

    fn occupied(&self) -> usize {
        self.cells
            .chunks_exact(self.x)
            .filter(|r| r[0] != Self::NIL)
            .count()
    }

    fn clear(&mut self) {
        self.cells.fill(Self::NIL);
    }
}

pub(crate) struct Chain<'a, P: Partition, S: EdgeSink> {
    cfg: &'a PaConfig,
    part: &'a P,
    rank: usize,
    /// The resolved attachment model this rank draws from — and, because
    /// engine3 *recomputes* other ranks' rows, the model it replays for
    /// every remote node too (all ranks resolve the identical model).
    model: Model,
    /// Flattened `F_t(e)` slots for local nodes: `local_index(t)·x + e`.
    /// Resident or disk-paged per [`GenOptions::store`] — this is the
    /// engine's only `O(n/P)`-slot structure, so it takes the whole
    /// memory budget.
    f: AnyTable,
    /// Cache of recomputed remote rows, indexed by remote ordinal.
    /// Pure-function cache: its size cannot affect the output.
    memo: Memo,
    /// Recycled frame allocations (row capacity reuse).
    frame_pool: Vec<Frame>,
    /// Reusable chain-walk stack (empty between walks).
    stack: Vec<Frame>,
    /// Scratch for the local node's batched attempt-0 choices.
    scratch: Vec<Choice>,
    edges: S,
    counters: EngineCounters,
}

impl<'a, P: Partition, S: EdgeSink> Chain<'a, P, S> {
    pub(crate) fn new(
        cfg: &'a PaConfig,
        part: &'a P,
        rank: usize,
        opts: &GenOptions,
        sink: S,
    ) -> Self {
        let size = part.size_of(rank);
        let slots = size * cfg.x;
        let f = AnyTable::build_for(cfg.n, &opts.store, rank, "f", slots, NILL)
            .unwrap_or_else(|e| panic!("rank {rank}: opening node table f: {e}"));
        Chain {
            cfg,
            part,
            rank,
            model: Model::resolve(cfg, opts.model),
            f,
            memo: Memo::new(
                crate::config::chain_memo_rows(opts.chain_memo_nodes, part, rank),
                cfg.x,
            ),
            frame_pool: Vec::new(),
            stack: Vec::new(),
            scratch: Vec::new(),
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

    /// Remote label `k`'s memo ordinal: how many labels below `k` this
    /// rank does not own.
    #[inline]
    fn ordinal(&self, k: Node) -> u64 {
        k - self.part.local_count_below(self.rank, k)
    }

    /// Record `F_t(e) = v` and emit the edge. `li` is `t`'s local index,
    /// hoisted by the caller so per-slot commits don't redo the
    /// partition arithmetic.
    fn commit<T: Transport<Msg>>(
        &mut self,
        net: &mut Net<'_, T>,
        t: Node,
        e: u32,
        li: usize,
        v: Node,
    ) {
        debug_assert_eq!(li, self.part.local_index(t) as usize, "wrong local index");
        let slot = li as u64 * self.cfg.x + u64::from(e);
        debug_assert_eq!(self.f.get(slot), NILL, "double commit of ({t},{e})");
        self.f.set(slot, v);
        self.edges.emit(t, v);
        net.complete(1);
    }

    /// A frame primed to recompute node `k`'s (memo ordinal `o`) row up
    /// to slot `goal`, resuming from the memoized prefix (if any) and
    /// reusing pooled allocations when available.
    fn new_frame(&mut self, k: Node, o: u64, goal: u64) -> Frame {
        let keys = self.model.keys_for(k);
        let mut frame = self.frame_pool.pop().unwrap_or(Frame {
            k,
            o,
            keys,
            row: Vec::new(),
            goal: 0,
            attempt: 0,
            pending: None,
        });
        frame.k = k;
        frame.o = o;
        frame.keys = keys;
        frame.goal = goal as usize;
        frame.row.clear();
        self.memo.copy_prefix_into(o, &mut frame.row);
        debug_assert!(frame.row.len() <= frame.goal, "memo hit routed to a walk");
        frame.attempt = 0;
        frame.pending = None;
        frame
    }

    /// Advance the frame until its row reaches its goal slot or it needs
    /// a child.
    fn step_frame(&mut self, frame: &mut Frame, delivered: &mut Option<Node>) -> Step {
        let x = self.cfg.x;
        while frame.row.len() <= frame.goal {
            let e = frame.row.len() as u32;
            let cand = if frame.pending.take().is_some() {
                delivered
                    .take()
                    .expect("resumed frame without a delivered child value")
            } else {
                let c = self
                    .model
                    .draw_keyed(&frame.keys, frame.k, e, frame.attempt);
                if c.direct {
                    c.k
                } else if c.k == x {
                    // Node x's row is the identity: F_x(l) = l.
                    c.l
                } else if self.part.rank_of(c.k) == self.rank {
                    // Local rows below the walk's origin are always
                    // committed (ascending sweep, full-row commits).
                    let v = self.f.get(self.slot(c.k, c.l as u32));
                    debug_assert_ne!(v, NILL, "chain read an uncommitted local slot");
                    v
                } else {
                    let o = self.ordinal(c.k);
                    if let Some(v) = self.memo.get_slot(o, c.l) {
                        self.counters.chain_memo_hits += 1;
                        v
                    } else {
                        frame.pending = Some(c);
                        return Step::NeedChild { k: c.k, o };
                    }
                }
            };
            if frame.row.contains(&cand) {
                frame.attempt += 1;
                continue;
            }
            frame.row.push(cand);
            frame.attempt = 0;
        }
        Step::Done
    }

    /// Recompute `F_k0(l0)` for a remote node `k0 > x` by walking the
    /// dependency chain with an explicit frame stack (labels strictly
    /// decrease down the stack, so the walk terminates and never
    /// references a node that is itself mid-recomputation).
    fn chain_value(&mut self, k0: Node, l0: u64) -> Node {
        let o0 = self.ordinal(k0);
        if let Some(v) = self.memo.get_slot(o0, l0) {
            self.counters.chain_memo_hits += 1;
            return v;
        }
        let root = self.new_frame(k0, o0, l0);
        let mut stack = std::mem::take(&mut self.stack);
        debug_assert!(stack.is_empty(), "chain walks never nest");
        stack.push(root);
        let mut delivered: Option<Node> = None;
        loop {
            self.counters.chain_peak_depth = self.counters.chain_peak_depth.max(stack.len() as u64);
            let mut frame = stack.pop().expect("chain walk on an empty stack");
            match self.step_frame(&mut frame, &mut delivered) {
                Step::NeedChild { k, o } => {
                    let goal = frame
                        .pending
                        .as_ref()
                        .expect("child requested without a pending choice")
                        .l;
                    let child = self.new_frame(k, o, goal);
                    stack.push(frame);
                    stack.push(child);
                }
                Step::Done => {
                    self.counters.chain_rows_recomputed += 1;
                    // Hand the value straight to the parent (or the
                    // caller): the memo is an optimization, never load-
                    // bearing, so an uncovered label cannot stall the walk.
                    let l = match stack.last() {
                        Some(parent) => {
                            parent
                                .pending
                                .as_ref()
                                .expect("parent frame without a pending choice")
                                .l
                        }
                        None => l0,
                    };
                    let value = frame.row[l as usize];
                    debug_assert!(
                        frame.row.iter().all(|&v| v < frame.k),
                        "row {} holds a higher label",
                        frame.k
                    );
                    self.memo.insert(frame.o, &frame.row);
                    self.frame_pool.push(frame);
                    if stack.is_empty() {
                        self.stack = stack;
                        return value;
                    }
                    delivered = Some(value);
                }
            }
        }
    }

    /// Generate local node `t`'s whole row — engine3 never parks, so one
    /// call commits all `x` slots.
    fn generate_node<T: Transport<Msg>>(&mut self, net: &mut Net<'_, T>, t: Node) {
        let x = self.cfg.x;
        let keys = self.model.keys_for(t);
        let mut choices0 = std::mem::take(&mut self.scratch);
        self.model.draw_row(&keys, t, &mut choices0);
        let li = self.part.local_index(t) as usize;
        let row0 = li as u64 * x;
        for e in 0..x as u32 {
            let mut attempt = 0u32;
            let (v, direct) = loop {
                let c = if attempt == 0 {
                    choices0[e as usize]
                } else {
                    self.model.draw_keyed(&keys, t, e, attempt)
                };
                let (cand, direct) = if c.direct {
                    (c.k, true)
                } else if c.k == x {
                    (c.l, false)
                } else if self.part.rank_of(c.k) == self.rank {
                    self.counters.local_immediate += 1;
                    (self.f.get(self.slot(c.k, c.l as u32)), false)
                } else {
                    (self.chain_value(c.k, c.l), false)
                };
                if self.f.row_contains(row0, x, cand) {
                    self.counters.duplicate_retries += 1;
                    attempt += 1;
                    continue;
                }
                break (cand, direct);
            };
            if direct {
                self.counters.direct_edges += 1;
            } else {
                self.counters.copy_edges += 1;
            }
            self.commit(net, t, e, li, v);
        }
        self.scratch = choices0;
    }
}

impl<'a, P: Partition, S: EdgeSink> Strategy for Chain<'a, P, S> {
    fn register(&mut self, lo: Node, hi: Node) -> u64 {
        super::register_clique(self.part, self.rank, self.cfg.x, lo, hi, &mut self.edges)
    }

    fn attach_seed_node<T: Transport<Msg>>(&mut self, net: &mut Net<'_, T>, lo: Node, hi: Node) {
        // Node x attaches deterministically to all seed nodes; every other
        // rank derives F_x analytically.
        let x = self.cfg.x;
        if self.part.num_nodes() > x && (lo..hi).contains(&x) && self.part.rank_of(x) == self.rank {
            let li = self.part.local_index(x) as usize;
            for e in 0..x {
                self.commit(net, x, e as u32, li, e);
            }
        }
    }

    fn start_node<T: Transport<Msg>>(&mut self, net: &mut Net<'_, T>, t: Node) {
        self.generate_node(net, t);
    }

    fn drain_local<T: Transport<Msg>>(&mut self, _net: &mut Net<'_, T>) {
        // Nothing ever parks: every node completes inside start_node.
    }

    fn handle_msgs<T: Transport<Msg>>(
        &mut self,
        _net: &mut Net<'_, T>,
        src: usize,
        msgs: &mut Vec<Msg>,
    ) {
        // Engine3 sends no algorithm messages, so none can arrive — not
        // even under fault injection, which only replays *sent* packets.
        panic!(
            "engine3 is communication-free but rank {} received {} message(s) from rank {src}",
            self.rank,
            msgs.len()
        );
    }

    fn finish(&mut self) {
        debug_assert!(
            self.frame_pool.iter().all(|f| f.pending.is_none()),
            "pooled frame retained a pending choice"
        );
    }

    fn sink_mark(&mut self) -> std::io::Result<(u64, u64)> {
        self.edges.checkpoint_mark()
    }

    fn state(&mut self) -> (&mut AnyTable, &mut EngineCounters) {
        // Every local node below a cut is committed (`generate_node`
        // commits whole rows), so the prefix of `f` plus the counters is
        // the whole engine; the memo is a pure-function cache.
        (&mut self.f, &mut self.counters)
    }

    fn restored(&mut self, _hi: Node) {
        self.memo.clear();
    }

    fn stall_report(&mut self) -> String {
        format!(
            "memo_rows={} rows_recomputed={}",
            self.memo.occupied(),
            self.counters.chain_rows_recomputed,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{self, Scheme};
    use pa_graph::EdgeList;

    #[test]
    fn chain_memo_bytes_is_what_the_memo_allocates() {
        // (scheme, cap, n, x, ranks, rank): the gen-e3-paged and
        // gen-e3-mpsim tuples at the default budget, budgets inside the
        // remote label range, the memo off, and a single rank.
        let cap = crate::DEFAULT_CHAIN_MEMO_NODES;
        for (scheme, cap, n, x, ranks, rank) in [
            (Scheme::Rrp, cap, 500_000, 4, 2, 0),
            (Scheme::Rrp, cap, 2_000_000, 4, 2, 1),
            (Scheme::Ucp, 1000, 10_000, 3, 4, 0),
            (Scheme::Lcp, 1000, 10_000, 3, 4, 3),
            (Scheme::Bcp, 0, 10_000, 3, 4, 2),
            (Scheme::Rrp, 1000, 10_000, 3, 1, 0),
        ] {
            let cfg = PaConfig::new(n, x);
            let part = partition::build(scheme, n, ranks);
            let opts = GenOptions::default().with_chain_memo(cap);
            let chain = Chain::new(&cfg, &part, rank, &opts, EdgeList::new());
            assert_eq!(
                std::mem::size_of_val(chain.memo.cells.as_slice()) as u64,
                crate::chain_memo_bytes(cap, x, &part, rank),
                "{scheme}, cap = {cap}, n = {n}, x = {x}, ranks = {ranks}, rank = {rank}"
            );
        }
        // gen-e3-paged: a row for each of the 250 000 remote labels, half
        // of the 500 000 rows a label-indexed memo reserved.
        let paged = partition::build(Scheme::Rrp, 500_000, 2);
        assert_eq!(crate::chain_memo_bytes(cap, 4, &paged, 0), 4_000_000);
        // n = 2·10⁶: every one of the 10⁶ remote labels fits the default.
        let big = partition::build(Scheme::Rrp, 2_000_000, 2);
        assert_eq!(crate::chain_memo_bytes(cap, 4, &big, 1), 16_000_000);
        let single = partition::build(Scheme::Rrp, 10_000, 1);
        assert_eq!(crate::chain_memo_bytes(1000, 3, &single, 0), 0);
    }

    #[test]
    fn memo_rows_are_the_remote_labels_in_order() {
        let cfg = PaConfig::new(1000, 3);
        let opts = GenOptions::default().with_chain_memo(100);
        for scheme in Scheme::EXTENDED {
            let part = partition::build(scheme, cfg.n, 3);
            for rank in 0..3 {
                let chain = Chain::new(&cfg, &part, rank, &opts, EdgeList::new());
                let remote = (0..cfg.n).filter(|&k| part.rank_of(k) != rank);
                for (o, k) in remote.enumerate() {
                    assert_eq!(chain.ordinal(k), o as u64, "{scheme} rank {rank} label {k}");
                }
                assert_eq!(chain.memo.rows, 100, "{scheme} rank {rank}");
            }
        }
    }

    #[test]
    fn memo_covers_only_the_label_prefix() {
        let mut memo = Memo::new(10, 3);
        memo.insert(9, &[4, 7]);
        memo.insert(10, &[1, 2, 3]);
        assert_eq!(memo.get_slot(9, 1), Some(7));
        assert_eq!(memo.get_slot(9, 2), None, "undrawn slot");
        assert_eq!(memo.get_slot(10, 0), None, "ordinal above the prefix");
        let mut row = vec![];
        memo.copy_prefix_into(9, &mut row);
        memo.copy_prefix_into(10, &mut row);
        assert_eq!(row, [4, 7]);
        assert_eq!(memo.occupied(), 1);
        memo.clear();
        assert_eq!(memo.occupied(), 0);
    }
}
