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
//! `resolved`, no hub broadcast: the only things left on the wire are the
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
//! suffix (hubs are referenced over and over — Lemma 3.4). A bounded
//! *direct-mapped* memo of recomputed rows deduplicates those shared
//! suffixes: `2^b` slots, each holding one node's full row; a colliding
//! insert simply overwrites (losing a cached pure-function value is
//! harmless). That shape keeps the hot path allocation- and hash-free —
//! one multiply, one shift, one tag compare — where a `HashMap` memo
//! spends more time hashing than recomputing. The memo caches values of
//! a pure function, so its size — including 0 — cannot change the
//! output, only the amount of redundant recomputation; a determinism
//! test sweeps memo sizes to pin that invariant. Completed chain frames
//! hand their value *directly* to the waiting parent frame rather than
//! relying on a memo hit, so overwriting (or a disabled memo) can never
//! stall a walk.

use pa_mpsim::{Transport, Wire};
use pa_rng::EventKeys;

use super::Strategy;
use crate::par::driver::Net;
use crate::par::msg::Msg;
use crate::par::output::EngineCounters;
use crate::par::sink::EdgeSink;
use crate::partition::Partition;
use crate::seq::Choice;
use crate::store::{self, AnyTable, Cell, NodeTable};
use crate::{GenOptions, Model, Node, PaConfig, NILL};

/// One suspended row recomputation in the chain walk: node `k`'s
/// attempt loop, paused while a deeper frame resolves one of its copy
/// choices.
struct Frame {
    /// The node whose row this frame is recomputing (always `> x` and
    /// remote to this rank).
    k: Node,
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
    /// The frame needs node `k`'s row recomputed first.
    NeedChild(Node),
    /// The frame's row is complete.
    Done,
}

/// Direct-mapped slot table: `2^b` slots of `1 + x` cells each
/// (`[tag, row...]`, interleaved so a hit costs one memory access), one
/// cached row prefix per slot, collision = overwrite.
struct Slots<C: Cell> {
    entries: Vec<C>,
    /// Slot count minus one (slot count is a power of two).
    mask: usize,
    /// Identity indexing (budget ≥ n): `slot = k`, collision-free.
    direct: bool,
    /// Cells per slot: `1 + x`.
    stride: usize,
}

impl<C: Cell> Slots<C> {
    fn new(slots: usize, n: u64, x: u64) -> Self {
        Slots {
            entries: vec![C::NIL; slots * (1 + x as usize)],
            mask: slots - 1,
            direct: slots as u64 >= n,
            stride: 1 + x as usize,
        }
    }

    /// Base cell of node `k`'s slot: indexed by the label itself when
    /// every node fits, else by the middle bits of a golden-ratio
    /// product (multiplicative hashing).
    #[inline]
    fn base(&self, k: Node) -> usize {
        let i = if self.direct {
            k as usize
        } else {
            ((k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize) & self.mask
        };
        i * self.stride
    }

    #[inline]
    fn get_slot(&self, k: Node, l: u64) -> Option<Node> {
        let base = self.base(k);
        if self.entries[base].to_node() != k {
            return None;
        }
        let v = self.entries[base + 1 + l as usize];
        (v != C::NIL).then(|| v.to_node())
    }

    fn copy_prefix_into(&self, k: Node, out: &mut Vec<Node>) {
        let base = self.base(k);
        if self.entries[base].to_node() != k {
            return;
        }
        out.extend(
            self.entries[base + 1..base + self.stride]
                .iter()
                .take_while(|&&v| v != C::NIL)
                .map(|v| v.to_node()),
        );
    }

    fn insert(&mut self, k: Node, row: &[Node]) {
        let base = self.base(k);
        self.entries[base] = C::from_node(k);
        for (cell, &v) in self.entries[base + 1..base + self.stride]
            .iter_mut()
            .zip(row.iter().chain(std::iter::repeat(&NILL)))
        {
            *cell = C::from_node(v);
        }
    }

    fn occupied(&self) -> usize {
        self.entries
            .chunks_exact(self.stride)
            .filter(|e| e[0] != C::NIL)
            .count()
    }

    fn clear(&mut self) {
        self.entries.fill(C::NIL);
    }
}

/// Direct-mapped cache of recomputed remote row prefixes. Disabled when
/// the configured size is 0; in compact (`u32`) [`Cell`]s whenever every
/// label fits, as the node table is. When the budget covers every node the slot index is the label
/// itself — no hashing, no collisions, so each remote row slot is
/// recomputed at most once between checkpoint restores.
enum Memo {
    Off,
    Compact(Slots<u32>),
    Wide(Slots<u64>),
}

impl Memo {
    /// `cap` is the configured row budget, shaped by
    /// [`crate::config::chain_memo_shape`] — the sizing `pagen info`
    /// plans with ([`crate::chain_memo_bytes`]).
    fn new(cap: u64, n: u64, x: u64) -> Memo {
        match crate::config::chain_memo_shape(cap, n) {
            (0, _) => Memo::Off,
            (slots, true) => Memo::Compact(Slots::new(slots as usize, n, x)),
            (slots, false) => Memo::Wide(Slots::new(slots as usize, n, x)),
        }
    }

    /// Cached value of slot `l` of `k`'s row, if that prefix has been
    /// computed.
    #[inline]
    fn get_slot(&self, k: Node, l: u64) -> Option<Node> {
        match self {
            Memo::Off => None,
            Memo::Compact(s) => s.get_slot(k, l),
            Memo::Wide(s) => s.get_slot(k, l),
        }
    }

    /// Append the committed prefix cached for `k` to `out` (nothing when
    /// another node occupies the slot) — the complete resume state for
    /// extending the row to a higher slot.
    fn copy_prefix_into(&self, k: Node, out: &mut Vec<Node>) {
        match self {
            Memo::Off => {}
            Memo::Compact(s) => s.copy_prefix_into(k, out),
            Memo::Wide(s) => s.copy_prefix_into(k, out),
        }
    }

    /// Cache `row` (a true prefix of `k`'s full row); slots beyond it
    /// are marked undrawn in case a colliding row is being overwritten.
    fn insert(&mut self, k: Node, row: &[Node]) {
        match self {
            Memo::Off => {}
            Memo::Compact(s) => s.insert(k, row),
            Memo::Wide(s) => s.insert(k, row),
        }
    }

    fn occupied(&self) -> usize {
        match self {
            Memo::Off => 0,
            Memo::Compact(s) => s.occupied(),
            Memo::Wide(s) => s.occupied(),
        }
    }

    fn clear(&mut self) {
        match self {
            Memo::Off => {}
            Memo::Compact(s) => s.clear(),
            Memo::Wide(s) => s.clear(),
        }
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
    /// Next edge index each local node must commit (restore bookkeeping
    /// and the stall report; the sweep itself never parks). One word per
    /// node — small enough to stay resident under any budget.
    next_e: Vec<u32>,
    /// Direct-mapped cache of recomputed remote rows. Pure-function
    /// cache: its size cannot affect the output.
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
            next_e: vec![0; size as usize],
            memo: Memo::new(opts.chain_memo_nodes, cfg.n, cfg.x),
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

    /// Record `F_t(e) = v` and emit the edge. `li` is `t`'s local index,
    /// hoisted by the caller so per-slot commits don't redo the
    /// partition arithmetic.
    fn commit<T: Transport<Msg>>(
        &mut self,
        net: &mut Net<'_, Msg, T>,
        t: Node,
        e: u32,
        li: usize,
        v: Node,
    ) {
        debug_assert_eq!(li, self.part.local_index(t) as usize, "wrong local index");
        let slot = li as u64 * self.cfg.x + u64::from(e);
        debug_assert_eq!(self.f.get(slot), NILL, "double commit of ({t},{e})");
        debug_assert_eq!(self.next_e[li], e, "out-of-order commit of ({t},{e})");
        self.f.set(slot, v);
        self.next_e[li] = e + 1;
        self.edges.emit(t, v);
        net.complete(1);
    }

    /// A frame primed to recompute node `k`'s row up to slot `goal`,
    /// resuming from the memoized prefix (if any) and reusing pooled
    /// allocations when available.
    fn new_frame(&mut self, k: Node, goal: u64) -> Frame {
        let keys = self.model.keys_for(k);
        let mut frame = self.frame_pool.pop().unwrap_or(Frame {
            k,
            keys,
            row: Vec::new(),
            goal: 0,
            attempt: 0,
            pending: None,
        });
        frame.k = k;
        frame.keys = keys;
        frame.goal = goal as usize;
        frame.row.clear();
        self.memo.copy_prefix_into(k, &mut frame.row);
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
                } else if let Some(v) = self.memo.get_slot(c.k, c.l) {
                    self.counters.chain_memo_hits += 1;
                    v
                } else {
                    frame.pending = Some(c);
                    return Step::NeedChild(c.k);
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
        if let Some(v) = self.memo.get_slot(k0, l0) {
            self.counters.chain_memo_hits += 1;
            return v;
        }
        let root = self.new_frame(k0, l0);
        let mut stack = std::mem::take(&mut self.stack);
        debug_assert!(stack.is_empty(), "chain walks never nest");
        stack.push(root);
        let mut delivered: Option<Node> = None;
        loop {
            self.counters.chain_peak_depth = self.counters.chain_peak_depth.max(stack.len() as u64);
            let mut frame = stack.pop().expect("chain walk on an empty stack");
            match self.step_frame(&mut frame, &mut delivered) {
                Step::NeedChild(k) => {
                    let goal = frame
                        .pending
                        .as_ref()
                        .expect("child requested without a pending choice")
                        .l;
                    let child = self.new_frame(k, goal);
                    stack.push(frame);
                    stack.push(child);
                }
                Step::Done => {
                    self.counters.chain_rows_recomputed += 1;
                    // Hand the value straight to the parent (or the
                    // caller): the memo is an optimization, never load-
                    // bearing, so eviction cannot stall the walk.
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
                    self.memo.insert(frame.k, &frame.row);
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
    fn generate_node<T: Transport<Msg>>(&mut self, net: &mut Net<'_, Msg, T>, t: Node) {
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
    type Msg = Msg;

    fn register(&mut self, lo: Node, hi: Node) -> u64 {
        super::register_clique(self.part, self.rank, self.cfg.x, lo, hi, &mut self.edges)
    }

    fn attach_seed_node<T: Transport<Msg>>(
        &mut self,
        net: &mut Net<'_, Msg, T>,
        lo: Node,
        hi: Node,
    ) {
        // Node x attaches deterministically to all seed nodes. No hub
        // broadcast: every other rank derives F_x analytically.
        let x = self.cfg.x;
        if self.part.num_nodes() > x && (lo..hi).contains(&x) && self.part.rank_of(x) == self.rank {
            let li = self.part.local_index(x) as usize;
            for e in 0..x {
                self.commit(net, x, e as u32, li, e);
            }
        }
    }

    fn start_node<T: Transport<Msg>>(&mut self, net: &mut Net<'_, Msg, T>, t: Node) {
        self.generate_node(net, t);
    }

    fn drain_local<T: Transport<Msg>>(&mut self, _net: &mut Net<'_, Msg, T>) {
        // Nothing ever parks: every node completes inside start_node.
    }

    fn handle_msgs<T: Transport<Msg>>(
        &mut self,
        _net: &mut Net<'_, Msg, T>,
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

    fn snapshot(&mut self, hi: Node, out: &mut Vec<u8>) {
        // Same epoch-cut argument as engine2, minus the hub replica: the
        // committed prefix of `f` plus the counters is the whole engine
        // (the memo is a pure-function cache and rebuilds itself).
        let x = self.cfg.x;
        let cnt = self.part.local_count_below(self.rank, hi);
        store::write_table_prefix(&mut self.f, cnt, x, out);
        self.counters.to_words().encode(out);
    }

    fn restore(&mut self, hi: Node, payload: &[u8]) -> Result<(), String> {
        let x = self.cfg.x;
        let mut r = payload;
        let expect = self.part.local_count_below(self.rank, hi);
        store::read_table_prefix(&mut self.f, expect, x, &mut r)?;
        self.next_e.fill(0);
        for e in self.next_e.iter_mut().take(expect as usize) {
            *e = x as u32;
        }
        self.counters =
            EngineCounters::from_words(Wire::decode(&mut r).ok_or("truncated engine counters")?);
        if !r.is_empty() {
            return Err(format!("{} trailing bytes after the counters", r.len()));
        }
        self.memo.clear();
        Ok(())
    }

    fn stall_report(&mut self) -> String {
        let uncommitted = self
            .next_e
            .iter()
            .filter(|&&e| u64::from(e) < self.cfg.x)
            .count();
        format!(
            "uncommitted_nodes={uncommitted} memo_rows={} rows_recomputed={}",
            self.memo.occupied(),
            self.counters.chain_rows_recomputed,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bytes the memo's cells really occupy.
    fn allocated(memo: &Memo) -> u64 {
        match memo {
            Memo::Off => 0,
            Memo::Compact(s) => std::mem::size_of_val(s.entries.as_slice()) as u64,
            Memo::Wide(s) => std::mem::size_of_val(s.entries.as_slice()) as u64,
        }
    }

    #[test]
    fn chain_memo_bytes_is_what_the_memo_allocates() {
        // (cap, n, x): the gen-e3-paged and gen-e3-mpsim tuples at the
        // default budget, a budget that does not fill a power of two, the
        // memo off, and labels too wide for the compact cell.
        let wide_n = u64::from(u32::MAX);
        for (cap, n, x) in [
            (crate::DEFAULT_CHAIN_MEMO_NODES, 500_000, 4),
            (crate::DEFAULT_CHAIN_MEMO_NODES, 2_000_000, 4),
            (1000, 10_000, 3),
            (0, 10_000, 3),
            (1000, wide_n, 3),
        ] {
            let memo = Memo::new(cap, n, x);
            assert_eq!(
                matches!(memo, Memo::Wide(_)),
                n == wide_n,
                "cell width at n = {n}"
            );
            assert_eq!(
                allocated(&memo),
                crate::chain_memo_bytes(cap, n, x),
                "cap = {cap}, n = {n}, x = {x}"
            );
        }
        assert_eq!(
            crate::chain_memo_bytes(crate::DEFAULT_CHAIN_MEMO_NODES, 500_000, 4),
            10 << 20
        );
    }
}
