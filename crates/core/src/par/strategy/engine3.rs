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
//! **Batching and partial rows.** The driver hands the engine a block of
//! up to 64 ascending local nodes, and the block runs in three passes
//! ([`Chain::generate_block`]): draw every node's attempt-0 row
//! ([`Model::draw_row`] over the hoisted key prefix,
//! [`pa_rng::EventKeys`]); gather every value those choices name that
//! can already be read — a committed `F` slot of a local label below the
//! block, or a memo cell of a remote one; then commit slot after slot in
//! label order, reading the rest (a local label inside the block, a memo
//! miss, any retry) as a node-by-node sweep would. The gather
//! ([`Chain::gather`]) itself runs in two passes: an address pass
//! classifies each choice and lists the `F` slot or memo cell it needs,
//! and a read pass loads each list in one tight loop that does not
//! branch on the kind of choice. At the sizes where the tables leave the
//! cache each lookup is a cache miss; listed first and read together,
//! many are in flight at once instead of one node's, or one loop
//! iteration's, at a time (Allendorf et al.'s batched lookups, one level
//! up from pages). The values and the counters are the node-by-node
//! sweep's, block size 1 included. Retries (rare) re-draw individually
//! but still reuse the hoisted prefix. Recomputed chain frames go the
//! other way: a walk that
//! needs `F_k(l)` computes only slots `0..=l` of `k`'s row — the
//! counter-based RNG addresses each `(edge, attempt)` draw independently,
//! so later slots never have to be touched — and the memo stores the
//! resulting *prefix*. A later reference to a higher
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
use crate::par::driver::{Net, BLOCK};
use crate::par::msg::Msg;
use crate::par::output::EngineCounters;
use crate::par::sink::EdgeSink;
use crate::partition::Partition;
use crate::seq::Choice;
use crate::store::{AnyTable, NodeTable};
use crate::{GenOptions, Model, ModelKind, Node, PaConfig, NILL};

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
        let base = self.cell(o, 0);
        Some(&self.cells[base..base + self.x])
    }

    /// Index in `cells` of slot `l` of the row at covered ordinal `o`.
    #[inline]
    fn cell(&self, o: u64, l: u64) -> usize {
        debug_assert!(
            o < self.rows && l < self.x as u64,
            "cell ({o}, {l}) uncovered"
        );
        o as usize * self.x + l as usize
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
            let base = self.cell(o, 0);
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

/// One block's attempt-0 draws and the values gathered for them
/// ([`Chain::generate_block`]): `x` entries per node, node after node.
#[derive(Default)]
struct Block {
    /// Each node's hoisted key prefix (for retries).
    keys: Vec<EventKeys>,
    /// One node's attempt-0 choices, as [`Model::draw_row`] writes them.
    row: Vec<Choice>,
    /// Attempt-0 choice of every slot.
    choices: Vec<Choice>,
    /// The candidate each choice names when it could be read before the
    /// block commits, else [`NILL`].
    ready: Vec<Node>,
    /// `(position, F slot)` of every choice naming a local label below
    /// the block.
    f_reads: Vec<(usize, u64)>,
    /// `(position, memo cell)` of every choice naming a remote label the
    /// memo covers.
    memo_reads: Vec<(usize, usize)>,
}

impl Block {
    /// Room for the largest block the driver hands over ([`BLOCK`]
    /// nodes), so a run never grows it.
    fn new(x: u64) -> Block {
        let slots = BLOCK * x as usize;
        Block {
            keys: Vec::with_capacity(BLOCK),
            row: Vec::with_capacity(x as usize),
            choices: Vec::with_capacity(slots),
            ready: Vec::with_capacity(slots),
            f_reads: Vec::with_capacity(slots),
            memo_reads: Vec::with_capacity(slots),
        }
    }

    /// Does every vector still hold exactly what [`Block::new`] gave it?
    /// (`Vec::with_capacity` allocates exactly the capacity asked for.)
    fn has_its_capacity(&self, x: u64) -> bool {
        let slots = BLOCK * x as usize;
        self.keys.capacity() == BLOCK
            && self.row.capacity() == x as usize
            && [
                self.choices.capacity(),
                self.ready.capacity(),
                self.f_reads.capacity(),
                self.memo_reads.capacity(),
            ] == [slots; 4]
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
    /// Scratch for the block being generated ([`Chain::generate_block`]).
    block: Block,
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
        // Before the table, like every buffer the run keeps ([`BLOCK`]).
        let block = Block::new(cfg.x);
        let f = AnyTable::build_for(cfg.n, &opts.store, rank, "f", slots, NILL)
            .unwrap_or_else(|e| panic!("rank {rank}: opening node table f: {e}"));
        Chain {
            cfg,
            part,
            rank,
            model: Model::resolve(cfg, ModelKind::Pa),
            f,
            memo: Memo::new(
                crate::config::chain_memo_rows(opts.chain_memo_nodes, part, rank),
                cfg.x,
            ),
            frame_pool: Vec::new(),
            stack: Vec::new(),
            block,
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
        let mut frame = self.frame_pool.pop().unwrap_or_else(|| Frame {
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

    /// Recompute `F_k0(l0)` for a remote node `k0 > x` whose slot `l0`
    /// the memo does not hold, by walking the dependency chain with an
    /// explicit frame stack (labels strictly decrease down the stack, so
    /// the walk terminates and never references a node that is itself
    /// mid-recomputation).
    fn chain_value(&mut self, k0: Node, l0: u64) -> Node {
        let root = self.new_frame(k0, self.ordinal(k0), l0);
        let mut stack = std::mem::take(&mut self.stack);
        debug_assert!(stack.is_empty(), "chain walks never nest");
        stack.push(root);
        let mut delivered: Option<Node> = None;
        loop {
            self.counters.chain_peak_depth = self.counters.chain_peak_depth.max(stack.len() as u64);
            // The top frame steps in place: it stays on the stack while
            // its child runs.
            let frame = stack.last_mut().expect("chain walk on an empty stack");
            match self.step_frame(frame, &mut delivered) {
                Step::NeedChild { k, o } => {
                    let goal = frame
                        .pending
                        .as_ref()
                        .expect("child requested without a pending choice")
                        .l;
                    let child = self.new_frame(k, o, goal);
                    stack.push(child);
                }
                Step::Done => {
                    let frame = stack.pop().expect("a done frame is on the stack");
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

    /// The candidate choice `c` of local node `t` names: a direct edge,
    /// node `x`'s identity row, the `F` slot of a local label (committed:
    /// every label `c` can name lies below `t`, and the sweep is
    /// ascending and commits whole rows), a memo cell, or on a memo miss
    /// a chain walk.
    fn resolve(&mut self, c: Choice, t: Node) -> Node {
        debug_assert!(c.k < t, "node {t} drew label {}", c.k);
        if c.direct {
            c.k
        } else if c.k == self.cfg.x {
            c.l
        } else if self.part.rank_of(c.k) == self.rank {
            self.counters.local_immediate += 1;
            self.f.get(self.slot(c.k, c.l as u32))
        } else if let Some(v) = self.memo.get_slot(self.ordinal(c.k), c.l) {
            self.counters.chain_memo_hits += 1;
            v
        } else {
            self.chain_value(c.k, c.l)
        }
    }

    /// Empty `block` and draw the attempt-0 row of every node of `ts`
    /// into it, with each node's key prefix.
    fn draw(&self, block: &mut Block, ts: &[Node]) {
        block.keys.clear();
        block.choices.clear();
        block.ready.clear();
        block.f_reads.clear();
        block.memo_reads.clear();
        for &t in ts {
            let keys = self.model.keys_for(t);
            self.model.draw_row(&keys, t, &mut block.row);
            block.choices.extend_from_slice(&block.row);
            block.keys.push(keys);
        }
    }

    /// Fill `block.ready` for the choices in `block.choices`, whose first
    /// node is `first`, in two passes:
    ///
    /// 1. *address*: a value known without a read (a direct edge, node
    ///    `x`'s identity row) goes straight into `ready`; a local label
    ///    below `first` lists its `F` slot in `f_reads`, a remote label
    ///    the memo covers lists its cell in `memo_reads`; the rest (a
    ///    local label inside the block, a remote label above the memo)
    ///    stays [`NILL`];
    /// 2. *read*: one loop over each list, with no branch on the kind of
    ///    choice, so the loads' cache misses overlap. An unset memo cell
    ///    leaves [`NILL`].
    ///
    /// Each value read is counted as [`Chain::resolve`] would count it
    /// (`local_immediate`, `chain_memo_hits`).
    fn gather(&mut self, block: &mut Block, first: Node) {
        let x = self.cfg.x;
        for (j, &c) in block.choices.iter().enumerate() {
            let v = if c.direct {
                c.k
            } else if c.k == x {
                c.l
            } else if self.part.rank_of(c.k) == self.rank {
                if c.k < first {
                    block.f_reads.push((j, self.slot(c.k, c.l as u32)));
                }
                NILL
            } else {
                let o = self.ordinal(c.k);
                if o < self.memo.rows {
                    block.memo_reads.push((j, self.memo.cell(o, c.l)));
                }
                NILL
            };
            block.ready.push(v);
        }
        for &(j, slot) in &block.f_reads {
            block.ready[j] = self.f.get(slot);
        }
        self.counters.local_immediate += block.f_reads.len() as u64;
        let mut hits = 0;
        for &(j, cell) in &block.memo_reads {
            let v = self.memo.cells[cell];
            let set = v != Memo::NIL;
            hits += u64::from(set);
            block.ready[j] = if set { Node::from(v) } else { NILL };
        }
        self.counters.chain_memo_hits += hits;
    }

    /// Generate the whole rows of `ts` (ascending local labels) in three
    /// passes — engine3 never parks, so one call commits every slot:
    ///
    /// 1. [`Chain::draw`] every node's attempt-0 row (pure and
    ///    independent);
    /// 2. [`Chain::gather`] what those choices name where it can already
    ///    be read;
    /// 3. commit slot after slot in label order, taking a gathered value
    ///    where there is one and [`Chain::resolve`] otherwise (a local
    ///    label inside the block, a memo miss — the memo is checked
    ///    again, since an earlier node of the block may have filled it —
    ///    and any retry).
    ///
    /// Values and counters are those of committing node after node: a
    /// gathered value is immutable (a committed slot, or a cached value
    /// of a pure function) and is counted once, as its commit would
    /// count it.
    fn generate_block<T: Transport<Msg>>(&mut self, net: &mut Net<'_, T>, ts: &[Node]) {
        let x = self.cfg.x;
        let mut block = std::mem::take(&mut self.block);
        self.draw(&mut block, ts);
        self.gather(&mut block, ts[0]);
        for (i, (&t, keys)) in ts.iter().zip(&block.keys).enumerate() {
            let li = self.part.local_index(t) as usize;
            let row0 = li as u64 * x;
            for e in 0..x as u32 {
                let j = i * x as usize + e as usize;
                let (mut c, mut v) = (block.choices[j], block.ready[j]);
                let mut attempt = 0u32;
                loop {
                    if v == NILL {
                        v = self.resolve(c, t);
                    }
                    if !self.f.row_contains(row0, x, v) {
                        break;
                    }
                    self.counters.duplicate_retries += 1;
                    attempt += 1;
                    c = self.model.draw_keyed(keys, t, e, attempt);
                    v = NILL;
                }
                if c.direct {
                    self.counters.direct_edges += 1;
                } else {
                    self.counters.copy_edges += 1;
                }
                self.commit(net, t, e, li, v);
            }
        }
        // Scratch allocated after the `F` table can keep a finished job's
        // freed tables resident in a long-lived process (`pagen serve`).
        debug_assert!(block.has_its_capacity(x), "the block scratch grew");
        self.block = block;
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

    fn start_nodes<T: Transport<Msg>>(&mut self, net: &mut Net<'_, T>, ts: &[Node]) {
        self.generate_block(net, ts);
    }

    fn drain_local<T: Transport<Msg>>(&mut self, _net: &mut Net<'_, T>) {
        // Nothing ever parks: every node completes inside start_nodes.
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
        // Every local node below a cut is committed (`generate_block`
        // commits whole rows, and no block straddles a cut), so the
        // prefix of `f` plus the counters is the whole engine; the memo
        // is a pure-function cache.
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
    use crate::partition::{self, AnyPartition, Scheme};
    use pa_graph::EdgeList;
    use pa_mpsim::LoopbackTransport;

    /// `rank`'s whole sweep on a fresh engine, fed in blocks whose sizes
    /// cycle through `sizes`: the emitted edges in order, and the
    /// counters.
    fn sweep_in_blocks(
        cfg: &PaConfig,
        part: &AnyPartition,
        rank: usize,
        opts: &GenOptions,
        sizes: &[usize],
    ) -> (EdgeList, EngineCounters) {
        let mut chain = Chain::new(cfg, part, rank, opts, EdgeList::new());
        let mut comm = LoopbackTransport::<Msg>::new();
        let mut net = Net::for_test(&mut comm, 1);
        chain.register(0, cfg.n);
        chain.attach_seed_node(&mut net, 0, cfg.n);
        let nodes: Vec<Node> = part.nodes_of(rank).filter(|&t| t > cfg.x).collect();
        let mut rest = &nodes[..];
        for &size in sizes.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (block, tail) = rest.split_at(size.min(rest.len()));
            chain.start_nodes(&mut net, block);
            rest = tail;
        }
        chain.into_parts()
    }

    #[test]
    fn blocks_emit_and_count_what_single_nodes_do() {
        // (x, memo cap, store): the default memo, one that covers a few
        // hundred remote labels, and none — a memo-off walk grows
        // exponentially in x, so that case keeps x = 3 — all resident;
        // then the small memo over an `F` table paged through four
        // 256-byte frames, so the gather's `F` reads fault.
        let dir = std::env::temp_dir().join(format!("pa_core_e3_blocks_{}", std::process::id()));
        let paged = crate::store::StoreSpec::paged(&dir, 1024).with_page_bytes(256);
        let resident = crate::store::StoreSpec::Resident;
        let cells = [
            (4, crate::DEFAULT_CHAIN_MEMO_NODES, &resident),
            (4, 300, &resident),
            (3, 0, &resident),
            (4, 300, &paged),
        ];
        let (mut memo_hits, mut gathered_local) = (0, 0);
        for (x, cap, store) in cells {
            let cfg = PaConfig::new(3000, x).with_seed(11);
            let opts = GenOptions::default()
                .with_chain_memo(cap)
                .with_store(store.clone());
            for ranks in 1..=3 {
                for scheme in Scheme::EXTENDED {
                    let part = partition::build(scheme, cfg.n, ranks);
                    let rank = ranks - 1;
                    let one = sweep_in_blocks(&cfg, &part, rank, &opts, &[1]);
                    for sizes in [&[64][..], &[7], &[63], &[64, 7, 63]] {
                        let tag = format!(
                            "x {x} memo {cap} paged {} P {ranks} {scheme} blocks {sizes:?}",
                            store.is_paged()
                        );
                        let blocks = sweep_in_blocks(&cfg, &part, rank, &opts, sizes);
                        assert!(blocks.0 == one.0, "{tag}: the edges differ");
                        assert_eq!(blocks.1, one.1, "{tag}");
                    }
                    memo_hits += one.1.chain_memo_hits;
                    gathered_local += one.1.local_immediate;
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        assert!(memo_hits > 0 && gathered_local > 0, "the gather paths ran");
    }

    #[test]
    fn the_gather_reads_every_value_a_block_can_name() {
        // Half of a rank's nodes committed one by one, so F holds their
        // rows and the memo holds what their walks cached; then one
        // block of 64 gathered against what each choice names.
        let cfg = PaConfig::new(3000, 4).with_seed(11);
        let x = cfg.x;
        let (mut from_f, mut hits, mut misses) = (0, 0, 0);
        for cap in [300, crate::DEFAULT_CHAIN_MEMO_NODES] {
            let opts = GenOptions::default().with_chain_memo(cap);
            for ranks in 2..=3 {
                for scheme in Scheme::EXTENDED {
                    let part = partition::build(scheme, cfg.n, ranks);
                    let tag = format!("memo {cap} P {ranks} {scheme}");
                    let mut chain = Chain::new(&cfg, &part, 0, &opts, EdgeList::new());
                    let mut comm = LoopbackTransport::<Msg>::new();
                    let mut net = Net::for_test(&mut comm, 1);
                    chain.register(0, cfg.n);
                    chain.attach_seed_node(&mut net, 0, cfg.n);
                    let nodes: Vec<Node> = part.nodes_of(0).filter(|&t| t > x).collect();
                    let (done, rest) = nodes.split_at(nodes.len() / 2);
                    for &t in done {
                        chain.start_nodes(&mut net, &[t]);
                    }
                    let ts = &rest[..BLOCK];
                    let mut block = Block::new(x);
                    chain.draw(&mut block, ts);
                    let before = chain.counters;
                    chain.gather(&mut block, ts[0]);
                    let (mut local, mut memo) = (0, 0);
                    for (j, &c) in block.choices.iter().enumerate() {
                        let want = if c.direct {
                            c.k
                        } else if c.k == x {
                            c.l
                        } else if part.rank_of(c.k) == 0 {
                            if c.k < ts[0] {
                                local += 1;
                                chain.f.get(chain.slot(c.k, c.l as u32))
                            } else {
                                NILL
                            }
                        } else {
                            let o = chain.ordinal(c.k);
                            match chain.memo.get_slot(o, c.l) {
                                Some(v) => {
                                    memo += 1;
                                    v
                                }
                                None if o < chain.memo.rows => {
                                    misses += 1;
                                    NILL
                                }
                                None => NILL,
                            }
                        };
                        assert_eq!(block.ready[j], want, "{tag}: choice {j} {c:?}");
                    }
                    assert_eq!(
                        chain.counters.local_immediate - before.local_immediate,
                        local,
                        "{tag}"
                    );
                    assert_eq!(
                        chain.counters.chain_memo_hits - before.chain_memo_hits,
                        memo,
                        "{tag}"
                    );
                    assert!(block.has_its_capacity(x), "{tag}");
                    (from_f, hits) = (from_f + local, hits + memo);
                }
            }
        }
        assert!(
            from_f > 0 && hits > 0 && misses > 0,
            "F reads {from_f}, memo hits {hits}, listed unset cells {misses}"
        );
    }

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
