//! The strategy layer: everything algorithm-specific, strategy-owned.
//!
//! [`super::driver`] owns exactly one thing — the message-driven epoch
//! loop (sweep, service, flush, park, terminate, checkpoint at the cut).
//! Everything a particular algorithm needs beyond that loop lives *here*,
//! owned by the strategy that uses it rather than wired into the driver:
//!
//! * the [`Strategy`] trait — the seam itself;
//! * [`run_rank`] — the one place an [`Engine`] value becomes a running
//!   strategy, over any transport that carries [`Msg`];
//! * the three shipped strategies — [`X1`] (Algorithm 3.1: one slot per
//!   node, Algorithm 3.2's messages at `e = l = 0`), [`General`]
//!   (Algorithm 3.2's in-order slots with request/resolved), and
//!   [`Chain`] (communication-free local chain recomputation);
//! * their private state machinery — the [`hub`] replica (only
//!   [`General`] computes one and looks hubs up in it; no other strategy
//!   ever touches the hub path, which a conformance test pins) and the
//!   [`waiters`] tables (only the message-passing strategies park work).
//!
//! Every strategy commits a node's slots and emits them in slot order,
//! and exposes the same state — its `F` table and its counters — so a
//! checkpoint taken under one engine resumes any other at the same `x`.
//!
//! Model-genericity comes from one further cut: strategies draw
//! attachment randomness exclusively through [`crate::Model`], which
//! maps the counter-addressed event key `(seed, node, edge, attempt)` to
//! a choice under the selected [`crate::ModelKind`]. The request/resolve
//! protocol and the chain recomputation are thereby *resolution
//! mechanisms*, not PA-specific code paths: a new model that keeps the
//! pure-function draw property (nonlinear PA does) plugs into every
//! strategy, every partition scheme, chaos injection, and
//! checkpoint/restart without touching this layer.

mod engine1;
mod engine2;
mod engine3;
mod hub;
mod waiters;

use engine1::X1;
use engine2::General;
use engine3::Chain;

use super::checkpoint::{CheckpointStore, Resume};
use super::driver::{self, Net};
use super::msg::Msg;
use super::output::EngineCounters;
use crate::par::sink::EdgeSink;
use crate::partition::Partition;
use crate::store::AnyTable;
use crate::{Engine, GenOptions, Node, PaConfig};
use pa_mpsim::Transport;

/// Build the strategy `opts.engine` names for this rank, drive it to
/// global quiescence over `comm` (checkpointing into `store` and
/// resuming from `resume` as [`driver::run`] describes) and return the
/// sink and counters.
///
/// # Errors
///
/// A failed resume, as [`driver::run`] says.
pub(super) fn run_rank<P: Partition, S: EdgeSink, T: Transport<Msg>>(
    cfg: &PaConfig,
    part: &P,
    opts: &GenOptions,
    comm: &mut T,
    sink: S,
    store: Option<&CheckpointStore>,
    resume: Option<Resume<'_>>,
) -> Result<(S, EngineCounters), String> {
    let (rank, nranks) = (comm.rank(), comm.nranks());
    Ok(match opts.engine {
        Engine::X1 => {
            let algo = X1::new(cfg, part, rank, opts, sink);
            driver::run(part, cfg.x, opts, comm, algo, store, resume)?.into_parts()
        }
        Engine::General => {
            let algo = General::new(cfg, part, rank, nranks, opts, sink);
            driver::run(part, cfg.x, opts, comm, algo, store, resume)?.into_parts()
        }
        Engine::Chain => {
            let algo = Chain::new(cfg, part, rank, opts, sink);
            driver::run(part, cfg.x, opts, comm, algo, store, resume)?.into_parts()
        }
    })
}

/// The algorithm-specific half of an engine; [`driver::run`]
/// supplies the loop.
///
/// Hook order per rank and per epoch `[lo, hi)`:
/// [`Strategy::register`] (seed edges + pending-slot count for the
/// epoch's labels) → barrier → [`Strategy::attach_seed_node`] (the
/// deterministic first attachment, when its label falls in the epoch) →
/// sweep ([`Strategy::start_nodes`] per block of ascending local nodes,
/// a block never straddling a service point or the epoch bound; the
/// driver services traffic between blocks, as
/// [`crate::GenOptions::service_interval`] says) → completion loop
/// ([`Strategy::handle_msgs`] + [`Strategy::drain_local`] on traffic) →
/// [`Strategy::finish`]. Un-epoched runs are the single epoch `[0, n)`.
pub(crate) trait Strategy {
    /// Emit this rank's deterministic seed edges whose owner label lies
    /// in `[lo, hi)` and return the number of *pending slots* the epoch
    /// registers with the termination detector.
    fn register(&mut self, lo: Node, hi: Node) -> u64;

    /// Commit the deterministic first attaching node (node `x`) if this
    /// rank owns it and its label lies in `[lo, hi)`. Runs after the
    /// registration barrier, so completions are never observed before
    /// every rank has added its work.
    fn attach_seed_node<T: Transport<Msg>>(&mut self, net: &mut Net<'_, T>, lo: Node, hi: Node);

    /// Drive each node of `ts` (ascending local labels, never empty) as
    /// far as it goes without remote answers, cascading local
    /// resolutions as it goes: when this returns, nothing that needs no
    /// message is left pending.
    fn start_nodes<T: Transport<Msg>>(&mut self, net: &mut Net<'_, T>, ts: &[Node]);

    /// Cascade locally produced resolutions until quiescent.
    fn drain_local<T: Transport<Msg>>(&mut self, net: &mut Net<'_, T>);

    /// Process one received batch of messages (drain `msgs`).
    fn handle_msgs<T: Transport<Msg>>(
        &mut self,
        net: &mut Net<'_, T>,
        src: usize,
        msgs: &mut Vec<Msg>,
    );

    /// Post-quiescence invariant checks (debug assertions), run at the
    /// end of every epoch — empty waiter tables are exactly what makes
    /// the epoch cut checkpointable.
    fn finish(&mut self) {}

    /// Flush the edge sink and report its `(edges, bytes)` watermark for
    /// a checkpoint (see [`crate::par::sink::EdgeSink::checkpoint_mark`]).
    fn sink_mark(&mut self) -> std::io::Result<(u64, u64)>;

    /// The state a checkpoint stands for: the `F` table (`x` slots per
    /// local node) and the counters. At an epoch cut every local node
    /// below the cut is committed and nothing above it is touched, so
    /// these two are the whole engine.
    fn state(&mut self) -> (&mut AnyTable, &mut EngineCounters);

    /// Reset whatever the engine caches beside its table (engine 3's
    /// chain memo) after the committed rows below cut `hi` — written by
    /// this engine or any other — were loaded into [`Strategy::state`].
    fn restored(&mut self, _hi: Node) {}

    /// One-line progress summary (uncommitted slots, waiter-table depths)
    /// for the stall watchdog's report. Takes `&mut self` because a
    /// paged node table faults pages through its cache even on reads.
    fn stall_report(&mut self) -> String {
        String::new()
    }
}

/// Shared [`Strategy::register`] body for the general (`x ≥ 1`)
/// strategies: emit the epoch's locally owned clique edges and count the
/// epoch's pending slots (`x` per local node `t ≥ x`).
///
/// Clique edges are emitted by the owner of their higher endpoint, in
/// the epoch containing that endpoint's label — a pure function of the
/// partition, identical for every strategy, which is why it lives here
/// rather than in each impl.
pub(super) fn register_clique<P: Partition, S: EdgeSink>(
    part: &P,
    rank: usize,
    x: u64,
    lo: Node,
    hi: Node,
    edges: &mut S,
) -> u64 {
    for i in lo..hi.min(x) {
        if part.rank_of(i) == rank {
            for j in 0..i {
                edges.emit(i, j);
            }
        }
    }
    // Every local node t >= x in `[lo, hi)` owns x pending slots.
    let start = lo.max(x).min(hi);
    let pending_nodes = part.local_count_below(rank, hi) - part.local_count_below(rank, start);
    pending_nodes * x
}
