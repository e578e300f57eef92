//! The strategy layer: everything algorithm-specific, strategy-owned.
//!
//! [`super::driver`] owns exactly one thing — the message-driven epoch
//! loop (sweep, service, flush, park, terminate, checkpoint at the cut).
//! Everything a particular algorithm needs beyond that loop lives *here*,
//! owned by the strategy that uses it rather than wired into the driver:
//!
//! * the [`Strategy`] trait — the seam itself, with the wire-message
//!   schema as an associated type (`Strategy::Msg`), so each strategy
//!   picks its own message vocabulary;
//! * the three shipped strategies — [`X1`] (Algorithm 3.1's two-field
//!   `x = 1` protocol), [`General`] (Algorithm 3.2's in-order slots with
//!   request/resolved), and [`Chain`] (communication-free local chain
//!   recomputation);
//! * their private state machinery — the [`hub`] replica (only
//!   [`General`] broadcasts hub commits; no other strategy ever touches
//!   the hub path, which a conformance test pins) and the [`waiters`]
//!   tables (only the message-passing strategies park work).
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

use super::checkpoint::{CheckpointStore, SavedCheckpoint};
use super::driver::{self, Net};
use super::msg::{Msg, Msg1};
use super::output::EngineCounters;
use crate::par::sink::EdgeSink;
use crate::partition::Partition;
use crate::{Engine, GenOptions, Node, PaConfig};
use pa_mpsim::Transport;

/// A wire vocabulary and the engines that speak it.
///
/// [`Protocol::run_rank`] is the one place an [`Engine`] value becomes a
/// running strategy: it builds the strategy `opts.engine` names for this
/// rank, drives it to global quiescence over `comm` (checkpointing into
/// `store` and resuming from `resume` as [`driver::run`] describes) and
/// returns the sink and counters. [`Msg`] carries Algorithm 3.2 and the
/// communication-free engine (whose transport only ever sees the
/// driver's collectives); [`Msg1`] carries Algorithm 3.1's two-field
/// protocol.
pub(super) trait Protocol: Clone + Send + Sized + 'static {
    fn run_rank<P: Partition, S: EdgeSink, T: Transport<Self>>(
        cfg: &PaConfig,
        part: &P,
        opts: &GenOptions,
        comm: &mut T,
        sink: S,
        store: Option<&CheckpointStore>,
        resume: Option<&SavedCheckpoint>,
    ) -> (S, EngineCounters);
}

impl Protocol for Msg1 {
    fn run_rank<P: Partition, S: EdgeSink, T: Transport<Self>>(
        cfg: &PaConfig,
        part: &P,
        opts: &GenOptions,
        comm: &mut T,
        sink: S,
        store: Option<&CheckpointStore>,
        resume: Option<&SavedCheckpoint>,
    ) -> (S, EngineCounters) {
        assert_eq!(opts.engine, Engine::X1, "Msg1 carries only Engine::X1");
        let algo = X1::new(cfg, part, comm.rank(), opts, sink);
        driver::run(part, cfg.x, opts, comm, algo, store, resume).into_parts()
    }
}

impl Protocol for Msg {
    fn run_rank<P: Partition, S: EdgeSink, T: Transport<Self>>(
        cfg: &PaConfig,
        part: &P,
        opts: &GenOptions,
        comm: &mut T,
        sink: S,
        store: Option<&CheckpointStore>,
        resume: Option<&SavedCheckpoint>,
    ) -> (S, EngineCounters) {
        let (rank, nranks) = (comm.rank(), comm.nranks());
        match opts.engine {
            Engine::X1 => panic!(
                "Engine::X1 (Algorithm 3.1) speaks the two-field Msg1 protocol and runs on \
                 in-process worlds only (par::generate / par::generate_streaming); \
                 use Engine::General or Engine::Chain over an external transport"
            ),
            Engine::General => {
                let algo = General::new(cfg, part, rank, nranks, opts, sink);
                driver::run(part, cfg.x, opts, comm, algo, store, resume).into_parts()
            }
            Engine::Chain => {
                let algo = Chain::new(cfg, part, rank, opts, sink);
                driver::run(part, cfg.x, opts, comm, algo, store, resume).into_parts()
            }
        }
    }
}

/// The algorithm-specific half of an engine; [`driver::run`]
/// supplies the loop.
///
/// Hook order per rank and per epoch `[lo, hi)`:
/// [`Strategy::register`] (seed edges + pending-slot count for the
/// epoch's labels) → barrier → [`Strategy::attach_seed_node`] (the
/// deterministic first attachment, when its label falls in the epoch) →
/// sweep ([`Strategy::start_node`] + [`Strategy::drain_local`] per node)
/// → completion loop ([`Strategy::handle_msgs`] on traffic) →
/// [`Strategy::finish`]. Un-epoched runs are the single epoch `[0, n)`.
pub(crate) trait Strategy {
    /// The wire message type of this algorithm.
    type Msg: Send + 'static;

    /// Emit this rank's deterministic seed edges whose owner label lies
    /// in `[lo, hi)` and return the number of *pending slots* the epoch
    /// registers with the termination detector.
    fn register(&mut self, lo: Node, hi: Node) -> u64;

    /// Commit the deterministic first attaching node (node `x`) if this
    /// rank owns it and its label lies in `[lo, hi)`. Runs after the
    /// registration barrier, so completions are never observed before
    /// every rank has added its work.
    fn attach_seed_node<T: Transport<Self::Msg>>(
        &mut self,
        net: &mut Net<'_, Self::Msg, T>,
        lo: Node,
        hi: Node,
    );

    /// Drive node `t` as far as it goes without remote answers.
    fn start_node<T: Transport<Self::Msg>>(&mut self, net: &mut Net<'_, Self::Msg, T>, t: Node);

    /// Cascade locally produced resolutions until quiescent.
    fn drain_local<T: Transport<Self::Msg>>(&mut self, net: &mut Net<'_, Self::Msg, T>);

    /// Process one received batch of messages (drain `msgs`).
    fn handle_msgs<T: Transport<Self::Msg>>(
        &mut self,
        net: &mut Net<'_, Self::Msg, T>,
        src: usize,
        msgs: &mut Vec<Self::Msg>,
    );

    /// Post-quiescence invariant checks (debug assertions), run at the
    /// end of every epoch — empty waiter tables are exactly what makes
    /// the epoch cut checkpointable.
    fn finish(&mut self) {}

    /// Flush the edge sink and report its `(edges, bytes)` watermark for
    /// a checkpoint (see [`crate::par::sink::EdgeSink::checkpoint_mark`]).
    fn sink_mark(&mut self) -> std::io::Result<(u64, u64)>;

    /// Serialize the committed engine state below label `hi` into `out`
    /// (the epoch-cut invariants guarantee this is the *whole* state).
    fn snapshot(&mut self, hi: Node, out: &mut Vec<u8>);

    /// Rebuild the engine from a [`Strategy::snapshot`] taken at `hi`.
    ///
    /// # Errors
    ///
    /// A human-readable reason when the payload does not match this
    /// rank's shape (truncation, foreign partition, hub-size mismatch).
    fn restore(&mut self, hi: Node, payload: &[u8]) -> Result<(), String>;

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
