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
//! Every strategy checkpoints the same payload — its committed `F`
//! prefix and its counters ([`crate::store::write_checkpoint_payload`])
//! — so a snapshot taken under one engine restores into any other at
//! the same `x`.
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
pub(super) fn run_rank<P: Partition, S: EdgeSink, T: Transport<Msg>>(
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
        Engine::X1 => {
            let algo = X1::new(cfg, part, rank, opts, sink);
            driver::run(part, cfg.x, opts, comm, algo, store, resume).into_parts()
        }
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
    /// Emit this rank's deterministic seed edges whose owner label lies
    /// in `[lo, hi)` and return the number of *pending slots* the epoch
    /// registers with the termination detector.
    fn register(&mut self, lo: Node, hi: Node) -> u64;

    /// Commit the deterministic first attaching node (node `x`) if this
    /// rank owns it and its label lies in `[lo, hi)`. Runs after the
    /// registration barrier, so completions are never observed before
    /// every rank has added its work.
    fn attach_seed_node<T: Transport<Msg>>(&mut self, net: &mut Net<'_, T>, lo: Node, hi: Node);

    /// Drive node `t` as far as it goes without remote answers.
    fn start_node<T: Transport<Msg>>(&mut self, net: &mut Net<'_, T>, t: Node);

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

    /// The state a checkpoint captures
    /// ([`crate::store::write_checkpoint_payload`]): the `F` table (`x` slots
    /// per local node) and the counters. At an epoch cut every local
    /// node below the cut is committed and nothing above it is touched,
    /// so these two are the whole engine.
    fn state(&mut self) -> (&mut AnyTable, &mut EngineCounters);

    /// Reset whatever the engine caches beside its table (engine 3's
    /// chain memo) after a payload — written by this engine or any
    /// other — was loaded into [`Strategy::state`] at cut `hi`.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::CheckpointMeta;
    use crate::partition::{self, Scheme};
    use crate::store;
    use pa_graph::{io::EdgeFormat, EdgeList};

    /// Take a real snapshot from `fresh()`, cut or extend its counter
    /// section, re-seal each variant through a checkpoint store (so the
    /// checksum holds) and restore it into another `fresh()` engine:
    /// every variant must be a named error, never a panic or a success.
    fn damaged_counters_fail_restore<A: Strategy>(
        tag: &str,
        meta: CheckpointMeta,
        fresh: impl Fn() -> A,
    ) {
        let x = meta.job.x;
        let mut payload = Vec::new();
        let mut engine = fresh();
        let (f, counters) = engine.state();
        store::write_checkpoint_payload(f, 0, x, counters.to_words(), &mut payload);
        // A cut at label 0: `[cnt = 0][counter words]`, nothing after.
        let end = 8 + 8 * EngineCounters::NAMES.len();
        assert_eq!(
            payload.len(),
            end,
            "{tag}: the payload ends at the counters"
        );
        let dir =
            std::env::temp_dir().join(format!("pa_core_restore_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ckpt = CheckpointStore::new(&dir, 0, meta).unwrap();
        let restore = |bytes: &[u8]| {
            ckpt.save(0, 0, 0, 0, bytes).unwrap();
            let saved = ckpt.load(0).expect("a re-sealed checkpoint loads");
            let mut engine = fresh();
            let (f, _) = engine.state();
            store::read_checkpoint_payload::<{ EngineCounters::NAMES.len() }>(
                f,
                0,
                x,
                &saved.payload,
            )
            .map(drop)
        };
        assert_eq!(restore(&payload), Ok(()), "{tag}: the intact payload");
        for cut in 1..=end - 8 {
            let mut bytes = payload.clone();
            bytes.drain(end - cut..end);
            let err = restore(&bytes).expect_err("a cut counter section restores");
            assert!(!err.is_empty(), "{tag}: cut {cut}");
        }
        for fill in [0x00, 0xff] {
            for extra in 1..=16 {
                let mut bytes = payload.clone();
                bytes.splice(end..end, vec![fill; extra]);
                let err = restore(&bytes).expect_err("an extended counter section restores");
                assert!(!err.is_empty(), "{tag}: {extra} extra {fill:#04x} bytes");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_counter_sections_are_named_restore_errors_on_every_engine() {
        let opts = GenOptions::default();
        let meta = |cfg: &PaConfig, engine: Engine| {
            let opts = opts.clone().with_engine(engine);
            CheckpointMeta::for_run(cfg, Scheme::Rrp, 2, &opts, EdgeFormat::Binary)
        };
        let cfg1 = PaConfig::new(400, 1).with_seed(3);
        let cfg = PaConfig::new(400, 2).with_seed(3);
        let part = partition::build(Scheme::Rrp, cfg.n, 2);
        damaged_counters_fail_restore("e1", meta(&cfg1, Engine::X1), || {
            X1::new(&cfg1, &part, 0, &opts, EdgeList::new())
        });
        // Two ranks, so engine 2 holds a hub replica; it is not part of
        // the payload.
        damaged_counters_fail_restore("e2", meta(&cfg, Engine::General), || {
            General::new(&cfg, &part, 0, 2, &opts, EdgeList::new())
        });
        damaged_counters_fail_restore("e3", meta(&cfg, Engine::Chain), || {
            Chain::new(&cfg, &part, 0, &opts, EdgeList::new())
        });
    }
}
