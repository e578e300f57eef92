//! Distributed-memory parallel PA generation (paper §3.2–§3.3).
//!
//! Which algorithm runs is a value, [`crate::Engine`], carried in
//! [`GenOptions::engine`]: Algorithm 3.1 (`x = 1`, two-field messages),
//! Algorithm 3.2 (the default; any `x ≥ 1`), or communication-free local
//! chain recomputation. All three generate the same edge set. The entry
//! points differ only in *where the ranks live* and *where edges go*:
//!
//! * [`generate`] — an in-process world over one of the standard
//!   partitioning schemes, materializing per-rank edge lists.
//! * [`generate_with`] — the same over a caller-supplied [`Partition`]
//!   (for custom layouts beyond UCP/LCP/RRP/BCP).
//! * [`generate_streaming`] — an in-process world delivering every edge
//!   to a caller-built [`EdgeSink`] instead of materializing lists.
//! * [`generate_rank_streaming`] — **one rank of an external world**
//!   over a caller-supplied [`Transport`] (multi-process backends).
//! * [`generate_rank_streaming_recoverable`] — the same with
//!   coordinated checkpoint/restart.
//!
//! Architecturally the module is three layers:
//!
//! * `driver` — the single service/flush/park/termination loop shared
//!   by all algorithms, generic over the transport and the sink;
//! * `strategy` — the per-node state machines (Algorithms 3.1, 3.2, and
//!   local chain recomputation) plugged into the driver, and the one
//!   dispatch from an [`crate::Engine`] value to a running strategy;
//! * [`EdgeSink`] — where edges go: materialized lists, counters, degree
//!   folds, or streaming disk writers.
//!
//! Multi-rank in-process runs spawn a `pa-mpsim` world (one thread per
//! rank); single-rank runs execute on the calling thread over a
//! thread-free [`pa_mpsim::LoopbackTransport`].

mod checkpoint;
mod degrees;
mod driver;
mod msg;
mod output;
mod restart;
mod sink;
mod strategy;

pub use checkpoint::{CheckpointMeta, CheckpointStore, SavedCheckpoint};
pub use degrees::{distributed_degrees, merge_degrees};
pub use msg::Msg;
pub use output::{EngineCounters, ParallelOutput, RankOutput};
pub use restart::WorldCheckpoint;
pub use sink::{CountSink, DegreeCountSink, EdgeSink, StreamingWriterSink};

use crate::partition::{self, Partition, Scheme};
use crate::{Engine, GenOptions, PaConfig};
use msg::Msg1;
use pa_graph::EdgeList;
use pa_mpsim::{thread_cpu_ns, CommStats, FaultTransport, LoopbackTransport, Transport, World};
use strategy::Protocol;

/// The checks every entry point runs before any rank spawns.
fn validate_run<P: Partition>(cfg: &PaConfig, part: &P, opts: &GenOptions) {
    cfg.validate();
    opts.validate_for(cfg.n);
    if let Err(why) = opts.engine.check(cfg.x) {
        panic!("{why}");
    }
    assert_eq!(
        part.num_nodes(),
        cfg.n,
        "partition does not cover cfg.n nodes"
    );
}

/// Run one rank of an in-process world over `comm`, wrapping it in a
/// fault-injecting decorator first when `opts.fault_plan` asks for one,
/// and measure the rank's on-CPU time around the run.
fn in_process_rank<M: Protocol, P: Partition, S: EdgeSink, T: Transport<M>>(
    cfg: &PaConfig,
    part: &P,
    opts: &GenOptions,
    mut comm: T,
    sink: S,
) -> StreamRankOutput<S> {
    let rank = comm.rank();
    let cpu_start = thread_cpu_ns();
    let ((sink, counters), comm) = match opts.fault_plan {
        Some(plan) => {
            let mut faulty = FaultTransport::new(comm, plan);
            let parts = M::run_rank(cfg, part, opts, &mut faulty, sink, None, None);
            (parts, faulty.into_stats())
        }
        None => {
            let parts = M::run_rank(cfg, part, opts, &mut comm, sink, None, None);
            (parts, comm.into_stats())
        }
    };
    let cpu_ns = cpu_start
        .zip(thread_cpu_ns())
        .map(|(start, end)| end - start);
    StreamRankOutput {
        rank,
        sink,
        comm,
        counters,
        cpu_ns,
    }
}

/// Run every rank of `part` in this process, in rank order. `P = 1` runs
/// on the calling thread over a loopback transport; larger worlds spawn
/// one thread per rank.
fn in_process<M: Protocol, P: Partition, S: EdgeSink + Send>(
    cfg: &PaConfig,
    part: &P,
    opts: &GenOptions,
    make_sink: impl Fn(usize) -> S + Send + Sync,
) -> Vec<StreamRankOutput<S>> {
    if part.nranks() == 1 {
        let comm = LoopbackTransport::<M>::new();
        vec![in_process_rank(cfg, part, opts, comm, make_sink(0))]
    } else {
        World::new(part.nranks()).run(|comm: pa_mpsim::Comm<M>| {
            let sink = make_sink(comm.rank());
            in_process_rank(cfg, part, opts, comm, sink)
        })
    }
}

/// Validate, then run `opts.engine` on every rank of `part` over the
/// wire vocabulary that engine speaks.
fn run_world<P: Partition, S: EdgeSink + Send>(
    cfg: &PaConfig,
    part: &P,
    opts: &GenOptions,
    make_sink: impl Fn(usize) -> S + Send + Sync,
) -> Vec<StreamRankOutput<S>> {
    validate_run(cfg, part, opts);
    match opts.engine {
        Engine::X1 => in_process::<Msg1, _, _>(cfg, part, opts, make_sink),
        Engine::General | Engine::Chain => in_process::<Msg, _, _>(cfg, part, opts, make_sink),
    }
}

/// Generate a PA network on `nranks` in-process ranks using one of the
/// standard partitioning schemes, with the engine `opts.engine` names
/// (Algorithm 3.2 by default).
///
/// # Panics
///
/// Panics on invalid `cfg`/`opts`, `nranks == 0`, or
/// [`Engine::X1`] with `cfg.x != 1`.
pub fn generate(
    cfg: &PaConfig,
    scheme: Scheme,
    nranks: usize,
    opts: &GenOptions,
) -> ParallelOutput {
    let part = partition::build(scheme, cfg.n, nranks);
    let mut out = generate_with(cfg, &part, opts);
    out.scheme = Some(scheme);
    out
}

/// [`generate`] over an explicit partition.
///
/// # Panics
///
/// Panics as [`generate`] does, or if the partition's node count does
/// not match `cfg.n`.
pub fn generate_with<P: Partition>(cfg: &PaConfig, part: &P, opts: &GenOptions) -> ParallelOutput {
    let outs = run_world(cfg, part, opts, |rank| {
        EdgeList::with_capacity((part.size_of(rank) * cfg.x + cfg.x * cfg.x) as usize)
    });
    let ranks = outs.into_iter().map(|o| RankOutput {
        rank: o.rank,
        edges: o.sink,
        counters: o.counters,
        comm: o.comm,
        cpu_ns: o.cpu_ns,
    });
    ParallelOutput {
        cfg: *cfg,
        scheme: None,
        ranks: ranks.collect(),
    }
}

/// One rank's result from a streaming run: the caller's sink plus the
/// usual traffic and algorithm reports.
#[derive(Debug, Clone)]
pub struct StreamRankOutput<S> {
    /// The rank id.
    pub rank: usize,
    /// The caller-provided sink, after receiving every edge of this
    /// rank's partition.
    pub sink: S,
    /// Transport statistics.
    pub comm: CommStats,
    /// Algorithm counters.
    pub counters: EngineCounters,
    /// Nanoseconds this rank's thread spent on a CPU while generating
    /// (`None` where [`pa_mpsim::thread_cpu_ns`] has no reading).
    pub cpu_ns: Option<u64>,
}

/// [`generate`], streaming each rank's edges into a sink built by
/// `make_sink(rank)` instead of materializing edge lists — the
/// "generate on the fly and analyze without disk I/O" mode of §3.2.
/// Resident memory is the engine state plus whatever the sink keeps:
/// `O(n/P)` slot words per rank, not `O(m)` edges.
///
/// # Panics
///
/// Panics as [`generate`] does.
///
/// # Example
///
/// ```
/// use pa_core::{PaConfig, par, partition::Scheme};
///
/// // Degree distribution of a network without storing a single edge.
/// let cfg = PaConfig::new(20_000, 3).with_seed(9);
/// let outs = par::generate_streaming(&cfg, Scheme::Rrp, 4, &Default::default(),
///     |_rank| par::DegreeCountSink::new(cfg.n));
/// let deg = par::DegreeCountSink::merge(outs.into_iter().map(|o| o.sink));
/// assert_eq!(deg.iter().sum::<u64>(), 2 * cfg.expected_edges());
/// ```
pub fn generate_streaming<S, F>(
    cfg: &PaConfig,
    scheme: Scheme,
    nranks: usize,
    opts: &GenOptions,
    make_sink: F,
) -> Vec<StreamRankOutput<S>>
where
    S: EdgeSink + Send,
    F: Fn(usize) -> S + Send + Sync,
{
    let part = partition::build(scheme, cfg.n, nranks);
    run_world(cfg, &part, opts, make_sink)
}

/// Run **one rank of an external world** over a caller-supplied
/// [`Transport`] — the entry point for multi-*process* backends
/// (`pa-net`'s `TcpTransport`, eventually real MPI), where each OS
/// process executes exactly one rank and the in-process world spawning
/// of [`generate_streaming`] does not apply.
///
/// The rank and world size come from the transport; the partition must
/// cover `cfg.n` nodes across `comm.nranks()` ranks. Edges stream into
/// `sink` exactly as in [`generate_streaming`]. The transport is
/// borrowed, not consumed, so the caller can keep using its collectives
/// afterwards (stats aggregation, output coordination); read the final
/// traffic counts from [`Transport::stats`]. Under [`Engine::Chain`] the
/// transport only ever carries the driver's collectives (barriers,
/// termination counting): it sends zero algorithm messages.
///
/// # Panics
///
/// Panics on invalid `cfg`/`opts`, a partition/transport shape mismatch,
/// when `opts.fault_plan` is set (fault injection wraps a transport
/// whole — apply it outside before calling), or when `opts.engine` is
/// [`Engine::X1`] (Algorithm 3.1 speaks its own two-field messages,
/// which external transports do not carry; it runs on in-process worlds
/// only).
pub fn generate_rank_streaming<P, S, T>(
    cfg: &PaConfig,
    part: &P,
    opts: &GenOptions,
    comm: &mut T,
    sink: S,
) -> (S, EngineCounters)
where
    P: Partition,
    S: EdgeSink,
    T: Transport<Msg>,
{
    generate_rank_streaming_recoverable(cfg, part, opts, comm, sink, None, None)
}

/// [`generate_rank_streaming`] with coordinated checkpoint/restart: when
/// `store` is given and `opts.checkpoint_interval` is set, every epoch
/// boundary writes an atomic per-rank checkpoint into the store; when
/// `resume` is given, the engine is restored from that saved epoch and
/// generation continues from the first label after its watermark.
///
/// The caller owns the surrounding recovery protocol: agreeing on a
/// common resume epoch across ranks (e.g. an `allreduce` over
/// [`CheckpointStore::latest`]), truncating part files back to the saved
/// `(edges, bytes)` watermark, and handing in a sink positioned at that
/// watermark (see [`StreamingWriterSink::resume`]).
///
/// # Panics
///
/// Panics as [`generate_rank_streaming`] does, and additionally when
/// `store`/`resume` are supplied without `opts.checkpoint_interval`, or
/// when the resumed checkpoint does not line up with the epoch grid.
pub fn generate_rank_streaming_recoverable<P, S, T>(
    cfg: &PaConfig,
    part: &P,
    opts: &GenOptions,
    comm: &mut T,
    sink: S,
    store: Option<&CheckpointStore>,
    resume: Option<&SavedCheckpoint>,
) -> (S, EngineCounters)
where
    P: Partition,
    S: EdgeSink,
    T: Transport<Msg>,
{
    validate_run(cfg, part, opts);
    assert!(
        opts.fault_plan.is_none(),
        "fault injection must wrap the transport before generate_rank_streaming"
    );
    assert!(
        (store.is_none() && resume.is_none()) || opts.checkpoint_interval.is_some(),
        "checkpoint store/resume require GenOptions::checkpoint_interval"
    );
    assert_eq!(
        part.nranks(),
        comm.nranks(),
        "partition rank count does not match the transport world"
    );
    // Resuming keeps (and re-verifies) a paged store's spill files; a
    // fresh run must start from clean pages.
    let mut opts = opts.clone();
    opts.store = opts.store.with_resume(resume.is_some());
    Msg::run_rank(cfg, part, &opts, comm, sink, store, resume)
}

/// `perf/src/layers.rs` still calls the engine-3 entry points by name and
/// is frozen between benchmark PRs; the next `benchmark` PR switches it
/// to `with_engine(Engine::Chain)` and removes these two shims.
#[doc(hidden)]
pub fn generate3_streaming<S, F>(
    cfg: &PaConfig,
    scheme: Scheme,
    nranks: usize,
    opts: &GenOptions,
    make_sink: F,
) -> Vec<StreamRankOutput<S>>
where
    S: EdgeSink + Send,
    F: Fn(usize) -> S + Send + Sync,
{
    let opts = opts.clone().with_engine(Engine::Chain);
    generate_streaming(cfg, scheme, nranks, &opts, make_sink)
}

/// See [`generate3_streaming`].
#[doc(hidden)]
pub fn generate_rank3_streaming<P: Partition, S: EdgeSink, T: Transport<Msg>>(
    cfg: &PaConfig,
    part: &P,
    opts: &GenOptions,
    comm: &mut T,
    sink: S,
) -> (S, EngineCounters) {
    let opts = opts.clone().with_engine(Engine::Chain);
    generate_rank_streaming(cfg, part, &opts, comm, sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq;
    use pa_graph::validate::assert_valid_pa_network;

    fn opts() -> GenOptions {
        GenOptions {
            buffer_capacity: 16,
            service_interval: 8,
            ..GenOptions::default()
        }
    }

    fn engine_opts(engine: Engine) -> GenOptions {
        opts().with_engine(engine)
    }

    /// The `x` values worth running `engine` at: Algorithm 3.1 only
    /// exists for `x = 1`.
    fn xs_for(engine: Engine) -> &'static [u64] {
        match engine {
            Engine::X1 => &[1],
            Engine::General | Engine::Chain => &[1, 4],
        }
    }

    #[test]
    fn x1_engine_matches_sequential_copy_model_on_any_world() {
        let cfg = PaConfig::new(3000, 1).with_seed(11);
        let reference = seq::copy_model(&cfg).canonicalized();
        for nranks in [1usize, 2, 3, 7] {
            for scheme in Scheme::ALL {
                let out = generate(&cfg, scheme, nranks, &engine_opts(Engine::X1));
                assert_eq!(
                    out.edge_list().canonicalized(),
                    reference,
                    "x=1 must be bit-identical: P={nranks}, {scheme}"
                );
            }
        }
    }

    #[test]
    fn general_engine_with_x1_matches_algorithm_31() {
        let cfg = PaConfig::new(2000, 1).with_seed(5);
        let a = generate(&cfg, Scheme::Rrp, 4, &engine_opts(Engine::X1));
        let b = generate(&cfg, Scheme::Rrp, 4, &opts());
        assert_eq!(a.edge_list().canonicalized(), b.edge_list().canonicalized());
    }

    #[test]
    fn paged_store_is_byte_identical_to_resident_for_all_engines() {
        let dir = std::env::temp_dir().join(format!("pa_core_paged_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // A 4 KiB budget over 512-byte pages is far below any rank's F
        // footprint here, so the cache evicts constantly.
        let store = crate::store::StoreSpec::paged(&dir, 4 * 1024).with_page_bytes(512);
        for engine in Engine::ALL {
            for &x in xs_for(engine) {
                let cfg = PaConfig::new(3_000, x).with_seed(11);
                let resident = engine_opts(engine);
                let paged = resident.clone().with_store(store.clone());
                for scheme in [Scheme::Rrp, Scheme::Ucp] {
                    let a = generate(&cfg, scheme, 4, &paged).edge_list();
                    let b = generate(&cfg, scheme, 4, &resident).edge_list();
                    if engine == Engine::Chain {
                        // Label-order emission: identical bytes, not just sets.
                        assert_eq!(a, b, "{engine}, x={x}, {scheme}");
                    }
                    assert_eq!(
                        a.canonicalized(),
                        b.canonicalized(),
                        "{engine}, x={x}, {scheme}"
                    );
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn single_rank_general_engine_equals_sequential_exactly() {
        for x in [1u64, 2, 4] {
            let cfg = PaConfig::new(1500, x).with_seed(3);
            let out = generate(&cfg, Scheme::Ucp, 1, &opts());
            // P = 1 resolves every dependency immediately in sweep order,
            // so even the edge *order* matches the sequential generator.
            assert_eq!(out.edge_list(), seq::copy_model(&cfg), "x = {x}");
        }
    }

    #[test]
    fn single_rank_runs_use_the_loopback_transport() {
        // P = 1 must not route through the threaded world: the loopback
        // transport has exactly one rank's stats and no remote traffic.
        let cfg = PaConfig::new(500, 2).with_seed(3);
        let out = generate(&cfg, Scheme::Ucp, 1, &opts());
        assert_eq!(out.ranks.len(), 1);
        assert_eq!(out.ranks[0].comm.msgs_sent, 0);
        assert_eq!(out.ranks[0].comm.msgs_recv, 0);
    }

    #[test]
    fn every_rank_reports_its_cpu_time() {
        // P = 1 runs on the calling thread, P = 3 on world threads; both
        // measure around the rank's own run.
        let cfg = PaConfig::new(20_000, 4).with_seed(3);
        for nranks in [1usize, 3] {
            let out = generate(&cfg, Scheme::Rrp, nranks, &opts());
            for r in &out.ranks {
                assert!(
                    matches!(r.cpu_ns, Some(v) if v > 0),
                    "P={nranks} rank {}: {:?}",
                    r.rank,
                    r.cpu_ns
                );
            }
        }
    }

    /// A streamed run must deliver exactly the materialized run's edges.
    fn streaming_counts_match_materialized_run(engine: Engine, x: u64, scheme: Scheme) {
        let cfg = PaConfig::new(1_500, x).with_seed(7);
        let o = engine_opts(engine);
        let outs = generate_streaming(&cfg, scheme, 3, &o, |_| CountSink::default());
        let total: u64 = outs.iter().map(|o| o.sink.edges).sum();
        assert_eq!(total, cfg.expected_edges());
        let materialized = generate(&cfg, scheme, 3, &o);
        assert_eq!(materialized.total_edges() as u64, total);
    }

    #[test]
    fn x1_streaming_counts_match_materialized_run() {
        streaming_counts_match_materialized_run(Engine::X1, 1, Scheme::Rrp);
    }

    #[test]
    fn engine3_streaming_counts_match_materialized_run() {
        streaming_counts_match_materialized_run(Engine::Chain, 2, Scheme::Lcp);
    }

    #[test]
    fn parallel_output_is_a_valid_network_for_all_schemes() {
        let cfg = PaConfig::new(4000, 4).with_seed(17);
        for scheme in Scheme::ALL {
            for nranks in [2usize, 5] {
                let out = generate(&cfg, scheme, nranks, &opts());
                let edges = out.edge_list();
                assert_valid_pa_network(cfg.n, cfg.x, &edges);
                assert_eq!(out.total_edges() as u64, cfg.expected_edges());
            }
        }
    }

    #[test]
    fn parallel_network_is_connected() {
        let cfg = PaConfig::new(3000, 3).with_seed(23);
        let out = generate(&cfg, Scheme::Rrp, 4, &opts());
        let csr = pa_graph::Csr::from_edges(cfg.n as usize, &out.edge_list());
        assert_eq!(csr.connected_components(), 1);
    }

    #[test]
    fn counters_are_consistent_with_edges() {
        let cfg = PaConfig::new(2500, 2).with_seed(31);
        let out = generate(&cfg, Scheme::Lcp, 3, &opts());
        let totals = out.total_counters();
        // Every non-clique, non-node-x edge is either direct or copy.
        let clique = cfg.x * (cfg.x - 1) / 2;
        let attach_x = cfg.x;
        assert_eq!(
            totals.direct_edges + totals.copy_edges,
            cfg.expected_edges() - clique - attach_x
        );
        // Node counts cover the whole node set.
        assert_eq!(totals.nodes, cfg.n);
    }

    #[test]
    fn degenerate_two_node_network() {
        let cfg = PaConfig::new(2, 1).with_seed(1);
        let out = generate(&cfg, Scheme::Ucp, 2, &opts());
        assert_eq!(out.edge_list().as_slice(), &[(1, 0)]);
    }

    #[test]
    fn unbuffered_and_buffered_runs_agree_for_x1() {
        let cfg = PaConfig::new(1200, 1).with_seed(77);
        let buffered = generate(
            &cfg,
            Scheme::Rrp,
            3,
            &GenOptions {
                buffer_capacity: 512,
                service_interval: 64,
                ..GenOptions::default()
            },
        );
        let unbuffered = generate(
            &cfg,
            Scheme::Rrp,
            3,
            &GenOptions {
                buffer_capacity: 1,
                service_interval: 1,
                ..GenOptions::default()
            },
        );
        assert_eq!(
            buffered.edge_list().canonicalized(),
            unbuffered.edge_list().canonicalized()
        );
        // Unbuffered sends at least as many packets.
        let pk = |o: &ParallelOutput| o.ranks.iter().map(|r| r.comm.packets_sent).sum::<u64>();
        assert!(pk(&unbuffered) >= pk(&buffered));
    }

    #[test]
    fn many_ranks_for_few_nodes() {
        // More ranks than busy nodes: empty partitions must not hang.
        let cfg = PaConfig::new(10, 2).with_seed(2);
        let out = generate(&cfg, Scheme::Rrp, 8, &opts());
        assert_valid_pa_network(10, 2, &out.edge_list());
    }

    #[test]
    #[should_panic(expected = "Algorithm 3.1")]
    fn generate_x1_rejects_larger_x() {
        let cfg = PaConfig::new(10, 2);
        let _ = generate(&cfg, Scheme::Ucp, 2, &engine_opts(Engine::X1));
    }

    #[test]
    #[should_panic(expected = "Engine::X1")]
    fn rank_entry_point_rejects_engine_x1_by_name() {
        let cfg = PaConfig::new(100, 1).with_seed(1);
        let part = partition::build(Scheme::Ucp, cfg.n, 1);
        let mut t = LoopbackTransport::new();
        let o = engine_opts(Engine::X1);
        let _ = generate_rank_streaming(&cfg, &part, &o, &mut t, EdgeList::new());
    }

    #[test]
    fn perf_shims_equal_with_engine_chain() {
        // Engine 3 emits in label order, so equality is exact, per rank.
        let cfg = PaConfig::new(1_500, 3).with_seed(13);
        let chain = engine_opts(Engine::Chain);
        let lists = |outs: Vec<StreamRankOutput<EdgeList>>| -> Vec<EdgeList> {
            outs.into_iter().map(|o| o.sink).collect()
        };
        // The shims override whatever engine the options name.
        let via_shim = generate3_streaming(&cfg, Scheme::Rrp, 3, &opts(), |_| EdgeList::new());
        let direct = generate_streaming(&cfg, Scheme::Rrp, 3, &chain, |_| EdgeList::new());
        let direct = lists(direct);
        assert_eq!(lists(via_shim), direct);

        let part = partition::build(Scheme::Rrp, cfg.n, 3);
        let via_rank_shim = World::new(3).run(|mut comm| {
            generate_rank3_streaming(&cfg, &part, &opts(), &mut comm, EdgeList::new()).0
        });
        assert_eq!(via_rank_shim, direct);
    }

    #[test]
    fn engine3_matches_sequential_for_all_schemes_and_worlds() {
        let cfg = PaConfig::new(3_000, 4).with_seed(8);
        let reference = seq::copy_model(&cfg).canonicalized();
        for nranks in [1usize, 2, 4, 8] {
            for scheme in Scheme::EXTENDED {
                let out = generate(&cfg, scheme, nranks, &engine_opts(Engine::Chain));
                assert_eq!(
                    out.edge_list().canonicalized(),
                    reference,
                    "engine3 must be bit-identical: P={nranks} {scheme}"
                );
            }
        }
    }

    #[test]
    fn engine3_sends_zero_algorithm_messages() {
        let cfg = PaConfig::new(3_000, 4).with_seed(8);
        let out = generate(&cfg, Scheme::Rrp, 8, &engine_opts(Engine::Chain));
        for r in &out.ranks {
            assert_eq!(
                r.comm.msgs_sent, 0,
                "rank {} put algorithm messages on the wire",
                r.rank
            );
            assert_eq!(r.comm.msgs_recv, 0, "rank {} received messages", r.rank);
            assert_eq!(r.counters.requests_sent, 0);
            assert_eq!(r.counters.hub_updates, 0);
        }
        let totals = out.total_counters();
        assert!(
            totals.chain_rows_recomputed > 0,
            "a multi-rank run must have recomputed remote rows"
        );
        assert!(totals.chain_peak_depth >= 1);
    }

    #[test]
    fn engine3_memo_size_never_changes_the_network() {
        // The chain memo caches values of a pure function, so any
        // capacity — including 0 (disabled) and 1 (constant eviction) —
        // must yield the identical edge set.
        let cfg = PaConfig::new(2_000, 3).with_seed(19);
        let reference = seq::copy_model(&cfg).canonicalized();
        let chain = engine_opts(Engine::Chain);
        for memo in [0u64, 1, 16, 1 << 20] {
            let out = generate(&cfg, Scheme::Ucp, 4, &chain.clone().with_chain_memo(memo));
            assert_eq!(
                out.edge_list().canonicalized(),
                reference,
                "chain_memo_nodes = {memo}"
            );
        }
        // A warm memo must actually be hit at these sizes.
        let out = generate(&cfg, Scheme::Ucp, 4, &chain);
        assert!(out.total_counters().chain_memo_hits > 0, "memo never hit");
    }

    /// Run a checkpointing 3-rank world to completion, then gang-restart
    /// it from the older of the two surviving epochs: each rank reloads
    /// its engine state, hands in a sink truncated to the saved edge
    /// watermark, and replays the remaining epochs. The stitched output
    /// must equal the uninterrupted run's and the sequential oracle.
    fn checkpoint_resume_round_trip(engine: Engine, tag: &str) {
        let cfg = PaConfig::new(2_400, 3).with_seed(29);
        let epoch_opts = engine_opts(engine).with_checkpoint_interval(500);
        let part = partition::build(Scheme::Rrp, cfg.n, 3);
        let dir = std::env::temp_dir().join(format!("pa_core_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let meta = CheckpointMeta::for_run(&cfg, Scheme::Rrp, 3, &epoch_opts);
        let open = |rank: usize| CheckpointStore::new(&dir, rank as u32, meta).unwrap();
        let full: Vec<EdgeList> = World::new(3).run(|mut comm| {
            let store = open(comm.rank());
            generate_rank_streaming_recoverable(
                &cfg,
                &part,
                &epoch_opts,
                &mut comm,
                EdgeList::new(),
                Some(&store),
                None,
            )
            .0
        });
        let reference = EdgeList::concat(full.clone()).canonicalized();
        assert_eq!(
            reference,
            seq::copy_model(&cfg).canonicalized(),
            "checkpointed {engine} run drifted from the sequential oracle"
        );

        let resumed: Vec<EdgeList> = World::new(3).run(|mut comm| {
            let rank = comm.rank();
            let store = open(rank);
            let saved = store.load(store.latest().unwrap() - 1).unwrap();
            let prefix = &full[rank].as_slice()[..saved.edges as usize];
            let sink = EdgeList::from_vec(prefix.to_vec());
            generate_rank_streaming_recoverable(
                &cfg,
                &part,
                &epoch_opts,
                &mut comm,
                sink,
                None,
                Some(&saved),
            )
            .0
        });
        assert_eq!(EdgeList::concat(resumed).canonicalized(), reference);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_resume_reproduces_the_uninterrupted_run() {
        checkpoint_resume_round_trip(Engine::General, "resume");
    }

    #[test]
    fn engine3_checkpoint_resume_reproduces_the_uninterrupted_run() {
        checkpoint_resume_round_trip(Engine::Chain, "resume3");
    }

    #[test]
    fn rank_entry_point_matches_sequential_on_loopback() {
        let cfg = PaConfig::new(1500, 2).with_seed(13);
        let part = partition::build(Scheme::Ucp, cfg.n, 1);
        let mut t = LoopbackTransport::new();
        let (edges, counters) =
            generate_rank_streaming(&cfg, &part, &opts(), &mut t, EdgeList::new());
        assert_eq!(edges, seq::copy_model(&cfg));
        assert_eq!(counters.nodes, cfg.n);
    }

    #[test]
    fn epoch_boundaries_do_not_change_the_output() {
        // Checkpoint epochs only add barriers at label cuts; the generated
        // network must stay bit-identical for any interval, every engine.
        for engine in Engine::ALL {
            for &x in xs_for(engine) {
                let cfg = PaConfig::new(2000, x).with_seed(19);
                let reference = seq::copy_model(&cfg).canonicalized();
                for interval in [1u64, 257, 1999, 2000, 5000] {
                    let epoch_opts = engine_opts(engine).with_checkpoint_interval(interval);
                    let out = generate(&cfg, Scheme::Rrp, 3, &epoch_opts);
                    assert_eq!(
                        out.edge_list().canonicalized(),
                        reference,
                        "{engine}, x={x}, interval {interval}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "checkpoint_interval")]
    fn recoverable_entry_point_rejects_store_without_interval() {
        let cfg = PaConfig::new(100, 2).with_seed(1);
        let part = partition::build(Scheme::Ucp, cfg.n, 1);
        let dir = std::env::temp_dir().join(format!("pa_core_noint_{}", std::process::id()));
        let meta = CheckpointMeta::for_run(&cfg, Scheme::Ucp, 1, &opts());
        let store = CheckpointStore::new(&dir, 0, meta).unwrap();
        let mut t = LoopbackTransport::new();
        let _ = generate_rank_streaming_recoverable(
            &cfg,
            &part,
            &opts(),
            &mut t,
            EdgeList::new(),
            Some(&store),
            None,
        );
    }

    #[test]
    fn rank_entry_points_match_world_runs() {
        // Driving each rank of a threaded world through the external-rank
        // entry point must reproduce the internally spawned run exactly —
        // this is the API contract the multi-process TCP backend builds on.
        let cfg = PaConfig::new(2000, 4).with_seed(21);
        let reference = seq::copy_model(&cfg).canonicalized();
        let part = partition::build(Scheme::Rrp, cfg.n, 3);
        for engine in [Engine::General, Engine::Chain] {
            let o = engine_opts(engine);
            let shards = World::new(3).run(|mut comm| {
                generate_rank_streaming(&cfg, &part, &o, &mut comm, EdgeList::new()).0
            });
            assert_eq!(EdgeList::concat(shards).canonicalized(), reference);
        }
    }
}
