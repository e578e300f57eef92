//! The per-layer pass: isolated timings of the crates' public functions
//! on pinned inputs (*micro*), exact counts from `CommStats` /
//! `EngineCounters` (*count*), and shares from a traced in-process run
//! of the workload's world (*span*). Nothing here touches the crates:
//! every number is taken from outside.

use crate::proc::{self, Watch};
use crate::spec::{self, Launcher, Workload};
use crate::stats::median;
use crate::trace::{self_time_ns, Recorder, Span, TracedSink, TracedTransport, TracedWriter};
use crate::workloads::{config, Env, Generator, Outcome};
use pa_core::par::{self, CountSink, EngineCounters, Msg, StreamingWriterSink};
use pa_core::partition::{self, AnyPartition, Partition, Rrp, Scheme};
use pa_core::store::{NodeTable, PagedSpec, PagedTable, ResidentTable, StoreSpec};
use pa_core::{GenOptions, Model, ModelKind, PaConfig};
use pa_graph::io::{EdgeFormat, EdgeWriter, Fnv1a};
use pa_mpsim::{BufferedComm, CommStats, Transport, Wire, World};
use pa_net::{TcpConfig, TcpTransport};
use pa_rng::EventKeys;
use std::fs::File;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// `(per-layer metric name, value)` pairs.
pub type Values = Vec<(&'static str, f64)>;

/// Messages per packet in the transport micros: the engines' default
/// `buffer_capacity`.
const PACKET_MSGS: usize = 4096;

/// Median seconds of `reps` timed calls of `f`, after one discarded
/// warm-up call.
fn time_s(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    time_cold_s(reps, f)
}

/// [`time_s`] without the warm-up, for calls that take seconds.
fn time_cold_s(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Median ns per operation over `reps` batches of `ops` operations.
fn ns_per_op(reps: usize, ops: u64, f: impl FnMut()) -> f64 {
    time_s(reps, f) * 1e9 / ops as f64
}

/// A request as engine 2 sends them, varied so nothing constant-folds.
fn sample_msg(i: u64) -> Msg {
    Msg::Request {
        t: i,
        e: (i % spec::X) as u32,
        k: i / 2,
        l: (i % 3) as u32,
        a: 0,
    }
}

/// The micros that do not depend on the workload, for the layers `w`
/// runs through (`Layer::on`). `scale` shrinks the inputs under smoke.
pub fn micros(env: &Env, w: &Workload) -> Values {
    let on = |name: &str| {
        spec::PER_LAYER
            .iter()
            .any(|l| l.name == name && l.on & spec::bit(w) != 0)
    };
    let scale = if env.smoke { 20 } else { 1 };
    let n = 2_000_000 / scale;
    let cfg = config(n, env.seed);
    let model = Model::resolve(&cfg, ModelKind::Pa);
    let mut out: Values = Vec::new();

    if on("rng.event_keys_ns") {
        let ops = n;
        out.push((
            "rng.event_keys_ns",
            ns_per_op(5, ops, || {
                let mut acc = 0u64;
                for t in 0..ops {
                    acc ^= EventKeys::for_node(env.seed, black_box(t)).key(0, 0);
                }
                black_box(acc);
            }),
        ));
    }
    if on("model.draw_row_ns_per_edge") {
        let nodes = n / 4;
        let mut row = Vec::new();
        out.push((
            "model.draw_row_ns_per_edge",
            ns_per_op(5, nodes * spec::X, || {
                for t in spec::X + 1..spec::X + 1 + nodes {
                    model.draw_row(&model.keys_for(t), black_box(t), &mut row);
                    black_box(&row);
                }
            }),
        ));
        // The re-draw path: one node, keys hoisted, rising attempts.
        let t0 = n / 2;
        let keys = model.keys_for(t0);
        out.push((
            "model.draw_single_ns",
            ns_per_op(5, nodes, || {
                for attempt in 0..nodes as u32 {
                    black_box(model.draw_keyed(&keys, t0, 1, black_box(attempt)));
                }
            }),
        ));
    }
    if on("seq.copy_model_ns_per_edge") {
        let small = config(n / 2, env.seed);
        out.push((
            "seq.copy_model_ns_per_edge",
            ns_per_op(3, small.expected_edges(), || {
                black_box(pa_core::seq::copy_model(&small));
            }),
        ));
    }
    if on("partition.rrp_rank_of_ns") {
        let part = Rrp::new(n, spec::RANKS);
        out.push((
            "partition.rrp_rank_of_ns",
            ns_per_op(5, n, || {
                let mut acc = 0usize;
                for v in 0..n {
                    acc += part.rank_of(black_box(v));
                }
                black_box(acc);
            }),
        ));
    }
    if on("store.resident_get_ns") {
        // One table over all n nodes (32 MiB at full size, well past
        // the last-level cache); the slot trace is the model's own, so
        // reads concentrate on low labels as the engines' do.
        let trace = slot_trace(&model, n, n / 2);
        let mut table = ResidentTable::new(n * spec::X, u64::MAX);
        out.push((
            "store.resident_set_ns",
            ns_per_op(5, table.len(), || {
                for slot in 0..table.len() {
                    table.set(slot, black_box(slot));
                }
            }),
        ));
        out.push((
            "store.resident_get_ns",
            ns_per_op(5, trace.len() as u64, || {
                let mut acc = 0u64;
                for &slot in &trace {
                    acc ^= table.get(slot);
                }
                black_box(acc);
            }),
        ));
    }
    if on("io.edgewriter_bin_ns_per_edge") {
        for (name, format, edges) in [
            ("io.edgewriter_bin_ns_per_edge", EdgeFormat::Binary, n),
            ("io.edgewriter_txt_ns_per_edge", EdgeFormat::Text, n / 4),
        ] {
            out.push((
                name,
                ns_per_op(3, edges, || {
                    let mut w = EdgeWriter::new(std::io::sink(), format);
                    for i in 0..edges {
                        w.push(black_box(i + 7), i / 2);
                    }
                    black_box(w.finish().expect("sink never fails"));
                }),
            ));
        }
        let bytes = vec![0x5au8; (32 << 20) / scale as usize];
        let s = time_s(3, || {
            black_box(Fnv1a::hash(black_box(&bytes)));
        });
        out.push((
            "io.fnv1a_mib_per_s",
            bytes.len() as f64 / (1 << 20) as f64 / s,
        ));
    }
    if on("mpsim.stream_ns_per_msg") {
        out.extend(mpsim_micros(scale));
    }
    if on("net.frame_encode_ns_per_msg") {
        out.extend(net_micros(scale));
    }
    if on("store.paged_get_ns") {
        out.extend(paged_micros(env, &model, n / 8));
    }
    out
}

/// `len` table slots as the copy model reads them: `F_k(l)` for the
/// attempt-0 draws of ascending nodes of an `n`-node network.
fn slot_trace(model: &Model, n: u64, len: u64) -> Vec<u64> {
    let mut row = Vec::new();
    let mut trace = Vec::with_capacity(len as usize);
    // Start high so the drawn k range over most of the table.
    let mut t = n - len.div_ceil(spec::X) - 1;
    while (trace.len() as u64) < len {
        model.draw_row(&model.keys_for(t), t, &mut row);
        trace.extend(row.iter().map(|c| c.k * spec::X + c.l));
        t += 1;
    }
    trace.truncate(len as usize);
    trace
}

/// `store.paged_*` micros: a table of `nodes·x` slots under a quarter of
/// its size in 16 KiB pages. Sets run in ascending order (how an engine
/// commits), gets follow the model's trace (how it reads).
fn paged_micros(env: &Env, model: &Model, nodes: u64) -> Values {
    let len = nodes * spec::X;
    let dir = env.scratch.path("store-micro");
    let spec = PagedSpec {
        dir: dir.clone(),
        budget_bytes: len * 8 / 4,
        page_bytes: 16 << 10,
        resume: false,
    };
    // A page fault costs tens of microseconds (read + checksum of a
    // 16 KiB page), so the get trace is short and nothing is repeated.
    let trace = slot_trace(model, nodes, len / 16);
    let mut table = PagedTable::open(&spec, "micro", len, u64::MAX).expect("open a paged table");
    let set_ns = time_cold_s(1, || {
        for slot in 0..len {
            table.set(slot, black_box(slot));
        }
    }) * 1e9
        / len as f64;
    let get_ns = time_cold_s(1, || {
        let mut acc = 0u64;
        for &slot in &trace {
            acc ^= table.get(slot);
        }
        black_box(acc);
    }) * 1e9
        / trace.len() as f64;
    // Dirty every page again so the flush has the whole cache to write.
    for slot in (0..len).step_by(64) {
        table.set(slot, slot + 1);
    }
    let t = Instant::now();
    table.flush().expect("flush the paged table");
    let flush_ms = t.elapsed().as_secs_f64() * 1e3;
    let disk: u64 = std::fs::read_dir(&dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum();
    drop(table);
    let _ = std::fs::remove_dir_all(&dir);
    vec![
        ("store.paged_set_ns", set_ns),
        ("store.paged_get_ns", get_ns),
        ("store.paged_flush_ms", flush_ms),
        ("store.paged_disk_mib", disk as f64 / (1 << 20) as f64),
    ]
}

/// Rank 0 sends `packets · PACKET_MSGS` messages to rank 1 through
/// `sender` (given the message count); rank 1 receives and recycles.
/// Generic over the transport so mpsim and TCP share it.
fn stream_pair<T: Transport<Msg>>(comm: &mut T, packets: usize, sender: impl FnOnce(&mut T, u64)) {
    let total = packets * PACKET_MSGS;
    if comm.rank() == 0 {
        sender(comm, total as u64);
    } else {
        let mut got = 0;
        while got < total {
            if let Some(pkt) = comm.recv_timeout(Duration::from_secs(10)) {
                got += pkt.msgs.len();
                black_box(&pkt.msgs);
                comm.recycle(pkt.src, pkt.msgs);
            }
        }
    }
    comm.barrier();
}

/// Stream by whole packets from the recycled pool (what `BufferedComm`
/// does at capacity, minus the per-message push).
fn stream_packets<T: Transport<Msg>>(comm: &mut T, packets: usize) {
    stream_pair(comm, packets, |comm, total| {
        for first in (0..total).step_by(PACKET_MSGS) {
            let mut buf = comm.acquire_buffer(1);
            buf.extend((first..first + PACKET_MSGS as u64).map(sample_msg));
            comm.send_batch(1, buf);
        }
    });
}

fn mpsim_micros(scale: u64) -> Values {
    let packets = 512 / scale as usize;
    let msgs = (packets * PACKET_MSGS) as u64;
    let world = World::new(spec::RANKS);
    let stream = ns_per_op(5, msgs, || {
        world.run(|mut comm| stream_packets(&mut comm, packets));
    });
    let pushed = ns_per_op(5, msgs, || {
        world.run(|mut comm| {
            stream_pair(&mut comm, packets, |comm, total| {
                let mut buffered = BufferedComm::new(spec::RANKS, PACKET_MSGS);
                for i in 0..total {
                    buffered.push(comm, 1, sample_msg(i));
                }
                buffered.flush_all(comm);
            });
        });
    });
    let rounds = 4000 / scale;
    let barrier = time_s(5, || {
        world.run(|comm: pa_mpsim::Comm<Msg>| {
            for _ in 0..rounds {
                comm.barrier();
            }
        });
    });
    let allreduce = time_s(5, || {
        world.run(|comm: pa_mpsim::Comm<Msg>| {
            for i in 0..rounds {
                black_box(comm.allreduce_sum(i));
            }
        });
    });
    vec![
        ("mpsim.stream_ns_per_msg", stream),
        ("mpsim.buffered_push_ns_per_msg", pushed),
        ("mpsim.barrier_us", barrier * 1e6 / rounds as f64),
        ("mpsim.allreduce_us", allreduce * 1e6 / rounds as f64),
    ]
}

/// Run `body` on both ranks of a fresh loopback TCP world; returns the
/// bootstrap time (listeners bound → both transports wired) and the
/// slower rank's time inside `body`, in seconds.
fn tcp_pair(body: impl Fn(&mut TcpTransport<Msg>) + Sync) -> (f64, f64) {
    let started = Instant::now();
    let world = TcpConfig::local_world(spec::RANKS).expect("bind loopback listeners");
    let times: Vec<(f64, f64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = world
            .into_iter()
            .map(|(cfg, listener)| {
                let body = &body;
                scope.spawn(move || {
                    let mut t: TcpTransport<Msg> =
                        TcpTransport::connect_with_listener(cfg, listener)
                            .expect("loopback bootstrap");
                    let wired = started.elapsed().as_secs_f64();
                    t.barrier();
                    let t0 = Instant::now();
                    body(&mut t);
                    let spent = t0.elapsed().as_secs_f64();
                    t.barrier();
                    (wired, spent)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("tcp rank panicked"))
            .collect()
    });
    (
        times.iter().map(|t| t.0).fold(0.0, f64::max),
        times.iter().map(|t| t.1).fold(0.0, f64::max),
    )
}

fn net_micros(scale: u64) -> Values {
    // A data frame's payload is a count plus the Wire encoding of each
    // message; `pa_net`'s 5-byte frame header is private and constant.
    let msgs: Vec<Msg> = (0..PACKET_MSGS as u64).map(sample_msg).collect();
    let mut buf = Vec::new();
    let batches = 256 / scale;
    let ops = batches * PACKET_MSGS as u64;
    let encode = ns_per_op(5, ops, || {
        for _ in 0..batches {
            buf.clear();
            for m in black_box(&msgs) {
                m.encode(&mut buf);
            }
            black_box(&buf);
        }
    });
    let decode = ns_per_op(5, ops, || {
        for _ in 0..batches {
            let mut input = black_box(&buf[..]);
            while let Some(m) = Msg::decode(&mut input) {
                black_box(m);
            }
        }
    });
    let wire_mib = |packets: usize| (packets * buf.len()) as f64 / (1 << 20) as f64;
    let packets = 256 / scale as usize;
    let mut rates = Vec::new();
    let mut boots = Vec::new();
    for _ in 0..3 {
        let (boot, spent) = tcp_pair(|t| stream_packets(t, packets));
        rates.push(wire_mib(packets) / spent);
        boots.push(boot * 1e3);
    }
    let rounds = 2000 / scale;
    let reduces: Vec<f64> = (0..3)
        .map(|_| {
            tcp_pair(|t| {
                for i in 0..rounds {
                    black_box(t.allreduce_sum(i));
                }
            })
            .1
        })
        .collect();
    vec![
        ("net.frame_encode_ns_per_msg", encode),
        ("net.frame_decode_ns_per_msg", decode),
        ("net.tcp_stream_mib_per_s", median(&rates)),
        ("net.bootstrap_ms", median(&boots)),
        ("net.allreduce_us", median(&reduces) * 1e6 / rounds as f64),
    ]
}

/// Wire size of one encoded message.
fn wire_len(m: Msg) -> f64 {
    let mut buf = Vec::new();
    m.encode(&mut buf);
    buf.len() as f64
}

/// One rank's result of an in-process world run.
struct RankRun {
    counters: EngineCounters,
    comm: CommStats,
    spans: Vec<Span>,
}

/// The in-process world of a generation workload: same engine,
/// partition and options as the command, per-rank part files through
/// `StreamingWriterSink`, on 2 threads.
struct WorldSpec<'a> {
    w: &'a Workload,
    cfg: PaConfig,
    part: AnyPartition,
    opts: GenOptions,
    dir: std::path::PathBuf,
}

impl WorldSpec<'_> {
    /// One rank, start to finished part file. With `trace`, every call
    /// into transport, sink and writer goes through a decorator and the
    /// whole rank is one `rank.run` span.
    fn rank<T: Transport<Msg>>(&self, mut comm: T, trace: Option<(Instant, u32)>) -> RankRun {
        let rank = comm.rank();
        let file = File::create(self.dir.join(format!("part{rank}"))).expect("create a part file");
        let engine3 = self.w.engine == 3;
        let Some((epoch, run)) = trace else {
            let sink = StreamingWriterSink::new(file, EdgeFormat::Binary);
            let (sink, counters) = if engine3 {
                par::generate_rank3_streaming(&self.cfg, &self.part, &self.opts, &mut comm, sink)
            } else {
                par::generate_rank_streaming(&self.cfg, &self.part, &self.opts, &mut comm, sink)
            };
            sink.finish().expect("flush a part file");
            return RankRun {
                counters,
                comm: comm.stats().clone(),
                spans: Vec::new(),
            };
        };
        let rec = Recorder::new(epoch, run, rank as u32);
        let run_id = rec.reserve_id();
        rec.set_parent(run_id);
        let start = rec.now_ns();
        let mut traced = TracedTransport::new(comm, &rec);
        let sink = TracedSink::new(
            StreamingWriterSink::new(TracedWriter::new(file, &rec), EdgeFormat::Binary),
            &rec,
        );
        let (sink, counters) = if engine3 {
            par::generate_rank3_streaming(&self.cfg, &self.part, &self.opts, &mut traced, sink)
        } else {
            par::generate_rank_streaming(&self.cfg, &self.part, &self.opts, &mut traced, sink)
        };
        let sink = sink.finish();
        // The final flush is a span of its own; the chunk write inside
        // it is its child, not the run's.
        let flush_id = rec.reserve_id();
        rec.set_parent(flush_id);
        let flush_start = rec.now_ns();
        sink.finish().expect("flush a part file");
        rec.record_as(flush_id, run_id, "sink.flush", flush_start, rec.now_ns());
        rec.set_parent(run_id);
        let comm = traced.finish();
        rec.record_as(run_id, 0, "rank.run", start, rec.now_ns());
        RankRun {
            counters,
            comm: comm.stats().clone(),
            spans: rec.into_spans(),
        }
    }

    /// Run the whole world once; returns its wall time and the ranks.
    fn run(&self, trace: Option<(Instant, u32)>) -> (f64, Vec<RankRun>) {
        let started = Instant::now();
        let ranks = if self.w.launcher == Launcher::Palaunch {
            let world = TcpConfig::local_world(spec::RANKS).expect("bind loopback listeners");
            std::thread::scope(|scope| {
                let handles: Vec<_> = world
                    .into_iter()
                    .map(|(cfg, listener)| {
                        scope.spawn(move || {
                            let t: TcpTransport<Msg> =
                                TcpTransport::connect_with_listener(cfg, listener)
                                    .expect("loopback bootstrap");
                            self.rank(t, trace)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("tcp rank panicked"))
                    .collect()
            })
        } else {
            World::new(spec::RANKS).run(|comm| self.rank(comm, trace))
        };
        let wall = started.elapsed().as_secs_f64();
        if let StoreSpec::Paged(p) = &self.opts.store {
            for rank in 0..spec::RANKS {
                pa_core::store::clean_rank_pages(&p.dir, rank);
            }
        }
        (wall, ranks)
    }
}

/// Per-layer numbers of one generation workload.
pub struct LayerPass {
    pub values: Values,
    pub spans: Vec<Span>,
    /// Operations the pass ran (CLI runs for the ratio metrics).
    pub outcome: Outcome,
    /// A line to print under the table (what the percentiles rest on).
    pub note: Option<String>,
}

/// The per-layer pass over one generation workload: workload-free
/// micros, engine micros, CLI ratios, then untraced/traced pairs of the
/// in-process world until `env.seconds` have passed (at least two).
pub fn run_generation(env: &Env, w: &Workload) -> LayerPass {
    let started = Instant::now();
    let mut outcome = Outcome::default();
    let mut values = micros(env, w);
    let n = w.nodes(env.smoke);
    let cfg = config(n, env.seed);
    let edges = cfg.expected_edges() as f64;
    let dir = env.scratch.path(&format!("{}.world", w.name));
    std::fs::create_dir_all(&dir).expect("create the world directory");
    let mut opts = GenOptions::default();
    if let Some(p) = w.paged {
        opts = opts.with_store(
            StoreSpec::paged(dir.join("store"), p.budget(env.smoke))
                .with_page_bytes(p.page_bytes as usize),
        );
    }
    let world = WorldSpec {
        w,
        cfg,
        part: partition::build(Scheme::Rrp, n, spec::RANKS),
        opts,
        dir: dir.clone(),
    };
    let on = |bits: u8| bits & spec::bit(w) != 0;

    // Engine micros: the library entry point with a counting sink, so
    // nothing but the engine and its transport is timed.
    if on(spec::E2M | spec::E3M) {
        let run = |ranks: usize| {
            time_cold_s(2, || {
                let opts = GenOptions::default();
                let sink = |_| CountSink::default();
                black_box(if w.engine == 3 {
                    par::generate3_streaming(&cfg, Scheme::Rrp, ranks, &opts, sink)
                } else {
                    par::generate_streaming(&cfg, Scheme::Rrp, ranks, &opts, sink)
                });
            })
        };
        let (p1, p2) = (run(1), run(spec::RANKS));
        let names: [&'static str; 3] = if w.engine == 3 {
            [
                "engine3.p1_ns_per_edge",
                "engine3.p2_ns_per_edge",
                "engine3.strong_scaling_p2",
            ]
        } else {
            [
                "engine2.p1_ns_per_edge",
                "engine2.p2_ns_per_edge",
                "engine2.strong_scaling_p2",
            ]
        };
        values.push((names[0], p1 * 1e9 / edges));
        values.push((names[1], p2 * 1e9 / edges));
        values.push((names[2], p1 / p2));
    }

    // Ratios of command walls: the workload's own command (verified as
    // in the end-to-end pass) beside a variant of it.
    let mut cli_wall = None;
    if on(spec::E3M | spec::PAGED) {
        let mut generator = Generator::new(env, w);
        let walls: Vec<f64> = (0..3)
            .filter_map(|_| generator.rep(&mut outcome))
            .skip(1)
            .map(|r| r.wall_s)
            .collect();
        if !walls.is_empty() {
            cli_wall = Some(median(&walls));
        }
    }
    if let (true, Some(paged_wall)) = (on(spec::PAGED), cli_wall) {
        values.extend(paged_ratios(env, w, paged_wall, &mut outcome));
    }

    // Untraced/traced pairs of the in-process world, after one
    // discarded run; which of the two goes first alternates, so neither
    // always inherits the other's page cache and dirty pages.
    let epoch = Instant::now();
    let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut spans: Vec<Span> = Vec::new();
    let mut last: Vec<RankRun> = Vec::new();
    let min_pairs = if env.smoke { 1 } else { 2 };
    if !env.smoke {
        world.run(None);
    }
    let mut pair = 0u32;
    while (pair as usize) < min_pairs || started.elapsed().as_secs_f64() < env.seconds {
        if pair.is_multiple_of(2) {
            plain_walls.push(world.run(None).0);
        }
        let (wall, ranks) = world.run(Some((epoch, pair)));
        if !pair.is_multiple_of(2) {
            plain_walls.push(world.run(None).0);
        }
        traced_walls.push(wall);
        spans.extend(ranks.iter().flat_map(|r| r.spans.iter().cloned()));
        // Engine 3's counts are declared exact: every run must repeat them.
        outcome.attempted += 1;
        let exact = |runs: &[RankRun]| -> Vec<[u64; 3]> {
            runs.iter()
                .map(|r| {
                    let c = &r.counters;
                    [
                        c.chain_rows_recomputed,
                        c.chain_memo_hits,
                        c.chain_peak_depth,
                    ]
                })
                .collect()
        };
        if w.engine == 3 && !last.is_empty() && exact(&last) != exact(&ranks) {
            outcome.fail(format!(
                "{}: engine-3 counts differ between two runs",
                w.name
            ));
        }
        last = ranks;
        pair += 1;
    }
    let _ = std::fs::remove_dir_all(&dir);
    let plain = median(&plain_walls);
    values.push(("trace.overhead_share", median(&traced_walls) / plain - 1.0));
    if let (true, Some(cli)) = (on(spec::E3M), cli_wall) {
        // The untraced world *is* the same generation through the
        // library with per-rank StreamingWriterSink part files.
        values.push(("cli.gen_over_lib_ratio", cli / plain));
    }

    // Counts, from the last traced run (exact for engine 3; engine 2's
    // shift with delivery timing).
    let mut counters = EngineCounters::default();
    let mut comm = CommStats::new(spec::RANKS);
    for r in &last {
        let c = &r.counters;
        counters.requests_sent += c.requests_sent;
        counters.hub_hits += c.hub_hits;
        counters.local_deferred += c.local_deferred;
        counters.duplicate_retries += c.duplicate_retries;
        counters.chain_rows_recomputed += c.chain_rows_recomputed;
        counters.chain_memo_hits += c.chain_memo_hits;
        counters.chain_peak_depth = counters.chain_peak_depth.max(c.chain_peak_depth);
        comm.merge(&r.comm);
    }
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    if w.engine == 3 {
        values.push((
            "engine3.rows_recomputed_per_edge",
            counters.chain_rows_recomputed as f64 / edges,
        ));
        values.push((
            "engine3.memo_hit_ratio",
            ratio(
                counters.chain_memo_hits,
                counters.chain_memo_hits + counters.chain_rows_recomputed,
            ),
        ));
        values.push(("engine3.chain_peak_depth", counters.chain_peak_depth as f64));
    } else {
        values.push((
            "engine2.requests_per_edge",
            counters.requests_sent as f64 / edges,
        ));
        values.push((
            "engine2.hub_hit_ratio",
            ratio(
                counters.hub_hits,
                counters.hub_hits + counters.requests_sent,
            ),
        ));
        values.push((
            "engine2.local_deferred_per_edge",
            counters.local_deferred as f64 / edges,
        ));
        values.push((
            "engine2.duplicate_retries_per_medge",
            counters.duplicate_retries as f64 / (edges / 1e6),
        ));
    }
    let layer = if w.launcher == Launcher::Palaunch {
        "net"
    } else {
        "mpsim"
    };
    if layer == "mpsim" {
        values.push(("mpsim.msgs_per_edge", comm.msgs_sent as f64 / edges));
        values.push((
            "mpsim.msgs_per_packet",
            ratio(comm.msgs_sent, comm.packets_sent),
        ));
        values.push((
            "mpsim.pool_hit_ratio",
            ratio(comm.pool_hits, comm.pool_hits + comm.pool_misses),
        ));
    } else {
        // Computed, not captured: requests at their encoded size, every
        // other message at a resolved's, plus a header per data frame
        // (4-byte length, kind byte, 4-byte count).
        let request = wire_len(sample_msg(0));
        let resolved = wire_len(Msg::Resolved {
            t: 0,
            e: 0,
            v: 0,
            a: 0,
        });
        let others = comm.msgs_sent.saturating_sub(counters.requests_sent);
        let bytes = counters.requests_sent as f64 * request
            + others as f64 * resolved
            + comm.packets_sent as f64 * 9.0;
        values.push(("net.wire_bytes_per_edge", bytes / edges));
    }

    // Shares, over every traced run and rank.
    let shares = span_shares(&spans);
    let engine_share = if w.engine == 3 {
        "engine3.self_share"
    } else {
        "engine2.self_share"
    };
    values.push((engine_share, shares.engine_self));
    values.push(("sink.emit_busy_share", shares.emit_busy));
    values.push(("sink.flush_ms", shares.flush_ms));
    let names: [&'static str; 3] = if layer == "net" {
        [
            "net.send_busy_share",
            "net.recv_wait_share",
            "net.collective_wait_share",
        ]
    } else {
        [
            "mpsim.send_busy_share",
            "mpsim.recv_wait_share",
            "mpsim.collective_wait_share",
        ]
    };
    values.push((names[0], shares.send_busy));
    values.push((names[1], shares.recv_wait));
    values.push((names[2], shares.collective_wait));

    outcome.seal();
    LayerPass {
        values,
        spans,
        outcome,
        note: None,
    }
}

/// `store.paged_over_resident_ratio` and the page-size pair, all walls
/// of the real command.
fn paged_ratios(env: &Env, w: &Workload, paged_wall: f64, outcome: &mut Outcome) -> Values {
    let out = env.scratch.path("paged-variant.bin");
    let store = env.scratch.path("paged-variant.store");
    let mut wall_of = |argv: Vec<String>| -> Option<f64> {
        outcome.attempted += 1;
        match proc::run(&mut env.command(&argv), Watch::TimeOnly, env.op_timeout()) {
            Ok(cost) => Some(cost.wall_s),
            Err(why) => {
                outcome.fail(format!("{}: variant run: {why}", w.name));
                None
            }
        }
    };
    let argv_for = |n: u64, budget: Option<u64>, page: Option<u64>| -> Vec<String> {
        let mut argv = Workload { paged: None, ..*w }.command(
            n,
            env.smoke,
            env.seed,
            &out.to_string_lossy(),
            "",
        );
        if let Some(budget) = budget {
            argv.extend(["--memory-budget".into(), budget.to_string()]);
            argv.extend(["--store-dir".into(), store.to_string_lossy().into_owned()]);
        }
        if let Some(page) = page {
            argv.extend(["--page-bytes".into(), page.to_string()]);
        }
        argv
    };
    let mut values = Values::new();
    let n = w.nodes(env.smoke);
    if let Some(resident) = wall_of(argv_for(n, None, None)) {
        values.push(("store.paged_over_resident_ratio", paged_wall / resident));
    }
    // The default 256 KiB pages at the same overcommit, on a quarter of
    // the nodes (they cost an order of magnitude more per node).
    let p = w.paged.expect("a paged workload");
    let quarter = p.budget(env.smoke) / 4;
    if let Some(s) = wall_of(argv_for(n / 4, Some(quarter), None)) {
        values.push(("store.paged_default_pages_s", s));
    }
    if let Some(s) = wall_of(argv_for(n / 4, Some(quarter), Some(p.page_bytes))) {
        values.push(("store.paged_16k_pages_s", s));
    }
    let _ = std::fs::remove_file(&out);
    values
}

/// Shares of rank time, summed over every `rank.run` span.
#[derive(Debug, Default, PartialEq)]
pub struct Shares {
    pub engine_self: f64,
    pub send_busy: f64,
    pub recv_wait: f64,
    pub collective_wait: f64,
    pub emit_busy: f64,
    /// Median duration of the final flush, ms.
    pub flush_ms: f64,
}

/// Fold spans into shares: each `rank.run` span is split between its
/// children by name; what no child covers is the engine's self time.
pub fn span_shares(spans: &[Span]) -> Shares {
    let mut total = 0u64;
    let (mut own, mut send, mut wait, mut coll, mut emit) = (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut flushes = Vec::new();
    for run in spans.iter().filter(|s| s.name == "rank.run") {
        let children: Vec<&Span> = spans.iter().filter(|s| s.parent == run.id).collect();
        total += run.duration_ns();
        own += self_time_ns(run, &children);
        for c in children {
            match c.name {
                "comm.send" => send += c.busy_ns,
                "comm.recv_wait" => wait += c.busy_ns,
                "comm.collective" => coll += c.busy_ns,
                "sink.emit" | "io.write" => emit += c.busy_ns,
                "sink.flush" => flushes.push(c.busy_ns as f64 / 1e6),
                _ => {}
            }
        }
    }
    if total == 0 {
        return Shares::default();
    }
    let share = |ns: u64| ns as f64 / total as f64;
    Shares {
        engine_self: share(own),
        send_busy: share(send),
        recv_wait: share(wait),
        collective_wait: share(coll),
        emit_busy: share(emit),
        flush_ms: if flushes.is_empty() {
            0.0
        } else {
            median(&flushes)
        },
    }
}
