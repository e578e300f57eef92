//! `pagen generate --backend tcp` — one rank of a multi-process run.
//!
//! Every process runs the same command line plus its own `--rank`; the
//! world is described by `--world` and the `--peers` table (normally
//! injected by `palaunch`, or written by hand for multi-host runs).
//! Each rank streams its partition's edges to `{out}.part{rank}`, or to
//! `rank{rank}.part` beside its checkpoints when it checkpoints; after
//! the final barrier rank 0 appends the other parts onto its own in rank
//! order and renames it to `{out}` — byte-identical to what a
//! single-process streamed run of the same seed writes — and prints the
//! one summary line. Ranks above 0 print nothing on success.

use std::io::{Read, Write};

use pa_core::par::{self, Msg};
use pa_core::partition;
use pa_graph::io::{EdgeReader, EdgeWriter};
use pa_graph::job::JobSpec;
use pa_mpsim::Transport;
use pa_net::{TcpConfig, TcpTransport};

use crate::args::{Args, CliError};
use crate::generate::{edge_format, merge_parts, parse_gen_options, parse_job, part_path};
use crate::stats::{MergedStats, StatsFlags};

pub(crate) fn run(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let model = args.str("model", "pa");
    if !matches!(model.as_str(), "pa" | "nlpa") {
        return Err(CliError::usage(format!(
            "--backend tcp only supports --model pa or nlpa, got {model:?}"
        )));
    }
    let path = args.str("out", "graph.bin");
    let format = args.str("format", "bin");
    let encoding = edge_format(&format).ok_or_else(|| {
        CliError::usage(format!(
            "--backend tcp streams per-rank files, so --format must be bin or txt, \
             got {format:?}"
        ))
    })?;

    // World description.
    let rank = args.u64("rank", u64::MAX)?;
    let world = args.u64("world", 0)?;
    let peers_flag = args.str_required("peers").map_err(|_| {
        CliError::usage(
            "--backend tcp needs --rank <R>, --world <P> and --peers <host:port,...> \
             (hint: `palaunch -p P -- generate ...` injects all three)",
        )
    })?;
    if rank == u64::MAX {
        return Err(CliError::usage("--backend tcp needs --rank <R>"));
    }
    if world == 0 {
        return Err(CliError::usage("--backend tcp needs --world <P> >= 1"));
    }

    // The run tuple — the flags and defaults of the in-process pa path,
    // except the rank count comes from the world description.
    let job = parse_job(args, Some(world), encoding)?;
    let (cfg, scheme, n) = (job.cfg, job.scheme, job.cfg.n);
    let mut opts = job.gen_options(parse_gen_options(args)?);
    if opts.fault_plan.is_some() {
        return Err(CliError::usage(
            "--chaos-profile is not supported with --backend tcp \
             (fault injection wraps in-process transports only)",
        ));
    }
    if opts.stall_timeout.is_none() {
        // A wedged (but not dead) peer must fail the run, not hang it;
        // dead peers are detected faster by the transport itself.
        opts = opts.with_stall_timeout(std::time::Duration::from_secs(120));
    }
    let peers: Vec<String> = peers_flag.split(',').map(str::to_string).collect();
    let connect_ms = args.u64("connect-timeout-ms", 30_000)?;

    // Checkpoint/restart: `--checkpoint-dir` switches on epoch-aligned
    // checkpoints; `--resume auto` (injected by `palaunch` on restart
    // attempts) agrees on a common saved epoch world-wide and continues
    // from it; `--restart-epoch` is the launch-attempt generation
    // carried in the HELLO handshake so stale ranks from a previous
    // attempt cannot wire into the restarted world.
    let ckpt_dir = args.str("checkpoint-dir", "");
    let mut ckpt_interval = args.u64("checkpoint-interval", n.div_ceil(8).max(1))?;
    let resume = args.choice("resume", "off", &["auto", "off"])? == "auto";
    let restart_epoch = args.u64("restart-epoch", 0)?;
    if ckpt_dir.is_empty() && resume {
        return Err(CliError::usage("--resume auto needs --checkpoint-dir"));
    }
    // `--keep-checkpoints on` leaves the finished run's checkpoints and
    // parts in --checkpoint-dir — the saved world a later
    // `--restart-world` run re-partitions.
    let keep_checkpoints = args.choice("keep-checkpoints", "off", &["on", "off"])? == "on";

    // Elastic gang restart: `--restart-world <dir>` names a saved
    // world's kept checkpoint directory; its committed prefix is
    // re-partitioned onto THIS world's rank count, scheme and engine.
    // The network identity (n, x, p, seed, model) must match — those
    // define the graph — but the world shape is free to change.
    let restart_world = args.str("restart-world", "");
    let world_ckpt = if restart_world.is_empty() {
        None
    } else {
        if restart_world == ckpt_dir {
            return Err(CliError::usage(
                "--restart-world must differ from --checkpoint-dir (the restarted \
                 run's own checkpoints would overwrite the world it restarts from)",
            ));
        }
        let w = par::WorldCheckpoint::load(std::path::Path::new(&restart_world))
            .map_err(|e| CliError::usage(format!("--restart-world {restart_world}: {e}")))?;
        let m = w.meta();
        // The job tuple without the world's shape and the encoding:
        // the saved parts are read in theirs, the new ones written in
        // this run's.
        let network = |j: JobSpec| JobSpec {
            ranks: 0,
            scheme_id: 0,
            engine_id: 0,
            format_id: 0,
            ..j
        };
        if network(m.job) != network(job.to_raw()) {
            return Err(CliError::usage(format!(
                "--restart-world: the saved world is a different network \
                 (saved n={} x={} seed={}; this command asks for n={} x={} seed={})",
                m.job.n, m.job.x, m.job.seed, cfg.n, cfg.x, cfg.seed
            )));
        }
        // The epoch grid is part of the saved cut: adopt its interval so
        // the synthesized resume point lands on an epoch boundary.
        ckpt_interval = m.interval;
        opts = opts.with_checkpoint_interval(m.interval);
        Some(w)
    };
    if !ckpt_dir.is_empty() {
        if ckpt_interval == 0 {
            return Err(CliError::usage("--checkpoint-interval must be at least 1"));
        }
        opts = opts.with_checkpoint_interval(ckpt_interval);
    }

    // Out-of-core node tables: a run-private cache, beside the
    // checkpoints unless --store-dir says otherwise.
    let default_store = match ckpt_dir.as_str() {
        "" => format!("{path}.store"),
        dir => dir.to_string(),
    };
    opts = opts.with_store(crate::generate::parse_store_spec(args, &default_store)?);

    let stats_flags = StatsFlags::parse(args)?;
    args.finish()?;

    let rank = rank as usize;
    let world = world as usize;
    let mut tcp = TcpConfig::new(rank, world, peers);
    tcp.connect_timeout = std::time::Duration::from_millis(connect_ms.max(1));
    tcp.epoch = restart_epoch;
    let bootstrap_coll_timeout = tcp.collective_timeout;

    let started = std::time::Instant::now();
    let mut t: TcpTransport<Msg> =
        TcpTransport::connect(tcp).map_err(|e| CliError::usage(format!("rank {rank}: {e}")))?;
    // A wedged collective should fire on the engine's stall budget, not
    // block for the full bootstrap-time backstop.
    if let Some(stall) = opts.stall_timeout {
        t.set_collective_timeout(stall.min(bootstrap_coll_timeout));
    }

    let part = partition::build(scheme, cfg.n, world);
    let out_path = std::path::Path::new(&path);
    // A checkpointing rank's part lives with its checkpoints: the two
    // together are a saved world.
    let part_of = |rank: usize| match ckpt_dir.as_str() {
        "" => part_path(out_path, rank),
        dir => std::path::Path::new(dir).join(format!("rank{rank}.part")),
    };
    let my_part = part_of(rank);

    let store = if ckpt_dir.is_empty() {
        None
    } else {
        let meta = par::CheckpointMeta::for_run(&cfg, scheme, world, &opts, job.format);
        Some(par::CheckpointStore::new(&ckpt_dir, rank as u32, meta).map_err(CliError::io)?)
    };

    // Agree on a common resume point: a rank with no usable checkpoint
    // votes 0 (fresh start), a rank whose newest saved epoch is `e`
    // votes `e + 1`; the world-wide minimum picks an epoch every rank
    // can replay from (epoch skew across ranks is at most 1, and each
    // rank retains its last two epochs).
    let vote = match &store {
        Some(s) if resume => s.latest().map_or(0, |e| e + 1),
        _ => 0,
    };
    let agreed = t.allreduce_min(vote);
    let durable = store.is_some();
    let (sink, saved) = if agreed == 0 {
        let file = std::fs::File::create(&my_part).map_err(CliError::io)?;
        let mut sink = EdgeWriter::new(PartFile { file, durable }, job.format);
        match &world_ckpt {
            None => (sink, None),
            Some(w) => {
                // Elastic restart: replay this rank's share of the saved
                // world's committed prefix in deterministic order, then
                // resume generation from that cut. (A crash *after* the
                // restart checkpoints under its own --checkpoint-dir
                // resumes from those instead: the vote above comes back
                // nonzero and this branch is skipped.)
                let saved = w
                    .replay(&part, rank, &opts.store, &mut sink)
                    .map_err(CliError::usage)?;
                (sink, Some(saved))
            }
        }
    } else {
        use std::io::Seek;
        let epoch = agreed - 1;
        let store = store.as_ref().expect("agreed > 0 implies a store");
        let saved = store.load(epoch).ok_or_else(|| {
            CliError::usage(format!(
                "rank {rank}: cannot resume — checkpoint for epoch {epoch} is missing or \
                 invalid in {ckpt_dir}"
            ))
        })?;
        // Truncate the part file back to the committed byte watermark
        // (dropping whatever a crashed epoch half-wrote) and append.
        let cannot = |why: String| {
            CliError::usage(format!(
                "rank {rank}: cannot resume — {}: {why}",
                my_part.display()
            ))
        };
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&my_part)
            .map_err(|e| cannot(e.to_string()))?;
        let len = file.metadata().map_err(CliError::io)?.len();
        if len < saved.bytes {
            return Err(cannot(format!(
                "{len} bytes, fewer than the {} that epoch {epoch}'s checkpoint committed",
                saved.bytes
            )));
        }
        file.set_len(saved.bytes).map_err(CliError::io)?;
        file.seek(std::io::SeekFrom::End(0)).map_err(CliError::io)?;
        let file = PartFile { file, durable };
        (
            EdgeWriter::resume(file, job.format, saved.edges, saved.bytes),
            Some(saved),
        )
    };
    // A resuming rank's committed edges: its part up to the watermark.
    let mut committed = match &saved {
        None => None,
        Some(saved) => {
            let file = std::fs::File::open(&my_part).map_err(CliError::io)?;
            let prefix = std::io::BufReader::new(file.take(saved.bytes));
            Some(EdgeReader::new(prefix, job.format))
        }
    };
    let resume =
        (saved.as_ref().zip(committed.as_mut())).map(|(saved, edges)| par::Resume { saved, edges });

    let (sink, _counters) = par::generate_rank_streaming_recoverable(
        &cfg,
        &part,
        &opts,
        &mut t,
        sink,
        store.as_ref(),
        resume,
    )
    .map_err(CliError::usage)?;
    let edges = sink.finish().map_err(CliError::io)?;

    // Publish completion before anyone merges, then merge the ledgers.
    // Every rank runs the same flags (palaunch injects one command
    // line), so skipping the stats collectives is uniform.
    t.barrier();
    // Page files are a cache: they always go.
    if let pa_core::store::StoreSpec::Paged(spec) = &opts.store {
        pa_core::store::clean_rank_pages(&spec.dir, rank);
        let _ = std::fs::remove_dir(&spec.dir);
    }
    let total_edges = t.allreduce_sum(edges);
    let merged = stats_flags
        .wanted()
        .then(|| MergedStats::over_transport(&t, t.stats()));

    if rank == 0 {
        // Merging needs every part visible on rank 0's filesystem —
        // true for palaunch (one host) and shared-filesystem clusters.
        let parts: Vec<_> = (0..world).map(part_of).collect();
        let keep = keep_checkpoints && store.is_some();
        merge_parts(out_path, &parts, keep).map_err(CliError::io)?;
        // Only once the merged file exists do every rank's checkpoints
        // go (unless kept for `--restart-world`): a failed merge leaves
        // a world `--resume auto` finishes.
        if let (Some(store), false) = (&store, keep_checkpoints) {
            store.clear();
        }
        writeln!(
            out,
            "generated {model}: {n} nodes, {total_edges} edges in {:.2}s -> {path} \
             ({format}, tcp x {world} processes)",
            started.elapsed().as_secs_f64()
        )
        .map_err(CliError::io)?;
        if let Some(merged) = &merged {
            stats_flags.emit(merged, out)?;
        }
    }
    Ok(())
}

/// A rank's part file. When the rank checkpoints, `flush` syncs the
/// file's data to disk: [`EdgeWriter::checkpoint`] flushes before it
/// reports the watermark a checkpoint then names, so a checkpoint never
/// names bytes a power loss can take back.
struct PartFile {
    file: std::fs::File,
    durable: bool,
}

impl Write for PartFile {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.file.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self.durable {
            true => self.file.sync_data(),
            false => Ok(()),
        }
    }
}
