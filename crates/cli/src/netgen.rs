//! `pagen generate --backend tcp` — one rank of a multi-process run.
//!
//! Every process runs the same command line plus its own `--rank`; the
//! world is described by `--world` and the `--peers` table (normally
//! injected by `palaunch`, or written by hand for multi-host runs).
//! Each rank streams its partition's edges to `{out}.part{rank}`; after
//! the final barrier rank 0 concatenates the parts into `{out}` in rank
//! order — byte-identical to what a single-process streamed run of the
//! same seed writes — and prints the one summary line. Ranks above 0
//! print nothing on success.

use std::io::Write;

use pa_core::par::{self, EdgeSink, Msg};
use pa_core::{partition, Engine};
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
    let mut opts = job.gen_options(parse_gen_options(args, n)?);
    if opts.engine == Engine::X1 {
        return Err(CliError::usage(
            "--backend tcp supports --engine 2 or 3 (engine 1 uses the \
             x = 1 wire format, which the TCP rank path does not carry)",
        ));
    }
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
    let resume_mode = args.str("resume", "off");
    let restart_epoch = args.u64("restart-epoch", 0)?;
    if !matches!(resume_mode.as_str(), "auto" | "off") {
        return Err(CliError::usage(format!(
            "--resume must be auto or off, got {resume_mode:?}"
        )));
    }
    if ckpt_dir.is_empty() && resume_mode == "auto" {
        return Err(CliError::usage("--resume auto needs --checkpoint-dir"));
    }
    // `--keep-checkpoints on` leaves the finished run's checkpoints (and
    // a paged store's page files) on disk — the saved world a later
    // `--restart-world` run re-partitions.
    let keep_checkpoints = match args.str("keep-checkpoints", "off").as_str() {
        "on" => true,
        "off" => false,
        other => {
            return Err(CliError::usage(format!(
                "--keep-checkpoints must be on or off, got {other:?}"
            )))
        }
    };

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
        if (m.n, m.x, m.p_bits, m.seed) != (cfg.n, cfg.x, cfg.p.to_bits(), cfg.seed)
            || m.model_id != opts.model.id()
            || m.alpha_bits != opts.model.alpha_bits()
        {
            return Err(CliError::usage(format!(
                "--restart-world: the saved world is a different network \
                 (saved n={} x={} seed={}; this command asks for n={} x={} seed={})",
                m.n, m.x, m.seed, cfg.n, cfg.x, cfg.seed
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

    // Out-of-core node tables. When checkpointing, the page files must
    // live with the checkpoints — a saved world's paged checkpoints
    // reference them by directory — so the store dir is pinned there.
    let store_spec = {
        let default_dir = if ckpt_dir.is_empty() {
            format!("{path}.store")
        } else {
            ckpt_dir.clone()
        };
        let spec = crate::generate::parse_store_spec(args, &default_dir)?;
        if let pa_core::store::StoreSpec::Paged(p) = &spec {
            if !ckpt_dir.is_empty() && p.dir != std::path::Path::new(&ckpt_dir) {
                return Err(CliError::usage(
                    "--store-dir must equal --checkpoint-dir when checkpointing (a \
                     saved world's checkpoints reference its page files)",
                ));
            }
            if !restart_world.is_empty() && p.dir == std::path::Path::new(&restart_world) {
                return Err(CliError::usage(
                    "--store-dir must differ from --restart-world (the new run's \
                     pages would clobber the saved world's)",
                ));
            }
        }
        spec
    };
    opts = opts.with_store(store_spec);

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
    let my_part = part_path(out_path, rank);

    let store = if ckpt_dir.is_empty() {
        None
    } else {
        let meta = par::CheckpointMeta::for_run(&cfg, scheme, world, &opts);
        Some(par::CheckpointStore::new(&ckpt_dir, rank as u32, meta).map_err(CliError::io)?)
    };

    // Agree on a common resume point: a rank with no usable checkpoint
    // votes 0 (fresh start), a rank whose newest saved epoch is `e`
    // votes `e + 1`; the world-wide minimum picks an epoch every rank
    // can replay from (epoch skew across ranks is at most 1, and each
    // rank retains its last two epochs).
    let vote = match (&store, resume_mode.as_str()) {
        (Some(s), "auto") => s.latest().map_or(0, |e| e + 1),
        _ => 0,
    };
    let agreed = t.allreduce_min(vote);
    let (sink, saved) = if agreed == 0 {
        let file = std::fs::File::create(&my_part).map_err(CliError::io)?;
        let mut sink = par::StreamingWriterSink::new(file, job.format);
        match &world_ckpt {
            None => (sink, None),
            Some(w) => {
                // Elastic restart: replay this rank's share of the saved
                // world's committed prefix in deterministic order, then
                // resume generation from the synthesized cut. (A crash
                // *after* the restart checkpoints under its own
                // --checkpoint-dir resumes from those instead: the vote
                // above comes back nonzero and this branch is skipped.)
                w.write_part_prefix(&part, rank, &mut sink);
                let (edges, bytes) = sink.checkpoint_mark().map_err(CliError::io)?;
                let payload = w.payload_for(&part, rank, opts.engine);
                let saved = w.resume_point(payload, edges, bytes);
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
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&my_part)
            .map_err(CliError::io)?;
        file.set_len(saved.bytes).map_err(CliError::io)?;
        file.seek(std::io::SeekFrom::End(0)).map_err(CliError::io)?;
        (
            par::StreamingWriterSink::resume(file, job.format, saved.edges, saved.bytes),
            Some(saved),
        )
    };

    let (sink, _counters) = par::generate_rank_streaming_recoverable(
        &cfg,
        &part,
        &opts,
        &mut t,
        sink,
        store.as_ref(),
        saved.as_ref(),
    );
    let edges = sink.finish().map_err(CliError::io)?;

    // Publish completion before anyone merges, then merge the ledgers.
    // Every rank runs the same flags (palaunch injects one command
    // line), so skipping the stats collectives is uniform.
    t.barrier();
    // The job is complete world-wide: drop this rank's checkpoints so a
    // later launch in the same directory cannot resume a finished run —
    // unless the user asked to keep the saved world for a later
    // `--restart-world` resize.
    if !keep_checkpoints {
        if let Some(store) = &store {
            store.clear();
        }
        if let pa_core::store::StoreSpec::Paged(spec) = &opts.store {
            pa_core::store::clean_rank_pages(&spec.dir, rank);
            let _ = std::fs::remove_dir(&spec.dir);
        }
    }
    let total_edges = t.allreduce_sum(edges);
    let merged = stats_flags
        .wanted()
        .then(|| MergedStats::over_transport(&t, t.stats()));

    if rank == 0 {
        // Merging needs every part visible on rank 0's filesystem —
        // true for palaunch (one host) and shared-filesystem clusters.
        merge_parts(out_path, world).map_err(CliError::io)?;
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
