//! `pagen generate` — build a network and write it to disk.

use crate::args::{Args, CliError};
use crate::stats::{MergedStats, StatsFlags};
use pa_core::job::JobDescriptor;
use pa_core::partition::Scheme;
use pa_core::{cl, er, par, rmat, ws, Engine, GenOptions, PaConfig};
use pa_graph::{container, io, EdgeList};
use pa_rng::Xoshiro256pp;
use std::io::Write;
use std::path::{Path, PathBuf};

pub(crate) fn run(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    match args.str("backend", "mpsim").as_str() {
        "mpsim" => {}
        // One rank of a multi-process TCP world (normally under palaunch).
        "tcp" => return crate::netgen::run(args, out),
        other => {
            return Err(CliError::usage(format!(
                "unknown backend {other:?} (expected mpsim or tcp)"
            )))
        }
    }
    let model = args.str("model", "pa");
    let seed = args.u64("seed", 0)?;
    let path = args.str("out", "graph.pag");
    let format = args.str("format", "pag");

    let started = std::time::Instant::now();

    let mut pa_stats: Option<(StatsFlags, Vec<pa_mpsim::CommStats>)> = None;
    let (n, shards, attrs): (u64, Vec<EdgeList>, Vec<(String, String)>) = match model.as_str() {
        "pa" | "nlpa" => {
            // The container path below never reads `job.format`.
            let streamed = edge_format(&format);
            let job = parse_job(args, None, streamed.unwrap_or(io::EdgeFormat::Binary))?;
            let ranks = job.ranks as usize;
            let store = parse_store_spec(args, &format!("{path}.store"))?;
            let tuning = parse_gen_options(args, job.cfg.n)?.with_store(store.clone());
            let flags = StatsFlags::parse(args)?;
            // A raw edge file needs no global view of the edges, so it
            // streams each rank straight to disk instead of materializing
            // per-rank edge vectors (see `stream_pa_to_disk`).
            if streamed.is_some() {
                args.finish()?;
                let (total_edges, comms) = stream_pa_to_disk(&job, tuning, Path::new(&path))?;
                cleanup_store(&store, ranks);
                writeln!(
                    out,
                    "generated {model}: {} nodes, {total_edges} edges in {:.2}s -> {path} \
                     ({format}, streamed, job {:016x})",
                    job.cfg.n,
                    started.elapsed().as_secs_f64(),
                    job.job_id()
                )
                .map_err(CliError::io)?;
                return flags.emit(&MergedStats::from_local(&comms), out);
            }
            let result = par::generate(&job.cfg, job.scheme, ranks, &job.gen_options(tuning));
            pa_stats = Some((flags, result.ranks.iter().map(|r| r.comm.clone()).collect()));
            cleanup_store(&store, ranks);
            let shards = result.ranks.into_iter().map(|r| r.edges).collect();
            let mut attrs = vec![
                (
                    "model".into(),
                    match job.model {
                        pa_core::ModelKind::Pa => "preferential-attachment".to_string(),
                        pa_core::ModelKind::Nlpa { .. } => {
                            "nonlinear-preferential-attachment".to_string()
                        }
                    },
                ),
                ("x".into(), job.cfg.x.to_string()),
                ("p".into(), job.cfg.p.to_string()),
                ("scheme".into(), job.scheme.to_string()),
                ("ranks".into(), ranks.to_string()),
                ("engine".into(), job.engine.to_string()),
            ];
            if let pa_core::ModelKind::Nlpa { alpha } = job.model {
                attrs.push(("alpha".into(), alpha.to_string()));
            }
            (job.cfg.n, shards, attrs)
        }
        "er" => {
            let n = args.u64("n", 100_000)?;
            let p = args.f64("p", 0.0001)?;
            let ranks = args.u64("ranks", 4)? as usize;
            let cfg = er::ErConfig::new(n, p).with_seed(seed);
            let edges = er::generate_par(&cfg, ranks.max(1));
            (
                n,
                vec![edges],
                vec![
                    ("model".into(), "erdos-renyi".into()),
                    ("p".into(), p.to_string()),
                ],
            )
        }
        "ws" => {
            let n = args.u64("n", 100_000)?;
            let x = args.u64("x", 2)?;
            let beta = args.f64("p", 0.1)?;
            let cfg = ws::WsConfig::new(n, 2 * x, beta).with_seed(seed);
            let edges = ws::generate(&cfg, &mut Xoshiro256pp::new(seed));
            (
                n,
                vec![edges],
                vec![
                    ("model".into(), "watts-strogatz".into()),
                    ("k".into(), (2 * x).to_string()),
                    ("beta".into(), beta.to_string()),
                ],
            )
        }
        "cl" => {
            let n = args.u64("n", 100_000)?;
            let mean = args.u64("x", 4)? as f64;
            let gamma = args.f64("gamma", 2.8)?;
            let ranks = args.u64("ranks", 4)? as usize;
            let cfg = cl::ClConfig::new(cl::power_law_weights(n, gamma, mean), seed);
            let edges = cl::generate_par(&cfg, ranks.max(1));
            (
                n,
                vec![edges],
                vec![
                    ("model".into(), "chung-lu".into()),
                    ("gamma".into(), gamma.to_string()),
                    ("mean_degree".into(), mean.to_string()),
                ],
            )
        }
        "rmat" => {
            let scale = args.u64("scale", 18)? as u32;
            if scale == 0 || scale > 62 {
                return Err(CliError::usage("--scale must be in 1..=62"));
            }
            let mut cfg = rmat::RmatConfig::graph500(scale).with_seed(seed);
            let edges_flag = args.u64("edges", cfg.edges)?;
            cfg = cfg.with_edges(edges_flag);
            let ranks = args.u64("ranks", 4)? as usize;
            let edges = rmat::generate_par(&cfg, ranks.max(1));
            (
                cfg.n(),
                vec![edges],
                vec![
                    ("model".into(), "rmat".into()),
                    ("scale".into(), scale.to_string()),
                ],
            )
        }
        other => {
            return Err(CliError::usage(format!(
                "unknown model {other:?} (expected pa, nlpa, er, ws, cl or rmat)"
            )))
        }
    };
    args.finish()?;

    let total_edges: usize = shards.iter().map(EdgeList::len).sum();
    match format.as_str() {
        "pag" => {
            let mut meta = container::Meta::new(n).with("seed", seed);
            for (k, v) in attrs {
                meta.attrs.insert(k, v);
            }
            container::write_file(&path, &meta, &shards).map_err(CliError::io)?;
        }
        "bin" => {
            let merged = EdgeList::concat(shards);
            io::write_binary_file(&path, &merged).map_err(CliError::io)?;
        }
        "txt" => {
            let merged = EdgeList::concat(shards);
            io::write_text_file(&path, &merged).map_err(CliError::io)?;
        }
        other => {
            return Err(CliError::usage(format!(
                "unknown format {other:?} (expected pag, bin or txt)"
            )))
        }
    }
    writeln!(
        out,
        "generated {model}: {n} nodes, {total_edges} edges in {:.2}s -> {path} ({format})",
        started.elapsed().as_secs_f64()
    )
    .map_err(CliError::io)?;
    if let Some((flags, comms)) = pa_stats {
        flags.emit(&MergedStats::from_local(&comms), out)?;
    }
    Ok(())
}

/// `--format bin|txt` as the streamed edge encoding; `None` for anything
/// else (each command words its own refusal).
pub(crate) fn edge_format(format: &str) -> Option<io::EdgeFormat> {
    match format {
        "bin" => Some(io::EdgeFormat::Binary),
        "txt" => Some(io::EdgeFormat::Text),
        _ => None,
    }
}

/// Read the PA run tuple — `--n --x --p --seed --ranks --scheme --engine
/// --model --alpha` and their defaults — once, for `generate`, one rank
/// of a TCP world (`world` replaces `--ranks`) and `fetch`, so all three
/// name the same job by the same flags. The result is validated.
pub(crate) fn parse_job(
    args: &Args,
    world: Option<u64>,
    format: io::EdgeFormat,
) -> Result<JobDescriptor, CliError> {
    let n = args.u64("n", 100_000)?;
    let x = args.u64("x", 4)?;
    let p = args.f64("p", 0.5)?;
    let seed = args.u64("seed", 0)?;
    let ranks = match world {
        Some(world) => world,
        None => args.u64("ranks", 4)?,
    };
    let job = JobDescriptor {
        cfg: PaConfig { n, x, p, seed },
        scheme: parse_scheme(&args.str("scheme", "rrp"))?,
        engine: parse_engine(args)?.id(),
        model: parse_model_kind(args)?,
        ranks: u32::try_from(ranks)
            .map_err(|_| CliError::usage(format!("rank count {ranks} does not fit in u32")))?,
        format,
    };
    job.validate().map_err(CliError::usage)?;
    Ok(job)
}

/// Parse a byte size: a plain integer with an optional `k`, `m` or `g`
/// suffix (binary units — KiB, MiB, GiB).
pub(crate) fn parse_byte_size(key: &str, v: &str) -> Result<u64, CliError> {
    let s = v.trim().to_ascii_lowercase();
    let (digits, mul) = match s.strip_suffix(['k', 'm', 'g']) {
        Some(d) => {
            let mul = match s.as_bytes()[s.len() - 1] {
                b'k' => 1u64 << 10,
                b'm' => 1 << 20,
                _ => 1 << 30,
            };
            (d, mul)
        }
        None => (s.as_str(), 1u64),
    };
    let bytes: u64 = digits.parse().map_err(|_| {
        CliError::usage(format!(
            "--{key} must be a byte count with an optional k/m/g suffix, got {v:?}"
        ))
    })?;
    bytes
        .checked_mul(mul)
        .ok_or_else(|| CliError::usage(format!("--{key}: {v} overflows")))
}

/// Parse `--memory-budget <bytes[k|m|g]>`, `--page-bytes <bytes[k|m|g]>`
/// and `--store-dir <dir>` into a
/// node-table store spec. No budget means fully resident tables, and
/// `--store-dir` alone is rejected (it would silently change nothing).
pub(crate) fn parse_store_spec(
    args: &Args,
    default_dir: &str,
) -> Result<pa_core::store::StoreSpec, CliError> {
    let budget = args.str("memory-budget", "");
    let dir = args.str("store-dir", "");
    if budget.is_empty() {
        if !dir.is_empty() {
            return Err(CliError::usage(
                "--store-dir needs --memory-budget (resident runs keep no page files)",
            ));
        }
        if !args.str("page-bytes", "").is_empty() {
            return Err(CliError::usage(
                "--page-bytes needs --memory-budget (resident runs have no pages)",
            ));
        }
        return Ok(pa_core::store::StoreSpec::Resident);
    }
    let bytes = parse_byte_size("memory-budget", &budget)?;
    if bytes == 0 {
        return Err(CliError::usage("--memory-budget must be positive"));
    }
    let dir = if dir.is_empty() {
        default_dir.to_string()
    } else {
        dir
    };
    let mut spec = pa_core::store::StoreSpec::paged(dir, bytes);
    let page = args.str("page-bytes", "");
    if !page.is_empty() {
        let page_bytes = parse_byte_size("page-bytes", &page)?;
        if page_bytes < 8 {
            return Err(CliError::usage("--page-bytes must be at least 8"));
        }
        spec = spec.with_page_bytes(page_bytes as usize);
    }
    Ok(spec)
}

/// Remove the page files a paged run left behind (and its directory, if
/// now empty). Runs that checkpoint keep their pages — a saved world's
/// paged checkpoints reference them — so only non-checkpointing paths
/// call this.
pub(crate) fn cleanup_store(store: &pa_core::store::StoreSpec, ranks: usize) {
    if let pa_core::store::StoreSpec::Paged(spec) = store {
        for rank in 0..ranks {
            pa_core::store::clean_rank_pages(&spec.dir, rank);
        }
        let _ = std::fs::remove_dir(&spec.dir);
    }
}

/// Parse the attachment model: `--model pa` (default) or `--model nlpa`
/// with its `--alpha` exponent. Invalid `--alpha` values (negative, NaN,
/// infinite) fail here with the model's own diagnostic instead of
/// panicking inside the engines. Callers dispatch on the model string
/// first, so anything that is not `nlpa` is the classical copy model.
pub(crate) fn parse_model_kind(args: &Args) -> Result<pa_core::ModelKind, CliError> {
    if args.str("model", "pa") != "nlpa" {
        return Ok(pa_core::ModelKind::Pa);
    }
    let kind = pa_core::ModelKind::Nlpa {
        alpha: args.f64("alpha", 1.0)?,
    };
    kind.check()
        .map_err(|e| CliError::usage(format!("--alpha: {e}")))?;
    Ok(kind)
}

/// Parse `--engine 1|2|3` (default 2, the general Algorithm 3.2).
pub(crate) fn parse_engine(args: &Args) -> Result<Engine, CliError> {
    let id = args.u64("engine", u64::from(Engine::default().id()))?;
    u8::try_from(id)
        .ok()
        .and_then(Engine::from_id)
        .ok_or_else(|| {
            CliError::usage(format!(
                "--engine must be 1 (Alg. 3.1, x = 1 only), 2 (Alg. 3.2) or \
                 3 (communication-free chain recomputation), got {id}"
            ))
        })
}

/// `{path}.part{rank}`: where one rank of a streamed run writes.
pub(crate) fn part_path(path: &Path, rank: usize) -> PathBuf {
    let mut p = path.as_os_str().to_owned();
    p.push(format!(".part{rank}"));
    PathBuf::from(p)
}

/// Delete every `{path}.part{0..ranks}` that exists.
fn remove_parts(path: &Path, ranks: usize) {
    for rank in 0..ranks {
        let _ = std::fs::remove_file(part_path(path, rank));
    }
}

/// Concatenate `{path}.part{0..ranks}` in rank order into `path`, fsync
/// it, and delete the parts — the one merge behind in-process streamed
/// runs and rank 0 of a TCP world. A failed merge removes the parts too
/// (best effort).
///
/// # Errors
///
/// Any I/O failure; a part that cannot be opened is named with the hint
/// that multi-host worlds need a shared filesystem.
pub(crate) fn merge_parts(path: &Path, ranks: usize) -> std::io::Result<()> {
    let merge = || {
        let mut merged = std::io::BufWriter::new(std::fs::File::create(path)?);
        for rank in 0..ranks {
            let part = part_path(path, rank);
            let mut file = std::fs::File::open(&part).map_err(|e| {
                std::io::Error::new(
                    e.kind(),
                    format!(
                        "{} (rank {rank}'s part not visible to the merging rank — \
                         distributed runs need a shared filesystem to merge): {e}",
                        part.display()
                    ),
                )
            })?;
            std::io::copy(&mut file, &mut merged)?;
        }
        merged
            .into_inner()
            .map_err(|e| e.into_error())?
            .sync_all()?;
        (0..ranks).try_for_each(|rank| std::fs::remove_file(part_path(path, rank)))
    };
    merge().inspect_err(|_| remove_parts(path, ranks))
}

/// Stream a PA network to `path` without ever materializing the edges:
/// each rank writes its own `{path}.part{rank}` through a chunked
/// [`par::StreamingWriterSink`], and the parts are concatenated in rank
/// order afterwards. Peak resident memory is the engines' `O(n/P)` slot
/// state plus one write chunk per rank, regardless of edge count.
///
/// Returns the total number of edges written plus the per-rank
/// communication ledgers (for `--stats` / `--stats-json`).
///
/// This is the single streaming code path shared by `pagen generate`
/// and the `pagen serve` job runner — sharing it is what guarantees a
/// served artifact is byte-identical to a solo run of the same tuple.
/// `tuning` carries the byte-neutral knobs; the job's engine and model
/// are applied to it here.
pub(crate) fn stream_pa_to_disk(
    job: &JobDescriptor,
    tuning: GenOptions,
    path: &Path,
) -> Result<(u64, Vec<pa_mpsim::CommStats>), CliError> {
    let ranks = job.ranks as usize;
    let opts = job.gen_options(tuning);
    // Pre-create the per-rank files so creation errors surface before any
    // rank spawns; each rank thread then takes its own handle.
    let mut files = Vec::with_capacity(ranks);
    for rank in 0..ranks {
        let f = std::fs::File::create(part_path(path, rank)).map_err(CliError::io)?;
        files.push(std::sync::Mutex::new(Some(f)));
    }

    let outputs = par::generate_streaming(&job.cfg, job.scheme, ranks, &opts, |rank| {
        let f = files[rank]
            .lock()
            .expect("file handoff poisoned")
            .take()
            .expect("sink built twice for one rank");
        par::StreamingWriterSink::new(f, job.format)
    });

    let mut total_edges = 0u64;
    let mut comms = Vec::with_capacity(outputs.len());
    for o in outputs {
        total_edges += o.sink.finish().map_err(|e| {
            remove_parts(path, ranks);
            CliError::io(e)
        })?;
        comms.push(o.comm);
    }
    merge_parts(path, ranks).map_err(CliError::io)?;
    Ok((total_edges, comms))
}

/// Engine tuning knobs shared by the `pa` model on every backend:
/// buffering, service cadence, the hub cache (bounded by the run's `n`),
/// chaos and the stall watchdog.
pub(crate) fn parse_gen_options(args: &Args, n: u64) -> Result<GenOptions, CliError> {
    let mut opts = GenOptions::default();
    opts.buffer_capacity = args.u64("buffer-cap", opts.buffer_capacity as u64)? as usize;
    if opts.buffer_capacity == 0 {
        return Err(CliError::usage("--buffer-cap must be positive"));
    }
    opts.service_interval = args.u64("service-interval", opts.service_interval as u64)? as usize;
    if opts.service_interval == 0 {
        return Err(CliError::usage("--service-interval must be positive"));
    }
    match args.str("hub-cache", "auto").as_str() {
        "auto" => {}
        "off" => opts = opts.without_hub_cache(),
        nodes => {
            let nodes: u64 = nodes.parse().map_err(|_| {
                CliError::usage(format!(
                    "--hub-cache must be auto, off or a node count, got {nodes:?}"
                ))
            })?;
            if nodes > n {
                return Err(CliError::usage(format!(
                    "--hub-cache {nodes} exceeds n = {n} (use auto or off)"
                )));
            }
            opts = opts.with_hub_cache(nodes);
        }
    }
    let chaos_seed = args.u64("chaos-seed", 0)?;
    match args.str("chaos-profile", "off").as_str() {
        "off" => {}
        "light" => opts = opts.with_fault_plan(pa_core::FaultPlan::light(chaos_seed)),
        "aggressive" => opts = opts.with_fault_plan(pa_core::FaultPlan::aggressive(chaos_seed)),
        other => {
            return Err(CliError::usage(format!(
                "--chaos-profile must be off, light or aggressive, got {other:?}"
            )))
        }
    }
    let stall_ms = args.u64("stall-timeout-ms", 0)?;
    if stall_ms > 0 {
        opts = opts.with_stall_timeout(std::time::Duration::from_millis(stall_ms));
    } else if opts.fault_plan.is_some() {
        // Chaos without a watchdog turns any injection bug into a hung
        // process; default to a generous timeout that real runs never hit.
        opts = opts.with_stall_timeout(std::time::Duration::from_secs(120));
    }
    let memo = args.u64("chain-memo", opts.chain_memo_nodes)?;
    opts = opts.with_chain_memo(memo);
    Ok(opts)
}

pub(crate) fn parse_scheme(s: &str) -> Result<Scheme, CliError> {
    Scheme::EXTENDED
        .into_iter()
        .find(|scheme| scheme.name().eq_ignore_ascii_case(s))
        .ok_or_else(|| {
            CliError::usage(format!(
                "unknown scheme {s:?} (expected ucp, lcp, rrp or bcp)"
            ))
        })
}
