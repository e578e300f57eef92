//! `pagen generate` — build a network and write it to disk.

use crate::args::{Args, CliError};
use crate::stats::{MergedStats, StatsFlags};
use pa_core::job::JobDescriptor;
use pa_core::partition::Scheme;
use pa_core::{cl, par, Engine, GenOptions, PaConfig};
use pa_graph::container::{self, Meta};
use pa_graph::io::{self, EdgeWriter};
use std::fs::File;
use std::io::{Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

pub(crate) fn run(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    refuse_nlpa(args)?;
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
    // A PAG container is the `bin` stream behind a header.
    let pag = format == "pag";
    let encoding = match edge_format(&format) {
        Some(encoding) => encoding,
        None if pag => io::EdgeFormat::Binary,
        None => {
            return Err(CliError::usage(format!(
                "unknown format {format:?} (expected pag, bin or txt)"
            )))
        }
    };

    let started = std::time::Instant::now();

    // Every model streams each rank's edges into its own part; only PA
    // names a job (a PAG file never does: it is not a served artifact)
    // and carries engine counters.
    let (n, total_edges, job_id, stats) = match model.as_str() {
        "pa" => {
            let job = parse_job(args, None, encoding)?;
            let ranks = job.ranks as usize;
            let store = parse_store_spec(args, &format!("{path}.store"))?;
            let tuning = parse_gen_options(args)?.with_store(store.clone());
            let flags = StatsFlags::parse(args)?;
            args.finish()?;
            let header = pag.then(|| {
                Meta::new(job.cfg.n)
                    .with("seed", seed)
                    .with("x", job.cfg.x)
                    .with("p", job.cfg.p)
                    .with("scheme", job.scheme)
                    .with("ranks", ranks)
                    .with("engine", job.engine)
                    .with("model", "preferential-attachment")
            });
            let (total_edges, comms) =
                stream_pa_to_disk(&job, tuning, Path::new(&path), header.as_ref())?;
            cleanup_store(&store, ranks);
            let job_id = if pag {
                String::new()
            } else {
                format!(", job {:016x}", job.job_id())
            };
            (job.cfg.n, total_edges, job_id, Some((flags, comms)))
        }
        "cl" => {
            let n = args.u64("n", 100_000)?;
            let mean = args.u64("x", 4)?;
            let gamma = args.f64("gamma", 2.8)?;
            let ranks: usize = args.int("ranks", 4)?;
            args.finish()?;
            let refusals = [
                (n == 0, "--n must be at least 1"),
                (mean == 0, "--x (cl's mean degree) must be at least 1"),
                (
                    gamma.is_nan() || gamma <= 2.0,
                    "--gamma must be above 2 (finite mean)",
                ),
                (ranks == 0, "--ranks must be at least 1"),
            ];
            if let Some((_, why)) = refusals.into_iter().find(|(bad, _)| *bad) {
                return Err(CliError::usage(why));
            }
            let mean = mean as f64;
            let cfg = cl::ClConfig::new(cl::power_law_weights(n, gamma, mean), seed);
            let header = pag.then(|| {
                Meta::new(n)
                    .with("model", "chung-lu")
                    .with("gamma", gamma)
                    .with("mean_degree", mean)
                    .with("seed", seed)
            });
            let (total_edges, ()) = write_parts(
                Path::new(&path),
                encoding,
                header.as_ref(),
                ranks,
                |writers| (cl::generate_par(&cfg, writers), ()),
            )?;
            (n, total_edges, String::new(), None)
        }
        other => {
            return Err(CliError::usage(format!(
                "unknown model {other:?} (expected pa or cl)"
            )))
        }
    };
    writeln!(
        out,
        "generated {model}: {n} nodes, {total_edges} edges in {:.2}s -> {path} \
         ({format}, streamed{job_id})",
        started.elapsed().as_secs_f64(),
    )
    .map_err(CliError::io)?;
    match stats {
        Some((flags, comms)) => flags.emit(&MergedStats::from_local(&comms), out),
        None => Ok(()),
    }
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
/// --model` and their defaults — once, for `generate`, one rank of a TCP
/// world (`world` replaces `--ranks`) and `fetch`, so all three name the
/// same job by the same flags. `--model` must be `pa`. The result is
/// validated.
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
    let model = args.str("model", "pa");
    if model != "pa" {
        return Err(CliError::usage(format!(
            "this command runs --model pa only, got {model:?}"
        )));
    }
    let job = JobDescriptor {
        cfg: PaConfig { n, x, p, seed },
        scheme: parse_scheme(&args.str("scheme", "rrp"))?,
        engine: parse_engine(args)?.id(),
        model: pa_core::ModelKind::Pa,
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
        if page_bytes == 0 || !page_bytes.is_multiple_of(8) {
            return Err(CliError::usage(
                "--page-bytes must be a positive multiple of 8",
            ));
        }
        spec = spec.with_page_bytes(page_bytes as usize);
    }
    Ok(spec)
}

/// Remove the page files a paged run left behind (and its directory, if
/// now empty): they are a cache no later run reads.
pub(crate) fn cleanup_store(store: &pa_core::store::StoreSpec, ranks: usize) {
    if let pa_core::store::StoreSpec::Paged(spec) = store {
        for rank in 0..ranks {
            pa_core::store::clean_rank_pages(&spec.dir, rank);
        }
        let _ = std::fs::remove_dir(&spec.dir);
    }
}

/// Refuse the retired `--model nlpa` and its `--alpha` by name. That
/// model was the copy model with `p` replaced by `p^alpha`, so a script
/// written for it learns the flags that write the same graph.
pub(crate) fn refuse_nlpa(args: &Args) -> Result<(), CliError> {
    if args.str("model", "pa") == "nlpa" || !args.str("alpha", "").is_empty() {
        return Err(CliError::usage(
            "--model nlpa and --alpha are gone: nlpa was the copy model at p^alpha, \
             so --model pa --p <p^alpha> writes the same graph \
             (e.g. --p 0.3535533905932738 for p = 0.5, alpha = 1.5)",
        ));
    }
    Ok(())
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

/// `{path}.part{0..ranks}`: where the ranks of a streamed run write.
fn part_paths(path: &Path, ranks: usize) -> Vec<PathBuf> {
    (0..ranks).map(|rank| part_path(path, rank)).collect()
}

/// Delete every one of `parts` that exists.
fn remove_parts(parts: &[PathBuf]) {
    for part in parts {
        let _ = std::fs::remove_file(part);
    }
}

/// Removes `{path}.part{0..ranks}` when dropped — on an error return and
/// on an unwinding panic alike — unless [`PartFiles::merge`] took over.
struct PartFiles<'a> {
    path: &'a Path,
    ranks: usize,
}

impl PartFiles<'_> {
    /// Disarm the guard and [`merge_parts`], which cleans up after its
    /// own failures.
    fn merge(self) -> std::io::Result<()> {
        let merged = merge_parts(self.path, &part_paths(self.path, self.ranks), false);
        std::mem::forget(self);
        merged
    }
}

impl Drop for PartFiles<'_> {
    fn drop(&mut self) {
        remove_parts(&part_paths(self.path, self.ranks));
    }
}

/// Append `parts[1..]` in rank order onto rank 0's bytes at
/// `{path}.part0`, fsync it, rename it to `path` and delete the parts —
/// the one merge behind in-process streamed runs, the serve runner and
/// rank 0 of a TCP world. A rank-0 part elsewhere (a checkpointing TCP
/// rank's) is copied there first, so the rename never crosses a
/// filesystem; one already there is merged in place. `path` only ever
/// names a complete file: the rename replaces whatever was there, a
/// symlink included, rather than writing through it. A failed merge
/// removes the copy, or else every part (best effort). With `keep`
/// every part, never at `{path}.part{r}`, stays where it is.
///
/// # Errors
///
/// Any I/O failure; a part that cannot be opened is named with the hint
/// that multi-host worlds need a shared filesystem.
pub(crate) fn merge_parts(path: &Path, parts: &[PathBuf], keep: bool) -> std::io::Result<()> {
    let hint = |rank: usize| {
        move |e: std::io::Error| {
            std::io::Error::new(
                e.kind(),
                format!(
                    "{} (rank {rank}'s part not visible to the merging rank — \
                     distributed runs need a shared filesystem to merge): {e}",
                    parts[rank].display()
                ),
            )
        }
    };
    let first = part_path(path, 0);
    let in_place = parts[0] == first;
    debug_assert!(!(keep && in_place), "a kept part would be renamed away");
    let merge = || {
        if !in_place {
            std::fs::copy(&parts[0], &first).map_err(hint(0))?;
        }
        // Positioned at the end rather than opened O_APPEND: the kernel's
        // copy_file_range, which io::copy uses between two files, refuses
        // an append-mode destination.
        let mut merged = std::fs::OpenOptions::new()
            .write(true)
            .open(&first)
            .map_err(hint(0))?;
        merged.seek(std::io::SeekFrom::End(0))?;
        for (rank, part) in parts.iter().enumerate().skip(1) {
            std::io::copy(&mut File::open(part).map_err(hint(rank))?, &mut merged)?;
        }
        merged.sync_all()?;
        std::fs::rename(&first, path)?;
        match keep {
            true => Ok(()),
            false => parts[usize::from(in_place)..]
                .iter()
                .try_for_each(std::fs::remove_file),
        }
    };
    merge().inspect_err(|_| match in_place {
        true => remove_parts(parts),
        false => remove_parts(std::slice::from_ref(&first)),
    })
}

/// How `generate` turns edges into a file — its one output path. Creates
/// `{path}.part{0..ranks}` and hands `fill` one [`EdgeWriter`] per part,
/// each in `format`; `fill` streams every part's edges through its writer
/// and hands the writers back. [`merge_parts`] then joins the parts in
/// order onto `path`. Every exit that does not merge — an error or a
/// panic — deletes the parts.
///
/// With a `header` (a PAG container, `format` then `bin`) part 0 opens
/// with that header, its shard counts zero; once every writer has
/// finished, the fixed-length header is rewritten in place with each
/// part's edge count.
///
/// Returns the total edge count and what `fill` returned beside the
/// writers.
fn write_parts<R>(
    path: &Path,
    format: io::EdgeFormat,
    header: Option<&Meta>,
    ranks: usize,
    fill: impl FnOnce(Vec<EdgeWriter<File>>) -> (Vec<EdgeWriter<File>>, R),
) -> Result<(u64, R), CliError> {
    let parts = PartFiles { path, ranks };
    let mut writers = Vec::with_capacity(ranks);
    for rank in 0..ranks {
        let mut f = File::create(part_path(path, rank)).map_err(CliError::io)?;
        if let (0, Some(meta)) = (rank, header) {
            container::write_header(&mut f, meta, &vec![0; ranks]).map_err(CliError::io)?;
        }
        writers.push(EdgeWriter::new(f, format));
    }
    let (writers, extra) = fill(writers);
    let counts = writers
        .into_iter()
        .map(EdgeWriter::finish)
        .collect::<std::io::Result<Vec<u64>>>()
        .map_err(CliError::io)?;
    if let Some(meta) = header {
        let part0 = std::fs::OpenOptions::new()
            .write(true)
            .open(part_path(path, 0))
            .map_err(CliError::io)?;
        container::write_header(part0, meta, &counts).map_err(CliError::io)?;
    }
    parts.merge().map_err(CliError::io)?;
    Ok((counts.iter().sum(), extra))
}

/// Stream a PA network to `path` without ever materializing the edges:
/// each rank writes its own part through [`write_parts`]. Peak resident
/// memory is the engines' `O(n/P)` slot state plus one write chunk per
/// rank, regardless of edge count. `header` makes the file a PAG
/// container (one shard per rank); `job.format` is then `bin`.
///
/// Returns the total number of edges written plus the per-rank
/// communication ledgers (for `--stats` / `--stats-json`).
///
/// This is the single streaming code path shared by `pagen generate`
/// and the `pagen serve` job runner (which passes no header) — sharing
/// it is what guarantees a served artifact is byte-identical to a solo
/// run of the same tuple. `tuning` carries the byte-neutral knobs; the
/// job's engine and model are applied to it here.
pub(crate) fn stream_pa_to_disk(
    job: &JobDescriptor,
    tuning: GenOptions,
    path: &Path,
    header: Option<&Meta>,
) -> Result<(u64, Vec<pa_mpsim::CommStats>), CliError> {
    let ranks = job.ranks as usize;
    let opts = job.gen_options(tuning);
    write_parts(path, job.format, header, ranks, |writers| {
        // Each rank thread takes its own writer.
        let slots: Vec<_> = writers.into_iter().map(|w| Mutex::new(Some(w))).collect();
        par::generate_streaming(&job.cfg, job.scheme, ranks, &opts, |rank| {
            slots[rank]
                .lock()
                .expect("writer handoff poisoned")
                .take()
                .expect("sink built twice for one rank")
        })
        .into_iter()
        .map(|o| (o.sink, o.comm))
        .unzip()
    })
}

/// Engine tuning knobs shared by the `pa` model on every backend:
/// buffering, service cadence, the hub cache, chaos and the stall
/// watchdog.
pub(crate) fn parse_gen_options(args: &Args) -> Result<GenOptions, CliError> {
    let mut opts = GenOptions::default();
    opts.buffer_capacity = args.int("buffer-cap", opts.buffer_capacity)?;
    if opts.buffer_capacity == 0 {
        return Err(CliError::usage("--buffer-cap must be positive"));
    }
    opts.service_interval = args.int("service-interval", opts.service_interval)?;
    if opts.service_interval == 0 {
        return Err(CliError::usage("--service-interval must be positive"));
    }
    if !parse_hub_cache(args)? {
        opts = opts.without_hub_cache();
    }
    let chaos_seed = args.u64("chaos-seed", 0)?;
    match args.choice("chaos-profile", "off", &["off", "light", "aggressive"])? {
        "light" => opts = opts.with_fault_plan(pa_core::FaultPlan::light(chaos_seed)),
        "aggressive" => opts = opts.with_fault_plan(pa_core::FaultPlan::aggressive(chaos_seed)),
        _ => {}
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

/// `--hub-cache auto|off`: whether engine 2 replicates the default
/// [`pa_core::DEFAULT_HUB_CACHE_NODES`] hub rows (`auto`) or runs the
/// paper's pure request protocol (`off`).
pub(crate) fn parse_hub_cache(args: &Args) -> Result<bool, CliError> {
    Ok(args.choice("hub-cache", "auto", &["auto", "off"])? == "auto")
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::unix::fs::MetadataExt;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pagen_merge_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Three parts in one directory (a checkpoint directory's
    /// `rank{r}.part`), and an output path in another.
    fn parts_elsewhere(tag: &str) -> (PathBuf, Vec<PathBuf>) {
        let dir = scratch(tag);
        std::fs::create_dir_all(dir.join("ckpts")).unwrap();
        let parts = (0..3u8)
            .map(|r| {
                let part = dir.join(format!("ckpts/rank{r}.part"));
                std::fs::write(&part, [b'a' + r; 3]).unwrap();
                part
            })
            .collect();
        (dir, parts)
    }

    #[test]
    fn a_part_outside_the_outputs_directory_is_copied_never_renamed() {
        for keep in [false, true] {
            let (dir, parts) = parts_elsewhere(&format!("copied_{keep}"));
            let out = dir.join("edges.bin");
            let rank0 = std::fs::metadata(&parts[0]).unwrap().ino();
            merge_parts(&out, &parts, keep).unwrap();
            assert_eq!(std::fs::read(&out).unwrap(), b"aaabbbccc");
            // A rename of rank 0's part would carry its inode, and fail
            // outright across filesystems.
            assert_ne!(std::fs::metadata(&out).unwrap().ino(), rank0);
            assert!(!part_path(&out, 0).exists());
            assert!(
                parts.iter().all(|part| part.exists() == keep),
                "keep {keep}"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn a_failed_merge_leaves_parts_outside_the_outputs_directory_whole() {
        let (dir, parts) = parts_elsewhere("failed");
        // An occupied directory at the output path: the rename fails
        // after the copy and the appends.
        let out = dir.join("edges.bin");
        std::fs::create_dir_all(out.join("occupied")).unwrap();
        assert!(merge_parts(&out, &parts, false).is_err());
        for (r, part) in (0..3u8).zip(&parts) {
            assert_eq!(std::fs::read(part).unwrap(), [b'a' + r; 3]);
        }
        assert!(!part_path(&out, 0).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
