//! Elastic gang restart: re-partition a saved world's committed state
//! from `P_old` ranks onto `P_new` ranks at a checkpoint cut.
//!
//! A checkpoint cut is a *label threshold*: every node below `hi` is
//! committed world-wide and nothing at or above it has been touched
//! (DESIGN.md §5f). The committed state below the cut is therefore a
//! pure function of the model — `F_t(e)` values addressed by label, with
//! no per-rank residue (waiter tables provably empty, attempt counters
//! dead, the hub replica reconstructible on demand). That makes the cut
//! *re-partitionable*: a world saved by `P_old` ranks can restart on
//! `P_new` ranks by routing each committed label through the **new**
//! partition's closed-form owner lookup and synthesizing each new rank's
//! resume payload from the old ranks' tables.
//!
//! [`WorldCheckpoint::load`] scans a checkpoint directory without fixing
//! the world size in advance (the per-file identity check that
//! [`super::CheckpointStore::load`] performs would reject the resize),
//! validates that every rank of the saved world left a checkpoint at a
//! common epoch, and assembles the committed `F` prefix — from inline
//! payloads, or from the page files a `--memory-budget` run left behind
//! (re-verified against the payload's prefix checksum, so torn pages
//! surface before any edge is emitted). [`WorldCheckpoint::payload_for`]
//! then produces a per-new-rank resume payload in the resident
//! checkpoint format, which every engine's `restore` accepts into either
//! table backend, and [`WorldCheckpoint::write_part_prefix`] replays the
//! deterministic pre-cut emission order through the new rank's sink so
//! its part file begins exactly as a never-killed `P_new` run's would.
//!
//! What may change across the restart: the rank count, the partition
//! scheme, the engine, the store backend. What must not: `(n, x, p,
//! seed)`, the attachment model, and the epoch interval — those define
//! the network itself.

use std::fs;
use std::path::Path;

use pa_mpsim::wire::get_u64;

use super::checkpoint::{read_raw_checkpoint, CheckpointMeta, SavedCheckpoint};
use super::output::EngineCounters;
use super::sink::EdgeSink;
use crate::partition::{self, AnyPartition, Partition, Scheme};
use crate::store::{page_path, read_page_file, slots_fnv, TablePrefix};
use crate::{Engine, Node, NILL};

/// A saved world's committed state at its newest common checkpoint cut,
/// re-partitionable onto any new rank count.
#[derive(Debug)]
pub struct WorldCheckpoint {
    meta: CheckpointMeta,
    epoch: u64,
    hi: u64,
    /// The **old** partition (scheme and world size from the files).
    part: AnyPartition,
    /// Per old rank: the committed `F` prefix,
    /// `local_count_below(rank, hi) · x` slots.
    f: Vec<Vec<u64>>,
}

impl WorldCheckpoint {
    /// Scan `dir` for one world's checkpoints and load the committed
    /// state at the newest epoch **every** rank holds.
    ///
    /// Paged (`--memory-budget`) checkpoints reference page files; those
    /// must sit in the same directory (`rank{r}.f.p{i}.pg`) and are
    /// re-verified against the payload's committed-prefix checksum.
    ///
    /// # Errors
    ///
    /// A human-readable reason: no checkpoints, ranks missing, files
    /// disagreeing on the run identity, an unknown scheme or engine, or
    /// page files that are torn, missing, or fail the prefix checksum.
    pub fn load(dir: &Path) -> Result<WorldCheckpoint, String> {
        let entries = fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
        // Collect every valid checkpoint file, keyed by (rank, epoch).
        let mut raws: Vec<super::checkpoint::RawCheckpoint> = Vec::new();
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if !(name.starts_with("rank") && name.ends_with(".ckpt")) {
                continue;
            }
            if let Some(raw) = read_raw_checkpoint(&entry.path()) {
                raws.push(raw);
            }
        }
        let Some(first) = raws.first() else {
            return Err(format!("no valid checkpoints in {}", dir.display()));
        };
        let meta = first.meta;
        if raws.iter().any(|r| r.meta != meta) {
            return Err(format!(
                "{} holds checkpoints from more than one run identity",
                dir.display()
            ));
        }
        let world = meta.world as usize;
        let scheme = Scheme::from_id(meta.scheme_id)
            .ok_or_else(|| format!("unknown partition scheme id {}", meta.scheme_id))?;
        if Engine::from_id(meta.engine_id).is_none() {
            return Err(format!("unknown engine id {}", meta.engine_id));
        }
        // The newest epoch every rank holds. Keep-last-two plus the
        // barrier-bounded epoch skew of one guarantees it exists on a
        // crashed-but-uncorrupted world.
        let newest_of = |rank: usize| {
            raws.iter()
                .filter(|r| r.rank as usize == rank)
                .map(|r| r.saved.epoch)
                .max()
        };
        let mut common = u64::MAX;
        for rank in 0..world {
            let newest = newest_of(rank)
                .ok_or_else(|| format!("rank {rank} of {world} has no valid checkpoint"))?;
            common = common.min(newest);
        }
        let part = partition::build(scheme, meta.n, world);
        let mut hi = None;
        let mut f = Vec::with_capacity(world);
        for rank in 0..world {
            let raw = raws
                .iter()
                .find(|r| r.rank as usize == rank && r.saved.epoch == common)
                .ok_or_else(|| {
                    format!("rank {rank} has no checkpoint at the common epoch {common}")
                })?;
            match hi {
                None => hi = Some(raw.saved.hi),
                Some(h) if h != raw.saved.hi => {
                    return Err(format!(
                        "ranks disagree on the cut label at epoch {common}: {h} vs {}",
                        raw.saved.hi
                    ));
                }
                Some(_) => {}
            }
            let cnt = part.local_count_below(rank, raw.saved.hi);
            f.push(f_prefix(dir, rank, cnt, meta.x, &raw.saved.payload)?);
        }
        let hi = hi.expect("world >= 1, so hi was set");
        let grid_hi = ((common + 1) * meta.interval).min(meta.n);
        if hi != grid_hi {
            return Err(format!(
                "epoch {common} cut at label {hi} but the interval {} puts the \
                 boundary at {grid_hi}",
                meta.interval
            ));
        }
        Ok(WorldCheckpoint {
            meta,
            epoch: common,
            hi,
            part,
            f,
        })
    }

    /// The saved run's identity (world size = the **old** rank count).
    pub fn meta(&self) -> &CheckpointMeta {
        &self.meta
    }

    /// The common epoch the restart resumes after.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The cut label: every node below it is committed.
    pub fn hi(&self) -> u64 {
        self.hi
    }

    /// The committed `F_t(e)` for `x ≤ t < hi` (node `x`'s row is its
    /// identity attachment, stored like any other commit).
    fn committed(&self, t: Node, e: u64) -> Node {
        let rank = self.part.rank_of(t);
        let slot = self.part.local_index(t) * self.meta.x + e;
        self.f[rank][slot as usize]
    }

    /// Synthesize new rank `rank`'s resume payload over `new_part` — the
    /// resident checkpoint format, which every engine's `restore`
    /// accepts into either store backend. `engine` names the **new**
    /// run's engine (it appends the general engine's empty hub section;
    /// a restored hub rebuilds through the request path).
    pub fn payload_for<P: Partition>(&self, new_part: &P, rank: usize, engine: Engine) -> Vec<u8> {
        let x = self.meta.x;
        let cnt = new_part.local_count_below(rank, self.hi);
        let mut out = Vec::with_capacity(8 * (1 + (cnt * x) as usize));
        out.extend_from_slice(&cnt.to_le_bytes());
        for li in 0..cnt {
            let t = new_part.node_at(rank, li);
            for e in 0..x {
                // Clique rows (t < x) legitimately hold NILL: their
                // slots are never drawn or queried.
                let v = if t < x { NILL } else { self.committed(t, e) };
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        EngineCounters {
            nodes: new_part.size_of(rank),
            ..Default::default()
        }
        .encode(&mut out);
        if engine == Engine::General {
            // Empty hub section: the fresh replica plus request-path
            // fallback below the committed base is always correct.
            out.extend_from_slice(&0u64.to_le_bytes());
        }
        out
    }

    /// Replay new rank `rank`'s pre-cut edges through `sink` in the
    /// deterministic per-rank emission order (clique rows ascending,
    /// node `x`'s identity row, then one committed row per swept node) —
    /// exactly the byte stream a never-killed `P_new` engine3 run writes
    /// below the cut. Returns the number of edges emitted.
    pub fn write_part_prefix<P: Partition, S: EdgeSink>(
        &self,
        new_part: &P,
        rank: usize,
        sink: &mut S,
    ) -> u64 {
        let x = self.meta.x;
        let mut edges = 0u64;
        for t in new_part.nodes_of(rank) {
            if t >= self.hi {
                break;
            }
            if t < x {
                for j in 0..t {
                    sink.emit(t, j);
                }
                edges += t;
            } else {
                for e in 0..x {
                    // Node x's committed row is the identity F_x(e) = e.
                    sink.emit(t, self.committed(t, e));
                }
                edges += x;
            }
        }
        edges
    }

    /// Bundle a synthesized payload and a sink watermark into the
    /// [`SavedCheckpoint`] the recoverable entry points resume from.
    pub fn resume_point(&self, payload: Vec<u8>, edges: u64, bytes: u64) -> SavedCheckpoint {
        SavedCheckpoint {
            epoch: self.epoch,
            hi: self.hi,
            edges,
            bytes,
            payload,
        }
    }
}

/// Extract one old rank's committed `F` prefix (`cnt · x` slots) from
/// its checkpoint payload: inline for the resident format, from the page
/// files (re-verified against the payload's FNV) for the paged format.
fn f_prefix(dir: &Path, rank: usize, cnt: u64, x: u64, payload: &[u8]) -> Result<Vec<u64>, String> {
    let mut r = payload;
    let header = TablePrefix::read(&mut r)?;
    let (TablePrefix::Resident { cnt: file_cnt } | TablePrefix::Paged { cnt: file_cnt, .. }) =
        header;
    if file_cnt != cnt {
        return Err(format!(
            "rank {rank}: committed prefix holds {file_cnt} nodes but the \
             partition puts {cnt} below the cut"
        ));
    }
    let want = cnt * x;
    let TablePrefix::Paged { fnv, .. } = header else {
        let mut slots = Vec::with_capacity(want as usize);
        for _ in 0..want {
            slots.push(get_u64(&mut r).ok_or("truncated F table")?);
        }
        return Ok(slots);
    };
    if want == 0 {
        return Ok(Vec::new());
    }
    let prefix = format!("rank{rank}.f");
    let read = |page: u64| {
        read_page_file(&page_path(dir, &prefix, page)).ok_or_else(|| {
            format!(
                "rank {rank}: page file {} is missing or torn (was this world \
                 generated with --memory-budget and its store kept?)",
                page_path(dir, &prefix, page).display()
            )
        })
    };
    let mut slots = read(0)?;
    let spp = slots.len() as u64;
    if spp == 0 {
        return Err(format!("rank {rank}: page 0 of table f is empty"));
    }
    for page in 1..want.div_ceil(spp) {
        let data = read(page)?;
        if data.len() as u64 != spp {
            return Err(format!(
                "rank {rank}: page {page} has {} slots where the table's \
                 geometry says {spp}",
                data.len()
            ));
        }
        slots.extend_from_slice(&data);
    }
    slots.truncate(want as usize);
    if slots_fnv(slots.iter().copied()) != fnv {
        return Err(format!(
            "rank {rank}: page files do not match the checkpoint's \
             committed-prefix checksum"
        ));
    }
    Ok(slots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::{generate_rank_streaming_recoverable, CheckpointStore};
    use crate::store::StoreSpec;
    use crate::{GenOptions, PaConfig};
    use pa_graph::EdgeList;
    use pa_mpsim::World;
    use std::path::PathBuf;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pa_restart_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn opts(engine: Engine, interval: u64) -> GenOptions {
        GenOptions {
            engine,
            buffer_capacity: 16,
            service_interval: 8,
            checkpoint_interval: Some(interval),
            ..GenOptions::default()
        }
    }

    /// Run a full world of `p_old` ranks under `run_opts`; with `dir`
    /// set it leaves its last two checkpoint epochs (and, when the
    /// store is paged, its page files) behind there.
    fn run_world(
        cfg: &PaConfig,
        scheme: Scheme,
        p_old: usize,
        run_opts: &GenOptions,
        dir: Option<&Path>,
    ) -> Vec<EdgeList> {
        let part = partition::build(scheme, cfg.n, p_old);
        let m = CheckpointMeta::for_run(cfg, scheme, p_old, run_opts);
        World::new(p_old).run(move |mut comm| {
            let ckpt = dir.map(|d| CheckpointStore::new(d, comm.rank() as u32, m).unwrap());
            generate_rank_streaming_recoverable(
                cfg,
                &part,
                run_opts,
                &mut comm,
                EdgeList::new(),
                ckpt.as_ref(),
                None,
            )
            .0
        })
    }

    /// Restart the world in `dir` on `p_new` ranks under `run_opts` and
    /// return the per-rank edge lists (prefix replay + continued
    /// generation).
    fn restart(
        cfg: &PaConfig,
        scheme: Scheme,
        p_new: usize,
        run_opts: &GenOptions,
        dir: &Path,
    ) -> Vec<EdgeList> {
        let world = WorldCheckpoint::load(dir).expect("world loads");
        assert_eq!(world.meta().n, cfg.n);
        let part = partition::build(scheme, cfg.n, p_new);
        World::new(p_new).run(move |mut comm| {
            let rank = comm.rank();
            let mut sink = EdgeList::new();
            let edges = world.write_part_prefix(&part, rank, &mut sink);
            let payload = world.payload_for(&part, rank, run_opts.engine);
            let saved = world.resume_point(payload, edges, 0);
            generate_rank_streaming_recoverable(
                cfg,
                &part,
                run_opts,
                &mut comm,
                sink,
                None,
                Some(&saved),
            )
            .0
        })
    }

    #[test]
    fn engine3_world_restarts_on_smaller_and_larger_rank_counts() {
        let cfg = PaConfig::new(2_400, 3).with_seed(29);
        let o = opts(Engine::Chain, 500);
        let dir = scratch("resize3");
        run_world(&cfg, Scheme::Rrp, 4, &o, Some(&dir));
        for p_new in [2usize, 8] {
            // Byte-identity oracle: a fresh never-killed P_new run. The
            // per-rank part bytes must match exactly, not just as sets.
            let fresh = run_world(&cfg, Scheme::Rrp, p_new, &o, None);
            let restarted = restart(&cfg, Scheme::Rrp, p_new, &o, &dir);
            assert_eq!(
                restarted, fresh,
                "P=4 -> P={p_new} restart must be byte-identical"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn paged_world_restarts_from_its_page_files() {
        let cfg = PaConfig::new(2_000, 2).with_seed(7);
        let o = opts(Engine::Chain, 400);
        let dir = scratch("paged_resize");
        // The old world spills its F tables into the checkpoint dir.
        let paged = StoreSpec::paged(&dir, 2 * 1024).with_page_bytes(256);
        run_world(
            &cfg,
            Scheme::Rrp,
            4,
            &o.clone().with_store(paged),
            Some(&dir),
        );
        let fresh = run_world(&cfg, Scheme::Rrp, 2, &o, None);
        // Restart reads F from page files; the new run runs resident.
        let restarted = restart(&cfg, Scheme::Rrp, 2, &o, &dir);
        assert_eq!(restarted, fresh);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn engine2_world_restarts_across_engines_and_schemes() {
        // Save under engine2/LCP, restart under engine2/RRP with a new
        // rank count: the committed F values are engine-independent, so
        // the restarted edge set must equal the sequential oracle's.
        let cfg = PaConfig::new(2_400, 3).with_seed(11);
        let o = opts(Engine::General, 500);
        let dir = scratch("cross2");
        run_world(&cfg, Scheme::Lcp, 3, &o, Some(&dir));
        let world = WorldCheckpoint::load(&dir).expect("world loads");
        assert_eq!(world.meta().world, 3);
        let restarted = restart(&cfg, Scheme::Rrp, 2, &o, &dir);
        assert_eq!(
            EdgeList::concat(restarted).canonicalized(),
            crate::seq::copy_model(&cfg).canonicalized(),
            "engine2 restart must reproduce the model's edge set"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_rejects_missing_ranks_and_mixed_identities() {
        let cfg = PaConfig::new(1_200, 2).with_seed(3);
        let o = opts(Engine::Chain, 300);
        let dir = scratch("reject");
        run_world(&cfg, Scheme::Rrp, 2, &o, Some(&dir));
        // Remove every checkpoint of rank 1: the load must name it.
        for entry in fs::read_dir(&dir).unwrap().flatten() {
            if entry.file_name().to_string_lossy().starts_with("rank1.") {
                fs::remove_file(entry.path()).unwrap();
            }
        }
        let err = WorldCheckpoint::load(&dir).unwrap_err();
        assert!(err.contains("rank 1"), "{err}");
        // A second run identity in the same directory is an error. Its
        // files must not collide with the first world's names (same
        // epoch grid ⇒ same `rank{r}.epoch{e}.ckpt`), so plant one under
        // a foreign name: the loader reads identity from headers.
        run_world(&cfg, Scheme::Rrp, 2, &o, Some(&dir));
        let cfg2 = PaConfig::new(1_200, 2).with_seed(4);
        let dir2 = scratch("reject_other");
        run_world(&cfg2, Scheme::Rrp, 2, &o, Some(&dir2));
        let foreign = fs::read_dir(&dir2)
            .unwrap()
            .flatten()
            .next()
            .unwrap()
            .path();
        fs::copy(&foreign, dir.join("rank0.epoch99.ckpt")).unwrap();
        let err = WorldCheckpoint::load(&dir).unwrap_err();
        let _ = fs::remove_dir_all(&dir2);
        assert!(err.contains("more than one run identity"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_directory_is_an_error() {
        let dir = scratch("empty");
        fs::create_dir_all(&dir).unwrap();
        let err = WorldCheckpoint::load(&dir).unwrap_err();
        assert!(err.contains("no valid checkpoints"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }
}
