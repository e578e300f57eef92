//! Elastic gang restart: re-partition a saved world's committed state
//! from `P_old` ranks onto `P_new` ranks at a checkpoint cut.
//!
//! A checkpoint cut is a *label threshold*: every node below `hi` is
//! committed world-wide and nothing at or above it has been touched
//! (DESIGN.md §5f). The committed state below the cut is therefore a
//! pure function of the model — `F_t(e)` values addressed by label, with
//! no per-rank residue (waiter tables provably empty, attempt counters
//! dead, engine 2's hub replica recomputed by its constructor). That
//! makes the cut *re-partitionable*: a world saved by `P_old` ranks can
//! restart on `P_new` ranks by routing each committed label through the
//! **new** partition's closed-form owner lookup and synthesizing each new
//! rank's resume payload from the old ranks' tables.
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
//! checkpoint format — the one payload every engine writes — which every
//! engine restores into either table backend, and
//! [`WorldCheckpoint::write_part_prefix`] replays the deterministic
//! pre-cut emission order through the new rank's sink so its part file
//! begins exactly as a never-killed `P_new` run's would.
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
use crate::store::{
    self, slots_fnv, table_path, AnyTable, NodeTable, PagedSpec, StoreSpec, TablePrefix,
};
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
    /// must sit in the same directory (`rank{r}.f.pages`) and are
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
        let job = meta.job;
        let world = job.ranks as usize;
        let scheme = Scheme::from_id(job.scheme_id)
            .ok_or_else(|| format!("unknown partition scheme id {}", job.scheme_id))?;
        if Engine::from_id(job.engine_id).is_none() {
            return Err(format!("unknown engine id {}", job.engine_id));
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
        let part = partition::build(scheme, job.n, world);
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
            f.push(f_prefix(dir, job.n, rank, cnt, job.x, &raw.saved.payload)?);
        }
        let hi = hi.expect("world >= 1, so hi was set");
        let grid_hi = ((common + 1) * meta.interval).min(job.n);
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
        let slot = self.part.local_index(t) * self.meta.job.x + e;
        self.f[rank][slot as usize]
    }

    /// Synthesize new rank `rank`'s resume payload over `new_part`: the
    /// one payload every engine writes and restores (its `F` prefix and
    /// counters), written from a resident table, so it resumes any
    /// engine into either store backend.
    pub fn payload_for<P: Partition>(&self, new_part: &P, rank: usize) -> Vec<u8> {
        let x = self.meta.job.x;
        let n = self.meta.job.n;
        let cnt = new_part.local_count_below(rank, self.hi);
        let mut f = AnyTable::build_for(n, &StoreSpec::Resident, rank, "f", cnt * x, NILL)
            .expect("a resident table opens no file");
        for li in 0..cnt {
            let t = new_part.node_at(rank, li);
            // Clique rows (t < x) legitimately hold NILL: their slots are
            // never drawn or queried.
            if t >= x {
                for e in 0..x {
                    f.set(li * x + e, self.committed(t, e));
                }
            }
        }
        let counters = EngineCounters {
            nodes: new_part.size_of(rank),
            ..Default::default()
        };
        let mut out = Vec::new();
        store::write_checkpoint_payload(&mut f, cnt, x, counters.to_words(), &mut out);
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
        let x = self.meta.job.x;
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

/// Extract one old rank's committed `F` prefix (`cnt · x` slots) of an
/// `n`-node world from its checkpoint payload: inline for the resident
/// format, from the page files (in the cells the run kept them in,
/// re-verified against the payload's FNV) for the paged format.
fn f_prefix(
    dir: &Path,
    n: u64,
    rank: usize,
    cnt: u64,
    x: u64,
    payload: &[u8],
) -> Result<Vec<u64>, String> {
    let mut r = payload;
    let header = TablePrefix::read(&mut r).map_err(|e| format!("rank {rank}: {e}"))?;
    let (TablePrefix::Resident { cnt: file_cnt } | TablePrefix::Paged { cnt: file_cnt, .. }) =
        header;
    if file_cnt != cnt {
        return Err(format!(
            "rank {rank}: committed prefix holds {file_cnt} nodes but the \
             partition puts {cnt} below the cut"
        ));
    }
    let want = cnt * x;
    let TablePrefix::Paged {
        fnv, page_bytes, ..
    } = header
    else {
        let mut slots = Vec::with_capacity(want as usize);
        for _ in 0..want {
            slots.push(get_u64(&mut r).ok_or("truncated F table")?);
        }
        return Ok(slots);
    };
    // Read the pages back the way a resuming run does: through a paged
    // table of the run's cell width, whose open applies the file's
    // write-back journal first. A torn or foreign page reads as absent
    // and fails the checksum below.
    let path = table_path(dir, &format!("rank{rank}.f"));
    if want > 0 && !path.is_file() {
        return Err(format!(
            "rank {rank}: page file {} is missing (was this world generated with \
             --memory-budget by this build, and its store kept?)",
            path.display()
        ));
    }
    let resume = StoreSpec::Paged(PagedSpec {
        dir: dir.to_path_buf(),
        budget_bytes: 0,
        page_bytes,
        resume: true,
    });
    let mut table = AnyTable::build_for(n, &resume, rank, "f", want, NILL)
        .map_err(|e| format!("rank {rank}: {}: {e}", path.display()))?;
    let slots: Vec<u64> = (0..want).map(|s| table.get(s)).collect();
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
    use pa_graph::{io::EdgeFormat, EdgeList};
    use pa_mpsim::{Transport, World};
    use std::path::PathBuf;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pa_restart_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// Small buffers, and a hub replica of 64 nodes: every rank computes
    /// engine 2's replica, so under the default size (4096, more than
    /// `n`) an engine-2 world here would send no request at all.
    fn opts(engine: Engine, interval: u64) -> GenOptions {
        GenOptions {
            engine,
            buffer_capacity: 16,
            service_interval: 8,
            checkpoint_interval: Some(interval),
            hub_cache_nodes: Some(64),
            ..GenOptions::default()
        }
    }

    /// Run a full world of `p_old` ranks under `run_opts` and return its
    /// per-rank edge lists and its total requests sent; with `dir` set it
    /// leaves its last two checkpoint epochs (and, when the store is
    /// paged, its page files) behind there.
    fn run_world(
        cfg: &PaConfig,
        scheme: Scheme,
        p_old: usize,
        run_opts: &GenOptions,
        dir: Option<&Path>,
    ) -> (Vec<EdgeList>, u64) {
        let part = partition::build(scheme, cfg.n, p_old);
        let m = CheckpointMeta::for_run(cfg, scheme, p_old, run_opts, EdgeFormat::Binary);
        let ranks = World::new(p_old).run(move |mut comm| {
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
        });
        let requests = ranks.iter().map(|(_, c)| c.requests_sent).sum();
        (
            ranks.into_iter().map(|(edges, _)| edges).collect(),
            requests,
        )
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
        assert_eq!(world.meta().job.n, cfg.n);
        let part = partition::build(scheme, cfg.n, p_new);
        World::new(p_new).run(move |mut comm| {
            let rank = comm.rank();
            let mut sink = EdgeList::new();
            let edges = world.write_part_prefix(&part, rank, &mut sink);
            let payload = world.payload_for(&part, rank);
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

    /// Every truncation and every single-byte flip of a saved
    /// checkpoint file must read as absent: `CheckpointStore::load`
    /// returns `None` and `WorldCheckpoint::load` a named error.
    #[test]
    fn every_truncation_and_byte_flip_reads_as_absent() {
        let cfg = PaConfig::new(64, 2).with_seed(5);
        let run_opts = opts(Engine::General, 32);
        let src = scratch("fuzz_src");
        run_world(&cfg, Scheme::Rrp, 1, &run_opts, Some(&src));
        let good = fs::read(src.join("rank0.epoch0.ckpt")).unwrap();
        let dir = scratch("fuzz");
        let meta = CheckpointMeta::for_run(&cfg, Scheme::Rrp, 1, &run_opts, EdgeFormat::Binary);
        let store = CheckpointStore::new(&dir, 0, meta).unwrap();
        let file = dir.join("rank0.epoch0.ckpt");
        fs::write(&file, &good).unwrap();
        assert!(store.load(0).is_some(), "the intact file loads");
        assert!(
            WorldCheckpoint::load(&dir).is_ok(),
            "the intact world loads"
        );
        let absent = |bytes: &[u8], what: &str| {
            fs::write(&file, bytes).unwrap();
            assert!(store.load(0).is_none(), "{what}: CheckpointStore::load");
            let err = WorldCheckpoint::load(&dir).expect_err(what);
            assert!(!err.is_empty(), "{what}");
        };
        for len in 0..good.len() {
            absent(&good[..len], &format!("truncated to {len} bytes"));
        }
        for i in 0..good.len() {
            for mask in [0x01, 0xff] {
                let mut bytes = good.clone();
                bytes[i] ^= mask;
                absent(&bytes, &format!("byte {i} xor {mask:#04x}"));
            }
        }
        let _ = fs::remove_dir_all(&src);
        let _ = fs::remove_dir_all(&dir);
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
            let (fresh, _) = run_world(&cfg, Scheme::Rrp, p_new, &o, None);
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
        let (fresh, _) = run_world(&cfg, Scheme::Rrp, 2, &o, None);
        // Restart reads F from page files; the new run runs resident.
        let restarted = restart(&cfg, Scheme::Rrp, 2, &o, &dir);
        assert_eq!(restarted, fresh);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_store_from_an_older_build_is_a_named_error() {
        // Builds that kept a file per page marked their paged payloads
        // with u64::MAX: the restart reader names them instead of reading
        // files this build no longer writes.
        let old = [u64::MAX, 4, 0].map(u64::to_le_bytes).concat();
        let err = f_prefix(Path::new("/nonexistent"), 2_000, 3, 4, 2, &old).unwrap_err();
        assert!(
            err.starts_with("rank 3: ") && err.contains("older build"),
            "{err}"
        );
        // A directory holding per-page files where the page file should
        // be fails by name too.
        let cfg = PaConfig::new(2_000, 2).with_seed(7);
        let o = opts(Engine::Chain, 400);
        let dir = scratch("old_store");
        let paged = StoreSpec::paged(&dir, 2 * 1024).with_page_bytes(256);
        run_world(&cfg, Scheme::Rrp, 2, &o.with_store(paged), Some(&dir));
        for rank in 0..2 {
            let pages = table_path(&dir, &format!("rank{rank}.f"));
            fs::rename(&pages, dir.join(format!("rank{rank}.f.p0.pg"))).unwrap();
        }
        let err = WorldCheckpoint::load(&dir).unwrap_err();
        assert!(err.contains("rank0.f.pages is missing"), "{err}");
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
        let (_, requests) = run_world(&cfg, Scheme::Lcp, 3, &o, Some(&dir));
        assert!(requests > 0, "the saved engine-2 world sent no request");
        let world = WorldCheckpoint::load(&dir).expect("world loads");
        assert_eq!(world.meta().job.ranks, 3);
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
