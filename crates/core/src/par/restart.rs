//! Elastic gang restart: re-partition a saved world's committed state
//! from `P_old` ranks onto `P_new` ranks at a checkpoint cut.
//!
//! A checkpoint cut is a *label threshold*: every node below `hi` is
//! committed world-wide and nothing at or above it has been touched
//! (DESIGN.md, "Recovery"). The committed state below the cut is
//! therefore a pure function of the model — `F_t(e)` values addressed by
//! label, with no per-rank residue (waiter tables provably empty,
//! attempt counters dead, engine 2's hub replica recomputed by its
//! constructor). That makes the cut *re-partitionable*: a world saved by
//! `P_old` ranks can restart on `P_new` ranks by routing each committed
//! label through the **new** partition's closed-form owner lookup.
//!
//! A saved world is a directory holding, for every old rank `r`, its
//! checkpoints and its part file `rank{r}.part` — what a checkpointing
//! run kept with `--keep-checkpoints on` leaves behind. The part is the
//! one durable record of the rank's rows: a checkpoint only names how
//! much of it is committed. [`WorldCheckpoint::load`] scans the
//! checkpoints without fixing the world size in advance (the per-file
//! identity check that [`super::CheckpointStore::load`] performs would
//! reject the resize) and validates that every rank of the saved world
//! left a checkpoint at a common epoch. [`WorldCheckpoint::replay`] then
//! reads each old rank's committed prefix back, checked as a crash
//! resume checks it, and writes a new rank's rows through its sink in
//! the deterministic pre-cut emission order, so its part file begins
//! exactly as a never-killed `P_new` run's would; the new rank resumes
//! from those rows.
//!
//! What may change across the restart: the rank count, the partition
//! scheme, the engine, the store backend. What must not: `(n, x, p,
//! seed)`, the attachment model, the epoch interval and the edge format
//! — the first four define the network itself, the last the parts.

use std::fs::File;
use std::io::{BufReader, Read};
use std::path::{Path, PathBuf};

use pa_graph::io::{EdgeFormat, EdgeReader};

use super::checkpoint::{
    read_raw_checkpoint, restore_rows, rows_digest, CheckpointMeta, SavedCheckpoint,
};
use super::output::EngineCounters;
use super::sink::EdgeSink;
use crate::partition::{self, AnyPartition, Partition, Scheme};
use crate::store::{AnyTable, NodeTable, StoreSpec};
use crate::{Engine, NILL};

/// A saved world at its newest common checkpoint cut, re-partitionable
/// onto any new rank count.
#[derive(Debug)]
pub struct WorldCheckpoint {
    dir: PathBuf,
    meta: CheckpointMeta,
    format: EdgeFormat,
    epoch: u64,
    hi: u64,
    /// The **old** partition (scheme and world size from the files).
    part: AnyPartition,
    /// Per old rank: its checkpoint at the common epoch.
    saved: Vec<SavedCheckpoint>,
}

impl WorldCheckpoint {
    /// Scan `dir` for one world's checkpoints and pick the newest epoch
    /// **every** rank holds.
    ///
    /// # Errors
    ///
    /// A human-readable reason: no checkpoints, ranks missing, files
    /// disagreeing on the run identity or the cut, or an unknown scheme,
    /// engine or edge format.
    pub fn load(dir: &Path) -> Result<WorldCheckpoint, String> {
        let entries =
            std::fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
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
        let format = EdgeFormat::from_id(job.format_id)
            .ok_or_else(|| format!("unknown edge format id {}", job.format_id))?;
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
        let mut saved = Vec::with_capacity(world);
        for rank in 0..world {
            let raw = raws
                .iter()
                .find(|r| r.rank as usize == rank && r.saved.epoch == common)
                .ok_or_else(|| {
                    format!("rank {rank} has no checkpoint at the common epoch {common}")
                })?;
            saved.push(raw.saved.clone());
        }
        let hi = saved[0].hi;
        if let Some(other) = saved.iter().find(|s| s.hi != hi) {
            return Err(format!(
                "ranks disagree on the cut label at epoch {common}: {hi} vs {}",
                other.hi
            ));
        }
        let grid_hi = ((common + 1) * meta.interval).min(job.n);
        if hi != grid_hi {
            return Err(format!(
                "epoch {common} cut at label {hi} but the interval {} puts the \
                 boundary at {grid_hi}",
                meta.interval
            ));
        }
        Ok(WorldCheckpoint {
            dir: dir.to_path_buf(),
            meta,
            format,
            epoch: common,
            hi,
            part: partition::build(scheme, job.n, world),
            saved,
        })
    }

    /// The saved run's identity (world size = the **old** rank count).
    pub fn meta(&self) -> &CheckpointMeta {
        &self.meta
    }

    /// Write new rank `rank`'s committed edges below the cut over
    /// `new_part` through `sink`, in the deterministic per-rank emission
    /// order (clique rows ascending, node `x`'s identity row, then one
    /// committed row per swept node) — exactly the byte stream a
    /// never-killed `P_new` engine-3 run writes below the cut — and
    /// return the checkpoint the rank resumes after, its watermark the
    /// sink's [`EdgeSink::checkpoint_mark`].
    ///
    /// The rows come from the saved world's parts: each old rank's
    /// committed prefix is read back and checked as a crash resume
    /// checks it, one old rank at a time, so the replay holds two
    /// tables, one old rank's rows and the new rank's, each built per
    /// `store` (under a paged spec, each within its budget, as
    /// `rank{rank}.replay*` page files deleted before it returns).
    ///
    /// # Errors
    ///
    /// A reason naming the old rank whose part is missing, shorter than
    /// its checkpoint's watermark, or not its committed rows; or the
    /// sink's failure.
    pub fn replay<P: Partition, S: EdgeSink>(
        &self,
        new_part: &P,
        rank: usize,
        store: &StoreSpec,
        sink: &mut S,
    ) -> Result<SavedCheckpoint, String> {
        let saved = self.replay_rows(new_part, rank, store, sink);
        if let StoreSpec::Paged(spec) = store {
            crate::store::clean_rank_pages(&spec.dir, rank);
        }
        saved
    }

    fn replay_rows<P: Partition, S: EdgeSink>(
        &self,
        new_part: &P,
        rank: usize,
        store: &StoreSpec,
        sink: &mut S,
    ) -> Result<SavedCheckpoint, String> {
        let (n, x, hi) = (self.meta.job.n, self.meta.job.x, self.hi);
        let table = |name, len| {
            AnyTable::build_for(n, store, rank, name, len, NILL)
                .map_err(|e| format!("rank {rank}: opening its replay table: {e}"))
        };
        let slots = new_part.local_count_below(rank, hi) * x;
        let mut rows = table("replay", slots)?;
        for (old, saved) in self.saved.iter().enumerate() {
            let path = self.dir.join(format!("rank{old}.part"));
            let named = |e: String| format!("rank {old}: {}: {e}", path.display());
            let file = File::open(&path).map_err(|e| named(e.to_string()))?;
            let len = file.metadata().map_err(|e| named(e.to_string()))?.len();
            if len < saved.bytes {
                return Err(named(format!(
                    "{len} bytes, fewer than the {} its checkpoint committed",
                    saved.bytes
                )));
            }
            let cnt = self.part.local_count_below(old, hi);
            let mut old_rows = table("replay-old", cnt * x)?;
            let edges = &mut EdgeReader::new(BufReader::new(file.take(saved.bytes)), self.format);
            restore_rows(&mut old_rows, &self.part, old, x, saved, edges).map_err(named)?;
            for li in 0..cnt {
                let t = self.part.node_at(old, li);
                if t >= x && new_part.rank_of(t) == rank {
                    let row = new_part.local_index(t) * x;
                    for e in 0..x {
                        rows.set(row + e, old_rows.get(li * x + e));
                    }
                }
            }
        }
        for t in new_part.nodes_of(rank).take_while(|&t| t < hi) {
            if t < x {
                for j in 0..t {
                    sink.emit(t, j);
                }
            } else {
                let row = new_part.local_index(t) * x;
                for e in 0..x {
                    sink.emit(t, rows.get(row + e));
                }
            }
        }
        let (edges, bytes) = sink
            .checkpoint_mark()
            .map_err(|e| format!("rank {rank}: writing the replayed rows: {e}"))?;
        Ok(SavedCheckpoint {
            epoch: self.epoch,
            hi,
            edges,
            bytes,
            digest: rows_digest(&mut rows, 0..slots),
            counters: EngineCounters {
                nodes: new_part.size_of(rank),
                ..Default::default()
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::{generate_rank_streaming_recoverable, CheckpointStore, Resume};
    use crate::{GenOptions, PaConfig};
    use pa_graph::io::{read_binary_file, EdgeWriter, Fnv1a};
    use pa_graph::EdgeList;
    use pa_mpsim::{Transport, World};
    use std::fs;

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
    /// per-rank edge lists and its total requests sent; with `dir` set
    /// it leaves a saved world there: each rank's `bin` part and its last
    /// two checkpoint epochs.
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
            let rank = comm.rank();
            let Some(dir) = dir else {
                return generate_rank_streaming_recoverable(
                    cfg,
                    &part,
                    run_opts,
                    &mut comm,
                    EdgeList::new(),
                    None,
                    None,
                )
                .unwrap();
            };
            let ckpt = CheckpointStore::new(dir, rank as u32, m).unwrap();
            let path = dir.join(format!("rank{rank}.part"));
            let sink = EdgeWriter::new(File::create(&path).unwrap(), EdgeFormat::Binary);
            let (sink, counters) = generate_rank_streaming_recoverable(
                cfg,
                &part,
                run_opts,
                &mut comm,
                sink,
                Some(&ckpt),
                None,
            )
            .unwrap();
            sink.finish().unwrap();
            (read_binary_file(&path).unwrap(), counters)
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
            let saved = world
                .replay(&part, rank, &run_opts.store, &mut sink)
                .unwrap();
            let committed = sink.clone();
            let edges = &mut committed.iter().map(Ok);
            generate_rank_streaming_recoverable(
                cfg,
                &part,
                run_opts,
                &mut comm,
                sink,
                None,
                Some(Resume {
                    saved: &saved,
                    edges,
                }),
            )
            .unwrap()
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
    fn paged_world_restarts_from_its_parts() {
        let cfg = PaConfig::new(2_000, 2).with_seed(7);
        let o = opts(Engine::Chain, 400);
        let dir = scratch("paged_resize");
        // The old world pages its F tables beside its checkpoints ...
        let paged = StoreSpec::paged(&dir, 2 * 1024).with_page_bytes(256);
        run_world(
            &cfg,
            Scheme::Rrp,
            4,
            &o.clone().with_store(paged),
            Some(&dir),
        );
        // ... which are a cache: the restart reads the parts alone, and
        // replays them through paged tables of its own.
        for rank in 0..4 {
            crate::store::clean_rank_pages(&dir, rank);
        }
        let (fresh, _) = run_world(&cfg, Scheme::Rrp, 2, &o, None);
        let pages = scratch("paged_resize_pages");
        let paged = StoreSpec::paged(&pages, 2 * 1024).with_page_bytes(256);
        let restarted = restart(&cfg, Scheme::Rrp, 2, &o.clone().with_store(paged), &dir);
        assert_eq!(restarted, fresh);
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&pages);
    }

    #[test]
    fn a_store_from_an_older_build_is_a_named_error() {
        // A world an older build kept holds checkpoints of an older
        // version: they read as absent, and the restart names the
        // directory instead of guessing at their layout.
        let cfg = PaConfig::new(2_000, 2).with_seed(7);
        let o = opts(Engine::Chain, 400);
        let dir = scratch("old_store");
        run_world(&cfg, Scheme::Rrp, 2, &o, Some(&dir));
        assert!(WorldCheckpoint::load(&dir).is_ok());
        for entry in fs::read_dir(&dir).unwrap().flatten() {
            if entry.file_name().to_string_lossy().ends_with(".ckpt") {
                let mut bytes = fs::read(entry.path()).unwrap();
                bytes.truncate(bytes.len() - 8);
                bytes[4..8].copy_from_slice(&5u32.to_le_bytes());
                let sum = Fnv1a::hash(&bytes);
                bytes.extend_from_slice(&sum.to_le_bytes());
                fs::write(entry.path(), &bytes).unwrap();
            }
        }
        let err = WorldCheckpoint::load(&dir).unwrap_err();
        assert!(err.contains("no valid checkpoints"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_missing_short_or_damaged_part_is_a_named_error() {
        let cfg = PaConfig::new(1_200, 2).with_seed(3);
        let o = opts(Engine::Chain, 300);
        let dir = scratch("bad_part");
        run_world(&cfg, Scheme::Rrp, 2, &o, Some(&dir));
        let part = dir.join("rank1.part");
        let good = fs::read(&part).unwrap();
        let world = WorldCheckpoint::load(&dir).unwrap();
        let new_part = partition::build(Scheme::Rrp, cfg.n, 3);
        let replay = || {
            world
                .replay(&new_part, 0, &StoreSpec::Resident, &mut EdgeList::new())
                .unwrap_err()
        };
        let committed = world.saved[1].bytes as usize;
        // Shorter than the watermark.
        fs::write(&part, &good[..committed - 1]).unwrap();
        let err = replay();
        assert!(
            err.starts_with("rank 1: ") && err.contains("fewer than"),
            "{err}"
        );
        // A record below the watermark changed.
        let mut bytes = good.clone();
        bytes[committed - 3] ^= 1;
        fs::write(&part, &bytes).unwrap();
        let err = replay();
        assert!(err.starts_with("rank 1: "), "{err}");
        // Gone.
        fs::remove_file(&part).unwrap();
        let err = replay();
        assert!(err.contains("rank1.part"), "{err}");
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
        fs::copy(
            dir2.join("rank0.epoch2.ckpt"),
            dir.join("rank0.epoch99.ckpt"),
        )
        .unwrap();
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
