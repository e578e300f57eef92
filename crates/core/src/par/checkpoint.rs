//! Epoch-numbered checkpoint files for the parallel engines.
//!
//! A checkpoint captures one rank's engine state at an epoch boundary —
//! a barrier-aligned cut where the driver has proven global quiescence
//! (every node below the epoch's upper label is committed world-wide,
//! all waiter tables are empty, no tracked traffic is in flight; see
//! DESIGN.md §5f). Because the copy-model RNG is a pure function of
//! `(seed, node, edge, attempt)`, no RNG stream position needs saving:
//! the engine payload plus the sink watermark is the complete state.
//!
//! Files are written atomically (`rank{r}.epoch{e}.ckpt.tmp` → rename)
//! so a crash mid-write never leaves a half checkpoint with a valid
//! name, and every load re-verifies an FNV-1a checksum plus the full
//! run identity (world size, model parameters, partition scheme,
//! engine, epoch interval) so a checkpoint from a *different* run can
//! never be resumed into this one. The store retains the last **two**
//! epochs per rank: barrier structure bounds inter-rank epoch skew at
//! one, so the globally agreed resume epoch (the minimum across ranks)
//! is always still on disk.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use pa_graph::io::Fnv1a;
use pa_mpsim::wire::{get_u32, get_u64, get_u8};

use crate::partition::Scheme;
use crate::store::checksummed_body;
use crate::{GenOptions, PaConfig};

/// Magic number at the head of every checkpoint file (`"PACK"`).
const MAGIC: u32 = 0x4b43_4150;
/// Checkpoint format version. Version 2 added the attachment-model
/// identity (`model_id`, `alpha_bits`) to the header; version-1 files
/// are rejected on load (treated as absent) rather than resumed under a
/// guessed model.
const VERSION: u32 = 2;

/// Identity of a run, embedded in every checkpoint and re-verified on
/// load so stale or foreign checkpoints are rejected instead of
/// silently corrupting a resume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointMeta {
    /// World size (number of ranks).
    pub world: u32,
    /// Model size `n`.
    pub n: u64,
    /// Edges per node `x`.
    pub x: u64,
    /// Copy-model probability `p`, as raw IEEE-754 bits (exact compare).
    pub p_bits: u64,
    /// RNG seed.
    pub seed: u64,
    /// Partition-scheme discriminant ([`crate::partition::Scheme::id`]).
    pub scheme_id: u8,
    /// Engine discriminant ([`crate::Engine::id`]).
    pub engine_id: u8,
    /// Attachment-model discriminant ([`crate::ModelKind::id`]): a
    /// checkpoint taken under one model must never resume under another.
    pub model_id: u8,
    /// Epoch length in node labels ([`crate::GenOptions::checkpoint_interval`]).
    pub interval: u64,
    /// Model parameter as raw IEEE-754 bits
    /// ([`crate::ModelKind::alpha_bits`]; 0 for the parameter-free copy
    /// model) — exact compare, like `p_bits`.
    pub alpha_bits: u64,
}

impl CheckpointMeta {
    /// The identity of a run of `cfg` under `opts` on `world` ranks
    /// partitioned by `scheme` (interval 0 when `opts` sets no
    /// checkpoint epochs — such a run never saves).
    pub fn for_run(cfg: &PaConfig, scheme: Scheme, world: usize, opts: &GenOptions) -> Self {
        CheckpointMeta {
            world: world as u32,
            n: cfg.n,
            x: cfg.x,
            p_bits: cfg.p.to_bits(),
            seed: cfg.seed,
            scheme_id: scheme.id(),
            engine_id: opts.engine.id(),
            model_id: opts.model.id(),
            interval: opts.checkpoint_interval.unwrap_or(0),
            alpha_bits: opts.model.alpha_bits(),
        }
    }
}

/// One rank's checkpoint as read back from disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SavedCheckpoint {
    /// Epoch number (epoch `e` covers labels `[e·I, min((e+1)·I, n))`).
    pub epoch: u64,
    /// Exclusive upper label of the finished epoch.
    pub hi: u64,
    /// Edges committed to this rank's sink at the cut.
    pub edges: u64,
    /// Bytes written to this rank's part file at the cut (0 when the
    /// sink has no byte-addressed backing).
    pub bytes: u64,
    /// Opaque engine payload (the strategy's serialized snapshot).
    pub payload: Vec<u8>,
}

/// A per-rank directory of epoch-numbered checkpoint files.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    rank: u32,
    meta: CheckpointMeta,
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// A checkpoint file parsed **without** a run identity to compare
/// against — the elastic-restart reader's view. `CheckpointStore::load`
/// demands an exact identity match; elastic restart instead validates
/// field by field, because the world size (and the partition scheme and
/// engine) legitimately change across a re-partition.
#[derive(Debug, Clone)]
pub(crate) struct RawCheckpoint {
    /// The rank that wrote the file.
    pub rank: u32,
    /// The identity of the run that wrote it.
    pub meta: CheckpointMeta,
    /// The checkpoint itself.
    pub saved: SavedCheckpoint,
}

/// Parse and checksum-verify one checkpoint file with no identity to
/// compare against. `None` on any defect — an unreadable checkpoint is
/// treated as absent, exactly like [`CheckpointStore::load`].
pub(crate) fn read_raw_checkpoint(path: &Path) -> Option<RawCheckpoint> {
    let buf = fs::read(path).ok()?;
    let mut r = checksummed_body(&buf)?;
    if get_u32(&mut r)? != MAGIC || get_u32(&mut r)? != VERSION {
        return None;
    }
    let rank = get_u32(&mut r)?;
    let world = get_u32(&mut r)?;
    let epoch = get_u64(&mut r)?;
    let hi = get_u64(&mut r)?;
    let meta = CheckpointMeta {
        world,
        n: get_u64(&mut r)?,
        x: get_u64(&mut r)?,
        p_bits: get_u64(&mut r)?,
        seed: get_u64(&mut r)?,
        scheme_id: get_u8(&mut r)?,
        engine_id: get_u8(&mut r)?,
        model_id: get_u8(&mut r)?,
        interval: get_u64(&mut r)?,
        alpha_bits: get_u64(&mut r)?,
    };
    let edges = get_u64(&mut r)?;
    let bytes = get_u64(&mut r)?;
    let len = get_u64(&mut r)? as usize;
    if r.len() != len {
        return None;
    }
    Some(RawCheckpoint {
        rank,
        meta,
        saved: SavedCheckpoint {
            epoch,
            hi,
            edges,
            bytes,
            payload: r.to_vec(),
        },
    })
}

impl CheckpointStore {
    /// Open (creating if needed) a checkpoint directory for `rank`.
    ///
    /// # Errors
    ///
    /// Fails if the directory cannot be created.
    pub fn new(dir: impl Into<PathBuf>, rank: u32, meta: CheckpointMeta) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Self { dir, rank, meta })
    }

    /// The directory this store writes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn file_name(&self, epoch: u64) -> PathBuf {
        self.dir
            .join(format!("rank{}.epoch{}.ckpt", self.rank, epoch))
    }

    /// Write the checkpoint for `epoch` atomically and prune every
    /// retained epoch older than `epoch - 1` (keep-last-two).
    ///
    /// # Errors
    ///
    /// Surfaces any I/O failure; a failed save leaves at most a `.tmp`
    /// file behind, never a valid-named partial checkpoint.
    pub fn save(
        &self,
        epoch: u64,
        hi: u64,
        edges: u64,
        bytes: u64,
        payload: &[u8],
    ) -> io::Result<()> {
        let mut buf = Vec::with_capacity(128 + payload.len());
        put_u32(&mut buf, MAGIC);
        put_u32(&mut buf, VERSION);
        put_u32(&mut buf, self.rank);
        put_u32(&mut buf, self.meta.world);
        put_u64(&mut buf, epoch);
        put_u64(&mut buf, hi);
        put_u64(&mut buf, self.meta.n);
        put_u64(&mut buf, self.meta.x);
        put_u64(&mut buf, self.meta.p_bits);
        put_u64(&mut buf, self.meta.seed);
        buf.push(self.meta.scheme_id);
        buf.push(self.meta.engine_id);
        buf.push(self.meta.model_id);
        put_u64(&mut buf, self.meta.interval);
        put_u64(&mut buf, self.meta.alpha_bits);
        put_u64(&mut buf, edges);
        put_u64(&mut buf, bytes);
        put_u64(&mut buf, payload.len() as u64);
        buf.extend_from_slice(payload);
        let sum = Fnv1a::hash(&buf);
        put_u64(&mut buf, sum);

        let tmp = self
            .dir
            .join(format!("rank{}.epoch{}.ckpt.tmp", self.rank, epoch));
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&buf)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, self.file_name(epoch))?;

        for old in self.epochs_on_disk() {
            if old + 1 < epoch {
                let _ = fs::remove_file(self.file_name(old));
            }
        }
        Ok(())
    }

    /// Epoch numbers of this rank's checkpoint files currently on disk
    /// (by name only; contents are validated by [`CheckpointStore::load`]).
    fn epochs_on_disk(&self) -> Vec<u64> {
        let prefix = format!("rank{}.epoch", self.rank);
        let mut out = Vec::new();
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return out;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(rest) = name.strip_prefix(&prefix) else {
                continue;
            };
            let Some(num) = rest.strip_suffix(".ckpt") else {
                continue;
            };
            if let Ok(e) = num.parse::<u64>() {
                out.push(e);
            }
        }
        out.sort_unstable();
        out
    }

    /// Remove every checkpoint file this rank holds in the store —
    /// called after a run completes so a later launch in the same
    /// directory cannot resume past the end of a finished job.
    pub fn clear(&self) {
        for epoch in self.epochs_on_disk() {
            let _ = fs::remove_file(self.file_name(epoch));
        }
    }

    /// The newest epoch with a *valid* checkpoint on disk, or `None`.
    /// Corrupt or mismatched files are skipped, not errors.
    pub fn latest(&self) -> Option<u64> {
        let mut epochs = self.epochs_on_disk();
        epochs.reverse();
        epochs.into_iter().find(|&e| self.load(e).is_some())
    }

    /// Load and validate the checkpoint for `epoch`. Any failure —
    /// missing file, bad checksum, foreign run identity — yields
    /// `None`: an unusable checkpoint is treated as absent.
    pub fn load(&self, epoch: u64) -> Option<SavedCheckpoint> {
        let raw = read_raw_checkpoint(&self.file_name(epoch))?;
        if raw.rank != self.rank || raw.meta != self.meta || raw.saved.epoch != epoch {
            return None;
        }
        Some(raw.saved)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> CheckpointMeta {
        CheckpointMeta {
            world: 4,
            n: 3_000,
            x: 4,
            p_bits: 0.5f64.to_bits(),
            seed: 41,
            scheme_id: 1,
            engine_id: 2,
            model_id: 0,
            interval: 500,
            alpha_bits: 0,
        }
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pa_core_ckpt_{tag}"));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn save_load_round_trips() {
        let dir = scratch("round_trip");
        let store = CheckpointStore::new(&dir, 2, meta()).unwrap();
        let payload = vec![7u8, 8, 9, 250];
        store.save(3, 2_000, 8_123, 129_968, &payload).unwrap();
        let saved = store.load(3).expect("valid checkpoint loads");
        assert_eq!(
            saved,
            SavedCheckpoint {
                epoch: 3,
                hi: 2_000,
                edges: 8_123,
                bytes: 129_968,
                payload,
            }
        );
        assert_eq!(store.latest(), Some(3));
        assert!(store.load(4).is_none(), "absent epoch is None");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn keeps_only_the_last_two_epochs() {
        let dir = scratch("prune");
        let store = CheckpointStore::new(&dir, 0, meta()).unwrap();
        for e in 0..5 {
            store.save(e, (e + 1) * 500, e * 10, 0, &[e as u8]).unwrap();
        }
        assert!(store.load(2).is_none(), "epoch 2 pruned");
        assert!(store.load(3).is_some(), "epoch 3 retained (latest - 1)");
        assert!(store.load(4).is_some(), "epoch 4 retained (latest)");
        assert_eq!(store.latest(), Some(4));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_and_foreign_files_are_treated_as_absent() {
        let dir = scratch("corrupt");
        let store = CheckpointStore::new(&dir, 1, meta()).unwrap();
        store.save(0, 500, 10, 0, &[1, 2, 3]).unwrap();

        // Flip a payload byte: the checksum must reject the file.
        let path = dir.join("rank1.epoch0.ckpt");
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        assert!(store.load(0).is_none(), "corrupt checkpoint rejected");
        assert_eq!(store.latest(), None);

        // A checkpoint from a different run identity must not load.
        store.save(0, 500, 10, 0, &[1, 2, 3]).unwrap();
        let other = CheckpointStore::new(&dir, 1, CheckpointMeta { seed: 99, ..meta() }).unwrap();
        assert!(other.load(0).is_none(), "foreign seed rejected");
        assert!(store.load(0).is_some(), "matching identity still loads");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_model_identity_is_rejected() {
        let dir = scratch("model");
        let store = CheckpointStore::new(&dir, 0, meta()).unwrap();
        store.save(0, 500, 10, 0, &[1, 2, 3]).unwrap();
        // A checkpoint taken under PA must not resume under nlpa (or
        // under nlpa with a different alpha).
        let nlpa = CheckpointStore::new(
            &dir,
            0,
            CheckpointMeta {
                model_id: 1,
                alpha_bits: 1.5f64.to_bits(),
                ..meta()
            },
        )
        .unwrap();
        assert!(nlpa.load(0).is_none(), "foreign model rejected");
        let other_alpha = CheckpointStore::new(
            &dir,
            0,
            CheckpointMeta {
                alpha_bits: 0.5f64.to_bits(),
                ..meta()
            },
        )
        .unwrap();
        assert!(other_alpha.load(0).is_none(), "foreign alpha rejected");
        assert!(store.load(0).is_some(), "matching model still loads");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn ranks_do_not_collide_in_a_shared_directory() {
        let dir = scratch("shared");
        let a = CheckpointStore::new(&dir, 0, meta()).unwrap();
        let b = CheckpointStore::new(&dir, 1, meta()).unwrap();
        a.save(0, 500, 1, 0, &[0]).unwrap();
        b.save(1, 1_000, 2, 0, &[1]).unwrap();
        assert_eq!(a.latest(), Some(0));
        assert_eq!(b.latest(), Some(1));
        assert_eq!(a.load(0).unwrap().payload, vec![0]);
        assert_eq!(b.load(1).unwrap().payload, vec![1]);
        let _ = fs::remove_dir_all(&dir);
    }
}
