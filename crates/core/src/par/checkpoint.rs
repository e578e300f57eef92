//! Epoch-numbered checkpoints for the parallel engines, and the one way
//! a rank's committed rows come back from its part file.
//!
//! A checkpoint marks one rank's state at an epoch boundary — a
//! barrier-aligned cut where the driver has proven global quiescence
//! (every node below the epoch's upper label is committed world-wide,
//! all waiter tables are empty, no tracked traffic is in flight; see
//! DESIGN.md, "Recovery"). Because the copy-model RNG is a pure function
//! of `(seed, node, edge, attempt)`, no RNG stream position needs saving,
//! and because every engine commits a node's slots and emits them in
//! slot order, the rank's part file already holds every committed
//! `F_t(e)`: node `t`'s `e`-th edge record. So a checkpoint holds no
//! `F` slot: only its identity, epoch, cut, the part's `(edges, bytes)`
//! watermark (synced to disk before the checkpoint names it), a digest
//! of the rows below the cut, and the engine's counter words. A resume
//! reads the part's prefix back into the table ([`restore_rows`]),
//! checking that it is exactly this rank's rows below the cut.
//!
//! Files are written atomically (`rank{r}.epoch{e}.ckpt.tmp` → rename)
//! so a crash mid-write never leaves a half checkpoint with a valid
//! name, and every load re-verifies an FNV-1a checksum plus the full
//! run identity (the job tuple — world size, model parameters,
//! partition scheme, engine, edge format — and the epoch interval) so a
//! checkpoint from a *different* run can never be resumed into this
//! one. The store retains the last **two** epochs per rank: barrier
//! structure bounds inter-rank epoch skew at one, so the globally agreed
//! resume epoch (the minimum across ranks) is always still on disk.

use std::fs;
use std::io::{self, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};

use pa_graph::io::{EdgeFormat, Fnv1a};
use pa_graph::job::{JobSpec, JOB_CANONICAL_LEN};
use pa_mpsim::wire::{get_u32, get_u64, take};
use pa_mpsim::Wire;

use super::output::EngineCounters;
use crate::job::JobDescriptor;
use crate::partition::{Partition, Scheme};
use crate::store::NodeTable;
use crate::{GenOptions, Node, PaConfig, NILL};

/// Magic number at the head of every checkpoint file (`"PACK"`).
const MAGIC: u32 = 0x4b43_4150;
/// Checkpoint format version. Version 2 added the attachment-model
/// identity; version 3 stores the identity as the job tuple's canonical
/// bytes, which adds the edge format (a part file's byte watermark means
/// nothing under another encoding); version 4 gives every engine one
/// payload, its `F` prefix and counter words; version 5 drops two
/// counters from those words; version 6 drops the `F` prefix for a
/// digest of the rows the part file holds.
/// Files of older versions are rejected on load (treated as absent)
/// rather than resumed under a guessed identity or layout.
const VERSION: u32 = 6;

/// Identity of a run, embedded in every checkpoint and re-verified on
/// load so stale or foreign checkpoints are rejected instead of
/// silently corrupting a resume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointMeta {
    /// The run tuple; its `ranks` is the world size that wrote the
    /// checkpoint.
    pub job: JobSpec,
    /// Epoch length in node labels ([`crate::GenOptions::checkpoint_interval`]).
    pub interval: u64,
}

impl CheckpointMeta {
    /// The identity of a run of `cfg` under `opts` on `world` ranks
    /// partitioned by `scheme`, writing `format` part files (interval 0
    /// when `opts` sets no checkpoint epochs — such a run never saves).
    pub fn for_run(
        cfg: &PaConfig,
        scheme: Scheme,
        world: usize,
        opts: &GenOptions,
        format: EdgeFormat,
    ) -> Self {
        let job = JobDescriptor {
            cfg: *cfg,
            scheme,
            engine: opts.engine.id(),
            model: crate::ModelKind::Pa,
            ranks: world as u32,
            format,
        };
        CheckpointMeta {
            job: job.to_raw(),
            interval: opts.checkpoint_interval.unwrap_or(0),
        }
    }
}

/// One rank's checkpoint: where its part file stood at an epoch cut.
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
    /// Digest of the rank's `F` rows below the cut: the sum, over every
    /// committed slot, of a 64-bit mix of the slot's index and value.
    pub digest: u64,
    /// The engine's counters at the cut.
    pub counters: EngineCounters,
}

/// What a resuming rank hands
/// [`super::generate_rank_streaming_recoverable`]: the checkpoint it
/// resumes after, and its committed edges below that checkpoint's cut in
/// the order the rank emitted them — its part file's prefix up to the
/// watermark (through [`pa_graph::io::EdgeReader`]), or the rows
/// [`super::WorldCheckpoint::replay`] just wrote.
pub struct Resume<'a> {
    /// The checkpoint.
    pub saved: &'a SavedCheckpoint,
    /// The committed edges, each a decoded record or the error that
    /// ended the input.
    pub edges: &'a mut dyn Iterator<Item = io::Result<(Node, Node)>>,
}

/// One committed slot's term of a rows digest: slot index and value,
/// mixed (the SplitMix64 finalizer) so that a changed, moved or missing
/// value changes the sum.
fn slot_digest(slot: u64, v: Node) -> u64 {
    let mut z = slot.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ v;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d4_9bb1_33b1_11eb);
    z ^ (z >> 31)
}

/// The digest a checkpoint records of the `F` slots in `slots`: the sum
/// of every committed slot's [`slot_digest`]. A sum, so the driver adds
/// each epoch's slots to the last checkpoint's digest instead of
/// re-reading the prefix.
pub(crate) fn rows_digest<T: NodeTable + ?Sized>(f: &mut T, slots: Range<u64>) -> u64 {
    slots
        .map(|s| (s, f.get(s)))
        .filter(|&(_, v)| v != NILL)
        .fold(0, |digest, (s, v)| digest.wrapping_add(slot_digest(s, v)))
}

/// Load rank `rank`'s committed edges below `saved`'s cut into its empty
/// `F` table (`x` slots per local node of `part`), checking that they
/// are exactly the rows the rank committed there: `saved.edges` records,
/// each of a node the rank owns below the cut, the clique edges in the
/// order every engine emits them, no row longer than `x`, every value a
/// label below its node, and the rows' digest equal to `saved.digest`.
///
/// # Errors
///
/// A reason naming the first record that breaks a rule, or the rule the
/// whole input breaks.
pub(crate) fn restore_rows<P: Partition, T: NodeTable + ?Sized>(
    f: &mut T,
    part: &P,
    rank: usize,
    x: u64,
    saved: &SavedCheckpoint,
    edges: &mut dyn Iterator<Item = io::Result<(Node, Node)>>,
) -> Result<(), String> {
    let hi = saved.hi;
    // The clique edges this rank emits, in order: (i, j) for every owned
    // i in [1, min(x, hi)) ascending, j ascending below i.
    let clique_from = |from: Node| {
        (from..x.min(hi))
            .find(|&i| part.rank_of(i) == rank)
            .map(|i| (i, 0))
    };
    let mut clique = clique_from(1);
    let mut digest = 0u64;
    let mut count = 0u64;
    for edge in edges {
        let (u, v) = edge.map_err(|e| e.to_string())?;
        if count == saved.edges {
            return Err(format!(
                "more than the {} committed edges the checkpoint names",
                saved.edges
            ));
        }
        count += 1;
        let what = || format!("edge {} ({u}, {v})", count - 1);
        if u >= hi || part.rank_of(u) != rank {
            return Err(format!(
                "{} is not of a node rank {rank} owns below the cut {hi}",
                what()
            ));
        }
        if u < x {
            if clique != Some((u, v)) {
                return Err(format!("{} is not the next clique edge", what()));
            }
            clique = if v + 1 < u {
                Some((u, v + 1))
            } else {
                clique_from(u + 1)
            };
            continue;
        }
        let row = part.local_index(u) * x;
        let Some(e) = (0..x).find(|&e| f.get(row + e) == NILL) else {
            return Err(format!("{} is past node {u}'s {x} edges", what()));
        };
        if v >= u {
            return Err(format!("{} does not point to a lower label", what()));
        }
        f.set(row + e, v);
        digest = digest.wrapping_add(slot_digest(row + e, v));
    }
    if count != saved.edges {
        return Err(format!(
            "{count} committed edges where the checkpoint names {}",
            saved.edges
        ));
    }
    if let Some((i, j)) = clique {
        return Err(format!("clique edge ({i}, {j}) is missing"));
    }
    if digest != saved.digest {
        return Err("the edges are not the rows the checkpoint's digest names".into());
    }
    Ok(())
}

/// A per-rank directory of epoch-numbered checkpoint files.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    rank: u32,
    meta: CheckpointMeta,
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

/// Fsync directory `dir`, so the renames and removals inside it survive
/// a power loss — a file's own fsync does not cover its name.
fn sync_dir(dir: &Path) -> io::Result<()> {
    match fs::File::open(dir)?.sync_all() {
        // A filesystem that cannot sync a directory reports EINVAL; it
        // has no directory state to make durable this way.
        Err(e) if e.kind() == io::ErrorKind::InvalidInput => Ok(()),
        res => res,
    }
}

/// Parse and checksum-verify one checkpoint file with no identity to
/// compare against. `None` on any defect — an unreadable checkpoint is
/// treated as absent, exactly like [`CheckpointStore::load`].
pub(crate) fn read_raw_checkpoint(path: &Path) -> Option<RawCheckpoint> {
    let buf = fs::read(path).ok()?;
    let r = &mut &buf[..];
    let body = take(r, buf.len().checked_sub(8)?)?;
    if Fnv1a::hash(body) != get_u64(r)? {
        return None;
    }
    let r = &mut &body[..];
    if get_u32(r)? != MAGIC || get_u32(r)? != VERSION {
        return None;
    }
    let rank = get_u32(r)?;
    let [epoch, hi] = <[u64; 2]>::decode(r)?;
    let job = take(r, JOB_CANONICAL_LEN)?;
    let meta = CheckpointMeta {
        job: JobSpec::from_canonical(job.try_into().expect("canonical length")),
        interval: get_u64(r)?,
    };
    let [edges, bytes, digest] = <[u64; 3]>::decode(r)?;
    let counters = EngineCounters::from_words(Wire::decode(r)?);
    r.is_empty().then_some(RawCheckpoint {
        rank,
        meta,
        saved: SavedCheckpoint {
            epoch,
            hi,
            edges,
            bytes,
            digest,
            counters,
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

    fn file_name(&self, epoch: u64) -> PathBuf {
        self.dir
            .join(format!("rank{}.epoch{}.ckpt", self.rank, epoch))
    }

    /// Write `saved` atomically as its epoch's checkpoint and prune every
    /// retained epoch older than the one before it (keep-last-two).
    ///
    /// # Errors
    ///
    /// Surfaces any I/O failure; a failed save leaves at most a `.tmp`
    /// file behind, never a valid-named partial checkpoint.
    pub fn save(&self, saved: &SavedCheckpoint) -> io::Result<()> {
        let epoch = saved.epoch;
        let mut buf = Vec::with_capacity(256);
        for word in [MAGIC, VERSION, self.rank] {
            word.encode(&mut buf);
        }
        [epoch, saved.hi].encode(&mut buf);
        buf.extend_from_slice(&self.meta.job.canonical_bytes());
        [self.meta.interval, saved.edges, saved.bytes, saved.digest].encode(&mut buf);
        saved.counters.to_words().encode(&mut buf);
        Fnv1a::hash(&buf).encode(&mut buf);

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
        // The rename and the removals are directory entries: make them
        // durable too, or a power loss can forget the new epoch's name.
        sync_dir(&self.dir)
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

    /// Remove every rank's checkpoint files from the store's directory,
    /// with any `.tmp` a crashed save left — called by the merging rank
    /// once a finished run's output exists, so a later launch there
    /// cannot resume past the end of the job.
    pub fn clear(&self) {
        for entry in fs::read_dir(&self.dir).into_iter().flatten().flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with("rank") && (name.ends_with(".ckpt") || name.ends_with(".ckpt.tmp"))
            {
                let _ = fs::remove_file(entry.path());
            }
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
            job: JobSpec {
                n: 3_000,
                x: 4,
                p_bits: 0.5f64.to_bits(),
                seed: 41,
                alpha_bits: 0,
                ranks: 4,
                scheme_id: 1,
                engine_id: 2,
                model_id: 0,
                format_id: EdgeFormat::Binary.id(),
            },
            interval: 500,
        }
    }

    fn with_job(job: JobSpec) -> CheckpointMeta {
        CheckpointMeta { job, ..meta() }
    }

    /// A checkpoint of `epoch` at cut `hi` with watermark `(edges,
    /// bytes)`, its digest and counters drawn from `edges`.
    fn saved(epoch: u64, hi: u64, edges: u64, bytes: u64) -> SavedCheckpoint {
        SavedCheckpoint {
            epoch,
            hi,
            edges,
            bytes,
            digest: edges.wrapping_mul(0x9e37_79b9),
            counters: EngineCounters {
                nodes: hi,
                requests_sent: edges,
                chain_peak_depth: 3,
                ..Default::default()
            },
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
        let want = saved(3, 2_000, 8_123, 129_968);
        store.save(&want).unwrap();
        assert_eq!(store.load(3).expect("valid checkpoint loads"), want);
        assert_eq!(store.latest(), Some(3));
        assert!(store.load(4).is_none(), "absent epoch is None");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn keeps_only_the_last_two_epochs() {
        let dir = scratch("prune");
        let store = CheckpointStore::new(&dir, 0, meta()).unwrap();
        for e in 0..5 {
            store.save(&saved(e, (e + 1) * 500, e * 10, 0)).unwrap();
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
        store.save(&saved(0, 500, 10, 0)).unwrap();

        // Flip a byte: the checksum must reject the file.
        let path = dir.join("rank1.epoch0.ckpt");
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        assert!(store.load(0).is_none(), "corrupt checkpoint rejected");
        assert_eq!(store.latest(), None);

        // A checkpoint from a different run identity must not load.
        store.save(&saved(0, 500, 10, 0)).unwrap();
        let seed_99 = with_job(JobSpec {
            seed: 99,
            ..meta().job
        });
        let other = CheckpointStore::new(&dir, 1, seed_99).unwrap();
        assert!(other.load(0).is_none(), "foreign seed rejected");
        assert!(store.load(0).is_some(), "matching identity still loads");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_model_identity_is_rejected() {
        let dir = scratch("model");
        let store = CheckpointStore::new(&dir, 0, meta()).unwrap();
        store.save(&saved(0, 500, 10, 0)).unwrap();
        // A checkpoint's model fields are identity: one written under
        // the retired model id 1, or with nonzero alpha bits, names
        // another graph and must not load.
        let retired = CheckpointStore::new(
            &dir,
            0,
            with_job(JobSpec {
                model_id: 1,
                alpha_bits: 1.5f64.to_bits(),
                ..meta().job
            }),
        )
        .unwrap();
        assert!(retired.load(0).is_none(), "foreign model rejected");
        let other_alpha = CheckpointStore::new(
            &dir,
            0,
            with_job(JobSpec {
                alpha_bits: 0.5f64.to_bits(),
                ..meta().job
            }),
        )
        .unwrap();
        assert!(other_alpha.load(0).is_none(), "foreign alpha rejected");
        assert!(store.load(0).is_some(), "matching model still loads");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_edge_format_is_rejected() {
        // A bin part file's byte watermark means nothing to a txt run:
        // resuming it would truncate and append into a corrupt file.
        let dir = scratch("format");
        let bin = CheckpointStore::new(&dir, 0, meta()).unwrap();
        bin.save(&saved(0, 500, 10, 160)).unwrap();
        let txt_job = JobSpec {
            format_id: EdgeFormat::Text.id(),
            ..meta().job
        };
        let txt = CheckpointStore::new(&dir, 0, with_job(txt_job)).unwrap();
        assert!(txt.load(0).is_none(), "a bin checkpoint resumed a txt run");
        assert_eq!(txt.latest(), None);
        assert!(bin.load(0).is_some(), "matching format still loads");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn older_version_reads_as_absent() {
        let dir = scratch("version");
        let store = CheckpointStore::new(&dir, 0, meta()).unwrap();
        let path = dir.join("rank0.epoch0.ckpt");
        for version in 2..VERSION {
            store.save(&saved(0, 500, 10, 0)).unwrap();
            assert!(store.load(0).is_some(), "the current version loads");
            // Rewrite the file as `version` with a valid checksum.
            let mut bytes = fs::read(&path).unwrap();
            bytes.truncate(bytes.len() - 8);
            bytes[4..8].copy_from_slice(&version.to_le_bytes());
            let sum = Fnv1a::hash(&bytes);
            bytes.extend_from_slice(&sum.to_le_bytes());
            fs::write(&path, &bytes).unwrap();
            assert!(store.load(0).is_none(), "a version-{version} file resumed");
            assert_eq!(
                store.latest(),
                None,
                "a version-{version} file is the latest"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_resealed_cut_or_extended_body_reads_as_absent() {
        // The layout is fixed: a body cut short or extended, resealed so
        // its checksum holds, is no checkpoint of this version.
        let dir = scratch("reseal");
        let store = CheckpointStore::new(&dir, 0, meta()).unwrap();
        store.save(&saved(0, 500, 10, 0)).unwrap();
        let path = dir.join("rank0.epoch0.ckpt");
        let good = fs::read(&path).unwrap();
        let body = &good[..good.len() - 8];
        for len in (0..body.len()).chain([body.len() + 1, body.len() + 8]) {
            let mut bytes = body.to_vec();
            bytes.resize(len, 0);
            let sum = Fnv1a::hash(&bytes);
            bytes.extend_from_slice(&sum.to_le_bytes());
            fs::write(&path, &bytes).unwrap();
            assert!(store.load(0).is_none(), "a {len}-byte body loads");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn ranks_do_not_collide_in_a_shared_directory() {
        let dir = scratch("shared");
        let a = CheckpointStore::new(&dir, 0, meta()).unwrap();
        let b = CheckpointStore::new(&dir, 1, meta()).unwrap();
        a.save(&saved(0, 500, 1, 0)).unwrap();
        b.save(&saved(1, 1_000, 2, 0)).unwrap();
        assert_eq!(a.latest(), Some(0));
        assert_eq!(b.latest(), Some(1));
        assert_eq!(a.load(0).unwrap().edges, 1);
        assert_eq!(b.load(1).unwrap().edges, 2);
        let _ = fs::remove_dir_all(&dir);
    }
}
