//! Out-of-core node-table storage: the `NodeTable` trait and its two
//! implementations.
//!
//! Every engine keeps its committed `F` slots in a *node table* — a
//! flat array of `u64` slots addressed by `local_index(t) · x + e`, the
//! one `O(x·n/P)` structure a rank owns. This module puts that array
//! behind a trait with two backends:
//!
//! - [`ResidentTable`]: the classic `Vec<u64>` — everything in RAM,
//!   `O(n/P)` words per rank.
//! - [`PagedTable`]: fixed-size pages spilled to per-rank files under an
//!   in-memory page cache bounded by a byte budget (`--memory-budget`),
//!   so the largest generable `n` is bounded by disk, not RAM.
//!
//! **Page files.** Each page is its own file, `{prefix}.p{index}.pg`:
//! a magic/version header, the page index, the raw little-endian slot
//! words, and a trailing word-wise FNV-1a checksum
//! ([`Fnv1a::hash_words`]). Pages are written to a `.tmp` sibling,
//! then renamed — the same atomicity discipline as
//! [`crate::par::CheckpointStore`] — so a crash mid-write never leaves a
//! half page under a valid name, and a torn, foreign or older-version
//! page fails its checks and **reads as absent** (every slot the fill
//! value) rather than as garbage. The `flush` barrier fsyncs every page
//! written since the last one, then the directory, so the renames a
//! checkpoint relies on are durable too.
//!
//! **Eviction.** The cache runs clock / second-chance: each frame has a
//! reference bit set on access; the clock hand clears bits until it
//! finds an unreferenced frame, writes it back if dirty, and reuses it.
//! The budget buys `max(2, budget / page_bytes)` frames; the page index
//! beside them ([`INDEX_BYTES_PER_PAGE`] per page of the whole table)
//! is not counted against it. A fault reads
//! the file into one reused page image and decodes it into the frame's
//! own buffer, so once every frame exists a fault allocates nothing.
//!
//! **Checkpoints.** A resident table serializes its committed prefix
//! into the checkpoint payload verbatim (the historical format). A
//! paged table instead *references* its page files: the payload stores a
//! sentinel, the node count, and an FNV-1a checksum over the committed
//! prefix (see `write_table_prefix`). Committed slots are write-once,
//! and page replacement is atomic, so a *newer* version of a page always
//! agrees with an older epoch's checkpoint on every slot below that
//! epoch's cut — the prefix checksum re-verified on restore
//! (`read_table_prefix`) is exactly the torn-page detector.

use pa_graph::io::Fnv1a;
use pa_mpsim::wire::{get_u32, get_u64, take};
use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// Magic number at the head of every page file (`"PAPG"`).
const PAGE_MAGIC: u32 = 0x4750_4150;
/// Page-file format version. Version 2 seals pages with the word-wise
/// [`Fnv1a::hash_words`]; a version-1 page (bytewise FNV-1a) reads as
/// absent.
const PAGE_VERSION: u32 = 2;
/// Bytes of page-file framing around the slot words
/// (magic + version + page index + trailing checksum).
const PAGE_OVERHEAD: usize = 4 + 4 + 8 + 8;

/// Page size when none is given. On a disk-backed store directory 16 KiB
/// was the fastest page at every budget measured (1, 4 and 16 MiB):
/// smaller pages pay a file create and rename per write-back more often,
/// larger ones read more per fault than the cache uses.
pub const DEFAULT_PAGE_BYTES: usize = 16 << 10;

/// Bytes of page index a paged table keeps per page of its table, beside
/// the budgeted frames: the page → frame map (`u32`) and the unsynced
/// mark (`bool`).
pub const INDEX_BYTES_PER_PAGE: u64 = (size_of::<u32>() + size_of::<bool>()) as u64;

/// Fsync directory `dir`, so the renames and removals inside it survive
/// a power loss — a file's own fsync does not cover its name.
pub(crate) fn sync_dir(dir: &Path) -> io::Result<()> {
    match fs::File::open(dir)?.sync_all() {
        // A filesystem that cannot sync a directory reports EINVAL; it
        // has no directory state to make durable this way.
        Err(e) if e.kind() == io::ErrorKind::InvalidInput => Ok(()),
        res => res,
    }
}

/// First payload word of a paged-table checkpoint prefix. A resident
/// payload starts with the committed node count, which is at most `n`,
/// so `u64::MAX` can never be mistaken for one.
const PAGED_PAYLOAD_MARK: u64 = u64::MAX;

/// FNV-1a over the little-endian bytes of `slots` — the committed-prefix
/// checksum a paged checkpoint records and elastic restart re-verifies.
pub(crate) fn slots_fnv(slots: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = Fnv1a::new();
    for s in slots {
        h.update(&s.to_le_bytes());
    }
    h.digest()
}

/// Where a rank's node tables live: in RAM, or paged to disk under a
/// byte budget.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum StoreSpec {
    /// Everything resident (`Vec`-backed) — the default.
    #[default]
    Resident,
    /// Fixed-size pages spilled to files under `dir`, cached under
    /// `budget_bytes` of RAM.
    Paged(PagedSpec),
}

/// Parameters of a paged store (see [`StoreSpec::Paged`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PagedSpec {
    /// Directory holding this world's page files (shared by all ranks;
    /// file names carry the rank).
    pub dir: PathBuf,
    /// Page-cache budget in bytes. Every engine pages exactly one table
    /// (`F`), which takes the whole budget.
    pub budget_bytes: u64,
    /// Page size in bytes (slot words per page × 8).
    pub page_bytes: usize,
    /// `true` when resuming from a checkpoint that references this
    /// directory's pages: existing page files are kept and re-verified.
    /// `false` starts fresh: stale pages under this table's prefix are
    /// deleted at open.
    pub resume: bool,
}

impl StoreSpec {
    /// A paged spec with the default page size, fresh-start semantics.
    pub fn paged(dir: impl Into<PathBuf>, budget_bytes: u64) -> Self {
        StoreSpec::Paged(PagedSpec {
            dir: dir.into(),
            budget_bytes,
            page_bytes: DEFAULT_PAGE_BYTES,
            resume: false,
        })
    }

    /// Is this a paged spec?
    pub fn is_paged(&self) -> bool {
        matches!(self, StoreSpec::Paged(_))
    }

    /// Replace the resume flag (no-op for [`StoreSpec::Resident`]).
    #[must_use]
    pub fn with_resume(self, resume: bool) -> Self {
        match self {
            StoreSpec::Resident => StoreSpec::Resident,
            StoreSpec::Paged(mut p) => {
                p.resume = resume;
                StoreSpec::Paged(p)
            }
        }
    }

    /// Replace the page size (no-op for [`StoreSpec::Resident`]).
    #[must_use]
    pub fn with_page_bytes(self, page_bytes: usize) -> Self {
        match self {
            StoreSpec::Resident => StoreSpec::Resident,
            StoreSpec::Paged(mut p) => {
                p.page_bytes = page_bytes;
                StoreSpec::Paged(p)
            }
        }
    }

    /// Validate knob values.
    ///
    /// # Panics
    ///
    /// Panics on a zero budget or a page size that is not a positive
    /// multiple of 8 bytes (one slot word).
    pub fn validate(&self) {
        if let StoreSpec::Paged(p) = self {
            assert!(p.budget_bytes > 0, "paged store budget must be positive");
            assert!(
                p.page_bytes >= 8 && p.page_bytes.is_multiple_of(8),
                "page_bytes = {} must be a positive multiple of 8",
                p.page_bytes
            );
        }
    }
}

/// A flat array of `u64` slots that an engine reads and writes by index.
///
/// `get`/`set` take `&mut self` because a paged implementation mutates
/// its cache on every access. Out-of-range slots panic (like slice
/// indexing); I/O errors inside `get`/`set` panic too — the engines'
/// per-slot hot paths have no error channel, and a rank that cannot
/// reach its own spill files cannot make progress anyway. `flush` and
/// the open path surface errors normally.
pub trait NodeTable {
    /// Total slot count.
    fn len(&self) -> u64;

    /// Is the table empty?
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Read slot `slot`.
    fn get(&mut self, slot: u64) -> u64;

    /// Write slot `slot`.
    fn set(&mut self, slot: u64, v: u64);

    /// Does any of `slots[start .. start+len]` equal `v`? (The engines'
    /// duplicate-edge check over a node's row.)
    fn row_contains(&mut self, start: u64, len: u64, v: u64) -> bool {
        (start..start + len).any(|s| self.get(s) == v)
    }

    /// Write every dirty page back durably (no-op when resident).
    fn flush(&mut self) -> io::Result<()>;

    /// FNV-1a over the little-endian bytes of slots `0..len` — the
    /// torn-page detector for paged checkpoints.
    fn prefix_fnv(&mut self, len: u64) -> u64 {
        slots_fnv((0..len).map(|s| self.get(s)))
    }

    /// Reset every slot at or above `slot` to the fill value. A paged
    /// table also *deletes* page files wholly above the boundary, so a
    /// restore cannot observe stale state from a later epoch.
    fn reset_from(&mut self, slot: u64);
}

/// The classic in-RAM table.
#[derive(Debug)]
pub struct ResidentTable {
    slots: Vec<u64>,
    fill: u64,
}

impl ResidentTable {
    /// A table of `len` slots, all holding `fill`.
    pub fn new(len: u64, fill: u64) -> Self {
        ResidentTable {
            slots: vec![fill; len as usize],
            fill,
        }
    }
}

impl NodeTable for ResidentTable {
    fn len(&self) -> u64 {
        self.slots.len() as u64
    }

    #[inline]
    fn get(&mut self, slot: u64) -> u64 {
        self.slots[slot as usize]
    }

    #[inline]
    fn set(&mut self, slot: u64, v: u64) {
        self.slots[slot as usize] = v;
    }

    #[inline]
    fn row_contains(&mut self, start: u64, len: u64, v: u64) -> bool {
        self.slots[start as usize..(start + len) as usize].contains(&v)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }

    fn prefix_fnv(&mut self, len: u64) -> u64 {
        slots_fnv(self.slots[..len as usize].iter().copied())
    }

    fn reset_from(&mut self, slot: u64) {
        let fill = self.fill;
        self.slots[slot as usize..].fill(fill);
    }
}

/// `page_frame` entry of a page that is not resident.
const NO_FRAME: u32 = u32::MAX;
/// `PageFrame::page` of a frame that holds no page.
const NO_PAGE: u64 = u64::MAX;

/// One cached page. Its buffer lives as long as the table.
struct PageFrame {
    page: u64,
    data: Vec<u64>,
    dirty: bool,
    referenced: bool,
}

/// What a fault works in: one page-file image, reused by every
/// write-back and load, and the paths of one page file and its `.tmp`
/// sibling, rebuilt in place — so that a fault allocates nothing. Boxed
/// in the table, since only a fault touches it.
struct PageIo {
    image: Vec<u8>,
    name: String,
    page: PathBuf,
    tmp: PathBuf,
}

impl PageIo {
    fn new(dir: &Path, prefix: &str, spp: usize) -> Self {
        // Start from the longest name this table can have, so the
        // buffers never grow.
        let longest = format!("{prefix}.p{}.pg.tmp", u64::MAX);
        PageIo {
            image: Vec::with_capacity(PAGE_OVERHEAD + spp * 8),
            page: dir.join(&longest),
            tmp: dir.join(&longest),
            name: longest,
        }
    }

    /// Point both paths at page `page` of table `prefix`.
    fn set(&mut self, prefix: &str, page: u64) {
        use std::fmt::Write as _;
        self.name.clear();
        let _ = write!(self.name, "{prefix}.p{page}.pg");
        self.page.set_file_name(&self.name);
        self.name.push_str(".tmp");
        self.tmp.set_file_name(&self.name);
    }
}

/// A node table spilled to fixed-size page files under a byte-budgeted
/// clock cache (see the module docs for the layout and the durability
/// argument).
pub struct PagedTable {
    dir: PathBuf,
    prefix: String,
    len: u64,
    /// Slot words per page.
    spp: usize,
    fill: u64,
    /// Frame cap: `max(2, budget / page_bytes)`, clamped to the page
    /// count (no point caching more frames than pages exist).
    nframes: usize,
    frames: Vec<PageFrame>,
    /// `page_frame[page]`: the frame holding `page`, or [`NO_FRAME`].
    /// Dense and sized at open: with `unsynced`, the
    /// [`INDEX_BYTES_PER_PAGE`] a table keeps outside its budget.
    page_frame: Vec<u32>,
    /// Clock hand for second-chance eviction.
    hand: usize,
    /// `unsynced[page]`: written back without fsync since the last
    /// `flush` barrier. Eviction skips fsync — a torn eviction write
    /// fails its checksum and reads as absent, which only matters once a
    /// checkpoint references the page, so durability is settled
    /// wholesale at the `flush` barrier instead of once per eviction.
    unsynced: Vec<bool>,
    io: Box<PageIo>,
}

impl std::fmt::Debug for PagedTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PagedTable")
            .field("dir", &self.dir)
            .field("prefix", &self.prefix)
            .field("len", &self.len)
            .field("slots_per_page", &self.spp)
            .field("nframes", &self.nframes)
            .field("resident", &self.frames.len())
            .finish()
    }
}

/// Path of page `page` of table `prefix` inside `dir`.
pub fn page_path(dir: &Path, prefix: &str, page: u64) -> PathBuf {
    dir.join(format!("{prefix}.p{page}.pg"))
}

/// The body of a file sealed with a trailing `digest` of everything
/// before it (page files: [`Fnv1a::hash_words`]; checkpoints:
/// [`Fnv1a::hash`]); `None` if short or mismatched.
pub(crate) fn checksummed_body(buf: &[u8], digest: fn(&[u8]) -> u64) -> Option<&[u8]> {
    let r = &mut &buf[..];
    let body = take(r, buf.len().checked_sub(8)?)?;
    (digest(body) == get_u64(r)?).then_some(body)
}

/// The slot words of page image `buf`, or `None` unless its checksum,
/// magic, version and header index (against `page`) all check out and
/// the words fill the body exactly.
fn page_words(buf: &[u8], page: u64) -> Option<&[[u8; 8]]> {
    let mut r = checksummed_body(buf, Fnv1a::hash_words)?;
    if get_u32(&mut r)? != PAGE_MAGIC
        || get_u32(&mut r)? != PAGE_VERSION
        || get_u64(&mut r)? != page
    {
        return None;
    }
    let (words, rest) = r.as_chunks::<8>();
    rest.is_empty().then_some(words)
}

/// Fill `buf` from the file at `path`, which must hold exactly
/// `buf.len()` bytes; `None` if it is missing, shorter or longer.
fn read_exact_file(path: &Path, buf: &mut [u8]) -> Option<()> {
    let mut f = fs::File::open(path).ok()?;
    f.read_exact(buf).ok()?;
    (f.read(&mut [0; 1]).ok()? == 0).then_some(())
}

/// Read and verify one page file: `None` on any defect — missing file,
/// short read, wrong magic/version, index mismatch with the file name's
/// `pN`, or checksum failure. The slot count is derived from the file
/// length, so foreign-geometry pages still parse (callers validate the
/// count).
pub fn read_page_file(path: &Path) -> Option<Vec<u64>> {
    // The index in the header must agree with the one in the file name —
    // a page renamed (or copied) under the wrong name must not load.
    let page = path
        .file_name()?
        .to_str()?
        .strip_suffix(".pg")
        .and_then(|s| s.rsplit(".p").next())
        .and_then(|s| s.parse().ok())?;
    let buf = fs::read(path).ok()?;
    let words = page_words(&buf, page)?;
    Some(words.iter().map(|w| u64::from_le_bytes(*w)).collect())
}

impl PagedTable {
    /// Open (or create) a paged table of `len` slots filled with `fill`.
    ///
    /// With `spec.resume == false`, any page files already under this
    /// table's prefix are deleted first — a fresh run must not read a
    /// previous run's spill. With `resume == true` they are kept and
    /// will be re-verified page by page as the cache faults them in.
    ///
    /// # Errors
    ///
    /// Fails if the directory cannot be created or stale pages cannot
    /// be removed.
    pub fn open(spec: &PagedSpec, prefix: &str, len: u64, fill: u64) -> io::Result<Self> {
        fs::create_dir_all(&spec.dir)?;
        let spp = (spec.page_bytes / 8).max(1);
        let npages = len.div_ceil(spp as u64);
        let nframes = ((spec.budget_bytes / spec.page_bytes.max(1) as u64).max(2))
            .min(npages.max(1))
            .min(u64::from(NO_FRAME)) as usize;
        let table = PagedTable {
            dir: spec.dir.clone(),
            prefix: prefix.to_string(),
            len,
            spp,
            fill,
            nframes,
            frames: Vec::with_capacity(nframes),
            page_frame: vec![NO_FRAME; npages as usize],
            hand: 0,
            unsynced: vec![false; npages as usize],
            io: Box::new(PageIo::new(&spec.dir, prefix, spp)),
        };
        if !spec.resume {
            table.remove_files()?;
        }
        Ok(table)
    }

    /// Number of pages this table spans.
    pub fn npages(&self) -> u64 {
        self.len.div_ceil(self.spp as u64)
    }

    /// Delete every file under this table's prefix (pages and temps).
    fn remove_files(&self) -> io::Result<()> {
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return Ok(());
        };
        let head = format!("{}.p", self.prefix);
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.strip_prefix(&head).is_some_and(|rest| {
                rest.strip_suffix(".pg")
                    .or_else(|| rest.strip_suffix(".pg.tmp"))
                    .is_some_and(|num| num.parse::<u64>().is_ok())
            }) {
                fs::remove_file(entry.path())?;
            }
        }
        Ok(())
    }

    /// Write frame `idx`'s page: encode into the page image, write
    /// `.tmp`, rename. With `durable` the data is fsynced before the
    /// rename; without it the page is marked `unsynced` and settled
    /// wholesale at the next [`NodeTable::flush`] barrier — an eviction
    /// write that tears on crash fails its checksum and reads as absent,
    /// which only matters once a checkpoint references the page.
    fn write_page(&mut self, idx: usize, durable: bool) -> io::Result<()> {
        let frame = &self.frames[idx];
        let io = &mut *self.io;
        io.image.clear();
        io.image.extend_from_slice(&PAGE_MAGIC.to_le_bytes());
        io.image.extend_from_slice(&PAGE_VERSION.to_le_bytes());
        io.image.extend_from_slice(&frame.page.to_le_bytes());
        for &v in &frame.data {
            io.image.extend_from_slice(&v.to_le_bytes());
        }
        let sum = Fnv1a::hash_words(&io.image);
        io.image.extend_from_slice(&sum.to_le_bytes());
        io.set(&self.prefix, frame.page);
        {
            let mut f = fs::File::create(&io.tmp)?;
            f.write_all(&io.image)?;
            if durable {
                f.sync_all()?;
            }
        }
        fs::rename(&io.tmp, &io.page)?;
        self.unsynced[frame.page as usize] = !durable;
        Ok(())
    }

    /// Load page `page` into frame `idx`: its file's slots, or the fill
    /// value when the file is absent, torn, of another version, or of
    /// another geometry.
    fn load_page(&mut self, page: u64, idx: usize) {
        let io = &mut *self.io;
        io.set(&self.prefix, page);
        io.image.resize(PAGE_OVERHEAD + self.spp * 8, 0);
        let data = &mut self.frames[idx].data;
        let words =
            read_exact_file(&io.page, &mut io.image).and_then(|()| page_words(&io.image, page));
        match words {
            Some(words) if words.len() == data.len() => {
                for (slot, w) in data.iter_mut().zip(words) {
                    *slot = u64::from_le_bytes(*w);
                }
            }
            _ => data.fill(self.fill),
        }
    }

    /// Frame index holding `page`, faulting it in on a miss.
    #[inline]
    fn frame_of(&mut self, page: u64) -> usize {
        match self.page_frame[page as usize] {
            NO_FRAME => self.fault(page),
            idx => {
                self.frames[idx as usize].referenced = true;
                idx as usize
            }
        }
    }

    /// Bring `page` into a frame, evicting (and writing back) another
    /// if the cache is full. Panics on write-back I/O failure — see the
    /// trait docs for why the per-slot path has no error channel.
    #[inline(never)]
    fn fault(&mut self, page: u64) -> usize {
        let idx = if self.frames.len() < self.nframes {
            self.frames.push(PageFrame {
                page: NO_PAGE,
                data: vec![self.fill; self.spp],
                dirty: false,
                referenced: false,
            });
            self.frames.len() - 1
        } else {
            // Clock / second-chance: clear reference bits until an
            // unreferenced frame comes around (terminates within two
            // sweeps).
            loop {
                let i = self.hand;
                self.hand = (self.hand + 1) % self.frames.len();
                if self.frames[i].referenced {
                    self.frames[i].referenced = false;
                } else {
                    break i;
                }
            }
        };
        let old = self.frames[idx].page;
        if old != NO_PAGE {
            if self.frames[idx].dirty {
                self.write_page(idx, false).unwrap_or_else(|e| {
                    panic!("paged table {}: writing page {old}: {e}", self.prefix)
                });
            }
            self.page_frame[old as usize] = NO_FRAME;
        }
        self.load_page(page, idx);
        let frame = &mut self.frames[idx];
        frame.page = page;
        frame.dirty = false;
        frame.referenced = true;
        self.page_frame[page as usize] = idx as u32;
        idx
    }
}

impl NodeTable for PagedTable {
    fn len(&self) -> u64 {
        self.len
    }

    #[inline]
    fn get(&mut self, slot: u64) -> u64 {
        assert!(slot < self.len, "slot {slot} out of range {}", self.len);
        let (page, off) = (slot / self.spp as u64, (slot % self.spp as u64) as usize);
        let idx = self.frame_of(page);
        self.frames[idx].data[off]
    }

    #[inline]
    fn set(&mut self, slot: u64, v: u64) {
        assert!(slot < self.len, "slot {slot} out of range {}", self.len);
        let (page, off) = (slot / self.spp as u64, (slot % self.spp as u64) as usize);
        let idx = self.frame_of(page);
        let frame = &mut self.frames[idx];
        frame.data[off] = v;
        frame.dirty = true;
    }

    fn flush(&mut self) -> io::Result<()> {
        for i in 0..self.frames.len() {
            if self.frames[i].dirty {
                self.write_page(i, true)?;
                self.frames[i].dirty = false;
            }
        }
        // Settle every page evicted without fsync since the last
        // barrier, then the directory that names them, so a checkpoint
        // taken after this flush references only durable pages.
        for page in 0..self.unsynced.len() {
            if !std::mem::take(&mut self.unsynced[page]) {
                continue;
            }
            self.io.set(&self.prefix, page as u64);
            match fs::File::open(&self.io.page) {
                Ok(f) => f.sync_all()?,
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        sync_dir(&self.dir)
    }

    fn reset_from(&mut self, slot: u64) {
        // Fill the boundary page's tail in place ...
        let spp = self.spp as u64;
        let boundary = slot / spp;
        if !slot.is_multiple_of(spp) && boundary < self.npages() {
            let idx = self.frame_of(boundary);
            let fill = self.fill;
            let frame = &mut self.frames[idx];
            frame.data[(slot % spp) as usize..].fill(fill);
            frame.dirty = true;
        }
        // ... and delete every page wholly at or above the cut, both
        // the cached frames and the files.
        let first_dead = slot.div_ceil(spp);
        for page in first_dead..self.npages() {
            let idx = std::mem::replace(&mut self.page_frame[page as usize], NO_FRAME);
            if idx != NO_FRAME {
                // Free the frame without write-back; the next fault
                // into it overwrites its data.
                let frame = &mut self.frames[idx as usize];
                frame.dirty = false;
                frame.referenced = false;
                frame.page = NO_PAGE;
            }
            self.io.set(&self.prefix, page);
            let _ = fs::remove_file(&self.io.page);
            self.unsynced[page as usize] = false;
        }
    }
}

/// Enum dispatch over the two table kinds — engines hold this directly
/// so the per-slot hot path is a branch, not a virtual call.
#[derive(Debug)]
pub enum AnyTable {
    /// RAM-resident.
    Resident(ResidentTable),
    /// Disk-paged.
    Paged(PagedTable),
}

impl AnyTable {
    /// Build a table of `len` slots filled with `fill` per `spec`.
    /// Paged tables get the file prefix `rank{rank}.{name}`.
    ///
    /// # Errors
    ///
    /// Surfaces [`PagedTable::open`] failures.
    pub fn build(
        spec: &StoreSpec,
        rank: usize,
        name: &str,
        len: u64,
        fill: u64,
    ) -> io::Result<AnyTable> {
        Ok(match spec {
            StoreSpec::Resident => AnyTable::Resident(ResidentTable::new(len, fill)),
            StoreSpec::Paged(p) => AnyTable::Paged(PagedTable::open(
                p,
                &format!("rank{rank}.{name}"),
                len,
                fill,
            )?),
        })
    }

    /// Is this table disk-paged?
    pub fn is_paged(&self) -> bool {
        matches!(self, AnyTable::Paged(_))
    }
}

impl NodeTable for AnyTable {
    #[inline]
    fn len(&self) -> u64 {
        match self {
            AnyTable::Resident(t) => t.len(),
            AnyTable::Paged(t) => t.len(),
        }
    }

    #[inline]
    fn get(&mut self, slot: u64) -> u64 {
        match self {
            AnyTable::Resident(t) => t.get(slot),
            AnyTable::Paged(t) => t.get(slot),
        }
    }

    #[inline]
    fn set(&mut self, slot: u64, v: u64) {
        match self {
            AnyTable::Resident(t) => t.set(slot, v),
            AnyTable::Paged(t) => t.set(slot, v),
        }
    }

    #[inline]
    fn row_contains(&mut self, start: u64, len: u64, v: u64) -> bool {
        match self {
            AnyTable::Resident(t) => t.row_contains(start, len, v),
            AnyTable::Paged(t) => t.row_contains(start, len, v),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            AnyTable::Resident(t) => t.flush(),
            AnyTable::Paged(t) => t.flush(),
        }
    }

    fn prefix_fnv(&mut self, len: u64) -> u64 {
        match self {
            AnyTable::Resident(t) => t.prefix_fnv(len),
            AnyTable::Paged(t) => t.prefix_fnv(len),
        }
    }

    fn reset_from(&mut self, slot: u64) {
        match self {
            AnyTable::Resident(t) => t.reset_from(slot),
            AnyTable::Paged(t) => t.reset_from(slot),
        }
    }
}

/// Serialize a table's committed prefix (`cnt` nodes × `spn` slots per
/// node) into a checkpoint payload.
///
/// Resident: `[cnt, slot values...]` — the historical format, unchanged.
/// Paged: `[PAGED_PAYLOAD_MARK, cnt, prefix FNV]` — the slots stay in
/// the page files; the table is flushed durably first so the checkpoint
/// never references pages newer than disk.
pub(crate) fn write_table_prefix(t: &mut AnyTable, cnt: u64, spn: u64, out: &mut Vec<u8>) {
    let prefix = cnt * spn;
    match t {
        AnyTable::Resident(_) => {
            out.extend_from_slice(&cnt.to_le_bytes());
            for s in 0..prefix {
                out.extend_from_slice(&t.get(s).to_le_bytes());
            }
        }
        AnyTable::Paged(_) => {
            t.flush()
                .unwrap_or_else(|e| panic!("paged table flush failed while checkpointing: {e}"));
            out.extend_from_slice(&PAGED_PAYLOAD_MARK.to_le_bytes());
            out.extend_from_slice(&cnt.to_le_bytes());
            out.extend_from_slice(&t.prefix_fnv(prefix).to_le_bytes());
        }
    }
}

/// The header [`write_table_prefix`] opens a payload with: the committed
/// node count, plus — for a paged table, whose slots stay in the page
/// files — the FNV of the committed prefix.
pub(crate) enum TablePrefix {
    /// `[cnt, slot values...]`: the slots follow inline.
    Resident { cnt: u64 },
    /// `[PAGED_PAYLOAD_MARK, cnt, fnv]`.
    Paged { cnt: u64, fnv: u64 },
}

impl TablePrefix {
    /// Parse the header, advancing `r` past it.
    pub(crate) fn read(r: &mut &[u8]) -> Result<TablePrefix, String> {
        let first = get_u64(r).ok_or("truncated checkpoint payload")?;
        if first != PAGED_PAYLOAD_MARK {
            return Ok(TablePrefix::Resident { cnt: first });
        }
        Ok(TablePrefix::Paged {
            cnt: get_u64(r).ok_or("truncated paged checkpoint payload")?,
            fnv: get_u64(r).ok_or("truncated paged checkpoint checksum")?,
        })
    }
}

/// Restore a table's committed prefix from a checkpoint payload written
/// by [`write_table_prefix`], advancing `r` past the consumed bytes and
/// clearing every slot above the prefix.
///
/// A resident-format payload loads into **either** table kind (that is
/// how elastic restart feeds re-partitioned state into a paged run). A
/// paged-format payload requires a paged table over the same directory:
/// the prefix is re-read through the cache and its FNV must match —
/// a torn, lost, or foreign page surfaces here as a checksum mismatch.
pub(crate) fn read_table_prefix(
    t: &mut AnyTable,
    expect_cnt: u64,
    spn: u64,
    r: &mut &[u8],
) -> Result<(), String> {
    let header = TablePrefix::read(r)?;
    let (TablePrefix::Resident { cnt } | TablePrefix::Paged { cnt, .. }) = header;
    if cnt != expect_cnt {
        return Err(format!(
            "committed prefix holds {cnt} nodes but the partition expects {expect_cnt}"
        ));
    }
    let prefix = cnt * spn;
    match header {
        TablePrefix::Paged { fnv, .. } => {
            let AnyTable::Paged(_) = t else {
                return Err(
                    "checkpoint was taken with --memory-budget (it references page files); \
                     resume with the same --memory-budget/--store-dir"
                        .to_string(),
                );
            };
            if t.prefix_fnv(prefix) != fnv {
                return Err(
                    "page files do not match the checkpoint's committed-prefix checksum \
                     (torn, missing, or foreign pages)"
                        .to_string(),
                );
            }
        }
        TablePrefix::Resident { .. } => {
            for s in 0..prefix {
                let v = get_u64(r).ok_or("truncated F table")?;
                t.set(s, v);
            }
        }
    }
    t.reset_from(prefix);
    Ok(())
}

/// Delete every page file (and temp) belonging to `rank` inside `dir` —
/// the page-file analogue of [`crate::par::CheckpointStore::clear`].
pub fn clean_rank_pages(dir: &Path, rank: usize) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let head = format!("rank{rank}.");
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if name.starts_with(&head) && (name.ends_with(".pg") || name.ends_with(".pg.tmp")) {
            let _ = fs::remove_file(entry.path());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FILL: u64 = u64::MAX;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pa_store_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_spec(dir: &Path, budget: u64) -> PagedSpec {
        PagedSpec {
            dir: dir.to_path_buf(),
            budget_bytes: budget,
            page_bytes: 32, // 4 slots per page
            resume: false,
        }
    }

    /// Deterministic LCG, good enough to drive access patterns.
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 16
        }
    }

    #[test]
    fn paged_matches_resident_under_eviction_thrash() {
        let dir = scratch("thrash");
        let len = 101;
        let mut paged = PagedTable::open(&tiny_spec(&dir, 64), "rank0.f", len, FILL).unwrap();
        let mut resident = ResidentTable::new(len, FILL);
        let mut rng = Lcg(7);
        for _ in 0..5_000 {
            let slot = rng.next() % len;
            if rng.next().is_multiple_of(2) {
                let v = rng.next();
                paged.set(slot, v);
                resident.set(slot, v);
            } else {
                assert_eq!(paged.get(slot), resident.get(slot), "slot {slot}");
            }
        }
        for s in 0..len {
            assert_eq!(paged.get(s), resident.get(s), "final scan, slot {s}");
        }
        assert_eq!(paged.prefix_fnv(len), resident.prefix_fnv(len));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn flush_then_reopen_resumes_content() {
        let dir = scratch("reopen");
        let len = 40;
        let mut t = PagedTable::open(&tiny_spec(&dir, 64), "rank1.f", len, FILL).unwrap();
        for s in 0..len {
            t.set(s, s * 3 + 1);
        }
        t.flush().unwrap();
        drop(t);
        let spec = PagedSpec {
            resume: true,
            ..tiny_spec(&dir, 64)
        };
        let mut t = PagedTable::open(&spec, "rank1.f", len, FILL).unwrap();
        for s in 0..len {
            assert_eq!(t.get(s), s * 3 + 1);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fresh_open_discards_stale_pages() {
        let dir = scratch("fresh");
        let len = 16;
        let mut t = PagedTable::open(&tiny_spec(&dir, 64), "rank0.f", len, FILL).unwrap();
        t.set(3, 99);
        t.flush().unwrap();
        drop(t);
        // resume: false wipes the prefix's files.
        let mut t = PagedTable::open(&tiny_spec(&dir, 64), "rank0.f", len, FILL).unwrap();
        assert_eq!(t.get(3), FILL, "stale page must not survive a fresh open");
        let _ = fs::remove_dir_all(&dir);
    }

    /// A page file image built by hand: header, slots, and a trailer of
    /// `digest` over both.
    fn page_image(version: u32, page: u64, slots: &[u64], digest: fn(&[u8]) -> u64) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&PAGE_MAGIC.to_le_bytes());
        buf.extend_from_slice(&version.to_le_bytes());
        buf.extend_from_slice(&page.to_le_bytes());
        for s in slots {
            buf.extend_from_slice(&s.to_le_bytes());
        }
        let sum = digest(&buf);
        buf.extend_from_slice(&sum.to_le_bytes());
        buf
    }

    #[test]
    fn torn_page_reads_as_absent() {
        let dir = scratch("torn");
        let len = 12;
        let mut t = PagedTable::open(&tiny_spec(&dir, 64), "rank0.f", len, FILL).unwrap();
        for s in 0..len {
            t.set(s, 1000 + s);
        }
        t.flush().unwrap();
        drop(t);
        // Corrupt page 1 (slots 4..8) at every byte position in turn:
        // header, slots and trailer alike.
        let p1 = page_path(&dir, "rank0.f", 1);
        let good = fs::read(&p1).unwrap();
        assert_eq!(
            good,
            page_image(2, 1, &[1004, 1005, 1006, 1007], Fnv1a::hash_words)
        );
        let spec = PagedSpec {
            resume: true,
            ..tiny_spec(&dir, 64)
        };
        for at in 0..good.len() {
            let mut bytes = good.clone();
            bytes[at] ^= 0xff;
            fs::write(&p1, &bytes).unwrap();
            let mut t = PagedTable::open(&spec, "rank0.f", len, FILL).unwrap();
            for s in 0..4 {
                assert_eq!(t.get(s), 1000 + s, "page 0 intact (flip at {at})");
            }
            for s in 4..8 {
                assert_eq!(t.get(s), FILL, "flip at byte {at} reads as absent (fill)");
            }
            for s in 8..12 {
                assert_eq!(t.get(s), 1000 + s, "page 2 intact (flip at {at})");
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_one_and_two_bit_flip_of_a_page_fails_its_checks() {
        // Among the pairs: bit 63 of a slot with bit 63 of the trailer,
        // which a checksum fold that only carries upward cannot see.
        let good = page_image(2, 1, &[1004, 1005, 1006, 1007], Fnv1a::hash_words);
        assert!(page_words(&good, 1).is_some());
        let bits = good.len() * 8;
        let mut bad = good.clone();
        for a in 0..bits {
            bad[a / 8] ^= 1 << (a % 8);
            assert!(page_words(&bad, 1).is_none(), "bit {a}");
            for b in a + 1..bits {
                bad[b / 8] ^= 1 << (b % 8);
                assert!(page_words(&bad, 1).is_none(), "bits {a} and {b}");
                bad[b / 8] ^= 1 << (b % 8);
            }
            bad[a / 8] ^= 1 << (a % 8);
        }
    }

    #[test]
    fn version_1_page_reads_as_absent() {
        let dir = scratch("v1");
        let p0 = page_path(&dir, "rank0.f", 0);
        fs::create_dir_all(&dir).unwrap();
        let slots = [5, 6, 7, 8];
        // What an older build wrote: version 1 under a bytewise FNV-1a.
        // Neither that, nor a version-1 header under a valid word-wise
        // trailer, loads; the current format does.
        for (version, digest, loads) in [
            (1, Fnv1a::hash as fn(&[u8]) -> u64, false),
            (1, Fnv1a::hash_words, false),
            (2, Fnv1a::hash_words, true),
        ] {
            fs::write(&p0, page_image(version, 0, &slots, digest)).unwrap();
            assert_eq!(read_page_file(&p0).is_some(), loads, "version {version}");
            let spec = PagedSpec {
                resume: true,
                ..tiny_spec(&dir, 64)
            };
            let mut t = PagedTable::open(&spec, "rank0.f", 4, FILL).unwrap();
            let want = if loads { 5 } else { FILL };
            assert_eq!(t.get(0), want, "version {version}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn paged_checkpoint_over_a_version_1_page_does_not_resume() {
        let dir = scratch("v1ckpt");
        let spec = tiny_spec(&dir, 64);
        let (cnt, spn) = (4u64, 2u64);
        let len = cnt * spn;
        let mut t = AnyTable::Paged(PagedTable::open(&spec, "rank0.f", len, FILL).unwrap());
        for s in 0..len {
            t.set(s, 30 + s);
        }
        let mut payload = Vec::new();
        write_table_prefix(&mut t, cnt, spn, &mut payload);
        drop(t);
        // The same slots, as an older build would have sealed page 0.
        fs::write(
            page_path(&dir, "rank0.f", 0),
            page_image(1, 0, &[30, 31, 32, 33], Fnv1a::hash),
        )
        .unwrap();
        let spec = PagedSpec {
            resume: true,
            ..spec
        };
        let mut back = AnyTable::Paged(PagedTable::open(&spec, "rank0.f", len, FILL).unwrap());
        let mut r: &[u8] = &payload;
        let err = read_table_prefix(&mut back, cnt, spn, &mut r).unwrap_err();
        assert!(err.contains("page files do not match"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_or_extended_page_file_reads_as_none() {
        let dir = scratch("cut");
        let mut t = PagedTable::open(&tiny_spec(&dir, 64), "rank0.f", 4, FILL).unwrap();
        t.set(0, 7);
        t.flush().unwrap();
        let p0 = page_path(&dir, "rank0.f", 0);
        let good = fs::read(&p0).unwrap();
        assert!(read_page_file(&p0).is_some());
        let cuts = (0..good.len()).map(|cut| good[..cut].to_vec());
        for bad in cuts.chain([[&good[..], &[0]].concat()]) {
            fs::write(&p0, &bad).unwrap();
            let got = read_page_file(&p0);
            assert_eq!(got, None, "{} of {} bytes", bad.len(), good.len());
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reset_from_clears_tail_and_deletes_files() {
        let dir = scratch("reset");
        let len = 20;
        let mut t = PagedTable::open(&tiny_spec(&dir, 64), "rank0.f", len, FILL).unwrap();
        for s in 0..len {
            t.set(s, s + 7);
        }
        t.flush().unwrap();
        // Cut mid-page: slot 6 is inside page 1 (slots 4..8).
        t.reset_from(6);
        for s in 0..6 {
            assert_eq!(t.get(s), s + 7, "prefix survives");
        }
        for s in 6..len {
            assert_eq!(t.get(s), FILL, "tail cleared, slot {s}");
        }
        assert!(
            !page_path(&dir, "rank0.f", 2).exists(),
            "pages wholly above the cut are deleted"
        );
        assert!(
            !page_path(&dir, "rank0.f", 4).exists(),
            "last page deleted too"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn table_prefix_round_trips_resident_and_paged() {
        let dir = scratch("prefix");
        let (cnt, spn) = (5u64, 3u64);
        let len = 8 * spn;
        for paged in [false, true] {
            let spec = if paged {
                StoreSpec::Paged(tiny_spec(&dir, 64))
            } else {
                StoreSpec::Resident
            };
            let mut t = AnyTable::build(&spec, 0, "f", len, FILL).unwrap();
            for s in 0..len {
                t.set(s, 100 + s);
            }
            let mut payload = Vec::new();
            write_table_prefix(&mut t, cnt, spn, &mut payload);
            // Restore into a fresh table of the same kind (resume
            // semantics for the paged one: its pages are on disk).
            let mut back =
                AnyTable::build(&spec.clone().with_resume(true), 0, "f", len, FILL).unwrap();
            let mut r: &[u8] = &payload;
            read_table_prefix(&mut back, cnt, spn, &mut r).unwrap();
            assert!(r.is_empty());
            for s in 0..cnt * spn {
                assert_eq!(back.get(s), 100 + s, "paged={paged} slot {s}");
            }
            for s in cnt * spn..len {
                assert_eq!(back.get(s), FILL, "paged={paged} tail slot {s}");
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resident_payload_loads_into_paged_table() {
        // The elastic-restart path: re-partitioned state arrives in the
        // resident format and lands in whatever table the new run uses.
        let dir = scratch("cross");
        let (cnt, spn) = (4u64, 2u64);
        let len = 6 * spn;
        let mut src = AnyTable::build(&StoreSpec::Resident, 0, "f", len, FILL).unwrap();
        for s in 0..cnt * spn {
            src.set(s, 50 + s);
        }
        let mut payload = Vec::new();
        write_table_prefix(&mut src, cnt, spn, &mut payload);
        let spec = StoreSpec::Paged(tiny_spec(&dir, 64));
        let mut dst = AnyTable::build(&spec, 0, "f", len, FILL).unwrap();
        let mut r: &[u8] = &payload;
        read_table_prefix(&mut dst, cnt, spn, &mut r).unwrap();
        for s in 0..cnt * spn {
            assert_eq!(dst.get(s), 50 + s);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn paged_payload_into_resident_table_is_an_error() {
        let dir = scratch("wrongkind");
        let spec = StoreSpec::Paged(tiny_spec(&dir, 64));
        let mut t = AnyTable::build(&spec, 0, "f", 8, FILL).unwrap();
        t.set(0, 1);
        let mut payload = Vec::new();
        write_table_prefix(&mut t, 1, 1, &mut payload);
        let mut resident = AnyTable::build(&StoreSpec::Resident, 0, "f", 8, FILL).unwrap();
        let mut r: &[u8] = &payload;
        let err = read_table_prefix(&mut resident, 1, 1, &mut r).unwrap_err();
        assert!(err.contains("--memory-budget"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn paged_restore_detects_torn_pages_via_fnv() {
        let dir = scratch("fnv");
        let spec_p = tiny_spec(&dir, 64);
        let (cnt, spn) = (6u64, 2u64);
        let len = cnt * spn;
        let mut t = PagedTable::open(&spec_p, "rank0.f", len, FILL).unwrap();
        for s in 0..len {
            t.set(s, s);
        }
        let mut any = AnyTable::Paged(t);
        let mut payload = Vec::new();
        write_table_prefix(&mut any, cnt, spn, &mut payload);
        drop(any);
        // Corrupt a page below the committed prefix, then restore.
        let p0 = page_path(&dir, "rank0.f", 0);
        let mut bytes = fs::read(&p0).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(&p0, &bytes).unwrap();
        let spec_r = PagedSpec {
            resume: true,
            ..spec_p
        };
        let mut back = AnyTable::Paged(PagedTable::open(&spec_r, "rank0.f", len, FILL).unwrap());
        let mut r: &[u8] = &payload;
        let err = read_table_prefix(&mut back, cnt, spn, &mut r).unwrap_err();
        assert!(err.contains("checksum"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn spec_builders_and_validation() {
        let spec = StoreSpec::paged("/tmp/x", 1_000).with_page_bytes(64);
        spec.validate();
        assert!(spec.is_paged());
        assert!(!StoreSpec::Resident.is_paged());
        match spec.with_resume(true) {
            StoreSpec::Paged(p) => {
                assert!(p.resume);
                assert_eq!((p.budget_bytes, p.page_bytes), (1_000, 64));
            }
            StoreSpec::Resident => panic!("builders must stay paged"),
        }
        assert_eq!(StoreSpec::Resident.with_resume(true), StoreSpec::Resident);
    }

    #[test]
    #[should_panic(expected = "page_bytes")]
    fn unaligned_page_bytes_rejected() {
        StoreSpec::paged("/tmp/x", 100)
            .with_page_bytes(12)
            .validate();
    }

    #[test]
    fn clean_rank_pages_removes_only_that_rank() {
        let dir = scratch("clean");
        let mut a = PagedTable::open(&tiny_spec(&dir, 64), "rank0.f", 8, FILL).unwrap();
        let mut b = PagedTable::open(&tiny_spec(&dir, 64), "rank1.f", 8, FILL).unwrap();
        a.set(0, 1);
        b.set(0, 2);
        a.flush().unwrap();
        b.flush().unwrap();
        // A store directory left by an older build also holds engine 2's
        // former `att`/`nxe` tables; the rank prefix sweeps those too.
        let stale = ["rank0.att.p0.pg", "rank0.nxe.p3.pg", "rank0.att.p1.pg.tmp"];
        for name in stale {
            fs::write(dir.join(name), b"old").unwrap();
        }
        fs::write(dir.join("rank1.att.p0.pg"), b"old").unwrap();
        clean_rank_pages(&dir, 0);
        assert!(!page_path(&dir, "rank0.f", 0).exists());
        assert!(page_path(&dir, "rank1.f", 0).exists());
        for name in stale {
            assert!(!dir.join(name).exists(), "{name} survived");
        }
        assert!(dir.join("rank1.att.p0.pg").exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
