//! Out-of-core node-table storage: the `NodeTable` trait and its two
//! implementations.
//!
//! Every engine keeps its committed `F` slots in a *node table* — a
//! flat array of slots addressed by `local_index(t) · x + e`, the one
//! `O(x·n/P)` structure a rank owns. This module puts that array behind
//! a trait with two backends:
//!
//! - [`ResidentTable`]: a `Vec` of cells — everything in RAM, `O(n/P)`
//!   cells per rank.
//! - [`PagedTable`]: fixed-size pages spilled to one file per table
//!   under an in-memory page cache bounded by a byte budget
//!   (`--memory-budget`), so the largest generable `n` is bounded by
//!   disk, not RAM.
//!
//! **Cells.** A slot holds a node label or the empty sentinel `NILL`,
//! in a [`Cell`]: a compact 4-byte `u32` whenever every label of the
//! network fits below the `u32::MAX` sentinel ([`compact_cells`]: `n <
//! u32::MAX`, every network the paper generates), the 8-byte `u64`
//! otherwise. [`AnyTable::build_for`] decides the width once, from `n`.
//! A compact `get` widens; a compact `set` narrows through a checked
//! conversion that panics naming a label too wide for the cell, never
//! truncating. The table's API speaks `u64` labels at either width.
//!
//! **The page file.** A table lives in one file, `{prefix}.pages`, of
//! equal slots, each one sealed page image: a magic/version header, the
//! page index, the raw little-endian cells (`page_bytes / 4` compact or
//! `page_bytes / 8` wide ones), and a trailing four-lane FNV-1a checksum
//! ([`Fnv1a::hash_words`]). Wide images are version 3, compact ones
//! version 4, so a page of the other width reads as absent. Page `p`
//! lives in slot `p + 1`; slot 0 is a one-page **write-back journal**.
//! A write-back writes the image to the journal, then to the page's slot,
//! so a kill at any byte leaves one of the two whole, and a whole
//! journal holds the newest image of its page: a resuming open applies
//! it in place first, and a page reads back as its old or its new
//! image, never as absent because of a torn write-back. A torn, foreign
//! or older-version image fails its checks and **reads as absent**
//! (every slot the fill value) rather than as garbage. The file is
//! created at the first write-back; the `flush` barrier writes back the
//! dirty frames, syncs the file once, then the directory.
//!
//! **Eviction.** The cache runs clock / second-chance: each frame has a
//! reference bit set on access; the clock hand clears bits until it
//! finds an unreferenced frame, writes it back if dirty, and reuses it.
//! The budget buys `max(2, budget / page_bytes)` frames of one page
//! image each ([`PAGE_OVERHEAD`]` + page_bytes`); the page index beside
//! them ([`INDEX_BYTES_PER_PAGE`] per page of the whole table) is not
//! counted against it ([`table_bytes`] plans both). Each frame holds
//! its page as the image the file slot holds: a fault is one positioned
//! read into the frame, and a write-back seals the frame in place, so
//! once every frame exists a fault neither allocates nor copies a page.
//!
//! **Checkpoints.** A resident table serializes its committed prefix
//! into the checkpoint payload as `u64` words at either cell width (the
//! historical format), and the prefix checksum hashes widened slots, so
//! neither depends on the width. A paged table instead *references* its
//! page file: the payload stores a sentinel, the node count, an FNV-1a
//! checksum over the committed prefix and the page size (see
//! `write_table_prefix`). Committed slots are write-once, and a page
//! reads back whole or as absent, so a *newer* image of a page always
//! agrees with an older epoch's checkpoint on every slot below that
//! epoch's cut — the prefix checksum re-verified on restore
//! (`read_table_prefix`) is exactly the torn-page detector.

use pa_graph::io::Fnv1a;
use pa_mpsim::wire::{get_u32, get_u64, take};
use pa_mpsim::Wire;
use std::fs;
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use crate::{Node, NILL};

/// Magic number at the head of every page image (`"PAPG"`).
const PAGE_MAGIC: u32 = 0x4750_4150;
/// Bytes of page-image header before the cells
/// (magic + version + page index).
const PAGE_HEADER: usize = 4 + 4 + 8;
/// Bytes of page-image framing around the cells (header + trailing
/// checksum): a cached frame is `PAGE_OVERHEAD + page_bytes` long.
pub const PAGE_OVERHEAD: usize = PAGE_HEADER + 8;

/// Page size when none is given. A fault reads one page and a
/// write-back writes it twice, each one positioned call on an open
/// file, so a page costs its bytes, not a file operation: 4 KiB (the OS
/// page) beat 8 and 16 KiB on ext4 and on tmpfs at 1, 4 and 16 MiB
/// budgets, and 2 KiB did no better (EXPERIMENTS.md, "One file per
/// paged table").
pub const DEFAULT_PAGE_BYTES: usize = 4 << 10;

/// Bytes of page index a paged table keeps per page of its table, beside
/// the budgeted frames: the page → frame map (`u32`).
pub const INDEX_BYTES_PER_PAGE: u64 = size_of::<u32>() as u64;

/// Does every label of an `n`-node network fit a compact [`Cell`]? Labels
/// run to `n − 1` and `u32::MAX` is the compact sentinel. The one rule
/// for the node tables' width.
pub fn compact_cells(n: u64) -> bool {
    n < u64::from(u32::MAX)
}

/// Bytes of one node-table cell for an `n`-node network.
pub fn cell_bytes(n: u64) -> u64 {
    if compact_cells(n) {
        4
    } else {
        8
    }
}

/// Bytes of RAM a table of `len` slots for an `n`-node network holds under
/// `spec`: every cell when resident; when paged, its frames — `max(2,
/// budget / page_bytes)` of them, never more than the table has pages,
/// each a page image of [`PAGE_OVERHEAD`]` + page_bytes` — and its page
/// index. What [`AnyTable::build_for`] allocates once every frame exists,
/// and what `pagen info` plans.
pub fn table_bytes(n: u64, len: u64, spec: &StoreSpec) -> u64 {
    let cell = cell_bytes(n);
    match spec {
        StoreSpec::Resident => len * cell,
        StoreSpec::Paged(p) => {
            let npages = len.div_ceil(cells_per_page(p.page_bytes, cell as usize) as u64);
            let frames = frame_count(p.budget_bytes, p.page_bytes, npages);
            frames * (PAGE_OVERHEAD + p.page_bytes) as u64 + npages * INDEX_BYTES_PER_PAGE
        }
    }
}

/// Cells of `cell` bytes in a page of `page_bytes`.
fn cells_per_page(page_bytes: usize, cell: usize) -> usize {
    (page_bytes / cell).max(1)
}

/// Frames a paged table of `npages` pages caches under `budget_bytes`:
/// `max(2, budget / page_bytes)`, clamped to the page count (no point
/// caching more frames than pages exist) and to what the page index can
/// name.
fn frame_count(budget_bytes: u64, page_bytes: usize, npages: u64) -> u64 {
    (budget_bytes / page_bytes.max(1) as u64)
        .max(2)
        .min(npages.max(1))
        .min(u64::from(NO_FRAME))
}

/// One node-table cell: a node label, or the sentinel [`Cell::NIL`]
/// standing for `NILL` (an empty slot). `u32` when [`compact_cells`]
/// holds — half the memory — `u64` otherwise.
pub trait Cell: Copy + Eq + std::fmt::Debug {
    /// The sentinel: `NILL` in a table.
    const NIL: Self;
    /// Version a page image of these cells is sealed with: the width is
    /// part of the format, so an image of the other width reads as
    /// absent.
    const PAGE_VERSION: u32;
    /// One cell's little-endian bytes in a page image.
    type Le: Copy;

    /// `v` as a cell (`NILL` as [`Cell::NIL`]), or `None` when the label
    /// does not fit.
    fn narrow(v: Node) -> Option<Self>;

    /// The label (or `NILL`) this cell holds.
    fn to_node(self) -> Node;

    /// `v` as a cell.
    ///
    /// # Panics
    ///
    /// Panics naming `v` when the label does not fit — a cell never
    /// truncates.
    #[inline]
    fn from_node(v: Node) -> Self {
        Self::narrow(v).unwrap_or_else(|| {
            panic!(
                "label {v} does not fit a {}-byte node-table cell",
                size_of::<Self>()
            )
        })
    }

    /// The cell of little-endian bytes `le`.
    fn from_le(le: Self::Le) -> Self;

    /// This cell's little-endian bytes.
    fn to_le(self) -> Self::Le;

    /// The cells of a page image's body, as little-endian byte arrays.
    fn le_cells(body: &mut [u8]) -> &mut [Self::Le];
}

impl Cell for u32 {
    const NIL: Self = u32::MAX;
    /// Version 3's format with 4-byte cells.
    const PAGE_VERSION: u32 = 4;
    type Le = [u8; 4];

    /// `NILL + 1` wraps to 0, which fits and wraps back to `u32::MAX`; a
    /// label `≥ u32::MAX` does not fit.
    #[inline]
    fn narrow(v: Node) -> Option<Self> {
        u32::try_from(v.wrapping_add(1))
            .ok()
            .map(|c| c.wrapping_sub(1))
    }

    /// `u32::MAX` widens to `NILL` (`u64::MAX`) by the same wrap, without
    /// a branch.
    #[inline]
    fn to_node(self) -> Node {
        Node::from(self.wrapping_add(1)).wrapping_sub(1)
    }

    #[inline]
    fn from_le(le: [u8; 4]) -> Self {
        u32::from_le_bytes(le)
    }

    #[inline]
    fn to_le(self) -> [u8; 4] {
        self.to_le_bytes()
    }

    #[inline]
    fn le_cells(body: &mut [u8]) -> &mut [[u8; 4]] {
        body.as_chunks_mut().0
    }
}

impl Cell for u64 {
    const NIL: Self = NILL;
    /// Version 3 seals pages with the four-lane [`Fnv1a::hash_words`] in
    /// one file per table; a version-1 or -2 image reads as absent.
    const PAGE_VERSION: u32 = 3;
    type Le = [u8; 8];

    #[inline]
    fn narrow(v: Node) -> Option<Self> {
        Some(v)
    }

    #[inline]
    fn to_node(self) -> Node {
        self
    }

    #[inline]
    fn from_le(le: [u8; 8]) -> Self {
        u64::from_le_bytes(le)
    }

    #[inline]
    fn to_le(self) -> [u8; 8] {
        self.to_le_bytes()
    }

    #[inline]
    fn le_cells(body: &mut [u8]) -> &mut [[u8; 8]] {
        body.as_chunks_mut().0
    }
}

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
/// so neither mark can be mistaken for one.
const PAGED_PAYLOAD_MARK: u64 = u64::MAX - 1;
/// First payload word of a paged prefix from builds before the one-file
/// layout: its slots are in per-page files, which this build cannot read.
const PER_PAGE_FILES_PAYLOAD_MARK: u64 = u64::MAX;

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
    /// Page size in bytes (cells per page × the cell's 4 or 8 bytes).
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
    /// multiple of 8 bytes (one wide cell).
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

/// A flat array of slots that an engine reads and writes by index, as
/// `u64` labels whatever its [`Cell`] width.
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
    /// table also *cuts* the pages wholly above the boundary off its
    /// file, so a restore cannot observe stale state from a later epoch.
    fn reset_from(&mut self, slot: u64);
}

/// The classic in-RAM table: a `Vec` of cells, wide (`u64`) unless
/// built [`ResidentTable::with_cells`] of another [`Cell`].
#[derive(Debug)]
pub struct ResidentTable<C: Cell = u64> {
    slots: Vec<C>,
    fill: C,
}

impl ResidentTable {
    /// A table of `len` wide slots, all holding `fill`.
    pub fn new(len: u64, fill: u64) -> Self {
        Self::with_cells(len, fill)
    }
}

impl<C: Cell> ResidentTable<C> {
    /// A table of `len` slots in cells of type `C`, all holding `fill`.
    ///
    /// # Panics
    ///
    /// Panics when `fill` does not fit the cell.
    pub fn with_cells(len: u64, fill: u64) -> Self {
        let fill = C::from_node(fill);
        ResidentTable {
            slots: vec![fill; len as usize],
            fill,
        }
    }
}

impl<C: Cell> NodeTable for ResidentTable<C> {
    fn len(&self) -> u64 {
        self.slots.len() as u64
    }

    #[inline]
    fn get(&mut self, slot: u64) -> u64 {
        self.slots[slot as usize].to_node()
    }

    #[inline]
    fn set(&mut self, slot: u64, v: u64) {
        self.slots[slot as usize] = C::from_node(v);
    }

    /// A value no cell can hold is in no row.
    #[inline]
    fn row_contains(&mut self, start: u64, len: u64, v: u64) -> bool {
        let row = &self.slots[start as usize..(start + len) as usize];
        C::narrow(v).is_some_and(|c| row.contains(&c))
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }

    fn prefix_fnv(&mut self, len: u64) -> u64 {
        slots_fnv(self.slots[..len as usize].iter().map(|c| c.to_node()))
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

/// One cached page. Its buffer, one file slot long, lives as long as the
/// table: a load reads the page's image into it, a write-back seals it
/// in place and writes it out.
struct PageFrame {
    page: u64,
    image: Vec<u8>,
    dirty: bool,
    referenced: bool,
}

impl PageFrame {
    /// The page's cells, little-endian, between header and trailer.
    fn cells<C: Cell>(&mut self) -> &mut [C::Le] {
        let end = self.image.len() - 8;
        C::le_cells(&mut self.image[PAGE_HEADER..end])
    }
}

/// A node table spilled to one page file under a byte-budgeted clock
/// cache (see the module docs for the layout and the durability
/// argument), in wide (`u64`) cells unless opened
/// [`PagedTable::with_cells`] of another [`Cell`].
pub struct PagedTable<C: Cell = u64> {
    /// The page file, `{dir}/{prefix}.pages`.
    path: PathBuf,
    /// Open once the file exists: at the first write-back, or at a
    /// resuming open that finds it.
    file: Option<fs::File>,
    len: u64,
    /// Cells per page.
    spp: usize,
    fill: C,
    /// Frame cap (see `frame_count`).
    nframes: usize,
    frames: Vec<PageFrame>,
    /// `page_frame[page]`: the frame holding `page`, or [`NO_FRAME`].
    /// Dense and sized at open: the [`INDEX_BYTES_PER_PAGE`] a table
    /// keeps outside its budget.
    page_frame: Vec<u32>,
    /// Clock hand for second-chance eviction.
    hand: usize,
}

impl<C: Cell> std::fmt::Debug for PagedTable<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PagedTable")
            .field("path", &self.path)
            .field("len", &self.len)
            .field("cells_per_page", &self.spp)
            .field("nframes", &self.nframes)
            .field("resident", &self.frames.len())
            .finish()
    }
}

/// Path of table `prefix`'s page file inside `dir`.
pub fn table_path(dir: &Path, prefix: &str) -> PathBuf {
    dir.join(format!("{prefix}.pages"))
}

/// The body of a file sealed with a trailing `digest` of everything
/// before it (page images: [`Fnv1a::hash_words`]; checkpoints:
/// [`Fnv1a::hash`]); `None` if short or mismatched.
pub(crate) fn checksummed_body(buf: &[u8], digest: fn(&[u8]) -> u64) -> Option<&[u8]> {
    let r = &mut &buf[..];
    let body = take(r, buf.len().checked_sub(8)?)?;
    (digest(body) == get_u64(r)?).then_some(body)
}

/// The page index in the header of page image `buf` of cells `C`, or
/// `None` unless its checksum, magic and version all check out.
fn sealed_image<C: Cell>(buf: &[u8]) -> Option<u64> {
    let mut r = checksummed_body(buf, Fnv1a::hash_words)?;
    if get_u32(&mut r)? != PAGE_MAGIC || get_u32(&mut r)? != C::PAGE_VERSION {
        return None;
    }
    get_u64(&mut r)
}

/// Open page file `path` for positioned reads and writes.
fn open_rw(path: &Path, create: bool) -> io::Result<fs::File> {
    let mut options = fs::File::options();
    options
        .read(true)
        .write(true)
        .create(create)
        .truncate(false)
        .open(path)
}

/// The page the write-back journal of page file `file` holds a whole
/// image of cells `C`, read into `image` (one slot long); `None` if it
/// holds none.
fn journal_page<C: Cell>(file: &fs::File, image: &mut [u8]) -> Option<u64> {
    file.read_exact_at(image, 0).ok()?;
    sealed_image::<C>(image)
}

/// Apply the write-back journal of page file `file` in place: write a
/// whole image of a page below `npages` to that page's slot. A whole
/// journal holds the newest image of its page, so this only completes a
/// write-back that a kill cut short.
fn apply_journal<C: Cell>(file: &fs::File, image: &mut [u8], npages: u64) -> io::Result<()> {
    match journal_page::<C>(file, image) {
        Some(page) if page < npages => file.write_all_at(image, (page + 1) * image.len() as u64),
        _ => Ok(()),
    }
}

/// Delete every page file in `dir` whose table prefix `owns` accepts,
/// with the per-page `{prefix}.p{i}.pg` files (and their `.tmp`
/// siblings) that builds before the one-file layout wrote.
fn remove_table_files(dir: &Path, owns: impl Fn(&str) -> bool) -> io::Result<()> {
    let Ok(entries) = fs::read_dir(dir) else {
        return Ok(());
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let table = name.strip_suffix(".pages").or_else(|| {
            let page_file = name.strip_suffix(".pg").or(name.strip_suffix(".pg.tmp"))?;
            let (table, page) = page_file.rsplit_once(".p")?;
            page.parse::<u64>().is_ok().then_some(table)
        });
        if table.is_some_and(&owns) {
            fs::remove_file(entry.path())?;
        }
    }
    Ok(())
}

impl PagedTable {
    /// Open (or create) a paged table of `len` wide slots filled with
    /// `fill` (see [`PagedTable::with_cells`]).
    ///
    /// # Errors
    ///
    /// As [`PagedTable::with_cells`].
    pub fn open(spec: &PagedSpec, prefix: &str, len: u64, fill: u64) -> io::Result<Self> {
        Self::with_cells(spec, prefix, len, fill)
    }
}

impl<C: Cell> PagedTable<C> {
    /// Open (or create) a paged table of `len` slots in cells of type
    /// `C`, filled with `fill`: a page of `page_bytes` holds
    /// `page_bytes / size_of::<C>()` cells.
    ///
    /// With `spec.resume == false`, any page file already under this
    /// table's prefix is deleted first — a fresh run must not read a
    /// previous run's spill. With `resume == true` it is kept, its
    /// journal applied, and its pages re-verified one by one as the
    /// cache faults them in.
    ///
    /// # Errors
    ///
    /// Fails if the directory cannot be created, stale files cannot be
    /// removed, or a kept page file cannot be opened or repaired.
    ///
    /// # Panics
    ///
    /// Panics when `fill` does not fit the cell.
    pub fn with_cells(spec: &PagedSpec, prefix: &str, len: u64, fill: u64) -> io::Result<Self> {
        let fill = C::from_node(fill);
        fs::create_dir_all(&spec.dir)?;
        let spp = cells_per_page(spec.page_bytes, size_of::<C>());
        let npages = len.div_ceil(spp as u64);
        let nframes = frame_count(spec.budget_bytes, spec.page_bytes, npages) as usize;
        let path = table_path(&spec.dir, prefix);
        let file = if spec.resume {
            match open_rw(&path, false) {
                Ok(file) => {
                    apply_journal::<C>(&file, &mut vec![0; Self::slot_bytes(spp)], npages)?;
                    Some(file)
                }
                Err(e) if e.kind() == io::ErrorKind::NotFound => None,
                Err(e) => return Err(e),
            }
        } else {
            remove_table_files(&spec.dir, |table| table == prefix)?;
            None
        };
        Ok(PagedTable {
            path,
            file,
            len,
            spp,
            fill,
            nframes,
            frames: Vec::with_capacity(nframes),
            page_frame: vec![NO_FRAME; npages as usize],
            hand: 0,
        })
    }

    /// Number of pages this table spans.
    pub fn npages(&self) -> u64 {
        self.len.div_ceil(self.spp as u64)
    }

    /// Bytes of one page of this table.
    pub(crate) fn page_bytes(&self) -> usize {
        self.spp * size_of::<C>()
    }

    /// Bytes of one file slot (and one frame) of `spp`-cell pages.
    fn slot_bytes(spp: usize) -> usize {
        PAGE_OVERHEAD + spp * size_of::<C>()
    }

    /// Write frame `idx`'s page back: seal its image in place, write
    /// that to the journal, then to the page's own slot, creating the
    /// file on the first call.
    fn write_page(&mut self, idx: usize) -> io::Result<()> {
        let PageFrame { page, image, .. } = &mut self.frames[idx];
        let body = image.len() - 8;
        image[..4].copy_from_slice(&PAGE_MAGIC.to_le_bytes());
        image[4..8].copy_from_slice(&C::PAGE_VERSION.to_le_bytes());
        image[8..PAGE_HEADER].copy_from_slice(&page.to_le_bytes());
        let sum = Fnv1a::hash_words(&image[..body]);
        image[body..].copy_from_slice(&sum.to_le_bytes());
        let file = match &mut self.file {
            Some(file) => file,
            None => self.file.insert(open_rw(&self.path, true)?),
        };
        file.write_all_at(image, 0)?;
        file.write_all_at(image, (*page + 1) * image.len() as u64)
    }

    /// Load page `page` into frame `idx`: its slot's image, or the fill
    /// value in every cell when the slot is absent, torn, of another
    /// version (or cell width), or of another page.
    fn load_page(&mut self, page: u64, idx: usize) {
        let frame = &mut self.frames[idx];
        let at = (page + 1) * frame.image.len() as u64;
        let loaded = self.file.as_ref().is_some_and(|file| {
            file.read_exact_at(&mut frame.image, at).is_ok()
                && sealed_image::<C>(&frame.image) == Some(page)
        });
        if !loaded {
            frame.cells::<C>().fill(self.fill.to_le());
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
                image: vec![0; Self::slot_bytes(self.spp)],
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
                self.write_page(idx)
                    .unwrap_or_else(|e| panic!("{}: writing page {old}: {e}", self.path.display()));
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

impl<C: Cell> NodeTable for PagedTable<C> {
    fn len(&self) -> u64 {
        self.len
    }

    #[inline]
    fn get(&mut self, slot: u64) -> u64 {
        assert!(slot < self.len, "slot {slot} out of range {}", self.len);
        let (page, off) = (slot / self.spp as u64, (slot % self.spp as u64) as usize);
        let idx = self.frame_of(page);
        C::from_le(self.frames[idx].cells::<C>()[off]).to_node()
    }

    #[inline]
    fn set(&mut self, slot: u64, v: u64) {
        assert!(slot < self.len, "slot {slot} out of range {}", self.len);
        let cell = C::from_node(v);
        let (page, off) = (slot / self.spp as u64, (slot % self.spp as u64) as usize);
        let idx = self.frame_of(page);
        let frame = &mut self.frames[idx];
        frame.cells::<C>()[off] = cell.to_le();
        frame.dirty = true;
    }

    fn flush(&mut self) -> io::Result<()> {
        for i in 0..self.frames.len() {
            if self.frames[i].dirty {
                self.write_page(i)?;
                self.frames[i].dirty = false;
            }
        }
        // One sync settles every write-back since the last barrier, and
        // the directory sync the file's name, so a checkpoint taken
        // after this flush references only durable pages.
        let Some(file) = &self.file else {
            return Ok(());
        };
        file.sync_data()?;
        sync_dir(self.path.parent().expect("a page file has a directory"))
    }

    fn reset_from(&mut self, slot: u64) {
        // Fill the boundary page's tail in place ...
        let spp = self.spp as u64;
        let boundary = slot / spp;
        if !slot.is_multiple_of(spp) && boundary < self.npages() {
            let idx = self.frame_of(boundary);
            let fill = self.fill.to_le();
            let frame = &mut self.frames[idx];
            frame.cells::<C>()[(slot % spp) as usize..].fill(fill);
            frame.dirty = true;
        }
        // ... and drop every page wholly at or above the cut: the
        // cached frames, freed without write-back ...
        let first_dead = slot.div_ceil(spp);
        for page in first_dead..self.npages() {
            let idx = std::mem::replace(&mut self.page_frame[page as usize], NO_FRAME);
            if idx != NO_FRAME {
                let frame = &mut self.frames[idx as usize];
                frame.dirty = false;
                frame.referenced = false;
                frame.page = NO_PAGE;
            }
        }
        // ... and their slots, cut off the file. A journal naming a cut
        // page is cleared first: the next resume would write it back.
        if let Some(file) = &self.file {
            let slot_bytes = Self::slot_bytes(self.spp) as u64;
            let cleared = match journal_page::<C>(file, &mut vec![0; slot_bytes as usize]) {
                Some(page) if page >= first_dead => file.write_all_at(&[0; 8], 0),
                _ => Ok(()),
            };
            cleared
                .and_then(|()| file.set_len((first_dead + 1) * slot_bytes))
                .unwrap_or_else(|e| {
                    panic!("{}: cutting page {first_dead}: {e}", self.path.display())
                });
        }
    }
}

/// Enum dispatch over the two table kinds at the two cell widths —
/// engines hold this directly so the per-slot hot path is a branch, not
/// a virtual call, and the width costs no branch of its own.
#[derive(Debug)]
pub enum AnyTable {
    /// RAM-resident, wide cells.
    Resident(ResidentTable),
    /// RAM-resident, compact cells.
    CompactResident(ResidentTable<u32>),
    /// Disk-paged, wide cells.
    Paged(PagedTable),
    /// Disk-paged, compact cells.
    CompactPaged(PagedTable<u32>),
}

/// `$body` with `$t` bound to whichever table `$table` holds.
macro_rules! each_table {
    ($table:expr, $t:ident => $body:expr) => {
        match $table {
            AnyTable::Resident($t) => $body,
            AnyTable::CompactResident($t) => $body,
            AnyTable::Paged($t) => $body,
            AnyTable::CompactPaged($t) => $body,
        }
    };
}

impl AnyTable {
    /// Build a table of `len` slots filled with `fill` per `spec`, in
    /// cells wide enough for every label of an `n`-node network
    /// ([`compact_cells`]). Paged tables get the file prefix
    /// `rank{rank}.{name}`.
    ///
    /// # Errors
    ///
    /// Surfaces [`PagedTable::with_cells`] failures.
    pub fn build_for(
        n: u64,
        spec: &StoreSpec,
        rank: usize,
        name: &str,
        len: u64,
        fill: u64,
    ) -> io::Result<AnyTable> {
        let compact = compact_cells(n);
        Ok(match spec {
            StoreSpec::Resident if compact => {
                AnyTable::CompactResident(ResidentTable::with_cells(len, fill))
            }
            StoreSpec::Resident => AnyTable::Resident(ResidentTable::new(len, fill)),
            StoreSpec::Paged(p) => {
                let prefix = format!("rank{rank}.{name}");
                if compact {
                    AnyTable::CompactPaged(PagedTable::with_cells(p, &prefix, len, fill)?)
                } else {
                    AnyTable::Paged(PagedTable::open(p, &prefix, len, fill)?)
                }
            }
        })
    }

    /// [`AnyTable::build_for`] in wide cells, which hold any `u64`.
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
        Self::build_for(u64::MAX, spec, rank, name, len, fill)
    }

    /// Is this table disk-paged?
    pub fn is_paged(&self) -> bool {
        self.page_bytes().is_some()
    }

    /// Bytes of one page of a paged table; `None` when resident.
    pub(crate) fn page_bytes(&self) -> Option<usize> {
        match self {
            AnyTable::Resident(_) | AnyTable::CompactResident(_) => None,
            AnyTable::Paged(t) => Some(t.page_bytes()),
            AnyTable::CompactPaged(t) => Some(t.page_bytes()),
        }
    }
}

// `get`, `set` and `row_contains` are every engine's per-slot path, and
// `#[inline]` alone leaves the call to the inliner of each codegen unit:
// when engine 3 gained more call sites, engine 2's `advance_node` and
// `handle_msgs` started calling `get` out of line, costing engine 2
// 6–8 % of its CPU on `gen-e2-mpsim`. The dispatch is a four-arm match;
// forcing it inline keeps the resident arms a load or a store.
impl NodeTable for AnyTable {
    #[inline]
    fn len(&self) -> u64 {
        each_table!(self, t => t.len())
    }

    #[inline(always)]
    fn get(&mut self, slot: u64) -> u64 {
        each_table!(self, t => t.get(slot))
    }

    #[inline(always)]
    fn set(&mut self, slot: u64, v: u64) {
        each_table!(self, t => t.set(slot, v))
    }

    #[inline(always)]
    fn row_contains(&mut self, start: u64, len: u64, v: u64) -> bool {
        each_table!(self, t => t.row_contains(start, len, v))
    }

    fn flush(&mut self) -> io::Result<()> {
        each_table!(self, t => t.flush())
    }

    fn prefix_fnv(&mut self, len: u64) -> u64 {
        each_table!(self, t => t.prefix_fnv(len))
    }

    fn reset_from(&mut self, slot: u64) {
        each_table!(self, t => t.reset_from(slot))
    }
}

/// Serialize a table's committed prefix (`cnt` nodes × `spn` slots per
/// node) into a checkpoint payload.
///
/// Resident: `[cnt, slot values...]` — the historical format, unchanged,
/// in `u64` words at either cell width.
/// Paged: `[PAGED_PAYLOAD_MARK, cnt, prefix FNV, page bytes]` — the
/// slots stay in the page file; the table is flushed durably first so
/// the checkpoint never references pages newer than disk.
pub(crate) fn write_table_prefix(t: &mut AnyTable, cnt: u64, spn: u64, out: &mut Vec<u8>) {
    let prefix = cnt * spn;
    match t.page_bytes() {
        None => {
            out.extend_from_slice(&cnt.to_le_bytes());
            for s in 0..prefix {
                out.extend_from_slice(&t.get(s).to_le_bytes());
            }
        }
        Some(page_bytes) => {
            let page_bytes = page_bytes as u64;
            t.flush()
                .unwrap_or_else(|e| panic!("paged table flush failed while checkpointing: {e}"));
            for word in [PAGED_PAYLOAD_MARK, cnt, t.prefix_fnv(prefix), page_bytes] {
                out.extend_from_slice(&word.to_le_bytes());
            }
        }
    }
}

/// The header [`write_table_prefix`] opens a payload with: the committed
/// node count, plus — for a paged table, whose slots stay in the page
/// file — the FNV of the committed prefix and the page size.
pub(crate) enum TablePrefix {
    /// `[cnt, slot values...]`: the slots follow inline.
    Resident { cnt: u64 },
    /// `[PAGED_PAYLOAD_MARK, cnt, fnv, page_bytes]`.
    Paged {
        cnt: u64,
        fnv: u64,
        page_bytes: usize,
    },
}

impl TablePrefix {
    /// Parse the header, advancing `r` past it.
    pub(crate) fn read(r: &mut &[u8]) -> Result<TablePrefix, String> {
        let first = get_u64(r).ok_or("truncated checkpoint payload")?;
        if first == PER_PAGE_FILES_PAYLOAD_MARK {
            return Err(
                "the checkpoint references the per-page `.pg` files of an older \
                        build, which this build does not read"
                    .to_string(),
            );
        }
        if first != PAGED_PAYLOAD_MARK {
            return Ok(TablePrefix::Resident { cnt: first });
        }
        let cnt = get_u64(r).ok_or("truncated paged checkpoint payload")?;
        let fnv = get_u64(r).ok_or("truncated paged checkpoint checksum")?;
        let bytes = get_u64(r).ok_or("truncated paged checkpoint page size")?;
        match usize::try_from(bytes) {
            Ok(page_bytes) if page_bytes > 0 && page_bytes.is_multiple_of(8) => {
                Ok(TablePrefix::Paged {
                    cnt,
                    fnv,
                    page_bytes,
                })
            }
            _ => Err(format!("paged checkpoint names a page size of {bytes} B")),
        }
    }
}

/// Restore a table's committed prefix from a checkpoint payload written
/// by [`write_table_prefix`], advancing `r` past the consumed bytes and
/// clearing every slot above the prefix.
///
/// A resident-format payload loads into **either** table kind (that is
/// how elastic restart feeds re-partitioned state into a paged run). A
/// paged-format payload requires a paged table over the same directory
/// and page size: the prefix is re-read through the cache and its FNV
/// must match — a torn, lost, or foreign page (one of the other cell
/// width among them) surfaces here as a checksum mismatch.
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
        TablePrefix::Paged {
            fnv, page_bytes, ..
        } => {
            let Some(table_page_bytes) = t.page_bytes() else {
                return Err(
                    "checkpoint was taken with --memory-budget (it references page files); \
                     resume with the same --memory-budget/--store-dir"
                        .to_string(),
                );
            };
            if table_page_bytes != page_bytes {
                return Err(format!(
                    "checkpoint's pages are {page_bytes} B; resume with --page-bytes {page_bytes}"
                ));
            }
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

/// Serialize one rank's engine at a checkpoint cut — the same payload for
/// every engine: the committed prefix of its `F` table (`cnt` nodes ×
/// `spn` slots, [`write_table_prefix`]) followed by its counter words.
/// Nothing else survives a cut: waiter tables are provably empty there,
/// and cursors and caches are rebuilt from the table after
/// [`read_checkpoint_payload`].
pub(crate) fn write_checkpoint_payload<const N: usize>(
    t: &mut AnyTable,
    cnt: u64,
    spn: u64,
    counters: [u64; N],
    out: &mut Vec<u8>,
) {
    write_table_prefix(t, cnt, spn, out);
    counters.encode(out);
}

/// Load a [`write_checkpoint_payload`] into `t` and return its counter
/// words.
///
/// # Errors
///
/// A human-readable reason when the payload does not match this rank's
/// shape: a foreign prefix length, a truncated table or counter
/// section, or bytes left over after the counters.
pub(crate) fn read_checkpoint_payload<const N: usize>(
    t: &mut AnyTable,
    cnt: u64,
    spn: u64,
    payload: &[u8],
) -> Result<[u64; N], String> {
    let mut r = payload;
    read_table_prefix(t, cnt, spn, &mut r)?;
    let counters = <[u64; N]>::decode(&mut r).ok_or("truncated engine counters")?;
    if !r.is_empty() {
        return Err(format!("{} trailing bytes after the counters", r.len()));
    }
    Ok(counters)
}

/// Delete every page file belonging to `rank` inside `dir`, with the
/// per-page files older builds left — the page-file analogue of
/// [`crate::par::CheckpointStore::clear`].
pub fn clean_rank_pages(dir: &Path, rank: usize) {
    let head = format!("rank{rank}.");
    let _ = remove_table_files(dir, |table| table.starts_with(&head));
}

#[cfg(test)]
mod tests {
    use super::*;

    const FILL: u64 = u64::MAX;
    /// Bytes of one file slot under [`tiny_spec`]'s 4-slot pages.
    const SLOT: usize = PAGE_OVERHEAD + 32;

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

    /// The page index of a sealed wide (version-3) page image.
    fn sealed_page(buf: &[u8]) -> Option<u64> {
        sealed_image::<u64>(buf)
    }

    fn resume(spec: PagedSpec) -> PagedSpec {
        PagedSpec {
            resume: true,
            ..spec
        }
    }

    /// File slot `slot` of page file `bytes` (slot 0 is the journal).
    fn slot(bytes: &[u8], slot: usize) -> &[u8] {
        &bytes[slot * SLOT..(slot + 1) * SLOT]
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
        let mut t = PagedTable::open(&resume(tiny_spec(&dir, 64)), "rank1.f", len, FILL).unwrap();
        for s in 0..len {
            assert_eq!(t.get(s), s * 3 + 1);
        }
        // One file for the whole table, no per-page files.
        let names: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.file_name())
            .collect();
        assert_eq!(names, ["rank1.f.pages"]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_table_that_never_evicts_writes_no_file() {
        let dir = scratch("nofile");
        let mut t = PagedTable::open(&tiny_spec(&dir, 1 << 10), "rank0.f", 16, FILL).unwrap();
        for s in 0..16 {
            t.set(s, s);
        }
        assert!(!table_path(&dir, "rank0.f").exists());
        t.flush().unwrap();
        assert!(table_path(&dir, "rank0.f").exists(), "flush writes back");
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
        // What an older build left: a page file per page, and a temp.
        let stale = ["rank0.f.p0.pg", "rank0.f.p3.pg.tmp"];
        for name in stale {
            fs::write(dir.join(name), b"old").unwrap();
        }
        fs::write(dir.join("rank0.g.p0.pg"), b"old").unwrap();
        // resume: false wipes the prefix's files, old and new.
        let mut t = PagedTable::open(&tiny_spec(&dir, 64), "rank0.f", len, FILL).unwrap();
        assert_eq!(t.get(3), FILL, "stale page must not survive a fresh open");
        for name in stale {
            assert!(!dir.join(name).exists(), "{name} survived");
        }
        assert!(dir.join("rank0.g.p0.pg").exists(), "another table's file");
        let _ = fs::remove_dir_all(&dir);
    }

    /// A page image built by hand: header, slots, and a trailer of
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

    /// The single-lane word-wise FNV-1a that sealed version-2 pages.
    fn single_lane_words(bytes: &[u8]) -> u64 {
        let (words, tail) = bytes.as_chunks::<8>();
        let mut h = Fnv1a::from_digest(words.iter().fold(Fnv1a::OFFSET_BASIS, |h, w| {
            let h = (h ^ u64::from_le_bytes(*w)).wrapping_mul(Fnv1a::PRIME);
            h ^ (h >> 32)
        }));
        h.update(tail);
        h.digest()
    }

    /// Write the 12 slots `1000..1012` over three pages and flush, then
    /// rewrite page 2 so the journal holds it; the file's bytes.
    fn three_pages(dir: &Path) -> Vec<u8> {
        let mut t = PagedTable::open(&tiny_spec(dir, 64), "rank0.f", 12, FILL).unwrap();
        for s in 0..12 {
            t.set(s, 1000 + s);
        }
        t.flush().unwrap();
        t.set(8, 1008);
        t.flush().unwrap();
        let bytes = fs::read(table_path(dir, "rank0.f")).unwrap();
        assert_eq!(bytes.len(), 4 * SLOT);
        for page in 0..3 {
            let want: Vec<u64> = (0..4).map(|i| 1000 + 4 * page + i).collect();
            let image = page_image(3, page, &want, Fnv1a::hash_words);
            assert_eq!(slot(&bytes, page as usize + 1), image, "page {page}");
        }
        assert_eq!(slot(&bytes, 0), slot(&bytes, 3), "journal holds page 2");
        bytes
    }

    /// Resume the table [`three_pages`] wrote after `bytes` replaced its
    /// file, and read all 12 slots.
    fn resumed_slots(dir: &Path, bytes: &[u8]) -> Vec<u64> {
        fs::write(table_path(dir, "rank0.f"), bytes).unwrap();
        let spec = resume(tiny_spec(dir, 64));
        let mut t = PagedTable::open(&spec, "rank0.f", 12, FILL).unwrap();
        (0..12).map(|s| t.get(s)).collect()
    }

    #[test]
    fn torn_page_reads_as_absent() {
        let dir = scratch("torn");
        let good = three_pages(&dir);
        // Corrupt page 1 (slots 4..8, file slot 2) at every byte position
        // in turn: header, slots and trailer alike. The journal holds
        // page 2, so nothing repairs it.
        for at in 2 * SLOT..3 * SLOT {
            let mut bytes = good.clone();
            bytes[at] ^= 0xff;
            let got = resumed_slots(&dir, &bytes);
            for s in 0..12 {
                let want = if (4..8).contains(&s) { FILL } else { 1000 + s };
                assert_eq!(got[s as usize], want, "flip at byte {at}, slot {s}");
            }
        }
        // A torn journal is not applied, and the pages stand.
        for at in 0..SLOT {
            let mut bytes = good.clone();
            bytes[at] ^= 0xff;
            let got = resumed_slots(&dir, &bytes);
            assert_eq!(
                got,
                (1000..1012).collect::<Vec<_>>(),
                "journal flip at {at}"
            );
        }
        // A torn slot of the page the journal holds is repaired.
        let mut bytes = good.clone();
        bytes[3 * SLOT + 20] ^= 0xff;
        assert_eq!(
            resumed_slots(&dir, &bytes),
            (1000..1012).collect::<Vec<_>>()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// Simulate a kill after the first `written` bytes of the write-back
    /// that took page file `before` to `after`: the journal (file slot
    /// 0) is written first, then file slot `target`.
    fn killed_write_back(before: &[u8], after: &[u8], target: usize, written: usize) -> Vec<u8> {
        let mut bytes = before.to_vec();
        let journal = written.min(SLOT);
        bytes[..journal].copy_from_slice(&after[..journal]);
        let in_place = written.saturating_sub(SLOT);
        let at = target * SLOT;
        bytes[at..at + in_place].copy_from_slice(&after[at..at + in_place]);
        bytes
    }

    /// Page 0 of [`three_pages`]' table rewritten to `2000..2004`: the
    /// file before and after that write-back.
    fn rewrite_page_0(dir: &Path) -> (Vec<u8>, Vec<u8>) {
        let before = three_pages(dir);
        let spec = resume(tiny_spec(dir, 64));
        let mut t = PagedTable::open(&spec, "rank0.f", 12, FILL).unwrap();
        for s in 0..4 {
            t.set(s, 2000 + s);
        }
        t.flush().unwrap();
        let after = fs::read(table_path(dir, "rank0.f")).unwrap();
        assert_eq!(slot(&after, 0), slot(&after, 1), "journal holds page 0");
        (before, after)
    }

    #[test]
    fn whole_journal_over_a_torn_slot_resumes_the_new_image() {
        let dir = scratch("kill_slot");
        let (before, after) = rewrite_page_0(&dir);
        let new: Vec<u64> = (2000..2004).chain(1004..1012).collect();
        for written in SLOT..=2 * SLOT {
            let bytes = killed_write_back(&before, &after, 1, written);
            assert_eq!(resumed_slots(&dir, &bytes), new, "killed at byte {written}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_journal_over_a_whole_slot_resumes_the_old_image() {
        let dir = scratch("kill_journal");
        let (before, after) = rewrite_page_0(&dir);
        let old: Vec<u64> = (1000..1012).collect();
        for written in 0..SLOT {
            let bytes = killed_write_back(&before, &after, 1, written);
            assert_eq!(resumed_slots(&dir, &bytes), old, "killed at byte {written}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_one_and_two_bit_flip_of_a_page_fails_its_checks() {
        // Among the pairs: bit 63 of a slot with bit 63 of the trailer,
        // which a checksum fold that only carries upward cannot see.
        let good = page_image(3, 1, &[1004, 1005, 1006, 1007], Fnv1a::hash_words);
        let loads = |buf: &[u8]| sealed_page(buf) == Some(1);
        assert!(loads(&good));
        let bits = good.len() * 8;
        let mut bad = good.clone();
        for a in 0..bits {
            bad[a / 8] ^= 1 << (a % 8);
            assert!(!loads(&bad), "bit {a}");
            for b in a + 1..bits {
                bad[b / 8] ^= 1 << (b % 8);
                assert!(!loads(&bad), "bits {a} and {b}");
                bad[b / 8] ^= 1 << (b % 8);
            }
            bad[a / 8] ^= 1 << (a % 8);
        }
    }

    #[test]
    fn version_1_page_reads_as_absent() {
        let dir = scratch("v1");
        let slots = [5, 6, 7, 8];
        // What older builds wrote: version 1 under a bytewise FNV-1a, and
        // version 2 under the single-lane word-wise one. Neither those,
        // nor an old version under a valid four-lane trailer, nor the
        // current version under an old digest loads; the current format
        // does — as the journal, or in page 0's own slot.
        for (version, digest, loads) in [
            (1, Fnv1a::hash as fn(&[u8]) -> u64, false),
            (1, Fnv1a::hash_words, false),
            (2, single_lane_words, false),
            (2, Fnv1a::hash_words, false),
            (3, single_lane_words, false),
            (3, Fnv1a::hash_words, true),
        ] {
            let image = page_image(version, 0, &slots, digest);
            assert_eq!(sealed_page(&image).is_some(), loads, "version {version}");
            for file in [
                [&image[..], &[0; SLOT]].concat(),
                [&[0; SLOT], &image[..]].concat(),
            ] {
                fs::create_dir_all(&dir).unwrap();
                fs::write(table_path(&dir, "rank0.f"), &file).unwrap();
                let spec = resume(tiny_spec(&dir, 64));
                let mut t = PagedTable::open(&spec, "rank0.f", 4, FILL).unwrap();
                let want = if loads { 5 } else { FILL };
                assert_eq!(t.get(0), want, "version {version}");
            }
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
        // The same slots, as older builds would have sealed page 0, in
        // page 0's slot (the journal holds page 1).
        let path = table_path(&dir, "rank0.f");
        let good = fs::read(&path).unwrap();
        assert_eq!(slot(&good, 0), slot(&good, 2));
        let old_images = [
            page_image(1, 0, &[30, 31, 32, 33], Fnv1a::hash),
            page_image(2, 0, &[30, 31, 32, 33], single_lane_words),
        ];
        for image in old_images {
            let mut bytes = good.clone();
            bytes[SLOT..2 * SLOT].copy_from_slice(&image);
            fs::write(&path, &bytes).unwrap();
            let back = PagedTable::open(&resume(spec.clone()), "rank0.f", len, FILL).unwrap();
            let mut r: &[u8] = &payload;
            let err = read_table_prefix(&mut AnyTable::Paged(back), cnt, spn, &mut r).unwrap_err();
            assert!(err.contains("page files do not match"), "{err}");
        }
        // A payload from a build that kept a file per page names them
        // with the old mark, and is refused by name.
        let mut old = payload.clone();
        old[..8].copy_from_slice(&PER_PAGE_FILES_PAYLOAD_MARK.to_le_bytes());
        let back = PagedTable::open(&resume(spec), "rank0.f", len, FILL).unwrap();
        let mut r: &[u8] = &old;
        let err = read_table_prefix(&mut AnyTable::Paged(back), cnt, spn, &mut r).unwrap_err();
        assert!(err.contains("older build"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_or_extended_page_file_reads_as_none() {
        let dir = scratch("cut");
        let mut good = three_pages(&dir);
        // Without a journal to repair it, a page whose slot the file cuts
        // short reads as absent, at every length, and the pages before
        // it stand.
        good[..SLOT].fill(0);
        for cut in 0..good.len() {
            let got = resumed_slots(&dir, &good[..cut]);
            for s in 0..12u64 {
                let whole = cut >= (s as usize / 4 + 2) * SLOT;
                let want = if whole { 1000 + s } else { FILL };
                assert_eq!(
                    got[s as usize],
                    want,
                    "{cut} of {} bytes, slot {s}",
                    good.len()
                );
            }
        }
        // Bytes past the last slot read nothing into the table.
        let extended = [&good[..], &[0xff; SLOT + 3]].concat();
        assert_eq!(
            resumed_slots(&dir, &extended),
            (1000..1012).collect::<Vec<_>>()
        );
        // Read under another page size, no slot lines up with an image.
        fs::write(table_path(&dir, "rank0.f"), &good).unwrap();
        for page_bytes in [24, 40] {
            let spec = PagedSpec {
                page_bytes,
                ..resume(tiny_spec(&dir, 64))
            };
            let mut t = PagedTable::open(&spec, "rank0.f", 12, FILL).unwrap();
            for s in 0..12 {
                assert_eq!(t.get(s), FILL, "{page_bytes} B pages, slot {s}");
            }
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
        // Rewrite page 4, so the journal names it.
        t.set(17, 24);
        t.flush().unwrap();
        let path = table_path(&dir, "rank0.f");
        assert_eq!(sealed_page(slot(&fs::read(&path).unwrap(), 0)).unwrap(), 4);
        // Cut mid-page: slot 6 is inside page 1 (slots 4..8). Pages 2..5
        // are cut off the file, and the journal naming page 4 is
        // cleared, so a resume cannot bring page 4 back.
        t.reset_from(6);
        let bytes = fs::read(&path).unwrap();
        assert_eq!(bytes.len(), 3 * SLOT, "the file ends after page 1");
        assert!(sealed_page(slot(&bytes, 0)).is_none());
        for s in 0..6 {
            assert_eq!(t.get(s), s + 7, "prefix survives");
        }
        for s in 6..len {
            assert_eq!(t.get(s), FILL, "tail cleared, slot {s}");
        }
        drop(t);
        let mut t = PagedTable::open(&resume(tiny_spec(&dir, 64)), "rank0.f", len, FILL).unwrap();
        for s in 8..len {
            assert_eq!(t.get(s), FILL, "after resume, slot {s}");
        }
        assert_eq!(fs::metadata(&path).unwrap().len(), 3 * SLOT as u64);
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
            if paged {
                // Under another page size the same payload is refused.
                let other = spec.clone().with_resume(true).with_page_bytes(64);
                let mut back = AnyTable::build(&other, 0, "f", len, FILL).unwrap();
                let mut r: &[u8] = &payload;
                let err = read_table_prefix(&mut back, cnt, spn, &mut r).unwrap_err();
                assert!(err.contains("--page-bytes 32"), "{err}");
                // A page size no table can have is refused before any
                // page is read.
                for bad in [0u64, 12, u64::MAX] {
                    let mut bytes = payload.clone();
                    bytes[24..32].copy_from_slice(&bad.to_le_bytes());
                    let err = TablePrefix::read(&mut &bytes[..]).err().unwrap();
                    assert!(err.contains(&format!("page size of {bad} B")), "{err}");
                }
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
        // Corrupt a page below the committed prefix that the journal
        // does not hold, then restore.
        let path = table_path(&dir, "rank0.f");
        let mut bytes = fs::read(&path).unwrap();
        assert_ne!(sealed_page(slot(&bytes, 0)), Some(0));
        bytes[SLOT + SLOT / 2] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        let mut back =
            AnyTable::Paged(PagedTable::open(&resume(spec_p), "rank0.f", len, FILL).unwrap());
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
        // A store directory left by an older build holds a file per page,
        // some of engine 2's former `att`/`nxe` tables; the rank prefix
        // sweeps those too.
        let stale = [
            "rank0.f.p0.pg",
            "rank0.att.p0.pg",
            "rank0.nxe.p3.pg",
            "rank0.att.p1.pg.tmp",
        ];
        for name in stale {
            fs::write(dir.join(name), b"old").unwrap();
        }
        fs::write(dir.join("rank1.att.p0.pg"), b"old").unwrap();
        clean_rank_pages(&dir, 0);
        assert!(!table_path(&dir, "rank0.f").exists());
        assert!(table_path(&dir, "rank1.f").exists());
        for name in stale {
            assert!(!dir.join(name).exists(), "{name} survived");
        }
        assert!(dir.join("rank1.att.p0.pg").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn cells_are_compact_below_u32_max_for_tables_and_memo() {
        let wide_n = u64::from(u32::MAX);
        for (n, compact) in [(wide_n - 1, true), (wide_n, false)] {
            assert_eq!(compact_cells(n), compact, "n = {n}");
            let t = AnyTable::build_for(n, &StoreSpec::Resident, 0, "f", 10, FILL).unwrap();
            assert_eq!(
                matches!(t, AnyTable::CompactResident(_)),
                compact,
                "n = {n}"
            );
            let cell = if compact { 4 } else { 8 };
            assert_eq!(table_bytes(n, 10, &StoreSpec::Resident), 10 * cell);
            // The chain memo covers only labels below `u32::MAX`, so its
            // cells stay 4 bytes at every n.
            let part = crate::partition::build(crate::partition::Scheme::Rrp, n, 2);
            assert_eq!(crate::config::chain_memo_rows(1, &part, 0), 1);
            assert_eq!(crate::chain_memo_bytes(1, 3, &part, 0), 3 * 4);
        }
        let dir = scratch("width");
        let paged = StoreSpec::Paged(tiny_spec(&dir, 64));
        let t = AnyTable::build_for(wide_n - 1, &paged, 0, "f", 10, FILL).unwrap();
        assert!(matches!(t, AnyTable::CompactPaged(_)));
        assert_eq!(t.page_bytes(), Some(32));
        let t = AnyTable::build_for(wide_n, &paged, 0, "f", 10, FILL).unwrap();
        assert!(matches!(t, AnyTable::Paged(_)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compact_set_of_a_wide_label_panics_naming_it_and_writes_nothing() {
        let dir = scratch("narrow");
        let paged = StoreSpec::Paged(tiny_spec(&dir, 64));
        for spec in [StoreSpec::Resident, paged] {
            let mut t = AnyTable::build_for(1000, &spec, 0, "f", 8, FILL).unwrap();
            t.set(0, u64::from(u32::MAX) - 1);
            for label in [u64::from(u32::MAX), 1 << 40] {
                let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    t.set(1, label);
                }))
                .unwrap_err();
                let msg = err.downcast_ref::<String>().unwrap();
                assert!(
                    msg.contains(&format!("label {label} does not fit")),
                    "{msg}"
                );
                assert_eq!(t.get(1), FILL, "{spec:?}: a failed set truncated {label}");
            }
            assert_eq!(t.get(0), u64::from(u32::MAX) - 1);
            assert!(!t.row_contains(0, 8, u64::from(u32::MAX)));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compact_pages_are_version_4_images_of_u32_cells() {
        // 32-byte pages hold eight compact cells, so 12 slots span two
        // pages; the journal holds the last one written back.
        let dir = scratch("v4");
        let spec = tiny_spec(&dir, 64);
        let mut t = PagedTable::<u32>::with_cells(&spec, "rank0.f", 12, FILL).unwrap();
        for s in 0..12 {
            t.set(s, 1000 + s);
        }
        t.flush().unwrap();
        let bytes = fs::read(table_path(&dir, "rank0.f")).unwrap();
        assert_eq!(bytes.len(), 3 * SLOT);
        for page in 0..2u64 {
            let mut image = Vec::new();
            image.extend_from_slice(&PAGE_MAGIC.to_le_bytes());
            image.extend_from_slice(&4u32.to_le_bytes());
            image.extend_from_slice(&page.to_le_bytes());
            for i in 0..8 {
                let s = 8 * page + i;
                let cell = if s < 12 { 1000 + s as u32 } else { u32::MAX };
                image.extend_from_slice(&cell.to_le_bytes());
            }
            let sum = Fnv1a::hash_words(&image);
            image.extend_from_slice(&sum.to_le_bytes());
            assert_eq!(slot(&bytes, page as usize + 1), image, "page {page}");
            assert_eq!(sealed_image::<u32>(&image), Some(page));
            assert_eq!(sealed_page(&image), None, "a wide table reads it as absent");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn paged_checkpoint_resumed_at_the_other_width_is_refused() {
        let dir = scratch("xwidth");
        let spec = StoreSpec::Paged(tiny_spec(&dir, 64));
        let (cnt, spn) = (5u64, 2u64);
        let len = 8 * spn;
        let (compact, wide) = (u64::from(u32::MAX) - 1, u64::from(u32::MAX));
        for (from, to) in [(compact, wide), (wide, compact)] {
            let mut t = AnyTable::build_for(from, &spec, 0, "f", len, FILL).unwrap();
            for s in 0..len {
                t.set(s, 100 + s);
            }
            let mut payload = Vec::new();
            write_table_prefix(&mut t, cnt, spn, &mut payload);
            drop(t);
            let resume = spec.clone().with_resume(true);
            let mut back = AnyTable::build_for(to, &resume, 0, "f", len, FILL).unwrap();
            let mut r: &[u8] = &payload;
            let err = read_table_prefix(&mut back, cnt, spn, &mut r).unwrap_err();
            assert!(err.contains("page files do not match"), "{err}");
            for s in 0..len {
                assert_eq!(back.get(s), FILL, "slot {s} read across widths");
            }
            // At its own width the same payload resumes.
            let mut back = AnyTable::build_for(from, &resume, 0, "f", len, FILL).unwrap();
            let mut r: &[u8] = &payload;
            read_table_prefix(&mut back, cnt, spn, &mut r).unwrap();
            assert_eq!(back.get(cnt * spn - 1), 100 + cnt * spn - 1);
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
