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
//! **The page file is a cache.** A table lives in one file,
//! `{prefix}.pages`, page `p` at byte `p · page_bytes`, in raw
//! little-endian cells. Nothing outside the run reads it: a rank's
//! committed rows are durable in its part file, which a resume reads
//! back (`crate::par::Resume`), so the page file carries no header,
//! checksum or journal, is never synced, and is deleted when a table of
//! its prefix opens. A page that was never written back has no bytes in
//! the file and reads as the fill value; the page index knows which
//! pages have been written. The file is created at the first write-back.
//!
//! **Eviction.** The cache runs clock / second-chance: each frame has a
//! reference bit set on access; the clock hand clears bits until it
//! finds an unreferenced frame, writes it back if dirty, and reuses it.
//! The budget buys `max(2, budget / page_bytes)` frames of one page
//! each; the page index beside them ([`INDEX_BYTES_PER_PAGE`] per page
//! of the whole table) is not counted against it ([`table_bytes`] plans
//! both). A fault is one positioned read into the frame and a
//! write-back one positioned write from it, so once every frame exists
//! a fault neither allocates nor copies a page.

use std::fs;
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use crate::{Node, NILL};

/// Page size when none is given. A fault reads one page and a
/// write-back writes one, each one positioned call on an open file, so
/// a page costs its bytes, not a file operation: 4 KiB (the OS page)
/// beat 8 and 16 KiB on ext4 and on tmpfs at 1, 4 and 16 MiB budgets,
/// and 2 KiB did no better (EXPERIMENTS.md, "One file per paged
/// table").
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
/// each one page — and its page index. What [`AnyTable::build_for`]
/// allocates once every frame exists, and what `pagen info` plans.
pub fn table_bytes(n: u64, len: u64, spec: &StoreSpec) -> u64 {
    let cell = cell_bytes(n);
    match spec {
        StoreSpec::Resident => len * cell,
        StoreSpec::Paged(p) => {
            let npages = len.div_ceil(cells_per_page(p.page_bytes, cell as usize) as u64);
            let frames = frame_count(p.budget_bytes, p.page_bytes, npages);
            frames * p.page_bytes as u64 + npages * INDEX_BYTES_PER_PAGE
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
        .min(u64::from(SPILLED))
}

/// One node-table cell: a node label, or the sentinel [`Cell::NIL`]
/// standing for `NILL` (an empty slot). `u32` when [`compact_cells`]
/// holds — half the memory — `u64` otherwise.
pub trait Cell: Copy + Eq + std::fmt::Debug {
    /// The sentinel: `NILL` in a table.
    const NIL: Self;
    /// One cell's little-endian bytes in a page.
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

    /// The cells of a page, as little-endian byte arrays.
    fn le_cells(page: &mut [u8]) -> &mut [Self::Le];
}

impl Cell for u32 {
    const NIL: Self = u32::MAX;
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
    fn le_cells(page: &mut [u8]) -> &mut [[u8; 4]] {
        page.as_chunks_mut().0
    }
}

impl Cell for u64 {
    const NIL: Self = NILL;
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
    fn le_cells(page: &mut [u8]) -> &mut [[u8; 8]] {
        page.as_chunks_mut().0
    }
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
    /// Read by nothing: a page file is a cache that no run reopens. Kept
    /// only because the separately built benchmark crate under `perf/`
    /// still sets it.
    #[doc(hidden)]
    pub resume: bool,
}

impl StoreSpec {
    /// A paged spec with the default page size.
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

    /// Write every dirty page back to the page file (no-op when
    /// resident).
    fn flush(&mut self) -> io::Result<()>;
}

/// The classic in-RAM table: a `Vec` of cells, wide (`u64`) unless
/// built [`ResidentTable::with_cells`] of another [`Cell`].
#[derive(Debug)]
pub struct ResidentTable<C: Cell = u64> {
    slots: Vec<C>,
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
        ResidentTable {
            slots: vec![C::from_node(fill); len as usize],
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
}

/// `page_frame` entry of a page that is not resident and was never
/// written back: it reads as the fill value.
const NO_FRAME: u32 = u32::MAX;
/// `page_frame` entry of a page that is not resident and whose bytes are
/// in the page file. Every smaller entry is the index of the frame
/// holding the page.
const SPILLED: u32 = u32::MAX - 1;
/// `PageFrame::page` of a frame that holds no page.
const NO_PAGE: u64 = u64::MAX;

/// One cached page. Its buffer, one page long, lives as long as the
/// table: a load reads the page into it, a write-back writes it out.
struct PageFrame {
    page: u64,
    cells: Vec<u8>,
    dirty: bool,
    referenced: bool,
    /// Does the page file hold this page?
    spilled: bool,
}

/// A node table spilled to one page file under a byte-budgeted clock
/// cache (see the module docs), in wide (`u64`) cells unless opened
/// [`PagedTable::with_cells`] of another [`Cell`].
pub struct PagedTable<C: Cell = u64> {
    /// The page file, `{dir}/{prefix}.pages`.
    path: PathBuf,
    /// Open once the file exists, at the first write-back.
    file: Option<fs::File>,
    len: u64,
    /// Cells per page.
    spp: usize,
    fill: C,
    /// Frame cap (see `frame_count`).
    nframes: usize,
    frames: Vec<PageFrame>,
    /// `page_frame[page]`: the frame holding `page`, or [`NO_FRAME`] or
    /// [`SPILLED`]. Dense and sized at open: the
    /// [`INDEX_BYTES_PER_PAGE`] a table keeps outside its budget.
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
    /// Open a paged table of `len` wide slots filled with `fill` (see
    /// [`PagedTable::with_cells`]).
    ///
    /// # Errors
    ///
    /// As [`PagedTable::with_cells`].
    pub fn open(spec: &PagedSpec, prefix: &str, len: u64, fill: u64) -> io::Result<Self> {
        Self::with_cells(spec, prefix, len, fill)
    }
}

impl<C: Cell> PagedTable<C> {
    /// Open a paged table of `len` slots in cells of type `C`, filled
    /// with `fill`: a page of `page_bytes` holds `page_bytes /
    /// size_of::<C>()` cells. Any page file already under this table's
    /// prefix is deleted first — a run never reads another run's spill.
    ///
    /// # Errors
    ///
    /// Fails if the directory cannot be created or stale files cannot
    /// be removed.
    ///
    /// # Panics
    ///
    /// Panics when `fill` does not fit the cell.
    pub fn with_cells(spec: &PagedSpec, prefix: &str, len: u64, fill: u64) -> io::Result<Self> {
        let fill = C::from_node(fill);
        fs::create_dir_all(&spec.dir)?;
        remove_table_files(&spec.dir, |table| table == prefix)?;
        let spp = cells_per_page(spec.page_bytes, size_of::<C>());
        let npages = len.div_ceil(spp as u64);
        let nframes = frame_count(spec.budget_bytes, spec.page_bytes, npages) as usize;
        Ok(PagedTable {
            path: table_path(&spec.dir, prefix),
            file: None,
            len,
            spp,
            fill,
            nframes,
            frames: Vec::with_capacity(nframes),
            page_frame: vec![NO_FRAME; npages as usize],
            hand: 0,
        })
    }

    /// Write frame `idx`'s page back to its place in the file, creating
    /// the file on the first call.
    fn write_page(&mut self, idx: usize) -> io::Result<()> {
        let frame = &mut self.frames[idx];
        let file = match &mut self.file {
            Some(file) => file,
            None => self.file.insert(
                fs::File::options()
                    .read(true)
                    .write(true)
                    .create(true)
                    .truncate(true)
                    .open(&self.path)?,
            ),
        };
        file.write_all_at(&frame.cells, frame.page * frame.cells.len() as u64)?;
        frame.spilled = true;
        Ok(())
    }

    /// Frame index holding `page`, faulting it in on a miss.
    #[inline]
    fn frame_of(&mut self, page: u64) -> usize {
        match self.page_frame[page as usize] {
            idx if idx < SPILLED => {
                self.frames[idx as usize].referenced = true;
                idx as usize
            }
            _ => self.fault(page),
        }
    }

    /// Bring `page` into a frame, evicting (and writing back) another
    /// if the cache is full: its bytes from the file when it was written
    /// back before, the fill value in every cell otherwise. Panics on
    /// I/O failure — see the trait docs for why the per-slot path has
    /// no error channel.
    #[inline(never)]
    fn fault(&mut self, page: u64) -> usize {
        let idx = if self.frames.len() < self.nframes {
            self.frames.push(PageFrame {
                page: NO_PAGE,
                cells: vec![0; self.spp * size_of::<C>()],
                dirty: false,
                referenced: false,
                spilled: false,
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
            let spilled = self.frames[idx].spilled;
            self.page_frame[old as usize] = if spilled { SPILLED } else { NO_FRAME };
        }
        let spilled = self.page_frame[page as usize] == SPILLED;
        let frame = &mut self.frames[idx];
        if spilled {
            let file = self.file.as_ref().expect("a spilled page has a file");
            let at = page * frame.cells.len() as u64;
            file.read_exact_at(&mut frame.cells, at)
                .unwrap_or_else(|e| panic!("{}: reading page {page}: {e}", self.path.display()));
        } else {
            C::le_cells(&mut frame.cells).fill(self.fill.to_le());
        }
        frame.page = page;
        frame.dirty = false;
        frame.referenced = true;
        frame.spilled = spilled;
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
        C::from_le(C::le_cells(&mut self.frames[idx].cells)[off]).to_node()
    }

    #[inline]
    fn set(&mut self, slot: u64, v: u64) {
        assert!(slot < self.len, "slot {slot} out of range {}", self.len);
        let cell = C::from_node(v);
        let (page, off) = (slot / self.spp as u64, (slot % self.spp as u64) as usize);
        let idx = self.frame_of(page);
        let frame = &mut self.frames[idx];
        C::le_cells(&mut frame.cells)[off] = cell.to_le();
        frame.dirty = true;
    }

    fn flush(&mut self) -> io::Result<()> {
        for i in 0..self.frames.len() {
            if self.frames[i].dirty {
                self.write_page(i)?;
                self.frames[i].dirty = false;
            }
        }
        Ok(())
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
}

/// Delete every page file belonging to `rank` inside `dir`, with the
/// per-page files older builds left.
pub fn clean_rank_pages(dir: &Path, rank: usize) {
    let head = format!("rank{rank}.");
    let _ = remove_table_files(dir, |table| table.starts_with(&head));
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
            page_bytes: 32, // 4 wide or 8 compact slots per page
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
        // Every open wipes the prefix's files, old and new.
        let mut t = PagedTable::open(&tiny_spec(&dir, 64), "rank0.f", len, FILL).unwrap();
        assert!(!table_path(&dir, "rank0.f").exists());
        assert_eq!(t.get(3), FILL, "stale page must not survive an open");
        for name in stale {
            assert!(!dir.join(name).exists(), "{name} survived");
        }
        assert!(dir.join("rank0.g.p0.pg").exists(), "another table's file");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compact_pages_are_raw_u32_cells() {
        // 32-byte pages hold eight compact cells, so 20 slots span three
        // pages. Only pages 0 and 2 are ever written: page 1 has no bytes
        // in the file's hole and reads as the fill value, in a cache of
        // two frames that keeps evicting.
        let dir = scratch("raw");
        let spec = tiny_spec(&dir, 64);
        let mut t = PagedTable::<u32>::with_cells(&spec, "rank0.f", 20, FILL).unwrap();
        for s in (0..8).chain(16..20) {
            t.set(s, 1000 + s);
        }
        for s in 8..16 {
            assert_eq!(t.get(s), FILL, "never-written slot {s}");
        }
        t.flush().unwrap();
        let bytes = fs::read(table_path(&dir, "rank0.f")).unwrap();
        let cells = |range: std::ops::Range<u32>| -> Vec<u8> {
            range.flat_map(|c| c.to_le_bytes()).collect()
        };
        let want = [
            cells(1000..1008),
            vec![0; 32],
            cells(1016..1020),
            vec![0xff; 16],
        ]
        .concat();
        assert_eq!(bytes, want);
        for s in 0..20 {
            let want = if (8..16).contains(&s) { FILL } else { 1000 + s };
            assert_eq!(t.get(s), want, "slot {s}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn spec_builders_and_validation() {
        let spec = StoreSpec::paged("/tmp/x", 1_000).with_page_bytes(64);
        spec.validate();
        assert!(spec.is_paged());
        assert!(!StoreSpec::Resident.is_paged());
        match spec {
            StoreSpec::Paged(p) => assert_eq!((p.budget_bytes, p.page_bytes), (1_000, 64)),
            StoreSpec::Resident => panic!("builders must stay paged"),
        }
        assert_eq!(StoreSpec::Resident.with_page_bytes(64), StoreSpec::Resident);
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
}
