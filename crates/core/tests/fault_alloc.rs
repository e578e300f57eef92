//! A page fault allocates nothing.
//!
//! A counting `#[global_allocator]` (this test binary only — the library
//! crates stay `forbid(unsafe_code)`) adds up every byte the measuring
//! thread allocates. A cold `PagedTable`'s first faults take its frames
//! from the arena it reserved at open. A warm one — every cache frame in
//! use and every page in the file — reuses its own frames for each
//! fault: write-back of the evicted page, then a read. Neither
//! allocates a byte.

use pa_core::store::{NodeTable, PagedSpec, PagedTable};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Is this thread inside the measured section?
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

struct Counting;

impl Counting {
    fn count(bytes: usize) {
        if MEASURING.try_with(Cell::get).unwrap_or(false) {
            ALLOCATED.fetch_add(bytes, Ordering::Relaxed);
        }
    }
}

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// side effect only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const PAGES: u64 = 64;
const SLOTS_PER_PAGE: u64 = 512;
const FRAMES: u64 = 4;
const FAULTS: u64 = 10_000;

/// A spec of `FRAMES` frames of `SLOTS_PER_PAGE` wide slots, in a fresh
/// directory named by `tag`.
fn spec(tag: &str) -> PagedSpec {
    let dir = std::env::temp_dir().join(format!("pa_fault_alloc_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    PagedSpec {
        dir,
        budget_bytes: FRAMES * SLOTS_PER_PAGE * 8,
        page_bytes: (SLOTS_PER_PAGE * 8) as usize,
        resume: false,
    }
}

/// Bytes this thread allocates while running `f`.
fn allocated_by(f: impl FnOnce()) -> usize {
    let before = ALLOCATED.load(Ordering::Relaxed);
    MEASURING.with(|m| m.set(true));
    f();
    MEASURING.with(|m| m.set(false));
    ALLOCATED.load(Ordering::Relaxed) - before
}

#[test]
fn a_cold_paged_table_fills_its_frames_without_allocating() {
    let spec = spec("cold");
    let len = PAGES * SLOTS_PER_PAGE;
    let mut wide = PagedTable::open(&spec, "rank0.f", len, u64::MAX).unwrap();
    let mut compact = PagedTable::<u32>::with_cells(&spec, "rank1.f", len, u64::MAX).unwrap();
    // One write to each of the first `FRAMES` pages (a compact page
    // holds twice the slots), so each takes a frame that did not exist
    // yet.
    let allocated = allocated_by(|| {
        for page in 0..FRAMES {
            wide.set(page * SLOTS_PER_PAGE, page);
            compact.set(page * 2 * SLOTS_PER_PAGE, page);
        }
    });
    assert_eq!(
        allocated, 0,
        "{FRAMES} cold faults allocated {allocated} bytes"
    );
    for page in 0..FRAMES {
        assert_eq!(wide.get(page * SLOTS_PER_PAGE), page);
        assert_eq!(compact.get(page * 2 * SLOTS_PER_PAGE), page);
    }
    drop((wide, compact));
    let _ = std::fs::remove_dir_all(&spec.dir);
}

#[test]
fn a_warm_paged_table_faults_without_allocating() {
    let spec = spec("warm");
    let len = PAGES * SLOTS_PER_PAGE;
    let mut table = PagedTable::open(&spec, "rank0.f", len, u64::MAX).unwrap();
    // Warm: every page written (so every fault below reads a real file)
    // and read back, so all four frames exist.
    for slot in 0..len {
        table.set(slot, slot);
    }
    for slot in 0..len {
        assert_eq!(table.get(slot), slot);
    }

    // Pages in a stride coprime to the page count: a page comes back
    // only after every other one, so with four frames each access
    // faults. Which slot, and whether it is read or written, is random.
    let mut rng = 0x9e37_79b9_7f4a_7c15u64;
    let mut acc = 0u64;
    let allocated = allocated_by(|| {
        for i in 0..FAULTS {
            rng = rng
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let slot = (i * 7 % PAGES) * SLOTS_PER_PAGE + (rng >> 33) % SLOTS_PER_PAGE;
            if rng >> 63 == 1 {
                table.set(slot, rng);
            } else {
                acc ^= table.get(slot);
            }
        }
    });
    assert_ne!(acc, 0);
    assert_eq!(allocated, 0, "{FAULTS} faults allocated {allocated} bytes");
    drop(table);
    let _ = std::fs::remove_dir_all(&spec.dir);
}
