//! A page fault allocates nothing.
//!
//! A counting `#[global_allocator]` (this test binary only — the library
//! crates stay `forbid(unsafe_code)`) adds up every byte the measuring
//! thread allocates. A `PagedTable` is warmed until every cache frame
//! exists and every page is in the file; after that, each fault —
//! write-back of the evicted page, then a read — must reuse the table's
//! own buffers, so 10 000 of them allocate zero bytes.

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
const FAULTS: u64 = 10_000;

#[test]
fn a_warm_paged_table_faults_without_allocating() {
    let dir = std::env::temp_dir().join(format!("pa_fault_alloc_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = PagedSpec {
        dir: dir.clone(),
        budget_bytes: 4 * SLOTS_PER_PAGE * 8,
        page_bytes: (SLOTS_PER_PAGE * 8) as usize,
        resume: false,
    };
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
    MEASURING.with(|m| m.set(true));
    let mut acc = 0u64;
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
    MEASURING.with(|m| m.set(false));
    let allocated = ALLOCATED.load(Ordering::Relaxed);
    assert_ne!(acc, 0);
    assert_eq!(allocated, 0, "{FAULTS} faults allocated {allocated} bytes");
    drop(table);
    let _ = std::fs::remove_dir_all(&dir);
}
