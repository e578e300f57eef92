//! Byte-mutation fuzz of the PAG container readers.
//!
//! Valid containers get their count and length fields overwritten with
//! oversized values, then bytes flipped, inserted and removed, then a
//! cut; `container::read_meta` and `container::read` read the result
//! through a reader that hands out a few bytes per call. Every read must
//! end in `Ok` or in a named `InvalidData` / `UnexpectedEof` error: no
//! panic, no hang, and — measured by a counting `#[global_allocator]`
//! (this test binary only; the library crates stay `forbid(unsafe_code)`)
//! — never more live heap than a constant plus a multiple of the input.

use pa_graph::container::{self, Meta};
use pa_graph::{io, EdgeList};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Is this thread inside the measured section?
    static MEASURING: Cell<bool> = const { Cell::new(false) };
    /// Bytes this thread allocated minus bytes it freed since the
    /// section began, and the highest that reached.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

struct Counting;

impl Counting {
    fn count(delta: isize) {
        if MEASURING.try_with(Cell::get).unwrap_or(false) {
            let live = LIVE.with(|l| {
                l.set(l.get() + delta);
                l.get()
            });
            PEAK.with(|p| p.set(p.get().max(live)));
        }
    }
}

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// a side effect only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size() as isize);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Self::count(-(layout.size() as isize));
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// `f`'s result and the peak heap it held live on this thread.
fn peak_heap<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LIVE.with(|l| l.set(0));
    PEAK.with(|p| p.set(0));
    MEASURING.with(|m| m.set(true));
    let out = f();
    MEASURING.with(|m| m.set(false));
    (out, PEAK.with(Cell::get).max(0) as usize)
}

/// A reader that hands out at most `chunk` bytes per call.
struct Trickle<'a> {
    bytes: &'a [u8],
    chunk: usize,
}

impl std::io::Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.chunk).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

/// Live heap a read may hold beyond what the input pays for: the
/// `BufReader`'s 8 KiB buffer and small fixed allocations.
const HEAP_CONSTANT: usize = 16 << 10;
/// Live heap per input byte: an edge list holds 16 B per 16 input bytes,
/// a shard list 24 B per 8-byte count, and a growing list at most
/// doubles what it holds.
const HEAP_PER_BYTE: usize = 8;

/// The offsets of every count and length field of a container written
/// from `meta` and `counts`, each with its width in bytes.
fn fields(meta: &Meta, counts: &[u64]) -> Vec<(usize, usize)> {
    // magic 8 | version 4 | n 8 | shards 4 | attrs 4 | (len 4, bytes)* | counts 8*
    let mut out = vec![(20, 4), (24, 4)];
    let mut at = 28;
    for (k, v) in &meta.attrs {
        for s in [k, v] {
            out.push((at, 4));
            at += 4 + s.len();
        }
    }
    out.extend((0..counts.len()).map(|i| (at + 8 * i, 8)));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn mutated_containers_end_in_ok_or_named_errors(
        n in 1u64..64,
        attrs in prop_vec((0u64..1000, 0usize..12), 0..4),
        shards in prop_vec(prop_vec((any::<u64>(), any::<u64>()), 0..12), 0..4),
        oversize in prop_vec((any::<u64>(), 0u8..5), 0..3),
        edits in prop_vec((any::<u64>(), any::<u8>(), 0u8..3), 0..6),
        cut in any::<u64>(),
        whole in any::<bool>(),
        chunk in 1usize..9,
    ) {
        let mut meta = Meta::new(n);
        for &(key, len) in &attrs {
            meta = meta.with(&format!("k{key}"), "v".repeat(len));
        }
        let shards: Vec<EdgeList> = shards
            .iter()
            .map(|s| EdgeList::from_vec(s.iter().map(|&(u, v)| (u % n, v % n)).collect()))
            .collect();
        let counts: Vec<u64> = shards.iter().map(|s| s.len() as u64).collect();
        let mut bytes = Vec::new();
        container::write_header(&mut bytes, &meta, &counts).unwrap();
        for shard in &shards {
            io::write_binary(&mut bytes, shard).unwrap();
        }
        let fields = fields(&meta, &counts);
        for (pick, size) in oversize {
            let (at, width) = fields[(pick % fields.len() as u64) as usize];
            let value: u64 = match size {
                0 => 1 << 40,
                1 => 1 << 62,
                2 => u64::MAX,
                3 => 1 << 20,
                _ => (1 << 20) + 1,
            };
            bytes[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
        }
        for (pos, byte, kind) in edits {
            let at = (pos % (bytes.len() as u64 + 1)) as usize;
            match kind {
                0 if at < bytes.len() => bytes[at] ^= byte,
                1 => bytes.insert(at, byte),
                _ if at < bytes.len() => {
                    bytes.remove(at);
                }
                _ => {}
            }
        }
        bytes.truncate((cut % (bytes.len() as u64 + 1)) as usize);

        let reader = Trickle { bytes: &bytes, chunk };
        let (result, peak) = peak_heap(|| {
            if whole {
                container::read(reader).map(|(m, s)| (m, s.iter().map(|s| s.len() as u64).collect()))
            } else {
                container::read_meta(reader)
            }
        });
        prop_assert!(
            peak <= HEAP_CONSTANT + HEAP_PER_BYTE * bytes.len(),
            "{peak} B live reading {} bytes", bytes.len()
        );
        match result {
            Ok((_, got)) => {
                // What `read` returns agrees with its own header.
                let (_, declared) = container::read_meta(&bytes[..]).unwrap();
                prop_assert_eq!(got, declared);
            }
            Err(e) => {
                prop_assert!(
                    matches!(
                        e.kind(),
                        std::io::ErrorKind::InvalidData | std::io::ErrorKind::UnexpectedEof
                    ),
                    "{e}"
                );
                prop_assert!(!e.to_string().is_empty());
            }
        }
    }
}
