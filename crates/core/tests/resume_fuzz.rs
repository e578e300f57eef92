//! A damaged part never resumes into a wrong graph.
//!
//! A rank resumes from its part file's committed prefix, decoded by
//! `EdgeReader` and loaded into its table by the resume. Here that
//! prefix is damaged the ways a disk or a careless hand damages a file —
//! cut at every length, bits flipped, bytes inserted and removed — in
//! `bin` and in `txt`, and every case must end in a named error or in an
//! exact restore: a run whose whole output equals the undamaged one's.
//! Never a panic or a hang, and never an allocation beyond what an intact
//! resume makes and the words of an error: a counting
//! `#[global_allocator]` (this test binary only — the library crates
//! stay `forbid(unsafe_code)`) adds up every byte the measuring thread
//! allocates during a resume.

use pa_core::par::{self, CheckpointMeta, CheckpointStore, Resume, SavedCheckpoint};
use pa_core::partition::{self, AnyPartition, Scheme};
use pa_core::{Engine, GenOptions, PaConfig};
use pa_graph::io::{EdgeFormat, EdgeReader, EdgeWriter};
use pa_mpsim::LoopbackTransport;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::OnceLock;

thread_local! {
    /// Is this thread inside the measured section?
    static MEASURING: Cell<bool> = const { Cell::new(false) };
    /// Bytes this thread allocated while measuring: the tests run side
    /// by side, so the count is the thread's own.
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
    /// Has this thread resumed once? The first run on a thread also
    /// makes the standard library's lazy per-thread allocations.
    static WARM: Cell<bool> = const { Cell::new(false) };
}

struct Counting;

impl Counting {
    fn count(bytes: usize) {
        if MEASURING.try_with(Cell::get).unwrap_or(false) {
            ALLOCATED.with(|a| a.set(a.get() + bytes));
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

/// One rank's checkpointed run in one format: what it wrote, and the
/// checkpoint a resume starts from.
struct Case {
    cfg: PaConfig,
    opts: GenOptions,
    part: AnyPartition,
    format: EdgeFormat,
    /// The whole part the uninterrupted run wrote.
    full: Vec<u8>,
    saved: SavedCheckpoint,
    /// Bytes an intact resume allocates, and [`ERROR_BYTES`].
    budget: usize,
}

impl Case {
    /// The committed prefix the checkpoint names.
    fn prefix(&self) -> &[u8] {
        &self.full[..self.saved.bytes as usize]
    }

    /// Resume from `committed` as the rank's committed edges, into a
    /// sink holding the intact prefix: the whole output, or the error;
    /// and the bytes the resume allocated.
    fn resume(&self, committed: &[u8]) -> (Result<Vec<u8>, String>, usize) {
        if !WARM.replace(true) {
            let _ = self.resume(self.prefix());
        }
        let mut out = self.prefix().to_vec();
        out.reserve(self.full.len());
        let sink = EdgeWriter::resume(&mut out, self.format, self.saved.edges, self.saved.bytes);
        let edges = &mut EdgeReader::new(committed, self.format);
        let mut comm = LoopbackTransport::new();
        ALLOCATED.set(0);
        MEASURING.with(|m| m.set(true));
        let result = par::generate_rank_streaming_recoverable(
            &self.cfg,
            &self.part,
            &self.opts,
            &mut comm,
            sink,
            None,
            Some(Resume {
                saved: &self.saved,
                edges,
            }),
        );
        MEASURING.with(|m| m.set(false));
        let allocated = ALLOCATED.get();
        let result = result.map(|(sink, _)| sink.finish().unwrap());
        (result.map(|_| out), allocated)
    }

    /// `committed` resumes exactly or fails by name, within the budget.
    fn check(&self, committed: &[u8], what: &str) {
        let (result, allocated) = self.resume(committed);
        assert!(
            allocated <= self.budget,
            "{what}: {allocated} bytes allocated, the budget is {} ({:?})",
            self.budget,
            result.as_ref().err()
        );
        match result {
            Ok(out) => assert!(out == self.full, "{what}: resumed into another graph"),
            Err(e) => assert!(
                e.starts_with("rank 0: resuming after epoch 2: "),
                "{what}: {e}"
            ),
        }
    }
}

/// Room for a failed resume's error: its message and the `io::Error`
/// the reader built it from, a few hundred bytes.
const ERROR_BYTES: usize = 1 << 10;

/// The run both formats share: one engine-3 rank of 240 nodes in
/// epochs of 60 labels, resumed after epoch 2 (cut 180).
fn case(format: EdgeFormat) -> &'static Case {
    static CASES: [OnceLock<Case>; 2] = [OnceLock::new(), OnceLock::new()];
    CASES[usize::from(format.id())].get_or_init(|| {
        let cfg = PaConfig::new(240, 3).with_seed(17);
        let opts = GenOptions::default()
            .with_engine(Engine::Chain)
            .with_checkpoint_interval(60);
        let part = partition::build(Scheme::Rrp, cfg.n, 1);
        let dir = std::env::temp_dir().join(format!(
            "pa_resume_fuzz_{}_{}",
            format.name(),
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let meta = CheckpointMeta::for_run(&cfg, Scheme::Rrp, 1, &opts, format);
        let store = CheckpointStore::new(&dir, 0, meta).unwrap();
        let mut full = Vec::new();
        let (sink, _) = par::generate_rank_streaming_recoverable(
            &cfg,
            &part,
            &opts,
            &mut LoopbackTransport::new(),
            EdgeWriter::new(&mut full, format),
            Some(&store),
            None,
        )
        .unwrap();
        sink.finish().unwrap();
        let saved = store.load(store.latest().unwrap()).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(saved.hi, 180);
        let mut case = Case {
            cfg,
            opts,
            part,
            format,
            full,
            saved,
            budget: usize::MAX,
        };
        let (intact, allocated) = case.resume(case.prefix());
        assert_eq!(intact.unwrap(), case.full, "the intact prefix resumes");
        case.budget = allocated + ERROR_BYTES;
        case
    })
}

const FORMATS: [EdgeFormat; 2] = [EdgeFormat::Binary, EdgeFormat::Text];

#[test]
fn a_part_cut_at_every_length_fails_by_name() {
    for format in FORMATS {
        let case = case(format);
        let prefix = case.prefix();
        for len in 0..prefix.len() {
            let (result, _) = case.resume(&prefix[..len]);
            let e = result.expect_err("a cut prefix resumed");
            assert!(e.starts_with("rank 0: resuming after epoch 2: "), "{e}");
        }
    }
}

#[test]
fn a_record_without_an_end_fails_by_name_without_allocating() {
    // Ten megabytes of digits and no newline, or of bytes past the
    // watermark: the reader holds one record, never the input.
    let case = case(EdgeFormat::Text);
    let mut digits = case.prefix().to_vec();
    digits.extend(std::iter::repeat_n(b'7', 10 << 20));
    case.check(&digits, "an endless txt record");
    let long = [case.prefix(), b"1 0\n".repeat(1 << 18).as_slice()].concat();
    case.check(&long, "records past the watermark");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// One to three edits anywhere in the prefix: a flipped bit, an
    /// inserted byte, a removed byte.
    #[test]
    fn a_damaged_part_resumes_exactly_or_fails_by_name(
        text in any::<bool>(),
        edits in prop_vec((any::<u64>(), 0u8..3, any::<u8>()), 1..4),
    ) {
        let case = case(if text { EdgeFormat::Text } else { EdgeFormat::Binary });
        let mut bytes = case.prefix().to_vec();
        for &(at, kind, byte) in &edits {
            let len = bytes.len() as u64;
            match kind {
                0 if len > 0 => bytes[(at % len) as usize] ^= 1 << (byte % 8),
                1 => bytes.insert((at % (len + 1)) as usize, byte),
                _ if len > 0 => {
                    bytes.remove((at % len) as usize);
                }
                _ => {}
            }
        }
        case.check(&bytes, &format!("edits {edits:?}"));
    }
}
