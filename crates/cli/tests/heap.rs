//! Heap high-water guard for the message-passing engines' per-node state.
//!
//! A counting `#[global_allocator]` (this test binary only — the library
//! crates stay `forbid(unsafe_code)`) records the peak of live heap bytes
//! across an in-process P = 2 run into a `CountSink`, so nothing but the
//! engines' own state is allocated. Engine 2 keeps 17.5 B/node at x = 4
//! (F table 16 in 4-byte cells, a one-byte outstanding-request tag, one
//! waiter bit per slot); a per-node cursor and attempt counter made that
//! 24.5, 8-byte cells 40.5, and the dense waiter table and per-slot
//! attempt counters before them 200. Engine 1 keeps 4.1 B/node and
//! engine 3 its 16 B/node F table plus its fixed-size chain memo.
//! Every guard's failure message prints each peak it took, so a run
//! inflated by queued packets shows apart from a table that grew.
//! The same run is what `pagen info --n` claims to predict, so the
//! estimate is held to the measurement here. And `pagen generate` itself
//! streams every output format and model: its default PAG container costs
//! no more heap than a raw `bin` file of the same run, and a Chung–Lu run
//! holds its weights, never its edges.

use pa_core::par::{self, CountSink};
use pa_core::partition::Scheme;
use pa_core::{Engine, GenOptions, PaConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

impl Counting {
    fn grew(by: usize) {
        let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`; the counters
// are side effects only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            Self::grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            Self::grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                Self::grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The counters are process-wide, so measured sections take turns.
static TURN: Mutex<()> = Mutex::new(());

const N: u64 = 200_000;
const NRANKS: usize = 2;
/// Engine 3's chain-memo rows in every measured run: below each rank's
/// remote labels at both sizes the slope is taken between, so the memo
/// (whose bytes `chain_memo_bytes_is_what_the_memo_allocates` pins) is
/// the same at both and cancels. Turning it off instead can blow chain walks up.
const MEMO_NODES: u64 = 1 << 16;

/// Peak live heap, over what was live before, of one in-process run of
/// `engine` on `n` nodes with `x` edges each.
fn peak_heap_bytes(engine: Engine, x: u64, n: u64) -> usize {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = PaConfig::new(n, x).with_seed(7);
    let opts = GenOptions::default()
        .with_engine(engine)
        .with_chain_memo(MEMO_NODES);
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let outs = par::generate_streaming(&cfg, Scheme::Rrp, NRANKS, &opts, |_| CountSink::default());
    let peak = PEAK.load(Ordering::Relaxed);
    let edges: u64 = outs.iter().map(|o| o.sink.edges).sum();
    assert_eq!(edges, cfg.expected_edges());
    peak.saturating_sub(before)
}

/// The lowest peak of up to ten runs, stopping at the first one at or
/// under `enough`, and every peak taken. The engine's own state is the
/// same in every run; what varies is how many packets sit queued for a
/// rank that lost its core (the in-process channel is unbounded), and
/// that only ever adds — so the lowest peak is the estimate of the
/// state, and a table that grew per node raises every run. Five runs
/// were too few on a busy 2-core host: engine 2's slope guard has 1.5 MB
/// of margin at 4N, and all five of its 4N runs queued more than that.
fn floor_heap_bytes(engine: Engine, x: u64, n: u64, enough: usize) -> (usize, Vec<usize>) {
    let mut peaks = Vec::new();
    let mut floor = usize::MAX;
    for _ in 0..10 {
        peaks.push(peak_heap_bytes(engine, x, n));
        floor = floor.min(peaks[peaks.len() - 1]);
        if floor <= enough {
            break;
        }
    }
    (floor, peaks)
}

/// What `engine`'s peak heap grows by per node between `N` and `4N`
/// nodes, so that what does not grow with n cancels; the larger floor
/// stops early once the slope is under `bound`. Returns the slope and
/// every peak taken, for the failure message.
fn heap_bytes_per_node(engine: Engine, x: u64, bound: f64) -> (f64, String) {
    let big = 4 * N;
    let (small, small_peaks) = floor_heap_bytes(engine, x, N, 0);
    let enough = small + (bound * (big - N) as f64) as usize;
    let (large, large_peaks) = floor_heap_bytes(engine, x, big, enough);
    let slope = large.saturating_sub(small) as f64 / (big - N) as f64;
    let peaks = format!("peaks {small_peaks:?} B at n = {N}, {large_peaks:?} B at n = {big}");
    (slope, peaks)
}

/// `pagen info`'s resident total for an engine-2 run on `n` nodes, summed
/// over the ranks.
fn info_resident_bytes(n: u64) -> f64 {
    let argv = [
        "info",
        "--n",
        &n.to_string(),
        "--x",
        "4",
        "--ranks",
        "2",
        "--engine",
        "2",
    ]
    .map(String::from);
    let mut out = Vec::new();
    pa_cli::run(&argv, &mut out).unwrap_or_else(|e| panic!("pagen info: {}", e.message()));
    let text = String::from_utf8(out).unwrap();
    let total = text
        .lines()
        .find_map(|l| l.strip_prefix("total: "))
        .unwrap_or_else(|| panic!("no total line in:\n{text}"));
    let mut words = total.split_whitespace();
    let value: f64 = words.next().unwrap().parse().unwrap();
    let unit = match words.next().unwrap() {
        "KiB" => 1024.0,
        "MiB" => 1024.0 * 1024.0,
        other => panic!("unexpected unit {other:?} in {total:?}"),
    };
    value * unit * NRANKS as f64
}

#[test]
fn engine2_peak_heap_stays_under_64_bytes_per_node() {
    // What does not grow with n — message buffers (`buffer_capacity`
    // messages of 32 B per destination and class), packets in flight and
    // pooled, the hub replicas — peaks at 4.5–6.5 MB on this tuple.
    let bound = 64 * N as usize + (8 << 20);
    let (peak, peaks) = floor_heap_bytes(Engine::General, 4, N, bound);
    // Measured 9.5–10.0 MB with 4-byte cells (12.9–14.6 MB with 8-byte
    // ones); the dense waiter table and per-slot attempt counters
    // measured 43.6 MB = 218 B/node.
    assert!(
        peak <= bound,
        "engine 2 peak live heap {peak} B = {:.1} B/node (peaks {peaks:?} B)",
        peak as f64 / N as f64
    );
}

#[test]
fn engine1_peak_heap_stays_under_16_bytes_per_node() {
    let bound = 16 * N as usize + (1 << 20);
    let (peak, peaks) = floor_heap_bytes(Engine::X1, 1, N, bound);
    // 4 B/node of F table plus a waiter bit: measured 2.0–2.1 MB (2.8 MB
    // with 8-byte cells). The dense waiter table added 32 B/node (19.2 MB
    // with its traffic).
    assert!(
        peak <= bound,
        "engine 1 peak live heap {peak} B = {:.1} B/node (peaks {peaks:?} B)",
        peak as f64 / N as f64
    );
}

#[test]
fn engine2_heap_grows_at_most_20_bytes_per_node() {
    // F table 16 (four 4-byte cells), the request tag 1, waiter bits
    // 0.5: 17.5 B/node. A cursor + attempt counter per node made it
    // 24.5, and with 8-byte cells it was 40.5.
    let (slope, peaks) = heap_bytes_per_node(Engine::General, 4, 20.0);
    assert!(
        slope <= 20.0,
        "engine 2 heap grows by {slope:.1} B/node ({peaks})"
    );
}

#[test]
fn engine1_heap_grows_at_most_6_bytes_per_node() {
    // One 4-byte cell and a waiter bit: 4.1 B/node; 8.1 with 8-byte cells.
    let (slope, peaks) = heap_bytes_per_node(Engine::X1, 1, 6.0);
    assert!(
        slope <= 6.0,
        "engine 1 heap grows by {slope:.1} B/node ({peaks})"
    );
}

#[test]
fn engine3_heap_grows_at_most_18_bytes_per_node() {
    // The F table's four 4-byte cells, 16 B/node beside the fixed memo,
    // and nothing else per node; a u32 cursor per node made it 20.
    let (slope, peaks) = heap_bytes_per_node(Engine::Chain, 4, 18.0);
    assert!(
        slope <= 18.0,
        "engine 3 heap grows by {slope:.1} B/node ({peaks})"
    );
}

/// Peak live heap, over what was live before, of one `pagen generate`
/// of `n` nodes at x = 4 and P = 2 with the extra `flags`, written in
/// `format`.
fn generate_peak_heap_bytes(n: u64, flags: &[&str], format: &str) -> usize {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let path = std::env::temp_dir().join(format!("pagen_heap_{}.{format}", flags.concat()));
    let n = n.to_string();
    let ranks = NRANKS.to_string();
    let path_arg = path.to_string_lossy();
    let mut argv: Vec<String> = [
        "generate", "--n", &n, "--x", "4", "--ranks", &ranks, "--seed", "7", "--format", format,
        "--out", &path_arg,
    ]
    .map(String::from)
    .to_vec();
    argv.extend(flags.iter().map(|f| f.to_string()));
    let mut out = Vec::new();
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    pa_cli::run(&argv, &mut out).unwrap_or_else(|e| panic!("pagen generate: {}", e.message()));
    let peak = PEAK.load(Ordering::Relaxed);
    std::fs::remove_file(&path).unwrap();
    peak.saturating_sub(before)
}

#[test]
fn pag_output_peaks_no_higher_than_bin() {
    // A PAG container that held every edge before writing would add
    // 16 B/edge: 12.8 MB at this tuple, far past the 1 MiB allowed.
    for engine in ["2", "3"] {
        // Queued packets vary run to run (see `floor_heap_bytes`), so the
        // lowest PAG peak is held to the highest bin peak, alternating
        // for up to five rounds.
        let (mut bins, mut pags) = (Vec::new(), Vec::new());
        let (mut bin, mut pag) = (0, usize::MAX);
        for _ in 0..5 {
            bins.push(generate_peak_heap_bytes(N, &["--engine", engine], "bin"));
            pags.push(generate_peak_heap_bytes(N, &["--engine", engine], "pag"));
            bin = bin.max(*bins.last().unwrap());
            pag = pag.min(*pags.last().unwrap());
            if pag <= bin + (1 << 20) {
                break;
            }
        }
        assert!(
            pag <= bin + (1 << 20),
            "engine {engine}: --format pag peaked at {pag} B of live heap, --format bin at {bin} B \
             (pag peaks {pags:?} B, bin peaks {bins:?} B)"
        );
    }
}

#[test]
fn cl_heap_grows_at_most_17_bytes_per_node() {
    // The sorted weight vector is 8 B/node; the edges stream to the part
    // files. A network held whole would add 16 B/edge, 32 B/node at mean
    // degree 4. Chung–Lu sends no messages, so one run per size suffices.
    let cl = ["--model", "cl"];
    let small = generate_peak_heap_bytes(N, &cl, "bin");
    let large = generate_peak_heap_bytes(4 * N, &cl, "bin");
    let slope = large.saturating_sub(small) as f64 / (3 * N) as f64;
    assert!(
        slope <= 17.0,
        "cl heap grows by {slope:.1} B/node (peaks {small} B at n = {N}, {large} B at 4n)"
    );
}

/// The plan `pagen info --n` prints must describe the process it plans:
/// its resident bytes per node against the measured cost of a node,
/// taken between two sizes so that what does not grow with n cancels.
#[test]
fn info_estimate_for_engine2_is_within_a_quarter_of_the_measured_heap() {
    let big = 4 * N;
    let (large, large_peaks) = floor_heap_bytes(Engine::General, 4, big, 0);
    let (small, small_peaks) = floor_heap_bytes(Engine::General, 4, N, 0);
    let measured = (large - small) as f64 / (big - N) as f64;
    let predicted = info_resident_bytes(big) / big as f64;
    assert!(
        (predicted - measured).abs() <= 0.25 * measured,
        "pagen info predicts {predicted:.1} B/node resident, the heap grows by {measured:.1} B/node \
         (peaks {small_peaks:?} B at n = {N}, {large_peaks:?} B at n = {big})"
    );
}
