//! What the benchmark measures: the pinned workloads and the metric
//! tables. `BENCHMARK.json` and `README.md` restate these tables;
//! `tests/schema.rs` keeps `BENCHMARK.json` equal to them.

/// World size of every workload. Pinned, not derived from `nproc`: a
/// change of host must not silently change what is measured.
pub const RANKS: usize = 2;
/// Edges per node, copy probability: every workload is `--x 4 --p 0.5`.
pub const X: u64 = 4;
pub const P: f64 = 0.5;
/// Node count of the set-up launches (`setup_s`): nothing but process
/// spawn, world bootstrap, file create/merge and teardown is left.
pub const SETUP_N: u64 = 1000;
/// Set-up launches per run (the issue asks for at least 15).
pub const SETUP_LAUNCHES: usize = 40;
/// Timed repetitions (or daemon lifecycles) a run never goes below.
pub const MIN_REPS: usize = 5;
pub const MIN_LIFECYCLES: usize = 3;
/// Measuring time of one run when `--seconds` is not given; equals
/// `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 15.0;
/// Node count of every workload under `--smoke`.
pub const SMOKE_N: u64 = 20_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Launcher {
    /// `pagen generate --ranks 2` (in-process mpsim world).
    Pagen,
    /// `palaunch -p 2 -- generate` (one process per rank over TCP).
    Palaunch,
    /// `pagen serve --workers 2` driven by two closed-loop clients.
    Serve,
}

/// Out-of-core store settings of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Paged {
    /// `--memory-budget` in bytes, at full size and under `--smoke`.
    pub budget: u64,
    pub smoke_budget: u64,
    pub page_bytes: u64,
}

impl Paged {
    pub fn budget(&self, smoke: bool) -> u64 {
        if smoke {
            self.smoke_budget
        } else {
            self.budget
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: why the workload exists.
    pub why: &'static str,
    pub launcher: Launcher,
    pub engine: u8,
    /// Nodes per generated network (per tuple for `serve-mixed`).
    pub n: u64,
    pub paged: Option<Paged>,
}

/// Tuples fetched cold by the two serve clients (odd seeds `bin`, even
/// `txt`), and warm rounds over them. 6 × 6 warm fetches per lifecycle
/// give ≥ 100 latency samples over the minimum three lifecycles, which
/// is what a p90 needs under the percentile rule.
pub const SERVE_TUPLES: usize = 6;
pub const SERVE_WARM_ROUNDS: usize = 6;

// Sizes are the issue's, halved (serve: tuples halved too) so that one
// run — warm-up, at least five timed repetitions, verification of every
// output — fits the contract's cap of 114 runs in 3420 s. n = 2·10⁶ is
// still twice the default engine-3 memo rows, so memo collisions are
// live, and the paged workload keeps the issue's budget-to-table ratio.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "gen-e2-mpsim",
        why: "default command path (Alg. 3.2): mpsim channel, BufferedComm, waiters and hub cache do the work; no chain recomputation",
        launcher: Launcher::Pagen,
        engine: 2,
        n: 2_000_000,
        paged: None,
    },
    Workload {
        name: "gen-e3-mpsim",
        why: "same tuple, communication-free engine: model draws and chain walk/memo dominate; zero messages, so a comm change must show no change here",
        launcher: Launcher::Pagen,
        engine: 3,
        n: 2_000_000,
        paged: None,
    },
    Workload {
        name: "world-e2-tcp",
        why: "the paper's distributed-memory setting: engine 2 over pa-net frames and sockets, per-rank part files and rank-0 merge; isolates transport from engine",
        launcher: Launcher::Palaunch,
        engine: 2,
        n: 2_000_000,
        paged: None,
    },
    Workload {
        name: "gen-e3-paged",
        why: "store::PagedTable overcommitted (budget about half of each rank's F table, 16 KiB pages): eviction, write-back and page checksums dominate; peak_rss_mib is the payoff",
        launcher: Launcher::Pagen,
        engine: 3,
        n: 500_000,
        paged: Some(Paged {
            budget: 4 << 20,
            smoke_budget: 160 << 10,
            page_bytes: 16 << 10,
        }),
    },
    Workload {
        name: "serve-mixed",
        why: "pagen serve with 2 closed-loop clients: cold fetches (queue, run, cache publish, stream), one coalescing burst, then warm rounds over the cache (cache read, chunk stream, client FNV); bin beside txt",
        launcher: Launcher::Serve,
        engine: 3,
        n: 500_000,
        paged: None,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    pub fn nodes(&self, smoke: bool) -> u64 {
        if smoke {
            SMOKE_N
        } else {
            self.n
        }
    }

    /// The workload's own command line for an `n`-node network written
    /// to `out` (program first). `store_dir` is used by paged workloads.
    ///
    /// # Panics
    ///
    /// Panics for `serve-mixed`, which has no one-shot command.
    pub fn command(
        &self,
        n: u64,
        smoke: bool,
        seed: u64,
        out: &str,
        store_dir: &str,
    ) -> Vec<String> {
        let mut argv: Vec<String> = match self.launcher {
            Launcher::Pagen => vec!["pagen".into(), "generate".into()],
            Launcher::Palaunch => ["palaunch", "-p", "2", "--", "generate"]
                .map(String::from)
                .to_vec(),
            Launcher::Serve => panic!("serve-mixed is driven by clients, not one command"),
        };
        let mut flag = |k: &str, v: String| {
            argv.push(format!("--{k}"));
            argv.push(v);
        };
        flag("model", "pa".into());
        flag("x", X.to_string());
        flag("p", P.to_string());
        flag("scheme", "rrp".into());
        flag("seed", seed.to_string());
        flag("format", "bin".into());
        flag("engine", self.engine.to_string());
        if self.launcher == Launcher::Pagen {
            flag("ranks", RANKS.to_string());
        }
        flag("n", n.to_string());
        if let Some(p) = self.paged {
            flag("memory-budget", p.budget(smoke).to_string());
            flag("page-bytes", p.page_bytes.to_string());
            flag("store-dir", store_dir.into());
        }
        flag("out", out.into());
        argv
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: something a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the first set's median by which the second may be worse
    /// before `--check-repeat` (and the driver) call it a regression.
    pub bound: f64,
    /// A difference below this is never a regression (resolution floor
    /// of the measurement; same unit as the metric).
    pub abs_floor: f64,
    /// Defined on `serve-mixed` only.
    pub serve_only: bool,
}

/// The issue's seven. Bounds: the issue asked for 10% throughout; ten
/// runs of one workload on this 2-core sandbox spread 3–5% (interquartile
/// distance over median, scratch on tmpfs) on the rate metrics, and the
/// contract wants a spread under a third of its bound, so they get 15%;
/// `setup_s`, a 2–25 ms launch, gets the contract's maximum.
///
/// `BENCHMARK.json` lists as `end_to_end` the four
/// that every workload defines and that are never zero (the contract
/// wants each end-to-end metric on each workload, none ever 0); the two
/// serve-only ones are carried there as per-layer `serve.ttfb_ms_p50` /
/// `serve.warm_mib_per_s`, and `failed_share` as the result line's
/// `failed` ÷ `attempted`.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "edges_per_s",
        unit: "edges/s",
        better: Better::Higher,
        bound: 0.15,
        abs_floor: 0.0,
        serve_only: false,
    },
    EndToEnd {
        name: "cpu_s_per_medge",
        unit: "s/Medge",
        better: Better::Lower,
        bound: 0.15,
        abs_floor: 0.0,
        serve_only: false,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
        abs_floor: 8.0,
        serve_only: false,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        abs_floor: 0.003,
        serve_only: false,
    },
    EndToEnd {
        name: "ttfb_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.15,
        abs_floor: 0.2,
        serve_only: true,
    },
    EndToEnd {
        name: "warm_mib_per_s",
        unit: "MiB/s",
        better: Better::Higher,
        bound: 0.15,
        abs_floor: 0.0,
        serve_only: true,
    },
    EndToEnd {
        name: "failed_share",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.0,
        abs_floor: 0.0,
        serve_only: false,
    },
];

/// The end-to-end metrics `BENCHMARK.json` declares to the driver.
pub fn contract_end_to_end() -> impl Iterator<Item = &'static EndToEnd> {
    END_TO_END
        .iter()
        .filter(|m| !m.serve_only && m.name != "failed_share")
}

/// How a per-layer number is taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Isolated timing of a public function on a pinned input.
    Micro,
    /// From `CommStats` / `EngineCounters` / STATUS.
    Count,
    /// From the traced run's spans.
    Span,
    /// Micro timings × exact counts, or a ratio of two measured walls.
    Computed,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Micro => "micro",
            Kind::Count => "count",
            Kind::Span => "span",
            Kind::Computed => "computed",
        }
    }
}

// Workload sets a layer metric is measured on, as bits over WORKLOADS.
pub const E2M: u8 = 1 << 0;
pub const E3M: u8 = 1 << 1;
pub const TCP: u8 = 1 << 2;
pub const PAGED: u8 = 1 << 3;
pub const SERVE: u8 = 1 << 4;
pub const GEN: u8 = E2M | E3M | TCP | PAGED;
pub const ALL: u8 = GEN | SERVE;
/// Workloads whose world runs on the mpsim channel transport.
pub const MPSIM: u8 = E2M | E3M | PAGED;

/// A per-layer metric. On a workload outside `on` the layer does no
/// work (or the number does not depend on the workload and is taken
/// elsewhere) and the metric reads 0.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
    pub on: u8,
    /// The end-to-end metric and workload it should move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    kind: Kind,
    on: u8,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        kind,
        on,
        moves,
    }
}

use Better::{Higher, Lower};
use Kind::{Computed, Count, Micro, Span};

const E3_MOVES: &str = "edges_per_s, cpu_s_per_medge on gen-e3-mpsim (every recomputed row re-draws); small on e2 workloads";
const ENGINE3_MOVES: &str =
    "cpu_s_per_medge above all, edges_per_s on gen-e3-mpsim; less on gen-e3-paged (store-bound)";
const ENGINE2_MOVES: &str =
    "edges_per_s, cpu_s_per_medge on gen-e2-mpsim and world-e2-tcp; zero on e3 workloads";
const STORE_MOVES: &str = "edges_per_s, cpu_s_per_medge, peak_rss_mib on gen-e3-paged";
const MPSIM_MOVES: &str = "edges_per_s, cpu_s_per_medge (the sys time) on gen-e2-mpsim only";
const NET_MOVES: &str = "edges_per_s on world-e2-tcp; nothing elsewhere";
const IO_MOVES: &str =
    "a little on every generation workload, more on serve-mixed cold (txt tuples)";
const SERVE_MOVES: &str = "ttfb_ms, warm_mib_per_s on serve-mixed";

pub const PER_LAYER: &[Layer] = &[
    layer("rng.event_keys_ns", "ns", Lower, Micro, ALL, E3_MOVES),
    layer(
        "model.draw_row_ns_per_edge",
        "ns/edge",
        Lower,
        Micro,
        ALL,
        E3_MOVES,
    ),
    layer("model.draw_single_ns", "ns", Lower, Micro, ALL, E3_MOVES),
    layer(
        "seq.copy_model_ns_per_edge",
        "ns/edge",
        Lower,
        Micro,
        ALL,
        "none: the plain single-threaded baseline, a denominator",
    ),
    layer(
        "engine3.p1_ns_per_edge",
        "ns/edge",
        Lower,
        Micro,
        E3M,
        ENGINE3_MOVES,
    ),
    layer(
        "engine3.p2_ns_per_edge",
        "ns/edge",
        Lower,
        Micro,
        E3M,
        ENGINE3_MOVES,
    ),
    layer(
        "engine3.strong_scaling_p2",
        "ratio",
        Higher,
        Computed,
        E3M,
        ENGINE3_MOVES,
    ),
    layer(
        "engine3.rows_recomputed_per_edge",
        "rows/edge",
        Lower,
        Count,
        E3M | PAGED,
        ENGINE3_MOVES,
    ),
    layer(
        "engine3.memo_hit_ratio",
        "ratio",
        Higher,
        Count,
        E3M | PAGED,
        ENGINE3_MOVES,
    ),
    layer(
        "engine3.chain_peak_depth",
        "count",
        Lower,
        Count,
        E3M | PAGED,
        ENGINE3_MOVES,
    ),
    layer(
        "engine3.self_share",
        "ratio",
        Lower,
        Span,
        E3M | PAGED,
        ENGINE3_MOVES,
    ),
    layer(
        "engine2.p1_ns_per_edge",
        "ns/edge",
        Lower,
        Micro,
        E2M,
        ENGINE2_MOVES,
    ),
    layer(
        "engine2.p2_ns_per_edge",
        "ns/edge",
        Lower,
        Micro,
        E2M,
        ENGINE2_MOVES,
    ),
    layer(
        "engine2.strong_scaling_p2",
        "ratio",
        Higher,
        Computed,
        E2M,
        ENGINE2_MOVES,
    ),
    layer(
        "engine2.requests_per_edge",
        "msgs/edge",
        Lower,
        Count,
        E2M | TCP,
        ENGINE2_MOVES,
    ),
    layer(
        "engine2.hub_hit_ratio",
        "ratio",
        Higher,
        Count,
        E2M | TCP,
        ENGINE2_MOVES,
    ),
    layer(
        "engine2.local_deferred_per_edge",
        "1/edge",
        Lower,
        Count,
        E2M | TCP,
        ENGINE2_MOVES,
    ),
    layer(
        "engine2.duplicate_retries_per_medge",
        "1/Medge",
        Lower,
        Count,
        E2M | TCP,
        ENGINE2_MOVES,
    ),
    layer(
        "engine2.self_share",
        "ratio",
        Lower,
        Span,
        E2M | TCP,
        ENGINE2_MOVES,
    ),
    layer(
        "partition.rrp_rank_of_ns",
        "ns",
        Lower,
        Micro,
        GEN,
        "all generation workloads, slightly",
    ),
    layer(
        "store.resident_get_ns",
        "ns",
        Lower,
        Micro,
        GEN,
        "every generation workload",
    ),
    layer(
        "store.resident_set_ns",
        "ns",
        Lower,
        Micro,
        GEN,
        "every generation workload",
    ),
    layer("store.paged_get_ns", "ns", Lower, Micro, PAGED, STORE_MOVES),
    layer("store.paged_set_ns", "ns", Lower, Micro, PAGED, STORE_MOVES),
    layer(
        "store.paged_flush_ms",
        "ms",
        Lower,
        Micro,
        PAGED,
        STORE_MOVES,
    ),
    layer(
        "store.paged_disk_mib",
        "MiB",
        Lower,
        Count,
        PAGED,
        STORE_MOVES,
    ),
    layer(
        "store.paged_over_resident_ratio",
        "ratio",
        Lower,
        Computed,
        PAGED,
        "edges_per_s on gen-e3-paged (ROADMAP target <= 4)",
    ),
    layer(
        "store.paged_default_pages_s",
        "s",
        Lower,
        Micro,
        PAGED,
        STORE_MOVES,
    ),
    layer(
        "store.paged_16k_pages_s",
        "s",
        Lower,
        Micro,
        PAGED,
        STORE_MOVES,
    ),
    layer(
        "mpsim.stream_ns_per_msg",
        "ns/msg",
        Lower,
        Micro,
        E2M,
        MPSIM_MOVES,
    ),
    layer(
        "mpsim.buffered_push_ns_per_msg",
        "ns/msg",
        Lower,
        Micro,
        E2M,
        MPSIM_MOVES,
    ),
    layer("mpsim.barrier_us", "us", Lower, Micro, E2M, MPSIM_MOVES),
    layer("mpsim.allreduce_us", "us", Lower, Micro, E2M, MPSIM_MOVES),
    layer(
        "mpsim.msgs_per_edge",
        "msgs/edge",
        Lower,
        Count,
        MPSIM,
        MPSIM_MOVES,
    ),
    layer(
        "mpsim.msgs_per_packet",
        "msgs/pkt",
        Higher,
        Count,
        MPSIM,
        MPSIM_MOVES,
    ),
    layer(
        "mpsim.pool_hit_ratio",
        "ratio",
        Higher,
        Count,
        MPSIM,
        MPSIM_MOVES,
    ),
    layer(
        "mpsim.send_busy_share",
        "ratio",
        Lower,
        Span,
        MPSIM,
        MPSIM_MOVES,
    ),
    layer(
        "mpsim.recv_wait_share",
        "ratio",
        Lower,
        Span,
        MPSIM,
        MPSIM_MOVES,
    ),
    layer(
        "mpsim.collective_wait_share",
        "ratio",
        Lower,
        Span,
        MPSIM,
        MPSIM_MOVES,
    ),
    layer(
        "net.frame_encode_ns_per_msg",
        "ns/msg",
        Lower,
        Micro,
        TCP,
        NET_MOVES,
    ),
    layer(
        "net.frame_decode_ns_per_msg",
        "ns/msg",
        Lower,
        Micro,
        TCP,
        NET_MOVES,
    ),
    layer(
        "net.tcp_stream_mib_per_s",
        "MiB/s",
        Higher,
        Micro,
        TCP,
        NET_MOVES,
    ),
    layer(
        "net.bootstrap_ms",
        "ms",
        Lower,
        Micro,
        TCP,
        "setup_s on world-e2-tcp",
    ),
    layer("net.allreduce_us", "us", Lower, Micro, TCP, NET_MOVES),
    layer(
        "net.wire_bytes_per_edge",
        "B/edge",
        Lower,
        Computed,
        TCP,
        NET_MOVES,
    ),
    layer("net.send_busy_share", "ratio", Lower, Span, TCP, NET_MOVES),
    layer("net.recv_wait_share", "ratio", Lower, Span, TCP, NET_MOVES),
    layer(
        "net.collective_wait_share",
        "ratio",
        Lower,
        Span,
        TCP,
        NET_MOVES,
    ),
    layer(
        "io.edgewriter_bin_ns_per_edge",
        "ns/edge",
        Lower,
        Micro,
        ALL,
        IO_MOVES,
    ),
    layer(
        "io.edgewriter_txt_ns_per_edge",
        "ns/edge",
        Lower,
        Micro,
        ALL,
        IO_MOVES,
    ),
    layer(
        "io.fnv1a_mib_per_s",
        "MiB/s",
        Higher,
        Micro,
        ALL,
        "warm_mib_per_s (client verify) and gen-e3-paged (page checksums)",
    ),
    layer("sink.emit_busy_share", "ratio", Lower, Span, GEN, IO_MOVES),
    layer("sink.flush_ms", "ms", Lower, Span, GEN, IO_MOVES),
    layer(
        "cli.gen_over_lib_ratio",
        "ratio",
        Lower,
        Computed,
        E3M,
        "edges_per_s on the three pagen generate workloads (ROADMAP target <= 1.3)",
    ),
    layer(
        "serve.ttfb_ms_p50",
        "ms",
        Lower,
        Span,
        SERVE,
        "the end-to-end ttfb_ms, as the driver sees it",
    ),
    layer("serve.ttfb_ms_p90", "ms", Lower, Span, SERVE, SERVE_MOVES),
    layer(
        "serve.warm_mib_per_s",
        "MiB/s",
        Higher,
        Span,
        SERVE,
        "the end-to-end warm_mib_per_s, as the driver sees it",
    ),
    layer(
        "serve.warm_accept_ms_p50",
        "ms",
        Lower,
        Span,
        SERVE,
        SERVE_MOVES,
    ),
    layer(
        "serve.warm_accept_ms_p90",
        "ms",
        Lower,
        Span,
        SERVE,
        SERVE_MOVES,
    ),
    layer(
        "serve.cold_accept_ms_p50",
        "ms",
        Lower,
        Span,
        SERVE,
        "edges_per_s on serve-mixed (queue + run + publish)",
    ),
    layer(
        "serve.cold_over_solo_ratio",
        "ratio",
        Lower,
        Computed,
        SERVE,
        "edges_per_s on serve-mixed",
    ),
    layer(
        "serve.stream_mib_per_s_per_conn",
        "MiB/s",
        Higher,
        Span,
        SERVE,
        SERVE_MOVES,
    ),
    layer(
        "serve.status_rtt_us",
        "us",
        Lower,
        Micro,
        SERVE,
        "setup_s on serve-mixed",
    ),
    layer(
        "serve.coalesced_share",
        "ratio",
        Higher,
        Count,
        SERVE,
        "edges_per_s on serve-mixed (the burst must show 1 run + 1 coalesced)",
    ),
    layer(
        "serve.rejects",
        "count",
        Lower,
        Count,
        SERVE,
        "failed_share on serve-mixed (must stay 0)",
    ),
    layer(
        "serve.daemon_cpu_s_cold",
        "s",
        Lower,
        Count,
        SERVE,
        "cpu_s_per_medge on serve-mixed",
    ),
    layer(
        "serve.daemon_cpu_s_warm",
        "s",
        Lower,
        Count,
        SERVE,
        SERVE_MOVES,
    ),
    layer(
        "serve.warm_cpu_ns_per_byte",
        "ns/B",
        Lower,
        Computed,
        SERVE,
        SERVE_MOVES,
    ),
    layer(
        "trace.overhead_share",
        "ratio",
        Lower,
        Computed,
        ALL,
        "none: traced wall / untraced wall - 1, the price of the traced pass",
    ),
];

/// Bit of `w` in a [`Layer::on`] set.
///
/// # Panics
///
/// Panics if `w` is not one of [`WORKLOADS`].
pub fn bit(w: &Workload) -> u8 {
    let i = WORKLOADS
        .iter()
        .position(|x| x.name == w.name)
        .expect("a pinned workload");
    1 << i
}
