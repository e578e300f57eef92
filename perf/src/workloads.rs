//! The end-to-end pass over the generation workloads: the real `pagen`
//! / `palaunch` binaries, tracing off, every output verified.

use crate::digest::{self, EdgeDigest};
use crate::proc::{self, Cost, Scratch, Watch};
use crate::spec::{self, Launcher, Workload};
use crate::stats::{summarize, Summary};
use pa_core::PaConfig;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

/// Everything a pass needs to know about where it runs.
pub struct Env {
    /// The repository root (parent of `perf/`).
    pub root: PathBuf,
    pub pagen: PathBuf,
    pub palaunch: PathBuf,
    pub scratch: Scratch,
    pub smoke: bool,
    /// The only source of workload seeds.
    pub seed: u64,
    /// How long one pass over one workload measures.
    pub seconds: f64,
}

impl Env {
    /// Per-operation timeout: generous against the slowest pinned
    /// operation (a few seconds), small against the contract's 180 s.
    pub fn op_timeout(&self) -> Duration {
        Duration::from_secs(if self.smoke { 20 } else { 60 })
    }

    pub fn min_reps(&self) -> usize {
        if self.smoke {
            1
        } else {
            spec::MIN_REPS
        }
    }

    pub fn setup_launches(&self) -> usize {
        if self.smoke {
            3
        } else {
            spec::SETUP_LAUNCHES
        }
    }

    /// `Command` for a workload argv (`argv[0]` names the binary).
    pub fn command(&self, argv: &[String]) -> Command {
        let bin = match argv[0].as_str() {
            "pagen" => &self.pagen,
            _ => &self.palaunch,
        };
        let mut cmd = Command::new(bin);
        cmd.args(&argv[1..]);
        cmd
    }
}

/// The model parameters of a workload tuple.
pub fn config(n: u64, seed: u64) -> PaConfig {
    PaConfig::new(n, spec::X).with_seed(seed).with_p(spec::P)
}

/// What one pass over one workload produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// `(metric name, summary)` in table order.
    pub metrics: Vec<(&'static str, Summary)>,
    /// Operations attempted and failed (a generation run, a set-up
    /// launch or a fetch; non-zero exit, timeout, reject or failed
    /// verification all count).
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed operation.
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        self.failures.push(what.into());
    }

    pub fn get(&self, name: &str) -> Option<Summary> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| *s)
    }

    /// Append `failed_share` once every operation has been counted.
    pub fn seal(&mut self) {
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        self.metrics.push(("failed_share", Summary::single(share)));
    }
}

/// One generated file, checked: the edge multiset must be the
/// sequential copy model's; `expect_fnv` (engine 3) must match byte for
/// byte. Returns the file's FNV-1a.
fn verify(path: &Path, oracle: EdgeDigest, expect_fnv: Option<u64>) -> Result<u64, String> {
    let (got, fnv) =
        digest::digest_file(path, false).map_err(|e| format!("unreadable output: {e}"))?;
    if got != oracle {
        return Err(format!(
            "edge multiset differs from seq::copy_model: {got:?} vs {oracle:?}"
        ));
    }
    match expect_fnv {
        Some(want) if want != fnv => Err(format!(
            "engine-3 repetitions differ byte for byte: FNV {fnv:016x} vs {want:016x}"
        )),
        _ => Ok(fnv),
    }
}

/// Median wall of the workload's own command at `--n 1000`: process
/// spawn, world bootstrap, part-file create, merge and teardown.
fn measure_setup(env: &Env, w: &Workload, out: &mut Outcome) -> Vec<f64> {
    let file = env.scratch.path("setup.bin");
    let store = env.scratch.path("setup-store");
    let argv = w.command(
        spec::SETUP_N,
        env.smoke,
        env.seed,
        &file.to_string_lossy(),
        &store.to_string_lossy(),
    );
    let mut walls = Vec::new();
    for _ in 0..env.setup_launches() {
        out.attempted += 1;
        match proc::run(&mut env.command(&argv), Watch::TimeOnly, env.op_timeout()) {
            Ok(cost) => walls.push(cost.wall_s),
            Err(why) => out.fail(format!("{}: set-up launch: {why}", w.name)),
        }
    }
    let _ = std::fs::remove_file(&file);
    walls
}

/// Runs a workload's command repeatedly into one scratch file, checking
/// each output against the oracle computed once in set-up.
pub struct Generator<'e> {
    env: &'e Env,
    w: &'e Workload,
    argv: Vec<String>,
    file: PathBuf,
    oracle: EdgeDigest,
    pub edges: u64,
    /// FNV-1a of the first verified engine-3 output.
    first_fnv: Option<u64>,
}

impl<'e> Generator<'e> {
    pub fn new(env: &'e Env, w: &'e Workload) -> Self {
        let n = w.nodes(env.smoke);
        let cfg = config(n, env.seed);
        let file = env.scratch.path(&format!("{}.bin", w.name));
        let store = env.scratch.path(&format!("{}.store", w.name));
        let argv = w.command(
            n,
            env.smoke,
            env.seed,
            &file.to_string_lossy(),
            &store.to_string_lossy(),
        );
        Generator {
            env,
            w,
            argv,
            file,
            oracle: digest::oracle(&cfg),
            edges: cfg.expected_edges(),
            first_fnv: None,
        }
    }

    /// Run the command once and verify its output (outside the timed
    /// region). A failure of either is a failed operation, not a crash.
    pub fn rep(&mut self, out: &mut Outcome) -> Option<Cost> {
        let _ = std::fs::remove_file(&self.file);
        out.attempted += 1;
        let watch = match self.w.launcher {
            Launcher::Palaunch => Watch::RssOfTree,
            _ => Watch::Rss,
        };
        let cost = match proc::run(
            &mut self.env.command(&self.argv),
            watch,
            self.env.op_timeout(),
        ) {
            Ok(cost) => cost,
            Err(why) => {
                out.fail(format!("{}: {why}", self.w.name));
                return None;
            }
        };
        // Engine 3 emits in label order: repetitions must be identical.
        let expect = (self.w.engine == 3).then_some(self.first_fnv).flatten();
        match verify(&self.file, self.oracle, expect) {
            Ok(fnv) => {
                self.first_fnv.get_or_insert(fnv);
                Some(cost)
            }
            Err(why) => {
                out.fail(format!("{}: {why}", self.w.name));
                None
            }
        }
    }
}

impl Drop for Generator<'_> {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.file);
    }
}

/// End-to-end pass over one generation workload: set-up launches, one
/// discarded warm-up, then timed repetitions until `env.seconds` of
/// measured time have passed (never fewer than the minimum).
pub fn run_generation(env: &Env, w: &Workload) -> Outcome {
    let mut out = Outcome::default();
    let setup = measure_setup(env, w, &mut out);
    let mut generator = Generator::new(env, w);
    // Warm-up: page cache, allocator and CPU frequency settle; verified
    // and counted as an operation, its timing discarded.
    generator.rep(&mut out);

    let (mut rate, mut cpu, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    let mut reps = 0;
    // A failing command must not loop forever: bound the attempts too.
    while (reps < env.min_reps() || started.elapsed().as_secs_f64() < env.seconds)
        && reps < 20 * env.min_reps()
    {
        reps += 1;
        if let Some(rep) = generator.rep(&mut out) {
            let medges = generator.edges as f64 / 1e6;
            rate.push(generator.edges as f64 / rep.wall_s);
            cpu.push(rep.cpu_s / medges);
            rss.push(rep.peak_rss_mib);
        }
    }
    for (name, xs) in [
        ("edges_per_s", &rate),
        ("cpu_s_per_medge", &cpu),
        ("peak_rss_mib", &rss),
        ("setup_s", &setup),
    ] {
        if !xs.is_empty() {
            out.metrics.push((name, summarize(xs)));
        }
    }
    out.seal();
    out
}
