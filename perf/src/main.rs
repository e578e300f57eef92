//! `pa-perf` command line.
//!
//! ```text
//! pa-perf [--seed S] [--seconds T] [--smoke] [--check-repeat]
//!         [--out report.json] [--scratch DIR]
//! pa-perf --workload NAME --seed S --seconds T --trace 0|1
//! ```
//!
//! Without `--workload`: build the root release binaries, run the
//! end-to-end pass over all five workloads (twice under
//! `--check-repeat`), then the per-layer pass, print every metric and
//! write the JSON report. With `--workload` (the form `BENCHMARK.json`'s
//! driver uses): one pass over one workload, and as the last line of
//! stdout one JSON object `{correct, attempted, failed, metrics}`.

use pa_perf::json::Json;
use pa_perf::layers::{self, LayerPass, Values};
use pa_perf::proc::{self, Scratch};
use pa_perf::report::{self, Host, WorkloadReport};
use pa_perf::serve;
use pa_perf::spec::{self, Launcher, Workload};
use pa_perf::stats;
use pa_perf::trace;
use pa_perf::workloads::{self, Env, Outcome};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    check_repeat: bool,
    out: Option<PathBuf>,
    scratch: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 7,
        seconds: spec::DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        check_repeat: false,
        out: None,
        scratch: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--check-repeat" => args.check_repeat = true,
            "--out" => args.out = Some(value()?.into()),
            "--scratch" => args.scratch = Some(value()?.into()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// Build the root workspace's release `pagen` and `palaunch` and set up
/// the scratch root. Build time is excluded from every metric.
fn prepare(args: &Args) -> Result<(Env, PathBuf), String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .ok_or("perf/ has no parent directory")?
        .to_path_buf();
    if !root.join("crates/cli/Cargo.toml").is_file() {
        return Err(format!("{} holds no pa-cli to benchmark", root.display()));
    }
    let cwd = std::env::current_dir().map_err(|e| format!("no working directory: {e}"))?;
    // A relative CARGO_TARGET_DIR is relative to where cargo was run.
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => cwd.join(dir),
        None => root.join("target"),
    };
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "-p", "pa-cli"])
        .current_dir(&root)
        .env("CARGO_TARGET_DIR", &target)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building pa-cli failed ({status})"));
    }
    let bin = |name: &str| {
        let path = target.join("release").join(name);
        path.is_file()
            .then_some(path)
            .ok_or(format!("the build left no {name} in {}", target.display()))
    };
    let scratch_parent = args
        .scratch
        .clone()
        .or_else(roomy_tmpfs)
        .unwrap_or_else(|| target.clone());
    let scratch = Scratch::create(&scratch_parent).map_err(|e| {
        format!(
            "cannot create a scratch root in {}: {e}",
            scratch_parent.display()
        )
    })?;
    let out_dir = target.join("perf-out");
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let env = Env {
        pagen: bin("pagen")?,
        palaunch: bin("palaunch")?,
        root,
        scratch,
        smoke: args.smoke,
        seed: args.seed,
        seconds: if args.smoke { 0.0 } else { args.seconds },
    };
    Ok((env, out_dir))
}

/// `/dev/shm`, when it is a writable tmpfs with room for the largest
/// workload's artefacts (and the RAM to back them). The numbers price
/// the program's write path, not the block device: on this sandbox's
/// disk an fsync of one output swings between 70 MB/s and 1.4 GB/s with
/// the device's mood, which no repetition count averages out.
fn roomy_tmpfs() -> Option<PathBuf> {
    const NEED_KIB: u64 = 3 << 20;
    let shm = Path::new("/dev/shm");
    if proc::fs_type(shm) != "tmpfs" {
        return None;
    }
    // `std` has no statvfs; `df -Pk` prints "fs blocks used available ...".
    let df = Command::new("df")
        .args(["-Pk", "/dev/shm"])
        .stderr(Stdio::null())
        .output()
        .ok()?;
    let free_kib: u64 = String::from_utf8_lossy(&df.stdout)
        .lines()
        .nth(1)?
        .split_whitespace()
        .nth(3)?
        .parse()
        .ok()?;
    let meminfo = std::fs::read_to_string("/proc/meminfo").ok()?;
    let ram_kib: u64 = meminfo
        .lines()
        .find(|l| l.starts_with("MemAvailable:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    let probe = shm.join(format!("perf-probe-{}", std::process::id()));
    std::fs::write(&probe, b"x").ok()?;
    let _ = std::fs::remove_file(&probe);
    (free_kib >= NEED_KIB && ram_kib >= 2 * NEED_KIB).then(|| shm.to_path_buf())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn host(env: &Env) -> Host {
    let capture = |cmd: &mut Command| {
        cmd.stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    Host {
        git_rev: capture(
            Command::new("git")
                .args(["rev-parse", "HEAD"])
                .current_dir(&env.root),
        )
        .unwrap_or_else(|| "unknown".into()),
        rustc: capture(Command::new("rustc").arg("--version")).unwrap_or_else(|| "unknown".into()),
        nproc: nproc(),
        scratch_fs: env.scratch.fs_type(),
        seed: env.seed,
        smoke: env.smoke,
    }
}

fn end_to_end(env: &Env, w: &Workload) -> Outcome {
    match w.launcher {
        Launcher::Serve => serve::run_serve(env, w, false).0,
        _ => workloads::run_generation(env, w),
    }
}

/// The per-layer pass over one workload, printed.
fn per_layer(env: &Env, w: &Workload) -> LayerPass {
    let pass = if w.launcher == Launcher::Serve {
        let mut values = layers::micros(env, w);
        let (outcome, serve) = serve::run_serve(env, w, true);
        values.extend(serve.values);
        if serve.untraced_wall_s > 0.0 {
            values.push((
                "trace.overhead_share",
                serve.traced_wall_s / serve.untraced_wall_s - 1.0,
            ));
        }
        // The guide's rule: report the highest percentile with at least
        // ten samples beyond it.
        let n = serve.warm_samples;
        let note = match stats::tail_percentile(n) {
            Some(p) => format!("{n} warm fetches: the sample supports percentiles up to p{p}"),
            None => {
                format!("{n} warm fetches: too few for a p90 (100 needed); read the p90s as maxima")
            }
        };
        LayerPass {
            values,
            spans: serve.spans,
            outcome,
            note: Some(note),
        }
    } else {
        layers::run_generation(env, w)
    };
    report::print_per_layer(w, &pass.values);
    for line in pass.note.iter().chain(&pass.outcome.failures) {
        println!("  {line}");
    }
    pass
}

/// The command line of a workload, for the report.
fn argv_of(env: &Env, w: &Workload) -> Vec<String> {
    if w.launcher == Launcher::Serve {
        return vec![
            "pagen".into(),
            "serve".into(),
            "--workers".into(),
            "2".into(),
        ];
    }
    w.command(
        w.nodes(env.smoke),
        env.smoke,
        env.seed,
        "<scratch>/out.bin",
        "<scratch>/store",
    )
}

/// Contract form: one pass over one workload, result line last.
fn contract(env: &Env, out_dir: &Path, name: &str, traced: bool) -> Result<bool, String> {
    let w = spec::workload(name).ok_or(format!("no workload named {name:?}"))?;
    let (outcome, metrics): (Outcome, Vec<(&str, f64, &str)>) = if traced {
        let LayerPass {
            values,
            outcome,
            spans,
            ..
        } = per_layer(env, w);
        trace::write_trace(&out_dir.join("trace.json"), &spans)
            .map_err(|e| format!("cannot write trace.json: {e}"))?;
        let metrics = spec::PER_LAYER
            .iter()
            .map(|layer| {
                let measured = values
                    .iter()
                    .find(|(n, _)| *n == layer.name)
                    .map(|(_, v)| *v);
                match measured {
                    Some(v) => Ok((layer.name, v, layer.unit)),
                    // A layer this workload does not run through reads 0.
                    None if layer.on & spec::bit(w) == 0 => Ok((layer.name, 0.0, layer.unit)),
                    None => Err(format!("{} was not measured on {}", layer.name, w.name)),
                }
            })
            .collect::<Result<_, _>>()?;
        (outcome, metrics)
    } else {
        let outcome = end_to_end(env, w);
        report::print_end_to_end(w, &outcome);
        let metrics = spec::contract_end_to_end()
            .map(|m| {
                outcome
                    .get(m.name)
                    .map(|s| (m.name, s.median, m.unit))
                    .ok_or(format!("{} was not measured on {}", m.name, w.name))
            })
            .collect::<Result<_, _>>()?;
        (outcome, metrics)
    };
    if let Some((name, v, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("{name} is not a number ({v})"));
    }
    for why in &outcome.failures {
        eprintln!("FAILED {why}");
    }
    let line = Json::obj([
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::Num(outcome.attempted.max(1) as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        (
            "metrics",
            Json::obj(metrics.into_iter().map(|(name, v, unit)| {
                (
                    name,
                    Json::obj([("value", Json::Num(v)), ("unit", Json::str(unit))]),
                )
            })),
        ),
    ]);
    println!("{}", line.encode());
    Ok(outcome.failed == 0)
}

/// Full form: every workload, both passes, table and report.
fn full(env: &Env, out_dir: &Path, args: &Args) -> Result<bool, String> {
    let mut reports: Vec<WorkloadReport> = spec::WORKLOADS
        .iter()
        .map(|w| {
            let outcome = end_to_end(env, w);
            report::print_end_to_end(w, &outcome);
            WorkloadReport {
                workload: w,
                argv: argv_of(env, w),
                end_to_end: outcome,
                per_layer: Values::new(),
                layer_ops: None,
            }
        })
        .collect();
    let mut noise = Vec::new();
    if args.check_repeat {
        let second: Vec<Outcome> = spec::WORKLOADS.iter().map(|w| end_to_end(env, w)).collect();
        noise = report::noise_floor(&reports, &second);
        report::print_noise(&noise);
    }
    let mut spans = Vec::new();
    for r in &mut reports {
        let pass = per_layer(env, r.workload);
        r.per_layer = pass.values;
        r.layer_ops = Some((pass.outcome.attempted, pass.outcome.failed));
        spans.extend(pass.spans);
    }
    let host = host(env);
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| out_dir.join("report.json"));
    std::fs::write(&out, report::to_json(&host, &reports, &noise).pretty())
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    let trace_path = out.with_file_name("trace.json");
    trace::write_trace(&trace_path, &spans)
        .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;
    println!(
        "\nreport: {}\ntrace:  {} ({} spans)\nscratch was on {} (removed)",
        out.display(),
        trace_path.display(),
        spans.len(),
        host.scratch_fs
    );
    let failed: u64 = reports
        .iter()
        .map(|r| r.end_to_end.failed + r.layer_ops.map_or(0, |(_, f)| f))
        .sum();
    Ok(failed == 0 && noise.iter().all(|row| row.ok))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("pa-perf: {why}");
            return ExitCode::from(2);
        }
    };
    if nproc() < spec::RANKS {
        eprintln!(
            "pa-perf: warning: {} core(s) for {}-rank worlds — wall metrics measure the scheduler",
            nproc(),
            spec::RANKS
        );
    }
    let (env, out_dir) = match prepare(&args) {
        Ok(ready) => ready,
        Err(why) => {
            eprintln!("pa-perf: {why}");
            return ExitCode::from(2);
        }
    };
    let result = match &args.workload {
        Some(name) => contract(&env, &out_dir, name, args.trace),
        None => full(&env, &out_dir, &args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        // Failed operations or a repeat outside its bound: reported
        // above, and in the result line / report.
        Ok(false) => ExitCode::from(if args.workload.is_some() { 0 } else { 1 }),
        Err(why) => {
            eprintln!("pa-perf: {why}");
            ExitCode::from(1)
        }
    }
}
