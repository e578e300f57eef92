//! The `serve-mixed` workload: a real `pagen serve --workers 2` daemon
//! driven by two closed-loop clients in this process.
//!
//! A client speaks the wire protocol directly (`write_submit` /
//! `read_reply`), because the numbers a serve user sees — time to
//! ACCEPT, time to first CHUNK byte — are not printed by `pagen fetch`.
//! Like `pagen fetch` it folds every chunk into a running FNV-1a and
//! checks the DONE checksum; unlike it, it keeps nothing on disk.
//!
//! One daemon *lifecycle*: spawn → first STATUS reply (`setup_s`), cold
//! phase (each client fetches its uncached tuples back to back), one
//! coalescing burst (both clients submit one new tuple at once), warm
//! phase (rounds over the cached tuples), STATUS probes, drain. A run
//! repeats lifecycles and reports medians.

use crate::digest::{self, EdgeDigest};
use crate::proc::{self, Guard, Watch};
use crate::spec::{self, Workload};
use crate::stats::{median, percentile, summarize};
use crate::trace::{Recorder, Span};
use crate::workloads::{config, Env, Outcome};
use pa_core::job::JobDescriptor;
use pa_core::partition::Scheme;
use pa_core::ModelKind;
use pa_graph::io::{EdgeFormat, Fnv1a};
use pa_net::serve::proto::{read_reply, write_submit, ServeMsg};
use pa_net::serve::{JobSpec, ServeStatus};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// One job tuple the clients fetch, with what a correct artifact is.
#[derive(Debug, Clone)]
struct Tuple {
    spec: JobSpec,
    text: bool,
    oracle: EdgeDigest,
    edges: u64,
}

/// Tuple `k` (1-based) of a run: seed `S + k`, odd = `bin`, even = `txt`.
fn tuple(env: &Env, w: &Workload, k: u64) -> Tuple {
    let cfg = config(w.nodes(env.smoke), env.seed + k);
    let text = k.is_multiple_of(2);
    let desc = JobDescriptor {
        cfg,
        scheme: Scheme::Rrp,
        engine: w.engine,
        model: ModelKind::Pa,
        ranks: 1,
        format: if text {
            EdgeFormat::Text
        } else {
            EdgeFormat::Binary
        },
    };
    let raw = desc.to_raw();
    Tuple {
        spec: JobSpec {
            n: raw.n,
            x: raw.x,
            p_bits: raw.p_bits,
            seed: raw.seed,
            alpha_bits: raw.alpha_bits,
            ranks: raw.ranks,
            scheme_id: raw.scheme_id,
            engine_id: raw.engine_id,
            model_id: raw.model_id,
            format_id: raw.format_id,
        },
        text,
        oracle: digest::oracle(&cfg),
        edges: cfg.expected_edges(),
    }
}

/// A running daemon; dropped → killed.
struct Daemon {
    guard: Guard,
    addr: String,
    jobs_dir: PathBuf,
}

impl Daemon {
    /// Spawn the daemon on a free port and wait for its first STATUS
    /// reply; returns it with the spawn → ready time in seconds.
    fn spawn(env: &Env, tag: usize) -> Result<(Daemon, f64), String> {
        let addr = format!("127.0.0.1:{}", proc::free_port());
        let jobs_dir = env.scratch.path(&format!("serve-jobs-{tag}"));
        let mut cmd = std::process::Command::new(&env.pagen);
        cmd.args(["serve", "--addr", &addr, "--workers", "2", "--jobs-dir"])
            .arg(&jobs_dir);
        let started = Instant::now();
        let mut daemon = Daemon {
            guard: Guard::spawn(&mut cmd)?,
            addr,
            jobs_dir,
        };
        loop {
            if daemon.status().is_ok() {
                return Ok((daemon, started.elapsed().as_secs_f64()));
            }
            if started.elapsed() > env.op_timeout() {
                return Err("daemon never answered STATUS".into());
            }
            if let Ok(Some(status)) = daemon.guard.child.try_wait() {
                return Err(format!(
                    "daemon exited at start-up ({status}): {}",
                    daemon.guard.stderr_tail()
                ));
            }
            // No sleep: the daemon's accept loop ticks every 5 ms, and a
            // connect that lands just after a tick waits a whole one. A
            // tight retry lands right behind `listen`, before the first
            // tick, so the time measured is the start-up and not the
            // phase of the poll (which `serve.status_rtt_us` prices).
            std::hint::spin_loop();
        }
    }

    fn status(&self) -> std::io::Result<ServeStatus> {
        pa_net::serve::status(&self.addr, Duration::from_secs(5))
    }

    fn cpu_s(&self) -> f64 {
        proc::process_cpu_s(self.guard.pid()).unwrap_or(0.0)
    }

    /// Drain and wait for a clean exit; a daemon that will not go is
    /// killed by the guard.
    fn shutdown(mut self) -> Result<(), String> {
        let result = pa_net::serve::drain(&self.addr, Duration::from_secs(5))
            .map_err(|e| format!("drain failed: {e}"))
            .and_then(|_| {
                let deadline = Instant::now() + Duration::from_secs(10);
                loop {
                    match self.guard.child.try_wait() {
                        Ok(Some(status)) if status.success() => {
                            self.guard.disarm();
                            return Ok(());
                        }
                        Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                        Ok(None) if Instant::now() > deadline => {
                            return Err("daemon did not exit after drain".into())
                        }
                        Ok(None) => std::thread::sleep(Duration::from_millis(1)),
                        Err(e) => return Err(format!("wait failed: {e}")),
                    }
                }
            });
        let _ = std::fs::remove_dir_all(&self.jobs_dir);
        result
    }
}

/// Timings of one fetch, all measured from the SUBMIT write.
#[derive(Debug, Clone, Copy)]
struct Fetch {
    /// SUBMIT → ACCEPT. The daemon accepts once the artifact exists, so
    /// on a cold tuple this is queue + run + publish.
    accept_s: f64,
    /// SUBMIT → first CHUNK byte.
    first_chunk_s: f64,
    /// SUBMIT → DONE.
    done_s: f64,
    bytes: u64,
    /// FNV-1a of the streamed bytes (checked against DONE's).
    fnv: u64,
}

/// Fetch one artifact over a fresh connection. With a recorder, the
/// phases connect → accept → first-chunk → done are recorded as child
/// spans of one `fetch` span.
fn fetch(
    addr: &str,
    spec: &JobSpec,
    timeout: Duration,
    rec: Option<&Recorder>,
) -> Result<Fetch, String> {
    let epoch = Instant::now();
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let _ = stream.set_nodelay(true);
    stream
        .set_read_timeout(Some(timeout))
        .and_then(|()| stream.set_write_timeout(Some(timeout)))
        .map_err(|e| format!("socket timeouts: {e}"))?;
    let submitted = Instant::now();
    write_submit(&mut stream, spec, 0).map_err(|e| format!("submit: {e}"))?;
    let (mut accepted, mut first_chunk) = (None, None);
    let mut fnv = Fnv1a::new();
    let mut bytes = 0u64;
    let done = loop {
        match read_reply(&mut stream).map_err(|e| format!("reply: {e}"))? {
            ServeMsg::Accept { offset: 0, .. } => accepted = Some(Instant::now()),
            ServeMsg::Chunk { offset, data } if offset == bytes => {
                first_chunk.get_or_insert_with(Instant::now);
                fnv.update(&data);
                bytes += data.len() as u64;
            }
            ServeMsg::Done { total, checksum } => {
                if total != bytes || checksum != fnv.digest() {
                    return Err(format!(
                        "client checksum: got {bytes} B / {:016x}, DONE says {total} B / {checksum:016x}",
                        fnv.digest()
                    ));
                }
                break Instant::now();
            }
            ServeMsg::Reject { code, msg, .. } => return Err(format!("rejected ({code}): {msg}")),
            other => return Err(format!("unexpected reply {other:?}")),
        }
    };
    let (Some(accepted), Some(first_chunk)) = (accepted, first_chunk) else {
        return Err("stream ended without ACCEPT and a CHUNK".into());
    };
    if let Some(rec) = rec {
        // `rec`'s clock and this function's share no epoch; shift ours
        // so the fetch span ends "now" on the recorder's clock.
        let end = rec.now_ns();
        let ns = |t: Instant| end - done.duration_since(t).as_nanos() as u64;
        let id = rec.reserve_id();
        rec.record_as(id, 0, "fetch", ns(epoch), end);
        rec.set_parent(id);
        rec.record("fetch.connect", ns(epoch), ns(submitted));
        rec.record("fetch.accept", ns(submitted), ns(accepted));
        rec.record("fetch.first_chunk", ns(accepted), ns(first_chunk));
        rec.record("fetch.stream", ns(first_chunk), end);
        rec.set_parent(0);
    }
    Ok(Fetch {
        accept_s: accepted.duration_since(submitted).as_secs_f64(),
        first_chunk_s: first_chunk.duration_since(submitted).as_secs_f64(),
        done_s: done.duration_since(submitted).as_secs_f64(),
        bytes,
        fnv: fnv.digest(),
    })
}

/// What the two clients did in one phase.
struct Phase {
    wall_s: f64,
    /// `(tuple index, timings)` of every fetch that succeeded.
    fetches: Vec<(usize, Fetch)>,
    spans: Vec<Span>,
}

/// Run one phase: client `c` fetches `plan[c]` (tuple indices) back to
/// back; both start together. Failed fetches go to `out`.
fn phase(
    daemon: &Daemon,
    tuples: &[Tuple],
    plan: [Vec<usize>; 2],
    env: &Env,
    trace: Option<(Instant, u32)>,
    out: &mut Outcome,
) -> Phase {
    let barrier = Barrier::new(2);
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = plan
            .iter()
            .enumerate()
            .map(|(client, indices)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let rec = trace.map(|(epoch, run)| Recorder::new(epoch, run, client as u32));
                    barrier.wait();
                    let start = Instant::now();
                    let fetched: Vec<_> = indices
                        .iter()
                        .map(|&i| {
                            (
                                i,
                                fetch(
                                    &daemon.addr,
                                    &tuples[i].spec,
                                    env.op_timeout(),
                                    rec.as_ref(),
                                ),
                            )
                        })
                        .collect();
                    (
                        start,
                        Instant::now(),
                        fetched,
                        rec.map(Recorder::into_spans),
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let start = results.iter().map(|r| r.0).min().expect("two clients");
    let end = results.iter().map(|r| r.1).max().expect("two clients");
    let mut phase = Phase {
        wall_s: end.duration_since(start).as_secs_f64(),
        fetches: Vec::new(),
        spans: Vec::new(),
    };
    for (_, _, fetched, spans) in results {
        for (i, result) in fetched {
            out.attempted += 1;
            match result {
                Ok(f) => phase.fetches.push((i, f)),
                Err(why) => out.fail(format!("serve-mixed: fetch of tuple {}: {why}", i + 1)),
            }
        }
        phase.spans.extend(spans.unwrap_or_default());
    }
    phase
}

/// Everything measured in one daemon lifecycle.
#[derive(Default)]
struct Lifecycle {
    setup_s: f64,
    cold_rate: f64,
    cold_cpu_s: f64,
    cold_medges: f64,
    warm_wall_s: f64,
    warm_cpu_s: f64,
    warm_bytes: u64,
    peak_rss_mib: f64,
    cold: Vec<Fetch>,
    warm: Vec<Fetch>,
    status_rtt_s: Vec<f64>,
    coalesced_share: f64,
    rejects: f64,
    spans: Vec<Span>,
}

fn lifecycle(
    env: &Env,
    tuples: &[Tuple],
    solo_files: &[(usize, PathBuf)],
    index: usize,
    trace: Option<Instant>,
    out: &mut Outcome,
) -> Result<Lifecycle, String> {
    let trace = trace.map(|epoch| (epoch, index as u32));
    out.attempted += 1;
    let (daemon, setup_s) = Daemon::spawn(env, index)?;
    let mut life = Lifecycle {
        setup_s,
        ..Lifecycle::default()
    };
    let cached = tuples.len() - 1; // the last tuple is the burst's

    // Cold: client c fetches the uncached tuples c, c+2, ... in turn.
    let cpu0 = daemon.cpu_s();
    let split = |offset: usize| -> [Vec<usize>; 2] {
        [0, 1].map(|c| (0..cached).filter(|i| (i + offset) % 2 == c).collect())
    };
    let cold = phase(&daemon, tuples, split(0), env, trace, out);
    let cpu1 = daemon.cpu_s();
    let cold_edges: u64 = cold.fetches.iter().map(|(i, _)| tuples[*i].edges).sum();
    life.cold_rate = cold_edges as f64 / cold.wall_s;
    life.cold_medges = cold_edges as f64 / 1e6;
    life.cold_cpu_s = cpu1 - cpu0;

    // Burst: both clients submit the same new tuple at once; exactly
    // one run may result, the other submit must coalesce onto it.
    let before = daemon.status().map_err(|e| format!("status: {e}"))?;
    let burst = phase(
        &daemon,
        tuples,
        [vec![cached], vec![cached]],
        env,
        trace,
        out,
    );
    let after = daemon.status().map_err(|e| format!("status: {e}"))?;
    let ran = after.stats.jobs_run - before.stats.jobs_run;
    let coalesced = after.stats.jobs_coalesced - before.stats.jobs_coalesced;
    out.attempted += 1;
    if (ran, coalesced) != (1, 1) {
        out.fail(format!(
            "serve-mixed: burst made {ran} run(s) and {coalesced} coalesced submit(s), want 1 + 1"
        ));
    }
    life.coalesced_share = coalesced as f64 / (ran + coalesced).max(1) as f64;

    // Warm: rounds over the cached tuples, the halves swapping clients
    // each round so every client streams every artifact.
    let cpu2 = daemon.cpu_s();
    let rounds = if env.smoke {
        1
    } else {
        spec::SERVE_WARM_ROUNDS
    };
    let mut plan: [Vec<usize>; 2] = [Vec::new(), Vec::new()];
    for round in 0..rounds {
        for (client, half) in split(round).into_iter().enumerate() {
            plan[client].extend(half);
        }
    }
    let warm = phase(&daemon, tuples, plan, env, trace, out);
    life.warm_cpu_s = daemon.cpu_s() - cpu2;
    life.warm_wall_s = warm.wall_s;
    life.warm_bytes = warm.fetches.iter().map(|(_, f)| f.bytes).sum();

    // STATUS round trips against the now idle daemon.
    for _ in 0..20 {
        let t = Instant::now();
        if daemon.status().is_ok() {
            life.status_rtt_s.push(t.elapsed().as_secs_f64());
        }
    }
    life.rejects = after.stats.rejects as f64;
    life.peak_rss_mib = proc::process_peak_rss_mib(daemon.guard.pid()).unwrap_or(0.0);

    // Verification, outside every timed region: each artifact in the
    // daemon's cache must hold the oracle's edge multiset and the bytes
    // the clients saw; one bin and one txt tuple must equal a solo
    // `pagen generate` byte for byte.
    for (i, t) in tuples.iter().enumerate() {
        out.attempted += 1;
        let art = daemon
            .jobs_dir
            .join(format!("{:016x}.art", t.spec.job_id()));
        let streamed = cold
            .fetches
            .iter()
            .chain(&burst.fetches)
            .chain(&warm.fetches)
            .filter(|(j, _)| *j == i)
            .map(|(_, f)| f.fnv);
        match digest::digest_file(&art, t.text) {
            Err(e) => out.fail(format!("serve-mixed: artifact {}: {e}", i + 1)),
            Ok((d, _)) if d != t.oracle => out.fail(format!(
                "serve-mixed: artifact {} differs from seq::copy_model",
                i + 1
            )),
            Ok((_, fnv)) => {
                if let Some(other) = streamed.clone().find(|f| *f != fnv) {
                    out.fail(format!(
                        "serve-mixed: tuple {} streamed FNV {other:016x}, cached file has {fnv:016x}",
                        i + 1
                    ));
                }
            }
        }
        if let Some((_, solo)) = solo_files.iter().find(|(j, _)| *j == i) {
            out.attempted += 1;
            let same =
                matches!((std::fs::read(&art), std::fs::read(solo)), (Ok(a), Ok(b)) if a == b);
            if !same {
                out.fail(format!(
                    "serve-mixed: artifact {} is not byte-equal to a solo pagen generate",
                    i + 1
                ));
            }
        }
    }

    life.cold = cold.fetches.iter().map(|(_, f)| *f).collect();
    life.warm = warm.fetches.iter().map(|(_, f)| *f).collect();
    life.spans = [cold.spans, burst.spans, warm.spans].concat();
    daemon.shutdown()?;
    Ok(life)
}

/// What a serve pass produced beyond the end-to-end outcome.
#[derive(Default)]
pub struct ServeLayers {
    /// `(per-layer metric name, value)`.
    pub values: Vec<(&'static str, f64)>,
    /// Warm latency samples behind the percentiles.
    pub warm_samples: usize,
    pub spans: Vec<Span>,
    /// Median cold+warm wall of the traced and untraced lifecycles (the
    /// two halves of `trace.overhead_share`); zero when not alternating.
    pub traced_wall_s: f64,
    pub untraced_wall_s: f64,
}

/// Run the serve workload for `env.seconds`. With `traced`, lifecycles
/// alternate between recording spans and not, so the pass prices its
/// own tracing.
pub fn run_serve(env: &Env, w: &Workload, traced: bool) -> (Outcome, ServeLayers) {
    let mut out = Outcome::default();
    let ntuples = if env.smoke { 2 } else { spec::SERVE_TUPLES };
    let tuples: Vec<Tuple> = (1..=ntuples as u64 + 1).map(|k| tuple(env, w, k)).collect();

    // Set-up: solo `pagen generate` of the first bin and txt tuple — the
    // byte-equality reference and the denominator of cold_over_solo.
    let mut solo_files = Vec::new();
    let mut solo_walls = Vec::new();
    for i in [0usize, 1] {
        let t = &tuples[i];
        let path = env.scratch.path(&format!("solo-{i}"));
        let mut cmd = std::process::Command::new(&env.pagen);
        cmd.args([
            "generate", "--model", "pa", "--scheme", "rrp", "--ranks", "1",
        ])
        .args(["--engine", &w.engine.to_string()])
        .args(["--x", &spec::X.to_string(), "--p", &spec::P.to_string()])
        .args([
            "--n",
            &t.spec.n.to_string(),
            "--seed",
            &t.spec.seed.to_string(),
        ])
        .args(["--format", if t.text { "txt" } else { "bin" }])
        .arg("--out")
        .arg(&path);
        out.attempted += 1;
        match proc::run(&mut cmd, Watch::TimeOnly, env.op_timeout()) {
            Ok(cost) => {
                solo_walls.push(cost.wall_s);
                solo_files.push((i, path));
            }
            Err(why) => out.fail(format!("serve-mixed: solo generate: {why}")),
        }
    }

    let epoch = Instant::now();
    let min_lives = if env.smoke { 1 } else { spec::MIN_LIFECYCLES };
    let min_lives = if traced { min_lives.max(2) } else { min_lives };
    let mut lives: Vec<(bool, Lifecycle)> = Vec::new();
    let mut index = 0;
    while (lives.len() < min_lives || epoch.elapsed().as_secs_f64() < env.seconds)
        && index < 4 * min_lives.max(3)
    {
        // Traced passes alternate, starting traced.
        let tracing = traced && index % 2 == 0;
        match lifecycle(
            env,
            &tuples,
            &solo_files,
            index,
            tracing.then_some(epoch),
            &mut out,
        ) {
            Ok(life) => lives.push((tracing, life)),
            Err(why) => out.fail(format!("serve-mixed: lifecycle {index}: {why}")),
        }
        index += 1;
    }

    // A few more spawn → STATUS → drain cycles so setup_s is a median
    // of as many launches as the other workloads get.
    let mut setup: Vec<f64> = lives.iter().map(|(_, l)| l.setup_s).collect();
    while setup.len() < env.setup_launches() {
        out.attempted += 1;
        match Daemon::spawn(env, 1000 + setup.len()) {
            Ok((daemon, s)) => {
                setup.push(s);
                if let Err(why) = daemon.shutdown() {
                    out.fail(format!("serve-mixed: set-up launch: {why}"));
                }
            }
            Err(why) => {
                out.fail(format!("serve-mixed: set-up launch: {why}"));
                break;
            }
        }
    }
    for (_, path) in &solo_files {
        let _ = std::fs::remove_file(path);
    }

    let mut layers = ServeLayers::default();
    if lives.is_empty() {
        out.seal();
        return (out, layers);
    }
    let per_life =
        |f: &dyn Fn(&Lifecycle) -> f64| -> Vec<f64> { lives.iter().map(|(_, l)| f(l)).collect() };
    let pooled =
        |phase: &dyn Fn(&Lifecycle) -> &Vec<Fetch>, f: &dyn Fn(&Fetch) -> f64| -> Vec<f64> {
            lives
                .iter()
                .flat_map(|(_, l)| phase(l).iter().map(f))
                .collect()
        };
    let mib = |bytes: u64| bytes as f64 / (1 << 20) as f64;
    let warm_ttfb_ms = pooled(&|l| &l.warm, &|f| f.first_chunk_s * 1e3);
    let warm_rate = per_life(&|l| mib(l.warm_bytes) / l.warm_wall_s);

    out.metrics = vec![
        ("edges_per_s", summarize(&per_life(&|l| l.cold_rate))),
        (
            "cpu_s_per_medge",
            summarize(&per_life(&|l| l.cold_cpu_s / l.cold_medges)),
        ),
        ("peak_rss_mib", summarize(&per_life(&|l| l.peak_rss_mib))),
        ("setup_s", summarize(&setup)),
        ("ttfb_ms", summarize(&warm_ttfb_ms)),
        ("warm_mib_per_s", summarize(&warm_rate)),
    ];
    out.seal();

    let warm_accept_ms = pooled(&|l| &l.warm, &|f| f.accept_s * 1e3);
    let cold_accept_ms = pooled(&|l| &l.cold, &|f| f.accept_s * 1e3);
    let cold_done_s = pooled(&|l| &l.cold, &|f| f.done_s);
    let stream_rate = pooled(&|l| &l.warm, &|f| {
        mib(f.bytes) / (f.done_s - f.first_chunk_s)
    });
    let status_us: Vec<f64> = lives
        .iter()
        .flat_map(|(_, l)| l.status_rtt_s.iter().map(|s| s * 1e6))
        .collect();
    let warm_cpu = median(&per_life(&|l| l.warm_cpu_s));
    let warm_bytes = median(&per_life(&|l| l.warm_bytes as f64));
    let solo = if solo_walls.is_empty() {
        f64::NAN
    } else {
        median(&solo_walls)
    };
    layers.warm_samples = warm_ttfb_ms.len();
    layers.values = vec![
        ("serve.ttfb_ms_p50", median(&warm_ttfb_ms)),
        ("serve.ttfb_ms_p90", percentile(&warm_ttfb_ms, 90.0)),
        ("serve.warm_mib_per_s", median(&warm_rate)),
        ("serve.warm_accept_ms_p50", median(&warm_accept_ms)),
        (
            "serve.warm_accept_ms_p90",
            percentile(&warm_accept_ms, 90.0),
        ),
        ("serve.cold_accept_ms_p50", median(&cold_accept_ms)),
        ("serve.cold_over_solo_ratio", median(&cold_done_s) / solo),
        ("serve.stream_mib_per_s_per_conn", median(&stream_rate)),
        ("serve.status_rtt_us", median(&status_us)),
        (
            "serve.coalesced_share",
            median(&per_life(&|l| l.coalesced_share)),
        ),
        ("serve.rejects", median(&per_life(&|l| l.rejects))),
        (
            "serve.daemon_cpu_s_cold",
            median(&per_life(&|l| l.cold_cpu_s)),
        ),
        ("serve.daemon_cpu_s_warm", warm_cpu),
        ("serve.warm_cpu_ns_per_byte", warm_cpu * 1e9 / warm_bytes),
    ];
    let wall_of = |want: bool| -> f64 {
        let walls: Vec<f64> = lives
            .iter()
            .filter(|(t, _)| *t == want)
            .map(|(_, l)| l.cold_medges * 1e6 / l.cold_rate + l.warm_wall_s)
            .collect();
        if walls.is_empty() {
            0.0
        } else {
            median(&walls)
        }
    };
    layers.traced_wall_s = wall_of(true);
    layers.untraced_wall_s = wall_of(false);
    layers.spans = lives.into_iter().flat_map(|(_, l)| l.spans).collect();
    (out, layers)
}
