//! Supervision matrix for the serve daemon: seeded fault injection
//! (panic / wedge-past-deadline / io-error / slow-but-ok) × concurrent
//! waiters, in the spirit of the transport's `FaultPlan` chaos tests.
//!
//! The invariants pinned here are the self-healing contract:
//!
//! * every client observes a **named** reject or a checksum-verified
//!   artifact — never a hang;
//! * the worker pool returns to its configured size after every fault;
//! * the counters reconcile after quiescence:
//!   `admitted == run + failed + drained`;
//! * a restart on the same jobs directory serves the pre-crash cache
//!   without re-running, and deletes temp litter.
//!
//! Faults are chosen by a pure function of `(plan, seed)`, so the test
//! *searches* for seeds with the faults it wants — deterministic, no
//! global state, and every expectation is computable up front.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pa_graph::io::Fnv1a;
use pa_net::serve::{
    fetch, FetchError, FetchOptions, JobRunner, JobSpec, ServeConfig, ServeStatus, Server,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    Ok,
    Panic,
    Wedge,
    IoError,
    Slow,
}

/// The fault a runner injects for `seed` under `plan` — a pure
/// function, so tests can pick seeds with the faults they want.
fn fault_for(plan: u64, seed: u64) -> Fault {
    let mut bytes = [0u8; 16];
    bytes[..8].copy_from_slice(&plan.to_le_bytes());
    bytes[8..].copy_from_slice(&seed.to_le_bytes());
    match Fnv1a::hash(&bytes) % 5 {
        0 => Fault::Ok,
        1 => Fault::Panic,
        2 => Fault::Wedge,
        3 => Fault::IoError,
        _ => Fault::Slow,
    }
}

/// The first `k` seeds whose fault under `plan` is `fault`.
fn seeds_with(plan: u64, fault: Fault, k: usize) -> Vec<u64> {
    (1u64..)
        .filter(|s| fault_for(plan, *s) == fault)
        .take(k)
        .collect()
}

fn pattern_byte(seed: u64, i: u64) -> u8 {
    (seed.wrapping_add(i).wrapping_mul(0x9e37_79b9)) as u8
}

fn expected_bytes(spec: &JobSpec) -> Vec<u8> {
    (0..spec.n).map(|i| pattern_byte(spec.seed, i)).collect()
}

/// Engine-free runner that injects its plan's fault for each seed and
/// records every run attempt (the rerun/budget witness).
#[derive(Clone)]
struct FaultRunner {
    plan: u64,
    wedge: Duration,
    slow: Duration,
    runs: Arc<Mutex<Vec<u64>>>,
}

impl FaultRunner {
    fn new(plan: u64) -> Self {
        FaultRunner {
            plan,
            wedge: Duration::from_secs(3),
            slow: Duration::from_millis(50),
            runs: Arc::new(Mutex::new(Vec::new())),
        }
    }

    fn runs_of(&self, seed: u64) -> usize {
        self.runs
            .lock()
            .unwrap()
            .iter()
            .filter(|s| **s == seed)
            .count()
    }
}

impl JobRunner for FaultRunner {
    fn validate(&self, spec: &JobSpec) -> Result<(), String> {
        if spec.n == 0 {
            return Err("n must be positive".into());
        }
        Ok(())
    }

    fn run(&self, spec: &JobSpec, out: &Path) -> Result<(), String> {
        self.runs.lock().unwrap().push(spec.seed);
        match fault_for(self.plan, spec.seed) {
            Fault::Ok => {}
            Fault::Slow => std::thread::sleep(self.slow),
            Fault::Wedge => std::thread::sleep(self.wedge),
            Fault::Panic => panic!("injected panic for seed {}", spec.seed),
            Fault::IoError => return Err(format!("injected io error for seed {}", spec.seed)),
        }
        std::fs::write(out, expected_bytes(spec)).map_err(|e| e.to_string())
    }
}

fn spec(n: u64, seed: u64) -> JobSpec {
    JobSpec {
        n,
        x: 1,
        p_bits: 0.5f64.to_bits(),
        seed,
        alpha_bits: 0,
        ranks: 1,
        scheme_id: 2,
        engine_id: 2,
        model_id: 0,
        format_id: 1,
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("serve_chaos_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn start(tag: &str, runner: FaultRunner, tune: impl FnOnce(&mut ServeConfig)) -> Server {
    let mut cfg = ServeConfig::new(fresh_dir(tag).join("jobs"));
    cfg.chunk_bytes = 64;
    tune(&mut cfg);
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    Server::start(listener, cfg, runner).unwrap()
}

fn quick_opts(server: &Server, sp: JobSpec, out: PathBuf, attempts: u32) -> FetchOptions {
    let mut opts = FetchOptions::new(server.addr().to_string(), sp, out);
    opts.max_attempts = attempts;
    opts.backoff_initial = Duration::from_millis(5);
    opts.backoff_cap = Duration::from_millis(50);
    opts
}

/// Poll the server until `pred` holds (20 s bound, like the queue
/// tests): turns "eventually" invariants into assertions, not sleeps.
fn wait_status(server: &Server, what: &str, pred: impl Fn(&ServeStatus) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let status = server.status();
        if pred(&status) {
            return;
        }
        assert!(Instant::now() < deadline, "{what}: still {status:?}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn reconcile(server: &Server) {
    let stats = server.stats();
    assert_eq!(
        stats.jobs_admitted,
        stats.jobs_run + stats.jobs_failed + stats.jobs_drained,
        "admitted = run + failed + drained must hold after quiescence: {stats:?}"
    );
    assert_eq!(
        stats.rejects_by.iter().sum::<u64>(),
        stats.rejects,
        "per-code reject counters must sum to the total: {stats:?}"
    );
}

#[test]
fn panicking_runner_releases_every_waiter_and_the_pool_survives() {
    let plan = 1;
    let runner = FaultRunner::new(plan);
    let server = start("panic", runner.clone(), |cfg| {
        cfg.workers = 2;
        cfg.max_job_failures = 0; // unlimited: isolate supervision
    });
    let panic_seed = seeds_with(plan, Fault::Panic, 1)[0];
    let ok_seed = seeds_with(plan, Fault::Ok, 1)[0];
    let dir = fresh_dir("panic_out");

    // Three concurrent waiters on one panicking tuple: every one must
    // get a named job-failed with the panic message, never a hang.
    let handles: Vec<_> = (0..3)
        .map(|i| {
            let opts = quick_opts(
                &server,
                spec(600, panic_seed),
                dir.join(format!("p{i}.bin")),
                1,
            );
            std::thread::spawn(move || fetch(&opts))
        })
        .collect();
    for h in handles {
        match h.join().unwrap().unwrap_err() {
            FetchError::Exhausted { last, .. } => {
                assert!(last.contains("job-failed"), "{last:?}");
                assert!(last.contains("injected panic"), "{last:?}");
            }
            other => panic!("expected exhausted job-failed, got {other:?}"),
        }
    }

    // The pool survived: both workers alive, and fresh work runs fine.
    let ok_handles: Vec<_> = (0..2)
        .map(|i| {
            let opts = quick_opts(
                &server,
                spec(600, ok_seed),
                dir.join(format!("ok{i}.bin")),
                8,
            );
            std::thread::spawn(move || fetch(&opts))
        })
        .collect();
    for (i, h) in ok_handles.into_iter().enumerate() {
        h.join().unwrap().unwrap();
        assert_eq!(
            std::fs::read(dir.join(format!("ok{i}.bin"))).unwrap(),
            expected_bytes(&spec(600, ok_seed))
        );
    }
    let status = server.status();
    assert_eq!(status.workers, 2, "pool must stay at configured size");
    assert_eq!(status.workers_wedged, 0);
    assert!(status.stats.worker_panics >= 1, "{:?}", status.stats);

    server.drain();
    reconcile(&server);
    server.join();
}

#[test]
fn wedged_runner_times_out_retryably_and_a_replacement_keeps_serving() {
    let plan = 2;
    let runner = FaultRunner::new(plan);
    let server = start("wedge", runner.clone(), |cfg| {
        cfg.workers = 1; // the wedge would stall the whole daemon...
        cfg.job_timeout = Some(Duration::from_millis(150));
        cfg.max_job_failures = 1;
    });
    let wedge_seed = seeds_with(plan, Fault::Wedge, 1)[0];
    let ok_seed = seeds_with(plan, Fault::Ok, 1)[0];
    let dir = fresh_dir("wedge_out");

    // The wedged run is abandoned at the deadline with the retryable
    // timeout code (budget of 1 attempt here, so it surfaces at once).
    let err = fetch(&quick_opts(
        &server,
        spec(300, wedge_seed),
        dir.join("w.bin"),
        1,
    ))
    .unwrap_err();
    match err {
        FetchError::Exhausted { last, .. } => {
            assert!(last.contains("job-timeout"), "{last:?}");
            assert!(last.contains("deadline"), "{last:?}");
        }
        other => panic!("expected exhausted job-timeout, got {other:?}"),
    }
    wait_status(&server, "replacement spawned", |s| {
        s.workers == 1 && s.workers_wedged == 1
    });

    // ...but the replacement worker serves new jobs while the wedged
    // one still sleeps (the 3 s wedge bounds this assertion).
    let started = Instant::now();
    fetch(&quick_opts(
        &server,
        spec(300, ok_seed),
        dir.join("ok.bin"),
        8,
    ))
    .unwrap();
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "fresh job waited {:?} — pool was not replenished",
        started.elapsed()
    );

    // Once the wedge ends, the abandoned worker retires itself and
    // removes its (uniquely named) temp file; the pool ends at size.
    wait_status(&server, "wedged worker retired", |s| {
        s.workers == 1 && s.workers_wedged == 0
    });
    let s = server.status();
    assert_eq!(s.stats.jobs_timed_out, 1, "{:?}", s.stats);
    assert_eq!(s.cache_artifacts, 1, "only the ok artifact is cached");
    server.drain();
    reconcile(&server);
    server.join();
}

#[test]
fn io_error_runs_fail_named_and_rerun_fresh_per_client_attempt() {
    let plan = 3;
    let runner = FaultRunner::new(plan);
    let server = start("ioerr", runner.clone(), |cfg| {
        cfg.workers = 2;
        cfg.max_job_failures = 0; // unlimited: pin the rerun behavior
    });
    let io_seed = seeds_with(plan, Fault::IoError, 1)[0];
    let dir = fresh_dir("ioerr_out");
    let err = fetch(&quick_opts(
        &server,
        spec(200, io_seed),
        dir.join("a.bin"),
        2,
    ))
    .unwrap_err();
    match err {
        FetchError::Exhausted { attempts, last } => {
            assert_eq!(attempts, 2);
            assert!(last.contains("job-failed"), "{last:?}");
            assert!(last.contains("injected io error"), "{last:?}");
        }
        other => panic!("expected exhausted job-failed, got {other:?}"),
    }
    assert_eq!(
        runner.runs_of(io_seed),
        2,
        "failures are not cached: each client attempt re-runs"
    );
    assert_eq!(server.status().cache_artifacts, 0);
    server.drain();
    reconcile(&server);
    server.join();
}

#[test]
fn poison_job_budget_stops_reruns_and_names_the_exhaustion() {
    let plan = 4;
    let runner = FaultRunner::new(plan);
    let server = start("poison", runner.clone(), |cfg| {
        cfg.workers = 2;
        cfg.max_job_failures = 2;
    });
    let io_seed = seeds_with(plan, Fault::IoError, 1)[0];
    let dir = fresh_dir("poison_out");
    let err = fetch(&quick_opts(
        &server,
        spec(200, io_seed),
        dir.join("a.bin"),
        6,
    ))
    .unwrap_err();
    match err {
        FetchError::Exhausted { attempts, last } => {
            assert_eq!(attempts, 6);
            assert!(last.contains("failure budget"), "{last:?}");
        }
        other => panic!("expected exhausted budget rejects, got {other:?}"),
    }
    assert_eq!(
        runner.runs_of(io_seed),
        2,
        "a poison job must stop consuming workers at the budget"
    );
    server.drain();
    reconcile(&server);
    server.join();
}

#[test]
fn chaos_matrix_every_client_ends_with_artifact_or_named_reject() {
    let plan = 5;
    let runner = FaultRunner::new(plan);
    let mut runner_cfg = runner.clone();
    runner_cfg.wedge = Duration::from_secs(1);
    let server = start("matrix", runner_cfg, |cfg| {
        cfg.workers = 3;
        cfg.queue_cap = 64;
        cfg.job_timeout = Some(Duration::from_millis(250));
        cfg.max_job_failures = 2;
    });
    let dir = fresh_dir("matrix_out");
    let faults = [
        Fault::Ok,
        Fault::Panic,
        Fault::Wedge,
        Fault::IoError,
        Fault::Slow,
    ];
    let mut handles = Vec::new();
    for fault in faults {
        for seed in seeds_with(plan, fault, 2) {
            for client in 0..3 {
                let opts = quick_opts(
                    &server,
                    spec(1000, seed),
                    dir.join(format!("{seed}_{client}.bin")),
                    6,
                );
                handles.push((
                    fault,
                    seed,
                    client,
                    std::thread::spawn(move || fetch(&opts)),
                ));
            }
        }
    }
    for (fault, seed, client, handle) in handles {
        let result = handle.join().unwrap();
        match fault {
            Fault::Ok | Fault::Slow => {
                result.unwrap_or_else(|e| panic!("seed {seed} client {client}: {e}"));
                assert_eq!(
                    std::fs::read(dir.join(format!("{seed}_{client}.bin"))).unwrap(),
                    expected_bytes(&spec(1000, seed)),
                    "seed {seed} client {client}"
                );
            }
            Fault::Panic | Fault::Wedge | Fault::IoError => {
                let err = result.expect_err("faulty tuple cannot produce an artifact");
                let named = match &err {
                    FetchError::Exhausted { last, .. } => {
                        last.contains("job-failed") || last.contains("job-timeout")
                    }
                    _ => false,
                };
                assert!(
                    named,
                    "seed {seed} client {client}: unnamed failure {err:?}"
                );
            }
        }
    }
    // The pool converges back to its configured size once the wedges
    // (≤ 1 s each) expire and their workers retire.
    wait_status(&server, "pool back at size", |s| {
        s.workers == 3 && s.workers_wedged == 0 && s.running == 0 && s.queued == 0
    });
    // The wire status agrees with the in-process snapshot at quiescence.
    let wire = pa_net::serve::status(&server.addr().to_string(), Duration::from_secs(10)).unwrap();
    let local = server.status();
    assert_eq!(wire.stats, local.stats);
    assert_eq!(wire.cache_bytes, local.cache_bytes);
    assert_eq!(wire.cache_artifacts, local.cache_artifacts);
    server.drain();
    reconcile(&server);
    server.join();
}

#[test]
fn cache_quota_evicts_lru_and_evicted_tuples_rerun_on_demand() {
    let plan = 6;
    let runner = FaultRunner::new(plan);
    let server = start("evict", runner.clone(), |cfg| {
        cfg.workers = 1;
        cfg.cache_bytes = 2500; // holds two 1000-byte artifacts
    });
    let seeds = seeds_with(plan, Fault::Ok, 3);
    let dir = fresh_dir("evict_out");
    for (i, seed) in seeds.iter().enumerate() {
        fetch(&quick_opts(
            &server,
            spec(1000, *seed),
            dir.join(format!("{i}.bin")),
            8,
        ))
        .unwrap();
    }
    // Publishing the third artifact pushed the cache to 3000 bytes; the
    // least-recently-streamed one (the first) was evicted to fit.
    let status = server.status();
    assert_eq!(status.cache_artifacts, 2, "{status:?}");
    assert_eq!(status.cache_bytes, 2000);
    assert_eq!(status.stats.jobs_evicted, 1);
    assert_eq!(runner.runs_of(seeds[0]), 1);
    // An evicted tuple is simply re-run on its next submit.
    fetch(&quick_opts(
        &server,
        spec(1000, seeds[0]),
        dir.join("again.bin"),
        8,
    ))
    .unwrap();
    assert_eq!(
        std::fs::read(dir.join("again.bin")).unwrap(),
        expected_bytes(&spec(1000, seeds[0]))
    );
    assert_eq!(runner.runs_of(seeds[0]), 2);
    assert_eq!(server.status().cache_artifacts, 2);
    server.drain();
    reconcile(&server);
    server.join();
}

/// A runner that must never run: restart recovery serves from the
/// rebuilt cache, not from re-generation.
struct MustNotRun;

impl JobRunner for MustNotRun {
    fn validate(&self, _spec: &JobSpec) -> Result<(), String> {
        Ok(())
    }
    fn run(&self, spec: &JobSpec, _out: &Path) -> Result<(), String> {
        Err(format!(
            "seed {} re-ran after restart — the recovered cache was ignored",
            spec.seed
        ))
    }
}

#[test]
fn restart_on_same_jobs_dir_recovers_cache_and_cleans_tmp_litter() {
    let plan = 7;
    let runner = FaultRunner::new(plan);
    let ok_seed = seeds_with(plan, Fault::Ok, 1)[0];
    let sp = spec(4096, ok_seed);
    let jobs_dir = fresh_dir("restart").join("jobs");
    let dir = fresh_dir("restart_out");

    // First daemon caches one artifact, then goes away. (The crash
    // aspect — SIGKILL mid-stream — is exercised end-to-end by ci.sh;
    // here the equivalent on-disk state is staged directly.)
    {
        let mut cfg = ServeConfig::new(&jobs_dir);
        cfg.chunk_bytes = 64;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let server = Server::start(listener, cfg, runner).unwrap();
        fetch(&quick_opts(&server, sp, dir.join("first.bin"), 8)).unwrap();
        server.drain();
        server.join();
    }
    // Stale temp litter, as a crashed run would leave behind: run
    // outputs and a streaming runner's per-rank part file.
    std::fs::write(jobs_dir.join("deadbeefdeadbeef.3.tmp"), b"junk").unwrap();
    std::fs::write(
        jobs_dir.join(format!("{:016x}.9.tmp", sp.job_id())),
        b"junk",
    )
    .unwrap();
    std::fs::write(jobs_dir.join("deadbeefdeadbeef.4.tmp.part1"), b"junk").unwrap();

    // Second daemon on the same directory, with a runner that fails any
    // re-run: serving must come from the recovered cache alone.
    let mut cfg = ServeConfig::new(&jobs_dir);
    cfg.chunk_bytes = 64;
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let server = Server::start(listener, cfg, MustNotRun).unwrap();
    let status = server.status();
    assert_eq!(status.stats.jobs_recovered, 1, "{status:?}");
    assert_eq!(status.stats.tmp_cleaned, 3);
    assert_eq!(status.cache_artifacts, 1);
    assert_eq!(status.cache_bytes, 4096);

    // Fresh fetch streams the recovered artifact byte-identically...
    fetch(&quick_opts(&server, sp, dir.join("second.bin"), 1)).unwrap();
    assert_eq!(
        std::fs::read(dir.join("second.bin")).unwrap(),
        std::fs::read(dir.join("first.bin")).unwrap()
    );
    // ...and an interrupted client resumes over it with the
    // whole-artifact checksum intact.
    let prefix = std::fs::read(dir.join("first.bin")).unwrap()[..1000].to_vec();
    std::fs::write(dir.join("resumed.bin"), &prefix).unwrap();
    let mut opts = quick_opts(&server, sp, dir.join("resumed.bin"), 1);
    opts.resume = true;
    let report = fetch(&opts).unwrap();
    assert_eq!(report.resumed_from, 1000);
    assert_eq!(
        std::fs::read(dir.join("resumed.bin")).unwrap(),
        std::fs::read(dir.join("first.bin")).unwrap()
    );
    // The litter is gone and nothing new appeared.
    let leftovers: Vec<String> = std::fs::read_dir(&jobs_dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.contains(".tmp"))
        .collect();
    assert!(
        leftovers.is_empty(),
        "stale temp files survived: {leftovers:?}"
    );

    server.drain();
    let stats = server.join();
    assert_eq!(stats.jobs_run, 0, "the recovered cache served everything");
}
