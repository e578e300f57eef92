//! The serve daemon: bounded queue, supervised worker pool, artifact
//! cache with crash recovery, per-connection streaming.
//!
//! # Lifecycle of a job
//!
//! ```text
//! SUBMIT ──validate──► Queued ──worker──► Running ──► Done{total, checksum}
//!            │            │                  │
//!            ▼            ▼ (drain)          ▼ (error / panic / deadline)
//!         REJECT       Failed{draining}   Failed{job-failed | job-timeout}
//! ```
//!
//! A job runs **at most once per artifact**: concurrent submits of the
//! same tuple coalesce onto one queue entry and all stream the same
//! artifact when it completes; a failed run is *not* cached — its
//! waiters get a named [`RejectCode`] and the next submit retries,
//! until the per-tuple failure budget ([`ServeConfig::max_job_failures`])
//! is spent.
//!
//! # Self-healing discipline
//!
//! The daemon promises "named error, never a hang", the same contract
//! the rank-to-rank transport keeps:
//!
//! - **Supervision.** Jobs run under `catch_unwind`: a panicking
//!   runner becomes `Failed{job-failed}` with the panic message, its
//!   waiters are released, and the worker thread survives.
//! - **Deadlines.** With [`ServeConfig::job_timeout`] set, a monitor
//!   thread abandons overdue runs as `Failed{job-timeout}` and spawns a
//!   replacement worker, so one wedged runner cannot shrink the pool.
//!   The abandoned worker retires itself if it ever wakes; its run is
//!   discarded (each run attempt owns a unique temp path and the
//!   publish rename happens under the lock only while the run is still
//!   current, so a late finisher can never clobber the cache).
//! - **Recovery.** On startup the jobs directory is scanned: stale
//!   `*.tmp` litter (and a runner's `*.tmp.part<N>` files) is deleted
//!   and every `*.art` artifact is re-checksummed and republished, so a
//!   SIGKILLed daemon restarted on the same directory serves its
//!   pre-crash cache instead of re-running (engines 1/2 are not
//!   byte-deterministic across runs — a re-run would break every
//!   resuming client's whole-artifact checksum).
//! - **Admission control.** Connections beyond
//!   [`ServeConfig::max_conns`] get a retryable
//!   [`RejectCode::Overloaded`] instead of an unbounded thread; the
//!   artifact cache is held under [`ServeConfig::cache_bytes`] by
//!   least-recently-used eviction (streams pin their artifact).
//!
//! The artifact is written to a per-run temp path and renamed into the
//! cache only after the whole run and its checksum pass, so a crashed
//! or failed run can never leave a half-written file that a resume
//! would then trust.
//!
//! # Why streaming is resume-trivial
//!
//! Connections only ever stream *completed* artifacts (a submit for an
//! in-flight job waits for completion first). Resuming from byte
//! `offset` is therefore a plain `seek` — no generator state is ever
//! part of the resume contract, which is what keeps the token down to
//! `(tuple, offset)`.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use super::proto::{
    parse_request, write_accept, write_chunk, write_done, write_drain_ack, write_reject,
    write_status_ack, JobSpec, RejectCode, RequestError, ServeMsg, ServeStats, ServeStatus,
    MAX_REQUEST_FRAME,
};
use crate::bootstrap::self_dial_addr;
use crate::frame::read_raw_frame;
use pa_graph::io::{stream_file_from, Fnv1a};

/// Executes admitted jobs. The serve layer owns scheduling, caching and
/// streaming; the runner owns *meaning* — `pa-cli` wires this to the
/// generation engines, tests plug in synthetic runners.
pub trait JobRunner: Send + Sync + 'static {
    /// Decide whether `spec` names a runnable job, with a named error
    /// for the [`RejectCode::BadRequest`] rejection if not. Runs on the
    /// connection thread — keep it cheap.
    fn validate(&self, spec: &JobSpec) -> Result<(), String>;

    /// Produce the complete artifact for `spec` at `out` (the server
    /// renames it into the cache afterwards). Runs under `catch_unwind`:
    /// a panic here is reported to waiters as a job failure, not a dead
    /// worker. Resumes always continue the cached artifact, which is
    /// immutable once published, so the runner need not be
    /// byte-reproducible across runs — but if a re-run (after a cache
    /// eviction, say) produces different bytes, clients resuming an old
    /// prefix fail the whole-artifact checksum with a named error
    /// instead of silently stitching a hybrid.
    fn run(&self, spec: &JobSpec, out: &Path) -> Result<(), String>;
}

/// Daemon tuning. Every field is public; [`ServeConfig::new`] provides
/// defaults sized for tests and small deployments.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Directory for artifacts (created if missing). One file per
    /// completed job, named by job id. Scanned on startup to recover
    /// the cache of a previous (possibly crashed) daemon.
    pub jobs_dir: PathBuf,
    /// Queue bound, counting *queued* jobs only (running jobs have
    /// already left the queue). Full queue → `QueueFull` rejection.
    pub queue_cap: usize,
    /// Worker threads executing jobs. The pool holds this size through
    /// panics and deadline abandonments.
    pub workers: usize,
    /// Streaming chunk size in bytes.
    pub chunk_bytes: usize,
    /// The `retry_after` hint sent with retryable rejections.
    pub retry_after: Duration,
    /// Per-socket read/write timeout. Bounds half-open connections: a
    /// client that connects and never submits is dropped after this
    /// long, it cannot pin a connection slot forever.
    pub request_timeout: Duration,
    /// Per-job run deadline. `None` disables the monitor; with a
    /// deadline set, an overdue run is abandoned with a retryable
    /// [`RejectCode::JobTimeout`] and its worker is replaced.
    pub job_timeout: Option<Duration>,
    /// Connection cap. Accepts beyond it are turned away with a
    /// retryable [`RejectCode::Overloaded`] instead of spawning an
    /// unbounded thread per connection.
    pub max_conns: usize,
    /// Artifact-cache byte quota. When completed artifacts exceed it,
    /// the least-recently-streamed reader-free ones are evicted (and
    /// re-run on their next submit). `u64::MAX` means unlimited.
    pub cache_bytes: u64,
    /// Per-tuple failure budget: after this many failed run attempts
    /// (errors, panics or timeouts), further submits of the tuple are
    /// rejected without running until the daemon restarts. `0` means
    /// unlimited retries.
    pub max_job_failures: u32,
}

impl ServeConfig {
    /// Defaults: queue of 16, 2 workers, 256 KiB chunks, 200 ms retry
    /// hint, 10 s socket timeout, no job deadline, 64 connections,
    /// unlimited cache bytes, per-tuple failure budget of 3.
    pub fn new(jobs_dir: impl Into<PathBuf>) -> Self {
        ServeConfig {
            jobs_dir: jobs_dir.into(),
            queue_cap: 16,
            workers: 2,
            chunk_bytes: 256 << 10,
            retry_after: Duration::from_millis(200),
            request_timeout: Duration::from_secs(10),
            job_timeout: None,
            max_conns: 64,
            cache_bytes: u64::MAX,
            max_job_failures: 3,
        }
    }
}

enum Phase {
    Queued,
    Running {
        /// Run token: unique per run *attempt*. A run publishes or
        /// fails only while its token is still current; the monitor
        /// invalidates the token when it abandons an overdue run.
        run: u64,
        started: Instant,
    },
    Done {
        total: u64,
        checksum: u64,
        /// Logical LRU clock value of the last stream (eviction order).
        touch: u64,
        /// Streams in flight; a pinned artifact is never evicted.
        readers: u32,
    },
    Failed {
        msg: String,
        code: RejectCode,
    },
}

struct JobState {
    /// `None` for artifacts rebuilt by the recovery scan (the original
    /// tuple is not stored on disk; identity is the job-id filename).
    /// Always `Some` while an entry is queued.
    spec: Option<JobSpec>,
    phase: Phase,
}

struct Inner {
    queue: VecDeque<u64>,
    jobs: HashMap<u64, JobState>,
    draining: bool,
    shutdown: bool,
    running: usize,
    active_conns: usize,
    /// Run-token source (see [`Phase::Running`]).
    next_run: u64,
    /// Logical LRU clock (see [`Phase::Done`]).
    touch_clock: u64,
    /// Total bytes of completed artifacts in the cache.
    cache_bytes: u64,
    /// Worker threads alive, including wedged ones.
    workers_live: usize,
    /// Workers abandoned past a deadline, replaced, not yet retired.
    workers_wedged: usize,
    /// Failed run attempts per job id (cleared on success), charged
    /// against [`ServeConfig::max_job_failures`].
    failures: HashMap<u64, u32>,
    stats: ServeStats,
}

impl Inner {
    fn touch(&mut self) -> u64 {
        self.touch_clock += 1;
        self.touch_clock
    }

    /// The accept loop's exit condition: draining, nothing queued or
    /// running, no connection open.
    fn drained(&self) -> bool {
        self.draining && self.queue.is_empty() && self.running == 0 && self.active_conns == 0
    }
}

struct Shared {
    cfg: ServeConfig,
    runner: Arc<dyn JobRunner>,
    inner: Mutex<Inner>,
    cond: Condvar,
    /// Where the accept loop listens, as a client dials it: the one
    /// connection that breaks its blocking `accept` (see
    /// [`Shared::notify`]).
    wake_addr: SocketAddr,
}

impl Shared {
    /// Lock the state, recovering from poison: a panic on some other
    /// thread (already counted by supervision) must not cascade into
    /// every lock site.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, guard: MutexGuard<'a, Inner>) -> MutexGuard<'a, Inner> {
        self.cond
            .wait(guard)
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn wait_timeout<'a>(
        &self,
        guard: MutexGuard<'a, Inner>,
        dur: Duration,
    ) -> MutexGuard<'a, Inner> {
        self.cond
            .wait_timeout(guard, dur)
            .unwrap_or_else(PoisonError::into_inner)
            .0
    }

    /// Release `inner` and wake every condvar waiter. The accept loop
    /// blocks in `accept`, not on the condvar: when this change made the
    /// drain condition true, connect to the listener once so the loop
    /// wakes, sees it, and exits. Every state change that can complete
    /// a drain goes through here.
    fn notify(&self, inner: MutexGuard<'_, Inner>) {
        let drained = inner.drained();
        drop(inner);
        self.cond.notify_all();
        if drained {
            let _ = TcpStream::connect_timeout(&self.wake_addr, Duration::from_secs(1));
        }
    }

    fn artifact_path(&self, id: u64) -> PathBuf {
        self.cfg.jobs_dir.join(format!("{id:016x}.art"))
    }

    /// Temp path of one run *attempt*. Unique per attempt so an
    /// abandoned run and its retry can never write the same file.
    fn tmp_path(&self, id: u64, run: u64) -> PathBuf {
        self.cfg.jobs_dir.join(format!("{id:016x}.{run}.tmp"))
    }

    /// Enter drain: stop admitting, fail everything queued, wake every
    /// waiter and worker. Idempotent. Returns `(running, dropped)` for
    /// the `DRAIN_ACK`.
    fn drain_now(&self) -> (u32, u32) {
        let mut inner = self.lock();
        inner.draining = true;
        let mut dropped = 0u32;
        while let Some(id) = inner.queue.pop_front() {
            if let Some(job) = inner.jobs.get_mut(&id) {
                job.phase = Phase::Failed {
                    msg: "job drained before start".into(),
                    code: RejectCode::Draining,
                };
            }
            dropped += 1;
        }
        inner.stats.jobs_drained += u64::from(dropped);
        let running = inner.running as u32;
        self.notify(inner);
        (running, dropped)
    }

    /// Snapshot the daemon's health for `STATUS_ACK` / [`Server::status`].
    fn status_now(&self) -> ServeStatus {
        let inner = self.lock();
        let cache_artifacts = inner
            .jobs
            .values()
            .filter(|j| matches!(j.phase, Phase::Done { .. }))
            .count();
        ServeStatus {
            queued: inner.queue.len() as u32,
            running: inner.running as u32,
            active_conns: inner.active_conns as u32,
            workers: inner.workers_live.saturating_sub(inner.workers_wedged) as u32,
            workers_wedged: inner.workers_wedged as u32,
            cache_artifacts: cache_artifacts as u32,
            draining: inner.draining,
            cache_bytes: inner.cache_bytes,
            stats: inner.stats,
        }
    }
}

/// A running serve daemon. Dropping the handle does *not* stop it; the
/// clean shutdown sequence is [`Server::drain`] (or a `DRAIN_REQ` over
/// the wire) followed by [`Server::join`].
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    monitor: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` and start the daemon.
    ///
    /// # Errors
    ///
    /// Bind failures and a jobs-directory that cannot be created.
    pub fn bind(addr: &str, cfg: ServeConfig, runner: impl JobRunner) -> io::Result<Server> {
        Server::start(TcpListener::bind(addr)?, cfg, runner)
    }

    /// Start the daemon on an already-bound listener (lets tests bind
    /// port 0 themselves). Runs the crash-recovery scan over the jobs
    /// directory before accepting connections.
    ///
    /// # Errors
    ///
    /// A jobs-directory that cannot be created, or a listener that
    /// cannot report its local address / switch to blocking mode.
    pub fn start(
        listener: TcpListener,
        cfg: ServeConfig,
        runner: impl JobRunner,
    ) -> io::Result<Server> {
        std::fs::create_dir_all(&cfg.jobs_dir)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(false)?;
        let workers = cfg.workers.max(1);
        let shared = Arc::new(Shared {
            cfg,
            runner: Arc::new(runner),
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                jobs: HashMap::new(),
                draining: false,
                shutdown: false,
                running: 0,
                active_conns: 0,
                next_run: 0,
                touch_clock: 0,
                cache_bytes: 0,
                workers_live: 0,
                workers_wedged: 0,
                failures: HashMap::new(),
                stats: ServeStats::default(),
            }),
            cond: Condvar::new(),
            wake_addr: self_dial_addr(addr),
        });
        {
            let mut inner = shared.lock();
            recover_cache(&shared, &mut inner);
            evict_over_quota(&mut inner, &shared);
        }
        for _ in 0..workers {
            spawn_worker(&shared).expect("spawn worker");
        }
        let monitor = if shared.cfg.job_timeout.is_some() {
            let sh = Arc::clone(&shared);
            Some(
                thread::Builder::new()
                    .name("serve-monitor".into())
                    .spawn(move || monitor_loop(&sh))
                    .expect("spawn monitor"),
            )
        } else {
            None
        };
        let accept = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("serve-accept".into())
                .spawn(move || accept_loop(&listener, &shared))
                .expect("spawn accept loop")
        };
        Ok(Server {
            shared,
            addr,
            accept: Some(accept),
            monitor,
        })
    }

    /// The daemon's listen address (with the OS-assigned port when
    /// bound to port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Programmatic drain — same semantics as a `DRAIN_REQ` over the
    /// wire. Returns `(running, dropped)`.
    pub fn drain(&self) -> (u32, u32) {
        self.shared.drain_now()
    }

    /// Snapshot of the daemon's counters.
    pub fn stats(&self) -> ServeStats {
        self.shared.lock().stats
    }

    /// Snapshot of the daemon's health — same data a wire `STATUS_REQ`
    /// returns (minus the requesting connection in `active_conns`).
    pub fn status(&self) -> ServeStatus {
        self.shared.status_now()
    }

    /// Wait for the daemon to finish. **Blocks until a drain arrives**
    /// (via [`Server::drain`] or the wire) and every in-flight job has
    /// finished streaming — this is the daemon's main "run until told
    /// to stop" call. Wedged workers are unjoinable by definition;
    /// `join` waits for every *other* worker to retire and leaves the
    /// wedged ones to exit with the process (or retire on their own if
    /// their runner ever returns).
    pub fn join(mut self) -> ServeStats {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        self.shared.lock().shutdown = true;
        self.shared.cond.notify_all();
        if let Some(h) = self.monitor.take() {
            let _ = h.join();
        }
        let mut inner = self.shared.lock();
        while inner.workers_live > inner.workers_wedged {
            inner = self.shared.wait(inner);
        }
        inner.stats
    }
}

/// Add one worker to the pool (initial spawn and deadline
/// replacements). The liveness counter is incremented *before* the
/// spawn and rolled back on failure, so [`Server::join`] can always
/// wait on it.
///
/// # Errors
///
/// Propagates the thread-spawn error (the pool is left as it was).
fn spawn_worker(shared: &Arc<Shared>) -> io::Result<()> {
    shared.lock().workers_live += 1;
    let sh = Arc::clone(shared);
    let spawned = thread::Builder::new()
        .name("serve-worker".into())
        .spawn(move || {
            loop {
                if catch_unwind(AssertUnwindSafe(|| worker_loop(&sh))).is_ok() {
                    break;
                }
                // Runner panics are caught *inside* worker_loop; landing
                // here means the serve layer itself panicked. Count it
                // and restart the loop so the pool never shrinks.
                sh.lock().stats.worker_panics += 1;
            }
        });
    if let Err(e) = spawned {
        let mut inner = shared.lock();
        inner.workers_live -= 1;
        shared.notify(inner);
        return Err(e);
    }
    Ok(())
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let (id, spec, run) = {
            let mut inner = shared.lock();
            loop {
                if let Some(id) = inner.queue.pop_front() {
                    inner.next_run += 1;
                    let run = inner.next_run;
                    let job = inner.jobs.get_mut(&id).expect("queued job has state");
                    job.phase = Phase::Running {
                        run,
                        started: Instant::now(),
                    };
                    let spec = job.spec.expect("queued job carries its spec");
                    inner.running += 1;
                    break (id, spec, run);
                }
                if inner.draining {
                    inner.workers_live -= 1;
                    shared.notify(inner);
                    return;
                }
                inner = shared.wait(inner);
            }
        };
        let tmp = shared.tmp_path(id, run);
        // Supervision: a panicking runner is a job failure, not a dead
        // worker plus forever-blocked waiters.
        let outcome = match catch_unwind(AssertUnwindSafe(|| run_job(shared, &spec, &tmp))) {
            Ok(result) => result.map_err(|msg| (msg, false)),
            Err(payload) => Err((
                format!("job runner panicked: {}", panic_message(payload.as_ref())),
                true,
            )),
        };
        let mut inner = shared.lock();
        let current = matches!(
            inner.jobs.get(&id).map(|j| &j.phase),
            Some(Phase::Running { run: r, .. }) if *r == run
        );
        if !current {
            // The monitor abandoned this run at its deadline: waiters
            // were already released and a replacement worker spawned,
            // making this thread the surplus. Discard the result and
            // retire so the pool returns to its configured size.
            inner.workers_wedged = inner.workers_wedged.saturating_sub(1);
            inner.workers_live -= 1;
            shared.notify(inner);
            let _ = std::fs::remove_file(&tmp);
            return;
        }
        inner.running -= 1;
        let mut cleanup_tmp = false;
        match outcome {
            Ok((total, checksum)) => {
                // Publish under the lock, while the run token is still
                // current — an abandoned run can therefore never rename
                // over a published artifact later.
                match std::fs::rename(&tmp, shared.artifact_path(id)) {
                    Ok(()) => {
                        inner.stats.jobs_run += 1;
                        inner.failures.remove(&id);
                        let touch = inner.touch();
                        if let Some(job) = inner.jobs.get_mut(&id) {
                            job.phase = Phase::Done {
                                total,
                                checksum,
                                touch,
                                readers: 0,
                            };
                        }
                        inner.cache_bytes += total;
                        evict_over_quota(&mut inner, shared);
                    }
                    Err(e) => {
                        fail(
                            &mut inner,
                            id,
                            format!("publishing artifact: {e}"),
                            RejectCode::JobFailed,
                        );
                        cleanup_tmp = true;
                    }
                }
            }
            Err((msg, was_panic)) => {
                if was_panic {
                    inner.stats.worker_panics += 1;
                }
                fail(&mut inner, id, msg, RejectCode::JobFailed);
                cleanup_tmp = true;
            }
        }
        shared.notify(inner);
        if cleanup_tmp {
            let _ = std::fs::remove_file(&tmp);
        }
    }
}

/// Render a `catch_unwind` payload for the failure message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Mark the current run of `id` failed: count it, charge the tuple's
/// failure budget, hand waiters the named `code`.
fn fail(inner: &mut Inner, id: u64, msg: String, code: RejectCode) {
    inner.stats.jobs_failed += 1;
    if code == RejectCode::JobTimeout {
        inner.stats.jobs_timed_out += 1;
    }
    *inner.failures.entry(id).or_insert(0) += 1;
    if let Some(job) = inner.jobs.get_mut(&id) {
        job.phase = Phase::Failed { msg, code };
    }
}

/// Evict least-recently-streamed reader-free artifacts until the cache
/// fits [`ServeConfig::cache_bytes`]. Artifacts pinned by an active
/// stream are skipped — the quota is transiently exceeded rather than
/// yanking a file out from under a reader.
fn evict_over_quota(inner: &mut Inner, shared: &Shared) {
    while inner.cache_bytes > shared.cfg.cache_bytes {
        let victim = inner
            .jobs
            .iter()
            .filter_map(|(id, job)| match &job.phase {
                Phase::Done {
                    touch,
                    readers: 0,
                    total,
                    ..
                } => Some((*touch, *id, *total)),
                _ => None,
            })
            .min_by_key(|&(touch, _, _)| touch);
        let Some((_, id, total)) = victim else { break };
        let _ = std::fs::remove_file(shared.artifact_path(id));
        inner.jobs.remove(&id);
        inner.cache_bytes = inner.cache_bytes.saturating_sub(total);
        inner.stats.jobs_evicted += 1;
    }
}

/// A run's temp output `*.tmp`, or a part file `*.tmp.part<N>` a
/// streaming runner writes beside it: litter once no run is live.
fn is_stale_temp(name: &str) -> bool {
    name.ends_with(".tmp")
        || name
            .rsplit_once(".tmp.part")
            .is_some_and(|(_, rank)| !rank.is_empty() && rank.bytes().all(|b| b.is_ascii_digit()))
}

/// Rebuild the artifact cache from the jobs directory after a restart:
/// delete stale `*.tmp` litter, re-checksum every `*.art` file and
/// republish it as `Done`, so resuming clients stitch against the
/// exact pre-crash bytes. Unreadable or oddly-named files are left in
/// place and simply not served.
fn recover_cache(shared: &Shared, inner: &mut Inner) {
    let Ok(entries) = std::fs::read_dir(&shared.cfg.jobs_dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let path = entry.path();
        if is_stale_temp(name) {
            if std::fs::remove_file(&path).is_ok() {
                inner.stats.tmp_cleaned += 1;
            }
            continue;
        }
        let Some(hex) = name.strip_suffix(".art") else {
            continue;
        };
        if hex.len() != 16 {
            continue;
        }
        let Ok(id) = u64::from_str_radix(hex, 16) else {
            continue;
        };
        let mut hasher = Fnv1a::new();
        let scanned = stream_file_from(&path, 0, 1 << 20, |_, data| {
            hasher.update(data);
            Ok(())
        });
        let Ok(total) = scanned else { continue };
        let touch = inner.touch();
        inner.jobs.insert(
            id,
            JobState {
                spec: None,
                phase: Phase::Done {
                    total,
                    checksum: hasher.digest(),
                    touch,
                    readers: 0,
                },
            },
        );
        inner.cache_bytes += total;
        inner.stats.jobs_recovered += 1;
    }
}

/// Execute one job attempt: run the runner to the attempt's temp path,
/// then checksum the result. Returns `(total_bytes, checksum)`; the
/// caller publishes (renames) under the lock.
fn run_job(shared: &Shared, spec: &JobSpec, tmp: &Path) -> Result<(u64, u64), String> {
    let result = shared.runner.run(spec, tmp).and_then(|()| {
        let mut hasher = Fnv1a::new();
        let total = stream_file_from(tmp, 0, 1 << 20, |_, data| {
            hasher.update(data);
            Ok(())
        })
        .map_err(|e| format!("checksum pass over fresh artifact failed: {e}"))?;
        Ok((total, hasher.digest()))
    });
    if result.is_err() {
        let _ = std::fs::remove_file(tmp);
    }
    result
}

/// Enforce [`ServeConfig::job_timeout`]: abandon overdue runs with a
/// retryable `JobTimeout` rejection and keep the pool at size by
/// spawning one replacement per abandoned worker.
fn monitor_loop(shared: &Arc<Shared>) {
    let Some(deadline) = shared.cfg.job_timeout else {
        return;
    };
    let tick = (deadline / 4).clamp(Duration::from_millis(10), Duration::from_millis(500));
    let mut inner = shared.lock();
    loop {
        if inner.shutdown {
            return;
        }
        let now = Instant::now();
        let overdue: Vec<u64> = inner
            .jobs
            .iter()
            .filter_map(|(id, job)| match &job.phase {
                Phase::Running { started, .. } if now.duration_since(*started) >= deadline => {
                    Some(*id)
                }
                _ => None,
            })
            .collect();
        let replacements = overdue.len();
        for id in overdue {
            fail(
                &mut inner,
                id,
                format!(
                    "job ran past its {} ms deadline and was abandoned",
                    deadline.as_millis()
                ),
                RejectCode::JobTimeout,
            );
            // The run token under `Failed` is gone: the wedged worker
            // will see itself stale and retire. Account it out of the
            // running set now so drains and joins don't wait on it.
            inner.running -= 1;
            inner.workers_wedged += 1;
        }
        if replacements > 0 {
            shared.notify(inner);
            for _ in 0..replacements {
                let _ = spawn_worker(shared);
            }
            inner = shared.lock();
        }
        inner = shared.wait_timeout(inner, tick);
    }
}

/// Accept connections until a drain completes. `accept` blocks; the
/// thread that makes the drain condition true connects once to break it
/// ([`Shared::notify`]), and whatever connection the loop then holds is
/// dropped unanswered.
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                // A connection reset before it was taken, or descriptor
                // exhaustion: wait for a state change (a closing
                // connection frees a descriptor and notifies), with a
                // backstop so a transient error is not waited out long.
                let inner = shared.lock();
                if inner.drained() {
                    return;
                }
                drop(shared.wait_timeout(inner, Duration::from_millis(50)));
                continue;
            }
        };
        let admitted = {
            let mut inner = shared.lock();
            if inner.drained() {
                return;
            }
            if inner.active_conns >= shared.cfg.max_conns.max(1) {
                false
            } else {
                inner.active_conns += 1;
                true
            }
        };
        if !admitted {
            reject_overloaded(shared, stream);
            continue;
        }
        let sh = Arc::clone(shared);
        let spawned = thread::Builder::new()
            .name("serve-conn".into())
            .spawn(move || {
                handle_conn(&sh, stream);
                let mut inner = sh.lock();
                inner.active_conns -= 1;
                sh.notify(inner);
            });
        if spawned.is_err() {
            // The closure never ran (the stream dropped with it): undo
            // the admission here, or `join` would wait forever on a
            // count that can't reach zero.
            let mut inner = shared.lock();
            inner.active_conns -= 1;
            shared.notify(inner);
        }
    }
}

/// Turn away a connection beyond the cap, inline on the accept thread:
/// short write timeout, named retryable reject, brief linger (cf.
/// [`linger_close`], but bounded tighter so a hostile client cannot
/// pin the accept loop).
fn reject_overloaded(shared: &Shared, mut stream: TcpStream) {
    use std::io::Read;
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    let msg = format!("connection limit reached ({})", shared.cfg.max_conns);
    let _ = write_reject(
        &mut stream,
        RejectCode::Overloaded,
        shared.cfg.retry_after,
        &msg,
    );
    shared.lock().stats.note_reject(RejectCode::Overloaded);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let mut buf = [0u8; 1024];
    for _ in 0..4 {
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

/// Send a rejection (best effort — the peer may already be gone) and
/// count it under its code.
fn reject(shared: &Shared, stream: &mut TcpStream, code: RejectCode, msg: &str) {
    let retry_after = if code.is_retryable() {
        shared.cfg.retry_after
    } else {
        Duration::ZERO
    };
    let _ = write_reject(stream, code, retry_after, msg);
    shared.lock().stats.note_reject(code);
}

/// Close without slamming the door: half-close the write side, then
/// drain (bounded) whatever the peer already sent. Closing with unread
/// bytes in the receive queue makes the kernel send RST, which races
/// ahead of the final reply frame and can destroy it before the client
/// reads it — a rejected client would then see "connection reset"
/// instead of the named error it was sent.
fn linger_close(mut stream: TcpStream) {
    use std::io::Read;
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let mut buf = [0u8; 4096];
    for _ in 0..64 {
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

fn handle_conn(shared: &Shared, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(shared.cfg.request_timeout));
    let _ = stream.set_write_timeout(Some(shared.cfg.request_timeout));
    let _ = stream.set_nodelay(true);
    serve_conn(shared, &mut stream);
    linger_close(stream);
}

fn serve_conn(shared: &Shared, stream: &mut TcpStream) {
    let mut payload = Vec::new();
    let kind = match read_raw_frame(stream, &mut payload, MAX_REQUEST_FRAME) {
        Ok(kind) => kind,
        Err(e) if e.kind() == io::ErrorKind::InvalidData => {
            // A framing violation (oversized or zero length) still gets a
            // named answer — the bytes after it are unparseable, so the
            // connection closes right after.
            reject(shared, stream, RejectCode::BadRequest, &e.to_string());
            return;
        }
        // EOF, timeout (half-open connection), or reset: nothing to say.
        Err(_) => return,
    };
    match parse_request(kind, &payload) {
        Ok(ServeMsg::Submit { spec, offset }) => handle_submit(shared, stream, spec, offset),
        Ok(ServeMsg::DrainReq) => {
            let (running, dropped) = shared.drain_now();
            let _ = write_drain_ack(stream, running, dropped);
        }
        Ok(ServeMsg::StatusReq) => {
            let status = shared.status_now();
            let _ = write_status_ack(stream, &status);
        }
        Ok(_) => reject(
            shared,
            stream,
            RejectCode::BadRequest,
            "reply kind sent as a request",
        ),
        Err(RequestError::Version(msg)) => {
            reject(shared, stream, RejectCode::UnsupportedVersion, &msg);
        }
        Err(RequestError::Malformed(msg)) => {
            reject(shared, stream, RejectCode::BadRequest, &msg);
        }
    }
}

fn handle_submit(shared: &Shared, stream: &mut TcpStream, spec: JobSpec, offset: u64) {
    if let Err(msg) = shared.runner.validate(&spec) {
        reject(shared, stream, RejectCode::BadRequest, &msg);
        return;
    }
    let id = spec.job_id();
    enum Seen {
        Absent,
        Wait,
        Done,
        Failed(RejectCode, String),
    }
    // Admission: find or create the job entry, then wait out Queued and
    // Running under the condvar. FIFO is the queue's order; admission
    // order is the lock-acquisition order of this critical section.
    let outcome = {
        let mut inner = shared.lock();
        let mut coalesced_counted = false;
        loop {
            let seen = match inner.jobs.get(&id).map(|j| &j.phase) {
                None => Seen::Absent,
                Some(Phase::Queued | Phase::Running { .. }) => Seen::Wait,
                Some(Phase::Done { .. }) => Seen::Done,
                Some(Phase::Failed { msg, code }) => Seen::Failed(*code, msg.clone()),
            };
            match seen {
                Seen::Absent => {
                    // Admission decisions (drain, budget, capacity)
                    // apply only to *new* work: a waiter on an in-flight
                    // job keeps waiting through a drain and still gets
                    // its stream.
                    if inner.draining {
                        break Err((RejectCode::Draining, "server is draining".to_string()));
                    }
                    let budget = shared.cfg.max_job_failures;
                    let spent = inner.failures.get(&id).copied().unwrap_or(0);
                    if budget > 0 && spent >= budget {
                        break Err((
                            RejectCode::JobFailed,
                            format!(
                                "job failed {spent} time(s); per-tuple failure budget \
                                 ({budget}) exhausted until the daemon restarts"
                            ),
                        ));
                    }
                    if inner.queue.len() >= shared.cfg.queue_cap {
                        break Err((
                            RejectCode::QueueFull,
                            format!("job queue at capacity ({})", shared.cfg.queue_cap),
                        ));
                    }
                    inner.jobs.insert(
                        id,
                        JobState {
                            spec: Some(spec),
                            phase: Phase::Queued,
                        },
                    );
                    inner.queue.push_back(id);
                    inner.stats.jobs_admitted += 1;
                    // The admitter now waits like everyone else, but it
                    // is the one submit that is *not* a coalesce.
                    coalesced_counted = true;
                    shared.cond.notify_all();
                }
                Seen::Wait => {
                    if !coalesced_counted {
                        inner.stats.jobs_coalesced += 1;
                        coalesced_counted = true;
                    }
                    inner = shared.wait(inner);
                }
                Seen::Done => {
                    if !coalesced_counted {
                        inner.stats.jobs_coalesced += 1;
                    }
                    // Register as a reader: a streaming artifact is
                    // pinned against eviction until the stream ends.
                    let touch = inner.touch();
                    let Some(JobState {
                        phase:
                            Phase::Done {
                                total,
                                checksum,
                                touch: last,
                                readers,
                            },
                        ..
                    }) = inner.jobs.get_mut(&id)
                    else {
                        unreachable!("Done entry vanished under the lock");
                    };
                    *last = touch;
                    *readers += 1;
                    break Ok((*total, *checksum));
                }
                Seen::Failed(code, msg) => {
                    // Failure is not cached: clear the entry so a later
                    // submit retries the run (budget permitting).
                    inner.jobs.remove(&id);
                    break Err((code, msg));
                }
            }
        }
    };
    let (total, checksum) = match outcome {
        Ok(done) => done,
        Err((code, msg)) => {
            reject(shared, stream, code, &msg);
            return;
        }
    };
    // The artifact is complete, immutable and pinned from here on.
    let fully_streamed = stream_artifact(shared, stream, id, offset, total, checksum);
    let mut inner = shared.lock();
    if let Some(JobState {
        phase: Phase::Done { readers, .. },
        ..
    }) = inner.jobs.get_mut(&id)
    {
        *readers = readers.saturating_sub(1);
    }
    if fully_streamed {
        inner.stats.bytes_streamed += total - offset;
    }
}

/// Stream `[offset, total)` of a published artifact plus the final
/// `DONE`. Returns whether the whole suffix was delivered.
fn stream_artifact(
    shared: &Shared,
    stream: &mut TcpStream,
    id: u64,
    offset: u64,
    total: u64,
    checksum: u64,
) -> bool {
    if offset > total {
        reject(
            shared,
            stream,
            RejectCode::BadOffset,
            &format!("resume offset {offset} beyond artifact end {total}"),
        );
        return false;
    }
    if write_accept(stream, id, offset, total).is_err() {
        return false;
    }
    let path = shared.artifact_path(id);
    let chunk = shared.cfg.chunk_bytes.max(1);
    let streamed = stream_file_from(&path, offset, chunk, |off, data| {
        write_chunk(stream, off, data)
    });
    // A client that vanished mid-stream will reconnect and resume.
    streamed.is_ok() && write_done(stream, total, checksum).is_ok()
}

#[cfg(test)]
mod tests {
    use super::is_stale_temp;

    #[test]
    fn stale_temp_names_cover_runner_part_files() {
        for stale in [
            "0123456789abcdef.5.tmp",
            "0123456789abcdef.5.tmp.part0",
            "0123456789abcdef.5.tmp.part17",
        ] {
            assert!(is_stale_temp(stale), "{stale}");
        }
        for kept in [
            "0123456789abcdef.art",
            "0123456789abcdef.5.tmp.part",
            "0123456789abcdef.5.tmp.partx",
            "notes.tmp.txt",
        ] {
            assert!(!is_stale_temp(kept), "{kept}");
        }
    }
}
