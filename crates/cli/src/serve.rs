//! `pagen serve` — run the generation-as-a-service daemon.
//!
//! The daemon glue: `pa-net::serve` owns sockets, queueing and
//! streaming; this module supplies the [`JobRunner`] that maps a wire
//! [`JobSpec`] onto the engines via `pa-core::job::JobDescriptor` and
//! produces artifacts through the *same* streaming writer as
//! `pagen generate --format bin|txt` — which is what makes a served
//! artifact byte-identical to a solo run of the same parameter tuple.

use std::io::Write;
use std::path::Path;
use std::time::Duration;

use crate::args::{Args, CliError};
use pa_core::job::JobDescriptor;
use pa_core::GenOptions;
use pa_net::serve::{JobRunner, JobSpec, ServeConfig, Server};

/// The production job runner: validates via [`JobDescriptor`] and
/// generates through [`crate::generate::stream_pa_to_disk`].
struct EngineRunner {
    /// Admission caps protecting the daemon from jobs sized to hurt it;
    /// violations are named `bad-request` rejections, not failures.
    max_ranks: u32,
    max_nodes: u64,
}

impl EngineRunner {
    fn descriptor(&self, spec: &JobSpec) -> Result<JobDescriptor, String> {
        let desc = JobDescriptor::from_raw(spec)?;
        if desc.ranks > self.max_ranks {
            return Err(format!(
                "ranks = {} exceeds this server's cap of {} (--max-ranks)",
                desc.ranks, self.max_ranks
            ));
        }
        if desc.cfg.n > self.max_nodes {
            return Err(format!(
                "n = {} exceeds this server's cap of {} (--max-nodes)",
                desc.cfg.n, self.max_nodes
            ));
        }
        Ok(desc)
    }
}

impl JobRunner for EngineRunner {
    fn validate(&self, spec: &JobSpec) -> Result<(), String> {
        self.descriptor(spec).map(|_| ())
    }

    fn run(&self, spec: &JobSpec, out: &Path) -> Result<(), String> {
        let desc = self.descriptor(spec)?;
        crate::generate::stream_pa_to_disk(&desc, GenOptions::default(), out)
            .map(|_| ())
            .map_err(|e| e.to_string())
    }
}

pub(crate) fn run(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let addr = args.str("addr", "127.0.0.1:9900");
    let jobs_dir = args.str("jobs-dir", "pagen-jobs");
    let mut cfg = ServeConfig::new(&jobs_dir);
    cfg.queue_cap = args.u64("queue-cap", cfg.queue_cap as u64)? as usize;
    cfg.workers = args.u64("workers", cfg.workers as u64)? as usize;
    let chunk_kb = args.u64("chunk-kb", (cfg.chunk_bytes >> 10) as u64)?;
    if chunk_kb == 0 {
        return Err(CliError::usage("--chunk-kb must be positive"));
    }
    cfg.chunk_bytes = (chunk_kb << 10) as usize;
    cfg.retry_after = Duration::from_millis(args.u64("retry-after-ms", 200)?);
    cfg.request_timeout = Duration::from_millis(args.u64("request-timeout-ms", 10_000)?);
    if cfg.request_timeout.is_zero() {
        return Err(CliError::usage("--request-timeout-ms must be positive"));
    }
    // 0 = no deadline: engines have no way to report forward progress
    // mid-run, so a deadline is only meaningful if the operator knows
    // how long the largest admitted tuple should take.
    let job_timeout = args.u64("job-timeout-ms", 0)?;
    if job_timeout != 0 {
        cfg.job_timeout = Some(Duration::from_millis(job_timeout));
    }
    cfg.max_conns = args.u64("max-conns", cfg.max_conns as u64)? as usize;
    if cfg.max_conns == 0 {
        return Err(CliError::usage("--max-conns must be positive"));
    }
    let cache = args.str("cache-bytes", "");
    if !cache.is_empty() {
        cfg.cache_bytes = crate::generate::parse_byte_size("cache-bytes", &cache)?;
        if cfg.cache_bytes == 0 {
            return Err(CliError::usage("--cache-bytes must be positive"));
        }
    }
    cfg.max_job_failures = args.u64("max-job-failures", u64::from(cfg.max_job_failures))? as u32;
    let runner = EngineRunner {
        max_ranks: args.u64("max-ranks", 64)? as u32,
        max_nodes: args.u64("max-nodes", 1 << 32)?,
    };
    args.finish()?;

    let server = Server::bind(&addr, cfg, runner)
        .map_err(|e| CliError::usage(format!("cannot start serve daemon on {addr}: {e}")))?;
    // The startup-scan counts let restart smoke tests (and operators)
    // confirm a crash-restart actually recovered the cache.
    let recovered = server.stats();
    writeln!(
        out,
        "serving on {} (jobs in {jobs_dir}; recovered {} artifact(s), cleaned {} stale temp \
         file(s)); send `pagen drain --addr {}` to stop",
        server.addr(),
        recovered.jobs_recovered,
        recovered.tmp_cleaned,
        server.addr()
    )
    .map_err(CliError::io)?;
    out.flush().map_err(CliError::io)?;

    // Blocks until a DRAIN_REQ arrives and all in-flight work finishes.
    let stats = server.join();
    writeln!(
        out,
        "drained: {} job(s) run, {} coalesced, {} rejected, {} dropped by drain, {} byte(s) \
         streamed, {} failed ({} timed out), {} evicted, {} worker panic(s)",
        stats.jobs_run,
        stats.jobs_coalesced,
        stats.rejects,
        stats.jobs_drained,
        stats.bytes_streamed,
        stats.jobs_failed,
        stats.jobs_timed_out,
        stats.jobs_evicted,
        stats.worker_panics
    )
    .map_err(CliError::io)?;
    Ok(())
}
