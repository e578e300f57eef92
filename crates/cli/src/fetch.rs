//! `pagen fetch` and `pagen drain` — the serve daemon's clients.
//!
//! `fetch` names a job by the same flags `generate` takes, asks a
//! daemon for its artifact, and streams it to `--out`, transparently
//! reconnecting with capped backoff and resuming from the last byte on
//! disk. `--resume on` continues a previously-interrupted fetch of the
//! *same* tuple instead of starting over. `drain` tells a daemon to
//! wind down cleanly; `serve-status` prints its health snapshot.

use std::io::Write;
use std::time::Duration;

use crate::args::{Args, CliError};
use crate::generate::{edge_format, parse_job};
use pa_net::serve::{fetch, FetchError, FetchOptions, RejectCode};

pub(crate) fn run(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let addr = args.str_required("addr")?;
    let out_path = args.str("out", "fetched.bin");
    let format = args.str("format", "bin");
    let encoding = edge_format(&format).ok_or_else(|| {
        CliError::usage(format!(
            "unknown format {format:?} (the serve protocol streams bin or txt)"
        ))
    })?;
    let job = parse_job(args, None, encoding)?;
    let mut opts = FetchOptions::new(&addr, job.to_raw(), &out_path);
    opts.resume = args.choice("resume", "off", &["on", "off"])? == "on";
    opts.max_attempts = args.int("max-attempts", opts.max_attempts)?;
    if opts.max_attempts == 0 {
        return Err(CliError::usage("--max-attempts must be positive"));
    }
    opts.backoff_initial =
        Duration::from_millis(args.u64("backoff-ms", opts.backoff_initial.as_millis() as u64)?);
    opts.backoff_cap =
        Duration::from_millis(args.u64("backoff-cap-ms", opts.backoff_cap.as_millis() as u64)?);
    let jitter_seed = args.u64("backoff-seed", 0)?;
    if jitter_seed != 0 {
        opts.backoff_seed = Some(jitter_seed);
    }
    opts.connect_timeout = Duration::from_millis(args.u64(
        "connect-timeout-ms",
        opts.connect_timeout.as_millis() as u64,
    )?);
    opts.io_timeout =
        Duration::from_millis(args.u64("io-timeout-ms", opts.io_timeout.as_millis() as u64)?);
    // Deterministic crash simulation for tests and smoke scripts: the
    // local sink fails once the file holds exactly this many bytes.
    let stop_after = args.u64("stop-after-bytes", 0)?;
    if stop_after != 0 {
        opts.stop_after_bytes = Some(stop_after);
    }
    args.finish()?;

    let report = fetch(&opts).map_err(|e| match e {
        FetchError::Sink(e) => CliError::io(e),
        other => CliError::usage(other.to_string()),
    })?;
    writeln!(
        out,
        "fetched job {:016x}: {} byte(s) -> {out_path} ({} transferred, resumed from {}, \
         {} attempt(s), checksum {:016x})",
        report.job_id,
        report.total,
        report.transferred,
        report.resumed_from,
        report.attempts,
        report.checksum
    )
    .map_err(CliError::io)?;
    Ok(())
}

pub(crate) fn drain(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let addr = args.str_required("addr")?;
    let timeout = Duration::from_millis(args.u64("timeout-ms", 10_000)?);
    args.finish()?;
    let (running, dropped) = pa_net::serve::drain(&addr, timeout)
        .map_err(|e| CliError::usage(format!("drain of {addr} failed: {e}")))?;
    writeln!(
        out,
        "drain acknowledged by {addr}: {running} job(s) finishing, {dropped} queued job(s) dropped"
    )
    .map_err(CliError::io)?;
    Ok(())
}

pub(crate) fn status(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let addr = args.str_required("addr")?;
    let timeout = Duration::from_millis(args.u64("timeout-ms", 10_000)?);
    args.finish()?;
    let status = pa_net::serve::status(&addr, timeout)
        .map_err(|e| CliError::usage(format!("status of {addr} failed: {e}")))?;
    let s = &status.stats;
    writeln!(
        out,
        "serve daemon at {addr}{}:\n\
         \x20 queue:   {} queued, {} running, {} connection(s), {} worker(s) ({} wedged)\n\
         \x20 cache:   {} artifact(s), {} byte(s) ({} recovered at startup, {} temp cleaned, \
         {} evicted)\n\
         \x20 jobs:    {} admitted, {} run, {} coalesced, {} failed ({} timed out), {} drained\n\
         \x20 faults:  {} worker panic(s)\n\
         \x20 streams: {} byte(s) streamed",
        if status.draining { " (draining)" } else { "" },
        status.queued,
        status.running,
        status.active_conns,
        status.workers,
        status.workers_wedged,
        status.cache_artifacts,
        status.cache_bytes,
        s.jobs_recovered,
        s.tmp_cleaned,
        s.jobs_evicted,
        s.jobs_admitted,
        s.jobs_run,
        s.jobs_coalesced,
        s.jobs_failed,
        s.jobs_timed_out,
        s.jobs_drained,
        s.worker_panics,
        s.bytes_streamed
    )
    .map_err(CliError::io)?;
    // Per-code reject counters, only the codes actually seen: the lines
    // a flapping client's operator greps for first.
    writeln!(out, "  rejects: {} total", s.rejects).map_err(CliError::io)?;
    for code in RejectCode::ALL {
        let count = s.rejects_for(code);
        if count > 0 {
            writeln!(out, "    {:>12}: {count}", code.name()).map_err(CliError::io)?;
        }
    }
    Ok(())
}
