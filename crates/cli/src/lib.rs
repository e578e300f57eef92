//! `pagen` — the command-line front end of the `prefattach` workspace.
//!
//! ```text
//! pagen generate --model pa --n 1000000 --x 4 --ranks 8 --out g.pag
//! pagen analyze  --in g.pag
//! pagen info     --in g.pag
//! pagen chains   --n 1000000 --p 0.5
//! pagen serve    --addr 127.0.0.1:9900 --jobs-dir jobs
//! pagen fetch    --addr 127.0.0.1:9900 --n 1000000 --x 4 --out g.bin
//! pagen drain    --addr 127.0.0.1:9900
//! pagen serve-status --addr 127.0.0.1:9900
//! palaunch -p 4 -- generate --n 1000000 --x 4 --out g.bin --format bin
//! ```
//!
//! The `pagen` binary is a thin wrapper over [`run`], and `palaunch`
//! over [`launch::run`], so the whole command surface is exercised by
//! ordinary unit and integration tests. `--backend tcp` turns one
//! `pagen generate` invocation into one *rank* of a multi-process world
//! (see `pa-net`); `palaunch` spawns and supervises such a world on the
//! local host.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analyze;
mod args;
mod chains;
mod fetch;
mod generate;
mod info;
pub mod launch;
mod netgen;
mod serve;
mod stats;

pub use args::{Args, CliError};

/// Execute a full command line (without the program name). Output goes
/// to `out`; returns `Err` with a user-facing message on failure.
///
/// # Errors
///
/// Returns a [`CliError`] describing invalid usage, unknown flags, or
/// I/O failures.
pub fn run(argv: &[String], out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let (command, args) = args::split_command(argv)?;
    match command.as_str() {
        "generate" => generate::run(&args, out),
        "analyze" => analyze::run(&args, out),
        "info" => info::run(&args, out),
        "chains" => chains::run(&args, out),
        "serve" => serve::run(&args, out),
        "fetch" => fetch::run(&args, out),
        "drain" => fetch::drain(&args, out),
        "serve-status" => fetch::status(&args, out),
        "help" | "--help" | "-h" => {
            writeln!(out, "{}", usage()).map_err(CliError::io)?;
            Ok(())
        }
        other => Err(CliError::usage(format!(
            "unknown command {other:?}\n\n{}",
            usage()
        ))),
    }
}

/// Top-level usage text.
pub fn usage() -> &'static str {
    "pagen — scale-free network generation (SC'13 reproduction)

USAGE:
    pagen <COMMAND> [--flag value ...]

COMMANDS:
    generate   Generate a network and write it to disk
               --model pa|nlpa|er|ws|cl|rmat (default pa)
               --n <nodes> (default 100000)      --x <edges/node> (default 4)
               --p <copy prob> (default 0.5)     --seed <u64> (default 0)
               --ranks <P> (default 4)           --scheme ucp|lcp|rrp|bcp (default rrp)
               --out <file> (default graph.pag)  --format pag|bin|txt (default pag)
               --alpha <f64> (nlpa exponent, default 1.0; 1.0 is exactly pa)
               --engine 1|2|3 (default 2; 1 needs x=1, 3 recomputes
                          dependency chains locally and sends no messages)
               engine/model support: engines 2 and 3 run pa and nlpa on
                          every backend; engine 1 runs pa and nlpa with
                          x=1 on mpsim only (the tcp wire format does
                          not carry its x=1 messages)
               pa tuning: --buffer-cap <msgs> (default 4096)
                          --service-interval <nodes> (default 4096)
                          --hub-cache auto|off (default auto)
                          --chain-memo <nodes> (engine 3 memo rows; default 1048576, 0 off)
               pa chaos:  --chaos-profile off|light|aggressive (default off)
                          --chaos-seed <u64> (default 0)
                          --stall-timeout-ms <ms> (default: off; 120000 under chaos)
               pa stats:  --stats on|off (default off)  --stats-json <path>
               backend:   --backend mpsim|tcp (default mpsim)
                          tcp runs this invocation as ONE rank of a
                          multi-process world (usually via palaunch):
                          --rank <R> --world <P> --peers host:port,...
                          --connect-timeout-ms <ms> (default 30000)
               recovery:  --checkpoint-dir <dir> (default: checkpoints off)
                          --checkpoint-interval <labels> (default n/8)
                          --resume auto|off (default off)
                          --restart-epoch <k> (injected by palaunch restarts)
               er:   --p is the edge probability
               ws:   --x is half the lattice degree, --p the rewiring beta
               cl:   --gamma <exponent> (default 2.8), --x the mean degree
               rmat: --scale <log2 n>, --edges <m> (defaults 18, 16n)
    analyze    Structural report of a stored network
               --in <file>  --format pag|bin|txt (default pag)
               --n <nodes>  (required for bin/txt; inferred for pag)
    info       Print a PAG container's header without reading edges
               --in <file>
    chains     Dependency-chain statistics (Theorem 3.3)
               --n <nodes> (default 1000000)  --p <prob> (default 0.5)
               --seed <u64> (default 0)
    serve      Run the generation-as-a-service daemon (stop with drain)
               --addr <host:port> (default 127.0.0.1:9900)
               --jobs-dir <dir> (default pagen-jobs)
               --queue-cap <jobs> (default 16)    --workers <threads> (default 2)
               --chunk-kb <KiB> (default 256)     --retry-after-ms <ms> (default 200)
               --request-timeout-ms <ms> (default 10000)
               --max-ranks <P> (default 64)       --max-nodes <n> (default 2^32)
               healing:   --job-timeout-ms <ms> (default 0 = no deadline;
                              overdue runs fail retryably, workers replaced)
                          --max-conns <k> (default 64; beyond it clients
                              get a retryable overloaded rejection)
                          --cache-bytes <B[k|m|g]> (default unlimited;
                              LRU-evicts cached artifacts over the quota)
                          --max-job-failures <k> (default 3, 0 = unlimited;
                              per-tuple failure budget until restart)
    fetch      Submit a job to a serve daemon and stream its artifact
               --addr <host:port> (required)      --out <file> (default fetched.bin)
               job:   --n --x --p --seed --ranks --scheme --engine
                      --model pa|nlpa --alpha     --format bin|txt (default bin)
                      (same byte-identity tuple as generate; the file an
                      uninterrupted fetch writes equals a solo generate)
               retry: --resume on|off (default off; on continues --out)
                      --max-attempts <k> (default 8)
                      --backoff-ms / --backoff-cap-ms (default 50 / 2000)
                      --backoff-seed <u64> (0 = no jitter)
                      --connect-timeout-ms / --io-timeout-ms
    drain      Wind a serve daemon down cleanly
               --addr <host:port> (required)  --timeout-ms <ms> (default 10000)
    serve-status  Print a serve daemon's health snapshot (queue, workers,
               cache, per-code rejects)
               --addr <host:port> (required)  --timeout-ms <ms> (default 10000)
    help       Show this text

Multi-process runs: `palaunch [-p <ranks>] -- generate ...` spawns the
world on this host and injects the tcp backend flags (see palaunch -h)."
}
