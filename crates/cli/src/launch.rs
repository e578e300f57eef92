//! `palaunch` — run a `P`-process TCP world on one host.
//!
//! ```text
//! palaunch -p 4 -- generate --model pa --n 100000 --x 4 --out g.bin --format bin
//! ```
//!
//! The launcher allocates `P` distinct loopback ports, spawns `P`
//! copies of `pagen` with the world description injected
//! (`--backend tcp --rank R --world P --peers ...` appended to the
//! user's arguments), prefixes every line of child output with
//! `[rank R]`, and waits. The first child to fail gets the remaining
//! children killed and the job exits nonzero naming the failed rank —
//! a dead rank never leaves the launcher hanging.
//!
//! The wait polls nothing. Each rank's two output forwarders see EOF
//! when the child exits and report it on a channel; once both of a
//! rank's streams have closed, the launcher reaps that rank with a
//! blocking `wait`. So the launcher learns of every exit as it happens,
//! in the order the children die, and the first failure it reports is
//! the first one that happened. A rank killed by signal `N` is reported
//! the way a shell reports it, as exit code `128 + N`.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::os::unix::process::ExitStatusExt;
use std::path::PathBuf;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::args::CliError;

/// A parsed launcher invocation.
#[derive(Debug)]
pub struct LaunchPlan {
    /// Number of processes (ranks) to start.
    pub ranks: usize,
    /// The `pagen` binary to run (default: next to `palaunch` itself).
    pub pagen: PathBuf,
    /// Everything after `--`: the `pagen` command line shared by all
    /// ranks (before the injected world flags).
    pub child_args: Vec<String>,
    /// How many times a failed world is restarted (`--restart-failed`).
    /// 0 (the default) fails fast exactly as before; restarts > 0 only
    /// recover work when the child command checkpoints
    /// (`--checkpoint-dir`) — otherwise each attempt starts over.
    pub restart_failed: usize,
    /// A saved world's checkpoint directory to elastically restart from
    /// (`--restart-world`): the committed prefix is re-partitioned onto
    /// this launch's `-p` rank count. Appended to every child command.
    pub restart_world: Option<String>,
}

/// Parse `palaunch` arguments: `-p`/`--ranks` and `--pagen` before a
/// mandatory `--`, the shared `pagen` command line after it.
///
/// # Errors
///
/// Errors on unknown flags, a missing `--`, or an empty child command.
pub fn parse(argv: &[String]) -> Result<LaunchPlan, CliError> {
    let mut ranks = 2usize;
    let mut pagen: Option<PathBuf> = None;
    let mut restart_failed = 0usize;
    let mut restart_world: Option<String> = None;
    let mut iter = argv.iter();
    let child_args: Vec<String> = loop {
        match iter.next().map(String::as_str) {
            Some("--") => break iter.cloned().collect(),
            Some("-p") | Some("--ranks") => {
                let v = iter
                    .next()
                    .ok_or_else(|| CliError::usage("missing value for -p/--ranks"))?;
                ranks = v
                    .parse()
                    .map_err(|_| CliError::usage(format!("-p must be an integer, got {v:?}")))?;
            }
            Some("--restart-failed") => {
                let v = iter
                    .next()
                    .ok_or_else(|| CliError::usage("missing value for --restart-failed"))?;
                restart_failed = v.parse().map_err(|_| {
                    CliError::usage(format!("--restart-failed must be an integer, got {v:?}"))
                })?;
            }
            Some("--restart-world") => {
                let v = iter
                    .next()
                    .ok_or_else(|| CliError::usage("missing value for --restart-world"))?;
                restart_world = Some(v.clone());
            }
            Some("--pagen") => {
                let v = iter
                    .next()
                    .ok_or_else(|| CliError::usage("missing value for --pagen"))?;
                pagen = Some(PathBuf::from(v));
            }
            Some("-h") | Some("--help") => return Err(CliError::usage(usage())),
            Some(other) => {
                return Err(CliError::usage(format!(
                    "unknown launcher flag {other:?}\n\n{}",
                    usage()
                )))
            }
            None => {
                return Err(CliError::usage(format!(
                    "missing `--` before the pagen command\n\n{}",
                    usage()
                )))
            }
        }
    };
    if ranks == 0 {
        return Err(CliError::usage("-p must be at least 1"));
    }
    if child_args.is_empty() {
        return Err(CliError::usage("empty pagen command after `--`"));
    }
    let pagen = match pagen {
        Some(p) => p,
        None => default_pagen()?,
    };
    Ok(LaunchPlan {
        ranks,
        pagen,
        child_args,
        restart_failed,
        restart_world,
    })
}

/// `palaunch` usage text.
pub fn usage() -> &'static str {
    "palaunch — run a multi-process pagen world on this host

USAGE:
    palaunch [-p <ranks>] [--pagen <path>] [--restart-failed <N>] -- <pagen args ...>

    -p, --ranks <P>        number of processes to launch (default 2)
    --pagen <path>         pagen binary (default: next to palaunch)
    --restart-failed <N>   after a rank failure, restart the whole world
                           up to N times with capped backoff (default 0 =
                           fail fast). Pair with `generate
                           --checkpoint-dir <dir>` so restarted attempts
                           resume from the last checkpoint instead of
                           starting over; restarts inject `--resume auto
                           --restart-epoch <attempt>` and fresh ports.
    --restart-world <dir>  elastically restart the saved world in <dir>
                           (a finished `--keep-checkpoints on` run) on
                           THIS launch's -p rank count: its committed
                           prefix is re-partitioned and generation
                           continues from the saved cut. The graph
                           parameters (--n/--x/--p/--seed) must match the
                           saved run; -p, --scheme and --engine may
                           change. Appends `--restart-world <dir>` to
                           every child command.

The pagen command after `--` is run P times with
`--backend tcp --rank R --world P --peers <allocated ports>` appended;
child output is prefixed with [rank R]."
}

/// `pagen` sitting next to the running `palaunch` binary.
fn default_pagen() -> Result<PathBuf, CliError> {
    let me = std::env::current_exe().map_err(CliError::io)?;
    let candidate = me.with_file_name(format!("pagen{}", std::env::consts::EXE_SUFFIX));
    if candidate.exists() {
        Ok(candidate)
    } else {
        Err(CliError::usage(format!(
            "pagen not found at {} — pass --pagen <path>",
            candidate.display()
        )))
    }
}

/// Allocate `n` distinct loopback `host:port` addresses by binding
/// ephemeral listeners simultaneously and releasing them. The children
/// re-bind the ports; the window in between is the usual localhost
/// launcher trade-off, absorbed by the children's connect retries.
fn allocate_ports(n: usize) -> Result<Vec<String>, CliError> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<Result<_, _>>()
        .map_err(CliError::io)?;
    listeners
        .iter()
        .map(|l| l.local_addr().map(|a| a.to_string()))
        .collect::<Result<_, _>>()
        .map_err(CliError::io)
}

/// Forward every line of `reader` to our own stream, prefixed with the
/// rank, then report the stream's end on `closed`. Stdout and stderr
/// each get one forwarding thread per child.
fn prefix_lines(
    rank: usize,
    reader: impl std::io::Read + Send + 'static,
    to_stderr: bool,
    closed: mpsc::Sender<usize>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let mut lines = BufReader::new(reader).lines();
        while let Some(Ok(line)) = lines.next() {
            if to_stderr {
                eprintln!("[rank {rank}] {line}");
            } else {
                println!("[rank {rank}] {line}");
            }
        }
        let _ = closed.send(rank);
    })
}

/// A rank's exit status as a shell reports it: the exit code, or
/// `128 + N` when signal `N` killed it. Returns that code and its
/// description, e.g. `code 137 (signal 9)`.
fn exit_report(status: ExitStatus) -> (i32, String) {
    match (status.code(), status.signal()) {
        (Some(code), _) => (code, format!("code {code}")),
        (None, Some(signal)) => (
            128 + signal,
            format!("code {} (signal {signal})", 128 + signal),
        ),
        (None, None) => (1, format!("code 1 ({status})")),
    }
}

/// One attempt's processes. Dropping it kills and reaps every child not
/// yet reaped and joins the output forwarders, so every way out of
/// [`run_world_once`] — success, failure, error — leaves nothing behind.
struct RankProcs {
    /// `None` once reaped.
    children: Vec<Option<Child>>,
    forwarders: Vec<JoinHandle<()>>,
}

impl RankProcs {
    fn kill_all(&mut self) {
        for child in self.children.iter_mut().flatten() {
            let _ = child.kill();
        }
    }
}

impl Drop for RankProcs {
    fn drop(&mut self) {
        self.kill_all();
        for child in self.children.iter_mut().flatten() {
            let _ = child.wait();
        }
        for f in self.forwarders.drain(..) {
            let _ = f.join();
        }
    }
}

/// Execute a launch plan; returns the job's exit code (0 iff every rank
/// of some attempt exited 0). With `--restart-failed N`, a failed world
/// is torn down completely and relaunched — up to `N` times, with
/// capped exponential backoff, fresh ports, and the restart attempt
/// injected as `--restart-epoch` (plus `--resume auto`) so checkpointed
/// child commands pick up from their last saved epoch.
///
/// # Errors
///
/// Errors when the world cannot be spawned at all; per-rank failures
/// are reported on stderr and through the exit code (or a restart)
/// instead.
pub fn execute(plan: &LaunchPlan) -> Result<i32, CliError> {
    let mut attempt = 0usize;
    let mut backoff = pa_net::Backoff::new(Duration::from_millis(200), Duration::from_secs(2));
    loop {
        let code = run_world_once(plan, attempt)?;
        if code == 0 || attempt >= plan.restart_failed {
            return Ok(code);
        }
        attempt += 1;
        let delay = backoff.next_delay();
        eprintln!(
            "palaunch: restarting world (attempt {attempt} of {}) after {delay:?} backoff",
            plan.restart_failed
        );
        std::thread::sleep(delay);
    }
}

/// Spawn, supervise, and reap one world (one launch attempt).
fn run_world_once(plan: &LaunchPlan, attempt: usize) -> Result<i32, CliError> {
    // Fresh ports every attempt: the previous attempt's sockets may
    // still sit in TIME_WAIT, and a straggler child could otherwise
    // squat on an address the new world needs.
    let peers = allocate_ports(plan.ranks)?;
    let mut procs = RankProcs {
        children: Vec::with_capacity(plan.ranks),
        forwarders: Vec::with_capacity(2 * plan.ranks),
    };
    let (closed_tx, closed_rx) = mpsc::channel();
    for rank in 0..plan.ranks {
        let mut cmd = Command::new(&plan.pagen);
        cmd.args(&plan.child_args)
            .arg("--backend")
            .arg("tcp")
            .arg("--rank")
            .arg(rank.to_string())
            .arg("--world")
            .arg(plan.ranks.to_string())
            .arg("--peers")
            .arg(peers.join(","));
        if let Some(dir) = &plan.restart_world {
            // Appended after the user's args, so it wins on conflicts.
            cmd.arg("--restart-world").arg(dir);
        }
        if attempt > 0 {
            // Later flags win over user-provided ones: restarts resume
            // from checkpoints, and the bumped restart epoch keeps
            // stale ranks of earlier attempts out of the new mesh.
            cmd.arg("--restart-epoch")
                .arg(attempt.to_string())
                .arg("--resume")
                .arg("auto");
        }
        cmd.stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        // A failed spawn drops `procs`, which reaps the earlier ranks.
        let mut child = cmd.spawn().map_err(|e| {
            CliError::usage(format!("spawning {} failed: {e}", plan.pagen.display()))
        })?;
        let stdout = child.stdout.take().expect("piped");
        let stderr = child.stderr.take().expect("piped");
        procs.children.push(Some(child));
        procs
            .forwarders
            .push(prefix_lines(rank, stdout, false, closed_tx.clone()));
        procs
            .forwarders
            .push(prefix_lines(rank, stderr, true, closed_tx.clone()));
    }
    drop(closed_tx);

    // Reap each rank once both its output streams have closed; on the
    // first failure, kill the survivors.
    let mut open_streams = vec![2u8; plan.ranks];
    let mut failure: Option<(usize, i32, String)> = None;
    for rank in closed_rx.iter() {
        open_streams[rank] -= 1;
        if open_streams[rank] > 0 {
            continue;
        }
        let mut child = procs.children[rank]
            .take()
            .expect("each rank is reaped once");
        let status = child
            .wait()
            .map_err(|e| CliError::usage(format!("waiting on rank {rank}: {e}")))?;
        if !status.success() && failure.is_none() {
            let (code, report) = exit_report(status);
            failure = Some((rank, code, report));
            procs.kill_all();
        }
    }
    drop(procs);
    let Some((rank, code, report)) = failure else {
        return Ok(0);
    };
    let _ = writeln!(
        std::io::stderr().lock(),
        "palaunch: rank {rank} exited with {report}; remaining ranks killed"
    );
    Ok(code)
}

/// Entry point for the `palaunch` binary.
///
/// # Errors
///
/// Errors on unusable arguments or an unspawnable world.
pub fn run(argv: &[String]) -> Result<i32, CliError> {
    let plan = parse(argv)?;
    execute(&plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_extracts_ranks_and_child_args() {
        let plan = parse(&argv(&[
            "-p",
            "4",
            "--pagen",
            "/bin/true",
            "--",
            "generate",
            "--n",
            "100",
        ]))
        .unwrap();
        assert_eq!(plan.ranks, 4);
        assert_eq!(plan.pagen, PathBuf::from("/bin/true"));
        assert_eq!(plan.child_args, argv(&["generate", "--n", "100"]));
    }

    #[test]
    fn parse_accepts_long_form() {
        let plan = parse(&argv(&["--ranks", "3", "--pagen", "/bin/true", "--", "x"])).unwrap();
        assert_eq!(plan.ranks, 3);
    }

    #[test]
    fn parse_reads_restart_failed() {
        let plan = parse(&argv(&[
            "-p",
            "2",
            "--restart-failed",
            "3",
            "--pagen",
            "/bin/true",
            "--",
            "x",
        ]))
        .unwrap();
        assert_eq!(plan.restart_failed, 3);
        // Default fails fast.
        let plan = parse(&argv(&["--pagen", "/bin/true", "--", "x"])).unwrap();
        assert_eq!(plan.restart_failed, 0);
        assert!(parse(&argv(&["--restart-failed", "x", "--", "x"])).is_err());
    }

    #[test]
    fn parse_reads_restart_world() {
        let plan = parse(&argv(&[
            "-p",
            "2",
            "--restart-world",
            "/tmp/world4",
            "--pagen",
            "/bin/true",
            "--",
            "x",
        ]))
        .unwrap();
        assert_eq!(plan.restart_world.as_deref(), Some("/tmp/world4"));
        let plan = parse(&argv(&["--pagen", "/bin/true", "--", "x"])).unwrap();
        assert!(plan.restart_world.is_none());
        assert!(parse(&argv(&["--restart-world"])).is_err());
    }

    #[test]
    fn parse_rejects_missing_separator_and_empty_command() {
        assert!(parse(&argv(&["-p", "2"])).is_err());
        assert!(parse(&argv(&["-p", "2", "--"])).is_err());
        assert!(parse(&argv(&["-p", "0", "--", "x"])).is_err());
        assert!(parse(&argv(&["--bogus", "1", "--", "x"])).is_err());
    }

    #[test]
    fn exit_report_follows_the_shell_convention() {
        // A wait status holds the exit code in bits 8..16, or the signal
        // that killed the process in bits 0..7.
        assert_eq!(
            exit_report(ExitStatus::from_raw(0)),
            (0, "code 0".to_string())
        );
        assert_eq!(
            exit_report(ExitStatus::from_raw(3 << 8)),
            (3, "code 3".to_string())
        );
        assert_eq!(
            exit_report(ExitStatus::from_raw(9)),
            (137, "code 137 (signal 9)".to_string())
        );
        assert_eq!(
            exit_report(ExitStatus::from_raw(15)),
            (143, "code 143 (signal 15)".to_string())
        );
    }

    #[test]
    fn allocate_ports_are_distinct() {
        let ports = allocate_ports(8).unwrap();
        let mut unique = ports.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), 8, "{ports:?}");
    }
}
