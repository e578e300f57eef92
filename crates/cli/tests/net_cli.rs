//! End-to-end tests of the multi-process TCP backend through the real
//! binaries: `palaunch` supervising a world of `pagen --backend tcp`
//! ranks, connect-failure exits, and mid-run crash diagnostics.

use std::net::TcpListener;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const PAGEN: &str = env!("CARGO_BIN_EXE_pagen");
const PALAUNCH: &str = env!("CARGO_BIN_EXE_palaunch");

fn tmp(name: &str) -> String {
    let dir = std::env::temp_dir().join("pagen_net_cli_tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name).to_string_lossy().into_owned()
}

/// Bind-and-release `n` loopback addresses (same trick as palaunch).
fn ports(n: usize) -> Vec<String> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().unwrap().to_string())
        .collect()
}

/// Wait for `child` with a deadline; kill it and panic on overrun.
fn wait_bounded(child: &mut Child, what: &str, limit: Duration) -> std::process::ExitStatus {
    let start = Instant::now();
    loop {
        if let Some(status) = child.try_wait().unwrap() {
            return status;
        }
        assert!(
            start.elapsed() < limit,
            "{what} still running after {limit:?} — killing it"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// `--n` for the worlds the kill tests interrupt. `pagen` is built with
/// the test binary's profile, and a release world of the debug size can
/// finish before the kill lands.
const KILL_N: &str = if cfg!(debug_assertions) {
    "500000"
} else {
    "2000000"
};

/// Wait until `rank` has committed its first checkpoint in `dir` (they
/// are renamed into place, so a `.ckpt` name means a complete file): from
/// then on the world is past its start-up and still generating.
fn wait_for_first_checkpoint(dir: &str, rank: usize) {
    let prefix = format!("rank{rank}.epoch");
    let limit = Duration::from_secs(60);
    let start = Instant::now();
    loop {
        let saved = std::fs::read_dir(dir).unwrap().flatten().any(|e| {
            let name = e.file_name();
            let name = name.to_string_lossy();
            name.starts_with(&prefix) && name.ends_with(".ckpt")
        });
        if saved {
            return;
        }
        assert!(
            start.elapsed() < limit,
            "rank {rank} committed no checkpoint in {dir} within {limit:?}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn read_canonical(path: &str) -> pa_graph::EdgeList {
    pa_graph::io::read_binary_file(path)
        .unwrap()
        .canonicalized()
}

/// Find the pid of the live `pagen` child running `--rank <rank>` with
/// `--out <out_path>` by scanning `/proc` (Linux-only, like the rest of
/// this file's process plumbing). The out path disambiguates from other
/// concurrently running tests.
fn find_rank_pid(out_path: &str, rank: usize) -> Option<u32> {
    let want = rank.to_string();
    for entry in std::fs::read_dir("/proc").ok()?.flatten() {
        let name = entry.file_name();
        let Ok(pid) = name.to_string_lossy().parse::<u32>() else {
            continue;
        };
        let Ok(raw) = std::fs::read(entry.path().join("cmdline")) else {
            continue;
        };
        let args: Vec<&str> = raw
            .split(|b| *b == 0)
            .map(|s| std::str::from_utf8(s).unwrap_or(""))
            .collect();
        if args.contains(&out_path) && args.windows(2).any(|w| w[0] == "--rank" && w[1] == want) {
            return Some(pid);
        }
    }
    None
}

#[test]
fn palaunch_matches_single_process_for_every_scheme() {
    for scheme in ["ucp", "lcp", "rrp"] {
        for x in ["1", "4"] {
            let multi = tmp(&format!("multi_{scheme}_x{x}.bin"));
            let single = tmp(&format!("single_{scheme}_x{x}.bin"));
            let common = [
                "generate", "--model", "pa", "--n", "20000", "--x", x, "--scheme", scheme,
                "--seed", "13", "--format", "bin",
            ];

            let out = Command::new(PALAUNCH)
                .args(["-p", "4", "--pagen", PAGEN, "--"])
                .args(common)
                .args(["--out", &multi])
                .output()
                .unwrap();
            assert!(
                out.status.success(),
                "{scheme} x{x}: palaunch failed\nstdout: {}\nstderr: {}",
                String::from_utf8_lossy(&out.stdout),
                String::from_utf8_lossy(&out.stderr)
            );
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(stdout.contains("[rank 0] generated pa"), "{stdout}");

            let out = Command::new(PAGEN)
                .args(common)
                .args(["--ranks", "4", "--out", &single])
                .output()
                .unwrap();
            assert!(out.status.success(), "{scheme} x{x}: single-process failed");

            // Within-rank emission order over TCP depends on packet
            // interleaving, so the files are compared as canonical edge
            // lists — the same standard the seeded oracles use.
            assert_eq!(
                read_canonical(&multi),
                read_canonical(&single),
                "{scheme} x{x}: multi-process edge set diverged"
            );
            for r in 0..4 {
                assert!(
                    !std::path::Path::new(&format!("{multi}.part{r}")).exists(),
                    "{scheme} x{x}: part file {r} left behind"
                );
            }
        }
    }
}

#[test]
fn palaunch_merges_stats_from_all_ranks() {
    let out_path = tmp("stats.bin");
    let json_path = tmp("stats.json");
    let out = Command::new(PALAUNCH)
        .args(["-p", "2", "--pagen", PAGEN, "--"])
        .args([
            "generate",
            "--model",
            "pa",
            "--n",
            "10000",
            "--x",
            "4",
            "--scheme",
            "lcp",
            "--seed",
            "5",
            "--format",
            "bin",
            "--out",
            &out_path,
            "--stats",
            "on",
            "--stats-json",
            &json_path,
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("[rank 0] comm stats (2 rank(s))"),
        "{stdout}"
    );
    assert!(stdout.contains("per-rank msgs"), "{stdout}");
    let json = std::fs::read_to_string(&json_path).unwrap();
    assert!(json.contains("\"world\": 2"), "{json}");
    assert!(json.contains("\"per_rank_msgs\": ["), "{json}");
}

#[test]
fn both_merge_paths_write_the_same_stats_document() {
    // The in-process fold (`generate --ranks 2`) and the collectives over
    // TCP (`palaunch -p 2`) must merge an engine-3 run into the same
    // bytes: engine 3 sends no algorithm message, so both worlds count
    // the same (zero) traffic.
    let job = [
        "generate", "--model", "pa", "--n", "20000", "--x", "4", "--seed", "3", "--engine", "3",
        "--format", "bin",
    ];
    let (local_json, tcp_json) = (tmp("merge_local.json"), tmp("merge_tcp.json"));
    let local = Command::new(PAGEN)
        .args(job)
        .args(["--ranks", "2", "--out", &tmp("merge_local.bin")])
        .args(["--stats-json", &local_json])
        .output()
        .unwrap();
    assert!(
        local.status.success(),
        "{}",
        String::from_utf8_lossy(&local.stderr)
    );
    let tcp = Command::new(PALAUNCH)
        .args(["-p", "2", "--pagen", PAGEN, "--"])
        .args(job)
        .args(["--out", &tmp("merge_tcp.bin"), "--stats-json", &tcp_json])
        .output()
        .unwrap();
    assert!(
        tcp.status.success(),
        "{}",
        String::from_utf8_lossy(&tcp.stderr)
    );
    let local = std::fs::read_to_string(&local_json).unwrap();
    assert_eq!(local, std::fs::read_to_string(&tcp_json).unwrap());
    assert!(local.contains("\"per_rank_msgs\": [0, 0]"), "{local}");
}

#[test]
fn in_process_backend_reports_stats_too() {
    let out_path = tmp("local_stats.pag");
    let json_path = tmp("local_stats.json");
    let out = Command::new(PAGEN)
        .args([
            "generate",
            "--model",
            "pa",
            "--n",
            "5000",
            "--x",
            "3",
            "--ranks",
            "4",
            "--out",
            &out_path,
            "--stats",
            "on",
            "--stats-json",
            &json_path,
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("comm stats (4 rank(s))"), "{stdout}");
    let json = std::fs::read_to_string(&json_path).unwrap();
    assert!(json.contains("\"world\": 4"), "{json}");
}

#[test]
fn connecting_to_a_dead_peer_exits_nonzero_and_names_the_rank() {
    // Allocate an address for rank 0 but never run it; rank 1 must give
    // up after its connect timeout with a clear diagnostic, not hang.
    let peers = ports(2).join(",");
    let started = Instant::now();
    let mut child = Command::new(PAGEN)
        .args([
            "generate",
            "--model",
            "pa",
            "--n",
            "1000",
            "--backend",
            "tcp",
            "--rank",
            "1",
            "--world",
            "2",
            "--peers",
            &peers,
            "--connect-timeout-ms",
            "600",
            "--out",
            &tmp("dead.bin"),
            "--format",
            "bin",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let status = wait_bounded(&mut child, "rank 1 vs dead rank 0", Duration::from_secs(15));
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!status.success(), "expected failure, got {status:?}");
    assert!(
        started.elapsed() < Duration::from_secs(15),
        "took {:?} to fail",
        started.elapsed()
    );
    assert!(stderr.contains("rank 0"), "stderr: {stderr}");
    assert!(stderr.contains("unreachable"), "stderr: {stderr}");
}

#[test]
fn killing_a_rank_mid_run_fails_the_survivor_with_a_diagnostic() {
    // A 2-rank checkpointing world; rank 1 is killed mid-flight, right
    // after its first checkpoint, and rank 0 must abort naming it, not
    // hang.
    let peers = ports(2).join(",");
    let out_path = tmp("killed.bin");
    let ckpt_dir = tmp("killed_ckpts");
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    std::fs::create_dir_all(&ckpt_dir).unwrap();
    let spawn = |rank: &str| {
        Command::new(PAGEN)
            .args([
                "generate",
                "--model",
                "pa",
                "--n",
                KILL_N,
                "--checkpoint-dir",
                &ckpt_dir,
                "--checkpoint-interval",
                "30000",
                "--x",
                "4",
                "--scheme",
                "lcp",
                "--backend",
                "tcp",
                "--rank",
                rank,
                "--world",
                "2",
                "--peers",
                &peers,
                "--out",
                &out_path,
                "--format",
                "bin",
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap()
    };
    let mut rank0 = spawn("0");
    let mut rank1 = spawn("1");
    wait_for_first_checkpoint(&ckpt_dir, 1);
    rank1.kill().unwrap();
    let _ = rank1.wait();

    let status = wait_bounded(
        &mut rank0,
        "rank 0 after peer death",
        Duration::from_secs(60),
    );
    let out = rank0.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!status.success(), "rank 0 ignored its peer's death");
    assert!(
        stderr.contains("rank 1"),
        "diagnostic does not name the dead rank: {stderr}"
    );
    for r in 0..2 {
        let _ = std::fs::remove_file(format!("{out_path}.part{r}"));
    }
    let _ = std::fs::remove_dir_all(&ckpt_dir);
}

#[test]
fn resuming_from_a_part_shorter_than_its_checkpoint_fails_naming_the_rank() {
    // A 2-rank checkpointing world is killed once both ranks have
    // checkpointed; rank 1's part (beside its checkpoints) then loses
    // its bytes. The relaunched world must refuse to resume over rows
    // that are gone, naming rank 1.
    let out_path = tmp("short_part.bin");
    let ckpt_dir = tmp("short_part_ckpts");
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    std::fs::create_dir_all(&ckpt_dir).unwrap();
    let spawn = |peers: &str, rank: &str, resume: &str| {
        Command::new(PAGEN)
            .args(["generate", "--model", "pa", "--n", KILL_N, "--x", "4"])
            .args(["--scheme", "rrp", "--checkpoint-dir", &ckpt_dir])
            .args(["--checkpoint-interval", "30000", "--resume", resume])
            .args(["--backend", "tcp", "--rank", rank, "--world", "2"])
            .args(["--peers", peers, "--out", &out_path, "--format", "bin"])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap()
    };
    let peers = ports(2).join(",");
    let mut ranks = [spawn(&peers, "0", "off"), spawn(&peers, "1", "off")];
    // Both ranks hold a checkpoint, so the relaunch agrees to resume.
    wait_for_first_checkpoint(&ckpt_dir, 0);
    wait_for_first_checkpoint(&ckpt_dir, 1);
    for rank in &mut ranks {
        let _ = rank.kill();
        let _ = rank.wait();
    }
    let part = format!("{ckpt_dir}/rank1.part");
    std::fs::OpenOptions::new()
        .write(true)
        .open(&part)
        .unwrap()
        .set_len(0)
        .unwrap();

    // Rank 1 fails once the world has agreed to resume. Its survivor
    // is left to the launcher, which kills it (`palaunch` does).
    let peers = ports(2).join(",");
    let [mut rank0, mut rank1] = [spawn(&peers, "0", "auto"), spawn(&peers, "1", "auto")];
    let status = wait_bounded(&mut rank1, "relaunched rank 1", Duration::from_secs(60));
    let _ = rank0.kill();
    let _ = rank0.wait();
    assert!(!status.success(), "rank 1 resumed over a short part");
    let stderr = String::from_utf8_lossy(&rank1.wait_with_output().unwrap().stderr).into_owned();
    assert!(
        stderr.contains("rank 1: cannot resume") && stderr.contains("fewer than"),
        "rank 1's diagnostic: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&ckpt_dir);
}

/// A scratch directory on another filesystem than [`tmp`]'s where the
/// host has one (tmpfs at `/dev/shm`), else beside it.
fn tmp_on_another_filesystem(name: &str) -> String {
    use std::os::unix::fs::MetadataExt;
    let dev = |p: &std::path::Path| std::fs::metadata(p).map(|m| m.dev()).ok();
    let shm = std::path::Path::new("/dev/shm");
    match (dev(shm), dev(&std::env::temp_dir())) {
        (Some(a), Some(b)) if a != b => shm
            .join(format!("pagen_net_cli_{name}_{}", std::process::id()))
            .to_string_lossy()
            .into_owned(),
        _ => tmp(name),
    }
}

#[test]
fn a_failed_merge_keeps_the_world_and_the_relaunch_merges_across_filesystems() {
    // A checkpointing world writes its parts beside its checkpoints, here
    // on another filesystem than --out's. The first launch cannot merge
    // (--out is an occupied directory): every part and checkpoint must
    // survive it. The relaunch resumes from them and merges.
    let out_path = tmp("xfs.bin");
    let single = tmp("xfs_single.bin");
    let ckpt_dir = tmp_on_another_filesystem("xfs_ckpts");
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let _ = std::fs::remove_file(&out_path);
    let _ = std::fs::remove_dir_all(&out_path);
    std::fs::create_dir_all(format!("{out_path}/occupied")).unwrap();
    let common = [
        "generate", "--model", "pa", "--n", "20000", "--x", "4", "--scheme", "rrp", "--seed", "5",
        "--format", "bin",
    ];
    let launch = |resume: &str| {
        Command::new(PALAUNCH)
            .args(["-p", "2", "--pagen", PAGEN, "--"])
            .args(common)
            .args(["--out", &out_path, "--checkpoint-dir", &ckpt_dir])
            .args(["--checkpoint-interval", "5000", "--resume", resume])
            .output()
            .unwrap()
    };
    let names = || -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(&ckpt_dir)
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|name| name.ends_with(".part") || name.ends_with(".ckpt"))
            .collect();
        names.sort();
        names
    };

    let out = launch("off");
    assert!(
        !out.status.success(),
        "the merge onto a directory succeeded"
    );
    let kept = names();
    for want in ["rank0.part", "rank1.part", "rank0.epoch", "rank1.epoch"] {
        assert!(
            kept.iter().any(|name| name.starts_with(want)),
            "{want}* gone after the failed merge: {kept:?}\nstderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    std::fs::remove_dir_all(&out_path).unwrap();
    let out = launch("auto");
    assert!(
        out.status.success(),
        "the relaunch failed\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = Command::new(PAGEN)
        .args(common)
        .args(["--ranks", "2", "--out", &single])
        .output()
        .unwrap();
    assert!(out.status.success(), "single-process reference run failed");
    assert_eq!(read_canonical(&out_path), read_canonical(&single));
    assert_eq!(names(), Vec::<String>::new(), "left in the checkpoint dir");
    let _ = std::fs::remove_dir_all(&ckpt_dir);
}

#[test]
fn palaunch_kills_survivors_when_one_rank_fails() {
    // Rank processes that fail fast (unknown flag) must take the job
    // down: nonzero exit plus a supervisor line naming a failed rank.
    let out = Command::new(PALAUNCH)
        .args(["-p", "2", "--pagen", PAGEN, "--"])
        .args(["generate", "--definitely-not-a-flag", "1"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("exited with code"), "stderr: {stderr}");
    assert!(
        stderr.contains("remaining ranks killed"),
        "stderr: {stderr}"
    );
    // Without --restart-failed the default is fail-fast: no retries.
    assert!(!stderr.contains("restarting world"), "stderr: {stderr}");
}

#[test]
fn palaunch_restart_failed_recovers_from_kill9_with_identical_output() {
    // The headline recovery scenario: a 4-rank checkpointing world, one
    // rank SIGKILLed from outside mid-generation, `--restart-failed`
    // relaunching the world (resuming from the last agreed checkpoint
    // epoch when one exists), and the final merged file canonically
    // equal to an uninterrupted single-process run of the same seed.
    let out_path = tmp("recover.bin");
    let single = tmp("recover_single.bin");
    let ckpt_dir = tmp("recover_ckpts");
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    std::fs::create_dir_all(&ckpt_dir).unwrap();
    let common = [
        "generate", "--model", "pa", "--n", KILL_N, "--x", "4", "--scheme", "rrp", "--seed", "99",
        "--format", "bin",
    ];

    let mut child = Command::new(PALAUNCH)
        .args(["-p", "4", "--restart-failed", "2", "--pagen", PAGEN, "--"])
        .args(common)
        .args([
            "--out",
            &out_path,
            "--checkpoint-dir",
            &ckpt_dir,
            "--checkpoint-interval",
            "30000",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();

    // Once rank 2 has committed a checkpoint epoch, SIGKILL it from
    // outside the supervisor.
    wait_for_first_checkpoint(&ckpt_dir, 2);
    let victim = find_rank_pid(&out_path, 2)
        .expect("rank 2 should still be running just after its first checkpoint");
    let killed = Command::new("kill")
        .args(["-9", &victim.to_string()])
        .status()
        .unwrap();
    assert!(killed.success(), "kill -9 {victim} failed");

    let status = wait_bounded(
        &mut child,
        "palaunch with --restart-failed",
        Duration::from_secs(180),
    );
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        status.success(),
        "recovery run failed\nstderr: {stderr}\nstdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    // palaunch names the first exit its poll sees; a survivor that
    // aborted on the lost connection can beat the victim to it, and then
    // the survivor's diagnostic names rank 2.
    assert!(
        stderr.contains("palaunch: rank 2 exited with code")
            || stderr.contains("lost connection to rank 2"),
        "stderr: {stderr}"
    );
    assert!(
        stderr.contains("restarting world (attempt 1 of 2)"),
        "stderr: {stderr}"
    );

    let out = Command::new(PAGEN)
        .args(common)
        .args(["--ranks", "4", "--out", &single])
        .output()
        .unwrap();
    assert!(out.status.success(), "single-process reference run failed");
    assert_eq!(
        read_canonical(&out_path),
        read_canonical(&single),
        "recovered edge set diverged from the uninterrupted run"
    );

    // A finished job leaves neither part files nor checkpoints behind.
    for r in 0..4 {
        assert!(
            !std::path::Path::new(&format!("{out_path}.part{r}")).exists(),
            "part file {r} left behind"
        );
    }
    let leftovers: Vec<String> = std::fs::read_dir(&ckpt_dir)
        .unwrap()
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|name| name.contains("ckpt"))
        .collect();
    assert!(
        leftovers.is_empty(),
        "checkpoints left behind: {leftovers:?}"
    );
}

#[test]
fn tcp_backend_rejects_incomplete_worlds_and_chaos() {
    let run = |extra: &[&str]| {
        let mut args = vec!["generate", "--model", "pa", "--backend", "tcp"];
        args.extend_from_slice(extra);
        Command::new(PAGEN).args(&args).output().unwrap()
    };

    let out = run(&[]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--peers"), "{stderr}");
    assert!(stderr.contains("palaunch"), "{stderr}");

    let out = run(&[
        "--rank",
        "0",
        "--world",
        "2",
        "--peers",
        "a:1,b:2",
        "--chaos-profile",
        "light",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("chaos"), "{stderr}");

    // `--hub-cache` is part of the shared flag parse: a rank of a TCP
    // world refuses a numeric size (only auto and off exist) as usage
    // (exit 2) before dialing anyone.
    let out = run(&[
        "--rank",
        "0",
        "--world",
        "2",
        "--peers",
        "a:1,b:2",
        "--n",
        "1000",
        "--hub-cache",
        "2000",
    ]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--hub-cache must be auto or off, got \"2000\""),
        "{stderr}"
    );
}
