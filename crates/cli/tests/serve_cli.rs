//! End-to-end tests of `pagen serve` / `fetch` / `drain` through the
//! real binary, plus the by-value pin of the canonical job encoding (a
//! layout change would key a client's request to a different artifact
//! than the daemon generates, and orphan every cached one).

use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use pa_core::job::JobDescriptor;
use pa_core::{ModelKind, PaConfig};
use pa_graph::io::EdgeFormat;
use pa_net::serve::JobSpec;

const PAGEN: &str = env!("CARGO_BIN_EXE_pagen");

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pagen_serve_cli_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Bind-and-release a loopback port (same trick as palaunch).
fn free_addr() -> String {
    let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    l.local_addr().unwrap().to_string()
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
            "{what} still running after {limit:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Block until a TCP connect to `addr` succeeds (the daemon is up).
fn wait_listening(addr: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if std::net::TcpStream::connect(addr).is_ok() {
            return;
        }
        assert!(Instant::now() < deadline, "daemon never listened on {addr}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn pagen(args: &[&str]) -> std::process::Output {
    Command::new(PAGEN).args(args).output().unwrap()
}

#[test]
fn fetch_max_attempts_too_wide_for_its_u32_exits_2() {
    // 2^32 + 1 wrapped to a single attempt; it must be a usage error
    // before any connection is tried.
    let dir = tmp_dir("wide_attempts");
    let out_path = dir.join("out.bin");
    let out = pagen(&[
        "fetch",
        "--addr",
        &free_addr(),
        "--out",
        out_path.to_str().unwrap(),
        "--max-attempts",
        "4294967297",
    ]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--max-attempts must be at most 4294967295, got 4294967297"),
        "{stderr}"
    );
    assert!(!out_path.exists(), "a refused fetch must not touch --out");
}

fn assert_ok(out: &std::process::Output, what: &str) -> String {
    assert!(
        out.status.success(),
        "{what} failed: {}\n{}",
        String::from_utf8_lossy(&out.stderr),
        String::from_utf8_lossy(&out.stdout)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

// ---------------------------------------------------------------------
// Canonical-encoding pin.
// ---------------------------------------------------------------------

/// The one property the whole serve stack hangs on, by value: these two
/// tuples lower to exactly the 48 canonical bytes — hence the job ids —
/// that the PR-12 tree derived for them on both sides of the wire. The
/// arrays and ids are pasted literals on purpose: an accidental layout
/// change must fail here, not pass by self-consistency, because it would
/// orphan every cached artifact and key a client's request to a
/// different file than the daemon generates.
#[test]
fn job_tuple_layout_and_ids_are_pinned_by_value() {
    let desc = JobDescriptor {
        cfg: PaConfig::new(50_000, 4).with_seed(42).with_p(0.5),
        scheme: pa_core::partition::Scheme::Rrp,
        engine: 2,
        model: ModelKind::Pa,
        ranks: 4,
        format: EdgeFormat::Binary,
    };
    let bytes = [
        80, 195, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 224, 63, 42, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 2, 2, 0, 1,
    ];
    let id = 0x777b_6adc_2dca_d4b8;
    desc.validate().unwrap();
    assert_eq!(desc.canonical_bytes(), bytes, "{desc:?}");
    assert_eq!(desc.job_id(), id, "{desc:?}");
    let spec = JobSpec::from_canonical(&bytes);
    assert_eq!(spec, desc.to_raw());
    assert_eq!(spec.job_id(), id);

    // The retired model id 1 with alpha = 1.5 at bytes 32..40: the raw
    // tuple keeps its layout and id, and lifting it fails by name.
    let retired = JobSpec {
        n: 1_000,
        x: 1,
        p_bits: 0.25f64.to_bits(),
        seed: 7,
        alpha_bits: 1.5f64.to_bits(),
        ranks: 8,
        scheme_id: pa_core::partition::Scheme::Lcp.id(),
        engine_id: 3,
        model_id: 1,
        format_id: EdgeFormat::Text.id(),
    };
    let bytes = [
        232, 3, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 208, 63, 7, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0, 0, 0, 248, 63, 8, 0, 0, 0, 1, 3, 1, 0,
    ];
    assert_eq!(retired.canonical_bytes(), bytes);
    assert_eq!(JobSpec::from_canonical(&bytes), retired);
    assert_eq!(retired.job_id(), 0xd4f0_8003_d0c1_673b);
    let err = JobDescriptor::from_raw(&retired).unwrap_err();
    assert!(err.contains("model id 1 is retired"), "{err}");
}

// ---------------------------------------------------------------------
// The daemon through the real binary.
// ---------------------------------------------------------------------

/// One daemon lifetime exercising the full client surface: fetch equals
/// a solo engine-3 run byte for byte, a repeat fetch is served from
/// cache and stays identical, an interrupted fetch resumes to the same
/// bytes, and `pagen drain` shuts the daemon down cleanly with its
/// stats line and no stray temp files.
#[test]
fn serve_fetch_resume_drain_round_trip() {
    let dir = tmp_dir("round_trip");
    let jobs = dir.join("jobs");
    let addr = free_addr();
    let mut daemon = Command::new(PAGEN)
        .args([
            "serve",
            "--addr",
            &addr,
            "--jobs-dir",
            jobs.to_str().unwrap(),
            "--workers",
            "2",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    wait_listening(&addr);

    // Engine 3 recomputes chains locally in label order, so its solo
    // output is byte-reproducible — the only engine where comparing a
    // fetched artifact against an independent solo run is meaningful.
    let job: &[&str] = &[
        "--n", "20000", "--x", "2", "--p", "0.5", "--seed", "11", "--ranks", "2", "--scheme",
        "rrp", "--engine", "3", "--format", "bin",
    ];
    let solo = dir.join("solo.bin");
    let mut gen_args = vec!["generate", "--model", "pa", "--out", solo.to_str().unwrap()];
    gen_args.extend_from_slice(job);
    let gen_line = assert_ok(&pagen(&gen_args), "solo generate");
    let solo_bytes = std::fs::read(&solo).unwrap();
    assert!(!solo_bytes.is_empty());

    let fetched = dir.join("fetched.bin");
    let mut fetch_args = vec!["fetch", "--addr", &addr, "--out", fetched.to_str().unwrap()];
    fetch_args.extend_from_slice(job);
    let fetch_line = assert_ok(&pagen(&fetch_args), "first fetch");
    assert!(fetch_line.contains("fetched job"), "{fetch_line:?}");
    assert_eq!(
        std::fs::read(&fetched).unwrap(),
        solo_bytes,
        "fetched artifact must equal the solo engine-3 run byte for byte"
    );

    // Same tuple again into a fresh file: served from cache, identical.
    let again = dir.join("again.bin");
    let mut again_args = vec!["fetch", "--addr", &addr, "--out", again.to_str().unwrap()];
    again_args.extend_from_slice(job);
    assert_ok(&pagen(&again_args), "cached fetch");
    assert_eq!(std::fs::read(&again).unwrap(), solo_bytes);

    // Interrupt a fetch mid-stream at a deterministic byte, then resume.
    let resumed = dir.join("resumed.bin");
    let cut = (solo_bytes.len() / 3).to_string();
    let mut cut_args = vec![
        "fetch",
        "--addr",
        &addr,
        "--out",
        resumed.to_str().unwrap(),
        "--stop-after-bytes",
        &cut,
        "--max-attempts",
        "1",
    ];
    cut_args.extend_from_slice(job);
    let out = pagen(&cut_args);
    assert!(!out.status.success(), "interrupted fetch must fail");
    assert_eq!(
        std::fs::metadata(&resumed).unwrap().len().to_string(),
        cut,
        "the cut leaves exactly --stop-after-bytes bytes on disk"
    );
    let mut resume_args = vec![
        "fetch",
        "--addr",
        &addr,
        "--out",
        resumed.to_str().unwrap(),
        "--resume",
        "on",
    ];
    resume_args.extend_from_slice(job);
    let line = assert_ok(&pagen(&resume_args), "resumed fetch");
    assert!(line.contains(&format!("resumed from {cut}")), "{line:?}");
    assert_eq!(
        std::fs::read(&resumed).unwrap(),
        solo_bytes,
        "resumed fetch must reproduce the artifact byte for byte"
    );

    // Drain: daemon acknowledges, finishes, exits 0 with its stats line.
    let line = assert_ok(&pagen(&["drain", "--addr", &addr]), "drain");
    assert!(line.contains("drain acknowledged"), "{line:?}");
    let status = wait_bounded(&mut daemon, "pagen serve", Duration::from_secs(20));
    assert!(status.success(), "daemon must exit cleanly after drain");
    let mut daemon_out = String::new();
    std::io::Read::read_to_string(daemon.stdout.as_mut().unwrap(), &mut daemon_out).unwrap();
    assert!(daemon_out.contains("serving on"), "{daemon_out:?}");
    assert!(daemon_out.contains("drained:"), "{daemon_out:?}");

    // The jobs dir holds exactly the one finished artifact — no .tmp
    // litter from the run.
    let leftovers: Vec<String> = std::fs::read_dir(&jobs)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(leftovers.len(), 1, "jobs dir: {leftovers:?}");
    assert!(leftovers[0].ends_with(".art"), "jobs dir: {leftovers:?}");

    // One tuple, one name: `generate`, `fetch` and the daemon's runner
    // (which files the artifact under the id) were given the same flags
    // and must report the same job id.
    let id_after = |line: &str, marker: &str| -> String {
        let at = line
            .find(marker)
            .unwrap_or_else(|| panic!("no {marker:?} in {line:?}"));
        line[at + marker.len()..].chars().take(16).collect()
    };
    assert_eq!(
        [
            id_after(&gen_line, ", job "),
            id_after(&fetch_line, "fetched job ")
        ],
        [leftovers[0].trim_end_matches(".art"); 2],
        "generate / fetch / served artifact disagree on the job id"
    );
}

/// Crash-restart through the real binary: daemon A caches an artifact
/// and is SIGKILLed; daemon B on the same jobs directory announces the
/// recovered cache on its startup line, `pagen serve-status` reflects
/// it over the wire, a re-fetch is byte-identical without re-running
/// (the drain line reports `0 job(s) run`), and planted temp litter is
/// gone.
#[test]
fn killed_daemon_restart_recovers_cache_and_serve_status_reports_it() {
    let dir = tmp_dir("restart");
    let jobs = dir.join("jobs");
    let job: &[&str] = &[
        "--n", "20000", "--x", "2", "--p", "0.5", "--seed", "11", "--ranks", "2", "--scheme",
        "rrp", "--engine", "3", "--format", "bin",
    ];

    let addr_a = free_addr();
    let mut daemon_a = Command::new(PAGEN)
        .args([
            "serve",
            "--addr",
            &addr_a,
            "--jobs-dir",
            jobs.to_str().unwrap(),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    wait_listening(&addr_a);
    let first = dir.join("first.bin");
    let mut fetch_args = vec!["fetch", "--addr", &addr_a, "--out", first.to_str().unwrap()];
    fetch_args.extend_from_slice(job);
    assert_ok(&pagen(&fetch_args), "fetch before the crash");
    let first_bytes = std::fs::read(&first).unwrap();

    // Hard kill — no drain, no cleanup — then stage the temp litter an
    // in-flight run would have left behind.
    daemon_a.kill().unwrap();
    daemon_a.wait().unwrap();
    std::fs::write(jobs.join("0123456789abcdef.5.tmp"), b"junk").unwrap();
    std::fs::write(jobs.join("0123456789abcdef.5.tmp.part0"), b"junk").unwrap();

    let addr_b = free_addr();
    let mut daemon_b = Command::new(PAGEN)
        .args([
            "serve",
            "--addr",
            &addr_b,
            "--jobs-dir",
            jobs.to_str().unwrap(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    wait_listening(&addr_b);

    let status_line = assert_ok(&pagen(&["serve-status", "--addr", &addr_b]), "serve-status");
    assert!(
        status_line.contains("1 recovered at startup"),
        "{status_line:?}"
    );
    assert!(status_line.contains("2 temp cleaned"), "{status_line:?}");

    let second = dir.join("second.bin");
    let mut refetch = vec![
        "fetch",
        "--addr",
        &addr_b,
        "--out",
        second.to_str().unwrap(),
    ];
    refetch.extend_from_slice(job);
    assert_ok(&pagen(&refetch), "fetch after the restart");
    assert_eq!(
        std::fs::read(&second).unwrap(),
        first_bytes,
        "the restarted daemon must serve the pre-crash artifact byte for byte"
    );

    assert_ok(&pagen(&["drain", "--addr", &addr_b]), "drain");
    let status = wait_bounded(
        &mut daemon_b,
        "pagen serve (restarted)",
        Duration::from_secs(20),
    );
    assert!(status.success());
    let mut daemon_out = String::new();
    std::io::Read::read_to_string(daemon_b.stdout.as_mut().unwrap(), &mut daemon_out).unwrap();
    assert!(
        daemon_out.contains("recovered 1 artifact(s), cleaned 2 stale temp file(s)"),
        "{daemon_out:?}"
    );
    assert!(
        daemon_out.contains("drained: 0 job(s) run"),
        "the re-fetch must come from the recovered cache, not a re-run: {daemon_out:?}"
    );
    let leftovers: Vec<String> = std::fs::read_dir(&jobs)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.contains(".tmp"))
        .collect();
    assert!(
        leftovers.is_empty(),
        "stale temp files survived: {leftovers:?}"
    );
}

/// The daemon enforces its own caps: a job above `--max-nodes` is
/// rejected by name before any work is queued, and the daemon stays
/// healthy for well-formed jobs afterwards.
#[test]
fn serve_rejects_jobs_beyond_its_caps() {
    let dir = tmp_dir("caps");
    let addr = free_addr();
    let mut daemon = Command::new(PAGEN)
        .args([
            "serve",
            "--addr",
            &addr,
            "--jobs-dir",
            dir.join("jobs").to_str().unwrap(),
            "--max-nodes",
            "1000",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    wait_listening(&addr);

    let big = dir.join("big.bin");
    let out = pagen(&[
        "fetch",
        "--addr",
        &addr,
        "--out",
        big.to_str().unwrap(),
        "--n",
        "2000",
        "--x",
        "1",
        "--seed",
        "1",
        "--ranks",
        "1",
        "--engine",
        "3",
    ]);
    assert!(!out.status.success(), "over-cap job must be rejected");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--max-nodes"), "{err:?}");

    let small = dir.join("small.bin");
    assert_ok(
        &pagen(&[
            "fetch",
            "--addr",
            &addr,
            "--out",
            small.to_str().unwrap(),
            "--n",
            "900",
            "--x",
            "1",
            "--seed",
            "1",
            "--ranks",
            "1",
            "--engine",
            "3",
        ]),
        "in-cap fetch after a rejection",
    );
    assert!(std::fs::metadata(&small).unwrap().len() > 0);

    assert_ok(&pagen(&["drain", "--addr", &addr]), "drain");
    assert!(wait_bounded(&mut daemon, "pagen serve", Duration::from_secs(20)).success());
}
