//! The shared [`pa_mpsim::conformance`] suite over [`TcpTransport`] —
//! the same assertions `Comm`, `LoopbackTransport`, and `FaultTransport`
//! pass in `pa-mpsim`'s `transport_contract` test.
//!
//! Two deployment shapes are covered:
//!
//! * **In-process worlds** (one thread per rank over real loopback
//!   sockets) at 1, 2, and 4 ranks — fast, race-free ephemeral ports via
//!   [`TcpConfig::local_world`].
//! * **Multi-process worlds** at 2 and 4 ranks: the test re-executes its
//!   own binary once per rank (`PA_NET_CHILD_RANK` set), so the contract
//!   is also proven across genuine process boundaries, where nothing can
//!   accidentally share memory.

use std::io::Write;
use std::process::{Command, Stdio};
use std::time::Duration;

use pa_mpsim::conformance::{check_multi_rank, check_single_rank};
use pa_net::{TcpConfig, TcpTransport};

/// Run `f` as every rank of an in-process TCP world.
fn run_tcp_world(world: usize, f: impl Fn(TcpTransport<u64>) + Send + Sync) {
    let ranks = TcpConfig::local_world(world).expect("loopback world");
    std::thread::scope(|s| {
        for (cfg, listener) in ranks {
            let f = &f;
            s.spawn(move || {
                f(TcpTransport::connect_with_listener(cfg, listener)
                    .expect("bootstrap must succeed"))
            });
        }
    });
}

#[test]
fn tcp_conforms_single_rank() {
    let mut ranks = TcpConfig::local_world(1).expect("loopback world");
    let (cfg, listener) = ranks.pop().unwrap();
    check_single_rank(TcpTransport::<u64>::connect_with_listener(cfg, listener).unwrap());
}

#[test]
fn tcp_conforms() {
    run_tcp_world(2, check_multi_rank);
}

#[test]
fn tcp_conforms_at_four_ranks() {
    run_tcp_world(4, check_multi_rank);
}

/// Not a test of its own: when `PA_NET_CHILD_RANK` is set, this entry
/// is a *rank* of the multi-process worlds spawned below, and its exit
/// status is that rank's verdict. Without the variable it is a no-op.
#[test]
fn process_world_child_entry() {
    let Ok(rank) = std::env::var("PA_NET_CHILD_RANK") else {
        return;
    };
    let rank: usize = rank.parse().unwrap();
    let peers: Vec<String> = std::env::var("PA_NET_CHILD_PEERS")
        .unwrap()
        .split(',')
        .map(str::to_string)
        .collect();
    let mut cfg = TcpConfig::new(rank, peers.len(), peers);
    cfg.connect_timeout = Duration::from_secs(30);
    check_multi_rank(TcpTransport::<u64>::connect(cfg).expect("child bootstrap"));
}

/// Spawn one OS process per rank (re-executing this test binary) and
/// require every rank to pass the conformance suite.
///
/// Each rank's stdout is captured and passed on whole, rank by rank, so
/// the ranks' test reports never interleave mid-line.
fn run_process_world(world: usize) {
    // Allocate distinct loopback ports by bind-and-release; the children
    // re-bind them. (The tiny steal window is the same trade `palaunch`
    // makes; connect retries absorb slow starters.)
    let peers: Vec<String> = (0..world)
        .map(|_| {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        })
        .collect();
    let exe = std::env::current_exe().unwrap();
    let children: Vec<_> = (0..world)
        .map(|rank| {
            Command::new(&exe)
                .args(["--exact", "process_world_child_entry", "--test-threads=1"])
                .env("PA_NET_CHILD_RANK", rank.to_string())
                .env("PA_NET_CHILD_PEERS", peers.join(","))
                .stdout(Stdio::piped())
                .spawn()
                .expect("spawn child rank")
        })
        .collect();
    for (rank, child) in children.into_iter().enumerate() {
        let status = child.wait_with_output().expect("wait for child rank");
        std::io::stdout()
            .lock()
            .write_all(&status.stdout)
            .expect("pass on child rank output");
        assert!(
            status.status.success(),
            "rank {rank} failed the conformance suite: {status:?}"
        );
    }
}

#[test]
fn tcp_conforms_across_two_processes() {
    run_process_world(2);
}

#[test]
fn tcp_conforms_across_four_processes() {
    run_process_world(4);
}

#[test]
fn connecting_to_a_dead_world_fails_cleanly() {
    // Rank 1 of a 2-rank world whose rank 0 does not exist: grab a port,
    // release it, never start rank 0. The dial must give up at the
    // connect timeout with an error naming rank 0 — not hang.
    let dead = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    };
    let live = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    };
    let mut cfg = TcpConfig::new(1, 2, vec![dead, live]);
    cfg.connect_timeout = Duration::from_millis(400);
    let start = std::time::Instant::now();
    let err = TcpTransport::<u64>::connect(cfg).map(|_| ()).unwrap_err();
    assert!(
        start.elapsed() < Duration::from_secs(20),
        "connect did not respect its timeout"
    );
    let msg = err.to_string();
    assert!(
        msg.contains("rank 0"),
        "error must name the dead rank: {msg}"
    );
}

#[test]
fn killed_peer_fails_receives_with_a_diagnostic() {
    // Rank 1 vanishes without the orderly BYE (its process would have
    // been killed); rank 0's parked receive must panic with a diagnostic
    // naming rank 1 instead of sleeping forever.
    let mut ranks = TcpConfig::local_world(2).expect("loopback world");
    let (cfg1, l1) = ranks.pop().unwrap();
    let (cfg0, l0) = ranks.pop().unwrap();
    let killer = std::thread::spawn(move || {
        let t: TcpTransport<u64> = TcpTransport::connect_with_listener(cfg1, l1).unwrap();
        std::thread::sleep(Duration::from_millis(100));
        // Simulate a crash: sever both connections without a BYE.
        t.sever();
    });
    let mut t: TcpTransport<u64> = TcpTransport::connect_with_listener(cfg0, l0).unwrap();
    let verdict = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        use pa_mpsim::Transport;
        // Far longer than the kill delay: only the crash can end this.
        loop {
            if t.recv_timeout(Duration::from_secs(30)).is_some() {
                panic!("no traffic was ever sent");
            }
        }
    }));
    killer.join().unwrap();
    let panic_msg = match verdict {
        Ok(()) => unreachable!(),
        Err(payload) => payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "<non-string panic>".into()),
    };
    assert!(
        panic_msg.contains("rank 1"),
        "crash diagnostic must name the dead peer: {panic_msg}"
    );
}
