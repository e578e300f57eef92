//! Reusable conformance checks for the [`Transport`] contract.
//!
//! The `transport` module docs promise two things every implementation
//! must honour: `drain_recv` is the polling receive (returns immediately,
//! even empty-handed) and `recv_timeout` is the parking receive (blocks
//! until arrival or timeout, wakes promptly when traffic is already
//! queued or arrives mid-wait, and returns early only after a
//! termination event) — plus per-pair FIFO delivery, world-wide
//! collectives whose sums wrap on overflow, a termination ledger whose
//! completion wakes every parked rank, and a packet pool that ignores
//! zero-capacity buffers. These checks encode those assertions
//! once so every backend runs the *same* suite: [`crate::Comm`] in a
//! threaded world, [`crate::LoopbackTransport`], [`crate::FaultTransport`]
//! over both, and out-of-crate backends such as `pa-net`'s `TcpTransport`
//! — a new transport is conformance-tested by calling one function per
//! rank.
//!
//! The functions panic (via `assert!`) on any contract violation, so
//! they slot directly into `#[test]` bodies.

use std::time::{Duration, Instant};

use crate::Transport;

/// Generous bound for "returns immediately / wakes promptly": far above
/// scheduler jitter, far below the parking timeouts used here.
const PROMPT: Duration = Duration::from_millis(500);

/// Single-rank half of the contract: self-sends loop back in FIFO order
/// via the polling receive, the parking receive never blocks longer than
/// its timeout, and collectives of one rank are identities.
///
/// # Panics
///
/// Panics on any contract violation.
pub fn check_single_rank<T: Transport<u64>>(mut t: T) {
    assert_eq!(t.rank(), 0);
    assert_eq!(t.nranks(), 1);

    // drain_recv on an empty queue: returns 0, immediately.
    let mut out = Vec::new();
    let start = Instant::now();
    assert_eq!(t.drain_recv(&mut out), 0);
    assert!(start.elapsed() < PROMPT, "drain_recv blocked while empty");

    // Self-sends come back in order. A fault-injecting wrapper may hold
    // packets for a few receive calls, so poll until everything arrived.
    const N: u64 = 200;
    for i in 0..N {
        t.send(0, i);
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut got = Vec::new();
    while got.len() < N as usize {
        assert!(Instant::now() < deadline, "delivery stalled: {got:?}");
        let start = Instant::now();
        t.drain_recv(&mut out);
        assert!(start.elapsed() < PROMPT, "drain_recv blocked");
        for pkt in out.drain(..) {
            assert_eq!(pkt.src, 0);
            got.extend_from_slice(&pkt.msgs);
            t.recycle(pkt.src, pkt.msgs);
        }
    }
    assert_eq!(got, (0..N).collect::<Vec<_>>(), "per-pair FIFO violated");

    // Parking receive with nothing in flight: None, within the timeout
    // (loopback documents an immediate return — the contract is only an
    // upper bound).
    let start = Instant::now();
    assert!(t.recv_timeout(Duration::from_millis(50)).is_none());
    assert!(
        start.elapsed() < Duration::from_millis(50) + PROMPT,
        "recv_timeout overslept its timeout"
    );

    // Parking receive with traffic already queued: must deliver promptly,
    // not sleep out the full timeout.
    t.send(0, 777);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        assert!(Instant::now() < deadline, "queued packet never delivered");
        let start = Instant::now();
        if let Some(pkt) = t.recv_timeout(Duration::from_secs(5)) {
            assert!(
                start.elapsed() < Duration::from_secs(2),
                "recv_timeout poll-slept with traffic queued"
            );
            assert_eq!(pkt.msgs, vec![777]);
            break;
        }
    }

    // Collectives of one rank are identities, through any wrapper.
    t.barrier();
    assert_eq!(t.allreduce_sum(4), 4);
    assert_eq!(t.allreduce_max(5), 5);
    assert_eq!(t.allreduce_min(6), 6);
    assert_eq!(t.allgather_u64(9), vec![9]);
    assert_eq!(t.broadcast_u64(0, 3), 3);
    assert_eq!(t.exclusive_prefix_sum(8), 0);

    check_empty_recycle_is_uncounted(&mut t, 0);
}

/// Recycling a buffer with no allocation behind it is a no-op on every
/// backend: nothing enters the pool and `bufs_recycled` does not move.
fn check_empty_recycle_is_uncounted<T: Transport<u64>>(t: &mut T, src: usize) {
    let before = t.stats().bufs_recycled;
    t.recycle(src, Vec::new());
    assert_eq!(
        t.stats().bufs_recycled,
        before,
        "a zero-capacity buffer was counted as recycled"
    );
}

/// Multi-rank half of the contract, for worlds of two or more ranks.
/// Call from *every* rank with that rank's transport.
///
/// Every rank first checks that a parked receive with nothing in flight
/// and no termination event sleeps out its timeout (callers such as a
/// sample exchange read `None` as "timed out"). Every rank above 0 then
/// floods rank 0 with numbered messages; rank 0 checks non-blocking
/// drains and per-source FIFO delivery. Later stages check that a parked
/// receive wakes on arrival instead of sleeping out its timeout, that
/// the termination detector reaches quiescence world-wide, and that the
/// completion which takes it there ends every other rank's parked
/// receive at once. The collectives are exercised world-wide throughout.
///
/// # Panics
///
/// Panics on any contract violation.
pub fn check_multi_rank<T: Transport<u64>>(mut t: T) {
    const N: u64 = 500;
    let world = t.nranks();
    assert!(world >= 2, "multi-rank check needs at least two ranks");
    assert!(t.rank() < world);

    // Stage 0: no early `None` without a termination event. Nothing has
    // been sent yet and the ledger is untouched.
    let timeout = Duration::from_millis(50);
    let start = Instant::now();
    assert!(t.recv_timeout(timeout).is_none(), "no traffic was sent");
    assert!(
        start.elapsed() >= timeout,
        "recv_timeout returned None after {:?} of its {timeout:?} with no \
         termination event",
        start.elapsed()
    );

    // Stage 1: FIFO under load. Collectives must also agree world-wide.
    let expect: u64 = (1..=world as u64).sum();
    assert_eq!(t.allreduce_sum(t.rank() as u64 + 1), expect);
    assert_eq!(t.allreduce_max(t.rank() as u64), world as u64 - 1);
    assert_eq!(t.allreduce_min(t.rank() as u64 + 3), 3);
    assert_eq!(
        t.allgather_u64(t.rank() as u64 * 10),
        (0..world as u64).map(|r| r * 10).collect::<Vec<_>>()
    );
    assert_eq!(
        t.broadcast_u64(world - 1, t.rank() as u64 + 7),
        world as u64 + 6
    );
    assert_eq!(
        t.exclusive_prefix_sum(1),
        t.rank() as u64,
        "prefix sum must count the ranks below"
    );
    // One overflow rule on every backend: sums wrap.
    assert_eq!(
        t.allreduce_sum(u64::MAX),
        0u64.wrapping_sub(world as u64),
        "allreduce_sum must wrap on overflow"
    );
    assert_eq!(
        t.exclusive_prefix_sum(u64::MAX),
        0u64.wrapping_sub(t.rank() as u64),
        "exclusive_prefix_sum must wrap on overflow"
    );
    let next = (t.rank() + 1) % world;
    check_empty_recycle_is_uncounted(&mut t, next);
    if t.rank() > 0 {
        for i in 0..N {
            t.send(0, i);
        }
        // Batches keep their internal order too.
        t.send_batch(0, vec![N, N + 1, N + 2]);
    } else {
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut got = vec![Vec::new(); world];
        let mut out = Vec::new();
        let mut total = 0usize;
        while total < (world - 1) * (N + 3) as usize {
            assert!(
                Instant::now() < deadline,
                "delivery stalled after {total} messages"
            );
            let start = Instant::now();
            t.drain_recv(&mut out);
            assert!(start.elapsed() < PROMPT, "drain_recv blocked");
            if out.is_empty() {
                // Quiescent: park (the idiomatic completion loop never
                // spins on drain_recv).
                if let Some(pkt) = t.recv_timeout(Duration::from_millis(5)) {
                    out.push(pkt);
                }
            }
            for pkt in out.drain(..) {
                assert!(pkt.src > 0, "only ranks above 0 send in this stage");
                total += pkt.msgs.len();
                got[pkt.src].extend_from_slice(&pkt.msgs);
                t.recycle(pkt.src, pkt.msgs);
            }
        }
        let reference: Vec<u64> = (0..N + 3).collect();
        for (src, seq) in got.iter().enumerate().skip(1) {
            assert_eq!(seq, &reference, "per-pair FIFO violated from rank {src}");
        }
    }
    t.barrier();

    // Stage 2: wake-on-arrival. Rank 0 parks with a long timeout before
    // rank 1 sends; the park must end on arrival, not at the timeout.
    if t.rank() == 0 {
        let start = Instant::now();
        let deadline = start + Duration::from_secs(30);
        loop {
            assert!(Instant::now() < deadline, "parked receive never woke");
            if let Some(pkt) = t.recv_timeout(Duration::from_secs(30)) {
                assert_eq!(pkt.msgs, vec![41]);
                assert!(
                    start.elapsed() < Duration::from_secs(10),
                    "recv_timeout slept through an arrival"
                );
                t.recycle(pkt.src, pkt.msgs);
                break;
            }
        }
    } else if t.rank() == 1 {
        // Let rank 0 actually park first.
        std::thread::sleep(Duration::from_millis(50));
        t.send(0, 41);
    }
    t.barrier();

    // Stage 3: the termination detector reaches quiescence world-wide.
    // Rank 0 registers work, publishes it through the barrier, and every
    // rank completes its delivered share — the add → barrier → observe
    // pattern the engine driver uses.
    let term = t.termination();
    if t.rank() == 0 {
        term.add((world as u64 - 1) * 2);
    }
    t.barrier();
    assert!(
        !term.is_done() || world == 1,
        "registered work must be visible after the barrier"
    );
    if t.rank() == 0 {
        for dest in 1..world {
            t.send_batch(dest, vec![1, 2]);
        }
    } else {
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut handled = 0u64;
        while handled < 2 {
            assert!(Instant::now() < deadline, "termination traffic stalled");
            if let Some(pkt) = t.recv_timeout(Duration::from_millis(5)) {
                handled += pkt.msgs.len() as u64;
                term.complete(pkt.msgs.len() as u64);
                t.recycle(pkt.src, pkt.msgs);
            }
        }
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    while !term.is_done() {
        assert!(Instant::now() < deadline, "termination never detected");
        // Poll the receive path: distributed backends propagate their
        // completion ledger through it.
        let mut out = Vec::new();
        t.drain_recv(&mut out);
        assert!(out.is_empty(), "unexpected traffic during termination");
        std::thread::sleep(Duration::from_millis(1));
    }
    t.barrier();

    // Stage 4: quiescence wakes a parked rank. Rank 0 registers one unit
    // of work, rank 1 completes it after everyone else has parked with a
    // 30 s timeout, and every rank must see the ledger done within 2 s:
    // the completion, not a timer, ends the wait. An earlier stage's
    // event may still be pending and end the first wait at once; the
    // loop parks again until the ledger is really done.
    if t.rank() == 0 {
        term.add(1);
    }
    t.barrier();
    let start = Instant::now();
    if t.rank() == 1 {
        std::thread::sleep(Duration::from_millis(100));
        term.complete(1);
    }
    while !term.is_done() {
        if let Some(pkt) = t.recv_timeout(Duration::from_secs(30)) {
            panic!("unexpected traffic from rank {} while idle", pkt.src);
        }
    }
    let waited = start.elapsed();
    // Every rank leaves the barrier before any asserts, so a failure
    // panics its own rank instead of stranding the others in it.
    t.barrier();
    assert!(
        waited < Duration::from_secs(2),
        "rank {} slept {waited:?} past the ledger's last completion",
        t.rank()
    );
}
