//! Integration and property tests for the message-passing runtime:
//! randomized traffic patterns, collective stress and buffering.

use pa_mpsim::{BufferedComm, Comm, World};
use pa_rng::{Rng64, Xoshiro256pp};
use proptest::prelude::*;
use std::time::Duration;

#[test]
fn randomized_all_to_all_traffic_is_lossless() {
    // Every rank sends a random number of sequenced messages to every
    // other rank through a buffered communicator; all must arrive, in
    // per-pair order.
    let nranks = 6;
    let world = World::new(nranks);
    let ok = world.run(|mut comm: Comm<(usize, u64)>| {
        let me = comm.rank();
        let mut rng = Xoshiro256pp::seed_from(99, me as u64);
        let mut buf = BufferedComm::new(nranks, 7);
        let mut sent = vec![0u64; nranks];
        for _ in 0..2_000 {
            let dest = rng.gen_below(nranks as u64) as usize;
            if dest == me {
                continue;
            }
            buf.push(&mut comm, dest, (me, sent[dest]));
            sent[dest] += 1;
        }
        buf.flush_all(&mut comm);
        // Publish how much each destination should expect from us.
        let mut expected_from = vec![0u64; nranks];
        for (peer, &sent_to_peer) in sent.iter().enumerate() {
            // allgather per peer: how many messages peer receives from each rank
            let counts = comm.allgather_u64(sent_to_peer);
            if peer == me {
                expected_from = counts;
            }
        }
        let total_expected: u64 = expected_from.iter().sum();
        let mut got = vec![0u64; nranks];
        let mut received = 0u64;
        while received < total_expected {
            let pkt = comm
                .recv_timeout(Duration::from_secs(10))
                .expect("lost traffic");
            for (src, seq) in pkt.msgs {
                assert_eq!(src, pkt.src, "source label mismatch");
                assert_eq!(seq, got[src], "per-pair FIFO violated");
                got[src] += 1;
                received += 1;
            }
        }
        comm.barrier();
        got == expected_from
    });
    assert!(ok.iter().all(|&b| b));
}

#[test]
fn collectives_stress_interleaved_with_traffic() {
    let world = World::new(5);
    let sums = world.run(|mut comm: Comm<u64>| {
        let mut acc = 0u64;
        for round in 0..50u64 {
            // Point-to-point: ring shift.
            let right = (comm.rank() + 1) % comm.nranks();
            comm.send(right, round);
            let pkt = comm.recv_timeout(Duration::from_secs(10)).unwrap();
            acc += pkt.msgs[0];
            // Collective between rounds.
            let s = comm.allreduce_sum(round);
            assert_eq!(s, round * 5);
        }
        acc
    });
    let expect: u64 = (0..50).sum();
    assert!(sums.iter().all(|&s| s == expect));
}

#[test]
fn termination_with_work_stealing_pattern() {
    // Work items bounce between ranks until "resolved"; the termination
    // counter must catch the global fixpoint exactly.
    let nranks = 4;
    let world = World::new(nranks);
    let handled = world.run(|mut comm: Comm<u32>| {
        let term = comm.termination();
        let me = comm.rank();
        let mut rng = Xoshiro256pp::seed_from(7, me as u64);
        // Each rank seeds 100 items with random remaining-hop counts.
        term.add(100);
        comm.barrier();
        let mut outbox: Vec<(usize, u32)> = (0..100)
            .map(|_| {
                (
                    rng.gen_below(nranks as u64) as usize,
                    rng.gen_below(8) as u32,
                )
            })
            .collect();
        let mut handled = 0u64;
        loop {
            for (dest, hops) in outbox.drain(..) {
                if hops == 0 {
                    term.complete(1);
                    handled += 1;
                } else {
                    comm.send(dest, hops);
                }
            }
            if term.is_done() {
                break;
            }
            if let Some(pkt) = comm.recv_timeout(Duration::from_micros(200)) {
                for hops in pkt.msgs {
                    let dest = rng.gen_below(nranks as u64) as usize;
                    outbox.push((dest, hops - 1));
                }
            }
        }
        handled
    });
    assert_eq!(handled.iter().sum::<u64>(), 400);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Buffered transfers deliver exactly the pushed messages for any
    /// capacity.
    #[test]
    fn buffering_is_lossless(capacity in 1usize..64, count in 0usize..200) {
        let world = World::new(2);
        let ok = world.run(move |mut comm: Comm<usize>| {
            if comm.rank() == 0 {
                let mut buf = BufferedComm::new(2, capacity);
                for i in 0..count {
                    buf.push(&mut comm, 1, i);
                }
                buf.flush_all(&mut comm);
                comm.barrier();
                true
            } else {
                let mut got = Vec::new();
                while got.len() < count {
                    let pkt = comm.recv_timeout(Duration::from_secs(5)).unwrap();
                    got.extend(pkt.msgs);
                }
                comm.barrier();
                got == (0..count).collect::<Vec<_>>()
            }
        });
        prop_assert!(ok.iter().all(|&b| b));
    }
}
