//! An idle rank costs no CPU.
//!
//! A rank that has finished its share of the world and waits for the
//! others must block, not poll: the driver flushes its buffers and parks
//! on the transport until a packet arrives or the termination ledger
//! reaches done. Here rank 1 holds back its last completion for a second
//! while rank 0, its sweep finished, waits for quiescence; rank 0's
//! on-CPU time over that wait must stay near zero. A 200 µs receive poll
//! would wake it about 5 000 times in that second.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pa_core::par::{self, CountSink, Msg};
use pa_core::partition::{self, Scheme};
use pa_core::{Engine, GenOptions, PaConfig};
use pa_mpsim::{
    thread_cpu_ns, Comm, CommStats, Packet, TerminationBackend, TerminationHandle, Transport, World,
};

/// How long rank 1 sits on its last completion.
const HOLD: Duration = Duration::from_secs(1);

/// Rank 1's ledger: forwards everything, but sleeps before the
/// completion that settles the last unit of work this rank registered.
struct HoldLast {
    inner: TerminationHandle,
    added: AtomicU64,
    completed: AtomicU64,
}

impl TerminationBackend for HoldLast {
    fn add(&self, n: u64) {
        self.added.fetch_add(n, Ordering::Relaxed);
        self.inner.add(n);
    }
    fn complete(&self, n: u64) {
        let completed = self.completed.fetch_add(n, Ordering::Relaxed) + n;
        if completed == self.added.load(Ordering::Relaxed) {
            std::thread::sleep(HOLD);
        }
        self.inner.complete(n);
    }
    fn is_done(&self) -> bool {
        self.inner.is_done()
    }
    fn outstanding(&self) -> i64 {
        self.inner.outstanding()
    }
}

/// A [`Comm`] that gives rank 1 the [`HoldLast`] ledger and notes, on
/// rank 0's own thread, the wall and CPU clocks at its first parked
/// receive (the start of its wait).
struct Idle {
    inner: Comm<Msg>,
    wait_start: Option<(Instant, u64)>,
}

impl Transport<Msg> for Idle {
    fn rank(&self) -> usize {
        self.inner.rank()
    }
    fn nranks(&self) -> usize {
        self.inner.nranks()
    }
    fn send_batch(&mut self, dest: usize, msgs: Vec<Msg>) {
        self.inner.send_batch(dest, msgs);
    }
    fn acquire_buffer(&mut self, dest: usize) -> Vec<Msg> {
        self.inner.acquire_buffer(dest)
    }
    fn recycle(&mut self, src: usize, buf: Vec<Msg>) {
        self.inner.recycle(src, buf);
    }
    fn try_recv(&mut self) -> Option<Packet<Msg>> {
        self.inner.try_recv()
    }
    fn drain_recv(&mut self, out: &mut Vec<Packet<Msg>>) -> usize {
        self.inner.drain_recv(out)
    }
    fn recv_timeout(&mut self, timeout: Duration) -> Option<Packet<Msg>> {
        if self.wait_start.is_none() {
            let cpu = thread_cpu_ns().expect("schedstat readable");
            self.wait_start = Some((Instant::now(), cpu));
        }
        self.inner.recv_timeout(timeout)
    }
    fn barrier(&self) {
        self.inner.barrier();
    }
    fn allgather_u64(&self, val: u64) -> Vec<u64> {
        self.inner.allgather_u64(val)
    }
    fn termination(&self) -> TerminationHandle {
        if self.rank() != 1 {
            return self.inner.termination();
        }
        TerminationHandle::from_backend(Arc::new(HoldLast {
            inner: self.inner.termination(),
            added: AtomicU64::new(0),
            completed: AtomicU64::new(0),
        }))
    }
    fn stats(&self) -> &CommStats {
        self.inner.stats()
    }
    fn stats_mut(&mut self) -> &mut CommStats {
        self.inner.stats_mut()
    }
    fn into_stats(self) -> CommStats {
        self.inner.into_stats()
    }
}

#[test]
fn a_rank_waiting_for_quiescence_accrues_no_cpu() {
    // Engine 3 sends nothing, so rank 0's only business after its sweep
    // is waiting for rank 1's held-back completion.
    let cfg = PaConfig::new(20_000, 4).with_seed(5);
    let part = partition::build(Scheme::Rrp, cfg.n, 2);
    let opts = GenOptions::default().with_engine(Engine::Chain);
    let waits = World::new(2).run(|comm: Comm<Msg>| {
        let mut idle = Idle {
            inner: comm,
            wait_start: None,
        };
        let (sink, _) =
            par::generate_rank_streaming(&cfg, &part, &opts, &mut idle, CountSink::default());
        let wait = idle.wait_start.map(|(wall, cpu)| {
            let cpu_now = thread_cpu_ns().expect("schedstat readable");
            (wall.elapsed(), cpu_now - cpu)
        });
        (sink.edges, wait)
    });
    let edges: u64 = waits.iter().map(|(edges, _)| edges).sum();
    assert_eq!(edges, cfg.expected_edges());
    let (wall, cpu_ns) = waits[0].1.expect("rank 0 never parked");
    assert!(
        wall >= HOLD / 2,
        "rank 0 waited only {wall:?}; the test needs a long wait to measure"
    );
    assert!(
        cpu_ns < 5_000_000,
        "rank 0 spent {:.2} ms on a CPU over a {wall:?} wait for quiescence",
        cpu_ns as f64 / 1e6
    );
}
