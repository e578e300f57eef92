//! The shared control plane: collectives and termination detection.
//!
//! MPI provides global operations (`MPI_Barrier`, `MPI_Allreduce`,
//! `MPI_Allgather`) whose *semantics* are "a value computed from every
//! rank's contribution, visible to every rank". We implement them over a
//! shared, generation-counted rendezvous rather than over the data-plane
//! channels; this keeps algorithm state strictly rank-private while giving
//! the same observable behaviour as the MPI calls (see DESIGN.md §2).

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use crate::channel::Wake;

struct Rendezvous {
    /// Per-rank contribution slots for the current round.
    slots: Vec<u64>,
    /// Number of ranks that have deposited a value this round.
    arrived: usize,
    /// Number of ranks that have picked up the snapshot this round.
    departed: usize,
    /// Every rank's contribution for the round, valid once
    /// `arrived == nranks`.
    snapshot: Vec<u64>,
    /// Round parity: ranks may not start round r+1 until all left round r.
    round: u64,
}

/// Shared rendezvous state used to implement barrier and allgather.
pub(crate) struct ControlPlane {
    nranks: usize,
    inner: Mutex<Rendezvous>,
    cv: Condvar,
    outstanding: AtomicI64,
    /// Every rank's inbox, woken when `outstanding` reaches zero so a
    /// rank parked in `recv_timeout` observes quiescence at once.
    inboxes: Vec<Arc<dyn Wake>>,
}

impl ControlPlane {
    /// A plane for `nranks` ranks; `inboxes` are woken by the completion
    /// that takes the termination counter to zero (empty where no rank
    /// ever parks, as on the loopback transport).
    pub(crate) fn new(nranks: usize, inboxes: Vec<Arc<dyn Wake>>) -> Arc<Self> {
        Arc::new(Self {
            nranks,
            inner: Mutex::new(Rendezvous {
                slots: vec![0; nranks],
                arrived: 0,
                departed: 0,
                snapshot: vec![0; nranks],
                round: 0,
            }),
            cv: Condvar::new(),
            outstanding: AtomicI64::new(0),
            inboxes,
        })
    }

    /// One collective round: deposit `val`, wait for everyone, read the
    /// per-rank snapshot, and wait until everyone has read it before the
    /// next round can start.
    pub(crate) fn collective(&self, rank: usize, val: u64) -> Vec<u64> {
        let mut g = lock(&self.inner);
        // A rank may only enter while the round is in its gathering phase;
        // if the previous round is still draining (some ranks have not yet
        // read the snapshot), wait for it to complete.
        while g.departed != 0 {
            g = wait(&self.cv, g);
        }
        let my_round = g.round;
        g.slots[rank] = val;
        g.arrived += 1;
        if g.arrived == self.nranks {
            let rv = &mut *g;
            rv.snapshot.clone_from(&rv.slots);
            self.cv.notify_all();
        } else {
            while g.arrived != self.nranks && g.round == my_round {
                g = wait(&self.cv, g);
            }
        }
        let out = g.snapshot.clone();
        g.departed += 1;
        if g.departed == self.nranks {
            g.arrived = 0;
            g.departed = 0;
            g.round = g.round.wrapping_add(1);
            self.cv.notify_all();
        }
        out
    }

    pub(crate) fn termination(self: &Arc<Self>) -> TerminationHandle {
        TerminationHandle::from_backend(Arc::clone(self) as Arc<dyn TerminationBackend>)
    }
}

impl TerminationBackend for ControlPlane {
    fn add(&self, n: u64) {
        self.outstanding.fetch_add(n as i64, Ordering::AcqRel);
    }

    fn complete(&self, n: u64) {
        let prev = self.outstanding.fetch_sub(n as i64, Ordering::AcqRel);
        debug_assert!(prev >= n as i64, "termination counter went negative");
        if n > 0 && prev == n as i64 {
            for inbox in &self.inboxes {
                inbox.wake();
            }
        }
    }

    fn is_done(&self) -> bool {
        self.outstanding.load(Ordering::Acquire) == 0
    }

    fn outstanding(&self) -> i64 {
        self.outstanding.load(Ordering::Acquire)
    }
}

/// Lock, shrugging off poisoning: a panicking rank already fails the run
/// via its joined thread, so cascading poison panics only obscure it.
fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn wait<'a, T>(cv: &Condvar, g: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(g).unwrap_or_else(PoisonError::into_inner)
}

/// The state a [`TerminationHandle`] delegates to.
///
/// The shared-memory runtime backs the handle with a single atomic
/// counter (the private `ControlPlane`); a distributed transport (e.g. the TCP
/// backend in `pa-net`) backs it with a per-rank ledger kept current by
/// control traffic. The *observable* semantics every backend must honour:
///
/// * `add`/`complete` adjust the global outstanding-work count;
/// * `is_done` eventually returns `true` on every rank once adds and
///   completes balance world-wide, and never returns `true` while
///   registered work remains;
/// * adds are only guaranteed *globally* visible after the next
///   transport barrier (the registration pattern is always
///   `add → barrier → observe`; see the `Transport` contract). The
///   shared-memory backend happens to publish immediately, but callers
///   must not rely on that;
/// * the event that makes `is_done` true on a rank — on the shared-memory
///   backend the `complete` that takes the counter to zero, on the TCP
///   ledger the arrival of the count that balances it — ends that rank's
///   parked [`crate::Transport::recv_timeout`] early, once (the
///   "early `None`" of the receive contract). A rank with nothing left to
///   do can therefore block without a timer and still stop at once.
pub trait TerminationBackend: Send + Sync {
    /// Register `n` units of outstanding work.
    fn add(&self, n: u64);
    /// Mark `n` units of work resolved.
    fn complete(&self, n: u64);
    /// True when no outstanding work remains anywhere in the world.
    fn is_done(&self) -> bool;
    /// Current outstanding-work count (diagnostic; may lag on
    /// distributed backends).
    fn outstanding(&self) -> i64;
}

/// A global outstanding-work counter shared by all ranks.
///
/// In the paper's algorithm, a `request` in flight always corresponds to an
/// unresolved `F_t(e)` slot at the requesting rank, so "no unresolved slots
/// anywhere" implies no meaningful traffic remains and every rank may stop
/// its receive loop. A production MPI code detects that condition with a
/// nonblocking-allreduce loop; this handle exposes the identical predicate
/// directly. Ranks *add* work when they create unresolved slots and
/// *complete* it when a slot is finally resolved.
///
/// The handle is a thin clonable front over a [`TerminationBackend`]:
/// an atomic counter for the in-process runtimes, a distributed ledger
/// for socket transports.
#[derive(Clone)]
pub struct TerminationHandle {
    backend: Arc<dyn TerminationBackend>,
}

impl TerminationHandle {
    /// Wrap a backend. Transport implementations outside this crate use
    /// this to plug their own (e.g. distributed) detector into the
    /// engine-facing handle.
    pub fn from_backend(backend: Arc<dyn TerminationBackend>) -> Self {
        Self { backend }
    }

    /// Register `n` units of outstanding work.
    #[inline]
    pub fn add(&self, n: u64) {
        self.backend.add(n);
    }

    /// Mark `n` units of work resolved.
    #[inline]
    pub fn complete(&self, n: u64) {
        self.backend.complete(n);
    }

    /// True when no outstanding work remains anywhere in the world.
    #[inline]
    pub fn is_done(&self) -> bool {
        self.backend.is_done()
    }

    /// Current outstanding-work count (diagnostic).
    #[inline]
    pub fn outstanding(&self) -> i64 {
        self.backend.outstanding()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn collective_sum_across_threads() {
        let plane = ControlPlane::new(4, Vec::new());
        thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|r| {
                    let plane = Arc::clone(&plane);
                    s.spawn(move || plane.collective(r, (r as u64 + 1) * 10))
                })
                .collect();
            for h in handles {
                assert_eq!(h.join().unwrap(), vec![10, 20, 30, 40]);
            }
        });
    }

    #[test]
    fn collective_rounds_do_not_interleave() {
        // Run many back-to-back rounds; every rank must observe the same
        // per-round result even with heavy contention.
        let plane = ControlPlane::new(3, Vec::new());
        thread::scope(|s| {
            let handles: Vec<_> = (0..3)
                .map(|r| {
                    let plane = Arc::clone(&plane);
                    s.spawn(move || {
                        let mut results = Vec::new();
                        for round in 0..200u64 {
                            let snap = plane.collective(r, round + r as u64);
                            results.push(snap.iter().sum::<u64>());
                        }
                        results
                    })
                })
                .collect();
            let all: Vec<Vec<u64>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            for round in 0..200usize {
                let expect = (round as u64) * 3 + 3; // sum of (round + r) for r in 0..3
                for res in &all {
                    assert_eq!(res[round], expect, "round {round}");
                }
            }
        });
    }

    #[test]
    fn termination_counter_tracks_work() {
        let plane = ControlPlane::new(1, Vec::new());
        let t = plane.termination();
        assert!(t.is_done());
        t.add(3);
        assert!(!t.is_done());
        assert_eq!(t.outstanding(), 3);
        t.complete(2);
        assert!(!t.is_done());
        t.complete(1);
        assert!(t.is_done());
    }

    #[test]
    fn termination_shared_across_clones() {
        let plane = ControlPlane::new(2, Vec::new());
        let a = plane.termination();
        let b = plane.termination();
        a.add(1);
        assert!(!b.is_done());
        b.complete(1);
        assert!(a.is_done());
    }
}
