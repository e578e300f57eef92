//! Internal MPSC channel backing the data plane and the packet pool.
//!
//! A thin `Mutex<VecDeque>` + `Condvar` queue. Two properties matter to the
//! runtime and differ from `std::sync::mpsc`:
//!
//! * **Send never fails.** The queue lives as long as any endpoint handle,
//!   so late traffic (e.g. pool returns or hub broadcasts racing a rank's
//!   exit) is simply parked instead of erroring — mirroring MPI, where a
//!   send to a rank that has already hit `MPI_Finalize` is buffered by the
//!   library rather than reported at the sender.
//! * **Batched drain.** [`Receiver::drain_into`] moves every queued item
//!   out under a single lock acquisition, which is what makes
//!   `Comm`'s `drain_recv` cheaper than a `try_recv` loop.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

struct Shared<T> {
    queue: Mutex<VecDeque<T>>,
    ready: Condvar,
}

/// Create a connected sender/receiver pair.
pub(crate) fn channel<T>() -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        queue: Mutex::new(VecDeque::new()),
        ready: Condvar::new(),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

/// Producing endpoint; clonable so every rank can hold one per peer.
pub(crate) struct Sender<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        Self {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Sender<T> {
    /// Enqueue `item`. Infallible by design (see module docs).
    pub fn send(&self, item: T) {
        let mut q = self
            .shared
            .queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        q.push_back(item);
        drop(q);
        self.shared.ready.notify_one();
    }
}

/// Consuming endpoint (single consumer by convention, not enforced).
pub(crate) struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Receiver<T> {
    /// Pop the next item without blocking.
    pub fn try_recv(&self) -> Option<T> {
        self.shared
            .queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop_front()
    }

    /// Pop the next item, blocking up to `timeout`; `None` on timeout.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<T> {
        let deadline = Instant::now() + timeout;
        let mut q = self
            .shared
            .queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(item) = q.pop_front() {
                return Some(item);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _timed_out) = self
                .shared
                .ready
                .wait_timeout(q, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            q = guard;
        }
    }

    /// Move every queued item into `out` under one lock; returns the count.
    pub fn drain_into(&self, out: &mut Vec<T>) -> usize {
        let mut q = self
            .shared
            .queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let n = q.len();
        out.extend(q.drain(..));
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_preserved() {
        let (tx, rx) = channel();
        for i in 0..100 {
            tx.send(i);
        }
        for i in 0..100 {
            assert_eq!(rx.try_recv(), Some(i));
        }
        assert_eq!(rx.try_recv(), None);
    }

    #[test]
    fn send_succeeds_after_receiver_dropped() {
        let (tx, rx) = channel();
        drop(rx);
        tx.send(7u64); // must not panic
    }

    #[test]
    fn recv_timeout_times_out_when_empty() {
        let (_tx, rx) = channel::<u8>();
        let start = Instant::now();
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)), None);
        assert!(start.elapsed() >= Duration::from_millis(10));
    }

    #[test]
    fn recv_timeout_wakes_on_send() {
        let (tx, rx) = channel();
        std::thread::scope(|s| {
            s.spawn(move || {
                std::thread::sleep(Duration::from_millis(5));
                tx.send(42u64);
            });
            assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Some(42));
        });
    }

    #[test]
    fn drain_into_takes_everything_at_once() {
        let (tx, rx) = channel();
        for i in 0..10u32 {
            tx.send(i);
        }
        let mut out = Vec::new();
        assert_eq!(rx.drain_into(&mut out), 10);
        assert_eq!(out, (0..10).collect::<Vec<_>>());
        assert_eq!(rx.drain_into(&mut out), 0);
    }

    #[test]
    fn cloned_senders_share_queue() {
        let (tx, rx) = channel();
        let tx2 = tx.clone();
        tx.send(1u8);
        tx2.send(2u8);
        let mut out = Vec::new();
        rx.drain_into(&mut out);
        assert_eq!(out, vec![1, 2]);
    }
}
