//! Internal MPSC channel backing the data plane and the packet pool.
//!
//! A thin `Mutex<VecDeque>` + `Condvar` queue. Three properties matter to the
//! runtime and differ from `std::sync::mpsc`:
//!
//! * **Send never fails.** The queue lives as long as any endpoint handle,
//!   so late traffic (e.g. pool returns racing a rank's exit) is simply
//!   parked instead of erroring — mirroring MPI, where a send to a rank
//!   that has already hit `MPI_Finalize` is buffered by the library
//!   rather than reported at the sender.
//! * **Batched drain.** [`Receiver::drain_into`] moves every queued item
//!   out under a single lock acquisition, which is what makes
//!   `Comm`'s `drain_recv` cheaper than a `try_recv` loop.
//! * **Wakeable.** [`Wake::wake`] ends the receiver's current (or next)
//!   [`Receiver::recv_timeout`] early, once, with no item. The control
//!   plane calls it when the termination counter reaches zero, so a rank
//!   parked on an empty inbox learns of quiescence without polling.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

struct Queue<T> {
    items: VecDeque<T>,
    /// A pending [`Wake::wake`], consumed by the next `recv_timeout`
    /// that finds no item.
    woken: bool,
}

struct Shared<T> {
    queue: Mutex<Queue<T>>,
    ready: Condvar,
}

impl<T> Shared<T> {
    fn lock(&self) -> MutexGuard<'_, Queue<T>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Something a parked receiver can be woken through, independent of its
/// item type.
pub(crate) trait Wake: Send + Sync {
    /// End the receiver's current or next empty-handed wait, once.
    fn wake(&self);
}

impl<T: Send> Wake for Shared<T> {
    fn wake(&self) {
        self.lock().woken = true;
        self.ready.notify_one();
    }
}

/// Create a connected sender/receiver pair.
pub(crate) fn channel<T>() -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        queue: Mutex::new(Queue {
            items: VecDeque::new(),
            woken: false,
        }),
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
        self.shared.lock().items.push_back(item);
        self.shared.ready.notify_one();
    }
}

impl<T: Send + 'static> Sender<T> {
    /// A handle that wakes this channel's receiver (see [`Wake`]).
    pub fn waker(&self) -> Arc<dyn Wake> {
        Arc::clone(&self.shared) as Arc<dyn Wake>
    }
}

/// Consuming endpoint (single consumer by convention, not enforced).
pub(crate) struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Receiver<T> {
    /// Pop the next item without blocking.
    pub fn try_recv(&self) -> Option<T> {
        self.shared.lock().items.pop_front()
    }

    /// Pop the next item, blocking up to `timeout` (a timeout too large
    /// for an `Instant` waits without a deadline). `None` when the
    /// timeout elapses, or earlier, once, after a [`Wake::wake`].
    pub fn recv_timeout(&self, timeout: Duration) -> Option<T> {
        let deadline = Instant::now().checked_add(timeout);
        let mut q = self.shared.lock();
        loop {
            if let Some(item) = q.items.pop_front() {
                return Some(item);
            }
            if std::mem::take(&mut q.woken) {
                return None;
            }
            q = match deadline {
                None => self
                    .shared
                    .ready
                    .wait(q)
                    .unwrap_or_else(PoisonError::into_inner),
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return None;
                    }
                    self.shared
                        .ready
                        .wait_timeout(q, deadline - now)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
            };
        }
    }

    /// Move every queued item into `out` under one lock; returns the count.
    pub fn drain_into(&self, out: &mut Vec<T>) -> usize {
        let mut q = self.shared.lock();
        let n = q.items.len();
        out.extend(q.items.drain(..));
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
    fn wake_ends_one_empty_wait_early() {
        let (tx, rx) = channel::<u8>();
        let waker = tx.waker();
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(5));
                waker.wake();
            });
            let start = Instant::now();
            assert_eq!(rx.recv_timeout(Duration::from_secs(30)), None);
            assert!(start.elapsed() < Duration::from_secs(10), "wake was missed");
        });
        // Consumed: the next wait runs to its timeout.
        let start = Instant::now();
        assert_eq!(rx.recv_timeout(Duration::from_millis(20)), None);
        assert!(start.elapsed() >= Duration::from_millis(20));
        // A queued item wins over a pending wake, which then stays pending.
        waker.wake();
        tx.send(7);
        assert_eq!(rx.recv_timeout(Duration::from_secs(30)), Some(7));
        assert_eq!(rx.recv_timeout(Duration::MAX), None);
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
