//! Per-thread on-CPU time: the measurement behind the scaling figures.

/// Nanoseconds the calling thread has spent on a CPU (the first field of
/// `/proc/thread-self/schedstat`); `None` where that file is unreadable
/// or the kernel keeps no scheduler statistics. Time spent waiting for a
/// core is not counted. The kernel folds the running slice into the
/// counter only when the thread passes through the scheduler, so this
/// yields first: the reading is current, not up to one tick stale.
pub fn thread_cpu_ns() -> Option<u64> {
    std::thread::yield_now();
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let mut fields = text.split_whitespace().map(str::parse::<u64>);
    let run_ns = fields.next()?.ok()?;
    // A thread reading its own file has run at least one timeslice; a
    // kernel keeping no statistics prints "0 0 0".
    (fields.nth(1)?.ok()? > 0).then_some(run_ns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    const MS: u64 = 1_000_000;

    #[test]
    fn busy_loop_advances_it_by_at_most_the_wall_time() {
        // A loaded host can deschedule the loop for much of its 20 ms, so
        // the lower bound gets three attempts; the upper bound must hold
        // on every one.
        let mut best = 0;
        for _ in 0..3 {
            let start = Instant::now();
            let before = thread_cpu_ns().expect("schedstat readable");
            let mut spins = 0u64;
            while start.elapsed() < Duration::from_millis(20) {
                spins = std::hint::black_box(spins + 1);
            }
            let cpu = thread_cpu_ns().unwrap() - before;
            let wall = start.elapsed().as_nanos() as u64;
            assert!(cpu <= wall, "{cpu} ns on CPU inside {wall} ns of wall time");
            best = best.max(cpu);
        }
        assert!(best >= 10 * MS, "a 20 ms busy loop read {best} ns");
    }

    #[test]
    fn sleeping_does_not_advance_it() {
        let before = thread_cpu_ns().expect("schedstat readable");
        std::thread::sleep(Duration::from_millis(20));
        let cpu = thread_cpu_ns().unwrap() - before;
        assert!(cpu < 5 * MS, "a 20 ms sleep read {cpu} ns");
    }
}
