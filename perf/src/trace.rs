//! The traced pass: spans recorded from the benchmark's own files,
//! around the calls into each layer (in-program spans are a later
//! issue).
//!
//! [`TracedTransport`] decorates any `Transport<Msg>` (the mpsim `Comm`
//! or a loopback `TcpTransport`), [`TracedSink`] any `EdgeSink`, and
//! [`TracedWriter`] the `Write` under a `StreamingWriterSink`. Coarse
//! calls — a collective, a receive, a flush, a chunk write — get one
//! span each. Per-packet and per-edge calls fold into one *aggregate*
//! span per rank and layer carrying an exact call count and a busy
//! time: measured on every call where calls are per packet (`send_*`,
//! `recycle`, empty polls), scaled from sampled calls where they are per
//! edge (`emit`, about 1 in 64, at pseudo-random gaps so the sample
//! cannot lock onto the writer's 65 536-edge chunk boundary).
//!
//! A span's *self time* is its duration minus the part of that interval
//! its child spans cover, minus the busy time of its aggregate children
//! (which are sums, not intervals).

use crate::json::Json;
use pa_core::par::EdgeSink;
use pa_mpsim::{CommStats, Packet, TerminationHandle, Transport};
use std::cell::{Cell, RefCell};
use std::io::{self, Write};
use std::time::{Duration, Instant};

/// One recorded interval (or, with `aggregate`, one folded sum).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    /// Id of the span that caused this one; 0 for a root.
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Which repetition of the traced world the span belongs to.
    pub run: u32,
    pub rank: u32,
    /// Calls folded into this span (1 for a plain span).
    pub calls: u64,
    /// Time inside the calls. For a plain span `end_ns − start_ns`; for
    /// an aggregate the summed (or sample-scaled) call time, while
    /// `start_ns..end_ns` only brackets the first and last call.
    pub busy_ns: u64,
    pub aggregate: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("id", Json::Num(self.id as f64)),
            ("parent", Json::Num(self.parent as f64)),
            ("name", Json::str(self.name)),
            ("start_ns", Json::Num(self.start_ns as f64)),
            ("end_ns", Json::Num(self.end_ns as f64)),
            ("run", Json::Num(f64::from(self.run))),
            ("rank", Json::Num(f64::from(self.rank))),
            ("calls", Json::Num(self.calls as f64)),
            ("busy_ns", Json::Num(self.busy_ns as f64)),
            ("aggregate", Json::Bool(self.aggregate)),
        ])
    }
}

/// Self time of `parent` given its direct children: duration minus the
/// union of the plain children's intervals (clipped to the parent, so
/// overlapping and nested children count once) minus the aggregate
/// children's busy time. Saturates at zero.
pub fn self_time_ns(parent: &Span, children: &[&Span]) -> u64 {
    let mut intervals: Vec<(u64, u64)> = children
        .iter()
        .filter(|c| !c.aggregate)
        .map(|c| {
            (
                c.start_ns.clamp(parent.start_ns, parent.end_ns),
                c.end_ns.clamp(parent.start_ns, parent.end_ns),
            )
        })
        .filter(|(s, e)| e > s)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut reach = parent.start_ns;
    for (s, e) in intervals {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    let folded: u64 = children
        .iter()
        .filter(|c| c.aggregate)
        .map(|c| c.busy_ns)
        .sum();
    parent.duration_ns().saturating_sub(covered + folded)
}

/// Per-rank span recorder. Each rank thread owns one and lends it to
/// that rank's decorators; recording goes through `&self` (the
/// transport's collectives take `&self`), so the state sits in cells.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    run: u32,
    rank: u32,
    next_id: Cell<u64>,
    parent: Cell<u64>,
    spans: RefCell<Vec<Span>>,
    /// Time spent inside [`TracedWriter`] writes so far: lets a sampled
    /// `emit` that happened to trigger a chunk write subtract it, since
    /// the write is recorded exactly as its own span.
    write_ns: Cell<u64>,
}

impl Recorder {
    /// Recorder for `rank` of repetition `run`; `epoch` is the instant
    /// all ranks measure from. Ids carry run and rank in their high
    /// bits, so spans of different recorders never share one (and all
    /// stay exact as JSON numbers).
    pub fn new(epoch: Instant, run: u32, rank: u32) -> Self {
        Recorder {
            epoch,
            run,
            rank,
            next_id: Cell::new((u64::from(run) << 36) | (u64::from(rank) << 32)),
            parent: Cell::new(0),
            spans: RefCell::new(Vec::new()),
            write_ns: Cell::new(0),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Make `id` the parent of every span recorded from here on.
    pub fn set_parent(&self, id: u64) {
        self.parent.set(id);
    }

    /// Reserve an id for a span that will be recorded when it ends, so
    /// its children can name it first.
    pub fn reserve_id(&self) -> u64 {
        self.next_id.set(self.next_id.get() + 1);
        self.next_id.get()
    }

    fn push(&self, span: Span) {
        self.spans.borrow_mut().push(span);
    }

    /// Record a finished plain span under a reserved `id`.
    pub fn record_as(&self, id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) {
        self.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            run: self.run,
            rank: self.rank,
            calls: 1,
            busy_ns: end_ns - start_ns,
            aggregate: false,
        });
    }

    /// Record a finished plain span under the current parent.
    pub fn record(&self, name: &'static str, start_ns: u64, end_ns: u64) {
        self.record_as(self.reserve_id(), self.parent.get(), name, start_ns, end_ns);
    }

    /// Time `f` as one plain span under the current parent.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = self.now_ns();
        let out = f();
        self.record(name, start, self.now_ns());
        out
    }

    /// Record a folded aggregate (skipped when nothing was folded).
    pub fn record_aggregate(&self, name: &'static str, agg: &Aggregate) {
        if agg.calls == 0 {
            return;
        }
        self.push(Span {
            id: self.reserve_id(),
            parent: self.parent.get(),
            name,
            start_ns: agg.first_ns,
            end_ns: agg.last_ns.max(agg.first_ns),
            run: self.run,
            rank: self.rank,
            calls: agg.calls,
            busy_ns: agg.busy_ns(),
            aggregate: true,
        });
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

/// Calls folded into one span: exact count; busy time either exact
/// (every call timed) or scaled up from the sampled calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct Aggregate {
    pub calls: u64,
    sampled_calls: u64,
    sampled_ns: u64,
    first_ns: u64,
    last_ns: u64,
}

impl Aggregate {
    /// Count one call whose time was not taken.
    #[inline]
    fn add_untimed(&mut self) {
        self.calls += 1;
    }

    /// Count one call that took `ns`, finishing at `end_ns`.
    fn add_timed(&mut self, ns: u64, end_ns: u64) {
        if self.sampled_calls == 0 {
            self.first_ns = end_ns - ns;
        }
        self.calls += 1;
        self.sampled_calls += 1;
        self.sampled_ns += ns;
        self.last_ns = end_ns;
    }

    /// Busy time: the sampled time scaled by calls ÷ sampled calls
    /// (a factor of exactly 1 when every call was timed).
    pub fn busy_ns(&self) -> u64 {
        if self.sampled_calls == 0 {
            return 0;
        }
        (self.sampled_ns as f64 * self.calls as f64 / self.sampled_calls as f64) as u64
    }
}

/// Decorator recording every call the engine makes into its transport.
///
/// Span names: `comm.collective` (barrier and the reductions),
/// `comm.recv` (a `drain_recv`/`try_recv` that delivered packets),
/// `comm.recv_wait` (a parked `recv_timeout`), and the aggregates
/// `comm.send` (`send`, `send_batch`, `acquire_buffer`, `recycle` — per
/// packet, so every call is timed) and `comm.poll` (receives that found
/// nothing).
pub struct TracedTransport<'r, T> {
    inner: T,
    rec: &'r Recorder,
    send: Aggregate,
    poll: Aggregate,
}

impl<'r, T> TracedTransport<'r, T> {
    pub fn new(inner: T, rec: &'r Recorder) -> Self {
        TracedTransport {
            inner,
            rec,
            send: Aggregate::default(),
            poll: Aggregate::default(),
        }
    }

    /// Fold the aggregates into the recorder and hand the transport back.
    pub fn finish(self) -> T {
        self.rec.record_aggregate("comm.send", &self.send);
        self.rec.record_aggregate("comm.poll", &self.poll);
        self.inner
    }

    fn sending<R>(&mut self, f: impl FnOnce(&mut T) -> R) -> R {
        let start = self.rec.now_ns();
        let out = f(&mut self.inner);
        let end = self.rec.now_ns();
        self.send.add_timed(end - start, end);
        out
    }

    /// Time a receive; `delivered` says whether it is a span of its own
    /// (`name`) or one more empty poll.
    fn receiving<R>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut T) -> R,
        delivered: impl FnOnce(&R) -> bool,
    ) -> R {
        let start = self.rec.now_ns();
        let out = f(&mut self.inner);
        let end = self.rec.now_ns();
        if delivered(&out) {
            self.rec.record(name, start, end);
        } else {
            self.poll.add_timed(end - start, end);
        }
        out
    }
}

impl<M, T: Transport<M>> Transport<M> for TracedTransport<'_, T> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn nranks(&self) -> usize {
        self.inner.nranks()
    }

    fn send(&mut self, dest: usize, msg: M) {
        self.sending(|t| t.send(dest, msg));
    }

    fn send_batch(&mut self, dest: usize, msgs: Vec<M>) {
        self.sending(|t| t.send_batch(dest, msgs));
    }

    fn acquire_buffer(&mut self, dest: usize) -> Vec<M> {
        self.sending(|t| t.acquire_buffer(dest))
    }

    fn recycle(&mut self, src: usize, buf: Vec<M>) {
        self.sending(|t| t.recycle(src, buf));
    }

    fn try_recv(&mut self) -> Option<Packet<M>> {
        self.receiving("comm.recv", |t| t.try_recv(), Option::is_some)
    }

    fn drain_recv(&mut self, out: &mut Vec<Packet<M>>) -> usize {
        self.receiving("comm.recv", |t| t.drain_recv(out), |&got| got > 0)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Option<Packet<M>> {
        // Parked time is waiting whether or not a packet ended it.
        self.receiving("comm.recv_wait", |t| t.recv_timeout(timeout), |_| true)
    }

    fn barrier(&self) {
        self.rec.span("comm.collective", || self.inner.barrier());
    }

    fn allreduce_sum(&self, val: u64) -> u64 {
        self.rec
            .span("comm.collective", || self.inner.allreduce_sum(val))
    }

    fn allreduce_max(&self, val: u64) -> u64 {
        self.rec
            .span("comm.collective", || self.inner.allreduce_max(val))
    }

    fn allreduce_min(&self, val: u64) -> u64 {
        self.rec
            .span("comm.collective", || self.inner.allreduce_min(val))
    }

    fn allgather_u64(&self, val: u64) -> Vec<u64> {
        self.rec
            .span("comm.collective", || self.inner.allgather_u64(val))
    }

    fn broadcast_u64(&self, root: usize, val: u64) -> u64 {
        self.rec
            .span("comm.collective", || self.inner.broadcast_u64(root, val))
    }

    fn exclusive_prefix_sum(&self, val: u64) -> u64 {
        self.rec
            .span("comm.collective", || self.inner.exclusive_prefix_sum(val))
    }

    fn termination(&self) -> TerminationHandle {
        self.inner.termination()
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

/// Mean gap between sampled `emit` calls.
const EMIT_SAMPLE_GAP: u64 = 64;

/// Decorator recording every call the engine makes into its sink: the
/// aggregate `sink.emit` (per edge: exact count, busy time scaled from
/// sampled calls) and one `sink.flush` span per `checkpoint_mark`.
pub struct TracedSink<'r, S> {
    inner: S,
    rec: &'r Recorder,
    emit: Aggregate,
    /// Calls left until the next sampled one.
    countdown: u64,
    /// xorshift state drawing the gaps.
    gap_rng: u64,
}

impl<'r, S> TracedSink<'r, S> {
    pub fn new(inner: S, rec: &'r Recorder) -> Self {
        TracedSink {
            inner,
            rec,
            emit: Aggregate::default(),
            countdown: EMIT_SAMPLE_GAP,
            gap_rng: 0x9e37_79b9_7f4a_7c15 ^ u64::from(rec.rank),
        }
    }

    /// Fold the aggregate into the recorder and hand the sink back.
    pub fn finish(self) -> S {
        self.rec.record_aggregate("sink.emit", &self.emit);
        self.inner
    }

    /// Next gap, uniform on `[GAP/2, 3·GAP/2)`: mean `GAP`, and no fixed
    /// stride that a power-of-two chunk size could resonate with.
    fn next_gap(&mut self) -> u64 {
        self.gap_rng ^= self.gap_rng << 13;
        self.gap_rng ^= self.gap_rng >> 7;
        self.gap_rng ^= self.gap_rng << 17;
        EMIT_SAMPLE_GAP / 2 + self.gap_rng % EMIT_SAMPLE_GAP
    }
}

impl<S: EdgeSink> EdgeSink for TracedSink<'_, S> {
    #[inline]
    fn emit(&mut self, u: u64, v: u64) {
        self.countdown -= 1;
        if self.countdown > 0 {
            self.emit.add_untimed();
            self.inner.emit(u, v);
            return;
        }
        self.countdown = self.next_gap();
        let written_before = self.rec.write_ns.get();
        let start = self.rec.now_ns();
        self.inner.emit(u, v);
        let end = self.rec.now_ns();
        // A chunk write inside this call is already a span of its own.
        let written = self.rec.write_ns.get() - written_before;
        self.emit
            .add_timed((end - start).saturating_sub(written), end);
    }

    fn checkpoint_mark(&mut self) -> io::Result<(u64, u64)> {
        self.rec.span("sink.flush", || self.inner.checkpoint_mark())
    }
}

/// Decorator for the `Write` under a `StreamingWriterSink`: one
/// `io.write` span per chunk written, one `io.flush` span per flush.
pub struct TracedWriter<'r, W> {
    inner: W,
    rec: &'r Recorder,
}

impl<'r, W> TracedWriter<'r, W> {
    pub fn new(inner: W, rec: &'r Recorder) -> Self {
        TracedWriter { inner, rec }
    }
}

impl<W: Write> Write for TracedWriter<'_, W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let start = self.rec.now_ns();
        let out = self.inner.write(buf);
        let end = self.rec.now_ns();
        self.rec.record("io.write", start, end);
        self.rec
            .write_ns
            .set(self.rec.write_ns.get() + (end - start));
        out
    }

    fn flush(&mut self) -> io::Result<()> {
        self.rec.span("io.flush", || self.inner.flush())
    }
}

/// Write `spans` as `{"spans": [...]}`.
///
/// # Errors
///
/// The I/O error of creating or writing the file.
pub fn write_trace(path: &std::path::Path, spans: &[Span]) -> io::Result<()> {
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    out.write_all(b"{\"spans\": [\n")?;
    for (i, span) in spans.iter().enumerate() {
        let sep = if i + 1 < spans.len() { ",\n" } else { "\n" };
        out.write_all(span.to_json().encode().as_bytes())?;
        out.write_all(sep.as_bytes())?;
    }
    out.write_all(b"]}\n")?;
    out.flush()
}
