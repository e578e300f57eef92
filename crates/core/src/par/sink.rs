//! Edge sinks: where the engines deliver generated edges.
//!
//! The paper notes (§3.2) that "some network analysts may prefer to
//! generate networks on the fly and analyze [them] without performing
//! disk I/O". The engines are therefore generic over an [`EdgeSink`]:
//! materialize an [`EdgeList`], stream to a file through an
//! [`EdgeWriter`], stream into a closure, or fold into an online
//! statistic without ever storing the edges.

use crate::Node;
use pa_graph::io::EdgeWriter;
use pa_graph::EdgeList;
use std::io::Write;

/// Receives every edge a rank creates, in creation order.
pub trait EdgeSink {
    /// Called exactly once per created edge `(u, v)` with `u` the
    /// creating (newer) node.
    fn emit(&mut self, u: Node, v: Node);

    /// Flush any buffering and report the `(edges, bytes)` watermark the
    /// sink has made durable — the coordinates a checkpoint records so a
    /// restarted run can truncate back to exactly this point. Sinks with
    /// no byte-addressed backing report 0 bytes; sinks that cannot
    /// support recovery at all keep the default `Unsupported` error
    /// (checkpointing through them fails loudly instead of silently
    /// producing an unrecoverable checkpoint).
    ///
    /// # Errors
    ///
    /// `Unsupported` by default; flushing sinks surface their I/O errors.
    fn checkpoint_mark(&mut self) -> std::io::Result<(u64, u64)> {
        Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "this edge sink does not support checkpoint watermarks",
        ))
    }
}

impl EdgeSink for EdgeList {
    #[inline]
    fn emit(&mut self, u: Node, v: Node) {
        self.push(u, v);
    }

    fn checkpoint_mark(&mut self) -> std::io::Result<(u64, u64)> {
        Ok((self.len() as u64, 0))
    }
}

impl<F: FnMut(Node, Node)> EdgeSink for F {
    #[inline]
    fn emit(&mut self, u: Node, v: Node) {
        self(u, v)
    }
}

/// Sink that only counts edges (zero memory).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountSink {
    /// Number of edges emitted so far.
    pub edges: u64,
}

impl EdgeSink for CountSink {
    #[inline]
    fn emit(&mut self, _u: Node, _v: Node) {
        self.edges += 1;
    }

    fn checkpoint_mark(&mut self) -> std::io::Result<(u64, u64)> {
        Ok((self.edges, 0))
    }
}

/// Sink that accumulates the *global* degree contribution of the edges
/// this rank creates: both endpoints of every emitted edge are counted
/// into a dense array over all `n` nodes. Summing the per-rank arrays
/// yields the exact degree sequence (each edge is emitted exactly once,
/// by its creating rank), so the degree distribution of an arbitrarily
/// large run is available in `O(n)` memory with no edge storage.
#[derive(Debug, Clone)]
pub struct DegreeCountSink {
    counts: Vec<u32>,
}

impl DegreeCountSink {
    /// Counting sink for a graph on `n` nodes.
    pub fn new(n: u64) -> Self {
        Self {
            counts: vec![0; n as usize],
        }
    }

    /// This rank's degree contributions.
    pub fn counts(&self) -> &[u32] {
        &self.counts
    }

    /// Merge several ranks' contributions into one exact degree sequence.
    ///
    /// # Panics
    ///
    /// Panics if the parts have inconsistent lengths or no part is given.
    pub fn merge(parts: impl IntoIterator<Item = DegreeCountSink>) -> Vec<u64> {
        let mut iter = parts.into_iter();
        let first = iter.next().expect("at least one rank");
        let mut total: Vec<u64> = first.counts.iter().map(|&c| c as u64).collect();
        for part in iter {
            assert_eq!(part.counts.len(), total.len(), "inconsistent n");
            for (t, c) in total.iter_mut().zip(part.counts) {
                *t += c as u64;
            }
        }
        total
    }
}

/// Streams every edge straight to a writer in bounded chunks, so a
/// rank's resident footprint stays one chunk no matter how many edges it
/// generates — the sink behind every `pagen generate` output, which
/// emits `n = 10⁸`-scale networks in `O(n/P + buffer)` memory instead of
/// materializing per-rank edge vectors.
///
/// [`EdgeSink::emit`] is infallible by design (it is called from the hot
/// per-node engine loops), so I/O errors are recorded and surfaced by
/// [`EdgeWriter::finish`] after the run.
impl<W: Write> EdgeSink for EdgeWriter<W> {
    #[inline]
    fn emit(&mut self, u: Node, v: Node) {
        self.push(u, v);
    }

    fn checkpoint_mark(&mut self) -> std::io::Result<(u64, u64)> {
        self.checkpoint()
    }
}

/// The streaming sink's former name, kept only because the separately
/// built benchmark crate under `perf/` still spells it.
#[doc(hidden)]
pub type StreamingWriterSink<W> = EdgeWriter<W>;

impl EdgeSink for DegreeCountSink {
    #[inline]
    fn emit(&mut self, u: Node, v: Node) {
        self.counts[u as usize] += 1;
        self.counts[v as usize] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pa_graph::io::EdgeFormat;
    use std::io;

    #[test]
    fn edge_list_sink_collects() {
        let mut el = EdgeList::new();
        el.emit(1, 0);
        el.emit(2, 1);
        assert_eq!(el.as_slice(), &[(1, 0), (2, 1)]);
    }

    #[test]
    fn closure_sink_runs() {
        let mut seen = Vec::new();
        {
            let mut sink = |u: Node, v: Node| seen.push((u, v));
            sink.emit(3, 1);
        }
        assert_eq!(seen, vec![(3, 1)]);
    }

    #[test]
    fn count_sink_counts() {
        let mut s = CountSink::default();
        s.emit(1, 0);
        s.emit(2, 0);
        assert_eq!(s.edges, 2);
    }

    #[test]
    fn degree_sink_merges_to_exact_degrees() {
        let mut a = DegreeCountSink::new(4);
        a.emit(1, 0);
        a.emit(2, 0);
        let mut b = DegreeCountSink::new(4);
        b.emit(3, 0);
        let deg = DegreeCountSink::merge([a, b]);
        assert_eq!(deg, vec![3, 1, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "inconsistent n")]
    fn degree_sink_rejects_mismatched_sizes() {
        let _ = DegreeCountSink::merge([DegreeCountSink::new(3), DegreeCountSink::new(4)]);
    }

    #[test]
    fn checkpoint_marks_per_sink() {
        let mut el = EdgeList::new();
        el.emit(1, 0);
        assert_eq!(el.checkpoint_mark().unwrap(), (1, 0));
        let mut c = CountSink::default();
        c.emit(1, 0);
        c.emit(2, 0);
        assert_eq!(c.checkpoint_mark().unwrap(), (2, 0));
        let mut deg = DegreeCountSink::new(4);
        let err = deg.checkpoint_mark().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Unsupported);
        let mut buf = Vec::new();
        let mut s = EdgeWriter::new(&mut buf, EdgeFormat::Binary);
        s.emit(1, 0);
        assert_eq!(s.checkpoint_mark().unwrap(), (1, 16));
    }

    #[test]
    fn streaming_writer_sink_round_trips() {
        let mut buf = Vec::new();
        let mut sink = EdgeWriter::new(&mut buf, EdgeFormat::Binary);
        sink.emit(1, 0);
        sink.emit(2, 1);
        assert_eq!(sink.count(), 2);
        assert_eq!(sink.finish().unwrap(), 2);
        let back = pa_graph::io::read_binary(&buf[..]).unwrap();
        assert_eq!(back.as_slice(), &[(1, 0), (2, 1)]);
    }
}
