//! The streaming contract: a `generate_streaming` run must never
//! materialize a rank's edge list. The engines' only edge exit is the
//! [`pa_core::par::EdgeSink`], and [`pa_graph::io::EdgeWriter`] forwards
//! in bounded chunks — so the resident-edge high-water mark of a
//! streaming run is one chunk per rank, independent of the edge count.

use pa_core::par;
use pa_core::partition::Scheme;
use pa_core::{GenOptions, PaConfig};
use pa_graph::io::{EdgeFormat, EdgeWriter, EDGE_WRITER_CHUNK};
use std::io::Write;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// A write target that keeps no data — it only records the total byte
/// count and the largest single `write_all` it ever saw. The latter is
/// exactly the sink's resident-edge high-water mark: the chunked writer
/// hands over everything it buffered in one call.
struct ChunkProbe {
    total_bytes: Arc<AtomicU64>,
    max_write: Arc<AtomicUsize>,
}

impl Write for ChunkProbe {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.total_bytes
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        self.max_write.fetch_max(buf.len(), Ordering::Relaxed);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn streaming_run_never_materializes_a_rank_edge_vector() {
    // Large enough that every rank fills its chunk several times over:
    // per-rank edges ≈ 2n/P ≈ 100k > EDGE_WRITER_CHUNK.
    let cfg = PaConfig::new(200_000, 2).with_seed(13);
    let nranks = 4;
    let total_bytes = Arc::new(AtomicU64::new(0));
    let max_write = Arc::new(AtomicUsize::new(0));

    let opts = GenOptions::default();
    let outs = par::generate_streaming(&cfg, Scheme::Rrp, nranks, &opts, |_rank| {
        EdgeWriter::new(
            ChunkProbe {
                total_bytes: Arc::clone(&total_bytes),
                max_write: Arc::clone(&max_write),
            },
            EdgeFormat::Binary,
        )
    });

    let streamed: u64 = outs.into_iter().map(|o| o.sink.finish().unwrap()).sum();
    assert_eq!(streamed, cfg.expected_edges());
    assert_eq!(total_bytes.load(Ordering::Relaxed), streamed * 16);

    // The high-water mark: no rank ever held more than one chunk of
    // edges before handing them to the writer. A run that materialized
    // its ~100k-edge shard and wrote it at the end would show a single
    // write ~25× this bound.
    let high_water = max_write.load(Ordering::Relaxed);
    assert!(high_water > 0);
    assert!(
        high_water <= EDGE_WRITER_CHUNK * 16,
        "single write of {high_water} bytes exceeds one chunk ({} bytes): \
         edges are being materialized, not streamed",
        EDGE_WRITER_CHUNK * 16
    );
}
