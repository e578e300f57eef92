//! Generating to disk the way the paper's cluster does it: every rank
//! streams its own partition's edges to the shared filesystem
//! independently, holding one write chunk rather than its edge list; an
//! analysis step reads the shards back.
//!
//! ```text
//! cargo run -p pa-bench --release --example generate_to_disk
//! ```

use pa_core::{par, partition::Scheme, seq, GenOptions, PaConfig};
use pa_graph::io::{self, EdgeFormat, EdgeWriter};
use pa_graph::EdgeList;
use std::fs::File;

fn main() -> std::io::Result<()> {
    let cfg = PaConfig::new(50_000, 3).with_seed(99);
    let ranks = 8;
    let dir = std::env::temp_dir().join("prefattach_shards");
    std::fs::create_dir_all(&dir)?;
    println!(
        "generating n = {}, x = {} and sharding to {}",
        cfg.n,
        cfg.x,
        dir.display()
    );
    let shard = |rank: usize| dir.join(format!("edges_{rank:04}.bin"));

    // Generate; each rank's sink writes exactly the edges of its partition.
    let out = par::generate_streaming(&cfg, Scheme::Lcp, ranks, &GenOptions::default(), |rank| {
        let file = File::create(shard(rank)).expect("create a shard file");
        EdgeWriter::new(file, EdgeFormat::Binary)
    });
    for o in out {
        let edges = o.sink.finish()?;
        println!(
            "  rank {:>2}: {:>7} edges -> {}",
            o.rank,
            edges,
            shard(o.rank).display()
        );
    }

    // Read the shards back and verify the reassembled network.
    let mut reassembled = EdgeList::new();
    for rank in 0..ranks {
        reassembled.extend_from(&io::read_binary_file(shard(rank))?);
    }
    assert_eq!(
        reassembled.canonicalized(),
        seq::copy_model(&cfg).canonicalized(),
        "disk round-trip must preserve the network"
    );
    pa_graph::validate::assert_valid_pa_network(cfg.n, cfg.x, &reassembled);
    println!(
        "reassembled {} edges from {ranks} shards — validated",
        reassembled.len()
    );

    std::fs::remove_dir_all(&dir)?;
    Ok(())
}
