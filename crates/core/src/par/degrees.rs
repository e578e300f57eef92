//! Distributed degree computation — analysis "in place" (paper §3.2).
//!
//! After a distributed generation run, each rank holds only the edges
//! its own nodes created; a node's *degree* also includes the edges that
//! chose it as a target, which live on other ranks. This module computes
//! exact degrees without ever gathering the graph: every rank scans its
//! local edges, credits local endpoints directly, and sends remote
//! endpoints (buffered) to their owners. One barrier separates the send
//! phase from the drain phase — the channels are fully enqueued by then,
//! so a non-blocking drain is complete.

use crate::partition::Partition;
use crate::Node;
use pa_graph::EdgeList;
use pa_mpsim::{BufferedComm, Comm, Transport, World};

/// Per-rank exact degrees of a distributed edge set.
///
/// `rank_edges[r]` must contain the edges created by rank `r`'s nodes
/// (e.g. `ParallelOutput::ranks[r].edges`). Returns, per rank, the
/// degree of each of its nodes in ascending local order.
///
/// # Panics
///
/// Panics if `rank_edges.len() != part.nranks()` or an edge endpoint is
/// out of range.
pub fn distributed_degrees<P: Partition>(part: &P, rank_edges: &[EdgeList]) -> Vec<Vec<u64>> {
    assert_eq!(
        rank_edges.len(),
        part.nranks(),
        "need one edge list per rank"
    );
    let world = World::new(part.nranks());
    world.run(|mut comm: Comm<Node>| {
        let rank = comm.rank();
        let mut deg = vec![0u64; part.size_of(rank) as usize];
        let mut buf = BufferedComm::new(comm.nranks(), 4096);
        let credit =
            |deg: &mut Vec<u64>, buf: &mut BufferedComm<Node>, comm: &mut Comm<Node>, v: Node| {
                let owner = part.rank_of(v);
                if owner == rank {
                    deg[part.local_index(v) as usize] += 1;
                } else {
                    buf.push(comm, owner, v);
                }
            };
        for (u, v) in rank_edges[rank].iter() {
            credit(&mut deg, &mut buf, &mut comm, u);
            credit(&mut deg, &mut buf, &mut comm, v);
        }
        buf.flush_all(&mut comm);
        // All sends are enqueued once every rank passes the barrier.
        comm.barrier();
        while let Some(pkt) = comm.try_recv() {
            for v in pkt.msgs {
                debug_assert_eq!(part.rank_of(v), rank);
                deg[part.local_index(v) as usize] += 1;
            }
        }
        // Nobody may exit (dropping its receiver) while another rank
        // could still be draining — but since all traffic was enqueued
        // before the first barrier, draining cannot generate new sends,
        // so exiting now is safe.
        deg
    })
}

/// Stitch per-rank degrees back into global node order.
pub fn merge_degrees<P: Partition>(part: &P, per_rank: &[Vec<u64>]) -> Vec<u64> {
    let mut out = vec![0u64; part.num_nodes() as usize];
    for (rank, degs) in per_rank.iter().enumerate() {
        for (idx, &d) in degs.iter().enumerate() {
            out[part.node_at(rank, idx as u64) as usize] = d;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{build, Scheme};
    use crate::{par, GenOptions, PaConfig};

    #[test]
    fn matches_centralized_degree_sequence_for_all_schemes() {
        let cfg = PaConfig::new(4_000, 3).with_seed(6);
        for scheme in Scheme::ALL {
            let out = par::generate(&cfg, scheme, 5, &GenOptions::default());
            let part = build(scheme, cfg.n, 5);
            let rank_edges: Vec<_> = out.ranks.iter().map(|r| r.edges.clone()).collect();
            let per_rank = distributed_degrees(&part, &rank_edges);
            let merged = merge_degrees(&part, &per_rank);
            let reference = pa_graph::degrees::degree_sequence(cfg.n as usize, &out.edge_list());
            assert_eq!(merged, reference, "{scheme}");
        }
    }

    #[test]
    fn handles_empty_ranks() {
        let part = build(Scheme::Rrp, 6, 8);
        let mut rank_edges = vec![EdgeList::new(); 8];
        rank_edges[1].push(1, 0); // rank 1 owns node 1 under RRP
        let per_rank = distributed_degrees(&part, &rank_edges);
        let merged = merge_degrees(&part, &per_rank);
        assert_eq!(merged, vec![1, 1, 0, 0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "one edge list per rank")]
    fn wrong_shard_count_panics() {
        let part = build(Scheme::Ucp, 10, 2);
        let _ = distributed_degrees(&part, &[EdgeList::new()]);
    }
}
