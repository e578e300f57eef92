//! Node partitioning schemes (paper §3.5, Appendix A).
//!
//! The node set `V = {0, …, n−1}` is split into `P` disjoint partitions,
//! one per processor. The partitioning drives load balance: low-labelled
//! nodes receive more `request` messages (Lemma 3.4:
//! `E[M_k] = (1−p)(H_{n−1} − H_k)`), so equal node counts do *not* mean
//! equal work. The paper studies three schemes, all of which satisfy
//! Criterion A (constant-time owner lookup):
//!
//! * [`Ucp`] — uniform consecutive: equal-sized blocks. Simple, poorly
//!   balanced (rank 0 is flooded with requests).
//! * [`Lcp`] — linear consecutive: block sizes grow linearly with rank,
//!   approximating the exact solution of the nonlinear load Equation 10
//!   (see [`eq10`]); low ranks get fewer nodes to compensate for their
//!   message load.
//! * [`Rrp`] — round-robin: node `v` goes to rank `v mod P`; balances
//!   both nodes and messages to within `O(log n)` (Appendix A.3).

use crate::Node;

mod bcp;
pub mod eq10;
mod lcp;
mod rrp;
mod ucp;

pub use bcp::Bcp;
pub use lcp::Lcp;
pub use rrp::Rrp;
pub use ucp::Ucp;

/// A disjoint assignment of nodes `0 .. n` to ranks `0 .. P`.
///
/// Implementations must be consistent: `rank_of`, `size_of`,
/// `local_index` and `node_at` describe the same bijection between nodes
/// and `(rank, local index)` pairs, and `node_at(r, ·)` must be strictly
/// increasing in the local index (the engines sweep local nodes in
/// ascending global order, which guarantees that for consecutive schemes
/// every local dependency is already resolved when reached).
pub trait Partition: Send + Sync {
    /// Total number of nodes `n`.
    fn num_nodes(&self) -> u64;

    /// Number of ranks `P`.
    fn nranks(&self) -> usize;

    /// The rank owning node `v`. Must run in O(1) (Criterion A of §3.5).
    fn rank_of(&self, v: Node) -> usize;

    /// Number of nodes assigned to `rank`.
    fn size_of(&self, rank: usize) -> u64;

    /// Position of `v` within its owner's ascending local order.
    fn local_index(&self, v: Node) -> u64;

    /// Inverse of [`Partition::local_index`] for a given rank.
    fn node_at(&self, rank: usize, idx: u64) -> Node;

    /// The nodes of `rank` in ascending order.
    fn nodes_of(&self, rank: usize) -> NodeIter<'_, Self>
    where
        Self: Sized,
    {
        NodeIter {
            part: self,
            rank,
            next: 0,
            size: self.size_of(rank),
        }
    }

    /// Number of `rank`'s nodes with labels below `bound` (any `bound`,
    /// including past `n`) — the length of a rank's committed prefix at
    /// a label-threshold cut (checkpoint epochs), and, subtracted from
    /// `bound`, the ordinal engine 3's chain memo indexes a remote label
    /// by. Must run in O(1), like [`Partition::rank_of`].
    fn local_count_below(&self, rank: usize, bound: Node) -> u64;
}

/// Iterator over a rank's nodes in ascending order.
pub struct NodeIter<'a, P: Partition> {
    part: &'a P,
    rank: usize,
    next: u64,
    size: u64,
}

impl<P: Partition> Iterator for NodeIter<'_, P> {
    type Item = Node;
    fn next(&mut self) -> Option<Node> {
        if self.next >= self.size {
            return None;
        }
        let v = self.part.node_at(self.rank, self.next);
        self.next += 1;
        Some(v)
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = (self.size - self.next) as usize;
        (rem, Some(rem))
    }
}

impl<P: Partition> ExactSizeIterator for NodeIter<'_, P> {}

/// The partitioning schemes of the paper, as a runtime choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Uniform consecutive partitioning.
    Ucp,
    /// Linear consecutive partitioning.
    Lcp,
    /// Round-robin partitioning.
    Rrp,
    /// Block-cyclic partitioning (default block of
    /// [`DEFAULT_BCP_BLOCK`] nodes).
    Bcp,
}

/// Block size [`build`] uses for [`Scheme::Bcp`] — small enough that
/// low-label hot nodes still spread across ranks, large enough that
/// consecutive-node locality survives within a block.
pub const DEFAULT_BCP_BLOCK: u64 = 64;

impl Scheme {
    /// The paper's three schemes, in the order the paper presents them.
    pub const ALL: [Scheme; 3] = [Scheme::Ucp, Scheme::Lcp, Scheme::Rrp];

    /// Every scheme the workspace implements: the paper's three plus
    /// block-cyclic.
    pub const EXTENDED: [Scheme; 4] = [Scheme::Ucp, Scheme::Lcp, Scheme::Rrp, Scheme::Bcp];

    /// Short display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Scheme::Ucp => "UCP",
            Scheme::Lcp => "LCP",
            Scheme::Rrp => "RRP",
            Scheme::Bcp => "BCP",
        }
    }

    /// Stable discriminant for wire and checkpoint identity: the
    /// scheme's position in [`Scheme::EXTENDED`]. A job descriptor or
    /// checkpoint header written by one build must name the same scheme
    /// on every other build.
    pub fn id(&self) -> u8 {
        Scheme::EXTENDED
            .iter()
            .position(|s| s == self)
            .expect("every scheme appears in EXTENDED") as u8
    }

    /// Inverse of [`Scheme::id`]; `None` for unknown discriminants.
    pub fn from_id(id: u8) -> Option<Scheme> {
        Scheme::EXTENDED.get(id as usize).copied()
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A scheme instantiated for concrete `(n, P)` — enum dispatch so callers
/// can select partitionings at runtime without generics.
#[derive(Debug, Clone)]
pub enum AnyPartition {
    /// Uniform consecutive.
    Ucp(Ucp),
    /// Linear consecutive.
    Lcp(Lcp),
    /// Round robin.
    Rrp(Rrp),
    /// Block cyclic.
    Bcp(Bcp),
}

/// Instantiate `scheme` for `n` nodes over `nranks` ranks.
pub fn build(scheme: Scheme, n: u64, nranks: usize) -> AnyPartition {
    match scheme {
        Scheme::Ucp => AnyPartition::Ucp(Ucp::new(n, nranks)),
        Scheme::Lcp => AnyPartition::Lcp(Lcp::new(n, nranks)),
        Scheme::Rrp => AnyPartition::Rrp(Rrp::new(n, nranks)),
        Scheme::Bcp => AnyPartition::Bcp(Bcp::new(n, nranks, DEFAULT_BCP_BLOCK)),
    }
}

macro_rules! dispatch {
    ($self:ident, $p:ident => $body:expr) => {
        match $self {
            AnyPartition::Ucp($p) => $body,
            AnyPartition::Lcp($p) => $body,
            AnyPartition::Rrp($p) => $body,
            AnyPartition::Bcp($p) => $body,
        }
    };
}

impl Partition for AnyPartition {
    fn num_nodes(&self) -> u64 {
        dispatch!(self, p => p.num_nodes())
    }
    fn nranks(&self) -> usize {
        dispatch!(self, p => p.nranks())
    }
    fn rank_of(&self, v: Node) -> usize {
        dispatch!(self, p => p.rank_of(v))
    }
    fn size_of(&self, rank: usize) -> u64 {
        dispatch!(self, p => p.size_of(rank))
    }
    fn local_index(&self, v: Node) -> u64 {
        dispatch!(self, p => p.local_index(v))
    }
    fn node_at(&self, rank: usize, idx: u64) -> Node {
        dispatch!(self, p => p.node_at(rank, idx))
    }
    fn local_count_below(&self, rank: usize, bound: Node) -> u64 {
        dispatch!(self, p => p.local_count_below(rank, bound))
    }
}

/// Exhaustively verify the [`Partition`] contract for small instances
/// (used by unit tests and proptests of every scheme).
///
/// # Panics
///
/// Panics on the first violated invariant.
#[doc(hidden)]
pub fn check_contract<P: Partition>(part: &P) {
    let n = part.num_nodes();
    let p = part.nranks();
    let total: u64 = (0..p).map(|r| part.size_of(r)).sum();
    assert_eq!(total, n, "partition sizes must sum to n");
    let mut seen = vec![false; n as usize];
    for r in 0..p {
        let mut prev: Option<Node> = None;
        for (idx, v) in part.nodes_of(r).enumerate() {
            assert!(v < n, "node {v} out of range");
            assert!(!seen[v as usize], "node {v} assigned twice");
            seen[v as usize] = true;
            assert_eq!(part.rank_of(v), r, "rank_of({v})");
            assert_eq!(part.local_index(v), idx as u64, "local_index({v})");
            assert_eq!(part.node_at(r, idx as u64), v, "node_at({r},{idx})");
            if let Some(pv) = prev {
                assert!(v > pv, "nodes_of must be ascending");
            }
            prev = Some(v);
        }
        // The O(1) count against a count by enumeration, at every bound
        // from 0 to past the end.
        let mut below = 0u64;
        for bound in 0..=n + 2 {
            assert_eq!(
                part.local_count_below(r, bound),
                below,
                "local_count_below({r}, {bound})"
            );
            if bound < n && part.rank_of(bound) == r {
                below += 1;
            }
        }
    }
    assert!(seen.iter().all(|&s| s), "every node must be assigned");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_dispatches_all_schemes() {
        for scheme in Scheme::EXTENDED {
            let part = build(scheme, 101, 7);
            assert_eq!(part.num_nodes(), 101);
            assert_eq!(part.nranks(), 7);
            check_contract(&part);
        }
    }

    #[test]
    fn scheme_names() {
        assert_eq!(Scheme::Ucp.to_string(), "UCP");
        assert_eq!(Scheme::Lcp.to_string(), "LCP");
        assert_eq!(Scheme::Rrp.to_string(), "RRP");
        assert_eq!(Scheme::Bcp.to_string(), "BCP");
    }

    #[test]
    fn extended_extends_all_in_order() {
        assert_eq!(Scheme::EXTENDED[..3], Scheme::ALL);
        assert_eq!(Scheme::EXTENDED[3], Scheme::Bcp);
    }

    #[test]
    fn scheme_ids_round_trip_and_stay_pinned() {
        // The discriminants are wire/checkpoint identity: never renumber.
        assert_eq!(Scheme::Ucp.id(), 0);
        assert_eq!(Scheme::Lcp.id(), 1);
        assert_eq!(Scheme::Rrp.id(), 2);
        assert_eq!(Scheme::Bcp.id(), 3);
        for scheme in Scheme::EXTENDED {
            assert_eq!(Scheme::from_id(scheme.id()), Some(scheme));
        }
        assert_eq!(Scheme::from_id(4), None);
    }

    #[test]
    fn single_rank_owns_everything() {
        for scheme in Scheme::EXTENDED {
            let part = build(scheme, 50, 1);
            assert_eq!(part.size_of(0), 50);
            assert_eq!(part.rank_of(49), 0);
            check_contract(&part);
        }
    }

    #[test]
    fn node_iter_is_exact_size() {
        let part = build(Scheme::Rrp, 10, 3);
        let it = part.nodes_of(0);
        assert_eq!(it.len(), 4); // nodes 0, 3, 6, 9
    }

    #[test]
    fn local_count_below_matches_linear_scan() {
        for scheme in Scheme::EXTENDED {
            let part = build(scheme, 101, 7);
            for rank in 0..7 {
                for bound in [0u64, 1, 13, 50, 100, 101, 500] {
                    let expect = part.nodes_of(rank).filter(|&v| v < bound).count() as u64;
                    assert_eq!(
                        part.local_count_below(rank, bound),
                        expect,
                        "{scheme} rank {rank} bound {bound}"
                    );
                }
            }
        }
    }
}
