//! Round-robin partitioning (RRP), §3.5.2 / Appendix A.3.

use super::Partition;
use crate::Node;

/// Round-robin partitioning: node `v` belongs to rank `v mod P`.
///
/// Because the expected request load `E[M_k]` decreases monotonically in
/// the node label (Lemma 3.4), interleaving labels across ranks balances
/// both node counts and message counts: Appendix A.3 shows the maximum
/// load difference between any two ranks is `O(log n)` against a total
/// load of `Ω(n)`.
#[derive(Debug, Clone)]
pub struct Rrp {
    n: u64,
    nranks: usize,
}

impl Rrp {
    /// Partition `n` nodes over `nranks` ranks.
    ///
    /// # Panics
    ///
    /// Panics if `nranks == 0`.
    pub fn new(n: u64, nranks: usize) -> Self {
        assert!(nranks > 0, "need at least one rank");
        Self { n, nranks }
    }
}

impl Partition for Rrp {
    fn num_nodes(&self) -> u64 {
        self.n
    }

    fn nranks(&self) -> usize {
        self.nranks
    }

    #[inline]
    fn rank_of(&self, v: Node) -> usize {
        debug_assert!(v < self.n);
        (v % self.nranks as u64) as usize
    }

    #[inline]
    fn size_of(&self, rank: usize) -> u64 {
        let p = self.nranks as u64;
        let rank = rank as u64;
        // Nodes rank, rank+P, rank+2P, … below n.
        if rank >= self.n {
            0
        } else {
            (self.n - rank).div_ceil(p)
        }
    }

    #[inline]
    fn local_index(&self, v: Node) -> u64 {
        v / self.nranks as u64
    }

    #[inline]
    fn node_at(&self, rank: usize, idx: u64) -> Node {
        debug_assert!(idx < self.size_of(rank));
        rank as u64 + idx * self.nranks as u64
    }

    #[inline]
    fn local_count_below(&self, rank: usize, bound: Node) -> u64 {
        // Nodes rank, rank+P, … below min(bound, n).
        bound
            .min(self.n)
            .saturating_sub(rank as u64)
            .div_ceil(self.nranks as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::check_contract;

    #[test]
    fn contract_small_cases() {
        for (n, p) in [
            (1u64, 1usize),
            (10, 1),
            (10, 3),
            (10, 10),
            (10, 16),
            (100, 7),
        ] {
            check_contract(&Rrp::new(n, p));
        }
    }

    #[test]
    fn assignment_is_modular() {
        let part = Rrp::new(10, 3);
        let r0: Vec<_> = part.nodes_of(0).collect();
        let r1: Vec<_> = part.nodes_of(1).collect();
        let r2: Vec<_> = part.nodes_of(2).collect();
        assert_eq!(r0, vec![0, 3, 6, 9]);
        assert_eq!(r1, vec![1, 4, 7]);
        assert_eq!(r2, vec![2, 5, 8]);
    }

    #[test]
    fn sizes_differ_by_at_most_one() {
        let part = Rrp::new(10, 3);
        let sizes: Vec<u64> = (0..3).map(|r| part.size_of(r)).collect();
        assert_eq!(sizes, vec![4, 3, 3]);
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn more_ranks_than_nodes() {
        let part = Rrp::new(3, 5);
        check_contract(&part);
        assert_eq!(part.size_of(3), 0);
        assert_eq!(part.size_of(4), 0);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_panics() {
        let _ = Rrp::new(10, 0);
    }
}
