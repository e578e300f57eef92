//! Uniform consecutive partitioning (UCP), §3.5.1 / Appendix A.1.

use super::Partition;
use crate::Node;

/// Uniform consecutive partitioning: consecutive blocks of (near-)equal
/// size. With `q = ⌊n/P⌋` and `r = n mod P`, the first `r` ranks hold
/// `q + 1` nodes and the rest hold `q`, so sizes differ by at most one
/// (the "B or B−1" property of Appendix A.1) while owner lookup stays
/// O(1).
#[derive(Debug, Clone)]
pub struct Ucp {
    n: u64,
    nranks: usize,
    /// ⌊n/P⌋.
    q: u64,
    /// n mod P — the number of ranks holding q+1 nodes.
    r: u64,
}

impl Ucp {
    /// Partition `n` nodes over `nranks` ranks.
    ///
    /// # Panics
    ///
    /// Panics if `nranks == 0`.
    pub fn new(n: u64, nranks: usize) -> Self {
        assert!(nranks > 0, "need at least one rank");
        Self {
            n,
            nranks,
            q: n / nranks as u64,
            r: n % nranks as u64,
        }
    }

    /// First node of `rank`'s block.
    #[inline]
    fn block_start(&self, rank: usize) -> u64 {
        let rank = rank as u64;
        if rank <= self.r {
            rank * (self.q + 1)
        } else {
            self.r * (self.q + 1) + (rank - self.r) * self.q
        }
    }
}

impl Partition for Ucp {
    fn num_nodes(&self) -> u64 {
        self.n
    }

    fn nranks(&self) -> usize {
        self.nranks
    }

    #[inline]
    fn rank_of(&self, v: Node) -> usize {
        debug_assert!(v < self.n);
        let fat_end = self.r * (self.q + 1);
        if v < fat_end {
            (v / (self.q + 1)) as usize
        } else {
            (self.r + (v - fat_end) / self.q.max(1)) as usize
        }
    }

    #[inline]
    fn size_of(&self, rank: usize) -> u64 {
        if (rank as u64) < self.r {
            self.q + 1
        } else {
            self.q
        }
    }

    #[inline]
    fn local_index(&self, v: Node) -> u64 {
        v - self.block_start(self.rank_of(v))
    }

    #[inline]
    fn node_at(&self, rank: usize, idx: u64) -> Node {
        debug_assert!(idx < self.size_of(rank));
        self.block_start(rank) + idx
    }

    #[inline]
    fn local_count_below(&self, rank: usize, bound: Node) -> u64 {
        let start = self.block_start(rank);
        bound.clamp(start, start + self.size_of(rank)) - start
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
            (7, 4),
            (100, 16),
        ] {
            check_contract(&Ucp::new(n, p));
        }
    }

    #[test]
    fn sizes_differ_by_at_most_one() {
        let part = Ucp::new(10, 4); // 3, 3, 2, 2
        let sizes: Vec<u64> = (0..4).map(|r| part.size_of(r)).collect();
        assert_eq!(sizes, vec![3, 3, 2, 2]);
    }

    #[test]
    fn blocks_are_consecutive() {
        let part = Ucp::new(10, 4);
        let r1: Vec<_> = part.nodes_of(1).collect();
        assert_eq!(r1, vec![3, 4, 5]);
        let r3: Vec<_> = part.nodes_of(3).collect();
        assert_eq!(r3, vec![8, 9]);
    }

    #[test]
    fn more_ranks_than_nodes() {
        let part = Ucp::new(3, 5); // sizes 1,1,1,0,0
        check_contract(&part);
        assert_eq!(part.size_of(0), 1);
        assert_eq!(part.size_of(4), 0);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_panics() {
        let _ = Ucp::new(10, 0);
    }
}
