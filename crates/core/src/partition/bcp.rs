//! Block-cyclic partitioning (BCP) — an extension interpolating between
//! the paper's schemes.
//!
//! Nodes are dealt to ranks in blocks of `block` consecutive labels,
//! round-robin: block 0 → rank 0, block 1 → rank 1, …  With `block = 1`
//! this *is* RRP; with `block = ⌈n/P⌉` it degenerates to UCP. The knob
//! trades RRP's near-perfect message balance against UCP/LCP's locality
//! (consecutive nodes per rank, which §3.2 notes some analyses require).

use super::Partition;
use crate::Node;

/// Block-cyclic partitioning with a configurable block size.
#[derive(Debug, Clone)]
pub struct Bcp {
    n: u64,
    nranks: usize,
    block: u64,
}

impl Bcp {
    /// Partition `n` nodes over `nranks` ranks in blocks of `block`.
    ///
    /// # Panics
    ///
    /// Panics if `nranks == 0` or `block == 0`.
    pub fn new(n: u64, nranks: usize, block: u64) -> Self {
        assert!(nranks > 0, "need at least one rank");
        assert!(block > 0, "block size must be positive");
        Self { n, nranks, block }
    }

    /// The block size.
    pub fn block(&self) -> u64 {
        self.block
    }

    /// Number of whole "super-rows" (P consecutive blocks) below node v's
    /// block, plus v's offset data: `(super_row, rank, within_block)`.
    #[inline]
    fn decompose(&self, v: Node) -> (u64, usize, u64) {
        let blk = v / self.block;
        let p = self.nranks as u64;
        ((blk / p), (blk % p) as usize, v % self.block)
    }
}

impl Partition for Bcp {
    fn num_nodes(&self) -> u64 {
        self.n
    }

    fn nranks(&self) -> usize {
        self.nranks
    }

    #[inline]
    fn rank_of(&self, v: Node) -> usize {
        debug_assert!(v < self.n);
        self.decompose(v).1
    }

    fn size_of(&self, rank: usize) -> u64 {
        // Count nodes in blocks congruent to `rank` mod P.
        let p = self.nranks as u64;
        let stripe = self.block * p;
        let full_stripes = self.n / stripe;
        let mut size = full_stripes * self.block;
        // Partial final stripe.
        let rem = self.n % stripe;
        let start = rank as u64 * self.block;
        if rem > start {
            size += (rem - start).min(self.block);
        }
        size
    }

    #[inline]
    fn local_index(&self, v: Node) -> u64 {
        let (super_row, _, within) = self.decompose(v);
        super_row * self.block + within
    }

    #[inline]
    fn node_at(&self, rank: usize, idx: u64) -> Node {
        debug_assert!(idx < self.size_of(rank));
        let super_row = idx / self.block;
        let within = idx % self.block;
        super_row * self.block * self.nranks as u64 + rank as u64 * self.block + within
    }

    #[inline]
    fn local_count_below(&self, rank: usize, bound: Node) -> u64 {
        // A whole block per full stripe below the bound, plus the part
        // of the rank's block in the last, partial stripe.
        let bound = bound.min(self.n);
        let stripe = self.block * self.nranks as u64;
        let tail = (bound % stripe).saturating_sub(rank as u64 * self.block);
        bound / stripe * self.block + tail.min(self.block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{check_contract, Rrp, Ucp};

    #[test]
    fn contract_small_cases() {
        for (n, p, b) in [
            (1u64, 1usize, 1u64),
            (10, 3, 1),
            (10, 3, 2),
            (10, 3, 4),
            (100, 7, 5),
            (64, 4, 16),
            (13, 5, 3),
        ] {
            check_contract(&Bcp::new(n, p, b));
        }
    }

    #[test]
    fn block_one_equals_rrp() {
        let n = 57;
        let p = 5;
        let bcp = Bcp::new(n, p, 1);
        let rrp = Rrp::new(n, p);
        for v in 0..n {
            assert_eq!(bcp.rank_of(v), rrp.rank_of(v), "node {v}");
            assert_eq!(bcp.local_index(v), rrp.local_index(v), "node {v}");
        }
    }

    #[test]
    fn huge_block_equals_ucp_layout() {
        // With block = ceil(n/P) every rank gets one consecutive block in
        // rank order — the same node->rank map as ceil-based UCP when n
        // is a multiple of P.
        let n = 40u64;
        let p = 4usize;
        let bcp = Bcp::new(n, p, 10);
        let ucp = Ucp::new(n, p);
        for v in 0..n {
            assert_eq!(bcp.rank_of(v), ucp.rank_of(v), "node {v}");
        }
    }

    #[test]
    fn blocks_are_consecutive_runs() {
        let bcp = Bcp::new(20, 2, 3);
        let r0: Vec<_> = bcp.nodes_of(0).collect();
        // rank 0 blocks: [0..3), [6..9), [12..15), [18..20)
        assert_eq!(r0, vec![0, 1, 2, 6, 7, 8, 12, 13, 14, 18, 19]);
    }

    #[test]
    #[should_panic(expected = "block size")]
    fn zero_block_panics() {
        let _ = Bcp::new(10, 2, 0);
    }
}
