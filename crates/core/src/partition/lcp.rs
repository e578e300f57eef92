//! Linear consecutive partitioning (LCP), §3.5.1 / Appendix A.2.

use super::eq10::{self, DEFAULT_B};
use super::Partition;
use crate::Node;

/// Linear consecutive partitioning: consecutive blocks whose sizes follow
/// the arithmetic progression `a + i·d`, the paper's tractable
/// approximation of the exact Equation 10 solution. Low ranks receive
/// fewer nodes because their low-labelled nodes attract more `request`
/// messages (Lemma 3.4).
///
/// Owner lookup uses the closed-form quadratic of Appendix A.2 as an O(1)
/// initial guess, corrected against the integer boundaries (rounding the
/// real-valued progression to integers can shift a node across a
/// boundary by at most a step or two).
#[derive(Debug, Clone)]
pub struct Lcp {
    n: u64,
    /// Block boundaries: `bounds[i] .. bounds[i+1]` is rank `i`'s range.
    bounds: Vec<u64>,
    /// Linear-fit parameters (sizes ≈ a + i·d).
    a: f64,
    d: f64,
}

impl Lcp {
    /// Partition `n` nodes over `nranks` ranks with the default load
    /// constant [`DEFAULT_B`].
    ///
    /// # Panics
    ///
    /// Panics if `nranks == 0` or `n == 0`.
    pub fn new(n: u64, nranks: usize) -> Self {
        Self::with_b(n, nranks, DEFAULT_B)
    }

    /// Partition with an explicit load constant `b` (sensitivity knob).
    ///
    /// # Panics
    ///
    /// Panics if `nranks == 0` or `n == 0`.
    pub fn with_b(n: u64, nranks: usize, b: f64) -> Self {
        assert!(nranks > 0, "need at least one rank");
        assert!(n > 0, "need at least one node");
        let exact = eq10::solve_boundaries(n, nranks, b);
        let (a, d) = eq10::linear_fit(&exact);
        let mut bounds = Vec::with_capacity(nranks + 1);
        bounds.push(0u64);
        for i in 1..nranks as u64 {
            // Cumulative progression: Σ_{j<i} (a + j·d) = i·a + d·i(i−1)/2.
            let cum = i as f64 * a + d * (i as f64) * (i as f64 - 1.0) / 2.0;
            let v = cum.round().clamp(0.0, n as f64) as u64;
            // Rounding must not break monotonicity.
            bounds.push(v.max(*bounds.last().unwrap()));
        }
        bounds.push(n);
        Self { n, bounds, a, d }
    }

    /// The fitted progression parameters `(a, d)` (Appendix A.2).
    pub fn params(&self) -> (f64, f64) {
        (self.a, self.d)
    }

    /// The integer block boundaries actually in use (`P + 1` entries).
    pub fn boundaries(&self) -> &[u64] {
        &self.bounds
    }

    /// The Appendix A.2 closed-form rank guess
    /// `⌊(−(2a−d) + √((2a−d)² + 8du)) / (2d)⌋`.
    #[inline]
    fn rank_guess(&self, u: Node) -> usize {
        let p = self.nranks();
        if self.d.abs() < 1e-9 || self.a < 0.0 {
            // Degenerate progression: fall back to a proportional guess.
            return (((u as f64 / self.n as f64) * p as f64) as usize).min(p - 1);
        }
        let t = 2.0 * self.a - self.d;
        let disc = (t * t + 8.0 * self.d * u as f64).max(0.0);
        let i = (-t + disc.sqrt()) / (2.0 * self.d);
        (i.max(0.0) as usize).min(p - 1)
    }
}

impl Partition for Lcp {
    fn num_nodes(&self) -> u64 {
        self.n
    }

    fn nranks(&self) -> usize {
        self.bounds.len() - 1
    }

    #[inline]
    fn rank_of(&self, v: Node) -> usize {
        debug_assert!(v < self.n);
        let mut r = self.rank_guess(v);
        // Correct the closed-form guess against the integer boundaries;
        // in practice this walks 0–2 steps.
        while v < self.bounds[r] {
            r -= 1;
        }
        while v >= self.bounds[r + 1] {
            r += 1;
        }
        r
    }

    #[inline]
    fn size_of(&self, rank: usize) -> u64 {
        self.bounds[rank + 1] - self.bounds[rank]
    }

    #[inline]
    fn local_index(&self, v: Node) -> u64 {
        v - self.bounds[self.rank_of(v)]
    }

    #[inline]
    fn node_at(&self, rank: usize, idx: u64) -> Node {
        debug_assert!(idx < self.size_of(rank));
        self.bounds[rank] + idx
    }

    #[inline]
    fn local_count_below(&self, rank: usize, bound: Node) -> u64 {
        bound.clamp(self.bounds[rank], self.bounds[rank + 1]) - self.bounds[rank]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::check_contract;

    #[test]
    fn contract_small_cases() {
        for (n, p) in [(1u64, 1usize), (100, 1), (100, 7), (1000, 16), (50, 50)] {
            check_contract(&Lcp::new(n, p));
        }
    }

    #[test]
    fn sizes_grow_with_rank() {
        let part = Lcp::new(100_000, 10);
        let sizes: Vec<u64> = (0..10).map(|r| part.size_of(r)).collect();
        assert!(
            sizes.last().unwrap() > sizes.first().unwrap(),
            "last rank must hold more nodes: {sizes:?}"
        );
        // Differences should be roughly constant (arithmetic progression).
        let (_, d) = part.params();
        for w in sizes.windows(2) {
            let diff = w[1] as f64 - w[0] as f64;
            assert!(
                (diff - d).abs() <= 2.0,
                "progression step {diff} far from fitted d={d}"
            );
        }
    }

    #[test]
    fn boundaries_cover_the_node_range() {
        let part = Lcp::new(12_345, 8);
        let b = part.boundaries();
        assert_eq!(b[0], 0);
        assert_eq!(*b.last().unwrap(), 12_345);
    }

    #[test]
    fn rank_of_agrees_with_linear_scan() {
        let part = Lcp::new(5_000, 13);
        for v in 0..5_000u64 {
            let scan = part
                .boundaries()
                .windows(2)
                .position(|w| v >= w[0] && v < w[1])
                .unwrap();
            assert_eq!(part.rank_of(v), scan, "node {v}");
        }
    }

    #[test]
    fn single_rank_degenerates_gracefully() {
        let part = Lcp::new(500, 1);
        assert_eq!(part.size_of(0), 500);
        assert_eq!(part.rank_of(499), 0);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_panics() {
        let _ = Lcp::new(10, 0);
    }

    #[test]
    fn custom_b_changes_slope() {
        // Larger b means node-processing dominates messaging, so the
        // partition flattens towards uniform (smaller d).
        let steep = Lcp::with_b(100_000, 8, 1.0);
        let flat = Lcp::with_b(100_000, 8, 50.0);
        assert!(flat.params().1 < steep.params().1);
    }
}
