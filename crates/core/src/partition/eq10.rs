//! The nonlinear load-balance system (Equation 10) behind LCP.
//!
//! §3.5.1 models the computation load of a consecutive partition
//! `[lo, hi)` as
//!
//! ```text
//! load(lo, hi) = (hi − lo)(H_{n−1} + b) − (hi·H_hi − lo·H_lo)
//! ```
//!
//! (type A/B work proportional to the node count, plus the expected
//! incoming requests from Lemma 3.4, summed via the identity
//! Σ_{k<m} H_k = m·H_m − m). Perfect balance means every partition
//! carries `load(0, n) / P`, giving the nonlinear system of Equation 10.
//! The exact solution is only reachable numerically; this module provides
//! that numeric solver (used for Figure 3's "actual" curve and for
//! deriving LCP's linear-fit parameters).

use crate::math::harmonic;

/// Default constant `b` (the paper's `b = 1 + c`).
///
/// `b` encodes the ratio between a node's fixed cost and the cost of one
/// incoming request; the paper leaves it unspecified ("some constant").
/// The right value is whatever balances measured work: the `exp_lcp_b`
/// harness sweeps `b` and reports each rank's on-CPU time as max/mean,
/// beside the `b` that measured lowest. At P = 32 that was 5 in most
/// runs (EXPERIMENTS.md); the default moves only if alternating
/// multi-process runs show another value pays.
pub const DEFAULT_B: f64 = 5.0;

/// The §3.5.1 load of consecutive node block `[lo, hi)` in a graph of
/// `n` nodes.
///
/// # Panics
///
/// Panics if `lo > hi` or `hi > n`.
pub fn block_load(n: u64, b: f64, lo: u64, hi: u64) -> f64 {
    assert!(lo <= hi && hi <= n, "invalid block [{lo}, {hi}) for n={n}");
    let hn1 = harmonic(n - 1);
    let span = (hi - lo) as f64;
    span * (hn1 + b) - (hi as f64 * harmonic(hi) - lo as f64 * harmonic(lo))
}

/// Total load of the whole node set (all partitions combined).
pub fn total_load(n: u64, b: f64) -> f64 {
    block_load(n, b, 0, n)
}

/// Numerically solve Equation 10: boundaries `n_0 = 0 < n_1 < … < n_P = n`
/// such that every block `[n_i, n_{i+1})` carries (as nearly as integer
/// boundaries allow) `total_load / P`.
///
/// Each boundary is found by binary search — `block_load(lo, ·)` is
/// strictly increasing — so the whole solve is `O(P log n)` harmonic
/// evaluations.
///
/// # Panics
///
/// Panics if `nranks == 0` or `n == 0`.
pub fn solve_boundaries(n: u64, nranks: usize, b: f64) -> Vec<u64> {
    assert!(nranks > 0, "need at least one rank");
    assert!(n > 0, "need at least one node");
    let target = total_load(n, b) / nranks as f64;
    let mut bounds = Vec::with_capacity(nranks + 1);
    bounds.push(0u64);
    let mut lo = 0u64;
    for _ in 0..nranks - 1 {
        // Smallest hi with block_load(lo, hi) >= target.
        let mut a = lo;
        let mut z = n;
        while a < z {
            let mid = a + (z - a) / 2;
            if block_load(n, b, lo, mid) >= target {
                z = mid;
            } else {
                a = mid + 1;
            }
        }
        bounds.push(a);
        lo = a;
    }
    bounds.push(n);
    bounds
}

/// Fit the arithmetic-progression (linear) approximation of Appendix A.2
/// to a boundary solution: partition sizes are modelled as `a + i·d` for
/// rank `i`. Returns `(a, d)`.
///
/// `d` is the slope through the first and last partition sizes (the two
/// sampled points of Appendix A.2) and `a` follows from
/// `Σ (a + i·d) = n`, i.e. `a = n/P − (P−1)d/2` (Equation 12).
///
/// # Panics
///
/// Panics if `bounds` has fewer than two entries.
pub fn linear_fit(bounds: &[u64]) -> (f64, f64) {
    assert!(bounds.len() >= 2, "need at least one partition");
    let p = bounds.len() - 1;
    let n = (bounds[p] - bounds[0]) as f64;
    if p == 1 {
        return (n, 0.0);
    }
    let first = (bounds[1] - bounds[0]) as f64;
    let last = (bounds[p] - bounds[p - 1]) as f64;
    let d = (last - first) / (p as f64 - 1.0);
    let a = n / p as f64 - (p as f64 - 1.0) * d / 2.0;
    (a, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_load_is_additive() {
        let n = 1000;
        let whole = block_load(n, DEFAULT_B, 0, n);
        let split = block_load(n, DEFAULT_B, 0, 400) + block_load(n, DEFAULT_B, 400, n);
        assert!((whole - split).abs() < 1e-7, "{whole} vs {split}");
    }

    #[test]
    fn block_load_positive_and_monotone_in_hi() {
        let n = 10_000;
        let mut prev = 0.0;
        for hi in [1u64, 10, 100, 1000, 10_000] {
            let l = block_load(n, DEFAULT_B, 0, hi);
            assert!(l > prev);
            prev = l;
        }
    }

    #[test]
    fn early_blocks_carry_more_load_per_node() {
        // Same node count, earlier labels => more expected requests.
        let n = 100_000;
        let early = block_load(n, DEFAULT_B, 0, 1000);
        let late = block_load(n, DEFAULT_B, 90_000, 91_000);
        assert!(early > 2.0 * late, "early={early}, late={late}");
    }

    #[test]
    fn total_load_is_about_bn() {
        // n·H_{n−1} + bn − n·H_n = bn − n(H_n − H_{n−1}) = bn − 1.
        let n = 50_000u64;
        let t = total_load(n, DEFAULT_B);
        assert!((t - (DEFAULT_B * n as f64 - 1.0)).abs() < 1e-6, "t = {t}");
    }

    #[test]
    fn boundaries_are_monotone_and_span_everything() {
        let bounds = solve_boundaries(100_000, 16, DEFAULT_B);
        assert_eq!(bounds.len(), 17);
        assert_eq!(bounds[0], 0);
        assert_eq!(bounds[16], 100_000);
        for w in bounds.windows(2) {
            assert!(w[0] < w[1], "boundaries must strictly increase");
        }
    }

    #[test]
    fn solved_loads_are_balanced() {
        let n = 100_000;
        let p = 8;
        let bounds = solve_boundaries(n, p, DEFAULT_B);
        let target = total_load(n, DEFAULT_B) / p as f64;
        // Integer boundaries cost at most one node's worth of load
        // (≤ H_{n−1} + b) per block; the final block absorbs the
        // accumulated rounding of all earlier ones.
        let per_node = crate::math::harmonic(n - 1) + DEFAULT_B + 1.0;
        for (i, w) in bounds.windows(2).enumerate() {
            let l = block_load(n, DEFAULT_B, w[0], w[1]);
            let tol = if i == p - 1 {
                p as f64 * per_node
            } else {
                per_node
            };
            assert!(
                (l - target).abs() <= tol,
                "block {i}: load {l} vs target {target}"
            );
        }
    }

    #[test]
    fn solved_sizes_increase_with_rank() {
        // Later ranks receive fewer requests so must hold more nodes.
        let bounds = solve_boundaries(100_000, 10, DEFAULT_B);
        let sizes: Vec<u64> = bounds.windows(2).map(|w| w[1] - w[0]).collect();
        for w in sizes.windows(2) {
            assert!(w[0] <= w[1], "sizes should be nondecreasing: {sizes:?}");
        }
        assert!(sizes[9] > sizes[0], "last rank must hold more than first");
    }

    #[test]
    fn single_rank_boundaries() {
        assert_eq!(solve_boundaries(100, 1, DEFAULT_B), vec![0, 100]);
    }

    #[test]
    fn linear_fit_recovers_exact_progression() {
        // Boundaries of a perfect arithmetic progression 10, 20, 30, 40.
        let bounds = vec![0u64, 10, 30, 60, 100];
        let (a, d) = linear_fit(&bounds);
        assert!((d - 10.0).abs() < 1e-9);
        assert!((a - 10.0).abs() < 1e-9);
    }

    #[test]
    fn linear_fit_single_partition() {
        assert_eq!(linear_fit(&[0, 42]), (42.0, 0.0));
    }

    #[test]
    fn fit_total_matches_n() {
        let bounds = solve_boundaries(123_457, 13, DEFAULT_B);
        let (a, d) = linear_fit(&bounds);
        let total: f64 = (0..13).map(|i| a + i as f64 * d).sum();
        assert!((total - 123_457.0).abs() < 1e-6, "total = {total}");
    }
}
