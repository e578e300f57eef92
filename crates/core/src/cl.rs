//! Extension: Chung–Lu random graphs with given expected degrees
//! (paper reference \[23\], Miller & Hagberg, WAW 2011).
//!
//! Each candidate edge `(i, j)` appears independently with probability
//! `min(1, w_i·w_j / S)` where `S = Σ w`. The Miller–Hagberg algorithm
//! samples a whole row in expected time proportional to its output by
//! combining geometric skipping with probability *rejection thinning*:
//! with weights sorted in non-increasing order the per-edge probability
//! is non-increasing along the row, so one can skip with the current
//! probability bound and accept with the true-to-bound ratio.
//!
//! Rows draw from per-row counter streams, so row partitioning
//! parallelizes with zero communication. [`generate_par`] feeds each
//! rank's UCP rows, in row order, into that rank's [`EdgeSink`]; the UCP
//! blocks are contiguous, so the sinks concatenated in rank order hold
//! exactly [`generate_seq`]'s edges in its order, at any rank count.

use crate::par::EdgeSink;
use crate::partition::{Partition, Ucp};
use crate::Node;
use pa_graph::EdgeList;
use pa_rng::{CounterRng, Rng64};

/// Configuration of a Chung–Lu network.
#[derive(Debug, Clone, PartialEq)]
pub struct ClConfig {
    /// Expected degree of every node, sorted in non-increasing order.
    weights: Vec<f64>,
    /// Σ w, cached.
    total: f64,
    /// Whether any weight had to be capped at √S.
    capped: bool,
    /// RNG seed.
    pub seed: u64,
}

impl ClConfig {
    /// Build from expected degrees. The weights are sorted internally
    /// (non-increasing), relabelling nodes by decreasing weight —
    /// standard for this model, where labels carry no meaning — and
    /// **capped** at `√S` (iterated to a fixpoint) so every pair
    /// probability `w_i·w_j/S` is a true probability. Capping slightly
    /// under-honors the expected degree of extreme hubs; uncapped
    /// sequences are honored exactly in expectation.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, contains non-finite or negative
    /// values, or sums to zero.
    pub fn new(mut weights: Vec<f64>, seed: u64) -> Self {
        assert!(!weights.is_empty(), "need at least one node");
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "weights must be finite and non-negative"
        );
        weights.sort_unstable_by(|a, b| b.partial_cmp(a).unwrap());
        let mut total: f64 = weights.iter().sum();
        assert!(total > 0.0, "total weight must be positive");
        // Cap at sqrt(S) until stable (the "erased" feasibility fix);
        // afterwards every w_i·w_j/S <= 1 by construction.
        let mut capped = false;
        loop {
            let cap = total.sqrt();
            if weights[0] <= cap {
                break;
            }
            capped = true;
            for w in weights.iter_mut() {
                if *w > cap {
                    *w = cap;
                } else {
                    break; // sorted: the rest are already below the cap
                }
            }
            total = weights.iter().sum();
        }
        Self {
            weights,
            total,
            capped,
            seed,
        }
    }

    /// True when no weight had to be capped, i.e. every pair probability
    /// was below one as given — the regime in which expected degrees are
    /// honored exactly.
    pub fn is_degree_faithful(&self) -> bool {
        !self.capped
    }

    /// Number of nodes.
    pub fn n(&self) -> u64 {
        self.weights.len() as u64
    }

    /// The (sorted) expected-degree sequence.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Expected number of edges `½ Σ_{i≠j} w_i w_j / S ≈ S/2` (exact up
    /// to the excluded diagonal).
    pub fn expected_edges(&self) -> f64 {
        let sq: f64 = self.weights.iter().map(|w| w * w).sum();
        (self.total * self.total - sq) / (2.0 * self.total)
    }
}

/// Power-law expected-degree sequence `w_i ∝ (i+1)^(−1/(γ−1))`, scaled
/// so the mean weight is `mean_deg` — the standard way to drive Chung–Lu
/// towards a scale-free target.
///
/// # Panics
///
/// Panics unless `gamma > 2` and `n >= 1`.
pub fn power_law_weights(n: u64, gamma: f64, mean_deg: f64) -> Vec<f64> {
    assert!(gamma > 2.0, "need gamma > 2 for a finite mean");
    assert!(n >= 1, "need at least one node");
    let exp = -1.0 / (gamma - 1.0);
    let raw: Vec<f64> = (0..n).map(|i| ((i + 1) as f64).powf(exp)).collect();
    let mean: f64 = raw.iter().sum::<f64>() / n as f64;
    raw.into_iter().map(|w| w * mean_deg / mean).collect()
}

/// Sample row `i` (edges `(i, j)` for `j > i`) into `sink`:
/// Miller–Hagberg skipping.
fn sample_row(cfg: &ClConfig, i: usize, sink: &mut impl EdgeSink) {
    let n = cfg.weights.len();
    let wi = cfg.weights[i];
    if wi == 0.0 || i + 1 >= n {
        return;
    }
    let mut rng = CounterRng::for_event(cfg.seed, i as u64, 0, 0);
    let mut j = i + 1;
    // Current probability bound: rows are sorted, so p_ij ≤ p at all
    // later j once set from the current position.
    let mut p = (wi * cfg.weights[j] / cfg.total).min(1.0);
    while j < n && p > 0.0 {
        if p < 1.0 {
            // Geometric skip with the bound p.
            let r = rng.next_f64();
            let skip = ((1.0 - r).ln() / (1.0 - p).ln()).floor() as usize;
            j += skip;
            if j >= n {
                break;
            }
        }
        // Accept with the true probability relative to the bound.
        let q = (wi * cfg.weights[j] / cfg.total).min(1.0);
        if rng.next_f64() < q / p {
            sink.emit(i as Node, j as Node);
        }
        p = q;
        j += 1;
    }
}

/// Generate sequentially.
pub fn generate_seq(cfg: &ClConfig) -> EdgeList {
    let mut edges = EdgeList::with_capacity(cfg.expected_edges() as usize + 16);
    for i in 0..cfg.weights.len() {
        sample_row(cfg, i, &mut edges);
    }
    edges
}

/// Generate on one rank per sink (row-partitioned by [`Ucp`], zero
/// communication, one scoped thread per rank): rank `r` samples its rows
/// in order into `sinks[r]`, and the sinks come back in rank order.
/// Concatenated, they equal [`generate_seq`] edge for edge.
///
/// # Panics
///
/// Panics if `sinks` is empty; a rank's panic is resumed on the caller.
pub fn generate_par<S: EdgeSink + Send>(cfg: &ClConfig, sinks: Vec<S>) -> Vec<S> {
    let part = Ucp::new(cfg.n(), sinks.len());
    std::thread::scope(|s| {
        let ranks: Vec<_> = sinks
            .into_iter()
            .enumerate()
            .map(|(rank, mut sink)| {
                let part = &part;
                s.spawn(move || {
                    for u in part.nodes_of(rank) {
                        sample_row(cfg, u as usize, &mut sink);
                    }
                    sink
                })
            })
            .collect();
        ranks
            .into_iter()
            .map(|rank| rank.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pa_graph::degrees;

    #[test]
    fn parallel_equals_sequential() {
        let cfg = ClConfig::new(power_law_weights(2_000, 2.5, 4.0), 3);
        assert!(!cfg.is_degree_faithful(), "heavy-tailed weights get capped");
        let reference = generate_seq(&cfg);
        for nranks in [1usize, 3, 8] {
            let parts = generate_par(&cfg, vec![EdgeList::new(); nranks]);
            assert_eq!(EdgeList::concat(parts), reference, "{nranks} ranks");
        }
    }

    #[test]
    fn graph_is_simple() {
        let cfg = ClConfig::new(power_law_weights(1_000, 2.8, 5.0), 1);
        let edges = generate_seq(&cfg);
        assert!(pa_graph::validate::check_simple(1_000, &edges).is_empty());
    }

    #[test]
    fn edge_count_matches_expectation() {
        let cfg = ClConfig::new(power_law_weights(5_000, 3.0, 3.0), 7);
        assert!(cfg.is_degree_faithful());
        let m = generate_seq(&cfg).len() as f64;
        let expect = cfg.expected_edges();
        assert!(
            (m - expect).abs() < 6.0 * expect.sqrt(),
            "m = {m}, expected {expect}"
        );
    }

    #[test]
    fn expected_degrees_are_honored() {
        // Average degree of the heaviest and lightest deciles should
        // track their weights.
        let n = 4_000u64;
        let cfg = ClConfig::new(power_law_weights(n, 3.0, 3.0), 5);
        assert!(cfg.is_degree_faithful());
        let edges = generate_seq(&cfg);
        let deg = degrees::degree_sequence(n as usize, &edges);
        let decile = (n / 10) as usize;
        let mean = |r: std::ops::Range<usize>| {
            let len = r.len() as f64;
            let (dsum, wsum) = r.fold((0.0, 0.0), |(d, w), i| {
                (d + deg[i] as f64, w + cfg.weights()[i])
            });
            (dsum / len, wsum / len)
        };
        let (d_top, w_top) = mean(0..decile);
        let (d_bot, w_bot) = mean((n as usize - decile)..n as usize);
        assert!(
            (d_top / w_top - 1.0).abs() < 0.15,
            "top decile: degree {d_top:.2} vs weight {w_top:.2}"
        );
        assert!(
            (d_bot / w_bot - 1.0).abs() < 0.25,
            "bottom decile: degree {d_bot:.2} vs weight {w_bot:.2}"
        );
    }

    #[test]
    fn uniform_weights_reduce_to_er() {
        // All weights equal w: p = w²/(nw) = w/n for every pair.
        let n = 2_000usize;
        let w = 5.0;
        let cfg = ClConfig::new(vec![w; n], 11);
        let m = generate_seq(&cfg).len() as f64;
        let p = w / n as f64;
        let expect = p * (n * (n - 1) / 2) as f64;
        assert!(
            (m - expect).abs() < 6.0 * expect.sqrt(),
            "m = {m} vs {expect}"
        );
    }

    #[test]
    fn power_law_weights_have_requested_mean() {
        let w = power_law_weights(10_000, 2.5, 7.0);
        let mean: f64 = w.iter().sum::<f64>() / w.len() as f64;
        assert!((mean - 7.0).abs() < 1e-9);
        // And they decay.
        assert!(w[0] > w[9_999]);
    }

    #[test]
    fn oversized_weights_are_capped_to_feasibility() {
        let cfg = ClConfig::new(vec![100.0, 1.0, 1.0], 0);
        assert!(!cfg.is_degree_faithful(), "capping must be reported");
        // Feasibility restored: every pair probability is at most one.
        assert!(cfg.weights()[0] * cfg.weights()[0] <= cfg.weights().iter().sum::<f64>() + 1e-9);
        // Untouched weights survive.
        assert_eq!(cfg.weights()[1], 1.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_weight_panics() {
        let _ = ClConfig::new(vec![f64::NAN, 1.0], 0);
    }
}
