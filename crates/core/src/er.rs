//! Extension: parallel Erdős–Rényi G(n, p) generation.
//!
//! The paper's conclusion calls for "scalable parallel algorithms for
//! other classes of random networks"; Erdős–Rényi is the canonical first
//! target, and — unlike preferential attachment — its edges are mutually
//! independent, so the Batagelj–Brandes geometric-skip sampler
//! parallelizes embarrassingly: partition the rows (each node `u` owns
//! its candidate edges `(u, v)` with `v < u`) and let each rank sample
//! its rows with no communication at all. Rows draw from per-row counter
//! streams, so the generated graph is independent of the rank count.

use crate::partition::{Partition, Ucp};
use crate::Node;
use pa_graph::EdgeList;
use pa_mpsim::{Transport, World};
use pa_rng::{CounterRng, Rng64};

/// Configuration of a G(n, p) network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErConfig {
    /// Number of nodes.
    pub n: u64,
    /// Independent edge probability.
    pub p: f64,
    /// RNG seed.
    pub seed: u64,
}

impl ErConfig {
    /// Create a configuration.
    ///
    /// # Panics
    ///
    /// Panics unless `n >= 1` and `0 <= p <= 1`.
    pub fn new(n: u64, p: f64) -> Self {
        assert!(n >= 1, "need at least one node");
        assert!((0.0..=1.0).contains(&p), "p must lie in [0, 1]");
        Self { n, p, seed: 0 }
    }

    /// Replace the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Expected number of edges, `p · n(n−1)/2`.
    pub fn expected_edges(&self) -> f64 {
        self.p * (self.n as f64) * (self.n as f64 - 1.0) / 2.0
    }
}

/// Sample row `u` (edges `(u, v)` with `v < u`) with geometric skipping:
/// instead of `u` Bernoulli trials, jump straight to the next success
/// with `skip = ⌊ln(1−U) / ln(1−p)⌋` (Batagelj & Brandes 2005).
fn sample_row(cfg: &ErConfig, u: Node, edges: &mut EdgeList) {
    if cfg.p <= 0.0 {
        return;
    }
    if cfg.p >= 1.0 {
        for v in 0..u {
            edges.push(u, v);
        }
        return;
    }
    let mut rng = CounterRng::for_event(cfg.seed, u, 0, 0);
    let log1p = (1.0 - cfg.p).ln();
    let mut v: u64 = 0;
    loop {
        let r = rng.next_f64();
        // ln(1−r) is finite: next_f64 < 1.
        let skip = ((1.0 - r).ln() / log1p).floor() as u64;
        v = v.saturating_add(skip);
        if v >= u {
            break;
        }
        edges.push(u, v);
        v += 1;
    }
}

/// Generate G(n, p) sequentially.
pub fn generate_seq(cfg: &ErConfig) -> EdgeList {
    let mut edges = EdgeList::with_capacity(cfg.expected_edges() as usize + 16);
    for u in 0..cfg.n {
        sample_row(cfg, u, &mut edges);
    }
    edges
}

/// Generate G(n, p) on `nranks` ranks (row-partitioned, zero
/// communication). The concatenated output equals [`generate_seq`] up to
/// edge order.
///
/// # Panics
///
/// Panics if `nranks == 0`.
pub fn generate_par(cfg: &ErConfig, nranks: usize) -> EdgeList {
    let part = Ucp::new(cfg.n, nranks);
    let world = World::new(nranks);
    let parts: Vec<EdgeList> = world.run(|comm: pa_mpsim::Comm<()>| {
        let mut edges = EdgeList::new();
        for u in part.nodes_of(comm.rank()) {
            sample_row(cfg, u, &mut edges);
        }
        edges
    });
    EdgeList::concat(parts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_equals_sequential_for_any_rank_count() {
        let cfg = ErConfig::new(2_000, 0.01).with_seed(5);
        let reference = generate_seq(&cfg).canonicalized();
        for nranks in [1usize, 2, 5, 8] {
            assert_eq!(
                generate_par(&cfg, nranks).canonicalized(),
                reference,
                "P = {nranks}"
            );
        }
    }

    #[test]
    fn edge_count_matches_expectation() {
        let cfg = ErConfig::new(3_000, 0.02).with_seed(1);
        let m = generate_seq(&cfg).len() as f64;
        let expect = cfg.expected_edges();
        let sigma = (expect * (1.0 - cfg.p)).sqrt();
        assert!(
            (m - expect).abs() < 6.0 * sigma,
            "m = {m}, expected {expect} ± {sigma}"
        );
    }

    #[test]
    fn graph_is_simple() {
        let cfg = ErConfig::new(1_000, 0.05).with_seed(9);
        let edges = generate_seq(&cfg);
        assert!(pa_graph::validate::check_simple(1_000, &edges).is_empty());
    }

    #[test]
    fn p_zero_and_one_extremes() {
        let empty = generate_seq(&ErConfig::new(100, 0.0));
        assert!(empty.is_empty());
        let full = generate_seq(&ErConfig::new(50, 1.0));
        assert_eq!(full.len(), 50 * 49 / 2);
    }

    #[test]
    fn degree_distribution_is_binomial_not_heavy_tailed() {
        // Contrast with PA: ER max degree stays near the mean.
        let cfg = ErConfig::new(5_000, 0.004).with_seed(3);
        let edges = generate_seq(&cfg);
        let deg = pa_graph::degrees::degree_sequence(5_000, &edges);
        let stats = pa_graph::degrees::degree_stats(&deg).unwrap();
        assert!(
            (stats.max as f64) < stats.mean * 4.0 + 20.0,
            "ER should have no hubs: max {} mean {}",
            stats.max,
            stats.mean
        );
    }
}
