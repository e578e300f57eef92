//! Extension: R-MAT recursive-matrix graphs (paper reference \[7\],
//! Chakrabarti, Zhan & Faloutsos, SDM 2004).
//!
//! Each edge picks its endpoints by recursively descending a 2×2
//! quadrant split of the adjacency matrix with probabilities
//! `(a, b, c, d)`; skewed splits produce heavy-tailed degrees. Edges are
//! mutually independent, so generation is embarrassingly parallel; each
//! edge draws from its own counter stream keyed by the edge index, so
//! the output is independent of the rank count (as with the ER and
//! Chung–Lu extensions).
//!
//! R-MAT natively emits a directed multigraph with possible self-loops
//! (the Graph500 convention); use [`pa_graph::EdgeList::simplify`] when
//! a simple graph is required.

use crate::Node;
use pa_graph::EdgeList;
use pa_mpsim::{Transport, World};
use pa_rng::{CounterRng, Rng64};

/// Configuration of an R-MAT graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RmatConfig {
    /// log2 of the node count (`n = 2^scale`).
    pub scale: u32,
    /// Number of edges to sample.
    pub edges: u64,
    /// Quadrant probabilities; must be non-negative and sum to 1.
    pub a: f64,
    /// Top-right quadrant probability.
    pub b: f64,
    /// Bottom-left quadrant probability.
    pub c: f64,
    /// RNG seed.
    pub seed: u64,
}

impl RmatConfig {
    /// Graph500-style defaults: `(a, b, c, d) = (0.57, 0.19, 0.19, 0.05)`
    /// with `edges = 16·n` unless overridden.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is 0 or exceeds 62.
    pub fn graph500(scale: u32) -> Self {
        assert!(scale > 0 && scale <= 62, "scale must be in 1..=62");
        Self {
            scale,
            edges: 16u64 << scale,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            seed: 0,
        }
    }

    /// Override the edge count.
    pub fn with_edges(mut self, edges: u64) -> Self {
        self.edges = edges;
        self
    }

    /// Override the quadrant probabilities (the fourth is `1 − a − b − c`).
    ///
    /// # Panics
    ///
    /// Panics if any probability is negative or `a + b + c > 1`.
    pub fn with_probs(mut self, a: f64, b: f64, c: f64) -> Self {
        assert!(
            a >= 0.0 && b >= 0.0 && c >= 0.0,
            "probabilities must be non-negative"
        );
        assert!(a + b + c <= 1.0 + 1e-12, "a + b + c must not exceed 1");
        self.a = a;
        self.b = b;
        self.c = c;
        self
    }

    /// Override the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Number of nodes, `2^scale`.
    pub fn n(&self) -> u64 {
        1u64 << self.scale
    }
}

/// Sample one edge by recursive quadrant descent.
fn sample_edge(cfg: &RmatConfig, index: u64) -> (Node, Node) {
    let mut rng = CounterRng::for_event(cfg.seed, index, 0, 0);
    let (mut u, mut v) = (0u64, 0u64);
    for level in (0..cfg.scale).rev() {
        let r = rng.next_f64();
        let bit = 1u64 << level;
        if r < cfg.a {
            // top-left: neither bit set
        } else if r < cfg.a + cfg.b {
            v |= bit;
        } else if r < cfg.a + cfg.b + cfg.c {
            u |= bit;
        } else {
            u |= bit;
            v |= bit;
        }
    }
    (u, v)
}

/// Generate sequentially (directed multigraph semantics).
pub fn generate_seq(cfg: &RmatConfig) -> EdgeList {
    let mut edges = EdgeList::with_capacity(cfg.edges as usize);
    for i in 0..cfg.edges {
        let (u, v) = sample_edge(cfg, i);
        edges.push(u, v);
    }
    edges
}

/// Generate on `nranks` ranks (edge-partitioned, zero communication);
/// equal to [`generate_seq`] up to edge order.
///
/// # Panics
///
/// Panics if `nranks == 0`.
pub fn generate_par(cfg: &RmatConfig, nranks: usize) -> EdgeList {
    assert!(nranks > 0, "need at least one rank");
    let world = World::new(nranks);
    let per = cfg.edges.div_ceil(nranks as u64);
    let parts: Vec<EdgeList> = world.run(|comm: pa_mpsim::Comm<()>| {
        let rank = comm.rank() as u64;
        let lo = rank * per;
        let hi = ((rank + 1) * per).min(cfg.edges);
        let mut edges = EdgeList::with_capacity(hi.saturating_sub(lo) as usize);
        for i in lo..hi {
            let (u, v) = sample_edge(cfg, i);
            edges.push(u, v);
        }
        edges
    });
    EdgeList::concat(parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pa_graph::degrees;

    #[test]
    fn parallel_equals_sequential() {
        let cfg = RmatConfig::graph500(10).with_edges(8_000).with_seed(3);
        let reference = generate_seq(&cfg).canonicalized();
        for nranks in [1usize, 3, 8] {
            assert_eq!(generate_par(&cfg, nranks).canonicalized(), reference);
        }
    }

    #[test]
    fn endpoints_stay_in_range() {
        let cfg = RmatConfig::graph500(8).with_edges(5_000).with_seed(1);
        let edges = generate_seq(&cfg);
        assert_eq!(edges.len(), 5_000);
        let n = cfg.n();
        for (u, v) in edges.iter() {
            assert!(u < n && v < n);
        }
    }

    #[test]
    fn skewed_probs_produce_hubs_uniform_probs_do_not() {
        let n_edges = 40_000u64;
        let max_deg = |a: f64, b: f64, c: f64| {
            let cfg = RmatConfig::graph500(12)
                .with_edges(n_edges)
                .with_probs(a, b, c)
                .with_seed(9);
            let el = generate_seq(&cfg).simplify();
            let deg = degrees::degree_sequence(cfg.n() as usize, &el);
            degrees::degree_stats(&deg).unwrap().max
        };
        let skewed = max_deg(0.57, 0.19, 0.19);
        let uniform = max_deg(0.25, 0.25, 0.25);
        assert!(
            skewed > 3 * uniform,
            "skewed R-MAT should grow hubs: {skewed} vs uniform {uniform}"
        );
    }

    #[test]
    fn simplify_yields_valid_simple_graph() {
        let cfg = RmatConfig::graph500(9).with_edges(20_000).with_seed(4);
        let el = generate_seq(&cfg).simplify();
        assert!(
            el.len() < 20_000,
            "dedup must remove something at this density"
        );
        assert!(pa_graph::validate::check_simple(cfg.n(), &el).is_empty());
    }

    #[test]
    #[should_panic(expected = "must not exceed 1")]
    fn bad_probs_panic() {
        let _ = RmatConfig::graph500(5).with_probs(0.6, 0.3, 0.2);
    }
}
