//! Extension: Watts–Strogatz small-world networks (paper §1's second
//! reference model).
//!
//! A ring lattice where each node connects to its `k` nearest neighbors,
//! with every edge rewired to a uniformly random endpoint with
//! probability `beta`. Included (sequentially) to round out the family
//! of generators the paper situates itself against.

use crate::Node;
use pa_graph::EdgeList;
use pa_rng::Rng64;
use std::collections::HashSet;

/// Configuration of a Watts–Strogatz network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WsConfig {
    /// Number of nodes.
    pub n: u64,
    /// Even number of lattice neighbors per node (`k/2` on each side).
    pub k: u64,
    /// Rewiring probability.
    pub beta: f64,
    /// RNG seed (consumed through the caller-provided stream generator).
    pub seed: u64,
}

impl WsConfig {
    /// Create a configuration.
    ///
    /// # Panics
    ///
    /// Panics unless `k` is even, `0 < k < n`, and `0 <= beta <= 1`.
    pub fn new(n: u64, k: u64, beta: f64) -> Self {
        assert!(k.is_multiple_of(2), "k must be even");
        assert!(k > 0 && k < n, "need 0 < k < n");
        assert!((0.0..=1.0).contains(&beta), "beta must lie in [0, 1]");
        Self {
            n,
            k,
            beta,
            seed: 0,
        }
    }

    /// Replace the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The lattice edge count `n·k/2` (rewiring preserves it).
    pub fn num_edges(&self) -> u64 {
        self.n * self.k / 2
    }
}

/// Generate a Watts–Strogatz network. Each edge is emitted once as
/// `(lo, hi)`, in sorted order, so a fixed seed gives the same list.
pub fn generate(cfg: &WsConfig, rng: &mut impl Rng64) -> EdgeList {
    let (n, half) = (cfg.n, cfg.k / 2);
    // Track adjacency for duplicate avoidance during rewiring.
    let mut adj: HashSet<(Node, Node)> = HashSet::with_capacity(2 * cfg.num_edges() as usize);
    let key = |a: Node, b: Node| if a < b { (a, b) } else { (b, a) };
    // Ring lattice.
    for u in 0..n {
        for j in 1..=half {
            let v = (u + j) % n;
            adj.insert(key(u, v));
        }
    }
    // Rewire each lattice edge (u, u+j) with probability beta.
    for u in 0..n {
        for j in 1..=half {
            let v = (u + j) % n;
            if !rng.gen_bool(cfg.beta) {
                continue;
            }
            // A node adjacent to everyone cannot be rewired.
            let mut tries = 0;
            loop {
                let w = rng.gen_below(n);
                if w != u && !adj.contains(&key(u, w)) {
                    adj.remove(&key(u, v));
                    adj.insert(key(u, w));
                    break;
                }
                tries += 1;
                if tries > 4 * n {
                    break; // saturated node; keep the lattice edge
                }
            }
        }
    }
    let mut edges: Vec<(Node, Node)> = adj.into_iter().collect();
    edges.sort_unstable();
    EdgeList::from_vec(edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pa_rng::Xoshiro256pp;

    #[test]
    fn beta_zero_is_the_ring_lattice() {
        let cfg = WsConfig::new(20, 4, 0.0);
        let edges = generate(&cfg, &mut Xoshiro256pp::new(1));
        assert_eq!(edges.len() as u64, cfg.num_edges());
        let csr = pa_graph::Csr::from_edges(20, &edges);
        for v in 0..20 {
            assert_eq!(csr.degree(v), 4, "lattice degree");
        }
        // Lattices are highly clustered.
        assert!(csr.clustering_coefficient(0) > 0.4);
    }

    #[test]
    fn rewiring_preserves_edge_count_and_simplicity() {
        for beta in [0.1, 0.5, 1.0] {
            let cfg = WsConfig::new(200, 6, beta);
            let edges = generate(&cfg, &mut Xoshiro256pp::new(7));
            assert_eq!(edges.len() as u64, cfg.num_edges(), "beta = {beta}");
            assert!(pa_graph::validate::check_simple(200, &edges).is_empty());
        }
    }

    #[test]
    fn a_fixed_seed_gives_the_same_edge_order() {
        // Two runs build two adjacency sets with different hash keys;
        // the emitted list must not depend on either's iteration order.
        let cfg = WsConfig::new(2_000, 4, 0.3).with_seed(5);
        let a = generate(&cfg, &mut Xoshiro256pp::new(5));
        let b = generate(&cfg, &mut Xoshiro256pp::new(5));
        assert_eq!(a.as_slice(), b.as_slice());
        assert!(a.as_slice().is_sorted());
    }

    #[test]
    fn small_world_effect_shortens_paths() {
        // Even light rewiring collapses the ring's O(n/k) diameter.
        let n = 500u64;
        let lattice = generate(&WsConfig::new(n, 4, 0.0), &mut Xoshiro256pp::new(3));
        let small = generate(
            &WsConfig::new(n, 4, 0.2).with_seed(3),
            &mut Xoshiro256pp::new(3),
        );
        let far = |el: &EdgeList| {
            let csr = pa_graph::Csr::from_edges(n as usize, el);
            let d = csr.bfs_distances(0);
            d.iter().copied().filter(|&x| x != u64::MAX).max().unwrap()
        };
        let d_lattice = far(&lattice);
        let d_small = far(&small);
        assert!(
            d_small * 3 < d_lattice,
            "rewired eccentricity {d_small} should be far below lattice {d_lattice}"
        );
    }

    #[test]
    #[should_panic(expected = "k must be even")]
    fn odd_k_panics() {
        let _ = WsConfig::new(10, 3, 0.1);
    }
}
