//! Replicated cache of low-label ("hub") `F` slots.
//!
//! Lemma 3.4: the expected number of requests targeting node `k` is
//! `(1-p)(H_{n-1} − H_k)` — request traffic concentrates sharply on the
//! lowest-labelled nodes. Each rank therefore keeps a replica of the
//! first `H` nodes' `F` rows, and engine 2's copy lookup consults it before
//! emitting a remote request.
//!
//! **Computed, not sent.** Every row is a pure function of the job tuple,
//! so each rank fills the whole replica at construction by running the
//! sequential generator's attempt loop ([`crate::seq::fill_rows`], the
//! one copy the oracle runs too) over labels `< H`: `H·x` draws, no
//! message. The replica is therefore complete before the first node
//! draws, a hit is byte-for-byte the committed `F_k(l)` a `resolved`
//! message would carry, and the edge set is unchanged (see DESIGN.md).
//! Only `k ≥ H` takes the request path. Nothing about the replica is
//! checkpointed: a restored rank recomputes it.

use crate::{Model, Node, PaConfig, NILL};

/// Per-rank replica of the first `H` nodes' `F` rows.
#[derive(Debug)]
pub(super) struct HubCache {
    /// Number of hub nodes covered (`H`, already capped at `n`).
    nodes: u64,
    x: u64,
    /// `H·x` slots; the seed clique's rows stay `NILL` (never looked up).
    vals: Vec<Node>,
}

impl HubCache {
    /// Compute the replica of the first `hub_nodes` nodes (capped at
    /// `cfg.n`) under `model`; `0` builds an empty one.
    pub fn new(cfg: &PaConfig, model: &Model, hub_nodes: u64) -> Self {
        let nodes = hub_nodes.min(cfg.n);
        let mut vals = vec![NILL; (nodes * cfg.x) as usize];
        crate::seq::fill_rows(model, cfg.x, &mut vals, |_, _| {});
        Self {
            nodes,
            x: cfg.x,
            vals,
        }
    }

    /// The replicated `F_k(l)`, if `k` is a hub node.
    #[inline]
    pub fn get(&self, k: Node, l: u32) -> Option<Node> {
        (k < self.nodes).then(|| self.vals[(k * self.x) as usize + l as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelKind;

    fn cfg() -> PaConfig {
        PaConfig::new(100, 3).with_seed(5)
    }

    fn cache(hub_nodes: u64) -> HubCache {
        HubCache::new(&cfg(), &Model::resolve(&cfg(), ModelKind::Pa), hub_nodes)
    }

    #[test]
    fn covers_and_caps_at_n() {
        let c = cache(1_000);
        assert!(c.get(99, 0).is_some());
        assert_eq!(c.get(100, 0), None);
        let small = cache(10);
        assert!(small.get(9, 2).is_some());
        assert_eq!(small.get(10, 0), None);
    }

    #[test]
    fn node_x_row_is_preseeded() {
        let c = cache(10);
        for e in 0..3 {
            assert_eq!(
                c.get(3, e),
                Some(u64::from(e)),
                "node x attaches to the clique"
            );
        }
    }

    #[test]
    fn rows_are_the_sequential_generators() {
        let c = &cache(40);
        let want: Vec<(Node, Node)> = crate::seq::copy_model(&cfg())
            .iter()
            .filter(|&(t, _)| (3..40).contains(&t))
            .collect();
        let got: Vec<(Node, Node)> = (3..40)
            .flat_map(|t| (0..3).map(move |l| (t, c.get(t, l).unwrap())))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn disabled_cache_misses_everything() {
        let c = cache(0);
        assert_eq!(c.get(0, 0), None);
        assert_eq!(c.get(5, 1), None);
    }

    #[test]
    fn tiny_hub_smaller_than_clique_skips_preseed() {
        let c = cache(2);
        assert_eq!(c.get(2, 0), None);
        assert_eq!(c.get(3, 0), None);
    }
}
