//! Replicated cache of low-label ("hub") `F` slots.
//!
//! Lemma 3.4: the expected number of requests targeting node `k` is
//! `(1-p)(H_{n-1} − H_k)` — request traffic concentrates sharply on the
//! lowest-labelled nodes. Each rank therefore keeps a read-mostly replica
//! of the first `H` nodes' committed `F` slots. Owners broadcast a
//! [`crate::par::msg::Msg::Hub`] update when they commit a hub slot (piggybacked
//! on the existing resolved-message flushes), and `start_edge` consults the
//! replica before emitting a remote request.
//!
//! **Exactness.** A cache entry for `(k, l)` is only ever the committed
//! value `F_k(l)`, i.e. byte-for-byte what a `resolved` message for the
//! same `(k, l)` would carry, and committed slots never change. A cache hit
//! therefore feeds `start_edge` the identical candidate value the paper's
//! request/resolved round trip would have produced — only sooner — so the
//! generated edge set is unchanged (see DESIGN.md). A miss (slot not yet
//! broadcast, or `k ≥ H`) falls back to the request path unchanged.
//!
//! The replica is never checkpointed. A restored rank starts from the
//! fresh, pre-seeded one; broadcasts sent before the cut are gone, so a
//! miss on a label below the cut asks the owner instead of waiting.

use crate::{Node, PaConfig, NILL};

/// Per-rank replica of the first `H` nodes' `F` slots.
#[derive(Debug)]
pub(super) struct HubCache {
    /// Number of hub nodes covered (`H`, already capped at `n`).
    nodes: u64,
    x: u64,
    /// `H·x` slots, `NILL` = not yet known on this rank.
    vals: Vec<Node>,
}

impl HubCache {
    /// Build the replica for `hub_nodes` nodes (capped at `cfg.n`).
    ///
    /// Node `x`'s row is pre-seeded: it attaches deterministically to the
    /// seed clique (`F_x(e) = e`), so every rank knows it without traffic.
    pub fn new(cfg: &PaConfig, hub_nodes: u64) -> Self {
        let nodes = hub_nodes.min(cfg.n);
        let mut vals = vec![NILL; (nodes * cfg.x) as usize];
        if nodes > cfg.x {
            for e in 0..cfg.x {
                vals[(cfg.x * cfg.x + e) as usize] = e;
            }
        }
        Self {
            nodes,
            x: cfg.x,
            vals,
        }
    }

    /// An always-empty cache (used when the feature is disabled).
    pub fn disabled(cfg: &PaConfig) -> Self {
        Self {
            nodes: 0,
            x: cfg.x,
            vals: Vec::new(),
        }
    }

    /// Is node `k` inside the replicated hub range?
    #[inline]
    pub fn covers(&self, k: Node) -> bool {
        k < self.nodes
    }

    /// The replicated `F_k(l)`, if `k` is a hub node and the owner's
    /// commit has reached this rank.
    #[inline]
    pub fn get(&self, k: Node, l: u32) -> Option<Node> {
        if k >= self.nodes {
            return None;
        }
        let v = self.vals[(k * self.x) as usize + l as usize];
        (v != NILL).then_some(v)
    }

    /// Install a broadcast commit `F_k(l) = v`.
    #[inline]
    pub fn insert(&mut self, k: Node, l: u32, v: Node) {
        debug_assert!(k < self.nodes, "hub broadcast outside cache range");
        let slot = (k * self.x) as usize + l as usize;
        debug_assert!(
            self.vals[slot] == NILL || self.vals[slot] == v,
            "conflicting hub broadcast for ({k},{l})"
        );
        self.vals[slot] = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> PaConfig {
        PaConfig::new(100, 3)
    }

    #[test]
    fn covers_and_caps_at_n() {
        let c = HubCache::new(&cfg(), 1_000);
        assert!(c.covers(99));
        assert!(!c.covers(100));
        let small = HubCache::new(&cfg(), 10);
        assert!(small.covers(9));
        assert!(!small.covers(10));
    }

    #[test]
    fn node_x_row_is_preseeded() {
        let c = HubCache::new(&cfg(), 10);
        for e in 0..3 {
            assert_eq!(c.get(3, e), Some(u64::from(e)));
        }
        assert_eq!(c.get(4, 0), None, "non-seed rows start unknown");
    }

    #[test]
    fn insert_then_get() {
        let mut c = HubCache::new(&cfg(), 10);
        assert_eq!(c.get(5, 1), None);
        c.insert(5, 1, 2);
        assert_eq!(c.get(5, 1), Some(2));
        assert_eq!(c.get(5, 0), None, "sibling slots stay unknown");
    }

    #[test]
    fn disabled_cache_misses_everything() {
        let c = HubCache::disabled(&cfg());
        assert!(!c.covers(0));
        assert_eq!(c.get(0, 0), None);
    }

    #[test]
    fn tiny_hub_smaller_than_clique_skips_preseed() {
        let c = HubCache::new(&cfg(), 2);
        assert_eq!(c.get(1, 0), None);
        assert!(!c.covers(3));
    }
}
