//! The attachment model over the counter-based draw streams.
//!
//! Every engine in this workspace — the sequential reference generator,
//! Algorithm 3.1's request/resolved protocol, Algorithm 3.2's in-order
//! slots, and engine3's local chain recomputation — consumes attachment
//! randomness through exactly one interface: [`Model`] maps the event key
//! `(seed, node, edge, attempt)` to a [`Choice`], and the engine resolves
//! that choice into a concrete target (directly, over the wire, or by
//! recomputing the referenced row). Keeping the mapping pure and
//! counter-addressed is what makes the engines interchangeable.
//!
//! The model is the paper's copy model (Kumar et al., §3.1): draw
//! `k ∈ [x, t)` uniformly, connect directly with probability `p`, else
//! copy `F_k(l)`. `p = ½` is exactly degree-proportional attachment;
//! other values of `p` move the degree exponent along the same linear
//! family, `γ ≈ 1 + 1/(1 − p)`.

use crate::seq::{draw_choice_keyed, Choice};
use crate::{Node, PaConfig};
use pa_rng::EventKeys;

/// Which attachment model a run generates. The copy model is the only
/// one; the type stays because the run tuple carries its wire id
/// (`pa_graph::job::JobSpec::model_id`, always 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// The paper's linear copy model.
    Pa,
}

impl ModelKind {
    /// Stable discriminant in the run tuple and the checkpoint identity.
    /// Id 1 was retired with the `p^α` variant of the copy model, and
    /// `JobDescriptor::from_raw` rejects it by name.
    pub fn id(&self) -> u8 {
        match self {
            ModelKind::Pa => 0,
        }
    }
}

/// The copy model resolved against a concrete [`PaConfig`]: the engines'
/// one stop for attachment draws. `Copy` and three words — every engine
/// embeds one by value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Model {
    x: u64,
    seed: u64,
    p: f64,
}

impl Model {
    /// Resolve `kind` against `cfg`.
    pub fn resolve(cfg: &PaConfig, kind: ModelKind) -> Self {
        let ModelKind::Pa = kind;
        Model {
            x: cfg.x,
            seed: cfg.seed,
            p: cfg.p,
        }
    }

    /// Hoist the `(seed, t)` key prefix for node `t`'s draws (one mix
    /// per node instead of three per event; see [`EventKeys`]).
    #[inline]
    pub fn keys_for(&self, t: Node) -> EventKeys {
        EventKeys::for_node(self.seed, t)
    }

    /// Draw the [`Choice`] for attachment event `(t, e, attempt)`.
    ///
    /// # Panics
    ///
    /// Panics if `t <= x` (seed-clique nodes and node `x` do not draw).
    pub fn draw(&self, t: Node, e: u32, attempt: u32) -> Choice {
        assert!(t > self.x, "node {t} does not draw (x = {})", self.x);
        self.draw_keyed(&self.keys_for(t), t, e, attempt)
    }

    /// [`Model::draw`] with the key prefix already hoisted.
    #[inline]
    pub fn draw_keyed(&self, keys: &EventKeys, t: Node, e: u32, attempt: u32) -> Choice {
        draw_choice_keyed(keys, self.p, self.x, t, e, attempt)
    }

    /// Batch-draw the attempt-0 [`Choice`]s for node `t`'s whole edge
    /// row into `out` (cleared first) — engine 3's draw pass, once per
    /// node of a block.
    pub fn draw_row(&self, keys: &EventKeys, t: Node, out: &mut Vec<Choice>) {
        debug_assert!(t > self.x, "node {t} does not draw (x = {})", self.x);
        out.clear();
        out.reserve(self.x as usize);
        for e in 0..self.x as u32 {
            out.push(self.draw_keyed(keys, t, e, 0));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> PaConfig {
        PaConfig::new(1_000, 4).with_seed(41)
    }

    #[test]
    fn pa_model_matches_the_raw_draw_functions() {
        let m = Model::resolve(&cfg(), ModelKind::Pa);
        let keys = m.keys_for(100);
        for e in 0..4u32 {
            for attempt in [0u32, 1, 7] {
                assert_eq!(
                    m.draw_keyed(&keys, 100, e, attempt),
                    crate::seq::draw_choice(41, 0.5, 4, 100, e, attempt)
                );
                assert_eq!(
                    m.draw(100, e, attempt),
                    m.draw_keyed(&keys, 100, e, attempt)
                );
            }
        }
        let mut row = Vec::new();
        m.draw_row(&keys, 100, &mut row);
        assert_eq!(row.len(), 4);
        for (e, c) in row.iter().enumerate() {
            assert_eq!(*c, m.draw(100, e as u32, 0));
        }
    }

    #[test]
    fn ids_and_names_are_stable() {
        assert_eq!(ModelKind::Pa.id(), 0);
    }

    #[test]
    #[should_panic(expected = "does not draw")]
    fn seed_nodes_do_not_draw() {
        let m = Model::resolve(&cfg(), ModelKind::Pa);
        let _ = m.draw(4, 0, 0);
    }
}
