//! The attachment-model abstraction over the counter-based draw streams.
//!
//! Every engine in this workspace — the sequential reference generator,
//! Algorithm 3.1's request/resolved protocol, Algorithm 3.2's in-order
//! slots, and engine3's local chain recomputation — consumes attachment
//! randomness through exactly one interface: a *model* maps the event key
//! `(seed, node, edge, attempt)` to a [`Choice`], and the engine resolves
//! that choice into a concrete target (directly, over the wire, or by
//! recomputing the referenced row). Keeping the mapping pure and
//! counter-addressed is what makes the engines interchangeable *and*
//! model-generic: a new model plugs in here and inherits every resolution
//! mechanism, every partition scheme, chaos injection, and
//! checkpoint/restart for free.
//!
//! Two models ship today:
//!
//! * [`ModelKind::Pa`] — the paper's copy model (Kumar et al.): draw
//!   `k ∈ [x, t)` uniformly, connect directly with probability `p`, else
//!   copy `F_k(l)`. `p = ½` is exactly degree-proportional attachment.
//! * [`ModelKind::Nlpa`] — nonlinear preferential attachment with
//!   exponent `α` (after Allendorf–Meyer–Penschuck–Tran): attachment
//!   proportional to `degree^α` shifts the power-law tail. This
//!   implementation is a *redirection surrogate*: the copy-model
//!   direct-vs-copy coin is re-weighted to `p_eff = p^α`, preserving the
//!   pure `(seed, node, edge, attempt)` draw streams (an exact
//!   `degree^α` kernel needs global degree state, which no exact
//!   distributed algorithm can afford). `α = 1` *is* the copy model —
//!   bit-identical, special-cased so no float rounding can intrude —
//!   `α = 0` degenerates to uniform attachment (`p_eff = 1`, every
//!   choice direct), and `α > 1` copies more, thickening the hub tail
//!   and lowering the empirical degree exponent `γ ≈ 1 + 1/(1 − p_eff)`.

use crate::seq::{draw_choice_keyed, Choice};
use crate::{Node, PaConfig};
use pa_rng::EventKeys;

/// Which attachment model a run generates (selected via
/// [`crate::GenOptions::model`], `pagen --model pa|nlpa`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ModelKind {
    /// The paper's linear copy model.
    #[default]
    Pa,
    /// Nonlinear preferential attachment with exponent `alpha`
    /// (redirection surrogate; `alpha = 1.0` is bit-identical to
    /// [`ModelKind::Pa`]).
    Nlpa {
        /// The attachment-kernel exponent `α ≥ 0`.
        alpha: f64,
    },
}

impl ModelKind {
    /// Stable discriminant for checkpoint identity (a checkpoint taken
    /// under one model must never resume under another).
    pub fn id(&self) -> u8 {
        match self {
            ModelKind::Pa => 0,
            ModelKind::Nlpa { .. } => 1,
        }
    }

    /// The model parameter as raw IEEE-754 bits for exact checkpoint
    /// identity comparison (0 for the parameter-free copy model).
    pub fn alpha_bits(&self) -> u64 {
        match self {
            ModelKind::Pa => 0,
            ModelKind::Nlpa { alpha } => alpha.to_bits(),
        }
    }

    /// Short name, as the CLI spells it.
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::Pa => "pa",
            ModelKind::Nlpa { .. } => "nlpa",
        }
    }

    /// Human-readable validation error, if the parameters are invalid.
    ///
    /// # Errors
    ///
    /// `alpha` must be finite and non-negative: NaN has no ordering
    /// (`p^NaN` poisons every draw), infinities collapse `p_eff` to a
    /// degenerate 0/1 coin, and a negative exponent would *invert* the
    /// preference (small-degree nodes favoured), which the redirection
    /// surrogate cannot represent.
    pub fn check(&self) -> Result<(), String> {
        match *self {
            ModelKind::Pa => Ok(()),
            ModelKind::Nlpa { alpha } => {
                if alpha.is_nan() {
                    Err("alpha must be a number, got NaN".into())
                } else if !alpha.is_finite() {
                    Err(format!("alpha = {alpha} must be finite"))
                } else if alpha < 0.0 {
                    Err(format!("alpha = {alpha} must be non-negative"))
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Panicking form of [`ModelKind::check`], for the `GenOptions`
    /// validation path.
    ///
    /// # Panics
    ///
    /// Panics with the [`ModelKind::check`] message on invalid
    /// parameters.
    pub fn validate(&self) {
        if let Err(why) = self.check() {
            panic!("{why}");
        }
    }
}

/// A [`ModelKind`] resolved against a concrete [`PaConfig`]: the engines'
/// one stop for attachment draws. `Copy` and a handful of words — every
/// engine embeds one by value.
///
/// The resolution folds the model into a single *effective* direct
/// probability, so the downstream draw consumes the identical three-value
/// stream (`k`, coin, `l`) for every model: draw streams stay aligned
/// across models, engines recompute each other's rows without knowing
/// which model is running, and `nlpa(α = 1)` is byte-for-byte the copy
/// model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Model {
    kind: ModelKind,
    x: u64,
    seed: u64,
    p_eff: f64,
}

impl Model {
    /// Resolve `kind` against `cfg`.
    ///
    /// # Panics
    ///
    /// Panics on invalid model parameters (see [`ModelKind::validate`]).
    pub fn resolve(cfg: &PaConfig, kind: ModelKind) -> Self {
        kind.validate();
        let p_eff = match kind {
            ModelKind::Pa => cfg.p,
            // α = 1 must not round-trip through powf: bit-identity with
            // the copy model is a pinned test invariant, not a float
            // coincidence. (powf(0, 0) = 1 keeps p = 0 ∧ α = 0 on the
            // uniform-attachment branch, consistent with the k^0 kernel.)
            ModelKind::Nlpa { alpha: 1.0 } => cfg.p,
            ModelKind::Nlpa { alpha } => cfg.p.powf(alpha),
        };
        Model {
            kind,
            x: cfg.x,
            seed: cfg.seed,
            p_eff,
        }
    }

    /// Which model this is.
    pub fn kind(&self) -> ModelKind {
        self.kind
    }

    /// The effective direct-connection probability the draws consume.
    pub fn p_eff(&self) -> f64 {
        self.p_eff
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
        draw_choice_keyed(keys, self.p_eff, self.x, t, e, attempt)
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
    fn alpha_one_is_bitwise_the_copy_model() {
        let pa = Model::resolve(&cfg(), ModelKind::Pa);
        let nlpa = Model::resolve(&cfg(), ModelKind::Nlpa { alpha: 1.0 });
        assert_eq!(pa.p_eff().to_bits(), nlpa.p_eff().to_bits());
        for t in [5u64, 17, 999] {
            let (ka, kb) = (pa.keys_for(t), nlpa.keys_for(t));
            for e in 0..4u32 {
                assert_eq!(pa.draw_keyed(&ka, t, e, 0), nlpa.draw_keyed(&kb, t, e, 0));
            }
        }
    }

    #[test]
    fn alpha_reweights_the_effective_probability() {
        let c = cfg();
        let half = Model::resolve(&c, ModelKind::Nlpa { alpha: 0.5 });
        let heavy = Model::resolve(&c, ModelKind::Nlpa { alpha: 1.5 });
        // p = 0.5: α < 1 raises p_eff (more direct, thinner tail),
        // α > 1 lowers it (more copying, heavier tail).
        assert!(half.p_eff() > 0.5 && half.p_eff() < 1.0);
        assert!(heavy.p_eff() < 0.5 && heavy.p_eff() > 0.0);
        // α = 0 is uniform attachment regardless of p (k^0 kernel),
        // including at the p = 0 corner (powf(0, 0) = 1).
        let uni = Model::resolve(&c, ModelKind::Nlpa { alpha: 0.0 });
        assert_eq!(uni.p_eff(), 1.0);
        let zero_p = PaConfig::new(100, 2).with_p(0.0);
        assert_eq!(
            Model::resolve(&zero_p, ModelKind::Nlpa { alpha: 0.0 }).p_eff(),
            1.0
        );
    }

    #[test]
    fn ids_and_names_are_stable() {
        assert_eq!(ModelKind::Pa.id(), 0);
        assert_eq!(ModelKind::Nlpa { alpha: 1.5 }.id(), 1);
        assert_eq!(ModelKind::Pa.alpha_bits(), 0);
        assert_eq!(
            ModelKind::Nlpa { alpha: 1.5 }.alpha_bits(),
            1.5f64.to_bits()
        );
        assert_eq!(ModelKind::Pa.name(), "pa");
        assert_eq!(ModelKind::Nlpa { alpha: 0.5 }.name(), "nlpa");
        assert_eq!(ModelKind::default(), ModelKind::Pa);
    }

    #[test]
    fn check_rejects_bad_alpha_with_readable_messages() {
        assert!(ModelKind::Nlpa { alpha: 0.0 }.check().is_ok());
        assert!(ModelKind::Nlpa { alpha: 2.5 }.check().is_ok());
        let nan = ModelKind::Nlpa { alpha: f64::NAN }.check().unwrap_err();
        assert!(nan.contains("NaN"), "{nan}");
        let inf = ModelKind::Nlpa {
            alpha: f64::INFINITY,
        }
        .check()
        .unwrap_err();
        assert!(inf.contains("finite"), "{inf}");
        let neg = ModelKind::Nlpa { alpha: -0.5 }.check().unwrap_err();
        assert!(neg.contains("non-negative"), "{neg}");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn resolve_panics_on_negative_alpha() {
        let _ = Model::resolve(&cfg(), ModelKind::Nlpa { alpha: -1.0 });
    }

    #[test]
    #[should_panic(expected = "does not draw")]
    fn seed_nodes_do_not_draw() {
        let m = Model::resolve(&cfg(), ModelKind::Pa);
        let _ = m.draw(4, 0, 0);
    }
}
