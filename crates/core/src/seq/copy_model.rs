//! Sequential copy-model generator (Kumar et al., paper §3.1).

use crate::{Node, PaConfig, NILL};
use pa_graph::EdgeList;
use pa_rng::{EventKeys, Rng64};

/// The random choice one attachment event makes, fully determined by
/// `(seed, t, e, attempt)`.
///
/// Three values are drawn, in a fixed order, from the event's counter
/// stream: the uniform existing node `k ∈ [x, t)`, the Bernoulli(p)
/// direct-vs-copy coin, and the edge index `l ∈ [0, x)` used when
/// copying (`F_t ← F_k(l)`). The parallel engines and the sequential
/// generator all consume choices through this one function, which is what
/// makes their outputs comparable across processor counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Choice {
    /// The uniformly drawn existing node.
    pub k: Node,
    /// `true` → connect to `k` itself; `false` → copy `F_k(l)`.
    pub direct: bool,
    /// Which of `k`'s `x` attachments to copy (ignored when `direct`).
    pub l: u64,
}

/// Draw the [`Choice`] for attachment event `(t, e, attempt)`.
///
/// # Panics
///
/// Panics if `t <= x` (seed-clique nodes and node `x` do not draw).
pub fn draw_choice(seed: u64, p: f64, x: u64, t: Node, e: u32, attempt: u32) -> Choice {
    assert!(t > x, "node {t} does not draw (x = {x})");
    draw_choice_keyed(&EventKeys::for_node(seed, t), p, x, t, e, attempt)
}

/// [`draw_choice`] with the `(seed, t)` key prefix already hoisted.
///
/// Bit-identical to [`draw_choice`] (the draw order and streams are the
/// same); use it when drawing many events for one node — a whole edge
/// row, a retry loop, or engine3's chain recomputation — so each event
/// pays one key mix instead of three. `t` is still passed for the range
/// bound `k ∈ [x, t)`; the caller must build `keys` for the same node.
#[inline]
pub fn draw_choice_keyed(
    keys: &EventKeys,
    p: f64,
    x: u64,
    t: Node,
    e: u32,
    attempt: u32,
) -> Choice {
    debug_assert!(t > x, "node {t} does not draw (x = {x})");
    let mut rng = keys.rng(e, attempt);
    let k = rng.gen_range(x, t);
    let direct = rng.gen_bool(p);
    let l = rng.gen_below(x);
    Choice { k, direct, l }
}

/// Resolve the final attachment target `F_t` for `x = 1` by following the
/// copy chain analytically (no graph needed): repeatedly apply the
/// attempt-0 choice until a direct connection is reached, then unwind.
///
/// This is exactly the value Algorithm 3.1 computes through its
/// request/resolved message protocol, so it doubles as an oracle in
/// tests. `target_for(seed, p, 1) == 0` by definition (node 1 attaches to
/// the single seed node 0).
pub fn target_for(seed: u64, p: f64, t: Node) -> Node {
    assert!(t >= 1, "node 0 has no attachment");
    let mut cur = t;
    // Walk down the selection chain until a direct choice; chain strictly
    // decreases so this terminates at node 1 at the latest.
    loop {
        if cur == 1 {
            return 0;
        }
        let c = draw_choice(seed, p, 1, cur, 0, 0);
        if c.direct {
            return c.k;
        }
        cur = c.k;
    }
}

/// Generate a PA network with the sequential copy model.
///
/// Matches the parallel engines exactly: same seed clique, same draw
/// streams, same duplicate-avoidance rule (redraw with an incremented
/// `attempt` whenever the candidate already appears among `t`'s chosen
/// targets).
pub fn generate(cfg: &PaConfig) -> EdgeList {
    generate_with_model(cfg, crate::Model::resolve(cfg, crate::ModelKind::Pa))
}

/// The model-generic sequential generator: the seed clique, the
/// flattened `F` table, and the duplicate-avoidance retry loop are
/// identical for every attachment model — only the draw itself goes
/// through [`crate::Model`]. This is the reference semantics ("the
/// oracle") each parallel engine must reproduce bit-for-bit, for every
/// model.
pub(crate) fn generate_with_model(cfg: &PaConfig, model: crate::Model) -> EdgeList {
    cfg.validate();
    let (n, x) = (cfg.n, cfg.x);
    let mut edges = EdgeList::with_capacity(cfg.expected_edges() as usize);
    // F_t(e) for every node, flattened.
    let mut f = vec![NILL; (n * x) as usize];

    // Seed clique over 0 .. x.
    for i in 1..x {
        for j in 0..i {
            edges.push(i, j);
        }
    }
    fill_rows(&model, x, &mut f, |t, v| edges.push(t, v));
    edges
}

/// Fill `f`, the flattened `F` rows of the labels below `f.len() / x`
/// (all `NILL` on entry), exactly as the sequential generator does: node
/// `x` attaches to every seed node, and every later node runs the
/// duplicate-avoiding attempt loop against the rows below it. `emit(t,
/// v)` sees each committed slot in label order; the seed clique's rows
/// stay `NILL` (`k` is drawn from `[x, t)`, so they are never copied
/// from). Every row is a pure function of the model, so any rank can
/// fill any prefix without a message: the oracle fills all `n` rows,
/// engine 2's hub replica the first `H`.
pub(crate) fn fill_rows(
    model: &crate::Model,
    x: u64,
    f: &mut [Node],
    mut emit: impl FnMut(Node, Node),
) {
    let nodes = f.len() as u64 / x;
    if nodes <= x {
        return;
    }
    for e in 0..x {
        f[(x * x + e) as usize] = e;
        emit(x, e);
    }
    for t in (x + 1)..nodes {
        let keys = model.keys_for(t);
        let row = (t * x) as usize;
        for e in 0..x {
            let mut attempt = 0u32;
            let v = loop {
                let c = model.draw_keyed(&keys, t, e as u32, attempt);
                let cand = if c.direct {
                    c.k
                } else {
                    let fk = f[(c.k * x + c.l) as usize];
                    debug_assert_ne!(fk, NILL, "F_{}({}) unresolved at t={t}", c.k, c.l);
                    fk
                };
                if !f[row..row + x as usize].contains(&cand) {
                    break cand;
                }
                attempt += 1;
            };
            f[row + e as usize] = v;
            emit(t, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pa_graph::validate::assert_valid_pa_network;

    #[test]
    fn x1_produces_a_tree_plus_root() {
        let cfg = PaConfig::new(1000, 1).with_seed(7);
        let edges = generate(&cfg);
        assert_eq!(edges.len(), 999);
        assert_valid_pa_network(1000, 1, &edges);
        // x = 1 PA networks are connected trees.
        let csr = pa_graph::Csr::from_edges(1000, &edges);
        assert_eq!(csr.connected_components(), 1);
    }

    #[test]
    fn general_x_is_valid_and_connected() {
        for x in [2u64, 3, 5] {
            let cfg = PaConfig::new(2000, x).with_seed(13);
            let edges = generate(&cfg);
            assert_valid_pa_network(2000, x, &edges);
            let csr = pa_graph::Csr::from_edges(2000, &edges);
            assert_eq!(csr.connected_components(), 1, "x = {x}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = PaConfig::new(500, 3).with_seed(42);
        assert_eq!(generate(&cfg), generate(&cfg));
        let other = PaConfig::new(500, 3).with_seed(43);
        assert_ne!(generate(&cfg), generate(&other));
    }

    #[test]
    fn target_oracle_matches_generated_edges_x1() {
        let cfg = PaConfig::new(2000, 1).with_seed(3);
        let edges = generate(&cfg);
        for (t, v) in edges.iter() {
            assert_eq!(v, target_for(cfg.seed, cfg.p, t), "node {t}");
        }
    }

    #[test]
    fn p_one_means_uniform_attachment() {
        // With p = 1 every choice is direct, so no copy chains exist and
        // targets are the drawn k themselves.
        let cfg = PaConfig::new(300, 1).with_p(1.0).with_seed(5);
        let edges = generate(&cfg);
        for (t, v) in edges.iter().skip(1) {
            let c = draw_choice(cfg.seed, 1.0, 1, t, 0, 0);
            assert_eq!(v, c.k);
        }
    }

    #[test]
    fn p_zero_copy_chains_terminate() {
        // p = 0: every node copies; chains bottom out at node x whose
        // targets are the seed nodes, so everything attaches to seeds.
        let cfg = PaConfig::new(500, 2).with_p(0.0).with_seed(11);
        let edges = generate(&cfg);
        assert_valid_pa_network(500, 2, &edges);
        for (t, v) in edges.iter() {
            if t > 2 {
                assert!(
                    v < 2,
                    "with p=0 and x=2 all copies resolve to seeds, got ({t},{v})"
                );
            }
        }
    }

    #[test]
    fn heavy_tail_emerges() {
        // Scale-free signature: the max degree dwarfs the mean.
        let cfg = PaConfig::new(20_000, 2).with_seed(1);
        let edges = generate(&cfg);
        let deg = pa_graph::degrees::degree_sequence(20_000, &edges);
        let stats = pa_graph::degrees::degree_stats(&deg).unwrap();
        assert!(stats.mean < 4.01);
        assert!(
            stats.max > 50,
            "expected a hub far above the mean, max = {}",
            stats.max
        );
    }

    #[test]
    fn keyed_and_batched_draws_match_the_reference() {
        let (seed, p, x) = (41u64, 0.5, 4u64);
        let cfg = PaConfig::new(3_000, x).with_p(p).with_seed(seed);
        let model = crate::Model::resolve(&cfg, crate::ModelKind::Pa);
        let mut row = Vec::new();
        for t in [5u64, 6, 100, 2_999] {
            let keys = EventKeys::for_node(seed, t);
            for e in 0..x as u32 {
                for attempt in [0u32, 1, 5] {
                    assert_eq!(
                        draw_choice_keyed(&keys, p, x, t, e, attempt),
                        draw_choice(seed, p, x, t, e, attempt),
                        "t={t} e={e} attempt={attempt}"
                    );
                }
            }
            model.draw_row(&keys, t, &mut row);
            assert_eq!(row.len(), x as usize);
            for (e, c) in row.iter().enumerate() {
                assert_eq!(*c, draw_choice(seed, p, x, t, e as u32, 0));
            }
        }
    }

    #[test]
    fn draw_choice_is_stable() {
        let a = draw_choice(9, 0.5, 4, 100, 2, 1);
        let b = draw_choice(9, 0.5, 4, 100, 2, 1);
        assert_eq!(a, b);
        assert!(a.k >= 4 && a.k < 100);
        assert!(a.l < 4);
    }

    #[test]
    #[should_panic(expected = "does not draw")]
    fn seed_nodes_do_not_draw() {
        let _ = draw_choice(1, 0.5, 4, 4, 0, 0);
    }
}
