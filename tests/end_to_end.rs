//! End-to-end integration: generate in parallel, validate, analyze,
//! round-trip through I/O — every crate in one pipeline.

use pa_analysis::powerlaw;
use pa_core::{par, partition::Scheme, GenOptions, PaConfig};
use pa_graph::{degrees, io, validate, Csr, EdgeList};

#[test]
fn full_pipeline_produces_an_analyzable_scale_free_network() {
    let cfg = PaConfig::new(30_000, 4).with_seed(42);
    let out = par::generate(&cfg, Scheme::Rrp, 6, &GenOptions::default());
    let edges = out.edge_list();

    // Structure.
    validate::assert_valid_pa_network(cfg.n, cfg.x, &edges);
    let csr = Csr::from_edges(cfg.n as usize, &edges);
    assert_eq!(csr.connected_components(), 1, "PA networks are connected");

    // Degrees: handshake lemma and minimum degree x for attaching nodes.
    let deg = degrees::degree_sequence(cfg.n as usize, &edges);
    assert_eq!(deg.iter().sum::<u64>(), 2 * edges.len() as u64);
    let stats = degrees::degree_stats(&deg).unwrap();
    assert!((stats.mean - 2.0 * cfg.x as f64).abs() < 0.01);

    // Heavy tail with a plausible exponent.
    let fit = powerlaw::fit_mle(&deg, 8);
    assert!(
        (2.0..4.0).contains(&fit.gamma),
        "gamma = {} outside plausible band",
        fit.gamma
    );

    // I/O round-trip (binary and text).
    let mut bin = Vec::new();
    io::write_binary(&mut bin, &edges).unwrap();
    assert_eq!(io::read_binary(&bin[..]).unwrap(), edges);
    let mut txt = Vec::new();
    io::write_text(&mut txt, &edges).unwrap();
    assert_eq!(io::read_text(&txt[..]).unwrap(), edges);
}

#[test]
fn per_rank_edges_partition_the_network() {
    // Every edge is emitted by exactly one rank: the owner of the node
    // that created it.
    let cfg = PaConfig::new(5_000, 3).with_seed(9);
    let out = par::generate(&cfg, Scheme::Lcp, 5, &GenOptions::default());
    let part = pa_core::partition::build(Scheme::Lcp, cfg.n, 5);
    use pa_core::partition::Partition;
    for r in &out.ranks {
        for (u, _) in r.edges.iter() {
            assert_eq!(
                part.rank_of(u),
                r.rank,
                "edge source {u} emitted by wrong rank"
            );
        }
    }
    let merged: usize = out.ranks.iter().map(|r| r.edges.len()).sum();
    assert_eq!(merged as u64, cfg.expected_edges());
}

#[test]
fn analysis_pipeline_on_all_three_generators() {
    // The three sequential algorithms produce statistically similar
    // networks: same edge count, same mean degree, hubs in all three.
    let cfg = PaConfig::new(4_000, 3).with_seed(5);
    let mut rng = pa_rng::Xoshiro256pp::new(5);
    let nets: Vec<(&str, EdgeList)> = vec![
        ("naive", pa_core::seq::naive(&cfg, &mut rng)),
        (
            "batagelj_brandes",
            pa_core::seq::batagelj_brandes(&cfg, &mut rng),
        ),
        ("copy_model", pa_core::seq::copy_model(&cfg)),
    ];
    for (name, edges) in &nets {
        assert_eq!(
            edges.len() as u64,
            cfg.expected_edges(),
            "{name}: edge count"
        );
        validate::assert_valid_pa_network(cfg.n, cfg.x, edges);
        let deg = degrees::degree_sequence(cfg.n as usize, edges);
        let stats = degrees::degree_stats(&deg).unwrap();
        assert!(
            stats.max as f64 > 8.0 * stats.mean,
            "{name}: expected hubs, max {} mean {}",
            stats.max,
            stats.mean
        );
    }
}
