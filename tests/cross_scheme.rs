//! Cross-configuration agreement: the generated network must not depend
//! on how it was parallelized.

use pa_core::{par, partition::Scheme, seq, Engine, GenOptions, PaConfig};
use pa_graph::degrees;

fn opts() -> GenOptions {
    GenOptions {
        buffer_capacity: 64,
        service_interval: 16,
        ..GenOptions::default()
    }
}

#[test]
fn x1_network_is_identical_for_every_world_shape() {
    // The strongest invariant in the suite: for x = 1 there are no
    // duplicate retries, so the edge set is a pure function of the seed.
    let cfg = PaConfig::new(5_000, 1).with_seed(123);
    let reference = seq::copy_model(&cfg).canonicalized();
    for nranks in [1usize, 2, 4, 8, 16] {
        for scheme in Scheme::ALL {
            let via31 = par::generate(&cfg, scheme, nranks, &opts().with_engine(Engine::X1));
            assert_eq!(
                via31.edge_list().canonicalized(),
                reference,
                "Alg 3.1: P={nranks} {scheme}"
            );
            let via32 = par::generate(&cfg, scheme, nranks, &opts());
            assert_eq!(
                via32.edge_list().canonicalized(),
                reference,
                "Alg 3.2: P={nranks} {scheme}"
            );
        }
    }
}

#[test]
fn x1_invariance_holds_for_other_p_values() {
    for p in [0.1f64, 0.9] {
        let cfg = PaConfig::new(3_000, 1).with_p(p).with_seed(7);
        let reference = seq::copy_model(&cfg).canonicalized();
        let out = par::generate(&cfg, Scheme::Rrp, 6, &opts().with_engine(Engine::X1));
        assert_eq!(out.edge_list().canonicalized(), reference, "p = {p}");
    }
}

#[test]
fn general_x_edge_sets_are_identical_across_worlds() {
    // Under in-order slot commits every attempt observes exactly the
    // state the sequential generator would, so even for x > 1 the edge
    // set is a pure function of the seed — bitwise identical for every
    // world shape, not merely statistically close.
    let cfg = PaConfig::new(20_000, 4).with_seed(31);
    let reference = par::generate(&cfg, Scheme::Ucp, 1, &opts())
        .edge_list()
        .canonicalized();
    let b = par::generate(&cfg, Scheme::Rrp, 8, &opts())
        .edge_list()
        .canonicalized();
    assert_eq!(reference, b);

    let da = degrees::degree_sequence(cfg.n as usize, &reference);
    let sa = degrees::degree_stats(&da).unwrap();
    assert_eq!(sa.mean, 2.0 * reference.len() as f64 / cfg.n as f64);
}

#[test]
fn seed_changes_the_network_but_structure_remains() {
    let base = PaConfig::new(2_000, 2).with_seed(1);
    let other = PaConfig::new(2_000, 2).with_seed(2);
    let a = par::generate(&base, Scheme::Rrp, 4, &opts()).edge_list();
    let b = par::generate(&other, Scheme::Rrp, 4, &opts()).edge_list();
    assert_ne!(a.canonicalized(), b.canonicalized());
    assert_eq!(a.len(), b.len());
}

#[test]
fn service_interval_does_not_change_x1_output() {
    let cfg = PaConfig::new(2_000, 1).with_seed(55);
    let reference = seq::copy_model(&cfg).canonicalized();
    for interval in [1usize, 7, 1024] {
        let out = par::generate(
            &cfg,
            Scheme::Ucp,
            4,
            &GenOptions {
                engine: Engine::X1,
                buffer_capacity: 32,
                service_interval: interval,
                ..GenOptions::default()
            },
        );
        assert_eq!(
            out.edge_list().canonicalized(),
            reference,
            "service_interval = {interval}"
        );
    }
}
