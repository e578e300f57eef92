//! Scheduling-chaos stress tests: drive the engines through adversarial
//! configurations (unbuffered messages, single-node service intervals,
//! heavy oversubscription, empty partitions) where any latent race or
//! termination bug would surface as a hang, a panic, or an invalid
//! graph.

use pa_core::{par, partition::Scheme, seq, Engine, GenOptions, PaConfig};
use pa_graph::validate::assert_valid_pa_network;
use pa_rng::{Rng64, SplitMix64};

#[test]
fn randomized_option_sweep_keeps_graphs_valid() {
    // Pseudo-random sweep over engine knobs and world shapes; the OS
    // scheduler supplies different interleavings on every run.
    let mut rng = SplitMix64::new(0xC0FFEE);
    for trial in 0..12 {
        let n = 500 + rng.gen_below(3_000);
        let x = 1 + rng.gen_below(5);
        let nranks = 1 + rng.gen_below(12) as usize;
        let opts = GenOptions {
            buffer_capacity: 1 + rng.gen_below(64) as usize,
            service_interval: 1 + rng.gen_below(128) as usize,
            ..GenOptions::default()
        };
        let scheme = Scheme::ALL[rng.gen_below(3) as usize];
        let cfg = PaConfig::new(n, x).with_seed(trial);
        let out = par::generate(&cfg, scheme, nranks, &opts);
        assert_eq!(
            out.total_edges() as u64,
            cfg.expected_edges(),
            "trial {trial}: n={n} x={x} P={nranks} {scheme} {opts:?}"
        );
        assert_valid_pa_network(cfg.n, cfg.x, &out.edge_list());
    }
}

#[test]
fn fully_unbuffered_oversubscribed_world() {
    // Every message is its own packet and every node a service round:
    // maximal interleaving pressure.
    let cfg = PaConfig::new(2_000, 3).with_seed(5);
    let opts = GenOptions {
        buffer_capacity: 1,
        service_interval: 1,
        ..GenOptions::default()
    };
    let out = par::generate(&cfg, Scheme::Rrp, 16, &opts);
    assert_valid_pa_network(cfg.n, cfg.x, &out.edge_list());
}

#[test]
fn heavily_oversubscribed_x1_is_still_exact() {
    // 64 ranks on a few cores; x = 1 output must still be bit-identical to
    // the sequential generator.
    let cfg = PaConfig::new(2_000, 1).with_seed(21);
    let out = par::generate(
        &cfg,
        Scheme::Rrp,
        64,
        &GenOptions {
            engine: Engine::X1,
            buffer_capacity: 2,
            service_interval: 3,
            ..GenOptions::default()
        },
    );
    assert_eq!(
        out.edge_list().canonicalized(),
        seq::copy_model(&cfg).canonicalized()
    );
}

#[test]
fn worlds_with_mostly_empty_ranks_terminate() {
    // n barely exceeds the seed clique; most ranks own nothing.
    for x in [1u64, 4] {
        let cfg = PaConfig::new(x + 3, x).with_seed(1);
        let out = par::generate(&cfg, Scheme::Ucp, 32, &GenOptions::default());
        assert_valid_pa_network(cfg.n, cfg.x, &out.edge_list());
    }
}

#[test]
fn repeated_runs_under_chaos_agree_for_x1() {
    // Same configuration, five runs with different real schedules: the
    // x = 1 edge set must never vary.
    let cfg = PaConfig::new(3_000, 1).with_seed(8);
    let opts = GenOptions {
        engine: Engine::X1,
        buffer_capacity: 3,
        service_interval: 2,
        ..GenOptions::default()
    };
    let reference = par::generate(&cfg, Scheme::Rrp, 9, &opts)
        .edge_list()
        .canonicalized();
    for run in 0..4 {
        let again = par::generate(&cfg, Scheme::Rrp, 9, &opts)
            .edge_list()
            .canonicalized();
        assert_eq!(again, reference, "run {run} diverged");
    }
}

#[test]
#[ignore = "multi-minute soak; run explicitly with --ignored"]
fn chaos_soak_half_million_nodes_under_aggressive_faults() {
    // The long-haul version of the chaos suite: a half-million-node run
    // on 8 ranks with roughly half of all packets faulted. Success means
    // (a) the watchdog never fires — the ack/retransmit sublayer kept
    // the run live for the whole soak, (b) the streamed degree totals
    // account for every expected edge, and (c) retransmissions happened
    // but stayed bounded by the wire traffic (no retransmit storm).
    let cfg = PaConfig::new(500_000, 4).with_seed(97);
    let opts = GenOptions {
        buffer_capacity: 256,
        service_interval: 128,
        ..GenOptions::default()
    }
    .with_fault_plan(pa_core::FaultPlan::aggressive(13))
    .with_stall_timeout(std::time::Duration::from_secs(120));
    let outs = par::generate_streaming(&cfg, Scheme::Rrp, 8, &opts, |_rank| {
        par::DegreeCountSink::new(cfg.n)
    });
    let mut comm = pa_mpsim::CommStats::new(8);
    for o in &outs {
        comm.merge(&o.comm);
    }
    let degrees = par::DegreeCountSink::merge(outs.into_iter().map(|o| o.sink));
    assert_eq!(degrees.iter().sum::<u64>(), 2 * cfg.expected_edges());
    assert!(comm.faults_injected > 0, "soak injected no faults");
    assert!(comm.retransmitted > 0, "soak recovered no drops");
    assert!(
        comm.retransmitted <= comm.packets_recv,
        "retransmit storm: {} retransmissions for {} received packets",
        comm.retransmitted,
        comm.packets_recv
    );
}

#[test]
fn extension_generators_survive_oversubscription() {
    let er = pa_core::er::generate_par(&pa_core::er::ErConfig::new(3_000, 0.003).with_seed(2), 24);
    assert!(pa_graph::validate::check_simple(3_000, &er).is_empty());

    let cl_cfg = pa_core::cl::ClConfig::new(pa_core::cl::power_law_weights(3_000, 3.0, 3.0), 2);
    let cl = pa_core::cl::generate_par(&cl_cfg, 24);
    assert!(pa_graph::validate::check_simple(3_000, &cl).is_empty());

    let rmat_cfg = pa_core::rmat::RmatConfig::graph500(10)
        .with_edges(10_000)
        .with_seed(2);
    let rmat = pa_core::rmat::generate_par(&rmat_cfg, 24);
    assert_eq!(rmat.len(), 10_000);
}
