//! Chaos suite: the engines under a hostile transport.
//!
//! Every run here routes all traffic through a seeded
//! [`pa_mpsim::FaultTransport`] that delays, reorders (cross-pair),
//! duplicates, and drops-with-recovery packets. The invariant is the
//! strongest the repo has: the emitted edge set must be **bit-identical
//! to the fault-free run**, pinned by the same FNV-1a oracles the
//! determinism suite carries — not merely self-consistent. A fault
//! schedule that changed a single edge would change the fingerprint.
//!
//! The last test flips recovery off and checks the failure mode: a
//! permanently lost message must trip the stall watchdog with a
//! progress report, not hang the run.

use std::time::Duration;

use pa_core::{par, partition::Scheme, Engine, FaultPlan, GenOptions, PaConfig};
use pa_graph::io::Fnv1a;

/// The PR-1 fingerprints from `tests/determinism.rs`: the fault-free
/// oracle every chaos schedule must reproduce.
const ORACLE_X1: u64 = 0xdefa6458a590e3ba;
const ORACLE_X4: u64 = 0x66b9ce422f65dc31;

fn cfg_x1() -> PaConfig {
    PaConfig::new(3_000, 1).with_seed(41)
}

fn cfg_x4() -> PaConfig {
    PaConfig::new(3_000, 4).with_seed(41)
}

/// FNV-1a over the canonicalized edge list (same as `determinism.rs`).
fn fnv1a(edges: &pa_graph::EdgeList) -> u64 {
    Fnv1a::hash_edges(&edges.canonicalized())
}

/// Chaos runs use small buffers and a short service interval so packets
/// are plentiful (more fault opportunities), plus a generous watchdog:
/// recovering plans must never stall, and if one does we want a report
/// rather than a hung CI job.
fn chaos_opts(plan: FaultPlan) -> GenOptions {
    GenOptions {
        buffer_capacity: 32,
        service_interval: 16,
        ..GenOptions::default()
    }
    .with_fault_plan(plan)
    .with_stall_timeout(Duration::from_secs(120))
}

/// Fault seeds 0..8: even seeds run the light profile, odd the
/// aggressive one, so the matrix covers both noise levels.
fn plan_for(fault_seed: u64) -> FaultPlan {
    if fault_seed.is_multiple_of(2) {
        FaultPlan::light(fault_seed)
    } else {
        FaultPlan::aggressive(fault_seed)
    }
}

/// The ISSUE-3 matrix, one rank count per test function (so the suite
/// parallelizes): schemes × 8 fault seeds, x = 1 and x = 4, each
/// asserting termination and the fault-free fingerprint.
fn chaos_matrix(nranks: usize) {
    let runs = [
        (Engine::X1, cfg_x1(), ORACLE_X1),
        (Engine::General, cfg_x4(), ORACLE_X4),
    ];
    for scheme in Scheme::ALL {
        for fault_seed in 0..8 {
            for (engine, cfg, oracle) in runs {
                let opts = chaos_opts(plan_for(fault_seed)).with_engine(engine);
                let out = par::generate(&cfg, scheme, nranks, &opts);
                assert_eq!(
                    fnv1a(&out.edge_list()),
                    oracle,
                    "{engine} (x={}) edge set diverged under faults: P={nranks} {scheme} \
                     fault_seed={fault_seed}",
                    cfg.x
                );
            }
        }
    }
}

#[test]
fn chaos_matrix_p2() {
    chaos_matrix(2);
}

#[test]
fn chaos_matrix_p4() {
    chaos_matrix(4);
}

#[test]
fn chaos_matrix_p8() {
    chaos_matrix(8);
}

#[test]
fn engine3_survives_chaos_without_sending_anything() {
    // Engine3 gives the fault injector nothing to chew on: its only
    // traffic is the driver's collectives. The fingerprint must still
    // hold under every plan, and the comm ledger must show zero
    // point-to-point messages — faulted or not.
    let cfg4 = cfg_x4();
    for scheme in Scheme::EXTENDED {
        for fault_seed in 0..4 {
            let opts = chaos_opts(plan_for(fault_seed)).with_engine(Engine::Chain);
            let out = par::generate(&cfg4, scheme, 4, &opts);
            assert_eq!(
                fnv1a(&out.edge_list()),
                ORACLE_X4,
                "engine3 edge set diverged under faults: {scheme} fault_seed={fault_seed}"
            );
            for r in &out.ranks {
                assert_eq!(
                    r.comm.msgs_sent, 0,
                    "engine3 sent point-to-point traffic: {scheme} fault_seed={fault_seed}"
                );
                assert_eq!(r.comm.msgs_recv, 0);
            }
        }
    }
}

#[test]
fn faults_are_actually_injected_and_recovered() {
    // Guard against the suite silently testing nothing: an aggressive
    // plan over a multi-rank run must inject faults, recover drops, and
    // dedup spurious retransmissions — and the engines must see (and
    // discard) stale duplicates. The hub cache is disabled because at
    // n = 3000 every node is a hub under the default cache size, so
    // nearly all traffic would be broadcast messages whose duplicates
    // are absorbed without ever hitting the stale-resolution guards.
    let opts = chaos_opts(FaultPlan::aggressive(3)).without_hub_cache();
    let out = par::generate(&cfg_x4(), Scheme::Rrp, 4, &opts);
    let comm: pa_mpsim::CommStats =
        out.ranks
            .iter()
            .fold(pa_mpsim::CommStats::new(4), |mut acc, r| {
                acc.merge(&r.comm);
                acc
            });
    assert!(comm.faults_injected > 0, "no faults injected");
    assert!(comm.retransmitted > 0, "no drop was recovered");
    assert!(comm.deduped > 0, "no spurious retransmission deduped");
    let stale = out.total_counters().stale_resolutions;
    assert!(
        stale > 0,
        "aggressive duplication surfaced no stale resolutions to the engines"
    );
}

#[test]
fn clean_runs_report_zero_fault_counters() {
    let out = par::generate(&cfg_x4(), Scheme::Rrp, 4, &GenOptions::default());
    for r in &out.ranks {
        assert_eq!(r.comm.faults_injected, 0);
        assert_eq!(r.comm.retransmitted, 0);
        assert_eq!(r.comm.deduped, 0);
        assert_eq!(r.counters.stale_resolutions, 0);
    }
}

#[test]
fn hub_cache_off_still_survives_chaos() {
    // Without the hub cache every low-label lookup is a request/resolved
    // round trip — far more wire traffic to perturb.
    let opts = chaos_opts(FaultPlan::aggressive(5)).without_hub_cache();
    let out = par::generate(&cfg_x4(), Scheme::Ucp, 4, &opts);
    assert_eq!(fnv1a(&out.edge_list()), ORACLE_X4);
}

#[test]
fn unacked_drop_trips_the_stall_watchdog_not_a_hang() {
    // Recovery off: every fourth packet vanishes permanently. The run
    // cannot finish; the acceptance criterion is that the stall watchdog
    // reports — with the rank's progress state — instead of hanging.
    let cfg = PaConfig::new(2_000, 1).with_seed(3);
    let opts = GenOptions::default()
        .with_engine(Engine::X1)
        .with_fault_plan(FaultPlan::drop_without_recovery(7))
        .with_stall_timeout(Duration::from_secs(2));
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        par::generate(&cfg, Scheme::Rrp, 2, &opts)
    }));
    let payload = result.expect_err("lost messages with recovery off must trip the watchdog");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| "<non-string panic payload>".into());
    assert!(
        msg.contains("stall watchdog"),
        "expected a stall-watchdog report, got: {msg}"
    );
    assert!(
        msg.contains("outstanding work"),
        "watchdog report should include the outstanding-work count: {msg}"
    );
}
