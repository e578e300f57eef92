//! Property-based tests for pa-core: partitioning contracts, model
//! invariants, and cross-engine agreement on randomized configurations.

use pa_core::job::JobDescriptor;
use pa_core::partition::{build, check_contract, Partition, Scheme};
use pa_core::{chains, par, seq, Engine, FaultPlan, GenOptions, ModelKind, PaConfig};
use pa_graph::io::EdgeFormat;
use pa_graph::job::JobSpec;
use proptest::prelude::*;

fn any_scheme() -> impl Strategy<Value = Scheme> {
    prop_oneof![Just(Scheme::Ucp), Just(Scheme::Lcp), Just(Scheme::Rrp),]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every scheme satisfies the full partition contract for arbitrary
    /// (n, P) combinations, including P > n.
    #[test]
    fn partition_contract_holds(
        n in 1u64..3_000,
        p in 1usize..64,
        scheme in any_scheme(),
    ) {
        let part = build(scheme, n, p);
        check_contract(&part);
    }

    /// rank_of is total and consistent with node_at for large n (spot
    /// checks where the exhaustive contract is too slow).
    #[test]
    fn rank_of_roundtrips_at_scale(
        scheme in any_scheme(),
        p in 1usize..512,
        probe in 0u64..10_000_000,
    ) {
        let n = 10_000_000u64;
        let part = build(scheme, n, p);
        let r = part.rank_of(probe);
        prop_assert!(r < p);
        let idx = part.local_index(probe);
        prop_assert_eq!(part.node_at(r, idx), probe);
    }

    /// The sequential copy model always produces a valid PA network.
    #[test]
    fn copy_model_always_valid(
        n in 10u64..400,
        x in 1u64..6,
        seed in any::<u64>(),
        p in 0.0f64..=1.0,
    ) {
        prop_assume!(n > x);
        let cfg = PaConfig { n, x, p, seed };
        let edges = seq::copy_model(&cfg);
        let defects = pa_graph::validate::check_pa_network(n, x, &edges);
        prop_assert!(defects.is_empty(), "{defects:?}");
    }

    /// Parallel == sequential for x = 1 on arbitrary small worlds.
    #[test]
    fn parallel_x1_matches_sequential(
        n in 10u64..300,
        nranks in 1usize..9,
        seed in any::<u64>(),
        scheme in any_scheme(),
    ) {
        let cfg = PaConfig::new(n, 1).with_seed(seed);
        let reference = seq::copy_model(&cfg).canonicalized();
        let opts = GenOptions {
            engine: Engine::X1,
            buffer_capacity: 8,
            service_interval: 4,
            ..GenOptions::default()
        };
        let out = par::generate(&cfg, scheme, nranks, &opts);
        prop_assert_eq!(out.edge_list().canonicalized(), reference);
    }

    /// The general engine produces valid networks on arbitrary small
    /// worlds and exact edge counts.
    #[test]
    fn parallel_general_always_valid(
        n in 10u64..300,
        x in 1u64..5,
        nranks in 1usize..7,
        seed in any::<u64>(),
        scheme in any_scheme(),
    ) {
        prop_assume!(n > x);
        let cfg = PaConfig::new(n, x).with_seed(seed);
        let opts = small_world_opts(n);
        let out = par::generate(&cfg, scheme, nranks, &opts);
        let edges = out.edge_list();
        prop_assert_eq!(edges.len() as u64, cfg.expected_edges());
        let defects = pa_graph::validate::check_pa_network(n, x, &edges);
        prop_assert!(defects.is_empty(), "{defects:?}");
    }

    /// Dependency chains never exceed selection chains and respect the
    /// strict-decrease property of the copy walk.
    #[test]
    fn chain_lengths_are_consistent(
        n in 2u64..2_000,
        seed in any::<u64>(),
        p in 0.05f64..=1.0,
    ) {
        let dep = chains::dependency_lengths(seed, p, n);
        let sel = chains::selection_lengths(seed, p, n);
        for t in 1..n as usize {
            prop_assert!(dep[t] >= 1);
            prop_assert!(dep[t] <= sel[t]);
            // A chain can never be longer than the node label path 1..t.
            prop_assert!(sel[t] as u64 <= t as u64);
        }
    }

    /// Streaming degree folds are exact: merging per-rank
    /// [`par::DegreeCountSink`]s equals the degree sequence computed from
    /// the materialized edge list, for arbitrary (n, x, P, scheme).
    #[test]
    fn degree_sink_merge_matches_materialized_degrees(
        n in 10u64..300,
        x in 1u64..5,
        nranks in 1usize..7,
        seed in any::<u64>(),
        scheme in any_scheme(),
    ) {
        prop_assume!(n > x);
        let cfg = PaConfig::new(n, x).with_seed(seed);
        let opts = small_world_opts(n);
        let outs = par::generate_streaming(&cfg, scheme, nranks, &opts,
            |_rank| par::DegreeCountSink::new(cfg.n));
        let streamed = par::DegreeCountSink::merge(outs.into_iter().map(|o| o.sink));
        let edges = par::generate(&cfg, scheme, nranks, &opts).edge_list();
        let reference = pa_graph::degrees::degree_sequence(n as usize, &edges);
        prop_assert_eq!(streamed, reference);
    }

    /// Arbitrary *lossless* fault schedules never change what the model
    /// produces: the run terminates (the 30 s stall watchdog is a safety
    /// net, not an expectation) and the streamed degree totals account
    /// for exactly the expected number of edges.
    #[test]
    fn chaos_runs_terminate_with_exact_edge_counts(
        n in 10u64..200,
        x in 1u64..4,
        nranks in 2usize..7,
        seed in any::<u64>(),
        scheme in any_scheme(),
        fault_seed in any::<u64>(),
        p_delay in 0.0f64..0.25,
        p_reorder in 0.0f64..0.10,
        p_dup in 0.0f64..0.08,
    ) {
        prop_assume!(n > x);
        let cfg = PaConfig::new(n, x).with_seed(seed);
        let plan = FaultPlan {
            p_delay,
            delay_polls: 3,
            p_reorder,
            p_dup,
            dup_polls: 2,
            ..FaultPlan::none(fault_seed)
        };
        let opts = small_world_opts(n)
            .with_fault_plan(plan)
            .with_stall_timeout(std::time::Duration::from_secs(30));
        let outs = par::generate_streaming(&cfg, scheme, nranks, &opts,
            |_rank| par::DegreeCountSink::new(cfg.n));
        let streamed = par::DegreeCountSink::merge(outs.into_iter().map(|o| o.sink));
        prop_assert_eq!(streamed.iter().sum::<u64>(), 2 * cfg.expected_edges());
    }

    /// Degree sums always satisfy the handshake lemma after generation.
    #[test]
    fn handshake_lemma(
        n in 10u64..300,
        x in 1u64..5,
        seed in any::<u64>(),
    ) {
        prop_assume!(n > x);
        let cfg = PaConfig::new(n, x).with_seed(seed);
        let edges = seq::copy_model(&cfg);
        let deg = pa_graph::degrees::degree_sequence(n as usize, &edges);
        prop_assert_eq!(deg.iter().sum::<u64>(), 2 * edges.len() as u64);
        // Non-seed nodes have degree >= x (they created x edges).
        for (t, &d) in deg.iter().enumerate().skip(x as usize) {
            prop_assert!(d >= x, "node {t} degree {d} < x");
        }
    }
}

/// Small buffers, and an engine-2 hub replica of a quarter of the
/// labels: every rank computes its replica, so under the default size
/// (4096 nodes, more than every `n` here) engine 2 would send nothing.
fn small_world_opts(n: u64) -> GenOptions {
    GenOptions {
        buffer_capacity: 8,
        service_interval: 4,
        hub_cache_nodes: Some(n / 4),
        ..GenOptions::default()
    }
}

/// A fresh scratch directory for one store property case. The global
/// counter keeps concurrent proptest cases (and shrink replays) from
/// sharing page files.
fn store_scratch() -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "pa_store_prop_{}_{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A paged table under an adversarially small cache budget (down to
    /// the 2-page minimum, with pages as small as one wide slot) is
    /// observation-equivalent to a resident table over an arbitrary
    /// read/write sequence, in wide and in compact cells alike (`n` on
    /// either side of the width boundary): every read agrees, the final
    /// contents agree, and so do they after a flush, scanned back to
    /// front so that pages written back fault in again. So does every
    /// `row_contains` query, interleaved with the writes and repeated
    /// after the flush: rows of up to 33 slots, inside one page or
    /// across several, for a label some slot holds, an arbitrary one, a
    /// label no compact cell can hold, and `NILL`.
    #[test]
    fn paged_table_equals_resident_under_tiny_budget(
        len in 1u64..300,
        page_slots in 1usize..9,
        budget_pages in 0u64..5,
        compact in any::<bool>(),
        ops in prop_vec((any::<u64>(), any::<u64>(), any::<bool>()), 1..250),
        rows in prop_vec((any::<u64>(), 0u64..34, 0u8..4, any::<u64>()), 0..64),
    ) {
        use pa_core::store::{AnyTable, NodeTable, PagedSpec, StoreSpec};
        const FILL: u64 = u64::MAX;
        let dir = store_scratch();
        let page_bytes = page_slots * 8;
        let spec = PagedSpec {
            dir: dir.clone(),
            budget_bytes: budget_pages * page_bytes as u64,
            page_bytes,
            resume: false,
        };
        let wide_n = u64::from(u32::MAX);
        let n = if compact { wide_n - 1 } else { wide_n };
        let paged_spec = StoreSpec::Paged(spec);
        let mut paged = AnyTable::build_for(n, &paged_spec, 0, "t", len, FILL).unwrap();
        let mut resident = AnyTable::build_for(n, &StoreSpec::Resident, 0, "t", len, FILL).unwrap();
        let check_row = |paged: &mut AnyTable, resident: &mut AnyTable, row| {
            let (at, row_len, kind, raw): (u64, u64, u8, u64) = row;
            let start = at % len;
            let row_len = row_len.min(len - start);
            let v = match kind {
                0 => resident.get(raw % len),
                1 => raw,
                2 => u64::from(u32::MAX),
                _ => FILL,
            };
            let want = resident.row_contains(start, row_len, v);
            let got = paged.row_contains(start, row_len, v);
            prop_assert_eq!(got, want, "row {}+{} holds {}", start, row_len, v);
        };
        for (i, &(slot, val, is_write)) in ops.iter().enumerate() {
            let s = slot % len;
            // Compact cells hold the labels of an n-node network.
            let val = if compact { val % n } else { val };
            if is_write {
                paged.set(s, val);
                resident.set(s, val);
            } else {
                prop_assert_eq!(paged.get(s), resident.get(s), "slot {}", s);
            }
            if let Some(&row) = rows.get(i) {
                check_row(&mut paged, &mut resident, row);
            }
        }
        for s in 0..len {
            prop_assert_eq!(paged.get(s), resident.get(s), "final slot {}", s);
        }
        paged.flush().unwrap();
        for s in (0..len).rev() {
            prop_assert_eq!(paged.get(s), resident.get(s), "flushed slot {}", s);
        }
        for &row in &rows {
            check_row(&mut paged, &mut resident, row);
        }
        drop(paged);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The 48 canonical bytes carry every bit of every field: decoding
    /// them gives back the tuple, whatever the field values.
    #[test]
    fn run_tuple_survives_its_canonical_bytes(
        words in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        ranks in any::<u32>(),
        ids in (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
    ) {
        let tuple = JobSpec {
            n: words.0,
            x: words.1,
            p_bits: words.2,
            seed: words.3,
            alpha_bits: words.4,
            ranks,
            scheme_id: ids.0,
            engine_id: ids.1,
            model_id: ids.2,
            format_id: ids.3,
        };
        prop_assert_eq!(JobSpec::from_canonical(&tuple.canonical_bytes()), tuple);
    }

    /// Lowering a valid descriptor to the raw tuple and lifting it back
    /// is the identity, so a job means the same on both sides of the wire.
    #[test]
    fn valid_descriptor_survives_the_raw_tuple(
        shape in (2u64..1_000_000_000, 1u64..9, 0.0f64..=1.0, any::<u64>()),
        scheme in prop_oneof![any_scheme(), Just(Scheme::Bcp)],
        engine in 1u8..4,
        ranks in 1u32..=u32::MAX,
        text in any::<bool>(),
    ) {
        let desc = JobDescriptor {
            cfg: PaConfig { n: shape.0, x: shape.1, p: shape.2, seed: shape.3 },
            scheme,
            engine,
            model: ModelKind::Pa,
            ranks,
            format: if text { EdgeFormat::Text } else { EdgeFormat::Binary },
        };
        prop_assume!(desc.validate().is_ok());
        prop_assert_eq!(JobDescriptor::from_raw(&desc.to_raw()), Ok(desc));
    }

    /// Whatever 48 bytes arrive, lifting them is total: either a
    /// descriptor whose canonical bytes are exactly the input, or a named
    /// error — never a panic. Each case starts from a well-formed tuple
    /// and applies one edit: none, the retired model id 1, `p = 1` with
    /// `x ≥ 2`, nonzero alpha bits, one byte overwritten, or all 48 bytes
    /// replaced.
    #[test]
    fn tuple_bytes_lift_exactly_or_fail_by_name(
        shape in (2u64..1_000_000, 1u64..9, 0.0f64..1.0, any::<u64>()),
        ids in (0u8..4, 1u8..4, 0u8..2),
        ranks in 1u32..=u32::MAX,
        edit in 0u8..6,
        junk in (any::<u64>(), 0usize..48, any::<u8>()),
        noise in prop_vec(any::<u8>(), 48..49),
    ) {
        let mut raw = JobSpec {
            n: shape.0,
            x: shape.1,
            p_bits: shape.2.to_bits(),
            seed: shape.3,
            alpha_bits: 0,
            ranks,
            scheme_id: ids.0,
            engine_id: ids.1,
            model_id: 0,
            format_id: ids.2,
        };
        match edit {
            1 => raw.model_id = 1,
            2 => {
                raw.p_bits = 1.0f64.to_bits();
                raw.x = raw.x.max(2);
            }
            3 => raw.alpha_bits = junk.0 | 1,
            _ => {}
        }
        let mut bytes = raw.canonical_bytes();
        match edit {
            4 => bytes[junk.1] = junk.2,
            5 => bytes.copy_from_slice(&noise),
            _ => {}
        }
        let lifted = JobDescriptor::from_raw(&JobSpec::from_canonical(&bytes));
        match &lifted {
            Ok(desc) => {
                prop_assert_eq!(desc.canonical_bytes(), bytes);
                prop_assert_eq!(bytes[46], 0, "only model id 0 lifts");
                prop_assert_eq!(&bytes[32..40], &[0u8; 8], "the copy model has no alpha");
                prop_assert!(!(desc.cfg.p == 1.0 && desc.cfg.x >= 2), "{:?}", desc);
            }
            Err(why) => prop_assert!(!why.is_empty()),
        }
        let needle = match edit {
            1 => Some("model id 1 is retired"),
            2 if raw.n > raw.x => Some("p = 1 needs x = 1"),
            2 => Some("must exceed"),
            3 => Some("carries no alpha"),
            _ => None,
        };
        if let Some(needle) = needle {
            let why = lifted.err().unwrap_or_default();
            prop_assert!(why.contains(needle), "edit {}: {:?}", edit, why);
        }
    }

    /// Byte-mutated `Msg` streams never panic the decoder. A stream of
    /// encoded messages with bytes flipped, inserted and removed, then
    /// truncated, decodes to messages until the first undecodable one,
    /// then to `None`; every message it yields re-encodes to exactly the
    /// bytes it consumed.
    #[test]
    fn mutated_msg_streams_decode_or_stop(
        words in prop_vec(any::<u64>(), 1..24),
        edits in prop_vec((any::<u64>(), any::<u8>(), 0u8..3), 0..6),
        cut in any::<u64>(),
    ) {
        use pa_mpsim::Wire;
        let mut bytes = Vec::new();
        for &w in &words {
            let (t, e, a) = (w, (w >> 7) as u32, (w >> 40) as u32);
            let msg = if w & 1 == 0 {
                par::Msg::Request { t, e, k: w.rotate_left(13), l: (w >> 33) as u32, a }
            } else {
                par::Msg::Resolved { t, e, v: w.rotate_right(29), a }
            };
            msg.encode(&mut bytes);
        }
        for (pos, byte, kind) in edits {
            let at = (pos % (bytes.len() as u64 + 1)) as usize;
            match kind {
                0 if at < bytes.len() => bytes[at] ^= byte,
                1 => bytes.insert(at, byte),
                _ if at < bytes.len() => {
                    bytes.remove(at);
                }
                _ => {}
            }
        }
        bytes.truncate((cut % (bytes.len() as u64 + 1)) as usize);
        let mut cursor: &[u8] = &bytes;
        loop {
            let before = cursor;
            let Some(msg) = par::Msg::decode(&mut cursor) else { break };
            let mut again = Vec::new();
            msg.encode(&mut again);
            prop_assert_eq!(&before[..before.len() - cursor.len()], &again[..]);
        }
    }
}
