//! Property-based tests for pa-graph data structures.

use pa_graph::{degrees, io, validate, Csr, EdgeList, UnionFind};
use proptest::prelude::*;

/// Random edge list over `n` nodes (may contain self-loops/duplicates).
fn arb_edges(n: u64, max_m: usize) -> impl Strategy<Value = EdgeList> {
    prop::collection::vec((0..n, 0..n), 0..max_m).prop_map(EdgeList::from_vec)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Binary and text I/O round-trip arbitrary edge lists.
    #[test]
    fn io_roundtrips(el in arb_edges(1_000, 200)) {
        let mut bin = Vec::new();
        io::write_binary(&mut bin, &el).unwrap();
        prop_assert_eq!(io::read_binary(&bin[..]).unwrap(), el.clone());
        let mut txt = Vec::new();
        io::write_text(&mut txt, &el).unwrap();
        prop_assert_eq!(io::read_text(&txt[..]).unwrap(), el);
    }

    /// The text encoder writes exactly what `format!` does, over pairs
    /// of every digit length (a uniform `u64` shifted right by 0–63).
    #[test]
    fn text_encoding_matches_format(
        pairs in prop::collection::vec(
            (any::<u64>(), 0u32..64, any::<u64>(), 0u32..64)
                .prop_map(|(u, su, v, sv)| (u >> su, v >> sv)),
            0..300,
        )
    ) {
        let mut txt = Vec::new();
        io::write_text(&mut txt, &EdgeList::from_vec(pairs.clone())).unwrap();
        let reference: String = pairs.iter().map(|(u, v)| format!("{u} {v}\n")).collect();
        prop_assert_eq!(String::from_utf8(txt).unwrap(), reference);
    }

    /// Canonicalization is idempotent and direction-invariant.
    #[test]
    fn canonicalize_idempotent(el in arb_edges(100, 100)) {
        let c1 = el.canonicalized();
        prop_assert_eq!(c1.canonicalized(), c1.clone());
        // Flipping every edge yields the same canonical form.
        let flipped = EdgeList::from_vec(
            el.iter().map(|(u, v)| (v, u)).collect()
        );
        prop_assert_eq!(flipped.canonicalized(), c1);
    }

    /// CSR preserves the degree sequence and the handshake lemma.
    #[test]
    fn csr_matches_degree_sequence(el in arb_edges(50, 200)) {
        let n = 50usize;
        let csr = Csr::from_edges(n, &el);
        let deg = degrees::degree_sequence(n, &el);
        let mut total = 0u64;
        for v in 0..n as u64 {
            // Self-loops count twice in the degree sequence but appear
            // twice in CSR adjacency as well.
            prop_assert_eq!(csr.degree(v) as u64, deg[v as usize]);
            total += csr.degree(v) as u64;
        }
        prop_assert_eq!(total, 2 * el.len() as u64);
    }

    /// BFS distances satisfy the triangle property along edges.
    #[test]
    fn bfs_distances_are_consistent(el in arb_edges(40, 80)) {
        let n = 40usize;
        let csr = Csr::from_edges(n, &el);
        let dist = csr.bfs_distances(0);
        prop_assert_eq!(dist[0], 0);
        for (u, v) in el.iter() {
            let (du, dv) = (dist[u as usize], dist[v as usize]);
            match (du == u64::MAX, dv == u64::MAX) {
                (false, false) => prop_assert!(du.abs_diff(dv) <= 1),
                // An edge cannot bridge reached and unreached nodes.
                (a, b) => prop_assert_eq!(a, b),
            }
        }
    }

    /// Union–find agrees with CSR component counting.
    #[test]
    fn components_match_union_find(el in arb_edges(60, 60)) {
        let n = 60usize;
        let csr = Csr::from_edges(n, &el);
        let mut uf = UnionFind::new(n);
        for (u, v) in el.iter() {
            uf.union(u as usize, v as usize);
        }
        prop_assert_eq!(csr.connected_components(), uf.num_sets());
    }

    /// The simple-graph checker finds exactly the planted defects.
    #[test]
    fn validator_counts_planted_defects(
        base in 2u64..50,
        dups in 0usize..4,
        loops in 0usize..4,
    ) {
        // A clean path graph...
        let mut edges: Vec<(u64, u64)> = (0..base - 1).map(|i| (i, i + 1)).collect();
        // ...plus planted duplicates and self-loops.
        for i in 0..dups {
            edges.push((i as u64 % (base - 1), i as u64 % (base - 1) + 1));
        }
        for i in 0..loops {
            edges.push((i as u64 % base, i as u64 % base));
        }
        let defects = validate::check_simple(base, &EdgeList::from_vec(edges));
        prop_assert_eq!(defects.len(), dups + loops);
    }

    /// CCDF is a valid survival function for arbitrary degree data.
    #[test]
    fn ccdf_is_monotone_survival(degs in prop::collection::vec(0u64..500, 1..300)) {
        let c = degrees::ccdf(&degs);
        prop_assert!(!c.is_empty());
        prop_assert!((c[0].1 - 1.0).abs() < 1e-12, "starts at 1");
        for w in c.windows(2) {
            prop_assert!(w[1].0 > w[0].0);
            prop_assert!(w[1].1 < w[0].1);
            prop_assert!(w[1].1 > 0.0);
        }
    }

    /// Degree stats are internally consistent.
    #[test]
    fn degree_stats_consistent(degs in prop::collection::vec(0u64..100, 1..200)) {
        let s = degrees::degree_stats(&degs).unwrap();
        prop_assert!(s.min <= s.max);
        prop_assert!(s.mean >= s.min as f64 && s.mean <= s.max as f64);
        prop_assert_eq!(s.n, degs.len());
    }
}
