//! The edge-multiset digest: what it must ignore and what it must see.

use pa_core::PaConfig;
use pa_perf::digest::{digest_file, oracle, EdgeDigest, EdgeStream};

fn digest_of(edges: &[(u64, u64)]) -> EdgeDigest {
    let mut d = EdgeDigest::default();
    for &(u, v) in edges {
        d.add(u, v);
    }
    d
}

fn sample_edges() -> Vec<(u64, u64)> {
    pa_core::seq::copy_model(&PaConfig::new(500, 4).with_seed(3))
        .iter()
        .collect()
}

#[test]
fn order_and_orientation_do_not_matter() {
    let edges = sample_edges();
    let mut shuffled = edges.clone();
    shuffled.reverse();
    shuffled.swap(3, 200);
    let flipped: Vec<_> = edges.iter().map(|&(u, v)| (v, u)).collect();
    assert_eq!(digest_of(&edges), digest_of(&shuffled));
    assert_eq!(digest_of(&edges), digest_of(&flipped));
}

#[test]
fn one_changed_edge_changes_the_digest() {
    let edges = sample_edges();
    let reference = digest_of(&edges);
    for at in [0, 17, edges.len() - 1] {
        let mut other = edges.clone();
        other[at].1 += 1;
        assert_ne!(digest_of(&other), reference, "edge {at} changed unnoticed");
    }
    // A dropped edge and a doubled edge change the count as well.
    assert_ne!(digest_of(&edges[1..]), reference);
    let mut doubled = edges.clone();
    doubled.push(edges[0]);
    assert_ne!(digest_of(&doubled), reference);
    // (a, b) + (c, d) is not (a, d) + (c, b).
    assert_ne!(digest_of(&[(9, 1), (8, 2)]), digest_of(&[(9, 2), (8, 1)]));
}

#[test]
fn oracle_is_the_sequential_copy_model() {
    let cfg = PaConfig::new(500, 4).with_seed(3);
    assert_eq!(oracle(&cfg), digest_of(&sample_edges()));
    assert_eq!(oracle(&cfg).count, cfg.expected_edges());
    assert_ne!(oracle(&cfg), oracle(&cfg.with_seed(4)));
}

#[test]
fn binary_and_text_files_digest_alike_across_any_chunking() {
    let edges = sample_edges();
    let mut bin = Vec::new();
    let mut txt = String::new();
    for &(u, v) in &edges {
        bin.extend_from_slice(&u.to_le_bytes());
        bin.extend_from_slice(&v.to_le_bytes());
        txt.push_str(&format!("{u} {v}\n"));
    }
    let want = digest_of(&edges);
    for chunk in [1, 7, 16, 100, 4096] {
        for (bytes, text) in [(&bin[..], false), (txt.as_bytes(), true)] {
            let mut stream = EdgeStream::new(text);
            for piece in bytes.chunks(chunk) {
                stream.feed(piece).unwrap();
            }
            assert_eq!(stream.finish().unwrap(), want, "chunk {chunk}, text {text}");
        }
    }
    let dir = std::env::temp_dir().join(format!("pa-perf-digest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("e.bin"), &bin).unwrap();
    std::fs::write(dir.join("e.txt"), &txt).unwrap();
    let (d_bin, fnv_bin) = digest_file(&dir.join("e.bin"), false).unwrap();
    let (d_txt, fnv_txt) = digest_file(&dir.join("e.txt"), true).unwrap();
    assert_eq!((d_bin, d_txt), (want, want));
    assert_eq!(fnv_bin, pa_graph::io::Fnv1a::hash(&bin));
    assert_ne!(fnv_bin, fnv_txt);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn truncated_and_malformed_streams_are_errors_not_digests() {
    let mut stream = EdgeStream::new(false);
    stream.feed(&[0u8; 20]).unwrap();
    assert!(
        stream.finish().is_err(),
        "4 bytes of a record were left over"
    );
    let mut stream = EdgeStream::new(true);
    assert!(stream.feed(b"12 x\n").is_err());
    let mut stream = EdgeStream::new(true);
    assert!(stream.feed(b"12\n").is_err());
    let mut stream = EdgeStream::new(true);
    stream.feed(b"1 2\n3 4").unwrap();
    assert!(stream.finish().is_err(), "the last line has no newline");
}
