//! The PAG container: a self-describing, sharded on-disk graph format.
//!
//! Raw edge lists (see [`crate::io`]) lose everything but the edges. For
//! a generator whose outputs are meant to be archived and re-analyzed,
//! the container keeps the provenance alongside the data:
//!
//! ```text
//! magic "PAGRAPH1" | version u32 | n u64 | shard count u32
//! | attr count u32 | (key, value) length-prefixed UTF-8 pairs
//! | shard edge-counts u64 × shards
//! | shard payloads: little-endian u64 pairs
//! ```
//!
//! The payload is exactly the `bin` encoding of [`crate::io::EdgeWriter`],
//! shard after shard, so the container is a [`write_header`] in front of
//! a streamed edge file. Shards map one-to-one to generator ranks, so a
//! distributed run writes each shard as its own part, and the file can
//! later be re-read as a whole or inspected via [`read_meta`] without
//! touching the payload.

use crate::{EdgeList, Node};
use std::collections::BTreeMap;
use std::io::{self, BufReader, Read, Write};

const MAGIC: &[u8; 8] = b"PAGRAPH1";
const VERSION: u32 = 1;
/// Caps to reject corrupted headers before allocating.
const MAX_ATTRS: u32 = 10_000;
const MAX_SHARDS: u32 = 1 << 20;
const MAX_STRING: u32 = 1 << 20;

/// Container metadata: node count plus free-form provenance attributes
/// (model, seed, scheme, …).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Meta {
    /// Number of nodes in the graph.
    pub n: u64,
    /// Provenance attributes, sorted by key.
    pub attrs: BTreeMap<String, String>,
}

impl Meta {
    /// Metadata for a graph of `n` nodes.
    pub fn new(n: u64) -> Self {
        Self {
            n,
            attrs: BTreeMap::new(),
        }
    }

    /// Attach an attribute (builder style).
    pub fn with(mut self, key: &str, value: impl ToString) -> Self {
        self.attrs.insert(key.to_string(), value.to_string());
        self
    }
}

fn write_u32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_str<W: Write>(w: &mut W, s: &str) -> io::Result<()> {
    let bytes = s.as_bytes();
    if bytes.len() as u64 > MAX_STRING as u64 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "attribute string too long",
        ));
    }
    write_u32(w, bytes.len() as u32)?;
    w.write_all(bytes)
}

fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_str<R: Read>(r: &mut R) -> io::Result<String> {
    let len = read_u32(r)?;
    if len > MAX_STRING {
        return Err(bad("attribute string length out of bounds"));
    }
    // Grow with the bytes that arrive, not with what the prefix claims.
    let mut buf = Vec::new();
    if r.take(u64::from(len)).read_to_end(&mut buf)? < len as usize {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    String::from_utf8(buf).map_err(|_| bad("attribute is not UTF-8"))
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Write the header: metadata and one edge count per shard. The shard
/// payloads follow it in the `bin` encoding, in shard order.
///
/// The header's length depends on `meta` and the number of shards only,
/// never on the counts — so a writer that learns the counts after the
/// edges can write zeros first and rewrite the header in place.
pub fn write_header<W: Write>(mut w: W, meta: &Meta, shard_counts: &[u64]) -> io::Result<()> {
    let mut head = Vec::new();
    head.extend_from_slice(MAGIC);
    write_u32(&mut head, VERSION)?;
    write_u64(&mut head, meta.n)?;
    write_u32(&mut head, shard_counts.len() as u32)?;
    write_u32(&mut head, meta.attrs.len() as u32)?;
    for (k, v) in &meta.attrs {
        write_str(&mut head, k)?;
        write_str(&mut head, v)?;
    }
    for &count in shard_counts {
        write_u64(&mut head, count)?;
    }
    w.write_all(&head)
}

/// Read only the header: metadata and per-shard edge counts.
pub fn read_meta<R: Read>(r: R) -> io::Result<(Meta, Vec<u64>)> {
    let mut r = BufReader::new(r);
    read_meta_inner(&mut r)
}

fn read_meta_inner<R: Read>(r: &mut R) -> io::Result<(Meta, Vec<u64>)> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(bad("not a PAG container (bad magic)"));
    }
    let version = read_u32(r)?;
    if version != VERSION {
        return Err(bad(&format!("unsupported container version {version}")));
    }
    let n = read_u64(r)?;
    let num_shards = read_u32(r)?;
    if num_shards > MAX_SHARDS {
        return Err(bad("shard count out of bounds"));
    }
    let num_attrs = read_u32(r)?;
    if num_attrs > MAX_ATTRS {
        return Err(bad("attribute count out of bounds"));
    }
    let mut meta = Meta::new(n);
    for _ in 0..num_attrs {
        let k = read_str(r)?;
        let v = read_str(r)?;
        meta.attrs.insert(k, v);
    }
    let mut counts = Vec::new();
    for _ in 0..num_shards {
        counts.push(read_u64(r)?);
    }
    Ok((meta, counts))
}

/// Read a whole container: metadata plus every shard.
///
/// Nothing is reserved from a count field: every list grows with the
/// bytes that arrive, so a garbled header costs at most a constant times
/// the input's size before it ends in an error.
///
/// # Errors
///
/// `UnexpectedEof` when the input ends before the counts say it should,
/// `InvalidData` for a bad magic, version, bound or trailing byte, and
/// whatever the reader itself fails with.
pub fn read<R: Read>(r: R) -> io::Result<(Meta, Vec<EdgeList>)> {
    let mut r = BufReader::new(r);
    let (meta, counts) = read_meta_inner(&mut r)?;
    let mut shards = Vec::with_capacity(counts.len());
    for &count in &counts {
        let mut shard = EdgeList::new();
        for _ in 0..count {
            let u: Node = read_u64(&mut r)?;
            let v: Node = read_u64(&mut r)?;
            if meta.n > 0 && (u >= meta.n || v >= meta.n) {
                return Err(bad("edge endpoint beyond declared node count"));
            }
            shard.push(u, v);
        }
        shards.push(shard);
    }
    // Trailing garbage indicates corruption.
    let mut probe = [0u8; 1];
    if r.read(&mut probe)? != 0 {
        return Err(bad("trailing bytes after final shard"));
    }
    Ok((meta, shards))
}

/// Convenience: read a container from a filesystem path.
pub fn read_file<P: AsRef<std::path::Path>>(path: P) -> io::Result<(Meta, Vec<EdgeList>)> {
    read(std::fs::File::open(path)?)
}

/// Convenience: read only the header from a filesystem path.
pub fn read_meta_file<P: AsRef<std::path::Path>>(path: P) -> io::Result<(Meta, Vec<u64>)> {
    read_meta(std::fs::File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Meta, Vec<EdgeList>) {
        let meta = Meta::new(10)
            .with("model", "preferential-attachment")
            .with("x", 4)
            .with("seed", 42);
        let shards = vec![
            EdgeList::from_vec(vec![(1, 0), (2, 1)]),
            EdgeList::from_vec(vec![(3, 0)]),
            EdgeList::new(),
        ];
        (meta, shards)
    }

    /// A whole container: the header, then each shard's `bin` encoding.
    fn write(buf: &mut Vec<u8>, meta: &Meta, shards: &[EdgeList]) -> io::Result<()> {
        let counts: Vec<u64> = shards.iter().map(|s| s.len() as u64).collect();
        write_header(&mut *buf, meta, &counts)?;
        for shard in shards {
            crate::io::write_binary(&mut *buf, shard)?;
        }
        Ok(())
    }

    #[test]
    fn roundtrip() {
        let (meta, shards) = sample();
        let mut buf = Vec::new();
        write(&mut buf, &meta, &shards).unwrap();
        let (m2, s2) = read(&buf[..]).unwrap();
        assert_eq!(m2, meta);
        assert_eq!(s2, shards);
    }

    #[test]
    fn meta_only_read_skips_payload() {
        let (meta, shards) = sample();
        let mut buf = Vec::new();
        write(&mut buf, &meta, &shards).unwrap();
        let (m2, counts) = read_meta(&buf[..]).unwrap();
        assert_eq!(m2.attrs.get("model").unwrap(), "preferential-attachment");
        assert_eq!(counts, vec![2, 1, 0]);
    }

    #[test]
    fn rejects_bad_magic() {
        let err = read(&b"NOTAPAG0rest"[..]).unwrap_err();
        assert!(err.to_string().contains("bad magic"));
    }

    #[test]
    fn rejects_wrong_version() {
        let (meta, shards) = sample();
        let mut buf = Vec::new();
        write(&mut buf, &meta, &shards).unwrap();
        buf[8] = 99; // clobber version
        assert!(read(&buf[..]).is_err());
    }

    #[test]
    fn rejects_truncated_payload() {
        let (meta, shards) = sample();
        let mut buf = Vec::new();
        write(&mut buf, &meta, &shards).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(read(&buf[..]).is_err());
    }

    #[test]
    fn rejects_trailing_garbage() {
        let (meta, shards) = sample();
        let mut buf = Vec::new();
        write(&mut buf, &meta, &shards).unwrap();
        buf.push(0);
        let err = read(&buf[..]).unwrap_err();
        assert!(err.to_string().contains("trailing"));
    }

    #[test]
    fn rejects_out_of_range_endpoint() {
        let meta = Meta::new(2);
        let shards = vec![EdgeList::from_vec(vec![(0, 5)])];
        let mut buf = Vec::new();
        write(&mut buf, &meta, &shards).unwrap();
        let err = read(&buf[..]).unwrap_err();
        assert!(err.to_string().contains("beyond declared"));
    }

    /// A 100-node container whose shard 0 claims `count` edges.
    fn with_shard0_count(count: u64) -> Vec<u8> {
        let meta = Meta::new(100).with("model", "pa");
        let shards = vec![
            EdgeList::from_vec((1..40).map(|t| (t, t - 1)).collect()),
            EdgeList::from_vec((40..100).map(|t| (t, t / 2)).collect()),
        ];
        let mut buf = Vec::new();
        write(&mut buf, &meta, &shards).unwrap();
        let mut head = Vec::new();
        write_header(&mut head, &meta, &[0, 0]).unwrap();
        let at = head.len() - 16;
        buf[at..at + 8].copy_from_slice(&count.to_le_bytes());
        buf
    }

    #[test]
    fn garbled_shard_counts_are_named_errors_not_reservations() {
        // 2⁴⁰ edges once aborted the process reserving 16 TiB, and 2⁶²
        // overflowed the capacity computation.
        for count in [1 << 40, 1 << 62, u64::MAX] {
            let err = read(&with_shard0_count(count)[..]).unwrap_err();
            assert!(
                matches!(
                    err.kind(),
                    io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
                ),
                "count {count}: {err}"
            );
        }
        assert!(read(&with_shard0_count(39)[..]).is_ok());
    }

    #[test]
    fn a_garbled_string_length_is_a_named_error() {
        let mut buf = Vec::new();
        write_header(&mut buf, &Meta::new(3).with("k", "v"), &[]).unwrap();
        // The key's length prefix follows magic, version, n, shards and
        // attribute count; claim the cap on a 2-byte remainder.
        buf[28..32].copy_from_slice(&MAX_STRING.to_le_bytes());
        let err = read_meta(&buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
    }

    #[test]
    fn header_length_does_not_depend_on_the_counts() {
        let (meta, _) = sample();
        let mut zeros = Vec::new();
        write_header(&mut zeros, &meta, &[0, 0, 0]).unwrap();
        let mut real = Vec::new();
        write_header(&mut real, &meta, &[2, u64::MAX, 1]).unwrap();
        assert_eq!(zeros.len(), real.len());
        let (_, counts) = read_meta(&real[..]).unwrap();
        assert_eq!(counts, vec![2, u64::MAX, 1]);
    }

    #[test]
    fn empty_container_roundtrips() {
        let meta = Meta::new(0);
        let mut buf = Vec::new();
        write(&mut buf, &meta, &[]).unwrap();
        let (m2, s2) = read(&buf[..]).unwrap();
        assert_eq!(m2.n, 0);
        assert!(s2.is_empty());
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("pag_container_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.pag");
        let (meta, shards) = sample();
        let mut buf = Vec::new();
        write(&mut buf, &meta, &shards).unwrap();
        std::fs::write(&path, buf).unwrap();
        let (m2, s2) = read_file(&path).unwrap();
        assert_eq!((m2, s2), (meta.clone(), shards));
        let (m3, counts) = read_meta_file(&path).unwrap();
        assert_eq!(m3, meta);
        assert_eq!(counts.len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
