//! Output verification: an order-independent digest of an edge
//! multiset, checked against the sequential copy model.
//!
//! Engines 2 (mpsim and TCP) emit edges in packet-arrival order, so two
//! correct runs of one tuple differ byte for byte. What every correct
//! run shares is the *multiset* of undirected edges, so each edge is
//! mixed to 64 bits and the mixes are summed with wrap-around, beside a
//! count: any order gives the same pair, and one changed endpoint
//! changes the sum.

use pa_core::PaConfig;
use pa_graph::io::Fnv1a;
use std::fs::File;
use std::io::{self, Read};
use std::path::Path;

/// Digest of an edge multiset.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EdgeDigest {
    pub sum: u64,
    pub count: u64,
}

impl EdgeDigest {
    /// Add one undirected edge (orientation is not part of a graph, so
    /// `(u, v)` and `(v, u)` mix alike).
    #[inline]
    pub fn add(&mut self, u: u64, v: u64) {
        let (lo, hi) = if u <= v { (u, v) } else { (v, u) };
        self.sum = self.sum.wrapping_add(mix(lo, hi));
        self.count += 1;
    }
}

/// SplitMix64's finalizer over both endpoints; the second endpoint is
/// folded in between the two multiplies so `(a, b)` and `(b, a)` of an
/// already ordered pair cannot collide by symmetry.
#[inline]
fn mix(lo: u64, hi: u64) -> u64 {
    let mut z = lo.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ hi.rotate_left(32);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z ^= hi;
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Digest of what `pa_core::seq::copy_model` generates for `cfg` — the
/// oracle every generated file is compared with.
pub fn oracle(cfg: &PaConfig) -> EdgeDigest {
    let mut d = EdgeDigest::default();
    for (u, v) in pa_core::seq::copy_model(cfg).iter() {
        d.add(u, v);
    }
    d
}

/// Edge digest plus whole-file FNV-1a of one generated file, in one
/// pass. `text` selects the `u v\n` format, else 16-byte LE pairs.
///
/// # Errors
///
/// I/O errors, a truncated binary record or a malformed text line.
pub fn digest_file(path: &Path, text: bool) -> io::Result<(EdgeDigest, u64)> {
    let mut file = File::open(path)?;
    let mut fnv = Fnv1a::new();
    let mut edges = EdgeStream::new(text);
    let mut buf = vec![0u8; 1 << 20];
    loop {
        let n = file.read(&mut buf)?;
        if n == 0 {
            break;
        }
        fnv.update(&buf[..n]);
        edges.feed(&buf[..n])?;
    }
    Ok((edges.finish()?, fnv.digest()))
}

/// Incremental edge parser over a byte stream cut at arbitrary points
/// (file blocks, serve chunks).
pub struct EdgeStream {
    text: bool,
    carry: Vec<u8>,
    digest: EdgeDigest,
}

impl EdgeStream {
    pub fn new(text: bool) -> Self {
        EdgeStream {
            text,
            carry: Vec::new(),
            digest: EdgeDigest::default(),
        }
    }

    /// Consume the next slice of the stream.
    ///
    /// # Errors
    ///
    /// `InvalidData` on a malformed text line.
    pub fn feed(&mut self, mut bytes: &[u8]) -> io::Result<()> {
        // Finish the record the previous slice left open.
        if !self.carry.is_empty() {
            let need = if self.text {
                bytes.iter().position(|&b| b == b'\n').map(|i| i + 1)
            } else {
                Some((16 - self.carry.len()).min(bytes.len()))
            };
            let Some(take) = need else {
                self.carry.extend_from_slice(bytes);
                return Ok(());
            };
            self.carry.extend_from_slice(&bytes[..take]);
            bytes = &bytes[take..];
            if !self.text && self.carry.len() < 16 {
                return Ok(());
            }
            let record = std::mem::take(&mut self.carry);
            self.records(&record)?;
        }
        let whole = if self.text {
            bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1)
        } else {
            bytes.len() / 16 * 16
        };
        self.records(&bytes[..whole])?;
        self.carry.extend_from_slice(&bytes[whole..]);
        Ok(())
    }

    /// The digest, once the stream has ended on a record boundary.
    ///
    /// # Errors
    ///
    /// `UnexpectedEof` if bytes of a partial record remain.
    pub fn finish(self) -> io::Result<EdgeDigest> {
        if self.carry.is_empty() {
            Ok(self.digest)
        } else {
            Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "edge stream ends inside a record",
            ))
        }
    }

    fn records(&mut self, bytes: &[u8]) -> io::Result<()> {
        if !self.text {
            for rec in bytes.chunks_exact(16) {
                let u = u64::from_le_bytes(rec[..8].try_into().expect("8 bytes"));
                let v = u64::from_le_bytes(rec[8..].try_into().expect("8 bytes"));
                self.digest.add(u, v);
            }
            return Ok(());
        }
        for line in bytes.split(|&b| b == b'\n') {
            if line.is_empty() {
                continue;
            }
            let bad = || io::Error::new(io::ErrorKind::InvalidData, "malformed edge line");
            let sp = line.iter().position(|&b| b == b' ').ok_or_else(bad)?;
            let u = parse_u64(&line[..sp]).ok_or_else(bad)?;
            let v = parse_u64(&line[sp + 1..]).ok_or_else(bad)?;
            self.digest.add(u, v);
        }
        Ok(())
    }
}

fn parse_u64(digits: &[u8]) -> Option<u64> {
    if digits.is_empty() {
        return None;
    }
    digits.iter().try_fold(0u64, |acc, &b| {
        let d = b.checked_sub(b'0').filter(|d| *d < 10)?;
        acc.checked_mul(10)?.checked_add(u64::from(d))
    })
}
