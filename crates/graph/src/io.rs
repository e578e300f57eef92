//! Edge-list I/O.
//!
//! The paper's processors "have a shared file system and read-write data
//! files from the same external memory [...] independently". We mirror
//! that: each rank may write its own partition's edges with
//! [`write_text`] / [`write_binary`], and an analysis step reads the
//! concatenation back.

use crate::{EdgeList, Node};
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Write edges as ASCII `u v` lines.
pub fn write_text<W: Write>(w: W, edges: &EdgeList) -> io::Result<()> {
    let mut w = BufWriter::new(w);
    for (u, v) in edges.iter() {
        writeln!(w, "{u} {v}")?;
    }
    w.flush()
}

/// Read edges from ASCII `u v` lines. Blank lines and `#` comments are
/// skipped; malformed lines are an error.
pub fn read_text<R: Read>(r: R) -> io::Result<EdgeList> {
    let r = BufReader::new(r);
    let mut edges = EdgeList::new();
    for (lineno, line) in r.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let parse = |s: Option<&str>| -> io::Result<Node> {
            s.and_then(|tok| tok.parse().ok()).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("malformed edge on line {}", lineno + 1),
                )
            })
        };
        let u = parse(parts.next())?;
        let v = parse(parts.next())?;
        edges.push(u, v);
    }
    Ok(edges)
}

/// Write edges as little-endian `u64` pairs (16 bytes per edge).
pub fn write_binary<W: Write>(w: W, edges: &EdgeList) -> io::Result<()> {
    let mut w = BufWriter::new(w);
    for (u, v) in edges.iter() {
        w.write_all(&u.to_le_bytes())?;
        w.write_all(&v.to_le_bytes())?;
    }
    w.flush()
}

/// Read edges written by [`write_binary`]. A trailing partial record is an
/// error.
pub fn read_binary<R: Read>(r: R) -> io::Result<EdgeList> {
    let mut r = BufReader::new(r);
    let mut edges = EdgeList::new();
    let mut buf = [0u8; 16];
    loop {
        match r.read(&mut buf[..1])? {
            0 => break,
            _ => {
                r.read_exact(&mut buf[1..]).map_err(|_| {
                    io::Error::new(io::ErrorKind::UnexpectedEof, "truncated edge record")
                })?;
                let u = Node::from_le_bytes(buf[..8].try_into().unwrap());
                let v = Node::from_le_bytes(buf[8..].try_into().unwrap());
                edges.push(u, v);
            }
        }
    }
    Ok(edges)
}

/// On-disk encoding of a streamed edge list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeFormat {
    /// ASCII `u v` lines, readable by [`read_text`].
    Text,
    /// Little-endian `u64` pairs (16 bytes/edge), readable by
    /// [`read_binary`].
    Binary,
}

impl EdgeFormat {
    /// Stable wire/checkpoint discriminant (a job descriptor must mean
    /// the same format on every build).
    pub fn id(self) -> u8 {
        match self {
            EdgeFormat::Text => 0,
            EdgeFormat::Binary => 1,
        }
    }

    /// Inverse of [`EdgeFormat::id`]; `None` for unknown discriminants.
    pub fn from_id(id: u8) -> Option<EdgeFormat> {
        match id {
            0 => Some(EdgeFormat::Text),
            1 => Some(EdgeFormat::Binary),
            _ => None,
        }
    }

    /// The format name as the CLI spells it (`txt` / `bin`).
    pub fn name(self) -> &'static str {
        match self {
            EdgeFormat::Text => "txt",
            EdgeFormat::Binary => "bin",
        }
    }
}

/// Streaming FNV-1a (64-bit) hasher.
///
/// The workspace's determinism suites pin generated outputs by FNV-1a
/// digests; the serve layer reuses the same function as an artifact
/// checksum so a resumed fetch can prove its stitched-together file
/// matches the server's copy byte for byte. Implements [`Write`], so a
/// file can be hashed with `io::copy(&mut file, &mut hasher)`.
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// FNV-1a offset basis.
    pub const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    /// FNV-1a prime.
    pub const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hasher at the offset basis.
    pub fn new() -> Self {
        Self(Self::OFFSET_BASIS)
    }

    /// Resume hashing from a previously computed digest — FNV-1a is a
    /// running fold, so the digest of a prefix (e.g. from
    /// [`hash_file_prefix`]) *is* the full hasher state.
    pub fn from_digest(digest: u64) -> Self {
        Self(digest)
    }

    /// Absorb `bytes`.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
        }
    }

    /// The digest of everything absorbed so far.
    pub fn digest(&self) -> u64 {
        self.0
    }

    /// One-shot digest of a byte slice.
    pub fn hash(bytes: &[u8]) -> u64 {
        let mut h = Self::new();
        h.update(bytes);
        h.digest()
    }

    /// Digest of an edge list's binary encoding (the bytes
    /// [`write_binary`] emits, in list order) — the fingerprint the
    /// determinism suites pin canonicalized outputs with.
    pub fn hash_edges(edges: &EdgeList) -> u64 {
        let mut h = Self::new();
        for (u, v) in edges.iter() {
            h.update(&u.to_le_bytes());
            h.update(&v.to_le_bytes());
        }
        h.digest()
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Write for Fnv1a {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.update(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Hash the first `len` bytes of the file at `path` with [`Fnv1a`].
///
/// This is the resume-side integrity primitive: a client holding a
/// partial stream hashes its on-disk prefix, continues hashing the
/// re-streamed tail, and compares the combined digest against the
/// server's whole-artifact checksum.
///
/// # Errors
///
/// I/O errors opening or reading the file; `UnexpectedEof` if the file
/// holds fewer than `len` bytes.
pub fn hash_file_prefix<P: AsRef<Path>>(path: P, len: u64) -> io::Result<u64> {
    let file = File::open(path)?;
    let mut hasher = Fnv1a::new();
    let copied = io::copy(&mut file.take(len), &mut hasher)?;
    if copied < len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("file holds {copied} bytes, cannot hash a {len}-byte prefix"),
        ));
    }
    Ok(hasher.digest())
}

/// Re-stream the file at `path` from byte `offset` in `chunk`-sized
/// pieces: `f(chunk_offset, bytes)` is called for each piece, in order,
/// with contiguous offsets. Returns the file length.
///
/// This is the serving side of the byte-watermark resume protocol: a
/// dropped transfer reconnects with the offset it durably received, and
/// the server re-streams exactly the missing suffix — the complement of
/// [`EdgeWriter::resume`], which *writes* from a watermark.
///
/// # Errors
///
/// I/O errors from opening, seeking, or reading, from the callback, or
/// `InvalidInput` when `offset` lies beyond the end of the file.
pub fn stream_file_from<P: AsRef<Path>>(
    path: P,
    offset: u64,
    chunk: usize,
    mut f: impl FnMut(u64, &[u8]) -> io::Result<()>,
) -> io::Result<u64> {
    assert!(chunk > 0, "chunk size must be positive");
    let mut file = File::open(path)?;
    let len = file.metadata()?.len();
    if offset > len {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("resume offset {offset} beyond end of {len}-byte file"),
        ));
    }
    use std::io::Seek;
    file.seek(io::SeekFrom::Start(offset))?;
    let mut buf = vec![0u8; chunk];
    let mut pos = offset;
    while pos < len {
        let want = usize::try_from((len - pos).min(chunk as u64)).expect("chunk fits usize");
        file.read_exact(&mut buf[..want])?;
        f(pos, &buf[..want])?;
        pos += want as u64;
    }
    Ok(len)
}

/// Number of edges [`EdgeWriter`] buffers before writing a chunk out.
///
/// At 16 bytes per binary edge this is a 1 MiB write unit — large enough
/// to amortize syscalls, small enough that resident memory stays `O(1)`
/// in the number of edges streamed through.
pub const EDGE_WRITER_CHUNK: usize = 65_536;

/// A chunk-buffered streaming edge writer.
///
/// The generators deliver edges one at a time from hot per-node loops, so
/// [`EdgeWriter::push`] is infallible: edges accumulate in a fixed-size
/// chunk, full chunks are encoded and written in one call, and the first
/// I/O error is recorded and returned by [`EdgeWriter::finish`] (all
/// writes after a recorded error become no-ops). Peak resident memory is
/// one chunk, independent of how many edges pass through.
#[derive(Debug)]
pub struct EdgeWriter<W: Write> {
    w: W,
    format: EdgeFormat,
    chunk: Vec<(Node, Node)>,
    written: u64,
    bytes: u64,
    error: Option<io::Error>,
}

impl<W: Write> EdgeWriter<W> {
    /// Streaming writer over `w` in the given format.
    ///
    /// Callers pass the raw sink (e.g. a [`File`]); chunking makes an
    /// extra [`BufWriter`] layer unnecessary.
    pub fn new(w: W, format: EdgeFormat) -> Self {
        Self::resume(w, format, 0, 0)
    }

    /// Streaming writer continuing an interrupted stream: `w` must be
    /// positioned after `bytes` bytes holding `written` edges (e.g. a
    /// part file truncated to a checkpoint watermark and seeked to its
    /// end). Counts continue from the given values.
    pub fn resume(w: W, format: EdgeFormat, written: u64, bytes: u64) -> Self {
        Self {
            w,
            format,
            chunk: Vec::with_capacity(EDGE_WRITER_CHUNK),
            written,
            bytes,
            error: None,
        }
    }

    /// Append one edge. Never fails; I/O errors surface in
    /// [`EdgeWriter::finish`].
    #[inline]
    pub fn push(&mut self, u: Node, v: Node) {
        self.chunk.push((u, v));
        if self.chunk.len() >= EDGE_WRITER_CHUNK {
            self.write_chunk();
        }
    }

    /// Edges accepted so far (including any still in the chunk buffer).
    pub fn count(&self) -> u64 {
        self.written + self.chunk.len() as u64
    }

    /// Whether an I/O error has been recorded.
    pub fn has_error(&self) -> bool {
        self.error.is_some()
    }

    fn write_chunk(&mut self) {
        if self.error.is_some() {
            self.written += self.chunk.len() as u64;
            self.chunk.clear();
            return;
        }
        let res = match self.format {
            EdgeFormat::Binary => {
                let mut bytes = Vec::with_capacity(self.chunk.len() * 16);
                for &(u, v) in &self.chunk {
                    bytes.extend_from_slice(&u.to_le_bytes());
                    bytes.extend_from_slice(&v.to_le_bytes());
                }
                self.w.write_all(&bytes).map(|()| bytes.len() as u64)
            }
            EdgeFormat::Text => {
                let mut text = String::with_capacity(self.chunk.len() * 12);
                for &(u, v) in &self.chunk {
                    text.push_str(&format!("{u} {v}\n"));
                }
                self.w
                    .write_all(text.as_bytes())
                    .map(|()| text.len() as u64)
            }
        };
        match res {
            Ok(n) => self.bytes += n,
            Err(e) => self.error = Some(e),
        }
        self.written += self.chunk.len() as u64;
        self.chunk.clear();
    }

    /// Flush everything through to the sink and report the durable
    /// `(edges, bytes)` watermark — the coordinates a checkpoint records
    /// so a restarted run can truncate the stream back to exactly this
    /// point (byte counts matter because the text encoding is
    /// variable-width). Unlike [`EdgeWriter::finish`] the writer stays
    /// usable; a previously recorded I/O error is surfaced (and kept, so
    /// `finish` still reports it).
    pub fn checkpoint(&mut self) -> io::Result<(u64, u64)> {
        self.write_chunk();
        if let Some(e) = &self.error {
            // io::Error is not Clone; surface a copy, keep the original.
            return Err(io::Error::new(e.kind(), e.to_string()));
        }
        self.w.flush()?;
        Ok((self.written, self.bytes))
    }

    /// Flush the final partial chunk and the sink; returns the total edge
    /// count, or the first error encountered anywhere in the stream.
    pub fn finish(mut self) -> io::Result<u64> {
        self.write_chunk();
        if let Some(e) = self.error {
            return Err(e);
        }
        self.w.flush()?;
        Ok(self.written)
    }
}

/// Convenience: write a text edge list to a path.
pub fn write_text_file<P: AsRef<Path>>(path: P, edges: &EdgeList) -> io::Result<()> {
    write_text(File::create(path)?, edges)
}

/// Convenience: read a text edge list from a path.
pub fn read_text_file<P: AsRef<Path>>(path: P) -> io::Result<EdgeList> {
    read_text(File::open(path)?)
}

/// Convenience: write a binary edge list to a path.
pub fn write_binary_file<P: AsRef<Path>>(path: P, edges: &EdgeList) -> io::Result<()> {
    write_binary(File::create(path)?, edges)
}

/// Convenience: read a binary edge list from a path.
pub fn read_binary_file<P: AsRef<Path>>(path: P) -> io::Result<EdgeList> {
    read_binary(File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EdgeList {
        EdgeList::from_vec(vec![(0, 1), (7, 3), (u64::MAX - 1, 2)])
    }

    #[test]
    fn text_roundtrip() {
        let mut buf = Vec::new();
        write_text(&mut buf, &sample()).unwrap();
        let back = read_text(&buf[..]).unwrap();
        assert_eq!(back, sample());
    }

    #[test]
    fn text_skips_comments_and_blanks() {
        let input = "# header\n\n0 1\n  \n2 3\n";
        let el = read_text(input.as_bytes()).unwrap();
        assert_eq!(el.as_slice(), &[(0, 1), (2, 3)]);
    }

    #[test]
    fn text_rejects_malformed() {
        let err = read_text("0 x\n".as_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("line 1"));
    }

    #[test]
    fn binary_roundtrip() {
        let mut buf = Vec::new();
        write_binary(&mut buf, &sample()).unwrap();
        assert_eq!(buf.len(), 16 * sample().len());
        let back = read_binary(&buf[..]).unwrap();
        assert_eq!(back, sample());
    }

    #[test]
    fn binary_rejects_truncation() {
        let mut buf = Vec::new();
        write_binary(&mut buf, &sample()).unwrap();
        buf.pop();
        let err = read_binary(&buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn empty_roundtrips() {
        let mut buf = Vec::new();
        write_binary(&mut buf, &EdgeList::new()).unwrap();
        assert!(read_binary(&buf[..]).unwrap().is_empty());
        let mut buf = Vec::new();
        write_text(&mut buf, &EdgeList::new()).unwrap();
        assert!(read_text(&buf[..]).unwrap().is_empty());
    }

    #[test]
    fn edge_writer_binary_matches_write_binary() {
        let edges = sample();
        let mut streamed = Vec::new();
        let mut w = EdgeWriter::new(&mut streamed, EdgeFormat::Binary);
        for (u, v) in edges.iter() {
            w.push(u, v);
        }
        assert_eq!(w.count(), edges.len() as u64);
        assert_eq!(w.finish().unwrap(), edges.len() as u64);
        let mut batch = Vec::new();
        write_binary(&mut batch, &edges).unwrap();
        assert_eq!(streamed, batch);
    }

    #[test]
    fn edge_writer_text_matches_write_text() {
        let edges = sample();
        let mut streamed = Vec::new();
        let mut w = EdgeWriter::new(&mut streamed, EdgeFormat::Text);
        for (u, v) in edges.iter() {
            w.push(u, v);
        }
        w.finish().unwrap();
        let mut batch = Vec::new();
        write_text(&mut batch, &edges).unwrap();
        assert_eq!(streamed, batch);
    }

    #[test]
    fn edge_writer_crosses_chunk_boundaries() {
        let n = EDGE_WRITER_CHUNK as u64 * 2 + 17;
        let mut streamed = Vec::new();
        let mut w = EdgeWriter::new(&mut streamed, EdgeFormat::Binary);
        for i in 0..n {
            w.push(i, i + 1);
        }
        assert_eq!(w.finish().unwrap(), n);
        let back = read_binary(&streamed[..]).unwrap();
        assert_eq!(back.len() as u64, n);
        assert_eq!(back.as_slice()[0], (0, 1));
        assert_eq!(back.as_slice()[n as usize - 1], (n - 1, n));
    }

    #[test]
    fn edge_writer_reports_first_io_error() {
        struct FailAfter(usize);
        impl Write for FailAfter {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.0 == 0 {
                    return Err(io::Error::other("disk full"));
                }
                self.0 -= 1;
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut w = EdgeWriter::new(FailAfter(1), EdgeFormat::Binary);
        for i in 0..(EDGE_WRITER_CHUNK as u64 * 3) {
            w.push(i, i); // keeps accepting pushes after the failure
        }
        assert!(w.has_error());
        let err = w.finish().unwrap_err();
        assert!(err.to_string().contains("disk full"));
    }

    #[test]
    fn edge_writer_checkpoint_reports_durable_watermark() {
        for format in [EdgeFormat::Binary, EdgeFormat::Text] {
            // Reference encoding of the first two edges alone.
            let mut prefix = Vec::new();
            let pw = {
                let mut pw = EdgeWriter::new(&mut prefix, format);
                pw.push(12, 3);
                pw.push(400, 9);
                pw.finish().unwrap()
            };
            assert_eq!(pw, 2);
            let mut streamed = Vec::new();
            let mut w = EdgeWriter::new(&mut streamed, format);
            w.push(12, 3);
            w.push(400, 9);
            let (edges, bytes) = w.checkpoint().unwrap();
            assert_eq!((edges, bytes), (2, prefix.len() as u64), "{format:?}");
            // The writer stays usable after a checkpoint.
            w.push(500, 12);
            assert_eq!(w.finish().unwrap(), 3);
        }
    }

    #[test]
    fn edge_writer_resume_continues_counts() {
        let mut first = Vec::new();
        let mut w = EdgeWriter::new(&mut first, EdgeFormat::Text);
        w.push(10, 2);
        let (edges, bytes) = w.checkpoint().unwrap();
        drop(w);
        // Second writer appends to the truncated stream.
        let mut tail = Vec::new();
        let mut w = EdgeWriter::resume(&mut tail, EdgeFormat::Text, edges, bytes);
        assert_eq!(w.count(), 1);
        w.push(11, 0);
        let (edges2, bytes2) = w.checkpoint().unwrap();
        assert_eq!(edges2, 2);
        assert_eq!(w.finish().unwrap(), 2);
        assert_eq!(bytes2, bytes + tail.len() as u64);
        first.extend_from_slice(&tail);
        let back = read_text(&first[..]).unwrap();
        assert_eq!(back.as_slice(), &[(10, 2), (11, 0)]);
    }

    #[test]
    fn edge_writer_checkpoint_surfaces_recorded_error() {
        struct AlwaysFail;
        impl Write for AlwaysFail {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut w = EdgeWriter::new(AlwaysFail, EdgeFormat::Binary);
        w.push(1, 0);
        let err = w.checkpoint().unwrap_err();
        assert!(err.to_string().contains("disk full"));
        // The original error is preserved for finish().
        assert!(w.finish().unwrap_err().to_string().contains("disk full"));
    }

    #[test]
    fn edge_format_ids_round_trip() {
        for f in [EdgeFormat::Text, EdgeFormat::Binary] {
            assert_eq!(EdgeFormat::from_id(f.id()), Some(f));
        }
        assert_eq!(EdgeFormat::from_id(9), None);
        assert_eq!(EdgeFormat::Text.name(), "txt");
        assert_eq!(EdgeFormat::Binary.name(), "bin");
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(Fnv1a::hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv1a::hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv1a::hash(b"foobar"), 0x85944171f73967e8);
        // Incremental updates equal one-shot hashing.
        let mut h = Fnv1a::new();
        h.update(b"foo");
        h.update(b"bar");
        assert_eq!(h.digest(), Fnv1a::hash(b"foobar"));
        // The Write impl absorbs the same way.
        let mut w = Fnv1a::new();
        io::copy(&mut &b"foobar"[..], &mut w).unwrap();
        assert_eq!(w.digest(), Fnv1a::hash(b"foobar"));
        // An edge list hashes as its binary encoding.
        let edges = EdgeList::from_vec(vec![(1, 0), (2, 1), (u64::MAX, 7)]);
        let mut bin = Vec::new();
        write_binary(&mut bin, &edges).unwrap();
        assert_eq!(Fnv1a::hash_edges(&edges), Fnv1a::hash(&bin));
    }

    #[test]
    fn stream_file_from_restreams_the_missing_suffix() {
        let dir = std::env::temp_dir().join("pa_graph_stream_test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("artifact.bin");
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        std::fs::write(&p, &data).unwrap();

        for offset in [0u64, 1, 4096, 9_999, 10_000] {
            let mut got = Vec::new();
            let mut expect_off = offset;
            let len = stream_file_from(&p, offset, 1_000, |off, bytes| {
                assert_eq!(off, expect_off, "chunks must be contiguous");
                expect_off += bytes.len() as u64;
                got.extend_from_slice(bytes);
                Ok(())
            })
            .unwrap();
            assert_eq!(len, data.len() as u64);
            assert_eq!(got, data[offset as usize..], "offset {offset}");
        }

        // An offset past the end is a named error, not an empty stream.
        let err = stream_file_from(&p, 10_001, 1_000, |_, _| Ok(())).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("beyond end"), "{err}");

        // Prefix hashing: prefix digest continued over the suffix equals
        // the whole-file digest.
        let whole = Fnv1a::hash(&data);
        assert_eq!(hash_file_prefix(&p, data.len() as u64).unwrap(), whole);
        let cut = 2_500u64;
        let mut h = Fnv1a::from_digest(hash_file_prefix(&p, cut).unwrap());
        h.update(&data[cut as usize..]);
        assert_eq!(h.digest(), whole);
        assert!(hash_file_prefix(&p, data.len() as u64 + 1).is_err());

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("pa_graph_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("edges.bin");
        write_binary_file(&p, &sample()).unwrap();
        assert_eq!(read_binary_file(&p).unwrap(), sample());
        let p = dir.join("edges.txt");
        write_text_file(&p, &sample()).unwrap();
        assert_eq!(read_text_file(&p).unwrap(), sample());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
