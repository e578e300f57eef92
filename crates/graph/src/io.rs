//! Edge-list I/O.
//!
//! The paper's processors "have a shared file system and read-write data
//! files from the same external memory [...] independently". We mirror
//! that: each rank streams its own partition's edges to its own part
//! file through an [`EdgeWriter`], and an analysis step reads the
//! concatenation back.

use crate::{EdgeList, Node};
use std::fs::File;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::path::Path;

/// Write edges as ASCII `u v` lines.
pub fn write_text<W: Write>(w: W, edges: &EdgeList) -> io::Result<()> {
    write_edges(w, EdgeFormat::Text, edges)
}

/// Encode a whole edge list through [`EdgeWriter`], the one encoder of
/// each format.
fn write_edges<W: Write>(w: W, format: EdgeFormat, edges: &EdgeList) -> io::Result<()> {
    let mut writer = EdgeWriter::new(w, format);
    for (u, v) in edges.iter() {
        writer.push(u, v);
    }
    writer.finish().map(drop)
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
    write_edges(w, EdgeFormat::Binary, edges)
}

/// Read edges written by [`write_binary`]. A trailing partial record is an
/// error.
pub fn read_binary<R: Read>(r: R) -> io::Result<EdgeList> {
    EdgeReader::new(BufReader::new(r), EdgeFormat::Binary)
        .collect::<io::Result<Vec<_>>>()
        .map(EdgeList::from_vec)
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
        write_binary(&mut h, edges).expect("hashing never fails");
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

/// Bytes of one binary record: two little-endian `u64`s.
const BINARY_RECORD: usize = 16;

/// Longest text record: two 20-digit `u64`s, a space and a newline.
const TEXT_RECORD_MAX: usize = 42;

/// `"00" "01" … "99"`: two decimal digits per table entry.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Write the decimal digits of `x` so that they end just before
/// `buf[end]`; returns the index of the first digit.
#[inline]
fn put_decimal(buf: &mut [u8; TEXT_RECORD_MAX], mut end: usize, mut x: u64) -> usize {
    while x >= 100 {
        let pair = (x % 100) as usize * 2;
        x /= 100;
        end -= 2;
        buf[end..end + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if x >= 10 {
        let pair = x as usize * 2;
        end -= 2;
        buf[end..end + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        end -= 1;
        buf[end] = b'0' + x as u8;
    }
    end
}

/// Append the text record `"{u} {v}\n"` to `out`, built back to front in
/// a stack buffer and copied once.
///
/// Kept out of line: [`EdgeWriter::push`] is inlined into every engine's
/// per-edge loop, and with the digit loops inlined there too a paged
/// engine-3 `bin` run was about 6 % slower.
#[inline(never)]
fn push_text_record(out: &mut Vec<u8>, u: Node, v: Node) {
    let mut rec = [0u8; TEXT_RECORD_MAX];
    rec[TEXT_RECORD_MAX - 1] = b'\n';
    let mut start = put_decimal(&mut rec, TEXT_RECORD_MAX - 1, v);
    start -= 1;
    rec[start] = b' ';
    start = put_decimal(&mut rec, start, u);
    out.extend_from_slice(&rec[start..]);
}

/// A chunk-buffered streaming edge writer.
///
/// The generators deliver edges one at a time from hot per-node loops, so
/// [`EdgeWriter::push`] is infallible: each edge is encoded once, straight
/// into one byte buffer the writer owns and reuses; every
/// [`EDGE_WRITER_CHUNK`] edges that buffer goes out in one `write_all`,
/// and the first I/O error is recorded and returned by
/// [`EdgeWriter::finish`] (all writes after a recorded error become
/// no-ops). Peak resident memory is one chunk's encoding, independent of
/// how many edges pass through.
#[derive(Debug)]
pub struct EdgeWriter<W: Write> {
    w: W,
    format: EdgeFormat,
    /// Encoded records of the edges not yet handed to `w`.
    buf: Vec<u8>,
    /// Number of edges encoded in `buf`.
    pending: usize,
    written: u64,
    bytes: u64,
    error: Option<io::Error>,
}

impl<W: Write> EdgeWriter<W> {
    /// Streaming writer over `w` in the given format.
    ///
    /// Callers pass the raw sink (e.g. a [`File`]); chunking makes an
    /// extra [`BufWriter`](std::io::BufWriter) layer unnecessary.
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
            // Exactly one binary chunk; text records of labels below 10⁷
            // fit too, longer ones grow the buffer once and keep it.
            buf: Vec::with_capacity(EDGE_WRITER_CHUNK * BINARY_RECORD),
            pending: 0,
            written,
            bytes,
            error: None,
        }
    }

    /// Append one edge. Never fails; I/O errors surface in
    /// [`EdgeWriter::finish`].
    #[inline]
    pub fn push(&mut self, u: Node, v: Node) {
        match self.format {
            EdgeFormat::Binary => {
                let mut rec = [0u8; BINARY_RECORD];
                rec[..8].copy_from_slice(&u.to_le_bytes());
                rec[8..].copy_from_slice(&v.to_le_bytes());
                self.buf.extend_from_slice(&rec);
            }
            EdgeFormat::Text => push_text_record(&mut self.buf, u, v),
        }
        self.pending += 1;
        if self.pending >= EDGE_WRITER_CHUNK {
            self.write_chunk();
        }
    }

    /// Edges accepted so far (including any still in the chunk buffer).
    pub fn count(&self) -> u64 {
        self.written + self.pending as u64
    }

    /// Whether an I/O error has been recorded.
    pub fn has_error(&self) -> bool {
        self.error.is_some()
    }

    fn write_chunk(&mut self) {
        if self.error.is_none() {
            match self.w.write_all(&self.buf) {
                Ok(()) => self.bytes += self.buf.len() as u64,
                Err(e) => self.error = Some(e),
            }
        }
        self.written += self.pending as u64;
        self.pending = 0;
        self.buf.clear();
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

/// The strict decoder of what [`EdgeWriter`] writes, one edge at a time:
/// 16-byte little-endian records in `bin`, `"{u} {v}\n"` lines in
/// canonical decimal in `txt`. It is how a resuming rank reads its part
/// file's committed prefix back, so every input that is not exactly such
/// records ends in an `InvalidData` or `UnexpectedEof` error naming the
/// record, after which the iterator ends. Decoding holds one record on
/// the stack and allocates nothing, whatever the input.
#[derive(Debug)]
pub struct EdgeReader<R: BufRead> {
    r: R,
    format: EdgeFormat,
    /// Records decoded so far.
    records: u64,
    failed: bool,
}

impl<R: BufRead> EdgeReader<R> {
    /// Decoder of the `format` records in `r`.
    pub fn new(r: R, format: EdgeFormat) -> Self {
        Self {
            r,
            format,
            records: 0,
            failed: false,
        }
    }

    /// The next record's bytes, through its newline in `txt`, into
    /// `rec`; their count, 0 at a clean end of input.
    fn fill(&mut self, rec: &mut [u8; TEXT_RECORD_MAX]) -> io::Result<usize> {
        let want = match self.format {
            EdgeFormat::Binary => BINARY_RECORD,
            EdgeFormat::Text => TEXT_RECORD_MAX,
        };
        let mut len = 0;
        loop {
            let buf = self.r.fill_buf()?;
            if buf.is_empty() {
                return match len {
                    0 => Ok(0),
                    _ => Err(self.bad(io::ErrorKind::UnexpectedEof, "is cut short")),
                };
            }
            let (take, done) = match self.format {
                EdgeFormat::Binary => {
                    let take = buf.len().min(want - len);
                    (take, len + take == want)
                }
                EdgeFormat::Text => match buf.iter().position(|&b| b == b'\n') {
                    Some(i) => (i + 1, true),
                    None => (buf.len(), false),
                },
            };
            if len + take > want {
                return Err(self.bad(io::ErrorKind::InvalidData, "is too long"));
            }
            rec[len..len + take].copy_from_slice(&buf[..take]);
            self.r.consume(take);
            len += take;
            if done {
                return Ok(len);
            }
        }
    }

    fn bad(&self, kind: io::ErrorKind, what: &str) -> io::Error {
        let format = self.format.name();
        io::Error::new(
            kind,
            format!("{format} edge record {} {what}", self.records),
        )
    }
}

/// A canonical decimal `u64`: digits only, no leading zero but in `0`
/// itself, no overflow.
fn parse_decimal(digits: &[u8]) -> Option<Node> {
    if digits.is_empty() || digits.len() > 1 && digits[0] == b'0' {
        return None;
    }
    digits.iter().try_fold(0u64, |acc, &b| {
        let d = b.wrapping_sub(b'0');
        (d < 10).then_some(())?;
        acc.checked_mul(10)?.checked_add(u64::from(d))
    })
}

impl<R: BufRead> Iterator for EdgeReader<R> {
    type Item = io::Result<(Node, Node)>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        let mut rec = [0u8; TEXT_RECORD_MAX];
        let edge = match self.fill(&mut rec) {
            Ok(0) => return None,
            Ok(len) => match self.format {
                EdgeFormat::Binary => Ok((
                    Node::from_le_bytes(rec[..8].try_into().expect("8 bytes")),
                    Node::from_le_bytes(rec[8..16].try_into().expect("8 bytes")),
                )),
                EdgeFormat::Text => {
                    let line = &rec[..len - 1];
                    line.iter()
                        .position(|&b| b == b' ')
                        .and_then(|i| {
                            Some((parse_decimal(&line[..i])?, parse_decimal(&line[i + 1..])?))
                        })
                        .ok_or_else(|| self.bad(io::ErrorKind::InvalidData, "is not a `u v` line"))
                }
            },
            Err(e) => Err(e),
        };
        self.failed = edge.is_err();
        self.records += 1;
        Some(edge)
    }
}

/// Convenience: read a text edge list from a path.
pub fn read_text_file<P: AsRef<Path>>(path: P) -> io::Result<EdgeList> {
    read_text(File::open(path)?)
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
    fn edge_reader_decodes_what_edge_writer_wrote() {
        let edges = [(0, 0), (7, 3), (10, 9), (u64::MAX, u64::MAX - 1)];
        for format in [EdgeFormat::Binary, EdgeFormat::Text] {
            let bytes = encode(format, &edges);
            let back: Vec<_> = EdgeReader::new(&bytes[..], format)
                .collect::<io::Result<_>>()
                .unwrap();
            assert_eq!(back, edges, "{format:?}");
        }
    }

    #[test]
    fn edge_reader_names_every_record_that_is_not_exactly_a_record() {
        let first = |bytes: &[u8], format| {
            let mut r = EdgeReader::new(bytes, format);
            let err = r.nth(1).unwrap().unwrap_err();
            assert!(r.next().is_none(), "{bytes:?}: the reader goes on");
            (err.kind(), err.to_string())
        };
        for bad in [
            &b"1 0\n01 0\n"[..],
            b"1 0\n1  0\n",
            b"1 0\n+1 0\n",
            b"1 0\n 1 0\n",
            b"1 0\n1 0 0\n",
            b"1 0\n1\n",
            b"1 0\n\n",
            b"1 0\n18446744073709551616 0\n",
            b"1 0\n1 0\r\n",
        ] {
            let (kind, msg) = first(bad, EdgeFormat::Text);
            assert_eq!(kind, io::ErrorKind::InvalidData, "{bad:?}");
            assert_eq!(msg, "txt edge record 1 is not a `u v` line", "{bad:?}");
        }
        let long = [&b"1 0\n"[..], &[b'1'; TEXT_RECORD_MAX + 1]].concat();
        let (kind, msg) = first(&long, EdgeFormat::Text);
        assert_eq!(
            (kind, msg.as_str()),
            (io::ErrorKind::InvalidData, "txt edge record 1 is too long")
        );
        let (kind, msg) = first(b"1 0\n1 0", EdgeFormat::Text);
        assert_eq!(
            (kind, msg.as_str()),
            (
                io::ErrorKind::UnexpectedEof,
                "txt edge record 1 is cut short"
            )
        );
        let (kind, msg) = first(&[0; 31], EdgeFormat::Binary);
        assert_eq!(
            (kind, msg.as_str()),
            (
                io::ErrorKind::UnexpectedEof,
                "bin edge record 1 is cut short"
            )
        );
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

    /// `EdgeWriter`'s output for `edges` in `format`.
    fn encode(format: EdgeFormat, edges: &[(Node, Node)]) -> Vec<u8> {
        let mut out = Vec::new();
        let mut w = EdgeWriter::new(&mut out, format);
        for &(u, v) in edges {
            w.push(u, v);
        }
        assert_eq!(w.count(), edges.len() as u64);
        assert_eq!(w.finish().unwrap(), edges.len() as u64);
        out
    }

    #[test]
    fn edge_writer_binary_pins_sample_bytes() {
        let mut expected = Vec::new();
        expected.extend_from_slice(&[0, 0, 0, 0, 0, 0, 0, 0]);
        expected.extend_from_slice(&[1, 0, 0, 0, 0, 0, 0, 0]);
        expected.extend_from_slice(&[7, 0, 0, 0, 0, 0, 0, 0]);
        expected.extend_from_slice(&[3, 0, 0, 0, 0, 0, 0, 0]);
        expected.extend_from_slice(&[0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff]);
        expected.extend_from_slice(&[2, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(encode(EdgeFormat::Binary, sample().as_slice()), expected);
        let mut batch = Vec::new();
        write_binary(&mut batch, &sample()).unwrap();
        assert_eq!(batch, expected);
    }

    #[test]
    fn edge_writer_text_pins_sample_bytes() {
        let expected = b"0 1\n7 3\n18446744073709551614 2\n";
        assert_eq!(encode(EdgeFormat::Text, sample().as_slice()), expected);
        let mut batch = Vec::new();
        write_text(&mut batch, &sample()).unwrap();
        assert_eq!(batch, expected);
    }

    #[test]
    fn text_encoder_matches_format_at_every_digit_boundary() {
        let mut values = vec![0, u64::MAX];
        let mut pow = 1u64;
        for _ in 1..=19 {
            pow *= 10;
            values.extend([pow - 1, pow]);
        }
        let pairs: Vec<(Node, Node)> = values
            .iter()
            .flat_map(|&u| values.iter().map(move |&v| (u, v)))
            .collect();
        let reference: String = pairs.iter().map(|(u, v)| format!("{u} {v}\n")).collect();
        assert_eq!(
            String::from_utf8(encode(EdgeFormat::Text, &pairs)).unwrap(),
            reference
        );
    }

    #[test]
    fn edge_writer_writes_once_per_chunk() {
        /// Records the length of every `write` call.
        struct Recorder(Vec<usize>);
        impl Write for Recorder {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.push(buf.len());
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        for format in [EdgeFormat::Binary, EdgeFormat::Text] {
            let edge = |i: u64| (i * 1_000_003, i);
            let mut rec = Recorder(Vec::new());
            let mut w = EdgeWriter::new(&mut rec, format);
            for i in 0..EDGE_WRITER_CHUNK as u64 - 1 {
                let (u, v) = edge(i);
                w.push(u, v);
            }
            drop(w);
            assert!(rec.0.is_empty(), "{format:?}: wrote before a chunk filled");

            let n = EDGE_WRITER_CHUNK as u64 * 2 + 17;
            let mut w = EdgeWriter::new(&mut rec, format);
            for i in 0..n {
                let (u, v) = edge(i);
                w.push(u, v);
            }
            w.finish().unwrap();
            let chunks: Vec<Vec<(Node, Node)>> = (0..n)
                .map(edge)
                .collect::<Vec<_>>()
                .chunks(EDGE_WRITER_CHUNK)
                .map(<[_]>::to_vec)
                .collect();
            let expected: Vec<usize> = chunks.iter().map(|c| encode(format, c).len()).collect();
            assert_eq!(rec.0, expected, "{format:?}");
        }
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
        write_binary(File::create(&p).unwrap(), &sample()).unwrap();
        assert_eq!(read_binary_file(&p).unwrap(), sample());
        let p = dir.join("edges.txt");
        write_text(File::create(&p).unwrap(), &sample()).unwrap();
        assert_eq!(read_text_file(&p).unwrap(), sample());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
