//! The wire framing shared by every `pa-net` connection.
//!
//! A connection is a byte stream of *frames*:
//!
//! ```text
//! frame := len:u32  kind:u8  payload:[u8; len - 1]
//! ```
//!
//! `len` is little-endian and counts the kind byte plus the payload, so a
//! reader always knows exactly how many bytes to pull before it can
//! dispatch — no frame is ever split across dispatches and no scanning
//! for delimiters is needed. Every multi-byte field in every payload is
//! little-endian, explicitly serialized (nothing is memory-dumped), so
//! the format is identical on every host.

use std::io::{self, Read, Write};

use pa_mpsim::wire::{get_u32, get_u64};

/// Handshake magic: `"PANT"` as a little-endian `u32`.
pub(crate) const MAGIC: u32 = 0x544e_4150;

/// Wire protocol version; bumped on any incompatible format change.
/// v2 added the restart epoch to `HELLO` so a stale rank from a previous
/// launch attempt cannot wire into a restarted world.
pub(crate) const VERSION: u32 = 2;

/// Upper bound on a single frame, as a corruption tripwire: a garbled
/// length prefix would otherwise ask the reader to allocate gigabytes.
pub(crate) const MAX_FRAME: usize = 256 << 20;

/// Frame kinds. The discriminants are the on-wire kind bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    /// Bootstrap handshake:
    /// `magic:u32 version:u32 world:u32 rank:u32 epoch:u64`, where
    /// `epoch` is the launcher's restart-attempt generation.
    Hello = 1,
    /// Engine traffic: `count:u32` followed by `count` `Wire`-encoded
    /// messages.
    Data = 2,
    /// Termination ledger broadcast: `completed_total:u64`, the sender's
    /// monotone count of completed work items.
    Term = 3,
    /// Collective up-phase (child → parent): `round:u64 count:u32`
    /// followed by `count` `(rank:u32, val:u64)` contributions — the
    /// sender's whole subtree.
    CollUp = 4,
    /// Collective down-phase (parent → child): `round:u64 count:u32`
    /// followed by the `count` per-rank values of the finished snapshot.
    CollDown = 5,
    /// Orderly goodbye: the peer is done and will close its end; an EOF
    /// *without* a preceding `Bye` is a crash.
    Bye = 6,
}

impl Kind {
    pub(crate) fn from_byte(b: u8) -> Option<Kind> {
        match b {
            1 => Some(Kind::Hello),
            2 => Some(Kind::Data),
            3 => Some(Kind::Term),
            4 => Some(Kind::CollUp),
            5 => Some(Kind::CollDown),
            6 => Some(Kind::Bye),
            _ => None,
        }
    }
}

/// Start a frame of `kind` in `buf` (clearing it first). The length
/// prefix is left as a placeholder; [`finish_frame`] patches it once the
/// payload is in place, so the frame goes out in one `write_all`.
pub(crate) fn begin_frame(buf: &mut Vec<u8>, kind: Kind) {
    buf.clear();
    buf.extend_from_slice(&[0, 0, 0, 0, kind as u8]);
}

/// Patch the length prefix of a frame started with [`begin_frame`].
pub(crate) fn finish_frame(buf: &mut [u8]) {
    let len = (buf.len() - 4) as u32;
    buf[0..4].copy_from_slice(&len.to_le_bytes());
}

/// Build a complete frame in `buf` from a closure that appends the
/// payload, ready for a single `write_all`.
pub(crate) fn build_frame(buf: &mut Vec<u8>, kind: Kind, payload: impl FnOnce(&mut Vec<u8>)) {
    begin_frame(buf, kind);
    payload(buf);
    finish_frame(buf);
}

/// Read one frame without interpreting the kind byte: returns the raw
/// kind and fills `payload` with the bytes after it. Errors on EOF,
/// short reads, and length prefixes outside `1..=max` (`max` lets the
/// serve layer cap client requests far below the transport's
/// [`MAX_FRAME`]). Shared by the transport kinds ([`read_frame`]) and
/// the serve protocol, which owns a disjoint kind-byte space.
pub(crate) fn read_raw_frame(
    r: &mut impl Read,
    payload: &mut Vec<u8>,
    max: usize,
) -> io::Result<u8> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    if len == 0 || len > max {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad frame length {len} (limit {max})"),
        ));
    }
    let mut kind = [0u8; 1];
    r.read_exact(&mut kind)?;
    // Grow with the bytes that arrive, not with what the prefix claims:
    // each step at most doubles what was read, so a garbled length on a
    // short stream costs about twice the bytes sent, not the cap.
    payload.clear();
    let want = len - 1;
    while payload.len() < want {
        let filled = payload.len();
        payload.resize(filled + (want - filled).min(filled.max(READ_STEP)), 0);
        r.read_exact(&mut payload[filled..])?;
    }
    Ok(kind[0])
}

/// The first payload bytes [`read_raw_frame`] reserves before any
/// arrive.
const READ_STEP: usize = 64 << 10;

/// Read one frame: returns its kind and fills `payload` with the bytes
/// after the kind byte. Errors on EOF, short reads, unknown kinds, and
/// length prefixes outside `1..=MAX_FRAME`.
pub(crate) fn read_frame(r: &mut impl Read, payload: &mut Vec<u8>) -> io::Result<Kind> {
    let kind = read_raw_frame(r, payload, MAX_FRAME)?;
    Kind::from_byte(kind).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unknown frame kind {kind}"),
        )
    })
}

/// [`build_frame`] for a raw kind byte (the serve protocol's kinds live
/// outside the transport's [`Kind`] enum).
pub(crate) fn build_raw_frame(buf: &mut Vec<u8>, kind: u8, payload: impl FnOnce(&mut Vec<u8>)) {
    buf.clear();
    buf.extend_from_slice(&[0, 0, 0, 0, kind]);
    payload(buf);
    finish_frame(buf);
}

/// Write a `Hello` frame identifying this end of the connection;
/// `epoch` is the launcher's restart-attempt generation (0 on a first
/// launch).
pub(crate) fn write_hello(w: &mut impl Write, world: u32, rank: u32, epoch: u64) -> io::Result<()> {
    let mut buf = Vec::with_capacity(29);
    build_frame(&mut buf, Kind::Hello, |b| {
        b.extend_from_slice(&MAGIC.to_le_bytes());
        b.extend_from_slice(&VERSION.to_le_bytes());
        b.extend_from_slice(&world.to_le_bytes());
        b.extend_from_slice(&rank.to_le_bytes());
        b.extend_from_slice(&epoch.to_le_bytes());
    });
    w.write_all(&buf)
}

/// Read and validate a `Hello` frame; returns the peer's claimed
/// `(world, rank)`. Magic, version, world, or restart-epoch mismatches
/// are `InvalidData` — they mean the socket is not (this version of) a
/// `pa-net` peer of the same job *attempt*: after a gang restart, a
/// straggler from the previous attempt still carries the old epoch and
/// must be turned away instead of wired into the new world.
pub(crate) fn read_hello(
    r: &mut impl Read,
    expect_world: u32,
    expect_epoch: u64,
) -> io::Result<(u32, u32)> {
    let mut payload = Vec::new();
    let kind = read_frame(r, &mut payload)?;
    let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    if kind != Kind::Hello {
        return Err(bad(format!("expected HELLO, got {kind:?}")));
    }
    let bad_len = || bad(format!("HELLO payload of {} bytes", payload.len()));
    if payload.len() != 24 {
        return Err(bad_len());
    }
    let r = &mut &payload[..];
    let magic = get_u32(r).ok_or_else(bad_len)?;
    let version = get_u32(r).ok_or_else(bad_len)?;
    let world = get_u32(r).ok_or_else(bad_len)?;
    let rank = get_u32(r).ok_or_else(bad_len)?;
    let epoch = get_u64(r).ok_or_else(bad_len)?;
    if magic != MAGIC {
        return Err(bad(format!("bad magic {magic:#x} (not a pa-net peer?)")));
    }
    if version != VERSION {
        return Err(bad(format!(
            "protocol version mismatch: peer speaks v{version}, this build v{VERSION}"
        )));
    }
    if world != expect_world {
        return Err(bad(format!(
            "world-size mismatch: peer launched with -p {world}, this rank with -p {expect_world}"
        )));
    }
    if epoch != expect_epoch {
        return Err(bad(format!(
            "restart-epoch mismatch: peer is from launch attempt {epoch}, this rank from \
             attempt {expect_epoch} — stale rank from a previous attempt?"
        )));
    }
    Ok((world, rank))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn frame_round_trips() {
        let mut buf = Vec::new();
        build_frame(&mut buf, Kind::Term, |b| {
            b.extend_from_slice(&42u64.to_le_bytes());
        });
        assert_eq!(buf.len(), 4 + 1 + 8);
        assert_eq!(u32::from_le_bytes(buf[..4].try_into().unwrap()), 9);
        let mut cursor = &buf[..];
        let mut payload = Vec::new();
        assert_eq!(read_frame(&mut cursor, &mut payload).unwrap(), Kind::Term);
        assert_eq!(payload, 42u64.to_le_bytes());
        assert!(cursor.is_empty());
    }

    #[test]
    fn read_frame_rejects_garbage_lengths() {
        let zero = [0u8; 4];
        assert!(read_frame(&mut &zero[..], &mut Vec::new()).is_err());
        let mut huge = Vec::new();
        huge.extend_from_slice(&(u32::MAX).to_le_bytes());
        huge.push(Kind::Data as u8);
        assert!(read_frame(&mut &huge[..], &mut Vec::new()).is_err());
    }

    #[test]
    fn read_frame_rejects_truncation_and_unknown_kinds() {
        let mut buf = Vec::new();
        build_frame(&mut buf, Kind::Bye, |_| {});
        for cut in 0..buf.len() {
            assert!(
                read_frame(&mut &buf[..cut], &mut Vec::new()).is_err(),
                "accepted truncation at {cut}"
            );
        }
        let unknown = [2u8, 0, 0, 0, 99, 0];
        assert!(read_frame(&mut &unknown[..], &mut Vec::new()).is_err());
    }

    #[test]
    fn hello_round_trips_and_validates() {
        let mut buf = Vec::new();
        write_hello(&mut buf, 4, 2, 7).unwrap();
        assert_eq!(read_hello(&mut &buf[..], 4, 7).unwrap(), (4, 2));
        // World mismatch is a handshake failure.
        let mut buf2 = Vec::new();
        write_hello(&mut buf2, 8, 2, 7).unwrap();
        assert!(read_hello(&mut &buf2[..], 4, 7).is_err());
        // Corrupt magic is rejected.
        let mut bad = buf.clone();
        bad[5] ^= 0xff;
        assert!(read_hello(&mut &bad[..], 4, 7).is_err());
    }

    #[test]
    fn hello_rejects_every_truncation_and_extension() {
        let mut buf = Vec::new();
        write_hello(&mut buf, 4, 2, 7).unwrap();
        let payload = buf[5..].to_vec();
        let cuts = (0..payload.len()).map(|cut| payload[..cut].to_vec());
        for bad in cuts.chain([[&payload[..], &[0]].concat()]) {
            let mut framed = Vec::new();
            build_frame(&mut framed, Kind::Hello, |b| b.extend_from_slice(&bad));
            let err = read_hello(&mut &framed[..], 4, 7).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            assert!(err.to_string().contains("HELLO payload of"), "{err}");
        }
    }

    /// A reader that hands out at most `chunk` bytes per call, so frames
    /// arrive split the way a socket splits them.
    struct Trickle<'a> {
        bytes: &'a [u8],
        chunk: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(self.chunk).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    #[test]
    fn a_garbled_length_allocates_what_arrives_not_what_it_claims() {
        let mut buf = (MAX_FRAME as u32).to_le_bytes().to_vec();
        buf.push(Kind::Data as u8);
        buf.extend_from_slice(&[7; 100]);
        let mut payload = Vec::new();
        let err = read_frame(&mut &buf[..], &mut payload).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
        assert!(
            payload.capacity() <= 2 * READ_STEP,
            "{}",
            payload.capacity()
        );
        // A frame longer than one step still reads whole.
        let body: Vec<u8> = (0..3 * READ_STEP + 5).map(|i| i as u8).collect();
        let mut framed = Vec::new();
        build_frame(&mut framed, Kind::Data, |b| b.extend_from_slice(&body));
        let mut r = Trickle {
            bytes: &framed,
            chunk: 9000,
        };
        assert_eq!(read_frame(&mut r, &mut payload).unwrap(), Kind::Data);
        assert_eq!(payload, body);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// Byte-mutation fuzz of the frame header and body: a stream of
        /// valid frames with length fields overwritten by oversized
        /// values, then bytes flipped, inserted and removed, then cut,
        /// read through a reader that splits it at every `chunk` bytes.
        /// Every read ends in a frame (each consuming at least its five
        /// header bytes, so the loop ends) or in a named `InvalidData` or
        /// `UnexpectedEof` error; no payload exceeds the cap, and no read
        /// reserves more than one step past twice the bytes available.
        #[test]
        fn mutated_frame_streams_end_in_frames_or_named_errors(
            frames in prop_vec((0u8..8, 0usize..40), 1..6),
            oversize in prop_vec((any::<u64>(), 0u8..4), 0..3),
            edits in prop_vec((any::<u64>(), any::<u8>(), 0u8..3), 0..6),
            cut in any::<u64>(),
            chunk in 1usize..9,
            typed in any::<bool>(),
            small_max in 1usize..48,
        ) {
            let mut bytes = Vec::new();
            let mut starts = Vec::new();
            for &(kind, len) in &frames {
                starts.push(bytes.len());
                let mut one = Vec::new();
                build_raw_frame(&mut one, kind, |b| b.extend((0..len).map(|i| i as u8)));
                bytes.extend_from_slice(&one);
            }
            let max = if typed { MAX_FRAME } else { small_max };
            for (pick, size) in oversize {
                let at = starts[(pick % starts.len() as u64) as usize];
                let len = match size {
                    0 => max as u32 + 1,
                    1 => u32::MAX,
                    2 => max as u32,
                    _ => (bytes.len() - at) as u32,
                };
                bytes[at..at + 4].copy_from_slice(&len.to_le_bytes());
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
            let mut r = Trickle { bytes: &bytes, chunk };
            let mut payload = Vec::new();
            loop {
                let before = r.bytes.len();
                let read = if typed {
                    read_frame(&mut r, &mut payload).map(|k| k as u8)
                } else {
                    read_raw_frame(&mut r, &mut payload, max)
                };
                prop_assert!(payload.capacity() <= READ_STEP + 2 * bytes.len());
                match read {
                    Ok(kind) => {
                        prop_assert!(payload.len() < max);
                        prop_assert_eq!(before - r.bytes.len(), 5 + payload.len());
                        if typed {
                            prop_assert!(Kind::from_byte(kind).is_some());
                        }
                    }
                    Err(e) => {
                        prop_assert!(
                            matches!(
                                e.kind(),
                                io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
                            ),
                            "{e}"
                        );
                        prop_assert!(!e.to_string().is_empty());
                        break;
                    }
                }
            }
        }
    }

    #[test]
    fn hello_rejects_stale_restart_epochs() {
        let mut buf = Vec::new();
        write_hello(&mut buf, 4, 2, 0).unwrap();
        let err = read_hello(&mut &buf[..], 4, 1).unwrap_err();
        assert!(err.to_string().contains("restart-epoch"), "{err}");
    }
}
