//! The serve wire protocol.
//!
//! Serve messages ride the same `len:u32 kind:u8 payload` frames as the
//! rank-to-rank transport (see `crate::frame`), in a disjoint kind-byte
//! space (`0x41..`), so a stray engine peer dialing a serve port — or
//! vice versa — fails with a named error instead of misparsing. Every
//! multi-byte field is little-endian and explicitly serialized.
//!
//! A connection carries exactly one conversation:
//!
//! ```text
//! data:    client  SUBMIT{spec, offset}
//!          server  ACCEPT{job_id, offset, total}      (or REJECT)
//!                  CHUNK{offset, bytes}*
//!                  DONE{total, checksum}
//! control: client  DRAIN_REQ
//!          server  DRAIN_ACK{running, dropped}
//! health:  client  STATUS_REQ
//!          server  STATUS_ACK{queue, pool, cache, counters}
//! ```
//!
//! Client→server frames are tiny by construction, so the server reads
//! them under the [`MAX_REQUEST_FRAME`] cap — a garbled or hostile
//! length prefix is rejected before any allocation, long before the
//! transport's 256 MiB corruption tripwire.

use std::io::{self, Read, Write};
use std::time::Duration;

use crate::frame::{build_raw_frame, read_raw_frame, MAGIC, MAX_FRAME};
use pa_graph::job::JOB_CANONICAL_LEN;
use pa_mpsim::wire::{get_u32, get_u64, get_u8, take};
use pa_mpsim::Wire;

/// Serve protocol version, negotiated in every `SUBMIT`/`DRAIN_REQ`/
/// `STATUS_REQ`; bumped on any incompatible change to message layouts
/// *or* to the canonical job encoding (the job-id function is part of
/// the wire contract). v2 added the `JobTimeout`/`Overloaded` reject
/// codes and the `STATUS_REQ`/`STATUS_ACK` pair.
pub const SERVE_VERSION: u32 = 2;

/// Upper bound on any client→server frame. Requests are fixed-size and
/// small; anything larger is garbage or abuse and is rejected before
/// allocation.
pub const MAX_REQUEST_FRAME: usize = 1024;

/// Kind byte of a `SUBMIT` frame (client → server).
pub const KIND_SUBMIT: u8 = 0x41;
/// Kind byte of an `ACCEPT` frame (server → client).
pub const KIND_ACCEPT: u8 = 0x42;
/// Kind byte of a `REJECT` frame (server → client).
pub const KIND_REJECT: u8 = 0x43;
/// Kind byte of a `CHUNK` frame (server → client).
pub const KIND_CHUNK: u8 = 0x44;
/// Kind byte of a `DONE` frame (server → client).
pub const KIND_DONE: u8 = 0x45;
/// Kind byte of a `DRAIN_REQ` frame (client → server).
pub const KIND_DRAIN_REQ: u8 = 0x46;
/// Kind byte of a `DRAIN_ACK` frame (server → client).
pub const KIND_DRAIN_ACK: u8 = 0x47;
/// Kind byte of a `STATUS_REQ` frame (client → server).
pub const KIND_STATUS_REQ: u8 = 0x48;
/// Kind byte of a `STATUS_ACK` frame (server → client).
pub const KIND_STATUS_ACK: u8 = 0x49;

/// The run tuple as it crosses the wire — `pa_graph::job::JobSpec`, the
/// same struct `pa-core` validates and maps onto engines, so both sides
/// of the wire derive one [`JobSpec::job_id`]. The serve layer never
/// interprets it beyond hashing.
pub use pa_graph::job::JobSpec;

/// `SUBMIT` payload length: magic, version, canonical job, offset.
const SUBMIT_LEN: usize = 4 + 4 + JOB_CANONICAL_LEN + 8;

/// Why a submission was turned away. The discriminants are on-wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum RejectCode {
    /// The request is malformed or names an invalid/unknown job
    /// (engine rules violated, unknown discriminants, bad payload).
    BadRequest = 1,
    /// The job queue is at capacity; retry after the hinted delay.
    QueueFull = 2,
    /// The server is draining and admits no new work; a queued job
    /// cancelled by a drain also reports this code.
    Draining = 3,
    /// The client speaks a different serve-protocol version.
    UnsupportedVersion = 4,
    /// The resume offset lies beyond the artifact's end.
    BadOffset = 5,
    /// The job was admitted but its run failed; the message carries the
    /// runner's error. The failure is not cached — a later submit
    /// retries the run (until the server's per-tuple failure budget is
    /// spent, after which the same code reports budget exhaustion).
    JobFailed = 6,
    /// The job ran past the server's per-job deadline and was abandoned.
    /// Transient by classification: a retry lands on a fresh run.
    JobTimeout = 7,
    /// The server is at its connection cap; retry after the hinted
    /// delay.
    Overloaded = 8,
}

impl RejectCode {
    /// Decode an on-wire code byte.
    pub fn from_byte(b: u8) -> Option<RejectCode> {
        RejectCode::ALL.get(usize::from(b).checked_sub(1)?).copied()
    }

    /// Short stable name for logs and error messages.
    pub fn name(&self) -> &'static str {
        match self {
            RejectCode::BadRequest => "bad-request",
            RejectCode::QueueFull => "queue-full",
            RejectCode::Draining => "draining",
            RejectCode::UnsupportedVersion => "unsupported-version",
            RejectCode::BadOffset => "bad-offset",
            RejectCode::JobFailed => "job-failed",
            RejectCode::JobTimeout => "job-timeout",
            RejectCode::Overloaded => "overloaded",
        }
    }

    /// Whether a client should retry the same request later.
    /// [`RejectCode::QueueFull`], [`RejectCode::JobTimeout`] and
    /// [`RejectCode::Overloaded`] are transient resource/deadline
    /// conditions; every other code means the same request will keep
    /// failing. ([`RejectCode::JobFailed`] is deliberately *not*
    /// flagged — the run may be deterministic-broken — but failures are
    /// not cached server-side, so `fetch` still retries it through its
    /// bounded attempt budget.)
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            RejectCode::QueueFull | RejectCode::JobTimeout | RejectCode::Overloaded
        )
    }

    /// Every code, in discriminant order (discriminants are `1..=N`
    /// with no gaps; pinned by a test).
    pub const ALL: [RejectCode; REJECT_CODE_COUNT] = [
        RejectCode::BadRequest,
        RejectCode::QueueFull,
        RejectCode::Draining,
        RejectCode::UnsupportedVersion,
        RejectCode::BadOffset,
        RejectCode::JobFailed,
        RejectCode::JobTimeout,
        RejectCode::Overloaded,
    ];
}

/// Number of [`RejectCode`] variants (sizes the per-code counters).
pub const REJECT_CODE_COUNT: usize = 8;

impl std::fmt::Display for RejectCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

pa_mpsim::counters! {
    /// Counters reported by `Server::stats`, `Server::join` and the
    /// `STATUS_ACK` frame. Monotonic over a daemon's lifetime; after a
    /// quiesced drain they reconcile as
    /// `jobs_admitted == jobs_run + jobs_failed + jobs_drained`.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ServeStats {
        /// Jobs admitted to the queue (each admission leads to exactly one
        /// run attempt; lets tests sequence submissions deterministically).
        jobs_admitted: sum,
        /// Jobs actually executed to completion (coalesced/cached submits
        /// don't re-run).
        jobs_run: sum,
        /// Submits served from an existing entry — a run in flight or a
        /// cached artifact — instead of a fresh run.
        jobs_coalesced: sum,
        /// Rejections sent, of any code (see [`ServeStats::rejects_by`]).
        rejects: sum,
        /// Queued jobs cancelled by a drain.
        jobs_drained: sum,
        /// Artifact bytes streamed to completion (suffix length on resume).
        bytes_streamed: sum,
        /// Run attempts that ended in failure of any kind (runner error,
        /// runner panic, deadline timeout, publish error).
        jobs_failed: sum,
        /// The subset of [`ServeStats::jobs_failed`] abandoned at the
        /// per-job deadline.
        jobs_timed_out: sum,
        /// Runner panics caught by worker supervision (the pool survives
        /// each one).
        worker_panics: sum,
        /// Artifacts rebuilt into the cache by the startup recovery scan.
        jobs_recovered: sum,
        /// Stale `*.tmp` files deleted by the startup recovery scan.
        tmp_cleaned: sum,
        /// Completed artifacts evicted to hold the cache byte quota.
        jobs_evicted: sum,
    }
    plus {
        /// Rejections by code, indexed `code as u8 - 1` (see
        /// [`RejectCode::ALL`]); sums to [`ServeStats::rejects`].
        rejects_by: [u64; REJECT_CODE_COUNT] = sum,
    }
}

impl ServeStats {
    /// Count one rejection under its code.
    pub(crate) fn note_reject(&mut self, code: RejectCode) {
        self.rejects += 1;
        self.rejects_by[(code as u8 - 1) as usize] += 1;
    }

    /// Rejections sent with `code`.
    pub fn rejects_for(&self, code: RejectCode) -> u64 {
        self.rejects_by[(code as u8 - 1) as usize]
    }
}

/// A point-in-time health snapshot of a serve daemon, carried by
/// `STATUS_ACK` and returned by `Server::status` / [`super::status`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStatus {
    /// Jobs waiting in the queue.
    pub queued: u32,
    /// Jobs currently executing.
    pub running: u32,
    /// Open client connections (a wire `STATUS_REQ` counts itself).
    pub active_conns: u32,
    /// Healthy workers (the configured pool size, minus any currently
    /// wedged, plus their already-spawned replacements).
    pub workers: u32,
    /// Workers stuck past their job's deadline, already replaced and
    /// awaiting retirement.
    pub workers_wedged: u32,
    /// Completed artifacts in the cache.
    pub cache_artifacts: u32,
    /// Whether a drain has been observed.
    pub draining: bool,
    /// Total bytes of completed artifacts in the cache.
    pub cache_bytes: u64,
    /// Lifetime counters.
    pub stats: ServeStats,
}

/// `STATUS_ACK` payload length: six `u32` gauges, a drain flag byte,
/// the cache byte gauge, the scalar counters, the per-code rejects.
const STATUS_ACK_LEN: usize = 6 * 4 + 1 + 8 + ServeStats::NAMES.len() * 8 + REJECT_CODE_COUNT * 8;

/// A parsed serve message (either direction).
#[derive(Debug, Clone, PartialEq)]
pub enum ServeMsg {
    /// Job submission. `offset` is the first artifact byte the client
    /// wants (0 for a fresh fetch, the durable file length on resume).
    Submit {
        /// The job parameter tuple.
        spec: JobSpec,
        /// First byte wanted.
        offset: u64,
    },
    /// The job is (now) complete; streaming starts at `offset`.
    Accept {
        /// Identity echo — [`JobSpec::job_id`] as the server computed it.
        job_id: u64,
        /// Offset echo.
        offset: u64,
        /// Total artifact length in bytes.
        total: u64,
    },
    /// The request was turned away.
    Reject {
        /// Why.
        code: RejectCode,
        /// Retry hint (meaningful for retryable codes, zero otherwise).
        retry_after: Duration,
        /// Human-readable detail.
        msg: String,
    },
    /// One contiguous slice of the artifact.
    Chunk {
        /// Absolute offset of the first byte of `data`.
        offset: u64,
        /// The bytes.
        data: Vec<u8>,
    },
    /// The stream is complete.
    Done {
        /// Total artifact length (echo).
        total: u64,
        /// FNV-1a digest of the *whole* artifact, byte 0 to `total` —
        /// resumed clients verify the stitched file, not just the tail.
        checksum: u64,
    },
    /// Control: wind the daemon down.
    DrainReq,
    /// Control reply: drain observed.
    DrainAck {
        /// Jobs still running (they will finish and stream).
        running: u32,
        /// Queued jobs dropped with a [`RejectCode::Draining`] rejection.
        dropped: u32,
    },
    /// Health: ask for a status snapshot.
    StatusReq,
    /// Health reply: the snapshot.
    Status(ServeStatus),
}

/// Write a `SUBMIT` frame.
///
/// # Errors
///
/// Propagates the underlying write error.
pub fn write_submit(w: &mut impl Write, spec: &JobSpec, offset: u64) -> io::Result<()> {
    let mut buf = Vec::with_capacity(5 + SUBMIT_LEN);
    build_raw_frame(&mut buf, KIND_SUBMIT, |b| {
        b.extend_from_slice(&MAGIC.to_le_bytes());
        b.extend_from_slice(&SERVE_VERSION.to_le_bytes());
        b.extend_from_slice(&spec.canonical_bytes());
        b.extend_from_slice(&offset.to_le_bytes());
    });
    w.write_all(&buf)
}

/// Write an `ACCEPT` frame.
///
/// # Errors
///
/// Propagates the underlying write error.
pub fn write_accept(w: &mut impl Write, job_id: u64, offset: u64, total: u64) -> io::Result<()> {
    let mut buf = Vec::with_capacity(5 + 24);
    build_raw_frame(&mut buf, KIND_ACCEPT, |b| {
        b.extend_from_slice(&job_id.to_le_bytes());
        b.extend_from_slice(&offset.to_le_bytes());
        b.extend_from_slice(&total.to_le_bytes());
    });
    w.write_all(&buf)
}

/// Write a `REJECT` frame.
///
/// # Errors
///
/// Propagates the underlying write error.
pub fn write_reject(
    w: &mut impl Write,
    code: RejectCode,
    retry_after: Duration,
    msg: &str,
) -> io::Result<()> {
    let retry_ms = u32::try_from(retry_after.as_millis()).unwrap_or(u32::MAX);
    let mut buf = Vec::with_capacity(5 + 5 + msg.len());
    build_raw_frame(&mut buf, KIND_REJECT, |b| {
        b.push(code as u8);
        b.extend_from_slice(&retry_ms.to_le_bytes());
        b.extend_from_slice(msg.as_bytes());
    });
    w.write_all(&buf)
}

/// Write a `CHUNK` frame.
///
/// # Errors
///
/// Propagates the underlying write error.
pub fn write_chunk(w: &mut impl Write, offset: u64, data: &[u8]) -> io::Result<()> {
    let mut buf = Vec::with_capacity(5 + 8 + data.len());
    build_raw_frame(&mut buf, KIND_CHUNK, |b| {
        b.extend_from_slice(&offset.to_le_bytes());
        b.extend_from_slice(data);
    });
    w.write_all(&buf)
}

/// Write a `DONE` frame.
///
/// # Errors
///
/// Propagates the underlying write error.
pub fn write_done(w: &mut impl Write, total: u64, checksum: u64) -> io::Result<()> {
    let mut buf = Vec::with_capacity(5 + 16);
    build_raw_frame(&mut buf, KIND_DONE, |b| {
        b.extend_from_slice(&total.to_le_bytes());
        b.extend_from_slice(&checksum.to_le_bytes());
    });
    w.write_all(&buf)
}

/// Write a `DRAIN_REQ` frame.
///
/// # Errors
///
/// Propagates the underlying write error.
pub fn write_drain_req(w: &mut impl Write) -> io::Result<()> {
    let mut buf = Vec::with_capacity(5 + 8);
    build_raw_frame(&mut buf, KIND_DRAIN_REQ, |b| {
        b.extend_from_slice(&MAGIC.to_le_bytes());
        b.extend_from_slice(&SERVE_VERSION.to_le_bytes());
    });
    w.write_all(&buf)
}

/// Write a `DRAIN_ACK` frame.
///
/// # Errors
///
/// Propagates the underlying write error.
pub fn write_drain_ack(w: &mut impl Write, running: u32, dropped: u32) -> io::Result<()> {
    let mut buf = Vec::with_capacity(5 + 8);
    build_raw_frame(&mut buf, KIND_DRAIN_ACK, |b| {
        b.extend_from_slice(&running.to_le_bytes());
        b.extend_from_slice(&dropped.to_le_bytes());
    });
    w.write_all(&buf)
}

/// Write a `STATUS_REQ` frame.
///
/// # Errors
///
/// Propagates the underlying write error.
pub fn write_status_req(w: &mut impl Write) -> io::Result<()> {
    let mut buf = Vec::with_capacity(5 + 8);
    build_raw_frame(&mut buf, KIND_STATUS_REQ, |b| {
        b.extend_from_slice(&MAGIC.to_le_bytes());
        b.extend_from_slice(&SERVE_VERSION.to_le_bytes());
    });
    w.write_all(&buf)
}

/// Write a `STATUS_ACK` frame.
///
/// # Errors
///
/// Propagates the underlying write error.
pub fn write_status_ack(w: &mut impl Write, status: &ServeStatus) -> io::Result<()> {
    let mut buf = Vec::with_capacity(5 + STATUS_ACK_LEN);
    build_raw_frame(&mut buf, KIND_STATUS_ACK, |b| {
        for gauge in [
            status.queued,
            status.running,
            status.active_conns,
            status.workers,
            status.workers_wedged,
            status.cache_artifacts,
        ] {
            b.extend_from_slice(&gauge.to_le_bytes());
        }
        b.push(u8::from(status.draining));
        b.extend_from_slice(&status.cache_bytes.to_le_bytes());
        status.stats.to_words().encode(b);
        status.stats.rejects_by.encode(b);
    });
    w.write_all(&buf)
}

/// Errors a request can fail parsing with, split by how the server must
/// answer: version mismatches get their own reject code so old clients
/// learn *why* instead of a generic bad-request.
#[derive(Debug)]
pub(crate) enum RequestError {
    /// Not (this version of) a serve client.
    Version(String),
    /// Structurally broken request.
    Malformed(String),
}

/// Parse a client→server request (`SUBMIT`, `DRAIN_REQ` or
/// `STATUS_REQ`) from its raw kind byte and payload, validating length,
/// magic and version in that order.
pub(crate) fn parse_request(kind: u8, payload: &[u8]) -> Result<ServeMsg, RequestError> {
    let (what, len) = match kind {
        KIND_SUBMIT => ("SUBMIT", SUBMIT_LEN),
        KIND_DRAIN_REQ => ("DRAIN_REQ", 8),
        KIND_STATUS_REQ => ("STATUS_REQ", 8),
        other => {
            return Err(RequestError::Malformed(format!(
                "unknown request kind {other:#04x}"
            )))
        }
    };
    let bad_len = || {
        RequestError::Malformed(format!(
            "{what} payload must be {len} bytes, got {}",
            payload.len()
        ))
    };
    if payload.len() != len {
        return Err(bad_len());
    }
    let r = &mut &payload[..];
    let magic = get_u32(r).ok_or_else(bad_len)?;
    let version = get_u32(r).ok_or_else(bad_len)?;
    if magic != MAGIC {
        return Err(RequestError::Malformed(format!(
            "{what}: bad magic {magic:#x} (not a pa-net serve client?)"
        )));
    }
    if version != SERVE_VERSION {
        return Err(RequestError::Version(format!(
            "{what}: peer speaks serve protocol v{version}, this build v{SERVE_VERSION}"
        )));
    }
    Ok(match kind {
        KIND_SUBMIT => {
            let mut job = [0u8; JOB_CANONICAL_LEN];
            job.copy_from_slice(take(r, JOB_CANONICAL_LEN).ok_or_else(bad_len)?);
            ServeMsg::Submit {
                spec: JobSpec::from_canonical(&job),
                offset: get_u64(r).ok_or_else(bad_len)?,
            }
        }
        KIND_DRAIN_REQ => ServeMsg::DrainReq,
        _ => ServeMsg::StatusReq,
    })
}

/// Read one server→client reply frame.
///
/// # Errors
///
/// `InvalidData` on unknown kinds, wrong payload lengths, unknown
/// reject codes, or non-UTF-8 reject messages; I/O errors pass through.
pub fn read_reply(r: &mut impl Read) -> io::Result<ServeMsg> {
    let mut payload = Vec::new();
    let kind = read_raw_frame(r, &mut payload, MAX_FRAME)?;
    parse_reply(kind, &payload).map_err(|msg| io::Error::new(io::ErrorKind::InvalidData, msg))
}

/// Parse a server→client reply from its raw kind byte and payload.
/// Fields are read in wire order (struct-literal fields evaluate in
/// source order).
fn parse_reply(kind: u8, payload: &[u8]) -> Result<ServeMsg, String> {
    // Fixed-size kinds carry exactly `Some(len)` bytes; `REJECT` and
    // `CHUNK` end in a variable tail.
    let (what, fixed) = match kind {
        KIND_ACCEPT => ("ACCEPT", Some(24)),
        KIND_REJECT => ("REJECT", None),
        KIND_CHUNK => ("CHUNK", None),
        KIND_DONE => ("DONE", Some(16)),
        KIND_DRAIN_ACK => ("DRAIN_ACK", Some(8)),
        KIND_STATUS_ACK => ("STATUS_ACK", Some(STATUS_ACK_LEN)),
        other => return Err(format!("unknown reply kind {other:#04x}")),
    };
    let bad_len = || match fixed {
        Some(len) => format!("{what} payload must be {len} bytes, got {}", payload.len()),
        None => format!("{what} payload of {} bytes", payload.len()),
    };
    if fixed.is_some_and(|len| len != payload.len()) {
        return Err(bad_len());
    }
    let u32_of = |r: &mut &[u8]| get_u32(r).ok_or_else(bad_len);
    let u64_of = |r: &mut &[u8]| get_u64(r).ok_or_else(bad_len);
    let r = &mut &payload[..];
    Ok(match kind {
        KIND_ACCEPT => ServeMsg::Accept {
            job_id: u64_of(r)?,
            offset: u64_of(r)?,
            total: u64_of(r)?,
        },
        KIND_REJECT => {
            let code = get_u8(r).ok_or_else(bad_len)?;
            ServeMsg::Reject {
                code: RejectCode::from_byte(code)
                    .ok_or_else(|| format!("unknown reject code {code}"))?,
                retry_after: Duration::from_millis(u64::from(u32_of(r)?)),
                msg: std::str::from_utf8(r)
                    .map_err(|_| "REJECT message is not UTF-8".to_string())?
                    .to_string(),
            }
        }
        KIND_CHUNK => ServeMsg::Chunk {
            offset: u64_of(r)?,
            data: r.to_vec(),
        },
        KIND_DONE => ServeMsg::Done {
            total: u64_of(r)?,
            checksum: u64_of(r)?,
        },
        KIND_DRAIN_ACK => ServeMsg::DrainAck {
            running: u32_of(r)?,
            dropped: u32_of(r)?,
        },
        _ => ServeMsg::Status(ServeStatus {
            queued: u32_of(r)?,
            running: u32_of(r)?,
            active_conns: u32_of(r)?,
            workers: u32_of(r)?,
            workers_wedged: u32_of(r)?,
            cache_artifacts: u32_of(r)?,
            draining: get_u8(r).ok_or_else(bad_len)? != 0,
            cache_bytes: u64_of(r)?,
            stats: {
                let mut stats = ServeStats::from_words(Wire::decode(r).ok_or_else(bad_len)?);
                stats.rejects_by = Wire::decode(r).ok_or_else(bad_len)?;
                stats
            },
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pa_graph::io::Fnv1a;

    fn spec() -> JobSpec {
        JobSpec {
            n: 10_000,
            x: 4,
            p_bits: 0.5f64.to_bits(),
            seed: 7,
            alpha_bits: 0,
            ranks: 4,
            scheme_id: 2,
            engine_id: 2,
            model_id: 0,
            format_id: 1,
        }
    }

    #[test]
    fn canonical_bytes_round_trip_and_pin_the_layout() {
        let s = spec();
        let bytes = s.canonical_bytes();
        assert_eq!(JobSpec::from_canonical(&bytes), s);
        // Pinned layout: wire identity; renumbering is a version bump.
        assert_eq!(&bytes[0..8], &10_000u64.to_le_bytes());
        assert_eq!(&bytes[40..44], &4u32.to_le_bytes());
        assert_eq!(&bytes[44..48], &[2, 2, 0, 1]);
    }

    #[test]
    fn submit_round_trips() {
        let mut wire = Vec::new();
        write_submit(&mut wire, &spec(), 4096).unwrap();
        assert_eq!(wire.len(), 4 + 1 + SUBMIT_LEN);
        let mut payload = Vec::new();
        let kind = read_raw_frame(&mut &wire[..], &mut payload, MAX_REQUEST_FRAME).unwrap();
        assert_eq!(kind, KIND_SUBMIT);
        let msg = parse_request(kind, &payload).unwrap();
        assert_eq!(
            msg,
            ServeMsg::Submit {
                spec: spec(),
                offset: 4096
            }
        );
    }

    #[test]
    fn submit_rejects_bad_magic_version_and_length() {
        let mut wire = Vec::new();
        write_submit(&mut wire, &spec(), 0).unwrap();
        let payload = &wire[5..];

        let mut bad_magic = payload.to_vec();
        bad_magic[0] ^= 0xff;
        let err = parse_request(KIND_SUBMIT, &bad_magic).unwrap_err();
        assert!(
            matches!(&err, RequestError::Malformed(m) if m.contains("magic")),
            "{err:?}"
        );

        let mut bad_version = payload.to_vec();
        bad_version[4] = 99;
        let err = parse_request(KIND_SUBMIT, &bad_version).unwrap_err();
        assert!(
            matches!(&err, RequestError::Version(m) if m.contains("v99")),
            "{err:?}"
        );

        let err = parse_request(KIND_SUBMIT, &payload[..10]).unwrap_err();
        assert!(
            matches!(&err, RequestError::Malformed(m) if m.contains("64 bytes")),
            "{err:?}"
        );

        let err = parse_request(0x7f, payload).unwrap_err();
        assert!(
            matches!(&err, RequestError::Malformed(m) if m.contains("unknown request")),
            "{err:?}"
        );
    }

    #[test]
    fn replies_round_trip() {
        let cases: Vec<(Vec<u8>, ServeMsg)> = {
            let mut v = Vec::new();
            let mut w = Vec::new();
            write_accept(&mut w, 0xdead, 16, 2048).unwrap();
            v.push((
                w.clone(),
                ServeMsg::Accept {
                    job_id: 0xdead,
                    offset: 16,
                    total: 2048,
                },
            ));
            w.clear();
            write_reject(
                &mut w,
                RejectCode::QueueFull,
                Duration::from_millis(250),
                "full",
            )
            .unwrap();
            v.push((
                w.clone(),
                ServeMsg::Reject {
                    code: RejectCode::QueueFull,
                    retry_after: Duration::from_millis(250),
                    msg: "full".into(),
                },
            ));
            w.clear();
            write_chunk(&mut w, 64, b"edges").unwrap();
            v.push((
                w.clone(),
                ServeMsg::Chunk {
                    offset: 64,
                    data: b"edges".to_vec(),
                },
            ));
            w.clear();
            write_done(&mut w, 2048, 0xbeef).unwrap();
            v.push((
                w.clone(),
                ServeMsg::Done {
                    total: 2048,
                    checksum: 0xbeef,
                },
            ));
            w.clear();
            write_drain_ack(&mut w, 2, 5).unwrap();
            v.push((
                w.clone(),
                ServeMsg::DrainAck {
                    running: 2,
                    dropped: 5,
                },
            ));
            v
        };
        for (wire, expect) in cases {
            let got = read_reply(&mut &wire[..]).unwrap();
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn drain_req_round_trips_and_checks_preamble() {
        let mut wire = Vec::new();
        write_drain_req(&mut wire).unwrap();
        let mut payload = Vec::new();
        let kind = read_raw_frame(&mut &wire[..], &mut payload, MAX_REQUEST_FRAME).unwrap();
        assert_eq!(kind, KIND_DRAIN_REQ);
        assert_eq!(parse_request(kind, &payload).unwrap(), ServeMsg::DrainReq);

        let err = parse_request(KIND_DRAIN_REQ, &payload[..4]).unwrap_err();
        assert!(matches!(err, RequestError::Malformed(_)));
    }

    /// Every decoder of socket bytes, fed every strict prefix and a
    /// one-byte extension of a valid payload: a named error
    /// (`Malformed` / `InvalidData`), never a panic. `REJECT` and `CHUNK`
    /// end in a variable tail, so past their fixed head a shorter
    /// payload is a shorter message — accepted, as is a longer `CHUNK`;
    /// the byte appended is 0xff so a longer `REJECT` is bad UTF-8.
    #[test]
    fn every_truncation_and_extension_is_a_named_error() {
        let mut wire = Vec::new();
        let mut frame = |write: &dyn Fn(&mut Vec<u8>)| {
            wire.clear();
            write(&mut wire);
            (wire[4], wire[5..].to_vec())
        };
        let requests = [
            frame(&|w| write_submit(w, &spec(), 4096).unwrap()),
            frame(&|w| write_drain_req(w).unwrap()),
            frame(&|w| write_status_req(w).unwrap()),
        ];
        // (frame, length of the fixed head when a variable tail follows)
        let replies = [
            (frame(&|w| write_accept(w, 1, 2, 3).unwrap()), None),
            (
                frame(&|w| write_reject(w, RejectCode::Draining, Duration::ZERO, "bye").unwrap()),
                Some(5),
            ),
            (frame(&|w| write_chunk(w, 64, b"edges").unwrap()), Some(8)),
            (frame(&|w| write_done(w, 2048, 0xbeef).unwrap()), None),
            (frame(&|w| write_drain_ack(w, 2, 5).unwrap()), None),
            (
                frame(&|w| write_status_ack(w, &ServeStatus::default()).unwrap()),
                None,
            ),
        ];

        let extended = |payload: &[u8]| [payload, &[0xff]].concat();
        for (kind, payload) in &requests {
            assert!(parse_request(*kind, payload).is_ok());
            let cuts = (0..payload.len()).map(|cut| payload[..cut].to_vec());
            for bad in cuts.chain([extended(payload)]) {
                let got = parse_request(*kind, &bad);
                assert!(
                    matches!(got, Err(RequestError::Malformed(_))),
                    "request {kind:#04x}, {} of {} bytes: {got:?}",
                    bad.len(),
                    payload.len()
                );
            }
        }
        let read = |kind: u8, payload: &[u8]| {
            let mut framed = Vec::new();
            build_raw_frame(&mut framed, kind, |b| b.extend_from_slice(payload));
            read_reply(&mut &framed[..])
        };
        for ((kind, payload), tail_after) in &replies {
            assert!(read(*kind, payload).is_ok());
            let cuts = (0..payload.len()).map(|cut| payload[..cut].to_vec());
            for other in cuts.chain([extended(payload)]) {
                let tail_only = tail_after.is_some_and(|head| other.len() >= head);
                let refused = !tail_only || (other.len() > payload.len() && *kind == KIND_REJECT);
                match read(*kind, &other) {
                    Ok(msg) => assert!(!refused, "reply {kind:#04x} accepted as {msg:?}"),
                    Err(e) => {
                        assert!(refused, "reply {kind:#04x}, {} bytes: {e}", other.len());
                        assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");
                    }
                }
            }
        }
    }

    #[test]
    fn reject_codes_round_trip_and_classify_retryability() {
        for (i, code) in RejectCode::ALL.into_iter().enumerate() {
            assert_eq!(code as u8, i as u8 + 1, "{code}: discriminants are 1..=N");
            assert_eq!(RejectCode::from_byte(code as u8), Some(code));
            let transient = matches!(
                code,
                RejectCode::QueueFull | RejectCode::JobTimeout | RejectCode::Overloaded
            );
            assert_eq!(code.is_retryable(), transient, "{code}");
        }
        assert_eq!(RejectCode::from_byte(0), None);
        assert_eq!(RejectCode::from_byte(REJECT_CODE_COUNT as u8 + 1), None);
    }

    /// A status whose every counter and gauge is distinct, so a
    /// transposed field cannot round-trip or match the golden bytes.
    fn distinct_status() -> ServeStatus {
        let mut stats = ServeStats {
            jobs_admitted: 101,
            jobs_run: 102,
            jobs_coalesced: 103,
            rejects: 104,
            jobs_drained: 105,
            bytes_streamed: 106,
            jobs_failed: 107,
            jobs_timed_out: 108,
            worker_panics: 109,
            jobs_recovered: 110,
            tmp_cleaned: 111,
            jobs_evicted: 112,
            rejects_by: [0; REJECT_CODE_COUNT],
        };
        for (i, c) in stats.rejects_by.iter_mut().enumerate() {
            *c = 200 + i as u64;
        }
        ServeStatus {
            queued: 1,
            running: 2,
            active_conns: 3,
            workers: 4,
            workers_wedged: 5,
            cache_artifacts: 6,
            draining: true,
            cache_bytes: 7_000_000_007,
            stats,
        }
    }

    #[test]
    fn status_round_trips_with_every_field_distinct() {
        let status = distinct_status();
        let mut wire = Vec::new();
        write_status_ack(&mut wire, &status).unwrap();
        assert_eq!(wire.len(), 5 + STATUS_ACK_LEN);
        assert_eq!(
            read_reply(&mut &wire[..]).unwrap(),
            ServeMsg::Status(status)
        );
    }

    /// The whole `STATUS_ACK` frame, byte for byte, at this
    /// `SERVE_VERSION`: header, six gauges, drain flag, cache bytes, the
    /// twelve counters in declaration order, the eight per-code rejects.
    #[test]
    fn status_ack_bytes_are_pinned() {
        let mut wire = Vec::new();
        write_status_ack(&mut wire, &distinct_status()).unwrap();
        let hex: String = wire.iter().map(|b| format!("{b:02x}")).collect();
        let golden = concat!(
            "c200000049", // frame length (kind + payload), kind
            "010000000200000003000000040000000500000006000000", // gauges
            "01",         // draining
            "07863ba101000000", // cache bytes
            // the twelve counters, 101..=112
            "6500000000000000660000000000000067000000000000006800000000000000",
            "69000000000000006a000000000000006b000000000000006c00000000000000",
            "6d000000000000006e000000000000006f000000000000007000000000000000",
            // rejects by code, 200..=207
            "c800000000000000c900000000000000ca00000000000000cb00000000000000",
            "cc00000000000000cd00000000000000ce00000000000000cf00000000000000",
        );
        assert_eq!(hex, golden);
    }

    #[test]
    fn status_req_round_trips_and_checks_preamble() {
        let mut wire = Vec::new();
        write_status_req(&mut wire).unwrap();
        let mut payload = Vec::new();
        let kind = read_raw_frame(&mut &wire[..], &mut payload, MAX_REQUEST_FRAME).unwrap();
        assert_eq!(kind, KIND_STATUS_REQ);
        assert_eq!(parse_request(kind, &payload).unwrap(), ServeMsg::StatusReq);

        let mut bad_version = payload.clone();
        bad_version[4] = 99;
        let err = parse_request(KIND_STATUS_REQ, &bad_version).unwrap_err();
        assert!(matches!(err, RequestError::Version(_)));
    }

    #[test]
    fn per_code_reject_counters_track_total() {
        let mut stats = ServeStats::default();
        stats.note_reject(RejectCode::QueueFull);
        stats.note_reject(RejectCode::QueueFull);
        stats.note_reject(RejectCode::Overloaded);
        assert_eq!(stats.rejects, 3);
        assert_eq!(stats.rejects_for(RejectCode::QueueFull), 2);
        assert_eq!(stats.rejects_for(RejectCode::Overloaded), 1);
        assert_eq!(stats.rejects_by.iter().sum::<u64>(), stats.rejects);
    }

    #[test]
    fn job_id_differs_per_field_and_matches_manual_fnv() {
        let s = spec();
        assert_eq!(s.job_id(), Fnv1a::hash(&s.canonical_bytes()));
        let mut other = s;
        other.ranks = 8;
        assert_ne!(other.job_id(), s.job_id());
    }

    #[test]
    fn serve_kinds_are_disjoint_from_transport_kinds() {
        for kind in [
            KIND_SUBMIT,
            KIND_ACCEPT,
            KIND_REJECT,
            KIND_CHUNK,
            KIND_DONE,
            KIND_DRAIN_REQ,
            KIND_DRAIN_ACK,
            KIND_STATUS_REQ,
            KIND_STATUS_ACK,
        ] {
            assert!(
                crate::frame::Kind::from_byte(kind).is_none(),
                "serve kind {kind:#04x} collides with a transport kind"
            );
        }
    }
}
