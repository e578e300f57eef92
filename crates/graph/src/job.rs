//! The run tuple: everything that determines a generated edge file.
//!
//! Every draw of the generators is a pure function of the run's
//! parameters, so `(n, x, p, seed, alpha, ranks, scheme, engine, model,
//! format)` *is* the graph file. [`JobSpec`] is that tuple as plain
//! numbers; its 48-byte [`JobSpec::canonical_bytes`] are what a `SUBMIT`
//! frame carries and their FNV-1a is the [`JobSpec::job_id`] that
//! `pagen serve` caches, coalesces and resumes by. The struct lives here
//! because both the wire side (`pa-net`) and the engine side (`pa-core`)
//! already depend on this crate: one definition, nothing to keep equal.

use crate::io::Fnv1a;

/// Length of [`JobSpec::canonical_bytes`]: five `u64` fields, one `u32`,
/// four id bytes.
pub const JOB_CANONICAL_LEN: usize = 48;

/// The raw parameter tuple of a generation job: plain numbers, no
/// invariants. Every bit pattern is *some* spec; whether it names a
/// runnable job is `pa_core::job::JobDescriptor::from_raw`'s question.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JobSpec {
    /// Number of nodes `n`.
    pub n: u64,
    /// Edges per new node `x`.
    pub x: u64,
    /// Copy-model probability `p` as IEEE-754 bits (exact identity).
    pub p_bits: u64,
    /// RNG seed.
    pub seed: u64,
    /// Model parameter as IEEE-754 bits (0 for the parameter-free `pa`).
    pub alpha_bits: u64,
    /// Rank count the byte stream is laid out for (part of identity:
    /// the edge *set* is rank-independent, the byte *order* is not).
    pub ranks: u32,
    /// Partition-scheme discriminant.
    pub scheme_id: u8,
    /// Engine selector (1, 2 or 3).
    pub engine_id: u8,
    /// Attachment-model discriminant.
    pub model_id: u8,
    /// [`crate::io::EdgeFormat::id`] discriminant.
    pub format_id: u8,
}

impl JobSpec {
    /// The canonical encoding job identity is defined over: every field
    /// little-endian, fixed order, fixed width. The layout is wire
    /// identity — changing it is a serve-protocol version bump.
    pub fn canonical_bytes(&self) -> [u8; JOB_CANONICAL_LEN] {
        let mut out = [0u8; JOB_CANONICAL_LEN];
        out[0..8].copy_from_slice(&self.n.to_le_bytes());
        out[8..16].copy_from_slice(&self.x.to_le_bytes());
        out[16..24].copy_from_slice(&self.p_bits.to_le_bytes());
        out[24..32].copy_from_slice(&self.seed.to_le_bytes());
        out[32..40].copy_from_slice(&self.alpha_bits.to_le_bytes());
        out[40..44].copy_from_slice(&self.ranks.to_le_bytes());
        out[44] = self.scheme_id;
        out[45] = self.engine_id;
        out[46] = self.model_id;
        out[47] = self.format_id;
        out
    }

    /// Decode [`JobSpec::canonical_bytes`] (infallible: the array length
    /// is fixed by the type and every byte pattern decodes).
    pub fn from_canonical(bytes: &[u8; JOB_CANONICAL_LEN]) -> JobSpec {
        let u64_at =
            |i: usize| u64::from_le_bytes(bytes[i..i + 8].try_into().expect("8 of 48 bytes"));
        JobSpec {
            n: u64_at(0),
            x: u64_at(8),
            p_bits: u64_at(16),
            seed: u64_at(24),
            alpha_bits: u64_at(32),
            ranks: u32::from_le_bytes(bytes[40..44].try_into().expect("4 of 48 bytes")),
            scheme_id: bytes[44],
            engine_id: bytes[45],
            model_id: bytes[46],
            format_id: bytes[47],
        }
    }

    /// Stable job identity: FNV-1a over the canonical encoding. Equal
    /// tuples hash equal on every host and build, which is what makes
    /// caching, coalescing and resume sound.
    pub fn job_id(&self) -> u64 {
        Fnv1a::hash(&self.canonical_bytes())
    }
}
