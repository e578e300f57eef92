//! `pa-perf` — the repository's one benchmark.
//!
//! Five pinned workloads run against the real `pagen` / `palaunch`
//! binaries with tracing off and every output verified (the
//! *end-to-end* pass); a separate *per-layer* pass times the crates'
//! public functions in isolation and runs each workload's world
//! in-process behind tracing decorators. See `README.md`.

#![forbid(unsafe_code)]

pub mod digest;
pub mod json;
pub mod layers;
pub mod proc;
pub mod report;
pub mod serve;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;
