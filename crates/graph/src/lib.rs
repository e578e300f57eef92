//! Graph substrate for the `prefattach` workspace.
//!
//! The generators in `pa-core` produce graphs as flat edge lists (each rank
//! emits the edges of its own nodes). This crate provides everything the
//! examples, tests and experiment harnesses need to *consume* those edges:
//!
//! * [`EdgeList`] — the interchange representation: a flat `(u, v)` list
//!   with concatenation and canonicalization helpers.
//! * [`Csr`] — compressed sparse row adjacency built from an edge list,
//!   for neighbor iteration and traversals.
//! * [`degrees`] — degree sequences and degree histograms (the raw data of
//!   the paper's Figure 4).
//! * [`validate`] — structural checking: node-id bounds, self-loops,
//!   parallel edges, expected edge counts (the invariants Algorithm 3.2
//!   must maintain).
//! * [`UnionFind`] + [`Csr::connected_components`]-style utilities — PA
//!   networks are connected by construction, which makes connectivity a
//!   strong end-to-end test.
//! * [`io`] — text and binary edge-list readers/writers.
//! * [`job`] — the run tuple that names a generated edge file: one
//!   struct, its 48 canonical bytes and the job id hashed over them.
//!
//! Node ids are `u64` throughout (the paper generates up to 10⁹ nodes).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod container;
mod csr;
pub mod degrees;
mod edgelist;
pub mod io;
pub mod job;
pub mod metrics;
mod unionfind;
pub mod validate;

pub use csr::Csr;
pub use edgelist::EdgeList;
pub use unionfind::UnionFind;

/// A node identifier.
pub type Node = u64;

/// An undirected edge; `(u, v)` and `(v, u)` denote the same edge.
pub type Edge = (Node, Node);
