//! Preferential-attachment network generators — sequential and
//! distributed-memory parallel — reproducing Alam, Khan & Marathe,
//! *Distributed-Memory Parallel Algorithms for Generating Massive
//! Scale-free Networks Using Preferential Attachment Model*, SC'13.
//!
//! # The model
//!
//! A preferential-attachment (PA) network over nodes `0 .. n` starts from
//! a clique on the first `x` nodes; every later node `t` attaches `x` new
//! edges to existing nodes, chosen with probability proportional to their
//! current degree. The resulting degree distribution is a power law
//! (Barabási–Albert). Rather than sampling degrees directly, the paper
//! builds on the **copy model** (Kumar et al., FOCS'00): to pick node
//! `t`'s target, draw `k` uniformly from the existing nodes, then
//!
//! * with probability `p` connect to `k` itself ("direct"),
//! * with probability `1 − p` connect to `F_k` — the node `k` attached to
//!   ("copy").
//!
//! For `p = ½` this is exactly degree-proportional attachment, and —
//! crucially — the draw of `k` needs no global degree state, which is
//! what makes an exact distributed algorithm possible: only the `F_k`
//! lookups ever cross processor boundaries, as asynchronous
//! `request`/`resolved` messages (Algorithms 3.1 and 3.2 of the paper).
//!
//! # Crate layout
//!
//! * [`PaConfig`] — model parameters `(n, x, p, seed)`.
//! * [`seq`] — sequential generators: the naive Θ(n²) degree-scan, the
//!   Batagelj–Brandes O(m) repeated-nodes list, and the copy model (the
//!   parallel algorithm's reference semantics).
//! * [`partition`] — the paper's three node-partitioning schemes (UCP,
//!   LCP, RRP) plus the nonlinear load-balance Equation 10 solver behind
//!   LCP.
//! * [`par`] — the parallel engines over the `pa-mpsim` message-passing
//!   runtime: [`par::generate`] runs the [`Engine`] named in
//!   [`GenOptions`] (Algorithm 3.1, Algorithm 3.2 or communication-free
//!   chain recomputation), with per-rank load and traffic reports.
//! * [`chains`] — selection/dependency-chain analytics (Theorem 3.3).
//! * [`approx_yh`] — a Yoo–Henderson-style *approximate* distributed
//!   baseline, reproducing the prior work the paper argues against.
//! * [`er`], [`ws`], [`cl`], [`rmat`] — extension generators (parallel
//!   Erdős–Rényi, Watts–Strogatz, Chung–Lu, R-MAT) reusing the same
//!   substrates, answering the paper's closing call for "other classes
//!   of random networks".
//!
//! # Quick start
//!
//! ```
//! use pa_core::{PaConfig, par, partition::Scheme};
//!
//! let cfg = PaConfig::new(10_000, 4).with_seed(1);
//! let out = par::generate(&cfg, Scheme::Rrp, 4, &Default::default());
//! let edges = out.edge_list();
//! assert_eq!(edges.len(), 4 * 3 / 2 + (10_000 - 4) * 4);
//! pa_graph::validate::assert_valid_pa_network(10_000, 4, &edges);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod approx_yh;
pub mod chains;
pub mod cl;
mod config;
pub mod er;
pub mod job;
pub mod math;
mod model;
pub mod par;
pub mod partition;
pub mod rmat;
pub mod seq;
pub mod store;
pub mod ws;

pub use config::{Engine, GenOptions, PaConfig, DEFAULT_CHAIN_MEMO_NODES, DEFAULT_HUB_CACHE_NODES};
pub use model::{Model, ModelKind};

/// The fault-injection schedule consumed by [`GenOptions::fault_plan`]
/// (re-exported from `pa-mpsim` so callers configuring chaos runs don't
/// need a direct dependency).
pub use pa_mpsim::FaultPlan;

/// A node identifier (re-exported from `pa-graph`).
pub type Node = pa_graph::Node;

/// Sentinel for an unresolved attachment slot (`NILL` in the paper).
pub(crate) const NILL: Node = Node::MAX;
