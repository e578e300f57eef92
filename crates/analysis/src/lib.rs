//! Analysis toolkit for the `prefattach` experiments.
//!
//! Everything needed to turn generated networks and per-rank load reports
//! into the paper's tables and figures:
//!
//! * [`powerlaw`] — power-law exponent estimation (Figure 4's γ ≈ 2.7):
//!   discrete maximum-likelihood (Clauset–Shalizi–Newman) and the
//!   log–log least-squares slope on a binned histogram.
//! * [`messages`] — the Lemma 3.4 message-count law
//!   `E[M_k] = (1−p)(H_{n−1} − H_k)` and its per-partition aggregates
//!   (the predicted curves behind Figure 7).
//! * [`scaling`] — strong/weak scaling series built from each rank's
//!   measured on-CPU time (Figures 5 and 6).
//! * [`stats`] — small statistics helpers (linear regression on log–log
//!   axes, summary moments).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod distance;
pub mod messages;
pub mod powerlaw;
pub mod report;
pub mod scaling;
pub mod stats;
pub mod theory;
