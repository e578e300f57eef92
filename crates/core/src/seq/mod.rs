//! Sequential preferential-attachment generators (paper §3.1).
//!
//! Three algorithms, in increasing order of relevance to the parallel
//! work:
//!
//! * [`naive`] — the textbook Ω(n²) algorithm: scan a degree array to
//!   locate a degree-proportional target. Included as the baseline the
//!   paper dismisses, and to cross-validate distributions at small n.
//! * [`batagelj_brandes`] — the O(m) repeated-nodes-list algorithm of
//!   Batagelj & Brandes (what NetworkX implements); the fastest known
//!   sequential BA generator but resistant to parallelization.
//! * [`copy_model`] — the O(m) copy model of Kumar et al.; statistically
//!   equivalent to BA at `p = ½`, and the basis of the parallel
//!   algorithms. This implementation consumes the same counter-based
//!   draws as the parallel engines, so for any `P` the parallel `x = 1`
//!   output is bit-identical to this function's output, and for `P = 1`
//!   the general `x ≥ 1` engine matches it too.

mod batagelj_brandes;
mod copy_model;
mod naive;

pub use batagelj_brandes::generate as batagelj_brandes;
pub(crate) use copy_model::fill_rows;
pub use copy_model::{draw_choice, draw_choice_keyed, generate as copy_model, target_for, Choice};
pub use naive::generate as naive;
