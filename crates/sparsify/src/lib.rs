//! Spectral/cut sparsifiers (§6.4 of the paper).
//!
//! * [`decremental`] — **Lemma 6.6**: the Light-Spectral-Sparsify chain
//!   (Algorithms 9/10 of \[ADK+16\], made batch-dynamic): level i keeps a
//!   t-bundle B_i of G_i and samples each residual edge into G_{i+1} with
//!   probability ¼ at weight 4; the sparsifier is ∪ 4^i·B_i ∪ 4^k·G_k.
//! * [`fully_dynamic`] — **Theorem 1.6**: the decremental sparsifier as
//!   a slot of `bds_core`'s one Bentley–Saxe wrapper, with invariant B2
//!   (2^{l₀} ≥ n), plus its builder: [`FullyDynamicSparsifier`]
//!   `= BentleySaxe<DecrementalSparsifier>`. Correctness uses the
//!   decomposability of spectral sparsifiers (Lemma 6.7: a union of
//!   (1±ε)-sparsifiers of an edge partition is a (1±ε)-sparsifier of the
//!   union).
//! * [`weighted_set`] — weighted membership whose per-batch net change
//!   both structures report (the wrapper's output set for Theorem 1.6).
//!
//! Both take batches through the [`bds_graph::api::Decremental`] /
//! [`bds_graph::api::FullyDynamic`] traits and report a weighted
//! `DeltaBuf` (weight lane populated; a cross-level reweighting is a
//! deletion at the old weight plus an insertion at the new one).

#![deny(unsafe_op_in_unsafe_fn)]

pub mod decremental;
pub mod fully_dynamic;
pub mod weighted_set;

pub use decremental::{DecrementalSparsifier, DecrementalSparsifierBuilder};
pub use fully_dynamic::{FullyDynamicSparsifier, FullyDynamicSparsifierBuilder};
pub use weighted_set::WeightedSet;
