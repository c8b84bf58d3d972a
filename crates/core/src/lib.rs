//! The paper's base contribution — parallel batch-dynamic (2k−1)-spanners.
//!
//! * [`spanner_set`] — refcounted spanner membership with exact
//!   (δH_ins, δH_del) delta extraction into a [`DeltaBuf`].
//! * [`decremental`] — **Lemma 3.3**: a decremental (2k−1)-spanner of
//!   expected size O(n^{1+1/k}), maintained by exponential-start-time
//!   clustering on the shifted auxiliary graph, run on Theorem 1.2's
//!   batched Even–Shiloach engine (`bds_estree::EsEngine`) through a
//!   per-level cluster hook.
//! * [`bentley_saxe`] — the one Bentley–Saxe style reduction from
//!   fully-dynamic to decremental: [`BentleySaxe<D>`](bentley_saxe::BentleySaxe)
//!   over any [`Slot`](bentley_saxe::Slot) structure. Theorem 1.1 and
//!   Theorem 1.6 (`bds_sparsify::FullyDynamicSparsifier`) are its two
//!   instantiations.
//! * [`fully_dynamic`] — **Theorem 1.1**: the decremental spanner as a
//!   slot (invariant B1), its builder, and
//!   [`FullyDynamicSpanner`] `= BentleySaxe<DecrementalSpanner>`.
//! * [`partition`] — the Bentley–Saxe partition's E₀ buffer and
//!   position-tagged edge → owner index the wrapper keeps.
//!
//! Both structures take batches only through the [`Decremental`] /
//! [`FullyDynamic`] traits.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod bentley_saxe;
pub mod decremental;
pub mod fully_dynamic;
pub mod partition;
pub mod spanner_set;

pub use decremental::{DecrementalSpanner, DecrementalSpannerBuilder};
pub use fully_dynamic::{FullyDynamicSpanner, FullyDynamicSpannerBuilder};
pub use spanner_set::SpannerSet;

// The unified update interface lives in the graph substrate so every
// crate shares one contract: the traits are the only way to apply a
// batch, and `DeltaBuf` is the only delta type.
pub use bds_graph::api::{BatchDynamic, BatchStats, Decremental, DeltaBuf, FullyDynamic};
