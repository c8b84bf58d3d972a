//! Spanner bundles (§6.2–6.3 of the paper).
//!
//! * [`monotone`] — **Lemma 6.4**: a decremental O(log n)-spanner with the
//!   *monotonicity* property (edges never re-enter after leaving), built
//!   from O(log n) independent \[MPX13\] clustering instances each
//!   maintained by a batched Even–Shiloach tree. Instances process a
//!   deletion batch in parallel — the depth win of the parallel model.
//! * [`bundle`] — **Theorem 1.5**: the decremental t-bundle spanner
//!   B = H₁ ∪ … ∪ H_t with the J_i monotonicity lists and cascaded
//!   deletions, the engine behind the spectral sparsifier.
//!
//! Both take batches through [`bds_graph::api::Decremental::delete_into`].
//! The bundle reports B's membership delta in the `DeltaBuf`'s edge
//! sections and the residual deletions that drive the sparsifier's
//! sampling chain in its aux lane, tagged
//! [`bds_graph::api::AuxTag::ResidualDeleted`].

#![deny(unsafe_op_in_unsafe_fn)]

pub mod bundle;
pub mod monotone;

pub use bundle::{BundleSpanner, BundleSpannerBuilder};
pub use monotone::{MonotoneSpanner, MonotoneSpannerBuilder};
