//! Data-structure substrates for the batch-dynamic spanner algorithms.
//!
//! * [`fx`] — an FxHash-style fast hasher plus `FxHashMap`/`FxHashSet`
//!   aliases (the Rust Performance Book idiom, implemented locally).
//! * [`flat_list`] — a flat sorted-array ordered list with a tombstone
//!   bitmap doubling as a popcount rank index: cache-resident linear
//!   scans instead of pointer chases, O(log n) tombstone removals,
//!   compaction amortized against removals, and a zero-comparison bulk
//!   build from sorted slices.
//! * [`priority_list`] — the data structure of **Lemma 3.1**: an ordered
//!   list indexed by distinct priorities with `Query`/`Find`/
//!   `UpdatePriority`/`NextWith` operations, backed by [`flat_list`].
//! * [`euler`] + [`hdt`] — Euler-tour trees on flat blocked sequences
//!   and the Holm–de Lichtenberg–Thorup dynamic spanning forest, our
//!   substitute for the \[AABD19\] parallel batch-dynamic connectivity
//!   used by Theorem 1.4. De-treaped in PR 8: tours live in block lists
//!   (the `flat_list` idiom applied to sequences), every read query is
//!   `&self`, and the last treap left the workspace.
//! * [`edge_table`] — the flat batch-parallel edge table (\[GMV91\]-style)
//!   behind every `(u, v) → u64` hot path: packed single-word keys,
//!   power-of-two linear probing, backward-shift removals that leave
//!   no tombstone (so the table rehashes only to grow past ⅝ load),
//!   and sequential, prefetch-pipelined batch construction / lookup,
//!   whose slot layout depends on the input alone. Replaces the
//!   tuple-keyed `FxHashMap`s the seed used in `EsTree`,
//!   `DecrementalSpanner`, `SpannerSet`, `ContractLevel`, and the
//!   sparsifier layers.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod edge_table;
pub mod euler;
pub mod flat_list;
pub mod fx;
pub mod hdt;
pub mod priority_list;

pub use edge_table::EdgeTable;
pub use flat_list::FlatList;
pub use fx::{FxHashMap, FxHashSet};
pub use hdt::{DynamicForest, ForestDelta};
pub use priority_list::PriorityList;
