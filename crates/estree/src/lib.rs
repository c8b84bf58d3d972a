//! **Theorem 1.2** — parallel batch-dynamic decremental single-source BFS.
//!
//! A batched Even–Shiloach tree over a directed graph: maintains the
//! shortest-path tree of depth ≤ L from a source under batches of edge
//! deletions, in O(L log n) amortized work per deleted edge and
//! level-synchronous phases (O(L log² n) depth per batch).
//!
//! [`engine`] holds the one level-synchronous delete loop. [`EsTree`]
//! runs it with a hook that records parent changes; Lemma 3.3's
//! decremental spanner (`bds_core::decremental`) runs it with a hook that
//! maintains cluster labels after each level settles.
//!
//! [`shift`] builds the auxiliary "shifted" graph G′ of §3.3: a chain
//! p₀ → … → p_{t−1}, a shortcut p_{t−1−d_v} → v per vertex, and both
//! orientations of every original edge — reducing exponential-start-time
//! clustering to a depth-t decremental BFS.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod engine;
pub mod shift;
pub mod tree;

pub use bds_graph::api::BatchStats;
pub use engine::{EsEngine, Hook, NO_VERTEX, PAR_RESCAN_MIN, UNREACHED};
pub use shift::ShiftedGraph;
pub use tree::{EsTree, EsTreeBuilder, ParentChange};
