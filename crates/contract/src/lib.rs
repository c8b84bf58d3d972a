//! **Theorem 1.3** — batch-dynamic sparse spanners via nested contractions.
//!
//! * [`schedule`] — the contraction-rate sequences of Lemmas 4.2/4.3.
//! * [`level`] — one `Contract(G, x)` level maintained dynamically
//!   (§4.3): per-vertex sorted adjacency lists (`FlatList`) keyed by
//!   `(unmark, rand, neighbor)` with per-entry random keys, `Head` =
//!   the first entry when it is *marked*, the H_i edge set, the
//!   `NextLevelEdges` buckets and the Bwd/Fwd correspondence.
//! * [`sparse`] — the nested tower: L contraction levels below a
//!   Theorem 1.1 instance, with exact level-0 delta propagation through
//!   the representative chains.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod level;
pub mod schedule;
pub mod sparse;

pub use sparse::{SparseSpanner, SparseSpannerBuilder};
