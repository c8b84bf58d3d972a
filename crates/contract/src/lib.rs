//! **Theorem 1.3** — batch-dynamic sparse spanners via nested contractions.
//!
//! * [`schedule`] — the contraction-rate sequences of Lemmas 4.2/4.3.
//! * [`contracted`] — the contraction layer Theorems 1.3 and 1.4 share:
//!   the `NextLevelEdges` bucket index with its `BwdCorrespondence`
//!   representatives ([`ContractedEdges`], per-batch netting into
//!   contracted insertions, deletions and representative changes) and
//!   the representative chain ([`RepChain`]) that maps a spanner of the
//!   contracted graph back to level-below edges.
//! * [`level`] — one `Contract(G, x)` level maintained dynamically
//!   (§4.3): per-vertex sorted adjacency lists (`FlatList`) keyed by
//!   `(unmark, rand, neighbor)` with per-entry random keys, `Head` =
//!   the first entry when it is *marked*, and the H_i edge set, over a
//!   [`ContractedEdges`] index.
//! * [`sparse`] — the nested tower: L contraction levels below a
//!   Theorem 1.1 instance, with exact level-0 delta propagation through
//!   one [`RepChain`] per level.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod contracted;
pub mod level;
pub mod schedule;
pub mod sparse;

pub use contracted::{ContractedEdges, RepChain};
pub use sparse::{SparseSpanner, SparseSpannerBuilder};
