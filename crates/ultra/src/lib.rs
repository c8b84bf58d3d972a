//! **Theorem 1.4** — batch-dynamic ultra-sparse spanners (§5).
//!
//! One `ContractUltra(G, x)` layer: vertices are *heavy* (deg ≥ θ =
//! ⌈10·x·log₂x⌉) or *light*; D is an i.i.d. 1/x vertex sample. A heavy
//! vertex heads to itself if sampled, else to its minimum-rand sampled
//! neighbor, else it is an unclustered center (D′). A light vertex runs a
//! radius-θ BFS that never branches through heavy vertices (Algorithm 5),
//! heading to the nearest (then min-rand) member of D ∪ D′ — possibly via
//! a heavy boundary vertex's head at distance +1 — or to ⊥ when its whole
//! component is light, unsampled, and has ≤ θ vertices, or to itself
//! otherwise.
//!
//! The spanner is H₁ (cluster shortest-path-tree edges (par(v), v)) ∪ H₂
//! (a dynamic spanning forest over the ⊥-vertices, maintained by the HDT
//! structure — our \[AABD19\] substitute) ∪ the representatives of a
//! Theorem 1.3 sparse spanner run on the contracted multigraph with the
//! *squared* compression schedule (the paper's white-box modification).
//!
//! The contraction bookkeeping is Theorem 1.3's own, from
//! `bds_contract::contracted`: a `ContractedEdges` index holds the
//! `NextLevelEdges` buckets over head pairs with their representatives,
//! and a `RepChain` maps the inner spanner back to those
//! representatives. This crate keeps only what is Theorem 1.4's: the
//! per-vertex adjacency keys, the heavy/light head rules, H₁ and H₂.

#![deny(unsafe_op_in_unsafe_fn)]

mod ultra;

pub use ultra::{UltraParams, UltraSparseSpanner, UltraSparseSpannerBuilder};
