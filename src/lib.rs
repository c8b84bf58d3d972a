//! # batch-spanners
//!
//! Parallel batch-dynamic spanners, spanner bundles, and spectral
//! sparsifiers — a from-scratch Rust implementation of
//! *"Parallel Batch-Dynamic Algorithms for Spanners, and Extensions"*
//! (Ghaffari & Koo, SPAA 2025, arXiv:2507.06338).
//!
//! All structures share one engine API: batches of edge updates go in,
//! the exact (δH_ins, δH_del) recourse the paper's interfaces specify
//! comes out — reported into a caller-owned, reusable [`DeltaBuf`], so
//! the steady-state batch loop performs no delta-path allocations. The
//! capability split mirrors the paper: every structure implements
//! [`Decremental`] (batch deletions); the fully-dynamic reductions also
//! implement [`FullyDynamic`] (batch insertions and mixed batches).
//! These trait methods are the only way to apply a batch, and
//! [`DeltaBuf`] is the only delta type.
//!
//! | Structure | Paper | Capability | Maintains |
//! |---|---|---|---|
//! | [`FullyDynamicSpanner`] | Theorem 1.1 | `FullyDynamic` | (2k−1)-spanner, Õ(n^{1+1/k}) edges (Bentley–Saxe over [`DecrementalSpanner`]) |
//! | [`EsTree`] | Theorem 1.2 | `Decremental` | BFS tree of depth ≤ L (on the Even–Shiloach engine [`estree::EsEngine`]) |
//! | [`SparseSpanner`] | Theorem 1.3 | `FullyDynamic` | Õ(log n)-spanner with O(n) edges |
//! | [`UltraSparseSpanner`] | Theorem 1.4 | `FullyDynamic` | spanner with n + O(n/x) edges |
//! | [`BundleSpanner`] | Theorem 1.5 | `Decremental` | decremental t-bundle spanner |
//! | [`FullyDynamicSparsifier`] | Theorem 1.6 | `FullyDynamic` | (1±ε) spectral sparsifier (Bentley–Saxe over [`DecrementalSparsifier`]) |
//! | [`BatchConnectivity`] | extensions (\[AABD19\] substrate) | `FullyDynamic` | spanning forest + connectivity queries |
//!
//! (Plus the building blocks: [`DecrementalSpanner`] — Lemma 3.3,
//! [`MonotoneSpanner`] — Lemma 6.4, [`DecrementalSparsifier`] —
//! Lemma 6.6. Theorems 1.1 and 1.6 are the two instantiations of one
//! Bentley–Saxe reduction, [`core::bentley_saxe::BentleySaxe`]. Lemma 3.3
//! and [`EsTree`] run one Even–Shiloach engine, [`estree::EsEngine`]:
//! the spanner maintains its clusters through the engine's per-level
//! hook.)
//!
//! ## Quickstart
//!
//! Structures are configured through typed builders that validate input
//! with a [`ConfigError`] instead of panicking, and batches from
//! untrusted sources normalize with a typed [`BatchError`]:
//!
//! ```
//! use batch_spanners::prelude::*;
//!
//! let n = 400;
//! let edges = batch_spanners::gen::gnm_connected(n, 1600, 1);
//! let mut spanner = FullyDynamicSpanner::builder(n)
//!     .stretch(3) // maintains a (2·3−1) = 5-spanner
//!     .seed(42)
//!     .build(&edges)
//!     .expect("valid configuration");
//! assert!(spanner.spanner_size() <= edges.len());
//!
//! // Read side: a SpannerView mirror serves contains/degree/iteration
//! // off a stable epoch; apply each batch's delta to keep it current.
//! let mut view = SpannerView::from_output(n, &spanner);
//!
//! // One reusable delta buffer for the whole batch loop: the steady
//! // state allocates nothing on the delta path.
//! let mut delta = DeltaBuf::new();
//! let batch = UpdateBatch {
//!     deletions: vec![edges[0], edges[1]],
//!     insertions: vec![Edge::new(0, 399)],
//! };
//! spanner.apply_into(&batch, &mut delta);
//! println!(
//!     "spanner changed by {} edges (+{} −{})",
//!     delta.recourse(),
//!     delta.inserted().len(),
//!     delta.deleted().len(),
//! );
//! view.apply(&delta);
//! assert_eq!(view.len(), spanner.spanner_size());
//! ```
//!
//! Untrusted batches go through [`UpdateBatch::normalized`] (dedup +
//! edge-in-both-lists rejection) or [`UpdateBatch::from_pairs`]
//! (additionally drops self-loops), e.g. via
//! [`FullyDynamic::process_checked`], which also rejects an edge with an
//! endpoint out of range or not in canonical form before touching the
//! structure:
//!
//! ```
//! use batch_spanners::prelude::*;
//!
//! let edges = batch_spanners::gen::gnm_connected(50, 120, 3);
//! let mut s = SparseSpanner::builder(50).seed(7).build(&edges).unwrap();
//! // Self-loops and duplicates are dropped with a report, not a panic.
//! let e = edges[0];
//! let (batch, report) =
//!     UpdateBatch::from_pairs(&[], &[(4, 4), (e.u, e.v), (e.v, e.u)]);
//! assert_eq!(report.self_loops_dropped, 1);
//! assert_eq!(report.duplicate_deletions_dropped, 1);
//! let mut delta = DeltaBuf::new();
//! s.process_checked(&batch, &mut delta).expect("disjoint lists");
//! assert!(!s.contains_edge(e));
//! ```
//!
//! ## Connectivity quickstart
//!
//! Since PR 8 the engine substrate serves a second product besides
//! spanners: [`BatchConnectivity`], fully-dynamic connectivity behind
//! the same [`FullyDynamic`] contract (HDT spanning forest on flat,
//! de-treaped Euler sequences). Its maintained output set is the
//! spanning forest, so every contract layer — sharding, serving, WAL
//! recovery, mirrors — works unchanged; on top it adds the query
//! surface spanners don't have: [`BatchConnectivity::batch_connected`],
//! [`BatchConnectivity::component_size`], and the epoch'd component
//! mirror [`ConnView`]:
//!
//! ```
//! use batch_spanners::prelude::*;
//!
//! let n = 300;
//! let edges = batch_spanners::gen::gnm_connected(n, 600, 9);
//! let mut conn = BatchConnectivity::builder(n)
//!     .build(&edges)
//!     .expect("valid configuration");
//! assert_eq!(conn.num_components(), 1);
//!
//! // ConnView mirrors *components* the way SpannerView mirrors edges:
//! // same delta feed, same sequence discipline, O(1) reads.
//! let mut view = ConnView::from_output(n, &conn);
//! let mut delta = DeltaBuf::new();
//! let batch = UpdateBatch {
//!     deletions: vec![edges[0], edges[1]],
//!     insertions: vec![],
//! };
//! conn.apply_into(&batch, &mut delta);
//! view.apply(&delta);
//!
//! // Batch queries answer in parallel off either side.
//! let mut hits = Vec::new();
//! view.batch_connected(&[(0, n as u32 - 1), (1, 2)], &mut hits);
//! assert_eq!(hits.len(), 2);
//! assert_eq!(view.num_components(), conn.num_components());
//! assert_eq!(
//!     view.component_size(0),
//!     conn.component_size(0),
//! );
//! ```
//!
//! A sharded deployment works the same way: build a
//! `ShardedEngine<BatchConnectivity>` and derive the global component
//! mirror from the unioned shard outputs —
//! `ConnView::from_edges(n, &view.edges())` — which is exact because a
//! union of per-shard spanning forests preserves the connectivity of
//! the union graph (see the `social_components` example).
//!
//! A [`ShardedEngine`]'s layout is fixed when it is built: the shard
//! count comes from [`ShardedEngineBuilder::shards`] and edges route by
//! [`HashPartitioner`]. Any edge partition works, since the union of
//! per-part (2k−1)-spanners is a (2k−1)-spanner of the whole graph.
//!
//! ## Serving concurrent traffic
//!
//! For sustained read/write load, wrap a [`ShardedEngine`] in a
//! [`ServeLoop`]: producers push raw updates through cloneable
//! [`IngestHandle`]s (bounded queue — backpressure, not buffering), a
//! single writer thread coalesces them into batches of at most the
//! [`BatchPolicy::Fixed`] size, and readers pin
//! double-buffered [`ShardedView`]s through an RAII guard to answer
//! *parallel batch queries* without ever blocking the writer. See
//! [`graph::serve`] for the epoch discipline and safety argument.
//!
//! ```
//! use batch_spanners::prelude::*;
//!
//! let n = 100;
//! let engine = ShardedEngineBuilder::new(n)
//!     .shards(2)
//!     .build_with(&[], move |_, es| MirrorSpanner::build(n, es))
//!     .unwrap();
//! let (serve, ingest) = ServeLoopBuilder::new(engine)
//!     .queue_capacity(256)
//!     .batch_policy(BatchPolicy::Fixed(16))
//!     .build();
//! let reads = serve.read_handle();
//! let writer = serve.spawn();
//!
//! for u in 0..99 {
//!     ingest.insert(u, u + 1).unwrap(); // blocks only when the queue is full
//! }
//! drop(ingest); // hanging up every producer shuts the loop down
//! let report = writer.join().unwrap();
//!
//! // Epoch-pinned batch reads: one consistent snapshot per guard.
//! let view = reads.pin_at_least(report.final_seq);
//! let queries: Vec<Edge> = (0..99).map(|u| Edge::new(u, u + 1)).collect();
//! let mut hits = Vec::new();
//! view.batch_contains(&queries, &mut hits);
//! assert!(hits.iter().all(|&h| h));
//! assert_eq!(report.raw_updates, 99);
//! ```
//!
//! ## Crash safety
//!
//! The serving pipeline is in-memory by default; add
//! [`ServeLoopBuilder::durability`] to write-ahead log every applied
//! batch and recover the engine after a crash with [`wal::recover`]
//! (see [`graph::wal`] for the log format and recovery semantics). The
//! key ordering guarantee: the batch record is appended — and synced,
//! per [`FsyncPolicy`] — *before* the batch's view swap is published,
//! so no reader ever observes a state the log cannot reproduce.
//!
//! Pick the fsync policy by what a machine crash may cost:
//!
//! | Policy | Loss window | Cost |
//! |---|---|---|
//! | [`FsyncPolicy::EveryBatch`] | nothing acknowledged is lost | one `fdatasync` per batch |
//! | [`FsyncPolicy::EveryN`]`(k)` | up to k−1 acknowledged batches | amortized |
//! | [`FsyncPolicy::Manual`] | the unsynced tail | none until [`wal::WalWriter::sync`] |
//!
//! A *process* crash (panic, kill) loses nothing under any policy —
//! the appended bytes are in the OS page cache; the loss windows above
//! apply to power loss and kernel crashes. Recovery itself never
//! panics on bad bytes: torn tails (crash mid-append) stop the replay
//! cleanly, checksum failures surface as typed
//! [`RecoverError::Corrupt`] errors, and mismatched artifacts
//! (snapshot and log from different engines or layout epochs) are
//! rejected. A crashed writer is also *visible*: producers whose queue
//! disconnects get [`IngestError::WriterGone`], distinguished from the
//! clean-shutdown [`IngestError::Closed`].
//!
//! ```no_run
//! use batch_spanners::prelude::*;
//!
//! let n = 100;
//! let build = move |_: usize, es: &[Edge]| MirrorSpanner::build(n, es);
//! let engine = ShardedEngineBuilder::new(n)
//!     .shards(2)
//!     .build_with(&[], build)
//!     .unwrap();
//! let (serve, ingest) = ServeLoopBuilder::new(engine)
//!     .durability(
//!         WalConfig::new("spanner.wal")
//!             .fsync(FsyncPolicy::EveryBatch)
//!             .snapshot("spanner.snap", 1024), // re-snapshot every 1024 batches
//!     )
//!     .build();
//! let writer = serve.spawn();
//! ingest.insert(0, 1).unwrap();
//! drop(ingest);
//! writer.join().unwrap();
//!
//! // ... crash, restart ...
//!
//! let recovered = batch_spanners::wal::recover(
//!     "spanner.snap".as_ref(),
//!     "spanner.wal".as_ref(),
//!     ShardedEngineBuilder::new(n).shards(2),
//!     build,
//! )
//! .unwrap();
//! assert!(recovered.engine.seq() >= 1);
//! ```
//!
//! The WAL is the stack's only redundancy: the engine keeps one copy
//! of each shard. [`wal::recover`] rebuilds the shards from the
//! snapshot through the same factory and replays the logged batches
//! after it. Recovered from the initial snapshot, a *randomized*
//! structure (e.g. [`FullyDynamicSpanner`]) sees the same input history,
//! makes the same coin flips, and answers identically to the engine
//! that crashed. A [`FollowerView`] tails the log file to keep a
//! read-only mirror on another thread (or process) trailing the
//! primary.

#![deny(unsafe_op_in_unsafe_fn)]

pub use bds_baseline as baseline;
pub use bds_bundle as bundle;
pub use bds_contract as contract;
pub use bds_core as core;
pub use bds_dstruct as dstruct;
pub use bds_estree as estree;
pub use bds_graph as graph;
pub use bds_par as par;
pub use bds_sparsify as sparsify;
pub use bds_ultra as ultra;

pub use bds_graph::gen;
pub use bds_graph::wal;

/// The commonly used types and structures in one import.
pub mod prelude {
    pub use bds_bundle::{BundleSpanner, BundleSpannerBuilder, MonotoneSpanner};
    pub use bds_contract::{SparseSpanner, SparseSpannerBuilder};
    pub use bds_core::{DecrementalSpanner, FullyDynamicSpanner, FullyDynamicSpannerBuilder};
    pub use bds_estree::{EsTree, EsTreeBuilder};
    pub use bds_graph::api::{
        AuxTag, BatchDynamic, BatchError, BatchReport, BatchStats, ConfigError, Decremental,
        DeltaBuf, FullyDynamic, SpannerView,
    };
    pub use bds_graph::conn::{BatchConnectivity, BatchConnectivityBuilder, ConnView};
    pub use bds_graph::serve::{
        BatchPolicy, IngestError, IngestHandle, ReadGuard, ReadHandle, ServeLoop, ServeLoopBuilder,
        ServeReport, Update,
    };
    pub use bds_graph::shard::{
        HashPartitioner, LaneLoad, MirrorSpanner, Partitioner, ShardedEngine, ShardedEngineBuilder,
        ShardedView,
    };
    pub use bds_graph::types::{Edge, UpdateBatch, V};
    pub use bds_graph::wal::{
        FollowerView, FsyncPolicy, RecoverError, Recovered, Snapshot, WalConfig, WalWriter,
    };
    pub use bds_graph::CsrGraph;
    pub use bds_sparsify::{DecrementalSparsifier, FullyDynamicSparsifier};
    pub use bds_ultra::{UltraParams, UltraSparseSpanner};
}

pub use prelude::*;
