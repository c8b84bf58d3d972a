//! Generic conformance suite for the unified batch-dynamic engine API:
//! one set of properties, instantiated for all ten implementors of
//! [`Decremental`] / [`FullyDynamic`] (the spanners, the sparsifiers,
//! and the connectivity product riding the same substrate).
//!
//! Properties checked per structure:
//! * **Delta-vs-materialized oracle** — replaying every batch's
//!   [`DeltaBuf`] into a shadow edge map reproduces `output_into`
//!   exactly (weights included for the sparsifiers).
//! * **Netting** — no edge appears in both sections of one delta.
//! * **Output ⊆ live input** — every output edge is a live input edge.
//! * **Zero initial recourse** — building charges no recourse.
//! * **Empty batch is a no-op** with zero recourse.
//! * **Delete-then-reinsert** (fully-dynamic only) — edges removed in
//!   one batch can come back in the next and the oracle still replays.

use batch_spanners::gen;
use batch_spanners::prelude::*;
use bds_dstruct::{FxHashMap, FxHashSet};

/// Materialized oracle: edge -> weight bits (1.0 for unweighted sets).
type Shadow = FxHashMap<Edge, u64>;

fn shadow_of<S: BatchDynamic + ?Sized>(s: &S, buf: &mut DeltaBuf) -> Shadow {
    s.output_into(buf);
    let mut m = Shadow::default();
    buf.apply_weighted_to(&mut m);
    m
}

fn assert_matches<S: BatchDynamic + ?Sized>(s: &S, shadow: &Shadow, buf: &mut DeltaBuf, ctx: &str) {
    s.output_into(buf);
    let mut m = Shadow::default();
    buf.apply_weighted_to(&mut m);
    assert_eq!(&m, shadow, "{ctx}: output diverged from delta replay");
}

fn assert_within_live(shadow: &Shadow, live: &[Edge], ctx: &str) {
    let live: FxHashSet<Edge> = live.iter().copied().collect();
    for e in shadow.keys() {
        assert!(
            live.contains(e),
            "{ctx}: output edge {e:?} is not a live input edge"
        );
    }
}

fn assert_netted(buf: &DeltaBuf, ctx: &str) {
    if buf.is_weighted() {
        // A weighted edge may appear in both sections at *different*
        // weights (a cross-level reweighting); identical (edge, weight)
        // pairs would be a bounce that should have netted out.
        let ins: FxHashSet<(Edge, u64)> = buf
            .inserted_weighted()
            .map(|(e, w)| (e, w.to_bits()))
            .collect();
        for (e, w) in buf.deleted_weighted() {
            assert!(
                !ins.contains(&(e, w.to_bits())),
                "{ctx}: ({e:?}, {w}) in both delta sections"
            );
        }
    } else {
        let ins: FxHashSet<Edge> = buf.inserted().iter().copied().collect();
        for e in buf.deleted() {
            assert!(!ins.contains(e), "{ctx}: edge {e:?} in both delta sections");
        }
    }
}

/// Drive a [`Decremental`] structure through a deletion schedule.
fn conform_decremental<T: Decremental>(mut s: T, edges: &[Edge], chunk: usize, name: &str) {
    assert_eq!(
        s.stats().recourse,
        0,
        "{name}: the initial build charged recourse"
    );
    let mut buf = DeltaBuf::new();
    let mut shadow = shadow_of(&s, &mut buf);
    let mut live = edges.to_vec();

    s.delete_into(&[], &mut buf);
    assert_eq!(buf.recourse(), 0, "{name}: empty batch reported a delta");
    assert_matches(&s, &shadow, &mut buf, name);
    assert_within_live(&shadow, &live, name);

    let mut round = 0;
    while !live.is_empty() {
        let batch: Vec<Edge> = live.split_off(live.len().saturating_sub(chunk));
        s.delete_into(&batch, &mut buf);
        assert_netted(&buf, name);
        buf.apply_weighted_to(&mut shadow);
        round += 1;
        if round % 3 == 0 || live.is_empty() {
            assert_matches(&s, &shadow, &mut buf, name);
            assert_within_live(&shadow, &live, name);
        }
    }
    assert!(
        shadow.is_empty(),
        "{name}: deleting every edge must empty the output set"
    );
}

/// Drive a [`FullyDynamic`] structure through mixed batches, including a
/// delete-everything / reinsert-everything netting round-trip.
fn conform_fully_dynamic<T: FullyDynamic>(mut s: T, edges: &[Edge], chunk: usize, name: &str) {
    use bds_graph::stream::UpdateStream;
    assert_eq!(
        s.stats().recourse,
        0,
        "{name}: the initial build charged recourse"
    );
    let n = s.num_vertices();
    let mut buf = DeltaBuf::new();
    let mut shadow = shadow_of(&s, &mut buf);

    s.apply_into(&UpdateBatch::default(), &mut buf);
    assert_eq!(buf.recourse(), 0, "{name}: empty batch reported a delta");

    let mut stream = UpdateStream::new(n, edges, 0xfeed ^ chunk as u64);
    for round in 0..10 {
        let batch = stream.next_batch(chunk, chunk);
        s.apply_into(&batch, &mut buf);
        assert_netted(&buf, name);
        buf.apply_weighted_to(&mut shadow);
        if round % 3 == 2 {
            assert_matches(&s, &shadow, &mut buf, name);
            assert_within_live(&shadow, stream.live_edges(), name);
        }
    }

    // Delete a slab of live edges, then reinsert the same edges in the
    // next batch: both deltas must replay, and the live graph is back.
    let slab: Vec<Edge> = stream
        .live_edges()
        .iter()
        .copied()
        .take(chunk * 2)
        .collect();
    let m_before = s.num_live_edges();
    s.delete_into(&slab, &mut buf);
    assert_netted(&buf, name);
    buf.apply_weighted_to(&mut shadow);
    s.insert_into(&slab, &mut buf);
    assert_netted(&buf, name);
    buf.apply_weighted_to(&mut shadow);
    assert_eq!(
        s.num_live_edges(),
        m_before,
        "{name}: delete-then-reinsert changed the live edge count"
    );
    assert_matches(&s, &shadow, &mut buf, name);
    assert_within_live(&shadow, stream.live_edges(), name);
}

fn directed(edges: &[Edge]) -> Vec<(V, V, u64)> {
    edges
        .iter()
        .flat_map(|e| {
            [
                (e.u, e.v, ((e.u as u64) << 32) | e.u as u64),
                (e.v, e.u, ((e.v as u64) << 32) | e.v as u64),
            ]
        })
        .collect()
}

// --- the five Decremental implementors ---

#[test]
fn conformance_es_tree() {
    let n = 60;
    let edges = gen::gnm_connected(n, 200, 11);
    let t = EsTree::builder(n)
        .source(0)
        .max_depth(12)
        .build(&directed(&edges))
        .unwrap();
    conform_decremental(t, &edges, 7, "EsTree");
}

#[test]
fn conformance_decremental_spanner() {
    let n = 60;
    let edges = gen::gnm_connected(n, 200, 13);
    let s = DecrementalSpanner::builder(n)
        .stretch(2)
        .seed(17)
        .build(&edges)
        .unwrap();
    conform_decremental(s, &edges, 6, "DecrementalSpanner");
}

#[test]
fn conformance_monotone_spanner() {
    let n = 50;
    let edges = gen::gnm_connected(n, 160, 19);
    let s = MonotoneSpanner::builder(n)
        .copies(4)
        .beta(0.3)
        .seed(23)
        .build(&edges)
        .unwrap();
    conform_decremental(s, &edges, 8, "MonotoneSpanner");
}

#[test]
fn conformance_bundle_spanner() {
    let n = 50;
    let edges = gen::gnm_connected(n, 180, 29);
    let s = BundleSpanner::builder(n)
        .depth(2)
        .copies(4)
        .beta(0.3)
        .seed(31)
        .build(&edges)
        .unwrap();
    conform_decremental(s, &edges, 8, "BundleSpanner");
}

#[test]
fn conformance_decremental_sparsifier() {
    let n = 50;
    let edges = gen::gnm_connected(n, 220, 37);
    let s = DecrementalSparsifier::builder(n)
        .depth(1)
        .copies(4)
        .beta(0.3)
        .threshold(10)
        .seed(41)
        .build(&edges)
        .unwrap();
    conform_decremental(s, &edges, 9, "DecrementalSparsifier");
}

// --- the four FullyDynamic implementors ---

#[test]
fn conformance_fully_dynamic_spanner() {
    let n = 60;
    let edges = gen::gnm_connected(n, 220, 43);
    let s = FullyDynamicSpanner::builder(n)
        .stretch(2)
        .seed(47)
        .build(&edges)
        .unwrap();
    conform_fully_dynamic(s, &edges, 6, "FullyDynamicSpanner");
}

#[test]
fn conformance_sparse_spanner() {
    let n = 60;
    let edges = gen::gnm_connected(n, 220, 53);
    let s = SparseSpanner::builder(n)
        .rates(&[3.0])
        .seed(59)
        .build(&edges)
        .unwrap();
    conform_fully_dynamic(s, &edges, 5, "SparseSpanner");
}

#[test]
fn conformance_ultra_sparse_spanner() {
    let n = 60;
    let edges = gen::gnm_connected(n, 220, 61);
    let s = UltraSparseSpanner::builder(n)
        .x(2)
        .seed(67)
        .build(&edges)
        .unwrap();
    conform_fully_dynamic(s, &edges, 5, "UltraSparseSpanner");
}

#[test]
fn conformance_batch_connectivity() {
    // The connectivity product's output plane is its spanning forest;
    // deletion chunks routinely cut tree edges, so the delta-replay
    // oracle exercises the replacement-edge search every round.
    let n = 60;
    let edges = gen::gnm_connected(n, 220, 109);
    let s = BatchConnectivity::builder(n).build(&edges).unwrap();
    conform_fully_dynamic(s, &edges, 6, "BatchConnectivity");
}

#[test]
fn conformance_fully_dynamic_sparsifier() {
    let n = 50;
    let edges = gen::gnm_connected(n, 200, 71);
    let s = FullyDynamicSparsifier::builder(n)
        .depth(1)
        .seed(73)
        .build(&edges)
        .unwrap();
    conform_fully_dynamic(s, &edges, 6, "FullyDynamicSparsifier");
}

// --- the sharded dispatcher must satisfy the same contract as any
//     single structure (the 9-way suite's generic drivers run unchanged
//     over it, unweighted and weighted) ---

#[test]
fn conformance_sharded_engine() {
    let n = 60;
    let edges = gen::gnm_connected(n, 220, 79);
    for shards in [1usize, 2, 7] {
        let s = ShardedEngineBuilder::new(n)
            .shards(shards)
            .build_with(&edges, move |i, shard_edges| {
                FullyDynamicSpanner::builder(n)
                    .stretch(2)
                    .seed(83 + i as u64)
                    .build(shard_edges)
            })
            .unwrap();
        conform_fully_dynamic(s, &edges, 6, &format!("ShardedEngine[{shards}]"));
    }
}

#[test]
fn conformance_sharded_engine_jump() {
    // An odd, non-power-of-two shard count on its own graph and seeds:
    // hash routing over 3 lanes must satisfy exactly the same contract
    // as a single structure.
    let n = 60;
    let edges = gen::gnm_connected(n, 220, 103);
    let s = ShardedEngineBuilder::new(n)
        .shards(3)
        .build_with(&edges, move |i, shard_edges| {
            FullyDynamicSpanner::builder(n)
                .stretch(2)
                .seed(107 + i as u64)
                .build(shard_edges)
        })
        .unwrap();
    conform_fully_dynamic(s, &edges, 6, "ShardedEngine[3]");
}

#[test]
fn conformance_sharded_connectivity() {
    // The connectivity engine behind the sharded dispatcher: per-shard
    // forests merge through the same delta plane as the spanners.
    let n = 60;
    let edges = gen::gnm_connected(n, 220, 113);
    for shards in [1usize, 3] {
        let s = ShardedEngineBuilder::new(n)
            .shards(shards)
            .build_with(&edges, move |_, shard_edges| {
                BatchConnectivity::builder(n).build(shard_edges)
            })
            .unwrap();
        conform_fully_dynamic(s, &edges, 6, &format!("ShardedEngine<Conn>[{shards}]"));
    }
}

#[test]
fn conformance_sharded_sparsifier() {
    // The weighted merge path: per-shard weight lanes must survive the
    // merge + net intact.
    let n = 50;
    let edges = gen::gnm_connected(n, 200, 89);
    let s = ShardedEngineBuilder::new(n)
        .shards(3)
        .build_with(&edges, move |i, shard_edges| {
            FullyDynamicSparsifier::builder(n)
                .depth(1)
                .seed(97 + i as u64)
                .build(shard_edges)
        })
        .unwrap();
    conform_fully_dynamic(s, &edges, 6, "ShardedEngine<Sparsifier>");
}

/// One instance of each [`FullyDynamic`] implementor over `edges`.
fn fully_dynamic_structures(
    n: usize,
    edges: &[Edge],
) -> Vec<(&'static str, Box<dyn FullyDynamic>)> {
    vec![
        (
            "FullyDynamicSpanner",
            Box::new(
                FullyDynamicSpanner::builder(n)
                    .stretch(2)
                    .seed(13)
                    .build(edges)
                    .unwrap(),
            ),
        ),
        (
            "SparseSpanner",
            Box::new(
                SparseSpanner::builder(n)
                    .rates(&[3.0])
                    .seed(17)
                    .build(edges)
                    .unwrap(),
            ),
        ),
        (
            "UltraSparseSpanner",
            Box::new(
                UltraSparseSpanner::builder(n)
                    .x(2)
                    .seed(19)
                    .build(edges)
                    .unwrap(),
            ),
        ),
        (
            "FullyDynamicSparsifier",
            Box::new(
                FullyDynamicSparsifier::builder(n)
                    .depth(1)
                    .seed(23)
                    .build(edges)
                    .unwrap(),
            ),
        ),
        (
            "BatchConnectivity",
            Box::new(BatchConnectivity::builder(n).build(edges).unwrap()),
        ),
        (
            "MirrorSpanner",
            Box::new(MirrorSpanner::build(n, edges).unwrap()),
        ),
        (
            "ShardedEngine",
            Box::new(
                ShardedEngineBuilder::new(n)
                    .shards(3)
                    .build_with(edges, move |i, shard_edges| {
                        FullyDynamicSpanner::builder(n)
                            .stretch(2)
                            .seed(29 + i as u64)
                            .build(shard_edges)
                    })
                    .unwrap(),
            ),
        ),
    ]
}

// --- cross-structure consistency: every implementor counts canonical
//     (undirected) edges. EsTree used to report *directed* edges here —
//     a 2× mismatch for any harness comparing or load-balancing across
//     structures; this assertion keeps that bug dead. ---

#[test]
fn num_live_edges_agrees_across_structures() {
    let n = 60;
    let edges = gen::gnm_connected(n, 200, 101);
    let mut structures: Vec<(&str, Box<dyn Decremental>)> = vec![
        (
            "EsTree",
            Box::new(
                EsTree::builder(n)
                    .source(0)
                    .max_depth(16)
                    .build(&directed(&edges))
                    .unwrap(),
            ),
        ),
        (
            "DecrementalSpanner",
            Box::new(
                DecrementalSpanner::builder(n)
                    .stretch(2)
                    .seed(3)
                    .build(&edges)
                    .unwrap(),
            ),
        ),
        (
            "MonotoneSpanner",
            Box::new(
                MonotoneSpanner::builder(n)
                    .copies(4)
                    .beta(0.3)
                    .seed(5)
                    .build(&edges)
                    .unwrap(),
            ),
        ),
        (
            "BundleSpanner",
            Box::new(
                BundleSpanner::builder(n)
                    .depth(2)
                    .copies(4)
                    .beta(0.3)
                    .seed(7)
                    .build(&edges)
                    .unwrap(),
            ),
        ),
        (
            "DecrementalSparsifier",
            Box::new(
                DecrementalSparsifier::builder(n)
                    .depth(1)
                    .copies(4)
                    .beta(0.3)
                    .threshold(10)
                    .seed(11)
                    .build(&edges)
                    .unwrap(),
            ),
        ),
    ];
    structures.extend(
        fully_dynamic_structures(n, &edges)
            .into_iter()
            .map(|(name, s)| (name, s as Box<dyn Decremental>)),
    );
    for (name, s) in &structures {
        assert_eq!(
            s.num_live_edges(),
            edges.len(),
            "{name}: initial live-edge count diverges"
        );
    }
    // Drive the same canonical deletion batch through every structure;
    // the counts must stay in lockstep.
    let dels: Vec<Edge> = edges.iter().copied().take(40).collect();
    let mut buf = DeltaBuf::new();
    for (name, s) in &mut structures {
        s.delete_into(&dels, &mut buf);
        assert_eq!(
            s.num_live_edges(),
            edges.len() - dels.len(),
            "{name}: live-edge count diverges after a deletion batch"
        );
    }
}

// --- output order is a function of the input alone: every implementor
//     reports the same edge sequence at any pool width, so the WAL seed
//     and snapshot bytes of one seed repeat ---

#[test]
fn output_order_is_independent_of_width() {
    let n = 2_000;
    // Input above GRAIN, so the builds' parallel maps and sorts run
    // split at width 2.
    let edges = gen::gnm_connected(n, 3 * bds_par::GRAIN, 131);
    let outputs = |threads| {
        bds_par::run_with_threads(threads, || {
            let mut buf = DeltaBuf::new();
            fully_dynamic_structures(n, &edges)
                .into_iter()
                .map(|(name, s)| {
                    s.output_into(&mut buf);
                    let out: Vec<(Edge, u64)> = buf
                        .inserted_weighted()
                        .map(|(e, w)| (e, w.to_bits()))
                        .collect();
                    (name, out)
                })
                .collect::<Vec<_>>()
        })
    };
    let (t1, t2) = (outputs(1), outputs(2));
    for ((name, a), (_, b)) in t1.iter().zip(&t2) {
        assert!(
            a == b,
            "{name}: output order differs between widths 1 and 2"
        );
    }
}

// --- process_checked is the validating entry point for untrusted
//     batches: an out-of-range or non-canonical edge is a typed error
//     and leaves the structure untouched, for every implementor ---

#[test]
fn process_checked_rejects_malformed_edges() {
    let n = 50;
    let edges = gen::gnm_connected(n, 160, 127);
    let fresh = (0..n as V)
        .flat_map(|u| (u + 1..n as V).map(move |v| Edge::new(u, v)))
        .find(|e| !edges.contains(e))
        .unwrap();
    let out_of_range = Edge { u: 3, v: 999 };
    let non_canonical = Edge { u: 9, v: 4 };
    let self_loop = Edge { u: 5, v: 5 };
    // Each bad edge rides behind a valid update, so a structure that
    // applies before validating would show it in its output.
    let cases = [
        (
            UpdateBatch::insert_only(vec![fresh, out_of_range]),
            BatchError::VertexOutOfRange { vertex: 999, n },
        ),
        (
            UpdateBatch::insert_only(vec![fresh, non_canonical]),
            BatchError::NonCanonicalEdge(non_canonical),
        ),
        (
            UpdateBatch {
                insertions: vec![fresh],
                deletions: vec![edges[0], Edge { u: 70, v: 80 }],
            },
            BatchError::VertexOutOfRange { vertex: 70, n },
        ),
        (
            UpdateBatch::delete_only(vec![edges[0], self_loop]),
            BatchError::NonCanonicalEdge(self_loop),
        ),
    ];
    let mut buf = DeltaBuf::new();
    for (name, mut s) in fully_dynamic_structures(n, &edges) {
        let before = shadow_of(s.as_ref(), &mut buf);
        let live = s.num_live_edges();
        for (batch, want) in &cases {
            let got = s.process_checked(batch, &mut buf);
            assert_eq!(got, Err(want.clone()), "{name}: {batch:?}");
            assert_eq!(s.num_live_edges(), live, "{name}: live edges changed");
            assert_matches(s.as_ref(), &before, &mut buf, name);
        }
        // A well-formed batch still goes through.
        let ok = UpdateBatch::insert_only(vec![fresh]);
        assert!(s.process_checked(&ok, &mut buf).is_ok(), "{name}");
        assert_eq!(s.num_live_edges(), live + 1, "{name}");
    }
}

// --- builder validation is part of the contract ---

#[test]
fn builders_reject_bad_input() {
    assert!(matches!(
        FullyDynamicSpanner::builder(1).build(&[]),
        Err(ConfigError::TooFewVertices { .. })
    ));
    assert!(matches!(
        FullyDynamicSpanner::builder(10).stretch(0).build(&[]),
        Err(ConfigError::InvalidParam { .. })
    ));
    assert!(matches!(
        DecrementalSpanner::builder(4).build(&[Edge::new(0, 9)]),
        Err(ConfigError::VertexOutOfRange { .. })
    ));
    assert!(matches!(
        SparseSpanner::builder(10).rates(&[0.5]).build(&[]),
        Err(ConfigError::InvalidParam { .. })
    ));
    assert!(matches!(
        UltraSparseSpanner::builder(10).x(1).build(&[]),
        Err(ConfigError::InvalidParam { .. })
    ));
    assert!(matches!(
        BundleSpanner::builder(10)
            .depth(0)
            .build(&[Edge::new(0, 1)]),
        Err(ConfigError::InvalidParam { .. })
    ));
    assert!(matches!(
        MonotoneSpanner::builder(10).beta(-1.0).build(&[]),
        Err(ConfigError::InvalidParam { .. })
    ));
    assert!(matches!(
        DecrementalSparsifier::builder(10).depth(0).build(&[]),
        Err(ConfigError::InvalidParam { .. })
    ));
    assert!(matches!(
        FullyDynamicSparsifier::builder(10).build(&[Edge::new(0, 1), Edge::new(1, 0)]),
        Err(ConfigError::DuplicateEdge(_))
    ));
    assert!(matches!(
        EsTree::builder(5).source(9).build(&[]),
        Err(ConfigError::VertexOutOfRange { .. })
    ));
    assert!(matches!(
        BatchConnectivity::builder(0).build(&[]),
        Err(ConfigError::TooFewVertices { .. })
    ));
    assert!(matches!(
        BatchConnectivity::builder(4).build(&[Edge::new(0, 9)]),
        Err(ConfigError::VertexOutOfRange { .. })
    ));
    assert!(matches!(
        BatchConnectivity::builder(4).build(&[Edge::new(0, 1), Edge::new(1, 0)]),
        Err(ConfigError::DuplicateEdge(_))
    ));
}
