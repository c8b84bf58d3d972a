//! Cross-crate integration tests: every theorem structure driven by the
//! same adversarial update schedule, with cross-validation between
//! structures and against static oracles.

use batch_spanners::gen;
use batch_spanners::prelude::*;
use bds_dstruct::FxHashSet;
use bds_graph::csr::edge_stretch;
use bds_graph::cuts::sparsifier_error;
use bds_graph::stream::UpdateStream;

/// All spanner variants track the same mutating graph; each keeps its own
/// guarantee and its deltas replay exactly.
#[test]
fn all_spanners_track_one_graph() {
    let n = 120;
    let init = gen::gnm_connected(n, 500, 42);
    let mut stream = UpdateStream::new(n, &init, 43);

    let mut base = FullyDynamicSpanner::new(n, 2, &init, 1);
    let mut sparse = SparseSpanner::new(n, &init, 2);
    let mut ultra = UltraSparseSpanner::new(n, &init, UltraParams { x: 2 }, 3);

    let mut base_shadow: FxHashSet<Edge> = base.spanner_edges().into_iter().collect();
    let mut sparse_shadow: FxHashSet<Edge> = sparse.spanner_edges().into_iter().collect();
    let mut ultra_shadow: FxHashSet<Edge> = ultra.spanner_edges().into_iter().collect();
    let mut d = DeltaBuf::new();

    for round in 0..15 {
        let batch = stream.next_batch(8, 8);
        base.apply_into(&batch, &mut d);
        d.apply_to(&mut base_shadow);
        sparse.delete_into(&batch.deletions, &mut d);
        d.apply_to(&mut sparse_shadow);
        sparse.insert_into(&batch.insertions, &mut d);
        d.apply_to(&mut sparse_shadow);
        ultra.apply_into(&batch, &mut d);
        d.apply_to(&mut ultra_shadow);

        let live = stream.live_edges();
        for (name, shadow, edges) in [
            ("base", &base_shadow, base.spanner_edges()),
            ("sparse", &sparse_shadow, sparse.spanner_edges()),
            ("ultra", &ultra_shadow, ultra.spanner_edges()),
        ] {
            let got: FxHashSet<Edge> = edges.into_iter().collect();
            assert_eq!(
                &got, shadow,
                "{name} delta replay diverged in round {round}"
            );
            // Every spanner is a subgraph of the live graph.
            let live_set: FxHashSet<Edge> = live.iter().copied().collect();
            assert!(got.is_subset(&live_set), "{name} contains dead edges");
        }
        let st = edge_stretch(n, live, &base.spanner_edges(), n, 5);
        assert!(st <= 3.0, "base stretch {st} in round {round}");
    }
}

/// The sparsifier built on bundles approximates cuts of the same graph
/// the bundle spanner certifies connectivity for.
#[test]
fn bundle_and_sparsifier_consistency() {
    let n = 100;
    let init = gen::gnm_connected(n, 800, 7);
    let mut bundle = BundleSpanner::new(n, &init, 2, 9);
    let mut sp = DecrementalSparsifier::new(n, &init, 2, 11);
    let mut stream = UpdateStream::new(n, &init, 13);
    let mut d = DeltaBuf::new();
    for _ in 0..10 {
        let dels = stream.next_deletions(25);
        bundle.delete_into(&dels, &mut d);
        sp.delete_into(&dels, &mut d);
        assert_eq!(bundle.num_live_edges(), sp.num_live_edges());
    }
    let live = stream.live_edges().to_vec();
    let err = sparsifier_error(n, &live, &sp.sparsifier_edges(), 25, 17);
    assert!(err < 1.5, "sparsifier error {err} after deletions");
    // The bundle spans every residual edge.
    let st = edge_stretch(n, &bundle.residual_edges(), &bundle.bundle_edges(), n, 19);
    assert!(st.is_finite(), "bundle lost the spanner property");
}

/// Decremental-only structures agree with the fully-dynamic wrapper when
/// the schedule happens to be deletion-only.
#[test]
fn decremental_matches_fully_dynamic_on_deletions() {
    let n = 80;
    let init = gen::gnm_connected(n, 320, 21);
    let mut full = FullyDynamicSpanner::new(n, 3, &init, 23);
    let mut decr = DecrementalSpanner::new(n, 3, &init, 25);
    let mut stream = UpdateStream::new(n, &init, 27);
    let mut d = DeltaBuf::new();
    for _ in 0..12 {
        let dels = stream.next_deletions(12);
        full.delete_into(&dels, &mut d);
        decr.delete_into(&dels, &mut d);
        assert_eq!(full.num_live_edges(), decr.num_live_edges());
        let live = stream.live_edges();
        for s in [full.spanner_edges(), decr.spanner_edges()] {
            let st = edge_stretch(n, live, &s, n, 29);
            assert!(st <= 5.0, "stretch {st}");
        }
    }
    full.validate();
    decr.validate();
}

/// Stress: interleaved growth and shrinkage across two orders of
/// magnitude of edge count, validating the Bentley–Saxe bookkeeping.
#[test]
fn grow_shrink_stress() {
    let n = 60;
    let mut s = FullyDynamicSpanner::new(n, 2, &[], 31);
    let all = gen::gnm(n, 900, 33);
    let mut d = DeltaBuf::new();
    // Grow in uneven chunks.
    let mut inserted = 0;
    for chunk in all.chunks(123) {
        s.insert_into(chunk, &mut d);
        inserted += chunk.len();
        assert_eq!(s.num_live_edges(), inserted);
    }
    s.validate();
    // Shrink to one third.
    for chunk in all[..600].chunks(77) {
        s.delete_into(chunk, &mut d);
    }
    s.validate();
    assert_eq!(s.num_live_edges(), all.len() - 600);
    // Regrow the deleted edges.
    s.insert_into(&all[..300], &mut d);
    s.validate();
    let st = {
        let mut live: Vec<Edge> = all[600..].to_vec();
        live.extend_from_slice(&all[..300]);
        edge_stretch(n, &live, &s.spanner_edges(), n, 35)
    };
    assert!(st <= 3.0, "stretch {st} after grow/shrink");
}

/// Lemma 6.4's monotonicity quantity: the number of *distinct* edges that
/// ever appear in the spanner over an entire decremental run is bounded
/// (O(n log³ n) in the paper; we check a generous concrete bound). The
/// per-level J lists of Theorem 1.5 turn this into true set-monotonicity,
/// tested in `bds-bundle`.
#[test]
fn monotone_ever_in_spanner_is_bounded() {
    let n = 70;
    let init = gen::gnm_connected(n, 350, 41);
    let copies = 6;
    let mut mono = MonotoneSpanner::with_params(n, &init, copies, 0.3, 43);
    let mut ever: FxHashSet<Edge> = mono.spanner_edges().into_iter().collect();
    let mut stream = UpdateStream::new(n, &init, 47);
    let mut delta = DeltaBuf::new();
    for _ in 0..40 {
        let dels = stream.next_deletions(8);
        mono.delete_into(&dels, &mut delta);
        ever.extend(delta.inserted());
    }
    let logn = (n as f64).log2();
    let bound = copies as f64 * 4.0 * n as f64 * logn;
    assert!(
        (ever.len() as f64) < bound,
        "distinct spanner edges {} exceeds bound {bound}",
        ever.len()
    );
}

/// Everything a built sharded engine exposes, per lane and sorted: the
/// lane outputs, the lanes' live input edges (in lane order) and the
/// edges of a [`ShardedView`] seeded from it.
type BuiltEngine = (Vec<Vec<Edge>>, Vec<Edge>, Vec<Edge>);

fn built<S: FullyDynamic + Send>(engine: &ShardedEngine<S>) -> BuiltEngine {
    let mut buf = DeltaBuf::new();
    let outputs = (0..engine.num_shards())
        .map(|i| {
            engine.shard(i).output_into(&mut buf);
            let mut out = buf.inserted().to_vec();
            out.sort_unstable();
            out
        })
        .collect();
    let mut live: Vec<Edge> = engine.live_input_edges().collect();
    live.sort_unstable();
    let mut view = ShardedView::of(engine).edges();
    view.sort_unstable();
    (outputs, live, view)
}

/// The lanes are built at once on the pool; the engine must not depend
/// on how many threads built it — a dense two-lane Theorem 1.1 engine
/// and a single-lane connectivity engine, at widths 1, 2 and 3.
#[test]
fn sharded_build_is_independent_of_the_thread_count() {
    let (n, k) = (1_000, 3);
    let edges = gen::gnm(n, 150_000, 17);
    let spanner = |threads| {
        bds_par::run_with_threads(threads, || {
            let engine = ShardedEngineBuilder::new(n)
                .shards(2)
                .build_with(&edges, move |i, es| {
                    FullyDynamicSpanner::builder(n)
                        .stretch(k)
                        .seed(31 + i as u64)
                        .build(es)
                })
                .unwrap();
            built(&engine)
        })
    };
    let conn = |threads| {
        bds_par::run_with_threads(threads, || {
            let engine = ShardedEngineBuilder::new(n)
                .shards(1)
                .build_with(&edges, move |_, es| BatchConnectivity::builder(n).build(es))
                .unwrap();
            built(&engine)
        })
    };
    let (want_spanner, want_conn) = (spanner(1), conn(1));
    assert_eq!(want_spanner.0.len(), 2);
    assert!(want_spanner.0.iter().all(|out| !out.is_empty()));
    assert_eq!(want_spanner.1.len(), edges.len());
    let mut union = want_spanner.0.concat();
    union.sort_unstable();
    assert_eq!(want_spanner.2, union, "the view mirrors the lane outputs");
    for threads in [2, 3] {
        assert_eq!(
            spanner(threads),
            want_spanner,
            "spanner engine at {threads} threads"
        );
        assert_eq!(
            conn(threads),
            want_conn,
            "connectivity engine at {threads} threads"
        );
    }
}
