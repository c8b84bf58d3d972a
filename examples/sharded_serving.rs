//! Scenario: a fixed-layout serving tier. One process owns N spanner
//! shards behind a single `FullyDynamic` surface: update batches are
//! routed by the edge→shard hash chosen at build time, each lane absorbs
//! its sub-batch independently (in parallel on multicore hosts), and the
//! merged delta feeds a `ShardedView` read mirror that answers point
//! queries for concurrent readers at a stable epoch. The union of the
//! per-lane (2k−1)-spanners is a (2k−1)-spanner of the whole graph.
//!
//! Run with: `cargo run --example sharded_serving --release`

use batch_spanners::gen;
use batch_spanners::prelude::*;
use bds_graph::stream::UpdateStream;

fn main() {
    let n = 4_000;
    let shards = 4;
    let edges = gen::gnm_connected(n, 6 * n, 11);
    println!(
        "serving tier: n = {n}, m = {}, {shards} spanner shards (threads: {})",
        edges.len(),
        bds_par::threads_available()
    );

    // Each lane holds one Theorem 1.1 structure over the edges the
    // hash partitioner routes to it; the factory seeds deterministically
    // per lane.
    let mut engine = ShardedEngineBuilder::new(n)
        .shards(shards)
        .build_with(&edges, move |i, shard_edges| {
            FullyDynamicSpanner::builder(n)
                .stretch(2)
                .seed(100 + i as u64)
                .build(shard_edges)
        })
        .expect("valid configuration");
    for (i, load) in engine.lane_loads().iter().enumerate() {
        println!(
            "  lane {i}: {} live edges, {} spanner edges",
            load.live_edges,
            engine.shard(i).spanner_size()
        );
    }
    assert_eq!(engine.num_live_edges(), edges.len());

    // Read side: per-lane mirrors behind one epoch, bound to the
    // engine's batch sequence — a skipped or double-applied batch would
    // panic instead of silently drifting.
    let mut view = ShardedView::of(&engine);

    // The write loop: mixed batches in, one merged delta out.
    let mut stream = UpdateStream::new(n, &edges, 7);
    let mut delta = DeltaBuf::new();
    let mut recourse = 0usize;
    let mut updates = 0usize;
    for round in 0..25 {
        let batch = stream.next_batch(40, 40);
        updates += batch.len();
        engine.apply_into(&batch, &mut delta);
        assert_eq!(delta.seq(), engine.seq());
        recourse += delta.recourse();
        let pinned = view.clone();
        view.apply(&engine);
        assert_eq!(view.epoch(), pinned.epoch() + 1);
        // The union mirror tracks the union of shard outputs exactly.
        let spanner_total: usize = (0..engine.num_shards())
            .map(|i| engine.shard(i).spanner_size())
            .sum();
        assert_eq!(view.len(), spanner_total, "round {round}");
        // Point reads route through the same partitioner the writes use.
        for &e in batch.insertions.iter().take(5) {
            let shard = engine.partitioner().shard_of(e, engine.num_shards());
            assert_eq!(
                view.contains(e),
                engine.shard(shard).spanner_edges().contains(&e)
            );
        }
    }
    assert_eq!(engine.num_live_edges(), stream.live_edges().len());
    println!(
        "{updates} updates in 25 batches -> merged recourse {recourse}, \
         view at epoch {} with {} edges",
        view.epoch(),
        view.len()
    );

    // Lane balance: a hash layout over a G(n, m) graph is even.
    let loads = engine.lane_loads();
    let max = loads.iter().map(|l| l.live_edges).max().unwrap_or(0);
    let mean = engine.num_live_edges() as f64 / shards as f64;
    println!(
        "lane skew (max / mean live edges): {:.3}",
        max as f64 / mean
    );
    assert!((max as f64) < 1.5 * mean, "hash lanes must stay balanced");

    // A traversal snapshot of the union, independent of later batches.
    let csr = view.to_csr();
    let total_degree: usize = (0..n as V).map(|v| csr.degree(v)).sum();
    assert_eq!(total_degree, 2 * view.len());
    println!("CSR snapshot: {} union edges materialized", view.len());
}
