//! Counting-allocator assertions for the zero-alloc delta path.
//!
//! The unified API's contract: once the caller-owned [`DeltaBuf`] and
//! the delta-tracking baselines have warmed up, the steady-state delta
//! path — membership bookkeeping plus `take_delta_into` — performs no
//! heap allocations at all, and neither does a warm `apply_into` on the
//! sharded dispatcher or on the Bentley–Saxe wrappers under E₀-resident
//! churn, nor remove/insert churn on an `EdgeTable` near its maximum
//! load, nor a `ShardedView` batch read into warm outputs.
//!
//! All assertions live in ONE test function and diff *per-thread*
//! allocation counters: the process-global counter picks up stray
//! allocations from the libtest harness thread (it runs concurrently
//! with the test even at `--test-threads=1`), which made the `== 0`
//! assertions sporadically fail with off-by-one-or-two counts. Paths
//! that run on the worker pool sum the counters of every pool
//! participant instead (`pool_allocations`).

use batch_spanners::par::alloc_counter::{
    pool_allocations as pool_allocs, thread_allocations as allocs, CountingAlloc,
};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn delta_path_is_allocation_free_after_warmup() {
    use batch_spanners::core::SpannerSet;
    use batch_spanners::gen;
    use batch_spanners::prelude::*;
    use batch_spanners::sparsify::WeightedSet;

    // --- 1. SpannerSet: the unweighted delta path, exactly zero. ---
    // Steady state = bounded churn over a resident core. (Edge-table
    // removals never rehash — backward shift leaves no tombstone — so
    // only growth allocates; section 6 checks that at the table.)
    let edges = gen::gnm(64, 256, 9);
    let (core, churn) = edges.split_at(192);
    let mut set = SpannerSet::new();
    let mut buf = DeltaBuf::new();
    for &e in core {
        set.add(e);
    }
    // Warm-up: two churn/extract cycles size the count table, the
    // baseline table, and the buffer.
    for _ in 0..2 {
        for &e in churn {
            set.add(e);
        }
        set.take_delta_into(&mut buf);
        for &e in churn {
            set.remove(e);
        }
        set.take_delta_into(&mut buf);
    }
    let before = allocs();
    for _ in 0..10 {
        for &e in churn {
            set.add(e);
        }
        set.take_delta_into(&mut buf);
        assert_eq!(buf.recourse(), churn.len());
        for &e in churn {
            set.remove(e);
        }
        set.take_delta_into(&mut buf);
        assert_eq!(buf.recourse(), churn.len());
    }
    assert_eq!(
        allocs() - before,
        0,
        "SpannerSet delta path allocated after warm-up"
    );

    // --- 2. WeightedSet: the weighted delta path, exactly zero. ---
    let mut wset = WeightedSet::new();
    for &e in core {
        wset.insert(e, 1.0);
    }
    for _ in 0..2 {
        for &e in churn {
            wset.insert(e, 4.0);
        }
        wset.take_delta_into(&mut buf);
        for &e in churn {
            wset.remove(e);
        }
        wset.take_delta_into(&mut buf);
    }
    let before = allocs();
    for _ in 0..10 {
        for &e in churn {
            wset.insert(e, 4.0);
        }
        wset.take_delta_into(&mut buf);
        for &e in churn {
            wset.remove(e);
        }
        wset.take_delta_into(&mut buf);
    }
    assert_eq!(
        allocs() - before,
        0,
        "WeightedSet delta path allocated after warm-up"
    );

    // --- 3. The pool-wide count has teeth: of two tasks that each
    //        allocate once, the caller's own counter sees only the one
    //        it ran itself. ---
    bds_par::run_with_threads(2, || {
        let mut lens = [0usize; 2];
        let all = pool_allocs(); // first: starts the pool
        let own = allocs();
        bds_par::par_for_each_task(&mut lens, |l| *l = std::hint::black_box(vec![7u8; 8]).len());
        assert_eq!(lens, [8, 8]);
        assert_eq!((allocs() - own, pool_allocs() - all), (1, 2));
    });

    // --- 4. ShardedEngine: the merged delta path — scatter into
    //        per-shard sub-batches, per-shard apply, merge_from + net
    //        into the caller's buffer — is exactly zero once warm, at 1
    //        and at 2 threads. MirrorSpanner shards keep the per-shard
    //        apply itself allocation-free, so the assertion isolates the
    //        dispatcher; at 2 threads the lanes run on pool workers, so
    //        the count sums every participant's allocations.
    for threads in [1, 2] {
        bds_par::run_with_threads(threads, || {
            let n = 96;
            let init = gen::gnm(n, 384, 17);
            let (core, churn) = init.split_at(256);
            let mut engine = ShardedEngineBuilder::new(n)
                .shards(4)
                .build_with(core, move |_, shard_edges| {
                    MirrorSpanner::build(n, shard_edges)
                })
                .unwrap();
            let mut buf = DeltaBuf::new();
            let ins = UpdateBatch::insert_only(churn.to_vec());
            let del = UpdateBatch::delete_only(churn.to_vec());
            for _ in 0..2 {
                engine.apply_into(&ins, &mut buf);
                engine.apply_into(&del, &mut buf);
            }
            let before = pool_allocs();
            for _ in 0..10 {
                engine.apply_into(&ins, &mut buf);
                assert_eq!(buf.recourse(), churn.len());
                engine.apply_into(&del, &mut buf);
                assert_eq!(buf.recourse(), churn.len());
            }
            assert_eq!(
                pool_allocs() - before,
                0,
                "sharded merged-delta path allocated after warm-up at {threads} threads"
            );
        });
    }

    // --- 5. Bentley–Saxe wrappers under E₀-resident churn: with the
    //        position-indexed E₀ and reused per-batch scratch, a warm
    //        `apply_into` whose batches stay within E₀ (no slot rebuild,
    //        no slot deletion) is exactly zero — at 1 and at 2 threads.
    //        n = 96, k = 2 gives the spanner cap₀ = 1024 and the
    //        sparsifier cap₀ = 128; the 64-edge churn halves A and B
    //        alternate (delete one, insert the other) on top of a core
    //        that lives in slot 1.
    for threads in [1, 2] {
        bds_par::run_with_threads(threads, || {
            let n = 96;
            let init = gen::gnm(n, 384, 23);
            let (core, churn) = init.split_at(256);
            let (a, b) = churn.split_at(64);
            let swap_ab = UpdateBatch {
                deletions: a.to_vec(),
                insertions: b.to_vec(),
            };
            let swap_ba = UpdateBatch {
                deletions: b.to_vec(),
                insertions: a.to_vec(),
            };
            let mut spanner = FullyDynamicSpanner::builder(n)
                .stretch(2)
                .seed(41)
                .build(core)
                .unwrap();
            let mut sparsifier = FullyDynamicSparsifier::builder(n)
                .seed(43)
                .build(core)
                .unwrap();
            let mut buf = DeltaBuf::new();
            for s in [
                &mut spanner as &mut dyn FullyDynamic,
                &mut sparsifier as &mut dyn FullyDynamic,
            ] {
                s.insert_into(a, &mut buf);
                for _ in 0..4 {
                    s.apply_into(&swap_ab, &mut buf);
                    s.apply_into(&swap_ba, &mut buf);
                }
            }
            let rebuilds = (spanner.num_rebuilds(), sparsifier.num_rebuilds());
            let before = pool_allocs();
            for _ in 0..10 {
                spanner.apply_into(&swap_ab, &mut buf);
                assert_eq!(buf.recourse(), churn.len());
                spanner.apply_into(&swap_ba, &mut buf);
                assert_eq!(buf.recourse(), churn.len());
                sparsifier.apply_into(&swap_ab, &mut buf);
                assert_eq!(buf.recourse(), churn.len());
                sparsifier.apply_into(&swap_ba, &mut buf);
                assert_eq!(buf.recourse(), churn.len());
            }
            assert_eq!(
                pool_allocs() - before,
                0,
                "E₀-resident apply_into allocated after warm-up at {threads} threads"
            );
            assert_eq!(
                (spanner.num_rebuilds(), sparsifier.num_rebuilds()),
                rebuilds,
                "a slot was rebuilt inside the measured window"
            );
        });
    }

    // --- 6. EdgeTable churn near maximum load: 39,000 live keys in
    //        65,536 slots (between ½ and ⅝ load), each round removing
    //        256 random live keys and inserting 256 fresh ones. Removals
    //        backward-shift instead of leaving tombstones, so the table
    //        never rehashes and the loop is exactly zero. ---
    let mut table = batch_spanners::dstruct::EdgeTable::with_capacity(39_000);
    let mut live: Vec<u32> = (0..39_000).collect();
    for &k in &live {
        table.insert(k, k + 1, k as u64);
    }
    let (cap, mut fresh, mut draw) = (table.capacity(), live.len() as u32, 0u64);
    let before = allocs();
    for _ in 0..100 {
        for _ in 0..256 {
            draw += 1;
            let i = batch_spanners::dstruct::fx::mix64(draw) as usize % live.len();
            let k = live.swap_remove(i);
            assert_eq!(table.remove(k, k + 1), Some(k as u64));
        }
        for _ in 0..256 {
            assert_eq!(table.insert(fresh, fresh + 1, fresh as u64), None);
            live.push(fresh);
            fresh += 1;
        }
    }
    assert_eq!(
        allocs() - before,
        0,
        "EdgeTable remove/insert churn allocated near max load"
    );
    assert_eq!((table.len(), table.capacity()), (live.len(), cap));

    // --- 7. ShardedView batch reads: `batch_contains` and
    //        `batch_weight` into warm outputs are exactly zero, for the
    //        served 1,024-query burst (the pipelined sequential path)
    //        and for GRAIN + 1 queries (the parallel chunks), at 1 and at
    //        2 threads. ---
    for threads in [1, 2] {
        bds_par::run_with_threads(threads, || {
            let n = 500;
            let init = gen::gnm(n, 4_000, 29);
            let engine = ShardedEngineBuilder::new(n)
                .shards(2)
                .build_with(&init, move |_, shard_edges| {
                    MirrorSpanner::build(n, shard_edges)
                })
                .unwrap();
            let view = ShardedView::of(&engine);
            let probes = gen::gnm(n, 3_000, 31);
            for len in [1_024, bds_par::GRAIN + 1] {
                let queries = &probes[..len];
                let (mut hits, mut weights) = (Vec::new(), Vec::new());
                view.batch_contains(queries, &mut hits);
                view.batch_weight(queries, &mut weights);
                let live = hits.iter().filter(|&&h| h).count();
                assert!(live > 0 && live < len, "probes mix live and absent edges");
                let before = pool_allocs();
                for _ in 0..10 {
                    view.batch_contains(queries, &mut hits);
                    view.batch_weight(queries, &mut weights);
                }
                assert_eq!(
                    pool_allocs() - before,
                    0,
                    "batch reads of {len} queries allocated at {threads} threads"
                );
                assert_eq!(hits.iter().filter(|&&h| h).count(), live);
            }
        });
    }
}
