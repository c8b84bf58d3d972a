//! Property-based tests (proptest) over random update scripts: the
//! workspace-level invariants that must hold for *every* schedule, not
//! just the seeded ones.

use batch_spanners::gen;
use batch_spanners::prelude::*;
use bds_dstruct::{DynamicForest, EdgeTable, FxHashMap, FxHashSet, PriorityList};
use bds_graph::csr::edge_stretch;
use bds_graph::UnionFind;
use proptest::prelude::*;

/// Random small graph + deletion order.
fn graph_strategy() -> impl Strategy<Value = (usize, Vec<Edge>, u64)> {
    (20usize..50, 2usize..6, any::<u64>()).prop_map(|(n, d, seed)| {
        let edges = gen::gnm(n, d * n, seed);
        (n, edges, seed)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The decremental (2k−1)-spanner keeps its stretch under any
    /// deletion schedule and its deltas replay exactly.
    #[test]
    fn decremental_spanner_invariants((n, edges, seed) in graph_strategy(), k in 2u32..4) {
        let mut s = DecrementalSpanner::new(n, k, &edges, seed ^ 0xabc);
        let mut shadow: FxHashSet<Edge> = s.spanner_edges().into_iter().collect();
        let mut live = edges;
        let mut cursor = 0usize;
        let mut delta = DeltaBuf::new();
        while live.len() > 10 {
            let b = 1 + (seed as usize + cursor) % 7;
            cursor += 1;
            let batch: Vec<Edge> = live.split_off(live.len().saturating_sub(b));
            s.delete_into(&batch, &mut delta);
            delta.apply_to(&mut shadow);
            let st = edge_stretch(n, &live, &s.spanner_edges(), 20, seed);
            prop_assert!(st <= (2 * k - 1) as f64, "stretch {} exceeded {}", st, 2 * k - 1);
        }
        s.validate();
    }

    /// The HDT dynamic forest always reports a spanning forest of the
    /// live graph (acyclic + same connectivity).
    #[test]
    fn dynamic_forest_is_spanning((n, edges, _seed) in graph_strategy()) {
        let mut f = DynamicForest::new(n);
        let mut live: Vec<Edge> = Vec::new();
        for (i, e) in edges.iter().enumerate() {
            if i % 3 == 2 && !live.is_empty() {
                let gone = live.swap_remove(i % live.len());
                f.delete_edge(gone.u, gone.v);
            }
            if !live.contains(e) {
                f.insert_edge(e.u, e.v);
                live.push(*e);
            }
        }
        // forest edges are acyclic and realize the live connectivity.
        let mut uf_f = UnionFind::new(n);
        for (a, b) in f.forest_edges() {
            prop_assert!(uf_f.union(a, b), "cycle in forest");
        }
        let mut uf_g = UnionFind::new(n);
        for e in &live {
            uf_g.union(e.u, e.v);
        }
        for a in 0..n as V {
            for b in (a + 1)..n as V {
                prop_assert_eq!(uf_f.same(a, b), uf_g.same(a, b));
            }
        }
        f.validate();
    }

    /// PriorityList behaves like a sorted-descending association list
    /// under randomized insert / remove / update_priority interleavings,
    /// and its rank and scan queries (`bound_rank`, `next_with`) agree
    /// with the BTreeMap oracle after every operation — the full
    /// Lemma 3.1 interface driven against a model, exercising the flat
    /// representation's tombstone/compaction/resurrection paths.
    #[test]
    fn priority_list_model(
        ops in prop::collection::vec(
            (0u64..200, any::<u16>(), 0u64..200, 0usize..40),
            1..150,
        ),
    ) {
        use std::cmp::Reverse;
        let mut pl: PriorityList<u16> = PriorityList::new();
        let mut model: std::collections::BTreeMap<Reverse<u64>, u16> = Default::default();
        for (p, v, q, from_rank) in ops {
            if let Some(want) = model.remove(&Reverse(p)) {
                prop_assert_eq!(pl.remove(p), Some(want));
            } else {
                pl.insert(p, v);
                model.insert(Reverse(p), v);
            }
            // UpdatePriority p -> q whenever p is live and q is free.
            if p != q && model.contains_key(&Reverse(p)) && !model.contains_key(&Reverse(q)) {
                let val = model.remove(&Reverse(p)).unwrap();
                model.insert(Reverse(q), val);
                prop_assert!(pl.update_priority(p, q));
            }
            prop_assert_eq!(pl.len(), model.len());
            // bound_rank(q) = number of live priorities strictly above q.
            let above = model.keys().filter(|Reverse(k)| *k > q).count();
            prop_assert_eq!(pl.bound_rank(q), above, "bound_rank({})", q);
            // next_with from an arbitrary rank against the oracle scan.
            let mut work = 0u64;
            let got = pl
                .next_with(from_rank, |_, &val| val % 3 == 0, &mut work)
                .map(|(r, pr, &val)| (r, pr, val));
            let want = model
                .iter()
                .enumerate()
                .skip(from_rank)
                .find(|(_, (_, &val))| val % 3 == 0)
                .map(|(r, (&Reverse(pr), &val))| (r, pr, val));
            prop_assert_eq!(got, want, "next_with from {}", from_rank);
        }
        for (rank, (std::cmp::Reverse(p), v)) in model.iter().enumerate() {
            prop_assert_eq!(pl.kth(rank), Some((*p, v)));
            prop_assert_eq!(pl.rank_of(*p), Some(rank));
            prop_assert_eq!(pl.find(*p), Some((rank, v)));
        }
        let entries: Vec<(u64, u16)> = pl.iter().map(|(p, &v)| (p, v)).collect();
        let want: Vec<(u64, u16)> = model.iter().map(|(&std::cmp::Reverse(p), &v)| (p, v)).collect();
        prop_assert_eq!(entries, want);
    }

    /// `from_sorted_entries` (the batch-build path) and incremental
    /// inserts produce observationally identical lists: same entries,
    /// same scan results, same scan work.
    #[test]
    fn priority_list_builds_agree(
        raw in prop::collection::vec(0u64..10_000, 1..200),
        from in 0usize..64,
    ) {
        let prios: std::collections::BTreeSet<u64> = raw.into_iter().collect();
        let entries: Vec<(u64, u32)> = prios
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, i as u32))
            .collect();
        let mut desc = entries.clone();
        desc.sort_unstable_by_key(|&(p, _)| std::cmp::Reverse(p));
        let bulk: PriorityList<u32> = PriorityList::from_sorted_entries(desc.iter().copied());
        let mut inc: PriorityList<u32> = PriorityList::new();
        for &(p, v) in &entries {
            inc.insert(p, v);
        }
        prop_assert_eq!(bulk.iter().collect::<Vec<_>>(), inc.iter().collect::<Vec<_>>());
        let (mut wa, mut wb) = (0u64, 0u64);
        let a = bulk.next_with(from, |_, &v| v % 7 == 0, &mut wa).map(|(r, p, &v)| (r, p, v));
        let b = inc.next_with(from, |_, &v| v % 7 == 0, &mut wb).map(|(r, p, &v)| (r, p, v));
        prop_assert_eq!(a, b);
        prop_assert_eq!(wa, wb);
        if let Some(&p) = prios.iter().next() {
            prop_assert_eq!(bulk.bound_rank(p), inc.bound_rank(p));
        }
    }

    /// `EdgeTable` agrees with a tuple-keyed `FxHashMap<(V, V), u64>`
    /// model under random interleaved point inserts / removes / gets
    /// and insert / remove / get batches. The 6 × 6 key space keeps the
    /// table at 16–64 slots, dense enough that clusters wrap past slot
    /// 0 and removals shift entries back across the wrap.
    #[test]
    fn edge_table_matches_hashmap_model(
        steps in prop::collection::vec(
            (0u8..4, prop::collection::vec((0u32..6, 0u32..6, any::<u64>()), 1..24)),
            1..40,
        ),
    ) {
        let mut table = EdgeTable::new();
        let mut model: FxHashMap<(V, V), u64> = FxHashMap::default();
        for (op, items) in steps {
            match op {
                0 => {
                    for (u, v, val) in items {
                        prop_assert_eq!(table.insert(u, v, val), model.insert((u, v), val));
                    }
                }
                1 => {
                    for (u, v, _) in items {
                        prop_assert_eq!(table.remove(u, v), model.remove(&(u, v)));
                    }
                }
                2 => {
                    for (u, v, _) in items {
                        prop_assert_eq!(table.get(u, v), model.get(&(u, v)).copied());
                    }
                }
                _ => {
                    // Split the batch: keys already present become a
                    // remove batch, fresh keys an insert batch (first
                    // occurrence wins within the batch — both structures
                    // need distinct keys).
                    let mut seen: FxHashSet<(V, V)> = FxHashSet::default();
                    let mut ins: Vec<(V, V, u64)> = Vec::new();
                    let mut del: Vec<(V, V)> = Vec::new();
                    for (u, v, val) in items {
                        if !seen.insert((u, v)) {
                            continue;
                        }
                        if model.remove(&(u, v)).is_some() {
                            del.push((u, v));
                        } else {
                            model.insert((u, v), val);
                            ins.push((u, v, val));
                        }
                    }
                    prop_assert_eq!(table.remove_batch(&del), del.len());
                    prop_assert_eq!(table.insert_batch(&ins), ins.len());
                    let queries: Vec<(V, V)> = seen.iter().copied().collect();
                    let got = table.get_batch(&queries);
                    for (q, g) in queries.iter().zip(got) {
                        prop_assert_eq!(g, model.get(q).copied(), "query {:?}", q);
                    }
                }
            }
            prop_assert_eq!(table.len(), model.len());
            for u in 0..6 {
                for v in 0..6 {
                    prop_assert_eq!(table.get(u, v), model.get(&(u, v)).copied(), "key {:?}", (u, v));
                }
            }
        }
        let mut got: Vec<(V, V, u64)> = table.iter().collect();
        let mut want: Vec<(V, V, u64)> =
            model.into_iter().map(|((u, v), val)| (u, v, val)).collect();
        got.sort_unstable();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    /// Regression: `EsTree` distance labels match an independent
    /// sequential BFS oracle after randomized deletion batches.
    #[test]
    fn estree_distances_match_bfs_oracle((n, edges, seed) in graph_strategy()) {
        use batch_spanners::estree::UNREACHED;
        let l = 10u32;
        let directed: Vec<(V, V, u64)> = edges
            .iter()
            .flat_map(|e| {
                [
                    (e.u, e.v, ((e.u as u64) << 32) | e.u as u64),
                    (e.v, e.u, ((e.v as u64) << 32) | e.v as u64),
                ]
            })
            .collect();
        let mut t = EsTree::new(n, 0, l, &directed);
        let mut live = edges;
        let mut cursor = 0usize;
        while live.len() > 8 {
            let b = 1 + (seed as usize + cursor) % 9;
            cursor += 1;
            let batch: Vec<Edge> = live.split_off(live.len().saturating_sub(b));
            let dirs: Vec<(V, V)> =
                batch.iter().flat_map(|e| [(e.u, e.v), (e.v, e.u)]).collect();
            t.delete_batch(&dirs);
            // Independent oracle: plain queue BFS over the live edges.
            let mut adj: Vec<Vec<V>> = vec![Vec::new(); n];
            for e in &live {
                adj[e.u as usize].push(e.v);
                adj[e.v as usize].push(e.u);
            }
            let mut want = vec![UNREACHED; n];
            want[0] = 0;
            let mut queue = std::collections::VecDeque::from([0 as V]);
            while let Some(u) = queue.pop_front() {
                if want[u as usize] >= l {
                    continue;
                }
                for &w in &adj[u as usize] {
                    if want[w as usize] == UNREACHED {
                        want[w as usize] = want[u as usize] + 1;
                        queue.push_back(w);
                    }
                }
            }
            for v in 0..n as V {
                prop_assert_eq!(t.dist(v), want[v as usize], "vertex {}", v);
            }
        }
    }

    /// `UpdateBatch::from_pairs` + `normalized()` — the typed-input
    /// contract: self-loops and duplicates drop with an exact report,
    /// the output lists are sorted/deduped/canonical, and an edge in
    /// both lists is rejected with `BatchError::EdgeInBothLists` iff the
    /// canonicalized lists intersect.
    #[test]
    fn update_batch_normalization_contract(
        ins in prop::collection::vec((0u32..30, 0u32..30), 0..40),
        del in prop::collection::vec((0u32..30, 0u32..30), 0..40),
    ) {
        let (batch, report) = UpdateBatch::from_pairs(&ins, &del);
        // Report accounting is exact.
        let loops = ins.iter().chain(&del).filter(|(a, b)| a == b).count();
        prop_assert_eq!(report.self_loops_dropped, loops);
        prop_assert_eq!(
            batch.insertions.len() + report.duplicate_insertions_dropped,
            ins.iter().filter(|(a, b)| a != b).count()
        );
        prop_assert_eq!(
            batch.deletions.len() + report.duplicate_deletions_dropped,
            del.iter().filter(|(a, b)| a != b).count()
        );
        // Output lists are sorted, deduped, canonical; every surviving
        // edge came from the input.
        for lane in [&batch.insertions, &batch.deletions] {
            for w in lane.windows(2) {
                prop_assert!(w[0] < w[1], "not sorted-dedup: {:?}", w);
            }
            for e in lane {
                prop_assert!(e.u < e.v, "non-canonical {:?}", e);
            }
        }
        for (e, raw) in [(&batch.insertions, &ins), (&batch.deletions, &del)] {
            for edge in e {
                prop_assert!(
                    raw.iter().any(|&(a, b)| Edge::try_new(a, b) == Some(*edge)),
                    "edge {:?} not in input",
                    edge
                );
            }
        }
        // normalized(): rejects iff the lists share an edge; otherwise
        // idempotent on already-normal batches.
        let shared = batch.insertions.iter().any(|e| batch.deletions.contains(e));
        match batch.normalized() {
            Err(BatchError::EdgeInBothLists(e)) => {
                prop_assert!(shared);
                prop_assert!(batch.insertions.contains(&e) && batch.deletions.contains(&e));
            }
            Ok((norm, rep)) => {
                prop_assert!(!shared);
                prop_assert_eq!(rep.total_dropped(), 0, "from_pairs output is already normal");
                prop_assert_eq!(norm.insertions, batch.insertions);
                prop_assert_eq!(norm.deletions, batch.deletions);
            }
            Err(other) => prop_assert!(false, "normalized() reported {:?}", other),
        }
    }

    /// Shard-vs-monolith equivalence: `ShardedEngine<FullyDynamicSpanner>`
    /// at N ∈ {1, 2, 7} shards and a single unsharded instance driven
    /// through *identical* random batch schedules materialize identical
    /// edge sets via the `apply_weighted_to` oracle. Stretch 1 makes the
    /// maintained output a deterministic function of the live graph (a
    /// 1-spanner is the graph itself), so the union of shard outputs
    /// must equal the monolith's output exactly — any routing, merge, or
    /// netting bug in the dispatcher shows up as a divergence. A
    /// `ShardedView` advanced once per batch must track the oracle too.
    #[test]
    fn sharded_engine_matches_monolith((n, edges, seed) in graph_strategy()) {
        use bds_graph::stream::UpdateStream;
        for shards in [1usize, 2, 7] {
            let mut mono = FullyDynamicSpanner::builder(n)
                .stretch(1)
                .seed(seed ^ 0x51ed)
                .build(&edges)
                .unwrap();
            let mut sharded = ShardedEngineBuilder::new(n)
                .shards(shards)
                .build_with(&edges, move |i, shard_edges| {
                    FullyDynamicSpanner::builder(n)
                        .stretch(1)
                        .seed(seed ^ 0xca11 ^ i as u64)
                        .build(shard_edges)
                })
                .unwrap();
            let mut buf = DeltaBuf::new();
            let mut shadow_mono: FxHashMap<Edge, u64> = Default::default();
            mono.output_into(&mut buf);
            buf.apply_weighted_to(&mut shadow_mono);
            let mut shadow_sharded: FxHashMap<Edge, u64> = Default::default();
            sharded.output_into(&mut buf);
            buf.apply_weighted_to(&mut shadow_sharded);
            prop_assert_eq!(&shadow_mono, &shadow_sharded, "initial outputs diverge");
            let mut view = ShardedView::of(&sharded);

            // Identical schedules: twin streams with one seed.
            let mut stream_m = UpdateStream::new(n, &edges, seed ^ 0xbeef);
            let mut stream_s = UpdateStream::new(n, &edges, seed ^ 0xbeef);
            for round in 0..8 {
                let bm = stream_m.next_batch(6, 5);
                let bs = stream_s.next_batch(6, 5);
                prop_assert_eq!(&bm.insertions, &bs.insertions);
                prop_assert_eq!(&bm.deletions, &bs.deletions);
                mono.apply_into(&bm, &mut buf);
                buf.apply_weighted_to(&mut shadow_mono);
                sharded.apply_into(&bs, &mut buf);
                buf.apply_weighted_to(&mut shadow_sharded);
                prop_assert_eq!(
                    &shadow_mono,
                    &shadow_sharded,
                    "round {}: sharded[{}] output diverged from monolith",
                    round,
                    shards
                );
                prop_assert_eq!(
                    BatchDynamic::num_live_edges(&sharded),
                    mono.num_live_edges(),
                    "round {}: live-edge counts diverge",
                    round
                );
                view.apply(&sharded);
                prop_assert_eq!(view.len(), shadow_mono.len(), "round {}: view size", round);
                for (&e, _) in shadow_mono.iter().take(20) {
                    prop_assert!(view.contains(e), "round {}: view missing {:?}", round, e);
                }
            }
        }
    }

    /// Layout changes by rebuild: the shard count is fixed per engine,
    /// so a sharded engine driven through a random schedule is rebuilt
    /// from its live input edges at k ∈ {3, 7, 1} mid-schedule, and must
    /// materialize the same edge set as the monolith oracle after every
    /// round (stretch 1 makes the output a deterministic function of the
    /// live graph). The read mirror is re-bound to each rebuilt engine
    /// with `reseed`, advanced with `apply` otherwise, and must track
    /// the oracle too.
    #[test]
    fn elastic_sharded_engine_matches_monolith((n, edges, seed) in graph_strategy()) {
        use bds_graph::stream::UpdateStream;
        let build = |shards: usize, edges: &[Edge]| {
            ShardedEngineBuilder::new(n)
                .shards(shards)
                .build_with(edges, move |i, shard_edges| {
                    FullyDynamicSpanner::builder(n)
                        .stretch(1)
                        .seed(0xca11 ^ i as u64)
                        .build(shard_edges)
                })
                .unwrap()
        };
        let mut mono = FullyDynamicSpanner::builder(n)
            .stretch(1)
            .seed(seed ^ 0x51ed)
            .build(&edges)
            .unwrap();
        let mut sharded = build(2, &edges);
        let mut buf = DeltaBuf::new();
        let mut shadow_mono: FxHashMap<Edge, u64> = Default::default();
        mono.output_into(&mut buf);
        buf.apply_weighted_to(&mut shadow_mono);
        let mut view = ShardedView::of(&sharded);

        let mut stream_m = UpdateStream::new(n, &edges, seed ^ 0xe1a5);
        let mut stream_s = UpdateStream::new(n, &edges, seed ^ 0xe1a5);
        for round in 0..10 {
            // Layout events between batches: rebuild at a new count.
            let shards = match round {
                2 => Some(3),
                6 => Some(7),
                8 => Some(1),
                _ => None,
            };
            if let Some(k) = shards {
                let live: Vec<Edge> = sharded.live_input_edges().collect();
                prop_assert_eq!(live.len(), mono.num_live_edges());
                sharded = build(k, &live);
                prop_assert_eq!(sharded.num_shards(), k);
                view.reseed(&sharded, &mut buf);
            }
            let bm = stream_m.next_batch(6, 5);
            let bs = stream_s.next_batch(6, 5);
            prop_assert_eq!(&bm.insertions, &bs.insertions);
            prop_assert_eq!(&bm.deletions, &bs.deletions);
            mono.apply_into(&bm, &mut buf);
            buf.apply_weighted_to(&mut shadow_mono);
            sharded.apply_into(&bs, &mut buf);
            // Oracle: the union of shard outputs equals the monolith.
            let mut shadow_sharded: FxHashMap<Edge, u64> = Default::default();
            sharded.output_into(&mut buf);
            buf.apply_weighted_to(&mut shadow_sharded);
            prop_assert_eq!(
                &shadow_mono,
                &shadow_sharded,
                "round {}: rebuilt sharded output diverged from monolith",
                round
            );
            prop_assert_eq!(
                BatchDynamic::num_live_edges(&sharded),
                mono.num_live_edges(),
                "round {}: live-edge counts diverge",
                round
            );
            view.apply(&sharded);
            prop_assert_eq!(view.num_shards(), sharded.num_shards());
            prop_assert_eq!(view.len(), shadow_mono.len(), "round {}: view size", round);
            for (&e, _) in shadow_mono.iter().take(20) {
                prop_assert!(view.contains(e), "round {}: view missing {:?}", round, e);
            }
        }
    }

    /// The fully-dynamic wrapper preserves the spanner property across
    /// arbitrary interleavings of insert and delete batches.
    #[test]
    fn fully_dynamic_mixed_schedule((n, edges, seed) in graph_strategy()) {
        let half = edges.len() / 2;
        let mut s = FullyDynamicSpanner::new(n, 2, &edges[..half], seed);
        // Insert the rest in chunks, deleting a prefix chunk in between.
        let rest: Vec<Edge> = edges[half..].to_vec();
        let mut live: FxHashSet<Edge> = edges[..half].iter().copied().collect();
        let mut d = DeltaBuf::new();
        for chunk in rest.chunks(9) {
            let fresh: Vec<Edge> = chunk.iter().copied().filter(|e| live.insert(*e)).collect();
            s.insert_into(&fresh, &mut d);
            // delete up to 3 live edges
            let dels: Vec<Edge> = live.iter().copied().take(3).collect();
            for e in &dels {
                live.remove(e);
            }
            s.delete_into(&dels, &mut d);
        }
        let live_edges: Vec<Edge> = live.iter().copied().collect();
        let st = edge_stretch(n, &live_edges, &s.spanner_edges(), 20, seed);
        prop_assert!(st <= 3.0, "stretch {}", st);
        s.validate();
    }
}

/// Tiny deterministic RNG for batch scripts (replayable per case).
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Batch-dynamic connectivity vs a union-find oracle, monolith and
    /// sharded in lockstep: random batch link/cut (including cut storms
    /// that slash half the live edges at once, forcing replacement-edge
    /// searches), with every `batch_connected` answer, component count,
    /// and component size checked each round. The sharded engine is
    /// answered through `ConnView` over the unioned shard forests —
    /// the union of per-shard spanning forests preserves connectivity
    /// of the union graph, and this test is the proof in motion.
    #[test]
    fn batch_connectivity_matches_union_find(
        (n, edges, seed) in graph_strategy(),
        shards in 2usize..5,
    ) {
        let mut mono = BatchConnectivity::builder(n).build(&[]).unwrap();
        let mut engine = ShardedEngineBuilder::new(n)
            .shards(shards)
            .build_with(&[], move |_, es| BatchConnectivity::builder(n).build(es))
            .unwrap();
        let mut sview = ShardedView::of(&engine);
        let mut cview = ConnView::from_output(n, &mono);

        let mut live: FxHashSet<Edge> = FxHashSet::default();
        let mut rng = seed | 1;
        let mut delta = DeltaBuf::new();
        let mut answers = Vec::new();
        for round in 0..12 {
            let mut batch = UpdateBatch::default();
            let live_vec: Vec<Edge> = live.iter().copied().collect();
            if round % 4 == 3 {
                // Cut storm: delete every other live edge in one batch.
                for e in live_vec.iter().step_by(2) {
                    live.remove(e);
                    batch.deletions.push(*e);
                }
            } else {
                for _ in 0..3 {
                    if live_vec.is_empty() {
                        break;
                    }
                    let e = live_vec[(lcg(&mut rng) % live_vec.len() as u64) as usize];
                    if live.remove(&e) {
                        batch.deletions.push(e);
                    }
                }
            }
            let mut tries = 0;
            while batch.insertions.len() < 6 && tries < 40 {
                tries += 1;
                let e = edges[(lcg(&mut rng) % edges.len() as u64) as usize];
                if !batch.deletions.contains(&e) && live.insert(e) {
                    batch.insertions.push(e);
                }
            }

            mono.apply_into(&batch, &mut delta);
            cview.apply(&delta);
            engine.apply_into(&batch, &mut delta);
            sview.apply(&engine);
            let sconn = ConnView::from_edges(n, &sview.edges());

            let mut uf = UnionFind::new(n);
            for e in &live {
                uf.union(e.u, e.v);
            }

            prop_assert_eq!(mono.num_components(), uf.components());
            prop_assert_eq!(cview.num_components(), uf.components());
            prop_assert_eq!(sconn.num_components(), uf.components());

            let pairs: Vec<(V, V)> = (0..24)
                .map(|_| {
                    (
                        (lcg(&mut rng) % n as u64) as V,
                        (lcg(&mut rng) % n as u64) as V,
                    )
                })
                .collect();
            mono.batch_connected(&pairs, &mut answers);
            for (i, &(a, b)) in pairs.iter().enumerate() {
                let want = uf.same(a, b);
                prop_assert_eq!(answers[i], want, "monolith pair ({}, {})", a, b);
                prop_assert_eq!(cview.connected(a, b), want, "view pair ({}, {})", a, b);
                prop_assert_eq!(sconn.connected(a, b), want, "sharded pair ({}, {})", a, b);
            }
            for _ in 0..8 {
                let v = (lcg(&mut rng) % n as u64) as V;
                prop_assert_eq!(mono.component_size(v), uf.component_size(v));
                prop_assert_eq!(cview.component_size(v), uf.component_size(v));
                prop_assert_eq!(sconn.component_size(v), uf.component_size(v));
            }
        }
    }
}
